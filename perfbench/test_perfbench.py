"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import importlib
import json
import signal
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, jobs, trace, worker  # noqa: E402


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_gives_identical_argv(workload):
    first = [j.argv for j in jobs.build_jobs(workload, 7)]
    assert first == [j.argv for j in jobs.build_jobs(workload, 7)]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_other_seed_keeps_stratum_counts(workload):
    a, b = jobs.build_jobs(workload, 7), jobs.build_jobs(workload, 8)
    assert Counter(j.stratum for j in a) == Counter(j.stratum for j in b)
    assert sorted(j.argv for j in a) != sorted(j.argv for j in b)


def _tiny_jobs():
    b = jobs._Builder("test", 0)
    b.sieve("focus", "cubic_irr", 300, "json")
    b.sieve("focus", "quad_red", 200, "csv")
    b.clt("focus", "quad_irr", 200, 100)
    b.fluct("focus", 100, 2, 50, True, k=2)
    b.energy("focus", "quad_red", 300)
    b.chunked("focus", "quad_irr", [50, 100])
    b.audit("focus", "quad_red", [50, 100])
    return b.finish()


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """The tiny job list run once untraced and once traced, with captures."""
    import polyrmf.cli as cli
    work = tmp_path_factory.mktemp("work")
    (work / "out").mkdir()
    previous = signal.signal(signal.SIGALRM, worker._alarm)
    capture, tracer = worker.Capture(cli), trace.Tracer()
    records, traced, reference = {}, {}, {}
    try:
        worker.run_pass(cli, _tiny_jobs(), work, records, capture=capture,
                        tracer=tracer, traced=traced, reference=reference)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return {"cli": cli, "work": work, "jobs": _tiny_jobs(), "records": records,
            "traced": traced, "captures": capture.data, "trace": tracer.dump()}


def test_tracer_restores_every_patched_name(tiny_run):
    import polyrmf.sieve as sieve
    assert tiny_run["cli"].factor_values is sieve.factor_values
    assert not hasattr(sieve.factor_values, "__wrapped__")
    assert not hasattr(sieve.FactorTable.write_json, "__wrapped__")


def test_traced_self_times_sum_to_traced_wall_time(tiny_run):
    doc = json.loads(json.dumps(tiny_run["trace"]))
    wall = sum(r["t"] for r in tiny_run["traced"].values())
    self_total = sum(e["self"] for e in trace.by_name(doc).values())
    assert len(tiny_run["traced"]) == len(tiny_run["jobs"])
    assert abs(self_total - wall) <= 0.01 * wall
    layers = set(trace.layer_self(doc))
    assert {"cli", "polynomial", "primes", "sieve", "rmf", "clt_audit",
            "energy", "fluctuations"} <= layers
    metrics = trace.per_layer_metrics(doc, wall, wall)
    assert metrics["sieve.values"][0] > 0 and metrics["energy.pairs"][0] > 0


def _verdict(run, job, text=None):
    path = worker.out_path(run["work"], job)
    if text is None:
        text = path.read_text()
    return checks.check_job(job, run["records"][job.id], text,
                            run["captures"].get(job.id), checks.Factorizer())


def test_every_tiny_job_passes_its_checks(tiny_run):
    for job in tiny_run["jobs"]:
        v = _verdict(tiny_run, job)
        assert v["status"] == "ok", (job.stratum, v["reason"])
        if job.cls in ("clt", "fluct"):
            assert v["replicates_checked"] is True


def _job(run, stratum_prefix):
    return next(j for j in run["jobs"] if j.stratum.startswith(stratum_prefix))


def test_corrupted_factorization_counts_as_failed(tiny_run):
    job = _job(tiny_run, "focus/sieve/cubic_irr/json")
    doc = json.loads(worker.out_path(tiny_run["work"], job).read_text())
    row = next(r for r in doc["result"]["rows"] if r["factors"])
    row["factors"][0][1] += 1
    v = _verdict(tiny_run, job, json.dumps(doc))
    assert v["status"] == "incorrect"


def test_corrupted_replicate_counts_as_failed(tiny_run):
    job = _job(tiny_run, "focus/clt/")
    captures = json.loads(json.dumps(tiny_run["captures"]))
    captures[job.id]["clt"]["values"][0][0] += 1e-6
    text = worker.out_path(tiny_run["work"], job).read_text()
    v = checks.check_job(job, tiny_run["records"][job.id], text,
                         captures[job.id], checks.Factorizer())
    assert v["status"] == "incorrect"


def test_energy_total_and_nan_output_count_as_failed(tiny_run):
    job = _job(tiny_run, "focus/energy/")
    doc = json.loads(worker.out_path(tiny_run["work"], job).read_text())
    doc["result"]["total"] += 1
    assert _verdict(tiny_run, job, json.dumps(doc))["status"] == "incorrect"
    doc["result"]["offdiag_over_bound"] = float("nan")
    assert _verdict(tiny_run, job, json.dumps(doc))["status"] == "failed"


def test_timeout_and_wrong_exit_count_as_failed(tiny_run):
    job = _job(tiny_run, "focus/audit/")
    text = worker.out_path(tiny_run["work"], job).read_text()
    rec = dict(tiny_run["records"][job.id][0])
    for bad in ({"timeout": True}, {"rc": 1}):
        v = checks.check_job(job, [{**rec, **bad}], text, None, checks.Factorizer())
        assert v["status"] == "failed"


def test_brute_force_checks_match_pinned_counts():
    assert checks.energy_total([checks.peval((1, 0, 1), n) for n in (1, 2, 3)]) == 15
    assert checks.energy_total([checks.peval((0, -6, 1), n) for n in range(1, 6)]) == 129


def test_absent_function_is_reported_not_raised(monkeypatch):
    # polyrmf re-exports a function named energy, so fetch the module itself
    energy = importlib.import_module("polyrmf.energy")
    monkeypatch.delattr(energy, "_pair_total_int64")
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert "polyrmf.energy._pair_total_int64" in tracer.absent
    finally:
        tracer.uninstall()
