"""polyrmf benchmark: seeded sweeps of in-process CLI jobs.

    python3 perfbench/run.py --workload factor --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (``src/polyrmf`` must exist; the
program runs from source, nothing is installed).  Workloads:

* ``factor``     -- ``sieve`` jobs over a doubling ladder of N, quadratics and
  cubics, irreducible and reducible, JSON and CSV output;
* ``montecarlo`` -- ``clt`` jobs on an N x reps grid and ``fluct`` jobs with
  and without ``--conditional``;
* ``exact``      -- ``energy`` (int64 and Python-int paths), ``energy --grid
  --chunked`` twins of direct jobs, ``audit`` grids, and the pinned counts.

Each workload also carries edge-case jobs with expected exit codes (see
``jobs.py``).

Set-up (``setup_s``) is the median over several fresh interpreters of the
time to import ``polyrmf.cli`` and build the job list.  The sweep runs in a
fresh single-threaded worker process (``worker.py``); every job's output is
then checked by code that does not use polyrmf (``checks.py``).  Timings
cover focus jobs that passed every check.  With ``--trace 0`` the last
line holds the end-to-end metrics; with ``--trace 1`` every job runs twice
more, traced and untraced, for the per-layer metrics (``trace.py``) and
the tracing overhead.  The run exits 1
when a check refutes an output, and 2 when it cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.checks import Factorizer, check_job, check_twins  # noqa: E402
from perfbench.jobs import CLASSES, WORKLOADS, build_jobs  # noqa: E402
from perfbench.trace import layer_self, per_layer_metrics  # noqa: E402
from perfbench.worker import out_path  # noqa: E402

SETUP_RUNS = 7
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp)  # --chunked spills its runs here
    return env


def measure_setup(args, env) -> float:
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, env=env)
        # a watchdog instead of wait(timeout=...), which polls in 50 ms steps
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
        times.append(perf_counter() - t0)
        if rc != 0:
            raise subprocess.CalledProcessError(rc, cmd)
    return statistics.median(times)


def run_worker(args, work: Path, env) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work)]
    subprocess.run(cmd, env=env, check=True, timeout=WORKER_TIMEOUT_S)
    with open(work / "worker.json") as fh:
        return json.load(fh)


def verify(jobs, doc, work: Path) -> dict[str, dict]:
    fac = Factorizer()
    verdicts = {}
    for job in jobs:
        path = out_path(work, job)
        text = path.read_text() if path.exists() else None
        verdicts[job.id] = check_job(job, doc["records"][job.id], text,
                                     doc["captures"].get(job.id), fac)
    check_twins(jobs, verdicts)
    return verdicts


def percentile(values, q: int) -> float:
    """q-th percentile (1..99) by statistics.quantiles' default method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(jobs, ok, doc, setup_s) -> tuple[dict, dict]:
    """Sums and percentiles of each passing job's median time over passes.

    Medians over passes keep a burst of load from another process on a
    shared machine out of the figures.  Edge jobs count toward failures
    only: their millisecond refusals would otherwise decide the median.
    Returns the gated metrics and the summed time of each job class the
    workload runs, which is printed but not gated: a class a workload does
    not run would read 0.
    """
    ok_jobs = [j for j in jobs if j.id in ok and j.tier != "edge"]
    t = {j.id: statistics.median(r["t"] for r in doc["records"][j.id])
         for j in ok_jobs}
    per_job = list(t.values())
    m = {
        "setup_s": (setup_s, "s"),
        "sweep_s": (sum(per_job), "s"),
        "job_s_p50": (statistics.median(per_job), "s"),
        "job_s_p90": (percentile(per_job, 90), "s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
    }
    classes = {f"{c}_s": (sum(t[j.id] for j in ok_jobs if j.cls == c), "s")
               for c in CLASSES if any(j.cls == c for j in ok_jobs)}
    return m, classes


def traced_metrics(jobs, ok, doc, work: Path) -> tuple[dict, dict]:
    with open(work / "trace.json") as fh:
        trace = json.load(fh)
    ids = [j.id for j in jobs
           if j.id in ok and j.id in doc["traced"] and j.tier != "edge"]
    untraced = sum(doc["reference"][i]["t"] for i in ids)
    traced = sum(doc["traced"][i]["t"] for i in ids)
    metrics = per_layer_metrics(trace, untraced, traced)
    shares = layer_self(trace)
    total = sum(shares.values()) or 1.0
    info = {"layer_self_share": {k: v / total for k, v in sorted(shares.items())},
            "traced_sweep_s": traced, "untraced_sweep_s": untraced,
            "absent": trace["absent"], "counter_errors": trace["counter_errors"],
            "spans": len(trace["spans"])}
    return metrics, info


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="polyrmf benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "polyrmf" / "cli.py").is_file():
        print(f"no polyrmf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    env = child_env(work / "tmp")
    try:
        setup_s = measure_setup(args, env)
        doc = run_worker(args, work, env)
        jobs = build_jobs(args.workload, args.seed)
        t_check = perf_counter()
        verdicts = verify(jobs, doc, work)
        check_s = perf_counter() - t_check
        ok = {jid for jid, v in verdicts.items() if v["status"] == "ok"}
        ungated = {"fail_frac": (1 - len(ok) / len(jobs), "fraction")}
        if args.trace:
            metrics, info = traced_metrics(jobs, ok, doc, work)
        else:
            (metrics, classes), info = end_to_end(jobs, ok, doc, setup_s), {}
            ungated.update(classes)
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [j for j in jobs if verdicts[j.id]["status"] != "ok"]
    incorrect = [j for j in failed if verdicts[j.id]["status"] == "incorrect"]
    unchecked = [j.id for j in jobs if verdicts[j.id]["replicates_checked"] is False]
    for job in failed:
        v = verdicts[job.id]
        print(f"# {v['status']}: {job.id} {job.stratum}: {v['reason']}",
              file=sys.stderr)
    summary = {"workload": args.workload, "seed": args.seed,
               "passes": len(doc["passes"]), "jobs": len(jobs),
               "check_s": round(check_s, 3),
               "replicates_unchecked": unchecked, "env": environment(), **info}
    print("# " + json.dumps(summary), file=sys.stderr)

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    for name, (value, unit) in ungated.items():
        print(f"{name:36s} {value:>16.6g} {unit} (not gated)")
    print(json.dumps({
        "correct": not incorrect,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if incorrect else 0


if __name__ == "__main__":
    raise SystemExit(main())
