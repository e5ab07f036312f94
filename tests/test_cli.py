import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "polyrmf", *args],
        capture_output=True, text=True, env=env,
    )


def test_classify_json():
    proc = run_cli("classify", "--poly", "x^2+1")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["tool"] == "polyrmf" and doc["command"] == "classify"
    res = doc["result"]
    assert res["clt_admissible"] is True
    assert res["fluct_admissible"] is True


def test_classify_accepts_both_poly_forms():
    human = json.loads(run_cli("classify", "--poly", "x^2 - 6x").stdout)
    csvf = json.loads(run_cli("classify", "--poly", "0,-6,1").stdout)
    assert human["result"] == csvf["result"]


def test_energy_rejects_pure_power_exit_2():
    proc = run_cli("energy", "--poly", "0,0,1", "--n", "10")
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"]["kind"] == "config"
    assert "pure power" in err["error"]["message"]


def test_energy_budget_exit_3():
    proc = run_cli("energy", "--poly", "x^2+1", "--n", "5000", "--budget", "1000")
    assert proc.returncode == 3
    err = json.loads(proc.stderr)
    assert err["error"]["kind"] == "budget"


def test_energy_report_fields(tmp_path):
    out = tmp_path / "e.json"
    proc = run_cli("energy", "--poly", "x^2+1", "--n", "10", "--out", str(out))
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    res = doc["result"]
    assert res["total"] == 202 and res["main_term"] == 190


def test_energy_json_mirrors_report_dataclass(tmp_path):
    import dataclasses

    from polyrmf.energy import EnergyReport

    out = tmp_path / "e.json"
    run_cli("energy", "--poly", "x^2+1", "--n", "10", "--out", str(out))
    res = json.loads(out.read_text())["result"]
    expected = {f.name for f in dataclasses.fields(EnergyReport)}
    assert set(res) == expected


def test_energy_grid_csv(tmp_path):
    out = tmp_path / "fit.csv"
    proc = run_cli("energy", "--poly", "x^2+1", "--grid", "20,40", "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,offdiag,ratio"
    assert len(lines) == 3


def test_sieve_csv(tmp_path):
    out = tmp_path / "t.csv"
    proc = run_cli("sieve", "--poly", "0,-6,1", "--n", "6",
                   "--format", "csv", "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,value,factorization,largest_prime"
    assert lines[6] == "6,0,1,0"


def test_sieve_json_density():
    proc = run_cli("sieve", "--poly", "x^2+1", "--n", "10", "--lpf-scale", "0")
    doc = json.loads(proc.stdout)
    assert doc["result"]["lpf_density"]["fraction"] == "1/1"


def test_clt_runs_and_writes(tmp_path):
    out = tmp_path / "clt.json"
    proc = run_cli("clt", "--poly", "x^2+1", "--n", "60", "--reps", "120",
                   "--seed", "7", "--out", str(out))
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    stats = doc["result"]["stats"]
    assert stats["n_samples"] == 120
    assert "samples" not in doc["result"]


def test_clt_dump_samples():
    proc = run_cli("clt", "--poly", "x^2+1", "--n", "40", "--reps", "100",
                   "--seed", "0x10", "--dump-samples")
    doc = json.loads(proc.stdout)
    assert len(doc["result"]["samples"]) == 100


def test_clt_thread_determinism():
    docs = []
    for threads in ("1", "4"):
        proc = run_cli("clt", "--poly", "x^2+1", "--n", "80", "--reps", "256",
                       "--seed", "99", "--threads", threads)
        docs.append(json.loads(proc.stdout)["result"]["stats"])
    assert docs[0] == docs[1]


def test_clt_rejects_pure_power():
    proc = run_cli("clt", "--poly", "0,0,1", "--n", "50", "--reps", "100",
                   "--seed", "1")
    assert proc.returncode == 2


def test_bad_seed_exit_2():
    proc = run_cli("clt", "--poly", "x^2+1", "--n", "50", "--reps", "100",
                   "--seed", "banana")
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"]["field"] == "seed"


def test_audit_subcommand():
    proc = run_cli("audit", "--poly", "x^2+1", "--grid", "30,60")
    doc = json.loads(proc.stdout)
    scales = doc["result"]["scales"]
    assert [s["N"] for s in scales] == [30, 60]
    assert scales[0]["variance_sum"] == "1/1"


def test_fluct_subcommand():
    proc = run_cli("fluct", "--poly", "x^2+1", "--x", "100", "--k", "2",
                   "--ratio", "4", "--reps", "8", "--seed", "5")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    res = doc["result"]
    assert len(res["scales"]) == 2
    assert "s1_matrix" not in res
    assert "max_stat_quantiles" in res


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_fluct_single_replicate_is_strict_json():
    proc = run_cli("fluct", "--poly", "x^2+1", "--x", "100", "--k", "2",
                   "--ratio", "4", "--reps", "1", "--seed", "5")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert doc["result"]["scales"][0]["var_re_s1"] is None


def test_threads_below_one_exit_2():
    for sub, opts in (
        ("clt", ["--n", "50", "--reps", "100", "--seed", "1"]),
        ("fluct", ["--x", "100", "--k", "2", "--ratio", "4", "--reps", "8",
                   "--seed", "1"]),
    ):
        proc = run_cli(sub, "--poly", "x^2+1", *opts, "--threads", "0")
        assert proc.returncode == 2
        err = json.loads(proc.stderr)["error"]
        assert err["kind"] == "config" and err["field"] == "threads"


def test_fluct_budget_exit_3():
    proc = run_cli("fluct", "--poly", "x^2+1", "--x", "10000", "--k", "5",
                   "--ratio", "8", "--reps", "4", "--seed", "5")
    assert proc.returncode == 3


def test_dry_run_still_validates_budget():
    proc = run_cli("energy", "--poly", "x^2+1", "--n", "5000",
                   "--budget", "1000", "--dry-run")
    assert proc.returncode == 3
    proc = run_cli("energy", "--poly", "x^2+1", "--n", "5000",
                   "--budget", "1000", "--chunked", "--dry-run")
    assert proc.returncode == 0
    proc = run_cli("clt", "--poly", "x^2+1", "--n", "1000000000",
                   "--reps", "100", "--seed", "1", "--dry-run")
    assert proc.returncode == 3
    assert json.loads(proc.stderr)["error"]["kind"] == "budget"


def test_dry_run_skips_compute(tmp_path):
    out = tmp_path / "x.json"
    proc = run_cli("fluct", "--poly", "x^2+1", "--x", "100", "--k", "2",
                   "--ratio", "4", "--reps", "1000000", "--seed", "5",
                   "--dry-run", "--out", str(out))
    assert proc.returncode == 0
    assert json.loads(out.read_text())["dry_run"] is True


def test_out_dir_env(tmp_path):
    proc = run_cli("classify", "--poly", "x^2+1", "--out", "cls.json",
                   env_extra={"POLYRMF_OUT_DIR": str(tmp_path)})
    assert proc.returncode == 0
    assert (tmp_path / "cls.json").exists()


def test_help_for_every_subcommand():
    for sub in ("classify", "sieve", "energy", "clt", "fluct", "audit"):
        proc = run_cli(sub, "--help")
        assert proc.returncode == 0
        assert "--poly" in proc.stdout
