import contextlib
import importlib
import io
import json
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sieve_csv_text, sieve_json_text, table_json_doc
from polyrmf import cli
from polyrmf.polynomial import parse_polynomial
from polyrmf.rmf import MAX_THREADS
from polyrmf.sieve import factor_values

SRC = str(Path(__file__).resolve().parent.parent / "src")
# polyrmf re-exports a function named energy, so fetch the module itself
energy_module = importlib.import_module("polyrmf.energy")
sieve_module = importlib.import_module("polyrmf.sieve")


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


def test_classify_takes_a_leading_minus_after_an_equals_sign():
    # "--poly -x^2+3" would read as an option; "--poly=-x^2+3" cannot
    for text, roots in (("-x^2+3", []), ("-1,0,1", [["-1/1", 1], ["1/1", 1]])):
        proc = run_cli("classify", f"--poly={text}")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["rational_roots"] == roots


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


def test_csv_outputs_end_lines_with_crlf(tmp_path):
    fit, table = tmp_path / "fit.csv", tmp_path / "t.csv"
    assert cli.main(["energy", "--poly", "x^2+1", "--grid", "20,40",
                     "--out", str(fit)]) == 0
    assert cli.main(["sieve", "--poly", "x^2+1", "--n", "5", "--format", "csv",
                     "--out", str(table)]) == 0
    for out, rows in ((fit, 3), (table, 6)):
        data = out.read_bytes()
        assert data.count(b"\r\n") == data.count(b"\n") == rows, out.name


def test_sieve_csv(tmp_path):
    out = tmp_path / "t.csv"
    proc = run_cli("sieve", "--poly", "0,-6,1", "--n", "6",
                   "--format", "csv", "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,value,factorization,largest_prime"
    assert lines[6] == "6,0,1,0"


def test_sieve_csv_without_out_goes_to_stdout(tmp_path):
    argv = ["sieve", "--poly", "x^2+1", "--n", "3", "--format", "csv"]
    out = tmp_path / "t.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    rc, stdout, err = call_cli(*argv)
    assert (rc, err) == (0, "")
    assert stdout.encode() == out.read_bytes()
    assert stdout.startswith("n,value,factorization,largest_prime\r\n")


@pytest.mark.parametrize("dry", [[], ["--dry-run"]])
def test_sieve_csv_refuses_lpf_scale(dry):
    # CSV has no place for the table-level density
    rc, out, err = call_cli("sieve", "--poly", "x^2+1", "--n", "3",
                            "--format", "csv", "--lpf-scale", "1/8", *dry)
    assert (rc, out) == (2, "")
    error = json.loads(err)["error"]
    assert (error["kind"], error["field"]) == ("config", "lpf_scale")


def test_sieve_json_density():
    proc = run_cli("sieve", "--poly", "x^2+1", "--n", "10", "--lpf-scale", "0")
    doc = json.loads(proc.stdout)
    assert doc["result"]["lpf_density"]["fraction"] == "1/1"


@pytest.mark.parametrize("text,n,scale", [
    ("x^2+1", 400, None),
    ("x^3+2x+1", 300, "1/8"),
    ("100000000000000000000,0,1", 200, None),
    ("0,-6,1", 6, None),  # P(6) = 0: a zero row
    ("0,0,1", 3, None),   # P(1) = 1: a unit row with empty factors
    ("x^2+1", 1, None),
    ("x^2+1", 5000, None),  # more rows than the writer formats at once
])
def test_sieve_bytes_match_the_two_pass_serializer(tmp_path, text, n, scale):
    poly = parse_polynomial(text)
    table = factor_values(poly, n)
    scale_opt = ["--lpf-scale", scale] if scale else []
    out_json, out_csv = tmp_path / "t.json", tmp_path / "t.csv"
    assert cli.main(["sieve", f"--poly={text}", "--n", str(n), *scale_opt,
                     "--out", str(out_json)]) == 0
    assert cli.main(["sieve", f"--poly={text}", "--n", str(n),
                     "--format", "csv", "--out", str(out_csv)]) == 0
    wall = re.compile(r'"wall_time_s": [^,]+,')
    expected = sieve_json_text(table, Fraction(scale) if scale else None)
    assert wall.sub("", out_json.read_text()) == wall.sub("", expected)
    assert out_csv.read_bytes() == sieve_csv_text(table).encode()
    # without --out the same document goes to stdout
    rc, stdout, err = call_cli("sieve", f"--poly={text}", "--n", str(n),
                               *scale_opt)
    assert (rc, err) == (0, "")
    assert wall.sub("", stdout) == wall.sub("", out_json.read_bytes().decode())


def _assert_sieve_renders_the_oracle(text, n):
    """``sieve`` to stdout in both formats, and ``write_json`` at its own
    indent, give the bytes of the one-pass oracles."""
    table = factor_values(parse_polynomial(text), n)
    wall = re.compile(r'"wall_time_s": [^,]+,')
    rc, out, err = call_cli("sieve", f"--poly={text}", "--n", str(n))
    assert (rc, err) == (0, "")
    assert wall.sub("", out) == wall.sub("", sieve_json_text(table))
    assert call_cli("sieve", f"--poly={text}", "--n", str(n), "--format",
                    "csv") == (0, sieve_csv_text(table), "")
    buf = io.StringIO()
    table.write_json(buf)
    assert buf.getvalue() == json.dumps(table_json_doc(table), indent=2)


@st.composite
def _sieve_cases(draw):
    """(coefficients text, N): P with a negative lead, an integer root in
    [1, N] (a zero row), a value of +-1 (a unit row), or a coefficient of
    2^63 or more."""
    shape = draw(st.sampled_from(("negative", "root", "unit", "big")))
    n = draw(st.integers(1, 40 if shape == "big" else 300))
    coeffs = draw(st.lists(st.integers(-50, 50), min_size=2, max_size=4)
                  .filter(lambda c: c[-1] != 0))
    if shape == "negative":
        coeffs[-1] = -abs(coeffs[-1])
    elif shape == "big":
        coeffs[draw(st.integers(0, len(coeffs) - 1))] = draw(
            st.integers(2**63, 2**66) | st.integers(-2**66, -2**63))
    else:  # (x - r) Q(x), plus or minus 1 at x = r for a unit row
        r = draw(st.integers(1, n))
        coeffs = [a - r * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
        if shape == "unit":
            coeffs[0] += draw(st.sampled_from((-1, 1)))
    return ",".join(map(str, coeffs)), n


@settings(max_examples=60, deadline=None)
@given(case=_sieve_cases())
def test_sieve_renders_the_oracle_bytes(case):
    _assert_sieve_renders_the_oracle(*case)


@pytest.mark.parametrize("text,n", [
    ("x^2+1", 1), ("x^2+1", 4095), ("x^2+1", 4096), ("x^2+1", 4097),
    ("0,0,1", 1024),  # 1024^2 = 2^20: a two-digit exponent
    ("-7,0,-3", 4097),
])
def test_sieve_renders_the_oracle_bytes_at_block_edges(text, n):
    _assert_sieve_renders_the_oracle(text, n)


@pytest.mark.parametrize("rows", [1, 2, 7])
def test_render_block_size_does_not_change_the_bytes(rows):
    with mock.patch.object(sieve_module, "_RENDER_ROWS", rows):
        _assert_sieve_renders_the_oracle("0,-6,1", 30)  # a zero row at n = 6
        _assert_sieve_renders_the_oracle("x^3+2x+1", 41)


def test_parser_is_built_once_and_keeps_no_state():
    assert cli.build_parser() is cli.build_parser()
    rc, out, err = call_cli("sieve", "--poly", "x^2+1", "--n", "3",
                            "--format", "csv")
    assert (rc, err) == (0, "") and out.startswith("n,value")
    rc, out, err = call_cli("sieve", "--poly", "x^2+1", "--n", "3")
    assert (rc, err) == (0, "")
    assert json.loads(out)["result"]["N"] == 3  # JSON again, not CSV
    rc, out, err = call_cli("sieve", "--poly", "x^2+1", "--n", "three")
    assert (rc, out, json.loads(err)["error"]["field"]) == (2, "", "n")
    rc, out, err = call_cli("sieve", "--poly", "x^2+1", "--n", "3",
                            "--dry-run")
    assert (rc, err) == (0, "")
    assert json.loads(out) == {"dry_run": True, "poly": "x^2 + 1", "n": 3}


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


def test_threads_above_the_cap_exit_2(capsys):
    # under --dry-run only, so that no call starts a thread
    for sub, opts in (
        ("clt", ["--n", "50", "--reps", "100", "--seed", "1"]),
        ("fluct", ["--x", "100", "--k", "2", "--ratio", "4", "--reps", "8",
                   "--seed", "1"]),
    ):
        argv = [sub, "--poly", "x^2+1", *opts, "--dry-run", "--threads"]
        assert cli.main(argv + [str(MAX_THREADS)]) == 0
        assert cli.main(argv + [str(MAX_THREADS + 1)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
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
    for argv in (
        ("energy", "--poly", "x^2+1", "--n", "1000000000000", "--chunked",
         "--dry-run"),
        ("energy", "--poly", "x^2+1", "--n", "1000000000000",
         "--budget", str(10**24), "--dry-run"),
        ("clt", "--poly", "x^2+1", "--n", "1000000000", "--reps", "100",
         "--seed", "1", "--dry-run"),
        ("sieve", "--poly", "x^2+1", "--n", "1000000000", "--dry-run"),
        ("audit", "--poly", "x^2+1", "--grid", "1000000000", "--dry-run"),
    ):
        proc = run_cli(*argv)
        assert proc.returncode == 3, argv
        assert json.loads(proc.stderr)["error"]["kind"] == "budget"


@pytest.mark.parametrize("dry", [[], ["--dry-run"]])
def test_energy_pair_budget_exits_3_before_any_sieving(dry, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("sieved")

    monkeypatch.setattr(energy_module, "sieve_small_primes", refuse)
    monkeypatch.setattr(sieve_module, "sieve_small_primes", refuse)
    start = time.perf_counter()
    code = cli.main(["energy", "--poly", "x^2+1", "--n", "25000",
                     "--budget", "1000000", *dry])
    assert time.perf_counter() - start < 1
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "budget"


@pytest.mark.parametrize("text,extra", [
    ("x^2+1", []), ("x^2+5x+6", []), ("x^3-7x+6", []),
    ("x^2-6x", ["--q", "3", "--a", "1"])])
def test_energy_grid_points_equal_direct_counts(text, extra, tmp_path):
    # the grid sieves once at its top N and counts each prefix of the rows
    grid = [60, 150, 400]
    fit = tmp_path / "fit.json"
    assert cli.main(["energy", "--poly", text, "--grid", ",".join(map(str, grid)),
                     "--out", str(fit), *extra]) == 0
    points = json.loads(fit.read_text())["result"]["points"]
    for n, point in zip(grid, points, strict=True):
        one = tmp_path / f"{n}.json"
        assert cli.main(["energy", "--poly", text, "--n", str(n),
                         "--out", str(one), *extra]) == 0
        rep = json.loads(one.read_text())["result"]
        assert point["N"] == n
        assert point["offdiag"] == rep["total"] - rep["diagonal_arg"]


def test_energy_factor_budget_error_counts_values():
    # 9e6 numbers n = 0 (mod 3) hold 3e6 members: the budget counts values
    proc = run_cli("energy", "--poly", "x^2+1", "--n", "9000000", "--q", "3",
                   "--dry-run")
    assert proc.returncode == 3
    message = json.loads(proc.stderr)["error"]["message"]
    assert message.startswith("3000000 values exceed the factorization budget")


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


def test_no_subcommand_loads_scipy(tmp_path):
    # numpy is the only runtime dependency: one fresh interpreter runs every
    # subcommand and then lists the scipy modules it holds
    script = """
import json, sys
from polyrmf import cli
codes = [cli.main(argv) for argv in [
    ["classify", "--poly", "x^2+x", "--out", "classify.json"],
    ["sieve", "--poly", "x^2+1", "--n", "300", "--out", "sieve.json"],
    ["energy", "--poly", "x^2+1", "--n", "200", "--out", "energy.json"],
    ["audit", "--poly", "x^2+x", "--grid", "100,200", "--out", "audit.json"],
    ["clt", "--poly", "x^2+1", "--n", "200", "--reps", "100", "--seed", "1",
     "--out", "clt.json"],
    ["fluct", "--poly", "x^2+1", "--x", "100", "--k", "2", "--ratio", "4",
     "--reps", "4", "--seed", "3", "--conditional", "--out", "fluct.json"],
]]
print(json.dumps([codes, sorted(m for m in sys.modules
                                if m.split(".")[0] == "scipy")]))
"""
    import os

    env = dict(os.environ, PYTHONPATH=SRC, POLYRMF_OUT_DIR=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0] * 6, []]
    assert len(list(tmp_path.glob("*.json"))) == 6


def call_cli(*argv):
    """polyrmf.cli.main in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def test_config_errors_name_their_field():
    sieve = ("sieve", "--poly", "x^2+1", "--n", "10", "--lpf-scale")
    cases = [
        ((*sieve, "1/0"), "lpf_scale"),
        ((*sieve, "1e999999999"), "lpf_scale"),  # would build 10^999999999
        ((*sieve, "1" + "0" * 400), "lpf_scale"),  # beyond the float range
        # an empty scale is an error, not the default scale
        ((*sieve[:-1], "--lpf-scale="), "lpf_scale"),
        ((*sieve[:-1], "--lpf-scale=", "--format", "csv"), "lpf_scale"),
        (("audit", "--poly", "x^2+1", "--grid", "0,5"), "grid"),
        (("energy", "--poly", "x^2+1", "--grid", "0,5"), "grid"),
        (("energy", "--poly", "x^2+1", "--grid", "40,20"), "grid"),
        (("energy", "--poly", "x^2+1", "--n", "0"), "n"),
        (("energy", "--poly", "x^2+1", "--n", "5", "--q", "3", "--a", "5"),
         "q/a"),
        (("energy", "--poly", "x^2+1", "--n", "2", "--q", "3"), "a"),
        (("energy", "--poly", "x^2+1", "--n", "2", "--q", "3", "--dry-run"), "a"),
        # --n beside --grid would be echoed but never used
        (("energy", "--poly", "x^2+1", "--n", "4", "--grid", "2,3"), "n"),
        (("energy", "--poly", "x^2+1", "--n", "4", "--grid", "2,3",
          "--dry-run"), "n"),
        (("classify", "--poly", "x^257+1"), "poly"),
        (("classify", "--poly", "x^100000+1"), "poly"),
        # argv that argparse itself rejects
        (("sieve", "--poly", "x^2+1", "--n", "abc"), "n"),
        (("sieve", "--poly", "x^2+1", "--n"), "n"),
        (("sieve", "--n", "10"), "poly"),
        (("clt", "--poly", "x^2+1", "--n", "50", "--reps", "100"), "seed"),
        (("fluct", "--poly", "x^2+1", "--x", "100", "--k", "3", "--ratio", "2",
          "--reps", "8", "--seed", "1", "--factor-budget", "2.5"), "factor_budget"),
        (("sieve", "--poly", "x^2+1", "--n", "10", "--format", "xml"), "format"),
        (("sieve", "--poly", "x^2+1", "--n", "10", "--bogus"), "argv"),
        (("classify", "--poly", "x^2+1", "extra"), "argv"),
    ]
    fluct = ("fluct", "--poly", "x^2+1", "--reps", "8", "--seed", "1")
    for opts, field in ((("--x", "100", "--k", "3", "--ratio", "1"), "ratio"),
                        (("--x", "100", "--k", "3", "--ratio", "1e999999999"),
                         "ratio"),
                        (("--x", "99", "--k", "3", "--ratio", "4"), "x"),
                        (("--x", "100", "--k", "1", "--ratio", "4"), "k")):
        cases += [((*fluct, *opts), field), ((*fluct, *opts, "--dry-run"), field)]
    for argv, field in cases:
        rc, out, err = call_cli(*argv)
        assert rc == 2 and out == "", argv
        error = json.loads(err)["error"]
        assert (error["kind"], error["field"]) == ("config", field), argv


def test_out_that_cannot_be_opened_exits_2(tmp_path):
    # a path under a regular file fails in mkdir, a directory in open
    (tmp_path / "file").write_text("")
    sieve = ("sieve", "--poly", "x^2+1", "--n", "20")
    for argv in ((*sieve, "--out", str(tmp_path / "file" / "x.json")),
                 (*sieve, "--out", str(tmp_path)),
                 (*sieve, "--format", "csv", "--out", str(tmp_path / "file" / "x.csv")),
                 (*sieve, "--format", "csv", "--out", str(tmp_path)),
                 (*sieve, "--dry-run", "--out", str(tmp_path / "file" / "x.json"))):
        rc, out, err = call_cli(*argv)
        assert rc == 2 and out == "", argv
        error = json.loads(err)["error"]
        assert (error["kind"], error["field"]) == ("config", "out"), argv


def test_out_is_checked_before_computing(tmp_path):
    # the sieve at N = 2e5 takes seconds: an --out that cannot be written
    # ends the run before it starts
    (tmp_path / "file").write_text("")
    for out in (tmp_path / "file" / "x.json", tmp_path):
        started = time.perf_counter()
        rc, out_text, err = call_cli("sieve", "--poly", "x^2+1", "--n", "200000",
                                     "--out", str(out))
        assert time.perf_counter() - started < 1, out
        assert rc == 2 and out_text == "", out
        assert json.loads(err)["error"]["field"] == "out", out


def test_internal_value_error_exits_1(monkeypatch):
    def broken(poly):
        raise ValueError("not a user error")

    monkeypatch.setattr(cli, "classify", broken)
    rc, _, err = call_cli("classify", "--poly", "x^2+1")
    assert rc == 1
    assert json.loads(err)["error"]["kind"] == "internal"


# --- CLI fuzz gate --------------------------------------------------------
# argv drawn from the CLI grammar: each option takes a valid value or, for
# at most two options per call, a hostile one: out of range, over a budget
# or, for integer options, not an integer.  Valid sizes stay small, so
# every call ends quickly.  Left out on purpose, as nothing bounds them:
# huge --reps without --dry-run, and constant terms with large prime
# factors, which classify has to factor.

HUGE = 10**12
CALL_CAP_S = 20.0


def _opt(flag, values):
    return st.sampled_from(values).map(lambda v: [] if v is None else [f"{flag}={v}"])


_POLY_OK = ["x^2+1", "x^3+2x+1", "0,-6,1", "x^2+x"]
_POLY_BAD = ["x^2", "2x^2+4x+2", "x+1", "-3x+6",  # pure powers
             "x^100000+1", "1," + "0," * 300 + "1",  # degree beyond the bound
             "1,0,zero", "y^2", "5", ""]  # not polynomials
_POLY = (_opt("--poly", _POLY_OK + ["x^2+100000000000000000000"]),
         _opt("--poly", _POLY_BAD))
_NOT_INT = ["abc", "2.5", "", "0x10"]
_N = (_opt("--n", [1, 2, 17, 60]), _opt("--n", [0, -1, HUGE] + _NOT_INT))
_GRID = (_opt("--grid", ["20,40", "60", "1,2,3"]),
         _opt("--grid", ["40,20", "5,5", "0,5", "-3", "", "a,b", str(HUGE)]))
_SEED = (_opt("--seed", ["1", "0x10", "-5", "18446744073709551615"]),
         _opt("--seed", ["0xZZ", "banana", "0x" + "f" * 4000]))
_THREADS = (_opt("--threads", [1, 2]), _opt("--threads", [0, -3] + _NOT_INT))
_BAD_FRACTIONS = ["1/0", "abc", "1e999999999", "1" + "0" * 400]
_GRAMMAR = {
    "classify": {"poly": _POLY},
    "sieve": {
        "poly": _POLY, "n": _N,
        "format": (_opt("--format", ["json", "csv"]),) * 2,
        "scale": (_opt("--lpf-scale", [None, "1/8", "0", "-1", "2.5"]),
                  _opt("--lpf-scale", _BAD_FRACTIONS)),
    },
    "energy": {
        "poly": _POLY,
        "sizes": (st.one_of(_N[0], _GRID[0]), st.one_of(st.just([]), _N[1], _GRID[1])),
        "q/a": (st.sampled_from([(1, 0), (2, 1), (3, 2)]),
                st.sampled_from([(3, 5), (0, 0), (-2, 0), (HUGE, 0), (3, -1),
                                 (50, 0), (3, "abc"), ("2.5", 0)])),
        "budget": (_opt("--budget", [None, 10**6]),
                   _opt("--budget", [1000, 0, -1] + _NOT_INT)),
    },
    "clt": {
        "poly": _POLY, "n": _N, "seed": _SEED, "threads": _THREADS,
        "reps": (_opt("--reps", [100, 130]), _opt("--reps", [0, -1, 99] + _NOT_INT)),
    },
    "fluct": {
        # no 1e20 coefficient here: fluct factors up to 1600 values
        "poly": (_opt("--poly", _POLY_OK), _POLY[1]),
        "x": (_opt("--x", [100, 150]), _opt("--x", [0, 99, HUGE] + _NOT_INT)),
        "k": (_opt("--k", [2, 3]), _opt("--k", [-1, 1, HUGE] + _NOT_INT)),
        "ratio": (_opt("--ratio", ["2", "3", "2.5"]),
                  _opt("--ratio", ["1", "3/2", "0", "-1"] + _BAD_FRACTIONS)),
        "seed": _SEED, "threads": _THREADS,
        "reps": (_opt("--reps", [1, 2, 8]), _opt("--reps", [0, -1] + _NOT_INT)),
        "budget": (_opt("--factor-budget", [None, 100_000]),
                   _opt("--factor-budget", [0, -5] + _NOT_INT)),
    },
    "audit": {"poly": _POLY, "grid": _GRID},
}
_FLAGS = {"energy": "--chunked", "clt": "--dump-samples", "fluct": "--conditional"}


@st.composite
def _argv(draw):
    sub = draw(st.sampled_from(sorted(_GRAMMAR)))
    options = _GRAMMAR[sub]
    hostile = draw(st.sets(st.sampled_from(sorted(options)), max_size=2))
    argv = [sub]
    for name, (ok, bad) in options.items():
        value = draw(bad if name in hostile else ok)
        if name == "q/a":
            value = [f"--q={value[0]}", f"--a={value[1]}"]
        argv += value
    dry = draw(st.booleans())
    argv += ["--dry-run"] if dry else []
    if sub in _FLAGS and draw(st.booleans()):
        argv.append(_FLAGS[sub])
    if dry and sub in ("clt", "fluct") and draw(st.booleans()):
        argv.append(f"--reps={HUGE}")  # the last --reps wins
    return argv


class _CallTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise _CallTimeout()


@given(argv=_argv())
@settings(max_examples=100, deadline=None)
def test_cli_fuzz_exit_codes_and_strict_json(argv):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, CALL_CAP_S)
    started = time.perf_counter()
    try:
        rc, out, err = call_cli(*argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - started < CALL_CAP_S, argv
    assert rc in (0, 2, 3), (argv, err)
    csv_table = (argv[0] == "sieve" and "--format=csv" in argv
                 and "--dry-run" not in argv)
    if rc == 0 and csv_table:  # no --out is drawn, so the table is stdout
        assert out.startswith("n,value,factorization,largest_prime\r\n"), argv
    elif out:
        json.loads(out, parse_constant=_reject_constant)
    if rc == 0:
        assert err == "", argv
        return
    lines = err.splitlines()
    assert len(lines) == 1, (argv, err)
    error = json.loads(lines[0], parse_constant=_reject_constant)["error"]
    assert error["kind"] == {2: "config", 3: "budget"}[rc], (argv, error)
    assert error["exit_code"] == rc
    if rc == 2:
        assert error["field"], (argv, error)
