"""Every function under src/polyrmf is entered by ten small CLI calls.

The calls run in process under ``sys.setprofile``, one per subcommand
and input shape plus a bad argv; a function that none of them enters is
code that no subcommand runs, and the test names it.  Reference paths
that only tests use belong in ``oracles.py``; ``BENCH_NAMED`` lists the
one function kept only because the benchmark harness names it.
"""

import ast
import sys
from pathlib import Path

import polyrmf
from polyrmf import cli
from polyrmf.energy import _log3_table

SRC = Path(polyrmf.__file__).resolve().parent
# perfbench's tracer and self-test look this method up by name
BENCH_NAMED = {("sieve.py", "FactorTable.write_json")}

# (argv, exit code); a comment names what only that call reaches
CALLS = [
    (["classify", "--poly", "x^2+x"], 0),  # a rational root is deflated
    (["sieve", "--poly", "x^2+1", "--n", "300", "--lpf-scale", "1/8"], 0),
    # values near 1e20 leave composite cofactors for Brent rho
    (["sieve", "--poly", "100000000000000000000,0,1", "--n", "40",
      "--format", "csv", "--out", "sieve.csv"], 0),
    # 57 cofactors between (B+1)^2 and (B+1)^3: enough for the vector
    # Miller-Rabin, and the trial split
    (["sieve", "--poly", "x^3+2x+1", "--n", "800", "--format", "csv",
      "--out", "cubic.csv"], 0),
    # more than 2^18 pairs: the passes are classed by log_3 mod 65537
    (["energy", "--poly", "x^2+1", "--n", "3000", "--out", "energy.json"], 0),
    (["energy", "--poly", "100000000000000000000,0,1", "--grid", "20,40",
      "--chunked", "--out", "fit.csv"], 0),
    (["clt", "--poly", "x^2+1", "--n", "200", "--reps", "100",
      "--seed", "0x7", "--dump-samples", "--out", "clt.json"], 0),
    (["fluct", "--poly", "x^2+1", "--x", "100", "--k", "2", "--ratio", "4",
      "--reps", "4", "--seed", "3", "--conditional", "--out", "fluct.json"], 0),
    (["audit", "--poly", "x^2+x", "--grid", "100,200"], 0),
    (["energy", "--poly", "x^2+1", "--n", "ten"], 2),  # argparse's error hook
]


def _functions():
    """(file name, first line, qualified name) of every def under SRC; the
    first line is that of the first decorator, as in ``co_firstlineno``."""
    found = []

    def walk(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found.append((file, first, prefix + child.name))
                walk(child, file, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, file, prefix + child.name + ".")

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.name, "")
    return found


def test_cli_traffic_reaches_every_function(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("POLYRMF_OUT_DIR", str(tmp_path))
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    # a cached function runs its body at its first call only
    _log3_table.cache_clear()
    cli.build_parser.cache_clear()
    codes = []
    sys.setprofile(profile)
    try:
        for argv, _ in CALLS:
            codes.append(cli.main(argv))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [code for _, code in CALLS]

    reached = {(Path(c.co_filename).resolve(), c.co_firstlineno) for c in entered}
    missed = [f"{name}:{line} {qualname}"
              for name, line, qualname in _functions()
              if (SRC / name, line) not in reached
              and (name, qualname) not in BENCH_NAMED]
    assert not missed, "no CLI call enters " + ", ".join(missed)
