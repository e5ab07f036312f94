"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads factor exact --seeds 1-10 \
        --seconds 30 --out spread.json

For every end-to-end metric: the median of the per-seed values, the
quartiles from ``statistics.quantiles(values, n=4)``, and the spread
(q3 - q1) / median, compared with the bound in BENCHMARK.json.  With
``--trace 1`` the per-layer metrics are summarised the same way (they
have no bound).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    summary = [ln for ln in proc.stderr.splitlines() if ln.startswith("# {")]
    result["summary"] = json.loads(summary[-1][2:]) if summary else {}
    return result


def summarise(values: list[float], bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    out = {"median": median, "q1": q1, "q3": q3, "values": values,
           "spread": (q3 - q1) / median if median else None}
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads:
        runs = [run_once(workload, s, seconds, args.trace)
                for s in parse_seeds(args.seeds)]
        names = list(runs[0]["metrics"])
        report[workload] = {
            "seeds": parse_seeds(args.seeds),
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "metrics": {n: summarise([r["metrics"][n]["value"] for r in runs],
                                     None if args.trace else bounds.get(n))
                        for n in names},
        }
        if args.trace:
            shares = [r["summary"].get("layer_self_share", {}) for r in runs]
            report[workload]["layer_self_share"] = {
                k: statistics.median(s.get(k, 0.0) for s in shares)
                for k in shares[0]}
        for n, s in report[workload]["metrics"].items():
            flag = ""
            if s.get("bound") is not None and s["spread"] is not None:
                flag = "ok" if s["spread"] <= s["bound"] / 3 else (
                    "WIDE" if s["spread"] <= s["bound"] else "OVER")
            print(f"{workload:11s} {n:36s} median {s['median']:>12.6g}  "
                  f"spread {s['spread'] if s['spread'] is not None else float('nan'):.4f} {flag}")
        sys.stdout.flush()
        if args.out:
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
