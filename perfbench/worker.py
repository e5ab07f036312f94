"""Run one workload's sweep in a fresh interpreter and record what happened.

    python3 perfbench/worker.py --root . --workload factor --seed 1 \
        --seconds 30 --trace 0 --work .perfbench_tmp/run

Every job is an in-process call of ``polyrmf.cli.main(argv)`` with
``--out`` in the work directory, under a per-job SIGALRM cap.  Pass 1 runs
every job and captures two replicates of each ``clt``/``fluct`` run for
the independent checks.  Untraced, further passes repeat the jobs that
exited as expected, at least twice and then while another whole pass fits
in ``--seconds``.  With ``--trace 1`` there is one pass, in which each such
job runs twice more, traced and untraced, for the per-layer numbers and
the tracing overhead.  Results go to ``<work>/worker.json`` (and
``trace.json``).

``--setup-only`` stops after importing the CLI and building the job list;
the parent times that as the set-up a CLI call pays.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.jobs import build_jobs  # noqa: E402

MIN_PASSES = 3


class JobTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so the CLI's handlers let it pass."""


def _alarm(signum, frame):
    raise JobTimeout()


def out_path(work: Path, job) -> Path:
    return work / "out" / f"{job.id}.{job.out_ext}"


def run_job(cli, job, work: Path, tracer=None) -> dict:
    """Run one job under its cap; the timed region is the CLI call alone."""
    path = out_path(work, job)
    path.unlink(missing_ok=True)
    argv = job.resolved_argv(str(path))
    stdout, stderr = io.StringIO(), io.StringIO()
    gc.collect()  # the previous job's garbage is not this job's cost
    rec = {"rc": None, "timeout": False, "error": None}

    def call():
        return cli.main(argv)

    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        signal.setitimer(signal.ITIMER_REAL, job.cap_s)
        t0 = perf_counter()
        try:
            rec["rc"] = tracer.run_job(job.id, call) if tracer else call()
        except JobTimeout:
            rec["timeout"] = True
        except SystemExit as exc:  # argparse rejects the argv
            rec["rc"] = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # reported as a failed job, not a crash
            rec["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            t1 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
    rec["t"] = t1 - t0
    rec["stdout"] = stdout.getvalue()[-4000:]
    rec["stderr"] = stderr.getvalue()[-4000:]
    rec["bytes"] = path.stat().st_size if path.exists() else 0
    return rec


# ------------------------------------------------------------------ captures

class Capture:
    """Keeps two replicates of every clt/fluct run, plus fluct's A-sets.

    Installed around the names the CLI looks up; only records while
    ``job`` is set, which pass 1 does for its untraced runs.
    """

    def __init__(self, cli):
        import polyrmf.fluctuations as fl
        self.data: dict[str, dict] = {}
        self.job = None
        self._sites = ((cli, "run_clt", self._clt), (cli, "run_fluct", self._fluct),
                       (fl, "build_prime_sets", self._prime_sets))
        self._patched = []

    def install(self):
        for mod, name, hook in self._sites:
            orig = getattr(mod, name, None)
            if orig is not None:
                self._patched.append((mod, name, orig))
                setattr(mod, name, self._wrap(orig, hook))

    def _wrap(self, orig, hook):
        def wrapper(*args, **kwargs):
            result = orig(*args, **kwargs)
            if self.job is not None:
                try:
                    hook(result)
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed result type leaves the check skipped
            return result
        return wrapper

    def uninstall(self):
        for mod, name, orig in self._patched:
            setattr(mod, name, orig)
        self._patched.clear()

    def _slot(self):
        return self.data.setdefault(self.job, {})

    def _clt(self, run):
        reps = len(run.samples)
        rows = sorted({0, reps - 1})
        self._slot()["clt"] = {
            "rows": rows,
            "values": [[run.samples[r].real, run.samples[r].imag] for r in rows],
        }

    def _fluct(self, report):
        reps = report.partial_matrix.shape[1]
        rows = sorted({0, reps - 1})

        def cols(mat):
            return [[[z.real, z.imag] for z in mat[:, r]] for r in rows]

        self._slot()["fluct"] = {
            "rows": rows,
            "partial": cols(report.partial_matrix),
            "s1": cols(report.s1_matrix),
            "s2": cols(report.s2_matrix),
        }

    def _prime_sets(self, family):
        self._slot()["a_sets"] = [sorted(a) for a in family.a_sets]


# --------------------------------------------------------------------- sweep

def run_pass(cli, jobs, work, records, *, capture=None, tracer=None,
             traced=None, reference=None) -> float:
    """Run ``jobs`` once and append each record; return the pass wall time.

    With a tracer, each job that exited as expected runs twice more right
    after its first run: once traced and once untraced as the overhead
    reference, in alternating order, so neither side is the cold run.
    Those records go to ``traced`` and ``reference``.
    """
    t0 = perf_counter()
    for i, job in enumerate(jobs):
        if capture is not None:
            capture.install()
            capture.job = job.id
        try:
            rec = run_job(cli, job, work)
        finally:
            if capture is not None:
                capture.job = None
                capture.uninstall()
        records.setdefault(job.id, []).append(rec)
        if tracer is None or not exited_as_expected(job, rec):
            continue
        for traced_turn in ((True, False) if i % 2 else (False, True)):
            if not traced_turn:
                reference[job.id] = run_job(cli, job, work)
                continue
            tracer.install()
            try:
                traced[job.id] = run_job(cli, job, work, tracer)
            finally:
                tracer.uninstall()
            tracer.add_counter("cli.output_bytes", traced[job.id]["bytes"])
    return perf_counter() - t0


def exited_as_expected(job, rec) -> bool:
    return not rec["timeout"] and rec["error"] is None and rec["rc"] == job.expect_rc


def sweep(cli, jobs, work: Path, seconds: float, trace: bool) -> dict:
    signal.signal(signal.SIGALRM, _alarm)
    (work / "out").mkdir(parents=True, exist_ok=True)
    records: dict[str, list] = {}
    capture = Capture(cli)
    doc = {"records": records, "captures": capture.data}
    t_start = perf_counter()
    if trace:
        from perfbench.trace import Tracer
        tracer = Tracer()
        doc["traced"], doc["reference"] = {}, {}
        passes = [run_pass(cli, jobs, work, records, capture=capture,
                           tracer=tracer, traced=doc["traced"],
                           reference=doc["reference"])]
        doc["trace"] = tracer.dump()
    else:
        passes = [run_pass(cli, jobs, work, records, capture=capture)]
        again = [j for j in jobs if exited_as_expected(j, records[j.id][0])]
        # at least MIN_PASSES, then more while a whole one still fits
        while (len(passes) < MIN_PASSES
               or perf_counter() - t_start + max(passes) <= seconds):
            passes.append(run_pass(cli, again, work, records))
    doc["passes"] = passes
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(Path(args.root).resolve() / "src"))
    import polyrmf.cli as cli

    jobs = build_jobs(args.workload, args.seed)
    if args.setup_only:
        return 0
    work = Path(args.work)
    doc = sweep(cli, jobs, work, args.seconds, bool(args.trace))
    trace_doc = doc.pop("trace", None)
    if trace_doc is not None:
        with open(work / "trace.json", "w") as fh:
            json.dump(trace_doc, fh)
    with open(work / "worker.json", "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
