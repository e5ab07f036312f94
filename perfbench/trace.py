"""Outside-in tracing of polyrmf's layers, installed from benchmark code.

The tracer replaces each listed public function with a timing wrapper at
every ``polyrmf`` module that holds a reference to it (``factor_values``
is looked up from ``polyrmf.cli``, ``polyrmf.clt_audit`` and
``polyrmf.fluctuations``, for example), and methods on their class.
Nothing under ``src/`` changes.

Coarse calls become spans ``(name, start, end, parent, job)``.  Calls
made once per prime or per replicate (``is_prime``, ``brent_rho``,
``angles_for_key``) keep aggregates only: calls, total and self time.
Every call, span or aggregate, charges its duration to its caller's child
time, so self times of all records plus each job's harness self time add
up to the traced wall time.  Everything stays in memory until ``dump``.

A listed function that the program no longer has is reported in
``absent`` and its metrics read 0.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (name, module, attribute, kind).  kind "span" records spans, "agg" keeps
# aggregates only, "serialize" records one span per outermost call of the
# serialization group (to_jsonable recurses through its module global).
POINTS = (
    ("cli.main", "polyrmf.cli", "main", "span"),
    ("cli.dispatch", "polyrmf.cli", "dispatch", "span"),
    ("cli.serialize", "polyrmf.cli", "to_jsonable", "serialize"),
    ("cli.serialize", "polyrmf.cli", "_emit", "serialize"),
    ("cli.serialize", "polyrmf.sieve", "FactorTable.write_json", "serialize"),
    ("cli.serialize", "polyrmf.sieve", "FactorTable.write_csv", "serialize"),
    ("polynomial.classify", "polyrmf.polynomial", "classify", "span"),
    ("primes.is_prime", "polyrmf.primes", "is_prime", "agg"),
    ("primes.brent_rho", "polyrmf.primes", "brent_rho", "agg"),
    ("primes.sieve_primes", "polyrmf.primes", "sieve_primes", "agg"),
    ("sieve.factor_values", "polyrmf.sieve", "factor_values", "span"),
    ("sieve.lpf_density", "polyrmf.sieve", "lpf_density", "span"),
    ("rmf.phase_table_build", "polyrmf.rmf", "PhaseTable.__init__", "span"),
    ("rmf.unit_values_batch", "polyrmf.rmf", "PhaseTable.unit_values_batch", "span"),
    ("rmf.angles_for_key", "polyrmf.rmf", "angles_for_key", "agg"),
    ("clt_audit.run_clt", "polyrmf.clt_audit", "run_clt", "span"),
    ("clt_audit.sample_normalized_sums", "polyrmf.clt_audit",
     "sample_normalized_sums", "span"),
    ("clt_audit.ks_statistic", "polyrmf.clt_audit", "ks_statistic", "span"),
    ("clt_audit.mcleish_audit", "polyrmf.clt_audit", "mcleish_audit", "span"),
    ("energy.energy", "polyrmf.energy", "energy", "span"),
    ("energy.exponent_fit", "polyrmf.energy", "exponent_fit", "span"),
    ("energy.count_pair_products", "polyrmf.energy", "count_pair_products", "span"),
    ("energy.pair_total_int64", "polyrmf.energy", "_pair_total_int64", "span"),
    ("energy.lpf_groups", "polyrmf.energy", "lpf_groups", "span"),
    ("fluctuations.run_fluct", "polyrmf.fluctuations", "run_fluct", "span"),
    ("fluctuations.build_grid", "polyrmf.fluctuations", "build_grid", "span"),
    ("fluctuations.build_prime_sets", "polyrmf.fluctuations",
     "build_prime_sets", "span"),
    ("fluctuations.classification_labels", "polyrmf.fluctuations",
     "classification_labels", "span"),
    ("fluctuations.variance_floor", "polyrmf.fluctuations", "variance_floor", "span"),
    ("fluctuations.s2_second_moment", "polyrmf.fluctuations",
     "s2_second_moment", "span"),
)

HARNESS = "harness.job"


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _groups(result):
    sizes = [len(g) for g in result.values()]
    return (("clt_audit.group_sq_sum", sum(s * s for s in sizes)),
            ("clt_audit.group_cube_sum", sum(s ** 3 for s in sizes)))


# Work counters read from a call's arguments or result: name -> function of
# (args, kwargs, result) giving (counter, increment) pairs.
COUNTERS = {
    "primes.is_prime": lambda a, k, r: (("primes.is_prime_true", int(bool(r))),),
    "sieve.factor_values": lambda a, k, r: (
        ("sieve.values", _arg(a, k, 1, "n_max")),),
    "rmf.phase_table_build": lambda a, k, r: (("rmf.phase_table_nnz", a[0].matrix.nnz),),
    "rmf.unit_values_batch": lambda a, k, r: (("rmf.unit_values_cells", r.size),
                                              ("rmf.bytes_computed", r.nbytes)),
    "clt_audit.sample_normalized_sums": lambda a, k, r: (
        ("clt_audit.replicates", _arg(a, k, 3, "reps")),),
    "energy.count_pair_products": lambda a, k, r: (
        ("energy.pairs", len(a[0]) * (len(a[0]) + 1) // 2),),
    "energy.pair_total_int64": lambda a, k, r: (
        ("energy.pairs_int64", len(a[0]) * (len(a[0]) + 1) // 2),),
    "energy.lpf_groups": lambda a, k, r: _groups(r),
}


def _resolve(module, attr):
    """(owner, name, original) for "f" or "Class.method"; None if absent."""
    owner = sys.modules.get(module)
    if owner is None:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    orig = vars(owner).get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return None if orig is None else (owner, name, orig)


class Tracer:
    """Records spans and aggregates for one traced sweep."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job, self]
        self.agg: dict[str, list] = {}  # name -> [calls, total, self]
        self.counters: dict[str, float] = {}
        self.counter_errors = 0
        self.absent: list[str] = []
        self._patched: list[tuple] = []
        self._stack: list[list] = [[0.0, -1]]  # frames [child_time, span_index]
        self._job = None
        self._serializing = False

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        self.absent = []
        for name, module, attr, kind in POINTS:
            found = _resolve(module, attr)
            if found is None:
                self.absent.append(f"{module}.{attr}")
                continue
            owner, key, orig = found
            wrapper = self._wrap(name, orig, kind)
            if isinstance(owner, type):
                self._patched.append((owner, key, orig))
                setattr(owner, key, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "polyrmf" and not mod_name.startswith("polyrmf."):
                    continue
                for ref, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, ref, orig))
                        setattr(mod, ref, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def _wrap(self, name, fn, kind):
        tracer = self
        stack = self._stack
        spans = self.spans
        counter = COUNTERS.get(name)
        as_span = kind != "agg"
        guarded = kind == "serialize"

        def traced(*args, **kwargs):
            if guarded and tracer._serializing:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [0.0, len(spans) if as_span else -1]
            if as_span:
                spans.append([name, 0.0, 0.0, parent[1], tracer._job, 0.0])
            if guarded:
                tracer._serializing = True
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if guarded:
                    tracer._serializing = False
                dur = t1 - t0
                parent[0] += dur
                own = dur - frame[0]
                if as_span:
                    rec = spans[frame[1]]
                    rec[1], rec[2], rec[5] = t0, t1, own
                else:
                    a = tracer.agg.get(name)
                    if a is None:
                        a = tracer.agg[name] = [0, 0.0, 0.0]
                    a[0] += 1
                    a[1] += dur
                    a[2] += own
            if counter is not None:
                tracer._count(counter, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, counter, args, kwargs, result) -> None:
        try:
            for key, inc in counter(args, kwargs, result):
                self.counters[key] = self.counters.get(key, 0) + inc
        except Exception:  # a changed signature must not fail the job
            self.counter_errors += 1

    # -- jobs ---------------------------------------------------------------
    def run_job(self, job_id: str, call):
        """Run ``call()`` as the root of job ``job_id``; returns its result.

        The root records the job's wall time as a span named HARNESS whose
        self time is whatever no traced function covered.
        """
        self._job = job_id
        root = [0.0, len(self.spans)]
        self.spans.append([HARNESS, 0.0, 0.0, -1, job_id, 0.0])
        self._stack[:] = [root]
        self._serializing = False
        t0 = perf_counter()
        try:
            return call()
        finally:
            t1 = perf_counter()
            rec = self.spans[root[1]]
            rec[1], rec[2], rec[5] = t0, t1, (t1 - t0) - root[0]
            self._stack[:] = [[0.0, -1]]  # a timeout may leave frames behind
            self._job = None

    def add_counter(self, key: str, inc: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + inc

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "agg": self.agg,
            "counters": self.counters,
            "counter_errors": self.counter_errors,
            "absent": self.absent,
        }


# ---------------------------------------------------------------- reduction

def by_name(doc: dict) -> dict[str, dict]:
    """name -> {calls, total, self} over spans and aggregates."""
    out: dict[str, dict] = {}
    for name, _t0, _t1, _parent, _job, own in doc["spans"]:
        e = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        e["calls"] += 1
        e["total"] += _t1 - _t0
        e["self"] += own
    for name, (calls, total, own) in doc["agg"].items():
        out[name] = {"calls": calls, "total": total, "self": own}
    return out


def layer_self(doc: dict) -> dict[str, float]:
    """Self time per layer (the part of a name before the first dot)."""
    out: dict[str, float] = {}
    for name, e in by_name(doc).items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + e["self"]
    return out


def per_layer_metrics(doc: dict, untraced_s: float, traced_s: float) -> dict:
    """The benchmark's per-layer metrics: name -> (value, unit)."""
    n = by_name(doc)
    c = doc["counters"]

    def tot(name):
        return n.get(name, {}).get("total", 0.0)

    def own(name):
        return n.get(name, {}).get("self", 0.0)

    def calls(name):
        return n.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    pairs = c.get("energy.pairs", 0)
    cells = c.get("rmf.unit_values_cells", 0)
    m = {
        "cli.dispatch_s": (own("cli.main") + own("cli.dispatch"), "s"),
        "cli.serialize_s": (tot("cli.serialize"), "s"),
        "cli.output_bytes": (c.get("cli.output_bytes", 0), "bytes"),
        "polynomial.classify_s": (tot("polynomial.classify"), "s"),
        "polynomial.classify_calls": (calls("polynomial.classify"), "count"),
        "primes.is_prime_s": (tot("primes.is_prime"), "s"),
        "primes.is_prime_calls": (calls("primes.is_prime"), "count"),
        "primes.is_prime_true_frac": (
            ratio(c.get("primes.is_prime_true", 0), calls("primes.is_prime")),
            "fraction"),
        "primes.brent_rho_s": (tot("primes.brent_rho"), "s"),
        "primes.brent_rho_calls": (calls("primes.brent_rho"), "count"),
        "primes.sieve_primes_s": (tot("primes.sieve_primes"), "s"),
        "sieve.factor_values_s": (tot("sieve.factor_values"), "s"),
        "sieve.self_s": (own("sieve.factor_values"), "s"),
        "sieve.values": (c.get("sieve.values", 0), "count"),
        "sieve.values_per_s": (
            ratio(c.get("sieve.values", 0), tot("sieve.factor_values")), "1/s"),
        "sieve.lpf_density_s": (tot("sieve.lpf_density"), "s"),
        "rmf.phase_table_build_s": (tot("rmf.phase_table_build"), "s"),
        "rmf.phase_table_nnz": (c.get("rmf.phase_table_nnz", 0), "count"),
        "rmf.angles_s": (tot("rmf.angles_for_key"), "s"),
        "rmf.angle_calls": (calls("rmf.angles_for_key"), "count"),
        "rmf.unit_values_batch_s": (tot("rmf.unit_values_batch"), "s"),
        "rmf.unit_values_cells": (cells, "count"),
        "rmf.bytes_computed": (c.get("rmf.bytes_computed", 0), "bytes"),
        "clt_audit.run_clt_s": (tot("clt_audit.run_clt"), "s"),
        "clt_audit.sample_self_s": (own("clt_audit.sample_normalized_sums"), "s"),
        "clt_audit.replicates": (c.get("clt_audit.replicates", 0), "count"),
        "clt_audit.ks_s": (tot("clt_audit.ks_statistic"), "s"),
        "clt_audit.mcleish_audit_s": (tot("clt_audit.mcleish_audit"), "s"),
        "clt_audit.group_sq_sum": (c.get("clt_audit.group_sq_sum", 0), "count"),
        "clt_audit.group_cube_sum": (c.get("clt_audit.group_cube_sum", 0), "count"),
        "energy.count_pair_products_s": (tot("energy.count_pair_products"), "s"),
        "energy.pairs": (pairs, "count"),
        "energy.pairs_per_s": (ratio(pairs, tot("energy.count_pair_products")), "1/s"),
        "energy.pairs_int64_frac": (
            ratio(c.get("energy.pairs_int64", 0), pairs), "fraction"),
        "energy.self_s": (own("energy.energy") + own("energy.exponent_fit"), "s"),
        "fluctuations.run_fluct_self_s": (own("fluctuations.run_fluct"), "s"),
        "fluctuations.build_prime_sets_s": (tot("fluctuations.build_prime_sets"), "s"),
        "fluctuations.labels_s": (tot("fluctuations.classification_labels"), "s"),
        "fluctuations.variance_floor_s": (tot("fluctuations.variance_floor"), "s"),
        "trace.overhead_frac": (ratio(traced_s, untraced_s) - 1.0, "fraction"),
    }
    return m
