"""Seeded job lists for the three benchmark workloads.

A job is one in-process CLI call, ``polyrmf.cli.main(argv)``, whose argv
names an output file through the ``{out}`` placeholder.  Every workload is
a stratified sweep: each stratum has a fixed number of jobs and a fixed
size, and the seed draws only what does not change the cost much
(polynomial coefficients, sampler seeds, job order).  That keeps sweep
totals comparable across seeds while every seed still sees new inputs.

Each workload has two tiers:

* ``focus`` -- the jobs that stress the workload's layers;
* ``edge`` -- boundary and invalid inputs from the CLI grammar, each with
  its expected exit code; at the seed commit two of them fail (a
  ``classify`` hang on a 1e20 coefficient and a NaN in ``fluct --reps 1``).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from math import comb, isqrt

WORKLOADS = ("factor", "montecarlo", "exact")
CLASSES = ("sieve", "clt", "fluct", "energy", "energy_chunked", "audit")

FOCUS_CAP_S = 20.0
EDGE_CAP_S = 2.0


@dataclass(frozen=True)
class Job:
    id: str
    cls: str  # one of CLASSES
    tier: str  # focus | edge
    stratum: str
    argv: tuple[str, ...]  # "{out}" stands for the output path
    out_ext: str  # json | csv
    expect_rc: int
    cap_s: float
    params: dict = field(default_factory=dict)  # inputs the checks need

    def to_dict(self) -> dict:
        return asdict(self)

    def resolved_argv(self, out: str) -> list[str]:
        return [a.replace("{out}", out) for a in self.argv]


# ---------------------------------------------------------------- polynomials
# Coefficients are listed lowest degree first, as the CLI's "c0,c1,..." form.

def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _has_integer_root(coeffs: tuple[int, ...]) -> bool:
    """Monic integer polynomials have only integer rational roots."""
    c0 = coeffs[0]
    if c0 == 0:
        return True
    for d in range(1, isqrt(abs(c0)) + 1):
        if c0 % d == 0:
            for r in (d, -d, c0 // d, -c0 // d):
                if sum(c * r ** k for k, c in enumerate(coeffs)) == 0:
                    return True
    return False


def quad_irr(rng: random.Random) -> tuple[int, ...]:
    """x^2 + b x + c, irreducible over Q."""
    while True:
        b, c = rng.randint(0, 12), rng.randint(1, 40)
        if not _is_square(b * b - 4 * c):
            return (c, b, 1)


def quad_red(rng: random.Random) -> tuple[int, ...]:
    """(x + a)(x + b) with 0 <= a < b: reducible, never a pure power."""
    a = rng.randint(0, 8)
    b = rng.randint(a + 1, a + 8)
    return (a * b, a + b, 1)


def cubic_irr(rng: random.Random, lead: int = 1) -> tuple[int, ...]:
    """lead*x^3 + a x + b with no integer root (irreducible when lead = 1)."""
    while True:
        coeffs = (rng.randint(1, 30), rng.randint(0, 20), 0, lead)
        if lead != 1 or not _has_integer_root(coeffs):
            return coeffs


def cubic_red(rng: random.Random) -> tuple[int, ...]:
    """(x + a)(x^2 + b x + c) with an irreducible quadratic factor."""
    a = rng.randint(0, 15)
    c0, b, _ = quad_irr(rng)
    return (a * c0, c0 + a * b, b + a, 1)


POLY_KINDS = {
    "quad_irr": quad_irr,
    "quad_red": quad_red,
    "cubic_irr": cubic_irr,
    "cubic_red": cubic_red,
}


def poly_text(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


# ----------------------------------------------------------------- job makers

class _Builder:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.jobs: list[Job] = []

    def seed64(self) -> str:
        return str(self.rng.getrandbits(63))

    def add(self, cls, tier, stratum, sub, coeffs, opts, *, ext="json",
            expect_rc=0, **params):
        argv = [sub, f"--poly={poly_text(coeffs)}", *opts, "--out", "{out}"]
        cap = EDGE_CAP_S if tier == "edge" else FOCUS_CAP_S
        self.jobs.append(Job(
            id="", cls=cls, tier=tier, stratum=f"{tier}/{stratum}",
            argv=tuple(argv), out_ext=ext, expect_rc=expect_rc, cap_s=cap,
            params={"command": sub, "coeffs": list(coeffs), **params}))

    # one maker per job class ------------------------------------------------
    def sieve(self, tier, kind, n, fmt, coeffs=None):
        coeffs = coeffs or POLY_KINDS[kind](self.rng)
        opts = ["--n", str(n)] + (["--format", "csv"] if fmt == "csv" else [])
        self.add("sieve", tier, f"sieve/{kind}/{fmt}/N={n}", "sieve", coeffs,
                 opts, ext=fmt, n=n, format=fmt)

    def clt(self, tier, kind, n, reps, coeffs=None, seed=None):
        coeffs = coeffs or POLY_KINDS[kind](self.rng)
        seed = seed or self.seed64()
        self.add("clt", tier, f"clt/{kind}/N={n}/R={reps}", "clt", coeffs,
                 ["--n", str(n), "--reps", str(reps), "--seed", seed,
                  "--threads", "1"], n=n, reps=reps, seed=int(seed))

    def fluct(self, tier, x, ratio, reps, conditional, k=3, coeffs=None,
              seed=None, expect_rc=0, extra=()):
        coeffs = coeffs or quad_irr(self.rng)
        seed = seed or self.seed64()
        opts = ["--x", str(x), "--k", str(k), "--ratio", str(ratio),
                "--reps", str(reps), "--seed", seed, "--threads", "1",
                *extra] + (["--conditional"] if conditional else [])
        self.add("fluct", tier,
                 f"fluct/ratio={ratio}/R={reps}/cond={int(conditional)}",
                 "fluct", coeffs, opts, expect_rc=expect_rc, x=x, k=k,
                 ratio=ratio, reps=reps, seed=int(seed),
                 conditional=conditional)

    def energy(self, tier, kind, n, coeffs=None, lead=1):
        if coeffs is None:
            coeffs = (cubic_irr(self.rng, lead) if kind == "cubic_big"
                      else POLY_KINDS[kind](self.rng))
        self.add("energy", tier, f"energy/{kind}/N={n}", "energy", coeffs,
                 ["--n", str(n)], n=n)

    def chunked(self, tier, kind, grid, coeffs=None):
        coeffs = coeffs or POLY_KINDS[kind](self.rng)
        self.add("energy_chunked", tier, f"energy_chunked/{kind}/top={grid[-1]}",
                 "energy", coeffs,
                 ["--grid", ",".join(map(str, grid)), "--chunked"], grid=grid)

    def audit(self, tier, kind, grid, coeffs=None):
        coeffs = coeffs or POLY_KINDS[kind](self.rng)
        self.add("audit", tier, f"audit/{kind}/top={grid[-1]}", "audit",
                 coeffs, ["--grid", ",".join(map(str, grid))], grid=grid)

    # edge cases shared by every workload ------------------------------------
    def edges(self):
        rng = self.rng
        # a pure power w*(x+c)^d is refused with exit 2
        w, c, d = rng.randint(1, 3), rng.randint(1, 5), rng.choice((2, 3))
        pure = [w * comb(d, k) * c ** (d - k) for k in range(d + 1)]
        if rng.random() < 0.5:
            self.add("energy", "edge", "pure_power", "energy", pure,
                     ["--n", "50"], expect_rc=2, n=50)
        else:
            self.add("clt", "edge", "pure_power", "clt", pure,
                     ["--n", "50", "--reps", "100", "--seed", "1"],
                     expect_rc=2, n=50, reps=100, seed=1)
        # over-budget sizes are refused with exit 3
        self.fluct("edge", 4000, 8, 100, False, expect_rc=3,
                   extra=("--factor-budget", "100000"))
        n = rng.randint(20_000, 30_000)
        self.add("energy", "edge", "pair_budget", "energy",
                 quad_irr(rng), ["--n", str(n), "--budget", "1000000"],
                 expect_rc=3, n=n)
        # one replicate: the document must still be strict JSON
        self.fluct("edge", 100, 2, 1, False, k=2)
        # a 1e20 coefficient: classify must finish and primes >= 2^64 appear
        self.clt("edge", "huge_coeff", 50, 100,
                 coeffs=(10 ** 20, 0, 1) if rng.random() < 0.5
                 else (10 ** 20 + 1, 0, 1))
        # malformed configurations are refused with exit 2
        bad = [
            ("sieve", ["--n", "0"]),
            ("audit", ["--grid", "50,20"]),
            ("clt", ["--n", "50", "--reps", "10", "--seed", "1"]),
            ("fluct", ["--x", "100", "--k", "3", "--ratio", "1", "--reps",
                       "100", "--seed", "1"]),
            ("energy", ["--n", "5", "--q", "3", "--a", "5"]),
            ("clt", ["--n", "50", "--reps", "100", "--seed", "0xZZ"]),
        ]
        for sub, opts in rng.sample(bad, 2):
            self.add(sub, "edge", "bad_config", sub, quad_irr(rng), opts,
                     expect_rc=2)

    def finish(self) -> list[Job]:
        order = list(range(len(self.jobs)))
        self.rng.shuffle(order)
        out = []
        for pos, i in enumerate(order):
            job = self.jobs[i]
            out.append(Job(**{**job.to_dict(), "id": f"{pos:03d}-{job.cls}"}))
        return out


# ------------------------------------------------------------------ workloads
# Sizes are chosen so that one pass over a workload takes 5-9 s on a
# 2-core machine at the seed commit, with every job far below its cap.

# the top rung holds more than a tenth of the jobs, so p90 falls inside it
SIEVE_LADDER = {250: 4, 500: 6, 1000: 6, 2000: 4, 4000: 4, 8000: 5}
SIEVE_SLOTS = (
    ("quad_irr", "json"), ("cubic_irr", "csv"), ("quad_red", "csv"),
    ("cubic_red", "json"), ("quad_irr", "csv"), ("cubic_irr", "json"),
    ("quad_red", "json"), ("cubic_red", "csv"),
)


def _factor(b: _Builder) -> None:
    for n, count in SIEVE_LADDER.items():
        for i in range(count):
            kind, fmt = SIEVE_SLOTS[i % len(SIEVE_SLOTS)]
            b.sieve("focus", kind, n, fmt)


# many replicates per job keep factoring a small share of the work
CLT_SLOTS = [("quad_irr", 1000, 6000), ("cubic_irr", 2000, 4000),
             ("quad_irr", 4000, 3000), ("cubic_irr", 4000, 5000)]
FLUCT_SLOTS = [(300, 4, False), (400, 4, True), (400, 6, False), (300, 8, True)]
FLUCT_REPS = 600


def _montecarlo(b: _Builder) -> None:
    for kind, n, reps in CLT_SLOTS:
        b.clt("focus", kind, n, reps)
    for x, ratio, conditional in FLUCT_SLOTS:
        b.fluct("focus", x, ratio, FLUCT_REPS, conditional)


ENERGY_INT64_N = (500, 1000, 2000, 2500, 3000)
ENERGY_BIG_N = (1000, 1200, 1400)
TWIN_MAX_N = 1000
TINY_N = (8, 10, 12, 14)
AUDIT_SLOTS = [("quad_irr", 1000), ("quad_irr", 4000), ("quad_red", 1000),
               ("quad_red", 2500), ("quad_irr", 200), ("quad_red", 200)]
PINNED = [((1, 0, 1), 3, 15), ((0, -6, 1), 5, 129), ((1, 0, 1), 1000, 2002364)]


def _exact(b: _Builder) -> None:
    twins = []
    for i, n in enumerate(ENERGY_INT64_N):
        coeffs = quad_irr(b.rng) if i % 2 == 0 else quad_red(b.rng)
        b.energy("focus", "quad", n, coeffs=coeffs)
        if n <= TWIN_MAX_N:
            twins.append((coeffs, n))
    for n in ENERGY_BIG_N:
        b.energy("focus", "cubic_big", n, lead=b.rng.randint(4, 6))
    for n in TINY_N:  # small enough for a brute-force recount
        b.energy("focus", "tiny", n,
                 coeffs=b.rng.choice((quad_irr, quad_red, cubic_irr))(b.rng))
    # each chunked grid ends at the N of a direct job with the same polynomial
    for coeffs, n in twins:
        b.chunked("focus", "twin", [n // 4, n // 2, n], coeffs=coeffs)
    for kind, top in AUDIT_SLOTS:
        b.audit("focus", kind, [top // 2, top])
    for coeffs, n, total in PINNED:
        b.add("energy", "focus", f"energy/pinned/N={n}", "energy", coeffs,
              ["--n", str(n)], n=n, pinned_total=total)


_MAKERS = {"factor": _factor, "montecarlo": _montecarlo, "exact": _exact}


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of ``workload`` for ``seed``; pure function of both."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    b = _Builder(workload, seed)
    _MAKERS[workload](b)
    b.edges()
    return b.finish()
