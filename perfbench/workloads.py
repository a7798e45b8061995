"""The four benchmark workloads: seeded inputs, the timed call, result checks.

Each workload is a stream of queries made from the seed alone, a call that
one closed-loop client times (the next query is sent only after the
previous one returns), a summary kept from each answer, and a check of
that summary by a route that does not depend on the seed.  Summaries and
checks run outside the timed region and never call into the package
while wrappers from ``tracing.py`` are installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from remixed import cli, config, engine, formulas, qcalc

GOLDEN_TABLES = Path(__file__).with_name("golden_tables.json")

# dispatch's family precedence, used only to bucket generated inputs; the
# route a query actually took is read from its answer
ROUTES = (
    "lukasiewicz",
    "almost_lukasiewicz",
    "connected",
    "one_hole",
    "weakly_lukasiewicz",
    "induction",
)
SIM_QS = ("0", "1/3", "1", "2")


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload.

    FULL is what the benchmark measures.  TINY (n <= 5, a handful of
    queries) exists for the smoke test and measures nothing.
    """

    verify_nmax: int
    eval_n: tuple[int, int]
    eval_routes: tuple[str, ...]
    crosscheck_n: tuple[int, int]
    simulate_n: tuple[int, int]
    simulate_trials: int
    # queries per run, overriding --seconds times the workload's rate
    max_queries: int | None
    setup_probes: int
    # queries in each pass of a traced run, fixed so its counts repeat
    trace_queries: dict[str, int]


FULL = Sizes(
    verify_nmax=8,
    eval_n=(10, 13),
    eval_routes=ROUTES,
    crosscheck_n=(8, 10),
    simulate_n=(5, 10),
    simulate_trials=100_000,
    max_queries=None,
    setup_probes=7,
    trace_queries={"verify": 1, "eval": 3000, "crosscheck": 150, "simulate": 40},
)
# no configuration with n <= 5 takes the weakly_lukasiewicz route
TINY = Sizes(
    verify_nmax=5,
    eval_n=(4, 5),
    eval_routes=tuple(r for r in ROUTES if r != "weakly_lukasiewicz"),
    crosscheck_n=(4, 5),
    simulate_n=(4, 5),
    simulate_trials=1000,
    max_queries=6,
    setup_probes=2,
    trace_queries={"verify": 1, "eval": 6, "crosscheck": 6, "simulate": 6},
)


def reset_caches() -> None:
    """Empty the package's in-process caches, as a fresh process has them."""
    engine._induction.cache_clear()
    qcalc._QBIN_CACHE.clear()


def memo_counts() -> tuple[int, int]:
    info = engine._induction.cache_info()
    return info.hits, info.misses


def uniform_config(rng: random.Random, n: int) -> tuple[int, ...]:
    """Uniform over all configurations with n sites (stars and bars)."""
    bars = sorted(rng.sample(range(2 * n - 1), n - 1))
    out, prev = [], -1
    for b in bars + [2 * n - 1]:
        out.append(b - prev - 1)
        prev = b
    return tuple(out)


# core hole counts each bucket allows: a cheap test that spares most
# rejected draws a classify call
HOLES_OK = {
    "connected": lambda h: h == 0,
    "one_hole": lambda h: h == 1,
    "weakly_lukasiewicz": lambda h: h >= 2,
    "induction": lambda h: h >= 2,
}


def strata(rng: random.Random, *axes) -> Iterator[tuple]:
    """Every combination of the axes once per block, blocks in seeded order.

    Stratifying the inputs that set a query's cost keeps the mix, and so
    the medians, the same from seed to seed.
    """
    block = [()]
    for axis in axes:
        block = [b + (x,) for b in block for x in axis]
    while True:
        rng.shuffle(block)
        yield from block


def core_holes(ct: tuple[int, ...]) -> int:
    lo = next(i for i, x in enumerate(ct) if x)
    hi = len(ct) - next(i for i, x in enumerate(reversed(ct)) if x)
    return ct[lo:hi].count(0)


def family_bucket(ct: tuple[int, ...]) -> str:
    f = config.classify(config.Configuration(ct))
    if f.is_lukasiewicz:
        return "lukasiewicz"
    if f.almost_defect is not None:
        return "almost_lukasiewicz"
    if f.is_connected:
        return "connected"
    if f.is_one_hole:
        return "one_hole"
    if f.is_weakly_lukasiewicz:
        return "weakly_lukasiewicz"
    return "induction"


def table_digest(table: dict) -> str:
    """SHA-256 over the canonical text of one exact_sweep table."""
    h = hashlib.sha256()
    for ct in sorted(table):
        line = ",".join(map(str, ct)) + ":" + ",".join(map(str, table[ct].coeffs)) + "\n"
        h.update(line.encode())
    return h.hexdigest()


# two-sided tail of the normal distribution beyond 5 sigma
FIVE_SIGMA = math.erfc(5 / math.sqrt(2))


def binomial_tail(trials: int, successes: int, p: Fraction) -> float:
    """Two-sided exact tail of Binomial(trials, p) at the observed count.

    Twice the probability of a count at least as far from the mean, on the
    observed side.  This stands in for the sigma deviation the command
    prints, whose normal approximation fails when p * trials is small: at
    an expected 0.28 successes, 3 observed read as 5.2 sigma, yet three or
    more turn up with probability 0.003.
    """
    if p > Fraction(1, 2):
        successes, p = trials - successes, 1 - p
    if p == 0:
        return 1.0 if successes == 0 else 0.0
    lp, lq = math.log(p), math.log1p(-float(p))
    top = math.lgamma(trials + 1)

    def pmf(k: int) -> float:
        return math.exp(top - math.lgamma(k + 1) - math.lgamma(trials - k + 1) + k * lp + (trials - k) * lq)

    step = 1 if successes >= trials * p else -1
    total, k = 0.0, successes
    while 0 <= k <= trials:
        term = pmf(k)
        total += term
        if term < total * 1e-17:
            break
        k += step
    return min(1.0, 2 * total)


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class Workload:
    """One stream of queries.  Subclasses override the hooks below."""

    name = ""
    # queries per second of --seconds: a run sends a fixed number of
    # queries, which take about --seconds at the seed commit on a 2-core
    # VM under CPython 3.11.  A fixed count, not a deadline, because eval's
    # memo makes later queries cheaper: under a deadline a slower machine
    # would send fewer queries, see fewer memo hits and read slower still.
    rate = 1.0
    # percentile reported as tail_ms
    tail_pct = 100
    # queries long enough to sample the machine's speed inside them
    sample_inside = False
    # how closely the latency follows the reference kernel's speed: the
    # slope of log wall latency against log kernel time over ten runs
    # (see speed.py)
    speed_exponent = 1.0

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes

    def count(self, seconds: float) -> int:
        """Queries in one run."""
        return self.sizes.max_queries or max(1, round(seconds * self.rate))

    def rng(self) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}")

    def queries(self) -> Iterator:
        """The seeded query stream; every call starts it afresh."""
        raise NotImplementedError

    def session(self):
        """Context wrapped around the whole timed loop."""
        return contextlib.nullcontext()

    def before_query(self) -> None:
        """Untimed preparation of the package before each query."""

    def execute(self, query):
        """The timed call."""
        raise NotImplementedError

    def summarize(self, query, out):
        """What is kept of an answer for checking; no package calls."""
        return out

    def check(self, query, kept) -> str | None:
        """None when the answer is right, else the reason it is not."""
        raise NotImplementedError

    def route_of(self, kept) -> str | None:
        """The dispatch route this answer reports, if it reports one."""
        return None


class Verify(Workload):
    """`remixed verify all --nmax 8` through cli.main, cold caches each time."""

    name = "verify"
    # two commands at --seconds 12, which take 25 to 40 s on the 2-core VM
    rate = 0.17
    sample_inside = True

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        self.golden = json.loads(GOLDEN_TABLES.read_text())
        self._tables: dict[int, dict] = {}

    def queries(self) -> Iterator:
        while True:
            yield ["verify", "all", "--nmax", str(self.sizes.verify_nmax)]

    @contextlib.contextmanager
    def session(self):
        # keeps a reference to each table the command builds, for the digest
        inner = cli.exact_sweep

        def capture(n):
            table = inner(n)
            self._tables[n] = table
            return table

        cli.exact_sweep = capture
        try:
            yield
        finally:
            cli.exact_sweep = inner

    def before_query(self) -> None:
        reset_caches()
        self._tables = {}

    def execute(self, query):
        return run_cli(query)

    def summarize(self, query, out):
        rc, text = out
        digests = {n: table_digest(t) for n, t in self._tables.items()}
        self._tables = {}
        suites = json.loads(text)["result"]["suites"] if rc in (0, 4) else []
        return {
            "rc": rc,
            "suites": {s["name"]: s["passed"] for s in suites},
            "digests": digests,
        }

    def check(self, query, kept) -> str | None:
        reasons = []
        if kept["rc"] != 0:
            reasons.append(f"exit code {kept['rc']}")
        failed = [name for name, ok in kept["suites"].items() if not ok]
        if failed or len(kept["suites"]) != 4:
            reasons.append(f"suites not passed: {failed or sorted(kept['suites'])}")
        for n in range(1, self.sizes.verify_nmax + 1):
            got = kept["digests"].get(n)
            if got != self.golden[str(n)]:
                reasons.append(f"table digest mismatch for n={n}")
        return "; ".join(reasons) or None


class Eval(Workload):
    """Single-configuration dispatch queries in one long-lived session.

    Each block of 24 queries holds every pair of family bucket and n once,
    in seeded order; a query's configuration is drawn uniformly among
    those with its n and rejected until it falls in its bucket.
    """

    name = "eval"
    rate = 700
    tail_pct = 99

    def queries(self) -> Iterator:
        rng = self.rng()
        lo, hi = self.sizes.eval_n
        for route, n in strata(rng, self.sizes.eval_routes, range(lo, hi + 1)):
            holes_ok = HOLES_OK.get(route, lambda h: True)
            while True:
                ct = uniform_config(rng, n)
                if holes_ok(core_holes(ct)) and family_bucket(ct) == route:
                    yield ct
                    break

    def execute(self, query):
        return formulas.dispatch(config.Configuration(query))

    def summarize(self, query, out):
        return out.method, hash(out.poly.coeffs)

    def check(self, query, kept) -> str | None:
        method, digest = kept
        c = config.Configuration(query)
        if method == "induction":
            # A_c(q) = q^D A_rev(c)(1/q), with the mirror image computed by
            # whatever route dispatch picks for it
            big_d = c.n * (c.n - 1) // 2
            mirror = formulas.dispatch(config.reverse(c)).poly
            want = qcalc.poly_reverse(mirror, big_d)
        else:
            want = engine.remixed_induction(c)
        if hash(want.coeffs) != digest:
            return f"{method} result for {query} disagrees with the independent route"
        return None

    def route_of(self, kept) -> str | None:
        return kept[0]


class Crosscheck(Workload):
    """`remixed eval <c> --crosscheck` for uniform configurations."""

    name = "crosscheck"
    rate = 25
    tail_pct = 90

    def queries(self) -> Iterator:
        rng = self.rng()
        lo, hi = self.sizes.crosscheck_n
        for (n,) in strata(rng, range(lo, hi + 1)):
            ct = uniform_config(rng, n)
            yield ["eval", ",".join(map(str, ct)), "--crosscheck"]

    def execute(self, query):
        return run_cli(query)

    def summarize(self, query, out):
        rc, text = out
        result = json.loads(text)["result"] if rc in (0, 3) else {}
        return rc, result.get("crosscheck"), result.get("method")

    def check(self, query, kept) -> str | None:
        rc, verdict, _ = kept
        if rc != 0 or verdict != "pass":
            return f"crosscheck of {query[1]}: exit code {rc}, verdict {verdict}"
        return None

    def route_of(self, kept) -> str | None:
        return kept[2]


class Simulate(Workload):
    """`remixed simulate` with 10^5 trials, each checked against the exact value.

    A fixed pool of configurations, every pair of n and q POOL_DEPTH
    times, in seeded order with seeded simulator seeds.
    """

    name = "simulate"
    rate = 8
    tail_pct = 90
    # the batch's vector work slows less than the interpreter: the slope
    # was 0.51 to 0.58 in three sets of ten runs
    speed_exponent = 0.5

    # configurations per pair of n and q in the pool
    POOL_DEPTH = 7

    def count(self, seconds: float) -> int:
        """Whole passes over the pool, the nearest to --seconds times the rate.

        Every run then simulates the same configurations: a run that left
        out 8 of the 168 moved its median by up to 10%.
        """
        if self.sizes.max_queries:
            return self.sizes.max_queries
        lo, hi = self.sizes.simulate_n
        pool = self.POOL_DEPTH * (hi - lo + 1) * len(SIM_QS)
        return pool * max(1, round(seconds * self.rate / pool))

    def queries(self) -> Iterator:
        """The pool in seeded order, again and again, with seeded simulator seeds.

        The pool holds POOL_DEPTH uniform configurations for every pair of
        n and q, drawn from a fixed seed, not from --seed: the cost of one
        command varies several-fold between configurations of the same n,
        and drawing them afresh moved the median work of a 160-query run
        by 13% from seed to seed.  --seed sets the order of the queries
        and the simulator's seeds.  Each pass over the pool holds every
        configuration once.
        """
        rng = self.rng()
        lo, hi = self.sizes.simulate_n
        trials = str(self.sizes.simulate_trials)
        pool_rng = random.Random("simulate:pool")
        pool = [
            (",".join(map(str, uniform_config(pool_rng, n))), q)
            for _ in range(self.POOL_DEPTH)
            for n in range(lo, hi + 1)
            for q in SIM_QS
        ]
        while True:
            rng.shuffle(pool)
            for ct, q in pool:
                yield ["simulate", ct, "--q", q, "--trials", trials, "--seed", str(rng.getrandbits(32))]

    def execute(self, query):
        return run_cli(query)

    def summarize(self, query, out):
        rc, text = out
        result = json.loads(text)["result"] if rc == 0 else {}
        sim = result.get("sim", {})
        return {
            "rc": rc,
            "trials": sim.get("trials", 0),
            "successes": sim.get("successes"),
            "exact": result.get("exact"),
            "sigma": result.get("sigma_deviation"),
        }

    def check(self, query, kept) -> str | None:
        if kept["rc"] != 0 or kept["exact"] is None:
            return f"simulate {query[1]} at q={query[3]}: exit code {kept['rc']}"
        tail = binomial_tail(kept["trials"], kept["successes"], Fraction(kept["exact"]))
        if tail < FIVE_SIGMA:
            return (
                f"simulate {query[1]} at q={query[3]}: {kept['successes']} successes, "
                f"exact {kept['exact']}, {kept['sigma']} sigma, tail {tail:.3g}"
            )
        return None


WORKLOADS = {w.name: w for w in (Verify, Eval, Crosscheck, Simulate)}
