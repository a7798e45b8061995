"""Exhaustive identity suites: the paper's formulas against the oracle.

A driver takes nmax and ``table``, a function from n to the exact table
``{configuration: polynomial}`` of every configuration on n sites, and
returns one report ``{"name", "passed", "checks", "failures"}`` with at
most 20 failure records.  A driver calls ``table`` only for the n it
reads, so a caller that builds tables on demand builds no other.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterator

from .config import (
    Configuration,
    NoWeaklyShift,
    all_configurations,
    core,
    left_to_right_order,
    max_weakly_shift,
    shifted_config,
)
from .engine import drop_order_check, remixed_induction, success_probability
from .formulas import ROUTES, core_series, corrective_series, dispatch, one_hole_prefactor, sum_terms
from .qcalc import ZERO, QPoly, bracket_product

Table = Callable[[int], dict[tuple[int, ...], QPoly]]


def _report(name: str, checks: int | dict[str, int], failures: list[dict]) -> dict:
    return {"name": name, "passed": not failures, "checks": checks, "failures": failures[:20]}


def _compositions(total: int) -> Iterator[tuple[int, ...]]:
    """All tuples of positive integers with the given sum."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


# check names of the families suite that differ from the route names
_FAMILY_CHECKS = {"almost_lukasiewicz": "almost", "weakly_lukasiewicz": "weakly"}


def verify_families(nmax: int, table: Table) -> dict:
    """Closed formulas and the recursion against the oracle, exhaustively.

    Every route of formulas.ROUTES whose family contains a configuration
    is checked on it, not only the one dispatch picks.  Each builder of
    terms is summed once per configuration: the route dispatch chose
    reuses its polynomial, and routes that share a builder share its sum.
    A configuration outside every family, which dispatch sends to the
    recursion, has its induction and dispatch checks share that one call.
    """
    families = [(_FAMILY_CHECKS.get(name, name), applies, build) for name, (applies, build) in ROUTES.items()]
    checks = {"induction": 0, **{family: 0 for family, _, _ in families}, "dispatch": 0}
    failures: list[dict] = []

    def fail(ct, family):
        failures.append({"config": list(ct), "family": family})

    for n in range(1, nmax + 1):
        values = table(n)
        for ct in sorted(values):
            oracle = values[ct]
            c = Configuration(ct)
            rep = dispatch(c)
            if rep.method in ROUTES:
                induction = remixed_induction(c)
                # polynomial by builder, for this configuration
                sums = {ROUTES[rep.method][1]: rep.poly}
            else:
                # dispatch fell back to the recursion: its one call serves both checks
                induction, sums = rep.poly, {}
            if induction != oracle:
                fail(ct, "induction")
            checks["induction"] += 1
            if rep.poly != oracle:
                fail(ct, "dispatch")
            checks["dispatch"] += 1
            for family, applies, build in families:
                if applies(rep.flags):
                    poly = sums.get(build)
                    if poly is None:
                        poly = sums[build] = sum_terms(build(c, rep.flags), ct)
                    if poly != oracle:
                        fail(ct, family)
                    checks[family] += 1
    return _report("families", checks, failures)


def verify_congruence(nmax: int, table: Table) -> dict:
    """The truncated series identity at the maximal weakly shift."""
    checks = 0
    failures: list[dict] = []
    for n in range(1, nmax + 1):
        values = table(n)
        cores = sorted({core(Configuration(ct)).gamma for ct in values})
        for gamma in cores:
            try:
                k = max_weakly_shift(gamma)
            except NoWeaklyShift:
                continue
            lhs = tuple(values[shifted_config(gamma, i).c] for i in range(k + 1))
            if lhs != core_series(gamma, n, k + 1):
                failures.append({"core": list(gamma), "n": n, "k": k})
            checks += 1
    return _report("congruence", checks, failures)


def verify_corrective(nmax: int, table: Table) -> dict:
    """Corrective series against its definition, plus the two block factorization."""
    checks = 0
    failures: list[dict] = []
    for n in range(2, nmax + 1):
        values = table(n)
        for p in range(1, n):
            r = n - p
            base = corrective_series((p,), (r,))
            for alpha in _compositions(p):
                for beta in _compositions(r):
                    series = corrective_series(alpha, beta)
                    gamma = alpha + (0,) + beta
                    span = len(gamma)
                    definition = core_series(gamma, n, n + 1)
                    shifted = [ZERO] * (n + 1)
                    for i in range(n - span + 1):
                        shifted[i] = values[shifted_config(gamma, i).c]
                    ok = all(series[t] + shifted[t] == definition[t] for t in range(n + 1))
                    if not ok:
                        failures.append({"alpha": list(alpha), "beta": list(beta), "n": n, "law": "definition"})
                    checks += 1
                    exp, brackets = one_hole_prefactor(alpha, beta)
                    ell = len(alpha)
                    ok = all(
                        series[t].shift(-exp) == bracket_product(brackets, base[t + ell - 1])
                        if t + ell - 1 <= n
                        else series[t] == ZERO
                        for t in range(n + 1)
                    )
                    if not ok:
                        failures.append({"alpha": list(alpha), "beta": list(beta), "n": n, "law": "factorization"})
                    checks += 1
    return _report("corrective", checks, failures)


def verify_abelian(nmax: int, table: Table) -> dict:
    """Drop order invariance of the success probability, spot checked; reads no table."""
    rng = random.Random(97)
    qs = [Fraction(1, 3), Fraction(1), Fraction(2)]
    checks = 0
    failures: list[dict] = []
    for n in range(2, min(nmax, 7) + 1):
        cfgs = list(all_configurations(n))
        for c in rng.sample(cfgs, min(4, len(cfgs))):
            base = {q0: success_probability(c, q0) for q0 in qs}
            for _ in range(5):
                order = list(left_to_right_order(c))
                rng.shuffle(order)
                for q0 in qs:
                    if drop_order_check(tuple(order), q0) != base[q0]:
                        failures.append({"config": list(c.c), "order": order, "q": str(q0)})
                    checks += 1
    return _report("abelian", checks, failures)


SUITES = {
    "families": verify_families,
    "congruence": verify_congruence,
    "corrective": verify_corrective,
    "abelian": verify_abelian,
}
