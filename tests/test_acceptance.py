"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run under pytest as usual, or standalone with `python3 tests/test_acceptance.py`
for the same checks with the per-criterion lines printed.
"""

import random
import time
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, sqrt

from remixed.verify import verify_abelian, verify_congruence, verify_corrective, verify_families
from remixed.config import Configuration, all_configurations, core
from remixed.engine import remixed_exact, remixed_induction, success_probability
from remixed.formulas import (
    CSParams,
    HitIndex,
    a_almost_lukasiewicz,
    a_connected,
    a_lukasiewicz,
    a_one_hole,
    carlitz_scoville_q,
    corrective_series,
    dispatch,
    q_hit,
)
from remixed.qcalc import (
    ONE,
    ZERO,
    QPoly,
    poly_reverse,
    q_binomial,
    q_int,
)
from remixed.simulate import estimate_success
from series_reference import bracket_product_reference, poly_product

FAILS = 0


def ok_line(ok: bool, label: str, detail: str = "") -> None:
    global FAILS
    tag = "PASS" if ok else "FAIL"
    if not ok:
        FAILS += 1
    pad = 68
    left = (label[:pad] + ("…" if len(label) > pad else "")).ljust(pad)
    tail = f"  {detail}" if detail else ""
    print(f"{tag:4}  {left}{tail}")


def test_criterion_1_worked_examples():
    display_2332 = bracket_product_reference((2, 2, 2, 4, 4)) - bracket_product_reference((3, 3, 6))
    display_almost = bracket_product_reference((3, 3, 3, 5)) - poly_product(q_binomial(6, 2), q_int(3))
    cases = [
        ((3, 0, 0, 2, 0), a_lukasiewicz, (1, 2, 3, 4, 3, 2, 1)),
        (
            (0, 1, 2, 2, 0),
            lambda c: a_connected(core(c).gamma, core(c).left_zeros, c.n),
            (0, 0, 1, 5, 12, 18, 18, 12, 5, 1),
        ),
        ((1, 0, 3, 0, 1), a_almost_lukasiewicz, (0, 2, 6, 12, 16, 18, 16, 12, 6, 2)),
        ((0, 3, 0, 2, 0), a_almost_lukasiewicz, display_2332.coeffs),
        (
            (0, 2, 1, 0, 3, 0),
            a_one_hole,
            (0, 0, 2, 8, 19, 36, 56, 72, 78, 72, 56, 36, 19, 8, 2),
        ),
    ]
    assert display_almost.coeffs == (0, 2, 6, 12, 16, 18, 16, 12, 6, 2)
    all_ok = True
    for ct, formula, want in cases:
        t0 = time.perf_counter()
        c = Configuration(ct)
        by_formula = formula(c)
        by_dynamics = remixed_exact(c)
        elapsed = time.perf_counter() - t0
        ok = by_formula.coeffs == want and by_dynamics.coeffs == want and elapsed < 1.0
        ok_line(ok, f"criterion 1: A_{ct} closed formula and drop dynamics", f"{elapsed:.3f}s")
        all_ok = all_ok and ok
    assert all_ok


def test_criterion_2_exhaustive_triple_equality(oracle):
    t0 = time.perf_counter()
    rng = random.Random(2026)
    count = 0
    exact_count = 0
    for n in range(1, 9):
        table = oracle.table(n)
        assert len(table) == comb(2 * n - 1, n)
        exact_keys = (
            sorted(table) if n <= 6 else rng.sample(sorted(table), 25 if n == 7 else 10)
        )
        exact_keys = set(exact_keys)
        for ct in sorted(table):
            want = table[ct]
            c = Configuration(ct)
            assert remixed_induction(c) == want, ct
            assert dispatch(c).poly == want, ct
            if ct in exact_keys:
                assert remixed_exact(c) == want, ct
                exact_count += 1
            count += 1
    elapsed = time.perf_counter() - t0
    ok = count == sum(comb(2 * n - 1, n) for n in range(1, 9)) and elapsed <= 600
    ok_line(
        ok,
        "criterion 2: sweep == recursion == dispatch for all n <= 8",
        f"{count} configs, {exact_count} pointwise replays, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_3_family_suites(oracle):
    all_ok = True
    for driver in (verify_families, verify_congruence, verify_corrective):
        rep = driver(8, oracle.table)
        done = rep["checks"]
        detail = (
            ", ".join(f"{k}={v}" for k, v in done.items()) if isinstance(done, dict) else str(done)
        )
        ok_line(rep["passed"], f"criterion 3: {rep['name']} suite exhaustive n <= 8", detail)
        all_ok = all_ok and rep["passed"]
        assert not rep["failures"], rep["failures"]
    assert all_ok


def test_criterion_4_structural_properties(oracle):
    nonneg = True
    palin = True
    count = 0
    for n in range(1, 9):
        table = oracle.table(n)
        d = n * (n - 1) // 2
        for ct, poly in table.items():
            nonneg = nonneg and all(co >= 0 for co in poly.coeffs)
            palin = palin and poly == poly_reverse(table[ct[::-1]], d)
            count += 1
    ok_line(nonneg, "criterion 4: nonnegative coefficients for all n <= 8", f"{count} configs")
    ok_line(palin, "criterion 4: reversal palindromicity for all n <= 8", f"{count} configs")
    rep = verify_abelian(8, oracle.table)
    ok_line(
        rep["passed"],
        "criterion 4: drop order invariance spot checks",
        f"{rep['checks']} order/q cells",
    )
    assert nonneg and palin and rep["passed"]


def test_criterion_5_specializations_at_one(oracle):
    eulerian_ok = True
    for n in range(1, 8):
        by_descents = [0] * n
        for sigma in permutations(range(n)):
            by_descents[sum(1 for k in range(n - 1) if sigma[k] > sigma[k + 1])] += 1
        for i in range(n):
            ct = (0,) * i + (n,) + (0,) * (n - 1 - i)
            eulerian_ok = eulerian_ok and oracle.value(ct).evaluate(1) == by_descents[i]
    ok_line(eulerian_ok, "criterion 5: descent counts recovered at q = 1, n <= 7")

    cs_ok = True
    cs_checks = 0
    for x in (1, 2, 3):
        for y in (1, 2, 3):
            assert carlitz_scoville_q(CSParams(0, 0, x, y)).evaluate(1) == 1
            for r in range(1, 6):
                for s in range(1, 7 - r):
                    lhs = carlitz_scoville_q(CSParams(r, s, x, y)).evaluate(1)
                    rhs = (s + x) * carlitz_scoville_q(CSParams(r - 1, s, x, y)).evaluate(
                        1
                    ) + (r + y) * carlitz_scoville_q(CSParams(r, s - 1, x, y)).evaluate(1)
                    cs_ok = cs_ok and lhs == rhs
                    cs_checks += 1
    ok_line(cs_ok, "criterion 5: two sided recurrence at q = 1, r+s <= 6, x,y <= 3", f"{cs_checks} cells")

    def staircase(n):
        def rec(k, bound):
            if k == n:
                yield ()
                return
            for v in range(min(bound, n - k), -1, -1):
                for rest in rec(k + 1, v):
                    yield (v,) + rest

        yield from rec(0, n)

    hit_ok = True
    hit_rows = 0
    for n in range(1, 7):
        for lam in staircase(n):
            total = sum(q_hit(HitIndex(lam, i, n)).evaluate(1) for i in range(n + 1))
            hit_ok = hit_ok and total == factorial(n)
            hit_rows += 1
    ok_line(hit_ok, "criterion 5: hit number rows sum to n! at q = 1, n <= 6", f"{hit_rows} rows")
    assert eulerian_ok and cs_ok and hit_ok


def _q_normal_form(p: int, r: int) -> list:
    """t coefficients of the corrective series, rebased to start at t^0, q^0."""
    if r == 0:
        return [ONE]
    ser = corrective_series((p,), (r,), p + r)
    low = comb(p, 2)
    rows = [ser[t + p - 1].coeffs for t in range(r + 1)]
    assert not any(c for cs in rows for c in cs[:low]), f"q^{low} does not divide the series"
    return [QPoly(cs[low:]) for cs in rows]


def test_criterion_6_corrective_algebra():
    rec_ok = True
    rec_checks = 0
    for p in range(1, 5):
        prev = _q_normal_form(p, 0)
        for r in range(1, 5):
            cur = _q_normal_form(p, r)
            for t in range(r + 1):
                want = ZERO
                if t == 0:
                    want = want + q_binomial(p + r, r).shift(r)
                if t <= r - 1:
                    want = want + prev[t]
                if 1 <= t <= r:
                    want = want - prev[t - 1].shift(p + r)
                rec_ok = rec_ok and cur[t] == want
                rec_checks += 1
            prev = cur
    ok_line(
        rec_ok,
        "criterion 6: rebased series recurrence, unit seed, p,r <= 4",
        f"{rec_checks} coefficients",
    )

    lemma_ok = True
    lemma_checks = 0
    for p in range(2, 5):
        for r in range(1, 5):
            ct = (0,) * (p - 2) + (p,) + (0,) + (1,) * (r - 1)
            lhs = remixed_induction(Configuration(ct))
            power = bracket_product_reference([r + 1] * p)
            body = bracket_product_reference(range(1, r), power - q_binomial(p + r, r))
            e = p * (p - 3) // 2
            same = lhs == body.shift(e) if e >= 0 else lhs.shift(-e) == body
            lemma_ok = lemma_ok and same
            lemma_checks += 1
    ok_line(
        lemma_ok,
        "criterion 6: power minus binomial closed form, p,r <= 4",
        f"{lemma_checks} configurations",
    )
    assert rec_ok and lemma_ok


PANEL = [
    (1,),
    (2, 0),
    (0, 2),
    (1, 1, 1),
    (0, 3, 0),
    (2, 0, 1),
    (0, 2, 2, 0),
    (3, 0, 1, 0),
    (0, 3, 0, 2, 0),
    (0, 0, 6, 0, 0, 0),
]


def test_criterion_7_monte_carlo_panel():
    t0 = time.perf_counter()
    qs = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    trials = 10**5
    worst = 0.0
    all_ok = True
    for ci, ct in enumerate(PANEL):
        c = Configuration(ct)
        for qi, q0 in enumerate(qs):
            seed = 1000 + 10 * ci + qi
            exact = success_probability(c, q0)
            res = estimate_success(c, q0, trials, seed)
            sigma = sqrt(float(exact * (1 - exact)) / trials)
            if sigma == 0:
                ok = res.estimate == exact
            else:
                dev = abs(float(res.estimate - exact)) / sigma
                worst = max(worst, dev)
                ok = dev <= 5
            all_ok = all_ok and ok
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed <= 60
    ok_line(
        ok,
        "criterion 7: 10 configuration panel within 5 sigma at 1e5 trials",
        f"worst {worst:.2f} sigma, {elapsed:.1f}s",
    )
    assert ok


if __name__ == "__main__":
    import sys

    import pytest

    sys.exit(pytest.main([__file__, "-v", "-s"]))
