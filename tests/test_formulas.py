import random
import re
import sys
from fractions import Fraction
from itertools import permutations
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from remixed import config, engine, formulas, qcalc
from remixed.config import Configuration, all_configurations, classify, core
from remixed.engine import remixed_exact, remixed_induction, success_probability
from remixed.formulas import (
    a_almost_lukasiewicz,
    a_connected,
    a_lukasiewicz,
    a_one_hole,
    a_weakly_lukasiewicz,
    carlitz_scoville_q,
    core_series,
    corrective_series,
    cs_configuration,
    dispatch,
    hit_to_connected,
    mset,
    q_hits,
)
from remixed.qcalc import (
    ONE,
    ZERO,
    InvariantViolation,
    QPoly,
    q_binomial,
    q_int,
    q_pochhammer,
)
from remixed.qcalc import _stride
from series_reference import (
    bracket_product_reference,
    negate,
    pochhammer_reference,
    poly_product,
    series_mul_reference,
)


# ---------------------------------------------------------------- lukasiewicz


def test_lukasiewicz_examples():
    assert a_lukasiewicz(Configuration((3, 0, 0, 2, 0))).coeffs == (1, 2, 3, 4, 3, 2, 1)
    for n in range(1, 7):
        assert a_lukasiewicz(Configuration((1,) * n)) == bracket_product_reference(range(1, n + 1))
    with pytest.raises(ValueError, match=re.escape("(0, 2, 1) has a negative height")):
        a_lukasiewicz(Configuration((0, 2, 1)))


def test_lukasiewicz_boundary_first_site():
    # a ball landing left of its start disqualifies even at the first site
    assert not classify(Configuration((0, 2))).is_lukasiewicz
    with pytest.raises(ValueError, match=re.escape("(0, 2) has a negative height")):
        a_lukasiewicz(Configuration((0, 2)))
    assert remixed_exact(Configuration((0, 2))).coeffs == (0, 1)


def test_lukasiewicz_vs_oracle(oracle):
    for n in range(1, 7):
        for ct, want in oracle.table(n).items():
            c = Configuration(ct)
            if classify(c).is_lukasiewicz:
                assert a_lukasiewicz(c) == want


# ------------------------------------------------------------------ connected


def test_connected_examples():
    assert a_connected((1, 2, 2), 1).coeffs == (0, 0, 1, 5, 12, 18, 18, 12, 5, 1)
    for n in range(1, 7):
        # single site core at the left wall: one term, product [1]^n
        assert a_connected((n,), 0) == ONE
    assert a_connected((1, 2), 0) == poly_product(q_int(2), q_int(2))
    with pytest.raises(ValueError, match=re.escape("shift 3 outside [0, 2]")):
        a_connected((1, 2, 2), 3)
    with pytest.raises(ValueError, match=re.escape("shift -1 outside [0, 2]")):
        a_connected((1, 2, 2), -1)
    with pytest.raises(ValueError, match=re.escape("core of (1, 0, 2) has a hole")):
        a_connected((1, 0, 2), 0)


def test_connected_vs_oracle(oracle):
    for n in range(1, 7):
        for ct, want in oracle.table(n).items():
            c = Configuration(ct)
            if classify(c).is_connected:
                dec = core(c)
                assert a_connected(dec.gamma, dec.left_zeros) == want


def test_connected_series_matches_termwise():
    gamma, n = (1, 2, 2), 5
    ser = core_series(gamma, n, 8)
    for j in range(3):
        assert ser[j] == a_connected(gamma, j)
    for j in range(3, 8):
        assert not ser[j]


def test_core_series_no_family_restriction():
    # holes are allowed here; the congruence suite leans on that
    ser = core_series((3, 0, 2), 5, 3)
    assert ser[1] == a_weakly_lukasiewicz((3, 0, 2), 1)


# --------------------------------------------------------------------- almost


def test_almost_examples(oracle):
    assert a_almost_lukasiewicz(Configuration((1, 0, 3, 0, 1))).coeffs == (
        0, 2, 6, 12, 16, 18, 16, 12, 6, 2,
    )
    assert a_almost_lukasiewicz(Configuration((0, 2, 1))) == oracle.value((0, 2, 1))
    with pytest.raises(
        ValueError, match=re.escape("(1, 1) does not have exactly one negative height")
    ):
        a_almost_lukasiewicz(Configuration((1, 1)))
    with pytest.raises(
        ValueError, match=re.escape("(0, 2, 1, 0, 3, 0) does not have exactly one negative height")
    ):
        a_almost_lukasiewicz(Configuration((0, 2, 1, 0, 3, 0)))


def test_almost_vs_oracle(oracle):
    for n in range(1, 7):
        for ct, want in oracle.table(n).items():
            c = Configuration(ct)
            if classify(c).almost_defect is not None:
                assert a_almost_lukasiewicz(c) == want


# --------------------------------------------------------------------- weakly


def test_weakly_examples():
    assert a_weakly_lukasiewicz((3, 0, 2), 1).coeffs == (0, 2, 6, 12, 17, 17, 12, 6, 2)
    # past the largest weakly placed shift, and a core placed weakly nowhere
    with pytest.raises(ValueError, match=re.escape("(0, 0, 3, 0, 2) is not weakly placed")):
        a_weakly_lukasiewicz((3, 0, 2), 2)
    with pytest.raises(ValueError, match=re.escape("(1, 0, 2) is not weakly placed")):
        a_weakly_lukasiewicz((1, 0, 2), 0)
    with pytest.raises(ValueError, match=re.escape("shift -1 outside [0, 2]")):
        a_weakly_lukasiewicz((3, 0, 2), -1)


def test_weakly_agrees_with_connected_when_hole_free():
    for gamma, n in [((1, 2, 2), 5), ((2, 1), 3), ((4,), 4)]:
        for i in range(n - len(gamma) + 1):
            assert a_weakly_lukasiewicz(gamma, i) == a_connected(gamma, i)


def test_weakly_vs_oracle(oracle):
    for n in range(1, 7):
        for ct, want in oracle.table(n).items():
            c = Configuration(ct)
            if classify(c).is_weakly_lukasiewicz:
                dec = core(c)
                assert a_weakly_lukasiewicz(dec.gamma, dec.left_zeros) == want


# ------------------------------------------------------------------- one hole


def test_corrective_series_examples():
    ser = corrective_series((2,), (1,))
    assert not ser[0]
    assert ser[1] == q_int(4).shift(1)
    assert ser[2] == negate(ONE.shift(4))
    assert not ser[3]
    # blocks wider than the gap still land inside [0, n]
    ser = corrective_series((1,), (1,))
    assert ser[0] == q_int(3)
    assert ser[1] == negate(ONE.shift(2))
    assert not ser[2]


def test_corrective_series_support():
    for alpha, beta in [((1, 1), (1,)), ((2,), (2, 1)), ((1, 2), (1, 1))]:
        ell, p, r = len(alpha), sum(alpha), sum(beta)
        n = p + r
        ser = corrective_series(alpha, beta)
        for t in range(n + 1):
            if p - ell <= t <= p - ell + r:
                assert ser[t]
            else:
                assert not ser[t]


def test_corrective_series_rejects_bad_blocks():
    with pytest.raises(ValueError, match=re.escape("both blocks around the hole must be nonempty")):
        corrective_series((), (1,))
    with pytest.raises(ValueError, match=re.escape("blocks (1, 0), (1,) must be hole free")):
        corrective_series((1, 0), (1,))


def test_one_hole_examples():
    assert a_one_hole(Configuration((0, 2, 1, 0, 3, 0))).coeffs == (
        0, 0, 2, 8, 19, 36, 56, 72, 78, 72, 56, 36, 19, 8, 2,
    )
    # correction term active away from the leftmost placement
    assert a_one_hole(Configuration((0, 1, 0, 3))).coeffs == (0, 0, 0, 0, 1, 1, 1)
    with pytest.raises(
        ValueError, match=re.escape("core of (1, 1) does not have exactly one hole")
    ):
        a_one_hole(Configuration((1, 1)))
    with pytest.raises(
        ValueError, match=re.escape("core of (2, 0, 2, 0, 1) does not have exactly one hole")
    ):
        a_one_hole(Configuration((2, 0, 2, 0, 1)))


def test_one_hole_vs_oracle(oracle):
    for n in range(1, 7):
        for ct, want in oracle.table(n).items():
            c = Configuration(ct)
            if classify(c).is_one_hole:
                assert a_one_hole(c) == want


# ------------------------------------------------------------------ hit index


def test_hit_index_validation():
    # q_hits and hit_to_connected check lam and n alike, in the same order
    for call in (q_hits, lambda lam, n: hit_to_connected(lam, n, 0)):
        with pytest.raises(ValueError, match=re.escape("negative part in (-1,)")):
            call((-1,), 2)
        with pytest.raises(ValueError, match=re.escape("(1, 2) is not weakly decreasing")):
            call((1, 2), 3)
        with pytest.raises(ValueError, match=re.escape("part 2 at row 1 leaves the staircase")):
            call((2,), 1)
        with pytest.raises(ValueError, match=re.escape("(1, 1, 1) has more than 2 parts")):
            call((1, 1, 1), 2)
        with pytest.raises(ValueError, match=re.escape("size must be positive")):
            call((), 0)
        # a bad size is reported before a bad part
        with pytest.raises(ValueError, match=re.escape("size must be positive")):
            call((-1,), 0)
    # the hit count is checked after lam, and only where one is taken
    with pytest.raises(ValueError, match=re.escape("hit count 3 outside [0, 2]")):
        hit_to_connected((), 2, 3)
    with pytest.raises(ValueError, match=re.escape("hit count -1 outside [0, 2]")):
        hit_to_connected((), 2, -1)
    with pytest.raises(ValueError, match=re.escape("part 2 at row 1 leaves the staircase")):
        hit_to_connected((2,), 1, 5)
    # lam is padded to n parts, with trailing zeros past n allowed
    assert q_hits((2, 1), 3) == q_hits((2, 1, 0), 3) == q_hits((2, 1, 0, 0, 0), 3)
    with pytest.raises(
        ValueError, match=re.escape("hit count 0 of (2, 2, 0) has no matching placement")
    ):
        hit_to_connected((2, 2), 3, 0)


def test_q_hit_examples():
    assert q_hits((), 2)[0] == q_int(2)
    assert not q_hits((1,), 1)[0]
    assert q_hits((1,), 1)[1] == ONE
    # the generating series taken well past the degree changes nothing
    long = hit_series((2, 1), 3, 9)
    assert long[1] == q_hits((2, 1), 3)[1]
    assert all(not long[k] for k in range(4, 9))


def factor_offsets(lam, n):
    """The hit factor offsets k - lam_{n+1-k} for k = 1..n, lam padded with zeros to n parts."""
    lam = tuple(lam) + (0,) * (n - len(lam))
    return [k - lam[n - k] for k in range(1, n + 1)]


def hit_series(lam, n, trunc):
    """The hit number generating series mod t**trunc, every product by schoolbook."""
    rhs = [bracket_product_reference(j + e for e in factor_offsets(lam, n)) for j in range(trunc)]
    return series_mul_reference(pochhammer_reference(n + 1, trunc), tuple(rhs))


def _core_series_reference(gamma, n, trunc):
    rows = tuple(bracket_product_reference([j + a for a in mset(gamma)]) for j in range(trunc))
    return series_mul_reference(pochhammer_reference(n + 1, trunc), rows)


@settings(deadline=None)
@given(st.integers(0, 9), st.data())
def test_pochhammer_products_match_schoolbook(n, data):
    """q_pochhammer, core_series and q_hits against schoolbook products with (t;q)."""
    below, above = st.integers(0, n), st.integers(n + 2, n + 4)
    trunc = data.draw(st.one_of(st.just(0), st.just(n + 1), above, below), label="trunc")
    assert q_pochhammer(n, trunc) == pochhammer_reference(n, trunc)
    gamma = tuple(data.draw(st.lists(st.integers(0, 2), max_size=3), label="gamma"))
    assert core_series(gamma, n, trunc) == _core_series_reference(gamma, n, trunc)
    if n:
        # clamped to the staircase, parts often reach it, and then hit offsets are 0
        parts = sorted(data.draw(st.lists(st.integers(0, n), min_size=n, max_size=n)), reverse=True)
        lam = tuple(min(x, n - k) for k, x in enumerate(parts))
        offsets = factor_offsets(lam, n)
        rows = tuple(bracket_product_reference([j + e for e in offsets]) for j in range(n + 1))
        want = series_mul_reference(pochhammer_reference(n + 1, n + 1), rows)
        assert q_hits(lam, n) == want


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 10), st.data())
def test_core_series_matches_schoolbook_up_to_n_balls(n, data):
    """Up to n balls on up to n sites and trunc up to n + 3: bounds past 2**31 take the 8-byte stride."""
    balls = data.draw(st.integers(0, n), label="balls")
    sites = data.draw(st.lists(st.integers(1, n), min_size=balls, max_size=balls), label="ball sites")
    gamma = tuple(sites.count(s) for s in range(1, max(sites, default=0) + 1))
    trunc = data.draw(st.integers(0, n + 3), label="trunc")
    assert core_series(gamma, n, trunc) == _core_series_reference(gamma, n, trunc)


@pytest.mark.parametrize(
    "gamma, n, trunc, width",
    [((1, 2, 1, 0, 0, 1, 2), 7, 8, 4), ((2, 2, 4, 1, 0, 1), 10, 3, 8)],
)
def test_core_series_either_side_of_the_word_stride(gamma, n, trunc, width):
    # the bound comb(n + 1, (n + 1) // 2) * sum of the row sizes' products sits
    # just below 2**31 in the first case and just above it in the second
    sizes = mset(gamma)
    bound = comb(n + 1, (n + 1) // 2) * sum(prod(j + a for a in sizes) for j in range(trunc))
    assert abs(bound - 2**31) < 2**31 // 1000
    assert _stride(bound) == width
    assert core_series(gamma, n, trunc) == _core_series_reference(gamma, n, trunc)


@pytest.mark.parametrize(
    "gamma, n, trunc",
    [((1, 2), -3, 2), ((1, 2), -1, 2), ((1, -2), 3, 2), ((1, 2), 3, -2)],
)
def test_core_series_rejects_negative_arguments(gamma, n, trunc):
    with pytest.raises(ValueError):
        core_series(gamma, n, trunc)


def _staircase_partitions(n):
    def rec(k, bound):
        if k == n:
            yield ()
            return
        for v in range(min(bound, n - k), -1, -1):
            for rest in rec(k + 1, v):
                yield (v,) + rest

    yield from rec(0, n)


def test_q_hit_counts_permutations_at_one():
    for n in range(1, 6):
        for lam in _staircase_partitions(n):
            counts = [0] * (n + 1)
            for sigma in permutations(range(1, n + 1)):
                counts[sum(1 for k in range(n) if sigma[k] <= lam[k])] += 1
            assert [p.evaluate(1) for p in q_hits(lam, n)] == counts


def test_hit_series_stops_at_degree_n():
    for n in range(1, 6):
        for lam in _staircase_partitions(n):
            long = hit_series(lam, n, n + 3)
            assert long[: n + 1] == q_hits(lam, n)
            assert not long[n + 1] and not long[n + 2]


def test_hit_offsets_form_an_interval():
    # hit_to_connected reads the offsets' counts from min to max as a core
    # with no hole: every offset is >= 0, the first <= 1, and each at most 1
    # above the one before, so the values fill an interval from 0 or 1
    for n in range(1, 8):
        for lam in _staircase_partitions(n):
            offsets = factor_offsets(lam, n)
            assert min(offsets) in (0, 1), lam
            assert set(offsets) == set(range(min(offsets), max(offsets) + 1)), lam


def test_hit_to_connected_examples():
    assert hit_to_connected((), 3, 0) == ((1, 1, 1), 0)
    gamma, shift = hit_to_connected((2, 1), 3, 1)
    assert a_connected(gamma, shift) == q_hits((2, 1), 3)[1]
    with pytest.raises(
        ValueError, match=re.escape("hit count 0 of (1,) has no matching placement")
    ):
        hit_to_connected((1,), 1, 0)
    with pytest.raises(
        ValueError, match=re.escape("hit count 2 of (0, 0) has no matching placement")
    ):
        hit_to_connected((), 2, 2)


def test_hit_to_connected_exhaustive_small():
    for n in range(1, 5):
        for lam in _staircase_partitions(n):
            for i, hit in enumerate(q_hits(lam, n)):
                if not hit:
                    msg = f"hit count {i} of {lam} has no matching placement"
                    with pytest.raises(ValueError, match=re.escape(msg)):
                        hit_to_connected(lam, n, i)
                else:
                    gamma, shift = hit_to_connected(lam, n, i)
                    assert sum(gamma) == n
                    assert 0 <= shift <= n - len(gamma)


# ------------------------------------------------------------ carlitz scoville


def test_cs_examples():
    assert carlitz_scoville_q(0, 0, 2, 3) == ONE
    assert carlitz_scoville_q(1, 1, 1, 1).coeffs == (0, 2, 2)
    assert cs_configuration(1, 1, 1, 1).c == (0, 3, 0)
    assert cs_configuration(2, 1, 2, 3).c == (0, 0, 1, 1, 4, 1, 0)
    for f in (carlitz_scoville_q, cs_configuration):
        for args in [(-1, 0, 1, 1), (0, -1, 1, 1), (-1, 0, 0, 1)]:
            with pytest.raises(ValueError, match=re.escape("r and s must be nonnegative")):
                f(*args)
        for args in [(0, 0, 0, 1), (0, 0, 1, 0)]:
            with pytest.raises(ValueError, match=re.escape("x and y must be positive")):
                f(*args)


def test_cs_matches_configuration_polynomial():
    for r in range(3):
        for s in range(3):
            for x in (1, 2):
                for y in (1, 2):
                    lhs = remixed_induction(cs_configuration(r, s, x, y))
                    want = bracket_product_reference(range(1, x + y), carlitz_scoville_q(r, s, x, y))
                    assert lhs == want


def test_cs_q_recurrence():
    for x in (1, 2, 3):
        for y in (1, 2, 3):
            for r in (1, 2, 3):
                for s in (1, 2, 3):
                    lhs = carlitz_scoville_q(r, s, x, y)
                    left = poly_product(q_int(s + x), carlitz_scoville_q(r - 1, s, x, y))
                    right = poly_product(q_int(r + y), carlitz_scoville_q(r, s - 1, x, y))
                    rhs = left.shift(r + y - 1) + right
                    assert lhs == rhs


def test_cs_q_recurrence_exponent_is_sharp():
    # one power of q higher already breaks the smallest case
    left = poly_product(q_int(2), carlitz_scoville_q(0, 1, 1, 1))
    right = poly_product(q_int(2), carlitz_scoville_q(1, 0, 1, 1))
    wrong = left.shift(2) + right
    assert wrong != carlitz_scoville_q(1, 1, 1, 1)


def test_cs_generating_series():
    for x in (1, 2):
        for y in (1, 2):
            for total in range(4):
                trunc = total + 1
                lhs = tuple(carlitz_scoville_q(i, total - i, x, y) for i in range(trunc))
                rhs_coeffs = tuple(
                    bracket_product_reference([j + y] * total, q_binomial(j + x + y - 1, j))
                    for j in range(trunc)
                )
                rhs = series_mul_reference(q_pochhammer(total + x + y, trunc), rhs_coeffs)
                assert lhs == rhs


# ------------------------------------------------------------------- dispatch


def test_dispatch_method_selection():
    cases = {
        (3, 0, 0, 2, 0): "lukasiewicz",
        (0, 3, 0, 2, 0): "almost_lukasiewicz",
        (0, 1, 2, 2, 0): "connected",
        (0, 2, 1, 0, 3, 0): "one_hole",
        (0, 0, 5, 0, 0, 1): "weakly_lukasiewicz",
        (1, 0, 2, 0, 2): "induction",
    }
    for ct, method in cases.items():
        rep = dispatch(Configuration(ct))
        assert rep.method == method
        assert rep.poly == remixed_exact(Configuration(ct))
        if method == "induction":
            assert rep.pretty is None
        else:
            assert rep.pretty
    assert dispatch(Configuration((2, 0))).poly == ONE
    # dispatch tries the routes in the order ROUTES lists them
    precedence = ["lukasiewicz", "almost_lukasiewicz", "connected", "one_hole", "weakly_lukasiewicz"]
    assert list(formulas.ROUTES) == precedence


def test_dispatch_pretty_strings():
    assert dispatch(Configuration((3, 0, 0, 2, 0))).pretty == "[4]^2"
    assert (
        dispatch(Configuration((0, 3, 0, 2, 0))).pretty == "[2]^3 [4]^2 - [6] [3]^2"
    )
    assert (
        dispatch(Configuration((0, 2, 1, 0, 3, 0))).pretty
        == "[2]^2 [3] [5]^3 - [7] [2] [4]^3 - q qbin(7,3) [2]^2"
    )
    assert (
        dispatch(Configuration((0, 1, 2, 2, 0))).pretty
        == "[2] [3]^2 [4]^2 - [6] [2]^2 [3]^2"
    )
    assert (
        dispatch(Configuration((0, 0, 5, 0, 0, 1))).pretty
        == "[3]^5 [6] - [7] [2]^5 [5] + q qbin(7,2) [4]"
    )


_terms = st.lists(
    st.builds(
        formulas._Term,
        st.sampled_from([1, -1]),
        st.integers(0, 6),
        st.lists(st.integers(0, 5), max_size=4).map(tuple),
        st.lists(st.tuples(st.integers(0, 7), st.integers(-1, 8)), max_size=2).map(tuple),
    ),
    max_size=6,
)


@given(_terms)
@settings(max_examples=200, deadline=None)
def test_assemble_matches_term_by_term_sum(terms):
    # the reference: each term as a QPoly, shifted, signed and added
    want = ZERO
    for t in terms:
        base = poly_product(*(q_binomial(*b) for b in t.binoms))
        p = bracket_product_reference(t.brackets, base).shift(t.qexp)
        want = want + (p if t.sign > 0 else negate(p))
    assert formulas._assemble(terms) == want


def test_dispatch_renders_lazily(monkeypatch):
    def refuse(terms):
        raise RuntimeError("rendered")

    monkeypatch.setattr(formulas, "_render", refuse)
    methods = set()
    routes = [(3, 0, 0, 2, 0), (0, 3, 0, 2, 0), (0, 1, 2, 2, 0), (0, 2, 1, 0, 3, 0), (0, 0, 5, 0, 0, 1)]
    for ct in routes:
        rep = dispatch(Configuration(ct))
        methods.add(rep.method)
        assert rep.poly == remixed_induction(Configuration(ct))
        with pytest.raises(RuntimeError, match="rendered"):
            rep.pretty
    assert methods == set(formulas.ROUTES)


def test_dispatch_finds_the_core_once(monkeypatch):
    configs = [c for n in range(1, 8) for c in all_configurations(n)]
    calls = []

    def counted(c):
        calls.append(c)
        return core(c)

    # every module of the package that holds config.core under that name
    for name, module in list(sys.modules.items()):
        if (name == "remixed" or name.startswith("remixed.")) and getattr(module, "core", None) is core:
            monkeypatch.setattr(module, "core", counted)
    assert config.core is counted
    for c in configs:
        dispatch(c)
    assert len(calls) == len(configs)


@pytest.mark.parametrize(
    "formula, method",
    [
        (a_lukasiewicz, "lukasiewicz"),
        (a_almost_lukasiewicz, "almost_lukasiewicz"),
        (a_one_hole, "one_hole"),
        (a_connected, "connected"),
        (a_weakly_lukasiewicz, "weakly_lukasiewicz"),
    ],
)
def test_a_formulas_agree_with_routes(formula, method):
    applies, build = formulas.ROUTES[method]
    outside = {
        "lukasiewicz": "{} has a negative height",
        "almost_lukasiewicz": "{} does not have exactly one negative height",
        "one_hole": "core of {} does not have exactly one hole",
        "connected": "core of {} has a hole",
        "weakly_lukasiewicz": "{} is not weakly placed",
    }[method]

    def call(c):
        # the formulas of a core at a shift take the core and shift of c
        if formula in (a_connected, a_weakly_lukasiewicz):
            dec = core(c)
            return formula(dec.gamma, dec.left_zeros)
        return formula(c)

    for n in range(1, 8):
        for c in all_configurations(n):
            flags = classify(c)
            if applies(flags):
                assert call(c) == formulas.sum_terms(build(c, flags), c.c)
            else:
                with pytest.raises(ValueError, match=re.escape(outside.format(c.c))):
                    call(c)


@given(st.integers(1, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_dispatch_always_agrees_with_recursion(n, data):
    c = data.draw(st.sampled_from(list(all_configurations(n))))
    assert dispatch(c).poly == remixed_induction(c)


def test_routes_agree_with_the_oracle_walk_at_integer_points():
    # [n]! P(success) at q0, from the drop walk at a rational point and
    # brackets summed in integers, reads no base-x digits; the exact routes
    # all read theirs, so a digit misread there fails here.  The recursion's
    # own value at q0 reads none either, so its weights are checked apart
    # from any read-back
    rng = random.Random(30)
    cfgs = [c for n in range(1, 7) for c in all_configurations(n)]
    for n in (12, 20):
        for _ in range(20):
            bars = sorted(rng.sample(range(2 * n - 1), n - 1))
            parts = tuple(b - a - 1 for a, b in zip([-1, *bars], [*bars, 2 * n - 1]))
            cfgs.append(Configuration(parts))
    for c in cfgs:
        q0 = rng.randrange(2, 2**61)
        fact = prod((q0**k - 1) // (q0 - 1) for k in range(1, c.n + 1))
        want = success_probability(c, Fraction(q0)) * fact
        assert want.denominator == 1, c.c
        assert dispatch(c).poly.evaluate(q0) == want, c.c
        assert remixed_induction(c).evaluate(q0) == want, c.c
        assert engine._induction(c.c, q0) == want, c.c


def _clear_recursion_memos():
    for memo in (engine._induction, engine._wt, engine._qbin):
        memo.cache_clear()


def test_a_planted_q_binomial_reaches_the_formulas_but_not_the_recursion(monkeypatch):
    # one wrong coefficient in the q-binomial kernel's memo: the formulas
    # that read qbin(7, 2) go wrong, while the recursion builds its own
    # q-binomials at x and must still agree with the oracle
    good = q_binomial(7, 2).coeffs
    monkeypatch.setitem(qcalc._QBIN_CACHE, (7, 2), QPoly((*good[:3], good[3] + 1, *good[4:])))
    _clear_recursion_memos()
    try:
        for c in all_configurations(7):
            assert remixed_induction(c) == remixed_exact(c), c.c
        failed = 0
        for c in all_configurations(6):
            try:
                failed += dispatch(c).poly != remixed_exact(c)
            except InvariantViolation:
                failed += 1
        assert failed
    finally:
        _clear_recursion_memos()
