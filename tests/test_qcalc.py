import json
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from remixed import qcalc
from remixed.qcalc import (
    ONE,
    ZERO,
    DegreeTooHigh,
    InvariantViolation,
    QPoly,
    bracket_product,
    kronecker_point,
    kronecker_read,
    poly_reverse,
    poly_sum,
    q_binomial,
    q_factorial,
    q_int,
    q_pochhammer,
    require_nonnegative,
)
from remixed.qcalc import _stride
from series_reference import (
    bracket_product_reference,
    negate,
    pochhammer_reference,
    poly_product,
    q_binomial_reference,
    schoolbook,
)

small_polys = st.lists(st.integers(-20, 20), max_size=6).map(lambda cs: QPoly(tuple(cs)))


def times(*factors):
    """The product of the factors, as one term of poly_sum."""
    return poly_sum([(1, 0, factors, ())])


def test_normalization_strips_trailing_zeros():
    assert QPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert QPoly((0, 0)).coeffs == ()
    assert not QPoly(())


def test_zero_degree_is_sentinel():
    assert ZERO.degree() is None
    assert QPoly((0, 7)).degree() == 1


def test_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        QPoly((1.5,))
    with pytest.raises(TypeError):
        QPoly((Fraction(1, 2),))
    with pytest.raises(TypeError):
        QPoly((True, 2))


def test_ring_examples():
    assert times(q_int(2), ZERO) == ZERO
    assert times(q_int(2), q_int(2)) == QPoly((1, 2, 1))
    assert q_int(2) + negate(q_int(2)) == ZERO
    with pytest.raises(ValueError, match=re.escape("negative shift")):
        QPoly((1,)).shift(-1)


def test_q_int_values():
    assert q_int(0) == ZERO
    assert q_int(1) == ONE
    assert q_int(4).coeffs == (1, 1, 1, 1)
    with pytest.raises(ValueError, match=re.escape("bracket of a negative integer")):
        q_int(-1)


def test_q_factorial_values():
    assert q_factorial(0) == ONE
    assert q_factorial(2).coeffs == (1, 1)
    assert q_factorial(3).coeffs == (1, 2, 2, 1)
    with pytest.raises(ValueError, match=re.escape("factorial of a negative integer")):
        q_factorial(-1)


def test_q_binomial_values():
    assert q_binomial(6, 1) == q_int(6)
    assert q_binomial(4, 2).coeffs == (1, 1, 2, 1, 1)
    assert q_binomial(5, 7) == ZERO
    assert q_binomial(5, -1) == ZERO
    assert q_binomial(3, 0) == ONE
    assert q_binomial(3, 3) == ONE
    with pytest.raises(ValueError, match=re.escape("negative row index")):
        q_binomial(-1, 0)


@given(st.integers(0, 30), st.integers(0, 30))
def test_q_binomial_symmetry(n, k):
    assert q_binomial(n, k) == q_binomial(n, n - k) if k <= n else q_binomial(n, k) == ZERO


@given(st.integers(2, 30), st.data())
def test_q_binomial_pascal(n, data):
    k = data.draw(st.integers(1, n - 1))
    lhs = q_binomial(n, k)
    rhs = q_binomial(n - 1, k - 1) + q_binomial(n - 1, k).shift(k)
    assert lhs == rhs


@given(st.integers(0, 12), st.integers(0, 12))
def test_q_binomial_at_one_is_binomial(n, k):
    from math import comb

    assert q_binomial(n, k).evaluate(1) == comb(n, k)


def test_evaluate():
    assert QPoly((1, 1, 1)).evaluate(1) == 3
    assert QPoly((0, 0, 0, 1)).evaluate(Fraction(1, 2)) == Fraction(1, 8)
    assert ZERO.evaluate(7) == 0


def test_poly_reverse_examples():
    assert poly_reverse(QPoly((1, 2)), 1) == QPoly((2, 1))
    assert poly_reverse(QPoly((1, 2)), 3) == QPoly((0, 0, 2, 1))
    pal = QPoly((1, 3, 1))
    assert poly_reverse(pal, 2) == pal
    with pytest.raises(DegreeTooHigh):
        poly_reverse(QPoly((1, 2, 3)), 1)


@given(small_polys, st.integers(0, 9))
def test_poly_reverse_involution(a, d):
    deg = a.degree()
    if deg is not None and deg > d:
        return
    assert poly_reverse(poly_reverse(a, d), d) == a


@given(st.lists(st.integers(-(2**70), 2**70), max_size=6), st.integers(0, 2**80), st.integers(0, 2))
def test_kronecker_read_round_trip(cs, bound, extra):
    # bounds on both sides of the 8-byte word, so both read paths run
    bound = max([bound, *map(abs, cs)])
    p = QPoly(tuple(cs))
    x = kronecker_point(bound)
    value = sum(c * x**i for i, c in enumerate(p.coeffs))
    length = len(p.coeffs) + extra
    assert kronecker_read(value, bound, length) == p
    if p:
        # one digit short: the top coefficient does not fit
        with pytest.raises(DegreeTooHigh):
            kronecker_read(value, bound, len(p.coeffs) - 1)


def test_kronecker_read_round_trip_at_every_stride():
    # strides of 1, 2, 4 and 8 bytes on the word path, 9 to 13 bytes off it
    for bound in (1, 200, 2**16, 2**40, 2**63, 2**64, 2**70, 2**100):
        x = kronecker_point(bound)
        cs = (bound, 0, 1, bound // 3)
        assert kronecker_read(sum(c * x**i for i, c in enumerate(cs)), bound, len(cs)) == QPoly(cs)


def test_pochhammer_examples():
    assert q_pochhammer(1, 3) == (ONE, negate(ONE), ZERO)
    assert q_pochhammer(2, 3) == (ONE, QPoly((-1, -1)), QPoly((0, 1)))
    assert q_pochhammer(3, 1) == (ONE,)


@pytest.mark.parametrize("n, trunc", [(-1, 3), (3, -1)])
def test_pochhammer_rejects_negative_arguments(n, trunc):
    with pytest.raises(ValueError):
        q_pochhammer(n, trunc)


@pytest.mark.parametrize("n, width", [(33, 4), (34, 8)])
def test_pochhammer_either_side_of_the_word_stride(n, width):
    # comb(n, n // 2) bounds the coefficients: below 2**31 at n = 33, above it at n = 34
    assert _stride(comb(n, n // 2)) == width
    assert q_pochhammer(n, 5) == pochhammer_reference(n, 5)


@given(st.integers(0, 9), st.integers(1, 12))
def test_pochhammer_coefficients_are_signed_binomials(n, trunc):
    got = q_pochhammer(n, trunc)
    for j in range(trunc):
        want = q_binomial(n, j).shift(comb(j, 2))
        if j % 2:
            want = negate(want)
        assert got[j] == want


def test_qpoly_holds_no_instance_dict():
    # slots: a QPoly is its coefficient tuple and nothing more
    assert not hasattr(QPoly((1, 2)), "__dict__")
    assert not hasattr(QPoly._of_ints([3]), "__dict__")


def test_json_round_trip():
    p = QPoly((1, -2, 3))
    blob = json.dumps(p.to_json())
    assert json.loads(blob) == {"coeffs": ["1", "-2", "3"]}


@given(small_polys, small_polys, small_polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert times(a, b) == times(b, a)
    assert times(times(a, b), c) == times(a, b, c) == times(a, times(b, c))
    assert times(a, b + c) == times(a, b) + times(a, c)
    assert a + ZERO == a
    assert times(a, ONE) == a
    assert times(a, ZERO) == ZERO
    assert a + negate(a) == ZERO


@given(st.integers(1, 40))
def test_q_specializations_at_one(n):
    import math

    assert q_int(n).evaluate(1) == n
    if n <= 10:
        assert q_factorial(n).evaluate(1) == math.factorial(n)


# signed entries, many zeros, and entries beyond 64 bits
coefficients = st.one_of(
    st.just(0), st.integers(-50, 50), st.integers(-(2**40), 2**40), st.integers(-(2**90), 2**90)
)
# lengths from the empty polynomial up to 24 coefficients
lengths = st.integers(0, 24)


def coeff_lists(min_size):
    return lengths.flatmap(
        lambda n: st.lists(coefficients, min_size=max(n, min_size), max_size=max(n, min_size))
    )


@given(coeff_lists(min_size=1), coeff_lists(min_size=1))
def test_both_product_kernels_match_schoolbook(a, b):
    want = QPoly(schoolbook(a, b))
    assert poly_sum([(1, 0, (QPoly(tuple(a)), QPoly(tuple(b))), ())]) == want


def test_mul_examples_across_word_sizes():
    big = 2**64 + 1
    assert times(QPoly((big, -1)), QPoly((big, 1))) == QPoly((big * big, 0, -1))
    for top in (1, 2**7, 2**15, 2**31, 2**63, 2**64, 2**200):
        a = (top, 0, -top, 3) * 4
        b = (-1, top, 0) * 5
        assert poly_sum([(1, 0, (QPoly(a), QPoly(b)), ())]) == QPoly(schoolbook(a, b))


def poly_sum_reference(terms):
    """The sum of the terms of poly_sum, each built by schoolbook products."""
    total = ZERO
    for sign, shift, factors, sizes in terms:
        factors = [q_binomial_reference(*f) if isinstance(f, tuple) else f for f in factors]
        term = bracket_product_reference(sizes, poly_product(*factors)).shift(shift)
        total = total + (term if sign > 0 else negate(term))
    return total


# a factor is a QPoly or a pair (n, k) for qbin(n, k), k in range or not
poly_terms = st.tuples(
    st.sampled_from((1, -1)),
    st.integers(0, 5),
    st.lists(
        st.lists(coefficients, max_size=6).map(lambda cs: QPoly(tuple(cs)))
        | st.tuples(st.integers(0, 14), st.integers(-2, 16)),
        max_size=3,
    ),
    st.lists(st.integers(0, 6), max_size=4),
)


@given(st.lists(poly_terms, max_size=5))
def test_poly_sum_matches_schoolbook(terms):
    assert poly_sum(terms) == poly_sum_reference(terms)


def test_poly_sum_edges():
    # the stride holds the sum of the term bounds, not the largest of them
    big = QPoly((2**62,))
    assert poly_sum([(1, 0, (big,), ()), (1, 0, (big,), ())]) == QPoly((2**63,))
    assert poly_sum([(1, 1, (q_int(3),), (2,)), (-1, 1, (q_int(2),), (3,))]) == ZERO
    with pytest.raises(ValueError):
        poly_sum([(1, 0, (), (0, -1))])
    with pytest.raises(ValueError):
        poly_sum([(1, -1, (ONE,), ())])
    with pytest.raises(ValueError, match="negative row index"):
        poly_sum([(1, 0, ((-1, 0),), ())])
    # a sign is +1 or -1 and nothing else, also on a term that is skipped
    for sign in (2, 0, -3):
        with pytest.raises(ValueError):
            poly_sum([(sign, 0, (QPoly((100,)),), ())])
        with pytest.raises(ValueError):
            poly_sum([(1, 0, (QPoly((5,)),), ()), (sign, 0, (ZERO,), ())])


def test_poly_sum_takes_every_q_binomial_by_its_pair():
    # each pair (n, k) for 0 <= k <= n <= 14 beside its mirror (n, n - k),
    # with signs, shifts and brackets mixed in; a pair with k outside
    # [0, n] is a zero term and leaves the rest of the sum alone
    for n in range(15):
        for k in range(-2, n + 3):
            terms = [
                ((-1) ** (n + k), k % 3, ((n, k),), (n % 4 + 2, 3)),
                (-1, n % 2, ((n, n - k), QPoly((2, -1))), (k % 5,)),
                (1, 1, (), (4,)),
            ]
            assert poly_sum(terms) == poly_sum_reference(terms), (n, k)
            if not 0 <= k <= n:
                assert poly_sum(terms[:1]) == ZERO
                assert poly_sum(terms) == poly_sum_reference(terms[1:])


def test_a_q_binomial_value_is_never_served_stale(monkeypatch):
    # poly_sum keeps the value of qbin(7, 2) packed at the stride of this
    # sum; whatever an earlier test left there, a replaced entry and an
    # entry packed before the cache was cleared must not be read again
    terms = [(1, 2, ((7, 2),), (3,)), (-1, 0, ((7, 5), QPoly((1, 1))), ())]
    good = q_binomial(7, 2)
    want = poly_sum_reference(terms)
    wrong = QPoly((*good.coeffs[:3], good.coeffs[3] + 1, *good.coeffs[4:]))
    planted = [(s, e, [wrong if isinstance(f, tuple) else f for f in fs], a) for s, e, fs, a in terms]
    try:
        assert poly_sum(terms) == want
        monkeypatch.setitem(qcalc._QBIN_CACHE, (7, 2), wrong)
        assert poly_sum(terms) == poly_sum_reference(planted) != want
        qcalc._QBIN_CACHE.clear()
        assert poly_sum(terms) == want
        qcalc._QBIN_CACHE[7, 2] = wrong
        assert poly_sum(terms) == poly_sum_reference(planted)
    finally:
        monkeypatch.undo()
        qcalc._QBIN_CACHE.clear()
    assert poly_sum(terms) == want


@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_signed_read_back_at_the_digit_boundary(width):
    top = 2 ** (8 * width - 1) - 1
    # the largest digit a stride of width bytes holds, first, last and only
    cases = [
        [(sign, shift, (QPoly((top,)),), ())] for sign in (1, -1) for shift in (0, 1, 5)
    ]
    # half of it at each end, with either sign at either end
    half = top // 2
    for lo, hi in ((half, -half), (-half, half), (-half, -half), (half, half)):
        cases.append([(1, 0, (QPoly((lo, 0, 0, hi)),), ())])
    # a negative top digit under a borrow from every digit below it
    cases.append([(1, 0, (QPoly((-1,) * 6 + (-(top - 6),)),), ())])
    # both ends at the boundary, which takes the next word up
    cases.append([(1, 0, (QPoly((top,)),), ()), (-1, 4, (QPoly((top,)),), ())])
    cases.append([(-1, 0, (QPoly((top,)),), ()), (1, 4, (QPoly((top,)),), ())])
    for terms in cases:
        assert poly_sum(terms) == poly_sum_reference(terms)
    assert _stride(top) == width and _stride(top + 1) > width


@given(st.lists(st.integers(0, 12), max_size=8), small_polys)
def test_bracket_product_matches_repeated_brackets(sizes, p):
    assert bracket_product(sizes, p) == bracket_product_reference(sizes, p)
    assert bracket_product(sizes) == bracket_product(sizes, ONE)


def test_bracket_product_edge_sizes():
    p = QPoly((3, -1, 0, 2))
    assert bracket_product((2,), QPoly((1, -1))).coeffs == (1, 0, -1)
    assert bracket_product((4, 1, 6, 2), p) == bracket_product_reference((4, 6, 2), p)
    assert bracket_product((1,), p) == p
    assert bracket_product((0,), p) == ZERO
    assert bracket_product((), p) == p
    assert bracket_product((2, 0, 5)) == ZERO
    with pytest.raises(ValueError):
        bracket_product((3, -1))
    with pytest.raises(ValueError):
        bracket_product((0, -1))


def test_normalization_keeps_interior_zeros():
    assert QPoly((0, 1, 0, 0, 2, 0, 0)).coeffs == (0, 1, 0, 0, 2)
    assert QPoly([0] * 5) == ZERO
    with pytest.raises(TypeError):
        QPoly((1, 0.5, 0))


@pytest.mark.parametrize(
    "op",
    [
        lambda: QPoly((1, 1)) * Fraction(1, 2),
        lambda: Fraction(1, 2) * QPoly((1, 1)),
        lambda: QPoly((1,)) + 1,
        lambda: 1 + QPoly((1,)),
        lambda: QPoly((1,)) - 1,
        lambda: QPoly((1,)) * 1.5,
        lambda: QPoly((1,)) - QPoly((1,)),
    ],
)
def test_foreign_operands_raise_type_error(op):
    with pytest.raises(TypeError):
        op()


def test_require_nonnegative():
    p = QPoly((0, 2, 1))
    assert require_nonnegative(p, "p") is p
    assert require_nonnegative(ZERO, "zero") is ZERO
    with pytest.raises(InvariantViolation, match="negative coefficient for p"):
        require_nonnegative(QPoly((1, -1)), "p")
