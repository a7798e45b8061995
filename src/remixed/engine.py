"""Two independent exact evaluators for the configuration polynomials.

The oracle follows the drop dynamics definition: balls fall one by one,
and a ball that lands on an occupied site jumps to the nearest hole at
distance a on the left, with weight q^a [b]/[a+b], or at distance b on
the right, with weight [a]/[a+b].  One drop step is the only place a ball
moves.  It reads the bounce geometry from a table built once per number
of sites, and the weights at q = u/v as integers over one common scale,
so the success probability at a rational point is exact integer mass over
a power of that scale.  The polynomial is lifted from its integer values
at q = 0..n(n-1)/2 by qcalc.interpolate.  The second evaluator runs the
final ball recursion with memoization and never touches probabilities.
Agreement of the two is the backbone of the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

from .config import Configuration, all_configurations, left_to_right_order
from .qcalc import (
    ONE,
    QPoly,
    QRat,
    ZERO,
    NonIntegerCoefficients,
    bracket_product,
    interpolate,
    q_binomial,
    require_nonnegative,
)


class BadContent(ValueError):
    """A drop order whose multiset of sites does not match the configuration."""


@lru_cache(maxsize=None)
def _bounce_table(n: int) -> tuple[tuple[int, int, int] | None, ...]:
    """Bounce geometry on n sites, indexed by mask * n + site - 1.

    A free site has no entry: the ball settles there.  An occupied site
    holds (left, right, pair): the masks after landing in the nearest hole
    to the left and to the right, -1 where that hole is off the line, and
    the pair number a * (n + 1) + b of the distances a, b to those holes.
    The table has n * 2**n slots, the order of the states a sweep visits.
    """
    tab: list[tuple[int, int, int] | None] = [None] * (n << n)
    # one int object per landing mask, shared by every entry that lands there
    ids = list(range(1 << n))
    for mask in range(1 << n):
        for s in range(1, n + 1):
            if not mask >> (s - 1) & 1:
                continue
            a = 1
            while s - a >= 1 and mask >> (s - a - 1) & 1:
                a += 1
            b = 1
            while s + b <= n and mask >> (s + b - 1) & 1:
                b += 1
            lt = ids[mask | 1 << (s - a - 1)] if s - a >= 1 else -1
            rt = ids[mask | 1 << (s + b - 1)] if s + b <= n else -1
            tab[mask * n + s - 1] = (lt, rt, a * (n + 1) + b)
    return tuple(tab)


def _brackets(n: int, u: int, v: int = 1) -> list[int]:
    """B_k = sum of u^i v^(k-1-i) over i < k, for k = 0..n.

    B_k is v^(k-1) [k] at q = u/v; at v = 1 it is the bracket [k](u).
    """
    return [sum(u**i * v ** (k - 1 - i) for i in range(k)) for k in range(n + 1)]


def _weights(n: int, u: int, v: int) -> tuple[int, list[int], list[int]]:
    """Bounce weights at q = u/v as integers over one scale L.

    Returns L = lcm(B_1..B_n) and the left and right weights by pair
    number: u^a B_b L / B_(a+b) and v^b B_a L / B_(a+b).  They are the
    weights q^a [b]/[a+b] and [a]/[a+b] times L, and they sum to L since
    u^a B_b + v^b B_a = B_(a+b).
    """
    br = _brackets(n, u, v)
    scale = lcm(*br[1:])
    lw = [0] * ((n + 1) * (n + 2))
    rw = [0] * ((n + 1) * (n + 2))
    for a in range(1, n):
        for b in range(1, n - a + 1):
            unit = scale // br[a + b]
            lw[a * (n + 1) + b] = u**a * br[b] * unit
            rw[a * (n + 1) + b] = v**b * br[a] * unit
    return scale, lw, rw


def _drop(
    dist: dict[int, int], s: int, n: int, weights: tuple[int, list[int], list[int]]
) -> dict[int, int]:
    """Drop one ball at site s onto every occupancy mask in dist.

    Mass is an integer: each drop multiplies the total by the scale of the
    weights, and a branch that would land off the line is lost mass.
    """
    scale, lw, rw = weights
    tab = _bounce_table(n)
    bit = 1 << (s - 1)
    out: dict[int, int] = {}
    for mask, w in dist.items():
        if not mask & bit:
            out[mask | bit] = out.get(mask | bit, 0) + w * scale
            continue
        lt, rt, pair = tab[mask * n + s - 1]
        if lt >= 0:
            wl = w * lw[pair]
            if wl:
                out[lt] = out.get(lt, 0) + wl
        if rt >= 0:
            out[rt] = out.get(rt, 0) + w * rw[pair]
    return out


def _success_for_order(n: int, order: tuple[int, ...], q0: QRat) -> tuple[int, int]:
    """Chance that dropping balls at the given sites fills [1, n].

    Returned unreduced, as the integer mass of the full state over L**n.
    """
    q0 = Fraction(q0)
    if q0 < 0:
        raise ValueError("q must be nonnegative")
    weights = _weights(n, q0.numerator, q0.denominator)
    dist = {0: 1}
    for s in order:
        dist = _drop(dist, s, n, weights)
    return dist.get((1 << n) - 1, 0), weights[0] ** n


def _integer_value(factv: int, mass: int, scale_n: int, q0: int) -> int:
    """[n]!(q0) times the success chance mass / scale_n, an integer at integer q0."""
    num = factv * mass
    if num % scale_n:
        raise NonIntegerCoefficients(f"non-integer value at q={q0}")
    return num // scale_n


def success_probability(c: Configuration, q0: QRat) -> QRat:
    """Chance that the drop dynamics ends with every site holding one ball.

    >>> success_probability(Configuration((2, 0)), Fraction(1))
    Fraction(1, 2)
    """
    return Fraction(*_success_for_order(c.n, left_to_right_order(c), q0))


def remixed_exact(c: Configuration) -> QPoly:
    """The configuration polynomial via the probability definition.

    Evaluates bracket factorial times success probability at the integer
    points 0..n(n-1)/2 and interpolates.  The result must have nonnegative
    integer coefficients; anything else is an internal defect.
    """
    n = c.n
    order = left_to_right_order(c)
    vals = []
    for q0 in range(n * (n - 1) // 2 + 1):
        mass, scale_n = _success_for_order(n, order, q0)
        vals.append(_integer_value(prod(_brackets(n, q0)[1:]), mass, scale_n, q0))
    return require_nonnegative(interpolate(vals), c.c)


def drop_order_check(c: Configuration, order: tuple[int, ...], q0: QRat) -> QRat:
    """Success probability under an arbitrary drop order of the same balls.

    Raises BadContent when order is not a rearrangement of the start sites.
    """
    order = tuple(order)
    if tuple(sorted(order)) != left_to_right_order(c):
        raise BadContent(f"order {order} does not have content {c.c}")
    return Fraction(*_success_for_order(c.n, order, q0))


def _wt(n: int, j: int, u: int) -> QPoly:
    """Weight of the last ball, from start site u to landing site j."""
    if j >= u:
        return bracket_product((u,), q_binomial(n, j))
    return bracket_product((n + 1 - u,), q_binomial(n, j - 1)).shift(u - j)


@lru_cache(maxsize=None)
def _induction(ct: tuple[int, ...]) -> QPoly:
    n = len(ct)
    if sum(ct) != n:
        return ZERO
    if n == 0:
        return ONE
    u = max(i for i, x in enumerate(ct, start=1) if x > 0)
    d = list(ct)
    d[u - 1] -= 1
    total = ZERO
    pref = 0
    for j in range(1, n + 1):
        if d[j - 1] == 0 and pref == j - 1:
            left = _induction(tuple(d[: j - 1]))
            right = _induction(tuple(d[j:]))
            if left and right:
                total = total + _wt(n, j, u) * left * right
        pref += d[j - 1]
    return total


def remixed_induction(c: Configuration) -> QPoly:
    """The configuration polynomial via the last ball recursion.

    The ball at the largest occupied site is dropped last.  With it
    removed, each site j that is empty and has exactly j-1 of the other
    balls starting to its left splits the dynamics into independent left
    and right halves; the split is weighted by the landing distribution of
    that last ball.  Results are memoized on the sub-tuple.
    """
    return _induction(c.c)


def exact_sweep(n: int) -> dict[tuple[int, ...], QPoly]:
    """remixed_exact for every configuration on n sites, as one table.

    The drop step of remixed_exact runs along every left to right order
    at once: configurations sharing a prefix of that order share the drops
    of the prefix, which makes the exhaustive sweep itself feasible.  At
    each q0 = 0..n(n-1)/2 mass is an integer over L**n, with L the common
    scale of the bounce weights at q0 (see _weights).
    """
    if n < 1:
        raise ValueError("need at least one site")
    big_d = n * (n - 1) // 2
    values = {cfg.c: [0] * (big_d + 1) for cfg in all_configurations(n)}
    full = (1 << n) - 1
    counts = [0] * (n + 1)
    for q0 in range(big_d + 1):
        weights = _weights(n, q0, 1)
        scale_n = weights[0] ** n
        factv = prod(_brackets(n, q0)[1:])

        def rec(min_site: int, k: int, dist: dict[int, int]) -> None:
            if k == n:
                if full in dist:
                    values[tuple(counts[1:])][q0] = _integer_value(factv, dist[full], scale_n, q0)
                return
            for s in range(min_site, n + 1):
                nd = _drop(dist, s, n, weights)
                if nd:
                    counts[s] += 1
                    rec(s, k + 1, nd)
                    counts[s] -= 1

        rec(1, 0, {0: 1})

    return {ct: require_nonnegative(interpolate(vals), ct) for ct, vals in values.items()}
