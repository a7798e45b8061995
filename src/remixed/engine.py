"""Two independent exact evaluators for the configuration polynomials.

The oracle follows the drop dynamics definition: balls fall one by one,
and a ball that lands on an occupied site jumps to the nearest hole at
distance a on the left, with weight q^a [b]/[a+b], or at distance b on
the right, with weight [a]/[a+b].  One drop step, _drop, is the only place
a ball moves.  It finds the two holes by bit scans of the occupancy mask,
and each mask carries an integer mass.  At q = u/v the two weights are
u^a B_b / B_(a+b) and v^b B_a / B_(a+b), with B_k = v^(k-1) [k] (see
_point), so a step returns integer masses over its own denominator, the
lcm of the B_(a+b) it meets.  The success chance of a walk is the mass of
the full state over the product of its steps' denominators, exactly.

A_c(q) = [n]! P(success) has nonnegative integer coefficients summing to
A_c(1) <= n!, so its value at the one point x = qcalc.kronecker_point(n!)
holds every coefficient as a base-x digit.  _walk drops the balls of a
stream of drop orders, sharing the drops of common prefixes: remixed_exact
walks its one order at x, and exact_sweep every nondecreasing order.  Both
turn a full state into its value by _value, which checks that the value
is an integer, and read it through _lift, which checks that it has degree
at most n(n-1)/2 and digits that are nonnegative and sum to at most n!,
and reads the digits back by qcalc.kronecker_read.  exact_sweep also
checks that the values of its table sum to Cat_n [n]!(x), the sum of the
A_c over all c being Cat_n [n]!.
success_probability and drop_order_check walk one order at a rational
point.  The second evaluator runs the final ball recursion at the same x,
one memoized integer per node, and reads its value through _lift; it never
touches probabilities.  Agreement of the two is the test suite's backbone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial, lcm, prod
from typing import Iterable, Iterator

from .config import Configuration, left_to_right_order
from .qcalc import (
    DegreeTooHigh,
    InvariantViolation,
    QPoly,
    kronecker_point,
    kronecker_read,
    kronecker_value,
    q_binomial,
    require_nonnegative,
)

# B_k, u^k and v^k for k = 0..n at one point q = u/v (see _point)
Point = tuple[list[int], list[int], list[int]]

# Largest number of sites exact_sweep accepts.  The table it returns holds
# C(2n - 1, n) polynomials of up to n(n-1)/2 + 1 coefficients, and a fresh
# process running it peaks at 41 MB at n = 9, 143 MB at n = 10 and 630 MB
# at n = 11, where it also takes about 17 s.
SWEEP_MAX_N = 10


class BadContent(ValueError):
    """A drop order whose multiset of sites does not match the configuration."""


def _brackets(n: int, u: int, v: int) -> list[int]:
    """B_k = sum of u^i v^(k-1-i) over i < k, for k = 0..n.

    B_k is v^(k-1) [k] at q = u/v; at v = 1 it is the bracket [k](u).
    Built by B_(k+1) = u B_k + v^k.
    """
    out = [0]
    vk = 1
    for _ in range(n):
        out.append(u * out[-1] + vk)
        vk *= v
    return out


def _point(n: int, q0: Fraction | int) -> Point:
    """B_k, u^k and v^k for k = 0..n at q0 = u/v: what a drop step on n sites needs."""
    q0 = Fraction(q0)
    if q0 < 0:
        raise ValueError("q must be nonnegative")
    u, v = q0.numerator, q0.denominator
    return _brackets(n, u, v), [u**k for k in range(n + 1)], [v**k for k in range(n + 1)]


def _drop(dist: dict[int, int], s: int, n: int, point: Point) -> tuple[dict[int, int], int]:
    """Drop one ball at site s onto every occupancy mask in dist.

    Each mask carries an integer mass, all over one denominator.  Returns
    the masses after the drop and the step's denominator den, the lcm of
    B_(a+b) over the bounces of the step, 1 when no ball bounces: the new
    masses are over the old denominator times den.  A ball on a free site
    multiplies its mass by den; a ball bounced to the holes a sites to its
    left and b sites to its right sends mass * den / B_(a+b) times
    u^a B_b to the left and times v^b B_a to the right, and a branch that
    would land off the line is lost mass.
    """
    brackets, ups, vps = point
    bit = 1 << (s - 1)
    # a free site keeps the mask distinct, so those masses go straight to out
    out: dict[int, int] = {}
    bounces = []
    for mask, mass in dist.items():
        if not mask & bit:
            out[mask | bit] = mass
            continue
        # bit j - 1 is site j; left holds the free sites below s, right those
        # above it, where every site past n reads free, so a = s or
        # b = n + 1 - s when that side has no hole on the line
        left = ~mask & (bit - 1)
        right = ~mask >> s
        a = s - left.bit_length()
        b = (right & -right).bit_length()
        bounces.append((mask, mass, a, b))
    den = lcm(*{brackets[a + b] for _, _, a, b in bounces})
    if den != 1:
        for mask in out:
            out[mask] *= den
    for mask, mass, a, b in bounces:
        unit = mass * (den // brackets[a + b])
        if a < s:
            to = mask | bit >> a
            out[to] = out.get(to, 0) + unit * ups[a] * brackets[b]
        if s + b <= n:
            to = mask | bit << b
            out[to] = out.get(to, 0) + unit * vps[b] * brackets[a]
    return out, den


def _walk(n: int, point: Point, words: Iterable[tuple[int, ...]]) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """(word, mass, den) for each word of a stream of drop orders of n balls on n sites.

    mass / den is the chance, at the point, that dropping balls at the
    word's sites fills [1, n], unreduced: the mass of the full state and
    the product of the steps' denominators.  A stack of (masses, den) after
    each drop is cut back to the prefix a word shares with the one before,
    so a lexicographic stream drops each prefix once.
    """
    full = (1 << n) - 1
    stack = [({0: 1}, 1)]
    prev: tuple[int, ...] = ()
    for word in words:
        k = 0
        while k < len(prev) and prev[k] == word[k]:
            k += 1
        del stack[k + 1 :]
        dist, den = stack[-1]
        for s in word[k:]:
            dist, step = _drop(dist, s, n, point)
            den *= step
            stack.append((dist, den))
        yield word, dist.get(full, 0), den
        prev = word


def _probability(n: int, order: tuple[int, ...], q0: Fraction) -> Fraction:
    """The chance that dropping balls at the sites of order fills [1, n], at q0."""
    ((_, mass, den),) = _walk(n, _point(n, q0), [order])
    return Fraction(mass, den)


def success_probability(c: Configuration, q0: Fraction) -> Fraction:
    """Chance that the drop dynamics ends with every site holding one ball.

    >>> success_probability(Configuration((2, 0)), Fraction(1))
    Fraction(1, 2)
    """
    return _probability(c.n, left_to_right_order(c), q0)


def _value(ct: tuple[int, ...], mass: int, den: int, fact: int) -> int:
    """fact * mass / den, the value of A_c at x = kronecker_point(n!).

    mass and den are a full state's mass and denominator at x, and fact is
    [n]!(x).  A value that is not an integer is an internal defect.
    """
    value, rest = divmod(fact * mass, den)
    if rest:
        raise InvariantViolation(f"non-integer value for {ct}")
    return value


def _lift(ct: tuple[int, ...], value: int) -> QPoly:
    """A_c read off value, its value at x = kronecker_point(n!).

    The value must have degree at most n(n-1)/2 and digits that are
    nonnegative and sum to at most n!; anything else is an internal defect.
    """
    n = len(ct)
    bound, big_d = factorial(n), n * (n - 1) // 2
    try:
        poly = kronecker_read(value, bound, big_d + 1)
    except DegreeTooHigh:
        raise InvariantViolation(f"value of degree above {big_d} for {ct}") from None
    if sum(poly.coeffs) > bound:
        raise InvariantViolation(f"coefficients of {ct} outside [0, {bound}]")
    return require_nonnegative(poly, ct)


def remixed_exact(c: Configuration) -> QPoly:
    """The configuration polynomial via the probability definition.

    Evaluates bracket factorial times success probability at the one point
    x = kronecker_point(n!) and reads the coefficients off its base-x
    digits (_lift).
    """
    point = _point(c.n, kronecker_point(factorial(c.n)))
    ((_, mass, den),) = _walk(c.n, point, [left_to_right_order(c)])
    return _lift(c.c, _value(c.c, mass, den, prod(point[0][1:])))


def drop_order_check(c: Configuration, order: tuple[int, ...], q0: Fraction) -> Fraction:
    """Success probability under an arbitrary drop order of the same balls.

    Raises BadContent when order is not a rearrangement of the start sites.
    """
    order = tuple(order)
    if tuple(sorted(order)) != left_to_right_order(c):
        raise BadContent(f"order {order} does not have content {c.c}")
    return _probability(c.n, order, q0)


@lru_cache(maxsize=None)
def _wt(n: int, j: int, u: int, x: int) -> int:
    """Weight of the last ball from start site u to landing site j, memoised per point x.

    [u] qbin(n, j) for j >= u, else q**(u - j) [n + 1 - u] qbin(n, j - 1).
    """
    k, size, shift = (j, u, 0) if j >= u else (j - 1, n + 1 - u, u - j)
    return x**shift * kronecker_value((1,) * size, x) * kronecker_value(q_binomial(n, k).coeffs, x)


@lru_cache(maxsize=None)
def _induction(ct: tuple[int, ...], x: int) -> int:
    n = len(ct)
    if sum(ct) != n:
        return 0
    if n == 0:
        return 1
    u = max(i for i, k in enumerate(ct, start=1) if k > 0)
    d = list(ct)
    d[u - 1] -= 1
    total = pref = 0
    for j in range(1, n + 1):
        if d[j - 1] == 0 and pref == j - 1:
            # both halves before the weight, so a recursion too deep fails before any weight
            left = _induction(tuple(d[: j - 1]), x)
            right = _induction(tuple(d[j:]), x)
            total += left * right * _wt(n, j, u, x)
        pref += d[j - 1]
    return total


def remixed_induction(c: Configuration) -> QPoly:
    """The configuration polynomial via the last ball recursion.

    The ball at the largest occupied site is dropped last.  With it removed,
    each empty site j with exactly j-1 of the other balls to its left splits
    the dynamics into independent halves, weighted by where the last ball
    lands.  Each node is one integer, its value at the oracle's point x,
    memoized on the sub-tuple and x; _lift reads the result.
    """
    return _lift(c.c, _induction(c.c, kronecker_point(factorial(c.n))))


def exact_sweep(n: int) -> dict[tuple[int, ...], QPoly]:
    """remixed_exact for every configuration on n sites, as one table.

    One _walk of the nondecreasing drop orders in lexicographic order, at
    the oracle's point x: the order of a configuration extends the order
    of every configuration it contains at its lowest sites, so those share
    the drops of the common prefix.  Each leaf is read by _lift, with
    [n]!(x) computed once for the table.  The values read must sum to
    Cat_n [n]!(x), which catches an error in one leaf's mass that leaves
    its digits plausible.

    Raises ValueError for n above SWEEP_MAX_N.
    """
    if n < 1:
        raise ValueError("need at least one site")
    if n > SWEEP_MAX_N:
        raise ValueError(f"exact_sweep takes at most {SWEEP_MAX_N} sites, got {n}")
    point = _point(n, kronecker_point(factorial(n)))
    fact = prod(point[0][1:])
    table: dict[tuple[int, ...], QPoly] = {}
    total = 0
    for word, mass, den in _walk(n, point, combinations_with_replacement(range(1, n + 1), n)):
        if mass:
            counts = [0] * (n + 1)
            for s in word:
                counts[s] += 1
            ct = tuple(counts[1:])
            value = _value(ct, mass, den, fact)
            total += value
            table[ct] = _lift(ct, value)
    # every configuration has a positive success chance at q = x
    missing = comb(2 * n - 1, n) - len(table)
    if missing:
        raise InvariantViolation(f"{missing} configurations never filled the line")
    if total != comb(2 * n, n) // (n + 1) * fact:
        raise InvariantViolation(f"the values of the table for n = {n} do not sum to Cat_{n} [{n}]!(x)")
    return table
