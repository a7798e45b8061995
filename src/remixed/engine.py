"""Two independent exact evaluators for the configuration polynomials.

The oracle follows the drop dynamics definition: balls fall one by one,
and a ball that lands on an occupied site jumps to the nearest hole at
distance a on the left, with weight q^a [b]/[a+b], or at distance b on
the right, with weight [a]/[a+b].  One drop step, _drop, is the only place
a ball moves.  It finds the two holes by bit scans of the occupancy
mask, and each mask carries a mass: the weights at q = u/v are integers
over one scale, so the success probability at a rational point is exact
integer mass over a power of that scale.  A_c(q) = [n]! P(success) has
nonnegative integer coefficients summing to A_c(1) <= n!, so its value at
the one point x = qcalc.kronecker_point(n!) holds every coefficient as a
base-x digit: remixed_exact walks its drop order once, at x, and reads the
polynomial back by qcalc.kronecker_read.  A walk meets few of the bounce
pairs, so the weights of a pair are built when it is first met, and the
weights at x are kept per n for the life of the process by
_oracle_weights.  The second evaluator runs the final ball recursion with
memoization and never touches probabilities.  Agreement of the two is the
backbone of the test suite.

The bulk sweep over all configurations on n sites runs the same drop step
on int64 lanes of residues modulo two primes p1, p2 below 2**28, one lane
per prime and per point q0 = 0..D, D = n(n-1)/2, and interpolates by a
Lagrange matrix mod p.  Only these array kernels import numpy, on their
first call, so the oracle and the recursion never load it.  Every lane is
reduced after each drop, so a product of two residues is below 2**56.  A
mask that a drop reaches gains one site, so it sums at most n products,
and a row of the interpolation matrix sums D + 1 of them: both stay below
2**63 for every n <= 16.  The coefficients of a configuration polynomial
are nonnegative and sum to at most n! < p1 * p2, so the Chinese remainder
theorem recovers them exactly, and a lifted coefficient or row sum above
n! is reported as an InvariantViolation.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
from typing import TYPE_CHECKING

from .config import Configuration, left_to_right_order
from .qcalc import (
    ONE,
    DegreeTooHigh,
    InvariantViolation,
    QPoly,
    ZERO,
    bracket_product,
    kronecker_point,
    kronecker_read,
    poly_sum,
    q_binomial,
    require_nonnegative,
)

if TYPE_CHECKING:
    import numpy as np

    # a mass: exact for the oracle, a lane of residues for the sweep
    Mass = int | np.ndarray

# exact_sweep works modulo these two primes, the largest two below 2**28.
_PRIMES = (268435399, 268435367)

# Largest number of sites exact_sweep accepts.  Its leaves take
# C(2n - 1, n) * 2(D + 1) int64 values, D = n(n-1)/2: 14 MB at n = 9,
# 68 MB at n = 10 and 316 MB at n = 11.
SWEEP_MAX_N = 10


class BadContent(ValueError):
    """A drop order whose multiset of sites does not match the configuration."""


def _brackets(n: int, u: int, v: int = 1) -> list[int]:
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


class _Weights(dict):
    """Bounce weights on n sites at one point q = u/v, as integers over one scale.

    The scale is L = lcm(B_1..B_n) (see _brackets).  A ball bounced off an
    occupied site goes to the nearest hole a sites to its left or b sites
    to its right, and the pair number of the bounce is a * (n + 1) + b.  The
    weights are built by pair number on first lookup, because one walk
    meets few of the pairs: self[pair] is the left weight
    u^a B_b L / B_(a+b) and the right weight v^b B_a L / B_(a+b).  They are
    q^a [b]/[a+b] and [a]/[a+b] times L, and they sum to L since
    u^a B_b + v^b B_a = B_(a+b).
    """

    def __init__(self, n: int, q0: Fraction | int) -> None:
        super().__init__()
        q0 = Fraction(q0)
        if q0 < 0:
            raise ValueError("q must be nonnegative")
        self.n = n
        self.u, self.v = q0.numerator, q0.denominator
        self.brackets = _brackets(n, self.u, self.v)
        self.scale = lcm(*self.brackets[1:])
        # the product B_1 ... B_n is [n]!(q0) at an integer point q0
        self.fact = prod(self.brackets[1:])

    def __missing__(self, pair: int) -> tuple[int, int]:
        a, b = divmod(pair, self.n + 1)
        br = self.brackets
        unit = self.scale // br[a + b]
        weights = self[pair] = self.u**a * br[b] * unit, self.v**b * br[a] * unit
        return weights


@lru_cache(maxsize=None)
def _oracle_weights(n: int) -> _Weights:
    """The weights on n sites at x = kronecker_point(n!), one instance per n for remixed_exact."""
    return _Weights(n, kronecker_point(factorial(n)))


def _drop(
    dist: dict[int, Mass],
    s: int,
    n: int,
    weights: Mapping[int, tuple[Mass, Mass]],
    scale: Mass,
) -> dict[int, Mass]:
    """Drop one ball at site s onto every occupancy mask in dist.

    Each mask carries its mass: a Python integer for the exact walks, an
    int64 array of residues, one lane per prime and point, for the sweep.
    weights maps a pair number (see _Weights) to its left and right
    weights, and scale is the weights' scale.  A ball on a free site
    multiplies the mass by the scale, a bounce by the weight of its
    branch, and a branch that would land off the line is lost mass.  The
    only arithmetic is mass * scale, mass * weight and the sum of the
    masses that reach one mask, so the caller decides when to reduce.
    """
    bit = 1 << (s - 1)
    out: dict[int, Mass] = {}

    def put(mask: int, mass: Mass) -> None:
        got = out.get(mask)
        out[mask] = mass if got is None else got + mass

    for mask, mass in dist.items():
        if not mask & bit:
            put(mask | bit, mass * scale)
            continue
        # bit j - 1 is site j; left holds the free sites below s, right those
        # above it, where every site past n reads free, so a = s or
        # b = n + 1 - s when that side has no hole on the line
        left = ~mask & (bit - 1)
        right = ~mask >> s
        a = s - left.bit_length()
        b = (right & -right).bit_length()
        lw, rw = weights[a * (n + 1) + b]
        if left:
            put(mask | bit >> a, mass * lw)
        if s + b <= n:
            put(mask | bit << b, mass * rw)
    return out


def _success_for_order(n: int, order: tuple[int, ...], weights: _Weights) -> int:
    """Chance that dropping balls at the given sites fills [1, n], at the weights' point.

    Returned unreduced, as the integer mass of the full state over
    weights.scale**n.
    """
    dist = {0: 1}
    for s in order:
        dist = _drop(dist, s, n, weights, weights.scale)
    return dist.get((1 << n) - 1, 0)


def _probability(n: int, order: tuple[int, ...], q0: Fraction) -> Fraction:
    """_success_for_order at the point q0, as a fraction."""
    weights = _Weights(n, q0)
    return Fraction(_success_for_order(n, order, weights), weights.scale**n)


def success_probability(c: Configuration, q0: Fraction) -> Fraction:
    """Chance that the drop dynamics ends with every site holding one ball.

    >>> success_probability(Configuration((2, 0)), Fraction(1))
    Fraction(1, 2)
    """
    return _probability(c.n, left_to_right_order(c), q0)


def remixed_exact(c: Configuration) -> QPoly:
    """The configuration polynomial via the probability definition.

    Evaluates bracket factorial times success probability at the one point
    x = kronecker_point(n!) and reads the coefficients off its base-x
    digits.  The value must be an integer of degree at most n(n-1)/2 whose
    digits are nonnegative and sum to at most n!; anything else is an
    internal defect.
    """
    n = c.n
    weights = _oracle_weights(n)
    mass = _success_for_order(n, left_to_right_order(c), weights)
    value, rest = divmod(weights.fact * mass, weights.scale**n)
    if rest:
        raise InvariantViolation(f"non-integer value for {c.c}")
    bound, big_d = factorial(n), n * (n - 1) // 2
    try:
        poly = kronecker_read(value, bound, big_d + 1)
    except DegreeTooHigh:
        raise InvariantViolation(f"value of degree above {big_d} for {c.c}") from None
    if sum(poly.coeffs) > bound:
        raise InvariantViolation(f"coefficients of {c.c} outside [0, {bound}]")
    return require_nonnegative(poly, c.c)


def drop_order_check(c: Configuration, order: tuple[int, ...], q0: Fraction) -> Fraction:
    """Success probability under an arbitrary drop order of the same balls.

    Raises BadContent when order is not a rearrangement of the start sites.
    """
    order = tuple(order)
    if tuple(sorted(order)) != left_to_right_order(c):
        raise BadContent(f"order {order} does not have content {c.c}")
    return _probability(c.n, order, q0)


@lru_cache(maxsize=None)
def _wt(n: int, j: int, u: int) -> QPoly:
    """Weight of the last ball, from start site u to landing site j.

    Memoised: there are at most n**3 distinct arguments for n sites, and the
    recursion asks for each of them many times.
    """
    if j >= u:
        return bracket_product((u,), q_binomial(n, j))
    return poly_sum([(1, u - j, (q_binomial(n, j - 1),), (n + 1 - u,))])


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
    splits = []
    pref = 0
    for j in range(1, n + 1):
        if d[j - 1] == 0 and pref == j - 1:
            left = _induction(tuple(d[: j - 1]))
            right = _induction(tuple(d[j:]))
            splits.append((1, 0, (_wt(n, j, u), left, right), ()))
        pref += d[j - 1]
    return poly_sum(splits)


def remixed_induction(c: Configuration) -> QPoly:
    """The configuration polynomial via the last ball recursion.

    The ball at the largest occupied site is dropped last.  With it
    removed, each site j that is empty and has exactly j-1 of the other
    balls starting to its left splits the dynamics into independent left
    and right halves; the split is weighted by the landing distribution of
    that last ball.  Results are memoized on the sub-tuple.
    """
    return _induction(c.c)


def _lane_weights(
    n: int,
) -> tuple[dict[int, tuple[np.ndarray, np.ndarray]], np.ndarray, np.ndarray, np.ndarray]:
    """The weights at every lane of the sweep, as residues of one _Weights per point q0.

    Lane k * (D + 1) + q0, with D = n(n-1)/2, holds values at q = q0 modulo
    _PRIMES[k].  Returns the left and right weight lanes by pair number
    (see _Weights), the scales, [n]!(q0) * scale**-n, which turns the
    mass of a full state into [n]!(q0) times its success chance, and the
    modulus of each lane.
    """
    import numpy as np

    points = [_Weights(n, q0) for q0 in range(n * (n - 1) // 2 + 1)]

    def residues(values: Sequence[int]) -> np.ndarray:
        return np.array([[v % p for v in values] for p in _PRIMES], np.int64).ravel()

    pairs = {
        pair: tuple(map(residues, zip(*(w[pair] for w in points))))
        for pair in (a * (n + 1) + b for a in range(1, n) for b in range(1, n - a + 1))
    }
    unit = np.array([[w.fact * pow(w.scale, -n, p) % p for w in points] for p in _PRIMES], np.int64).ravel()
    mod = np.repeat(np.array(_PRIMES, np.int64), len(points))
    return pairs, residues([w.scale for w in points]), unit, mod


def _sweep_residues(n: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """[n]!(q0) times the success chance, mod p, for every configuration and lane.

    One walk of the tree of left to right drop orders: a configuration's
    order extends the order of every configuration it contains at its
    lowest sites, so those share the drops of the common prefix.  Returns
    the configurations and an int64 array of shape (count, 2, D + 1),
    indexed by configuration, prime and q0.
    """
    import numpy as np

    weights, scale, unit, mod = _lane_weights(n)
    keys: list[tuple[int, ...]] = []
    leaves = np.empty((comb(2 * n - 1, n), mod.size), np.int64)
    full = (1 << n) - 1
    counts = [0] * (n + 1)

    def rec(min_site: int, k: int, dist: dict[int, np.ndarray]) -> None:
        if k == n:
            if full in dist:
                leaves[len(keys)] = dist[full]
                keys.append(tuple(counts[1:]))
            return
        for s in range(min_site, n + 1):
            nd = _drop(dist, s, n, weights, scale)
            if nd:
                for lane in nd.values():
                    lane %= mod
                counts[s] += 1
                rec(s, k + 1, nd)
                counts[s] -= 1

    rec(1, 0, {0: np.ones(mod.size, np.int64)})
    # every configuration has a positive success chance at q = 1
    if len(keys) != len(leaves):
        raise InvariantViolation(f"{len(leaves) - len(keys)} configurations never filled the line")
    leaves *= unit
    leaves %= mod
    return keys, leaves.reshape(len(keys), len(_PRIMES), -1)


@lru_cache(maxsize=None)
def _interp_matrix(big_d: int) -> np.ndarray:
    """The linear map from values at q = 0..D to coefficients, mod each prime.

    Entry [k, j, i] is the coefficient of q**i in the Lagrange basis
    polynomial of the node j, prod over m != j of (q - m) / (j - m), mod
    _PRIMES[k].  Its numerator is prod over m of (q - m), divided
    synthetically by q - j, and its denominator is (-1)**(D - j) j! (D - j)!,
    which no prime above D divides.
    """
    import numpy as np

    out = np.empty((len(_PRIMES), big_d + 1, big_d + 1), np.int64)
    for k, p in enumerate(_PRIMES):
        full = [1]
        for m in range(big_d + 1):
            full = [(lo - m * hi) % p for lo, hi in zip([0, *full], [*full, 0])]
        for j in range(big_d + 1):
            inv = pow((-1) ** (big_d - j) * factorial(j) * factorial(big_d - j), -1, p)
            acc = 0
            for i in range(big_d, -1, -1):
                acc = (full[i + 1] + j * acc) % p
                out[k, j, i] = acc * inv % p
    out.setflags(write=False)
    return out


def _interpolate_mod(vals: np.ndarray) -> np.ndarray:
    """Coefficient residues of the polynomials through vals[..., q0] at q = q0.

    vals has shape (rows, 2, D + 1), residues mod _PRIMES along the middle
    axis.  Each product in the matrix product with _interp_matrix is below
    2**56 and each sum of D + 1 of them below 2**63 for D + 1 <= 128, which
    covers every n <= 16.
    """
    import numpy as np

    out = np.empty_like(vals)
    for k, (p, m) in enumerate(zip(_PRIMES, _interp_matrix(vals.shape[-1] - 1))):
        out[:, k] = vals[:, k] @ m % p
    return out


def _crt(res: np.ndarray) -> np.ndarray:
    """The integers in [0, p1 * p2) with residues res[:, 0] mod p1 and res[:, 1] mod p2."""
    p1, p2 = _PRIMES
    c1, c2 = res[:, 0], res[:, 1]
    return c1 + p1 * ((c2 - c1) % p2 * pow(p1, -1, p2) % p2)


def exact_sweep(n: int) -> dict[tuple[int, ...], QPoly]:
    """remixed_exact for every configuration on n sites, as one table.

    The drop step of remixed_exact runs along every left to right order
    at once, and at every evaluation point at once.  Configurations sharing
    a prefix of that order share the drops of the prefix (_sweep_residues),
    and each reachable occupancy mask carries one int64 vector with a lane
    per prime p in _PRIMES and per q0 = 0..D, D = n(n-1)/2, holding its
    probability mass at q0 mod p.  The drop step is _drop itself: the lanes
    are reduced after every drop, so they stay below p < 2**28, a product
    of two is below 2**56 and the at most n products that reach one mask
    sum to below 2**63.  The leaves are interpolated mod each prime
    (_interpolate_mod) and lifted by the Chinese remainder theorem into
    [0, p1 * p2).

    The true coefficients are nonnegative and sum to n! * P(success at
    q = 1) <= n! < p1 * p2, so the lift is exact.  A lifted coefficient or
    row sum above n! means the residues disagree with the theory and
    raises InvariantViolation; a wrong residue slips through only by
    landing in [0, n!], a chance of about n! / (p1 * p2) per coefficient,
    5e-11 at n = 10.

    Raises ValueError for n above SWEEP_MAX_N: the leaves alone take
    C(2n - 1, n) * 2(D + 1) int64 values, 68 MB at n = 10.
    """
    if n < 1:
        raise ValueError("need at least one site")
    if n > SWEEP_MAX_N:
        raise ValueError(f"exact_sweep takes at most {SWEEP_MAX_N} sites, got {n}")
    keys, res = _sweep_residues(n)
    coeffs = _crt(_interpolate_mod(res))
    bound = factorial(n)
    # a row sum can wrap around only when some coefficient is already out of range
    bad = (coeffs.max(axis=1) > bound) | (coeffs.sum(axis=1) > bound)
    if bad.any():
        ct = keys[int(bad.argmax())]
        raise InvariantViolation(f"coefficients of {ct} outside [0, {bound}]")
    return {
        ct: require_nonnegative(QPoly(tuple(row.tolist())), ct) for ct, row in zip(keys, coeffs)
    }
