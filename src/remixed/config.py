"""Ball configurations on a line of sites and their combinatorics.

A configuration places c_i balls on site i with as many balls as sites in
total.  This module owns parsing, the height profile, the left to right
ball order, core extraction, reversal, and classification into the
families with closed formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .qcalc import InvariantViolation


class BadSum(ValueError):
    """Ball count does not match the number of sites."""


class Negative(ValueError):
    """A site holds a negative number of balls."""


class Empty(ValueError):
    """No sites at all."""


class NoWeaklyShift(ValueError):
    """No placement of the core satisfies the weak order condition."""


@dataclass(frozen=True)
class Configuration:
    """Tuple c with c_i balls on site i and sum(c) == len(c)."""

    c: tuple[int, ...]

    def __post_init__(self) -> None:
        c = tuple(self.c)
        if not c:
            raise Empty("a configuration needs at least one site")
        if not set(map(type, c)) <= {int}:
            raise TypeError(f"entries must be int, got {c}")
        if min(c) < 0:
            raise Negative(f"negative entry in {c}")
        if sum(c) != len(c):
            raise BadSum(f"{sum(c)} balls on {len(c)} sites")
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return len(self.c)

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.c) + ")"


@dataclass(frozen=True)
class CoreDecomposition:
    """Configuration as left zeros, then a core with nonzero ends, then zeros."""

    left_zeros: int
    gamma: tuple[int, ...]


@dataclass(frozen=True)
class ConfigFlags:
    """Family membership for one configuration."""

    is_lukasiewicz: bool
    almost_defect: int | None
    is_connected: bool
    is_one_hole: bool
    is_weakly_lukasiewicz: bool

    def to_json(self) -> dict:
        return {
            "lukasiewicz": self.is_lukasiewicz,
            "almost_defect": self.almost_defect,
            "connected": self.is_connected,
            "one_hole": self.is_one_hole,
            "weakly_lukasiewicz": self.is_weakly_lukasiewicz,
        }


def parse_config(text: str) -> Configuration:
    """Parse a comma separated list of ball counts.

    >>> parse_config("0,3,0,2,0").c
    (0, 3, 0, 2, 0)
    """
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        raise Empty("empty configuration text")
    try:
        vals = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"not a list of integers: {text!r}") from exc
    return Configuration(vals)


def heights(c: Configuration) -> tuple[int, ...]:
    """Partial sums of c_i - 1.  The last entry is always zero.

    >>> heights(Configuration((0, 3, 0, 2, 0)))
    (-1, 1, 0, 1, 0)
    """
    return tuple(accumulate(x - 1 for x in c.c))


def mset(tup: tuple[int, ...]) -> list[int]:
    """Site indices of tup with multiplicity: i repeated tup[i-1] times."""
    return [i for i, x in enumerate(tup, start=1) for _ in range(x)]


def left_to_right_order(c: Configuration) -> tuple[int, ...]:
    """Ball start sites listed from the left, with multiplicity.

    >>> left_to_right_order(Configuration((0, 3, 0, 2, 0)))
    (2, 2, 2, 4, 4)
    """
    return tuple(mset(c.c))


def core(c: Configuration) -> CoreDecomposition:
    """Strip outer zeros.

    >>> core(Configuration((0, 0, 4, 0, 1, 2, 0)))
    CoreDecomposition(left_zeros=2, gamma=(4, 0, 1, 2))
    """
    lo = 0
    while c.c[lo] == 0:
        lo += 1
    hi = len(c.c)
    while c.c[hi - 1] == 0:
        hi -= 1
    return CoreDecomposition(lo, c.c[lo:hi])


def reverse(c: Configuration) -> Configuration:
    """Mirror image of the configuration."""
    return Configuration(c.c[::-1])


def _weak_bound(gamma: tuple[int, ...], n: int) -> int:
    """Largest shift i at which gamma after i zeros on n sites is weakly placed.

    The weak family asks u_j <= max(u_{j-1} + 1, j) for every j >= 2, where
    u lists the ball start sites from the left.  A step with
    u_j <= u_{j-1} + 1 passes at every shift; the ball numbered balls + 1
    that first starts past a hole, at core site a, passes shifted by i
    exactly while i <= balls + 1 - a.  Negative when no shift passes.
    """
    best, balls, prev = n - len(gamma), 0, gamma[0]
    for a, x in enumerate(gamma, start=1):
        if x and not prev:
            best = min(best, balls + 1 - a)
        balls, prev = balls + x, x
    return best


def classify(c: Configuration) -> ConfigFlags:
    """Family flags for c.

    One walk over the heights finds where they dip below zero, which
    decides the first two families; the core decides connectivity and one
    hole, and its shift decides the weak family: at most _weak_bound.

    >>> classify(Configuration((1, 0, 3, 0, 1))).almost_defect
    2
    """
    dip, depth, h = None, 0, 0
    for j, x in enumerate(c.c, start=1):
        h += x - 1
        if h < 0:
            if dip is not None:
                dip = 0  # a second dip: neither family
                break
            dip, depth = j, h
    if dip:
        if depth != -1:
            raise InvariantViolation("a lone dip below zero can only reach -1")
        if c.c[dip - 1] != 0:
            raise InvariantViolation("the defect site cannot hold a ball")
    dec = core(c)
    holes = dec.gamma.count(0)
    return ConfigFlags(
        is_lukasiewicz=dip is None,
        almost_defect=dip or None,
        is_connected=holes == 0,
        is_one_hole=holes == 1,
        is_weakly_lukasiewicz=dec.left_zeros <= _weak_bound(dec.gamma, c.n),
    )


def shifted_config(gamma: tuple[int, ...], i: int, n: int) -> Configuration:
    """The configuration with i zeros, then gamma, then trailing zeros."""
    m = len(gamma)
    if i < 0 or i > n - m:
        raise ValueError(f"shift {i} outside [0, {n - m}]")
    return Configuration((0,) * i + gamma + (0,) * (n - m - i))


def _check_core(gamma: tuple[int, ...], n: int) -> None:
    if not gamma:
        raise Empty("empty core")
    if any(x < 0 for x in gamma):
        raise Negative(f"negative entry in {gamma}")
    if gamma[0] == 0 or gamma[-1] == 0:
        raise ValueError(f"core {gamma} must start and end with a ball")
    if sum(gamma) != n:
        raise BadSum(f"core holds {sum(gamma)} balls, configuration needs {n}")
    if len(gamma) > n:
        raise BadSum(f"core spans {len(gamma)} sites but only {n} exist")


def max_weakly_shift(gamma: tuple[int, ...], n: int) -> int:
    """Largest i such that the shift of gamma by i stays in the weak family.

    Shifting right can only break the condition, so membership holds for
    every shift up to the returned value.  Raises NoWeaklyShift when even
    the unshifted placement fails.
    """
    gamma = tuple(gamma)
    _check_core(gamma, n)
    best = _weak_bound(gamma, n)
    if best < 0:
        raise NoWeaklyShift(f"core {gamma} fails the weak condition at every shift")
    return best


def all_configurations(n: int):
    """Iterate every configuration with n sites, lexicographically."""

    def rec(prefix: list[int], remaining: int, sites: int):
        if sites == 1:
            yield tuple(prefix + [remaining])
            return
        for x in range(remaining + 1):
            yield from rec(prefix + [x], remaining - x, sites - 1)

    if n < 1:
        return
    for tup in rec([], n, n):
        yield Configuration(tup)
