"""Exact polynomial and series arithmetic over the integers.

Polynomials in q have integer coefficients stored densely, lowest degree
first.  Truncated power series in t carry polynomial-in-q coefficients and
an explicit truncation order.  Rational scalars are exact fractions; no
floating point enters any computation here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator, Sequence

QRat = Fraction


class NotDivisible(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


class DegreeTooHigh(ValueError):
    """Raised when a reversal window is smaller than the degree."""


class NonIntegerCoefficients(ValueError):
    """Raised when interpolation does not land in integer coefficients."""


class TruncationTooShort(ValueError):
    """Raised when a series comparison asks for more terms than are known."""


@dataclass(frozen=True)
class QPoly:
    """Dense integer polynomial in q, coefficients lowest degree first.

    The zero polynomial is the empty tuple and its degree is None, kept as
    a sentinel rather than any numeric stand-in.

    >>> p = QPoly((1, 1)) * QPoly((1, 1, 1))
    >>> p.coeffs
    (1, 2, 2, 1)
    >>> p.evaluate(Fraction(2))
    Fraction(21, 1)
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        cs = tuple(self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        if any(not isinstance(c, int) for c in cs):
            raise TypeError("coefficients must be int")
        object.__setattr__(self, "coeffs", cs)

    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: QPoly) -> QPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(tuple(out))

    def __neg__(self) -> QPoly:
        return QPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: QPoly) -> QPoly:
        return self + (-other)

    def __mul__(self, other: QPoly | int) -> QPoly:
        if isinstance(other, int):
            return QPoly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return QPoly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> QPoly:
        if e < 0:
            raise ValueError("negative exponent")
        out = ONE
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def shift(self, k: int) -> QPoly:
        """Multiply by q**k.  k must be nonnegative."""
        if k < 0:
            raise ValueError("negative shift")
        if not self.coeffs:
            return self
        return QPoly((0,) * k + self.coeffs)

    def evaluate(self, q0: QRat) -> QRat:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def to_json(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> QPoly:
        return cls(tuple(int(c) for c in data["coeffs"]))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                var = "q" if i == 1 else f"q^{i}"
                if c > 0:
                    parts.append(f"+ {mag}{var}" if parts else f"{mag}{var}")
                else:
                    parts.append(f"- {mag}{var}" if parts else f"-{mag}{var}")
        return " ".join(parts)


ZERO = QPoly()
ONE = QPoly((1,))


def q_monomial(k: int, c: int = 1) -> QPoly:
    """The polynomial c * q**k."""
    return QPoly((0,) * k + (c,))


def q_int(i: int) -> QPoly:
    """Bracket of i: 1 + q + ... + q**(i-1).  Empty for i = 0.

    >>> q_int(4).coeffs
    (1, 1, 1, 1)
    """
    if i < 0:
        raise ValueError("bracket of a negative integer")
    return QPoly((1,) * i)


def q_factorial(n: int) -> QPoly:
    """Product of brackets [1][2]...[n].

    >>> q_factorial(3).coeffs
    (1, 2, 2, 1)
    """
    if n < 0:
        raise ValueError("factorial of a negative integer")
    out = ONE
    for i in range(1, n + 1):
        out = out * q_int(i)
    return out


_QBIN_CACHE: dict[tuple[int, int], QPoly] = {}


def q_binomial(n: int, k: int) -> QPoly:
    """Gaussian binomial coefficient.  Zero when k is out of [0, n].

    Built incrementally along a row, dividing exactly at each step.

    >>> q_binomial(4, 2).coeffs
    (1, 1, 2, 1, 1)
    >>> q_binomial(5, 7).is_zero()
    True
    """
    if n < 0:
        raise ValueError("negative row index")
    if k < 0 or k > n:
        return ZERO
    k = min(k, n - k)
    key = (n, k)
    got = _QBIN_CACHE.get(key)
    if got is not None:
        return got
    out = ONE
    for j in range(1, k + 1):
        out = poly_divexact(out * q_int(n - j + 1), q_int(j))
    _QBIN_CACHE[key] = out
    return out


def poly_divexact(a: QPoly, b: QPoly) -> QPoly:
    """Quotient a / b when it is exact over the integers.

    Raises NotDivisible if the division leaves a remainder or needs
    non-integer coefficients; ZeroDivisionError for a zero divisor.

    >>> poly_divexact(q_factorial(3), q_int(2)).coeffs
    (1, 1, 1)
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return ZERO
    da, db = len(a.coeffs) - 1, len(b.coeffs) - 1
    if da < db:
        raise NotDivisible(f"degree {da} < degree {db}")
    lead = b.coeffs[-1]
    rem = list(a.coeffs)
    quot = [0] * (da - db + 1)
    for i in range(da - db, -1, -1):
        top = rem[i + db]
        if top % lead != 0:
            raise NotDivisible("leading coefficient does not divide")
        c = top // lead
        quot[i] = c
        if c:
            for j, cb in enumerate(b.coeffs):
                rem[i + j] -= c * cb
    if any(rem[:db]):
        raise NotDivisible("nonzero remainder")
    return QPoly(tuple(quot))


def poly_reverse(a: QPoly, d: int) -> QPoly:
    """Coefficient reversal in a window of degree d.

    Sends sum c_i q**i to sum c_i q**(d-i).  Raises DegreeTooHigh when the
    degree of a exceeds d.
    """
    deg = a.degree()
    if deg is None:
        return ZERO
    if deg > d:
        raise DegreeTooHigh(f"degree {deg} exceeds window {d}")
    out = [0] * (d + 1)
    for i, c in enumerate(a.coeffs):
        out[d - i] = c
    return QPoly(tuple(out))


@lru_cache(maxsize=None)
def _falling_basis(big_d: int) -> tuple[tuple[int, ...], ...]:
    """(D!/j!) x(x-1)...(x-j+1) for j = 0..D, coefficients lowest first."""
    out = []
    ff = [1]
    for j in range(big_d + 1):
        m = factorial(big_d) // factorial(j)
        out.append(tuple(m * co for co in ff))
        nxt = [0] * (len(ff) + 1)
        for i, co in enumerate(ff):
            nxt[i] -= j * co
            nxt[i + 1] += co
        ff = nxt
    return tuple(out)


def interpolate(vals: Sequence[int]) -> QPoly:
    """The polynomial of degree at most D through (i, vals[i]), i = 0..D.

    Newton forward differences on the falling factorial basis, scaled by
    D! so that all arithmetic stays in the integers; the basis is built
    once per D.  Raises NonIntegerCoefficients when the result does not
    have integer coefficients.

    >>> interpolate([1, 3, 7]).coeffs
    (1, 1, 1)
    """
    if not vals:
        raise ValueError("no interpolation points")
    big_d = len(vals) - 1
    den = factorial(big_d)
    acc = [0] * (big_d + 1)
    row = list(vals)
    for ff in _falling_basis(big_d):
        if row[0]:
            for i, co in enumerate(ff):
                acc[i] += row[0] * co
        row = [y - x for x, y in zip(row, row[1:])]
    out = []
    for co in acc:
        if co % den:
            raise NonIntegerCoefficients(f"coefficient {co}/{den} is not an integer")
        out.append(co // den)
    return QPoly(tuple(out))


@dataclass(frozen=True)
class TSeries:
    """Power series in t known modulo t**trunc, coefficients in QPoly."""

    trunc: int
    tcoeffs: tuple[QPoly, ...]

    def __post_init__(self) -> None:
        if self.trunc < 0:
            raise ValueError("negative truncation")
        if len(self.tcoeffs) != self.trunc:
            raise ValueError("coefficient count must equal trunc")

    @classmethod
    def of(cls, coeffs: Iterable[QPoly], trunc: int) -> TSeries:
        cs = list(coeffs)[:trunc]
        cs.extend([ZERO] * (trunc - len(cs)))
        return cls(trunc, tuple(cs))

    def tcoeff(self, i: int) -> QPoly:
        if i >= self.trunc:
            raise TruncationTooShort(f"coefficient {i} beyond trunc {self.trunc}")
        return self.tcoeffs[i]

    def __add__(self, other: TSeries) -> TSeries:
        k = min(self.trunc, other.trunc)
        return TSeries(k, tuple(self.tcoeffs[i] + other.tcoeffs[i] for i in range(k)))

    def __sub__(self, other: TSeries) -> TSeries:
        k = min(self.trunc, other.trunc)
        return TSeries(k, tuple(self.tcoeffs[i] - other.tcoeffs[i] for i in range(k)))

    def scale(self, p: QPoly) -> TSeries:
        return TSeries(self.trunc, tuple(c * p for c in self.tcoeffs))

    def t_shift(self, k: int) -> TSeries:
        """Multiply by t**k, keeping the same truncation."""
        if k < 0:
            raise ValueError("negative shift")
        cs = (ZERO,) * k + self.tcoeffs
        return TSeries(self.trunc, cs[: self.trunc])

    def to_json(self) -> dict:
        return {"trunc": self.trunc, "tcoeffs": [c.to_json() for c in self.tcoeffs]}

    @classmethod
    def from_json(cls, data: dict) -> TSeries:
        return cls(int(data["trunc"]), tuple(QPoly.from_json(c) for c in data["tcoeffs"]))


def series_mul(a: TSeries, b: TSeries) -> TSeries:
    """Product truncated to the shorter of the two truncations."""
    k = min(a.trunc, b.trunc)
    out = [ZERO] * k
    for i in range(k):
        ai = a.tcoeffs[i]
        if ai.is_zero():
            continue
        for j in range(k - i):
            bj = b.tcoeffs[j]
            if not bj.is_zero():
                out[i + j] = out[i + j] + ai * bj
    return TSeries(k, tuple(out))


def series_equal_mod(a: TSeries, b: TSeries, k: int) -> bool:
    """Whether a and b agree on all t-coefficients below t**k.

    Raises TruncationTooShort when either operand is not known that far.
    """
    if k > a.trunc or k > b.trunc:
        raise TruncationTooShort(f"need {k} coefficients, have {a.trunc} and {b.trunc}")
    return all(a.tcoeffs[i] == b.tcoeffs[i] for i in range(k))


def q_pochhammer(n: int, trunc: int) -> TSeries:
    """Product of (1 - t q**i) for i in [0, n), modulo t**trunc.

    >>> [c.coeffs for c in q_pochhammer(2, 3).tcoeffs]
    [(1,), (-1, -1), (0, 1)]
    """
    if n < 0:
        raise ValueError("negative factor count")
    out = TSeries.of([ONE], trunc)
    for i in range(n):
        out = series_mul(out, TSeries.of([ONE, q_monomial(i, -1)], trunc))
    return out
