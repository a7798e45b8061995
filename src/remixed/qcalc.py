"""Exact polynomial and series arithmetic over the integers.

Polynomials in q have integer coefficients stored densely, lowest degree
first.  A power series in t truncated at t**k is the tuple of its k
coefficients in QPoly, t**0 first.  Rational scalars are Fractions; no
floating point enters any computation here.

One kernel, poly_sum, carries nearly all of the package's arithmetic.  It
takes a signed sum of terms, each a power of q times polynomial factors
times q-integers [a] = 1 + q + ... + q**(a-1), and evaluates the whole sum
at one point x = 2**(8w) as one Python int (Kronecker substitution).  Each
factor is packed into an int at a stride of w bytes, a bracket [a] is the
shift-and-subtract (x**a - 1) over a division by x - 1 that is taken once
for the whole sum, and the digits of the result are read back by adding
a bias digit to each and XOR-ing it away again, which leaves every digit
in two's complement.  The stride holds a bound on every coefficient of
the sum, so the read-back is exact.  Packing and unpacking go through
signed machine-word arrays, so both are linear and run at C speed.
A product of two polynomials and a bracket product are one-term sums.

Truncated t-series are multiplied by the Pochhammer product (t;q)_n one
linear factor (1 - t q**i) at a time, in place on coefficient lists
(_times_pochhammer); that is the only t-series product the package takes.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb, factorial, prod
from operator import add, mul, neg, sub
from typing import Iterable, Sequence

class DegreeTooHigh(ValueError):
    """Raised when a reversal window is smaller than the degree."""


class NonIntegerCoefficients(ValueError):
    """Raised when interpolation does not land in integer coefficients."""


class InvariantViolation(RuntimeError):
    """An internal invariant failed: a defect in the package, not bad input.

    Raised in place of assert statements, so python -O keeps the checks.
    """


def require_nonnegative(p: QPoly, what: object) -> QPoly:
    """p itself; raises InvariantViolation if a coefficient is negative."""
    if min(p.coeffs, default=0) < 0:
        raise InvariantViolation(f"negative coefficient for {what}")
    return p


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
        if not set(map(type, cs)) <= {int}:
            raise TypeError("coefficients must be int")
        if cs and not cs[-1]:
            end = len(cs) - 1
            while end and not cs[end - 1]:
                end -= 1
            cs = cs[:end]
        object.__setattr__(self, "coeffs", cs)

    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: QPoly) -> QPoly:
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return QPoly((*map(add, a, b), *a[len(b) :]))

    def __neg__(self) -> QPoly:
        return QPoly(tuple(map(neg, self.coeffs)))

    def __sub__(self, other: QPoly) -> QPoly:
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) >= len(b):
            return QPoly((*map(sub, a, b), *a[len(b) :]))
        return QPoly((*map(sub, a, b), *map(neg, b[len(a) :])))

    def __mul__(self, other: QPoly | int) -> QPoly:
        if isinstance(other, QPoly):
            return poly_sum([(1, 0, (self, other), ())])
        if isinstance(other, int):
            return QPoly(tuple(map(mul, self.coeffs, repeat(other))))
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, k: int) -> QPoly:
        """Multiply by q**k.  k must be nonnegative."""
        if k < 0:
            raise ValueError("negative shift")
        if not self.coeffs:
            return self
        return QPoly((0,) * k + self.coeffs)

    def evaluate(self, q0: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def to_json(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs]}


ZERO = QPoly()
ONE = QPoly((1,))

# signed machine-word typecodes by byte width, to write and read two's complement digits
_WORDS = {array(code).itemsize: code for code in "bhiq"}
_ROUNDED = tuple(min(w for w in _WORDS if w >= k) for k in range(max(_WORDS) + 1))
_BIG_ENDIAN = sys.byteorder == "big"


def _stride(bound: int) -> int:
    """Bytes per digit that hold any signed coefficient of magnitude <= bound.

    At a stride of w bytes with 2**(8w - 1) > bound, the digits c + 2**(8w - 1)
    of a biased product lie in [1, 2**(8w) - 1] and read back exactly.
    Strides up to 8 bytes are rounded up to a machine word.
    """
    width = (bound.bit_length() + 8) // 8
    return _ROUNDED[width] if width < len(_ROUNDED) else width


@lru_cache(maxsize=64)
def _radix(width: int, top: int) -> tuple[bytes, int]:
    """The bias digit 2**(8*width - 1) as width bytes, and (x - 1)**top at x = 2**(8*width)."""
    return (1 << 8 * width - 1).to_bytes(width, "little"), ((1 << 8 * width) - 1) ** top


def _pack(cs: Sequence[int], width: int, bias: int) -> int:
    """sum of cs[i] * 2**(8*width*i), for signed cs of magnitude below 2**(8*width - 1).

    As a two's complement word, a negative c reads as c plus its sign bit
    doubled; bias, the bias digit over len(cs) digits or more, masks the
    sign bits.
    """
    code = _WORDS.get(width)
    if code is None:
        raw = b"".join(c.to_bytes(width, "little", signed=True) for c in cs)
    else:
        raw = array(code, cs)
        if _BIG_ENDIAN:
            raw.byteswap()
    u = int.from_bytes(raw, "little")
    return u - ((u & bias) << 1)


def _unpack(packed: int, width: int, n: int, bias: int) -> list[int]:
    """The n signed digits of packed at a stride of width bytes (see _stride).

    Adding bias, the bias digit at each of the n digits, makes every digit
    nonnegative; XOR-ing it back leaves each digit in two's complement.
    """
    raw = ((packed + bias) ^ bias).to_bytes(width * n, "little")
    code = _WORDS.get(width)
    if code is None:
        return [int.from_bytes(raw[i : i + width], "little", signed=True) for i in range(0, len(raw), width)]
    words = array(code, raw)
    if _BIG_ENDIAN:
        words.byteswap()
    return words.tolist()


def poly_sum(terms: Iterable[tuple[int, int, Sequence[QPoly], Sequence[int]]]) -> QPoly:
    """The sum of sign * q**shift * prod(factors) * prod of [a] for a in sizes, over the terms.

    A term is (sign, shift, factors, sizes) with sign +1 or -1.  Every term
    is evaluated at x = 2**(8w) as one int; a term with k brackets is also
    multiplied by (x - 1)**(K - k), K the most brackets of any term, so
    that the sum divides exactly by (x - 1)**K once.  The stride w holds
    B, the sum over the terms of prod |f|_1 over the factors times prod
    of the sizes: B bounds every coefficient of the sum, and every
    coefficient of a factor too.  Terms with a zero factor or a size 0
    are skipped.  Raises ValueError for a sign other than +1 or -1, or a
    negative size or shift.

    >>> poly_sum([(1, 0, (QPoly((1, 1)),), (3,)), (-1, 2, (), (2,))]).coeffs
    (1, 2, 1)
    """
    kept = []
    bound = length = top = 0
    for sign, shift, factors, sizes in terms:
        if sign != 1 and sign != -1:
            raise ValueError(f"sign {sign} is not +1 or -1")
        if shift < 0:
            raise ValueError("negative shift")
        if sizes and min(sizes) < 0:
            raise ValueError("bracket of a negative integer")
        sizes = [a for a in sizes if a != 1]
        size = prod(sizes)
        degree = shift + sum(sizes) - len(sizes)
        for f in factors:
            size *= sum(map(abs, f.coeffs))
            degree += len(f.coeffs) - 1
        if not size:  # a zero factor or a size 0
            continue
        bound += size
        length = max(length, degree + 1)
        top = max(top, len(sizes))
        kept.append((sign, shift, factors, sizes))
    if not kept:
        return ZERO
    width = _stride(bound)
    bits = 8 * width
    half, divisor = _radix(width, top)
    bias = int.from_bytes(half * length, "little")
    total = 0
    for sign, shift, factors, sizes in kept:
        x = 1
        for f in factors:
            x *= _pack(f.coeffs, width, bias)
        for a in sizes:
            x = (x << bits * a) - x
        for _ in range(top - len(sizes)):
            x = (x << bits) - x
        x <<= bits * shift
        total = total + x if sign > 0 else total - x
    if top:
        total //= divisor
    return QPoly(_unpack(total, width, length, bias))


def bracket_product(sizes: Iterable[int], p: QPoly = ONE) -> QPoly:
    """p times the product of the brackets [a] for a in sizes.

    Raises ValueError for a negative size, as q_int does.

    >>> bracket_product((2, 3)).coeffs
    (1, 2, 2, 1)
    >>> bracket_product((2,), QPoly((1, -1))).coeffs
    (1, 0, -1)
    """
    return poly_sum([(1, 0, (p,), tuple(sizes))])


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
    return bracket_product(range(1, n + 1))


_QBIN_CACHE: dict[tuple[int, int], QPoly] = {}


def q_binomial(n: int, k: int) -> QPoly:
    """Gaussian binomial coefficient.  Zero when k is out of [0, n].

    Read off the Pochhammer product by the q-binomial theorem,
    (t;q)_n = sum over k of (-1)**k q**comb(k, 2) qbin(n, k) t**k.

    >>> q_binomial(4, 2).coeffs
    (1, 1, 2, 1, 1)
    >>> not q_binomial(5, 7)
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
    cs = q_pochhammer(n, k + 1)[k].coeffs[comb(k, 2) :]
    out = QPoly(tuple(map(neg, cs)) if k % 2 else cs)
    _QBIN_CACHE[key] = out
    return out


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


def _times_pochhammer(rows: list[list[int]], n: int) -> tuple[QPoly, ...]:
    """The t-series with q-coefficient rows[m] at t**m, times (t;q)_n, mod t**len(rows).

    The factors (1 - t q**i), i = 0..n-1, are applied one at a time: each
    subtracts q**i times row m - 1 from row m.  Rows are updated from the
    top down, so row m - 1 still holds its value before that factor.  The
    lists in rows are overwritten.
    """
    for i in range(n):
        for m in range(len(rows) - 1, 0, -1):
            lower, row = rows[m - 1], rows[m]
            end = i + len(lower)
            if len(row) < end:
                row += repeat(0, end - len(row))
            row[i:end] = map(sub, row[i:end], lower)
    return tuple(QPoly(tuple(r)) for r in rows)


def q_pochhammer(n: int, trunc: int) -> tuple[QPoly, ...]:
    """Product of (1 - t q**i) for i in [0, n), modulo t**trunc.

    >>> [c.coeffs for c in q_pochhammer(2, 3)]
    [(1,), (-1, -1), (0, 1)]
    """
    if n < 0:
        raise ValueError("negative factor count")
    return _times_pochhammer([[1] if m == 0 else [] for m in range(trunc)], n)
