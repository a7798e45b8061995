"""Exact polynomial and series arithmetic over the integers.

Polynomials in q have integer coefficients stored densely, lowest degree
first; a t-series truncated at t**k is the tuple of its k QPoly
coefficients, t**0 first.  Rational scalars are Fractions: no floats.

One kernel, poly_sum, carries nearly all of the package's arithmetic.  It
takes a signed sum of terms, each a power of q times polynomial factors
times q-integers [a] = 1 + q + ... + q**(a-1), and evaluates the whole sum
at one point x = 2**(8w) as one Python int (Kronecker substitution): each
factor is packed at a stride of w bytes, and each [a] is x**a - 1, a shift
and a subtraction, over one division by x - 1 for the whole sum.  Adding
a bias digit and XOR-ing it away reads each digit back, exactly, in two's
complement, as the stride bounds every coefficient; signed machine-word
arrays pack and unpack at C speed.  A factor may also be a pair (n, k) for
the Gaussian binomial qbin(n, k), as the family formulas give theirs: its
norm comb(n, k) and degree k(n - k) enter the stride's bound in closed
form, and its value at x is packed from q_binomial's cache once per stride
and kept beside it, served only while the cache holds the entry it was
packed from.  Any other QPoly keeps nothing and is packed at each use.  A
product, brackets included, is a one-term sum; kronecker_read reads one
polynomial back off its value at such a point.  The only QPoly arithmetic
outside poly_sum is __add__, with which verify's corrective suite checks
a series against its definition thousands of times, three times faster
by hand than as a two-term sum, and shift, a prefix of zeros, which the
suite's factorization law reads.

_times_pochhammer multiplies a t-series of bracket products by (t;q)_n at
such a point, one int per t-row read back at its own length: the only
t-series product the package takes.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from operator import add, neg
from typing import Iterable, Sequence

class DegreeTooHigh(ValueError):
    """Raised when a polynomial does not fit its degree window: a reversal, or a read-back of digits."""


class InvariantViolation(RuntimeError):
    """An internal invariant failed: a defect in the package, not bad input.

    Raised in place of assert statements, so python -O keeps the checks.
    """


def require_nonnegative(p: QPoly, what: object) -> QPoly:
    """p itself; raises InvariantViolation if a coefficient is negative."""
    if min(p.coeffs, default=0) < 0:
        raise InvariantViolation(f"negative coefficient for {what}")
    return p


@dataclass(frozen=True, slots=True)
class QPoly:
    """Dense integer polynomial in q, coefficients lowest degree first.

    The zero polynomial is the empty tuple and its degree is None, kept as
    a sentinel rather than any numeric stand-in.

    >>> p = poly_sum([(1, 0, (QPoly((1, 1)), QPoly((1, 1, 1))), ())])
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
        self._store(cs)

    @classmethod
    def _of_ints(cls, cs: Sequence[int]) -> QPoly:
        """The polynomial of cs, which holds only ints: the constructor without its type scan."""
        p = object.__new__(cls)
        p._store(cs)
        return p

    def _store(self, cs: Sequence[int]) -> None:
        """Set coeffs to cs with its trailing zeros trimmed."""
        if cs and not cs[-1]:
            end = len(cs) - 1
            while end and not cs[end - 1]:
                end -= 1
            cs = cs[:end]
        object.__setattr__(self, "coeffs", tuple(cs))

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
def _radix(width: int, top: int) -> int:
    """(x - 1)**top at x = 2**(8*width)."""
    return ((1 << 8 * width) - 1) ** top


@lru_cache(maxsize=64)
def _bias(width: int, length: int) -> int:
    """The bias digit 2**(8*width - 1) at each of length digits, as one int (see _unpack)."""
    return int.from_bytes((1 << 8 * width - 1).to_bytes(width, "little") * length, "little")


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


def poly_sum(terms: Iterable[tuple[int, int, Sequence[QPoly | tuple[int, int]], Sequence[int]]]) -> QPoly:
    """The sum of sign * q**shift * prod(factors) * prod of [a] for a in sizes, over the terms.

    A term is (sign, shift, factors, sizes) with sign +1 or -1.  A factor
    is a QPoly or a pair (n, k), a tuple that stands for qbin(n, k), zero
    when k is out of [0, n].  Every term is evaluated at x = 2**(8w) as one
    int; a term with k brackets is also multiplied by (x - 1)**(K - k), K
    the most brackets of any term, so that the sum divides exactly by
    (x - 1)**K once.  The stride w holds B, the sum over the terms of
    prod |f|_1 over the factors times prod of the sizes: B bounds every
    coefficient of the sum, and every coefficient of a factor too.  A
    pair's norm and degree are closed forms, comb(n, k) and k(n - k), as
    a q-binomial has nonnegative coefficients; its value at x comes from
    _QBIN_VALUES (see there), packed once per stride.  Terms with a zero
    factor or a size 0 are skipped.  Raises ValueError for a sign other
    than +1 or -1, or a negative size, shift or row index n.

    >>> poly_sum([(1, 0, (QPoly((1, 1)),), (3,)), (-1, 2, (), (2,))]).coeffs
    (1, 2, 1)
    >>> poly_sum([(1, 0, ((4, 2),), ()), (-1, 1, ((3, 1),), ())]).coeffs
    (1, 0, 1, 0, 1)
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
            if f.__class__ is tuple:
                n, k = f
                if n < 0:
                    raise ValueError("negative row index")
                size *= comb(n, k) if k >= 0 else 0
                degree += k * (n - k)
            else:
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
    divisor = _radix(width, top)
    bias = _bias(width, length)
    total = 0
    for sign, shift, factors, sizes in kept:
        x = 1
        for f in factors:
            if f.__class__ is tuple:
                n, k = f
                entry = _QBIN_CACHE.get((n, k if k + k <= n else n - k))
                got = _QBIN_VALUES.get((n, k, width))
                if got is None or got[0] is not entry:
                    entry = q_binomial(n, k)
                    got = _QBIN_VALUES[n, k, width] = (entry, _pack(entry.coeffs, width, bias))
                x *= got[1]
            else:
                x *= _pack(f.coeffs, width, bias)
        for a in sizes:
            x = (x << bits * a) - x
        for _ in range(top - len(sizes)):
            x = (x << bits) - x
        x <<= bits * shift
        total = total + x if sign > 0 else total - x
    if top:
        total //= divisor
    return QPoly._of_ints(_unpack(total, width, length, bias))


def kronecker_point(bound: int) -> int:
    """x = 2**(8w) for the stride w of bound (see _stride), as poly_sum picks it.

    A polynomial whose coefficients have magnitude <= bound is read back
    off its value at x by kronecker_read.
    """
    return 1 << 8 * _stride(bound)


def kronecker_read(value: int, bound: int, length: int) -> QPoly:
    """The polynomial of degree below length whose value at kronecker_point(bound) is value.

    Its coefficients are the signed base-x digits of value, each in
    [-x/2, x/2), so they are exact for every polynomial with coefficients
    of magnitude <= bound.  Raises DegreeTooHigh when value needs more than
    length such digits.

    >>> x = kronecker_point(6)
    >>> kronecker_read(1 + 5 * x - 2 * x**2, 6, 3).coeffs
    (1, 5, -2)
    """
    width = _stride(bound)
    try:
        return QPoly._of_ints(_unpack(value, width, length, _bias(width, length)))
    except OverflowError:
        raise DegreeTooHigh(f"value needs more than {length} digits") from None


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
# poly_sum's values of the q-binomials at x = 2**(8w): (n, k, w) -> (the
# _QBIN_CACHE entry packed, its value), served only while the cache holds
# that very entry, so a replaced entry or a cleared cache is never read stale
_QBIN_VALUES: dict[tuple[int, int, int], tuple[QPoly, int]] = {}


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


def _times_pochhammer(rows: Sequence[Sequence[int]], n: int) -> tuple[QPoly, ...]:
    """The t-series with the bracket product over rows[m] at t**m, times (t;q)_n, mod t**len(rows).

    Each row is one int at x = 2**(8w), its brackets [a] the shift-and-
    subtract (x**a - 1) over one division by (x - 1)**k.  A factor
    (1 - t q**i) subtracts row m - 1, shifted i digits, from row m, top row
    first.  As |qbin(n, i)|_1 = comb(n, i), comb(n, n // 2) times the sum of
    prod(sizes) over the rows bounds every output digit, and w is its
    stride; so a row of L digits has a bit length in [8w(L - 1), 8wL), and
    kronecker_read reads it back at that length.
    """
    bound = comb(n, n // 2) * sum(map(prod, rows))
    width = _stride(bound)
    bits = 8 * width
    values = []
    for sizes in rows:
        x = 1
        for a in sizes:
            x = (x << bits * a) - x
        values.append(x // _radix(width, len(sizes)))
    for i in range(n):
        for m in range(len(values) - 1, 0, -1):
            values[m] -= values[m - 1] << bits * i
    return tuple(kronecker_read(v, bound, abs(v).bit_length() // bits + 1) for v in values)


def q_pochhammer(n: int, trunc: int) -> tuple[QPoly, ...]:
    """Product of (1 - t q**i) for i in [0, n), modulo t**trunc.

    >>> [c.coeffs for c in q_pochhammer(2, 3)]
    [(1,), (-1, -1), (0, 1)]
    """
    if n < 0 or trunc < 0:
        raise ValueError("negative factor count or truncation")
    # row 0 is the empty bracket product 1, every other row holds [0] = 0
    return _times_pochhammer([(0,) if m else () for m in range(trunc)], n)
