"""Schoolbook references for polynomial and t-series products.

Each product is taken one pair of terms at a time, with no packing and no
in-place updates, so the tests can hold the library's product kernels to
it, and build the expected values of their assertions with it.  QPoly
serves only as a container here (its sum is the only arithmetic taken
from it), and a t-series is the tuple of its coefficients.
"""

from __future__ import annotations

from remixed.qcalc import ONE, ZERO, QPoly


def schoolbook(a, b):
    """Reference product of two coefficient sequences, one term at a time."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def negate(p):
    """-p, one coefficient at a time."""
    return QPoly(tuple(-c for c in p.coeffs))


def poly_product(*factors):
    """The product of the QPoly factors by schoolbook; ONE for no factor."""
    cs = (1,)
    for f in factors:
        cs = schoolbook(cs, f.coeffs)
    return QPoly(cs)


def bracket_product_reference(sizes, p=ONE):
    """p times the brackets [a] = 1 + q + ... + q**(a-1) for a in sizes."""
    return poly_product(p, *(QPoly((1,) * a) for a in sizes))


def series_mul_reference(a, b):
    """The per-term series product, each term by schoolbook."""
    k = min(len(a), len(b))
    out = [ZERO] * k
    for i in range(k):
        for j in range(k - i):
            out[i + j] = out[i + j] + poly_product(a[i], b[j])
    return tuple(out)


def pochhammer_reference(n, trunc):
    """(t;q)_n mod t**trunc, its factors (1 - t q**i) multiplied by series_mul_reference."""
    out = (ONE, *[ZERO] * trunc)[:trunc]
    for i in range(n):
        factor = (ONE, QPoly((0,) * i + (-1,)), *[ZERO] * trunc)[:trunc]
        out = series_mul_reference(out, factor)
    return out


def q_binomial_reference(n, k):
    """qbin(n, k) by q-Pascal, qbin(n, k) = qbin(n-1, k-1) + q**k qbin(n-1, k); ZERO for k outside [0, n]."""
    row = [ONE]  # qbin(0, 0)
    for m in range(1, n + 1):
        row = [ONE] + [row[j - 1] + row[j].shift(j) for j in range(1, m)] + [ONE]
    return row[k] if 0 <= k <= n else ZERO
