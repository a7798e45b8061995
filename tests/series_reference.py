"""Schoolbook references for polynomial and t-series products.

Each product is taken one pair of terms at a time, with no packing and no
in-place updates, so the tests can hold the library's product kernels to
it.  QPoly serves only as a container here, and a t-series is the tuple
of its coefficients.
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


def series_mul_reference(a, b):
    """The per-term series product, each term by schoolbook."""
    k = min(len(a), len(b))
    out = [ZERO] * k
    for i in range(k):
        for j in range(k - i):
            out[i + j] = out[i + j] + QPoly(schoolbook(a[i].coeffs, b[j].coeffs))
    return tuple(out)


def pochhammer_reference(n, trunc):
    """(t;q)_n mod t**trunc, its factors (1 - t q**i) multiplied by series_mul_reference."""
    out = (ONE, *[ZERO] * trunc)[:trunc]
    for i in range(n):
        factor = (ONE, QPoly((0,) * i + (-1,)), *[ZERO] * trunc)[:trunc]
        out = series_mul_reference(out, factor)
    return out
