"""Schoolbook references for polynomial and t-series products.

Each product is taken one pair of terms at a time, with no packing and no
in-place updates, so the tests can hold the library's product kernels to
it.  QPoly and TSeries serve only as containers here.
"""

from __future__ import annotations

from remixed.qcalc import ONE, ZERO, QPoly, TSeries


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
    k = min(a.trunc, b.trunc)
    out = [ZERO] * k
    for i in range(k):
        for j in range(k - i):
            out[i + j] = out[i + j] + QPoly(schoolbook(a.tcoeffs[i].coeffs, b.tcoeffs[j].coeffs))
    return TSeries(k, tuple(out))


def pochhammer_reference(n, trunc):
    """(t;q)_n mod t**trunc, its factors (1 - t q**i) multiplied by series_mul_reference."""
    out = TSeries(trunc, (ONE, *[ZERO] * trunc)[:trunc])
    for i in range(n):
        factor = (ONE, QPoly((0,) * i + (-1,)), *[ZERO] * trunc)[:trunc]
        out = series_mul_reference(out, TSeries(trunc, factor))
    return out
