"""Multi-pass references for the family flags and the weak-family bound.

Each rule is taken the long way: the full height profile and its list of
negative sites decide the first two families, and the weak bound reads
the ball start sites of the core off the multiset.  The tests hold the
single-walk `classify` and `_weak_bound` of the package to them.
"""

from __future__ import annotations

from remixed.config import ConfigFlags, Configuration, core, heights, mset
from remixed.qcalc import InvariantViolation


def weak_bound_reference(gamma: tuple[int, ...], n: int) -> int:
    """The least of n - len(gamma) and j - u_j over the jumps u_j > u_{j-1} + 1."""
    u = mset(gamma)
    jumps = [j - u[j - 1] for j in range(2, len(u) + 1) if u[j - 1] > u[j - 2] + 1]
    return min([n - len(gamma), *jumps])


def classify_reference(c: Configuration) -> ConfigFlags:
    """Family flags from the height profile, the core and the reference bound."""
    hs = heights(c)
    neg = [j for j, h in enumerate(hs, start=1) if h < 0]
    defect: int | None = None
    if len(neg) == 1:
        j = neg[0]
        if hs[j - 1] != -1:
            raise InvariantViolation("a lone dip below zero can only reach -1")
        if c.c[j - 1] != 0:
            raise InvariantViolation("the defect site cannot hold a ball")
        defect = j
    dec = core(c)
    holes = dec.gamma.count(0)
    return ConfigFlags(
        is_lukasiewicz=not neg,
        almost_defect=defect,
        is_connected=holes == 0,
        is_one_hole=holes == 1,
        is_weakly_lukasiewicz=dec.left_zeros <= weak_bound_reference(dec.gamma, c.n),
    )
