"""The last-ball recursion with the ball at the largest occupied site dropped last.

engine._induction drops the ball at the fullest site last.  The drop
dynamics are abelian: the chance of success does not depend on the order
in which the balls drop, so any occupied site may drop last, with the same
weights.  The two recursions split a configuration at different sites and
agree only through that property.  This one builds its q-binomials by the
product formula, not by q-Pascal, and keeps a memo of its own, so the
tests can compare the two at any integer x >= 2 and count the entries
each memo holds.
"""

from __future__ import annotations

from functools import lru_cache


def _bracket(k: int, x: int) -> int:
    """[k] at the integer x."""
    return (x**k - 1) // (x - 1)


def _qbin(n: int, k: int, x: int) -> int:
    """qbin(n, k) at the integer x, as the product of (x^(n-k+i) - 1) / (x^i - 1) over i <= k."""
    num = den = 1
    for i in range(1, k + 1):
        num *= x ** (n - k + i) - 1
        den *= x**i - 1
    return num // den


def _weight(n: int, j: int, u: int, x: int) -> int:
    """Weight of the last ball from start site u to landing site j at the integer x."""
    if j >= u:
        return _bracket(u, x) * _qbin(n, j, x)
    return x ** (u - j) * _bracket(n + 1 - u, x) * _qbin(n, j - 1, x)


@lru_cache(maxsize=None)
def largest_site_induction(ct: tuple[int, ...], x: int) -> int:
    """A_ct at the integer x, with the ball at the largest occupied site dropped last.

    Memoized on the sub-tuple and x; call __wrapped__ for a top level that
    the memo should not keep, as remixed_induction does.
    """
    n = len(ct)
    if n == 0:
        return 1
    u = max(i for i, k in enumerate(ct, start=1) if k)
    d = list(ct)
    d[u - 1] -= 1
    total = 0
    for j in range(1, n + 1):
        if d[j - 1] == 0 and sum(d[: j - 1]) == j - 1:
            left = largest_site_induction(tuple(d[: j - 1]), x)
            right = largest_site_induction(tuple(d[j:]), x)
            total += left * right * _weight(n, j, u, x)
    return total
