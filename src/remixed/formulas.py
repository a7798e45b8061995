"""Closed formulas for the configuration polynomials, family by family.

Each family admits an expression built from brackets, Gaussian binomials
and powers of q: a plain product for the height nonnegative family, a
two term difference when a single height dips below zero, alternating
sums for connected and weakly placed cores, and the one hole core
theorem with its corrective series.  The module also computes q-hit
numbers, matches them to connected configurations, evaluates a q-analog
of the two sided Eulerian triangle, and dispatches a configuration to the
cheapest applicable method.

Every formula is a signed sum of one term type, _Term: a power of q times
Gaussian binomials times brackets.  _assemble adds the terms up in one
poly_sum, which takes each binomial as its (n, k) pair; sum_terms also
rejects a negative coefficient.  Which family formula applies to a
configuration is said once, in ROUTES, the dict from a method name to its
family test and term builder in dispatch's precedence: dispatch takes the
first route whose test its flags pass, the families suite of verify checks
every route that applies, and each a_* formula looks its route up by name.
The formulas of a core at a shift build c with config.shifted_config,
which checks the core and the shift; the core's balls fix n.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import comb
from typing import NamedTuple, Sequence

from .config import ConfigFlags, Configuration, classify, mset, shifted_config
from .engine import remixed_induction
from .qcalc import (
    InvariantViolation,
    QPoly,
    ZERO,
    _times_pochhammer,
    poly_sum,
    require_nonnegative,
)


class _Term(NamedTuple):
    """One summand sign * q**qexp * prod of qbin(n, k) over binoms * prod of brackets."""

    sign: int
    qexp: int
    brackets: tuple[int, ...]
    binoms: tuple[tuple[int, int], ...] = ()

    def render(self) -> str:
        pieces = []
        if self.qexp == 1:
            pieces.append("q")
        elif self.qexp > 1:
            pieces.append(f"q^{self.qexp}")
        for bn, bk in self.binoms:
            bk = min(bk, bn - bk)
            if bk == 1:
                pieces.append(f"[{bn}]")
            elif bk > 1:
                pieces.append(f"qbin({bn},{bk})")
        counts: dict[int, int] = {}
        for a in sorted(self.brackets):
            if a != 1:
                counts[a] = counts.get(a, 0) + 1
        for a, e in counts.items():
            pieces.append(f"[{a}]" if e == 1 else f"[{a}]^{e}")
        return " ".join(pieces) if pieces else "1"


def _assemble(terms: Sequence[_Term]) -> QPoly:
    """The sum of the terms, as one poly_sum."""
    for t in terms:
        if t.qexp < 0:
            raise InvariantViolation(f"negative q exponent {t.qexp} in a formula term")
    return poly_sum((t.sign, t.qexp, t.binoms, t.brackets) for t in terms)


def sum_terms(terms: Sequence[_Term], what: object) -> QPoly:
    """The polynomial of a formula; raises InvariantViolation if a coefficient is negative."""
    return require_nonnegative(_assemble(terms), what)


def _render(terms: Sequence[_Term]) -> str:
    """The factored form of a sum of terms, as dispatch reports it."""
    out = []
    for t in terms:
        if not out:
            out.append(t.render() if t.sign > 0 else "-" + t.render())
        else:
            out.append(("+ " if t.sign > 0 else "- ") + t.render())
    return " ".join(out)


def _by_route(method: str, c: Configuration, outside: str) -> QPoly:
    """c's polynomial by the route named method; ValueError(outside) if c fails its test."""
    flags = classify(c)
    applies, build = ROUTES[method]
    if not applies(flags):
        raise ValueError(outside.format(c.c))
    return sum_terms(build(c, flags), c.c)


def _dip_terms(c: Configuration, flags: ConfigFlags) -> list[_Term]:
    ms, j = tuple(mset(c.c)), flags.almost_defect
    terms = [_Term(1, 0, ms)]
    if j is not None:
        k = bisect_left(ms, j)  # no ball starts at the defect site j
        terms.append(_Term(-1, 0, (*ms[:k], *[a - j for a in ms[k:]]), ((c.n + 1, j),)))
    return terms


def a_lukasiewicz(c: Configuration) -> QPoly:
    """Product of brackets over the ball start sites.

    Valid exactly when every height of c is nonnegative: each ball can
    settle without ever crossing the left end.

    >>> a_lukasiewicz(Configuration((3, 0, 0, 2, 0))).coeffs
    (1, 2, 3, 4, 3, 2, 1)
    """
    return _by_route("lukasiewicz", c, "{} has a negative height")


def a_almost_lukasiewicz(c: Configuration) -> QPoly:
    """Bracket product minus one binomial correction at the defect.

    >>> p = a_almost_lukasiewicz(Configuration((1, 0, 3, 0, 1)))
    >>> p.coeffs
    (0, 2, 6, 12, 16, 18, 16, 12, 6, 2)
    """
    return _by_route("almost_lukasiewicz", c, "{} does not have exactly one negative height")


def _core_terms(c: Configuration, flags: ConfigFlags) -> list[_Term]:
    i, ms = flags.core.left_zeros, mset(flags.core.gamma)
    return [
        _Term(
            1 if (i + j) % 2 == 0 else -1,
            comb(i - j, 2),
            tuple([j + a for a in ms]),
            ((c.n + 1, i - j),),
        )
        for j in range(i, -1, -1)
    ]


def a_connected(gamma: tuple[int, ...], i: int) -> QPoly:
    """Alternating binomial sum for a hole free core shifted by i.

    >>> a_connected((1, 2, 2), 1).coeffs
    (0, 0, 1, 5, 12, 18, 18, 12, 5, 1)
    """
    return _by_route("connected", shifted_config(gamma, i), "core of {} has a hole")


def _bracket_series(sizes: Sequence[int], n: int, trunc: int) -> tuple[QPoly, ...]:
    """(t;q)_{n+1} times the sum of t**j prod [j+a] over a in sizes, mod t**trunc."""
    if n < 0 or trunc < 0:
        raise ValueError("negative n or truncation")
    return _times_pochhammer([[j + a for a in sizes] for j in range(trunc)], n + 1)


def core_series(gamma: tuple[int, ...], n: int, trunc: int) -> tuple[QPoly, ...]:
    """Pochhammer factor times sum of t**j prod [j+a] over the core balls.

    No family restriction on gamma; this is the raw left-hand side that
    the connected identity, the weak congruence and the corrective series
    are all measured against.  Raises ValueError for a negative n, trunc
    or core entry.
    """
    if min(gamma, default=0) < 0:
        raise ValueError(f"negative entry in core {gamma}")
    return _bracket_series(mset(tuple(gamma)), n, trunc)


def a_weakly_lukasiewicz(gamma: tuple[int, ...], i: int) -> QPoly:
    """The connected sum formula, valid up to the largest weakly shift.

    The core may contain holes; what matters is that the shifted
    configuration still satisfies the weak order condition.

    >>> a_weakly_lukasiewicz((3, 0, 2), 1).coeffs
    (0, 2, 6, 12, 17, 17, 12, 6, 2)
    """
    return _by_route("weakly_lukasiewicz", shifted_config(gamma, i), "{} is not weakly placed")


def one_hole_prefactor(
    alpha: tuple[int, ...], beta: tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    """Shared prefactor of the one hole expressions.

    Returns the accumulated integer q exponent (sum of a - ell, never
    positive) and the bracket sizes from both blocks.
    """
    ell = len(alpha)
    exp = 0
    brackets = []
    for a in mset(alpha):
        exp += a - ell
        brackets.append(ell + 1 - a)
    brackets.extend(mset(beta))
    return exp, tuple(brackets)


def _corrective_term(p: int, r: int, k: int, prefactor: tuple[int, tuple[int, ...]]) -> _Term:
    """The corrective series coefficient of t**(p - ell + k) as one term.

    It is (-1)**k q**(comb(p, 2) + p k + comb(k + 1, 2) + exp) qbin(n + 1, r - k)
    times the prefactor brackets, where n = p + r and (exp, brackets) is the
    one_hole_prefactor of blocks holding p and r balls.  A negative exponent
    is rejected when the term is assembled.
    """
    exp, brackets = prefactor
    qexp = comb(p, 2) + p * k + comb(k + 1, 2) + exp
    return _Term(-1 if k % 2 else 1, qexp, brackets, ((p + r + 1, r - k),))


def corrective_series(alpha: tuple[int, ...], beta: tuple[int, ...]) -> tuple[QPoly, ...]:
    """The finite t series correcting the connected identity at one hole.

    alpha and beta are the blocks around the hole; both must be free of
    holes themselves.  The result is a polynomial in t of degree at most
    n, the balls of both blocks, with coefficients in Z[q]; negative
    powers of q from the prefactor always cancel against the main exponent.
    """
    alpha, beta = tuple(alpha), tuple(beta)
    if not alpha or not beta:
        raise ValueError("both blocks around the hole must be nonempty")
    if any(x < 1 for x in alpha) or any(x < 1 for x in beta):
        raise ValueError(f"blocks {alpha}, {beta} must be hole free")
    ell, p, r = len(alpha), sum(alpha), sum(beta)
    prefactor = one_hole_prefactor(alpha, beta)
    coeffs = [ZERO] * (p + r + 1)
    for k in range(r + 1):
        coeffs[p - ell + k] = _assemble([_corrective_term(p, r, k, prefactor)])
    return tuple(coeffs)


def _one_hole_terms(c: Configuration, flags: ConfigFlags) -> list[_Term]:
    gamma, i, n = flags.core.gamma, flags.core.left_zeros, c.n
    terms = _core_terms(c, flags)
    z = gamma.index(0)
    alpha, beta = gamma[:z], gamma[z + 1 :]
    ell, p = len(alpha), sum(alpha)
    if i >= p - ell:
        # minus the corrective series coefficient of t**i
        t = _corrective_term(p, n - p, i + ell - p, one_hole_prefactor(alpha, beta))
        terms.append(_Term(-t.sign, t.qexp, t.brackets, t.binoms))
    return terms


def a_one_hole(c: Configuration) -> QPoly:
    """Connected style sum plus one gated correction term.

    >>> a_one_hole(Configuration((0, 2, 1, 0, 3, 0))).coeffs
    (0, 0, 2, 8, 19, 36, 56, 72, 78, 72, 56, 36, 19, 8, 2)
    """
    return _by_route("one_hole", c, "core of {} does not have exactly one hole")


def _staircase(lam: Sequence[int], n: int) -> tuple[int, ...]:
    """lam padded to n parts; ValueError unless it is a partition inside the staircase of size n."""
    lam = tuple(lam)
    if n < 1:
        raise ValueError("size must be positive")
    if any(x < 0 for x in lam):
        raise ValueError(f"negative part in {lam}")
    if any(lam[k] < lam[k + 1] for k in range(len(lam) - 1)):
        raise ValueError(f"{lam} is not weakly decreasing")
    if len(lam) > n and any(x > 0 for x in lam[n:]):
        raise ValueError(f"{lam} has more than {n} parts")
    lam = (lam + (0,) * n)[:n]
    for k in range(n):
        if lam[k] > n - k:
            raise ValueError(f"part {lam[k]} at row {k + 1} leaves the staircase")
    return lam


def q_hits(lam: tuple[int, ...], n: int) -> tuple[QPoly, ...]:
    """The q-hit numbers of lam in the staircase of size n, for i = 0..n.

    They are the coefficients of one generating series: core_series over
    the factor offsets k - lam_{n+1-k}, k = 1..n, in place of the core
    balls.  Its numerator series is a polynomial in t of degree at most n,
    so the truncation n + 1 is exact.
    """
    lam = _staircase(lam, n)
    return _bracket_series([k - lam[n - k] for k in range(1, n + 1)], n, n + 1)


def hit_to_connected(lam: tuple[int, ...], n: int, i: int) -> tuple[tuple[int, ...], int]:
    """A connected core of n balls and a shift whose polynomial is q_hits(lam, n)[i].

    The factor offsets k - lam_{n+1-k} are >= 0, the first <= 1, each at
    most 1 above the one before, so their counts from min to max are a core
    with no hole.  The candidate is accepted only after checking polynomial
    equality, so a successful return is self certifying.  Raises ValueError
    for lam outside the staircase, a hit count i outside [0, n], a zero hit
    number or a failed match.
    """
    lam = _staircase(lam, n)
    if not 0 <= i <= n:
        raise ValueError(f"hit count {i} outside [0, {n}]")
    offsets = [k - lam[n - k] for k in range(1, n + 1)]
    lo = min(offsets)
    gamma = tuple(offsets.count(e) for e in range(lo, max(offsets) + 1))
    shift = i + lo - 1
    if shift < 0 or shift > n - len(gamma):
        raise ValueError(f"hit count {i} of {lam} has no matching placement")
    if a_connected(gamma, shift) != q_hits(lam, n)[i]:
        raise ValueError(f"candidate {gamma} at shift {shift} fails verification")
    return gamma, shift


def _check_cs(r: int, s: int, x: int, y: int) -> None:
    """ValueError unless A(r,s|x,y) is an entry of the two sided triangle."""
    if r < 0 or s < 0:
        raise ValueError("r and s must be nonnegative")
    if x < 1 or y < 1:
        raise ValueError("x and y must be positive")


def cs_configuration(r: int, s: int, x: int, y: int) -> Configuration:
    """The configuration whose polynomial defines A(r,s|x,y)."""
    _check_cs(r, s, x, y)
    return Configuration((0,) * r + (1,) * (y - 1) + (r + s + 1,) + (1,) * (x - 1) + (0,) * s)


def carlitz_scoville_q(r: int, s: int, x: int, y: int) -> QPoly:
    """Closed form for the q analog A(r,s|x,y) of the two sided Eulerian numbers.

    >>> carlitz_scoville_q(1, 1, 1, 1).coeffs
    (0, 2, 2)
    """
    _check_cs(r, s, x, y)
    terms = [
        _Term(
            -1 if (r + j) % 2 else 1,
            comb(r - j, 2),
            (j + y,) * (r + s),
            ((j + x + y - 1, j), (r + s + x + y, r - j)),
        )
        for j in range(r + 1)
    ]
    return sum_terms(terms, (r, s, x, y))


# The closed formula routes by expected term count, fewest first, which is
# dispatch's precedence: method name -> (family test on the flags of
# classify, builder of the terms for c in the family and its flags).
# Routes of one formula shape share a builder.
ROUTES = {
    "lukasiewicz": (lambda f: f.is_lukasiewicz, _dip_terms),
    "almost_lukasiewicz": (lambda f: f.almost_defect is not None, _dip_terms),
    "connected": (lambda f: f.is_connected, _core_terms),
    "one_hole": (lambda f: f.is_one_hole, _one_hole_terms),
    "weakly_lukasiewicz": (lambda f: f.is_weakly_lukasiewicz, _core_terms),
}


@dataclass(frozen=True)
class EvalReport:
    """Outcome of evaluating one configuration by the best method."""

    method: str
    poly: QPoly
    flags: ConfigFlags
    terms: tuple[_Term, ...] | None = None

    @property
    def pretty(self) -> str | None:
        """The factored form of the formula, rendered when read; None for the recursion."""
        return None if self.terms is None else _render(self.terms)


def dispatch(c: Configuration) -> EvalReport:
    """Pick the first route of ROUTES that applies, fall back to recursion.

    Only the chosen route builds its terms; a configuration outside every
    family goes to the memoized recursion, which has no factored form.
    """
    flags = classify(c)
    for method, (applies, build) in ROUTES.items():
        if applies(flags):
            terms = tuple(build(c, flags))
            return EvalReport(method, sum_terms(terms, c.c), flags, terms)
    return EvalReport("induction", remixed_induction(c), flags)
