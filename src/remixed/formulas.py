"""Closed formulas for the configuration polynomials, family by family.

Each family admits an expression built from brackets, Gaussian binomials
and powers of q: a plain product for the height nonnegative family, a
two term difference when a single height dips below zero, alternating
sums for connected and weakly placed cores, and the one hole core
theorem with its corrective series.  The module also computes q-hit
numbers, matches them to connected configurations, evaluates a q-analog
of the two sided Eulerian triangle, and dispatches a configuration to the
cheapest applicable method.

Which family formula applies to a configuration is said once, in ROUTES:
dispatch takes the first route whose family test its flags pass, and the
families suite of the CLI checks every route that applies.  Both sum the
terms of a route through sum_terms, which rejects a negative coefficient.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import comb
from typing import Sequence

from .config import (
    ConfigFlags,
    Configuration,
    classify,
    core,
    max_weakly_shift,
    mset,
    NoWeaklyShift,
)
from .engine import remixed_induction
from .qcalc import (
    InvariantViolation,
    QPoly,
    ZERO,
    _times_pochhammer,
    bracket_product,
    poly_sum,
    q_binomial,
    require_nonnegative,
)


class WrongFamily(ValueError):
    """The configuration or core is outside the formula's family."""


class ShiftOutOfRange(ValueError):
    """Shift index outside [0, n - m]."""


class ShiftBeyondWeaklyBound(ValueError):
    """Shift exceeds the largest weakly placed position of the core."""


class BadPartition(ValueError):
    """The partition does not fit the staircase for its size."""


class NoMatch(ValueError):
    """No connected configuration matches the requested hit number."""


@dataclass(frozen=True)
class _Term:
    """One summand sign * q**qexp * qbin(bin_n, bin_k) * prod of brackets."""

    sign: int
    qexp: int
    brackets: tuple[int, ...]
    binom: tuple[int, int] | None = None

    def render(self) -> str:
        pieces = []
        if self.qexp == 1:
            pieces.append("q")
        elif self.qexp > 1:
            pieces.append(f"q^{self.qexp}")
        if self.binom is not None:
            bn, bk = self.binom
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
    return poly_sum(
        (t.sign, t.qexp, () if t.binom is None else (q_binomial(*t.binom),), t.brackets)
        for t in terms
    )


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


def _luka_terms(c: Configuration) -> list[_Term]:
    return [_Term(1, 0, tuple(mset(c.c)))]


def a_lukasiewicz(c: Configuration) -> QPoly:
    """Product of brackets over the ball start sites.

    Valid exactly when every height of c is nonnegative: each ball can
    settle without ever crossing the left end.

    >>> a_lukasiewicz(Configuration((3, 0, 0, 2, 0))).coeffs
    (1, 2, 3, 4, 3, 2, 1)
    """
    if not classify(c).is_lukasiewicz:
        raise WrongFamily(f"{c.c} has a negative height")
    return sum_terms(_luka_terms(c), c.c)


def _almost_terms(c: Configuration, j: int) -> list[_Term]:
    ms = tuple(mset(c.c))
    k = bisect_left(ms, j)  # no ball starts at the defect site j
    return [
        _Term(1, 0, ms),
        _Term(-1, 0, (*ms[:k], *[a - j for a in ms[k:]]), (c.n + 1, j)),
    ]


def a_almost_lukasiewicz(c: Configuration) -> QPoly:
    """Bracket product minus one binomial correction at the defect.

    >>> p = a_almost_lukasiewicz(Configuration((1, 0, 3, 0, 1)))
    >>> p.coeffs
    (0, 2, 6, 12, 16, 18, 16, 12, 6, 2)
    """
    j = classify(c).almost_defect
    if j is None:
        raise WrongFamily(f"{c.c} does not have exactly one negative height")
    return sum_terms(_almost_terms(c, j), c.c)


def _shifted_sum_terms(gamma: tuple[int, ...], i: int, n: int) -> list[_Term]:
    ms = mset(gamma)
    return [
        _Term(
            1 if (i + j) % 2 == 0 else -1,
            comb(i - j, 2),
            tuple(j + a for a in ms),
            (n + 1, i - j),
        )
        for j in range(i, -1, -1)
    ]


def a_connected(gamma: tuple[int, ...], i: int, n: int) -> QPoly:
    """Alternating binomial sum for a hole free core shifted by i.

    >>> a_connected((1, 2, 2), 1, 5).coeffs
    (0, 0, 1, 5, 12, 18, 18, 12, 5, 1)
    """
    gamma = tuple(gamma)
    if not gamma:
        raise WrongFamily("empty core")
    if any(x < 1 for x in gamma):
        raise WrongFamily(f"core {gamma} has a hole or a negative entry")
    if sum(gamma) != n:
        raise WrongFamily(f"core {gamma} holds {sum(gamma)} balls, not {n}")
    if i < 0 or i > n - len(gamma):
        raise ShiftOutOfRange(f"shift {i} outside [0, {n - len(gamma)}]")
    return sum_terms(_shifted_sum_terms(gamma, i, n), f"{gamma} at {i}")


def _bracket_series(sizes: Sequence[int], n: int, trunc: int) -> tuple[QPoly, ...]:
    """(t;q)_{n+1} times the sum of t**j prod [j+a] over a in sizes, mod t**trunc."""
    rows = [list(bracket_product([j + a for a in sizes]).coeffs) for j in range(trunc)]
    return _times_pochhammer(rows, n + 1)


def core_series(gamma: tuple[int, ...], n: int, trunc: int) -> tuple[QPoly, ...]:
    """Pochhammer factor times sum of t**j prod [j+a] over the core balls.

    No family restriction on gamma; this is the raw left-hand side that
    the connected identity, the weak congruence and the corrective series
    are all measured against.
    """
    return _bracket_series(mset(tuple(gamma)), n, trunc)


def a_weakly_lukasiewicz(gamma: tuple[int, ...], i: int, n: int) -> QPoly:
    """The connected sum formula, valid up to the largest weakly shift.

    The core may contain holes; what matters is that the shifted
    configuration still satisfies the weak order condition.

    >>> a_weakly_lukasiewicz((3, 0, 2), 1, 5).coeffs
    (0, 2, 6, 12, 17, 17, 12, 6, 2)
    """
    gamma = tuple(gamma)
    if i < 0:
        raise ShiftOutOfRange(f"negative shift {i}")
    try:
        k = max_weakly_shift(gamma, n)
    except NoWeaklyShift as exc:
        raise ShiftBeyondWeaklyBound(f"core {gamma} is nowhere weakly placed") from exc
    if i > k:
        raise ShiftBeyondWeaklyBound(f"shift {i} exceeds the bound {k} for {gamma}")
    return sum_terms(_shifted_sum_terms(gamma, i, n), f"{gamma} at {i}")


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
    return _Term(-1 if k % 2 else 1, qexp, brackets, (p + r + 1, r - k))


def corrective_series(alpha: tuple[int, ...], beta: tuple[int, ...], n: int) -> tuple[QPoly, ...]:
    """The finite t series correcting the connected identity at one hole.

    alpha and beta are the blocks around the hole; both must be free of
    holes themselves.  The result is a polynomial in t of degree at most
    n with coefficients in Z[q]; negative powers of q from the prefactor
    always cancel against the main exponent.
    """
    alpha, beta = tuple(alpha), tuple(beta)
    if not alpha or not beta:
        raise WrongFamily("both blocks around the hole must be nonempty")
    if any(x < 1 for x in alpha) or any(x < 1 for x in beta):
        raise WrongFamily(f"blocks {alpha}, {beta} must be hole free")
    ell, p, r = len(alpha), sum(alpha), sum(beta)
    if p + r != n:
        raise WrongFamily(f"blocks hold {p + r} balls, configuration needs {n}")
    prefactor = one_hole_prefactor(alpha, beta)
    coeffs = [ZERO] * (n + 1)
    for k in range(r + 1):
        coeffs[p - ell + k] = _assemble([_corrective_term(p, r, k, prefactor)])
    return tuple(coeffs)


def _one_hole_terms(c: Configuration) -> list[_Term]:
    dec = core(c)
    gamma, i, n = dec.gamma, dec.left_zeros, c.n
    terms = _shifted_sum_terms(gamma, i, n)
    z = gamma.index(0)
    alpha, beta = gamma[:z], gamma[z + 1 :]
    ell, p = len(alpha), sum(alpha)
    if i >= p - ell:
        # minus the corrective series coefficient of t**i
        t = _corrective_term(p, n - p, i + ell - p, one_hole_prefactor(alpha, beta))
        terms.append(_Term(-t.sign, t.qexp, t.brackets, t.binom))
    return terms


def a_one_hole(c: Configuration) -> QPoly:
    """Connected style sum plus one gated correction term.

    >>> a_one_hole(Configuration((0, 2, 1, 0, 3, 0))).coeffs
    (0, 0, 2, 8, 19, 36, 56, 72, 78, 72, 56, 36, 19, 8, 2)
    """
    if not classify(c).is_one_hole:
        raise WrongFamily(f"core of {c.c} does not have exactly one hole")
    return sum_terms(_one_hole_terms(c), c.c)


@dataclass(frozen=True)
class HitIndex:
    """A partition inside the staircase and a hit count to extract."""

    lam: tuple[int, ...]
    i: int
    n: int

    def __post_init__(self) -> None:
        lam = tuple(self.lam)
        n = self.n
        if n < 1:
            raise BadPartition("size must be positive")
        if any(x < 0 for x in lam):
            raise BadPartition(f"negative part in {lam}")
        if any(lam[k] < lam[k + 1] for k in range(len(lam) - 1)):
            raise BadPartition(f"{lam} is not weakly decreasing")
        if len(lam) > n and any(x > 0 for x in lam[n:]):
            raise BadPartition(f"{lam} has more than {n} parts")
        lam = (lam + (0,) * n)[:n]
        for k in range(n):
            if lam[k] > n - k:
                raise BadPartition(f"part {lam[k]} at row {k + 1} leaves the staircase")
        if not 0 <= self.i <= n:
            raise BadPartition(f"hit count {self.i} outside [0, {n}]")
        object.__setattr__(self, "lam", lam)

    def factor_offsets(self) -> list[int]:
        """The multiset of differences k - lam_{n+1-k} for k = 1..n."""
        return [k - self.lam[self.n - k] for k in range(1, self.n + 1)]


def q_hits(lam: tuple[int, ...], n: int) -> tuple[QPoly, ...]:
    """The q-hit numbers of lam in the staircase of size n, for i = 0..n.

    They are the coefficients of one generating series: core_series over
    the factor offsets in place of the core balls.  Its numerator series
    is a polynomial in t of degree at most n, so the truncation n + 1 is
    exact.
    """
    return _bracket_series(HitIndex(lam, 0, n).factor_offsets(), n, n + 1)


def q_hit(h: HitIndex) -> QPoly:
    """Coefficient extraction from the hit number generating identity (q_hits)."""
    return q_hits(h.lam, h.n)[h.i]


def hit_to_connected(h: HitIndex) -> tuple[tuple[int, ...], int, int]:
    """A connected core and shift whose polynomial is the hit number.

    The factor multiset of the hit identity is matched to the ball
    multiset of a core; the candidate is accepted only after checking
    polynomial equality, so a successful return is self certifying.
    Raises NoMatch when the hit number is zero or the match fails.
    """
    n = h.n
    offsets = sorted(h.factor_offsets())
    z = 1 if offsets[0] == 0 else 0
    shifted = [e + z for e in offsets]
    m = shifted[-1]
    if set(shifted) != set(range(1, m + 1)):
        raise NoMatch(f"factor offsets {offsets} are not an interval")
    gamma = tuple(shifted.count(a) for a in range(1, m + 1))
    shift = h.i - z
    if shift < 0 or shift > n - m:
        raise NoMatch(f"hit count {h.i} of {h.lam} has no matching placement")
    if a_connected(gamma, shift, n) != q_hit(h):
        raise NoMatch(f"candidate {gamma} at shift {shift} fails verification")
    return gamma, shift, n


@dataclass(frozen=True)
class CSParams:
    """Indices of the two sided q Eulerian triangle entry A(r,s|x,y)."""

    r: int
    s: int
    x: int
    y: int

    def __post_init__(self) -> None:
        if self.r < 0 or self.s < 0:
            raise ValueError("r and s must be nonnegative")
        if self.x < 1 or self.y < 1:
            raise ValueError("x and y must be positive")


def cs_configuration(p: CSParams) -> Configuration:
    """The configuration whose polynomial defines A(r,s|x,y)."""
    return Configuration(
        (0,) * p.r + (1,) * (p.y - 1) + (p.r + p.s + 1,) + (1,) * (p.x - 1) + (0,) * p.s
    )


def carlitz_scoville_q(p: CSParams) -> QPoly:
    """Closed form for the q analog of the two sided Eulerian numbers.

    >>> carlitz_scoville_q(CSParams(1, 1, 1, 1)).coeffs
    (0, 2, 2)
    """
    rs = p.r + p.s
    total = poly_sum(
        (
            -1 if (p.r + j) % 2 else 1,
            comb(p.r - j, 2),
            (q_binomial(j + p.x + p.y - 1, j), q_binomial(rs + p.x + p.y, p.r - j)),
            (j + p.y,) * rs,
        )
        for j in range(p.r + 1)
    )
    return require_nonnegative(total, p)


def _core_terms(c: Configuration, flags: ConfigFlags) -> list[_Term]:
    dec = core(c)
    return _shifted_sum_terms(dec.gamma, dec.left_zeros, c.n)


# The closed formula routes by expected term count, fewest first.  Each is
# (method name, family test on the flags of classify, terms of the formula
# for a configuration in the family and its flags).
ROUTES = (
    ("lukasiewicz", lambda f: f.is_lukasiewicz, lambda c, f: _luka_terms(c)),
    (
        "almost_lukasiewicz",
        lambda f: f.almost_defect is not None,
        lambda c, f: _almost_terms(c, f.almost_defect),
    ),
    ("connected", lambda f: f.is_connected, _core_terms),
    ("one_hole", lambda f: f.is_one_hole, lambda c, f: _one_hole_terms(c)),
    ("weakly_lukasiewicz", lambda f: f.is_weakly_lukasiewicz, _core_terms),
)


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
    for method, applies, build in ROUTES:
        if applies(flags):
            terms = tuple(build(c, flags))
            return EvalReport(method, sum_terms(terms, c.c), flags, terms)
    return EvalReport("induction", remixed_induction(c), flags)
