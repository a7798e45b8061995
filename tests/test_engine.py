import hashlib
import inspect
import random
import re
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from remixed import engine, verify
from remixed.config import Configuration, all_configurations, left_to_right_order
from remixed.engine import (
    drop_order_check,
    exact_sweep,
    remixed_exact,
    remixed_induction,
    success_probability,
)
from remixed.qcalc import InvariantViolation, QPoly, kronecker_point, poly_reverse
from induction_reference import largest_site_induction
from series_reference import bracket_product_reference, poly_product


def _landing(occupied, s, n):
    """Where a ball dropped at site s over the occupied sites can land, by walking the line.

    None for a free site; otherwise the masks after landing in the nearest
    hole to the left and to the right, -1 where that hole is off the line,
    and the distances (a, b) to those holes, with sites 0 and n + 1 free.
    """
    if s not in occupied:
        return None
    a = next(d for d in range(1, s + 1) if s - d not in occupied)
    b = next(d for d in range(1, n + 2 - s) if s + d not in occupied)
    mask = sum(1 << (j - 1) for j in occupied)
    lt = mask | 1 << (s - a - 1) if s - a >= 1 else -1
    rt = mask | 1 << (s + b - 1) if s + b <= n else -1
    return lt, rt, (a, b)


def bracket(k, q0):
    return sum(q0**i for i in range(k))


def test_bounce_table_examples():
    # a ball bounced off a lone occupied site 1 can only go right
    assert _landing({1}, 1, 2) == (-1, 0b11, (1, 1))
    # free site: no bounce, the drop step settles the ball there over a step of 1
    assert _landing(set(), 3, 5) is None
    assert engine._drop({0: 7}, 3, 5, engine._point(5, 2)) == ({0b00100: 7}, 1)
    # both branches live, into the holes at sites 1 and 4
    assert _landing({2, 3}, 3, 4) == (0b0111, 0b1110, (2, 1))
    # at q = 2: left q^2 [1] / [3] = 4/7, right [2] / [3] = 3/7
    assert engine._drop({0b0110: 1}, 3, 4, engine._point(4, 2)) == ({0b0111: 4, 0b1110: 3}, 7)
    # a free site in the same step as a bounce takes the full step
    got = engine._drop({0b0110: 1, 0b0001: 2}, 3, 4, engine._point(4, 2))
    assert got == ({0b0111: 4, 0b1110: 3, 0b0101: 14}, 7)


def test_drop_lands_in_the_scanned_holes():
    # every state a drop can meet for n <= 10, at points with v = 1 and v != 1
    for q0 in (Fraction(2), Fraction(1, 3)):
        for n in range(1, 11):
            point = engine._point(n, q0)
            for mask in range(1 << n):
                occupied = {j for j in range(1, n + 1) if mask >> (j - 1) & 1}
                if len(occupied) == n:
                    continue
                for s in range(1, n + 1):
                    got, step = engine._drop({mask: 1}, s, n, point)
                    entry = _landing(occupied, s, n)
                    if entry is None:
                        assert (got, step) == ({mask | 1 << (s - 1): 1}, 1)
                        continue
                    lt, rt, (a, b) = entry
                    # q^a [b]/[a+b] to the left and [a]/[a+b] to the right, over the step
                    want = {
                        lt: q0**a * bracket(b, q0) / bracket(a + b, q0),
                        rt: bracket(a, q0) / bracket(a + b, q0),
                    }
                    want.pop(-1, None)
                    assert {to: Fraction(mass, step) for to, mass in got.items()} == want, (n, mask, s, q0)


def test_bounce_weights_conserve_mass():
    # q^a [b] + [a] == [a+b]: a bounce loses no mass while both holes are on
    # the line; here the holes are sites 1 and a + b + 1 around a ball at a + 1
    for q0 in (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(2), Fraction(5, 2)):
        for n in range(2, 9):
            point = engine._point(n, q0)
            for a in range(1, n - 1):
                for b in range(1, n - a):
                    mask = (1 << (a + b)) - 2
                    got, step = engine._drop({mask: 1}, a + 1, n, point)
                    assert got.keys() == {mask | 1, mask | 1 << (a + b)}
                    assert sum(got.values()) == step
                    assert Fraction(got[mask | 1], step) == q0**a * bracket(b, q0) / bracket(a + b, q0)


def test_one_ball_per_site_never_bounces():
    # every drop of this walk lands on a free site, so every step is 1
    for n in range(1, 9):
        for q0 in (Fraction(0), Fraction(1, 3), Fraction(5, 2), kronecker_point(factorial(n))):
            point = engine._point(n, q0)
            dist = {0: 1}
            for s in range(1, n + 1):
                dist, step = engine._drop(dist, s, n, point)
                assert step == 1
            assert dist == {(1 << n) - 1: 1}
            word = tuple(range(1, n + 1))
            assert list(engine._walk(n, point, [word])) == [(word, 1, 1)]


def test_walk_drops_each_prefix_once(monkeypatch):
    # the sweep's stream is lexicographic, so each of the C(k + 4, k)
    # nondecreasing prefixes of length k = 1..5 is dropped once: 251 drops,
    # where walking each of the 126 words from scratch would take 630
    calls = []
    real = engine._drop

    def drop(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(engine, "_drop", drop)
    exact_sweep(5)
    assert len(calls) == sum(comb(k + 4, k) for k in range(1, 6)) == 251


@given(st.integers(1, 6), st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(2)]), st.data())
@settings(max_examples=60, deadline=None)
def test_walk_matches_a_fold_of_drops_on_any_stream(n, q0, data):
    # words of n drops, in any order and with repeats, drawn from a small
    # pool so that consecutive words often share a prefix; at q = 0 a left
    # bounce carries no mass, so a word's mass can die out mid-word
    word = st.lists(st.integers(1, n), min_size=n, max_size=n).map(tuple)
    pool = data.draw(st.lists(word, min_size=1, max_size=4))
    words = data.draw(st.lists(st.sampled_from(pool), max_size=12))
    point = engine._point(n, q0)
    want = []
    for w in words:
        dist, den = {0: 1}, 1
        for s in w:
            dist, step = engine._drop(dist, s, n, point)
            den *= step
        want.append((w, dist.get((1 << n) - 1, 0), den))
    assert list(engine._walk(n, point, words)) == want


def test_every_drop_word_gives_the_value_of_its_content(oracle):
    # the success chance does not depend on the drop order: each of the
    # n^n words for n <= 6, 50069 in all, read at the oracle's point x
    for n in range(1, 7):
        table = oracle.table(n)
        point = engine._point(n, kronecker_point(factorial(n)))
        fact = prod(point[0][1:])
        for word, mass, den in engine._walk(n, point, product(range(1, n + 1), repeat=n)):
            ct = tuple(map(word.count, range(1, n + 1)))
            assert engine._lift(ct, engine._value(ct, mass, den, fact)) == table[ct], word


@given(st.integers(0, 12), st.integers(0, 6), st.integers(0, 6))
def test_brackets_match_defining_sum(n, u, v):
    want = [sum(u**i * v ** (k - 1 - i) for i in range(k)) for k in range(n + 1)]
    assert engine._brackets(n, u, v) == want


def test_success_probability_examples():
    assert success_probability(Configuration((1,)), Fraction(3)) == 1
    for q0 in (Fraction(0), Fraction(1), Fraction(2, 7)):
        assert success_probability(Configuration((2, 0)), q0) == Fraction(1, 1 + q0)
        assert success_probability(Configuration((1, 1, 1)), q0) == 1
    with pytest.raises(ValueError):
        success_probability(Configuration((2, 0)), Fraction(-1))


@given(st.integers(1, 6), st.data(), st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1), Fraction(5, 2)]))
@settings(max_examples=60, deadline=None)
def test_success_probability_in_unit_interval(n, data, q0):
    c = data.draw(st.sampled_from(list(all_configurations(n))))
    p = success_probability(c, q0)
    assert 0 <= p <= 1


def test_remixed_exact_examples():
    assert remixed_exact(Configuration((1, 1, 1))) == bracket_product_reference(range(1, 4))
    assert remixed_exact(Configuration((3, 0, 0, 2, 0))).coeffs == (1, 2, 3, 4, 3, 2, 1)
    assert remixed_exact(Configuration((0, 1, 2, 2, 0))).coeffs == (0, 0, 1, 5, 12, 18, 18, 12, 5, 1)


def test_remixed_induction_examples():
    assert remixed_induction(Configuration((1,))).coeffs == (1,)
    assert remixed_induction(Configuration((2, 0))).coeffs == (1,)
    assert remixed_induction(Configuration((1, 0, 3, 0, 1))).coeffs == (0, 2, 6, 12, 16, 18, 16, 12, 6, 2)


def test_oracle_agreement_small(oracle):
    for n in range(1, 6):
        for ct, want in oracle.table(n).items():
            c = Configuration(ct)
            assert remixed_exact(c) == want
            assert remixed_induction(c) == want


def test_oracle_agreement_sampled_large():
    # strides of 4, 8 and 9 bytes at n = 12, 13 and 21; 9 bytes takes the
    # per-digit read path of the one-point oracle
    rng = random.Random(11)
    for n, count in ((9, 2), (10, 2), (12, 2), (13, 2), (16, 10), (21, 10)):
        cfgs = [(n,) + (0,) * (n - 1), (0,) * (n - 1) + (n,)]
        # and count random weak compositions of n into n parts
        while len(cfgs) < 2 + count:
            cuts = sorted(rng.sample(range(1, 2 * n), n - 1))
            parts = []
            prev = 0
            for x in cuts + [2 * n]:
                parts.append(x - prev - 1)
                prev = x
            cfgs.append(tuple(parts))
        for ct in cfgs:
            c = Configuration(ct)
            assert remixed_exact(c) == remixed_induction(c), ct


def _uniform(rng, n):
    """A uniform random configuration of n balls on n sites, by stars and bars."""
    bars = sorted(rng.sample(range(2 * n - 1), n - 1))
    return tuple(b - a - 1 for a, b in zip([-1, *bars], [*bars, 2 * n - 1]))


def _halves(ct):
    """The configurations the last ball recursion splits ct into, and theirs, recursively.

    The ball at the fullest site, the leftmost of equals, drops last, as in
    engine._induction.
    """
    n = len(ct)
    u = ct.index(max(ct)) + 1
    d = list(ct)
    d[u - 1] -= 1
    out = set()
    for j in range(1, n + 1):
        if d[j - 1] == 0 and sum(d[: j - 1]) == j - 1:
            for half in (tuple(d[: j - 1]), tuple(d[j:])):
                if half and sum(half) == len(half):
                    out |= {half} | _halves(half)
    return out


def test_induction_memo_keeps_each_point_apart():
    # the recursion values every node of a call at that call's point, so a
    # split of a 13-site call (x = 2^64) is in the memo at 2^64 when it is
    # asked for again as a configuration of its own, at 2^32, 2^16 or 2^8
    engine._induction.cache_clear()
    top = Configuration((1, 0, 2, 0, 1, 1, 1, 2, 0, 1, 3, 0, 1))
    want = remixed_exact(top)
    halves = sorted(_halves(top.c))
    assert {kronecker_point(factorial(len(h))) for h in halves} == {2**8, 2**16, 2**32}
    assert remixed_induction(top) == want
    # the top level is never memoized: asking the memo for it misses once,
    # and every split it reads is a hit
    misses = engine._induction.cache_info().misses
    engine._induction(top.c, kronecker_point(factorial(top.n)))
    assert engine._induction.cache_info().misses == misses + 1
    for half in halves:
        c = Configuration(half)
        assert remixed_induction(c) == remixed_exact(c), half
        assert remixed_induction(top) == want
    rng = random.Random(24)
    cfgs = [(n,) + (0,) * (n - 1) for n in (20, 21)] + [(0,) * (n - 1) + (n,) for n in (20, 21)]
    for n in range(11, 17):
        cfgs += [_uniform(rng, n) for _ in range(20)]
    for ct in cfgs:
        c = Configuration(ct)
        assert remixed_induction(c) == remixed_exact(c), ct


def test_the_recursion_only_meets_balanced_tuples(monkeypatch):
    # a split at an empty site j with j - 1 balls to its left leaves j - 1
    # balls on j - 1 sites and the rest on the rest, so every tuple the
    # recursion asks for holds as many balls as sites
    real = engine._induction
    seen = []

    def recording(ct, x):
        seen.append(ct)
        return real(ct, x)

    recording.__wrapped__ = real.__wrapped__  # the uncached top call recurses through recording
    monkeypatch.setattr(engine, "_induction", recording)
    real.cache_clear()
    try:
        for n in range(1, 7):
            for c in all_configurations(n):
                assert remixed_induction(c) == remixed_exact(c), c.c
    finally:
        real.cache_clear()
    assert seen and all(sum(ct) == len(ct) for ct in seen)


def _piles(n):
    """The n balls piled on site 1, on the middle site and on site n."""
    return [tuple(n if i == s else 0 for i in range(n)) for s in (0, n // 2, n - 1)]


def test_any_occupied_site_can_drop_last():
    # the package drops the fullest site last, the reference the largest
    # occupied site: they split differently and agree by the abelian property
    rng = random.Random(46)
    cfgs = [c.c for n in range(1, 8) for c in all_configurations(n)]
    for n in range(20, 31, 2):
        cfgs += _piles(n) + [_uniform(rng, n) for _ in range(3)]
    for ct in cfgs:
        x = kronecker_point(factorial(len(ct)))
        assert engine._induction.__wrapped__(ct, x) == largest_site_induction.__wrapped__(ct, x), ct


def test_the_fullest_site_memoizes_fewer_splits_than_the_largest():
    rng = random.Random(13)
    cfgs = [_uniform(rng, n) for n in range(10, 14) for _ in range(25)]
    engine._induction.cache_clear()
    largest_site_induction.cache_clear()
    try:
        for ct in cfgs:
            c = Configuration(ct)
            x = kronecker_point(factorial(c.n))
            assert remixed_induction(c) == engine._lift(ct, largest_site_induction.__wrapped__(ct, x)), ct
        assert engine._induction.cache_info().currsize < largest_site_induction.cache_info().currsize
    finally:
        largest_site_induction.cache_clear()


def test_a_weight_from_the_largest_site_after_a_fullest_split_is_caught(oracle, monkeypatch):
    # the recursion splits at the fullest site but weighs the last ball as
    # if it started at the largest occupied site: the rule and the weight
    # must name the same ball.  _induction is rebuilt from its own source
    # into a copy of the module namespace, so the mutant recurses into itself.
    src = inspect.getsource(engine._induction)
    assert "_wt(n, j, u, x)" in src
    ns = dict(vars(engine))
    exec(src.replace("_wt(n, j, u, x)", "_wt(n, j, max(i for i, k in enumerate(ct, start=1) if k), x)"), ns)
    monkeypatch.setattr(engine, "_induction", ns["_induction"])
    wrong = [ct for n in range(1, 6) for ct, want in oracle.table(n).items() if remixed_induction(Configuration(ct)) != want]
    # 148 of the 175 configurations with n <= 5
    assert len(wrong) == 148
    assert not verify.verify_families(5, oracle.table)["passed"]
    # the two-rule comparison kills it too
    ct = wrong[0]
    x = kronecker_point(factorial(len(ct)))
    assert ns["_induction"].__wrapped__(ct, x) != largest_site_induction.__wrapped__(ct, x)


def test_exact_sweep_matches_per_config_evaluator(oracle):
    for n in range(1, 7):
        table = oracle.table(n)
        assert set(table) == {c.c for c in all_configurations(n)}
        for ct, want in table.items():
            assert remixed_exact(Configuration(ct)) == want
    rng = random.Random(5)
    for n in (7, 8):
        table = oracle.table(n)
        for ct in rng.sample(sorted(table), 12):
            assert remixed_exact(Configuration(ct)) == table[ct]


def test_exact_sweep_rejects_n_above_cap(monkeypatch):
    def refuse(*args):
        raise AssertionError("the sweep was started")

    monkeypatch.setattr(engine, "_drop", refuse)
    with pytest.raises(ValueError, match=f"at most {engine.SWEEP_MAX_N} sites"):
        exact_sweep(engine.SWEEP_MAX_N + 1)


def test_exact_sweep_needs_a_site():
    with pytest.raises(ValueError, match=re.escape("need at least one site")):
        exact_sweep(0)


def test_corrupt_leaf_mass_fails_integrality_check(monkeypatch):
    # one more unit of mass at one leaf: its denominator does not divide
    # [5]!(x), so the value is no longer an integer
    real = engine._value
    target = (1, 0, 4, 0, 0)

    def corrupt(ct, mass, den, fact):
        return real(ct, mass + (ct == target), den, fact)

    monkeypatch.setattr(engine, "_value", corrupt)
    with pytest.raises(InvariantViolation, match=r"non-integer value for \(1, 0, 4, 0, 0\)"):
        exact_sweep(5)


def test_one_unit_of_leaf_mass_fails_the_sweep(monkeypatch):
    # one more unit of mass on the full state of one leaf, at each of the
    # 126 leaves of n = 5 in turn: the value is no longer an integer, or it
    # is off by [5]!(x) / den, which the table's sum check sees even where
    # the leaf's digits stay plausible
    n, full = 5, 0b11111
    real = engine._drop

    def bump_leaf(target):
        """_drop with one more unit at the target-th leaf it reaches, and the leaves reached."""
        leaves = []

        def drop(*args):
            out, den = real(*args)
            if full in out:
                if len(leaves) == target:
                    out[full] += 1
                leaves.append(den)
            return out, den

        return drop, leaves

    drop, leaves = bump_leaf(None)
    monkeypatch.setattr(engine, "_drop", drop)
    exact_sweep(n)
    assert len(leaves) == comb(2 * n - 1, n) == 126
    for target in range(126):
        drop, leaves = bump_leaf(target)
        monkeypatch.setattr(engine, "_drop", drop)
        with pytest.raises(InvariantViolation):
            exact_sweep(n)
        assert len(leaves) > target


def test_a_word_that_never_fills_the_line_fails_the_sweep(monkeypatch):
    # the 40th leaf of n = 5 loses its full state: its word reads mass 0 and
    # stays out of the table, so the count of configurations catches it
    # before the Cat_n sum would
    n, full = 5, 0b11111
    real = engine._drop
    leaves = []

    def drop(*args):
        out, den = real(*args)
        if full in out:
            leaves.append(den)
            if len(leaves) == 40:
                del out[full]
        return out, den

    monkeypatch.setattr(engine, "_drop", drop)
    with pytest.raises(InvariantViolation, match="^1 configurations never filled the line$"):
        exact_sweep(n)
    assert len(leaves) == comb(2 * n - 1, n)


# sha256 of each exact_sweep(n) table's canonical text, one line
# "c_1,...,c_n:a_0,...,a_d" per configuration in sorted order, as
# perfbench/workloads.table_digest writes it
SWEEP_DIGESTS = {
    1: "a18736e88910bc168ddfd39a413f4b9323802c5a4303d33f74dd50dd5cfca72a",
    2: "07eef0891401a32005954ed14b41ce260b185e4bec993fc3a200260411619cc1",
    3: "5aa4afe8e78571800aafc98191c3d74c825463cbea5552c2b48081ee7c59aaa2",
    4: "c54ff870b61eee4a8ffdfc1af400517964f19597b21e2a5b820d61e2c8ff63e2",
    5: "98c9117172584ae04e94e30207091ae0921a7676375c5d9725a6dd3a680da416",
    6: "72e212abc1fc1379fb0c52dd0a41c3805ac7572bf0c8a4552af4191f81c6fb31",
    7: "2376ddb3c17f02363f4a9ea7c1f64bd445cba7291035022f3bcd85ba1c2fa250",
    8: "0295d63f5e4fa90edc6d440c6e5d3da15c493f4a2419734ddf0f219dd670bfb1",
}


def test_sweep_tables_are_pinned(oracle):
    for n, want in SWEEP_DIGESTS.items():
        table = oracle.table(n)
        lines = (",".join(map(str, ct)) + ":" + ",".join(map(str, table[ct].coeffs)) + "\n" for ct in sorted(table))
        text = "".join(lines)
        assert hashlib.sha256(text.encode()).hexdigest() == want, n
        # equal coefficients of one table are one int object
        coeffs = [a for poly in table.values() for a in poly.coeffs]
        assert len({id(a) for a in coeffs}) == len(set(coeffs)), n


def test_table_sums_to_catalan_times_q_factorial(oracle):
    # the identity exact_sweep checks at one point, as polynomials
    for n in range(1, 8):
        total = sum(oracle.table(n).values(), QPoly())
        catalan = QPoly((comb(2 * n, n) // (n + 1),))
        assert total == poly_product(bracket_product_reference(range(1, n + 1)), catalan), n


def test_palindromic_via_reverse(oracle):
    d = {n: n * (n - 1) // 2 for n in range(1, 7)}
    for n in range(1, 7):
        table = oracle.table(n)
        for ct, poly in table.items():
            rev = table[ct[::-1]]
            assert poly == poly_reverse(rev, d[n])


def test_nonnegative_coefficients(oracle):
    for n in range(1, 7):
        for poly in oracle.table(n).values():
            assert all(c >= 0 for c in poly.coeffs)


def test_eulerian_specialization():
    for n in range(1, 8):
        by_descents = [0] * n
        for sigma in permutations(range(n)):
            by_descents[sum(1 for k in range(n - 1) if sigma[k] > sigma[k + 1])] += 1
        for i in range(n):
            ct = (0,) * i + (n,) + (0,) * (n - 1 - i)
            assert remixed_induction(Configuration(ct)).evaluate(1) == by_descents[i]


def test_drop_order_examples():
    c = Configuration((0, 3, 0, 2, 0))
    for q0 in (Fraction(1, 3), Fraction(1), Fraction(2)):
        assert drop_order_check((2, 4, 4, 2, 2), q0) == success_probability(c, q0)
        assert drop_order_check(left_to_right_order(c), q0) == success_probability(c, q0)
    # an order of n balls fixes n sites: none at all, or a site off [1, n], is no order
    for order in [(), (1, 3), (0, 2), (2, 4, 4, 2, 6)]:
        with pytest.raises(ValueError):
            drop_order_check(order, Fraction(1))
    with pytest.raises(ValueError):
        drop_order_check((2, 4, 4, 2, 2), Fraction(-1, 2))


@given(st.integers(2, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_drop_order_invariance(n, data):
    c = data.draw(st.sampled_from(list(all_configurations(n))))
    order = list(left_to_right_order(c))
    data.draw(st.randoms(use_true_random=False)).shuffle(order)
    q0 = data.draw(st.sampled_from([Fraction(1, 3), Fraction(1), Fraction(2)]))
    assert drop_order_check(tuple(order), q0) == success_probability(c, q0)


def test_degree_bound():
    for n in range(1, 6):
        for c in all_configurations(n):
            poly = remixed_induction(c)
            deg = poly.degree()
            assert deg is None or deg <= n * (n - 1) // 2


def test_total_mass_at_q_one(oracle):
    # summing A_c(1) over single-site configurations recovers n! spread over descents
    for n in range(1, 7):
        total = sum(
            oracle.value((0,) * i + (n,) + (0,) * (n - 1 - i)).evaluate(1) for i in range(n)
        )
        assert total == factorial(n)
