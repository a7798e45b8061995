import random
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from remixed import engine
from remixed.config import Configuration, all_configurations, left_to_right_order, reverse
from remixed.engine import (
    BadContent,
    drop_order_check,
    exact_sweep,
    remixed_exact,
    remixed_induction,
    success_probability,
)
from remixed.qcalc import InvariantViolation, kronecker_point, poly_reverse, q_factorial


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


def test_bounce_table_examples():
    # a ball bounced off a lone occupied site 1 can only go right
    assert _landing({1}, 1, 2) == (-1, 0b11, (1, 1))
    # free site: no entry, the drop step settles the ball there with the full scale
    assert _landing(set(), 3, 5) is None
    weights = engine._Weights(5, 2)
    assert engine._drop({0: 1}, 3, 5, weights, weights.scale) == {0b00100: weights.scale}
    # both branches live, into the holes at sites 1 and 4
    assert _landing({2, 3}, 3, 4) == (0b0111, 0b1110, (2, 1))
    # at q = 2: left q^2 [1] / [3] = 4/7, right [2] / [3] = 3/7
    weights = engine._Weights(4, 2)
    got = engine._drop({0b0110: 1}, 3, 4, weights, weights.scale)
    assert got == {0b0111: 4 * weights.scale // 7, 0b1110: 3 * weights.scale // 7}


def test_drop_lands_in_the_scanned_holes():
    # every state a drop can meet for n <= 10, at points with v = 1 and v != 1
    def bracket(k, q0):
        return sum(q0**i for i in range(k))

    for q0 in (Fraction(2), Fraction(1, 3)):
        for n in range(1, 11):
            weights = engine._Weights(n, q0)
            scale = weights.scale
            for mask in range(1 << n):
                occupied = {j for j in range(1, n + 1) if mask >> (j - 1) & 1}
                if len(occupied) == n:
                    continue
                for s in range(1, n + 1):
                    got = engine._drop({mask: 1}, s, n, weights, scale)
                    entry = _landing(occupied, s, n)
                    if entry is None:
                        assert got == {mask | 1 << (s - 1): scale}
                        continue
                    lt, rt, (a, b) = entry
                    # q^a [b]/[a+b] to the left and [a]/[a+b] to the right, times the scale
                    want = {
                        lt: q0**a * bracket(b, q0) / bracket(a + b, q0) * scale,
                        rt: bracket(a, q0) / bracket(a + b, q0) * scale,
                    }
                    want.pop(-1, None)
                    assert got == want, (n, mask, s, q0)


def test_bounce_weights_conserve_mass():
    # q^a [b] + [a] == [a+b]: a bounce loses no mass while both holes are on the line
    for q0 in (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(2), Fraction(5, 2)):
        for n in range(1, 8):
            weights = engine._Weights(n, q0)
            for a in range(1, n):
                for b in range(1, n - a + 1):
                    wl, wr = weights[a * (n + 1) + b]
                    assert wl + wr == weights.scale
                    left = q0**a * sum(q0**i for i in range(b)) / sum(q0**i for i in range(a + b))
                    assert Fraction(wl, weights.scale) == left


@given(st.integers(0, 12), st.integers(0, 6), st.integers(0, 6))
def test_brackets_match_defining_sum(n, u, v):
    want = [sum(u**i * v ** (k - 1 - i) for i in range(k)) for k in range(n + 1)]
    assert engine._brackets(n, u, v) == want


def test_drop_lanes_do_not_interact():
    # the sweep's residue lanes, walked together and reduced after every
    # drop, hold the exact single-point walks mod p, for any drop order
    rng = random.Random(29)
    for n in range(1, 8):
        pairs, scale, _, mod = engine._lane_weights(n)
        points = [engine._Weights(n, q0) for q0 in range(n * (n - 1) // 2 + 1)]
        cfgs = list(all_configurations(n))
        for c in rng.sample(cfgs, min(6, len(cfgs))):
            order = list(left_to_right_order(c))
            shuffled = order[:]
            rng.shuffle(shuffled)
            for walk in (tuple(order), tuple(shuffled)):
                dist = {0: np.ones(mod.size, np.int64)}
                for s in walk:
                    dist = engine._drop(dist, s, n, pairs, scale)
                    for lane in dist.values():
                        lane %= mod
                together = dist.get((1 << n) - 1, np.zeros(mod.size, np.int64)).tolist()
                alone = [engine._success_for_order(n, walk, w) % p for p in engine._PRIMES for w in points]
                assert together == alone, (c.c, walk)
        # a ball per site never bounces, so its walk builds no pair weights
        for q0 in (Fraction(0), Fraction(1, 3), Fraction(5, 2)):
            weights = engine._Weights(n, q0)
            assert engine._success_for_order(n, tuple(range(1, n + 1)), weights) == weights.scale**n
            assert len(weights) == 0


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
    assert remixed_exact(Configuration((1, 1, 1))) == q_factorial(3)
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
    for n in (9, 10, 12, 13, 21):
        cfgs = [(n,) + (0,) * (n - 1), (0,) * (n - 1) + (n,)]
        # and a few random weak compositions of n into n parts, below n = 21
        # where a random walk takes the oracle a few hundred ms
        while len(cfgs) < 4 and n < 21:
            cuts = sorted(rng.sample(range(1, 2 * n), n - 1))
            parts = []
            prev = 0
            for x in cuts + [2 * n]:
                parts.append(x - prev - 1)
                prev = x
            if sum(parts) == n:
                cfgs.append(tuple(parts))
        for ct in cfgs:
            c = Configuration(ct)
            assert remixed_exact(c) == remixed_induction(c)


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


def test_oracle_weights_shared_per_n():
    # every remixed_exact on n sites reads one set of weights, at the one
    # point x whose digits hold the coefficients; the sweep builds its own
    engine._oracle_weights.cache_clear()
    engine._lane_weights(4)
    assert engine._oracle_weights.cache_info().currsize == 0
    for ct in ((0, 2, 1, 1), (4, 0, 0, 0), (1, 1, 1, 1)):
        remixed_exact(Configuration(ct))
    info = engine._oracle_weights.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    weights = engine._oracle_weights(4)
    assert (weights.u, weights.v) == (kronecker_point(factorial(4)), 1)
    # only the pairs the walks met; (2, 2) never comes up
    assert set(weights) == {a * 5 + b for a, b in ((1, 1), (1, 2), (1, 3), (2, 1), (3, 1))}


def test_oracle_weights_memo_independent_of_query_order():
    cfgs = [c for n in range(1, 7) for c in all_configurations(n)]
    runs = []
    for order in (cfgs, cfgs[::-1]):
        engine._oracle_weights.cache_clear()
        runs.append({c.c: remixed_exact(c) for c in order})
    assert runs[0] == runs[1]


def test_sweep_primes_fit_every_allowed_n():
    p1, p2 = engine._PRIMES
    for n in range(1, engine.SWEEP_MAX_N + 1):
        assert factorial(n) < p1 * p2
        big_d = n * (n - 1) // 2
        for p in engine._PRIMES:
            # at most n products of two residues reach one mask in a drop,
            # and a row of the interpolation matrix sums D + 1 of them
            assert n * (p - 1) ** 2 < 2**63
            assert (big_d + 1) * (p - 1) ** 2 < 2**63
        for q0 in range(big_d + 1):
            for bracket in engine._brackets(n, q0)[1:]:
                assert bracket % p1 and bracket % p2, (n, q0)


def test_modular_interpolation_every_allowed_degree():
    # every D the sweep uses; at D = 45 the sums of D + 1 products come nearest 2**63
    rng = random.Random(53)
    for n in range(1, engine.SWEEP_MAX_N + 1):
        big_d, bound = n * (n - 1) // 2, factorial(n)
        polys = [[rng.randint(0, bound) for _ in range(big_d + 1)] for _ in range(6)]
        values = [[sum(c * q0**i for i, c in enumerate(cs)) for q0 in range(big_d + 1)] for cs in polys]
        vals = np.array([[[v % p for v in row] for p in engine._PRIMES] for row in values], np.int64)
        assert engine._crt(engine._interpolate_mod(vals)).tolist() == polys
        # the largest residue at every point is the constant polynomial p - 1
        top = np.array([[[p - 1] * (big_d + 1) for p in engine._PRIMES]], np.int64)
        want = [[p - 1] + [0] * big_d for p in engine._PRIMES]
        assert engine._interpolate_mod(top)[0].tolist() == want


def test_exact_sweep_rejects_n_above_cap(monkeypatch):
    def refuse(n):
        raise AssertionError("the sweep was started")

    monkeypatch.setattr(engine, "_sweep_residues", refuse)
    with pytest.raises(ValueError, match=f"at most {engine.SWEEP_MAX_N} sites"):
        exact_sweep(engine.SWEEP_MAX_N + 1)


def test_corrupt_residue_fails_range_check(monkeypatch):
    real = engine._sweep_residues

    def corrupt(n):
        keys, res = real(n)
        # one lane: the value mod the first prime at q = 2 of one configuration
        res[7, 0, 2] = (res[7, 0, 2] + 1) % engine._PRIMES[0]
        return keys, res

    monkeypatch.setattr(engine, "_sweep_residues", corrupt)
    with pytest.raises(InvariantViolation, match=r"outside \[0, 120\]"):
        exact_sweep(5)


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
        assert drop_order_check(c, (2, 4, 4, 2, 2), q0) == success_probability(c, q0)
        assert drop_order_check(c, left_to_right_order(c), q0) == success_probability(c, q0)
    with pytest.raises(BadContent):
        drop_order_check(Configuration((2, 0)), (1, 2), Fraction(1))
    with pytest.raises(ValueError):
        drop_order_check(c, (2, 4, 4, 2, 2), Fraction(-1, 2))


@given(st.integers(2, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_drop_order_invariance(n, data):
    c = data.draw(st.sampled_from(list(all_configurations(n))))
    order = list(left_to_right_order(c))
    data.draw(st.randoms(use_true_random=False)).shuffle(order)
    q0 = data.draw(st.sampled_from([Fraction(1, 3), Fraction(1), Fraction(2)]))
    assert drop_order_check(c, tuple(order), q0) == success_probability(c, q0)


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
