import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import remixed.simulate
from remixed.config import Configuration
from remixed.engine import success_probability
from remixed.simulate import SimResult, estimate_success, left_threshold, simulate_batch
from scalar_sim import GOLD, MASK, MIX1, MIX2, SplitMix64, mix, replay, run_once, subseed


def test_splitmix_known_output():
    g = SplitMix64(0)
    assert g.next_u64() == 0xE220A8397B1DCDAF
    assert all(0 <= g.next_u64() < (1 << 64) for _ in range(100))


def test_splitmix_deterministic():
    a, b = SplitMix64(42), SplitMix64(42)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]
    c = SplitMix64(43)
    assert [SplitMix64(42).next_u64()] != [c.next_u64()]


def test_subseed_is_stream_output():
    # the derived seed for trial i is the (i+1)-th output of the master stream
    for seed in (0, 7, 2**64 - 1):
        g = SplitMix64(seed)
        outs = [g.next_u64() for _ in range(5)]
        assert [subseed(seed, i) for i in range(5)] == outs


def test_left_threshold_values():
    assert left_threshold(Fraction(0)) == 0
    assert left_threshold(Fraction(1)) == 1 << 63
    assert left_threshold(Fraction(1, 2)) == (1 << 64) // 3
    assert left_threshold(Fraction(2)) == (2 << 64) // 3
    with pytest.raises(ValueError):
        left_threshold(Fraction(-1, 2))


def test_left_threshold_monotone():
    qs = [Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(3), Fraction(100)]
    ts = [left_threshold(q) for q in qs]
    assert ts == sorted(ts)
    assert all(0 <= t < (1 << 64) for t in ts)


def test_run_once_stable_configuration():
    # one ball per site: nothing moves, no randomness consumed
    g = SplitMix64(1)
    assert run_once((1, 1, 1), Fraction(5), g) == frozenset({1, 2, 3})
    assert g.state == 1


def test_run_once_forced_direction():
    # q = 0 never steps left
    assert run_once((2, 0), Fraction(0), SplitMix64(3)) == frozenset({1, 2})
    assert run_once((0, 2), Fraction(0), SplitMix64(3)) == frozenset({2, 3})


def from_bars(n, bars):
    """Stars and bars: the configuration whose n - 1 bars take these of 2n - 1 slots."""
    edges = [-1, *sorted(bars), 2 * n - 1]
    return Configuration(tuple(b - a - 1 for a, b in zip(edges, edges[1:])))


@st.composite
def configurations(draw, nmax=7):
    n = draw(st.integers(1, nmax))
    return from_bars(n, draw(st.lists(st.integers(0, 2 * n - 2), min_size=n - 1, max_size=n - 1, unique=True)))


@given(
    configurations(),
    st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1), Fraction(2), Fraction(5, 2)]),
    st.integers(1, 200),
    st.integers(0, 2**64 - 1),
)
@example(Configuration((0, 3, 0)), Fraction(1, 2), 50, 123)
@settings(max_examples=60, deadline=None)
def test_batch_matches_scalar_replay(c, q0, trials, seed):
    flags = simulate_batch(c, q0, trials, seed)
    assert flags.tolist() == replay(c.c, q0, trials, seed)


# success count and sha256 of np.packbits(flags), measured on the
# unchunked lockstep loop that preceded the padded-board kernel
PINNED = [
    ((0, 3, 0, 2, 0), Fraction(1, 3), 100000, 7, 48752,
     "dc86ebcb9c2b47e725273a2769897cae758f8431f7e03a7ed689a017638e59a6"),
    ((1, 0, 0, 0, 1, 0, 5, 1, 1, 1), Fraction(1), 100000, 11, 10224,
     "56ba58d55ac671ee8cd10bd3d6cdd41642f1d74a867b1bc77386ce753b738564"),
    ((0, 0, 6, 0, 0, 0), Fraction(2), 70001, 3, 3315,
     "e552f24fa1bc500d4e825362d06f8f416438d33a6599a236ec131ca21fda9e61"),
    ((2, 0, 1), Fraction(0), 65537, 5, 65537,
     "4a2ded451f3c865cfa5be7befcf305399136c8ca73378a03d8e9dd76c15adf7d"),
    ((1, 0, 1, 1, 1, 1, 1, 2), Fraction(5, 2), 100000, 2**64 - 1, 59870,
     "e60849bb951def99094d791e9fa54db50f49c0acbdad4d51887eb8079893f1a8"),
]


@pytest.mark.parametrize("ct, q0, trials, seed, successes, digest", PINNED)
def test_batch_flags_pinned(ct, q0, trials, seed, successes, digest):
    flags = simulate_batch(Configuration(ct), q0, trials, seed)
    assert int(flags.sum()) == successes
    assert hashlib.sha256(np.packbits(flags).tobytes()).hexdigest() == digest


# configurations of size 1, 3, 3, 5 and 8 under the leftmost pick rule; the
# ids are fixed names, so a case keeps its name when cases are added
CHUNK_CASES = [
    pytest.param((1,), Fraction(1), 5, 3, id="ct0-q00-5-3-leftmost"),
    pytest.param((1, 1, 1), Fraction(2), 70, 4, id="ct1-q01-70-4-leftmost"),
    pytest.param(
        (2, 0, 1), Fraction(1), 150, 10998879148792154828,
        id="ct2-q02-150-10998879148792154828-leftmost",
    ),
    pytest.param(
        (3, 1, 0, 1, 0), Fraction(5, 3), 150, 1309646843750787229,
        id="ct4-q04-150-1309646843750787229-leftmost",
    ),
    pytest.param(
        (4, 0, 2, 0, 0, 0, 0, 2), Fraction(8, 3), 150, 1349131656751904025,
        id="ct6-q06-150-1349131656751904025-leftmost",
    ),
]


# ahead 0 leaves every chain open, so a refilled pool walks it a move a gather
@pytest.mark.parametrize(
    "chunk, ahead",
    [pytest.param(chunk, None, id=str(chunk)) for chunk in (1, 3, 64)]
    + [pytest.param(chunk, 0, id=f"{chunk}-ahead0") for chunk in (1, 3, 64)],
)
@pytest.mark.parametrize("ct, q0, trials, seed", CHUNK_CASES)
def test_flags_do_not_depend_on_chunk(monkeypatch, chunk, ahead, ct, q0, trials, seed):
    c = Configuration(ct)
    default = simulate_batch(c, q0, trials, seed)
    assert default.tolist() == replay(ct, q0, trials, seed)
    monkeypatch.setattr(remixed.simulate, "_CHUNK", chunk)
    if ahead is not None:
        monkeypatch.setattr(remixed.simulate, "_AHEAD", ahead)
    assert simulate_batch(c, q0, trials, seed).tolist() == default.tolist()


@pytest.mark.parametrize("q0", [Fraction(1, 1000), Fraction(1000)])
def test_batch_replays_a_site_beyond_int8(q0):
    # 128 balls on one site do not fit int8; at q = 1/1000 every trial
    # succeeds and at q = 1000 every one fails, so a count that wrapped
    # shows either way
    c = Configuration((128,) + (0,) * 127)
    assert simulate_batch(c, q0, 8, 21).tolist() == replay(c.c, q0, 8, 21)


@pytest.mark.parametrize("q0", [Fraction(1, 1000), Fraction(1000)])
def test_batch_replays_a_count_beyond_one_byte(q0):
    # 256 balls on one site need board cells wider than a byte; a cell one
    # bit too narrow carries into its neighbour and moves the first pick
    c = Configuration((256,) + (0,) * 255)
    assert simulate_batch(c, q0, 4, 21).tolist() == replay(c.c, q0, 4, 21)


def test_parked_trials_on_the_first_move(monkeypatch):
    # every move from (0, 2) ends the trial: all rows park on the first move
    # of each of two chunks, the second one short
    monkeypatch.setattr(remixed.simulate, "_CHUNK", 16)
    for q0 in (Fraction(0), Fraction(1000)):
        assert simulate_batch(Configuration((0, 2)), q0, 27, 5).tolist() == replay((0, 2), q0, 27, 5)


def test_one_pool_runs_one_tail(monkeypatch):
    # freed rows take the next trials, so the rows a move steps never rise:
    # the batch drains once, not once a chunk of _CHUNK trials
    sizes = []
    mix = remixed.simulate._mix_np

    def counted(x, out, tmp):
        if out is not x:  # seeding mixes in place, a move does not
            sizes.append(x.size)
        mix(x, out, tmp)

    monkeypatch.setattr(remixed.simulate, "_CHUNK", 16)
    monkeypatch.setattr(remixed.simulate, "_mix_np", counted)
    ct = (0,) * 5 + (12,) + (0,) * 6
    assert simulate_batch(Configuration(ct), Fraction(1), 200, 8).tolist() == replay(ct, Fraction(1), 200, 8)
    assert sizes and all(a >= b for a, b in zip(sizes, sizes[1:]))


# the same middle pile of 12 balls on 12 sites as the pool test: a closure of 928 states
PILE_12 = (0,) * 5 + (12,) + (0,) * 6
# 16 balls in the middle of 16 sites: a closure of 3013 states, past the cap
PILE_16 = (0,) * 7 + (16,) + (0,) * 8


@pytest.mark.parametrize("cap", [0, 5, None])
@pytest.mark.parametrize(
    "ct, q0, trials, seed", [*CHUNK_CASES, pytest.param(PILE_12, Fraction(1), 200, 8, id="pile12-q1-200-8")]
)
def test_flags_do_not_depend_on_the_explore_cap(monkeypatch, cap, ct, q0, trials, seed):
    # cap 0 explores only the moves asked for, a move when a trial first takes it
    if cap is not None:
        monkeypatch.setattr(remixed.simulate, "_AHEAD", cap)
    assert simulate_batch(Configuration(ct), q0, trials, seed).tolist() == replay(ct, q0, trials, seed)


def counted_explores(monkeypatch):
    """Patch _Chain.explore to record the chain's size after each call; return that list."""
    sizes = []
    explore = remixed.simulate._Chain.explore

    def counted(chain, edges):
        explore(chain, edges)
        sizes.append(len(chain))

    monkeypatch.setattr(remixed.simulate._Chain, "explore", counted)
    return sizes


@pytest.mark.parametrize(
    "ct, q0, trials, seeds",
    [
        ((0, 3, 0, 2, 0), Fraction(1, 3), 300, [7]),
        # a lone trial may step right to (1, 2, 0), back left to the start and
        # then take the start's other move, which its first move did not take
        ((2, 1, 0), Fraction(1), 1, range(16)),
    ],
)
def test_a_chain_under_the_cap_is_explored_once(monkeypatch, ct, q0, trials, seeds):
    # the chain is built to its closure once, when it is made: no move of
    # the batch explores it again
    assert len(remixed.simulate._Chain(ct)) < remixed.simulate._AHEAD
    sizes = counted_explores(monkeypatch)
    for seed in seeds:
        assert simulate_batch(Configuration(ct), q0, trials, seed).tolist() == replay(ct, q0, trials, seed)
    assert sizes == []


def test_a_chain_past_the_cap_is_explored_lazily(monkeypatch):
    # the chain is built to the cap, and moves add states as trials reach them
    assert len(remixed.simulate._Chain(PILE_16)) == remixed.simulate._AHEAD
    sizes = counted_explores(monkeypatch)
    assert simulate_batch(Configuration(PILE_16), Fraction(2), 200, 11).tolist() == replay(
        PILE_16, Fraction(2), 200, 11
    )
    assert len(sizes) > 1 and sizes[-1] > remixed.simulate._AHEAD and sizes == sorted(sizes)
    reached = sizes[-1]
    # the closure: 3011 board states and the two absorbing ids
    monkeypatch.setattr(remixed.simulate, "_AHEAD", remixed.simulate._CHUNK)
    assert reached <= len(full_chain(PILE_16)[0]) == 3013


def test_an_open_chain_steps_each_move_once(monkeypatch):
    # a pool of 16 rows refilled through 200 trials on a chain explored only
    # as trials reach it: the chain keeps every state and every move explored
    monkeypatch.setattr(remixed.simulate, "_AHEAD", 0)
    monkeypatch.setattr(remixed.simulate, "_CHUNK", 16)
    stepped, chains = [], set()
    step = remixed.simulate._Chain._step

    def counted(chain, e):
        stepped.append((chain.boards[e >> 1], e & 1))
        chains.add(chain)
        return step(chain, e)

    monkeypatch.setattr(remixed.simulate._Chain, "_step", counted)
    assert simulate_batch(Configuration(PILE_16), Fraction(2), 200, 11).tolist() == replay(
        PILE_16, Fraction(2), 200, 11
    )
    assert stepped and len(set(stepped)) == len(stepped)
    # at most the closure of test_a_chain_past_the_cap_is_explored_lazily
    (chain,) = chains
    assert len(chain) <= 3013


@given(
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64),
    st.integers(0, 2**31 - 1).map(lambda top: top << 33),
)
@example([0, 2**64 - 1, 2**63, 2**63 - 1, 2**62 - 1], 0)
@example([0, 2**64 - 1, 2**63, 2**63 - 1, 2**62 - 1], 2**62)
@example([0, 2**64 - 1, 2**63, 2**63 - 1, 2**62 - 1], 2**63)
@settings(max_examples=200, deadline=None)
def test_the_last_round_cannot_cross_a_threshold_with_low_33_bits_zero(xs, thr):
    # z ^= z >> 31 keeps the top 31 bits of z, all that z >= thr reads
    x = np.array(xs, dtype=np.uint64)
    z, tmp = np.empty_like(x), np.empty_like(x)
    remixed.simulate._mix_np(x, z, tmp)
    truncated = (z >= np.uint64(thr)).tolist()
    remixed.simulate._last_round(z, tmp)
    assert z.tolist() == [mix(v) for v in xs]
    assert (z >= np.uint64(thr)).tolist() == truncated


def unmix(z):
    """The state x with mix(x) == z: each step of mix is a bijection of 64-bit words."""
    for k, m in ((31, None), (27, MIX2), (30, MIX1)):
        if m:
            z = z * pow(m, -1, 1 << 64) & MASK
        x = z
        for _ in range(64 // k + 1):
            x = z ^ (x >> k)
        z = x
    return z


# left_threshold((2^31 + 1) / (2^31 - 1)) is 2^63 + 2^32: its low 32 bits are
# 0, not its low 33, and the last round flips bit 32 of a draw of 2^63 or more
@pytest.mark.parametrize("q0", [Fraction(2), Fraction(5, 2), Fraction(2**31 + 1, 2**31 - 1)])
def test_the_last_round_decides_a_draw_next_to_the_threshold(q0):
    # a draw that shares its top 31 bits with the threshold may cross it in
    # the last round, about once in 2^31 draws: pick one, and a seed whose
    # trial 0 draws it first
    thr = left_threshold(q0)
    top = thr >> 33 << 33
    # d ^ (d >> 31) ^ (d >> 62) is the draw d before its last round
    window = range(top, top + (1 << 33), 1 << 26)
    draw = next(d for d in window if (d >= thr) != (d ^ (d >> 31) ^ (d >> 62) >= thr))
    state = (unmix(draw) - GOLD) & MASK
    seed = (unmix(state) - GOLD) & MASK
    assert subseed(seed, 0) == state and SplitMix64(state).next_u64() == draw
    # from (0, 2) a left move settles the board and a right one spills a ball
    flags = simulate_batch(Configuration((0, 2)), q0, 1, seed).tolist()
    assert flags == [draw < thr] == replay((0, 2), q0, 1, seed)


def full_chain(ct):
    """The simulator's chain of ct as it is built, and the states it reaches.

    The closure must fit under the cap, so that the chain is closed when it
    is built: it holds exactly the states the start reaches.
    """
    chain = remixed.simulate._Chain(ct)
    start = remixed.simulate._START
    states, frontier = {start}, [start]
    while frontier:
        reached = [int(chain.table[2 * i + d]) for i in frontier for d in (0, 1)]
        assert remixed.simulate._UNSEEN not in reached
        frontier = {j >> 1 for j in reached if j >> 1 >= start} - states
        states |= frontier
    assert chain.closed and sorted(states) == list(range(start, len(chain)))
    return chain, sorted(states)


def absorption(chain, states, p):
    """Chance the chain ends on the settled id from the start, stepping left with chance p."""
    fail, settled = remixed.simulate._FAIL, remixed.simulate._SETTLED
    col = {i: k for k, i in enumerate(states)}
    rows = []
    # x_i - p x_L - (1 - p) x_R = the weight of the moves into the settled id,
    # the two absorbing ids read as x = 0 and 1 whatever their table rows hold
    for i in states:
        row = [Fraction(0)] * (len(states) + 1)
        row[col[i]] += 1
        for d, w in ((0, p), (1, 1 - p)):
            j = int(chain.table[2 * i + d]) >> 1
            assert chain.table[2 * i + d] != remixed.simulate._UNSEEN
            if j == settled:
                row[-1] += w
            elif j != fail:
                row[col[j]] -= w
        rows.append(row)
    for k in range(len(rows)):
        pivot = next(r for r in range(k, len(rows)) if rows[r][k])
        rows[k], rows[pivot] = rows[pivot], rows[k]
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for r in range(len(rows)):
            if r != k and rows[r][k]:
                f = rows[r][k]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[k])]
    return rows[col[remixed.simulate._START]][-1]


def test_chain_law_is_the_exact_success_probability():
    # at q in {1, 1/3, 3}, q / (1 + q) is dyadic and left_threshold(q) / 2^64
    # is exactly it, so the chain's absorption law must equal the oracle's
    cells, largest = 0, 0
    for n in range(1, 6):
        for bars in itertools.combinations(range(2 * n - 1), n - 1):
            c = from_bars(n, bars)
            if max(c.c) < 2:
                continue
            chain, states = full_chain(c.c)
            largest = max(largest, len(states))
            for q0 in (Fraction(1), Fraction(1, 3), Fraction(3)):
                p = Fraction(left_threshold(q0), 1 << 64)
                assert p == q0 / (1 + q0)
                assert absorption(chain, states, p) == success_probability(c, q0), (c.c, q0)
                cells += 1
    assert cells == 510 and largest <= 30


# a Mersenne prime: the n = 6 chains are solved mod it, since dense Fraction
# elimination (absorption) over their 1383 cells takes some 18 s, this 0.4 s
_PRIME = (1 << 61) - 1


def residue(x):
    """The Fraction x mod _PRIME."""
    return x.numerator * pow(x.denominator, -1, _PRIME) % _PRIME


def absorption_mod(chain, states, p):
    """absorption() mod _PRIME by Gauss-Jordan on sparse rows, p the residue of the left chance."""
    fail, settled = remixed.simulate._FAIL, remixed.simulate._SETTLED
    rows = {}
    # row i maps a state to its coefficient and None to the right-hand side
    for i in states:
        row = {i: 1, None: 0}
        for d, w in ((0, p), (1, 1 - p)):
            j = int(chain.table[2 * i + d]) >> 1
            if j == settled:
                row[None] += w
            elif j != fail:
                row[j] = row.get(j, 0) - w
        rows[i] = row
    for k in states:
        inv = pow(rows[k][k], -1, _PRIME)
        pivot = rows[k] = {j: v * inv % _PRIME for j, v in rows[k].items()}
        for i in states:
            f = rows[i].pop(k, 0) if i != k else 0
            if f:
                row = rows[i]
                for j, v in pivot.items():
                    if j != k:
                        row[j] = (row.get(j, 0) - f * v) % _PRIME
    return rows[remixed.simulate._START][None] % _PRIME


def test_chain_law_is_the_exact_success_probability_at_six_sites():
    # the n <= 5 check above, on every n = 6 configuration with a pile
    cells, largest = 0, 0
    for bars in itertools.combinations(range(11), 5):
        c = from_bars(6, bars)
        if max(c.c) < 2:
            continue
        chain, states = full_chain(c.c)
        largest = max(largest, len(states))
        for q0 in (Fraction(1), Fraction(1, 3), Fraction(3)):
            p = Fraction(left_threshold(q0), 1 << 64)
            assert p == q0 / (1 + q0)
            assert absorption_mod(chain, states, residue(p)) == residue(success_probability(c, q0)), (c.c, q0)
            cells += 1
    assert cells == 1383 and largest == 56


def test_batch_argument_validation():
    c = Configuration((2, 0))
    with pytest.raises(ValueError):
        simulate_batch(c, Fraction(1), 0, 1)
    with pytest.raises(ValueError):
        simulate_batch(c, Fraction(-1), 10, 1)


def test_estimate_exact_on_certain_configurations():
    res = estimate_success(Configuration((1, 1, 1)), Fraction(2), 500, 9)
    assert res.successes == 500 and res.estimate == 1
    res = estimate_success(Configuration((2, 0)), Fraction(0), 500, 9)
    assert res.estimate == 1
    # huge q: the doubled site almost surely spills out on the left
    res = estimate_success(Configuration((2, 0)), Fraction(10**6), 200, 9)
    assert res.successes <= 3


def test_estimate_within_five_sigma():
    cases = [
        (Configuration((2, 0)), Fraction(1), 4000, 17),
        (Configuration((0, 3, 0)), Fraction(1, 2), 4000, 18),
        (Configuration((2, 0, 1)), Fraction(2), 4000, 19),
    ]
    for c, q0, trials, seed in cases:
        p = success_probability(c, q0)
        sigma = math.sqrt(float(p * (1 - p)) / trials)
        res = estimate_success(c, q0, trials, seed)
        assert abs(float(res.estimate - p)) <= 5 * sigma


def test_pick_rules_equivalent_in_distribution():
    # the scalar reference moves the leftmost or the rightmost overloaded
    # site; either rule gives the success probability of the exact engine
    c = Configuration((0, 3, 0, 2, 0))
    q0 = Fraction(1)
    p = success_probability(c, q0)
    trials = 4000
    sigma = math.sqrt(float(p * (1 - p)) / trials)
    for pick, seed in ((min, 5), (max, 6)):
        est = sum(replay(c.c, q0, trials, seed, pick)) / trials
        assert abs(est - float(p)) <= 5 * sigma


def test_estimate_reproducible():
    a = estimate_success(Configuration((0, 2, 2, 0)), Fraction(1, 3), 300, 11)
    b = estimate_success(Configuration((0, 2, 2, 0)), Fraction(1, 3), 300, 11)
    assert a == b


def test_sim_result_json():
    res = estimate_success(Configuration((2, 0)), Fraction(1, 2), 10, 255)
    data = res.to_json()
    assert data == {
        "trials": 10,
        "successes": res.successes,
        "q": "1/2",
        "seed": "0xff",
    }


def test_batch_dtype_and_shape():
    flags = simulate_batch(Configuration((2, 0)), Fraction(1), 37, 2)
    assert flags.shape == (37,) and flags.dtype == np.bool_


def piles(nmax=6):
    """Every configuration of at most nmax sites holding two balls or more on one site."""
    for n in range(1, nmax + 1):
        for bars in itertools.combinations(range(2 * n - 1), n - 1):
            c = from_bars(n, bars)
            if max(c.c) >= 2:
                yield c


def unseen_reachable(chain):
    """Whether a move the chain's table holds as unseen is reachable from the start."""
    start = remixed.simulate._START
    states, frontier = {start}, [start]
    while frontier:
        reached = [int(chain.table[2 * i + d]) for i in frontier for d in (0, 1)]
        if remixed.simulate._UNSEEN in reached:
            return True
        frontier = {j >> 1 for j in reached if j >> 1 >= start} - states
        states |= frontier
    return False


@pytest.mark.parametrize("cap", [None, 8])
def test_a_chain_is_closed_once_no_unseen_move_is_reachable(monkeypatch, cap):
    # under the default cap every one of these chains closes when it is
    # built; a cap of 8 states leaves the larger ones open
    if cap is not None:
        monkeypatch.setattr(remixed.simulate, "_AHEAD", cap)
    outcomes = set()
    for c in piles():
        chain = remixed.simulate._Chain(c.c)
        assert chain.closed == (not unseen_reachable(chain)), c.c
        outcomes.add(chain.closed)
        if cap is None:
            full_chain(c.c)
    assert outcomes == ({True} if cap is None else {True, False})


def test_the_16_ball_pile_stays_open_past_the_cap(monkeypatch):
    chain = remixed.simulate._Chain(PILE_16)
    assert len(chain) == remixed.simulate._AHEAD and not chain.closed and unseen_reachable(chain)
    # an open chain is walked a move a gather, probing for unseen moves
    composed = []
    monkeypatch.setattr(remixed.simulate._Chain, "ahead", lambda chain, k: composed.append(k))
    assert simulate_batch(Configuration(PILE_16), Fraction(2), 200, 11).tolist() == replay(
        PILE_16, Fraction(2), 200, 11
    )
    assert not composed


def test_a_closed_chain_is_composed_once_a_batch(monkeypatch):
    composed = []
    ahead = remixed.simulate._Chain.ahead

    def counted(chain, k):
        composed.append(k)
        return ahead(chain, k)

    monkeypatch.setattr(remixed.simulate._Chain, "ahead", counted)
    ct = (0, 3, 0, 2, 0)
    flags = simulate_batch(Configuration(ct), Fraction(1, 3), 3000, 7)
    assert flags.tolist() == replay(ct, Fraction(1, 3), 3000, 7)
    assert composed == [remixed.simulate._MOVES]


@pytest.mark.parametrize("k", sorted({1, 2, remixed.simulate._MOVES}))
def test_the_composed_table_is_k_single_gathers(k):
    fail, settled = remixed.simulate._FAIL, remixed.simulate._SETTLED
    for c in piles():
        chain = remixed.simulate._Chain(c.c)
        ids = np.arange(len(chain))
        composed = chain.ahead(k)
        assert composed.shape == (len(chain) << k,)
        for w in range(1 << k):
            # the first move's direction is the highest bit of w
            e = 2 * ids
            for j in reversed(range(k)):
                e = chain.table[e + (w >> j & 1)]
            assert composed[(ids << k) + w].tolist() == e.tolist(), (c.c, w)
            assert composed[(fail << k) + w] == 2 * fail and composed[(settled << k) + w] == 2 * settled


# left_threshold(1 / 2^64) is 0: every move steps right though q > 0
@pytest.mark.parametrize("q0", [Fraction(0), Fraction(1, 1 << 64)])
@pytest.mark.parametrize(
    "ct, trials, seed",
    [(ct, trials, seed) for ct, _, trials, seed in (p.values for p in CHUNK_CASES)] + [(PILE_12, 200, 8)],
)
def test_a_zero_threshold_draws_nothing(monkeypatch, q0, ct, trials, seed):
    assert left_threshold(q0) == 0
    mixed = []
    mix = remixed.simulate._mix_np

    def counted(x, out, tmp):
        mixed.append(x.size)
        mix(x, out, tmp)

    monkeypatch.setattr(remixed.simulate, "_mix_np", counted)
    assert simulate_batch(Configuration(ct), q0, trials, seed).tolist() == replay(ct, q0, trials, seed)
    assert not mixed


# success count and sha256 of np.packbits(flags), measured on the kernel
# that still seeded and drew every trial's stream at q = 0
PINNED_ZERO_THRESHOLD = [
    ((1, 0, 0, 0, 1, 0, 5, 1, 1, 1), Fraction(0), 100000, 11, 0,
     "cbb9cbe95ae2de59b3651c6285d8e5c18a54cc806df29ddef5b5faecb0b15976"),
]


@pytest.mark.parametrize("ct, q0, trials, seed, successes, digest", PINNED_ZERO_THRESHOLD)
def test_batch_flags_pinned_at_a_zero_threshold(ct, q0, trials, seed, successes, digest):
    flags = simulate_batch(Configuration(ct), q0, trials, seed)
    assert int(flags.sum()) == successes
    assert hashlib.sha256(np.packbits(flags).tobytes()).hexdigest() == digest
