"""Scalar reference for the seeded drop simulator, one trial at a time.

remixed.simulate.simulate_batch advances many trials in lockstep on numpy
arrays; this module replays a single trial with plain ints and a dict of
site counts.  It imports nothing from the package and keeps its own
splitmix64 constants and left threshold, so a wrong constant in the
simulator cannot be shared by the reference it is checked against.
"""

from __future__ import annotations

from fractions import Fraction

MASK = (1 << 64) - 1
GOLD = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def mix(z: int) -> int:
    """splitmix64 output function on a 64-bit state."""
    z ^= z >> 30
    z = (z * MIX1) & MASK
    z ^= z >> 27
    z = (z * MIX2) & MASK
    z ^= z >> 31
    return z


class SplitMix64:
    """splitmix64: state advances by the golden gamma, output is mixed.

    >>> g = SplitMix64(0)
    >>> g.next_u64() == 0xE220A8397B1DCDAF
    True
    """

    def __init__(self, seed: int) -> None:
        self.state = seed & MASK

    def next_u64(self) -> int:
        self.state = (self.state + GOLD) & MASK
        return mix(self.state)


def subseed(seed: int, index: int) -> int:
    """Starting state of the derived stream for one trial.

    The master seed is advanced index + 1 golden steps and mixed once,
    which decorrelates neighbouring trial streams.
    """
    return mix((seed + GOLD * (index + 1)) & MASK)


def run_once(ct: tuple[int, ...], q0: Fraction, rng: SplitMix64, pick=min) -> frozenset[int]:
    """Settle one pile state by single site moves; return the support.

    Repeatedly takes the site that pick (min or max) chooses among those
    holding at least two balls and moves one of its balls left with
    probability q/(1+q), else right: a draw below floor(2**64 q/(1+q))
    steps left.  Sites outside [1, n] are ordinary sites, so the support
    may extend beyond the configuration.
    """
    q0 = Fraction(q0)
    thr = (q0.numerator << 64) // (q0.numerator + q0.denominator)
    counts = {i: x for i, x in enumerate(ct, start=1) if x}
    while True:
        over = [s for s, k in counts.items() if k >= 2]
        if not over:
            return frozenset(counts)
        s = pick(over)
        dest = s - 1 if rng.next_u64() < thr else s + 1
        counts[s] -= 1
        if counts[s] == 0:
            del counts[s]
        counts[dest] = counts.get(dest, 0) + 1


def replay(ct: tuple[int, ...], q0: Fraction, trials: int, seed: int, pick=min) -> list[bool]:
    """Success of each trial on its derived stream: the support is exactly [1, n]."""
    full = frozenset(range(1, len(ct) + 1))
    return [run_once(ct, q0, SplitMix64(subseed(seed, i)), pick) == full for i in range(trials)]
