"""Seeded Monte Carlo simulation of the single site drop dynamics.

A trial starts from the raw pile state of the configuration and settles
it one ball and one site at a time: it takes the leftmost site holding at
least two balls and moves one of them left with probability q/(1+q),
else right.  Sites outside [1, n] are ordinary sites, and the trial
succeeds when the balls end on one site each of [1, n].  The simulator
is deliberately primitive, so it shares no code with the exact engine it
checks.

All randomness comes from splitmix64, a small counter based 64-bit
generator with published constants, which gives bit identical runs on
every platform.  Trial i (from 0) owns a stream whose state starts at
output i + 1 of the master stream on seed, so batches can be cut
anywhere without changing outcomes.  A move draws the next output of the
trial's stream and steps left when it is below left_threshold(q).

simulate_batch cuts the trials into chunks of _CHUNK and advances each
chunk in lockstep on a padded board of shape (rows, n + 2), whose columns
0 and n + 1 catch a ball that leaves the line.  A chunk holds at most
_CHUNK * (n + 2) site counts, so the board does not grow with the number
of trials; the success flags it returns do, at one byte a trial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .config import Configuration

if TYPE_CHECKING:
    import numpy as np

_MASK = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def left_threshold(q0: Fraction) -> int:
    """Uniform 64-bit draws below this value step left.

    The left probability q/(1+q) is mapped to the integer range with
    floor rounding, entirely in exact arithmetic.
    """
    q0 = Fraction(q0)
    if q0 < 0:
        raise ValueError("q must be nonnegative")
    num, den = q0.numerator, q0.denominator
    return (num << 64) // (num + den)


@dataclass(frozen=True)
class SimResult:
    """Outcome of a batch of independent trials."""

    trials: int
    successes: int
    estimate: Fraction
    q: Fraction
    seed: int

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "successes": self.successes,
            "q": str(self.q),
            "seed": hex(self.seed),
        }


# Trials advanced together; a chunk's board holds _CHUNK * (n + 2) counts.
_CHUNK = 1 << 15


def _mix_np(z: np.ndarray) -> np.ndarray:
    import numpy as np

    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(_MIX1)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def simulate_batch(c: Configuration, q0: Fraction, trials: int, seed: int) -> np.ndarray:
    """Per-trial success flags, trials advanced in lockstep chunks.

    Each trial runs the dynamics of the module docstring on its own
    stream.  A trial stops as soon as a ball leaves [1, n]: occupied
    sites never empty again, so the final support can no longer be
    [1, n].

    Trials run in chunks of _CHUNK on a padded board of shape
    (rows, n + 2): columns 0 and n + 1 catch a ball that leaves the line,
    so a move is two flat-index updates with no bounds check.  A chunk
    holds at most _CHUNK * (n + 2) counts, so the board does not grow with
    trials; the flags returned take one byte a trial.  Since a trial's
    stream depends only on (seed, index), the flags do not depend on the
    chunk size.
    """
    import numpy as np

    if trials < 1:
        raise ValueError("need at least one trial")
    n = c.n
    width = n + 2
    thr = np.uint64(left_threshold(q0))
    seed_u = np.uint64(seed & _MASK)
    # a site never holds more than the n balls
    row = np.zeros(width, dtype=np.min_scalar_type(n))
    row[1 : n + 1] = c.c
    success = np.zeros(trials, dtype=bool)
    for start in range(0, trials, _CHUNK):
        stop = min(start + _CHUNK, trials)
        idx = np.arange(start + 1, stop + 1, dtype=np.uint64)
        states = _mix_np(seed_u + np.uint64(_GOLD) * idx)
        board = np.tile(row, (stop - start, 1))
        orig = np.arange(start, stop)
        bases = np.arange(0, board.size, width)
        gone = np.zeros(stop - start, dtype=bool)
        while True:
            over = board >= 2
            col = np.argmax(over, axis=1)
            # a row with no overloaded site picks padding column 0, which
            # never holds two balls
            live = over.reshape(-1).take(bases[: col.size] + col)
            keep = live & ~gone
            if not keep.all():
                # settled rows succeeded unless their last move left the line
                success[orig[~(live | gone)]] = True
                kept = np.flatnonzero(keep)
                if not kept.size:
                    break
                board = board.take(kept, axis=0)
                states = states.take(kept)
                orig = orig.take(kept)
                col = col.take(kept)
            states += np.uint64(_GOLD)
            step = np.where(_mix_np(states) < thr, -1, 1)
            src = bases[: col.size] + col
            flat = board.reshape(-1)
            flat[src] -= 1
            flat[src + step] += 1
            col += step
            # a ball that left the line fails its row at the next compaction
            gone = (col == 0) | (col == width - 1)
    return success


def estimate_success(c: Configuration, q0: Fraction, trials: int, seed: int) -> SimResult:
    """Monte Carlo estimate of the success probability.

    Reproducible: the result is a pure function of the four arguments.

    >>> estimate_success(Configuration((1, 1, 1)), Fraction(1), 100, 7).successes
    100
    """
    flags = simulate_batch(c, q0, trials, seed)
    s = int(flags.sum())
    return SimResult(trials, s, Fraction(s, trials), Fraction(q0), seed & _MASK)
