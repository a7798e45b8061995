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
trial's stream and steps left when it is below left_threshold(q).  The
last round of the output, z ^= z >> 31, keeps the top 31 bits, so a move
skips it when the threshold's low 33 bits are 0, as at q = 0, 1/3, 1, 3.

simulate_batch walks the trials on a chain of board states.  A trial
holds the id of its state, and a move is one gather from a table of next
ids by the direction drawn.  A move no trial took before is explored in
Python, and while the chain holds fewer than _AHEAD states, exploring
goes on breadth first past it: a chain that closes under _AHEAD states is
complete after the first move of a batch, and past that, the first trial
to take a move explores it.  Two absorbing ids end a
trial: a ball left [1, n], or the board settled on [1, n].  Both moves of
an absorbing id lead back to it, so an ended trial stays parked on its id
until the next compaction drops it and hands its row to the next trial
in index order, so at most _CHUNK trials are walked at once.  The chain is
rebuilt whenever it grows past _CHUNK states, from those live trials hold,
so neither grows with the number of trials; the flags do, a byte a trial.
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


# Trials walked at once, and the states the chain holds before it is
# rebuilt from the ones its live trials stand on.  A rebuild keeps at most
# one state a trial and a move adds at most one, so the chain never holds
# more than 2 * _CHUNK + 3 ids.
_CHUNK = 1 << 15

# The states explore fills the chain to ahead of the moves asked for; it
# stops at _CHUNK if that is less, so the 2 * _CHUNK + 3 bound holds.  The
# benchmark's chains close at 169 states or fewer and caps of 128 to 4096
# timed alike on them, while a chain that never closes pays for this many
# states no trial may reach, some 1.6 ms of Python.
_AHEAD = 1 << 10

# Chain state ids: a ball left [1, n], the board settled on [1, n], and the
# configuration itself.  The table holds ids doubled, so a move adds its
# direction bit to the doubled id and gathers; a move no trial took reads -1,
# and both moves of an absorbing id lead back to it.
_FAIL, _SETTLED, _START = 0, 1, 2
_UNSEEN = -1
_PARKED = (2 * _FAIL, 2 * _FAIL, 2 * _SETTLED, 2 * _SETTLED)


class _Chain:
    """The board states trials have reached, numbered, and a table of their moves.

    A board is one integer with a cell of n.bit_length() bits a site, so it
    is its own dict key and a move is two additions.  Each state also keeps
    the leftmost site holding two balls or more.  Entry 2 i + d of table is
    twice the id a left (d = 0) or right (d = 1) move from state i leads to.
    """

    def __init__(self, row: tuple[int, ...]) -> None:
        self.n = len(row)
        self.w = self.n.bit_length()
        self.unit = [1 << (self.w * k) for k in range(self.n)]
        # every bit of a cell but its lowest: set in the cells holding two balls or more
        self.high = sum(self.unit) * ((1 << self.w) - 2)
        board = sum(x * u for x, u in zip(row, self.unit))
        self.boards = [0, 0, board]
        self.sites = [-1, -1, self._site(board & self.high)]
        self.ids = {board: _START}
        self.table = self._table()

    def __len__(self) -> int:
        return len(self.boards)

    def _table(self) -> np.ndarray:
        """A table for twice the states held, every move unseen but the absorbing ones."""
        import numpy as np

        table = np.full(4 * len(self.boards), _UNSEEN, dtype=np.intp)
        table[: len(_PARKED)] = _PARKED
        return table

    def _site(self, over: int) -> int:
        """The leftmost site whose cell has a bit in over."""
        return ((over & -over).bit_length() - 1) // self.w

    def explore(self, edges: np.ndarray) -> None:
        """Fill the table at the moves e = 2 i + d in edges, adding the states they reach.

        Then go on breadth first, from the other move of each state asked
        for and both moves of each state added, while the chain holds fewer
        than min(_AHEAD, _CHUNK) states: a chain that closes under that is
        complete after the first move of a batch.
        """
        import numpy as np

        n, boards, sites, ids, unit, high = self.n, self.boards, self.sites, self.ids, self.unit, self.high
        # many trials share a move just after they are seeded: count them
        # when that is cheaper than a set, which costs a Python step a trial
        if 16 * edges.size > len(boards):
            edges = np.flatnonzero(np.bincount(edges)).tolist()
        else:
            edges = list(set(edges.tolist()))
        asked = len(edges)
        cap = min(_AHEAD, _CHUNK)
        if len(boards) < cap:
            wanted = set(edges)
            edges += [e ^ 1 for e in edges if e ^ 1 not in wanted and self.table[e ^ 1] == _UNSEEN]
        found = []
        for e in edges:
            if len(found) >= asked and len(boards) >= cap:
                break
            i = e >> 1
            s = sites[i]
            t = s - 1 + 2 * (e & 1)
            if not 0 <= t < n:
                found.append(2 * _FAIL)
                continue
            board = boards[i] - unit[s] + unit[t]
            over = board & high
            if not over:
                found.append(2 * _SETTLED)
                continue
            j = ids.get(board)
            if j is None:
                j = ids[board] = len(boards)
                boards.append(board)
                sites.append(self._site(over))
                if len(boards) < cap:
                    edges += (2 * j, 2 * j + 1)
            found.append(2 * j)
        if 2 * len(boards) > self.table.size:
            grown = self._table()
            grown[: self.table.size] = self.table
            self.table = grown
        # the moves ahead past the cap stay unseen
        self.table[edges[: len(found)]] = found

    def rebuild(self, cur: np.ndarray) -> np.ndarray:
        """Keep the start and the states of the doubled ids in cur; return cur renumbered."""
        import numpy as np

        # the start is the least id a trial can hold, so it stays at _START
        kept, where = np.unique(np.append(cur >> 1, _START), return_inverse=True)
        kept = kept.tolist()
        self.boards = self.boards[:_START] + [self.boards[i] for i in kept]
        self.sites = self.sites[:_START] + [self.sites[i] for i in kept]
        self.ids = {board: i for i, board in enumerate(self.boards) if i >= _START}
        self.table = self._table()
        return 2 * (where.reshape(-1)[:-1] + _START)


def _mix_np(x: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64's output function of x but its last round, into out (which may be x); tmp is scratch."""
    import numpy as np

    np.right_shift(x, 30, out=tmp)
    np.bitwise_xor(x, tmp, out=out)
    out *= _MIX1
    np.right_shift(out, 27, out=tmp)
    out ^= tmp
    out *= _MIX2


def _last_round(z: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64's last round, z ^= z >> 31, in place; tmp is scratch."""
    import numpy as np

    np.right_shift(z, 31, out=tmp)
    z ^= tmp


def simulate_batch(c: Configuration, q0: Fraction, trials: int, seed: int) -> np.ndarray:
    """Per-trial success flags, trials walked in one pool on a chain of board states.

    Each trial runs the dynamics of the module docstring on its own
    stream.  A trial stops as soon as a ball leaves [1, n]: occupied
    sites never empty again, so the final support can no longer be
    [1, n].

    A move draws from each row's stream, adds the direction to the row's
    doubled state id and gathers the next one from the chain's table,
    which explores the moves no trial took before.  A trial that ended
    keeps stepping on its absorbing id, until a quarter of the rows have
    ended, no trial is live or the chain needs a rebuild; then the ended
    rows' flags are recorded, the live rows move to the front and the next
    trials, in index order, are seeded behind them, in a pool of
    min(_CHUNK, trials) rows that drains once at the end.  The rows, draws,
    directions and moves live in buffers made once a batch.  Since a
    trial's stream depends only on (seed, index), the flags do not depend
    on the pool size.
    """
    import numpy as np

    if trials < 1:
        raise ValueError("need at least one trial")
    thr = left_threshold(q0)
    # the last round keeps a draw's top 31 bits, so it cannot move a draw
    # across a threshold whose low 33 bits are 0
    last_round = thr & ((1 << 33) - 1) != 0
    thr = np.uint64(thr)
    if max(c.c) < 2:
        # one ball a site: settled before the first move
        return np.ones(trials, dtype=bool)
    chain = _Chain(c.c)
    success = np.zeros(trials, dtype=bool)
    size = min(_CHUNK, trials)
    z, tmp, states = (np.empty(size, dtype=np.uint64) for _ in range(3))
    cur, orig, edge = (np.empty(size, dtype=np.intp) for _ in range(3))
    b = np.empty(size, dtype=bool)
    m = start = 0
    while m or start < trials:
        new = min(size - m, trials - start)
        if new:
            orig[m : m + new], cur[m : m + new] = np.arange(start, start + new), 2 * _START
            # trial i's stream starts at mix((i + 1) * _GOLD + seed)
            s = states[m : m + new]
            s[:] = orig[m : m + new]
            s *= _GOLD
            s += np.uint64((seed + _GOLD) & _MASK)
            _mix_np(s, s, tmp[:new])
            _last_round(s, tmp[:new])
            m, start = m + new, start + new
        cm, sm, zm, tm, bm, em = cur[:m], states[:m], z[:m], tmp[:m], b[:m], edge[:m]
        while True:
            sm += _GOLD
            _mix_np(sm, zm, tm)
            if last_round:
                _last_round(zm, tm)
            np.greater_equal(zm, thr, out=bm)
            np.add(cm, bm, out=em)
            # take(out=) in raise mode copies out through a temporary
            cm[:] = chain.table.take(em)
            if cm.min() == _UNSEEN:
                chain.explore(em[cm == _UNSEEN])
                cm[:] = chain.table.take(em)
            np.greater_equal(cm, 2 * _START, out=bm)
            live = np.count_nonzero(bm)
            if 4 * (m - live) >= m or len(chain) > _CHUNK or not live:
                break
        success[orig[:m][cm == 2 * _SETTLED]] = True
        kept = bm.nonzero()[0]
        m = kept.size
        for buf in (cur, states, orig):
            buf[:m] = buf.take(kept)
        if len(chain) > _CHUNK:
            cur[:m] = chain.rebuild(cur[:m])
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
