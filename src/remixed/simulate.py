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
skips it when the threshold's low 33 bits are 0, as at q = 1/3, 1, 3.
Where the threshold is 0 (q = 0, or q below 1/(2^64 - 1)), every move
steps right, and no stream is seeded or drawn at all.

simulate_batch walks the trials on a chain of board states.  A trial
holds the id of its state, and a move is one gather from a table of next
ids by the direction drawn.  The chain is built breadth first from the
start, in Python, until no move of a state it holds is unseen or it
holds _AHEAD states, and it is closed in the first case: that is decided
there, once.  Two absorbing ids end a trial: a ball left [1, n], or the
board settled on [1, n].  Both moves of an absorbing id lead back to it,
so an ended trial stays parked on its id until the next compaction drops
it and hands its row to the next trial in index order, so at most _CHUNK
trials are walked at once.

A closed chain's table never changes, so the batch composes it with
itself into a table of _MOVES moves at once, indexed by the state and the
word of the directions drawn: the trials gather once every _MOVES moves,
with no look for unseen moves.  A trial that ends within those moves
stays on its absorbing id, which every composition keeps, and a live
trial's k-th move still reads its k-th draw, so the flags are those of
one move a gather.  An open chain is walked a move a gather, and the
first trial to take an unseen move explores it.  An open chain keeps
every state its trials have reached and every move they have explored, so
no move is stepped twice and the chain holds at most its closure, whatever
the number of trials; the flags grow a byte a trial.  A closed chain holds
at most _AHEAD states.
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


# Trials walked at once: the rows of the pool.
_CHUNK = 1 << 15

# The states a chain is built to ahead of its trials.  The benchmark's
# chains close at 169 states or fewer and caps of 128 to 4096 timed alike
# on them, while a chain that never closes pays for this many states no
# trial may reach, some 1.6 ms of Python.
_AHEAD = 1 << 10

# Moves a closed chain takes per gather, from chain.ahead(_MOVES), whose
# table holds 2^_MOVES entries a state.  Over the benchmark's 168 simulate
# queries, 4, 5 and 6 timed alike, 3 some 2% and 8 some 5% slower: a trial
# that ends on the first of them still draws them all.
_MOVES = 4

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
    closed says whether the chain was built to its closure, so that no
    entry of the states held is unseen and the table never changes.
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
        self.closed = self._close(_AHEAD)

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

    def _step(self, e: int) -> int:
        """Twice the id that move e = 2 i + d leads to, numbering the state it reaches if new."""
        i = e >> 1
        s = self.sites[i]
        t = s - 1 + 2 * (e & 1)
        if not 0 <= t < self.n:
            return 2 * _FAIL
        board = self.boards[i] - self.unit[s] + self.unit[t]
        over = board & self.high
        if not over:
            return 2 * _SETTLED
        j = self.ids.get(board)
        if j is None:
            j = self.ids[board] = len(self.boards)
            self.boards.append(board)
            self.sites.append(self._site(over))
        return 2 * j

    def _close(self, cap: int) -> bool:
        """Build the table breadth first from the start; return whether no move is left unseen.

        The moves of the states held are taken in id order while the chain
        holds fewer than cap states, so it never holds more than cap.
        """
        found = []
        while len(found) < 2 * (len(self.boards) - _START) and len(self.boards) < cap:
            found.append(self._step(2 * _START + len(found)))
        self.table = self._table()
        self.table[2 * _START : 2 * _START + len(found)] = found
        return len(found) == 2 * (len(self.boards) - _START)

    def explore(self, edges: np.ndarray) -> None:
        """Fill the table at the moves e = 2 i + d in edges, adding the states they reach."""
        # a set, not np.unique, whose first call imports numpy.ma
        edges = list(set(edges.tolist()))
        found = [self._step(e) for e in edges]
        if 2 * len(self.boards) > self.table.size:
            grown = self._table()
            grown[: self.table.size] = self.table
            self.table = grown
        self.table[edges] = found

    def ahead(self, k: int) -> np.ndarray:
        """The table of k moves at once, for a closed chain.

        Entry 2^k i + w is twice the id that k moves from state i lead to,
        the first move's direction the highest bit of w: it is k gathers
        from table, and both absorbing ids lead back to themselves.
        """
        import numpy as np

        one = self.table[: 2 * len(self.boards)]
        composed = one
        for _ in range(k - 1):
            composed = one.take((composed[:, None] + np.arange(2)).reshape(-1))
        return composed


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


def _draw(s: np.ndarray, z: np.ndarray, tmp: np.ndarray, b: np.ndarray, thr: np.uint64, last_round: bool) -> np.ndarray:
    """Advance each stream state in s and draw its next direction into b, True for right.

    z and tmp are scratch; last_round says whether the draw needs it.
    """
    import numpy as np

    s += _GOLD
    _mix_np(s, z, tmp)
    if last_round:
        _last_round(z, tmp)
    return np.greater_equal(z, thr, out=b)


def simulate_batch(c: Configuration, q0: Fraction, trials: int, seed: int) -> np.ndarray:
    """Per-trial success flags, trials walked in one pool on a chain of board states.

    Each trial runs the dynamics of the module docstring on its own
    stream.  A trial stops as soon as a ball leaves [1, n]: occupied
    sites never empty again, so the final support can no longer be
    [1, n].

    The walk is chosen once a batch.  On a closed chain the rows draw
    _MOVES directions, fold them into one index of chain.ahead(_MOVES)
    and gather once, so the composed table holds at most 2^_MOVES * _AHEAD
    entries.  On an open one a move draws from each row's stream, adds the
    direction to the row's doubled state id and gathers the next one from
    the chain's table, exploring the moves no trial took before and
    keeping them, so the chain grows to at most its closure.  At threshold
    0 every direction is right and nothing is drawn.  Rows are tested for
    ended trials after each gather.  A trial that ended
    keeps stepping on its absorbing id, until a quarter of the rows have
    ended or no trial is live; then the ended rows' flags are recorded,
    the live rows move to the front and the next trials, in index order,
    are seeded behind them, in a pool of min(_CHUNK, trials) rows that
    drains once at the end.  The rows, draws, directions and moves live
    in buffers made once a batch.  Since a trial's stream depends only on
    (seed, index), the flags do not depend on the pool size.
    """
    import numpy as np

    if trials < 1:
        raise ValueError("need at least one trial")
    thr = left_threshold(q0)
    # at threshold 0 every move steps right: no stream is seeded or drawn
    draws = thr != 0
    # the last round keeps a draw's top 31 bits, so it cannot move a draw
    # across a threshold whose low 33 bits are 0
    last_round = thr & ((1 << 33) - 1) != 0
    thr = np.uint64(thr)
    if max(c.c) < 2:
        # one ball a site: settled before the first move
        return np.ones(trials, dtype=bool)
    chain = _Chain(c.c)
    walk, moves = (chain.ahead(_MOVES), _MOVES) if chain.closed else (None, 1)
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
            if draws:
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
            # fold the directions into em: em = 2^k i + w after k moves from state i
            for k in range(moves):
                d = _draw(sm, zm, tm, bm, thr, last_round) if draws else 1
                if k:
                    em <<= 1
                    em += d
                else:
                    np.add(cm, d, out=em)
            # every index is in range; take(out=) in raise mode would copy
            # out through a temporary, clip mode writes it directly
            if walk is not None:
                walk.take(em, out=cm, mode="clip")
            else:
                chain.table.take(em, out=cm, mode="clip")
                if cm.min() == _UNSEEN:
                    chain.explore(em[cm == _UNSEEN])
                    chain.table.take(em, out=cm, mode="clip")
            np.greater_equal(cm, 2 * _START, out=bm)
            live = np.count_nonzero(bm)
            if 4 * (m - live) >= m or not live:
                break
        success[orig[:m][cm == 2 * _SETTLED]] = True
        kept = bm.nonzero()[0]
        m = kept.size
        for buf in (cur, states, orig):
            buf[:m] = buf.take(kept)
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
