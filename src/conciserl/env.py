"""FillerCount environment and tabular softmax policy.

The task: emit at least ``difficulty`` WORK tokens, then the right answer
token. FILLER tokens are allowed anywhere and never help, so the shortest
correct trace has exactly ``difficulty + 1`` tokens. Correctness depends only
on the running work count and the final answer, which makes (problem,
work_count) a sufficient state and keeps the policy a small logit tensor
that is differentiable by hand.
"""

from __future__ import annotations

import operator
from enum import IntEnum
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core import ANSWERS, InvariantViolation, ProblemSpec, RolloutBatch, check_ids


class Action(IntEnum):
    WORK = 0
    FILLER = 1
    ANSWER_A = 2
    ANSWER_B = 3


N_ACTIONS = 4
_ANSWER_FOR_LETTER = {"A": Action.ANSWER_A, "B": Action.ANSWER_B}


class TabularPolicy:
    """Softmax policy over actions, conditioned on (problem, work_count).

    ``logits`` has shape (n_problems, w_cap + 1, N_ACTIONS).
    """

    __slots__ = ("problem_ids", "w_cap", "logits", "_index")

    def __init__(
        self,
        problem_ids: Sequence[str],
        w_cap: int,
        logits: np.ndarray | None = None,
    ):
        ids = check_ids(problem_ids)
        if w_cap < 1:
            raise ValueError("w_cap must be >= 1")
        shape = (len(ids), w_cap + 1, N_ACTIONS)
        if logits is None:
            logits = np.zeros(shape)
        else:
            logits = np.array(logits, dtype=float)
            if logits.shape != shape:
                raise ValueError(f"logits shape {logits.shape} != {shape}")
            if not np.all(np.isfinite(logits)):
                raise InvariantViolation("logits are not finite")
        self.problem_ids = ids
        self.w_cap = int(w_cap)
        self.logits = logits
        self._index = {pid: i for i, pid in enumerate(ids)}

    def problem_index(self, problem_id: str) -> int:
        return self._index[problem_id]

    def log_probs(self) -> np.ndarray:
        """Per-state log-softmax over actions; every entry is <= 0."""
        z = self.logits - self.logits.max(axis=-1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))

    def copy(self) -> "TabularPolicy":
        return TabularPolicy(self.problem_ids, self.w_cap, self.logits.copy())

    def ascend(self, grad: np.ndarray, learning_rate: float) -> None:
        """One gradient ascent step, binding a new array to ``logits``."""
        if grad.shape != self.logits.shape:
            raise ValueError("gradient shape mismatch")
        self.logits = self.logits + learning_rate * grad


def initial_policy(
    problem_ids: Sequence[str], w_cap: int, answer_logit: float = 0.0
) -> TabularPolicy:
    """Uniform-over-continuation start with a logit offset on answer actions.

    A negative ``answer_logit`` makes early traces long and rambling, the
    analogue of an overthinking base model; 0 gives the uniform policy.
    """
    policy = TabularPolicy(problem_ids, w_cap)
    policy.logits[:, :, Action.ANSWER_A] = answer_logit
    policy.logits[:, :, Action.ANSWER_B] = answer_logit
    return policy


def min_correct_length(problem: ProblemSpec) -> int:
    """Analytic oracle: d WORK tokens plus the answer token."""
    return problem.difficulty + 1


# Width of each rollout's first chunk of uniforms: a small batch draws it for
# every rollout, in numpy, up front (_first_chunk), a large one one PCG64 step
# a lockstep pass for the rollouts still live (_step; see _walk); every later
# chunk doubles, capped at the tokens left before l_max and at the chunk budget.
_FIRST_CHUNK = 16
# A batch is walked whole; one of at least _BLOCK_ROLLOUTS // 2 rollouts steps
# its streams a pass, and _BLOCK_ROLLOUTS bounds only the generators alive at
# once (_walk). A chunk holds at most _CHUNK_UNIFORMS uniforms over a slice's
# live rows (but never narrows below _FIRST_CHUNK), which bounds the uniforms
# and the per-pass masks at any l_max.
_BLOCK_ROLLOUTS = 1024
_CHUNK_UNIFORMS = 1 << 14

# numpy's SeedSequence constants (pool size, hashmix, mix and state output).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


# PCG64's 128-bit LCG multiplier M. The j-th double of a stream comes from
# the state M^(j+2)·(init + inc) + S_(j+2)·inc, S_k = Σ_{i<k} M^i (mod 2^128),
# where init and inc are the seed words: seeding steps the LCG once from
# init + inc and every draw steps it again.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1


def _constants(values: Sequence[int]) -> np.ndarray:
    """128-bit constants as a ``(4, len(values), 1)`` uint64 array of
    columns: their high words, their low words and the low words' 32-bit
    halves."""
    hi = np.array([[v >> 64] for v in values], dtype=np.uint64)
    lo = np.array([[v & _MASK64] for v in values], dtype=np.uint64)
    return np.stack([hi, lo, lo & _MASK32, lo >> 32])


# Offsets k = 1 .. 33: _first_chunk draws up to 2 * _FIRST_CHUNK doubles (_walk's hand-off).
_POWERS = [pow(_PCG_MULT, k, 1 << 128) for k in range(2 * _FIRST_CHUNK + 2)]
_STREAM_POWERS = _constants(_POWERS[1:])
_STREAM_SUMS = _constants([sum(_POWERS[:k]) % (1 << 128) for k in range(1, 2 * _FIRST_CHUNK + 2)])
_STEP = _constants([_PCG_MULT])[:, 0]  # M alone, as (4, 1): one step of a (rows,) state


def _mul128(hi: np.ndarray, lo: np.ndarray, const: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(hi:lo) · const mod 2^128`` on uint64 arrays, ``const`` from
    ``_constants``; the low words' 64x64-bit product is built from 32-bit
    halves, in place so that at most three products are live. Arrays only:
    numpy warns on uint64 scalar overflow."""
    c_hi, c_lo, c0, c1 = const
    a0, a1 = lo & _MASK32, lo >> 32
    t = a0 * c0
    t >>= 32
    t += a1 * c0  # no term here can carry out of 64 bits
    carry = a0 * c1
    carry += t & _MASK32
    carry >>= 32
    t >>= 32
    carry += t
    carry += a1 * c1
    carry += lo * c_hi
    carry += hi * c_lo
    return carry, np.multiply(lo, c_lo, out=t)


def _seeded(words: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each row of seed words as PCG64 seeding reads them: ``init + inc``
    and the increment ``inc``, as high and low uint64 words."""
    w2, w3 = words[:, 2], words[:, 3]
    inc_hi, inc_lo = (w2 << 1) | (w3 >> 63), (w3 << 1) | 1
    x_lo = words[:, 1] + inc_lo
    return words[:, 0] + inc_hi + (x_lo < inc_lo), x_lo, inc_hi, inc_lo


def _step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One LCG step, ``M·(hi:lo) + inc``, as new arrays."""
    hi, lo = _mul128(hi, lo, _STEP)
    lo += inc_lo
    hi += inc_hi
    hi += lo < inc_lo
    return hi, lo


def _double(x: np.ndarray, rot: np.ndarray, shift: np.ndarray | None = None) -> np.ndarray:
    """The doubles of states whose ``hi ^ lo`` is ``x`` and ``hi >> 58`` is
    ``rot``: PCG64's XSL-RR output (``x`` rotated right by ``rot``) shifted
    to 53 bits and scaled by 2^-53. Overwrites ``x``, and ``shift`` if given."""
    shift = np.subtract(64, rot, out=shift)
    shift &= 63
    shift = np.left_shift(x, shift, out=shift)
    x >>= rot
    x |= shift
    x >>= 11
    return x * 2.0**-53


def _seeds(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Seed words ``(s - inc, w2, w3)`` whose PCG64 goes on with each stream
    after the double of state ``s = hi:lo``'s successor: seeding steps the
    LCG once from ``init + inc``, landing on that successor."""
    return np.stack([hi - inc_hi - (lo < inc_lo), lo - inc_lo, words[:, 2], words[:, 3]], axis=1)


def _first_chunk(words: np.ndarray, width: int = _FIRST_CHUNK) -> tuple[np.ndarray, np.ndarray]:
    """``np.random.Generator(PCG64(seed))``'s first ``width`` doubles (1 to
    ``2 * _FIRST_CHUNK``) for each row of seed words, and the seed words of
    a PCG64 that goes on with each stream after them: in ``_walk``, a small
    batch's first chunk, or a large one's first generator-stage chunk.

    Every state comes straight from the seed words (see ``_PCG_MULT``). The
    states are ``(width, rows)`` arrays, one row per offset, so every ufunc
    runs along the rollouts, and the doubles are returned in that shape;
    the arithmetic runs in place, so at most five such uint64 arrays are
    live at once. The seed words come from the next-to-last state, which at
    width 1 is seeding's: its row is computed, and its double dropped.
    """
    x_hi, x_lo, inc_hi, inc_lo = _seeded(words)
    offsets = slice(min(width - 1, 1), width + 1)  # k = 2 .. width + 1, or 1 .. 2 at width 1
    hi, lo = _mul128(x_hi, x_lo, _STREAM_POWERS[:, offsets])
    b_hi, b_lo = _mul128(inc_hi, inc_lo, _STREAM_SUMS[:, offsets])
    lo += b_lo
    hi += b_hi
    hi += lo < b_lo
    seeds = _seeds(hi[-2], lo[-2], inc_hi, inc_lo, words)
    return _double(np.bitwise_xor(hi, lo, out=lo), np.right_shift(hi, 58, out=hi), b_hi)[-width:], seeds


class _SeedState(ISeedSequence):
    """A seed sequence whose PCG64 seed words were hashed already."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _hash_constants(const: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """What ``n`` successive SeedSequence hashes from ``const`` xor in and
    multiply by (the next one's xor), as ``(n, 1)`` uint32 columns."""
    column = np.array([const * pow(mult, i, 1 << 32) & _MASK32 for i in range(n + 1)], dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


# The pool's 16 hashes (fill, then mix), and generate_state(4, np.uint64)'s 8.
_POOL_HASHES = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_STATE_HASHES = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hash(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def _seed_words(key: tuple[int, ...], problems: np.ndarray, rollouts: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence((*key, p, r)).generate_state(4, np.uint64)``
    for each ``(p, r)`` of ``zip(problems, rollouts)``, as the rows of one
    ``(n, 4)`` array: the PCG64 seed words of ``default_rng((*key, p, r))``,
    from numpy's SeedSequence hash run once over the block.

    Every rollout's entropy is the key's little-endian 32-bit words, then
    one word each for p and r, so the hash makes the same calls with the
    same constants on every rollout. The pool is one ``(4, n)`` array: each
    word is hashed and mixed into the other three rows in one operation,
    and each entropy word past the fourth into all four rows.
    """
    words = []
    for k in map(operator.index, key):
        if k < 0:
            raise ValueError(f"seed {k} in rng key {tuple(key)} is negative; seeds must be non-negative integers")
        words += [k >> shift & _MASK32 for shift in range(0, max(k.bit_length(), 1), 32)]
    entropy = np.zeros((max(len(words) + 2, _POOL_SIZE), len(problems)), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)], entropy[len(words) + 1] = problems, rollouts
    xor, mult = _POOL_HASHES
    pool = _hash(entropy[:_POOL_SIZE], xor[:_POOL_SIZE], mult[:_POOL_SIZE])
    for src in range(_POOL_SIZE):
        k = slice(_POOL_SIZE + 3 * src, _POOL_SIZE + 3 * src + 3)
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[k], mult[k]))
    for word in entropy[_POOL_SIZE : len(words) + 2]:  # the running constant goes on
        xor, mult = _hash_constants(int(mult[-1, 0]), _MULT_A, _POOL_SIZE)
        pool = _mix(pool, _hash(word, xor, mult))
    # generate_state(4, np.uint64): eight words hashed from the pool in turn.
    state = _hash(np.tile(pool, (2, 1)), *_STATE_HASHES)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class Outcomes(NamedTuple):
    """A batch's outcomes, all that ``eval`` scores: ``(P, G)`` arrays in bank order."""

    correct: np.ndarray
    truncated: np.ndarray
    lengths: np.ndarray  # tokens per rollout


def _sample(policy: TabularPolicy, bank: Sequence[ProblemSpec], group_size: int, l_max: int, key: tuple[int, ...]):
    """A batch's walk (``sample_batch``) and what both products read of it:
    the log-probs, ``left``, ``state`` and ``cap_work``, and per flat rollout
    its last action (its answer, if it answered), ``answered`` and ``correct``."""
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    logp = policy.log_probs()[[policy.problem_index(problem.id) for problem in bank]]
    cum = np.exp(logp).cumsum(axis=-1)
    n_problems, n_states = logp.shape[:2]
    problems, rollouts = np.divmod(np.arange(n_problems * group_size), group_size)
    left, state, exit_u, cap_work = _walk(cum, problems, _seed_words(key, problems, rollouts), l_max)
    level = state - np.arange(0, left.size, n_states)  # each rollout's last state, at its flat cell ``state``
    answered = left[state] < l_max
    last = Action.ANSWER_A + (exit_u >= cum[problems, level, 2])  # the answer, if answered
    difficulty = np.array([problem.difficulty for problem in bank])
    answer = np.array([_ANSWER_FOR_LETTER[problem.correct_answer] for problem in bank])
    correct = answered & (last == answer[problems]) & (level + cap_work >= difficulty[problems])
    return logp, left, state, cap_work, last, answered, correct


def sample_batch(
    policy: TabularPolicy, bank: Sequence[ProblemSpec], group_size: int, l_max: int, key: tuple[int, ...]
) -> RolloutBatch:
    """Sample ``group_size`` episodes of every problem of ``bank`` from the
    (frozen) policy, as training's record (``eval`` takes its outcomes alone).

    Rollout r of ``bank[p]`` draws one uniform per token from the stream of
    ``default_rng((*key, p, r))`` and takes the first action whose
    cumulative probability under ``policy.log_probs()`` (computed once for
    the batch) exceeds it. An episode ends at the first ANSWER_* token or is
    truncated at ``l_max`` tokens; truncated episodes are incorrect by
    convention. Training keys by (seed, step), ``eval`` by (seed,); a
    negative key element is a ValueError.

    One seed hash gives every rollout's seed words (``_seed_words``), and one
    walk, problem by problem, takes the whole batch, each stream read in
    chunks (``_walk`` holds the mechanism; the batch's size picks how its
    first chunk is drawn, and ``_BLOCK_ROLLOUTS`` bounds only its live
    generators), in ``_sample`` for this record and ``sample_outcomes``
    alike. Neither moves a number: a rollout's walk does not depend on the
    rollouts it is walked with, nor its uniforms on the chunks they are drawn in.
    """
    logp, left, state, cap_work, last, answered, correct = _sample(policy, bank, group_size, l_max, key)
    # The count table, over the flat cells so that each operation runs along the whole table, once the
    # walk's arrays are gone: each state before the last holds the FILLERs between the tokens that entered
    # and left it, then one WORK; the last that gap less the w_cap WORK tokens, those and the answer.
    first_state = np.arange(0, left.size, logp.shape[1])
    counts = np.zeros((left.size, N_ACTIONS), dtype=np.int32)
    work, fill = counts[:, Action.WORK], counts[:, Action.FILLER]
    np.subtract(left[1:], left[:-1], out=fill[1:], casting="unsafe")
    fill[first_state] = left[first_state] + 1
    fill -= 1  # the tokens between entering and leaving each state
    fill_last = fill[state] - cap_work
    np.less(left, l_max, out=work)  # a state left before l_max, but the last, was left by a WORK token
    fill *= work  # none past the last state
    fill[state], work[state], counts[state, last] = fill_last, cap_work, answered
    shape = (len(bank), group_size)
    counts = counts.reshape(*shape, *logp.shape[1:])
    return RolloutBatch(tuple(p.id for p in bank), counts, logp, correct.reshape(shape), ~answered.reshape(shape))


def sample_outcomes(
    policy: TabularPolicy, bank: Sequence[ProblemSpec], group_size: int, l_max: int, key: tuple[int, ...]
) -> Outcomes:
    """``sample_batch``'s ``correct``, ``truncated`` and ``lengths`` from the same walk, with no count
    table: a rollout's length is the token it left its last state at, plus its answer."""
    _, left, state, _, _, answered, correct = _sample(policy, bank, group_size, l_max, key)
    lengths = left[state] + answered
    if not 1 <= lengths.min() <= lengths.max() <= l_max or (correct & ~answered).any():
        raise ValueError("rollout lengths must be in [1, l_max], and a truncated rollout cannot be correct")
    return Outcomes(*(a.reshape(len(bank), group_size) for a in (correct, ~answered, lengths)))


def _walk(cum: np.ndarray, problems: np.ndarray, words: np.ndarray, l_max: int) -> tuple[np.ndarray, ...]:
    """Each rollout of a batch, of problem ``problems[i]`` with seed words
    ``words[i]`` (``_seed_words``), walked under the cumulative action
    probabilities ``cum[problems[i]]``: ``left`` (below), its last flat
    (rollout, state) cell, the uniform of its last exit (its answer's, if it
    answered) and its count of WORK tokens at ``w_cap``.

    In state w a FILLER token keeps the state, and so does a WORK token at
    ``w_cap``; any other token exits it. A run of state-keeping tokens
    therefore ends at the first uniform outside ``[cum[w, 0], cum[w, 1])``
    (``[0, cum[w, 1])`` at ``w_cap``). Both stages count the WORK tokens at
    ``w_cap`` against a per-cell ``edge`` that is -1 below ``w_cap``, so no
    rollout needs picking out. The walk keeps one number per (rollout,
    state): ``left``, the token at which the rollout left the state, which
    is its answer in its last state, or ``l_max`` if it was truncated there.

    The opening stage walks the first chunk, where every rollout starts and
    a converged one ends, in one lockstep over the whole batch: pass t
    settles column t of every live rollout, then the sentinel
    column that exits every state, with ``(rows,)``-sized operations, so it
    takes at most ``_FIRST_CHUNK + 1`` passes and scans no row. Each live
    rollout carries its count of WORK tokens at ``w_cap``, and the live rows
    are written out and compacted only on passes where some finish.

    A batch of fewer than ``_BLOCK_ROLLOUTS // 2`` rollouts (a training
    step's 160 or 320) computes its whole first chunk up front
    (``_first_chunk``). A larger one (an eval batch's 5,120) computes no
    table: the lockstep carries each live rollout's PCG64 state and
    increment, compacted with its other arrays, and pass t steps the state
    once (``_step``) for column t's double; at pass 15 the hand-off's seed
    words are taken from the state before that step (``_seeds``), for the
    rollouts live then. A converged rollout ends by token d + 1 <= 11, so
    most rows of an eval batch never draw the later columns; on a small
    batch the per-pass steps cost more than the columns they save.

    The rollouts that meet the sentinel short of ``l_max`` go on, a slice of
    at most ``_BLOCK_ROLLOUTS`` at a time, each with a generator seeded with
    the words taken for the state where its chunk ended. A large batch's
    slice first computes its first generator-stage chunk (``_first_chunk``)
    and seeds generators only for the rollouts that outlive it.
    The generator stage draws their uniforms in chunks that double up to the
    chunk budget, and a pass scans each rollout's chunk whole, the uniforms
    it has read set to NaN, which no comparison passes: a rollout gets here
    by keeping its state for many tokens, at ``w_cap`` often for hundreds,
    and its first pass is then often its only one, where a lockstep would
    take a pass per token. A rollout goes on into the next chunk when its
    current state's ``left`` is at or past the chunk's end: it met the
    sentinel, or its last token was a WORK exit into a state it has not
    left. PCG64 yields the same doubles whatever the chunk sizes, so a
    rollout consumes exactly the uniforms a token-by-token loop would. A
    lockstep pass calls ``ndarray.nonzero`` once and a generator pass
    ``ndarray.argmax`` once (``tests/test_budgets.py`` counts both).
    """
    n_states = cum.shape[1]
    n = len(problems)
    # Per flat (problem, state) cell: a uniform below ``lo`` is a WORK exit
    # (never at w_cap), one at or above ``hi`` an answer. At w_cap, one below
    # ``edge`` is a WORK token, which keeps the state (``edge`` is -1 elsewhere).
    lo, hi, edge = cum[..., 0].copy(), cum[..., 1].reshape(-1), np.full(cum.shape[:2], -1.0)
    edge[:, -1], lo[:, -1] = cum[:, -1, 0], -1.0
    lo, edge = lo.reshape(-1), edge.reshape(-1)
    state = np.arange(0, n * n_states, n_states)  # each rollout's flat (rollout, state) cell, its first one here
    left = np.full(n * n_states, l_max)
    exit_u = np.empty(n)  # the uniform of its latest exit, its answer's once it has one
    cap_work = np.empty(n, dtype=np.intp)  # WORK tokens at w_cap, written as a rollout leaves the lockstep

    # The opening stage: the first chunk in lockstep, pass t reads column t of every live rollout, from a table of
    # the whole chunk (a small batch) or by stepping each live rollout's PCG64 state once (a large one).
    width = min(_FIRST_CHUNK, l_max)
    table, seeds = _first_chunk(words) if n < _BLOCK_ROLLOUTS // 2 else (None, None)
    if table is None:  # each live rollout's PCG64 state, seeding's step taken, and its increment
        pcg = [*_seeded(words)]
        pcg[:2] = _step(*pcg)
    # the live rollouts, their (rollout, state) and (problem, state) cells, and their WORK tokens at w_cap
    k, s, c, cw = np.arange(n), state.copy(), problems * n_states, np.zeros(n, dtype=np.intp)
    for t in range(width + 1):
        if t == width:
            u = np.full(k.size, 2.0)  # a sentinel that exits every state
        elif table is not None:
            u = table[t][k]
        else:  # pass 15 takes the hand-off's seed words from the state before its step
            seeds = _seeds(*pcg, words[k]) if t == _FIRST_CHUNK - 1 else seeds
            pcg[:2] = _step(*pcg)
            u = _double(pcg[0] ^ pcg[1], pcg[0] >> 58)
        if t >= n_states - 1:  # no rollout reaches w_cap before pass w_cap
            cw += u < edge[c]  # a WORK token at w_cap, which keeps the state
        live = u < hi[c]
        left[s] = t  # rewritten at every pass up to the one that leaves s
        work = u < lo[c]
        s += work
        c += work
        keep = live.nonzero()[0]
        if keep.size < k.size:  # some finish: all are written out, and the rest rewritten when they finish
            state[k], exit_u[k], cap_work[k] = s, u, cw
            if not keep.size:
                break
            k, s, c, cw = k[keep], s[keep], c[keep], cw[keep]
            if table is None:
                pcg, seeds = [a[keep] for a in pcg], None if seeds is None else seeds[keep]

    # The hand-off: the rollouts that go on, a slice at a time, each seeded where its first chunk ended.
    go = k if t == width < l_max else k[:0]
    stepped, seeds, table, pcg = table is None, seeds if table is None else seeds[go], None, None
    for b in range(0, go.size, _BLOCK_ROLLOUTS):
        rows, part, rngs = go[b : b + _BLOCK_ROLLOUTS], seeds[b : b + _BLOCK_ROLLOUTS], None  # ``part``: seed words
        # The generator stage: each chunk scanned whole on every pass, its read uniforms NaN.
        offset = chunk = width
        while rows.size:
            chunk = min(2 * chunk, l_max - offset, max(_FIRST_CHUNK, _CHUNK_UNIFORMS // rows.size))
            r, s, ur = rows, state[rows], np.empty((rows.size, chunk + 1))  # the chunk's rollouts, states, uniforms
            c = s + (problems[r] - r) * n_states
            ur[:, chunk] = 2.0  # a sentinel that exits every state
            if stepped and offset == width:  # a large batch's slice: its first chunk in numpy, no generator yet
                first, part = _first_chunk(part, chunk)
                ur[:, :chunk] = first.T
            else:
                rngs = rngs or {
                    row: np.random.Generator(np.random.PCG64(_SeedState(w))) for row, w in zip(rows.tolist(), part)
                }
                for out, row in zip(ur[:, :chunk], rows.tolist()):
                    rngs[row].random(out=out)
            columns = np.arange(chunk + 1)
            while r.size:
                lo_r, hi_r = lo[c], hi[c]
                j = ((ur < lo_r[:, None]) | (ur >= hi_r[:, None])).argmax(axis=1)
                # WORK tokens at w_cap before the exit. ``columns <= j`` would count
                # the same: the exit uniform is never below ``edge``, which is -1
                # below w_cap, and at w_cap only an answer (>= hi >= edge) or the
                # 2.0 sentinel exits.
                cap_work[r] += ((ur < edge[c][:, None]) & (columns < j[:, None])).sum(axis=1)
                u = ur[np.arange(r.size), j]
                exit_u[r] = u
                # at the sentinel, offset + chunk: l_max once the last chunk is spent
                left[s] = offset + j
                work = u < lo_r
                s += work
                c += work
                state[r] = s
                more = work & (j + 1 < chunk)
                r, s, c, ur = r[more], s[more], c[more], ur[more]
                np.copyto(ur, np.nan, where=columns <= j[more][:, None])
            offset += chunk
            going = (left[state[rows]] >= offset) & (offset < l_max)
            rows, part = rows[going], part[going] if rngs is None else part
        del rngs  # before the next slice's are built

    return left, state, exit_u, cap_work


def make_problem_bank(
    count: int, difficulty_range: tuple[int, int], seed: int
) -> tuple[ProblemSpec, ...]:
    """Deterministic bank with difficulties assigned round-robin over the
    range and answers drawn from the seeded rng."""
    d_min, d_max = difficulty_range
    if not (1 <= d_min <= d_max):
        raise ValueError(f"invalid difficulty range [{d_min}, {d_max}]")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    span = d_max - d_min + 1
    return tuple(ProblemSpec(f"p{i:03d}", d_min + i % span, ANSWERS[int(rng.integers(2))]) for i in range(count))


def save_bank(bank: Iterable[ProblemSpec], path: str | Path) -> None:
    lines = [f"{p.id}\t{p.difficulty}\t{p.correct_answer}" for p in bank]
    Path(path).write_text("\n".join(lines) + "\n")


def load_bank(path: str | Path) -> tuple[ProblemSpec, ...]:
    bank = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected id<TAB>difficulty<TAB>answer")
        bank.append(ProblemSpec(id=parts[0], difficulty=int(parts[1]), correct_answer=parts[2]))
    if not bank:
        raise ValueError("empty problem bank")
    return tuple(bank)
