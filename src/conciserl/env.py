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
from typing import Iterable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core import ANSWERS, InvariantViolation, ProblemSpec, RolloutGroup


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
        ids = tuple(problem_ids)
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate problem ids")
        if not ids:
            raise ValueError("need at least one problem")
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
        """One in-place gradient ascent step."""
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


# Width of each rollout's first chunk of uniforms, drawn for the whole block
# in numpy (_first_chunk); every later chunk doubles, capped at the tokens
# left before l_max and at the chunk budget.
_FIRST_CHUNK = 16
# Rollouts are walked together in blocks of at most _BLOCK_ROLLOUTS, which
# bounds the block's first chunk, the generators of its rollouts that outlive
# that chunk and the arrays of its table build. A chunk holds at most
# _CHUNK_UNIFORMS uniforms over the block's live rows (but never narrows below
# _FIRST_CHUNK), which bounds the uniforms and the per-pass masks at any l_max.
_BLOCK_ROLLOUTS = 512
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


def _constants(values: Sequence[int]) -> tuple[np.ndarray, ...]:
    """128-bit constants as uint64 arrays: their high words, their low words
    and the low words' 32-bit halves."""
    hi = np.array([v >> 64 for v in values], dtype=np.uint64)
    lo = np.array([v & _MASK64 for v in values], dtype=np.uint64)
    return hi, lo, lo & _MASK32, lo >> 32


_POWERS = [pow(_PCG_MULT, k, 1 << 128) for k in range(_FIRST_CHUNK + 2)]
_STREAM_POWERS = _constants(_POWERS[2:])
_STREAM_SUMS = _constants([sum(_POWERS[:k]) % (1 << 128) for k in range(2, _FIRST_CHUNK + 2)])
_INVERSE_MULT = _constants([pow(_PCG_MULT, -1, 1 << 128)])


def _mul128(hi: np.ndarray, lo: np.ndarray, const: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """``(hi:lo) · const mod 2^128`` on uint64 arrays, ``const`` from
    ``_constants``; the low words' 64x64-bit product is built from 32-bit
    halves. Arrays only: numpy warns on uint64 scalar overflow."""
    c_hi, c_lo, c0, c1 = const
    a0, a1 = lo & _MASK32, lo >> 32
    t = a1 * c0 + (a0 * c0 >> 32)  # no term here can carry out of 64 bits
    mid = a0 * c1 + (t & _MASK32)
    carry = a1 * c1 + (t >> 32) + (mid >> 32)
    return carry + lo * c_hi + hi * c_lo, lo * c_lo


def _increment(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PCG64's odd increment ``(w2:w3 << 1) | 1`` of each row of seed words."""
    w2, w3 = words[:, 2], words[:, 3]
    return (w2 << 1) | (w3 >> 63), (w3 << 1) | 1


def _first_chunk(words: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.random.Generator(PCG64(seed))``'s first ``width`` doubles, for
    each row of seed words from ``_seed_words``, with the high and low words
    of each stream's state after the last of them; ``width`` is at most
    ``_FIRST_CHUNK``.

    Every state comes straight from the seed words (see ``_PCG_MULT``), and
    its double is PCG64's XSL-RR output (``hi ^ lo`` rotated right by
    ``hi >> 58``) shifted to 53 bits and scaled by 2^-53.
    """
    inc_hi, inc_lo = _increment(words)
    x_lo = words[:, 1] + inc_lo
    x_hi = words[:, 0] + inc_hi + (x_lo < inc_lo)
    cols = slice(0, width)
    a_hi, a_lo = _mul128(x_hi[:, None], x_lo[:, None], [c[cols] for c in _STREAM_POWERS])
    b_hi, b_lo = _mul128(inc_hi[:, None], inc_lo[:, None], [c[cols] for c in _STREAM_SUMS])
    lo = a_lo + b_lo
    hi = a_hi + b_hi + (lo < b_lo)
    x, rot = hi ^ lo, hi >> 58
    x = (x >> rot) | (x << ((64 - rot) & 63))
    return (x >> 11) * 2.0**-53, hi[:, -1], lo[:, -1]


class _SeedState(ISeedSequence):
    """A seed sequence whose PCG64 seed words were hashed already."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _generators(words: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> list[np.random.Generator]:
    """One generator per row of seed words, going on from that stream's
    state ``hi:lo``.

    Seeding is affine, so seed words with ``init' = M^-1·(hi:lo - inc) -
    inc`` and the row's increment words make PCG64's seeding land on
    ``hi:lo``, and the generator draws what the stream draws next.
    """
    inc_hi, inc_lo = _increment(words)
    hi, lo = _mul128(hi - inc_hi - (lo < inc_lo), lo - inc_lo, _INVERSE_MULT)
    seeds = np.stack([hi - inc_hi - (lo < inc_lo), lo - inc_lo, words[:, 2], words[:, 3]], axis=1)
    return [np.random.Generator(np.random.PCG64(_SeedState(row))) for row in seeds]


def _hashers(const: int, mult: int):
    """SeedSequence's running hash constant: for each successive hash, the
    constant it xors in and the next one, which it multiplies by."""
    while True:
        nxt = const * mult & _MASK32
        yield np.uint32(const), np.uint32(nxt)
        const = nxt


def _hash(value: np.ndarray, hashers) -> np.ndarray:
    xor, mult = next(hashers)
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
    same constants on every rollout: each is one uint32 array operation
    here.
    """
    words = []
    for k in map(operator.index, key):
        if k < 0:
            raise ValueError(f"seed {k} in rng key {tuple(key)} is negative; seeds must be non-negative integers")
        words += [k >> shift & _MASK32 for shift in range(0, max(k.bit_length(), 1), 32)]
    n = len(problems)
    entropy = [np.full(n, w, dtype=np.uint32) for w in words]
    entropy += [np.asarray(problems, dtype=np.uint32), np.asarray(rollouts, dtype=np.uint32)]
    zero = np.zeros(n, dtype=np.uint32)
    hashers = _hashers(_INIT_A, _MULT_A)
    pool = [_hash(entropy[i] if i < len(entropy) else zero, hashers) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], hashers))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, hashers))
    # generate_state(4, np.uint64): eight words hashed from the pool in turn.
    hashers = _hashers(_INIT_B, _MULT_B)
    state = np.stack([_hash(pool[i % _POOL_SIZE], hashers) for i in range(2 * _POOL_SIZE)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def sample_groups(
    logp: np.ndarray,
    bank: Sequence[ProblemSpec],
    key: tuple[int, ...],
    group_size: int,
    l_max: int,
) -> list[RolloutGroup]:
    """Sample ``group_size`` episodes of every problem of ``bank``.

    ``logp[i]`` holds ``bank[i]``'s ``(w_cap + 1, N_ACTIONS)`` rows of
    ``TabularPolicy.log_probs()``, row w being the state with w WORK tokens
    so far; rollout r of ``bank[i]`` draws one uniform per token from
    ``default_rng((*key, i, r))``'s stream and takes the first action whose
    cumulative probability exceeds it. An episode ends at the first ANSWER_*
    token or is truncated at ``l_max`` tokens; truncated episodes are
    incorrect by convention. ``key`` must hold non-negative integers.

    The batch's rollouts, problem by problem, are walked in consecutive
    blocks (``_walk``) whose edges need not fall between groups: a rollout's
    stream and walk do not depend on the rollouts it shares a block with.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    cum = np.exp(logp).cumsum(axis=-1)
    n_problems, n_states = logp.shape[:2]
    problems, rollouts = np.divmod(np.arange(n_problems * group_size), group_size)
    counts = np.empty((len(problems), n_states, N_ACTIONS), dtype=np.int32)
    answered, last, work = (np.empty(len(problems), dtype=t) for t in (bool, np.intp, np.intp))
    for first in range(0, len(problems), _BLOCK_ROLLOUTS):
        b = slice(first, first + _BLOCK_ROLLOUTS)
        counts[b], answered[b], last[b], work[b] = _walk(cum, problems[b], rollouts[b], key, l_max)
    difficulty = np.array([problem.difficulty for problem in bank])
    answer = np.array([_ANSWER_FOR_LETTER[problem.correct_answer] for problem in bank])
    correct = answered & (last == answer[problems]) & (work >= difficulty[problems])
    shape = (n_problems, group_size)
    counts = counts.reshape(*shape, n_states, N_ACTIONS)
    correct, truncated = correct.reshape(shape), ~answered.reshape(shape)
    return [RolloutGroup(problem.id, counts[p], logp[p], correct[p], truncated[p]) for p, problem in enumerate(bank)]


def _walk(
    cum: np.ndarray,
    problems: np.ndarray,
    rollouts: np.ndarray,
    key: tuple[int, ...],
    l_max: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rollout r of problem p, for each ``(p, r)`` of ``zip(problems,
    rollouts)``, walked one state exit at a time under the cumulative action
    probabilities ``cum[p]``: its count table, whether it answered within
    ``l_max``, its last action (the answer, if it answered) and its WORK count.

    In state w a FILLER token keeps the state, and so does a WORK token at
    ``w_cap``; any other token exits it. A run of state-keeping tokens
    therefore ends at the first uniform outside ``[cum[w, 0], cum[w, 1])``
    (``[0, cum[w, 1])`` at ``w_cap``), which one numpy pass finds for every
    live rollout at once. Rollout (p, r) draws ``default_rng((*key, p,
    r))``'s stream: one vectorized seed hash gives the block's seed words
    (``_seed_words``), from which numpy computes every rollout's first chunk
    of PCG64 doubles at once (``_first_chunk``). Only the rollouts still
    live after it get a generator, which ``_generators`` starts where that
    chunk ended; they draw their further uniforms in chunks that double up
    to the chunk budget. PCG64 yields the same doubles whatever the chunk
    sizes, so a rollout consumes exactly the uniforms a token-by-token loop
    would.

    The exits are all the count table needs: the tokens of state w before
    ``w_cap`` are the FILLERs between the WORK exit into w and the one out
    of it, then that exit; the last state holds the rest of the rollout,
    its answer and, at ``w_cap``, the WORK tokens the walk counts there.
    """
    n_states = cum.shape[1]
    n = len(problems)
    words = _seed_words(key, problems, rollouts)
    # Per flat (problem, state) index: a uniform below ``lo`` is a WORK exit
    # (never at w_cap), one at or above ``hi`` an answer, ANSWER_B from
    # ``b`` on; below ``work_edge`` it is a WORK token, which keeps w_cap.
    work_edge = cum[:, :, 0].reshape(-1)
    lo = work_edge.copy()
    lo[n_states - 1 :: n_states] = -1.0
    hi, b = cum[:, :, 1].reshape(-1), cum[:, :, 2].reshape(-1)
    first_state = problems * n_states
    state = first_state.copy()
    length = np.full(n, l_max + 1, dtype=np.intp)  # until the rollout answers
    exit_u = np.empty(n)  # the uniform of its latest exit, its answer's once it has one
    cap_work = np.zeros(n, dtype=np.intp)  # WORK tokens at w_cap
    exit_rows, exit_tokens, exit_states = [], [], []  # every WORK exit
    rows = np.arange(n)
    offset, width = 0, min(_FIRST_CHUNK, l_max)
    while rows.size:
        chunk = np.empty((rows.size, width + 1))
        chunk[:, width] = 2.0  # a sentinel that exits every state
        if offset:
            for out, row in zip(chunk[:, :width], rows.tolist()):
                rngs[row].random(out=out)
        else:
            chunk[:, :width], pcg_hi, pcg_lo = _first_chunk(words, width)
        columns = np.arange(width + 1)
        # The rollouts still in this chunk: their states, their uniforms and
        # the column of their last exit.
        r, s, ur, cursor = rows, state[rows], chunk, None
        spilled = []  # rollouts that go on into the next chunk
        while r.size:
            lo_r = lo[s]
            exits = (ur < lo_r[:, None]) | (ur >= hi[s][:, None])
            if cursor is not None:
                exits &= columns > cursor[:, None]
            j = exits.argmax(axis=1)
            cap = lo_r < 0
            if cap.any():
                kept = (ur[cap] < work_edge[s[cap]][:, None]) & (columns < j[cap][:, None])
                if cursor is not None:
                    kept &= columns > cursor[cap][:, None]
                cap_work[r[cap]] += kept.sum(axis=1)
            u = exit_u[r] = ur[np.arange(r.size), j]
            work = u < lo_r
            token = offset + j  # the exit's place in its rollout
            exit_rows.append(r[work])
            exit_tokens.append(token[work])
            exit_states.append(s[work])
            s += work
            state[r] = s
            answer = (j < width) & ~work
            length[r[answer]] = token[answer] + 1
            more = work & (j < width - 1)
            spilled.append(r[~(answer | more)])
            r, s, ur, cursor = r[more], s[more], ur[more], j[more]
        rows = np.concatenate(spilled) if offset + width < l_max else rows[:0]
        if not offset:
            rngs = dict(zip(rows.tolist(), _generators(words[rows], pcg_hi[rows], pcg_lo[rows])))
        offset += width
        width = min(2 * width, l_max - offset, max(_FIRST_CHUNK, _CHUNK_UNIFORMS // max(rows.size, 1)))

    # The count table in one bincount, each term at its flat (rollout,
    # state, action) cell: an exit adds one WORK and its place t as FILLERs
    # to the state it leaves, and -(t + 1) FILLERs to the one it enters;
    # the last state gets every token left that is not its answer or a
    # WORK at w_cap.
    answered = length <= l_max
    length = np.minimum(length, l_max)
    last = Action.ANSWER_A + (exit_u >= b[state])  # the answer, if answered
    exit_rows = np.concatenate(exit_rows)
    exit_tokens = np.concatenate(exit_tokens)
    row_base = np.arange(n) * n_states - first_state  # flat state -> table row
    exit_cell = (row_base[exit_rows] + np.concatenate(exit_states)) * N_ACTIONS
    end_cell = (row_base + state) * N_ACTIONS
    terms = (
        (exit_cell + Action.WORK, 1),
        (exit_cell + Action.FILLER, exit_tokens),
        (exit_cell + (N_ACTIONS + Action.FILLER), -1 - exit_tokens),
        (end_cell + Action.FILLER, length - answered - cap_work),
        (end_cell + Action.WORK, cap_work),
        ((end_cell + last)[answered], 1),
    )
    cells = np.concatenate([c for c, _ in terms])
    weights = np.concatenate([np.broadcast_to(w, c.shape) for c, w in terms])
    counts = np.bincount(cells, weights, n * n_states * N_ACTIONS).astype(np.int32).reshape(n, n_states, N_ACTIONS)
    work = state - first_state + cap_work
    return counts, answered, last, work


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
    bank = []
    for i in range(count):
        bank.append(
            ProblemSpec(
                id=f"p{i:03d}",
                difficulty=d_min + i % span,
                correct_answer=ANSWERS[int(rng.integers(2))],
            )
        )
    return tuple(bank)


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
