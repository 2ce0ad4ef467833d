"""FillerCount environment and tabular softmax policy.

The task: emit at least ``difficulty`` WORK tokens, then the right answer
token. FILLER tokens are allowed anywhere and never help, so the shortest
correct trace has exactly ``difficulty + 1`` tokens. Correctness depends only
on the running work count and the final answer, which makes (problem,
work_count) a sufficient state and keeps the policy a small logit tensor
that is differentiable by hand.
"""

from __future__ import annotations

from enum import IntEnum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import ANSWERS, InvariantViolation, ProblemSpec, RolloutGroup


class Action(IntEnum):
    WORK = 0
    FILLER = 1
    ANSWER_A = 2
    ANSWER_B = 3


N_ACTIONS = 4
_ANSWER_FOR_LETTER = {"A": Action.ANSWER_A, "B": Action.ANSWER_B}
_LETTER_FOR_ANSWER = {v: k for k, v in _ANSWER_FOR_LETTER.items()}


def answer_letter(action: int) -> str:
    """The answer letter emitted by an ANSWER_* action."""
    return _LETTER_FOR_ANSWER[Action(action)]


class TabularPolicy:
    """Softmax policy over actions, conditioned on (problem, work_count).

    ``logits`` has shape (n_problems, w_cap + 1, N_ACTIONS). The behavior
    snapshot used for sampling is just a ``copy()`` of the current policy.
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


# Width of each rollout's first chunk of uniforms; every later chunk doubles
# (capped at the tokens left before l_max).
_FIRST_CHUNK = 16
# Rollouts are walked together in blocks of at most this many rollouts and
# this many tokens at l_max: a block's generators, uniforms and token columns
# are all that the sampler keeps live besides the finished groups. A block
# holds whole groups, or part of one group when a group is larger.
_BLOCK_ROLLOUTS = 256
_BLOCK_TOKENS = 1 << 19


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
    ``default_rng((*key, i, r))`` and takes the first action whose
    cumulative probability exceeds it. An episode ends at the first ANSWER_*
    token or is truncated at ``l_max`` tokens; truncated episodes are
    incorrect by convention.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    cum = np.exp(logp).cumsum(axis=-1)
    block = max(1, min(_BLOCK_ROLLOUTS, _BLOCK_TOKENS // l_max))
    groups: list[RolloutGroup] = []
    if group_size <= block:
        per_block = block // group_size
        for first in range(0, len(bank), per_block):
            problems = range(first, min(first + per_block, len(bank)))
            groups += _sample_block(logp, cum, bank, problems, range(group_size), key, l_max)
        return groups
    for p in range(len(bank)):
        parts = [
            _sample_block(logp, cum, bank, range(p, p + 1), range(r, min(r + block, group_size)), key, l_max)[0]
            for r in range(0, group_size, block)
        ]
        columns = ("lengths", "correct", "truncated", "actions", "states", "behavior_logps")
        groups.append(RolloutGroup(bank[p].id, **{c: np.concatenate([getattr(g, c) for g in parts]) for c in columns}))
    return groups


def _sample_block(
    logp: np.ndarray,
    cum: np.ndarray,
    bank: Sequence[ProblemSpec],
    problems: range,
    rollouts: range,
    key: tuple[int, ...],
    l_max: int,
) -> list[RolloutGroup]:
    """The ``rollouts`` of each problem of ``bank[problems]``, as one group
    per problem, walked one state exit at a time.

    In state w a FILLER token keeps the state, and so does a WORK token at
    ``w_cap``; any other token exits it. A run of state-keeping tokens
    therefore ends at the first uniform outside ``[cum[w, 0], cum[w, 1])``
    (``[0, cum[w, 1])`` at ``w_cap``), which one numpy pass finds for every
    live rollout at once. Rollouts draw their uniforms in doubling chunks;
    PCG64 yields the same doubles whatever the chunk sizes, so a rollout
    consumes exactly the uniforms a token-by-token loop would. Every token's
    action is then the same comparison against its state's ``cum`` row.
    """
    n_states = logp.shape[1]
    group_size = len(rollouts)
    n = len(problems) * group_size
    rngs = [np.random.default_rng((*key, p, r)) for p in problems for r in rollouts]
    # Per flat (problem, state) index: a uniform below ``lo`` is a WORK exit
    # (never at w_cap), one at or above ``hi`` an answer.
    lo = cum[:, :, 0].copy()
    lo[:, -1] = -1.0
    lo, hi = lo.reshape(-1), cum[:, :, 1].reshape(-1)
    first_state = np.repeat(np.arange(problems.start, problems.stop) * n_states, group_size)
    state = first_state.copy()
    length = np.full(n, l_max, dtype=np.intp)  # until the rollout answers
    exit_rows, exit_tokens = [], []  # where each WORK exit happened
    chunks = []  # (rows, offset, uniforms) of every chunk drawn
    rows = np.arange(n)
    offset, width = 0, min(_FIRST_CHUNK, l_max)
    while rows.size:
        chunk = np.empty((rows.size, width + 1))
        chunk[:, width] = 2.0  # a sentinel that exits every state
        for out, row in zip(chunk[:, :width], rows.tolist()):
            rngs[row].random(out=out)
        chunks.append((rows, offset, chunk))
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
            work = ur[np.arange(r.size), j] < lo_r
            s += work
            state[r] = s
            token = offset + j  # the exit's place in its rollout
            exit_rows.append(r[work])
            exit_tokens.append(token[work])
            answer = (j < width) & ~work
            length[r[answer]] = token[answer] + 1
            more = work & (j < width - 1)
            spilled.append(r[~(answer | more)])
            r, s, ur, cursor = r[more], s[more], ur[more], j[more]
        offset += width
        width = min(2 * width, l_max - offset)
        rows = np.concatenate(spilled) if width else rows[:0]

    # Token columns, rollout after rollout.
    start = np.cumsum(length) - length
    total = int(length.sum())
    u = np.empty(total)
    while chunks:
        rows, offset, chunk = chunks.pop()
        used = np.minimum(length[rows] - offset, chunk.shape[1] - 1)
        first = np.cumsum(used) - used
        dest = np.repeat(start[rows] + offset - first, used)
        dest += np.arange(len(dest))
        u[dest] = chunk[np.arange(chunk.shape[1]) < used[:, None]]
        del chunk, dest
    # A rollout's state goes up by one right after each of its WORK exits: a
    # token's flat (problem, state) index is the running sum of these steps.
    exit_rows = np.concatenate(exit_rows)
    after = start[exit_rows] + np.concatenate(exit_tokens) + 1
    inside = after < start[exit_rows] + length[exit_rows]
    steps = np.zeros(total, dtype=np.intp)
    steps[after[inside]] = 1
    last_state = first_state + np.bincount(exit_rows[inside], minlength=n)
    steps[start] = first_state - np.concatenate(([0], last_state[:-1]))
    flat = np.cumsum(steps)
    del steps
    edges = cum.reshape(-1, N_ACTIONS)
    actions = (u >= edges[:, 0][flat]).astype(np.intp)
    actions += u >= edges[:, 1][flat]
    actions += u >= edges[:, 2][flat]
    del u
    logps = logp.reshape(-1)[flat * N_ACTIONS + actions]
    states = np.subtract(flat, np.repeat(first_state, length), out=flat)
    work = np.add.reduceat(actions == Action.WORK, start, dtype=np.intp)
    last = actions[start + length - 1]

    groups = []
    for k, p in enumerate(problems):
        problem = bank[p]
        g = slice(k * group_size, (k + 1) * group_size)
        t = slice(start[g.start], start[g.start] + int(length[g].sum()))
        groups.append(
            RolloutGroup(
                problem_id=problem.id,
                lengths=length[g],
                correct=(last[g] == _ANSWER_FOR_LETTER[problem.correct_answer]) & (work[g] >= problem.difficulty),
                truncated=last[g] < Action.ANSWER_A,
                actions=actions[t],
                states=states[t],
                behavior_logps=logps[t],
            )
        )
    return groups


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
