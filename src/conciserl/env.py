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


def sample_group(
    logp: np.ndarray,
    problem: ProblemSpec,
    key: tuple[int, ...],
    group_size: int,
    l_max: int,
) -> RolloutGroup:
    """Autoregressively sample ``group_size`` episodes of one problem.

    ``logp`` is the problem's ``(w_cap + 1, N_ACTIONS)`` slice of
    ``TabularPolicy.log_probs()``, row w being the state with w WORK tokens
    so far; rollout r draws from ``default_rng((*key, r))``. An episode ends
    at the first ANSWER_* token or is truncated at ``l_max`` tokens;
    truncated episodes are incorrect by convention. Each token's state is
    recorded as it is sampled.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    # Plain-python rows: the per-token loop below is the hot path.
    c = np.exp(logp).cumsum(axis=1).tolist()
    lp = logp.tolist()
    w_cap = len(lp) - 1
    d = problem.difficulty
    want = int(_ANSWER_FOR_LETTER[problem.correct_answer])

    actions: list[int] = []
    states: list[int] = []
    logps: list[float] = []
    lengths: list[int] = []
    correct: list[bool] = []
    truncated: list[bool] = []
    for r in range(group_size):
        rng = np.random.default_rng((*key, r))
        start = len(actions)
        w = 0
        work = 0
        answered = False
        chunk: list[float] = []
        ci = 0
        for _ in range(l_max):
            if ci == len(chunk):
                chunk = rng.random(64).tolist()
                ci = 0
            u = chunk[ci]
            ci += 1
            row = c[w]
            if u < row[0]:
                a = 0
            elif u < row[1]:
                a = 1
            elif u < row[2]:
                a = 2
            else:
                a = 3
            actions.append(a)
            states.append(w)
            logps.append(lp[w][a])
            if a == 0:
                work += 1
                if w < w_cap:
                    w += 1
            elif a >= 2:
                answered = True
                break
        lengths.append(len(actions) - start)
        truncated.append(not answered)
        correct.append(answered and a == want and work >= d)
    return RolloutGroup(
        problem_id=problem.id,
        lengths=np.array(lengths, dtype=np.intp),
        correct=np.array(correct, dtype=bool),
        truncated=np.array(truncated, dtype=bool),
        actions=np.array(actions, dtype=np.intp),
        states=np.array(states, dtype=np.intp),
        behavior_logps=np.array(logps, dtype=float),
    )


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
