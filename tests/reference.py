"""Scalar reference implementations that the tests check the library against.

Nothing in ``conciserl`` calls these: the sampler records what they would
recompute, and the objective works on whole token arrays. They restate the
sampler, the task rules and the clipped term one token or one trace at a
time, and the objective and its gradient one group at a time.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from conciserl.advantage import AdvantageVector
from conciserl.core import ProblemSpec, Rollout, RolloutGroup
from conciserl.env import Action, TabularPolicy, answer_letter


def is_answer(action: int) -> bool:
    return action in (Action.ANSWER_A, Action.ANSWER_B)


def verify_trace(problem: ProblemSpec, actions: Sequence[int], truncated: bool) -> bool:
    """Correctness indicator for a terminated trace."""
    if truncated:
        return False
    if not actions or not is_answer(actions[-1]):
        raise ValueError("trace is not terminated")
    work = sum(1 for a in actions if a == Action.WORK)
    return (
        answer_letter(actions[-1]) == problem.correct_answer
        and work >= problem.difficulty
    )


def verify(problem: ProblemSpec, rollout: Rollout) -> bool:
    """Re-check a rollout's correctness flag from its trace."""
    if not rollout.truncated and not is_answer(rollout.actions[-1]):
        raise ValueError("rollout is not terminated")
    return verify_trace(problem, rollout.actions, rollout.truncated)


def replay_states(actions: Sequence[int], w_cap: int) -> np.ndarray:
    """Work-counter state before each token, replayed through the trace.

    The one-trace reference for the states ``trainer.sample_batch`` records
    while sampling. Raises on infeasible traces (tokens after an answer).
    """
    states = np.empty(len(actions), dtype=np.intp)
    w = 0
    last = len(actions) - 1
    for i, a in enumerate(actions):
        states[i] = w
        if a == Action.WORK:
            w = min(w + 1, w_cap)
        elif is_answer(a) and i != last:
            raise ValueError(f"token after answer at position {i}")
    return states


def logprob(policy: TabularPolicy, rollout: Rollout) -> np.ndarray:
    """Per-token log-probabilities of the recorded actions under the
    policy's current parameters."""
    pi = policy.problem_index(rollout.problem_id)
    states = replay_states(rollout.actions, policy.w_cap)
    return policy.log_probs()[pi, states, np.array(rollout.actions, dtype=np.intp)]


def token_ratio(new_logp: float, old_logp: float) -> float:
    """Importance ratio pi_theta / pi_theta_old for one token."""
    if not (np.isfinite(new_logp) and np.isfinite(old_logp)):
        raise ValueError("log-probabilities must be finite")
    return float(np.exp(new_logp - old_logp))


def clipped_term(ratio: float, advantage: float, eps_low: float, eps_high: float) -> float:
    """min(ratio * A, clip(ratio, 1 - eps_low, 1 + eps_high) * A)."""
    if not (0 < eps_low < eps_high):
        raise ValueError("need 0 < eps_low < eps_high")
    clipped = min(max(ratio, 1.0 - eps_low), 1.0 + eps_high)
    return min(ratio * advantage, clipped * advantage)


def sample_rollout(
    logp: np.ndarray,
    problem: ProblemSpec,
    rng: np.random.Generator,
    l_max: int,
) -> Rollout:
    """One episode from one problem's ``(w_cap + 1, N_ACTIONS)`` log-prob
    rows, drawing from ``rng`` token by token: the one-rollout reference for
    ``sample_group``, which draws rollout r of a group from
    ``default_rng((*key, r))``."""
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    cum = np.exp(logp).cumsum(axis=1).tolist()
    w_cap = len(logp) - 1
    actions: list[int] = []
    logps: list[float] = []
    w = 0
    truncated = True
    chunk: list[float] = []
    for _ in range(l_max):
        if not chunk:
            chunk = rng.random(64).tolist()[::-1]
        u = chunk.pop()
        a = next((i for i, edge in enumerate(cum[w][:-1]) if u < edge), len(cum[w]) - 1)
        actions.append(a)
        logps.append(float(logp[w, a]))
        if a == Action.WORK:
            w = min(w + 1, w_cap)
        elif is_answer(a):
            truncated = False
            break
    correct = not truncated and verify_trace(problem, actions, truncated)
    return Rollout(problem.id, tuple(actions), tuple(logps), len(actions), correct, truncated)


def group_of(rollouts: Sequence[Rollout], w_cap: int) -> RolloutGroup:
    """The columnar group of some rollouts of one problem, states replayed
    through each trace."""
    return RolloutGroup(
        problem_id=rollouts[0].problem_id,
        lengths=[r.length for r in rollouts],
        correct=[r.correct for r in rollouts],
        truncated=[r.truncated for r in rollouts],
        actions=np.concatenate([np.array(r.actions, dtype=np.intp) for r in rollouts]),
        states=np.concatenate([replay_states(r.actions, w_cap) for r in rollouts]),
        behavior_logps=np.concatenate([np.array(r.behavior_logps, dtype=float) for r in rollouts]),
    )


def columns(group: RolloutGroup) -> tuple:
    """A group's problem id and every column as a plain list, for comparing
    groups (a group compares equal only to itself)."""
    return tuple(
        getattr(group, f.name) if f.name == "problem_id" else getattr(group, f.name).tolist()
        for f in dataclasses.fields(group)
    )


def sample_group(
    logp: np.ndarray,
    problem: ProblemSpec,
    key: tuple[int, ...],
    group_size: int,
    l_max: int,
) -> RolloutGroup:
    """``group_size`` episodes of one problem, sampled token by token.

    ``logp`` is the problem's ``(w_cap + 1, N_ACTIONS)`` slice of
    ``TabularPolicy.log_probs()``; rollout r draws from
    ``default_rng((*key, r))`` in chunks of 64 uniforms, each token taking
    the first action whose cumulative probability exceeds its uniform, and
    records its state as it is sampled. The per-token reference for
    ``trainer.sample_batch``'s whole-batch walk.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    c = np.exp(logp).cumsum(axis=1).tolist()
    lp = logp.tolist()
    w_cap = len(lp) - 1
    d = problem.difficulty
    want = Action.ANSWER_A if problem.correct_answer == "A" else Action.ANSWER_B

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


def sample_batch(
    policy: TabularPolicy,
    bank: Sequence[ProblemSpec],
    group_size: int,
    l_max: int,
    key: tuple[int, ...],
) -> list[RolloutGroup]:
    """``trainer.sample_batch`` one group at a time: problem p's group is
    ``sample_group`` on its policy rows with key ``(*key, p)``."""
    logp = policy.log_probs()
    return [
        sample_group(logp[policy.problem_index(problem.id)], problem, (*key, p), group_size, l_max)
        for p, problem in enumerate(bank)
    ]


# The objective and its gradient one group at a time, each group given as a
# (problem index, states, actions, behavior log-probs, per-token advantages)
# tuple.


def token_terms(
    groups: Sequence[RolloutGroup], advantages: Sequence[AdvantageVector], policy: TabularPolicy
) -> list[tuple]:
    """The per-group tuples of some groups and their advantages, each
    rollout's advantage spread over its tokens."""
    return [
        (policy.problem_index(g.problem_id), g.states, g.actions, g.behavior_logps, np.repeat(a.values, g.lengths))
        for g, a in zip(groups, advantages)
    ]


def reference_surrogate(groups, policy, eps_low, eps_high):
    logp = policy.log_probs()
    total = 0.0
    for index, states, actions, old_logps, advantages in groups:
        ratio = np.exp(logp[index, states, actions] - old_logps)
        clipped = np.clip(ratio, 1.0 - eps_low, 1.0 + eps_high)
        terms = np.minimum(ratio * advantages, clipped * advantages)
        total += terms.sum() / len(terms)
    return total / len(groups)


def reference_gradient(groups, policy, eps_low, eps_high):
    logp = policy.log_probs()
    probs = np.exp(logp)
    grad = np.zeros_like(policy.logits)
    for index, states, actions, old_logps, advantages in groups:
        ratio = np.exp(logp[index, states, actions] - old_logps)
        clipped = np.clip(ratio, 1.0 - eps_low, 1.0 + eps_high)
        unclipped_val = ratio * advantages
        clipped_val = clipped * advantages
        active = unclipped_val <= clipped_val
        weight = np.where(active, unclipped_val, 0.0) / (len(ratio) * len(groups))
        np.add.at(grad, (index, states, actions), weight)
        np.add.at(grad, (index, states), -weight[:, None] * probs[index, states])
    return grad


def surrogate(groups, advantages, policy, eps_low, eps_high):
    """``objective.surrogate`` one group at a time, accumulating the
    gradient with ``np.add.at``."""
    terms = token_terms(groups, advantages, policy)
    return (
        reference_surrogate(terms, policy, eps_low, eps_high),
        reference_gradient(terms, policy, eps_low, eps_high),
    )
