"""Scalar reference implementations that the tests check the library against.

Nothing in ``conciserl`` calls these: the sampler records what they would
recompute, and the objective works on whole token arrays. They restate the
task rules and the clipped term one token or one trace at a time.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from conciserl.core import ProblemSpec, Rollout
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

    The one-trace reference for the states ``objective.flatten`` derives for
    a whole batch. Raises on infeasible traces (tokens after an answer).
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
