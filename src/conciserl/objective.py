"""Token-level clipped surrogate objective and its exact gradient.

Per group, the objective is the clipped-term sum over all tokens divided by
the group's total token count; the batch objective is the mean over groups.
Clipping is asymmetric (eps_low < eps_high), permitting larger updates in the
favorable direction. The gradient is derived analytically for the tabular
softmax policy: a token whose min picks the clipped-and-constant branch
contributes nothing, otherwise it contributes ratio * advantage times the
softmax score function at its state.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .advantage import AdvantageVector
from .core import RolloutGroup
from .env import Action, TabularPolicy


@dataclass(frozen=True)
class TokenBatch:
    """Every token of one training step, flattened over groups and rollouts.

    Group g owns tokens ``offsets[g]:offsets[g + 1]`` and belongs to policy
    row ``problem_index[g]``. ``old_logps`` are behavior-snapshot constants;
    new-policy log-probs are recomputed from the current parameters via
    (problem_index, states, actions) lookups.
    """

    problem_index: np.ndarray  # (G,) policy row of each group
    offsets: np.ndarray        # (G + 1,) first token of each group, then T
    states: np.ndarray         # (T,) work-counter state per token
    actions: np.ndarray        # (T,)
    old_logps: np.ndarray      # (T,)
    advantages: np.ndarray     # (T,) each rollout's advantage on its tokens

    def __post_init__(self) -> None:
        n = len(self.actions)
        if len(self.problem_index) < 1:
            raise ValueError("empty batch")
        if not (len(self.states) == len(self.old_logps) == len(self.advantages) == n):
            raise ValueError("per-token arrays must have equal length")
        bounds = self.offsets
        if len(bounds) != len(self.problem_index) + 1 or bounds[0] != 0 or bounds[-1] != n:
            raise ValueError("offsets must run from 0 to the token count, one per group plus one")
        if np.any(np.diff(bounds) < 1):
            raise ValueError("every group needs at least one token")

    def groups(self) -> list[tuple[int, slice]]:
        """(problem index, token slice) of every group, in batch order."""
        bounds = self.offsets.tolist()
        return [(p, slice(a, b)) for p, a, b in zip(self.problem_index.tolist(), bounds, bounds[1:])]


def flatten(
    groups: Sequence[RolloutGroup],
    advantages: Sequence[AdvantageVector],
    policy: TabularPolicy,
) -> TokenBatch:
    """One TokenBatch from a step's rollout groups and their advantages.

    A token's state is the number of WORK tokens before it in its rollout,
    capped at ``w_cap``; each rollout's advantage is repeated over its tokens.
    """
    if len(groups) != len(advantages):
        raise ValueError("one AdvantageVector per group required")
    for group, adv in zip(groups, advantages):
        if len(adv.values) != group.size:
            raise ValueError(f"advantage vector size mismatch for {group.problem_id!r}")
    rollouts = [r for g in groups for r in g.rollouts]
    lengths = np.array([r.length for r in rollouts], dtype=np.intp)
    n = int(lengths.sum())
    actions = np.fromiter(chain.from_iterable(r.actions for r in rollouts), np.intp, n)
    old_logps = np.fromiter(chain.from_iterable(r.behavior_logps for r in rollouts), float, n)

    # Running WORK count before each token, then rebased to its rollout.
    is_work = actions == Action.WORK
    states = np.cumsum(is_work, dtype=np.intp)
    states -= is_work
    states -= np.repeat(states[np.cumsum(lengths) - lengths], lengths)
    np.minimum(states, policy.w_cap, out=states)

    group_tokens = [sum(r.length for r in g.rollouts) for g in groups]
    return TokenBatch(
        problem_index=np.array([policy.problem_index(g.problem_id) for g in groups], dtype=np.intp),
        offsets=np.cumsum([0] + group_tokens, dtype=np.intp),
        states=states,
        actions=actions,
        old_logps=old_logps,
        advantages=np.repeat([v for adv in advantages for v in adv.values], lengths),
    )


def surrogate(
    batch: TokenBatch, policy: TabularPolicy, eps_low: float, eps_high: float
) -> tuple[float, np.ndarray]:
    """Batch objective, the mean over groups of token-normalized clipped
    sums, and its exact gradient w.r.t. the policy logits, in one pass.

    At an exact tie between the two min branches the unclipped branch's
    gradient is used (ties are measure-zero under sampling).
    """
    if not (0 < eps_low < eps_high):
        raise ValueError("need 0 < eps_low < eps_high")
    logp = policy.log_probs()
    probs = np.exp(logp)
    grad = np.zeros_like(policy.logits)
    groups = batch.groups()
    total = 0.0
    for p, span in groups:
        states, actions, adv = batch.states[span], batch.actions[span], batch.advantages[span]
        ratio = np.exp(logp[p, states, actions] - batch.old_logps[span])
        clipped = np.clip(ratio, 1.0 - eps_low, 1.0 + eps_high)
        unclipped_val = ratio * adv
        clipped_val = clipped * adv
        total += np.minimum(unclipped_val, clipped_val).sum() / len(ratio)
        active = unclipped_val <= clipped_val  # ties -> unclipped branch
        # d(ratio * A)/d logits = ratio * A * (onehot(action) - probs(state))
        weight = np.where(active, unclipped_val, 0.0) / (len(ratio) * len(groups))
        np.add.at(grad, (p, states, actions), weight)
        np.add.at(grad, (p, states), -weight[:, None] * probs[p, states])
    return total / len(groups), grad
