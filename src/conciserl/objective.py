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

from typing import Sequence

import numpy as np

from .advantage import AdvantageVector
from .core import RolloutGroup
from .env import TabularPolicy


def surrogate(
    groups: Sequence[RolloutGroup],
    advantages: Sequence[AdvantageVector],
    policy: TabularPolicy,
    eps_low: float,
    eps_high: float,
) -> tuple[float, np.ndarray]:
    """Batch objective, the mean over groups of token-normalized clipped
    sums, and its exact gradient w.r.t. the policy logits, in one pass.

    Each rollout's advantage applies to every one of its tokens. At an exact
    tie between the two min branches the unclipped branch's gradient is used
    (ties are measure-zero under sampling).
    """
    if not (0 < eps_low < eps_high):
        raise ValueError("need 0 < eps_low < eps_high")
    if not groups:
        raise ValueError("empty batch")
    if len(groups) != len(advantages):
        raise ValueError("one AdvantageVector per group required")
    for group, a in zip(groups, advantages):
        if len(a.values) != group.size:
            raise ValueError(f"advantage vector size mismatch for {group.problem_id!r}")
    logp = policy.log_probs()
    probs = np.exp(logp)
    grad = np.zeros_like(policy.logits)
    total = 0.0
    for group, a in zip(groups, advantages):
        p = policy.problem_index(group.problem_id)
        states, actions = group.states, group.actions
        adv = np.repeat(a.values, group.lengths)
        ratio = np.exp(logp[p, states, actions] - group.behavior_logps)
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
