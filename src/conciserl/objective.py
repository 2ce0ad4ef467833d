"""Token-level clipped surrogate objective and its exact gradient.

Per group, the objective is the clipped-term sum over all tokens divided by
the group's total token count; the batch objective is the mean over groups.
Clipping is asymmetric (eps_low < eps_high), permitting larger updates in the
favorable direction. A token's ratio depends only on its (state, action)
cell, so each rollout's token sum is its count table weighted cell by cell.
The gradient is derived analytically for the tabular softmax policy: a token
whose min picks the clipped-and-constant branch contributes nothing,
otherwise it contributes ratio * advantage times the softmax score function
at its state.
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

    The batch is computed as one ``(P, G_max, w_cap + 1, N_ACTIONS)`` table,
    groups shorter than ``G_max`` padded with empty rollouts of advantage 0.
    A problem may appear in more than one group; its gradient rows are summed
    in batch order.
    """
    if not (0 < eps_low < eps_high):
        raise ValueError("need 0 < eps_low < eps_high")
    if not groups:
        raise ValueError("empty batch")
    if len(groups) != len(advantages):
        raise ValueError("one AdvantageVector per group required")
    cells = policy.logits.shape[1:]
    counts = np.zeros((len(groups), max(g.size for g in groups), *cells), dtype=np.int32)
    adv = np.zeros(counts.shape[:2])
    for i, (group, a) in enumerate(zip(groups, advantages)):
        if len(a.values) != group.size:
            raise ValueError(f"advantage vector size mismatch for {group.problem_id!r}")
        if group.counts.shape[1:] != cells:
            raise ValueError(
                f"count table of {group.problem_id!r} has cells {group.counts.shape[1:]}, not the policy's {cells}"
            )
        counts[i, : group.size] = group.counts
        adv[i, : group.size] = a.values
    index = np.array([policy.problem_index(g.problem_id) for g in groups])
    n = counts.sum(axis=(1, 2, 3), dtype=np.intp)  # (P,) tokens per group
    logp = policy.log_probs()
    ratio = np.exp(logp[index] - np.array([g.behavior_logp for g in groups]))[:, None]
    adv = adv[:, :, None, None]
    unclipped_val = ratio * adv
    clipped_val = np.clip(ratio, 1.0 - eps_low, 1.0 + eps_high) * adv
    per_group = (counts * np.minimum(unclipped_val, clipped_val)).sum(axis=(1, 2, 3)) / n
    # One running sum in batch order, as a loop over the groups would add.
    total = float(np.cumsum(per_group)[-1])
    # d(ratio * A)/d logits = ratio * A * (onehot(action) - probs(state)),
    # with ties taking the unclipped branch
    weight = (counts * np.where(unclipped_val <= clipped_val, unclipped_val, 0.0)).sum(axis=1)
    weight /= (n * len(groups))[:, None, None]
    grad = np.zeros_like(policy.logits)
    np.add.at(grad, index, weight - np.exp(logp[index]) * weight.sum(axis=-1, keepdims=True))
    return total / len(groups), grad
