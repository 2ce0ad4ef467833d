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
    """
    if not (0 < eps_low < eps_high):
        raise ValueError("need 0 < eps_low < eps_high")
    if not groups:
        raise ValueError("empty batch")
    if len(groups) != len(advantages):
        raise ValueError("one AdvantageVector per group required")
    cells = policy.logits.shape[1:]
    logp = policy.log_probs()
    probs = np.exp(logp)
    grad = np.zeros_like(policy.logits)
    total = 0.0
    for group, a in zip(groups, advantages):
        if len(a.values) != group.size:
            raise ValueError(f"advantage vector size mismatch for {group.problem_id!r}")
        if group.counts.shape[1:] != cells:
            raise ValueError(
                f"count table of {group.problem_id!r} has cells {group.counts.shape[1:]}, not the policy's {cells}"
            )
        p = policy.problem_index(group.problem_id)
        n = int(group.lengths.sum())
        ratio = np.exp(logp[p] - group.behavior_logp)
        adv = np.asarray(a.values)[:, None, None]
        unclipped_val = ratio * adv
        clipped_val = np.clip(ratio, 1.0 - eps_low, 1.0 + eps_high) * adv
        # One running sum in batch order (the builtin sum of floats
        # compensates its rounding from Python 3.12 on).
        total += float((group.counts * np.minimum(unclipped_val, clipped_val)).sum()) / n
        # d(ratio * A)/d logits = ratio * A * (onehot(action) - probs(state)),
        # with ties taking the unclipped branch
        weight = (group.counts * np.where(unclipped_val <= clipped_val, unclipped_val, 0.0)).sum(axis=0)
        weight /= n * len(groups)
        grad[p] += weight - probs[p] * weight.sum(axis=-1, keepdims=True)
    return total / len(groups), grad
