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

import numpy as np

from .core import RolloutBatch
from .env import TabularPolicy


def surrogate(
    batch: RolloutBatch,
    advantages: np.ndarray,
    policy: TabularPolicy,
    eps_low: float,
    eps_high: float,
) -> tuple[float, np.ndarray]:
    """Batch objective, the mean over groups of token-normalized clipped
    sums, and its exact gradient w.r.t. the policy logits, in one pass.

    ``advantages[p, i]`` is rollout i of problem p's advantage, and applies
    to every one of its tokens. At an exact tie between the two min branches
    the unclipped branch's gradient is used (ties are measure-zero under
    sampling).
    """
    if not (0 < eps_low < eps_high):
        raise ValueError("need 0 < eps_low < eps_high")
    adv = np.asarray(advantages, dtype=float)
    if adv.shape != batch.correct.shape:
        raise ValueError(f"advantages of shape {adv.shape} do not match the batch's {batch.correct.shape} rollouts")
    cells = policy.logits.shape[1:]
    if batch.counts.shape[2:] != cells:
        raise ValueError(f"count table has cells {batch.counts.shape[2:]}, not the policy's {cells}")
    counts = batch.counts
    index = np.array([policy.problem_index(pid) for pid in batch.problem_ids])
    n = batch.lengths.sum(axis=1)  # (P,) tokens per group
    logp = policy.log_probs()
    ratio = np.exp(logp[index] - batch.behavior_logp)[:, None]
    adv = adv[:, :, None, None]
    unclipped_val = ratio * adv
    clipped_val = np.clip(ratio, 1.0 - eps_low, 1.0 + eps_high) * adv
    per_group = (counts * np.minimum(unclipped_val, clipped_val)).sum(axis=(1, 2, 3)) / n
    # One running sum in batch order, as a loop over the groups would add.
    total = float(np.cumsum(per_group)[-1])
    # d(ratio * A)/d logits = ratio * A * (onehot(action) - probs(state)),
    # with ties taking the unclipped branch
    weight = (counts * np.where(unclipped_val <= clipped_val, unclipped_val, 0.0)).sum(axis=1)
    weight /= (n * len(batch))[:, None, None]
    grad = np.zeros_like(policy.logits)
    grad[index] += weight - np.exp(logp[index]) * weight.sum(axis=-1, keepdims=True)
    return total / len(batch), grad
