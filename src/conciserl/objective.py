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
    n_actions = probs.shape[2]
    grad = np.zeros_like(policy.logits)
    members: dict[int, list[int]] = {}
    for i, group in enumerate(groups):
        members.setdefault(policy.problem_index(group.problem_id), []).append(i)
    values = [0.0] * len(groups)
    for p, batch_order in members.items():
        # One gradient stream per problem: for each of its groups in batch
        # order, every token's one-hot term, then every token's -probs term
        # of action 0, of action 1, ... bincount adds a cell's terms in
        # input order, from zero, so each cell gets the additions of
        # accumulating group after group, token after token.
        size = (n_actions + 1) * sum(len(groups[i].actions) for i in batch_order)
        cells, terms = np.empty(size, dtype=np.intp), np.empty(size)
        at = 0
        for i in batch_order:
            group = groups[i]
            n = len(group.actions)
            group_cells = cells[at : at + (n_actions + 1) * n].reshape(n_actions + 1, n)
            group_terms = terms[at : at + (n_actions + 1) * n].reshape(n_actions + 1, n)
            at += (n_actions + 1) * n
            row = group.states * n_actions
            np.add(row, group.actions, out=group_cells[0])
            np.add(row, np.arange(n_actions)[:, None], out=group_cells[1:])
            adv = np.repeat(advantages[i].values, group.lengths)
            ratio = np.exp(logp[p, group.states, group.actions] - group.behavior_logps)
            unclipped_val = ratio * adv
            clipped_val = np.clip(ratio, 1.0 - eps_low, 1.0 + eps_high) * adv
            values[i] = np.minimum(unclipped_val, clipped_val).sum() / n
            # d(ratio * A)/d logits = ratio * A * (onehot(action) - probs(state)),
            # with ties taking the unclipped branch
            np.divide(np.where(unclipped_val <= clipped_val, unclipped_val, 0.0), n * len(groups), out=group_terms[0])
            np.take(probs[p].T, group.states, axis=1, out=group_terms[1:])
            group_terms[1:] *= -group_terms[0]
        grad[p] = np.bincount(cells, terms, grad[p].size).reshape(grad.shape[1:])
    # One running sum in batch order (the builtin sum of floats compensates
    # its rounding from Python 3.12 on).
    total = 0.0
    for value in values:
        total += value
    return total / len(groups), grad
