"""Group-relative advantages with count normalization.

Count mode divides the centered rewards by (correct_count + eps) instead of
the group standard deviation, so gradient magnitude is strictly decreasing in
the number of correct rollouts: hard problems get large correctness-driven
updates, easy problems get small brevity-driven ones. The std-normalized
variant is kept as an ablation baseline.

Both work along the last axis of a ``(..., G)`` reward table: one group, or a
step's ``(P, G)`` batch in one call.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

EPS_STD = 1e-8  # guards zero-variance groups in the std baseline


def count_advantage(rewards: ArrayLike, correct_count: ArrayLike, epsilon_adv: float) -> np.ndarray:
    """(r_i - mean) / (correct_count + eps) per group, a zero count clamped
    to 1; ``correct_count`` holds one count per group (``rewards.shape[:-1]``)."""
    r = _rewards(rewards)
    counts = np.asarray(correct_count)
    if counts.shape != r.shape[:-1]:
        raise ValueError(f"correct_count of shape {counts.shape} does not match {r.shape[:-1]} groups")
    if (counts < 0).any():
        raise ValueError("correct_count must be >= 0")
    if epsilon_adv <= 0:
        raise ValueError("epsilon_adv must be > 0")
    mu = np.add.reduce(r, axis=-1, keepdims=True) / r.shape[-1]  # the bits of r.mean(), without its wrappers
    return (r - mu) / (np.maximum(counts, 1) + epsilon_adv)[..., None]


def std_advantage(rewards: ArrayLike) -> np.ndarray:
    """(r_i - mean) / (population std + EPS_STD) per group; the GRPO baseline."""
    r = _rewards(rewards)
    return (r - r.mean(axis=-1, keepdims=True)) / (r.std(axis=-1, keepdims=True) + EPS_STD)


def _rewards(rewards: ArrayLike) -> np.ndarray:
    """A reward table as a float array: groups of at least two along the last
    axis, every value in [0, 1] (a NaN is not)."""
    r = np.asarray(rewards, dtype=float)
    if r.ndim == 0 or r.shape[-1] < 2:
        raise ValueError("need groups of at least 2 rewards")
    # min() and max() propagate a NaN, which fails both comparisons.
    if not (r.min() >= 0.0 and r.max() <= 1.0):
        raise ValueError("rewards must lie in [0, 1]")
    return r


def advantage_gap(r_pen: float, correct_count: int, epsilon_adv: float) -> float:
    """Within-group advantage difference between a concise-correct and a
    verbose-correct rollout: (1 - r_pen) / (correct_count + eps).

    This is the selective pressure the gradient exerts on length; it shrinks
    as more rollouts in the group are correct.
    """
    if correct_count < 1:
        raise ValueError("correct_count must be >= 1")
    if epsilon_adv <= 0:
        raise ValueError("epsilon_adv must be > 0")
    return (1.0 - r_pen) / (correct_count + epsilon_adv)
