"""Group-relative advantages with count normalization.

Count mode divides the centered rewards by (correct_count + eps) instead of
the group standard deviation, so gradient magnitude is strictly decreasing in
the number of correct rollouts: hard problems get large correctness-driven
updates, easy problems get small brevity-driven ones. The std-normalized
variant is kept as an ablation baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

EPS_STD = 1e-8  # guards zero-variance groups in the std baseline


@dataclass(frozen=True)
class AdvantageVector:
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(map(float, self.values)))


def count_advantage(
    rewards: Sequence[float], correct_count: int, epsilon_adv: float
) -> AdvantageVector:
    """(r_i - mean) / (correct_count + eps), count clamped to 1 when zero."""
    r = _rewards(rewards)
    if correct_count < 0:
        raise ValueError("correct_count must be >= 0")
    if epsilon_adv <= 0:
        raise ValueError("epsilon_adv must be > 0")
    mu = np.add.reduce(r) / len(r)  # the bits of r.mean(), without its wrappers
    denom = max(correct_count, 1) + epsilon_adv
    return AdvantageVector(((r - mu) / denom).tolist())


def std_advantage(rewards: Sequence[float]) -> AdvantageVector:
    """(r_i - mean) / (population std + EPS_STD); the GRPO baseline."""
    r = _rewards(rewards)
    mu = float(r.mean())
    denom = float(r.std()) + EPS_STD
    return AdvantageVector(((r - mu) / denom).tolist())


def _rewards(rewards: Sequence[float]) -> np.ndarray:
    """One group's rewards as a float array: at least two, each in [0, 1]
    (a NaN is not)."""
    r = np.asarray(rewards, dtype=float)
    if r.ndim != 1 or len(r) < 2:
        raise ValueError("need a group of at least 2 rewards")
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

