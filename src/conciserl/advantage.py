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
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))


def count_advantage(
    rewards: Sequence[float], correct_count: int, epsilon_adv: float
) -> AdvantageVector:
    """(r_i - mean) / (correct_count + eps), count clamped to 1 when zero."""
    r = np.asarray(rewards, dtype=float)
    if r.ndim != 1 or len(r) < 2:
        raise ValueError("need a group of at least 2 rewards")
    if np.any(r < 0) or np.any(r > 1):
        raise ValueError("rewards must lie in [0, 1]")
    if correct_count < 0:
        raise ValueError("correct_count must be >= 0")
    if epsilon_adv <= 0:
        raise ValueError("epsilon_adv must be > 0")
    mu = float(r.mean())
    denom = max(correct_count, 1) + epsilon_adv
    return AdvantageVector(tuple((r - mu) / denom))


def std_advantage(rewards: Sequence[float], eps_std: float = EPS_STD) -> AdvantageVector:
    """(r_i - mean) / (population std + eps_std); the GRPO baseline."""
    r = np.asarray(rewards, dtype=float)
    if r.ndim != 1 or len(r) < 2:
        raise ValueError("need a group of at least 2 rewards")
    mu = float(r.mean())
    denom = float(r.std()) + eps_std
    return AdvantageVector(tuple((r - mu) / denom))


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

