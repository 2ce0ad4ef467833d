"""Three-tier reward shaping against the experience-buffer threshold.

A correct rollout scores 1 when its length is at or below the threshold
(inclusive), the discounted value r_pen when it is longer, and an incorrect
rollout scores 0. Keeping r_pen > 0 preserves positive signal for every
correct response while still applying graded compression pressure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .buffer import ExperienceBuffer
from .core import RolloutBatch


class RewardTier(Enum):
    CONCISE_CORRECT = "concise_correct"
    VERBOSE_CORRECT = "verbose_correct"
    INCORRECT = "incorrect"


@dataclass(frozen=True)
class ShapedReward:
    value: float
    tier: RewardTier


# The two tiers whose value is fixed; a ShapedReward is immutable, so every
# rollout in them shares one.
_INCORRECT = ShapedReward(0.0, RewardTier.INCORRECT)
_CONCISE_CORRECT = ShapedReward(1.0, RewardTier.CONCISE_CORRECT)


def shape(length: int, correct: bool, threshold: float, r_pen: float) -> ShapedReward:
    """Map one rollout's length and correctness to its three-tier reward.

    The length comparison is inclusive: length == threshold is concise.
    """
    if not 0 < threshold < math.inf:  # a NaN fails both comparisons
        raise ValueError(f"threshold must be a finite number > 0, got {threshold!r}")
    if not 0 <= r_pen < 1:
        raise ValueError("r_pen must be in [0, 1)")
    if not correct:
        return _INCORRECT
    if length <= threshold:
        return _CONCISE_CORRECT
    return ShapedReward(float(r_pen), RewardTier.VERBOSE_CORRECT)


def shape_group(
    batch: RolloutBatch, buffer: ExperienceBuffer, alpha: float, r_pen: float
) -> list[ShapedReward]:
    """Shape every rollout of a batch, or of a one-problem record, as
    ``shape`` would, in one ``np.where`` over ``(P, G)`` against each
    problem's threshold: one flat list in ``(p, i)`` order. Pass the buffer
    from before the batch's update, so no rollout tightens its own threshold."""
    thr = np.array([buffer.threshold(pid, alpha) for pid in batch.problem_ids])
    if not (thr.min() > 0 and thr.max() < math.inf):  # a NaN fails both comparisons
        raise ValueError(f"threshold must be a finite number > 0, got {thr.tolist()}")
    if not 0 <= r_pen < 1:
        raise ValueError("r_pen must be in [0, 1)")
    tiers = np.where(batch.correct, batch.lengths > thr[:, None], 2)  # concise 0, verbose 1, incorrect 2
    rewards = (_CONCISE_CORRECT, ShapedReward(float(r_pen), RewardTier.VERBOSE_CORRECT), _INCORRECT)
    return [rewards[t] for t in tiers.ravel().tolist()]
