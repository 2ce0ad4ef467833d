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
    group: RolloutBatch, buffer: ExperienceBuffer, alpha: float, r_pen: float
) -> list[ShapedReward]:
    """Shape every rollout of one problem's group, such as ``batch[p]``, against its buffer threshold.

    Order is preserved. The caller is responsible for using the buffer state
    from before the current batch's update (the threshold a rollout is judged
    against must not be tightened by that same rollout).
    """
    thr = buffer.threshold(group.problem_id, alpha)
    return [
        shape(length, correct, thr, r_pen)
        for length, correct in zip(group.lengths[0].tolist(), group.correct[0].tolist())
    ]
