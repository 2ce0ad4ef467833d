import math
from collections import Counter

import numpy as np
import pytest

from conciserl.buffer import ExperienceBuffer
from conciserl.core import RunConfig
from conciserl.env import initial_policy, make_problem_bank, sample_batch
from conciserl.rewards import RewardTier, ShapedReward, shape, shape_group
from tests.reference import stack
from tests.test_buffer import record


class TestShape:
    def test_concise_correct(self):
        r = shape(105, True, threshold=110.0, r_pen=0.5)
        assert r == ShapedReward(1.0, RewardTier.CONCISE_CORRECT)

    def test_verbose_correct(self):
        r = shape(120, True, threshold=110.0, r_pen=0.5)
        assert r == ShapedReward(0.5, RewardTier.VERBOSE_CORRECT)

    def test_incorrect(self):
        for length in (1, 50, 5000):
            assert shape(length, False, 110.0, 0.5) == ShapedReward(
                0.0, RewardTier.INCORRECT
            )

    def test_boundary_is_inclusive(self):
        assert shape(110, True, 110.0, 0.5).value == 1.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_threshold_not_finite_and_positive_rejected(self, bad):
        for correct in (True, False):
            with pytest.raises(ValueError, match="threshold"):
                shape(3, correct, bad, 0.5)

    def test_r_pen_out_of_range(self):
        with pytest.raises(ValueError):
            shape(3, True, 10.0, 1.0)

    def test_tier_exhaustive_random(self):
        # All four boundary lengths for random (l_star, alpha, r_pen) triples.
        rng = np.random.default_rng(5)
        for _ in range(100):
            l_star = int(rng.integers(2, 2000))
            alpha = float(rng.uniform(0, 0.5))
            r_pen = float(rng.uniform(0, 0.999))
            thr = l_star * (1 + alpha)
            lengths = [l_star - 1, l_star, math.floor(thr), math.ceil(thr) + 1]
            for correct in (True, False):
                for length in lengths:
                    if length < 1:
                        continue
                    got = shape(length, correct, thr, r_pen)
                    if not correct:
                        expected = 0.0
                    elif length <= thr:
                        expected = 1.0
                    else:
                        expected = r_pen
                    assert got.value == expected
                    assert got.value in (0.0, r_pen, 1.0)

    def test_length_monotonicity(self):
        # for correct rollouts, shorter never scores lower
        rng = np.random.default_rng(6)
        for _ in range(200):
            thr = float(rng.uniform(1, 100))
            r_pen = float(rng.uniform(0, 0.999))
            l1, l2 = sorted(int(rng.integers(1, 200)) for _ in range(2))
            assert shape(l1, True, thr, r_pen).value >= shape(l2, True, thr, r_pen).value

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            length = int(rng.integers(1, 200))
            r_pen = float(rng.uniform(0, 0.999))
            t1, t2 = sorted(float(rng.uniform(0.5, 250)) for _ in range(2))
            assert shape(length, True, t1, r_pen).value <= shape(length, True, t2, r_pen).value

    def test_r_pen_zero_degenerates_to_binary(self):
        assert shape(5, True, 10.0, 0.0).value == 1.0
        assert shape(50, True, 10.0, 0.0).value == 0.0
        assert shape(5, False, 10.0, 0.0).value == 0.0


class TestShapeGroup:
    def test_hand_example(self):
        buf = ExperienceBuffer({"q": 100}, 16384)
        g = record("q", [(100, True), (200, True), (50, False), (110, True)])
        values = [s.value for s in shape_group(g, buf, alpha=0.1, r_pen=0.5)]
        assert values == [1.0, 0.5, 0.0, 1.0]

    def test_all_incorrect(self):
        buf = ExperienceBuffer({"q": 100}, 16384)
        g = record("q", [(n, False) for n in (10, 20, 30)])
        assert [s.value for s in shape_group(g, buf, 0.1, 0.5)] == [0.0, 0.0, 0.0]

    def test_unsolved_problem_has_generous_threshold(self):
        l_max = 16384
        buf = ExperienceBuffer.init({"q"}, l_max)
        g = record("q", [(l_max, True)])
        assert shape_group(g, buf, 0.1, 0.5)[0].value == 1.0

    def test_unknown_problem(self):
        buf = ExperienceBuffer.init({"q"}, 100)
        g = record("zz", [(10, True)])
        with pytest.raises(KeyError):
            shape_group(g, buf, 0.1, 0.5)

    def test_one_group_of_a_batch(self):
        # each group of a batch is shaped against its own problem's threshold,
        # and the batch call is the per-group calls, concatenated
        buf = ExperienceBuffer({"q": 100, "r": 10}, 16384)
        groups = [record("q", [(100, True), (50, False)]), record("r", [(100, True), (11, True)])]
        per_group = [[s.value for s in shape_group(g, buf, 0.1, 0.5)] for g in groups]
        assert per_group == [[1.0, 0.0], [0.5, 1.0]]
        assert shape_group(stack(groups), buf, 0.1, 0.5) == [s for g in groups for s in shape_group(g, buf, 0.1, 0.5)]

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_threshold_not_finite_rejected(self, alpha):
        buf = ExperienceBuffer({"q": 100}, 16384)
        with pytest.raises(ValueError, match="threshold"):
            shape_group(record("q", [(10, True)]), buf, alpha, 0.5)

    def test_r_pen_out_of_range(self):
        buf = ExperienceBuffer({"q": 100}, 16384)
        for r_pen in (-0.1, 1.0, float("nan")):
            with pytest.raises(ValueError, match="r_pen"):
                shape_group(record("q", [(10, False)]), buf, 0.1, r_pen)


def assert_shapes_as_scalar(batch, buffer, alpha, r_pen):
    """The whole-batch shaping gives every rollout what ``shape`` gives it."""
    got = shape_group(batch, buffer, alpha, r_pen)
    want = [
        shape(length, correct, buffer.threshold(pid, alpha), r_pen)
        for pid, lengths, corrects in zip(batch.problem_ids, batch.lengths.tolist(), batch.correct.tolist())
        for length, correct in zip(lengths, corrects)
    ]
    assert got == want
    return got


class TestWholeBatchEqualsScalar:
    """``shape_group`` over a whole ``(P, G)`` batch equals ``rewards.shape``
    on every rollout."""

    @pytest.mark.parametrize("r_pen", [0.0, 0.5])
    def test_hand_built_records(self, r_pen):
        l_max = 64
        buf = ExperienceBuffer({"at": 10, "unsolved": l_max, "wrong": 3, "low": 1}, l_max)
        batch = stack(
            [
                # lengths below, exactly at and above 10 * 1.1 = 11.0
                record("at", [(11, True), (10, True), (12, True), (11, False)]),
                # unsolved: the threshold is l_max * 1.1, above any length
                record("unsolved", [(l_max, True), (l_max, False), (1, True), (33, True)]),
                record("wrong", [(n, False) for n in (1, 3, 4, 60)]),
                record("low", [(1, True), (2, True), (1, False), (5, True)]),
            ]
        )
        tiers = [s.tier for s in assert_shapes_as_scalar(batch, buf, 0.1, r_pen)]
        concise, verbose, incorrect = RewardTier.CONCISE_CORRECT, RewardTier.VERBOSE_CORRECT, RewardTier.INCORRECT
        assert tiers == [
            concise, concise, verbose, incorrect,
            concise, incorrect, concise, concise,
            incorrect, incorrect, incorrect, incorrect,
            concise, verbose, incorrect, verbose,
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_sampled_desk_batches(self, seed):
        cfg = RunConfig(group_size=8, l_max=1024, seed=seed)
        bank = make_problem_bank(cfg.n_problems, (cfg.d_min, cfg.d_max), seed)
        ids = [p.id for p in bank]
        policy = initial_policy(ids, cfg.w_cap, cfg.init_answer_logit)
        rng = np.random.default_rng(seed)
        # entries at, below and above the sampled lengths, and one unsolved
        entries = {pid: int(rng.integers(1, 48)) for pid in ids}
        entries[ids[0]] = cfg.l_max
        buf = ExperienceBuffer(entries, cfg.l_max)
        batch = sample_batch(policy, bank, cfg.group_size, cfg.l_max, (seed, 1))
        for r_pen in (0.0, cfg.r_pen):
            tiers = Counter(s.tier for s in assert_shapes_as_scalar(batch, buf, cfg.alpha, r_pen))
            assert len(tiers) == len(RewardTier)

    def test_unknown_problem_raises_key_error(self):
        buf = ExperienceBuffer({"q": 100}, 16384)
        batch = stack([record("q", [(10, True)]), record("zz", [(10, True)])])
        with pytest.raises(KeyError, match="zz"):
            shape_group(batch, buf, 0.1, 0.5)
