import math

import numpy as np
import pytest

from conciserl.buffer import ExperienceBuffer
from conciserl.rewards import RewardTier, ShapedReward, shape, shape_group
from tests.test_buffer import group


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
        g = group("q", [(100, True), (200, True), (50, False), (110, True)])
        values = [s.value for s in shape_group(g, buf, alpha=0.1, r_pen=0.5)]
        assert values == [1.0, 0.5, 0.0, 1.0]

    def test_all_incorrect(self):
        buf = ExperienceBuffer({"q": 100}, 16384)
        g = group("q", [(n, False) for n in (10, 20, 30)])
        assert [s.value for s in shape_group(g, buf, 0.1, 0.5)] == [0.0, 0.0, 0.0]

    def test_unsolved_problem_has_generous_threshold(self):
        l_max = 16384
        buf = ExperienceBuffer.init({"q"}, l_max)
        g = group("q", [(l_max, True)])
        assert shape_group(g, buf, 0.1, 0.5)[0].value == 1.0

    def test_unknown_problem(self):
        buf = ExperienceBuffer.init({"q"}, 100)
        g = group("zz", [(10, True)])
        with pytest.raises(KeyError):
            shape_group(g, buf, 0.1, 0.5)
