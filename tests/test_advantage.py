import numpy as np
import pytest

from conciserl.advantage import AdvantageVector, advantage_gap, count_advantage, std_advantage
from conciserl.core import RolloutGroup
from conciserl.env import Action, TabularPolicy
from conciserl.objective import surrogate


def token_advantages(values, lengths):
    """Per-token advantages that ``surrogate`` spreads over one group.

    Every token is a FILLER in a state of its own, sampled by the policy
    being scored (ratio 1) under a uniform policy, so its gradient entry is
    its advantage times (1 - 1/4) over the group's token count.
    """
    n = sum(lengths)
    policy = TabularPolicy(("p",), n)
    counts = np.zeros((len(lengths), n + 1, 4), dtype=np.int32)
    counts[np.repeat(np.arange(len(lengths)), lengths), np.arange(n), Action.FILLER] = 1
    no = [False] * len(lengths)
    group = RolloutGroup("p", counts, policy.log_probs()[0], no, no)
    grad = surrogate([group], [AdvantageVector(values)], policy, 0.2, 0.28)[1]
    return list(grad[0, :n, Action.FILLER] * n / 0.75)


class TestCountAdvantage:
    def test_hand_example(self):
        adv = count_advantage([1, 1, 0.5, 0], correct_count=3, epsilon_adv=1e-6)
        assert list(adv.values) == pytest.approx([0.125, 0.125, -0.0416667, -0.2083333], abs=1e-6)

    def test_zero_group(self):
        adv = count_advantage([0.0] * 4, correct_count=0, epsilon_adv=1e-6)
        assert all(v == 0 for v in adv.values)
        # a zero count is clamped to 1 in the denominator
        clamped = count_advantage([1.0, 0.0], correct_count=0, epsilon_adv=1e-6)
        assert clamped.values[0] == pytest.approx(0.5 / (1 + 1e-6))

    def test_all_correct_identical(self):
        adv = count_advantage([1.0] * 8, correct_count=8, epsilon_adv=1e-6)
        assert all(v == 0 for v in adv.values)

    def test_group_too_small(self):
        with pytest.raises(ValueError):
            count_advantage([1.0], 1, 1e-6)

    def test_rewards_out_of_range(self):
        with pytest.raises(ValueError):
            count_advantage([1.5, 0.0], 1, 1e-6)

    def test_centering(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            g = int(rng.integers(2, 12))
            rewards = rng.choice([0.0, 0.5, 1.0], size=g)
            cc = int((rewards > 0).sum())
            adv = count_advantage(rewards, cc, 1e-6)
            assert abs(sum(adv.values) * (max(cc, 1) + 1e-6)) < 1e-9

    def test_magnitude_strictly_decreasing_in_count(self):
        rewards = [1, 1, 0.5, 0]
        prev = None
        for cc in range(1, 9):
            adv = count_advantage(rewards, cc, 1e-6)
            mag = max(abs(v) for v in adv.values)
            if prev is not None:
                assert mag < prev
            prev = mag


class TestStdAdvantage:
    def test_two_point_group(self):
        adv = std_advantage([1, 0])
        assert list(adv.values) == pytest.approx([1.0, -1.0], abs=1e-6)

    def test_identical_rewards_guarded(self):
        adv = std_advantage([0.5] * 5)
        assert all(v == 0 for v in adv.values)

    def test_matches_recomputation(self):
        rewards = np.array([1, 1, 0.5, 0])
        adv = std_advantage(rewards)
        expected = (rewards - rewards.mean()) / (rewards.std() + 1e-8)
        assert list(adv.values) == pytest.approx(list(expected))

    def test_sign_agreement_with_count_mode(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            g = int(rng.integers(2, 10))
            rewards = rng.choice([0.0, 0.5, 1.0], size=g)
            cc = int((rewards > 0).sum())
            a = count_advantage(rewards, cc, 1e-6)
            b = std_advantage(rewards)
            assert all(np.sign(x) == np.sign(y) for x, y in zip(a.values, b.values))


class TestAdvantageGap:
    def test_hand_example(self):
        assert advantage_gap(0.5, 3, 1e-6) == pytest.approx(0.1666665, abs=1e-6)

    def test_single_correct(self):
        assert advantage_gap(0.5, 1, 1e-6) == pytest.approx(0.5, abs=1e-5)

    def test_vanishes_as_r_pen_approaches_one(self):
        assert advantage_gap(1.0 - 1e-12, 4, 1e-6) == pytest.approx(0.0, abs=1e-10)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            advantage_gap(0.5, 0, 1e-6)

    def test_gap_identity_exact(self):
        # concise vs verbose advantage difference == (1 - r_pen)/(|C| + eps),
        # independent of the incorrect rollouts in the group
        rng = np.random.default_rng(10)
        eps = 1e-6
        for _ in range(2000):
            g = int(rng.integers(3, 12))
            r_pen = float(rng.uniform(0, 0.99))
            rewards = list(rng.choice([0.0, r_pen, 1.0], size=g - 2)) + [1.0, r_pen]
            rng.shuffle(rewards)
            cc = sum(1 for r in rewards if r > 0)
            adv = count_advantage(rewards, cc, eps)
            i_con = rewards.index(1.0)
            i_ver = rewards.index(r_pen)
            gap = adv.values[i_con] - adv.values[i_ver]
            expected = advantage_gap(r_pen, cc, eps)
            assert gap == pytest.approx(expected, rel=1e-12)


class TestBroadcast:
    """Each rollout's advantage is repeated over its tokens."""

    def test_constant(self):
        assert token_advantages([0.125, -0.125], [3, 2]) == pytest.approx([0.125] * 3 + [-0.125] * 2, rel=1e-12)

    def test_zeros(self):
        assert token_advantages([0.0, 0.0], [5, 1]) == [0.0] * 6

    def test_single(self):
        assert token_advantages([-0.7, 0.7], [1, 1]) == pytest.approx([-0.7, 0.7], rel=1e-12)

    def test_zero_length_rejected(self):
        # Every rollout owns at least one token.
        with pytest.raises(ValueError, match="length must be >= 1"):
            RolloutGroup("p", [[[0, 0, 1, 0]], [[0, 0, 0, 0]]], [[-1.0] * 4], [False, False], [False, False])
