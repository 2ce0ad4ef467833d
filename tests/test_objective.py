import numpy as np
import pytest

from conciserl.advantage import AdvantageVector, count_advantage, std_advantage
from conciserl.core import ProblemSpec, Rollout, RolloutGroup
from conciserl.env import Action, TabularPolicy, sample_rollout
from conciserl.objective import TokenBatch, flatten, surrogate
from tests.reference import clipped_term, logprob, replay_states, token_ratio

EPS_LOW, EPS_HIGH = 0.2, 0.28


def random_policy(rng, ids, w_cap=4, scale=1.0):
    shape = (len(ids), w_cap + 1, 4)
    return TabularPolicy(ids, w_cap, rng.normal(0, scale, size=shape))


def random_groups(rng, n_problems=2, group_size=4, w_cap=4, mode="count", policy=None):
    """Groups sampled from a behavior policy, with their advantages."""
    ids = tuple(f"p{i}" for i in range(n_problems))
    behavior = random_policy(rng, ids, w_cap) if policy is None else policy
    problems = [
        ProblemSpec(pid, int(rng.integers(1, w_cap + 1)), "A" if rng.random() < 0.5 else "B")
        for pid in ids
    ]
    groups, advs = [], []
    logp = behavior.log_probs()
    for i, prob in enumerate(problems):
        rollouts = [sample_rollout(logp[i], prob, rng, l_max=64) for _ in range(group_size)]
        group = RolloutGroup.from_rollouts(prob.id, rollouts)
        rewards = [1.0 if r.correct else 0.0 for r in rollouts]
        if mode == "count":
            advs.append(count_advantage(rewards, group.correct_count, 1e-6))
        else:
            advs.append(std_advantage(rewards))
        groups.append(group)
    return groups, advs, behavior


def random_batch(rng, n_problems=2, group_size=4, w_cap=4, mode="count"):
    """Sample groups from a behavior policy, score a perturbed policy."""
    groups, advs, behavior = random_groups(rng, n_problems, group_size, w_cap, mode)
    # perturb away from the behavior snapshot so ratios leave 1.0
    new = behavior.copy()
    new.logits = new.logits + rng.normal(0, 0.3, size=new.logits.shape)
    return flatten(groups, advs, new), new


def tokens(*groups):
    """A TokenBatch from per-group (problem_index, states, actions,
    old_logps, advantages) tuples."""
    index, states, actions, old_logps, advantages = zip(*groups)
    return TokenBatch(
        problem_index=np.array(index, dtype=np.intp),
        offsets=np.cumsum([0] + [len(a) for a in actions]),
        states=np.concatenate(states).astype(np.intp),
        actions=np.concatenate(actions).astype(np.intp),
        old_logps=np.concatenate(old_logps).astype(float),
        advantages=np.concatenate(advantages).astype(float),
    )


def token_rows(batch):
    """The policy row of every token."""
    return np.repeat(batch.problem_index, np.diff(batch.offsets))


# Reference: the per-group path the flat batch replaced. Each group's token
# arrays are built rollout by rollout, states replayed through every trace,
# and the objective and gradient are taken one group at a time.


def reference_groups(groups, advantages, policy):
    return [
        (
            policy.problem_index(group.problem_id),
            np.concatenate([replay_states(r.actions, policy.w_cap) for r in group.rollouts]),
            np.concatenate([np.array(r.actions, dtype=np.intp) for r in group.rollouts]),
            np.concatenate([np.array(r.behavior_logps) for r in group.rollouts]),
            np.concatenate(
                [np.full(r.length, float(a)) for a, r in zip(adv.values, group.rollouts)]
            ),
        )
        for group, adv in zip(groups, advantages)
    ]


def reference_surrogate(groups, policy, eps_low, eps_high):
    logp = policy.log_probs()
    total = 0.0
    for index, states, actions, old_logps, advantages in groups:
        ratio = np.exp(logp[index, states, actions] - old_logps)
        clipped = np.clip(ratio, 1.0 - eps_low, 1.0 + eps_high)
        terms = np.minimum(ratio * advantages, clipped * advantages)
        total += terms.sum() / len(terms)
    return total / len(groups)


def reference_gradient(groups, policy, eps_low, eps_high):
    logp = policy.log_probs()
    probs = np.exp(logp)
    grad = np.zeros_like(policy.logits)
    for index, states, actions, old_logps, advantages in groups:
        ratio = np.exp(logp[index, states, actions] - old_logps)
        clipped = np.clip(ratio, 1.0 - eps_low, 1.0 + eps_high)
        unclipped_val = ratio * advantages
        clipped_val = clipped * advantages
        active = unclipped_val <= clipped_val
        weight = np.where(active, unclipped_val, 0.0) / (len(ratio) * len(groups))
        np.add.at(grad, (index, states, actions), weight)
        np.add.at(grad, (index, states), -weight[:, None] * probs[index, states])
    return grad


class TestTokenRatio:
    def test_equal_logps_give_one(self):
        assert token_ratio(-1.3, -1.3) == pytest.approx(1.0)

    def test_matches_exp_difference(self):
        assert token_ratio(-0.5, -1.5) == pytest.approx(np.e)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            token_ratio(float("-inf"), -1.0)


class TestClippedTerm:
    def test_unclipped_region(self):
        assert clipped_term(1.0, 0.7, EPS_LOW, EPS_HIGH) == pytest.approx(0.7)

    def test_positive_advantage_caps_above(self):
        # ratio beyond 1 + eps_high cannot increase a positive-advantage term
        assert clipped_term(5.0, 1.0, EPS_LOW, EPS_HIGH) == pytest.approx(1.28)

    def test_negative_advantage_not_floored(self):
        # the min keeps the full (more negative) unclipped term
        assert clipped_term(5.0, -1.0, EPS_LOW, EPS_HIGH) == pytest.approx(-5.0)

    def test_negative_advantage_small_ratio_floored(self):
        assert clipped_term(0.1, -1.0, EPS_LOW, EPS_HIGH) == pytest.approx(-0.8)

    def test_zero_advantage(self):
        assert clipped_term(3.0, 0.0, EPS_LOW, EPS_HIGH) == 0.0

    def test_asymmetry_matters(self):
        # the positive-side cap is 1 + eps_high, not 1 + eps_low
        assert clipped_term(2.0, 1.0, 0.2, 0.28) > clipped_term(2.0, 1.0, 0.2, 0.2001)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            clipped_term(1.0, 1.0, 0.3, 0.2)

    def test_never_exceeds_unclipped(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            ratio = float(rng.uniform(0, 3))
            adv = float(rng.normal())
            term = clipped_term(ratio, adv, EPS_LOW, EPS_HIGH)
            assert term <= ratio * adv + 1e-12


class TestTokenBatch:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty batch"):
            TokenBatch(
                np.zeros(0, dtype=np.intp), np.zeros(1, dtype=np.intp),
                *(np.zeros(0, dtype=np.intp),) * 2, np.zeros(0), np.zeros(0),
            )

    def test_group_token_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            TokenBatch(
                np.array([0]), np.array([0, 3]), np.zeros(2, dtype=np.intp),
                np.zeros(3, dtype=np.intp), np.zeros(3), np.zeros(3),
            )

    def test_offsets_must_cover_tokens(self):
        with pytest.raises(ValueError, match="offsets"):
            TokenBatch(
                np.array([0]), np.array([0, 2]), *(np.zeros(3, dtype=np.intp),) * 2,
                np.zeros(3), np.zeros(3),
            )

    def test_advantages_broadcast_per_rollout(self):
        policy = TabularPolicy(("p",), 4)
        r1 = Rollout("p", (0, 0, 2), (-1.4,) * 3, 3, True, False)
        r2 = Rollout("p", (1, 3), (-1.4,) * 2, 2, False, False)
        group = RolloutGroup.from_rollouts("p", [r1, r2])
        adv = count_advantage([1.0, 0.0], 1, 1e-6)
        batch = flatten([group], [adv], policy)
        assert list(batch.advantages) == [adv.values[0]] * 3 + [adv.values[1]] * 2
        assert list(batch.states) == [0, 1, 2, 0, 0]
        assert list(batch.offsets) == [0, 5]
        assert batch.groups() == [(0, slice(0, 5))]

    def test_size_mismatch_rejected(self):
        policy = TabularPolicy(("p",), 4)
        r = Rollout("p", (2,), (-1.4,), 1, False, False)
        group = RolloutGroup.from_rollouts("p", [r, r])
        adv = count_advantage([1.0, 0.5, 0.0], 2, 1e-6)
        with pytest.raises(ValueError):
            flatten([group], [adv], policy)


class TestFlatten:
    def test_matches_per_group_arrays(self):
        # the flat arrays are the per-group reference arrays, concatenated;
        # small w_cap and WORK-heavy policies make states saturate
        saturated = 0
        for seed in range(30):
            rng = np.random.default_rng(400 + seed)
            w_cap = int(rng.integers(1, 4))
            ids = tuple(f"p{i}" for i in range(3))
            policy = random_policy(rng, ids, w_cap)
            policy.logits[..., Action.WORK] += 2.0
            groups, advs, _ = random_groups(rng, 3, 5, w_cap, policy=policy)
            batch = flatten(groups, advs, policy)
            ref = reference_groups(groups, advs, policy)
            for (p, span), (index, states, actions, old_logps, advantages) in zip(batch.groups(), ref):
                assert p == index
                assert np.array_equal(batch.states[span], states)
                assert np.array_equal(batch.actions[span], actions)
                assert np.array_equal(batch.old_logps[span], old_logps)
                assert np.array_equal(batch.advantages[span], advantages)
            assert batch.states.dtype == batch.actions.dtype == np.intp
            saturated += int(np.sum((batch.states == w_cap) & (batch.actions == Action.WORK)))
        assert saturated > 0

    def test_states_replay_each_trace(self):
        policy = TabularPolicy(("p",), 2)
        traces = [(0, 0, 0, 1, 0, 2), (1, 1, 3), (0, 0, 0, 0, 0)]
        group = RolloutGroup.from_rollouts(
            "p", [Rollout("p", t, (-1.0,) * len(t), len(t), False, t[-1] < 2) for t in traces]
        )
        batch = flatten([group], [AdvantageVector((0.0,) * 3, "count")], policy)
        assert np.array_equal(
            batch.states, np.concatenate([replay_states(t, 2) for t in traces])
        )
        assert list(batch.states) == [0, 1, 2, 2, 2, 2, 0, 0, 0, 0, 1, 2, 2, 2]

    def test_objective_and_gradient_equal_per_group_reference(self):
        # exact equality, not approximate: the flat path keeps the per-group
        # float operations and the np.add.at order
        clip_active = 0
        for seed in range(30):
            rng = np.random.default_rng(500 + seed)
            groups, advs, behavior = random_groups(
                rng, n_problems=3, group_size=6, mode="count" if seed % 2 else "std"
            )
            policy = behavior.copy()
            policy.logits = policy.logits + rng.normal(0, 0.5, size=policy.logits.shape)
            batch = flatten(groups, advs, policy)
            ref = reference_groups(groups, advs, policy)
            value, grad = surrogate(batch, policy, EPS_LOW, EPS_HIGH)
            assert value == reference_surrogate(ref, policy, EPS_LOW, EPS_HIGH)
            assert np.array_equal(grad, reference_gradient(ref, policy, EPS_LOW, EPS_HIGH))
            ratio = np.exp(
                policy.log_probs()[token_rows(batch), batch.states, batch.actions] - batch.old_logps
            )
            clip_active += int(np.sum((ratio < 1 - EPS_LOW) | (ratio > 1 + EPS_HIGH)))
        assert clip_active > 0


class TestSurrogate:
    def test_single_token_at_snapshot(self):
        # ratio 1 at the behavior snapshot: the term is just the advantage
        policy = TabularPolicy(("p",), 2)
        old = logprob(policy, Rollout("p", (2,), (-1.0,), 1, True, False))
        batch = tokens((0, [0], [2], old, [0.5]))
        assert surrogate(batch, policy, EPS_LOW, EPS_HIGH)[0] == pytest.approx(0.5)

    def test_at_snapshot_equals_mean_group_advantage(self):
        # ratios all equal 1 when scoring the sampling policy itself, so the
        # batch objective collapses to the mean over groups of the mean
        # per-token advantage
        rng = np.random.default_rng(12)
        groups, advs, behavior = random_groups(rng)
        batch = flatten(groups, advs, behavior)
        expected = np.mean([batch.advantages[span].mean() for _, span in batch.groups()])
        got = surrogate(batch, behavior, EPS_LOW, EPS_HIGH)[0]
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_matches_bruteforce(self):
        # per-token recomputation with clipped_term, then group-mean of means
        for seed in range(20):
            rng = np.random.default_rng(seed)
            batch, policy = random_batch(rng)
            logp = policy.log_probs()
            per_group = []
            for p, span in batch.groups():
                terms = []
                for s, a, old, adv in zip(
                    batch.states[span], batch.actions[span], batch.old_logps[span],
                    batch.advantages[span],
                ):
                    ratio = token_ratio(logp[p, s, a], old)
                    terms.append(clipped_term(ratio, adv, EPS_LOW, EPS_HIGH))
                per_group.append(sum(terms) / len(terms))
            expected = sum(per_group) / len(per_group)
            got = surrogate(batch, policy, EPS_LOW, EPS_HIGH)[0]
            assert got == pytest.approx(expected, rel=1e-12)

    def test_group_normalization_balances_lengths(self):
        # a long group and a short group contribute equally to the batch mean
        policy = TabularPolicy(("a", "b"), 2)
        old = float(policy.log_probs()[0, 0, 2])
        long_g = (0, np.zeros(10), np.full(10, 2), np.full(10, old), np.full(10, 1.0))
        short_g = (1, [0], [2], [old], [-1.0])
        val = surrogate(tokens(long_g, short_g), policy, EPS_LOW, EPS_HIGH)[0]
        assert val == pytest.approx((1.0 + -1.0) / 2)


class TestGradient:
    def test_matches_finite_differences(self):
        # central differences over every logit coordinate, many random batches
        h = 1e-5
        checked = 0
        for seed in range(40):
            rng = np.random.default_rng(100 + seed)
            batch, policy = random_batch(rng, mode="count" if seed % 2 == 0 else "std")
            grad = surrogate(batch, policy, EPS_LOW, EPS_HIGH)[1]
            num = np.zeros_like(grad)
            it = np.nditer(policy.logits, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                bumped = policy.copy()
                bumped.logits[idx] += h
                up = surrogate(batch, bumped, EPS_LOW, EPS_HIGH)[0]
                bumped.logits[idx] -= 2 * h
                down = surrogate(batch, bumped, EPS_LOW, EPS_HIGH)[0]
                num[idx] = (up - down) / (2 * h)
            # skip batches where some token sits within O(h) of a clip
            # boundary: the objective is not differentiable there
            logp = policy.log_probs()
            ratio = np.exp(logp[token_rows(batch), batch.states, batch.actions] - batch.old_logps)
            near_kink = np.any(
                (np.abs(ratio - (1 - EPS_LOW)) < 50 * h) | (np.abs(ratio - (1 + EPS_HIGH)) < 50 * h)
            )
            if near_kink:
                continue
            checked += 1
            scale = max(np.abs(num).max(), 1e-8)
            assert np.abs(grad - num).max() / scale < 1e-5
        assert checked >= 25

    def test_clipped_tokens_have_zero_gradient(self):
        # one token, positive advantage, ratio far above 1 + eps_high
        policy = TabularPolicy(("p",), 2)
        old_lp = float(policy.log_probs()[0, 0, 2]) - 2.0  # ratio = e^2 >> 1.28
        grad = surrogate(tokens((0, [0], [2], [old_lp], [1.0])), policy, EPS_LOW, EPS_HIGH)[1]
        assert np.all(grad == 0)

    def test_negative_advantage_never_clips_to_zero(self):
        policy = TabularPolicy(("p",), 2)
        old_lp = float(policy.log_probs()[0, 0, 2]) - 2.0
        grad = surrogate(tokens((0, [0], [2], [old_lp], [-1.0])), policy, EPS_LOW, EPS_HIGH)[1]
        assert np.abs(grad).max() > 0

    def test_gradient_rows_sum_to_zero(self):
        # softmax score function makes each state-row of the gradient sum to 0
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            batch, policy = random_batch(rng)
            grad = surrogate(batch, policy, EPS_LOW, EPS_HIGH)[1]
            assert np.abs(grad.sum(axis=-1)).max() < 1e-12

    def test_ascent_improves_objective(self):
        for seed in range(10):
            rng = np.random.default_rng(300 + seed)
            batch, policy = random_batch(rng)
            grad = surrogate(batch, policy, EPS_LOW, EPS_HIGH)[1]
            if np.abs(grad).max() == 0:
                continue
            before = surrogate(batch, policy, EPS_LOW, EPS_HIGH)[0]
            stepped = policy.copy()
            stepped.ascend(grad, 1e-3 / np.abs(grad).max())
            after = surrogate(batch, stepped, EPS_LOW, EPS_HIGH)[0]
            assert after >= before - 1e-12
