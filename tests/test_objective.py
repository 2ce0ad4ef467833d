import numpy as np
import pytest

from conciserl.advantage import AdvantageVector, count_advantage, std_advantage
from conciserl.core import ProblemSpec, Rollout, RolloutGroup
from conciserl.env import Action, TabularPolicy
from conciserl.objective import surrogate
from conciserl.trainer import sample_batch
from tests.reference import (
    clipped_term,
    group_of,
    logprob,
    reference_gradient,
    reference_surrogate,
    replay_states,
    sample_rollout,
    token_ratio,
    token_terms,
)

EPS_LOW, EPS_HIGH = 0.2, 0.28


def random_policy(rng, ids, w_cap=4, scale=1.0):
    shape = (len(ids), w_cap + 1, 4)
    return TabularPolicy(ids, w_cap, rng.normal(0, scale, size=shape))


def random_rollouts(rng, n_problems=2, group_size=4, w_cap=4, policy=None):
    """Per-problem rollouts sampled from a behavior policy by the scalar
    reference sampler, drawing from one shared rng."""
    ids = tuple(f"p{i}" for i in range(n_problems))
    behavior = random_policy(rng, ids, w_cap) if policy is None else policy
    problems = [
        ProblemSpec(pid, int(rng.integers(1, w_cap + 1)), "A" if rng.random() < 0.5 else "B")
        for pid in ids
    ]
    logp = behavior.log_probs()
    rollouts = [
        [sample_rollout(logp[i], prob, rng, l_max=64) for _ in range(group_size)]
        for i, prob in enumerate(problems)
    ]
    return rollouts, behavior


def random_groups(rng, n_problems=2, group_size=4, w_cap=4, mode="count", policy=None):
    """Groups sampled from a behavior policy, with their advantages."""
    rollouts, behavior = random_rollouts(rng, n_problems, group_size, w_cap, policy)
    groups, advs = [], []
    for group_rollouts in rollouts:
        group = group_of(group_rollouts, behavior.w_cap)
        rewards = [1.0 if r.correct else 0.0 for r in group_rollouts]
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
    return (groups, advs), new


def token_ratios(groups, policy):
    """Every token's importance ratio under the policy, in batch order."""
    logp = policy.log_probs()
    return np.concatenate([
        np.exp(logp[policy.problem_index(g.problem_id), g.states, g.actions] - g.behavior_logps)
        for g in groups
    ])


def tokens(policy, *groups):
    """Groups of one-token rollouts and their advantages, from per-group
    (problem index, states, actions, old_logps, advantages) tuples."""
    built, advs = [], []
    for index, states, actions, old_logps, advantages in groups:
        n = len(actions)
        no = np.zeros(n, dtype=bool)
        built.append(RolloutGroup(policy.problem_ids[index], np.ones(n), no, no, actions, states, old_logps))
        advs.append(AdvantageVector(advantages, "count"))
    return built, advs


# Reference: each group's token arrays built rollout by rollout from the
# sampled traces, states replayed through every trace.


def reference_groups(rollouts, advantages, policy):
    return [
        (
            policy.problem_index(group[0].problem_id),
            np.concatenate([replay_states(r.actions, policy.w_cap) for r in group]),
            np.concatenate([np.array(r.actions, dtype=np.intp) for r in group]),
            np.concatenate([np.array(r.behavior_logps) for r in group]),
            np.concatenate([np.full(r.length, float(a)) for a, r in zip(adv.values, group)]),
        )
        for group, adv in zip(rollouts, advantages)
    ]


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
    """A step's tokens are the per-token columns of its groups; each
    rollout's advantage covers its own tokens."""

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty batch"):
            surrogate([], [], TabularPolicy(("p",), 2), EPS_LOW, EPS_HIGH)

    def test_group_token_length_mismatch(self):
        with pytest.raises(ValueError, match="one entry per token"):
            RolloutGroup("p", [3], [False], [False], [0, 0, 2], [0, 1], [-1.0] * 3)

    def test_offsets_must_cover_tokens(self):
        with pytest.raises(ValueError, match="token count"):
            RolloutGroup("p", [2], [False], [False], [0, 0, 2], [0, 1, 2], [-1.0] * 3)

    def test_advantages_broadcast_per_rollout(self):
        # two rollouts of 3 and 2 tokens score exactly as five one-token
        # rollouts carrying their rollout's advantage
        rng = np.random.default_rng(9)
        policy = random_policy(rng, ("p",), w_cap=4)
        old = np.log(rng.uniform(0.05, 1.0, size=5))
        states, actions = [0, 1, 2, 0, 0], [0, 0, 2, 1, 3]
        group = RolloutGroup("p", [3, 2], [True, False], [False, False], actions, states, old)
        adv = count_advantage([1.0, 0.0], 1, 1e-6)
        per_token = tokens(policy, (0, states, actions, old, [adv.values[0]] * 3 + [adv.values[1]] * 2))
        value, grad = surrogate([group], [adv], policy, EPS_LOW, EPS_HIGH)
        ref_value, ref_grad = surrogate(*per_token, policy, EPS_LOW, EPS_HIGH)
        assert value == ref_value and np.array_equal(grad, ref_grad)

    def test_size_mismatch_rejected(self):
        policy = TabularPolicy(("p",), 4)
        group = RolloutGroup("p", [1, 1], [False, False], [False, False], [2, 2], [0, 0], [-1.4, -1.4])
        adv = count_advantage([1.0, 0.5, 0.0], 2, 1e-6)
        with pytest.raises(ValueError, match="size mismatch"):
            surrogate([group], [adv], policy, EPS_LOW, EPS_HIGH)
        with pytest.raises(ValueError, match="one AdvantageVector per group"):
            surrogate([group, group], [adv], policy, EPS_LOW, EPS_HIGH)


class TestFlatten:
    """The flat per-token columns the sampler records for a step."""

    def test_matches_per_group_arrays(self):
        # sample_batch's columns are the per-rollout reference arrays on the
        # same (*key, problem, rollout) streams, concatenated; small w_cap
        # and WORK-heavy policies make states saturate
        saturated = 0
        for seed in range(30):
            rng = np.random.default_rng(400 + seed)
            w_cap = int(rng.integers(1, 4))
            ids = tuple(f"p{i}" for i in range(3))
            policy = random_policy(rng, ids, w_cap)
            policy.logits[..., Action.WORK] += 2.0
            bank = [ProblemSpec(pid, int(rng.integers(1, w_cap + 1)), "AB"[i % 2]) for i, pid in enumerate(ids)]
            key = (seed, 3)
            groups = sample_batch(policy, bank, 5, 64, key)
            logp = policy.log_probs()
            for p, (group, problem) in enumerate(zip(groups, bank)):
                rollouts = [
                    sample_rollout(logp[p], problem, np.random.default_rng((*key, p, r)), 64) for r in range(5)
                ]
                adv = AdvantageVector((0.0,) * 5, "count")
                (index, states, actions, old_logps, _), = reference_groups([rollouts], [adv], policy)
                assert group.problem_id == problem.id and index == p
                assert np.array_equal(group.states, states)
                assert np.array_equal(group.actions, actions)
                assert np.array_equal(group.behavior_logps, old_logps)
                assert group.lengths.tolist() == [r.length for r in rollouts]
                assert group.correct.tolist() == [r.correct for r in rollouts]
                saturated += int(np.sum((group.states == w_cap) & (group.actions == Action.WORK)))
        assert saturated > 0

    def test_states_replay_each_trace(self):
        # a policy that only works: every trace is WORK to l_max, its states
        # count up and saturate at w_cap
        logits = np.zeros((1, 3, 4))
        logits[..., 1:] = -1e9
        policy = TabularPolicy(("p",), 2, logits)
        (group,) = sample_batch(policy, [ProblemSpec("p", 1, "A")], 3, 5, (0,))
        assert group.states.tolist() == [0, 1, 2, 2, 2] * 3
        for seed in range(10):
            rng = np.random.default_rng(450 + seed)
            policy = random_policy(rng, ("p",), w_cap=2)
            (group,) = sample_batch(policy, [ProblemSpec("p", 1, "B")], 6, 16, (seed,))
            traces = np.split(group.actions, np.cumsum(group.lengths)[:-1])
            assert np.array_equal(group.states, np.concatenate([replay_states(t, 2) for t in traces]))

    def test_objective_and_gradient_equal_per_group_reference(self):
        # exact equality, not approximate: the per-group pass over the
        # columns keeps the reference float operations and np.add.at order
        clip_active = 0
        for seed in range(30):
            rng = np.random.default_rng(500 + seed)
            rollouts, behavior = random_rollouts(rng, n_problems=3, group_size=6)
            groups = [group_of(rs, behavior.w_cap) for rs in rollouts]
            rewards = [[1.0 if r.correct else 0.0 for r in rs] for rs in rollouts]
            if seed % 2:
                advs = [count_advantage(rw, g.correct_count, 1e-6) for rw, g in zip(rewards, groups)]
            else:
                advs = [std_advantage(rw) for rw in rewards]
            policy = behavior.copy()
            policy.logits = policy.logits + rng.normal(0, 0.5, size=policy.logits.shape)
            ref = reference_groups(rollouts, advs, policy)
            value, grad = surrogate(groups, advs, policy, EPS_LOW, EPS_HIGH)
            assert value == reference_surrogate(ref, policy, EPS_LOW, EPS_HIGH)
            assert np.array_equal(grad, reference_gradient(ref, policy, EPS_LOW, EPS_HIGH))
            ratio = token_ratios(groups, policy)
            clip_active += int(np.sum((ratio < 1 - EPS_LOW) | (ratio > 1 + EPS_HIGH)))
        assert clip_active > 0

    def test_repeated_problems_and_active_clip_equal_reference(self):
        # stale-behavior batches in which some problems appear twice: each
        # gradient cell gets the reference's additions in the same order
        clip_active = 0
        for seed in range(30):
            rng = np.random.default_rng(600 + seed)
            ids = tuple(f"p{i}" for i in range(3))
            behavior = random_policy(rng, ids, w_cap=3)
            unique = [ProblemSpec(pid, int(rng.integers(1, 4)), "AB"[i % 2]) for i, pid in enumerate(ids)]
            bank = [unique[int(i)] for i in rng.integers(0, 3, size=5)]
            assert len({p.id for p in bank}) < len(bank)
            groups = sample_batch(behavior, bank, int(rng.integers(2, 9)), 48, (seed,))
            mode = count_advantage if seed % 2 else (lambda r, c, e: std_advantage(r))
            advs = [mode(rng.random(g.size), g.correct_count, 1e-6) for g in groups]
            policy = behavior.copy()
            policy.logits = policy.logits + rng.normal(0, 0.5, size=policy.logits.shape)
            value, grad = surrogate(groups, advs, policy, EPS_LOW, EPS_HIGH)
            terms = token_terms(groups, advs, policy)
            assert value == reference_surrogate(terms, policy, EPS_LOW, EPS_HIGH)
            assert np.array_equal(grad, reference_gradient(terms, policy, EPS_LOW, EPS_HIGH))
            ratio = token_ratios(groups, policy)
            clip_active += int(np.sum((ratio < 1 - EPS_LOW) | (ratio > 1 + EPS_HIGH)))
        assert clip_active > 0


class TestSurrogate:
    def test_single_token_at_snapshot(self):
        # ratio 1 at the behavior snapshot: the term is just the advantage
        policy = TabularPolicy(("p",), 2)
        old = logprob(policy, Rollout("p", (2,), (-1.0,), 1, True, False))
        batch = tokens(policy, (0, [0], [2], old, [0.5]))
        assert surrogate(*batch, policy, EPS_LOW, EPS_HIGH)[0] == pytest.approx(0.5)

    def test_at_snapshot_equals_mean_group_advantage(self):
        # ratios all equal 1 when scoring the sampling policy itself, so the
        # batch objective collapses to the mean over groups of the mean
        # per-token advantage
        rng = np.random.default_rng(12)
        groups, advs, behavior = random_groups(rng)
        expected = np.mean([np.repeat(a.values, g.lengths).mean() for g, a in zip(groups, advs)])
        got = surrogate(groups, advs, behavior, EPS_LOW, EPS_HIGH)[0]
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_matches_bruteforce(self):
        # per-token recomputation with clipped_term, then group-mean of means
        for seed in range(20):
            rng = np.random.default_rng(seed)
            batch, policy = random_batch(rng)
            logp = policy.log_probs()
            per_group = []
            for group, adv in zip(*batch):
                p = policy.problem_index(group.problem_id)
                token_advs = [v for v, n in zip(adv.values, group.lengths) for _ in range(n)]
                terms = []
                for s, a, old, token_adv in zip(group.states, group.actions, group.behavior_logps, token_advs):
                    ratio = token_ratio(logp[p, s, a], old)
                    terms.append(clipped_term(ratio, token_adv, EPS_LOW, EPS_HIGH))
                per_group.append(sum(terms) / len(terms))
            expected = sum(per_group) / len(per_group)
            got = surrogate(*batch, policy, EPS_LOW, EPS_HIGH)[0]
            assert got == pytest.approx(expected, rel=1e-12)

    def test_group_normalization_balances_lengths(self):
        # a long group and a short group contribute equally to the batch mean
        policy = TabularPolicy(("a", "b"), 2)
        old = float(policy.log_probs()[0, 0, 2])
        long_g = (0, np.zeros(10), np.full(10, 2), np.full(10, old), np.full(10, 1.0))
        short_g = (1, [0], [2], [old], [-1.0])
        val = surrogate(*tokens(policy, long_g, short_g), policy, EPS_LOW, EPS_HIGH)[0]
        assert val == pytest.approx((1.0 + -1.0) / 2)


class TestGradient:
    def test_matches_finite_differences(self):
        # central differences over every logit coordinate, many random batches
        h = 1e-5
        checked = 0
        for seed in range(40):
            rng = np.random.default_rng(100 + seed)
            batch, policy = random_batch(rng, mode="count" if seed % 2 == 0 else "std")
            grad = surrogate(*batch, policy, EPS_LOW, EPS_HIGH)[1]
            num = np.zeros_like(grad)
            it = np.nditer(policy.logits, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                bumped = policy.copy()
                bumped.logits[idx] += h
                up = surrogate(*batch, bumped, EPS_LOW, EPS_HIGH)[0]
                bumped.logits[idx] -= 2 * h
                down = surrogate(*batch, bumped, EPS_LOW, EPS_HIGH)[0]
                num[idx] = (up - down) / (2 * h)
            # skip batches where some token sits within O(h) of a clip
            # boundary: the objective is not differentiable there
            ratio = token_ratios(batch[0], policy)
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
        grad = surrogate(*tokens(policy, (0, [0], [2], [old_lp], [1.0])), policy, EPS_LOW, EPS_HIGH)[1]
        assert np.all(grad == 0)

    def test_negative_advantage_never_clips_to_zero(self):
        policy = TabularPolicy(("p",), 2)
        old_lp = float(policy.log_probs()[0, 0, 2]) - 2.0
        grad = surrogate(*tokens(policy, (0, [0], [2], [old_lp], [-1.0])), policy, EPS_LOW, EPS_HIGH)[1]
        assert np.abs(grad).max() > 0

    def test_gradient_rows_sum_to_zero(self):
        # softmax score function makes each state-row of the gradient sum to 0
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            batch, policy = random_batch(rng)
            grad = surrogate(*batch, policy, EPS_LOW, EPS_HIGH)[1]
            assert np.abs(grad.sum(axis=-1)).max() < 1e-12

    def test_ascent_improves_objective(self):
        for seed in range(10):
            rng = np.random.default_rng(300 + seed)
            batch, policy = random_batch(rng)
            grad = surrogate(*batch, policy, EPS_LOW, EPS_HIGH)[1]
            if np.abs(grad).max() == 0:
                continue
            before = surrogate(*batch, policy, EPS_LOW, EPS_HIGH)[0]
            stepped = policy.copy()
            stepped.ascend(grad, 1e-3 / np.abs(grad).max())
            after = surrogate(*batch, stepped, EPS_LOW, EPS_HIGH)[0]
            assert after >= before - 1e-12
