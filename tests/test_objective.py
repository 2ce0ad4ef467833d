import re

import numpy as np
import pytest

from conciserl.advantage import count_advantage, std_advantage
from conciserl.buffer import ExperienceBuffer
from conciserl.core import ProblemSpec, Rollout, RolloutBatch, RunConfig
from conciserl.env import Action, TabularPolicy, initial_policy, make_problem_bank
from conciserl.objective import surrogate
from conciserl.rewards import shape_group
from conciserl.trainer import sample_batch
from tests.reference import (
    clipped_term,
    columns,
    group_loop_surrogate,
    group_of,
    logprob,
    reference_gradient,
    reference_surrogate,
    sample_rollout,
    stack,
    token_columns,
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
    """A batch sampled from a behavior policy, with its ``(P, G)``
    advantages."""
    rollouts, behavior = random_rollouts(rng, n_problems, group_size, w_cap, policy)
    groups, advs = [], []
    logp = behavior.log_probs()
    for group_rollouts in rollouts:
        groups.append(group_of(group_rollouts, logp[behavior.problem_index(group_rollouts[0].problem_id)]))
        rewards = [1.0 if r.correct else 0.0 for r in group_rollouts]
        if mode == "count":
            advs.append(count_advantage(rewards, sum(r.correct for r in group_rollouts), 1e-6))
        else:
            advs.append(std_advantage(rewards))
    return stack(groups), np.array(advs), behavior


def random_batch(rng, n_problems=2, group_size=4, w_cap=4, mode="count"):
    """Sample a batch from a behavior policy, score a perturbed policy."""
    batch, advs, behavior = random_groups(rng, n_problems, group_size, w_cap, mode)
    # perturb away from the behavior snapshot so ratios leave 1.0
    new = behavior.copy()
    new.logits = new.logits + rng.normal(0, 0.3, size=new.logits.shape)
    return (batch, advs), new


def cell_ratios(batch, policy):
    """The importance ratio under the policy of every cell that some token
    of a group falls in, in batch order: the ratios of the batch's tokens,
    each once."""
    index = [policy.problem_index(pid) for pid in batch.problem_ids]
    return np.exp(policy.log_probs()[index] - batch.behavior_logp)[batch.counts.sum(axis=1) > 0]


def tokens(policy, *groups):
    """A batch of one-token rollouts and its advantages, from per-group
    (problem index, states, actions, old_logps, advantages) tuples of one
    length; a group's behavior table is the policy's rows with each token's
    old log-prob in its cell."""
    built, advs = [], []
    for index, states, actions, old_logps, advantages in groups:
        n = len(actions)
        cells = np.asarray(states, dtype=np.intp), np.asarray(actions, dtype=np.intp)
        counts = np.zeros((1, n, policy.w_cap + 1, 4), dtype=np.int32)
        counts[(0, np.arange(n), *cells)] = 1
        behavior = policy.log_probs()[index]
        behavior[cells] = old_logps
        assert np.array_equal(behavior[cells], old_logps)
        no = np.zeros((1, n), dtype=bool)
        built.append(RolloutBatch([policy.problem_ids[index]], counts, behavior[None], no, no))
        advs.append(advantages)
    return stack(built), np.array(advs, dtype=float)


def assert_equals_token_oracle(batch, advs, policy):
    """The count-table surrogate and gradient agree with the per-token
    ``np.add.at`` oracle up to the order of their float additions: to rtol
    1e-12, and the gradient to 1e-12 of its largest entry where a state
    row's terms cancel to rounding noise."""
    value, grad = surrogate(batch, advs, policy, EPS_LOW, EPS_HIGH)
    terms = token_terms(batch, advs, policy)
    assert value == pytest.approx(reference_surrogate(terms, policy, EPS_LOW, EPS_HIGH), rel=1e-12, abs=0)
    want = reference_gradient(terms, policy, EPS_LOW, EPS_HIGH)
    np.testing.assert_allclose(grad, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


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
    """A step's tokens are the cells of its groups' count tables; each
    rollout's advantage covers its own tokens."""

    def test_empty_batch_rejected(self):
        # a batch holds at least one rollout, so the objective never divides by zero groups
        with pytest.raises(ValueError, match="at least one rollout of at least one problem"):
            RolloutBatch((), np.zeros((0, 2, 3, 4)), np.zeros((0, 3, 4)), np.zeros((0, 2)), np.zeros((0, 2)))

    def test_group_token_length_mismatch(self):
        # the table's (state, action) cells are the behavior table's
        with pytest.raises(ValueError, match="do not match behavior_logp"):
            RolloutBatch(["p"], np.ones((1, 1, 3, 4)), np.full((1, 2, 4), -1.0), [[False]], [[False]])

    def test_lengths_are_the_tables_token_counts(self):
        # a rollout's length is its table's token count, not a second record
        counts = np.zeros((1, 2, 3, 4))
        counts[0, 0, :, Action.WORK], counts[0, 0, 2, Action.ANSWER_A], counts[0, 1, 0, Action.ANSWER_B] = 1, 1, 1
        batch = RolloutBatch(["p"], counts, np.full((1, 3, 4), -1.0), [[True, False]], [[False, False]])
        assert batch.lengths.tolist() == [[4, 1]]
        with pytest.raises(TypeError):
            RolloutBatch(["p"], counts, np.full((1, 3, 4), -1.0), [[True, False]], [[False, False]], lengths=[[4, 1]])

    def test_advantages_broadcast_per_rollout(self):
        # two rollouts of 3 and 2 tokens score as five one-token rollouts
        # carrying their rollout's advantage: the same gradient, and the same
        # value but for the order of its float additions
        rng = np.random.default_rng(9)
        policy = random_policy(rng, ("p",), w_cap=4)
        old = np.log(rng.uniform(0.05, 1.0, size=5))
        states, actions = [0, 1, 2, 0, 0], [0, 0, 2, 1, 3]
        counts = np.zeros((1, 2, 5, 4))
        counts[0, [0, 0, 0, 1, 1], states, actions] = 1
        behavior = policy.log_probs()
        behavior[0, states, actions] = old
        batch = RolloutBatch(["p"], counts, behavior, [[True, False]], [[False, False]])
        adv = count_advantage([1.0, 0.0], 1, 1e-6)
        per_token = tokens(policy, (0, states, actions, old, [adv[0]] * 3 + [adv[1]] * 2))
        value, grad = surrogate(batch, [adv], policy, EPS_LOW, EPS_HIGH)
        ref_value, ref_grad = surrogate(*per_token, policy, EPS_LOW, EPS_HIGH)
        assert value == pytest.approx(ref_value, rel=1e-15) and np.array_equal(grad, ref_grad)

    def test_size_mismatch_rejected(self):
        # one advantage per rollout of the (1, 2) batch, no more and no fewer
        policy = TabularPolicy(("p",), 4)
        batch, _ = tokens(policy, (0, [0, 0], [2, 2], [-1.4, -1.4], [0.0, 0.0]))
        for shape in [(1, 3), (2, 2), (2,), (1, 2, 1)]:
            message = f"advantages of shape {shape} do not match the batch's (1, 2) rollouts"
            with pytest.raises(ValueError, match=re.escape(message)):
                surrogate(batch, np.zeros(shape), policy, EPS_LOW, EPS_HIGH)

    @pytest.mark.parametrize("n_states, n_actions", [(4, 4), (6, 4), (5, 3), (5, 8)])
    def test_cells_must_be_the_policys(self, n_states, n_actions):
        # a table over other states or actions than the policy's, such as
        # one sampled at another w_cap, is named rather than indexed
        policy = TabularPolicy(("p", "q"), 4)
        counts = np.zeros((1, 2, n_states, n_actions))
        counts[:, :, 0, 0] = 1
        no = [[False, False]]
        batch = RolloutBatch(["q"], counts, np.full((1, n_states, n_actions), -1.0), no, no)
        with pytest.raises(ValueError, match=f"count table has cells \\({n_states}, {n_actions}\\), not the policy's"):
            surrogate(batch, [[0.5, -0.5]], policy, EPS_LOW, EPS_HIGH)


class TestFlatten:
    """The count tables the sampler records for a step."""

    def test_matches_per_group_arrays(self):
        # sample_batch's tables are those of the per-rollout reference
        # traces on the same (*key, problem, rollout) streams; small w_cap
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
            batch = sample_batch(policy, bank, 5, 64, key)
            logp = policy.log_probs()
            want = []
            for p, problem in enumerate(bank):
                rollouts = [
                    sample_rollout(logp[p], problem, np.random.default_rng((*key, p, r)), 64) for r in range(5)
                ]
                want.append(group_of(rollouts, logp[p]))
                assert batch.lengths[p].tolist() == [r.length for r in rollouts]
            assert columns(batch) == columns(stack(want))
            saturated += int(batch.counts[:, :, w_cap, Action.WORK].sum())
        assert saturated > 0

    def test_states_replay_each_trace(self):
        # a policy that only works: every trace is WORK to l_max, its states
        # count up and saturate at w_cap
        logits = np.zeros((1, 3, 4))
        logits[..., 1:] = -1e9
        policy = TabularPolicy(("p",), 2, logits)
        batch = sample_batch(policy, [ProblemSpec("p", 1, "A")], 3, 5, (0,))
        assert batch.counts[..., Action.WORK].tolist() == [[[1, 1, 3]] * 3]
        assert batch.counts.sum() == batch.counts[..., Action.WORK].sum()
        for seed in range(10):
            rng = np.random.default_rng(450 + seed)
            policy = random_policy(rng, ("p",), w_cap=2)
            problem = ProblemSpec("p", 1, "B")
            batch = sample_batch(policy, [problem], 6, 16, (seed,))
            logp = policy.log_probs()[0]
            traces = [sample_rollout(logp, problem, np.random.default_rng((seed, 0, r)), 16) for r in range(6)]
            assert np.array_equal(batch.counts, group_of(traces, logp).counts)

    def test_objective_and_gradient_equal_per_group_reference(self):
        # the count tables score as the per-token reference on the same
        # traces, up to the order of float additions
        clip_active = 0
        for seed in range(30):
            rng = np.random.default_rng(500 + seed)
            rollouts, behavior = random_rollouts(rng, n_problems=3, group_size=6)
            logp = behavior.log_probs()
            batch = stack([group_of(rs, logp[i]) for i, rs in enumerate(rollouts)])
            rewards = [[1.0 if r.correct else 0.0 for r in rs] for rs in rollouts]
            if seed % 2:
                correct_counts = batch.correct.sum(axis=1).tolist()
                advs = [count_advantage(rw, c, 1e-6) for rw, c in zip(rewards, correct_counts)]
            else:
                advs = [std_advantage(rw) for rw in rewards]
            policy = behavior.copy()
            policy.logits = policy.logits + rng.normal(0, 0.5, size=policy.logits.shape)
            assert_equals_token_oracle(batch, advs, policy)
            ratio = cell_ratios(batch, policy)
            clip_active += int(np.sum((ratio < 1 - EPS_LOW) | (ratio > 1 + EPS_HIGH)))
        assert clip_active > 0

    def test_stale_behavior_and_active_clip_equal_reference(self):
        # batches scored away from the policy that sampled them, their
        # problems in another order than the policy's rows
        clip_active = 0
        for seed in range(30):
            rng = np.random.default_rng(600 + seed)
            ids = tuple(f"p{i}" for i in range(5))
            behavior = random_policy(rng, ids, w_cap=3)
            unique = [ProblemSpec(pid, int(rng.integers(1, 4)), "AB"[i % 2]) for i, pid in enumerate(ids)]
            bank = [unique[int(i)] for i in rng.permutation(len(ids))]
            batch = sample_batch(behavior, bank, int(rng.integers(2, 9)), 48, (seed,))
            mode = count_advantage if seed % 2 else (lambda r, c, e: std_advantage(r))
            group_size = batch.correct.shape[1]
            advs = [mode(rng.random(group_size), c, 1e-6) for c in batch.correct.sum(axis=1).tolist()]
            policy = behavior.copy()
            policy.logits = policy.logits + rng.normal(0, 0.5, size=policy.logits.shape)
            assert_equals_token_oracle(batch, advs, policy)
            ratio = cell_ratios(batch, policy)
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
        batch, advs, behavior = random_groups(rng)
        expected = np.mean([np.repeat(a, n).mean() for a, n in zip(advs, batch.lengths)])
        got = surrogate(batch, advs, behavior, EPS_LOW, EPS_HIGH)[0]
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_matches_bruteforce(self):
        # per-token recomputation with clipped_term, then group-mean of means
        for seed in range(20):
            rng = np.random.default_rng(seed)
            batch, policy = random_batch(rng)
            record, advs = batch
            logp = policy.log_probs()
            per_group = [[] for _ in record.problem_ids]
            for q, r, s, a in zip(*token_columns(record)):
                p = policy.problem_index(record.problem_ids[q])
                ratio = token_ratio(logp[p, s, a], record.behavior_logp[q, s, a])
                per_group[q].append(clipped_term(ratio, advs[q, r], EPS_LOW, EPS_HIGH))
            per_group = [sum(terms) / len(terms) for terms in per_group]
            expected = sum(per_group) / len(per_group)
            got = surrogate(*batch, policy, EPS_LOW, EPS_HIGH)[0]
            assert got == pytest.approx(expected, rel=1e-12)

    def test_count_tables_equal_token_oracle(self):
        # hand-built tables, not sampled ones: rollouts of up to thousands of
        # tokens in any cells, batches of any of the policy's problems in any
        # order, behavior tables far enough from the policy that the clip acts
        # on both sides
        clipped = {"low": 0, "high": 0}
        for seed in range(40):
            rng = np.random.default_rng(650 + seed)
            ids = tuple(f"p{i}" for i in range(6))
            policy = random_policy(rng, ids, w_cap=int(rng.integers(1, 6)))
            logp = policy.log_probs()
            index = rng.choice(len(ids), size=int(rng.integers(1, 7)), replace=False)
            size = (len(index), int(rng.integers(1, 9)))
            counts = rng.integers(0, 3, size=(*size, *logp.shape[1:])) * rng.integers(1, 800, size=(*size, 1, 1))
            counts[:, :, 0, Action.ANSWER_A] += 1
            behavior = logp[index] + rng.normal(0, 0.4, size=(len(index), *logp.shape[1:]))
            behavior -= np.log(np.exp(behavior).sum(axis=-1, keepdims=True))
            no = np.zeros(size, dtype=bool)
            batch = RolloutBatch([ids[i] for i in index], counts, behavior, no, no)
            advs = rng.normal(0, 1, size=size)
            assert_equals_token_oracle(batch, advs, policy)
            ratio = cell_ratios(batch, policy)
            clipped["low"] += int(np.sum(ratio < 1 - EPS_LOW))
            clipped["high"] += int(np.sum(ratio > 1 + EPS_HIGH))
        assert min(clipped.values()) > 0

    def test_group_normalization_balances_lengths(self):
        # a group of a 10-token rollout and a group of a 1-token rollout
        # contribute equally to the batch mean
        policy = TabularPolicy(("a", "b"), 2)
        counts = np.zeros((2, 1, 3, 4))
        counts[:, 0, 0, Action.ANSWER_A] = [10, 1]
        no = [[False], [False]]
        batch = RolloutBatch(("a", "b"), counts, policy.log_probs(), no, no)
        assert batch.lengths.tolist() == [[10], [1]]
        val = surrogate(batch, [[1.0], [-1.0]], policy, EPS_LOW, EPS_HIGH)[0]
        assert val == pytest.approx((1.0 + -1.0) / 2)


def training_batch(config, seed):
    """A batch as ``train_step`` samples it at step 1 of a run of
    ``config``, with its count advantages, and the policy it was sampled
    from."""
    bank = make_problem_bank(config.n_problems, (config.d_min, config.d_max), seed)
    ids = [p.id for p in bank]
    policy = initial_policy(ids, config.w_cap, config.init_answer_logit)
    batch = sample_batch(policy, bank, config.group_size, config.l_max, (seed, 1))
    buffer = ExperienceBuffer.init(ids, config.l_max)
    advs = [
        count_advantage([s.value for s in shape_group(g, buffer, config.alpha, config.r_pen)], c, 1e-6)
        for g, c in zip(batch, batch.correct.sum(axis=1).tolist())
    ]
    return batch, np.array(advs), policy


def desk_batch(seed):
    return training_batch(RunConfig(group_size=8, l_max=1024), seed)


def cli_defaults_batch(seed):
    return training_batch(RunConfig(init_answer_logit=-6.0), seed)


class TestWholeBatch:
    """The whole-batch surrogate against the loop over groups it replaced:
    the gradient bit for bit, the objective to rtol 1e-12."""

    @pytest.mark.parametrize("make", [desk_batch, cli_defaults_batch])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_group_loop(self, make, seed):
        batch, advs, behavior = make(seed)
        perturbed = behavior.copy()
        perturbed.logits = perturbed.logits + np.random.default_rng(seed).normal(0, 0.5, size=perturbed.logits.shape)
        # the sampling policy itself, as in training (every ratio 1), and a
        # perturbed one on which the clip acts
        for policy in (behavior, perturbed):
            value, grad = surrogate(batch, advs, policy, EPS_LOW, EPS_HIGH)
            want_value, want_grad = group_loop_surrogate(batch, advs, policy, EPS_LOW, EPS_HIGH)
            assert grad.tobytes() == want_grad.tobytes()
            assert value == pytest.approx(want_value, rel=1e-12, abs=0)
        ratio = cell_ratios(batch, perturbed)
        assert np.any((ratio < 1 - EPS_LOW) | (ratio > 1 + EPS_HIGH))


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
            ratio = cell_ratios(batch[0], policy)
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
