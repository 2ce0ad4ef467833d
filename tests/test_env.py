import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conciserl import env
from conciserl.core import ProblemSpec
from conciserl.env import (
    Action,
    TabularPolicy,
    answer_letter,
    initial_policy,
    load_bank,
    make_problem_bank,
    min_correct_length,
    sample_groups,
    save_bank,
)
from conciserl.trainer import sample_batch
from tests import reference
from tests.reference import (
    columns,
    group_of,
    is_answer,
    logprob,
    replay_states,
    sample_group,
    sample_rollout,
    verify,
    verify_trace,
)


def brute_force_correct(problem, actions):
    """Independent re-statement of the task rules, by direct counting."""
    if not actions or actions[-1] not in (2, 3):
        return None  # not terminated
    letter = "A" if actions[-1] == 2 else "B"
    return letter == problem.correct_answer and actions.count(0) >= problem.difficulty


def all_traces(max_len):
    """Every terminated trace up to max_len tokens (prefix in {WORK, FILLER})."""
    for n in range(1, max_len + 1):
        for prefix in itertools.product((0, 1), repeat=n - 1):
            for answer in (2, 3):
                yield list(prefix) + [answer]


class TestActions:
    def test_values(self):
        assert [int(a) for a in (Action.WORK, Action.FILLER, Action.ANSWER_A, Action.ANSWER_B)] == [0, 1, 2, 3]

    def test_is_answer(self):
        assert [is_answer(a) for a in range(4)] == [False, False, True, True]

    def test_answer_letter(self):
        assert answer_letter(2) == "A"
        assert answer_letter(3) == "B"


class TestVerify:
    def test_matches_bruteforce_enumeration(self):
        # exhaustively check every terminated trace of <= 7 tokens against an
        # independent counting oracle, for several difficulties and answers
        for d in (1, 2, 3):
            for ans in ("A", "B"):
                prob = ProblemSpec("q", d, ans)
                for trace in all_traces(7):
                    expected = brute_force_correct(prob, trace)
                    assert verify_trace(prob, trace, truncated=False) == expected

    def test_min_correct_length_is_tight(self):
        # no correct trace shorter than d+1 exists, and one of length d+1 does
        for d in (1, 2, 3, 4):
            prob = ProblemSpec("q", d, "A")
            floor = min_correct_length(prob)
            assert floor == d + 1
            shortest = min(
                (len(t) for t in all_traces(d + 2) if verify_trace(prob, t, False)),
                default=None,
            )
            assert shortest == floor

    def test_truncated_is_incorrect(self):
        prob = ProblemSpec("q", 1, "A")
        assert verify_trace(prob, [0, 0, 1], truncated=True) is False

    def test_unterminated_raises(self):
        prob = ProblemSpec("q", 1, "A")
        with pytest.raises(ValueError):
            verify_trace(prob, [0, 0, 1], truncated=False)
        with pytest.raises(ValueError):
            verify_trace(prob, [], truncated=False)

    def test_filler_never_counts_as_work(self):
        prob = ProblemSpec("q", 2, "A")
        assert verify_trace(prob, [1, 1, 1, 2], False) is False
        assert verify_trace(prob, [0, 1, 0, 2], False) is True

    def test_verify_rechecks_rollout_flag(self):
        prob = ProblemSpec("q", 1, "A")
        logp = initial_policy(("q",), 3).log_probs()[0]
        rng = np.random.default_rng(0)
        for _ in range(200):
            r = sample_rollout(logp, prob, rng, l_max=32)
            assert verify(prob, r) == r.correct


class TestReplayStates:
    def test_counts_work_only(self):
        assert list(replay_states([0, 1, 0, 1, 2], w_cap=5)) == [0, 1, 1, 2, 2]

    def test_caps_at_w_cap(self):
        assert list(replay_states([0] * 5 + [2], w_cap=2)) == [0, 1, 2, 2, 2, 2]

    def test_answer_mid_trace_raises(self):
        with pytest.raises(ValueError, match="after answer"):
            replay_states([0, 2, 0], w_cap=3)

    def test_truncated_trace_without_answer_ok(self):
        assert list(replay_states([0, 1, 1], w_cap=3)) == [0, 1, 1]


class TestTabularPolicy:
    def test_log_probs_normalized(self):
        rng = np.random.default_rng(1)
        policy = TabularPolicy(("a", "b"), 3, rng.normal(0, 2, size=(2, 4, 4)))
        p = np.exp(policy.log_probs())
        assert np.allclose(p.sum(axis=-1), 1.0)
        assert np.all(policy.log_probs() <= 0)

    def test_stable_for_extreme_logits(self):
        logits = np.zeros((1, 2, 4))
        logits[0, 0] = [700.0, -700.0, 0.0, 0.0]
        policy = TabularPolicy(("a",), 1, logits)
        assert np.all(np.isfinite(policy.log_probs()))

    def test_copy_is_independent(self):
        policy = TabularPolicy(("a",), 1)
        clone = policy.copy()
        clone.logits[0, 0, 0] = 5.0
        assert policy.logits[0, 0, 0] == 0.0

    def test_ascend(self):
        policy = TabularPolicy(("a",), 1)
        grad = np.ones_like(policy.logits)
        policy.ascend(grad, 0.5)
        assert np.all(policy.logits == 0.5)

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            TabularPolicy(("a",), 1, np.zeros((2, 2, 4)))
        with pytest.raises(ValueError):
            TabularPolicy(("a", "a"), 1)
        with pytest.raises(ValueError):
            TabularPolicy((), 1)

    def test_initial_policy_answer_offset(self):
        policy = initial_policy(("a",), 2, answer_logit=-3.0)
        assert np.all(policy.logits[:, :, :2] == 0.0)
        assert np.all(policy.logits[:, :, 2:] == -3.0)


class TestSampleRollout:
    def test_action_frequencies_match_probs(self):
        # uniform policy: first-token action frequencies within 3 sigma
        logp = initial_policy(("q",), 3).log_probs()[0]  # uniform over 4 actions
        prob = ProblemSpec("q", 1, "A")
        rng = np.random.default_rng(2)
        n = 4000
        counts = [0, 0, 0, 0]
        for _ in range(n):
            counts[sample_rollout(logp, prob, rng, l_max=8).actions[0]] += 1
        sigma = (n * 0.25 * 0.75) ** 0.5
        for c in counts:
            assert abs(c - n * 0.25) < 3 * sigma

    def test_terminates_at_first_answer(self):
        logp = initial_policy(("q",), 3).log_probs()[0]
        rng = np.random.default_rng(3)
        prob = ProblemSpec("q", 1, "A")
        for _ in range(200):
            r = sample_rollout(logp, prob, rng, l_max=16)
            if not r.truncated:
                assert is_answer(r.actions[-1])
                assert not any(is_answer(a) for a in r.actions[:-1])

    def test_truncation_at_l_max(self):
        # a policy that never answers always truncates at exactly l_max
        logits = np.zeros((1, 4, 4))
        logits[:, :, 2:] = -1e9
        policy = TabularPolicy(("q",), 3, logits)
        rng = np.random.default_rng(4)
        r = sample_rollout(policy.log_probs()[0], ProblemSpec("q", 1, "A"), rng, l_max=12)
        assert r.truncated and not r.correct and r.length == 12

    def test_behavior_logps_replay_bit_exact(self):
        # recorded behavior logps equal a fresh replay under the same policy
        rng = np.random.default_rng(5)
        policy = TabularPolicy(("q",), 4, rng.normal(0, 1, size=(1, 5, 4)))
        prob = ProblemSpec("q", 2, "B")
        for _ in range(100):
            r = sample_rollout(policy.log_probs()[0], prob, rng, l_max=32)
            replayed = logprob(policy, r)
            assert list(r.behavior_logps) == list(replayed)

    def test_correct_flag_consistent(self):
        rng = np.random.default_rng(6)
        logp = initial_policy(("q",), 4).log_probs()[0]
        prob = ProblemSpec("q", 3, "B")
        for _ in range(300):
            r = sample_rollout(logp, prob, rng, l_max=16)
            assert r.correct == (
                not r.truncated
                and answer_letter(r.actions[-1]) == "B"
                and sum(1 for a in r.actions if a == 0) >= 3
            )

    def test_deterministic_given_rng_state(self):
        logp = initial_policy(("q",), 4).log_probs()[0]
        prob = ProblemSpec("q", 2, "A")
        a = sample_rollout(logp, prob, np.random.default_rng(7), l_max=32)
        b = sample_rollout(logp, prob, np.random.default_rng(7), l_max=32)
        assert a == b


# l_max on both sides of every edge between the walk's chunks of uniforms
# (16, then doubling: edges at 16, 48, 112, 240, 496 and 1008 tokens) and of
# the reference's chunks of 64.
CHUNK_EDGE_L_MAX = [
    1, 2, 15, 16, 17, 47, 48, 49, 63, 64, 65, 111, 112, 113, 127, 128, 129,
    239, 240, 241, 495, 496, 497, 1007, 1008, 1009, 2000,
]


def random_batch_case(rng, l_max):
    """A random multi-problem bank and a policy over its ids in reverse
    order: WORK-heavy rows saturate the state at w_cap, answer-averse ones
    truncate at l_max."""
    w_cap = int(rng.integers(1, 7))
    n_problems = int(rng.integers(1, 5))
    bank = [
        ProblemSpec(f"q{i}", int(rng.integers(1, w_cap + 2)), "AB"[int(rng.integers(2))]) for i in range(n_problems)
    ]
    logits = rng.normal(0, 1, size=(n_problems, w_cap + 1, 4))
    logits[..., Action.WORK] += rng.uniform(0, 3)
    logits[..., 2:] -= rng.uniform(0, 12, size=(n_problems, 1, 1))
    policy = TabularPolicy([p.id for p in bank][::-1], w_cap, logits)
    key = tuple(int(k) for k in rng.integers(0, 1000, size=int(rng.integers(1, 3))))
    return policy, bank, int(rng.integers(1, 17)), key


def assert_walk_equals_reference(policy, bank, group_size, l_max, key):
    got = sample_batch(policy, bank, group_size, l_max, key)
    want = reference.sample_batch(policy, bank, group_size, l_max, key)
    assert list(map(columns, got)) == list(map(columns, want))
    return got


class TestSampleGroup:
    """Sampling groups: the whole-batch walk behind ``trainer.sample_batch``
    draws the same uniforms and takes the same actions as the token-by-token
    reference ``tests.reference.sample_group``, which restates the scalar
    sampler."""

    @pytest.mark.parametrize("block_tokens", [env._BLOCK_TOKENS, 40])
    def test_equals_token_reference_at_chunk_edges(self, monkeypatch, block_tokens):
        # the default budget walks each batch as one block; a 40-token one
        # walks 40 // l_max rollouts per block (at least one), splitting groups
        monkeypatch.setattr(env, "_BLOCK_TOKENS", block_tokens)
        saturated = truncated = 0
        for i, l_max in enumerate(CHUNK_EDGE_L_MAX):
            for seed in range(3):
                rng = np.random.default_rng(9000 + 10 * i + seed)
                policy, bank, group_size, key = random_batch_case(rng, l_max)
                groups = assert_walk_equals_reference(policy, bank, group_size, l_max, key)
                for g in groups:
                    saturated += int(np.sum((g.states == policy.w_cap) & (g.actions == Action.WORK)))
                    truncated += int(g.truncated.sum())
        assert saturated > 0 and truncated > 0

    def test_every_group_size(self):
        for group_size in range(1, 17):
            rng = np.random.default_rng(9500 + group_size)
            policy, bank, _, key = random_batch_case(rng, 130)
            assert_walk_equals_reference(policy, bank, group_size, 130, key)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        l_max=st.one_of(st.sampled_from(CHUNK_EDGE_L_MAX[:-1]), st.integers(1, 300)),
        block_tokens=st.sampled_from([1, 500, 1 << 20]),
    )
    def test_equals_token_reference_property(self, seed, l_max, block_tokens):
        policy, bank, group_size, key = random_batch_case(np.random.default_rng(seed), l_max)
        original = env._BLOCK_TOKENS
        env._BLOCK_TOKENS = block_tokens
        try:
            assert_walk_equals_reference(policy, bank, group_size, l_max, key)
        finally:
            env._BLOCK_TOKENS = original

    def test_truncation_at_l_max(self):
        logits = np.zeros((1, 3, 4))
        logits[:, :, 2:] = -1e9
        logp = TabularPolicy(("q",), 2, logits).log_probs()
        (g,) = sample_groups(logp, [ProblemSpec("q", 1, "A")], (4,), 3, l_max=12)
        assert g.truncated.all() and not g.correct.any() and g.lengths.tolist() == [12] * 3
        assert g.states.max() == 2

    def test_deterministic_in_key(self):
        logp = initial_policy(("q",), 4).log_probs()
        prob = ProblemSpec("q", 2, "A")
        (a,), (b,), (c,) = (sample_groups(logp, [prob], key, 8, 32) for key in ((7, 1), (7, 1), (7, 2)))
        assert columns(a) == columns(b)
        assert not np.array_equal(a.actions, c.actions)

    def test_bad_l_max(self):
        with pytest.raises(ValueError, match="l_max"):
            sample_groups(initial_policy(("q",), 2).log_probs(), [ProblemSpec("q", 1, "A")], (0,), 2, 0)

    def test_bad_group_size(self):
        with pytest.raises(ValueError, match="group_size"):
            sample_groups(initial_policy(("q",), 2).log_probs(), [ProblemSpec("q", 1, "A")], (0,), 0, 8)

    def test_equals_scalar_reference(self):
        # rollout r of a group is the reference sampler on default_rng((*key, r)),
        # its states replayed through the trace; WORK-heavy policies saturate
        # the state at w_cap, and answer-averse ones truncate at l_max
        saturated = truncated = 0
        for seed in range(60):
            rng = np.random.default_rng(700 + seed)
            w_cap = int(rng.integers(1, 5))
            logits = rng.normal(0, 1, size=(1, w_cap + 1, 4))
            logits[..., Action.WORK] += rng.uniform(0, 3)
            logits[..., 2:] -= rng.uniform(0, 4)
            logp = TabularPolicy(("q",), w_cap, logits).log_probs()[0]
            prob = ProblemSpec("q", int(rng.integers(1, w_cap + 1)), "AB"[seed % 2])
            key = tuple(int(k) for k in rng.integers(0, 1000, size=int(rng.integers(1, 4))))
            group_size, l_max = int(rng.integers(1, 7)), int(rng.integers(1, 24))
            got = sample_group(logp, prob, key, group_size, l_max)
            want = group_of(
                [sample_rollout(logp, prob, np.random.default_rng((*key, r)), l_max) for r in range(group_size)],
                w_cap,
            )
            assert columns(got) == columns(want)
            saturated += int(np.sum((got.states == w_cap) & (got.actions == Action.WORK)))
            truncated += int(got.truncated.sum())
        assert saturated > 0 and truncated > 0


class TestProblemBank:
    def test_round_robin_difficulties(self):
        bank = make_problem_bank(7, (1, 3), seed=0)
        assert [p.difficulty for p in bank] == [1, 2, 3, 1, 2, 3, 1]

    def test_ids_unique_and_stable(self):
        bank = make_problem_bank(12, (1, 4), seed=0)
        assert len({p.id for p in bank}) == 12
        assert bank[0].id == "p000" and bank[11].id == "p011"

    def test_answers_seeded(self):
        a = make_problem_bank(20, (1, 5), seed=3)
        b = make_problem_bank(20, (1, 5), seed=3)
        c = make_problem_bank(20, (1, 5), seed=4)
        assert a == b
        assert a != c

    def test_bad_range(self):
        with pytest.raises(ValueError):
            make_problem_bank(5, (3, 2), seed=0)

    def test_save_load_round_trip(self, tmp_path):
        bank = make_problem_bank(9, (1, 4), seed=1)
        path = tmp_path / "bank.tsv"
        save_bank(bank, path)
        assert load_bank(path) == bank

    def test_load_malformed(self, tmp_path):
        path = tmp_path / "bank.tsv"
        path.write_text("p000\t3\n")
        with pytest.raises(ValueError):
            load_bank(path)
