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
    initial_policy,
    load_bank,
    make_problem_bank,
    min_correct_length,
    sample_batch,
    save_bank,
)
from tests import reference
from tests.test_budgets import package_calls
from tests.reference import (
    answer_letter,
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
# (16, then doubling while the chunk budget allows: edges at 16, 48, 112,
# 240, 496 and 1008 tokens) and of the reference's chunks of 64.
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
    return policy, bank, int(rng.integers(1, 17)), random_key(rng)


# Key elements at the edges of numpy's 32-bit seed words: 0 (one zero word),
# the largest one-word value, the smallest two-word one and a three-word one.
EDGE_KEY_ELEMENTS = (0, 2**32 - 1, 2**32, 2**64 + 5)


def random_key(rng):
    """0 to 3 key elements: word edges, small values and multi-word ones."""
    choices = [*EDGE_KEY_ELEMENTS, int(rng.integers(0, 1000)), int(rng.integers(0, 2**63)) << 40]
    return tuple(choices[i] for i in rng.integers(0, len(choices), size=int(rng.integers(0, 4))))


def assert_walk_equals_reference(policy, bank, group_size, l_max, key):
    got = sample_batch(policy, bank, group_size, l_max, key)
    want = reference.sample_batch(policy, bank, group_size, l_max, key)
    assert columns(got) == columns(want)
    return got


class TestSampleGroup:
    """Sampling groups: the whole-batch walk of ``env.sample_batch``
    draws the same uniforms and counts the same actions in the same states
    as the token-by-token reference ``tests.reference.sample_group``, which
    restates the scalar sampler."""

    @pytest.mark.parametrize("chunk_uniforms", [env._CHUNK_UNIFORMS, 40])
    def test_equals_token_reference_at_chunk_edges(self, monkeypatch, chunk_uniforms):
        # the default budget lets these batches of at most 64 rollouts double
        # their chunks to 256 uniforms wide or more; a 40-uniform one holds
        # most chunks at _FIRST_CHUNK and cuts the rest at uneven widths as
        # rollouts finish
        monkeypatch.setattr(env, "_CHUNK_UNIFORMS", chunk_uniforms)
        saturated = truncated = 0
        for i, l_max in enumerate(CHUNK_EDGE_L_MAX):
            for seed in range(3):
                rng = np.random.default_rng(9000 + 10 * i + seed)
                policy, bank, group_size, key = random_batch_case(rng, l_max)
                batch = assert_walk_equals_reference(policy, bank, group_size, l_max, key)
                saturated += int(batch.counts[:, :, -1, Action.WORK].sum())
                truncated += int(batch.truncated.sum())
        assert saturated > 0 and truncated > 0

    def test_every_group_size(self):
        for group_size in range(1, 17):
            rng = np.random.default_rng(9500 + group_size)
            policy, bank, _, key = random_batch_case(rng, 130)
            assert_walk_equals_reference(policy, bank, group_size, 130, key)

    def test_group_larger_than_a_block(self):
        # a group of more than _BLOCK_ROLLOUTS rollouts spans several blocks
        rng = np.random.default_rng(9600)
        policy, bank, _, key = random_batch_case(rng, 40)
        batch = assert_walk_equals_reference(policy, bank, env._BLOCK_ROLLOUTS + 44, 40, key)
        assert batch.correct.shape == (len(bank), env._BLOCK_ROLLOUTS + 44)

    @pytest.mark.parametrize("block_rollouts", [1, 3, 4, 6])
    def test_blocks_straddle_groups(self, monkeypatch, block_rollouts):
        # no block of 1, 3, G - 1 or G + 1 rollouts holds a whole number of
        # G = 5 groups: blocks start and end partway through a group, and
        # many hold the end of one problem's group and the start of the next
        monkeypatch.setattr(env, "_BLOCK_ROLLOUTS", block_rollouts)
        problems = 0
        for i, l_max in enumerate([1, 17, 130]):
            for seed in range(4):
                policy, bank, _, key = random_batch_case(np.random.default_rng(9700 + 10 * i + seed), l_max)
                assert_walk_equals_reference(policy, bank, 5, l_max, key)
                problems += len(bank)
        assert problems > 12  # some of the 12 banks hold several problems

    @pytest.mark.parametrize("l_max", [1, 16384])
    @pytest.mark.parametrize("group_size", [16, 64])
    def test_blocks_are_cut_by_rollout_count_alone(self, monkeypatch, l_max, group_size):
        # whatever l_max, the batch is walked in ceil(P·G / _BLOCK_ROLLOUTS)
        # consecutive blocks of at most _BLOCK_ROLLOUTS rollouts, each with
        # its rows of the batch's seed words
        blocks = []
        walk = env._walk

        def spy(cum, problems, words, l_max):
            blocks.append((problems, words))
            return walk(cum, problems, words, l_max)

        monkeypatch.setattr(env, "_walk", spy)
        bank = make_problem_bank(20, (1, 10), 0)
        sample_batch(initial_policy([p.id for p in bank], 10), bank, group_size, l_max, (0, 1))
        assert len(blocks) == -(-20 * group_size // env._BLOCK_ROLLOUTS)
        assert max(len(problems) for problems, _ in blocks) <= env._BLOCK_ROLLOUTS
        problems, rollouts = np.divmod(np.arange(20 * group_size), group_size)
        assert np.array_equal(np.concatenate([p for p, _ in blocks]), problems)
        assert np.array_equal(np.concatenate([w for _, w in blocks]), env._seed_words((0, 1), problems, rollouts))

    def test_seeds_hashed_once_per_batch(self, monkeypatch):
        # an eval batch of 20 x 256 rollouts spans several blocks, which
        # share one hash of the batch's seed words
        calls = []
        seed_words = env._seed_words

        def spy(key, problems, rollouts):
            calls.append(len(problems))
            return seed_words(key, problems, rollouts)

        monkeypatch.setattr(env, "_seed_words", spy)
        bank = make_problem_bank(20, (1, 10), 0)
        sample_batch(initial_policy([p.id for p in bank], 10), bank, 256, 1024, (0,))
        assert 20 * 256 > env._BLOCK_ROLLOUTS and calls == [20 * 256]

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        l_max=st.one_of(st.sampled_from(CHUNK_EDGE_L_MAX[:-1]), st.integers(1, 300)),
        chunk_uniforms=st.sampled_from([1, 500, 1 << 20]),
    )
    def test_equals_token_reference_property(self, seed, l_max, chunk_uniforms):
        policy, bank, group_size, key = random_batch_case(np.random.default_rng(seed), l_max)
        original = env._CHUNK_UNIFORMS
        env._CHUNK_UNIFORMS = chunk_uniforms
        try:
            assert_walk_equals_reference(policy, bank, group_size, l_max, key)
        finally:
            env._CHUNK_UNIFORMS = original

    def test_truncation_at_l_max(self):
        logits = np.zeros((1, 3, 4))
        logits[:, :, 2:] = -1e9
        policy = TabularPolicy(("q",), 2, logits)
        batch = sample_batch(policy, [ProblemSpec("q", 1, "A")], 3, 12, (4,))
        assert batch.truncated.all() and not batch.correct.any() and batch.lengths.tolist() == [[12] * 3]
        assert batch.counts[:, :, 2].sum() > 0 and not batch.counts[..., 2:].any()

    def test_deterministic_in_key(self):
        policy = initial_policy(("q",), 4)
        prob = ProblemSpec("q", 2, "A")
        a, b, c = (sample_batch(policy, [prob], 8, 32, key) for key in ((7, 1), (7, 1), (7, 2)))
        assert columns(a) == columns(b)
        assert not np.array_equal(a.counts, c.counts)

    def test_bad_l_max(self):
        with pytest.raises(ValueError, match="l_max"):
            sample_batch(initial_policy(("q",), 2), [ProblemSpec("q", 1, "A")], 2, 0, (0,))

    def test_bad_group_size(self):
        with pytest.raises(ValueError, match="group_size"):
            sample_batch(initial_policy(("q",), 2), [ProblemSpec("q", 1, "A")], 0, 8, (0,))

    def test_equals_scalar_reference(self):
        # rollout r of a group is the reference sampler on default_rng((*key, r)),
        # its tokens counted in the states replayed through the trace;
        # WORK-heavy policies saturate the state at w_cap, and answer-averse
        # ones truncate at l_max
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
                logp,
            )
            assert columns(got) == columns(want)
            saturated += int(got.counts[:, :, w_cap, Action.WORK].sum())
            truncated += int(got.truncated.sum())
        assert saturated > 0 and truncated > 0


def state_logits(probs):
    """Logits whose softmax is ``probs`` (rows of WORK, FILLER, ANSWER_A,
    ANSWER_B probabilities); a zero probability gets -1000, whose exp is
    exactly 0."""
    probs = np.asarray(probs, dtype=float)
    return np.where(probs > 0, np.log(np.where(probs > 0, probs, 1.0)), -1000.0)


def one_problem_policy(probs, difficulty=1, answer="A"):
    """A one-problem bank and a policy with the ``(w_cap + 1, 4)`` state
    probabilities ``probs``."""
    return TabularPolicy(("q",), len(probs) - 1, state_logits(probs)[None]), [ProblemSpec("q", difficulty, answer)]


def uniforms(key, group_size, n):
    """The first ``n`` uniforms of each rollout of problem 0, as the walk
    and the reference read them."""
    return np.array([np.random.default_rng((*key, 0, r)).random(n) for r in range(group_size)])


WORK_ONLY, FILLER_ONLY, ANSWER_ONLY = [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]


class TestFirstChunkCursor:
    """The first chunk is walked from a cursor per rollout: a pass reads the
    uniform under each cursor and scans from it only the rows that uniform
    keeps in their state. Hand-built policies force each case where a
    cursor, its mask or the sentinel decides the walk, and the walk must
    still equal the token-by-token reference."""

    def test_filler_run_after_the_cursor_below_w_cap(self):
        # state 0 always works, so state 1 is entered at column 1: a
        # rollout whose uniform there is a FILLER scans from its cursor,
        # past a column 0 that would exit state 1
        policy, bank = one_problem_policy(
            [WORK_ONLY, [0.4, 0.6, 0, 0], [0.3, 0.3, 0.2, 0.2], [0.3, 0.3, 0.2, 0.2], [0.3, 0.3, 0.2, 0.2]]
        )
        u = uniforms((5,), 64, 2)
        assert ((u[:, 0] < 0.4) & (u[:, 1] >= 0.4)).sum() > 5
        batch = assert_walk_equals_reference(policy, bank, 64, 40, (5,))
        assert batch.counts[0, :, 1, Action.FILLER].sum() > 0

    def test_filler_run_after_the_cursor_at_w_cap(self):
        # two certain WORK tokens reach w_cap at column 2; a rollout kept
        # there counts the WORK tokens of its run from its cursor on, not
        # the read columns 0 and 1 that lie below the w_cap WORK edge
        policy, bank = one_problem_policy([WORK_ONLY, WORK_ONLY, [0.4, 0.4, 0.1, 0.1]], difficulty=2)
        u = uniforms((6,), 64, 3)
        assert (((u[:, 0] < 0.4) | (u[:, 1] < 0.4)) & (u[:, 2] < 0.8)).sum() > 5
        batch = assert_walk_equals_reference(policy, bank, 64, 40, (6,))
        assert batch.counts[0, :, 2, Action.WORK].sum() > 0

    @pytest.mark.parametrize("l_max", [16, 17, 40])
    def test_work_exit_on_the_last_column(self, l_max):
        # sixteen certain WORK tokens leave state 15 on column 15; one more
        # pass reads only the sentinel: the rollout is truncated at l_max 16,
        # and otherwise answers on the first column of the next chunk
        w_cap = 16
        policy, bank = one_problem_policy([WORK_ONLY] * w_cap + [ANSWER_ONLY], difficulty=w_cap)
        batch = assert_walk_equals_reference(policy, bank, 3, l_max, (7,))
        assert batch.lengths.tolist() == [[16 if l_max == 16 else 17] * 3]
        assert batch.truncated.all() == (l_max == 16) and batch.correct.all() == (l_max > 16)

    @pytest.mark.parametrize("l_max", [1, 15, 16, 17])
    def test_first_chunk_edges(self, l_max):
        # l_max 1, 15 and 16 end in the first chunk, 17 in a one-wide
        # generator's chunk; w_cap 3 is reached often and the answers are
        # rare enough that many rollouts run to l_max
        probs = [[0.55, 0.37, 0.04, 0.04]] * 4
        policy, bank = one_problem_policy(probs, difficulty=2)
        batch = assert_walk_equals_reference(policy, bank, 128, l_max, (8, l_max))
        assert batch.truncated.any() and not batch.truncated.all()

    def test_every_rollout_exits_at_its_cursor(self):
        # no FILLER mass and no WORK at w_cap: every uniform leaves its state,
        # so no pass scans a row
        probs = [[0.6, 0, 0.2, 0.2]] * 5 + [[0, 0, 0.5, 0.5]]
        policy, bank = one_problem_policy(probs, difficulty=3)
        batch, _, passes, scans = package_calls(assert_walk_equals_reference, policy, bank, 64, 40, (9,))
        assert not batch.counts[..., Action.FILLER].any() and not batch.counts[0, :, -1, Action.WORK].any()
        assert passes > 1 and scans == 0

    def test_no_rollout_exits_at_its_cursor(self):
        # each state's WORK edge sits just below the uniform that enters it:
        # every uniform a cursor reads is a FILLER, and every exit is found
        # by a scan from the cursor, past read columns that would exit the
        # state; answers have no mass, so every rollout runs to l_max
        key, l_max, w_cap = (10,), 16, 16
        bank, logits = [], []
        for p in range(8):
            u = np.random.default_rng((*key, p, 0)).random(l_max)
            edge, column = np.full(w_cap + 1, 0.5), 0
            for w in range(w_cap + 1):
                edge[w] = u[column] * (1 - 1e-6)
                later = np.flatnonzero(u[column + 1 :] < edge[w])
                if not later.size:
                    break
                column += later[0] + 2
                if column >= l_max:
                    break
            logits.append(state_logits(np.stack([edge, 1 - edge, 0 * edge, 0 * edge], axis=1)))
            bank.append(ProblemSpec(f"q{p}", 1, "A"))
        policy = TabularPolicy([p.id for p in bank], w_cap, np.array(logits))
        batch = assert_walk_equals_reference(policy, bank, 1, l_max, key)
        logp = policy.log_probs()
        works = 0
        for p, problem in enumerate(bank):
            actions = sample_rollout(logp[p], problem, np.random.default_rng((*key, p, 0)), l_max).actions
            assert actions[0] == Action.FILLER
            assert all(b == Action.FILLER for a, b in zip(actions, actions[1:]) if a == Action.WORK)
            works += actions.count(Action.WORK)
        assert works > 8 and batch.truncated.all()

    @pytest.mark.parametrize("filler", [0.5, 0.0])
    @pytest.mark.parametrize("column", [0, 5, 15, 20])
    def test_uniform_on_the_work_edge(self, filler, column):
        # a uniform equal to a state's WORK edge cum[w, 0] is no WORK token:
        # the state keeps it as a FILLER, or, with no FILLER mass, answers.
        # The states before `column` always work, so the uniform is read at
        # that column, in the first chunk (a cursor) or a generator's chunk.
        for seed in range(100):
            u = np.random.default_rng((seed, 0, 0)).random(column + 1)[column]
            rest = 1.0 - u
            edge = [u, rest * filler, rest * (1 - filler) / 2, rest * (1 - filler) / 2]
            policy, bank = one_problem_policy([WORK_ONLY] * column + [edge] + [ANSWER_ONLY] * 2, max(column, 1))
            if np.exp(policy.log_probs())[0, column, Action.WORK] == u:
                break
        else:
            pytest.fail("no seed puts a uniform exactly on the WORK edge")
        batch = assert_walk_equals_reference(policy, bank, 1, 40, (seed,))
        if filler:
            assert batch.counts[0, 0, column, Action.FILLER] > 0
        else:
            assert batch.lengths.tolist() == [[column + 1]] and not batch.truncated.any()


def assert_seed_words_are_default_rngs(key, problems, rollouts):
    got = env._seed_words(key, np.asarray(problems), np.asarray(rollouts))
    want = [
        np.random.default_rng((*key, p, r)).bit_generator.seed_seq.generate_state(4, np.uint64)
        for p, r in zip(problems, rollouts)
    ]
    assert got.dtype == np.uint64 and got.shape == (len(want), 4)
    assert np.array_equal(got, np.array(want, dtype=np.uint64).reshape(-1, 4))


# Keys from every prefix of EDGE_KEY_ELEMENTS up to length 2 and ones past
# 2**128; (p, r) pairs at 0 and at numpy's largest one-word values.
STREAM_KEYS = [
    *(k for n in range(3) for k in itertools.product(EDGE_KEY_ELEMENTS, repeat=n)),
    (2**128 + 7,),
    (2**130, 5, 2**64 - 1),
]
STREAM_PAIRS = [(0, 0), (0, 1), (1, 0), (3, 11), (2**32 - 1, 0), (0, 2**32 - 1), (2**32 - 1, 2**32 - 1)]
# Hypothesis keys of up to three elements, word edges and multi-word ones
# included, and (p, r) pairs that often sit at numpy's one-word edges.
RNG_KEYS = st.lists(
    st.one_of(st.sampled_from(EDGE_KEY_ELEMENTS), st.integers(0, 2**32 - 1), st.integers(0, 2**130)), max_size=3
)
ROLLOUT_PAIRS = st.tuples(*[st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))] * 2)


class TestGenerators:
    """``env._seed_words`` hashes a block's seeds in one vectorized pass;
    each per-rollout ``(p, r)`` row must hold exactly the PCG64 seed words
    of ``default_rng((*key, p, r))``: its SeedSequence's
    ``generate_state(4, np.uint64)``."""

    @pytest.mark.parametrize("prefix_length", range(4))
    def test_edge_elements(self, prefix_length):
        for key in itertools.product(EDGE_KEY_ELEMENTS, repeat=prefix_length):
            assert_seed_words_are_default_rngs(key, *zip(*itertools.product(range(0, 2), range(0, 3))))
            edges = itertools.product(range(2**32 - 2, 2**32), range(2**32 - 3, 2**32))
            assert_seed_words_are_default_rngs(key, *zip(*edges))
            # pairs in any order, not only a block of whole groups
            assert_seed_words_are_default_rngs(key, [2**32 - 1, 0, 3, 0], [0, 2**32 - 1, 1, 1])

    @settings(max_examples=100, deadline=None)
    @given(
        key=RNG_KEYS,
        pairs=st.lists(ROLLOUT_PAIRS, min_size=1, max_size=12),
    )
    def test_states_equal_default_rng_property(self, key, pairs):
        problems, rollouts = zip(*pairs)
        assert_seed_words_are_default_rngs(tuple(key), problems, rollouts)

    @pytest.mark.parametrize("key", [(-1,), (3, -7), (-(2**40), 0)])
    def test_negative_element_named(self, key):
        bad = next(k for k in key if k < 0)
        with pytest.raises(ValueError, match=rf"seed {bad} .*non-negative"):
            env._seed_words(key, np.arange(2), np.arange(2))


def assert_first_chunk_continues_default_rng(key, pairs, width, later=(1, 1, 14, 32, 64)):
    """``_first_chunk`` draws each stream's first ``width`` doubles, and the
    generators ``_generators`` starts from its end state go on with the next
    ones: one at a time, then in chunks whose edges fall at other offsets."""
    problems, rollouts = (np.array(c) for c in zip(*pairs))
    words = env._seed_words(key, problems, rollouts)
    first, hi, lo = env._first_chunk(words, width)
    streams = [np.random.default_rng((*key, p, r)).random(width + sum(later)) for p, r in pairs]
    assert first.shape == (len(pairs), width)
    assert np.array_equal(first, np.array(streams)[:, :width])
    for gen, stream, (p, r) in zip(env._generators(words, hi, lo), streams, pairs):
        ref = np.random.default_rng((*key, p, r))
        ref.random(width)
        assert gen.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(np.concatenate([gen.random(n) for n in later]), stream[width:])


class TestFirstChunk:
    """Every rollout's first chunk is PCG64 computed in numpy for the whole
    block, and only rollouts that outlive it get a generator: its doubles
    and those generators must be ``default_rng((*key, p, r))``'s stream,
    bit for bit, at every offset."""

    @pytest.mark.parametrize("width", [1, 15, env._FIRST_CHUNK])
    def test_equals_default_rng(self, width):
        for key in STREAM_KEYS:
            assert_first_chunk_continues_default_rng(key, STREAM_PAIRS, width)

    def test_rotation_by_zero(self):
        # a state whose top six bits are 0 rotates its output by 0, where the
        # rotation's two halves coincide: streams that reach one in their
        # first chunk, found through numpy's own state
        pairs = []
        for r in range(256):
            ref = np.random.default_rng((0, 0, r))
            for _ in range(env._FIRST_CHUNK):
                ref.random()
                if ref.bit_generator.state["state"]["state"] >> 122 == 0:
                    pairs.append((0, r))
                    break
        assert len(pairs) > 20
        assert_first_chunk_continues_default_rng((0,), pairs, env._FIRST_CHUNK)

    @settings(max_examples=100, deadline=None)
    @given(
        key=RNG_KEYS,
        pairs=st.lists(ROLLOUT_PAIRS, min_size=1, max_size=8),
        width=st.integers(1, env._FIRST_CHUNK),
    )
    def test_equals_default_rng_property(self, key, pairs, width):
        assert_first_chunk_continues_default_rng(tuple(key), pairs, width, later=(1, 1, 7, 31))

    @staticmethod
    def count_generators(monkeypatch):
        built = []

        class Counted(np.random.PCG64):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.random, "PCG64", Counted)
        return built

    BANK = make_problem_bank(20, (1, 10), 0)

    def test_no_generator_for_rollouts_within_the_first_chunk(self, monkeypatch):
        # a converged batch answers within d + 1 <= 11 tokens
        built = self.count_generators(monkeypatch)
        logits = np.full((20, 11, 4), -8.0)
        for i, p in enumerate(self.BANK):
            logits[i, : p.difficulty, Action.WORK] = 8.0
            logits[i, p.difficulty :, Action.ANSWER_A if p.correct_answer == "A" else Action.ANSWER_B] = 8.0
        policy = TabularPolicy([p.id for p in self.BANK], 10, logits)
        batch = sample_batch(policy, self.BANK, 64, 1024, (0,))
        assert batch.correct.all() and batch.lengths.max() <= env._FIRST_CHUNK
        assert built == []

    @pytest.mark.parametrize("l_max", [1, 15, env._FIRST_CHUNK])
    def test_no_generator_when_l_max_ends_the_first_chunk(self, monkeypatch, l_max):
        # answer-averse rollouts run to l_max, which the first chunk covers
        built = self.count_generators(monkeypatch)
        policy = initial_policy([p.id for p in self.BANK], 10, answer_logit=-20)
        batch = sample_batch(policy, self.BANK, 40, l_max, (3, 1))
        assert batch.truncated.all()
        assert built == []

    def test_one_generator_per_rollout_longer_than_the_first_chunk(self, monkeypatch):
        # 20 x 64 rollouts (two blocks), some answering within 16 tokens and
        # some after
        built = self.count_generators(monkeypatch)
        policy = initial_policy([p.id for p in self.BANK], 10, answer_logit=-2.5)
        lengths = sample_batch(policy, self.BANK, 64, 1024, (3, 2)).lengths.ravel()
        longer = int((lengths > env._FIRST_CHUNK).sum())
        assert 0 < longer < len(lengths) and len(lengths) > env._BLOCK_ROLLOUTS
        assert len(built) == longer


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
