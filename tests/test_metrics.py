import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conciserl import metrics
from conciserl.metrics import (
    BenchResult,
    TraceRecord,
    accuracy,
    avg_delta,
    change_rate,
    ipt,
    length_cv,
    load_results_csv,
    majority_at_k,
    overthinking_counts,
    quintile_sizes,
    split_method_benchmark,
    summarize_results,
)
from tests import reference

# Golden reference values: published per-benchmark (accuracy %, mean tokens)
# for an unmodified baseline and a length-compressed model, with the printed
# average IPT / delta columns they must reproduce.

MATH_VANILLA = [
    ("amc23", 62.0, 8273.9),
    ("aime24", 27.9, 12019.2),
    ("math500", 81.0, 4635.5),
    ("minerva", 26.8, 6347.1),
    ("olympiad", 41.5, 8915.1),
]
MATH_COMPRESSED = [
    ("amc23", 61.3, 4164.1),
    ("aime24", 25.2, 7359.4),
    ("math500", 78.6, 2257.1),
    ("minerva", 26.1, 2383.3),
    ("olympiad", 39.6, 4651.1),
]

OOD_VANILLA = [
    ("livecodebench", 12.80, 6218.0),
    ("gpqa", 16.0, 8514.3),
    ("mmlu", 38.8, 1680.3),
]
OOD_TRAINED = [
    ("livecodebench", 13.65, 4626.0),
    ("gpqa", 25.4, 3259.4),
    ("mmlu", 44.2, 622.1),
]


class TestAccuracy:
    def test_basic(self):
        assert accuracy([True, True, False, False]) == 50.0

    def test_all_correct(self):
        assert accuracy([True] * 7) == 100.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([])

    def test_table(self):
        assert accuracy(np.array([[True, False], [True, True]])) == 75.0


class TestIpt:
    def test_derived_example(self):
        # accuracy per kilotoken, checked against a published cell
        assert ipt(38.8, 1680.3) == pytest.approx(23.091, abs=5e-3)

    def test_unit_scale(self):
        assert ipt(50.0, 1000.0) == 50.0

    def test_zero_tokens_rejected(self):
        with pytest.raises(ValueError):
            ipt(50.0, 0.0)


class TestChangeRate:
    def test_derived_example(self):
        assert change_rate(4164.1, 8273.9) == pytest.approx(-49.67, abs=5e-3)

    def test_no_change(self):
        assert change_rate(3.0, 3.0) == 0.0

    def test_doubling(self):
        assert change_rate(4.0, 2.0) == 100.0

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            change_rate(1.0, 0.0)


class TestGoldenAverages:
    def test_math_token_delta(self):
        pairs = [(c[2], v[2]) for c, v in zip(MATH_COMPRESSED, MATH_VANILLA)]
        assert avg_delta(pairs) == pytest.approx(-50.01, abs=0.05)

    def test_math_accuracy_delta(self):
        pairs = [(c[1], v[1]) for c, v in zip(MATH_COMPRESSED, MATH_VANILLA)]
        assert avg_delta(pairs) == pytest.approx(-4.19, abs=0.05)

    def test_math_vanilla_avg_ipt(self):
        ipts = [ipt(a, t) for _, a, t in MATH_VANILLA]
        assert np.mean(ipts) == pytest.approx(7.23, abs=0.01)

    def test_ood_vanilla_avg_ipt(self):
        ipts = [ipt(a, t) for _, a, t in OOD_VANILLA]
        assert np.mean(ipts) == pytest.approx(9.01, abs=0.01)

    def test_ood_trained_token_delta(self):
        pairs = [(m[2], v[2]) for m, v in zip(OOD_TRAINED, OOD_VANILLA)]
        assert avg_delta(pairs) == pytest.approx(-50.10, abs=0.05)

    def test_ood_trained_avg_ipt(self):
        ipts = [ipt(a, t) for _, a, t in OOD_TRAINED]
        assert np.mean(ipts) == pytest.approx(27.26, abs=0.01)


class TestMajorityAtK:
    def test_unanimous(self):
        acc, tokens = majority_at_k([[True, True, True]], [[10, 12, 9]], k=3, rng=np.random.default_rng(0))
        assert acc == 1.0
        assert tokens == 31

    def test_even_k_tie_goes_to_the_right_answer(self):
        acc, _ = majority_at_k([[True, False]], [[1, 1]], k=2, rng=np.random.default_rng(0))
        assert acc == 1.0  # one right vote against one shared wrong vote

    def test_k_one_is_single_sample(self):
        correct, lengths = [[True, False]], [[5, 5]]
        accs = {majority_at_k(correct, lengths, 1, np.random.default_rng(s))[0] for s in range(20)}
        assert accs == {0.0, 1.0}

    def test_pool_too_small(self):
        with pytest.raises(ValueError):
            majority_at_k([[True]], [[1]], 2, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "correct, lengths",
        [([True, False], [1, 1]), ([[True]], [[1, 2]]), (np.zeros((0, 3), bool), np.zeros((0, 3)))],
        ids=["1-d", "shape-mismatch", "no-problems"],
    )
    def test_not_a_table(self, correct, lengths):
        with pytest.raises(ValueError, match="tables, got"):
            majority_at_k(correct, lengths, 1, np.random.default_rng(0))

    def test_matches_subset_enumeration(self):
        # expected accuracy over many rng draws approximates the exact average
        # over all k-subsets (sampling is without replacement)
        correct = [True, True, False, False, False]
        k = 3
        subsets = list(itertools.combinations(range(len(correct)), k))
        exact = sum(2 * sum(correct[i] for i in idxs) >= k for idxs in subsets) / len(subsets)
        draws = [
            majority_at_k([correct], [[1] * 5], k, np.random.default_rng(s))[0]
            for s in range(2000)
        ]
        assert np.mean(draws) == pytest.approx(exact, abs=0.03)

    def test_token_budget_scales_with_k(self):
        for k in (1, 3, 6):
            _, tokens = majority_at_k([[True] * 6], [[7] * 6], k, np.random.default_rng(0))
            assert tokens == 7 * k


def held_generator(seed):
    """``default_rng(seed)`` holding the high half of a 64-bit output for
    its next 32-bit draw."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 5, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


def assert_choose_is_the_choice_loop(make_rng, rows, n, k, numpy_branches=False):
    """``metrics._choose`` draws the samples one ``rng.choice(n, k,
    replace=False)`` call a row draws, as a set, and leaves the generator as
    those calls leave it; where numpy would take another branch it returns
    None and draws nothing."""
    rng, oracle = make_rng(), make_rng()
    got = metrics._choose(rng, rows, n, k)
    if numpy_branches:
        assert got is None and np.array_equal(rng.random(8), oracle.random(8))
        return
    want = reference.choose(oracle, rows, n, k)
    assert got is not None and got.shape == (rows, k)
    assert np.array_equal(np.sort(got, axis=1), np.sort(want, axis=1))
    assert rng.bit_generator.state == oracle.bit_generator.state
    assert rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist() == oracle.integers(
        0, 2**32, size=3, dtype=np.uint32).tolist()
    assert rng.random() == oracle.random()


CHOICE_SHAPES = [(n, k) for n in (1, 2, 16, 256, 10_000, 10_001) for k in sorted({1, 2, 16, n - 1, n}) if 1 <= k <= n]


class TestChooseEqualsChoiceLoop:
    """``majority_at_k`` draws every row's samples at once (``_choose``),
    copying ``Generator.choice``'s Floyd sample and Lemire draws over PCG64's
    32-bit words, and drawing the shuffle's words without applying them: its
    rows, sorted, must be the per-row ``rng.choice`` loop's, and the
    generator must be left where that loop leaves it."""

    @pytest.mark.parametrize("held", [False, True], ids=["fresh", "held"])
    @pytest.mark.parametrize("n, k", CHOICE_SHAPES, ids=[f"{n}-{k}" for n, k in CHOICE_SHAPES])
    def test_shapes(self, n, k, held):
        # n > 10,000 takes numpy's tail shuffle when k > n // 50, and k == n
        # draws no word for Floyd's first value: both keep numpy's loop
        make = held_generator if held else np.random.default_rng
        for seed in (0, 5) if n < 10_000 else (0,):
            assert_choose_is_the_choice_loop(lambda: make(seed), 3, n, k, numpy_branches=n > 10_000 or k == n)

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_eval_sweep_shape(self, k):
        # 20 problems x 256 samples, eval's generator for each k
        for seed in range(4):
            assert_choose_is_the_choice_loop(lambda: np.random.default_rng((seed, 1_000_003, k)), 20, 256, k)
            assert_choose_is_the_choice_loop(lambda: held_generator(seed), 20, 256, k)

    def test_rejected_draw_takes_the_loop(self):
        # seed 741 is the first whose 20 rows of 16 of 10,000 draw a word
        # that Lemire's method rejects (found once, by search): numpy draws
        # again there, so the whole table takes numpy's loop
        assert_choose_is_the_choice_loop(lambda: np.random.default_rng(741), 20, 10_000, 16, numpy_branches=True)
        rng = np.random.default_rng(0)
        correct, lengths = rng.random((20, 10_000)) < 0.5, rng.integers(1, 99, size=(20, 10_000))
        samples, truth = reference.eval_votes([f"p{i:02d}" for i in range(20)], correct, lengths, ["A"] * 20)
        want = reference.majority_at_k(samples, truth, 16, np.random.default_rng(741))
        assert majority_at_k(correct, lengths, 16, np.random.default_rng(741)) == want

    def test_other_generators_take_the_loop(self):
        def make():
            return np.random.Generator(np.random.MT19937(3))

        assert_choose_is_the_choice_loop(make, 4, 16, 4, numpy_branches=True)
        correct = np.random.default_rng(1).random((4, 16)) < 0.5
        samples, truth = reference.eval_votes(list("abcd"), correct, np.ones((4, 16), int), ["A"] * 4)
        assert majority_at_k(correct, np.ones((4, 16), int), 4, make()) == reference.majority_at_k(
            samples, truth, 4, make())


@st.composite
def sample_tables(draw, max_problems=6, max_samples=9):
    """(ids, answers, correct, lengths, k, seed): a (problem, sample) table
    under shuffled, unsorted problem ids."""
    n_problems = draw(st.integers(1, max_problems))
    n = draw(st.integers(1, max_samples))
    ids = draw(st.lists(st.text("abpqZ019", min_size=1, max_size=4), min_size=n_problems,
                        max_size=n_problems, unique=True))
    answers = draw(st.lists(st.sampled_from("AB"), min_size=n_problems, max_size=n_problems))
    cells = n_problems * n
    correct = np.array(draw(st.lists(st.booleans(), min_size=cells, max_size=cells))).reshape(n_problems, n)
    lengths = np.array(draw(st.lists(st.integers(1, 20_000), min_size=cells, max_size=cells)))
    k = draw(st.integers(1, n))
    return ids, answers, correct, lengths.reshape(n_problems, n), k, draw(st.integers(0, 2**32))


class TestAgainstVoteOracle:
    """The array metrics against the per-sample vote and per-problem loops of
    ``tests/reference.py``, on the tables ``conciserl eval`` would pass."""

    @staticmethod
    def check(ids, answers, correct, lengths, k, seed):
        samples, truth = reference.eval_votes(ids, correct, lengths, answers)
        order = np.argsort(ids)
        got = majority_at_k(correct[order], lengths[order], k, np.random.default_rng(seed))
        assert got == reference.majority_at_k(samples, truth, k, np.random.default_rng(seed))
        assert type(got[1]) is int
        if correct.shape[1] >= 2:
            per_problem = {pid: row.tolist() for pid, row in zip(ids, lengths)}
            assert length_cv(lengths) == reference.length_cv(per_problem)

    @settings(max_examples=300, deadline=None)
    @given(sample_tables())
    def test_random_tables(self, table):
        self.check(*table)

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_even_k_ties(self, k):
        # every row holds as many right samples as wrong ones
        correct = np.tile([True, False], (5, 3))
        rng = np.random.default_rng(k)
        for seed in range(20):
            self.check(["e", "a", "d", "b", "c"], list("ABBAB"), rng.permuted(correct, axis=1),
                       rng.integers(1, 50, size=(5, 6)), k, seed)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_k_equals_n(self, n):
        rng = np.random.default_rng(n)
        for seed in range(10):
            correct = rng.random((4, n)) < 0.5
            self.check(["z", "y", "x", "w"], list("ABAB"), correct, rng.integers(1, 50, size=(4, n)), n, seed)


class TestLengthCv:
    def test_constant_lengths(self):
        assert length_cv([[5.0, 5.0, 5.0]]) == 0.0

    def test_known_value(self):
        # std([2, 4]) = 1 (population), mean = 3
        assert length_cv([[2.0, 4.0]]) == pytest.approx(1 / 3)

    def test_mean_over_problems(self):
        cv = length_cv([[2.0, 4.0], [5.0, 5.0]])
        assert cv == pytest.approx((1 / 3 + 0.0) / 2)

    def test_diverse_exceeds_uniform(self):
        rng = np.random.default_rng(2)
        tight = rng.normal(100, 1, size=(1, 50))
        wide = rng.normal(100, 40, size=(1, 50)).clip(min=1)
        assert length_cv(wide) > length_cv(tight)

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            length_cv([[3.0]])

    def test_non_positive_mean_named(self):
        with pytest.raises(ValueError, match="problem row 1 has non-positive mean length"):
            length_cv([[1.0, 2.0], [0.0, 0.0]])


def trace(text, pid="p", correct=True, tokens=10):
    return TraceRecord(pid, text, "A", correct, tokens)


class TestOverthinkingCounts:
    def test_keyword_fixture(self):
        counts, _ = overthinking_counts([trace("Wait\n\nBut wait, hmm")])
        assert counts["Wait"] == 2
        assert counts["But"] == 1
        assert counts["Hmm"] == 1
        assert counts["However"] == 0

    def test_word_boundaries(self):
        counts, _ = overthinking_counts([trace("butter however, anotherness")])
        assert counts["But"] == 0
        assert counts["However"] == 1
        assert counts["Another"] == 0

    def test_multiword_phrase(self):
        counts, _ = overthinking_counts([trace("I'm not sure. Going back to it.")])
        assert counts["Not sure"] == 1
        assert counts["Going back"] == 1

    def test_mean_segments(self):
        traces = [trace("a\n\nb\n\nc"), trace("one segment")]
        _, mean_steps = overthinking_counts(traces)
        assert mean_steps == pytest.approx((3 + 1) / 2)

    def test_empty_segments_ignored(self):
        _, mean_steps = overthinking_counts([trace("a\n\n\n\nb")])
        assert mean_steps == 2.0

    def test_order_invariant(self):
        a = [trace("Wait"), trace("But but")]
        assert overthinking_counts(a)[0] == overthinking_counts(list(reversed(a)))[0]


class TestQuintiles:
    def test_sizes_for_small_n(self):
        assert quintile_sizes(5) == [1, 1, 1, 1, 1]
        assert quintile_sizes(7) == [2, 2, 1, 1, 1]
        assert quintile_sizes(10) == [2, 2, 2, 2, 2]
        assert quintile_sizes(13) == [3, 3, 3, 2, 2]

    def test_sizes_sum(self):
        for n in range(5, 14):
            assert sum(quintile_sizes(n)) == n

    def test_too_few(self):
        with pytest.raises(ValueError):
            quintile_sizes(4)


class TestFileInterfaces:
    def test_results_csv_round_trip(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(
            "name,accuracy,mean_tokens\nvanilla/amc23,62.0,8273.9\nours/amc23,65.8,2921.2\n"
        )
        rows = load_results_csv(path)
        assert rows == [
            BenchResult("vanilla/amc23", 62.0, 8273.9),
            BenchResult("ours/amc23", 65.8, 2921.2),
        ]

    def test_results_csv_bad_header(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("method,acc\nx,1\n")
        with pytest.raises(ValueError, match="header"):
            load_results_csv(path)

    def test_split_method_benchmark(self):
        assert split_method_benchmark("vanilla/amc23") == ("vanilla", "amc23")
        assert split_method_benchmark("vanilla") == ("vanilla", "")


class TestSummarizeResults:
    def make_results(self):
        rows = []
        for bench, acc, tok in MATH_VANILLA:
            rows.append(BenchResult(f"vanilla/{bench}", acc, tok))
        for bench, acc, tok in MATH_COMPRESSED:
            rows.append(BenchResult(f"compressed/{bench}", acc, tok))
        return rows

    def test_reproduces_printed_averages(self):
        summary = summarize_results(self.make_results(), "vanilla")
        assert summary["vanilla"]["avg_ipt"] == pytest.approx(7.23, abs=0.01)
        assert summary["compressed"]["d_token"] == pytest.approx(-50.01, abs=0.05)
        assert summary["compressed"]["d_acc"] == pytest.approx(-4.19, abs=0.05)

    def test_vanilla_deltas_are_zero(self):
        summary = summarize_results(self.make_results(), "vanilla")
        assert summary["vanilla"]["d_token"] == pytest.approx(0.0)
        assert summary["vanilla"]["d_acc"] == pytest.approx(0.0)

    def test_missing_vanilla(self):
        with pytest.raises(ValueError, match="vanilla"):
            summarize_results([BenchResult("x/a", 1.0, 2.0)], "vanilla")

    def test_zero_vanilla_accuracy_has_no_accuracy_change(self):
        # a 0% vanilla row has no accuracy change rate; the d_acc average
        # runs over the benchmarks that have one, and d_token over all
        rows = [("vanilla/aime", 0.0, 1000.0), ("ours/aime", 10.0, 500.0), ("vanilla/amc", 50.0, 1000.0),
                ("ours/amc", 60.0, 800.0)]
        summary = summarize_results([BenchResult(*row) for row in rows], "vanilla")
        ours = summary["ours"]
        assert ours["benchmarks"]["aime"]["d_acc"] is None
        assert ours["benchmarks"]["aime"]["d_token"] == pytest.approx(-50.0)
        assert ours["d_acc"] == pytest.approx(20.0)
        assert ours["d_token"] == pytest.approx(-35.0)
        only = summarize_results([BenchResult(*row) for row in rows[:2]], "vanilla")
        assert only["ours"]["d_acc"] is None and only["ours"]["d_token"] == pytest.approx(-50.0)
