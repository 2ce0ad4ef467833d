import numpy as np
import pytest

from conciserl.buffer import BufferFormatError, ExperienceBuffer, Group
from conciserl.core import RolloutBatch
from conciserl.env import Action
from tests.reference import stack


def group(problem_id, specs):
    """One problem's group of rollouts, one per (length, correct) spec."""
    return Group(problem_id, np.array([n for n, _ in specs]), np.array([c for _, c in specs]))


def record(problem_id, specs):
    """A one-problem record of rollouts of WORK tokens in state 0 ending in
    ANSWER_A, one per (length, correct) spec."""
    counts = np.zeros((1, len(specs), 1, 4), dtype=np.int32)
    counts[0, :, 0, Action.WORK] = [n - 1 for n, _ in specs]
    counts[0, :, 0, Action.ANSWER_A] = 1
    return RolloutBatch(
        (problem_id,),
        counts=counts,
        behavior_logp=np.full((1, 1, 4), -1.0),
        correct=[[c for _, c in specs]],
        truncated=[[False] * len(specs)],
    )


def random_buffer(rng, ids=("a", "b", "c"), l_max=100):
    return ExperienceBuffer(
        {pid: int(rng.integers(1, l_max + 1)) for pid in ids}, l_max
    )


class TestInit:
    def test_initializes_to_l_max(self):
        buf = ExperienceBuffer.init({"p1", "p2"}, 16384)
        assert buf.entries() == {"p1": 16384, "p2": 16384}

    def test_degenerate_budget(self):
        assert ExperienceBuffer.init({"p1"}, 1).entry("p1") == 1

    @pytest.mark.parametrize("bad", [3.5, 3.0, True], ids=["float", "whole-float", "bool"])
    def test_entry_the_expbuf_cannot_store(self, bad):
        # .expbuf stores each entry as an int: 3.5 would be written as the
        # unparseable '3.5', True as 'True'
        with pytest.raises(ValueError, match="is not an int"):
            ExperienceBuffer({"a": 3, "b": bad}, 8)

    @pytest.mark.parametrize("pid", ["a\tb", "a\nb", "a\r", "\u2028a", 3])
    def test_id_the_expbuf_cannot_store(self, pid):
        # .expbuf stores one id<TAB>value record per line: the first three
        # would be written as bytes that loads refuses, and the last two
        # would load back as another id ('a', '3')
        with pytest.raises(ValueError, match="not a non-empty str free of tabs and line breaks"):
            ExperienceBuffer({pid: 3}, 10)
        with pytest.raises(ValueError, match="not a non-empty str free of tabs and line breaks"):
            ExperienceBuffer.init(["ok", pid], 10)

    def test_empty_ids_rejected(self):
        with pytest.raises(ValueError):
            ExperienceBuffer.init(set(), 100)


class TestUpdate:
    def test_takes_group_minimum(self):
        buf = ExperienceBuffer.init({"q"}, 16384)
        buf.update(group("q", [(200, True), (150, True), (90, False)]))
        assert buf.entry("q") == 150

    def test_no_correct_is_identity(self):
        buf = ExperienceBuffer({"q": 150}, 16384)
        before = buf.entries()
        buf.update(group("q", [(50, False), (80, False)]))
        assert buf.entries() == before

    def test_longer_correct_does_not_raise_entry(self):
        buf = ExperienceBuffer({"q": 150}, 16384)
        buf.update(group("q", [(300, True)]))
        assert buf.entry("q") == 150

    def test_correct_flags_given_as_integers(self):
        # 0/1 flags fold as flags, not as the indices of rollouts 0 and 1
        buf = ExperienceBuffer({"q": 100}, 100)
        buf.update(Group("q", np.array([5, 7]), np.array([0, 1])))
        assert buf.entry("q") == 7

    def test_correct_length_below_one_is_error(self):
        # the entry would fall to 0, which .expbuf refuses to load
        buf = ExperienceBuffer({"q": 100}, 100)
        with pytest.raises(ValueError, match="correct rollout of length 0"):
            buf.update(group("q", [(7, True), (0, True)]))
        assert buf.entry("q") == 100

    def test_unknown_problem_is_error(self):
        buf = ExperienceBuffer.init({"q"}, 100)
        with pytest.raises(KeyError):
            buf.update(group("zz", [(10, True)]))

    def test_other_entries_untouched(self):
        buf = ExperienceBuffer({"q": 500, "r": 700}, 16384)
        buf.update(group("q", [(100, True)]))
        assert buf.entry("r") == 700

    def test_folds_one_group_of_a_batch(self):
        # a group is one row of a batch; a record of several problems is not
        # one group
        buf = ExperienceBuffer({"q": 500, "r": 700}, 16384)
        batch = stack([record("q", [(100, True), (90, False)]), record("r", [(300, True), (200, True)])])
        with pytest.raises(AttributeError, match="problem_id"):
            buf.update(batch)
        assert buf.entries() == {"q": 500, "r": 700}
        for g in map(Group, batch.problem_ids, batch.lengths, batch.correct):
            buf.update(g)
        assert buf.entries() == {"q": 100, "r": 200}

    def test_monotone_under_random_sequences(self):
        rng = np.random.default_rng(0)
        buf = ExperienceBuffer.init({"a", "b"}, 1000)
        prev = buf.entries()
        for _ in range(500):
            pid = "a" if rng.random() < 0.5 else "b"
            specs = [(int(rng.integers(1, 1001)), bool(rng.random() < 0.5)) for _ in range(4)]
            buf.update(group(pid, specs))
            cur = buf.entries()
            assert all(cur[k] <= prev[k] for k in cur)
            prev = cur

    def test_lower_bound_respected(self):
        # groups whose correct rollouts all have length >= 40 cannot push below 40
        rng = np.random.default_rng(1)
        buf = ExperienceBuffer.init({"a"}, 1000)
        for _ in range(200):
            specs = [(int(rng.integers(40, 200)), True) for _ in range(3)]
            buf.update(group("a", specs))
        assert buf.entry("a") >= 40


class TestThreshold:
    def test_scales_by_alpha(self):
        buf = ExperienceBuffer({"q": 100}, 16384)
        assert buf.threshold("q", 0.1) == pytest.approx(110.0)

    def test_zero_tolerance(self):
        buf = ExperienceBuffer({"q": 100}, 16384)
        assert buf.threshold("q", 0.0) == 100.0

    def test_non_integer_threshold(self):
        buf = ExperienceBuffer({"q": 7}, 16384)
        assert buf.threshold("q", 0.1) == pytest.approx(7.7)

    def test_unknown_problem(self):
        buf = ExperienceBuffer({"q": 7}, 16384)
        with pytest.raises(KeyError):
            buf.threshold("zz", 0.1)


class TestMerge:
    def test_elementwise_min(self):
        a = ExperienceBuffer({"p1": 100}, 16384)
        b = ExperienceBuffer({"p1": 80}, 16384)
        assert a.merge(b).entry("p1") == 80

    def test_idempotent(self):
        a = ExperienceBuffer({"p1": 100, "p2": 7}, 16384)
        assert a.merge(a) == a

    def test_commutative_associative_on_random_triples(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b, c = (random_buffer(rng) for _ in range(3))
            assert a.merge(b) == b.merge(a)
            assert a.merge(b).merge(c) == a.merge(b.merge(c))

    def test_mismatched_keys(self):
        a = ExperienceBuffer({"p1": 5}, 100)
        b = ExperienceBuffer({"p2": 5}, 100)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_mismatched_l_max(self):
        a = ExperienceBuffer({"p1": 5}, 100)
        b = ExperienceBuffer({"p1": 5}, 200)
        with pytest.raises(ValueError):
            a.merge(b)


class TestStats:
    def test_mean_of_two(self):
        assert ExperienceBuffer({"p1": 100, "p2": 200}, 16384).stats() == 150.0

    def test_initial_state(self):
        buf = ExperienceBuffer.init({"a", "b", "c"}, 64)
        assert buf.stats() == 64.0

    def test_matches_recomputation(self):
        rng = np.random.default_rng(3)
        buf = random_buffer(rng, ids=tuple(f"p{i}" for i in range(17)))
        values = list(buf.entries().values())
        assert buf.stats() == pytest.approx(sum(values) / len(values))


class TestSerialization:
    def test_round_trip_bytes(self):
        rng = np.random.default_rng(4)
        buf = random_buffer(rng)
        assert ExperienceBuffer.loads(buf.dumps()) == buf

    def test_round_trip_file(self, tmp_path):
        buf = ExperienceBuffer({"p1": 3, "p2": 99}, 100)
        path = tmp_path / "state.expbuf"
        buf.save(path)
        loaded = ExperienceBuffer.load(path)
        assert loaded == buf
        assert loaded.dumps() == buf.dumps()

    def test_bad_header(self):
        with pytest.raises(BufferFormatError):
            ExperienceBuffer.loads(b"NOPE v1 l_max=5\np1\t3\n")

    def test_duplicate_keys(self):
        with pytest.raises(BufferFormatError, match="duplicate"):
            ExperienceBuffer.loads(b"EXPBUF v1 l_max=10\np1\t3\np1\t4\n")

    def test_no_entries(self):
        # the constructor's id rule refuses a buffer of no problems
        with pytest.raises(ValueError, match="there are no problem ids"):
            ExperienceBuffer.loads(b"EXPBUF v1 l_max=10\n")

    def test_value_out_of_range(self):
        with pytest.raises(BufferFormatError):
            ExperienceBuffer.loads(b"EXPBUF v1 l_max=10\np1\t11\n")

    def test_malformed_line(self):
        with pytest.raises(BufferFormatError):
            ExperienceBuffer.loads(b"EXPBUF v1 l_max=10\njunk line\n")
