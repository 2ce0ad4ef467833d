import numpy as np
import pytest

from conciserl.buffer import BufferFormatError, ExperienceBuffer
from conciserl.core import RolloutGroup
from conciserl.env import Action


def group(problem_id, specs):
    """A group of rollouts of WORK tokens in state 0 ending in ANSWER_A, one
    per (length, correct) spec."""
    counts = np.zeros((len(specs), 1, 4), dtype=np.int32)
    counts[:, 0, Action.WORK] = [n - 1 for n, _ in specs]
    counts[:, 0, Action.ANSWER_A] = 1
    return RolloutGroup(
        problem_id,
        counts=counts,
        behavior_logp=np.full((1, 4), -1.0),
        correct=[c for _, c in specs],
        truncated=[False] * len(specs),
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

    def test_unknown_problem_is_error(self):
        buf = ExperienceBuffer.init({"q"}, 100)
        with pytest.raises(KeyError):
            buf.update(group("zz", [(10, True)]))

    def test_other_entries_untouched(self):
        buf = ExperienceBuffer({"q": 500, "r": 700}, 16384)
        buf.update(group("q", [(100, True)]))
        assert buf.entry("r") == 700

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

    def test_value_out_of_range(self):
        with pytest.raises(BufferFormatError):
            ExperienceBuffer.loads(b"EXPBUF v1 l_max=10\np1\t11\n")

    def test_malformed_line(self):
        with pytest.raises(BufferFormatError):
            ExperienceBuffer.loads(b"EXPBUF v1 l_max=10\njunk line\n")
