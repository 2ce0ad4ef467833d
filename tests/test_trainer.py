import dataclasses
import json
import re
import shutil
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conciserl import cli, env, trainer
from conciserl.buffer import ExperienceBuffer
from conciserl.core import InvariantViolation, ProblemSpec, RunConfig, load_config
from conciserl.env import Action, TabularPolicy, initial_policy, make_problem_bank
from conciserl.trainer import (
    StepLog,
    checkpoint,
    resume,
    run,
    sample_batch,
    train_step,
)
from tests import reference
from tests.reference import columns, group_of, sample_rollout, stack


def count_log_probs(monkeypatch):
    """Record every TabularPolicy.log_probs call from now on."""
    calls = []
    original = TabularPolicy.log_probs

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(TabularPolicy, "log_probs", counted)
    return calls


def untimed(record):
    """A step log record without its ``*_ms`` timings."""
    return {k: v for k, v in record.items() if not k.endswith("_ms")}


def nan_logits(path):
    """Put a NaN into a saved policy_logits.npy."""
    logits = np.load(path)
    logits[0, 0, 0] = np.nan
    np.save(path, logits)


def blow_up_at(monkeypatch, step):
    """Make the ``step``-th ascend of the run leave the logits infinite."""
    original = TabularPolicy.ascend
    done = []

    def ascend(self, grad, learning_rate):
        original(self, grad, learning_rate)
        done.append(self)
        if len(done) == step:
            self.logits = self.logits + np.inf

    monkeypatch.setattr(TabularPolicy, "ascend", ascend)


def nan_gradient_at(monkeypatch, step):
    """Make the ``step``-th surrogate of the run return a NaN gradient."""
    original = trainer.surrogate
    calls = []

    def surrogate(*args):
        value, grad = original(*args)
        calls.append(None)
        if len(calls) == step:
            grad = grad.copy()
            grad[0, 0, 0] = np.nan
        return value, grad

    monkeypatch.setattr(trainer, "surrogate", surrogate)


def traced_peak_mb(sample):
    """The traced peak of ``sample()``, in MB, after one warm-up call."""
    sample()
    tracemalloc.start()
    try:
        sample()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


SMALL = dict(group_size=4, steps=5, l_max=64, w_cap=5, n_problems=4, d_min=1, d_max=4)


def small_config(**overrides):
    return RunConfig(**{**SMALL, **overrides})


def rename_first(ids):
    return ["zzz", *list(ids)[1:]]


def with_ids(policy, ids):
    return TabularPolicy(ids, policy.w_cap, policy.logits)


def non_finite(policy, value):
    """``policy`` with one logit set to ``value``, as a blown-up step leaves it."""
    policy = policy.copy()
    policy.logits[0, 0, 0] = value
    return policy


# States that `checkpoint` refuses, as `resume` would: each edit of a run's
# result gives the `checkpoint` arguments it changes, then the error and its
# message.
REFUSED_STATES = {
    "policy-ids": (
        lambda r: {"policy": with_ids(r.policy, rename_first(r.policy.problem_ids))},
        InvariantViolation,
        "bank.tsv does not match the policy's problem ids: missing zzz; unknown p000",
    ),
    "policy-order": (
        lambda r: {"policy": with_ids(r.policy, r.policy.problem_ids[::-1])},
        InvariantViolation,
        "bank.tsv does not match the policy's problem ids: order or count differs",
    ),
    "buffer-ids": (
        lambda r: {"buffer": ExperienceBuffer.init(rename_first(r.policy.problem_ids), r.buffer.l_max)},
        InvariantViolation,
        "buffer.expbuf does not match the policy's problem ids: missing p000; unknown zzz",
    ),
    "bank-ids": (
        lambda r: {"bank": r.bank[1:]},
        InvariantViolation,
        "bank.tsv does not match the policy's problem ids: missing p000",
    ),
    "bank-too-hard": (
        lambda r: {"bank": (ProblemSpec("p000", r.policy.w_cap + 1, "A"), *r.bank[1:])},
        InvariantViolation,
        "bank.tsv: problem 'p000' difficulty 6 exceeds w_cap 5",
    ),
    "bank-past-l_max": (
        lambda r: {"buffer": ExperienceBuffer(dict.fromkeys(r.policy.problem_ids, 3), 3)},
        InvariantViolation,
        "bank.tsv: problem 'p002' needs 4 tokens, more than l_max 3",
    ),
    "buffer-below-floor": (
        lambda r: {"buffer": ExperienceBuffer({**r.buffer.entries(), "p003": 1}, r.buffer.l_max)},
        InvariantViolation,
        "buffer.expbuf: problem 'p003' entry 1 is below its floor 5",
    ),
    "step-negative": (lambda r: {"step": -1}, ValueError, "step must be an int >= 0"),
    "step-bool": (lambda r: {"step": True}, ValueError, "step must be an int >= 0"),
    "step-float": (lambda r: {"step": 2.5}, ValueError, "step must be an int >= 0"),
    "logits-nan": (lambda r: {"policy": non_finite(r.policy, np.nan)}, InvariantViolation, "logits are not finite"),
    "logits-inf": (lambda r: {"policy": non_finite(r.policy, -np.inf)}, InvariantViolation, "logits are not finite"),
}

# Problem ids from small alphabets, so that repeats are common: ANY_ID also
# draws empty ids, tabs, line breaks and spaces.
GOOD_ID = st.text(alphabet=["p", " ", "é"], min_size=1, max_size=2)
ANY_ID = st.text(alphabet=["p", " ", "é", "\t", "\n", "\u2028"], max_size=2)


def mostly(valid, faulty):
    """Draws from ``valid`` four times in five, from ``faulty`` otherwise."""
    return st.integers(0, 4).flatmap(lambda i: faulty if i == 4 else valid)


@st.composite
def training_states(draw):
    """The parts of a small (policy, buffer, step, bank), each valid four
    times in five, so that a constructor or `checkpoint` often refuses the
    whole and often does not."""
    ids = draw(mostly(st.lists(GOOD_ID, min_size=1, max_size=4, unique=True), st.lists(ANY_ID, max_size=4)))
    w_cap = draw(mostly(st.integers(1, 4), st.just(0)))
    size = len(ids) * (w_cap + 1) * 4
    logits = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=size, max_size=size))
    buffer_ids = draw(mostly(st.just(ids), st.just(rename_first(ids)) | st.lists(ANY_ID, max_size=4)))
    bank_ids = draw(mostly(st.just(ids), st.sampled_from([ids[::-1], ids[1:]])))
    # A valid bank fits w_cap, a valid l_max its floors (difficulty + 1), and
    # a valid entry lies between its problem's floor and l_max.
    difficulty = mostly(st.integers(1, max(w_cap, 1)), st.integers(1, 4))
    bank = [(pid, draw(difficulty), draw(st.sampled_from("AB"))) for pid in bank_ids]
    floors = {pid: difficulty + 1 for pid, difficulty, _ in bank}
    l_max = draw(mostly(st.integers(max(floors.values(), default=1), 8), st.integers(1, 8)))
    return dict(
        ids=ids,
        w_cap=w_cap,
        logits=np.array(logits).reshape(len(ids), w_cap + 1, 4),
        poison=draw(mostly(st.none(), st.sampled_from([np.nan, np.inf, -np.inf]))),
        entries={
            pid: draw(mostly(st.integers(min(floors.get(pid, 1), l_max), l_max), st.integers(1, l_max)))
            for pid in buffer_ids
        },
        l_max=l_max,
        step=draw(mostly(st.integers(0, 2**40), st.integers(-2, -1) | st.booleans() | st.floats(-1, 3))),
        bank=bank,
    )


class TestSampleBatch:
    def test_shapes(self):
        cfg = small_config()
        bank = make_problem_bank(cfg.n_problems, (cfg.d_min, cfg.d_max), cfg.seed)
        policy = initial_policy([p.id for p in bank], cfg.w_cap)
        batch = sample_batch(policy, bank, cfg.group_size, cfg.l_max, (cfg.seed, 1))
        assert batch.correct.shape == batch.truncated.shape == (cfg.n_problems, cfg.group_size)
        assert batch.counts.shape == (cfg.n_problems, cfg.group_size, cfg.w_cap + 1, 4)
        assert batch.problem_ids == tuple(p.id for p in bank)

    def test_deterministic_in_seed_and_step(self):
        cfg = small_config(seed=9)
        bank = make_problem_bank(cfg.n_problems, (cfg.d_min, cfg.d_max), cfg.seed)
        policy = initial_policy([p.id for p in bank], cfg.w_cap)
        a = sample_batch(policy, bank, cfg.group_size, cfg.l_max, (cfg.seed, 3))
        b = sample_batch(policy, bank, cfg.group_size, cfg.l_max, (cfg.seed, 3))
        c = sample_batch(policy, bank, cfg.group_size, cfg.l_max, (cfg.seed, 4))
        assert columns(a) == columns(b)
        assert columns(a) != columns(c)

    def test_rollout_streams_keyed_by_problem_and_rollout(self):
        # rollout r of problem p draws from default_rng((*key, p, r)), so a
        # training key (seed, step) and an eval key (seed,) are both plain
        # prefixes of the stream key; each problem samples from its own
        # policy rows, which differ here
        cfg = small_config(seed=9)
        bank = make_problem_bank(cfg.n_problems, (cfg.d_min, cfg.d_max), cfg.seed)
        ids = [p.id for p in bank]
        logits = np.random.default_rng(1).normal(0, 1, size=(len(ids), cfg.w_cap + 1, 4))
        policy = TabularPolicy(ids[::-1], cfg.w_cap, logits)
        logp = policy.log_probs()
        for key in ((cfg.seed, 3), (cfg.seed,)):
            batch = sample_batch(policy, bank, cfg.group_size, cfg.l_max, key)
            want = []
            for p, problem in enumerate(bank):
                rows = logp[policy.problem_index(problem.id)]
                rollouts = [
                    sample_rollout(rows, problem, np.random.default_rng((*key, p, r)), cfg.l_max)
                    for r in range(cfg.group_size)
                ]
                want.append(group_of(rollouts, rows))
            assert columns(batch) == columns(stack(want))

    def test_log_probs_once_per_batch(self, monkeypatch):
        cfg = small_config()
        bank = make_problem_bank(cfg.n_problems, (cfg.d_min, cfg.d_max), cfg.seed)
        policy = initial_policy([p.id for p in bank], cfg.w_cap)
        calls = count_log_probs(monkeypatch)
        sample_batch(policy, bank, cfg.group_size, cfg.l_max, (cfg.seed, 1))
        assert len(calls) == 1


class TestSampleBatchMemory:
    """The sampler's slices and chunks bound what it keeps live: a batch is
    walked whole, but a large one keeps only its live rollouts' PCG64
    states through the first chunk, its generators are alive at most
    ``_BLOCK_ROLLOUTS`` rollouts at a time, and a chunk grows with its live
    rows times its width. An older walk that took the 5,120-rollout eval
    batch as one block peaked at about 12 MB traced, keeping every
    generator of the initial-policy eval batch alive at once peaks at
    3.4 MB, and chunks that double with no budget took the long batch to
    about 1.4 MB; all fail here, and so do the long batch's 1.06 MB under
    the float64 bincount table build and the converged batch's walk at
    1.73 MB with a first-chunk table over its rollouts. A converged batch
    peaks in the count table's build, after the walk, so its walk has its
    own guard, and so has ``eval``'s path, which builds no table."""

    BANK = make_problem_bank(20, (1, 10), 0)

    def test_verbose_long_batch(self):
        # a train_long step: 20 x 16 rollouts of hundreds of tokens each
        policy = initial_policy([p.id for p in self.BANK], 10, answer_logit=-6)
        peak = traced_peak_mb(lambda: sample_batch(policy, self.BANK, 16, 16384, (0, 1)))
        assert peak < 0.95

    def converged_policy(self):
        # a policy that works up to the difficulty and then answers right,
        # as a converged one does
        logits = np.full((20, 11, 4), -8.0)
        for i, p in enumerate(self.BANK):
            logits[i, : p.difficulty, Action.WORK] = 8.0
            logits[i, p.difficulty :, Action.ANSWER_A if p.correct_answer == "A" else Action.ANSWER_B] = 8.0
        return TabularPolicy([p.id for p in self.BANK], 10, logits)

    def test_converged_eval_batch(self):
        # an eval batch of 20 x 256 rollouts of the converged policy
        policy = self.converged_policy()
        assert sample_batch(policy, self.BANK, 256, 1024, (0,)).correct.all()
        # measured 1.69 MB (1.86 with the walk's arrays live through the
        # table's build, 1.99 with a first-chunk table over the rollouts live
        # at pass 8, 2.40 when each 1,024-rollout block was walked on its own)
        assert traced_peak_mb(lambda: sample_batch(policy, self.BANK, 256, 1024, (0,))) < 2.05

    def test_converged_eval_outcomes(self):
        # that batch as ``eval`` samples it, with no count table: measured
        # 1.47 MB (1.86 when eval sampled through sample_batch)
        policy = self.converged_policy()
        assert traced_peak_mb(lambda: env.sample_outcomes(policy, self.BANK, 256, 1024, (0,))) < 1.61

    def test_converged_eval_walk(self):
        # that batch's walk alone, its seed words hashed before: measured
        # 1.21 MB (1.73 with a first-chunk table over the rollouts live at pass 8)
        cum = np.exp(self.converged_policy().log_probs()).cumsum(axis=-1)
        problems, rollouts = np.divmod(np.arange(20 * 256), 256)
        words = env._seed_words((0,), problems, rollouts)
        assert traced_peak_mb(lambda: env._walk(cum, problems, words, 1024)) < 1.33

    def test_initial_policy_eval_batch(self):
        # an eval batch of 20 x 256 rollouts from an initial policy, 2,313
        # of which outlive the first chunk and get a generator: measured
        # 2.22 MB (2.38 with a first-chunk table over the rollouts live at
        # pass 8, 2.78 when each 1,024-rollout block was walked on its own)
        policy = initial_policy([p.id for p in self.BANK], 10, answer_logit=-3)
        lengths = sample_batch(policy, self.BANK, 256, 1024, (0,)).lengths
        assert (lengths > 16).sum() > 2 * 1024
        assert traced_peak_mb(lambda: sample_batch(policy, self.BANK, 256, 1024, (0,))) < 2.44


class TestTrainStep:
    def test_zero_lr_equivalent_policy_untouched(self):
        # learning_rate must be > 0 by config, so approximate "no movement"
        # with a vanishing rate: the policy change is numerically negligible
        cfg = small_config(learning_rate=1e-12)
        bank = make_problem_bank(cfg.n_problems, (cfg.d_min, cfg.d_max), cfg.seed)
        policy = initial_policy([p.id for p in bank], cfg.w_cap)
        before = policy.logits.copy()
        buffer = ExperienceBuffer.init([p.id for p in bank], cfg.l_max)
        train_step(policy, buffer, bank, cfg, step=1)
        assert np.abs(policy.logits - before).max() < 1e-9

    def test_buffer_reflects_batch(self):
        # a single easy problem sampled broadly: the buffer entry after one
        # step equals the shortest correct length seen in that batch
        cfg = small_config(n_problems=1, d_max=1, group_size=32)
        bank = (ProblemSpec("p000", 1, "A"),)
        policy = initial_policy(("p000",), cfg.w_cap)
        buffer = ExperienceBuffer.init(("p000",), cfg.l_max)
        batch = sample_batch(policy.copy(), bank, cfg.group_size, cfg.l_max, (cfg.seed, 1))
        shortest = min(batch.lengths[batch.correct].tolist(), default=cfg.l_max)
        train_step(policy, buffer, bank, cfg, step=1)
        assert buffer.entry("p000") == shortest
        assert shortest >= 2  # analytic floor: difficulty + 1

    def test_two_log_probs_per_step(self, monkeypatch):
        # one table for the sampled batch and one for the objective, however
        # many rollouts the step samples
        cfg = small_config(steps=3, group_size=8)
        calls = count_log_probs(monkeypatch)
        run(cfg)
        assert len(calls) == 2 * cfg.steps

    def test_log_fields_consistent(self):
        cfg = small_config()
        bank = make_problem_bank(cfg.n_problems, (cfg.d_min, cfg.d_max), cfg.seed)
        policy = initial_policy([p.id for p in bank], cfg.w_cap, cfg.init_answer_logit)
        buffer = ExperienceBuffer.init([p.id for p in bank], cfg.l_max)
        _, _, log = train_step(policy, buffer, bank, cfg, step=1)
        assert log.step == 1
        assert 1 <= log.batch_mean_length <= cfg.l_max
        assert 0 <= log.batch_accuracy <= 1
        assert 0 <= log.mean_reward <= 1
        assert log.mean_reward <= log.batch_accuracy + 1e-12
        assert log.mean_shortest_correct == buffer.stats()
        assert 0 <= log.solved_count <= cfg.n_problems
        phases = [log.sample_ms, log.shape_ms, log.advantage_ms, log.surrogate_ms, log.update_ms]
        assert min(phases) > 0
        assert sum(phases) <= log.wall_ms
        assert StepLog(**log.to_dict()) == log

    def test_log_dict_is_the_dataclass_dict(self):
        # to_dict reads the slots in field order: the line run writes to
        # steps.jsonl is dataclasses.asdict's, key order included
        cfg = small_config()
        bank = make_problem_bank(cfg.n_problems, (cfg.d_min, cfg.d_max), cfg.seed)
        buffer = ExperienceBuffer.init([p.id for p in bank], cfg.l_max)
        _, _, log = train_step(initial_policy([p.id for p in bank], cfg.w_cap), buffer, bank, cfg, step=1)
        assert json.dumps(log.to_dict()) == json.dumps(dataclasses.asdict(log))

    @pytest.mark.parametrize("r_pen", [0.5, 0.0])
    def test_tier_counts_match_shape_group(self, monkeypatch, r_pen):
        # every rollout is counted in the tier shape_group gave it, also at
        # r_pen 0, where verbose and incorrect rollouts share a reward; a
        # step shapes its whole batch in one call
        cfg = small_config(group_size=8, l_max=12, steps=12, n_problems=6, r_pen=r_pen)
        shaped, sampled = [], []

        def record(fn, into):
            def recorded(*args, **kwargs):
                into.append(fn(*args, **kwargs))
                return into[-1]

            return recorded

        monkeypatch.setattr(trainer, "shape_group", record(trainer.shape_group, shaped))
        monkeypatch.setattr(trainer, "sample_batch", record(trainer.sample_batch, sampled))
        logs = run(cfg).logs
        totals = Counter()
        for i, log in enumerate(logs):
            tiers = Counter(s.tier.name for s in shaped[i])
            counts = {
                "CONCISE_CORRECT": log.concise_count,
                "VERBOSE_CORRECT": log.verbose_count,
                "INCORRECT": log.incorrect_count,
            }
            assert sum(counts.values()) == len(shaped[i]) == cfg.n_problems * cfg.group_size
            assert counts == {tier: tiers[tier] for tier in counts}
            truncated = sampled[i].truncated
            assert log.truncated_frac == truncated.mean()
            totals.update({**counts, "truncated": int(truncated.sum())})
        assert min(totals.values()) > 0
        assert len(shaped) == len(sampled) == cfg.steps


class TestRun:
    def test_deterministic_bit_exact(self):
        cfg = small_config(seed=5)
        a = run(cfg)
        b = run(cfg)
        assert np.array_equal(a.policy.logits, b.policy.logits)
        assert a.buffer == b.buffer
        for la, lb in zip(a.logs, b.logs):
            assert untimed(la.to_dict()) == untimed(lb.to_dict())

    def test_seed_changes_trajectory(self):
        a = run(small_config(seed=1))
        b = run(small_config(seed=2))
        assert not np.array_equal(a.policy.logits, b.policy.logits)

    def test_zero_steps(self):
        result = run(small_config(steps=0))
        assert result.logs == []
        assert result.buffer.stats() == small_config().l_max

    def test_explicit_bank(self):
        bank = (ProblemSpec("x", 2, "A"), ProblemSpec("y", 3, "B"))
        result = run(small_config(steps=2), bank=bank)
        assert result.bank == bank
        assert result.policy.problem_ids == ("x", "y")

    def test_bank_difficulty_above_w_cap_rejected(self):
        bank = (ProblemSpec("x", 9, "A"),)
        with pytest.raises(ValueError, match="w_cap"):
            run(small_config(steps=1), bank=bank)

    def test_bank_past_l_max_rejected_before_writing(self, tmp_path):
        # at l_max 2 no rollout of p001 (difficulty 2) fits its 3 tokens, so
        # every group of it would be incorrect, with zero advantages
        with pytest.raises(ValueError, match="^problem 'p001' needs 3 tokens, more than l_max 2$"):
            run(small_config(steps=2, l_max=2), out_dir=tmp_path / "o")
        assert not (tmp_path / "o").exists()

    def test_supplied_bank_is_the_one_checked(self):
        # the bank-shape fields describe only a generated bank: the default
        # d_max of 10 exceeds w_cap 5, but the supplied bank fits it
        result = run(RunConfig(group_size=4, steps=1, l_max=64, w_cap=5), bank=make_problem_bank(4, (1, 4), 0))
        assert len(result.logs) == 1 and result.policy.w_cap == 5

    def test_writes_logs_and_checkpoints(self, tmp_path):
        cfg = small_config(steps=4, checkpoint_every=2)
        run(cfg, out_dir=tmp_path)
        lines = (tmp_path / "steps.jsonl").read_text().splitlines()
        assert len(lines) == 4
        logs = [StepLog(**json.loads(x)) for x in lines]
        assert [l.step for l in logs] == [1, 2, 3, 4]
        for step in (2, 4):
            d = tmp_path / "checkpoints" / f"step_{step:05d}"
            assert (d / "meta.json").exists()
            assert (d / "policy_logits.npy").exists()
            assert (d / "buffer.expbuf").exists()
            assert (d / "bank.tsv").exists()

    def test_blow_up_stops_before_its_checkpoint(self, tmp_path, monkeypatch):
        # step 2 makes the logits infinite: its log line is written, its
        # checkpoint is not, and the error names it
        blow_up_at(monkeypatch, 2)
        with pytest.raises(InvariantViolation, match="logits are not finite after step 2$"):
            run(small_config(steps=4, checkpoint_every=1), out_dir=tmp_path)
        lines = (tmp_path / "steps.jsonl").read_text().splitlines()
        assert [json.loads(x)["step"] for x in lines] == [1, 2]
        assert sorted(p.name for p in (tmp_path / "checkpoints").iterdir()) == ["step_00001"]

    def test_non_finite_gradient_stops_at_its_step(self, tmp_path, monkeypatch):
        # step 2's gradient is NaN: the run stops before the policy moves,
        # writing neither its log line nor its checkpoint
        nan_gradient_at(monkeypatch, 2)
        with pytest.raises(InvariantViolation, match="^gradient is not finite at step 2$"):
            run(small_config(steps=4, checkpoint_every=1), out_dir=tmp_path)
        lines = (tmp_path / "steps.jsonl").read_text().splitlines()
        assert [json.loads(x)["step"] for x in lines] == [1]
        assert sorted(p.name for p in (tmp_path / "checkpoints").iterdir()) == ["step_00001"]

    def test_non_finite_gradient_leaves_the_state(self, monkeypatch):
        # at G = 8 the step's batch holds correct rollouts, so folding it in
        # would lower two buffer entries
        cfg = small_config(group_size=8)
        bank = make_problem_bank(cfg.n_problems, (cfg.d_min, cfg.d_max), cfg.seed)
        policy = initial_policy([p.id for p in bank], cfg.w_cap)
        buffer = ExperienceBuffer.init([p.id for p in bank], cfg.l_max)
        logits, entries = policy.logits.copy(), buffer.entries()
        nan_gradient_at(monkeypatch, 1)
        with pytest.raises(InvariantViolation, match="^gradient is not finite at step 1$"):
            train_step(policy, buffer, bank, cfg, 1)
        assert np.array_equal(policy.logits, logits) and buffer.entries() == entries

    def test_non_finite_gradient_exits_4(self, tmp_path, capsys, monkeypatch):
        nan_gradient_at(monkeypatch, 1)
        out = tmp_path / "o"
        assert cli.main(["train", "--steps", "3", "--group-size", "4", "--out", str(out)]) == cli.EXIT_INVARIANT
        assert "invariant violation: gradient is not finite at step 1" in capsys.readouterr().err
        assert (out / "steps.jsonl").read_text() == ""
        assert not (out / "checkpoints").exists() and not (out / "summary.json").exists()

    def test_blown_up_step_returns(self, monkeypatch):
        # the step itself returns its non-finite policy; the run stops after it
        cfg = small_config()
        bank = make_problem_bank(cfg.n_problems, (cfg.d_min, cfg.d_max), cfg.seed)
        policy = initial_policy([p.id for p in bank], cfg.w_cap)
        blow_up_at(monkeypatch, 1)
        policy, _, log = train_step(policy, ExperienceBuffer.init([p.id for p in bank], cfg.l_max), bank, cfg, 1)
        assert log.step == 1 and not np.isfinite(policy.logits).any()

    def test_buffer_monotone_over_run(self):
        cfg = small_config(steps=10)
        result = run(cfg)
        means = [log.mean_shortest_correct for log in result.logs]
        assert all(b <= a for a, b in zip(means, means[1:]))


class TestRunDirectory:
    """``run(out_dir=...)`` owns the run directory: it refuses one that
    holds a run, and writes the config, the log, the checkpoints and the
    summary that ``conciserl train`` writes."""

    RUN_FILES = ("config.txt", "steps.jsonl", "summary.json", "checkpoints")  # in the order the message names them

    @pytest.mark.parametrize("held", [*RUN_FILES, ", ".join(RUN_FILES)])
    def test_refuses_a_directory_that_holds_a_run(self, tmp_path, held):
        # a second run would truncate the first one's log and leave its
        # checkpoints beside the new one's
        run(small_config(steps=4, checkpoint_every=2), out_dir=tmp_path)
        for path in tmp_path.iterdir():
            if path.is_dir() and path.name not in held:
                shutil.rmtree(path)
            elif path.name not in held:
                path.unlink()
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        message = f"{tmp_path} already holds a run ({held}); train into a new or empty directory"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(small_config(steps=2, seed=7), out_dir=tmp_path)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_writes_its_config(self, tmp_path):
        config = small_config(steps=2, alpha=0.3, advantage_mode="std", init_answer_logit=-1.5)
        run(config, out_dir=tmp_path)
        assert load_config(tmp_path / "config.txt") == config

    def test_writes_its_summary(self, tmp_path):
        result = run(small_config(steps=4), out_dir=tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["steps"] == 4 and summary["n_problems"] == len(result.bank)
        assert summary["final_mean_length"] == result.logs[-1].batch_mean_length
        assert summary["solved_count"] == result.buffer.solved_count()

    def test_log_is_on_disk_at_each_checkpoint(self, tmp_path, monkeypatch):
        # a run killed after checkpoint N leaves a log of at least N lines
        lines_on_disk = []

        def counted(policy, buffer, step, path, bank):
            lines_on_disk.append(len((tmp_path / "steps.jsonl").read_text().splitlines()))
            return checkpoint(policy, buffer, step, path, bank)

        monkeypatch.setattr(trainer, "checkpoint", counted)
        run(small_config(steps=6, checkpoint_every=2), out_dir=tmp_path)
        assert lines_on_disk == [2, 4, 6]


class TestCheckpointResume:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = small_config(seed=3)
        result = run(cfg)
        checkpoint(result.policy, result.buffer, cfg.steps, tmp_path / "ck", result.bank)
        policy, buffer, bank, step = resume(tmp_path / "ck")
        assert step == cfg.steps
        assert bank == result.bank
        assert np.array_equal(policy.logits, result.policy.logits)
        assert policy.logits.dtype == result.policy.logits.dtype
        assert buffer == result.buffer
        assert policy.problem_ids == result.policy.problem_ids

    def test_resumed_training_matches_continuous(self, tmp_path):
        # run 1..4 continuously vs checkpoint at 2 and resume for 3..4
        cfg = small_config(steps=4, seed=6)
        continuous = run(cfg)

        cfg2 = small_config(steps=2, seed=6)
        half = run(cfg2)
        checkpoint(half.policy, half.buffer, 2, tmp_path / "ck", half.bank)
        policy, buffer, bank, step = resume(tmp_path / "ck")
        for s in range(step + 1, 5):
            train_step(policy, buffer, bank, cfg, s)
        assert np.array_equal(policy.logits, continuous.policy.logits)
        assert buffer == continuous.buffer

    def test_checkpoint_same_path_again(self, tmp_path):
        result = run(small_config(steps=2))
        checkpoint(result.policy, result.buffer, 1, tmp_path / "ck", result.bank)
        checkpoint(result.policy, result.buffer, 2, tmp_path / "ck", result.bank)
        assert resume(tmp_path / "ck")[3] == 2
        assert [p.name for p in tmp_path.iterdir()] == ["ck"]

    def test_failed_write_leaves_nothing_resume_accepts(self, tmp_path, monkeypatch):
        # np.save writes part of the logits, then fails: the half-written
        # directory is removed, and a checkpoint already at the path is kept
        result = run(small_config(steps=1))

        def broken_save(file, arr):
            Path(file).write_bytes(b"\x93NUMPY partial")
            raise OSError("disk full")

        checkpoint(result.policy, result.buffer, 1, tmp_path / "old", result.bank)
        monkeypatch.setattr(trainer.np, "save", broken_save)
        for name in ("new", "old"):
            with pytest.raises(OSError, match="disk full"):
                checkpoint(result.policy, result.buffer, 2, tmp_path / name, result.bank)
        assert [p.name for p in tmp_path.iterdir()] == ["old"]
        monkeypatch.undo()
        assert resume(tmp_path / "old")[3] == 1

    @pytest.mark.parametrize("failing", ["rename into place", "every rename"])
    def test_failed_rename_keeps_the_old_checkpoint(self, tmp_path, monkeypatch, failing):
        # the new checkpoint is written in full, but renaming it into place
        # fails (after the old one was moved aside, or before anything
        # moved): the old checkpoint is back at the path, and nothing else
        # is left
        result = run(small_config(steps=1))
        ck = tmp_path / "ck"
        checkpoint(result.policy, result.buffer, 1, ck, result.bank)
        replace = trainer.os.replace

        def broken_replace(src, dst):
            if failing == "every rename" or Path(src).name == "ck.tmp":
                raise OSError("rename failed")
            return replace(src, dst)

        monkeypatch.setattr(trainer.os, "replace", broken_replace)
        with pytest.raises(OSError, match="rename failed"):
            checkpoint(result.policy, result.buffer, 2, ck, result.bank)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["ck"]
        assert resume(ck)[3] == 1

    @pytest.mark.parametrize("name", REFUSED_STATES)
    def test_refuses_what_resume_refuses_before_writing(self, tmp_path, name):
        edit, error, message = REFUSED_STATES[name]
        result = run(small_config(steps=1))
        state = {"policy": result.policy, "buffer": result.buffer, "step": 1, "bank": result.bank}
        refused = {**state, **edit(result)}
        with pytest.raises(error, match=message):
            checkpoint(path=tmp_path / "new", **refused)
        assert list(tmp_path.iterdir()) == []

        old = tmp_path / "old"
        checkpoint(path=old, **state)
        files = {p.name: p.read_bytes() for p in old.iterdir()}
        with pytest.raises(error, match=message):
            checkpoint(path=old, **refused)
        assert [p.name for p in tmp_path.iterdir()] == ["old"]
        assert {p.name: p.read_bytes() for p in old.iterdir()} == files

    @settings(max_examples=50, deadline=None)
    @given(training_states())
    def test_what_checkpoint_writes_resume_returns(self, state):
        # Either a constructor or checkpoint refuses the state, or resume
        # returns it whole, the logits bit for bit.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ck"
            try:
                bank = tuple(ProblemSpec(*spec) for spec in state["bank"])
                policy = TabularPolicy(state["ids"], state["w_cap"], state["logits"])
                if state["poison"] is not None:
                    policy.logits.flat[-1] = state["poison"]
                buffer = ExperienceBuffer(state["entries"], state["l_max"])
                checkpoint(policy, buffer, state["step"], path, bank)
            except ValueError:  # InvariantViolation included
                assert list(Path(tmp).iterdir()) == []
                return
            got_policy, got_buffer, got_bank, got_step = resume(path)
        assert got_policy.problem_ids == tuple(state["ids"])
        assert got_policy.w_cap == state["w_cap"]
        assert got_policy.logits.dtype == policy.logits.dtype
        assert got_policy.logits.tobytes() == policy.logits.tobytes()
        assert got_buffer == buffer
        assert got_bank == bank
        assert type(got_step) is int and got_step == state["step"]

    def test_version_mismatch(self, tmp_path):
        cfg = small_config(steps=1)
        result = run(cfg)
        checkpoint(result.policy, result.buffer, 1, tmp_path / "ck", result.bank)
        meta_path = tmp_path / "ck" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="version"):
            resume(tmp_path / "ck")

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(ValueError, match="corrupt checkpoint"):
            resume(tmp_path / "nope")

    @pytest.mark.parametrize("name", ["policy_logits.npy", "buffer.expbuf", "meta.json", "bank.tsv"])
    def test_unparseable_file_is_an_io_error(self, tmp_path, name):
        result = run(small_config(steps=1))
        checkpoint(result.policy, result.buffer, 1, tmp_path / "ck", result.bank)
        (tmp_path / "ck" / name).write_bytes(b"\x00not a checkpoint file\n")
        with pytest.raises(OSError, match="unreadable checkpoint file"):
            resume(tmp_path / "ck")

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            "{}",
            '{"version": 1}',
            "null",
            '{"version": 1, "step": 1, "w_cap": "x", "problem_ids": ["p000"]}',
            '{"version": 1, "step": 1, "w_cap": 2.0, "problem_ids": ["p000"]}',
            '{"version": 1, "step": 1, "w_cap": 5, "problem_ids": 5}',
            '{"version": 1, "step": 1, "w_cap": 5, "problem_ids": ["p000", 1]}',
        ],
    )
    def test_meta_without_its_fields_is_an_io_error(self, tmp_path, text):
        result = run(small_config(steps=1))
        checkpoint(result.policy, result.buffer, 1, tmp_path / "ck", result.bank)
        (tmp_path / "ck" / "meta.json").write_text(text)
        with pytest.raises(OSError, match="unreadable checkpoint file"):
            resume(tmp_path / "ck")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda ck: np.save(ck / "policy_logits.npy", np.zeros((3, 2, 4))), "shape .*meta.json implies"),
            (lambda ck: nan_logits(ck / "policy_logits.npy"), "logits are not finite"),
            (lambda ck: (ck / "bank.tsv").write_text("x\t1\tA\n"), "bank.tsv does not match"),
            (lambda ck: ExperienceBuffer({"x": 3}, 64).save(ck / "buffer.expbuf"), "buffer.expbuf does not match"),
        ],
        ids=["logits-shape", "logits-nan", "bank", "buffer"],
    )
    def test_files_that_disagree_are_an_invariant_violation(self, tmp_path, edit, message):
        result = run(small_config(steps=1))
        checkpoint(result.policy, result.buffer, 1, tmp_path / "ck", result.bank)
        edit(tmp_path / "ck")
        with pytest.raises(InvariantViolation, match=message):
            resume(tmp_path / "ck")


class TestLearningDynamics:
    def test_shortens_and_keeps_accuracy(self):
        # a modest run on easy problems: mean length drops, accuracy does not
        cfg = RunConfig(
            group_size=8, steps=120, l_max=256, w_cap=5, n_problems=4,
            d_min=1, d_max=4, seed=0,
        )
        result = run(cfg)
        first, last = result.logs[0], result.logs[-1]
        assert last.batch_mean_length < first.batch_mean_length
        assert last.batch_accuracy >= first.batch_accuracy


def run_record(out):
    """What a run directory says about its trajectory: every steps.jsonl
    field but the ``*_ms`` timings, and the last checkpoint's buffer entries
    and logits bytes."""
    steps = [untimed(json.loads(line)) for line in (out / "steps.jsonl").read_text().splitlines()]
    ckpt = sorted((out / "checkpoints").iterdir())[-1]
    _, buffer, _, _ = resume(ckpt)
    return steps, buffer.entries(), np.load(ckpt / "policy_logits.npy").tobytes()


class TestSameNumbersAsReferences:
    """The whole-batch sampler changes no number: with the token-by-token
    sampler of ``tests/reference.py`` in its place, runs and evals give
    identical logs, buffers, logits and reports."""

    @staticmethod
    def use_references(monkeypatch):
        monkeypatch.setattr(trainer, "sample_batch", reference.sample_batch)
        monkeypatch.setattr(cli, "sample_outcomes", reference.sample_outcomes)

    def test_desk_run_and_eval(self, tmp_path, monkeypatch):
        config = RunConfig(group_size=8, l_max=1024, steps=20, seed=0)
        eval_args = ["eval", "--n-samples", "64", "--k", "1,4,16", "--seed", "3"]
        for side in ("real", "reference"):
            if side == "reference":
                self.use_references(monkeypatch)
            run(config, out_dir=tmp_path / side)
            ckpt = tmp_path / side / "checkpoints" / "step_00020"
            assert cli.main([*eval_args, "--checkpoint", str(ckpt), "--out", str(tmp_path / f"{side}.json")]) == 0
        assert run_record(tmp_path / "real") == run_record(tmp_path / "reference")
        assert (tmp_path / "real.json").read_bytes() == (tmp_path / "reference.json").read_bytes()

    def test_cli_defaults_run(self, tmp_path, monkeypatch):
        # G=16, l_max=16384 and a verbose start: rollouts of hundreds of tokens
        cfg = tmp_path / "run.cfg"
        cfg.write_text("init_answer_logit = -6\nsteps = 3\ncheckpoint_every = 3\n")
        for side in ("real", "reference"):
            if side == "reference":
                self.use_references(monkeypatch)
            assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / side)]) == 0
        real = run_record(tmp_path / "real")
        assert real == run_record(tmp_path / "reference")
        assert real[0][0]["batch_mean_length"] > 100
