import json
from pathlib import Path

import numpy as np
import pytest

from conciserl import cli, trainer
from conciserl.buffer import ExperienceBuffer
from conciserl.core import InvariantViolation, ProblemSpec, RunConfig
from conciserl.env import TabularPolicy, initial_policy, make_problem_bank
from conciserl.trainer import (
    StepLog,
    checkpoint,
    resume,
    run,
    sample_batch,
    train_step,
)
from tests import reference
from tests.reference import columns, group_of, sample_rollout


def count_log_probs(monkeypatch):
    """Record every TabularPolicy.log_probs call from now on."""
    calls = []
    original = TabularPolicy.log_probs

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(TabularPolicy, "log_probs", counted)
    return calls


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


SMALL = dict(group_size=4, steps=5, l_max=64, w_cap=5, n_problems=4, d_min=1, d_max=4)


def small_config(**overrides):
    return RunConfig(**{**SMALL, **overrides})


class TestSampleBatch:
    def test_shapes(self):
        cfg = small_config()
        bank = make_problem_bank(cfg.n_problems, (cfg.d_min, cfg.d_max), cfg.seed)
        policy = initial_policy([p.id for p in bank], cfg.w_cap)
        groups = sample_batch(policy, bank, cfg.group_size, cfg.l_max, (cfg.seed, 1))
        assert len(groups) == cfg.n_problems
        assert all(g.size == cfg.group_size for g in groups)
        assert [g.problem_id for g in groups] == [p.id for p in bank]

    def test_deterministic_in_seed_and_step(self):
        cfg = small_config(seed=9)
        bank = make_problem_bank(cfg.n_problems, (cfg.d_min, cfg.d_max), cfg.seed)
        policy = initial_policy([p.id for p in bank], cfg.w_cap)
        a = sample_batch(policy, bank, cfg.group_size, cfg.l_max, (cfg.seed, 3))
        b = sample_batch(policy, bank, cfg.group_size, cfg.l_max, (cfg.seed, 3))
        c = sample_batch(policy, bank, cfg.group_size, cfg.l_max, (cfg.seed, 4))
        assert list(map(columns, a)) == list(map(columns, b))
        assert list(map(columns, a)) != list(map(columns, c))

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
            groups = sample_batch(policy, bank, cfg.group_size, cfg.l_max, key)
            for p, (problem, group) in enumerate(zip(bank, groups)):
                rows = logp[policy.problem_index(problem.id)]
                rollouts = [
                    sample_rollout(rows, problem, np.random.default_rng((*key, p, r)), cfg.l_max)
                    for r in range(cfg.group_size)
                ]
                assert columns(group) == columns(group_of(rollouts, cfg.w_cap))

    def test_log_probs_once_per_batch(self, monkeypatch):
        cfg = small_config()
        bank = make_problem_bank(cfg.n_problems, (cfg.d_min, cfg.d_max), cfg.seed)
        policy = initial_policy([p.id for p in bank], cfg.w_cap)
        calls = count_log_probs(monkeypatch)
        sample_batch(policy, bank, cfg.group_size, cfg.l_max, (cfg.seed, 1))
        assert len(calls) == 1


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
        groups = sample_batch(policy.copy(), bank, cfg.group_size, cfg.l_max, (cfg.seed, 1))
        shortest = min(
            (n for g in groups for n in g.lengths[g.correct].tolist()), default=cfg.l_max
        )
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
        assert log.wall_ms > 0
        assert StepLog(**log.to_dict()) == log


class TestRun:
    def test_deterministic_bit_exact(self):
        cfg = small_config(seed=5)
        a = run(cfg)
        b = run(cfg)
        assert np.array_equal(a.policy.logits, b.policy.logits)
        assert a.buffer == b.buffer
        for la, lb in zip(a.logs, b.logs):
            da, db = la.to_dict(), lb.to_dict()
            da.pop("wall_ms")
            db.pop("wall_ms")
            assert da == db

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
    field but wall_ms, and the last checkpoint's buffer entries and logits
    bytes."""
    steps = [json.loads(line) for line in (out / "steps.jsonl").read_text().splitlines()]
    for record in steps:
        del record["wall_ms"]
    ckpt = sorted((out / "checkpoints").iterdir())[-1]
    _, buffer, _, _ = resume(ckpt)
    return steps, buffer.entries(), np.load(ckpt / "policy_logits.npy").tobytes()


class TestSameNumbersAsReferences:
    """The whole-batch sampler and the bincount gradient change no number:
    with the token-by-token sampler and the per-group ``np.add.at``
    gradient of ``tests/reference.py`` in their place, runs and evals give
    identical logs, buffers, logits and reports."""

    @staticmethod
    def use_references(monkeypatch):
        monkeypatch.setattr(trainer, "sample_batch", reference.sample_batch)
        monkeypatch.setattr(cli, "sample_batch", reference.sample_batch)
        monkeypatch.setattr(trainer, "surrogate", reference.surrogate)

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
