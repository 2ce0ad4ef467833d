"""Per-step training loop: sample, verify, shape, advantage, update.

Rewards are shaped against the buffer state from before the current batch's
update, then the buffer folds in the batch, and a single gradient-ascent step
is taken on the clipped surrogate. Rollout rng streams are derived from
(seed, step, problem, rollout), so results are reproducible regardless of
worker scheduling; ``env.sample_batch`` is also the sampler of ``eval``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import advantage
from .buffer import ExperienceBuffer
from .core import InvariantViolation, ProblemSpec, RunConfig, check_ids, save_config
from .env import (
    N_ACTIONS,
    TabularPolicy,
    initial_policy,
    load_bank,
    make_problem_bank,
    min_correct_length,
    sample_batch,
    save_bank,
)
from .objective import surrogate
from .rewards import shape_group

CHECKPOINT_VERSION = 1
# The files of a run directory that ``run`` writes, and refuses to find there.
RUN_FILES = ("config.txt", "steps.jsonl", "summary.json", "checkpoints")


@dataclass(frozen=True, slots=True)
class StepLog:
    step: int
    batch_mean_length: float
    mean_shortest_correct: float
    batch_accuracy: float
    mean_reward: float
    mean_abs_advantage: float
    objective_value: float
    solved_count: int
    concise_count: int
    verbose_count: int
    incorrect_count: int
    truncated_frac: float
    batch_digest: str
    # Milliseconds per phase (perf_counter); update is the fold and the ascent
    sample_ms: float
    shape_ms: float
    advantage_ms: float
    surrogate_ms: float
    update_ms: float
    wall_ms: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def read_step_log(path: str | Path) -> list[dict]:
    """The ``step``, ``batch_mean_length``, ``mean_shortest_correct`` and
    ``solved_count`` of each record of a ``steps.jsonl``.

    A file that is not UTF-8 lines of JSON objects holding these fields as
    finite numbers raises OSError, as a missing one does: a NaN would pass
    every comparison ``replay`` makes, and a boolean is not a number.
    """
    data = Path(path).read_bytes()
    try:
        records = [json.loads(line) for line in data.decode("utf-8").splitlines() if line.strip()]
        fields = ("step", "batch_mean_length", "mean_shortest_correct", "solved_count")
        steps = [{k: r[k] for k in fields} for r in records]
        for s in steps:
            for k, v in s.items():
                if type(v) not in (int, float) or not math.isfinite(v):
                    raise ValueError(f"{k} is not a finite number: {v!r}")
    except (ValueError, KeyError, TypeError) as e:
        raise OSError(f"malformed steps.jsonl: {e!r}") from None
    return steps


@dataclass
class RunResult:
    logs: list[StepLog]
    policy: TabularPolicy
    buffer: ExperienceBuffer
    bank: tuple[ProblemSpec, ...]


def batch_digest(counts: np.ndarray, correct: np.ndarray, truncated: np.ndarray) -> str:
    """sha256 of a sampled batch: its ``(P, G, w_cap + 1, N_ACTIONS)``
    little-endian int32 count table, then its ``(P, G)`` ``correct`` and
    ``truncated`` arrays. Integers and booleans only, so it witnesses the
    sampled streams and no float order can move it."""
    h = hashlib.sha256()
    for array, dtype in ((counts, "<i4"), (correct, bool), (truncated, bool)):
        h.update(np.ascontiguousarray(array, dtype=dtype))
    return h.hexdigest()


def train_step(
    policy: TabularPolicy,
    buffer: ExperienceBuffer,
    bank: Sequence[ProblemSpec],
    config: RunConfig,
    step: int,
) -> tuple[TabularPolicy, ExperienceBuffer, StepLog]:
    """One full training step; mutates policy and buffer in place.

    ``step`` seeds the per-(step, problem, rollout) rng streams. The batch is
    sampled from ``policy`` itself: the record keeps the log-prob table it
    was sampled under, so no snapshot of the policy is taken. A gradient
    that is not finite raises InvariantViolation before the buffer or the
    policy moves.
    """
    clock = [time.perf_counter()]  # the start, then the end of each phase
    batch = sample_batch(policy, bank, config.group_size, config.l_max, (config.seed, step))
    correct = batch.correct
    clock.append(time.perf_counter())
    # Shape against the pre-update buffer; the batch is folded in once the
    # gradient is known to be finite.
    shaped = shape_group(batch, buffer, config.alpha, config.r_pen)
    rewards = np.array([s.value for s in shaped]).reshape(correct.shape)  # (P, G)
    clock.append(time.perf_counter())
    # Not imported by name: bench/'s tracer would wrap a trainer.count_advantage
    # and read its result's `.values`, which an ndarray lacks, failing every traced run.
    if config.advantage_mode == "count":
        advantages = advantage.count_advantage(rewards, np.count_nonzero(correct, axis=1), config.epsilon_adv)
    else:
        advantages = advantage.std_advantage(rewards)
    clock.append(time.perf_counter())
    objective_value, grad = surrogate(batch, advantages, policy, config.eps_low, config.eps_high)
    if not np.isfinite(grad).all():
        raise InvariantViolation(f"gradient is not finite at step {step}")
    clock.append(time.perf_counter())
    for g in batch:
        buffer.update(g)
    policy.ascend(grad, config.learning_rate)
    clock.append(time.perf_counter())

    ms = [(end - start) * 1000.0 for start, end in zip(clock, clock[1:])]
    n_rollouts = correct.size
    n_correct = int(np.count_nonzero(correct))
    # A correct rollout scores 1 when concise and r_pen < 1 when verbose.
    n_concise = int(np.count_nonzero(correct & (rewards == 1.0)))
    log = StepLog(
        step=step,
        batch_mean_length=int(batch.lengths.sum()) / n_rollouts,
        mean_shortest_correct=buffer.stats(),
        batch_accuracy=n_correct / n_rollouts,
        mean_reward=float(rewards.mean()),
        mean_abs_advantage=float(np.abs(advantages).mean()),
        objective_value=objective_value,
        solved_count=buffer.solved_count(),
        concise_count=n_concise,
        verbose_count=n_correct - n_concise,
        incorrect_count=n_rollouts - n_correct,
        truncated_frac=int(np.count_nonzero(batch.truncated)) / n_rollouts,
        batch_digest=batch_digest(batch.counts, correct, batch.truncated),
        sample_ms=ms[0], shape_ms=ms[1], advantage_ms=ms[2], surrogate_ms=ms[3], update_ms=ms[4],
        wall_ms=(time.perf_counter() - clock[0]) * 1000.0,
    )
    return policy, buffer, log


def run(
    config: RunConfig,
    bank: Sequence[ProblemSpec] | None = None,
    out_dir: str | Path | None = None,
) -> RunResult:
    """Execute ``config.steps`` training steps from a fresh policy.

    A bank that ``_untrainable`` refuses, or an ``out_dir`` that holds any of
    ``RUN_FILES``, raises ValueError before anything is written. Otherwise the
    run writes ``config.txt``, ``steps.jsonl`` (one StepLog per line, flushed
    before each checkpoint), checkpoints under ``checkpoints/step_<n>/`` and,
    after the last step, ``summary.json``. A step that leaves the logits
    non-finite stops the run with InvariantViolation after its log line and
    before any checkpoint of it; a step whose gradient is not finite stops it
    before either.
    """
    out_path = None if out_dir is None else Path(out_dir)
    if found := [name for name in RUN_FILES if out_path is not None and (out_path / name).exists()]:
        raise ValueError(f"{out_path} already holds a run ({', '.join(found)}); train into a new or empty directory")
    if bank is None:
        bank = make_problem_bank(config.n_problems, (config.d_min, config.d_max), config.seed)
    else:
        bank = tuple(bank)
    if untrainable := _untrainable(bank, config.w_cap, config.l_max):
        raise ValueError(untrainable)
    ids = [p.id for p in bank]
    policy = initial_policy(ids, config.w_cap, config.init_answer_logit)
    buffer = ExperienceBuffer.init(ids, config.l_max)

    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        save_config(config, out_path / "config.txt")
    logs: list[StepLog] = []
    with nullcontext() if out_path is None else (out_path / "steps.jsonl").open("w") as log_file:
        for step in range(1, config.steps + 1):
            policy, buffer, log = train_step(policy, buffer, bank, config, step)
            logs.append(log)
            if log_file is not None:
                log_file.write(json.dumps(log.to_dict()) + "\n")
            if not np.isfinite(policy.logits).all():
                raise InvariantViolation(f"logits are not finite after step {step}")
            if log_file is not None and step % config.checkpoint_every == 0:
                log_file.flush()  # so that no checkpoint is ahead of the log on disk
                checkpoint(policy, buffer, step, out_path / "checkpoints" / f"step_{step:05d}", bank)
    if out_path is not None:
        first, last = (logs[0], logs[-1]) if logs else (None, None)
        summary = {
            "steps": config.steps,
            "initial_accuracy": first and first.batch_accuracy,
            "final_accuracy": last and last.batch_accuracy,
            "initial_mean_length": first and first.batch_mean_length,
            "final_mean_length": last and last.batch_mean_length,
            "compression_ratio": last and 1.0 - last.batch_mean_length / first.batch_mean_length,
            "final_buffer_mean": buffer.stats(),
            "solved_count": buffer.solved_count(),
            "n_problems": len(bank),
        }
        (out_path / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return RunResult(logs=logs, policy=policy, buffer=buffer, bank=bank)


def checkpoint(
    policy: TabularPolicy, buffer: ExperienceBuffer, step: int, path: str | Path, bank: Sequence[ProblemSpec]
) -> None:
    """Write a resumable training state, bank included, to a directory.

    The files are written to ``<path>.tmp`` and the directory is then
    renamed into place, so a writer that dies mid-way leaves no directory
    at ``path`` that ``resume`` would read. A checkpoint already at ``path``
    is replaced: it is moved to ``<path>.old`` first, moved back if the
    rename fails, and deleted once the new one is in place. A state that
    ``resume`` would refuse raises (``_check_state``), writing nothing.
    """
    meta = {"version": CHECKPOINT_VERSION, "step": step, "w_cap": policy.w_cap, "problem_ids": list(policy.problem_ids)}
    _check_state(meta, policy.logits, buffer, bank)
    path = Path(path)
    tmp, old = path.with_name(path.name + ".tmp"), path.with_name(path.name + ".old")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        save_bank(bank, tmp / "bank.tsv")
        (tmp / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
        np.save(tmp / "policy_logits.npy", policy.logits)
        buffer.save(tmp / "buffer.expbuf")
        shutil.rmtree(old, ignore_errors=True)
        if path.exists():
            os.replace(path, old)
        try:
            os.replace(tmp, path)
        except BaseException:
            if old.exists():
                os.replace(old, path)
            raise
        shutil.rmtree(old, ignore_errors=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)  # left only by a write that raised


def _read_meta(path: Path) -> dict:
    meta = json.loads(path.read_text())
    if not isinstance(meta["problem_ids"], list):  # a string would pass as a list of its characters
        raise TypeError("problem_ids must be a list")
    return {key: meta[key] for key in ("version", "step", "w_cap", "problem_ids")}


def _id_mismatch(name: str, ids: Iterable[str], policy_ids: Iterable[str]) -> str:
    """How the problem ids of a checkpoint file differ from the policy's."""
    missing = sorted(set(policy_ids) - set(ids))
    unknown = sorted(set(ids) - set(policy_ids))
    diff = "; ".join(
        f"{label} {', '.join(found)}" for label, found in (("missing", missing), ("unknown", unknown)) if found
    )
    return f"{name} does not match the policy's problem ids: {diff or 'order or count differs'}"


def _untrainable(bank: Iterable[ProblemSpec], w_cap: int, l_max: int) -> str:
    """The first problem of ``bank`` a run cannot train on, or "": one past ``w_cap`` (a policy has no
    state there), or one whose ``min_correct_length`` exceeds ``l_max`` (it could never be correct)."""
    for p in bank:
        if p.difficulty > w_cap:
            return f"problem {p.id!r} difficulty {p.difficulty} exceeds w_cap {w_cap}"
        if (floor := min_correct_length(p)) > l_max:
            return f"problem {p.id!r} needs {floor} tokens, more than l_max {l_max}"
    return ""


def _check_state(meta: dict, logits: np.ndarray, buffer: ExperienceBuffer, bank: Sequence[ProblemSpec]) -> None:
    """The check ``checkpoint`` makes before it writes a state and ``resume``
    after it reads one: meta.json's ``step`` (an int >= 0), ``w_cap`` (an int
    >= 1) and ``problem_ids`` (``check_ids``) raise ValueError; logits not of
    its shape or not finite, other bank or buffer ids, a bank ``_untrainable``
    refuses at the buffer's ``l_max`` and an entry below ``min_correct_length``,
    InvariantViolation."""
    step, w_cap, ids = meta["step"], meta["w_cap"], list(check_ids(meta["problem_ids"]))
    if type(step) is not int or step < 0 or type(w_cap) is not int or w_cap < 1:
        raise ValueError(f"step must be an int >= 0 and w_cap an int >= 1, got {step!r} and {w_cap!r}")
    shape = (len(ids), w_cap + 1, N_ACTIONS)
    if logits.shape != shape:
        raise InvariantViolation(f"policy_logits.npy has shape {logits.shape}; meta.json implies {shape}")
    if not np.isfinite(logits).all():
        raise InvariantViolation("logits are not finite")
    bank_ids = [p.id for p in bank]
    if bank_ids != ids:
        raise InvariantViolation(_id_mismatch("bank.tsv", bank_ids, ids))
    if untrainable := _untrainable(bank, w_cap, buffer.l_max):
        raise InvariantViolation(f"bank.tsv: {untrainable}")
    if set(buffer.entries()) != set(ids):
        raise InvariantViolation(_id_mismatch("buffer.expbuf", buffer.entries(), ids))
    for p in bank:
        if (entry := buffer.entry(p.id)) < (floor := min_correct_length(p)):
            raise InvariantViolation(f"buffer.expbuf: problem {p.id!r} entry {entry} is below its floor {floor}")


def resume(path: str | Path) -> tuple[TabularPolicy, ExperienceBuffer, tuple[ProblemSpec, ...], int]:
    """Load a checkpoint written by ``checkpoint``; bit-exact round trip.

    A checkpoint directory that does not exist, or one of another version,
    raises ValueError; a missing or unparseable file inside an existing
    directory, meta.json fields that ``_check_state`` refuses included,
    raises OSError; files that contradict each other, or non-finite logits,
    raise InvariantViolation.
    """
    path = Path(path)
    if not path.is_dir():
        raise ValueError(f"corrupt checkpoint at {path}: no such directory")

    def read(name: str, load: Callable):
        try:
            return load(path / name)
        except OSError:
            raise
        except Exception as e:
            # A file that exists but cannot be parsed is an I/O fault, as a
            # missing one is, whatever its parser raises.
            raise OSError(f"unreadable checkpoint file {path / name}: {e!r}") from None

    meta = read("meta.json", _read_meta)
    if meta["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint version mismatch: {meta['version']}")
    logits = read("policy_logits.npy", lambda p: np.load(p).astype(float))
    buffer = read("buffer.expbuf", ExperienceBuffer.load)
    bank = read("bank.tsv", load_bank)
    try:
        _check_state(meta, logits, buffer, bank)
    except InvariantViolation:
        raise
    except ValueError as e:  # a meta.json field
        raise OSError(f"unreadable checkpoint file {path / 'meta.json'}: {e!r}") from None
    return TabularPolicy(meta["problem_ids"], meta["w_cap"], logits), buffer, bank, meta["step"]
