"""Per-step training loop: snapshot, sample, verify, shape, advantage, update.

Rewards are shaped against the buffer state from before the current batch's
update, then the buffer folds in the batch, and a single gradient-ascent step
is taken on the clipped surrogate. Rollout rng streams are derived from
(seed, step, problem, rollout), so results are reproducible regardless of
worker scheduling; ``sample_batch`` is also the sampler of ``eval``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .advantage import count_advantage, std_advantage
from .buffer import ExperienceBuffer
from .core import InvariantViolation, ProblemSpec, RolloutGroup, RunConfig
from .env import (
    N_ACTIONS,
    TabularPolicy,
    initial_policy,
    load_bank,
    make_problem_bank,
    sample_groups,
    save_bank,
)
from .objective import surrogate
from .rewards import shape_group

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class StepLog:
    step: int
    batch_mean_length: float
    mean_shortest_correct: float
    batch_accuracy: float
    mean_reward: float
    mean_abs_advantage: float
    objective_value: float
    wall_ms: float
    solved_count: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def read_step_log(path: str | Path) -> list[dict]:
    """The ``step``, ``batch_mean_length`` and ``mean_shortest_correct`` of
    each record of a ``steps.jsonl``.

    A file that is not UTF-8 lines of JSON objects holding these fields as
    finite numbers raises OSError, as a missing one does: a NaN would pass
    every comparison ``replay`` makes, and a boolean is not a number.
    """
    data = Path(path).read_bytes()
    try:
        records = [json.loads(line) for line in data.decode("utf-8").splitlines() if line.strip()]
        steps = [{k: r[k] for k in ("step", "batch_mean_length", "mean_shortest_correct")} for r in records]
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


def sample_batch(
    policy: TabularPolicy,
    bank: Sequence[ProblemSpec],
    group_size: int,
    l_max: int,
    key: tuple[int, ...],
) -> list[RolloutGroup]:
    """Sample ``group_size`` rollouts per problem from the (frozen) policy.

    Rollout r of problem p draws from ``default_rng((*key, p, r))``;
    training keys by (seed, step), ``eval`` by (seed,). The policy's
    log-probs are computed once for the whole batch.
    """
    logp = policy.log_probs()[[policy.problem_index(problem.id) for problem in bank]]
    return sample_groups(logp, bank, key, group_size, l_max)


def train_step(
    policy: TabularPolicy,
    buffer: ExperienceBuffer,
    bank: Sequence[ProblemSpec],
    config: RunConfig,
    step: int,
) -> tuple[TabularPolicy, ExperienceBuffer, StepLog]:
    """One full training step; mutates policy and buffer in place.

    ``step`` seeds the per-(step, problem, rollout) rng streams.
    """
    t0 = time.perf_counter()
    behavior = policy.copy()
    groups = sample_batch(behavior, bank, config.group_size, config.l_max, (config.seed, step))

    # Shape against the pre-update buffer, then fold the batch in.
    shaped = [shape_group(g, buffer, config.alpha, config.r_pen) for g in groups]
    for g in groups:
        buffer.update(g)

    advs = []
    for g, rs in zip(groups, shaped):
        values = [s.value for s in rs]
        if config.advantage_mode == "count":
            advs.append(count_advantage(values, g.correct_count, config.epsilon_adv))
        else:
            advs.append(std_advantage(values))

    objective_value, grad = surrogate(groups, advs, policy, config.eps_low, config.eps_high)
    policy.ascend(grad, config.learning_rate)

    n_rollouts = sum(g.size for g in groups)
    log = StepLog(
        step=step,
        batch_mean_length=sum(len(g.actions) for g in groups) / n_rollouts,
        mean_shortest_correct=buffer.stats(),
        batch_accuracy=sum(g.correct_count for g in groups) / n_rollouts,
        mean_reward=sum(s.value for rs in shaped for s in rs) / n_rollouts,
        mean_abs_advantage=sum(abs(v) for a in advs for v in a.values) / n_rollouts,
        objective_value=objective_value,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
        solved_count=buffer.solved_count(),
    )
    return policy, buffer, log


def run(
    config: RunConfig,
    bank: Sequence[ProblemSpec] | None = None,
    out_dir: str | Path | None = None,
) -> RunResult:
    """Execute ``config.steps`` training steps from a fresh policy.

    When ``out_dir`` is given, writes ``steps.jsonl`` (one StepLog per line)
    and periodic checkpoints under ``checkpoints/step_<n>/``. A step that
    leaves the logits non-finite stops the run with InvariantViolation after
    its log line and before any checkpoint of it.
    """
    if bank is None:
        bank = make_problem_bank(config.n_problems, (config.d_min, config.d_max), config.seed)
    else:
        bank = tuple(bank)
    for p in bank:
        if p.difficulty > config.w_cap:
            raise ValueError(f"problem {p.id!r} difficulty {p.difficulty} exceeds w_cap {config.w_cap}")
    ids = [p.id for p in bank]
    policy = initial_policy(ids, config.w_cap, config.init_answer_logit)
    buffer = ExperienceBuffer.init(ids, config.l_max)

    out_path = Path(out_dir) if out_dir is not None else None
    log_file = None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        log_file = (out_path / "steps.jsonl").open("w")

    logs: list[StepLog] = []
    try:
        for step in range(1, config.steps + 1):
            policy, buffer, log = train_step(policy, buffer, bank, config, step)
            logs.append(log)
            if log_file is not None:
                log_file.write(json.dumps(log.to_dict()) + "\n")
            if not np.isfinite(policy.logits).all():
                raise InvariantViolation(f"logits are not finite after step {step}")
            if out_path is not None and step % config.checkpoint_every == 0:
                checkpoint(policy, buffer, step, out_path / "checkpoints" / f"step_{step:05d}", bank)
    finally:
        if log_file is not None:
            log_file.close()
    return RunResult(logs=logs, policy=policy, buffer=buffer, bank=bank)


def checkpoint(
    policy: TabularPolicy,
    buffer: ExperienceBuffer,
    step: int,
    path: str | Path,
    bank: Sequence[ProblemSpec],
) -> None:
    """Write a resumable training state, bank included, to a directory.

    The files are written to ``<path>.tmp`` and the directory is then
    renamed into place, so a writer that dies mid-way leaves no directory
    at ``path`` that ``resume`` would read; a checkpoint already at
    ``path`` is replaced.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        save_bank(bank, tmp / "bank.tsv")
        meta = {
            "version": CHECKPOINT_VERSION,
            "step": step,
            "w_cap": policy.w_cap,
            "problem_ids": list(policy.problem_ids),
        }
        (tmp / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
        np.save(tmp / "policy_logits.npy", policy.logits)
        buffer.save(tmp / "buffer.expbuf")
        if path.exists():
            shutil.rmtree(path)
        os.replace(tmp, path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)  # left only by a write that raised


def _read_meta(path: Path) -> tuple[object, int, list[str], int]:
    meta = json.loads(path.read_text())
    version, step, ids, w_cap = meta["version"], int(meta["step"]), meta["problem_ids"], meta["w_cap"]
    if type(w_cap) is not int or not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
        raise TypeError("w_cap must be an int and problem_ids a list of strings")
    return version, step, ids, w_cap


def _id_mismatch(name: str, ids: Iterable[str], policy_ids: Iterable[str]) -> str:
    """How the problem ids of a checkpoint file differ from the policy's."""
    missing = sorted(set(policy_ids) - set(ids))
    unknown = sorted(set(ids) - set(policy_ids))
    diff = "; ".join(
        f"{label} {', '.join(found)}" for label, found in (("missing", missing), ("unknown", unknown)) if found
    )
    return f"{name} does not match the policy's problem ids: {diff or 'order or count differs'}"


def resume(
    path: str | Path,
) -> tuple[TabularPolicy, ExperienceBuffer, tuple[ProblemSpec, ...], int]:
    """Load a checkpoint written by ``checkpoint``; bit-exact round trip.

    A checkpoint directory that does not exist, or one of another version,
    raises ValueError; a missing or unparseable file inside an existing
    directory raises OSError; files that contradict each other, or
    non-finite logits, raise InvariantViolation.
    """
    path = Path(path)
    if not path.is_dir():
        raise ValueError(f"corrupt checkpoint at {path}: no such directory")

    def read(name: str, load: Callable):
        try:
            return load(path / name)
        except (ValueError, KeyError, TypeError, EOFError) as e:
            # A file that exists but cannot be parsed is an I/O fault, as a
            # missing one is.
            raise OSError(f"unreadable checkpoint file {path / name}: {e!r}") from None

    version, step, ids, w_cap = read("meta.json", _read_meta)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint version mismatch: {version}")
    logits = read("policy_logits.npy", lambda p: np.load(p).astype(float))
    buffer = read("buffer.expbuf", ExperienceBuffer.load)
    bank = read("bank.tsv", load_bank)
    shape = (len(ids), w_cap + 1, N_ACTIONS)
    if logits.shape != shape:
        raise InvariantViolation(f"policy_logits.npy has shape {logits.shape}; meta.json implies {shape}")
    bank_ids = [p.id for p in bank]
    if bank_ids != ids:
        raise InvariantViolation(_id_mismatch("bank.tsv", bank_ids, ids))
    if set(buffer.entries()) != set(ids):
        raise InvariantViolation(_id_mismatch("buffer.expbuf", buffer.entries(), ids))
    return TabularPolicy(ids, w_cap, logits), buffer, bank, step
