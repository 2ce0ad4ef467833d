"""One benchmark run of one workload, in a fresh process.

Started by ``run_bench.py``. The process imports ``conciserl`` from the
checkout's ``src/``, generates the workload's inputs from ``--seed`` and
prints ``READY <json>`` when set-up is done. Unless ``--setup-only``, it then
runs the workload in units (one training run, or one ``eval`` invocation):

1. a checked unit, which warms up and checks per-step invariants through the
   trainer's entry points;
2. with ``--trace 0``, cycles of timed units over the workload's variants
   for ``--seconds``; with ``--trace 1``, untimed units for half of it and
   one traced unit;

and prints one JSON line with the operations attempted and failed, the
errors, and the metrics. Every unit of one variant must yield the same
trajectory digest.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import resource
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import checks
from tracer import Patches, Tracer, instrument, layer_metrics

ROOT = Path(__file__).resolve().parents[1]

# The acceptance suite's desk config (tests/test_acceptance.py::desk_config).
DESK = dict(group_size=8, steps=300, l_max=1024)
# final_accuracy and final_mean_length average the last steps of a run.
TAIL_STEPS = 10


def import_program() -> SimpleNamespace:
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import conciserl
    from conciserl import buffer, cli, core, env, metrics, objective, rewards, trainer

    if Path(conciserl.__file__).resolve().parent != src / "conciserl":
        raise ImportError(f"conciserl was imported from {conciserl.__file__}, not from {src}")
    return SimpleNamespace(
        buffer=buffer, cli=cli, core=core, env=env, metrics=metrics, objective=objective, rewards=rewards,
        trainer=trainer,
    )


def make_bank(program: SimpleNamespace, seed: int, count: int = 20, d_min: int = 1, d_max: int = 10) -> tuple:
    """Round-robin difficulties, seeded answers: the same recipe as the
    acceptance suite's default bank, so a seed names the same problems."""
    rng = np.random.default_rng(seed)
    span = d_max - d_min + 1
    return tuple(
        program.core.ProblemSpec(f"p{i:03d}", d_min + i % span, ("A", "B")[int(rng.integers(2))])
        for i in range(count)
    )


def arguments(fn: Callable, args: tuple, kwargs: dict) -> dict[str, Any]:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


@dataclass
class Unit:
    """What one unit did, read from the program's outputs."""

    ops: int
    failed: int = 0
    rollouts: int = 0
    tokens: int = 0
    accuracy: float = 0.0
    mean_length: float = 0.0
    digest: str | None = None
    variant: int = 0
    errors: list[str] = field(default_factory=list)
    seconds: float = 0.0
    step_ms: list[float] = field(default_factory=list)
    reference: list[float] = field(default_factory=list)


def train_unit(records: list[dict], entries: dict, logits: np.ndarray, rollouts_per_step: int) -> Unit:
    tail = records[-TAIL_STEPS:]
    accuracy = float(np.mean([r["batch_accuracy"] for r in tail]))
    unit = Unit(
        ops=len(records),
        rollouts=rollouts_per_step * len(records),
        tokens=round(sum(r["batch_mean_length"] * rollouts_per_step for r in records)),
        accuracy=accuracy,
        mean_length=float(np.mean([r["batch_mean_length"] for r in tail])),
        digest=checks.trajectory_digest(records, entries),
    )
    unit.errors = checks.finite_logits(logits) + checks.fraction("final_accuracy", accuracy)
    return unit


# How fast a desk run converges varies a lot between training seeds (one in
# ten leaves a problem verbose), so each training run cycles through VARIANTS
# seeds, VARIANTS * seed + k, and its figures average their trajectories.
VARIANTS = 3


class TrainDesk:
    """In-process ``trainer.run`` on the desk config with a generated bank."""

    trains = True
    CONFIG = DESK

    def __init__(self, program: SimpleNamespace, seed: int, workdir: Path, short: bool):
        self.program = program
        steps = 4 if short else DESK["steps"]
        self.inputs = [
            (make_bank(program, s), program.core.RunConfig(**{**self.CONFIG, "seed": s, "steps": steps}))
            for s in range(VARIANTS * seed, VARIANTS * seed + VARIANTS)
        ]
        self.variants = VARIANTS
        self.ops = steps
        self.setup_digest = checks.trajectory_digest(
            [p.to_dict() for bank, _ in self.inputs for p in bank] + [c.to_dict() for _, c in self.inputs], {}
        )

    def unit(self, variant: int) -> Unit:
        bank, config = self.inputs[variant]
        result = self.program.trainer.run(config, bank=bank)
        return train_unit(
            [log.to_dict() for log in result.logs],
            result.buffer.entries(),
            result.policy.logits,
            len(bank) * config.group_size,
        )


class TrainLong:
    """``conciserl train --config <generated file>`` with the CLI defaults
    and a verbose start: long rollouts, step logs and checkpoints."""

    trains = True
    CONFIG = dict(init_answer_logit=-6.0, steps=30, checkpoint_every=10)

    def __init__(self, program: SimpleNamespace, seed: int, workdir: Path, short: bool):
        self.program = program
        self.workdir = workdir
        self.config_paths = []
        for s in range(VARIANTS * seed, VARIANTS * seed + VARIANTS):
            config = {**self.CONFIG, "seed": s, **(dict(steps=2, checkpoint_every=2) if short else {})}
            path = workdir / f"run-{s}.cfg"
            path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
            self.config_paths.append(path)
        self.config = program.core.load_config(self.config_paths[0])
        self.variants = VARIANTS
        self.ops = self.config.steps
        self.setup_digest = checks.trajectory_digest([{"config": p.read_text()} for p in self.config_paths], {})
        self.runs = 0

    def unit(self, variant: int) -> Unit:
        self.runs += 1
        out = self.workdir / f"train-{self.runs}"
        config_path = self.config_paths[variant]
        try:
            code = self.program.cli.main(["train", "--config", str(config_path), "--out", str(out)])
            if code != 0:
                return Unit(ops=self.ops, errors=[f"conciserl train exited with {code}"])
            records = [json.loads(line) for line in (out / "steps.jsonl").read_text().splitlines()]
            ckpt = out / "checkpoints" / f"step_{self.config.steps:05d}"
            entries = self.program.buffer.ExperienceBuffer.load(ckpt / "buffer.expbuf").entries()
            logits = np.load(ckpt / "policy_logits.npy")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return train_unit(records, entries, logits, self.config.n_problems * self.config.group_size)


class EvalSweep:
    """``conciserl eval`` with many samples per problem on the final
    checkpoint of a desk-config run, which set-up trains.

    The checkpoint is the same for every workload seed (training seed 0, the
    acceptance suite's first run): converged lengths differ between training
    seeds by more than eval's own costs do. ``--seed`` is the eval's
    sampling seed."""

    trains = False
    CONFIG = dict(checkpoint={**DESK, "seed": 0}, n_samples=256, k="1,4,16")

    def __init__(self, program: SimpleNamespace, seed: int, workdir: Path, short: bool):
        self.program = program
        self.seed = seed
        self.out = workdir / "eval.json"
        train_seed = self.CONFIG["checkpoint"]["seed"]
        self.bank = make_bank(program, train_seed)
        steps = 4 if short else DESK["steps"]
        self.n_samples = 16 if short else self.CONFIG["n_samples"]
        config = program.core.RunConfig(
            **{**self.CONFIG["checkpoint"], "steps": steps, "checkpoint_every": steps}
        )
        result = program.trainer.run(config, bank=self.bank, out_dir=workdir / "ckpt-run")
        self.checkpoint = workdir / "ckpt-run" / "checkpoints" / f"step_{steps:05d}"
        self.variants = 1
        self.ops = len(self.bank)
        self.setup_digest = checks.trajectory_digest(
            [log.to_dict() for log in result.logs], result.buffer.entries()
        )

    def unit(self, variant: int) -> Unit:
        argv = ["eval", "--checkpoint", str(self.checkpoint), "--n-samples", str(self.n_samples),
                "--k", self.CONFIG["k"], "--seed", str(self.seed), "--out", str(self.out)]
        code = self.program.cli.main(argv)
        if code != 0:
            return Unit(ops=self.ops, errors=[f"conciserl eval exited with {code}"])
        report = json.loads(self.out.read_text())
        rollouts = self.ops * self.n_samples
        accuracy = report["pass_at_1"] / 100.0
        unit = Unit(
            ops=self.ops,
            rollouts=rollouts,
            tokens=round(report["mean_tokens"] * rollouts),
            accuracy=accuracy,
            mean_length=report["mean_tokens"],
            digest=hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest(),
        )
        unit.errors = checks.majority_at_1(accuracy, report["majority_at_k"]["1"]["accuracy"], self.ops)
        return unit


WORKLOADS = {"train_desk": TrainDesk, "train_long": TrainLong, "eval_sweep": EvalSweep}


# The host's speed drifts by tens of percent over tens of seconds, and a
# fixed loop of Python and small-numpy work slows with it. Timed runs sample
# that loop between steps (outside the timed intervals) and scale every time
# by REFERENCE_MS over its median there: the figures are those of a host on
# which the loop takes REFERENCE_MS, about its median on the 2-core Xeon
# where the baseline was recorded.
REFERENCE_MS = 1.5
REFERENCE_SAMPLES_PER_SWEEP = 5


def reference_ms() -> float:
    t0 = perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i
    a = np.zeros(64)
    for _ in range(50):
        a = np.tanh(a + 0.5)
    return (perf_counter() - t0) * 1e3


class StepClock(Patches):
    """Wall time of every training step, from the end of the previous one,
    and a reference-loop sample after each."""

    def __init__(self, trainer: Any):
        super().__init__()
        self.start = perf_counter()
        self.step_ms: list[float] = []
        self.reference: list[float] = []

        def make(fn: Callable) -> Callable:
            def timed(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.step_ms.append((perf_counter() - self.start) * 1e3)
                self.reference.append(reference_ms())
                self.start = perf_counter()
                return out

            return timed

        if not self.patch(trainer, "train_step", make):
            raise AttributeError("conciserl.trainer has no train_step to time")


class Checker(Patches):
    """Per-step invariants, checked at the trainer's own entry points: the
    buffer only decreases and stays at or above ``d + 1``, every shaped
    reward is exactly 0, ``r_pen`` or 1, and the logits stay finite."""

    def __init__(self, trainer: Any):
        super().__init__()
        self.failures: dict[int, list[str]] = {}
        self.step = 0
        self.r_pen = 0.0

        def fail(errors: list[str]) -> None:
            if errors:
                self.failures.setdefault(self.step, []).extend(errors)

        def make_step(fn: Callable) -> Callable:
            def checked(*args, **kwargs):
                a = arguments(fn, args, kwargs)
                self.step, self.r_pen = a["step"], a["config"].r_pen
                before = a["buffer"].entries()
                policy, buffer, log = out = fn(*args, **kwargs)
                floors = {p.id: p.difficulty + 1 for p in a["bank"]}
                fail(checks.buffer_step(before, buffer.entries(), floors) + checks.finite_logits(policy.logits))
                return out

            return checked

        def make_shape(fn: Callable) -> Callable:
            def checked(*args, **kwargs):
                shaped = fn(*args, **kwargs)
                fail(checks.reward_tiers([s.value for s in shaped], self.r_pen))
                return shaped

            return checked

        for attr, make in (("train_step", make_step), ("shape_group", make_shape)):
            if not self.patch(trainer, attr, make):
                raise AttributeError(f"conciserl.trainer has no {attr} to check")


def run_unit(workload: Any, patches: list[Patches], variant: int = 0) -> Unit:
    """Run one unit; an exception fails every operation of the unit."""
    clock = next((p for p in patches if isinstance(p, StepClock)), None)
    t0 = perf_counter()
    if clock is not None:
        clock.start = t0
    try:
        unit = workload.unit(variant)
    except Exception as e:
        traceback.print_exc()
        unit = Unit(ops=workload.ops, errors=[f"{type(e).__name__}: {e}"])
    finally:
        for p in patches:
            p.restore()
    unit.seconds = perf_counter() - t0
    unit.variant = variant
    if unit.errors:
        unit.failed = unit.ops
    if clock is not None:
        unit.step_ms, unit.reference = clock.step_ms, clock.reference
        unit.seconds -= sum(clock.reference) / 1e3
    elif not workload.trains:
        unit.step_ms = [unit.seconds * 1e3]
        unit.reference = [reference_ms() for _ in range(REFERENCE_SAMPLES_PER_SWEEP)]
    return unit


def repeat(workload: Any, program: SimpleNamespace, budget: float, variants: range) -> list[Unit]:
    """Untraced cycles over ``variants``, at least one and two units, until
    the next cycle would overrun ``budget`` seconds."""
    units: list[Unit] = []
    start = perf_counter()
    while True:
        for v in variants:
            units.append(run_unit(workload, [StepClock(program.trainer)] if workload.trains else [], v))
        cycle = sum(u.seconds for u in units[-len(variants):])
        if len(units) >= 2 and perf_counter() - start + cycle > budget:
            return units


def end_to_end(units: list[Unit], cycle: int) -> dict[str, float]:
    """Throughput over all units and step percentiles, each unit scaled to a
    host on which the reference loop takes REFERENCE_MS; the final figures
    average the last cycle."""
    scales = [REFERENCE_MS / median(u.reference) for u in units]
    seconds = sum(u.seconds * scale for u, scale in zip(units, scales))
    step_ms = [ms * scale for u, scale in zip(units, scales) for ms in u.step_ms]
    last = units[-cycle:]
    return {
        "steps_per_s": sum(u.ops for u in units) / seconds,
        "rollouts_per_s": sum(u.rollouts for u in units) / seconds,
        "tokens_per_s": sum(u.tokens for u in units) / seconds,
        "step_ms_p50": float(np.percentile(step_ms, 50)),
        "step_ms_p95": float(np.percentile(step_ms, 95)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_accuracy": float(np.mean([u.accuracy for u in last])),
        "final_mean_length": float(np.mean([u.mean_length for u in last])),
    }


def measure(workload: Any, program: SimpleNamespace, seconds: float, trace: bool, trace_path: Path) -> dict:
    checker = Checker(program.trainer) if workload.trains else None
    check = run_unit(workload, [checker] if checker else [])
    if checker is not None and checker.failures:
        check.errors += [e for errs in checker.failures.values() for e in errs]
        check.failed = max(check.failed, len(checker.failures))
    units = [check]
    if trace:
        untraced = repeat(workload, program, seconds / 2, range(1))
        tracer = Tracer()
        instrument(tracer, program)
        traced = run_unit(workload, [tracer])
        tracer.write(trace_path)
        overhead = traced.seconds / median(u.seconds for u in untraced) - 1.0
        metrics = layer_metrics(tracer, overhead)
        units += untraced + [traced]
    else:
        timed = repeat(workload, program, seconds, range(workload.variants))
        metrics = end_to_end(timed, workload.variants)
        units += timed

    errors = [e for u in units for e in u.errors]
    first: dict[int, str] = {}
    for u in units:
        if u.digest is not None and first.setdefault(u.variant, u.digest) != u.digest:
            errors += checks.same_digest([first[u.variant], u.digest])
            u.failed = u.ops
    return {
        "attempted": sum(u.ops for u in units),
        "failed": sum(u.failed for u in units),
        "errors": errors[:20],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--short", action="store_true", help="tiny workload sizes, for the tests")
    args = parser.parse_args(argv)

    program = import_program()
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](program, args.seed, args.workdir, args.short)
    print("READY " + json.dumps({"digest": workload.setup_digest}), flush=True)
    if args.setup_only:
        return 0
    trace_path = args.workdir.parent / f"trace-{args.workload}.jsonl"
    print(json.dumps(measure(workload, program, args.seconds, bool(args.trace), trace_path)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
