"""Spans around the program's layer entry points, installed from outside.

The benchmark never edits ``src/``: it replaces module and class attributes
that the program looks up at call time (``trainer.sample_rollout``,
``TabularPolicy.log_probs``, ...) with wrappers, and restores them after the
traced unit. Spans are kept in memory as ``(name, start, end, parent, step)``
and written out when the run ends. A layer's self time is its span minus its
direct child spans; wrapper cost lands in the caller's self time and is
reported as a whole by ``trace.overhead_frac``.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> bool:
        """Replace ``owner.attr`` by ``make(original)``; False when absent."""
        original = vars(owner).get(attr)
        if original is None:
            return False
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


Hook = Callable[[tuple, dict, Any], None]


class Tracer(Patches):
    def __init__(self) -> None:
        super().__init__()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[Any] = []
        self._stack: list[int] = []
        self.step = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []

    def span(self, owner: Any, attr: str, name: str, after: Hook | None = None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``;
        ``after(args, kwargs, result)`` runs outside the span."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack = self.spans, self._stack

        def make(fn: Callable) -> Callable:
            def traced(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                t0 = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    spans[idx] = (nid, t0, t1, parent, self.step)
                if after is not None:
                    after(args, kwargs, out)
                return out

            return traced

        if not self.patch(owner, attr, make):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Per span name: number of calls and summed self time in ms."""
        if not self.spans:
            return {}, {}
        rows = np.array(self.spans, dtype=float)
        nid = rows[:, 0].astype(np.intp)
        dur = rows[:, 2] - rows[:, 1]
        parent = rows[:, 3].astype(np.intp)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(rows))
        self_ms = np.bincount(nid, weights=(dur - child) * 1e3, minlength=len(self.names))
        calls = np.bincount(nid, minlength=len(self.names))
        return (
            {n: int(calls[i]) for i, n in enumerate(self.names)},
            {n: float(self_ms[i]) for i, n in enumerate(self.names)},
        )

    def write(self, path: Path) -> None:
        """One JSON header line with the span names, then one
        ``[name, start_us, end_us, parent, step]`` line per span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as f:
            f.write(json.dumps({"names": self.names, "missing": self.missing}) + "\n")
            for nid, start, end, parent, step in self.spans:
                row = [self.names[nid], round((start - t0) * 1e6, 1), round((end - t0) * 1e6, 1), parent, step]
                f.write(json.dumps(row) + "\n")


def instrument(tracer: Tracer, program: Any) -> None:
    """Wrap the entry points of every ``conciserl`` layer that the trainer
    and the CLI call, with counters for the per-layer ratios."""
    core, env, trainer, cli = program.core, program.env, program.trainer, program.cli
    counts = tracer.counts

    def on_step_start(args: tuple, kwargs: dict) -> None:
        tracer.step = kwargs.get("step", args[4] if len(args) > 4 else 0)

    def on_step(args, kwargs, out) -> None:
        _, buffer, _ = out
        bank = kwargs.get("bank", args[2] if len(args) > 2 else ())
        tracer.last_gap = float(np.mean([buffer.entry(p.id) - (p.difficulty + 1) for p in bank]))

    def on_rollout(args, kwargs, rollout) -> None:
        counts["env.sample_rollout.tokens"] += rollout.length
        counts["env.sample_rollout.truncated"] += rollout.truncated

    def on_shape(args, kwargs, shaped) -> None:
        for s in shaped:
            tier = "concise" if s.value == 1.0 else "incorrect" if s.value == 0.0 else "verbose"
            counts[f"rewards.{tier}"] += 1

    def on_advantage(args, kwargs, adv) -> None:
        counts["advantage.groups"] += 1
        counts["advantage.zero_groups"] += all(v == 0.0 for v in adv.values)

    def on_token_batch(args, kwargs, batch) -> None:
        counts["objective.tokens"] += sum(len(g.actions) for g in batch.groups)

    def on_checkpoint(args, kwargs, out) -> None:
        path = Path(kwargs.get("path", args[3] if len(args) > 3 else "."))
        counts["trainer.checkpoint.bytes"] += sum(f.stat().st_size for f in path.iterdir())

    # Step ids must be set before the step's children run.
    def make_step(fn: Callable) -> Callable:
        def stepped(*args, **kwargs):
            on_step_start(args, kwargs)
            return fn(*args, **kwargs)

        return stepped

    tracer.last_gap = 0.0
    plan = [
        (cli, "cmd_eval", "cli.cmd_eval", None),
        (trainer, "run", "trainer.run", None),
        (cli, "run", "trainer.run", None),
        (cli, "resume", "trainer.resume", None),
        (trainer, "checkpoint", "trainer.checkpoint", on_checkpoint),
        (trainer, "train_step", "trainer.train_step", on_step),
        (trainer, "sample_batch", "trainer.sample_batch", None),
        (trainer, "sample_rollout", "env.sample_rollout", on_rollout),
        (cli, "sample_rollout", "env.sample_rollout", on_rollout),
        (env.TabularPolicy, "log_probs", "env.log_probs", None),
        (core.Rollout, "__post_init__", "core.rollout_init", None),
        (trainer, "shape_group", "rewards.shape_group", on_shape),
        (program.buffer.ExperienceBuffer, "update", "buffer.update", None),
        (trainer, "count_advantage", "advantage", on_advantage),
        (trainer, "std_advantage", "advantage", on_advantage),
        (trainer, "token_batch", "objective.token_batch", on_token_batch),
        (program.objective, "replay_states", "env.replay_states", None),
        (trainer, "surrogate", "objective.surrogate", None),
        (trainer, "gradient", "objective.gradient", None),
        (env.TabularPolicy, "ascend", "env.ascend", None),
        (program.metrics, "majority_at_k", "metrics.majority_at_k", None),
        (program.metrics, "length_cv", "metrics.length_cv", None),
    ]
    for owner, attr, name, after in plan:
        tracer.span(owner, attr, name, after)
    # Installed last so that it runs before the train_step span opens.
    tracer.patch(trainer, "train_step", make_step)
    if tracer.missing:
        print(f"trace: entry points not found: {', '.join(tracer.missing)}", file=sys.stderr)


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, float]:
    """The per-layer metrics of one traced unit, by BENCHMARK.json name."""
    calls, self_ms = tracer.totals()
    c = tracer.counts

    def ms(name: str) -> float:
        return self_ms.get(name, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    n_rollouts = calls.get("env.sample_rollout", 0)
    n_shaped = c["rewards.concise"] + c["rewards.verbose"] + c["rewards.incorrect"]
    return {
        "env.sample_rollout.calls": n_rollouts,
        "env.sample_rollout.tokens": c["env.sample_rollout.tokens"],
        "env.sample_rollout.self_ms": ms("env.sample_rollout"),
        "env.sample_rollout.truncated_frac": ratio(c["env.sample_rollout.truncated"], n_rollouts),
        "env.log_probs.calls": calls.get("env.log_probs", 0),
        "env.log_probs.ms": ms("env.log_probs"),
        "core.rollout_init.ms": ms("core.rollout_init"),
        "trainer.sample_batch.self_ms": ms("trainer.sample_batch"),
        "env.replay_states.ms": ms("env.replay_states"),
        "objective.token_batch.self_ms": ms("objective.token_batch"),
        "objective.surrogate.ms": ms("objective.surrogate"),
        "objective.gradient.ms": ms("objective.gradient"),
        "objective.tokens": c["objective.tokens"],
        "env.ascend.ms": ms("env.ascend"),
        "rewards.shape_group.ms": ms("rewards.shape_group"),
        "rewards.concise_frac": ratio(c["rewards.concise"], n_shaped),
        "rewards.verbose_frac": ratio(c["rewards.verbose"], n_shaped),
        "rewards.incorrect_frac": ratio(c["rewards.incorrect"], n_shaped),
        "buffer.update.ms": ms("buffer.update"),
        "buffer.gap_tokens": tracer.last_gap,
        "advantage.ms": ms("advantage"),
        "advantage.zero_group_frac": ratio(c["advantage.zero_groups"], c["advantage.groups"]),
        "trainer.checkpoint.calls": calls.get("trainer.checkpoint", 0),
        "trainer.checkpoint.ms": ms("trainer.checkpoint"),
        "trainer.checkpoint.bytes": c["trainer.checkpoint.bytes"],
        "trainer.run.self_ms": ms("trainer.run"),
        "trainer.resume.ms": ms("trainer.resume"),
        "metrics.majority_at_k.ms": ms("metrics.majority_at_k"),
        "metrics.length_cv.ms": ms("metrics.length_cv"),
        "cli.cmd_eval.self_ms": ms("cli.cmd_eval"),
        "trainer.train_step.self_ms": ms("trainer.train_step"),
        "trace.overhead_frac": overhead_frac,
    }
