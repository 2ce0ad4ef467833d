"""Command-line entry point: train, eval, metrics, replay.

Exit codes, set by ``main`` alone: 0 success; 2 usage or config error
(ValueError, or MemoryError for a config whose tables cannot be allocated);
3 a file that is missing or cannot be parsed (OSError); 4 input data that
contradicts itself or an invariant (InvariantViolation). All outputs are
plain JSON/JSONL/CSV so any plotting stack can consume them.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .core import ADVANTAGE_MODES, InvariantViolation, RunConfig, load_config
from .env import sample_outcomes
from .trainer import read_step_log, resume, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INVARIANT = 4


@functools.cache  # built on the first call, not at import, and once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conciserl",
        description="Experience-guided concise-reasoning RL on a synthetic verifiable environment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run training and write step logs + checkpoints")
    p_train.add_argument("--config", type=Path, help="flat key=value config file")
    p_train.add_argument("--out", type=Path, required=True, help="output directory")
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--steps", type=int)
    p_train.add_argument("--alpha", type=float)
    p_train.add_argument("--r-pen", type=float, dest="r_pen")
    p_train.add_argument("--advantage-mode", choices=ADVANTAGE_MODES, dest="advantage_mode")
    p_train.add_argument("--group-size", type=int, dest="group_size")

    p_eval = sub.add_parser("eval", help="sample from a frozen checkpoint and score it")
    p_eval.add_argument("--checkpoint", type=Path, required=True, help="checkpoint directory")
    p_eval.add_argument("--n-samples", type=int, default=64)
    p_eval.add_argument("--k", default="1", help="comma-separated majority@k values")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--out", type=Path, help="output file (default: <checkpoint>/eval.json)")

    p_metrics = sub.add_parser("metrics", help="IPT / delta summary for a benchmark results CSV")
    p_metrics.add_argument("--results", type=Path, required=True)
    p_metrics.add_argument("--vanilla", required=True, help="name of the baseline method")

    p_replay = sub.add_parser("replay", help="emit plot curves from a run's step log")
    p_replay.add_argument("--steps-jsonl", type=Path, required=True, dest="steps_jsonl")
    p_replay.add_argument("--out-dir", type=Path, dest="out_dir")
    return parser


def cmd_train(args: argparse.Namespace) -> int:
    # every train flag but --config and --out names a RunConfig field
    overrides = {k: v for k, v in vars(args).items() if k in RunConfig.__dataclass_fields__ and v is not None}
    run(load_config(args.config, **overrides) if args.config else RunConfig(**overrides), out_dir=args.out)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    policy, buffer, bank, _ = resume(args.checkpoint)
    try:
        k_list = [int(k) for k in str(args.k).split(",") if k.strip()]
    except ValueError:
        raise ValueError(f"--k must be comma-separated integers, got {args.k!r}") from None
    if not k_list or min(k_list) < 1 or max(k_list) > args.n_samples:
        raise ValueError("every k must satisfy 1 <= k <= n_samples")

    # (problems, samples), bank order
    correct, _, lengths = sample_outcomes(policy, bank, args.n_samples, buffer.l_max, (args.seed,))
    order = np.argsort([p.id for p in bank])  # majority@k draws problem by problem in id order

    pass1 = metrics_mod.accuracy(correct)
    mean_tokens = float(lengths.mean())
    majority = {}
    for k in sorted(set(k_list)):
        rng = np.random.default_rng((args.seed, 1_000_003, k))
        acc, total = metrics_mod.majority_at_k(correct[order], lengths[order], k, rng)
        majority[str(k)] = {"accuracy": acc, "total_tokens": total}
    report = {
        "n_samples": args.n_samples,
        "seed": args.seed,
        "pass_at_1": pass1,
        "mean_tokens": mean_tokens,
        "ipt": metrics_mod.ipt(pass1, mean_tokens),
        "length_cv": metrics_mod.length_cv(lengths) if args.n_samples >= 2 else None,
        "majority_at_k": majority,
    }
    out = args.out or (args.checkpoint / "eval.json")
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _percent(change: float | None) -> str:
    """A change rate as ``+12.34%``, or ``n/a`` where it is undefined."""
    return "     n/a" if change is None else f"{change:+7.2f}%"


def cmd_metrics(args: argparse.Namespace) -> int:
    results = metrics_mod.load_results_csv(args.results)
    summary = metrics_mod.summarize_results(results, args.vanilla)
    for method, info in summary.items():
        for bench, row in info["benchmarks"].items():
            label = f"{method}/{bench}" if bench else method
            line = (
                f"{label:<28} Acc {row['accuracy']:6.1f}  "
                f"Token {row['mean_tokens']:9.1f}  IPT {row['ipt']:7.2f}"
            )
            if "d_token" in row and method != args.vanilla:
                line += f"  dAcc {_percent(row['d_acc'])}  dToken {_percent(row['d_token'])}"
            print(line)
        line = f"{method + ' (avg)':<28} IPT {info['avg_ipt']:7.2f}"
        if method != args.vanilla and info["d_token"] is not None:
            line += f"  dAcc {_percent(info['d_acc'])}  dToken {_percent(info['d_token'])}"
        print(line)
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    steps = read_step_log(args.steps_jsonl)
    out_dir = args.out_dir or args.steps_jsonl.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    for field in ("batch_mean_length", "mean_shortest_correct"):
        with (out_dir / f"{field}.csv").open("w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["step", field])
            writer.writerows([s["step"], s[field]] for s in steps)

    # The buffer only decreases: its mean never rises, and no entry returns to l_max.
    violations = []
    for prev, cur in zip(steps, steps[1:]):
        between = f"between steps {prev['step']} and {cur['step']}"
        if cur["mean_shortest_correct"] > prev["mean_shortest_correct"]:
            violations.append(f"mean_shortest_correct increased {between}")
        if cur["solved_count"] < prev["solved_count"]:
            violations.append(f"solved_count fell {between}")
    if violations:
        raise InvariantViolation("; ".join(violations))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the only place a failure becomes an exit code."""
    args = _build_parser().parse_args(argv)
    handler = {
        "train": cmd_train,
        "eval": cmd_eval,
        "metrics": cmd_metrics,
        "replay": cmd_replay,
    }[args.command]
    try:
        return handler(args)
    except InvariantViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
