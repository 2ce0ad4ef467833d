"""Command-line entry point: train, eval, metrics, replay.

Exit codes, set by ``main`` alone: 0 success; 2 usage or config error
(ValueError); 3 a file that is missing or cannot be parsed (OSError); 4 input
data that contradicts itself or an invariant (InvariantViolation). All outputs
are plain JSON/JSONL/CSV so any plotting stack can consume them.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .core import InvariantViolation, RunConfig, load_config, save_config
from .env import answer_letter
from .trainer import read_step_log, resume, run, sample_batch

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INVARIANT = 4


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
    p_train.add_argument("--advantage-mode", choices=["count", "std"], dest="advantage_mode")
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

    p_replay = sub.add_parser("replay", help="emit plot curves from a steps.jsonl log")
    p_replay.add_argument("--steps-jsonl", type=Path, required=True, dest="steps_jsonl")
    p_replay.add_argument("--out-dir", type=Path, dest="out_dir")
    return parser


def cmd_train(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else RunConfig()
    overrides = {
        k: getattr(args, k)
        for k in ("seed", "steps", "alpha", "r_pen", "advantage_mode", "group_size")
        if getattr(args, k) is not None
    }
    config = dataclasses.replace(config, **overrides)
    args.out.mkdir(parents=True, exist_ok=True)
    save_config(config, args.out / "config.txt")
    result = run(config, out_dir=args.out)
    logs = result.logs
    summary = {
        "steps": config.steps,
        "initial_accuracy": logs[0].batch_accuracy if logs else None,
        "final_accuracy": logs[-1].batch_accuracy if logs else None,
        "initial_mean_length": logs[0].batch_mean_length if logs else None,
        "final_mean_length": logs[-1].batch_mean_length if logs else None,
        "compression_ratio": (
            1.0 - logs[-1].batch_mean_length / logs[0].batch_mean_length if logs else None
        ),
        "final_buffer_mean": result.buffer.stats(),
        "solved_count": result.buffer.solved_count(),
        "n_problems": len(result.bank),
    }
    (args.out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    policy, buffer, bank, _ = resume(args.checkpoint)
    k_list = [int(k) for k in str(args.k).split(",") if k.strip()]
    if not k_list or min(k_list) < 1 or max(k_list) > args.n_samples:
        raise ValueError("every k must satisfy 1 <= k <= n_samples")

    groups = sample_batch(policy, bank, args.n_samples, buffer.l_max, (args.seed,))
    # The vote of a sample is the answer letter of its last action when it
    # produced a valid solution, otherwise a non-matching sentinel;
    # sample-level correctness then coincides with the verifier.
    samples = {}
    for g in groups:
        last = g.actions[np.cumsum(g.lengths) - 1].tolist()
        votes = [answer_letter(a) if c else "invalid" for a, c in zip(last, g.correct.tolist())]
        samples[g.problem_id] = list(zip(votes, g.lengths.tolist()))
    truth = {p.id: p.correct_answer for p in bank}
    outcomes = [c for g in groups for c in g.correct.tolist()]
    lengths = {g.problem_id: g.lengths.tolist() for g in groups}

    pass1 = metrics_mod.accuracy(outcomes)
    mean_tokens = float(np.mean([t for pool in samples.values() for _, t in pool]))
    majority = {}
    for k in sorted(set(k_list)):
        rng = np.random.default_rng((args.seed, 1_000_003, k))
        acc, total = metrics_mod.majority_at_k(samples, truth, k, rng)
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
            if "d_acc" in row and method != args.vanilla:
                line += f"  dAcc {row['d_acc']:+7.2f}%  dToken {row['d_token']:+7.2f}%"
            print(line)
        line = f"{method + ' (avg)':<28} IPT {info['avg_ipt']:7.2f}"
        if method != args.vanilla and info["d_acc"] is not None:
            line += f"  dAcc {info['d_acc']:+7.2f}%  dToken {info['d_token']:+7.2f}%"
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

    violations = [
        f"mean_shortest_correct increased between steps {prev['step']} and {cur['step']}"
        for prev, cur in zip(steps, steps[1:])
        if cur["mean_shortest_correct"] > prev["mean_shortest_correct"]
    ]
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
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
