"""Command-line entry point: train, eval, metrics, replay.

Exit codes: 0 success, 2 usage/config error, 3 I/O error, 4 invariant
violation detected in input data. All outputs are plain JSON/JSONL/CSV so any
plotting stack can consume them.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path
from typing import Iterable

import numpy as np

from . import metrics as metrics_mod
from .core import ConfigError, RunConfig, load_config, save_config
from .env import answer_letter, load_bank
from .trainer import resume, run, sample_batch

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
    try:
        config = load_config(args.config) if args.config else RunConfig()
        overrides = {
            k: getattr(args, k)
            for k in ("seed", "steps", "alpha", "r_pen", "advantage_mode", "group_size")
            if getattr(args, k) is not None
        }
        config = dataclasses.replace(config, **overrides)
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(e, ConfigError) else EXIT_IO

    try:
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
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _id_mismatch(name: str, ids: Iterable[str], policy_ids: Iterable[str]) -> str:
    """How the problem ids of a checkpoint file differ from the policy's."""
    missing = sorted(set(policy_ids) - set(ids))
    unknown = sorted(set(ids) - set(policy_ids))
    diff = "; ".join(
        f"{label} {', '.join(found)}" for label, found in (("missing", missing), ("unknown", unknown)) if found
    )
    return f"{name} does not match the policy's problem ids: {diff or 'order or count differs'}"


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        policy, buffer, _ = resume(args.checkpoint)
        k_list = [int(k) for k in str(args.k).split(",") if k.strip()]
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO if isinstance(e, OSError) else EXIT_CONFIG
    bank_path = args.checkpoint / "bank.tsv"
    try:
        bank = load_bank(bank_path)
    except (OSError, ValueError) as e:
        # resume() found the checkpoint directory, so a bank file that is
        # missing or cannot be parsed is an I/O fault.
        print(f"error: unreadable checkpoint file {bank_path}: {e}", file=sys.stderr)
        return EXIT_IO
    bank_ids = tuple(p.id for p in bank)
    mismatch = None
    if bank_ids != policy.problem_ids:
        mismatch = _id_mismatch("bank.tsv", bank_ids, policy.problem_ids)
    elif set(buffer.entries()) != set(policy.problem_ids):
        mismatch = _id_mismatch("buffer.expbuf", buffer.entries(), policy.problem_ids)
    if mismatch:
        print(f"invariant violation: {mismatch}", file=sys.stderr)
        return EXIT_INVARIANT
    if not k_list or min(k_list) < 1 or max(k_list) > args.n_samples:
        print("error: every k must satisfy 1 <= k <= n_samples", file=sys.stderr)
        return EXIT_CONFIG

    groups = sample_batch(policy, bank, args.n_samples, buffer.l_max, (args.seed,))
    # The vote of a sample is its answer letter when it produced a valid
    # solution, otherwise a non-matching sentinel; sample-level correctness
    # then coincides with the verifier.
    samples = {
        g.problem_id: [
            (answer_letter(r.actions[-1]) if r.correct else "invalid", r.length) for r in g.rollouts
        ]
        for g in groups
    }
    truth = {p.id: p.correct_answer for p in bank}
    outcomes = [r.correct for g in groups for r in g.rollouts]
    lengths = {g.problem_id: [r.length for r in g.rollouts] for g in groups}

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
    try:
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_metrics(args: argparse.Namespace) -> int:
    try:
        results = metrics_mod.load_results_csv(args.results)
        summary = metrics_mod.summarize_results(results, args.vanilla)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
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
    try:
        lines = args.steps_jsonl.read_text().splitlines()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    steps = []
    try:
        for line in lines:
            if line.strip():
                steps.append(json.loads(line))
    except json.JSONDecodeError as e:
        print(f"error: malformed steps.jsonl: {e}", file=sys.stderr)
        return EXIT_IO

    out_dir = args.out_dir or args.steps_jsonl.parent
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for field in ("batch_mean_length", "mean_shortest_correct"):
            with (out_dir / f"{field}.csv").open("w", newline="") as f:
                writer = csv.writer(f)
                writer.writerow(["step", field])
                for s in steps:
                    writer.writerow([s["step"], s[field]])
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO

    violations = [
        (prev["step"], cur["step"])
        for prev, cur in zip(steps, steps[1:])
        if cur["mean_shortest_correct"] > prev["mean_shortest_correct"]
    ]
    if violations:
        for a, b in violations:
            print(
                f"invariant violation: mean_shortest_correct increased between steps {a} and {b}",
                file=sys.stderr,
            )
        return EXIT_INVARIANT
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "train": cmd_train,
        "eval": cmd_eval,
        "metrics": cmd_metrics,
        "replay": cmd_replay,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
