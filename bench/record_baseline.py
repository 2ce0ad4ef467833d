"""Run the benchmark over many seeds and record its baseline.

    python3 bench/record_baseline.py --seeds 10 --out bench/baseline.json
    python3 bench/record_baseline.py --seeds 10 --out /tmp/new.json --compare bench/baseline.json

For each workload it runs ``run_bench.py`` once per seed with ``--trace 0``
and once (seed 0) with ``--trace 1``, then writes, per end-to-end metric, the
median, the quartiles (``statistics.quantiles(n=4)``) and their distance as a
share of the median, next to the metric's bound. ``--roadmap`` also times two
plain ``conciserl train`` runs from outside the program (the desk config and
the CLI defaults, seed 0) to set against the ROADMAP's baseline figures.
With ``--compare`` it prints, per metric, how far the new median moved
against the old one, as a share of the old median, and whether that is
within the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from workloads import DESK, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run_bench.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=240, cwd=ROOT,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1]), wall


def quartiles(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def machine() -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "git_rev": rev}


def timed_cli_train(config: dict, rollouts_per_step: int) -> dict:
    """One plain ``conciserl train`` process, timed from outside."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_runs") as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "conciserl.cli", "train", "--config", str(cfg), "--out", f"{tmp}/out"],
            check=True, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        wall = time.perf_counter() - t0
        steps = [json.loads(line) for line in Path(f"{tmp}/out/steps.jsonl").read_text().splitlines()]
    tokens = sum(s["batch_mean_length"] for s in steps) * rollouts_per_step
    return {
        "config": config,
        "wall_s": wall,
        "ms_per_step": wall * 1e3 / len(steps),
        "steps_per_s": len(steps) / wall,
        "tokens_per_s": tokens / wall,
        "mean_length_first_last": [steps[0]["batch_mean_length"], steps[-1]["batch_mean_length"]],
        "accuracy_first_last": [steps[0]["batch_accuracy"], steps[-1]["batch_accuracy"]],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--compare", type=Path)
    parser.add_argument("--roadmap", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    report = {"machine": machine(), "run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    (ROOT / ".bench_runs").mkdir(exist_ok=True)

    for name in args.workloads.split(","):
        runs, walls = [], []
        for seed in seeds:
            result, wall = run_bench(name, seed, spec["run_seconds"], 0)
            runs.append(result)
            walls.append(wall)
            print(f"{name} seed {seed}: {wall:.1f} s, correct={result['correct']}", file=sys.stderr)
        traced, _ = run_bench(name, seeds[0], spec["run_seconds"], 1)
        e2e = {}
        for metric, bound in bounds.items():
            stats = quartiles([r["metrics"][metric]["value"] for r in runs])
            e2e[metric] = {**stats, "bound": bound, "steady": metric == "setup_s" or stats["spread"] < bound / 3}
        report["workloads"][name] = {
            "why": whys[name],
            "config": WORKLOADS[name].CONFIG,
            "all_correct": all(r["correct"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "wall_s_max": max(walls),
            "end_to_end": e2e,
            "per_layer_seed0": {k: v["value"] for k, v in traced["metrics"].items()},
        }

    if args.roadmap:
        report["roadmap"] = {
            "desk_seed0": timed_cli_train({**DESK, "seed": 0}, 20 * DESK["group_size"]),
            "cli_defaults_seed0": timed_cli_train({"seed": 0}, 20 * 16),
        }

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    old = json.loads(args.compare.read_text()) if args.compare else None
    for name, w in report["workloads"].items():
        for metric, s in w["end_to_end"].items():
            line = f"{name:<11} {metric:<18} median {s['median']:<14.6g} spread {s['spread']:7.4f} bound {s['bound']}"
            if not s["steady"]:
                line += "  NOT STEADY"
            if old and name in old["workloads"]:
                before = old["workloads"][name]["end_to_end"][metric]["median"]
                change = (s["median"] - before) / before if before else 0.0
                line += f"  vs old {change:+.4f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
