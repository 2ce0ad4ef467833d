"""Benchmark of conciserl: one workload, one seed, one JSON line of metrics.

    python3 bench/run_bench.py --workload train_desk --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it uses the checkout's ``src/`` and
writes only under ``.bench_runs/`` there. Each workload runs in fresh
single-threaded Python processes (``workloads.py``). Set-up, from process
start to ready (interpreter start, import, input generation, and for
``eval_sweep`` the training of the checkpoint), is repeated SETUPS times and
its median is ``setup_s``; the last process then measures. ``--trace 0``
prints the end-to-end metrics of untraced units; ``--trace 1`` prints the
per-layer metrics of a traced unit and writes its spans to
``.bench_runs/trace-<workload>.jsonl``. Metric names and units come from
``BENCHMARK.json``. Times and rates are scaled by the speed of a fixed
reference loop sampled alongside them (``workloads.REFERENCE_MS``), which
cancels most of a shared host's speed drift.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
an operation (a training step, or one problem of an eval sweep) fails when it
raises or breaks a correctness check. Exits 2, printing no result, when the
checkout has no ``src/conciserl`` or a process does not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

from workloads import REFERENCE_MS, WORKLOADS, reference_ms

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
DEADLINE_S = 170.0
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class ChildError(RuntimeError):
    pass


def spawn(argv: list[str], deadline: float) -> tuple[float, dict, dict | None]:
    """Start one worker; return its set-up seconds, its READY payload, and
    its result (None for a set-up-only worker)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), *argv],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, **SINGLE_THREAD},
        cwd=ROOT,
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not ready.startswith("READY "):
        raise ChildError(f"worker {' '.join(argv)} exited with {code} ({ready.strip() or 'no READY'})")
    result = json.loads(lines[-1]) if lines else None
    return setup_s, json.loads(ready[len("READY "):]), result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true", help="tiny workload sizes, for the tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "conciserl" / "__init__.py").is_file():
        print(f"error: no conciserl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    runs = ROOT / ".bench_runs"
    worker_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--short"] if args.short else [])
    n_setups = 1 if args.trace else SETUPS
    setups, digests, references, result = [], [], [], None
    for i in range(n_setups):
        references += [reference_ms() for _ in range(10)]
        workdir = runs / f"{args.workload}-{args.seed}-{os.getpid()}-{i}"
        last = i == n_setups - 1
        try:
            setup_s, ready, result = spawn(
                worker_args + ["--workdir", str(workdir)] + ([] if last else ["--setup-only"]), deadline
            )
        except (ChildError, json.JSONDecodeError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        setups.append(setup_s)
        digests.append(ready["digest"])
    if result is None:
        print("error: the measuring worker printed no result", file=sys.stderr)
        return 2

    attempted, failed, errors = result["attempted"], result["failed"], result["errors"]
    if len(set(digests)) > 1:
        errors.append(f"set-up is not deterministic: digests {sorted(set(digests))}")
        failed = attempted
    setup_s = median(setups) * REFERENCE_MS / median(references)
    values = {**result["metrics"], "setup_s": setup_s, "ok_frac": 1.0 - failed / attempted}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
