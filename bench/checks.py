"""Correctness checks applied to the program's outputs during a benchmark run.

Every check is a pure function that returns a list of human-readable
violations (empty when the check holds), so the benchmark can count a failed
operation without stopping, and the tests can feed each check a corrupted
input.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Iterable, Mapping, Sequence

import numpy as np


def buffer_step(
    before: Mapping[str, int], after: Mapping[str, int], floors: Mapping[str, int]
) -> list[str]:
    """One step's buffer fold: every entry only decreases and never falls
    below the problem's analytic minimum correct length ``d + 1``."""
    if before.keys() != after.keys():
        return [f"buffer key set changed: {sorted(before)} -> {sorted(after)}"]
    errors = []
    for pid, new in after.items():
        if new > before[pid]:
            errors.append(f"buffer entry {pid!r} increased {before[pid]} -> {new}")
        if new < floors[pid]:
            errors.append(f"buffer entry {pid!r}={new} below the minimum length {floors[pid]}")
    return errors


def reward_tiers(values: Iterable[float], r_pen: float) -> list[str]:
    """Every shaped reward is exactly 0, ``r_pen`` or 1."""
    bad = sorted({float(v) for v in values} - {0.0, float(r_pen), 1.0})
    return [f"shaped reward {v!r} outside the tiers (0, {r_pen}, 1)" for v in bad]


def finite_logits(logits: np.ndarray) -> list[str]:
    if np.all(np.isfinite(logits)):
        return []
    return [f"{int(np.sum(~np.isfinite(logits)))} non-finite policy logits"]


def fraction(name: str, value: float) -> list[str]:
    if math.isfinite(value) and 0.0 <= value <= 1.0:
        return []
    return [f"{name}={value!r} outside [0, 1]"]


def majority_at_1(pass_at_1: float, majority_1: float, n_problems: int) -> list[str]:
    """majority@1 against pass@1, both as fractions.

    majority@1 scores one randomly chosen sample per problem, so it equals
    pass@1 in expectation, and exactly when every problem's samples are all
    right or all wrong. The check allows five binomial standard deviations
    of that one-sample-per-problem estimate, and none at pass@1 of 0 or 1.
    """
    errors = fraction("pass@1", pass_at_1) + fraction("majority@1", majority_1)
    if errors:
        return errors
    tolerance = 5.0 * math.sqrt(pass_at_1 * (1.0 - pass_at_1) / n_problems)
    if abs(majority_1 - pass_at_1) > tolerance:
        return [f"majority@1={majority_1} disagrees with pass@1={pass_at_1} (tolerance {tolerance:.3g})"]
    return []


def same_digest(digests: Sequence[str]) -> list[str]:
    """Every repeat of one workload at one seed gives the same trajectory."""
    if len(set(digests)) <= 1:
        return []
    return [f"trajectory digests differ across {len(digests)} repeats: {sorted(set(digests))}"]


def trajectory_digest(step_records: Iterable[Mapping], buffer_entries: Mapping[str, int]) -> str:
    """sha256 over the step logs with their timings dropped (``wall_ms`` and
    any other ``*_ms`` field), plus the final buffer."""
    h = hashlib.sha256()
    for rec in step_records:
        kept = {k: v for k, v in rec.items() if not k.endswith("_ms")}
        h.update(json.dumps(kept, sort_keys=True).encode())
        h.update(b"\n")
    h.update(json.dumps(sorted(buffer_entries.items())).encode())
    return h.hexdigest()
