"""Fast tests of the benchmark: its correctness checks fire on corrupted
inputs, and a short version of every workload runs end to end."""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


class TestChecks:
    def test_buffer_step(self):
        floors = {"a": 2, "b": 5}
        assert checks.buffer_step({"a": 9, "b": 9}, {"a": 4, "b": 9}, floors) == []
        assert checks.buffer_step({"a": 4, "b": 9}, {"a": 5, "b": 9}, floors)  # increased
        assert checks.buffer_step({"a": 4, "b": 9}, {"a": 1, "b": 9}, floors)  # below d + 1
        assert checks.buffer_step({"a": 4, "b": 9}, {"a": 4}, floors)  # lost a key

    def test_reward_tiers(self):
        assert checks.reward_tiers([0.0, 0.5, 1.0, 1.0], 0.5) == []
        assert checks.reward_tiers([0.0, 0.7], 0.5)
        assert checks.reward_tiers([1.0 + 1e-12], 0.5)

    def test_finite_logits(self):
        logits = np.zeros((2, 3, 4))
        assert checks.finite_logits(logits) == []
        logits[1, 2, 3] = np.nan
        assert checks.finite_logits(logits)

    def test_fraction(self):
        assert checks.fraction("acc", 0.0) == [] and checks.fraction("acc", 1.0) == []
        assert checks.fraction("acc", 1.2) and checks.fraction("acc", -0.1) and checks.fraction("acc", math.nan)

    def test_majority_at_1(self):
        assert checks.majority_at_1(0.98, 1.0, 20) == []
        assert checks.majority_at_1(1.0, 0.95, 20)  # all samples right, yet a vote lost
        assert checks.majority_at_1(0.0, 0.05, 20)
        assert checks.majority_at_1(0.9, 0.2, 20)
        assert checks.majority_at_1(0.9, 1.5, 20)

    def test_digests(self):
        a = checks.trajectory_digest([{"step": 1, "wall_ms": 3.0, "x": 1.5}], {"p": 3})
        b = checks.trajectory_digest([{"step": 1, "wall_ms": 9.0, "x": 1.5}], {"p": 3})
        assert a == b
        assert checks.same_digest([a, b, a]) == []
        assert checks.same_digest([a, checks.trajectory_digest([{"step": 1, "x": 1.5}], {"p": 2})])
        assert checks.same_digest([a, checks.trajectory_digest([{"step": 1, "x": 1.25}], {"p": 3})])


@pytest.fixture(scope="module")
def program():
    return workloads.import_program()


def checked_unit(program, tmp_path):
    workload = workloads.TrainDesk(program, 0, tmp_path, short=True)
    checker = workloads.Checker(program.trainer)
    unit = workloads.run_unit(workload, [checker], variant=1)
    return unit, checker


class TestCheckerOnProgram:
    def test_clean_run_passes(self, program, tmp_path):
        unit, checker = checked_unit(program, tmp_path)
        assert checker.failures == {} and unit.errors == [] and unit.failed == 0

    def test_increasing_buffer(self, program, tmp_path, monkeypatch):
        original = program.buffer.ExperienceBuffer.update

        def grow(self, group):
            original(self, group)
            self._entries[group.problem_id] += 1

        monkeypatch.setattr(program.buffer.ExperienceBuffer, "update", grow)
        _, checker = checked_unit(program, tmp_path)
        assert any("increased" in e for errs in checker.failures.values() for e in errs)

    def test_reward_outside_tiers(self, program, tmp_path, monkeypatch):
        original = program.trainer.shape_group

        def off_tier(*args, **kwargs):
            shaped = original(*args, **kwargs)
            return [program.rewards.ShapedReward(0.7, s.tier) for s in shaped]

        monkeypatch.setattr(program.trainer, "shape_group", off_tier)
        _, checker = checked_unit(program, tmp_path)
        assert any("outside the tiers" in e for errs in checker.failures.values() for e in errs)

    def test_non_finite_logits(self, program, tmp_path, monkeypatch):
        def blow_up(self, grad, learning_rate):
            self.logits = self.logits + np.inf

        monkeypatch.setattr(program.env.TabularPolicy, "ascend", blow_up)
        unit, checker = checked_unit(program, tmp_path)
        assert checker.failures and unit.failed == unit.ops

    def test_patches_are_restored(self, program, tmp_path):
        before = (program.trainer.train_step, program.trainer.shape_group)
        checked_unit(program, tmp_path)
        assert (program.trainer.train_step, program.trainer.shape_group) == before


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run_bench.py", *args], capture_output=True, text=True, timeout=170, cwd=cwd
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_short_workload_end_to_end(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--short")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "train_desk", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + WORKLOAD_NAMES
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
