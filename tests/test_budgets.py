"""Call and pass budgets that host noise cannot move.

A call budget caps the Python function calls made in ``conciserl``'s own
source (``sys.setprofile`` "call" events, numpy's Python wrappers excluded),
and a pass budget the passes of the sampler's walk (``env._walk``'s
``ndarray.argmax`` "c_call" events, one per pass), so each holds on any host
and numpy version. A budget is its measured value plus 10%, so per-group
Python creeping back into the training step or the ``eval`` batch, or a walk
that takes more passes, fails here on the first run. A change that raises
one says why in CHANGES.md, as for any changed bound.
"""

import sys
from pathlib import Path

import pytest

import conciserl
from conciserl import advantage, cli, env, trainer
from conciserl.core import RunConfig

PACKAGE = str(Path(conciserl.__file__).parent)
DESK = dict(group_size=8, l_max=1024, steps=30)  # 20 problems, a checkpoint every 10 steps
# Mean calls per training step of a 30-step desk run, by advantage mode
# (measured: count 516.2, std 491.6).
STEP_BUDGET = {"count": 567, "std": 540}
# Mean walk passes per training step of that run (measured: count 24.1, std 53.8).
STEP_PASS_BUDGET = {"count": 26.5, "std": 59.1}
# Calls of one `conciserl eval --n-samples 256 --k 1,4` on that run's last
# checkpoint, eval_sweep's shape (measured: 4,855).
EVAL_BUDGET = 5340
# Walk passes of that eval (measured: 110).
EVAL_PASS_BUDGET = 121
WALK = env._walk.__code__


def package_calls(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, the number of calls made in ``conciserl``'s
    source while it ran (``fn``'s own included when it lives there) and the
    number of passes ``env._walk`` made."""
    calls = passes = 0

    def profile(frame, event, arg):
        nonlocal calls, passes
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1
        elif event == "c_call" and frame.f_code is WALK and getattr(arg, "__name__", None) == "argmax":
            passes += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        out = fn(*args, **kwargs)
    finally:
        sys.setprofile(previous)
    return out, calls, passes


@pytest.fixture(scope="module", params=sorted(STEP_BUDGET))
def desk_run(request, tmp_path_factory):
    """A 30-step desk run in one advantage mode, into a run directory, with
    the package calls and walk passes of each step and the tables each
    advantage call got."""
    step_calls, step_passes, advantage_calls = [], [], []
    train_step = trainer.train_step

    def counted_step(*args, **kwargs):
        out, calls, passes = package_calls(train_step, *args, **kwargs)
        step_calls.append(calls)
        step_passes.append(passes)
        return out

    def recorded(mode, fn):
        def call(rewards, *args):
            advantage_calls.append((mode, rewards.shape))
            return fn(rewards, *args)

        return call

    out_dir = tmp_path_factory.mktemp(f"desk-{request.param}")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "train_step", counted_step)
        mp.setattr(advantage, "count_advantage", recorded("count", advantage.count_advantage))
        mp.setattr(advantage, "std_advantage", recorded("std", advantage.std_advantage))
        trainer.run(RunConfig(**DESK, advantage_mode=request.param), out_dir=out_dir)
    return request.param, out_dir, step_calls, step_passes, advantage_calls


@pytest.fixture(scope="module")
def eval_batch(desk_run):
    """The package calls and walk passes of one 256-sample eval of the desk
    run's last checkpoint."""
    out_dir = desk_run[1]
    argv = ["eval", "--checkpoint", str(out_dir / "checkpoints" / "step_00030"), "--n-samples", "256", "--k", "1,4"]
    code, calls, passes = package_calls(cli.main, argv)
    assert code == cli.EXIT_OK
    return calls, passes


def test_one_advantage_call_per_step(desk_run):
    mode, _, _, _, advantage_calls = desk_run
    assert advantage_calls == [(mode, (20, 8))] * DESK["steps"]


def test_calls_per_training_step_within_budget(desk_run):
    mode, _, step_calls, _, _ = desk_run
    assert len(step_calls) == DESK["steps"]
    mean = sum(step_calls) / len(step_calls)
    assert mean <= STEP_BUDGET[mode], f"{mean:.1f} calls per {mode} step; the budget is {STEP_BUDGET[mode]}"


def test_walk_passes_per_training_step_within_budget(desk_run):
    mode, _, _, step_passes, _ = desk_run
    assert len(step_passes) == DESK["steps"] and min(step_passes) > 0
    mean = sum(step_passes) / len(step_passes)
    budget = STEP_PASS_BUDGET[mode]
    assert mean <= budget, f"{mean:.1f} walk passes per {mode} step; the budget is {budget}"


@pytest.mark.parametrize("desk_run", ["count"], indirect=True)
def test_calls_per_eval_batch_within_budget(eval_batch):
    calls, _ = eval_batch
    assert calls <= EVAL_BUDGET, f"{calls} calls for one eval batch; the budget is {EVAL_BUDGET}"


@pytest.mark.parametrize("desk_run", ["count"], indirect=True)
def test_walk_passes_per_eval_batch_within_budget(eval_batch):
    _, passes = eval_batch
    assert 0 < passes <= EVAL_PASS_BUDGET, f"{passes} walk passes for one eval batch; the budget is {EVAL_PASS_BUDGET}"
