"""Call and pass budgets that host noise cannot move.

A call budget caps the Python function calls made in ``conciserl``'s own
source (``sys.setprofile`` "call" events, numpy's Python wrappers excluded).
A pass budget caps the passes of the sampler's walk (``env._walk``'s
``ndarray.nonzero`` "c_call" events, one per pass of either form), and a
scan budget its scans of whole rows (its ``ndarray.argmax`` events: one per
first-chunk pass that has a rollout keeping its state, one per pass over a
generator's chunk). Each holds on any host and numpy version. A budget is
its measured value plus 10%, so per-group Python creeping back into the
training step or the ``eval`` batch, a walk that takes more passes, or
full-width scans coming back where the cursor settles rollouts, fails here
on the first run. A change that raises one says why in CHANGES.md, as for
any changed bound.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import conciserl
from conciserl import advantage, cli, env, trainer
from conciserl.core import ProblemSpec, RunConfig
from conciserl.env import Action, TabularPolicy
from tests.reference import columns, sample_batch

PACKAGE = str(Path(conciserl.__file__).parent)
DESK = dict(group_size=8, l_max=1024, steps=30)  # 20 problems, a checkpoint every 10 steps
# Mean calls per training step of a 30-step desk run, by advantage mode
# (measured: count 437.9, std 414.3).
STEP_BUDGET = {"count": 481, "std": 455}
# Mean walk passes per training step of that run (measured: count 24.1, std 53.8).
STEP_PASS_BUDGET = {"count": 26.5, "std": 59.1}
# Calls of one `conciserl eval --n-samples 256 --k 1,4` on that run's last
# checkpoint, eval_sweep's shape (measured: 4,916).
EVAL_BUDGET = 5340
# Walk passes of that eval (measured: 110).
EVAL_PASS_BUDGET = 121
# Full-width scans of the converged 20 x 256 batch of `converged_batch`
# (measured: 0; the policy keeps no rollout in its state).
CONVERGED_SCAN_BUDGET = 0
WALK = env._walk.__code__


def package_calls(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, the number of calls made in ``conciserl``'s
    source while it ran (``fn``'s own included when it lives there), and the
    number of passes and of full-width scans ``env._walk`` made."""
    calls = passes = scans = 0

    def profile(frame, event, arg):
        nonlocal calls, passes, scans
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1
        elif event == "c_call" and frame.f_code is WALK:
            name = getattr(arg, "__name__", None)
            passes += name == "nonzero"
            scans += name == "argmax"

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        out = fn(*args, **kwargs)
    finally:
        sys.setprofile(previous)
    return out, calls, passes, scans


@pytest.fixture(scope="module", params=sorted(STEP_BUDGET))
def desk_run(request, tmp_path_factory):
    """A 30-step desk run in one advantage mode, into a run directory, with
    the package calls and walk passes of each step and the tables each
    advantage call got."""
    step_calls, step_passes, advantage_calls = [], [], []
    train_step = trainer.train_step

    def counted_step(*args, **kwargs):
        out, calls, passes, _ = package_calls(train_step, *args, **kwargs)
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
    code, calls, passes, _ = package_calls(cli.main, argv)
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


def certain_policy(ids, w_cap, actions):
    """A policy whose rows each put all their mass on one action:
    ``actions[i][w]`` in state w of problem i (exp(-1000) is 0.0, so every
    other action has probability exactly 0)."""
    logits = np.full((len(ids), w_cap + 1, 4), -1000.0)
    for i, row in enumerate(actions):
        logits[i, np.arange(w_cap + 1), row] = 0.0
    return TabularPolicy(ids, w_cap, logits)


def test_one_pass_and_one_scan_event_each():
    # Three problems whose walks are known token by token, in one block:
    # "a" works 3 times and answers, "b" fills until l_max truncates it and
    # "c" works 18 times and answers. First chunk, 17 passes: at pass 1 "b"
    # keeps its state and scans to the sentinel (scan 1), "a" answers at
    # pass 4, and "c" works through columns 0-15 and reads the sentinel at
    # pass 17. The generator's 24-wide chunk, 3 passes and 3 scans: "b"
    # fills to its sentinel, "c" works twice and answers.
    w_cap, l_max = 20, 40
    states = np.arange(w_cap + 1)
    actions = [
        np.where(states < 3, Action.WORK, Action.ANSWER_A),
        np.full(w_cap + 1, Action.FILLER),
        np.where(states < 18, Action.WORK, Action.ANSWER_B),
    ]
    policy = certain_policy(("a", "b", "c"), w_cap, actions)
    bank = [ProblemSpec("a", 3, "A"), ProblemSpec("b", 1, "A"), ProblemSpec("c", 18, "B")]
    batch, _, passes, scans = package_calls(env.sample_batch, policy, bank, 2, l_max, (0,))
    assert columns(batch) == columns(sample_batch(policy, bank, 2, l_max, (0,)))
    assert batch.lengths.tolist() == [[4, 4], [40, 40], [19, 19]]
    assert (passes, scans) == (17 + 3, 1 + 3)


def converged_batch():
    """The converged eval batch of ``TestSampleBatchMemory``: 20 x 256
    rollouts of a policy that works up to the difficulty and then answers
    right, at logits of +-8."""
    bank = env.make_problem_bank(20, (1, 10), 0)
    logits = np.full((20, 11, 4), -8.0)
    for i, p in enumerate(bank):
        logits[i, : p.difficulty, Action.WORK] = 8.0
        logits[i, p.difficulty :, Action.ANSWER_A if p.correct_answer == "A" else Action.ANSWER_B] = 8.0
    return TabularPolicy([p.id for p in bank], 10, logits), bank, 256, 1024, (0,)


def test_full_width_scans_of_a_converged_batch_within_budget():
    batch, _, passes, scans = package_calls(env.sample_batch, *converged_batch())
    assert batch.correct.all() and passes > 0
    assert scans <= CONVERGED_SCAN_BUDGET, f"{scans} full-width scans; the budget is {CONVERGED_SCAN_BUDGET}"
