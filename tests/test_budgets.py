"""Call and pass budgets that host noise cannot move.

A call budget caps the Python function calls made in ``conciserl``'s own
source (``sys.setprofile`` "call" events, numpy's Python wrappers excluded).
A pass budget caps the passes of the sampler's walk (``env._walk``'s
"c_call" events of ``ndarray.nonzero``, one per lockstep pass over the first
chunk, and of ``ndarray.argmax``, one per pass over a generator's chunk),
and a scan budget its scans of whole rows (its ``ndarray.argmax`` events;
the first chunk, walked in lockstep one column a pass, scans none). A
doubles budget caps the first-chunk doubles a converged batch computes
(``env._double``'s outputs, up front in ``env._first_chunk`` or a step a
lockstep pass), most of whose rows never read the later columns.
Each holds on any host and numpy version. A
budget is its measured value plus 10%, so per-group Python creeping back
into the training step or the ``eval`` batch, a walk that takes more
passes, or full-width scans coming back into the first chunk, fails here on
the first run. A change that raises one says why in CHANGES.md, as for any
changed bound.
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
# (measured: count 329.9, std 306.3; one more each since sample_batch calls
# the walk through env._sample).
STEP_BUDGET = {"count": 362, "std": 336}
# Mean walk passes per training step of that run (measured: count 30.1, std 59.8).
STEP_PASS_BUDGET = {"count": 33.1, "std": 65.7}
# Calls of one `conciserl eval --n-samples 256 --k 1,4` on that run's last
# checkpoint, eval_sweep's shape (measured: 1,759; 4,911 when every rollout
# that outlived the first chunk got a generator, two `_SeedState` calls each;
# 4,929 when eval sampled through sample_batch and its record).
EVAL_BUDGET = 1935
# Walk passes and full-width scans of that eval (measured: 61 and 44; 140
# and 55 when each 1,024-rollout block took its own lockstep and generator
# stage).
EVAL_PASS_BUDGET = 67
EVAL_SCAN_BUDGET = 48
# Walk passes of the converged 20 x 256 batch of `converged_batch` (measured:
# 11, one lockstep over the whole batch; 43 with a lockstep per block).
CONVERGED_PASS_BUDGET = 12
# Full-width scans of that batch (measured: 0; every rollout ends within the
# first chunk, which scans no row).
CONVERGED_SCAN_BUDGET = 0
# First-chunk doubles that batch computes, up front or a step a pass
# (measured: 33,280, one per live rollout a pass; 53,248 with columns 8-15
# computed for the rollouts live at pass 8, 81,920 with all 16 columns
# computed for every row).
CONVERGED_DOUBLES_BUDGET = 36608
# Generators seeded for eval_sweep's batch: 256 samples of each problem of
# the 300-step seed-0 desk checkpoint, at eval seed 3 (measured: 0; 130, one
# per rollout longer than the first chunk, before the hand-off drew a stepped
# batch's first generator-stage chunk in numpy).
EVAL_SWEEP_GENERATOR_BUDGET = 0
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
            passes += name in ("nonzero", "argmax")
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
    """The package calls, walk passes and full-width scans of one 256-sample
    eval of the desk run's last checkpoint."""
    out_dir = desk_run[1]
    argv = ["eval", "--checkpoint", str(out_dir / "checkpoints" / "step_00030"), "--n-samples", "256", "--k", "1,4"]
    code, calls, passes, scans = package_calls(cli.main, argv)
    assert code == cli.EXIT_OK
    return calls, passes, scans


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
    calls, _, _ = eval_batch
    assert calls <= EVAL_BUDGET, f"{calls} calls for one eval batch; the budget is {EVAL_BUDGET}"


@pytest.mark.parametrize("desk_run", ["count"], indirect=True)
def test_walk_passes_per_eval_batch_within_budget(eval_batch):
    _, passes, _ = eval_batch
    assert 0 < passes <= EVAL_PASS_BUDGET, f"{passes} walk passes for one eval batch; the budget is {EVAL_PASS_BUDGET}"


@pytest.mark.parametrize("desk_run", ["count"], indirect=True)
def test_full_width_scans_per_eval_batch_within_budget(eval_batch):
    _, _, scans = eval_batch
    assert scans <= EVAL_SCAN_BUDGET, f"{scans} full-width scans for one eval batch; the budget is {EVAL_SCAN_BUDGET}"


def certain_policy(ids, w_cap, actions):
    """A policy whose rows each put all their mass on one action:
    ``actions[i][w]`` in state w of problem i (exp(-1000) is 0.0, so every
    other action has probability exactly 0)."""
    logits = np.full((len(ids), w_cap + 1, 4), -1000.0)
    for i, row in enumerate(actions):
        logits[i, np.arange(w_cap + 1), row] = 0.0
    return TabularPolicy(ids, w_cap, logits)


def test_one_pass_and_one_scan_event_each():
    # Three problems whose walks are known token by token, in one batch:
    # "a" works 3 times and answers, "b" fills until l_max truncates it and
    # "c" works 18 times and answers. First chunk, 17 lockstep passes and no
    # scan: "a" answers at pass 4, and "b" and "c" read columns 0-15 and
    # the sentinel at pass 17. The generator's 24-wide chunk, 3 passes and
    # 3 scans: "b" fills to its sentinel, "c" works twice and answers.
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
    assert (passes, scans) == (17 + 3, 0 + 3)


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


def test_walk_passes_of_a_converged_batch_within_budget():
    batch, _, passes, _ = package_calls(env.sample_batch, *converged_batch())
    assert batch.correct.all()
    assert 0 < passes <= CONVERGED_PASS_BUDGET, f"{passes} walk passes; the budget is {CONVERGED_PASS_BUDGET}"


def test_full_width_scans_of_a_converged_batch_within_budget():
    batch, _, passes, scans = package_calls(env.sample_batch, *converged_batch())
    assert batch.correct.all() and passes > 0
    assert scans <= CONVERGED_SCAN_BUDGET, f"{scans} full-width scans; the budget is {CONVERGED_SCAN_BUDGET}"


def test_first_chunk_doubles_of_a_converged_batch_within_budget(monkeypatch):
    # converged rollouts end by token d + 1 <= 11, so a batch that steps its
    # live rollouts' streams a pass draws few of the first chunk's later
    # columns; every first-chunk double, up front or stepped, is one
    # `env._double` output
    doubles = 0
    double = env._double

    def counted(*args):
        nonlocal doubles
        out = double(*args)
        doubles += out.size
        return out

    monkeypatch.setattr(env, "_double", counted)
    batch = env.sample_batch(*converged_batch())
    assert batch.correct.all()
    assert doubles <= CONVERGED_DOUBLES_BUDGET, f"{doubles} first-chunk doubles; the budget is {CONVERGED_DOUBLES_BUDGET}"


def test_generators_of_the_eval_sweep_batch_within_budget(monkeypatch, tmp_path):
    # its 130 rollouts that outlive the first chunk all answer within the
    # hand-off's first generator-stage chunk, which a stepped batch draws in
    # numpy, so none is seeded a generator
    trainer.run(RunConfig(group_size=8, l_max=1024, steps=300, checkpoint_every=300), out_dir=tmp_path)
    policy, buffer, bank, _ = trainer.resume(tmp_path / "checkpoints" / "step_00300")
    built = 0
    seed_state = env._SeedState

    class Counted(seed_state):
        def __init__(self, words):
            nonlocal built
            built += 1
            super().__init__(words)

    monkeypatch.setattr(env, "_SeedState", Counted)
    lengths = env.sample_outcomes(policy, bank, 256, buffer.l_max, (3,)).lengths
    assert (lengths > env._FIRST_CHUNK).sum() == 130
    assert built <= EVAL_SWEEP_GENERATOR_BUDGET, f"{built} generators; the budget is {EVAL_SWEEP_GENERATOR_BUDGET}"
