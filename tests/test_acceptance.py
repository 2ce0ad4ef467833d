"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line for its criterion. The training
dynamics criteria share one set of ten desk-scale runs via a module fixture.
"""

import math

import numpy as np
import pytest

from conciserl.advantage import advantage_gap, count_advantage
from conciserl.buffer import ExperienceBuffer
from conciserl.core import ProblemSpec, RunConfig
from conciserl.env import min_correct_length
from conciserl.metrics import (
    ipt,
    avg_delta,
    length_cv,
    majority_at_k,
    overthinking_counts,
    quintile_sizes,
    TraceRecord,
)
from conciserl.objective import surrogate
from conciserl.rewards import shape
from conciserl.trainer import run, sample_batch
from tests.reference import sample_rollout
from tests.test_buffer import group
from tests.test_metrics import MATH_COMPRESSED, MATH_VANILLA, OOD_TRAINED, OOD_VANILLA
from tests.test_objective import cell_ratios, random_batch

N_SEEDS = 10


def desk_config(**overrides):
    base = dict(group_size=8, steps=300, l_max=1024)
    return RunConfig(**{**base, **overrides})


def report(criterion, ok):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed"


@pytest.fixture(scope="module")
def count_runs():
    return [run(desk_config(seed=s)) for s in range(N_SEEDS)]


def test_01_metric_oracle_math_tables():
    tok = avg_delta([(c[2], v[2]) for c, v in zip(MATH_COMPRESSED, MATH_VANILLA)])
    acc = avg_delta([(c[1], v[1]) for c, v in zip(MATH_COMPRESSED, MATH_VANILLA)])
    vanilla_ipt = float(np.mean([ipt(a, t) for _, a, t in MATH_VANILLA]))
    ok = (
        abs(tok - -50.01) <= 0.05
        and abs(acc - -4.19) <= 0.05
        and abs(vanilla_ipt - 7.23) <= 0.01
    )
    report("1 (in-domain metric oracle)", ok)


def test_02_metric_oracle_ood_tables():
    vanilla_ipt = float(np.mean([ipt(a, t) for _, a, t in OOD_VANILLA]))
    tok = avg_delta([(m[2], v[2]) for m, v in zip(OOD_TRAINED, OOD_VANILLA)])
    ok = abs(vanilla_ipt - 9.01) <= 0.01 and abs(tok - -50.10) <= 0.05
    report("2 (out-of-domain metric oracle)", ok)


def test_03_buffer_properties():
    rng = np.random.default_rng(0)
    ok = True
    # monotone and identity under 10^4 random updates
    buf = ExperienceBuffer.init({"a", "b", "c"}, 1000)
    for _ in range(10_000):
        pid = ("a", "b", "c")[int(rng.integers(3))]
        before = buf.entries()
        specs = [
            (int(rng.integers(1, 1001)), bool(rng.random() < 0.4))
            for _ in range(3)
        ]
        buf.update(group(pid, specs))
        after = buf.entries()
        ok &= all(after[k] <= before[k] for k in after)
        if not any(correct for _, correct in specs):
            ok &= after == before
    # merge algebra on random triples
    for _ in range(300):
        bufs = [
            ExperienceBuffer({p: int(rng.integers(1, 101)) for p in "xyz"}, 100)
            for _ in range(3)
        ]
        a, b, c = bufs
        ok &= a.merge(b) == b.merge(a)
        ok &= a.merge(b).merge(c) == a.merge(b.merge(c))
        ok &= a.merge(a) == a
    report("3 (buffer property suite)", ok)


def test_04_reward_tier_exactness():
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(100):
        l_star = int(rng.integers(2, 5000))
        alpha = float(rng.uniform(0, 0.5))
        r_pen = float(rng.uniform(0, 0.999))
        thr = l_star * (1 + alpha)
        for length in (l_star - 1, l_star, math.floor(thr), math.ceil(thr) + 1):
            if length < 1:
                continue
            for correct in (True, False):
                got = shape(length, correct, thr, r_pen).value
                want = 0.0 if not correct else (1.0 if length <= thr else r_pen)
                ok &= got == want and got in (0.0, r_pen, 1.0)
    report("4 (reward tier exactness)", ok)


def test_05_advantage_gap_identity():
    rng = np.random.default_rng(2)
    eps = 1e-6
    ok = True
    for _ in range(10_000):
        g = int(rng.integers(3, 12))
        r_pen = float(rng.uniform(0, 0.99))
        rewards = list(rng.choice([0.0, r_pen, 1.0], size=g - 2)) + [1.0, r_pen]
        rng.shuffle(rewards)
        cc = sum(1 for r in rewards if r > 0)
        adv = count_advantage(rewards, cc, eps)
        gap = adv[rewards.index(1.0)] - adv[rewards.index(r_pen)]
        expected = advantage_gap(r_pen, cc, eps)
        ok &= abs(gap - expected) <= 1e-12 * abs(expected)
    report("5 (advantage-gap identity)", ok)


def test_06_gradient_vs_finite_differences():
    h = 1e-5
    eps_low, eps_high = 0.2, 0.28
    checked = 0
    attempt = 0
    ok = True
    while checked < 100 and attempt < 400:
        attempt += 1
        rng = np.random.default_rng(10_000 + attempt)
        batch, policy = random_batch(rng, mode="count" if attempt % 2 else "std")
        # resample batches with any token within O(h) of a clip kink,
        # where the objective is not differentiable
        ratio = cell_ratios(batch[0], policy)
        near_kink = np.any(
            (np.abs(ratio - (1 - eps_low)) < 50 * h) | (np.abs(ratio - (1 + eps_high)) < 50 * h)
        )
        if near_kink:
            continue
        checked += 1
        _, grad = surrogate(*batch, policy, eps_low, eps_high)
        num = np.zeros_like(grad)
        it = np.nditer(policy.logits, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            bumped = policy.copy()
            bumped.logits[idx] += h
            up, _ = surrogate(*batch, bumped, eps_low, eps_high)
            bumped.logits[idx] -= 2 * h
            down, _ = surrogate(*batch, bumped, eps_low, eps_high)
            num[idx] = (up - down) / (2 * h)
        scale = max(np.abs(num).max(), 1e-8)
        ok &= np.abs(grad - num).max() / scale < 1e-5
    ok &= checked >= 100
    report("6 (analytic gradient vs finite differences)", ok)


def _final_accuracy_per_problem(result, config):
    """Fresh-batch accuracy per problem under the final (frozen) policy."""
    batch = sample_batch(
        result.policy.copy(), result.bank, config.group_size, config.l_max,
        (config.seed, config.steps + 1),
    )
    return dict(zip(batch.problem_ids, batch.correct.mean(axis=1).tolist()))


def test_07_buffer_converges_to_oracle(count_runs):
    passes = 0
    for s, result in enumerate(count_runs):
        config = desk_config(seed=s)
        acc = _final_accuracy_per_problem(result, config)
        run_ok = True
        for problem in result.bank:
            if acc[problem.id] > 0.9:
                floor = min_correct_length(problem)
                bound = math.ceil((1 + config.alpha) * floor)
                run_ok &= result.buffer.entry(problem.id) <= bound
        passes += run_ok
    report(f"7 (buffer near analytic minimum, {passes}/{N_SEEDS} seeds)", passes >= 8)


def test_08_directional_dynamics(count_runs):
    passes = 0
    gap_passes = 0
    for result in count_runs:
        first, last = result.logs[0], result.logs[-1]
        passes += (
            last.batch_mean_length <= 0.5 * first.batch_mean_length
            and last.batch_accuracy >= first.batch_accuracy
        )
        # gap invariant, from the first step at which every problem has a
        # recorded solution (before that the buffer mean still carries the
        # l_max initialization for unsolved problems)
        n_problems = len(result.bank)
        gated = [log for log in result.logs if log.solved_count == n_problems]
        start = result.logs.index(gated[0]) if gated else len(result.logs)
        gap_ok = all(
            log.mean_shortest_correct <= log.batch_mean_length
            for log in result.logs[start:]
        )
        gap_passes += gap_ok
    ok = passes >= 8 and gap_passes >= 8
    report(
        f"8 (halved length / kept accuracy {passes}/{N_SEEDS}, gap invariant {gap_passes}/{N_SEEDS})",
        ok,
    )


def test_09_ablation_directions(count_runs):
    collapse_wins = 0
    std_wins = 0
    for s, base in enumerate(count_runs):
        no_pen = run(desk_config(seed=s, r_pen=0.0))
        std = run(desk_config(seed=s, advantage_mode="std"))
        collapse_wins += no_pen.logs[-1].batch_accuracy < base.logs[-1].batch_accuracy
        std_wins += std.logs[-1].batch_mean_length >= base.logs[-1].batch_mean_length
    ok = collapse_wins >= 8 and std_wins >= 8
    report(
        f"9 (r_pen=0 less accurate {collapse_wins}/{N_SEEDS}, std longer {std_wins}/{N_SEEDS})",
        ok,
    )


def test_10_evaluation_protocol_properties():
    ok = True
    # majority@1 == pass@1, exactly, on drawn samples (one vote per problem)
    rng = np.random.default_rng(3)
    bank = [ProblemSpec(f"p{i}", 1 + i % 3, "A" if i % 2 else "B") for i in range(12)]
    from conciserl.env import initial_policy

    policy = initial_policy([p.id for p in bank], 4)
    outcomes, lengths = [], []
    for p in bank:
        r = sample_rollout(policy.log_probs()[policy.problem_index(p.id)], p, rng, l_max=32)
        outcomes.append(r.correct)
        lengths.append(r.length)
    m1, _ = majority_at_k(np.c_[outcomes], np.c_[lengths], 1, np.random.default_rng(0))
    ok &= m1 == sum(outcomes) / len(outcomes)
    # constant-length data has zero length CV
    ok &= length_cv([[7.0] * 5]) == 0.0
    # hand-counted keyword fixture
    counts, _ = overthinking_counts([TraceRecord("p", "Wait\n\nBut wait, hmm", "A", True, 5)])
    ok &= counts["Wait"] == 2 and counts["But"] == 1 and counts["Hmm"] == 1
    ok &= sum(counts.values()) == 4
    # quintile remainder rule over n in 5..13
    for n in range(5, 14):
        sizes = quintile_sizes(n)
        q, r = divmod(n, 5)
        ok &= sizes == [q + 1] * r + [q] * (5 - r)
    report("10 (evaluation-protocol properties)", ok)
