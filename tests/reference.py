"""Scalar reference implementations that the tests check the library against.

Nothing in ``conciserl`` calls these: the sampler records what they would
recompute, the objective works on whole count tables, and the eval metrics
on (problem, sample) arrays. They restate the sampler, the task rules and
the clipped term one token or one trace at a time, the objective and its
gradient one token at a time and one group at a time, and majority@k and
length CV one problem at a time over per-sample answers; ``outcome_law``
gives the exact law the sampler draws from, without sampling.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Mapping, Sequence

import numpy as np

from conciserl.core import ProblemSpec, Rollout, RolloutBatch
from conciserl.env import N_ACTIONS, Action, Outcomes, TabularPolicy


def answer_letter(action: int) -> str:
    """The answer letter emitted by an ANSWER_* action."""
    return {Action.ANSWER_A: "A", Action.ANSWER_B: "B"}[Action(action)]


def is_answer(action: int) -> bool:
    return action in (Action.ANSWER_A, Action.ANSWER_B)


def verify_trace(problem: ProblemSpec, actions: Sequence[int], truncated: bool) -> bool:
    """Correctness indicator for a terminated trace."""
    if truncated:
        return False
    if not actions or not is_answer(actions[-1]):
        raise ValueError("trace is not terminated")
    work = sum(1 for a in actions if a == Action.WORK)
    return (
        answer_letter(actions[-1]) == problem.correct_answer
        and work >= problem.difficulty
    )


def verify(problem: ProblemSpec, rollout: Rollout) -> bool:
    """Re-check a rollout's correctness flag from its trace."""
    if not rollout.truncated and not is_answer(rollout.actions[-1]):
        raise ValueError("rollout is not terminated")
    return verify_trace(problem, rollout.actions, rollout.truncated)


def replay_states(actions: Sequence[int], w_cap: int) -> np.ndarray:
    """Work-counter state before each token, replayed through the trace.

    The one-trace reference for the states ``env.sample_batch`` records
    while sampling. Raises on infeasible traces (tokens after an answer).
    """
    states = np.empty(len(actions), dtype=np.intp)
    w = 0
    last = len(actions) - 1
    for i, a in enumerate(actions):
        states[i] = w
        if a == Action.WORK:
            w = min(w + 1, w_cap)
        elif is_answer(a) and i != last:
            raise ValueError(f"token after answer at position {i}")
    return states


def logprob(policy: TabularPolicy, rollout: Rollout) -> np.ndarray:
    """Per-token log-probabilities of the recorded actions under the
    policy's current parameters."""
    pi = policy.problem_index(rollout.problem_id)
    states = replay_states(rollout.actions, policy.w_cap)
    return policy.log_probs()[pi, states, np.array(rollout.actions, dtype=np.intp)]


def token_ratio(new_logp: float, old_logp: float) -> float:
    """Importance ratio pi_theta / pi_theta_old for one token."""
    if not (np.isfinite(new_logp) and np.isfinite(old_logp)):
        raise ValueError("log-probabilities must be finite")
    return float(np.exp(new_logp - old_logp))


def clipped_term(ratio: float, advantage: float, eps_low: float, eps_high: float) -> float:
    """min(ratio * A, clip(ratio, 1 - eps_low, 1 + eps_high) * A)."""
    if not (0 < eps_low < eps_high):
        raise ValueError("need 0 < eps_low < eps_high")
    clipped = min(max(ratio, 1.0 - eps_low), 1.0 + eps_high)
    return min(ratio * advantage, clipped * advantage)


def sample_rollout(
    logp: np.ndarray,
    problem: ProblemSpec,
    rng: np.random.Generator,
    l_max: int,
) -> Rollout:
    """One episode from one problem's ``(w_cap + 1, N_ACTIONS)`` log-prob
    rows, drawing from ``rng`` token by token: the one-rollout reference for
    ``sample_group``, which draws rollout r of a group from
    ``default_rng((*key, r))``."""
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    cum = np.exp(logp).cumsum(axis=1).tolist()
    w_cap = len(logp) - 1
    actions: list[int] = []
    logps: list[float] = []
    w = 0
    truncated = True
    chunk: list[float] = []
    for _ in range(l_max):
        if not chunk:
            chunk = rng.random(64).tolist()[::-1]
        u = chunk.pop()
        a = next((i for i, edge in enumerate(cum[w][:-1]) if u < edge), len(cum[w]) - 1)
        actions.append(a)
        logps.append(float(logp[w, a]))
        if a == Action.WORK:
            w = min(w + 1, w_cap)
        elif is_answer(a):
            truncated = False
            break
    correct = not truncated and verify_trace(problem, actions, truncated)
    return Rollout(problem.id, tuple(actions), tuple(logps), len(actions), correct, truncated)


def group_of(rollouts: Sequence[Rollout], logp_rows: np.ndarray) -> RolloutBatch:
    """The one-problem count-table record of some rollouts of one problem,
    sampled from the ``(w_cap + 1, N_ACTIONS)`` log-prob rows ``logp_rows``:
    each trace's states are replayed, and its tokens counted cell by cell."""
    w_cap = len(logp_rows) - 1
    counts = np.zeros((1, len(rollouts), w_cap + 1, N_ACTIONS), dtype=np.int32)
    for i, r in enumerate(rollouts):
        assert r.length == len(r.actions)
        states = replay_states(r.actions, w_cap)
        assert np.array_equal(logp_rows[states, list(r.actions)], r.behavior_logps)
        np.add.at(counts[0, i], (states, list(r.actions)), 1)
    return RolloutBatch(
        problem_ids=(rollouts[0].problem_id,),
        counts=counts,
        behavior_logp=[logp_rows],
        correct=[[r.correct for r in rollouts]],
        truncated=[[r.truncated for r in rollouts]],
    )


def stack(groups: Sequence[RolloutBatch]) -> RolloutBatch:
    """One record of the rows of some records of one group size, in order."""
    arrays = ("counts", "behavior_logp", "correct", "truncated")
    return RolloutBatch(
        tuple(pid for g in groups for pid in g.problem_ids),
        *(np.concatenate([getattr(g, name) for g in groups]) for name in arrays),
    )


def columns(batch: RolloutBatch) -> tuple:
    """A record's problem ids and every array as a plain list, for comparing
    records (a record compares equal only to itself)."""
    return tuple(
        getattr(batch, f.name) if f.name == "problem_ids" else getattr(batch, f.name).tolist()
        for f in dataclasses.fields(batch)
    )


def token_columns(batch: RolloutBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One entry per token of a record's table: its problem row, rollout,
    state and action, problem after problem and rollout after rollout (the
    tokens of a rollout in cell order)."""
    cells = np.nonzero(batch.counts)
    n = batch.counts[cells]
    return tuple(np.repeat(c, n) for c in cells)


def sample_group(
    logp: np.ndarray,
    problem: ProblemSpec,
    key: tuple[int, ...],
    group_size: int,
    l_max: int,
) -> RolloutBatch:
    """``group_size`` episodes of one problem, sampled token by token, as a
    one-problem record.

    ``logp`` is the problem's ``(w_cap + 1, N_ACTIONS)`` slice of
    ``TabularPolicy.log_probs()``; rollout r draws from
    ``default_rng((*key, r))`` in chunks of 64 uniforms, each token taking
    the first action whose cumulative probability exceeds its uniform, and
    counts it in the cell of the state it is sampled in. The per-token
    reference for ``env.sample_batch``'s whole-batch walk.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    c = np.exp(logp).cumsum(axis=1).tolist()
    w_cap = len(logp) - 1
    d = problem.difficulty
    want = Action.ANSWER_A if problem.correct_answer == "A" else Action.ANSWER_B

    counts = np.zeros((group_size, w_cap + 1, N_ACTIONS), dtype=np.int32)
    correct: list[bool] = []
    truncated: list[bool] = []
    for r in range(group_size):
        rng = np.random.default_rng((*key, r))
        w = 0
        work = 0
        answered = False
        chunk: list[float] = []
        ci = 0
        for _ in range(l_max):
            if ci == len(chunk):
                chunk = rng.random(64).tolist()
                ci = 0
            u = chunk[ci]
            ci += 1
            row = c[w]
            if u < row[0]:
                a = 0
            elif u < row[1]:
                a = 1
            elif u < row[2]:
                a = 2
            else:
                a = 3
            counts[r, w, a] += 1
            if a == 0:
                work += 1
                if w < w_cap:
                    w += 1
            elif a >= 2:
                answered = True
                break
        truncated.append(not answered)
        correct.append(answered and a == want and work >= d)
    return RolloutBatch((problem.id,), counts[None], logp[None], [correct], [truncated])


def outcome_law(logp: np.ndarray, problem: ProblemSpec, l_max: int) -> np.ndarray:
    """The exact law of one episode of ``problem`` under its
    ``(w_cap + 1, N_ACTIONS)`` log-prob rows ``logp``, sampling nothing: an
    ``(l_max, 3)`` array whose row n - 1 holds the probabilities that the
    episode ends after n tokens with a right answer, with a wrong one, or
    truncated (at n = l_max only).

    FillerCount is an absorbing Markov chain, and this is its token-by-token
    dynamic program: the mass of the running episodes by WORK count, capped
    at ``max(w_cap, difficulty)`` so that the count still says whether an
    answer is right, and moved one token at a time. The policy reads state
    ``min(count, w_cap)``; FILLER keeps the count, WORK raises it and an
    answer ends the episode.
    """
    d = problem.difficulty
    top = max(len(logp) - 1, d)
    right = Action.ANSWER_A if problem.correct_answer == "A" else Action.ANSWER_B
    wrong = Action.ANSWER_A + Action.ANSWER_B - right
    probs = np.exp(logp)[:, [Action.WORK, Action.FILLER, right, wrong]].tolist()
    rows = probs + probs[-1:] * (top + 1 - len(probs))  # by WORK count: those of its state
    law = []
    mass = [1.0] + [0.0] * top  # the running episodes' mass by WORK count
    for _ in range(l_max):
        ends, running = [0.0, 0.0, 0.0], [0.0] * (top + 1)
        for work, (m, (p_work, p_filler, p_right, p_wrong)) in enumerate(zip(mass, rows)):
            ends[0 if work >= d else 1] += m * p_right
            ends[1] += m * p_wrong
            running[work] += m * p_filler
            running[min(work + 1, top)] += m * p_work
        law.append(ends)
        mass = running
    law[-1][2] = sum(mass)
    return np.array(law)


def sample_batch(
    policy: TabularPolicy,
    bank: Sequence[ProblemSpec],
    group_size: int,
    l_max: int,
    key: tuple[int, ...],
) -> RolloutBatch:
    """``env.sample_batch`` one group at a time: problem p's group is
    ``sample_group`` on its policy rows with key ``(*key, p)``."""
    logp = policy.log_probs()
    return stack([
        sample_group(logp[policy.problem_index(problem.id)], problem, (*key, p), group_size, l_max)
        for p, problem in enumerate(bank)
    ])


def sample_outcomes(
    policy: TabularPolicy,
    bank: Sequence[ProblemSpec],
    group_size: int,
    l_max: int,
    key: tuple[int, ...],
) -> Outcomes:
    """``env.sample_outcomes`` token by token: the ``correct``, ``truncated``
    and ``lengths`` of ``sample_batch``'s record."""
    batch = sample_batch(policy, bank, group_size, l_max, key)
    return Outcomes(batch.correct, batch.truncated, batch.lengths)


# The objective and its gradient one token at a time, each group given as a
# (problem index, states, actions, behavior log-probs, advantages) tuple of
# per-token arrays.


def token_terms(batch: RolloutBatch, advantages: np.ndarray, policy: TabularPolicy) -> list[tuple]:
    """The per-group tuples of a record and its ``(P, G)`` advantages: every
    token of a table, carrying its rollout's advantage."""
    problem, rollout, states, actions = token_columns(batch)
    old = batch.behavior_logp[problem, states, actions]
    adv = np.asarray(advantages)[problem, rollout]
    return [
        (policy.problem_index(pid), states[problem == p], actions[problem == p], old[problem == p], adv[problem == p])
        for p, pid in enumerate(batch.problem_ids)
    ]


def reference_surrogate(groups, policy, eps_low, eps_high):
    logp = policy.log_probs()
    total = 0.0
    for index, states, actions, old_logps, advantages in groups:
        ratio = np.exp(logp[index, states, actions] - old_logps)
        clipped = np.clip(ratio, 1.0 - eps_low, 1.0 + eps_high)
        terms = np.minimum(ratio * advantages, clipped * advantages)
        total += terms.sum() / len(terms)
    return total / len(groups)


def reference_gradient(groups, policy, eps_low, eps_high):
    logp = policy.log_probs()
    probs = np.exp(logp)
    grad = np.zeros_like(policy.logits)
    for index, states, actions, old_logps, advantages in groups:
        ratio = np.exp(logp[index, states, actions] - old_logps)
        clipped = np.clip(ratio, 1.0 - eps_low, 1.0 + eps_high)
        unclipped_val = ratio * advantages
        clipped_val = clipped * advantages
        active = unclipped_val <= clipped_val
        weight = np.where(active, unclipped_val, 0.0) / (len(ratio) * len(groups))
        np.add.at(grad, (index, states, actions), weight)
        np.add.at(grad, (index, states), -weight[:, None] * probs[index, states])
    return grad


def surrogate(batch, advantages, policy, eps_low, eps_high):
    """``objective.surrogate`` one token at a time, accumulating the
    gradient with ``np.add.at``."""
    terms = token_terms(batch, advantages, policy)
    return (
        reference_surrogate(terms, policy, eps_low, eps_high),
        reference_gradient(terms, policy, eps_low, eps_high),
    )


def group_loop_surrogate(batch, advantages, policy, eps_low, eps_high):
    """``objective.surrogate`` one group at a time: each group's count table
    weighted cell by cell, the objective a running sum over the groups and
    the gradient rows added group by group. The whole-batch surrogate keeps
    this loop's order of float additions."""
    logp = policy.log_probs()
    probs = np.exp(logp)
    grad = np.zeros_like(policy.logits)
    total = 0.0
    for row, a in enumerate(np.asarray(advantages)):
        p = policy.problem_index(batch.problem_ids[row])
        counts = batch.counts[row]
        n = int(batch.lengths[row].sum())
        ratio = np.exp(logp[p] - batch.behavior_logp[row])
        adv = a[:, None, None]
        unclipped_val = ratio * adv
        clipped_val = np.clip(ratio, 1.0 - eps_low, 1.0 + eps_high) * adv
        total += float((counts * np.minimum(unclipped_val, clipped_val)).sum()) / n
        weight = (counts * np.where(unclipped_val <= clipped_val, unclipped_val, 0.0)).sum(axis=0)
        weight /= n * len(batch)
        grad[p] += weight - probs[p] * weight.sum(axis=-1, keepdims=True)
    return total / len(batch), grad


def majority_at_k(
    samples: Mapping[str, Sequence[tuple[str, int]]],
    truth: Mapping[str, str],
    k: int,
    rng: np.random.Generator,
) -> tuple[float, int]:
    """``metrics.majority_at_k`` over per-sample ``(answer, length)`` votes.

    Problems are taken in sorted-id order; each draws k samples without
    replacement, takes the modal answer with lexicographic tie-breaking and
    scores it against ``truth``. Returns (accuracy, total tokens drawn).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not samples:
        raise ValueError("samples must be non-empty")
    n_correct = 0
    total_tokens = 0
    for pid in sorted(samples):
        pool = samples[pid]
        if len(pool) < k:
            raise ValueError(f"problem {pid!r} has {len(pool)} samples, need >= {k}")
        chosen = rng.choice(len(pool), size=k, replace=False)
        counts = Counter(pool[i][0] for i in chosen)
        total_tokens += sum(pool[i][1] for i in chosen)
        top = max(counts.values())
        winner = min(a for a, c in counts.items() if c == top)
        if winner == truth[pid]:
            n_correct += 1
    return n_correct / len(samples), total_tokens


def choose(rng: np.random.Generator, rows: int, n: int, k: int) -> np.ndarray:
    """``rows`` draws of k of n indices without replacement, one
    ``rng.choice`` call a row, as a ``(rows, k)`` array: the oracle for
    ``metrics._choose``, whose rows hold the same samples in any order."""
    return np.array([rng.choice(n, size=k, replace=False) for _ in range(rows)])


def length_cv(lengths_per_problem: Mapping[str, Sequence[float]]) -> float:
    """``metrics.length_cv`` one problem at a time: the mean of each
    problem's population std / mean of response length."""
    if not lengths_per_problem:
        raise ValueError("need at least one problem")
    cvs = []
    for pid, lengths in lengths_per_problem.items():
        arr = np.asarray(lengths, dtype=float)
        if len(arr) < 2:
            raise ValueError(f"problem {pid!r} needs >= 2 samples")
        mean = arr.mean()
        if mean <= 0:
            raise ValueError(f"problem {pid!r} has non-positive mean length")
        cvs.append(arr.std() / mean)
    return float(np.mean(cvs))


def eval_votes(ids, correct, lengths, answers):
    """The per-sample ``(vote, length)`` pools and the ``truth`` map
    ``majority_at_k`` above scores, from (problem, sample) arrays whose rows
    follow ``ids``: a correct sample votes its problem's answer, a wrong one
    the shared ``"invalid"`` sentinel."""
    samples = {
        pid: [(answer if c else "invalid", n) for c, n in zip(row_c.tolist(), row_n.tolist())]
        for pid, answer, row_c, row_n in zip(ids, answers, correct, lengths)
    }
    return samples, dict(zip(ids, answers))
