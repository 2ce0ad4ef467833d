"""``env.sample_batch`` against the environment's exact law.

Every other sampler test compares the walk with ``tests/reference.py``'s
token sampler on the same uniforms, so a misreading of the rules that both
share passes them all. Here each problem's sampled (length, outcome) counts
are checked against ``reference.outcome_law``, a dynamic program that
samples nothing, by a chi-square goodness-of-fit test. The keys are fixed,
so the test is deterministic; they were chosen before its first run.
"""

import math

import numpy as np
import pytest

from conciserl.core import RunConfig
from conciserl.env import initial_policy, make_problem_bank, sample_batch
from conciserl.trainer import run
from tests.reference import outcome_law

ROLLOUTS = 6_000  # per problem
MIN_EXPECTED = 5.0  # bins expected below this are pooled
MIN_P = 1e-4


def chi_square_sf(x: float, df: int) -> float:
    """P(X >= x) for X chi-square with ``df`` >= 1 degrees of freedom: the
    regularized upper incomplete gamma Q(df / 2, x / 2) in its closed forms
    at integer and half-integer order."""
    h = x / 2
    if df % 2:
        p, term, order = math.erfc(math.sqrt(h)), math.exp(-h) * math.sqrt(h) / math.gamma(1.5), 1.5
    else:
        p, term, order = 0.0, math.exp(-h), 1.0
    for _ in range((df - 1) // 2 if df % 2 else df // 2):
        p += term
        term *= h / order
        order += 1
    return p


def fit_p_value(observed: np.ndarray, expected: np.ndarray) -> float:
    """The chi-square p-value of ``observed`` counts against ``expected``
    ones, after pooling every bin expected below ``MIN_EXPECTED`` into one
    (and that one, if still below it, into the smallest other bin). A count
    in a bin of probability 0 fails outright."""
    assert not observed[expected == 0].any(), "an outcome the law gives probability 0 was sampled"
    small = expected < MIN_EXPECTED
    obs = np.append(observed[~small], observed[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    if exp[-1] < MIN_EXPECTED:
        i = exp[:-1].argmin()
        obs[i], exp[i] = obs[i] + obs[-1], exp[i] + exp[-1]
        obs, exp = obs[:-1], exp[:-1]
    if len(exp) == 1:
        return 1.0
    return chi_square_sf(float(((obs - exp) ** 2 / exp).sum()), len(exp) - 1)


@pytest.mark.parametrize(
    "x, df, p",
    [(3.841458820694124, 1, 0.05), (6.634896601021214, 1, 0.01), (5.991464547107979, 2, 0.05),
     (11.070497693516351, 5, 0.05), (124.34211340400407, 100, 0.05), (0.0, 3, 1.0)],
)
def test_chi_square_sf_at_known_quantiles(x, df, p):
    assert chi_square_sf(x, df) == pytest.approx(p, rel=1e-9, abs=1e-15)


BANK = make_problem_bank(20, (1, 10), 0)
IDS = [p.id for p in BANK]


def trained_desk_policy():
    return run(RunConfig(group_size=8, steps=300, l_max=1024, seed=0)).policy


# (policy, l_max, key): the initial desk policy; a more verbose one whose
# rollouts reach generator chunks and are often truncated; the policy of the
# seed-0 desk run after its 300 steps.
POLICIES = {
    "initial": (lambda: initial_policy(IDS, 10, answer_logit=-3.0), 1024, (2701,)),
    "verbose_l_max_40": (lambda: initial_policy(IDS, 10, answer_logit=-4.0), 40, (2702,)),
    "trained_desk": (trained_desk_policy, 1024, (2703,)),
}


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_sample_batch_follows_the_exact_law(name):
    make_policy, l_max, key = POLICIES[name]
    policy = make_policy()
    batch = sample_batch(policy, BANK, ROLLOUTS, l_max, key)
    outcome = np.where(batch.truncated, 2, np.where(batch.correct, 0, 1))
    bins = (batch.lengths - 1) * 3 + outcome
    logp = policy.log_probs()
    p_values = {}
    for p, problem in enumerate(BANK):
        law = outcome_law(logp[policy.problem_index(problem.id)], problem, l_max).ravel()
        assert law.sum() == pytest.approx(1.0, abs=1e-9)
        observed = np.bincount(bins[p], minlength=law.size)
        p_values[problem.id] = fit_p_value(observed, ROLLOUTS * law)
    assert min(p_values.values()) >= MIN_P, p_values
    if name == "verbose_l_max_40":
        assert 0.05 < batch.truncated.mean() < 0.95 and (batch.lengths > 16).mean() > 0.1
