"""Experience-guided RL for concise verifiable reasoning.

Library pieces: a per-problem running-minimum experience buffer, three-tier
reward shaping against its adaptive threshold, count-normalized group
advantages, an asymmetric-clipped token-level surrogate with exact gradients
for a tabular softmax policy, a synthetic verifiable environment with an
analytic minimal-length oracle, and the evaluation-metric suite.
"""

from .advantage import AdvantageVector, advantage_gap, count_advantage, std_advantage
from .buffer import ExperienceBuffer
from .core import (
    ConfigError,
    ProblemSpec,
    Rollout,
    RolloutGroup,
    RunConfig,
    load_config,
    save_config,
)
from .env import (
    Action,
    TabularPolicy,
    initial_policy,
    load_bank,
    logprob,
    make_problem_bank,
    min_correct_length,
    sample_rollout,
    save_bank,
    verify,
)
from .objective import TokenBatch, clipped_term, flatten, gradient, surrogate, token_ratio
from .rewards import RewardTier, ShapedReward, shape, shape_group
from .trainer import RunResult, StepLog, checkpoint, resume, run, sample_batch, train_step

__all__ = [
    "Action",
    "AdvantageVector",
    "ConfigError",
    "ExperienceBuffer",
    "ProblemSpec",
    "RewardTier",
    "Rollout",
    "RolloutGroup",
    "RunConfig",
    "RunResult",
    "ShapedReward",
    "StepLog",
    "TabularPolicy",
    "TokenBatch",
    "advantage_gap",
    "checkpoint",
    "clipped_term",
    "count_advantage",
    "flatten",
    "gradient",
    "initial_policy",
    "load_bank",
    "load_config",
    "logprob",
    "make_problem_bank",
    "min_correct_length",
    "resume",
    "run",
    "sample_batch",
    "sample_rollout",
    "save_bank",
    "save_config",
    "shape",
    "shape_group",
    "std_advantage",
    "surrogate",
    "token_ratio",
    "train_step",
    "verify",
]

__version__ = "0.1.0"
