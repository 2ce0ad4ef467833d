"""Experience-guided RL for concise verifiable reasoning.

Library pieces: a per-problem running-minimum experience buffer, three-tier
reward shaping against its adaptive threshold, count-normalized group
advantages, an asymmetric-clipped token-level surrogate with exact gradients
for a tabular softmax policy, a synthetic verifiable environment with an
analytic minimal-length oracle, and the evaluation-metric suite.
"""

from .advantage import advantage_gap, count_advantage, std_advantage
from .buffer import ExperienceBuffer
from .core import (
    ConfigError,
    InvariantViolation,
    ProblemSpec,
    RolloutBatch,
    RunConfig,
    load_config,
    save_config,
)
from .env import (
    Action,
    TabularPolicy,
    initial_policy,
    load_bank,
    make_problem_bank,
    min_correct_length,
    sample_batch,
    save_bank,
)
from .objective import surrogate
from .rewards import RewardTier, ShapedReward, shape, shape_group
from .trainer import RunResult, StepLog, checkpoint, resume, run, train_step

__all__ = [
    "Action",
    "ConfigError",
    "ExperienceBuffer",
    "InvariantViolation",
    "ProblemSpec",
    "RewardTier",
    "RolloutBatch",
    "RunConfig",
    "RunResult",
    "ShapedReward",
    "StepLog",
    "TabularPolicy",
    "advantage_gap",
    "checkpoint",
    "count_advantage",
    "initial_policy",
    "load_bank",
    "load_config",
    "make_problem_bank",
    "min_correct_length",
    "resume",
    "run",
    "sample_batch",
    "save_bank",
    "save_config",
    "shape",
    "shape_group",
    "std_advantage",
    "surrogate",
    "train_step",
]

__version__ = "0.1.0"
