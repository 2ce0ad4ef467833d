"""Shared domain types and the run configuration.

All types here are immutable value objects; they validate their own
invariants on construction and are safe to copy across threads.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

import numpy as np

ANSWERS = ("A", "B")
ADVANTAGE_MODES = ("count", "std")

# Slack for float log-probabilities: log-softmax is mathematically <= 0 but
# may land a hair above zero in floating point.
_LOGP_TOL = 1e-9


class ConfigError(ValueError):
    """One or more RunConfig fields violate their constraints."""

    def __init__(self, errors: Iterable[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class InvariantViolation(ValueError):
    """Input data contradicts itself or an invariant of the method."""


@dataclass(frozen=True)
class ProblemSpec:
    """A synthetic verifiable task.

    ``difficulty`` is the minimal number of WORK tokens a correct trace must
    contain, so the shortest correct response has ``difficulty + 1`` tokens.
    """

    id: str
    difficulty: int
    correct_answer: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("problem id must be non-empty")
        if not isinstance(self.difficulty, int) or self.difficulty < 1:
            raise ValueError(f"difficulty must be a positive integer, got {self.difficulty!r}")
        if self.correct_answer not in ANSWERS:
            raise ValueError(f"correct_answer must be one of {ANSWERS}, got {self.correct_answer!r}")

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class Rollout:
    """One sampled trajectory under a behavior-policy snapshot, as a scalar
    record.

    The library samples, shapes and trains on columnar ``RolloutGroup``s
    and builds no ``Rollout``; the record is the unit of the scalar reference
    sampler the tests check ``trainer.sample_batch`` against.
    ``behavior_logps`` are the log-probabilities (nats) of each emitted token
    under the policy that sampled it.
    """

    problem_id: str
    actions: tuple[int, ...]
    behavior_logps: tuple[float, ...]
    length: int
    correct: bool
    truncated: bool

    def __post_init__(self) -> None:
        # tuple() of a tuple is the tuple itself: the sampler's output is
        # kept as it is, other sequences are frozen.
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(self, "behavior_logps", tuple(self.behavior_logps))
        if self.length < 1:
            raise ValueError("rollout length must be >= 1")
        if self.length != len(self.actions) or self.length != len(self.behavior_logps):
            raise ValueError(
                f"length {self.length} does not match actions ({len(self.actions)}) "
                f"/ behavior_logps ({len(self.behavior_logps)})"
            )
        if self.truncated and self.correct:
            raise ValueError("a truncated rollout cannot be correct")
        # sum() and max() run in C: the sum is non-finite when an entry is,
        # the max exceeds the slack when an entry does. The loop only names
        # the bad entry (and clears a sum that merely overflowed).
        logps = self.behavior_logps
        if not (math.isfinite(sum(logps)) and max(logps) <= _LOGP_TOL):
            for lp in logps:
                if not math.isfinite(lp) or lp > _LOGP_TOL:
                    raise ValueError(f"behavior log-probabilities must be finite and <= 0, got {lp}")


# RolloutGroup's columns and their dtypes.
_GROUP_COLUMNS = (
    ("lengths", np.intp),
    ("correct", bool),
    ("truncated", bool),
    ("actions", np.intp),
    ("states", np.intp),
    ("behavior_logps", float),
)


@dataclass(frozen=True, eq=False)
class RolloutGroup:
    """The G rollouts sampled for one problem from one policy snapshot, as
    columns.

    Rollout i owns the ``lengths[i]`` tokens that follow those of rollouts
    ``0..i-1`` in the per-token columns. A token's state is the number of
    WORK tokens before it in its rollout, capped at the policy's ``w_cap``;
    ``behavior_logps`` are the log-probabilities (nats) of each token under
    the policy that sampled it, constants rather than functions of the
    current parameters. The columns are frozen on construction, and a group
    compares equal only to itself.
    """

    problem_id: str
    lengths: np.ndarray         # (G,) tokens per rollout
    correct: np.ndarray         # (G,) bool
    truncated: np.ndarray       # (G,) bool
    actions: np.ndarray         # (T,)
    states: np.ndarray          # (T,) WORK count before each token, capped
    behavior_logps: np.ndarray  # (T,)

    def __post_init__(self) -> None:
        for name, dtype in _GROUP_COLUMNS:
            column = np.asarray(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        g, n = len(self.lengths), len(self.actions)
        if g < 1:
            raise ValueError("a rollout group must contain at least one rollout")
        if not len(self.correct) == len(self.truncated) == g:
            raise ValueError("lengths, correct and truncated must have one entry per rollout")
        if not len(self.states) == len(self.behavior_logps) == n:
            raise ValueError("actions, states and behavior_logps must have one entry per token")
        if self.lengths.min() < 1:
            raise ValueError("rollout length must be >= 1")
        if self.lengths.sum() != n:
            raise ValueError(f"rollout lengths sum to {self.lengths.sum()}, not the token count {n}")
        if np.any(self.truncated & self.correct):
            raise ValueError("a truncated rollout cannot be correct")
        logps = self.behavior_logps
        if not (np.isfinite(logps).all() and logps.max() <= _LOGP_TOL):
            lp = logps[~(np.isfinite(logps) & (logps <= _LOGP_TOL))][0]
            raise ValueError(f"behavior log-probabilities must be finite and <= 0, got {lp}")

    @property
    def size(self) -> int:
        return len(self.lengths)

    @property
    def correct_count(self) -> int:
        return int(np.count_nonzero(self.correct))


@dataclass(frozen=True)
class RunConfig:
    """Hyperparameters for one training run.

    Defaults for alpha, r_pen, eps_low/eps_high, group_size and l_max follow
    the published training setup; learning_rate and the bank-shape fields are
    desk-scale choices for the tabular environment.
    """

    alpha: float = 0.1
    r_pen: float = 0.5
    epsilon_adv: float = 1e-6
    group_size: int = 16
    eps_low: float = 0.2
    eps_high: float = 0.28
    l_max: int = 16384
    w_cap: int = 10
    learning_rate: float = 2000.0
    steps: int = 300
    seed: int = 0
    advantage_mode: str = "count"
    # Problem-bank shape (used when the caller does not supply a bank).
    n_problems: int = 20
    d_min: int = 1
    d_max: int = 10
    # Initial logit offset on the two answer actions. Negative values start
    # the policy verbose, mimicking an overthinking base model.
    init_answer_logit: float = -3.0
    checkpoint_every: int = 10

    def __post_init__(self) -> None:
        """Reject the config unless every field constraint holds.

        Collects every violation (by field name) into a single ConfigError,
        so no invalid config can exist.
        """
        errors = [
            f"{f.name} must be finite"
            for f in dataclasses.fields(self)
            if f.type == "float" and not math.isfinite(getattr(self, f.name))
        ]
        if self.alpha < 0:
            errors.append("alpha must be >= 0")
        if not 0 <= self.r_pen:
            errors.append("r_pen must be >= 0")
        if self.r_pen >= 1:
            errors.append("r_pen must be < 1")
        if self.epsilon_adv <= 0:
            errors.append("epsilon_adv must be > 0")
        if self.group_size < 2:
            errors.append("group_size must be >= 2")
        if self.eps_low <= 0:
            errors.append("eps_low must be > 0")
        if self.eps_high <= 0:
            errors.append("eps_high must be > 0")
        if not self.eps_low < self.eps_high:
            errors.append("eps_low < eps_high required")
        if self.l_max < 1:
            errors.append("l_max must be >= 1")
        if self.w_cap < 1:
            errors.append("w_cap must be >= 1")
        if self.learning_rate <= 0:
            errors.append("learning_rate must be > 0")
        if self.steps < 0:
            errors.append("steps must be >= 0")
        if self.seed < 0:
            errors.append("seed must be >= 0")
        if self.advantage_mode not in ADVANTAGE_MODES:
            errors.append(f"advantage_mode must be one of {ADVANTAGE_MODES}")
        if self.n_problems < 1:
            errors.append("n_problems must be >= 1")
        if not 1 <= self.d_min <= self.d_max:
            errors.append("1 <= d_min <= d_max required")
        if self.d_max > self.w_cap:
            errors.append("d_max must be <= w_cap")
        if self.checkpoint_every < 1:
            errors.append("checkpoint_every must be >= 1")
        if errors:
            raise ConfigError(errors)

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _coerce(name: str, raw: str) -> Any:
    kind = _FIELD_TYPES[name]
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def load_config(path: str | Path) -> RunConfig:
    """Load a RunConfig from a flat ``key = value`` text file.

    Blank lines and ``#`` comments are ignored; unknown keys are an error.
    """
    overrides: dict[str, Any] = {}
    errors: list[str] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected key=value, got {line!r}")
            continue
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELD_TYPES:
            errors.append(f"unknown config key: {key}")
            continue
        try:
            overrides[key] = _coerce(key, raw)
        except ValueError:
            errors.append(f"bad value for {key}: {raw!r}")
    if errors:
        raise ConfigError(errors)
    return RunConfig(**overrides)


def save_config(config: RunConfig, path: str | Path) -> None:
    """Write a config in the same flat key=value format load_config reads."""
    lines = [f"{k} = {v}" for k, v in config.to_dict().items()]
    Path(path).write_text("\n".join(lines) + "\n")
