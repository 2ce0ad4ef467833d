"""Shared domain types and the run configuration.

All types here are immutable value objects, safe to copy across threads;
all but the test reference's ``Rollout`` validate their own invariants on
construction.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator

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


def check_ids(ids: Iterable[Any]) -> tuple[str, ...]:
    """``ids`` as a tuple, or ValueError: bank.tsv, meta.json and .expbuf
    store ids in tab-separated UTF-8 lines, so there must be at least one,
    none may repeat, and each must be a non-empty str free of tabs and line
    breaks that UTF-8 can encode (no lone surrogate such as ``"\\ud800"``)."""
    ids = tuple(ids)
    if not ids:
        raise ValueError("there are no problem ids")
    for pid in ids:  # splitlines() drops "" and splits at every line break
        utf8 = isinstance(pid, str) and pid.encode("utf-8", "replace").decode() == pid  # no lone surrogate
        if not utf8 or "\t" in pid or pid.splitlines() != [pid]:
            raise ValueError(
                f"problem id {pid!r} is not a non-empty str free of tabs and line breaks and encodable as UTF-8"
            )
    if len(set(ids)) != len(ids):
        raise ValueError(f"problem ids repeat {', '.join(sorted({pid for pid in ids if ids.count(pid) > 1}))}")
    return ids


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
        check_ids([self.id])
        # bank.tsv stores the difficulty as an int; a bool would be written as True
        if isinstance(self.difficulty, bool) or not isinstance(self.difficulty, int) or self.difficulty < 1:
            raise ValueError(f"difficulty must be a positive integer, got {self.difficulty!r}")
        if self.correct_answer not in ANSWERS:
            raise ValueError(f"correct_answer must be one of {ANSWERS}, got {self.correct_answer!r}")

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class Rollout:
    """One sampled trajectory as a scalar record, unchecked: the trace of
    ``tests/reference.py``'s token-by-token sampler.

    The library samples, shapes and trains on ``RolloutBatch`` count tables
    and builds no ``Rollout``; the reference checks a trace when it turns
    it into a ``RolloutBatch``. The record stays in ``core`` only because
    ``bench/tracer.py`` reads the name ``core.Rollout``.
    ``behavior_logps`` are the log-probabilities (nats) of each emitted token
    under the policy that sampled it.
    """

    problem_id: str
    actions: tuple[int, ...]
    behavior_logps: tuple[float, ...]
    length: int
    correct: bool
    truncated: bool


@dataclass(frozen=True, eq=False)
class RolloutBatch:
    """The G rollouts sampled for each of P problems from one policy
    snapshot, as one (state, action) count table per rollout.

    ``counts[p, i, w, a]`` is how many tokens of rollout i of problem p took
    action a in state w, the number of WORK tokens before them capped at the
    policy's ``w_cap``. A token's importance ratio depends only on its cell,
    so the table is all the objective needs of a rollout's tokens.
    ``behavior_logp[p]`` is problem p's table of log-probabilities (nats)
    under the policy that sampled the batch, constants rather than functions
    of the current parameters. ``lengths`` is derived from the table. The
    ids (``check_ids``: no problem repeats) and arrays are checked on
    construction, the arrays frozen, and a record compares equal only to
    itself. ``batch[p]``, also by iteration, is problem p's group: a
    one-problem record viewing the checked arrays.
    """

    problem_ids: tuple[str, ...]
    counts: np.ndarray          # (P, G, w_cap + 1, N_ACTIONS) int32
    behavior_logp: np.ndarray   # (P, w_cap + 1, N_ACTIONS)
    correct: np.ndarray         # (P, G) bool
    truncated: np.ndarray       # (P, G) bool
    lengths: np.ndarray = dataclasses.field(init=False)  # (P, G) tokens per rollout

    def __post_init__(self) -> None:
        object.__setattr__(self, "problem_ids", tuple(self.problem_ids))
        given = self.counts
        for name, dtype in (("counts", np.int32), ("behavior_logp", float), ("correct", bool), ("truncated", bool)):
            array = np.asarray(getattr(self, name)).astype(dtype, copy=False)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        counts, logps = self.counts, self.behavior_logp
        if counts.ndim != 4:
            raise ValueError(f"counts must be a (problems, rollouts, states, actions) table, got shape {counts.shape}")
        # A table given as int32 is kept as it is, so only a converted one
        # can differ from what was given.
        if counts is not given and not np.array_equal(counts, given):
            raise ValueError("counts must be whole numbers that fit in int32")
        if (counts.shape[0], *counts.shape[2:]) != logps.shape:
            raise ValueError(f"counts cells {counts.shape[2:]} do not match behavior_logp {logps.shape}")
        if len(self.problem_ids) != len(counts):
            raise ValueError(f"{len(self.problem_ids)} problem ids for {len(counts)} problems")
        if 0 in counts.shape[:2]:
            raise ValueError("a rollout batch must contain at least one rollout of at least one problem")
        check_ids(self.problem_ids)
        if not self.correct.shape == self.truncated.shape == counts.shape[:2]:
            raise ValueError("counts, correct and truncated must have one entry per rollout")
        if (counts < 0).any():
            raise ValueError("counts must be >= 0")
        lengths = counts.sum(axis=(2, 3), dtype=np.intp)
        lengths.flags.writeable = False
        object.__setattr__(self, "lengths", lengths)
        if lengths.min() < 1:
            raise ValueError("rollout length must be >= 1")
        if (self.truncated & self.correct).any():
            raise ValueError("a truncated rollout cannot be correct")
        # min() and max() propagate a NaN, which fails both comparisons.
        if not (logps.min() > -math.inf and logps.max() <= _LOGP_TOL):
            lp = logps[~(np.isfinite(logps) & (logps <= _LOGP_TOL))][0]
            raise ValueError(f"behavior log-probabilities must be finite and <= 0, got {lp}")

    def __len__(self) -> int:
        return len(self.problem_ids)

    def __getitem__(self, p: int) -> "RolloutBatch":
        """Problem p's group, without checking again what was checked."""
        p = range(len(self))[p]  # an IndexError past either end
        group = object.__new__(RolloutBatch)
        vars(group).update({name: value[p : p + 1] for name, value in vars(self).items()})
        return group

    def __iter__(self) -> Iterator["RolloutBatch"]:
        return map(self.__getitem__, range(len(self)))

    @property
    def problem_id(self) -> str:
        """The problem of a one-problem record, such as ``batch[p]``."""
        if len(self) != 1:
            raise ValueError(f"a record of {len(self)} problems has no single problem_id")
        return self.problem_ids[0]


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
        so no invalid config can exist: first every field that is not a
        finite real number or an integer as its type says, then, once all
        are, every range violation.
        """
        errors = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
                errors.append(f"{f.name} must be a real number, got {value!r}")
            elif f.type == "float" and not math.isfinite(value):
                errors.append(f"{f.name} must be finite")
            elif f.type == "int" and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
                errors.append(f"{f.name} must be an integer, got {value!r}")
        if errors:  # the range checks below compare numbers
            raise ConfigError(errors)
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


def load_config(path: str | Path, **overrides: Any) -> RunConfig:
    """Load a RunConfig from a flat ``key = value`` text file.

    Blank lines and ``#`` comments are ignored; unknown and repeated keys
    are an error. ``overrides`` replace the file's values before the config
    is validated, so a flag may mend a value the file gets wrong.
    """
    values: dict[str, Any] = {}
    errors: list[str] = []
    seen: set[str] = set()
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
        if key in seen:
            errors.append(f"line {lineno}: duplicate key {key}")
            continue
        seen.add(key)
        try:
            values[key] = _coerce(key, raw)
        except ValueError:
            errors.append(f"bad value for {key}: {raw!r}")
    if errors:
        raise ConfigError(errors)
    return RunConfig(**{**values, **overrides})


def save_config(config: RunConfig, path: str | Path) -> None:
    """Write a config in the same flat key=value format load_config reads."""
    lines = [f"{k} = {v}" for k, v in config.to_dict().items()]
    Path(path).write_text("\n".join(lines) + "\n")
