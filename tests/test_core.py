import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conciserl.cli import EXIT_CONFIG, main
from conciserl.core import (
    ConfigError,
    ProblemSpec,
    Rollout,
    RolloutGroup,
    RunConfig,
    load_config,
    save_config,
)

FLOAT_FIELDS = [f.name for f in dataclasses.fields(RunConfig) if f.type == "float"]


def make_rollout(length=3, correct=True, truncated=False, problem_id="p1"):
    actions = [0] * (length - 1) + [2]
    return Rollout(
        problem_id=problem_id,
        actions=tuple(actions),
        behavior_logps=tuple([-1.0] * length),
        length=length,
        correct=correct,
        truncated=truncated,
    )


class TestProblemSpec:
    def test_valid(self):
        p = ProblemSpec("q1", 3, "A")
        assert p.difficulty == 3

    def test_bad_difficulty(self):
        with pytest.raises(ValueError):
            ProblemSpec("q1", 0, "A")

    def test_bad_answer(self):
        with pytest.raises(ValueError):
            ProblemSpec("q1", 1, "C")

    def test_round_trip(self):
        p = ProblemSpec("q1", 3, "B")
        assert ProblemSpec(**p.to_dict()) == p


class TestRollout:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Rollout("p", (0, 2), (-1.0,), 2, False, False)

    def test_truncated_cannot_be_correct(self):
        with pytest.raises(ValueError):
            Rollout("p", (0,), (-1.0,), 1, True, True)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.5], ids=["nan", "inf", "-inf", "0.5"])
    def test_positive_logp_rejected(self, bad):
        # a bad entry past the first token is found and reported
        with pytest.raises(ValueError, match=f"finite and <= 0, got {bad}"):
            Rollout("p", (0, 1, 2), (-1.0, bad, -0.5), 3, False, False)

    def test_slack_above_zero_accepted(self):
        # log-softmax may land a hair above 0 in floating point
        assert Rollout("p", (1, 2), (-0.5, 1e-12), 2, False, False).behavior_logps == (-0.5, 1e-12)

    def test_sequences_frozen_to_tuples(self):
        r = Rollout("p1", [0, 2], [-1.0, -1.0], 2, True, False)
        assert r.actions == (0, 2) and r.behavior_logps == (-1.0, -1.0)
        assert r == make_rollout(length=2) and hash(r) == hash(make_rollout(length=2))


@st.composite
def group_columns(draw):
    """The columns of a valid RolloutGroup, as mutable lists."""
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    g, n = len(lengths), sum(lengths)
    truncated = draw(st.lists(st.booleans(), min_size=g, max_size=g))
    correct = [draw(st.booleans()) and not t for t in truncated]
    return dict(
        lengths=lengths,
        correct=correct,
        truncated=truncated,
        actions=draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
        states=draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)),
        behavior_logps=draw(st.lists(st.floats(-30.0, 0.0), min_size=n, max_size=n)),
    )


BAD_LOGPS = st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(1e-6, 1e300)


class TestRolloutGroup:
    def test_columns_frozen_to_arrays(self):
        g = RolloutGroup("p1", [3, 1], [True, False], [False, False], [0, 0, 2, 3], [0, 1, 2, 0], [-1.0] * 4)
        assert g.size == 2 and g.correct_count == 1
        assert g.lengths.dtype == g.actions.dtype == g.states.dtype == np.intp
        assert g.correct.dtype == g.truncated.dtype == bool and g.behavior_logps.dtype == float
        with pytest.raises(ValueError, match="read-only"):
            g.lengths[0] = 2

    @settings(deadline=None)
    @given(group_columns())
    def test_valid_columns_accepted(self, cols):
        g = RolloutGroup("p", **cols)
        assert g.size == len(cols["lengths"]) and g.correct_count == sum(cols["correct"])

    @settings(deadline=None)
    @given(
        group_columns(),
        st.sampled_from(["token count", "correct and truncated", "logp", "no rollouts"]),
        st.data(),
    )
    def test_malformed_columns_rejected(self, cols, fault, data):
        rollout = data.draw(st.integers(0, len(cols["lengths"]) - 1))
        if fault == "token count":
            cols["lengths"][rollout] += data.draw(st.sampled_from([-1, 1]))
        elif fault == "correct and truncated":
            cols["correct"][rollout] = cols["truncated"][rollout] = True
        elif fault == "logp":
            token = data.draw(st.integers(0, len(cols["actions"]) - 1))
            cols["behavior_logps"][token] = data.draw(BAD_LOGPS)
        else:
            cols = {name: [] for name in cols}
        with pytest.raises(ValueError):
            RolloutGroup("p", **cols)

    def test_slack_above_zero_accepted(self):
        g = RolloutGroup("p", [2], [False], [False], [1, 2], [0, 0], [-0.5, 1e-12])
        assert g.behavior_logps.tolist() == [-0.5, 1e-12]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.5], ids=["nan", "inf", "-inf", "0.5"])
    def test_bad_logp_named(self, bad):
        with pytest.raises(ValueError, match=f"finite and <= 0, got {bad}"):
            RolloutGroup("p", [3], [False], [False], [0, 1, 2], [0, 1, 1], [-1.0, bad, -0.5])


class TestValidateConfig:
    def test_defaults_accepted(self):
        cfg = RunConfig()
        assert cfg.alpha == 0.1
        assert cfg.r_pen == 0.5
        assert cfg.eps_low == 0.2
        assert cfg.eps_high == 0.28
        assert cfg.group_size == 16
        assert cfg.l_max == 16384

    def test_idempotent(self):
        cfg = RunConfig(seed=4)
        assert dataclasses.replace(cfg) == cfg

    def test_r_pen_boundary(self):
        with pytest.raises(ConfigError, match="r_pen must be < 1"):
            RunConfig(r_pen=1.0)

    def test_eps_ordering(self):
        with pytest.raises(ConfigError, match="eps_low < eps_high required"):
            RunConfig(eps_low=0.3, eps_high=0.28)

    def test_all_violations_reported(self):
        try:
            RunConfig(r_pen=1.0, group_size=1, learning_rate=0.0)
        except ConfigError as e:
            text = str(e)
            assert "r_pen" in text and "group_size" in text and "learning_rate" in text
        else:
            pytest.fail("expected ConfigError")

    def test_replace_is_validated(self):
        with pytest.raises(ConfigError, match="group_size"):
            dataclasses.replace(RunConfig(), group_size=1)

    def test_float_fields(self):
        assert FLOAT_FIELDS == [
            "alpha", "r_pen", "epsilon_adv", "eps_low", "eps_high", "learning_rate",
            "init_answer_logit",
        ]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_rejected(name, value, tmp_path):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        RunConfig(**{name: value})
    path = tmp_path / "run.cfg"
    path.write_text(f"{name} = {value}\n")
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        load_config(path)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--alpha", "--r-pen"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_cli_override_rejected(flag, value, tmp_path):
    out = tmp_path / "out"
    assert main(["train", "--out", str(out), "--steps", "1", f"{flag}={value}"]) == EXIT_CONFIG
    assert not out.exists()


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = RunConfig(seed=7, steps=12, alpha=0.2)
        path = tmp_path / "run.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("alpha = 0.1\nbogus = 3\n")
        with pytest.raises(ConfigError, match="unknown config key: bogus"):
            load_config(path)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\nseed = 5\n")
        assert load_config(path).seed == 5

    def test_dict_round_trip(self):
        cfg = RunConfig(seed=3)
        assert RunConfig(**cfg.to_dict()) == cfg

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunConfig().alpha = 0.5
