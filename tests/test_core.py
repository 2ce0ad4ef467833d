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
    """The arrays of a valid RolloutGroup: a count table, as nested lists,
    with at least one token per rollout, and the per-rollout flags."""
    g, n_states = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    counts = np.array(
        draw(st.lists(st.integers(0, 3), min_size=g * n_states * 4, max_size=g * n_states * 4))
    ).reshape(g, n_states, 4)
    counts[np.arange(g), draw(st.integers(0, n_states - 1)), draw(st.integers(0, 3))] += 1
    truncated = draw(st.lists(st.booleans(), min_size=g, max_size=g))
    correct = [draw(st.booleans()) and not t for t in truncated]
    return dict(
        counts=counts.tolist(),
        behavior_logp=np.array(draw(st.lists(st.floats(-30.0, 0.0), min_size=n_states * 4, max_size=n_states * 4)))
        .reshape(n_states, 4)
        .tolist(),
        correct=correct,
        truncated=truncated,
    )


BAD_LOGPS = st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(1e-6, 1e300)


def one_rollout(logp_row):
    """A one-rollout group, FILLER in state 0 then ANSWER_A in state 1, over
    the log-prob table whose rows are ``[0, logp_row[0], 0, 0]`` and
    ``[0, 0, logp_row[1], 0]``."""
    logp = np.zeros((2, 4))
    logp[0, 1], logp[1, 2] = logp_row
    return RolloutGroup("p", [[[0, 1, 0, 0], [0, 0, 1, 0]]], logp, [False], [False])


class TestRolloutGroup:
    def test_columns_frozen_to_arrays(self):
        counts = [[[2, 0, 1, 0], [0, 0, 0, 0]], [[0, 0, 0, 1], [0, 0, 0, 0]]]
        g = RolloutGroup("p1", counts, np.full((2, 4), -1.0), [True, False], [False, False])
        assert g.size == 2 and g.correct_count == 1 and g.lengths.tolist() == [3, 1]
        assert g.counts.dtype == np.int32 and g.lengths.dtype == np.intp
        assert g.correct.dtype == g.truncated.dtype == bool and g.behavior_logp.dtype == float
        for array in (g.counts, g.behavior_logp, g.correct, g.truncated, g.lengths):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    @settings(deadline=None)
    @given(group_columns())
    def test_valid_columns_accepted(self, cols):
        g = RolloutGroup("p", **cols)
        assert g.size == len(cols["counts"]) and g.correct_count == sum(cols["correct"])
        assert g.lengths.tolist() == np.sum(cols["counts"], axis=(1, 2)).tolist()

    @settings(deadline=None)
    @given(
        group_columns(),
        st.sampled_from(
            [
                "empty rollout", "negative count", "not 3-D", "cells", "flags", "correct and truncated", "logp",
                "no rollouts",
            ]
        ),
        st.data(),
    )
    def test_malformed_columns_rejected(self, cols, fault, data):
        counts = np.array(cols["counts"])
        rollout = data.draw(st.integers(0, len(counts) - 1))
        if fault == "empty rollout":
            counts[rollout] = 0
        elif fault == "negative count":
            counts[rollout, 0, data.draw(st.integers(0, 3))] = -1
        elif fault == "not 3-D":
            counts = counts.sum(axis=data.draw(st.integers(0, 2)))
        elif fault == "cells":
            cols["behavior_logp"] = np.array(cols["behavior_logp"])[:, : data.draw(st.integers(0, 3))].tolist()
        elif fault == "flags":
            del cols["correct"][rollout], cols["truncated"][rollout]
        elif fault == "correct and truncated":
            cols["correct"][rollout] = cols["truncated"][rollout] = True
        elif fault == "logp":
            row = data.draw(st.integers(0, len(cols["behavior_logp"]) - 1))
            cols["behavior_logp"][row][data.draw(st.integers(0, 3))] = data.draw(BAD_LOGPS)
        else:
            counts, cols["correct"], cols["truncated"] = counts[:0], [], []
        with pytest.raises(ValueError):
            RolloutGroup("p", **{**cols, "counts": counts})

    def test_slack_above_zero_accepted(self):
        assert one_rollout([-0.5, 1e-12]).behavior_logp[1, 2] == 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.5], ids=["nan", "inf", "-inf", "0.5"])
    def test_bad_logp_named(self, bad):
        with pytest.raises(ValueError, match=f"finite and <= 0, got {bad}"):
            one_rollout([-1.0, bad])

    @pytest.mark.parametrize(
        "counts, match",
        [
            ([[0, 1, 0, 0], [0, 0, 1, 0]], "rollouts, states, actions"),
            ([[[0, -1, 0, 0], [0, 0, 2, 0]]], ">= 0"),
            ([[[0, 1, 0, 0, 0], [0, 0, 1, 0, 0]]], "do not match behavior_logp"),
            ([[[0, 1.5, 0, 0], [0, 0, 1, 0]]], "whole numbers"),
            ([[[0, 2**32 + 1, 0, 0], [0, 0, 1, 0]]], "fit in int32"),
        ],
        ids=["2-D", "negative", "five actions", "fraction", "past int32"],
    )
    def test_bad_table_named(self, counts, match):
        with pytest.raises(ValueError, match=match):
            RolloutGroup("p", counts, np.zeros((2, 4)), [False], [False])


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
