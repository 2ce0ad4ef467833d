import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conciserl.buffer import ExperienceBuffer
from conciserl.cli import EXIT_CONFIG, EXIT_IO, main
from conciserl.core import (
    ConfigError,
    ProblemSpec,
    RolloutBatch,
    RunConfig,
    check_ids,
    load_config,
    save_config,
)
from conciserl.env import TabularPolicy, initial_policy
from conciserl.trainer import checkpoint

FLOAT_FIELDS = [f.name for f in dataclasses.fields(RunConfig) if f.type == "float"]
INT_FIELDS = [f.name for f in dataclasses.fields(RunConfig) if f.type == "int"]


class TestProblemSpec:
    def test_valid(self):
        p = ProblemSpec("q1", 3, "A")
        assert p.difficulty == 3

    def test_bad_difficulty(self):
        with pytest.raises(ValueError):
            ProblemSpec("q1", 0, "A")

    @pytest.mark.parametrize("bad", [True, 2.0], ids=["bool", "float"])
    def test_difficulty_the_bank_file_cannot_store(self, bad):
        # bank.tsv stores the difficulty as an int; True would be read back
        # as the unparseable 'True'
        with pytest.raises(ValueError, match="difficulty must be a positive integer"):
            ProblemSpec("q1", bad, "A")

    def test_bad_answer(self):
        with pytest.raises(ValueError):
            ProblemSpec("q1", 1, "C")

    @pytest.mark.parametrize("bad_id", ["a\tb", "a\u2028b", "a\x1cb"], ids=["tab", "line-separator", "file-separator"])
    def test_id_the_checkpoint_files_cannot_store(self, bad_id):
        # bank.tsv and .expbuf are tab-separated lines read with splitlines()
        with pytest.raises(ValueError, match="not a non-empty str free of tabs and line breaks"):
            ProblemSpec(bad_id, 1, "A")

    def test_round_trip(self):
        p = ProblemSpec("q1", 3, "B")
        assert ProblemSpec(**p.to_dict()) == p


# Ids that bank.tsv, meta.json and .expbuf, which store ids in tab-separated
# lines read with splitlines(), cannot hold.
BAD_IDS = {
    "empty": "",
    "tab": "a\tb",
    "newline": "a\nb",
    "carriage-return": "a\r",
    "line-separator": "\u2028a",
    "file-separator": "a\x1cb",
    "lone-surrogate": "p\ud800",  # UTF-8 cannot encode it
    "int": 3,
    "none": None,
}
# Lists of ids that no record may hold: each bad id beside a good one, a
# repeat, and no id at all.
BAD_ID_LISTS = {**{name: ["p0", pid] for name, pid in BAD_IDS.items()}, "repeat": ["p0", "p1", "p0"], "no-ids": []}
CHECK_IDS_MESSAGE = "there are no problem ids|is not a non-empty str free of tabs and line breaks|problem ids repeat"
# Every record of problem ids, built from a list of them.
ID_HOLDERS = {
    "ProblemSpec": lambda ids: [ProblemSpec(pid, 1, "A") for pid in ids],
    "ExperienceBuffer": lambda ids: ExperienceBuffer(dict.fromkeys(ids, 3), 10),
    "ExperienceBuffer.init": lambda ids: ExperienceBuffer.init(ids, 10),
    "TabularPolicy": lambda ids: TabularPolicy(ids, 2),
    "initial_policy": lambda ids: initial_policy(ids, 2, -1.0),
    "RolloutBatch": lambda ids: RolloutBatch(
        ids, np.ones((len(ids), 1, 2, 4)), np.zeros((len(ids), 2, 4)), np.zeros((len(ids), 1)), np.zeros((len(ids), 1))
    ),
}
# A ProblemSpec holds one id, and a dict no repeat: the lists they cannot
# express. A batch of no problems is refused as empty, before its ids.
INEXPRESSIBLE = {
    ("ProblemSpec", "repeat"),
    ("ProblemSpec", "no-ids"),
    ("ExperienceBuffer", "repeat"),
    ("RolloutBatch", "no-ids"),
}


class TestCheckIds:
    def test_returns_the_ids_as_a_tuple(self):
        assert check_ids(iter(["p 1", "é", "#"])) == ("p 1", "é", "#")

    def test_names_each_repeat_once_in_order(self):
        with pytest.raises(ValueError, match="^problem ids repeat a, b$"):
            check_ids(["b", "a", "c", "b", "a", "a"])

    @pytest.mark.parametrize(
        "holder, ids",
        [
            pytest.param(ID_HOLDERS[holder], ids, id=f"{holder}-{name}")
            for holder in ID_HOLDERS
            for name, ids in BAD_ID_LISTS.items()
            if (holder, name) not in INEXPRESSIBLE
        ],
    )
    def test_every_holder_refuses_the_same_ids(self, holder, ids):
        with pytest.raises(ValueError, match=CHECK_IDS_MESSAGE):
            holder(ids)

    @pytest.mark.parametrize("ids", BAD_ID_LISTS.values(), ids=BAD_ID_LISTS)
    def test_eval_refuses_them_in_meta_json(self, tmp_path, capsys, ids):
        ck = tmp_path / "ck"
        bank = [ProblemSpec("p0", 1, "A"), ProblemSpec("p1", 2, "B")]
        checkpoint(initial_policy(["p0", "p1"], 2), ExperienceBuffer.init(["p0", "p1"], 8), 1, ck, bank)
        meta = json.loads((ck / "meta.json").read_text())
        (ck / "meta.json").write_text(json.dumps({**meta, "problem_ids": ids}))
        assert main(["eval", "--checkpoint", str(ck), "--n-samples", "2", "--k", "1"]) == EXIT_IO
        err = capsys.readouterr().err
        assert re.search(f"unreadable checkpoint file .*meta.json: ValueError.*({CHECK_IDS_MESSAGE})", err), err
        assert not (ck / "eval.json").exists()


@st.composite
def batch_columns(draw):
    """The arrays of a valid RolloutBatch: a count table, as nested lists,
    with at least one token per rollout, and the per-rollout flags."""
    p, g, n_states = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    size = p * g * n_states * 4
    counts = np.array(draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))).reshape(p, g, n_states, 4)
    counts[:, np.arange(g), draw(st.integers(0, n_states - 1)), draw(st.integers(0, 3))] += 1
    truncated = [draw(st.lists(st.booleans(), min_size=g, max_size=g)) for _ in range(p)]
    correct = [[draw(st.booleans()) and not t for t in row] for row in truncated]
    logps = draw(st.lists(st.floats(-30.0, 0.0), min_size=p * n_states * 4, max_size=p * n_states * 4))
    return dict(
        problem_ids=[f"p{i}" for i in range(p)],
        counts=counts.tolist(),
        behavior_logp=np.array(logps).reshape(p, n_states, 4).tolist(),
        correct=correct,
        truncated=truncated,
    )


BAD_LOGPS = st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(1e-6, 1e300)


def one_rollout(logp_row):
    """A one-rollout record, FILLER in state 0 then ANSWER_A in state 1, over
    the log-prob table whose rows are ``[0, logp_row[0], 0, 0]`` and
    ``[0, 0, logp_row[1], 0]``."""
    logp = np.zeros((1, 2, 4))
    logp[0, 0, 1], logp[0, 1, 2] = logp_row
    return RolloutBatch(["p"], [[[[0, 1, 0, 0], [0, 0, 1, 0]]]], logp, [[False]], [[False]])


def three_problems():
    """A valid 3 x 2 record whose rows differ in every array."""
    counts = np.zeros((3, 2, 2, 4), dtype=np.int32)
    counts[:, :, 0, 1] = [[1, 2], [3, 4], [5, 6]]
    counts[:, :, 1, 2] = 1
    logp = -np.arange(1.0, 25.0).reshape(3, 2, 4)
    correct = [[True, False], [False, False], [False, True]]
    truncated = [[False, True], [False, False], [True, False]]
    return RolloutBatch(("a", "b", "c"), counts, logp, correct, truncated)


def rows(batch):
    """A record's problem ids and every array, as plain lists of its rows."""
    arrays = [getattr(batch, f.name).tolist() for f in dataclasses.fields(batch) if f.name != "problem_ids"]
    return list(zip(batch.problem_ids, *arrays))


class TestRolloutBatch:
    def test_columns_frozen_to_arrays(self):
        counts = [[[[2, 0, 1, 0], [0, 0, 0, 0]], [[0, 0, 0, 1], [0, 0, 0, 0]]]]
        b = RolloutBatch(["p1"], counts, np.full((1, 2, 4), -1.0), [[True, False]], [[False, False]])
        assert b.problem_ids == ("p1",) and len(b) == 1 and b.lengths.tolist() == [[3, 1]]
        assert b.counts.dtype == np.int32 and b.lengths.dtype == np.intp
        assert b.correct.dtype == b.truncated.dtype == bool and b.behavior_logp.dtype == float
        for array in (b.counts, b.behavior_logp, b.correct, b.truncated, b.lengths):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    @settings(deadline=None)
    @given(batch_columns())
    def test_valid_columns_accepted(self, cols):
        b = RolloutBatch(**cols)
        assert b.problem_ids == tuple(cols["problem_ids"]) and b.correct.tolist() == cols["correct"]
        assert b.lengths.tolist() == np.sum(cols["counts"], axis=(2, 3)).tolist()

    @settings(deadline=None)
    @given(
        batch_columns(),
        st.sampled_from(
            [
                "empty rollout", "negative count", "not 4-D", "cells", "flags", "correct and truncated", "logp",
                "no rollouts", "no problems", "problem ids",
            ]
        ),
        st.data(),
    )
    def test_malformed_columns_rejected(self, cols, fault, data):
        counts = np.array(cols["counts"])
        problem = data.draw(st.integers(0, len(counts) - 1))
        rollout = data.draw(st.integers(0, counts.shape[1] - 1))
        if fault == "empty rollout":
            counts[problem, rollout] = 0
        elif fault == "negative count":
            counts[problem, rollout, 0, data.draw(st.integers(0, 3))] = -1
        elif fault == "not 4-D":
            counts = counts.sum(axis=data.draw(st.integers(0, 3)))
        elif fault == "cells":
            cols["behavior_logp"] = np.array(cols["behavior_logp"])[..., : data.draw(st.integers(0, 3))].tolist()
        elif fault == "flags":
            for row in (*cols["correct"], *cols["truncated"]):
                del row[rollout]
        elif fault == "correct and truncated":
            cols["correct"][problem][rollout] = cols["truncated"][problem][rollout] = True
        elif fault == "logp":
            row = data.draw(st.integers(0, len(cols["behavior_logp"][problem]) - 1))
            cols["behavior_logp"][problem][row][data.draw(st.integers(0, 3))] = data.draw(BAD_LOGPS)
        elif fault == "no rollouts":
            counts = counts[:, :0]
            cols["correct"] = cols["truncated"] = [[] for _ in counts]
        elif fault == "no problems":
            counts, cols["problem_ids"], cols["correct"], cols["truncated"] = counts[:0], [], [], []
            cols["behavior_logp"] = np.array(cols["behavior_logp"])[:0]
        else:
            cols["problem_ids"] = data.draw(st.sampled_from([cols["problem_ids"][:-1], [*cols["problem_ids"], "q"]]))
        with pytest.raises(ValueError):
            RolloutBatch(**{**cols, "counts": counts})

    def test_slack_above_zero_accepted(self):
        assert one_rollout([-0.5, 1e-12]).behavior_logp[0, 1, 2] == 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.5], ids=["nan", "inf", "-inf", "0.5"])
    def test_bad_logp_named(self, bad):
        with pytest.raises(ValueError, match=f"finite and <= 0, got {bad}"):
            one_rollout([-1.0, bad])

    @pytest.mark.parametrize(
        "counts, match",
        [
            ([[0, 1, 0, 0], [0, 0, 1, 0]], "problems, rollouts, states, actions"),
            ([[[0, 1, 0, 0], [0, 0, 1, 0]]], "problems, rollouts, states, actions"),
            ([[[[0, -1, 0, 0], [0, 0, 2, 0]]]], ">= 0"),
            ([[[[0, 1, 0, 0, 0], [0, 0, 1, 0, 0]]]], "do not match behavior_logp"),
            ([[[[0, 1.5, 0, 0], [0, 0, 1, 0]]]], "whole numbers"),
            ([[[[0, 2**32 + 1, 0, 0], [0, 0, 1, 0]]]], "fit in int32"),
        ],
        ids=["2-D", "3-D", "negative", "five actions", "fraction", "past int32"],
    )
    def test_bad_table_named(self, counts, match):
        with pytest.raises(ValueError, match=match):
            RolloutBatch(["p"], counts, np.zeros((1, 2, 4)), [[False]], [[False]])

    @pytest.mark.parametrize("ids", [(), ("a", "b")], ids=["none", "two"])
    def test_problem_ids_one_per_row(self, ids):
        with pytest.raises(ValueError, match=f"{len(ids)} problem ids for 1 problems"):
            RolloutBatch(ids, [[[[0, 1, 0, 0], [0, 0, 1, 0]]]], np.zeros((1, 2, 4)), [[False]], [[False]])

    def test_groups_are_its_rows(self):
        batch = three_problems()
        assert len(batch) == 3
        want = rows(batch)
        for p, group in enumerate(batch):
            assert rows(group) == [want[p]] == rows(batch[p])
            assert group.problem_id == batch.problem_ids[p]
        assert rows(batch[-1]) == [want[-1]] and rows(batch[-3]) == [want[0]]

    @pytest.mark.parametrize("p", [3, -4])
    def test_group_past_either_end(self, p):
        with pytest.raises(IndexError):
            three_problems()[p]

    def test_groups_view_the_checked_arrays(self, monkeypatch):
        # a group is neither checked again nor copied, and cannot be written
        batch = three_problems()
        checks = []
        monkeypatch.setattr(RolloutBatch, "__post_init__", lambda self: checks.append(self))
        groups = list(batch)
        assert checks == []
        for p, group in enumerate(groups):
            for name in ("counts", "behavior_logp", "correct", "truncated", "lengths"):
                array = getattr(group, name)
                assert np.shares_memory(array, getattr(batch, name)) and array.shape[0] == 1
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0

    def test_problem_id_needs_one_problem(self):
        batch = three_problems()
        with pytest.raises(ValueError, match="a record of 3 problems has no single problem_id"):
            batch.problem_id
        assert one_rollout([-1.0, -1.0]).problem_id == "p"


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

    def test_int_fields(self):
        assert INT_FIELDS == [
            "group_size", "l_max", "w_cap", "steps", "seed", "n_problems", "d_min", "d_max",
            "checkpoint_every",
        ]

    def test_numpy_integers_accepted(self):
        assert RunConfig(seed=np.int64(3), l_max=np.int32(64)) == RunConfig(seed=3, l_max=64)


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


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, 2.5, 10.0, True, "3"], ids=["nan", "inf", "2.5", "10.0", "True", "str"]
)
@pytest.mark.parametrize("name", INT_FIELDS)
def test_non_integer_rejected(name, value):
    # a float that equals an integer is not one either
    with pytest.raises(ConfigError, match=f"{name} must be an integer, got {value!r}"):
        RunConfig(**{name: value})


# Values of the wrong type for each field type RunConfig declares.
WRONG_TYPE = {"float": ["x", None, [1], True], "int": ["x", None, 2.5, True], "str": [None, 1, ["count"]]}


@pytest.mark.parametrize("field", dataclasses.fields(RunConfig), ids=lambda f: f.name)
def test_wrong_type_rejected(field):
    # a ConfigError that names the field, never a bare TypeError
    for value in WRONG_TYPE[field.type]:
        with pytest.raises(ConfigError, match=rf"\b{field.name} must be ") as info:
            RunConfig(**{field.name: value})
        if field.type == "float":
            assert info.value.errors == [f"{field.name} must be a real number, got {value!r}"]


def test_type_errors_reported_together():
    with pytest.raises(ConfigError) as info:
        RunConfig(alpha="x", r_pen=None, seed=1.5, eps_low=math.nan)
    assert info.value.errors == [
        "alpha must be a real number, got 'x'",
        "r_pen must be a real number, got None",
        "eps_low must be finite",
        "seed must be an integer, got 1.5",
    ]


def test_real_numbers_accepted_in_float_fields():
    assert RunConfig(alpha=0, learning_rate=np.float32(2000.0)) == RunConfig(alpha=0.0, learning_rate=2000.0)


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

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nalpha = 0.1\n\nseed = 2\n")
        with pytest.raises(ConfigError, match="line 4: duplicate key seed"):
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
