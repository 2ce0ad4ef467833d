import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conciserl
from conciserl.buffer import ExperienceBuffer
from conciserl.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_IO, EXIT_OK, main
from conciserl.core import ProblemSpec, Rollout, RolloutBatch, RunConfig, load_config
from conciserl.env import TabularPolicy
from conciserl.trainer import resume, run, sample_batch, train_step
from tests import reference

CHECKPOINT_FILES = ["policy_logits.npy", "buffer.expbuf", "meta.json", "bank.tsv"]
TRAIN_ARGS = ["train", "--steps", "3", "--group-size", "4", "--seed", "1"]
RUN_FILES = ("config.txt", "steps.jsonl", "summary.json", "checkpoints")  # what train writes, in the order named


def nan_logits(ck):
    logits = np.load(ck / "policy_logits.npy")
    logits[0, 0, 0] = np.nan
    np.save(ck / "policy_logits.npy", logits)


def edit_meta(ck, **fields):
    path = ck / "meta.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))


def repeat_first_problem(ck):
    # meta.json, bank.tsv and the logits agree on five rows, and the buffer
    # on the problem ids, but p000 is listed twice
    edit_meta(ck, problem_ids=[*json.loads((ck / "meta.json").read_text())["problem_ids"], "p000"])
    bank = ck / "bank.tsv"
    bank.write_text(bank.read_text() + bank.read_text().splitlines(keepends=True)[0])
    logits = np.load(ck / "policy_logits.npy")
    np.save(ck / "policy_logits.npy", np.concatenate([logits, logits[:1]]))


def zero_w_cap(ck):
    # the logits are resized to match, so only the w_cap value is wrong
    edit_meta(ck, w_cap=0)
    np.save(ck / "policy_logits.npy", np.load(ck / "policy_logits.npy")[:, :1])


def unclosed_shape(ck):
    # the .npy header loses the parenthesis that closes its shape (a space
    # keeps the data where it was), which numpy's header parser reports as
    # a tokenize.TokenError
    path = ck / "policy_logits.npy"
    data = path.read_bytes()
    assert data.count(b"), }") == 1
    path.write_bytes(data.replace(b"), }", b" , }"))


def too_hard_first_problem(ck):
    # difficulty 99 under the run's w_cap of 10: the policy has no state for it
    bank = ck / "bank.tsv"
    lines = bank.read_text().splitlines(keepends=True)
    bank.write_text("p000\t99\tB\n" + "".join(lines[1:]))


def bank_past_l_max(ck):
    # at l_max 3, p002 (difficulty 3) needs a 4-token response: no group of
    # it could hold a correct rollout, though every entry sits at l_max
    ExperienceBuffer(dict.fromkeys(["p000", "p001", "p002", "p003"], 3), 3).save(ck / "buffer.expbuf")


def below_floor_entry(ck):
    # p003 has difficulty 4, so no correct rollout is shorter than 5 tokens
    path = ck / "buffer.expbuf"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join("p003\t1\n" if line.startswith("p003\t") else line for line in lines))


# Checkpoint edits that `conciserl eval` must refuse: (edit, exit code, stderr pattern).
BAD_CHECKPOINTS = {
    "logits-nan": (nan_logits, EXIT_INVARIANT, "invariant violation: logits are not finite"),
    "logits-shape": (
        lambda ck: np.save(ck / "policy_logits.npy", np.zeros((3, 2, 4))),
        EXIT_INVARIANT,
        r"invariant violation: policy_logits.npy has shape \(3, 2, 4\)",
    ),
    "logits-text": (
        lambda ck: np.save(ck / "policy_logits.npy", np.full((4, 11, 4), "x")),
        EXIT_IO,
        "unreadable checkpoint file .*policy_logits.npy",
    ),
    "logits-header-unclosed": (unclosed_shape, EXIT_IO, "unreadable checkpoint file .*policy_logits.npy"),
    "bank-too-hard": (
        too_hard_first_problem,
        EXIT_INVARIANT,
        "invariant violation: bank.tsv: problem 'p000' difficulty 99 exceeds w_cap 10",
    ),
    "bank-past-l_max": (
        bank_past_l_max,
        EXIT_INVARIANT,
        "invariant violation: bank.tsv: problem 'p002' needs 4 tokens, more than l_max 3",
    ),
    "buffer-below-floor": (
        below_floor_entry,
        EXIT_INVARIANT,
        "invariant violation: buffer.expbuf: problem 'p003' entry 1 is below its floor 5",
    ),
    "meta-w_cap": (lambda ck: edit_meta(ck, w_cap="x"), EXIT_IO, "unreadable checkpoint file .*meta.json"),
    "meta-w_cap-0": (zero_w_cap, EXIT_IO, "unreadable checkpoint file .*meta.json"),
    "meta-step-float": (lambda ck: edit_meta(ck, step=2.7), EXIT_IO, "unreadable checkpoint file .*meta.json"),
    "meta-step-bool": (lambda ck: edit_meta(ck, step=True), EXIT_IO, "unreadable checkpoint file .*meta.json"),
    "meta-problem_ids": (
        lambda ck: edit_meta(ck, problem_ids=5), EXIT_IO, "unreadable checkpoint file .*meta.json"
    ),
    "meta-repeated-id": (repeat_first_problem, EXIT_IO, "unreadable checkpoint file .*meta.json.*repeat p000"),
    "meta-no-ids": (lambda ck: edit_meta(ck, problem_ids=[]), EXIT_IO, "unreadable checkpoint file .*meta.json"),
}
# steps.jsonl contents that `conciserl replay` must refuse with exit 3.
BAD_STEPS_JSONL = [
    b"{not json\n",
    b"[1, 2]\n",
    b'{"step": 1}\n',
    b'{"step": 1, "batch_mean_length": 5.0, "mean_shortest_correct": "x", "solved_count": 0}\n',
    b'{"step": 1\xff}\n',
    # NaN passes every comparison replay makes; booleans are not numbers
    b'{"step": 1, "batch_mean_length": 5.0, "mean_shortest_correct": 3, "solved_count": 0}\n'
    b'{"step": 2, "batch_mean_length": 5.0, "mean_shortest_correct": NaN, "solved_count": 0}\n'
    b'{"step": 3, "batch_mean_length": 5.0, "mean_shortest_correct": 9, "solved_count": 0}\n',
    b'{"step": 1, "batch_mean_length": Infinity, "mean_shortest_correct": 3, "solved_count": 0}\n',
    b'{"step": true, "batch_mean_length": 5.0, "mean_shortest_correct": 3, "solved_count": 0}\n',
    b'{"step": 1, "batch_mean_length": 5.0, "mean_shortest_correct": 3}\n',
    b'{"step": 1, "batch_mean_length": 5.0, "mean_shortest_correct": 3, "solved_count": NaN}\n',
]
SHORT_ROW_CSV = b"name,accuracy,mean_tokens\nV,50\n"
NON_FINITE_ROW_CSV = b"name,accuracy,mean_tokens\nV,60,90\nvan/a,50,nan\n"
DUPLICATE_ROW_CSV = b"name,accuracy,mean_tokens\nV,60,90\nours/a,60,1e300\nours/a,70,100\n"
NOT_UTF8_CONFIG = b"steps = 2\n# \xff\n"


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def write_bytes(path, data):
    path.write_bytes(data)
    return str(path)


def quick_train(tmp_path, extra=()):  # small, fast run used by several tests
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path, "steps = 4\ngroup_size = 4\nl_max = 64\nn_problems = 4\nd_max = 4\ncheckpoint_every = 2\n"
    )
    code = main(["train", "--config", str(cfg), "--out", str(out), *extra])
    assert code == EXIT_OK
    return out


class TestTrain:
    def test_writes_outputs(self, tmp_path):
        out = quick_train(tmp_path)
        assert (out / "config.txt").exists()
        assert (out / "summary.json").exists()
        lines = (out / "steps.jsonl").read_text().splitlines()
        assert len(lines) == 4
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps"] == 4
        assert summary["n_problems"] == 4
        assert (out / "checkpoints" / "step_00004" / "policy_logits.npy").exists()

    @pytest.mark.parametrize(
        "held",
        [*RUN_FILES, ", ".join(RUN_FILES)],
    )
    def test_refuses_a_directory_that_holds_a_run(self, tmp_path, capsys, held):
        # a second run into a run's directory would leave the first run's
        # checkpoints beside its own logs; it exits 2, naming what it found,
        # and writes nothing
        out = quick_train(tmp_path)
        for path in out.iterdir():
            if path.is_dir() and path.name not in held:
                shutil.rmtree(path)
            elif path.name not in held:
                path.unlink()
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(["train", "--out", str(out), "--steps", "1", "--seed", "7"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: {out} already holds a run ({held}); train into a new or empty directory\n"
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_trains_into_an_empty_directory(self, tmp_path):
        (tmp_path / "out").mkdir()
        assert main(["train", "--out", str(tmp_path / "out"), "--steps", "1", "--group-size", "2"]) == EXIT_OK
        assert (tmp_path / "out" / "summary.json").exists()

    def test_cli_overrides_config(self, tmp_path):
        out = quick_train(tmp_path, extra=["--steps", "2"])
        assert len((out / "steps.jsonl").read_text().splitlines()) == 2

    def test_flag_overrides_the_file_before_validation(self, tmp_path, capsys):
        # the flag mends the file's group_size; without it the file's value
        # is refused
        cfg = write_config(tmp_path, "group_size = 1\nsteps = 1\nl_max = 64\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o"), "--group-size", "4"]) == EXIT_OK
        assert load_config(tmp_path / "o" / "config.txt").group_size == 4
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "p")]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: group_size must be >= 2\n"

    def test_bad_config_value(self, tmp_path):
        cfg = write_config(tmp_path, "r_pen = 1.0\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_unknown_config_key(self, tmp_path):
        cfg = write_config(tmp_path, "bogus = 1\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        code = main(["train", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")])
        assert code == EXIT_IO

    def test_bad_override(self, tmp_path):
        cfg = write_config(tmp_path, "steps = 2\n")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o"), "--r-pen", "1.5"])
        assert code == EXIT_CONFIG

    def test_bank_past_w_cap_writes_nothing(self, tmp_path, capsys):
        # d_max 11 under the default w_cap 10: the bank's p010 has no policy
        # state, so the run is refused before its directory exists
        cfg = write_config(tmp_path, "d_max = 11\nsteps = 1\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "w_cap" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = write_bytes(tmp_path / "run.cfg", NOT_UTF8_CONFIG)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "utf-8" in capsys.readouterr().err

    def test_blow_up_is_an_invariant_violation(self, tmp_path, capsys, monkeypatch):
        # the step that blows up returns; the run stops on its non-finite
        # logits before the next step
        def blow_up(self, grad, learning_rate):
            self.logits = self.logits + np.inf

        monkeypatch.setattr(TabularPolicy, "ascend", blow_up)
        out = tmp_path / "o"
        assert main([*TRAIN_ARGS, "--out", str(out)]) == EXIT_INVARIANT
        assert "invariant violation: logits are not finite" in capsys.readouterr().err
        assert len((out / "steps.jsonl").read_text().splitlines()) == 1
        assert not (out / "summary.json").exists()

    def test_deterministic(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = quick_train(tmp_path / "a")
        b = quick_train(tmp_path / "b")
        sa = json.loads((a / "summary.json").read_text())
        sb = json.loads((b / "summary.json").read_text())
        assert sa == sb


class TestEval:
    def test_writes_report(self, tmp_path):
        out = quick_train(tmp_path)
        ck = out / "checkpoints" / "step_00004"
        code = main(["eval", "--checkpoint", str(ck), "--n-samples", "8", "--k", "1,3"])
        assert code == EXIT_OK
        report = json.loads((ck / "eval.json").read_text())
        assert 0 <= report["pass_at_1"] <= 100
        assert set(report["majority_at_k"]) == {"1", "3"}
        assert report["ipt"] > 0

    def test_majority_at_1_equals_pass_at_1(self, tmp_path):
        out = quick_train(tmp_path)
        ck = out / "checkpoints" / "step_00004"
        for seed in range(5):
            argv = ["eval", "--checkpoint", str(ck), "--n-samples", "1", "--k", "1", "--seed", str(seed)]
            assert main(argv) == EXIT_OK
            report = json.loads((ck / "eval.json").read_text())
            # with one sample per problem, its vote (the answer of its last
            # action when correct) must agree with the verifier exactly, up
            # to the percent-vs-fraction convention
            m1 = report["majority_at_k"]["1"]["accuracy"]
            assert m1 == pytest.approx(report["pass_at_1"] / 100, abs=1e-12)

    def test_deterministic(self, tmp_path):
        out = quick_train(tmp_path)
        ck = out / "checkpoints" / "step_00004"
        a_path = tmp_path / "a.json"
        b_path = tmp_path / "b.json"
        for path in (a_path, b_path):
            code = main(
                ["eval", "--checkpoint", str(ck), "--n-samples", "8", "--seed", "5",
                 "--out", str(path)]
            )
            assert code == EXIT_OK
        assert a_path.read_text() == b_path.read_text()

    def test_missing_checkpoint(self, tmp_path):
        assert main(["eval", "--checkpoint", str(tmp_path / "nope")]) == EXIT_CONFIG

    @pytest.mark.parametrize("name", CHECKPOINT_FILES)
    def test_corrupt_checkpoint_file(self, tmp_path, capsys, name):
        ck = quick_train(tmp_path) / "checkpoints" / "step_00004"
        garbage = {"meta.json": b"{bad", "bank.tsv": b"garbage\n"}.get(name, b"\x93NUMPY garbage")
        (ck / name).write_bytes(garbage)
        assert main(["eval", "--checkpoint", str(ck)]) == EXIT_IO
        assert "unreadable checkpoint file" in capsys.readouterr().err

    @pytest.mark.parametrize("name", CHECKPOINT_FILES)
    def test_missing_checkpoint_file(self, tmp_path, name):
        ck = quick_train(tmp_path) / "checkpoints" / "step_00004"
        (ck / name).unlink()
        assert main(["eval", "--checkpoint", str(ck)]) == EXIT_IO

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: t.replace("p000", "zzz"), "bank.tsv .*missing p000; unknown zzz"),
            (lambda t: "\n".join(t.splitlines()[::-1]) + "\n", "bank.tsv .*order or count differs"),
            (lambda t: "".join(t.splitlines(keepends=True)[:-1]), "bank.tsv .*missing p003"),
        ],
        ids=["renamed", "reordered", "dropped"],
    )
    def test_bank_not_matching_policy(self, tmp_path, capsys, edit, message):
        ck = quick_train(tmp_path) / "checkpoints" / "step_00004"
        bank = ck / "bank.tsv"
        bank.write_text(edit(bank.read_text()))
        assert main(["eval", "--checkpoint", str(ck)]) == EXIT_INVARIANT
        assert re.search(message, capsys.readouterr().err)
        assert not (ck / "eval.json").exists()

    @pytest.mark.parametrize("name", BAD_CHECKPOINTS)
    def test_bad_checkpoint(self, tmp_path, capsys, name):
        edit, code, message = BAD_CHECKPOINTS[name]
        ck = quick_train(tmp_path) / "checkpoints" / "step_00004"
        edit(ck)
        assert main(["eval", "--checkpoint", str(ck)]) == code
        assert re.search(message, capsys.readouterr().err)
        assert not (ck / "eval.json").exists()

    def test_buffer_not_matching_policy(self, tmp_path, capsys):
        ck = quick_train(tmp_path) / "checkpoints" / "step_00004"
        buffer = ExperienceBuffer.load(ck / "buffer.expbuf")
        entries = buffer.entries()
        entries["zzz"] = entries.pop("p001")
        ExperienceBuffer(entries, buffer.l_max).save(ck / "buffer.expbuf")
        assert main(["eval", "--checkpoint", str(ck)]) == EXIT_INVARIANT
        assert re.search("buffer.expbuf .*missing p001; unknown zzz", capsys.readouterr().err)

    def test_one_log_probs_table_per_eval(self, tmp_path, monkeypatch):
        ck = quick_train(tmp_path) / "checkpoints" / "step_00004"
        calls = []
        original = TabularPolicy.log_probs
        monkeypatch.setattr(TabularPolicy, "log_probs", lambda self: calls.append(self) or original(self))
        assert main(["eval", "--checkpoint", str(ck), "--n-samples", "16", "--k", "1,4"]) == EXIT_OK
        assert len(calls) == 1

    def test_negative_seed_named(self, tmp_path, capsys):
        ck = quick_train(tmp_path) / "checkpoints" / "step_00004"
        assert main(["eval", "--checkpoint", str(ck), "--seed", "-1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert re.fullmatch(r"error: seed -1 .*non-negative.*\n", err), err
        assert not (ck / "eval.json").exists()

    def test_bad_k(self, tmp_path):
        out = quick_train(tmp_path)
        ck = out / "checkpoints" / "step_00004"
        assert main(["eval", "--checkpoint", str(ck), "--n-samples", "4", "--k", "9"]) == EXIT_CONFIG

    def test_non_integer_k_named(self, tmp_path, capsys):
        ck = quick_train(tmp_path) / "checkpoints" / "step_00004"
        assert main(["eval", "--checkpoint", str(ck), "--k", "1,x"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: --k must be comma-separated integers, got '1,x'\n"
        assert not (ck / "eval.json").exists()

    def test_unsorted_bank_ids(self, tmp_path):
        # majority@k draws problems in id order and length_cv averages them
        # in bank order, as the per-sample vote pipeline of tests/reference.py
        ids = ["zeta", "p10", "alpha", "p2", "M", "b", "p1", "Zz", "q", "aa", "p0", "mid"]
        bank = [ProblemSpec(pid, 1 + i % 4, "AB"[i % 2]) for i, pid in enumerate(ids)]
        config = RunConfig(group_size=4, steps=2, l_max=64, checkpoint_every=2, d_max=4, init_answer_logit=-1.0)
        run(config, bank=bank, out_dir=tmp_path)
        ck = tmp_path / "checkpoints" / "step_00002"
        argv = ["eval", "--checkpoint", str(ck), "--n-samples", "16", "--k", "1,2,4,16", "--seed", "3"]
        assert main(argv) == EXIT_OK
        report = json.loads((ck / "eval.json").read_text())

        policy, buffer, bank, _ = resume(ck)
        batch = sample_batch(policy, bank, 16, buffer.l_max, (3,))
        lengths = batch.lengths
        samples, truth = reference.eval_votes(ids, batch.correct, lengths, [p.correct_answer for p in bank])
        for k in (1, 2, 4, 16):
            expected = reference.majority_at_k(samples, truth, k, np.random.default_rng((3, 1_000_003, k)))
            assert tuple(report["majority_at_k"][str(k)].values()) == expected
        per_problem = {pid: row.tolist() for pid, row in zip(ids, lengths)}
        assert report["length_cv"] == reference.length_cv(per_problem)


class TestMetrics:
    def test_summary_output(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        path.write_text(
            "name,accuracy,mean_tokens\n"
            "vanilla/amc23,62.0,8273.9\n"
            "vanilla/aime24,27.9,12019.2\n"
            "ours/amc23,65.8,2921.2\n"
            "ours/aime24,28.8,5350.4\n"
        )
        assert main(["metrics", "--results", str(path), "--vanilla", "vanilla"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "vanilla/amc23" in text
        assert "ours (avg)" in text
        assert "dToken" in text

    def test_zero_vanilla_accuracy(self, tmp_path, capsys):
        # a valid CSV whose vanilla row scores 0%: its dAcc reads n/a, and the
        # average runs over the benchmarks that have one
        path = tmp_path / "results.csv"
        path.write_text("name,accuracy,mean_tokens\nvanilla/aime,0,1000\nours/aime,10,500\n")
        assert main(["metrics", "--results", str(path), "--vanilla", "vanilla"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        row = next(line for line in lines if line.startswith("ours/aime"))
        avg = next(line for line in lines if line.startswith("ours (avg)"))
        assert "dAcc      n/a  dToken  -50.00%" in row and "dAcc      n/a  dToken  -50.00%" in avg
        path.write_text(path.read_text() + "vanilla/amc,50,1000\nours/amc,60,500\n")
        assert main(["metrics", "--results", str(path), "--vanilla", "vanilla"]) == EXIT_OK
        avg = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("ours (avg)"))
        assert "dAcc  +20.00%  dToken  -50.00%" in avg

    def test_missing_file(self, tmp_path):
        assert main(["metrics", "--results", str(tmp_path / "x.csv"), "--vanilla", "v"]) == EXIT_IO

    def test_missing_vanilla_rows(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("name,accuracy,mean_tokens\nours/a,50.0,100.0\n")
        assert main(["metrics", "--results", str(path), "--vanilla", "v"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "row",
        [b"V,50", b"V,abc,1", b"V,50,1,9", b"V,50,nan", b"V,50,inf", b"V,70,100", b"V/,70,100"],
        ids=["short", "non-numeric", "long", "nan-tokens", "inf-tokens", "duplicate", "duplicate-bare-name"],
    )
    def test_malformed_row_names_the_line(self, tmp_path, capsys, row):
        path = write_bytes(tmp_path / "results.csv", b"name,accuracy,mean_tokens\nV,60,90\n" + row + b"\n")
        assert main(["metrics", "--results", path, "--vanilla", "V"]) == EXIT_CONFIG
        assert "error: line 3: " in capsys.readouterr().err


class TestReplay:
    def write_steps(self, tmp_path, values, solved=None):
        path = tmp_path / "steps.jsonl"
        solved = solved or [0] * len(values)
        lines = [
            json.dumps({"step": i + 1, "batch_mean_length": 10.0, "mean_shortest_correct": v, "solved_count": n})
            for i, (v, n) in enumerate(zip(values, solved))
        ]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_emits_curves(self, tmp_path):
        path = self.write_steps(tmp_path, [100.0, 90.0, 80.0])
        assert main(["replay", "--steps-jsonl", str(path)]) == EXIT_OK
        body = (tmp_path / "mean_shortest_correct.csv").read_text().splitlines()
        assert body[0] == "step,mean_shortest_correct"
        assert len(body) == 4
        assert (tmp_path / "batch_mean_length.csv").exists()

    def test_monotonicity_violation(self, tmp_path, capsys):
        path = self.write_steps(tmp_path, [100.0, 80.0, 95.0])
        assert main(["replay", "--steps-jsonl", str(path)]) == EXIT_INVARIANT
        assert "steps 2 and 3" in capsys.readouterr().err

    def test_solved_count_falling(self, tmp_path, capsys):
        # an entry that has left l_max never returns, even while the mean falls
        path = self.write_steps(tmp_path, [100.0, 90.0, 80.0], solved=[2, 3, 2])
        assert main(["replay", "--steps-jsonl", str(path)]) == EXIT_INVARIANT
        assert capsys.readouterr().err == "invariant violation: solved_count fell between steps 2 and 3\n"

    def test_missing_file(self, tmp_path):
        assert main(["replay", "--steps-jsonl", str(tmp_path / "nope.jsonl")]) == EXIT_IO

    def test_malformed_json(self, tmp_path, capsys):
        for data in BAD_STEPS_JSONL:
            path = write_bytes(tmp_path / "steps.jsonl", data)
            assert main(["replay", "--steps-jsonl", path]) == EXIT_IO, data
            assert "error: malformed steps.jsonl" in capsys.readouterr().err
            assert not list(tmp_path.glob("*.csv"))

    def test_real_run_log_passes(self, tmp_path):
        out = quick_train(tmp_path)
        assert main(["replay", "--steps-jsonl", str(out / "steps.jsonl")]) == EXIT_OK


def test_no_rollout_records_on_the_train_or_eval_path(tmp_path, monkeypatch):
    # a training step and an eval sample, shape and score columnar groups
    out = quick_train(tmp_path)
    ck = out / "checkpoints" / "step_00004"
    built = []
    original = Rollout.__init__  # the dataclass's generated constructor

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Rollout, "__init__", counted)
    policy, buffer, bank, step = resume(ck)
    train_step(policy, buffer, bank, load_config(out / "config.txt"), step + 1)
    assert main(["eval", "--checkpoint", str(ck), "--n-samples", "8", "--k", "1,4"]) == EXIT_OK
    assert built == []
    Rollout("p", (2,), (-1.0,), 1, False, False)
    assert len(built) == 1  # the counter does see a record when one is built


def test_one_record_check_per_batch(tmp_path, monkeypatch):
    # a training step and an eval check their sampled batch once, not once
    # per problem: the groups they shape and fold are views of it
    out = quick_train(tmp_path)
    ck = out / "checkpoints" / "step_00004"
    checked = []
    original = RolloutBatch.__post_init__

    def counted(self):
        checked.append(self.correct.shape)
        original(self)

    monkeypatch.setattr(RolloutBatch, "__post_init__", counted)
    policy, buffer, bank, step = resume(ck)
    train_step(policy, buffer, bank, load_config(out / "config.txt"), step + 1)
    assert checked == [(4, 4)]
    assert main(["eval", "--checkpoint", str(ck), "--n-samples", "8", "--k", "1,4"]) == EXIT_OK
    assert checked == [(4, 4), (4, 8)]


class TestParser:
    def test_no_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["bogus"])


def eval_argv(tmp_path, edit):
    ck = quick_train(tmp_path) / "checkpoints" / "step_00004"
    edit(ck)
    return ["eval", "--checkpoint", str(ck)]


# Every malformed input above, as the argv that feeds it to the CLI.
MALFORMED_INPUTS = {
    **{f"eval-{name}": (lambda t, e=edit: eval_argv(t, e)) for name, (edit, _, _) in BAD_CHECKPOINTS.items()},
    **{
        f"replay-{i}": (lambda t, d=data: ["replay", "--steps-jsonl", write_bytes(t / "steps.jsonl", d)])
        for i, data in enumerate(BAD_STEPS_JSONL)
    },
    **{
        f"metrics-{name}": lambda t, d=data: [
            "metrics", "--results", write_bytes(t / "results.csv", d), "--vanilla", "V"
        ]
        for name, data in (
            ("short-row", SHORT_ROW_CSV),
            ("non-finite-tokens", NON_FINITE_ROW_CSV),
            ("duplicate-row", DUPLICATE_ROW_CSV),
        )
    },
    "eval-negative-seed": lambda t: [*eval_argv(t, lambda ck: None), "--seed", "-1"],
    "eval-bad-k": lambda t: [*eval_argv(t, lambda ck: None), "--k", "1,x"],
    "train-config-not-utf8": lambda t: [
        "train", "--config", write_bytes(t / "run.cfg", NOT_UTF8_CONFIG), "--out", str(t / "o")
    ],
}


@pytest.mark.parametrize("case", MALFORMED_INPUTS)
def test_entry_point_exits_cleanly(tmp_path, case):
    # the real entry point, sys.exit(main()), in a fresh interpreter
    argv = MALFORMED_INPUTS[case](tmp_path)
    src = str(Path(conciserl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "conciserl.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode in (EXIT_CONFIG, EXIT_IO, EXIT_INVARIANT), proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
