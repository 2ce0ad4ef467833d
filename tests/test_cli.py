import json
import re

import pytest

from conciserl.buffer import ExperienceBuffer
from conciserl.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_IO, EXIT_OK, main
from conciserl.env import TabularPolicy

CHECKPOINT_FILES = ["policy_logits.npy", "buffer.expbuf", "meta.json", "bank.tsv"]
TRAIN_ARGS = ["train", "--steps", "3", "--group-size", "4", "--seed", "1"]


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


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

    def test_cli_overrides_config(self, tmp_path):
        out = quick_train(tmp_path, extra=["--steps", "2"])
        assert len((out / "steps.jsonl").read_text().splitlines()) == 2

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
        assert main(["eval", "--checkpoint", str(ck), "--n-samples", "8", "--k", "1"]) == EXIT_OK
        report = json.loads((ck / "eval.json").read_text())
        # per-sample voting with k=1 must agree with the verifier exactly
        # up to the percent-vs-fraction convention, averaged over problems
        m1 = report["majority_at_k"]["1"]["accuracy"]
        assert 0 <= m1 <= 1

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

    def test_bad_k(self, tmp_path):
        out = quick_train(tmp_path)
        ck = out / "checkpoints" / "step_00004"
        assert main(["eval", "--checkpoint", str(ck), "--n-samples", "4", "--k", "9"]) == EXIT_CONFIG


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

    def test_missing_file(self, tmp_path):
        assert main(["metrics", "--results", str(tmp_path / "x.csv"), "--vanilla", "v"]) == EXIT_IO

    def test_missing_vanilla_rows(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("name,accuracy,mean_tokens\nours/a,50.0,100.0\n")
        assert main(["metrics", "--results", str(path), "--vanilla", "v"]) == EXIT_CONFIG


class TestReplay:
    def write_steps(self, tmp_path, values):
        path = tmp_path / "steps.jsonl"
        lines = [
            json.dumps({"step": i + 1, "batch_mean_length": 10.0, "mean_shortest_correct": v})
            for i, v in enumerate(values)
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

    def test_missing_file(self, tmp_path):
        assert main(["replay", "--steps-jsonl", str(tmp_path / "nope.jsonl")]) == EXIT_IO

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "steps.jsonl"
        path.write_text("{not json\n")
        assert main(["replay", "--steps-jsonl", str(path)]) == EXIT_IO

    def test_real_run_log_passes(self, tmp_path):
        out = quick_train(tmp_path)
        assert main(["replay", "--steps-jsonl", str(out / "steps.jsonl")]) == EXIT_OK


class TestParser:
    def test_no_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["bogus"])
