"""The sampled streams against their own past.

Each training step logs ``batch_digest``, a sha256 of the integers and
booleans it sampled (the count table, ``correct`` and ``truncated``), so
no float order can move it. The values below were recorded once and pin
the streams of short desk runs, of the CLI defaults at a verbose start, of
an ``eval`` sample and of the report ``eval`` writes: a sampler that cuts
its work differently must give the same digests. A failing test here means
the streams changed; that is a change of the training dynamics, never a
reason to record new values.
``TestSameNumbersAsReferences`` checks the sampler against the
token-by-token reference; this file checks it against itself.
"""

import hashlib

import pytest

from conciserl import cli
from conciserl.core import RunConfig
from conciserl.trainer import run

DESK = dict(group_size=8, l_max=1024, steps=30)

# seed -> (sha256 over the run's batch digests in step order, final buffer
# entries in bank order)
DESK_GOLDEN = {
    0: (
        "3c3eee1d4432431e385c8eeaa2dcc9b2398babbb1a055d013494950451ce1b25",
        [2, 3, 4, 5, 6, 9, 9, 9, 11, 13, 2, 3, 4, 6, 6, 9, 12, 12, 13, 11],
    ),
    1: (
        "b469fefe624fe20ac23a409b07fbabdb1833aa47b5002082988de21f5fbbe940",
        [2, 3, 4, 9, 7, 8, 8, 15, 11, 12, 2, 3, 4, 6, 6, 12, 8, 16, 10, 11],
    ),
    2: (
        "3e4464e61c6252f0cc6ae38226c5f8ccceaabba34e7b3908a0eb0cf862f1c9f9",
        [2, 4, 4, 6, 8, 7, 12, 13, 11, 12, 2, 3, 4, 5, 7, 10, 9, 10, 11, 13],
    ),
}

# CLI defaults (G=16, l_max=16384) from init_answer_logit=-6, 3 steps: a
# step of 320 rollouts of hundreds of tokens each.
LONG_GOLDEN = (
    "6948395299648b4e1e7a17d842deeffa3ffecd20787347c0e4640a329b00a933",
    [8, 13, 47, 50, 31, 23, 13, 37, 22, 25, 2, 51, 23, 9, 22, 37, 54, 47, 38, 29],
)

# sha256 of the (P, n) correct and lengths tables of `conciserl eval
# --n-samples 64` on the step-30 checkpoint of the desk run at seed 0.
EVAL_GOLDEN = "80ab343c4b5f11cb944f1b96992674e5b9d316db1aa6222b6cf2c823093ef186"
# The same at --n-samples 256, eval_sweep's shape: 5,120 rollouts, which
# the sampler walks whole, in one walk.
EVAL_SWEEP_GOLDEN = "a304d3ff83b2d27737941f1a353c601dd5827855df1009016373bf982288487d"
# sha256 of the eval.json that `conciserl eval --n-samples 256 --k 1,4,16
# --seed 3` writes for that checkpoint: majority@k's draws at k > 1 too.
EVAL_REPORT_GOLDEN = "03f234d3f2409078780ae532c92d34ecd7dcd6090adc002c062924877645ae89"


def digest_chain(result):
    return hashlib.sha256("".join(log.batch_digest for log in result.logs).encode()).hexdigest()


def final_entries(result):
    entries = result.buffer.entries()
    return [entries[p.id] for p in result.bank]


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    """seed -> the run's result and its directory, checkpointed at step 30."""
    out = tmp_path_factory.mktemp("golden")
    return {seed: (run(RunConfig(**DESK, seed=seed, checkpoint_every=30), out_dir=out / str(seed)), out / str(seed))
            for seed in DESK_GOLDEN}


@pytest.mark.parametrize("seed", sorted(DESK_GOLDEN))
def test_desk_runs(desk_runs, seed):
    result, _ = desk_runs[seed]
    assert (digest_chain(result), final_entries(result)) == DESK_GOLDEN[seed]


def test_cli_defaults_verbose_start():
    result = run(RunConfig(init_answer_logit=-6, steps=3))
    assert result.logs[0].batch_mean_length > 100
    assert (digest_chain(result), final_entries(result)) == LONG_GOLDEN


def eval_digest(checkpoint_dir, n_samples, tmp_path, monkeypatch):
    """sha256 of the (P, n) correct and lengths tables that ``conciserl eval``
    samples on the step-30 checkpoint in ``checkpoint_dir``."""
    sampled = []
    sample_outcomes = cli.sample_outcomes

    def recorded(*args):
        sampled.append(sample_outcomes(*args))
        return sampled[-1]

    monkeypatch.setattr(cli, "sample_outcomes", recorded)
    ckpt = checkpoint_dir / "checkpoints" / "step_00030"
    argv = ["eval", "--checkpoint", str(ckpt), "--n-samples", str(n_samples), "--out", str(tmp_path / "e.json")]
    assert cli.main(argv) == 0
    (outcomes,) = sampled
    correct = outcomes.correct
    lengths = outcomes.lengths.astype("<i8")
    assert correct.shape == (20, n_samples)
    return hashlib.sha256(correct.tobytes() + lengths.tobytes()).hexdigest()


def test_eval_sample(desk_runs, tmp_path, monkeypatch):
    assert eval_digest(desk_runs[0][1], 64, tmp_path, monkeypatch) == EVAL_GOLDEN


def test_eval_sweep_sample(desk_runs, tmp_path, monkeypatch):
    assert eval_digest(desk_runs[0][1], 256, tmp_path, monkeypatch) == EVAL_SWEEP_GOLDEN


def test_eval_report(desk_runs, tmp_path):
    out = tmp_path / "eval.json"
    ckpt = desk_runs[0][1] / "checkpoints" / "step_00030"
    argv = ["eval", "--checkpoint", str(ckpt), "--n-samples", "256", "--k", "1,4,16", "--seed", "3", "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EVAL_REPORT_GOLDEN
