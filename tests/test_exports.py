import conciserl
from conciserl import cli, core, env, trainer


def test_every_export_resolves_once():
    assert len(set(conciserl.__all__)) == len(conciserl.__all__)
    for name in conciserl.__all__:
        assert hasattr(conciserl, name), name


def test_one_sampler():
    # trainer and cli import the sampler's two products rather than wrap
    # them, so a patch of either module's name (as the tests and the bench
    # tracer make) reaches every call that module makes
    assert conciserl.sample_batch is env.sample_batch
    assert trainer.sample_batch is env.sample_batch
    assert conciserl.sample_outcomes is env.sample_outcomes
    assert cli.sample_outcomes is env.sample_outcomes


def test_rollout_is_an_unchecked_trace_record():
    # the test reference's trace record: no checks and no export, since the
    # library never builds one
    assert "Rollout" not in conciserl.__all__ and not hasattr(conciserl, "Rollout")
    assert "__post_init__" not in vars(core.Rollout)
