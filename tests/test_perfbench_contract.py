"""The program surface that perfbench/ calls, checked without running it.

perfbench wraps mvring's functions by owner and attribute name, and skips a
target that does not exist, so a rename in src/ would silently drop a span.
Its oracles and per-layer harness call the operators with their own
parameters. These tests import perfbench/ as it is and use it unchanged.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

OPERATOR_SPANS = ("denoiser.denoise", "denoiser.res_block",
                  "denoiser.cross_attention", "attention.adjacent",
                  "attention.trajectory", "scan.rapid_glance",
                  "attention.score_map", "attention.air", "kernel.linrec")


@pytest.fixture(scope="module")
def mv():
    return run.import_mvring()


def test_every_span_target_exists(mv):
    for owner, attr, name, _ in spans.targets(mv):
        found = attr in owner.__dict__ if isinstance(owner, type) \
            else hasattr(owner, attr)
        assert found, f"{name}: {owner!r} has no {attr!r}"


def test_operator_oracles_and_harness_calls_pass(mv):
    ops = layers.Operators(mv, 8, 8, seed=3)
    for name, ok, note in ops.check_oracles():
        assert ok, f"{name}: {note}"
    x = mv.tensor.Tensor(ops.x)
    for name, fn in ops.forward_fns().items():
        assert fn(x).shape == ops.x.shape, name


def test_traced_full_stack_denoise_records_every_operator(mv):
    dn = mv.denoiser
    config = dn.ModelConfig(f=3, latent_h=4, latent_w=4, channels=8,
                            **workloads.stack_flags(workloads.FULL))
    model = dn.MvDenoiser(config, seed=0)
    z = np.random.default_rng(0).standard_normal((3, 3, 4, 4))
    tracer = spans.Tracer("contract")
    with spans.installed(tracer, mv):
        model.denoise(z, 500, np.ones(dn.TEXT_DIM))
    missing = set(OPERATOR_SPANS) - set(tracer.names)
    assert not missing, f"no span recorded for {sorted(missing)}"
    assert dn.adjacent_attention is mv.attention.adjacent_attention


def test_step_modes_replay_training_steps_coins(mv):
    """perfbench's replay of training_step's draws reads ModelConfig.p_2d,
    ModelConfig.p_drop and the model's schedule length; its coins must be
    the ones training_step draws."""
    dn = mv.denoiser
    config = dn.ModelConfig(f=3, latent_h=4, latent_w=4, channels=8)
    model = dn.MvDenoiser(config, seed=0)
    batch = {"z0": np.random.default_rng(0).standard_normal((3, 3, 4, 4)),
             "text": np.ones(dn.TEXT_DIM), "null": np.zeros(dn.TEXT_DIM)}
    env = {"model": model, "batch": batch}
    n = 30
    modes = workloads.step_modes(env, n)
    draws = workloads.training_draws(env, workloads.TRAIN_RNG_SEED)
    drops = [next(draws)[2] for _ in range(n)]
    seen = []
    real = model.denoise

    def spy(z_t, t, text, mode_2d=False):
        seen.append((mode_2d, text is batch["null"]))
        return real(z_t, t, text, mode_2d=mode_2d)

    model.denoise = spy
    rng = np.random.default_rng(workloads.TRAIN_RNG_SEED)
    for _ in range(n):
        dn.training_step(batch, model, model.sched, rng)
    assert seen == list(zip(modes, drops))
    assert True in modes and False in modes and True in drops


def test_train_full_set_up_trains_a_step(mv, tmp_path):
    """perfbench's own train-full set-up builds a batch whose prompt
    embedding the model takes: one training step gives a finite loss."""
    env = workloads.set_up_once(mv, workloads.WORKLOADS["train-full"], 0,
                                str(tmp_path), 0)
    model = env["model"]
    loss = mv.denoiser.training_step(env["batch"], model, model.sched,
                                     np.random.default_rng(workloads.TRAIN_RNG_SEED))
    assert np.isfinite(loss)
