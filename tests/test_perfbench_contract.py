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
    config = dn.ModelConfig(f=3, latent_h=4, latent_w=4, channels=8, text_dim=8,
                            **workloads.stack_flags(workloads.FULL))
    model = dn.MvDenoiser(config, seed=0)
    z = np.random.default_rng(0).standard_normal((3, 3, 4, 4))
    tracer = spans.Tracer("contract")
    with spans.installed(tracer, mv):
        model.denoise(z, 500, np.ones(8))
    missing = set(OPERATOR_SPANS) - set(tracer.names)
    assert not missing, f"no span recorded for {sorted(missing)}"
    assert dn.adjacent_attention is mv.attention.adjacent_attention
