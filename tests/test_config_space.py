"""Property test over ModelConfig's space: every config it accepts trains a
step, samples and round-trips a checkpoint; every config it refuses is one
that could not run. A separate test over a few fixed configs shows that one
channel, which ModelConfig also refuses, gives a prediction that ignores its
input.

The space is f in 1-4, latent extents 1-12 (non-square included), channels
2-8, each operator switch and each scan strategy. hypothesis draws it
derandomized, so the examples are the same on every run.
"""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvring.attention import AirConfig
from mvring.denoiser import (LATENT_CHANNELS, ModelConfig, MvDenoiser,
                             ToyTextEncoder, ddim_sample, load_checkpoint,
                             save_checkpoint, training_step)
from mvring.scan import SCAN_STRATEGIES

# half the extents are drawn from the ones air's strides divide, so that
# accepted configs with air on are not rare
EXTENT = st.one_of(st.sampled_from((4, 8, 12)), st.integers(1, 12))
SPACE = st.fixed_dictionaries({
    "f": st.integers(1, 4),
    "latent_h": EXTENT,
    "latent_w": EXTENT,
    "channels": st.integers(2, 8),
    "enable_aa": st.booleans(),
    "enable_dr": st.booleans(),
    "enable_rg": st.booleans(),
    "enable_air": st.booleans(),
    "scan_strategy": st.sampled_from(SCAN_STRATEGIES),
})


def air_strides_divide(kw):
    air = AirConfig()
    return all(d % s == 0 for d in (kw["latent_h"], kw["latent_w"])
               for s in (air.tau, air.rho))


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ck")


@pytest.fixture(scope="module")
def prompt():
    enc = ToyTextEncoder()
    return enc.embed_prompt("a red cube"), enc.null


@settings(derandomize=True, deadline=None, max_examples=150)
@given(SPACE)
def test_accepted_configs_run_and_refused_ones_cannot(checkpoint_dir, prompt, kw):
    text, null = prompt
    view = (kw["f"], LATENT_CHANNELS, kw["latent_h"], kw["latent_w"])
    z0 = np.random.default_rng(0).uniform(-1.0, 1.0, view)
    if kw["enable_air"] and not air_strides_divide(kw):
        with pytest.raises(ValueError, match="air strides"):
            ModelConfig(**kw)
        # with the check bypassed, the first cross-view forward fails
        config = ModelConfig(**{**kw, "enable_air": False})
        config.enable_air = True
        with pytest.raises(ValueError):
            MvDenoiser(config).denoise(z0, 500, text)
        return
    config = ModelConfig(**kw)
    model = MvDenoiser(config, seed=1)
    batch = {"z0": z0, "text": text, "null": null}
    assert np.isfinite(training_step(batch, model, model.sched,
                                     np.random.default_rng(0)))
    assert all(np.isfinite(p.grad_array()).all() for p in model.params())
    z = ddim_sample(model, text, null, steps=2, seed=0)
    assert z.shape == view and np.isfinite(z).all()
    save_checkpoint(model, checkpoint_dir)
    loaded, _ = load_checkpoint(checkpoint_dir)
    assert loaded.config == config
    saved = model.named_params()
    assert list(loaded.named_params()) == list(saved)
    assert all(np.array_equal(p.data, saved[n].data)
               for n, p in loaded.named_params().items())


ONE_CHANNEL = {
    "full-stack": dict(f=3, latent_h=4, latent_w=4),
    "non-square-air-dropped": dict(f=2, latent_h=5, latent_w=7,
                                   scan_strategy="row-major"),
    "aa-only": dict(f=4, latent_h=8, latent_w=8, enable_dr=False,
                    enable_rg=False, enable_air=False),
    "one-view-rg-only": dict(f=1, latent_h=3, latent_w=6,
                             enable_aa=False, enable_dr=False, enable_air=False,
                             scan_strategy="spatial-first-bidirectional"),
}


@pytest.mark.parametrize("case", list(ONE_CHANNEL))
def test_one_channel_is_refused_and_its_prediction_ignores_z_t(prompt, case):
    text, _ = prompt
    kw = {**asdict(ModelConfig()), **ONE_CHANNEL[case], "channels": 1}
    view = (kw["f"], LATENT_CHANNELS, kw["latent_h"], kw["latent_w"])
    z0 = np.random.default_rng(0).uniform(-1.0, 1.0, view)
    with pytest.raises(ValueError, match="channels"):
        ModelConfig(**kw)
    # with the check bypassed, every channel norm maps its input to its
    # bias, so the prediction of a jittered model ignores z_t
    air = kw["enable_air"] and air_strides_divide(kw)
    config = ModelConfig(**{**kw, "channels": 2, "enable_air": air})
    config.channels = 1
    model = MvDenoiser(config, seed=1)
    rng = np.random.default_rng(1)
    for p in model.params():
        p.data = p.data + rng.standard_normal(p.data.shape) * 0.1
    pred = model.denoise(z0, 500, text).data
    assert np.abs(pred).max() > 0.0
    assert np.array_equal(model.denoise(-z0, 500, text).data, pred)
