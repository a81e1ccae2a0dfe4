"""Noise schedule, conditioning, the denoiser stack, training and DDIM."""

import gc
import json
import os

import numpy as np
import pytest

from mvring import denoiser as dn
from mvring.attention import AttentionParams
from mvring.denoiser import (Adam, CheckpointError, ModelConfig, MvDenoiser,
                             NoiseSchedule, NormParams, ToyTextEncoder,
                             TrainingDiverged, add_noise, camera_features,
                             cross_attention, ddim_sample, ddim_step,
                             ddim_timesteps, decode_latents, encode_images,
                             latent_ring, load_checkpoint, prompt_template,
                             save_checkpoint, train_loop, training_step)
from mvring.tensor import (Tape, Tensor, bilinear_upsample2d, grad_check,
                           no_grad)


def mini_config(**over):
    base = dict(f=2, latent_h=4, latent_w=4, channels=8, blocks=1,
                text_dim=8, d_state=2)
    base.update(over)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def mini_model():
    return MvDenoiser(mini_config(), seed=0)


@pytest.fixture(scope="module")
def text8():
    return ToyTextEncoder(dim=8).embed_prompt(prompt_template("a test cube"))


class TestSchedule:
    def test_linear_schedule_invariants(self):
        s = NoiseSchedule.linear()
        assert s.T == 1000
        assert s.alpha_bar[0] == 1.0
        assert np.all(np.diff(s.alpha_bar) < 0)
        assert np.all(s.alpha_bar > 0) and np.all(s.alpha_bar <= 1)

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError):
            NoiseSchedule(alpha_bar=np.array([1.0, 0.5, 0.6]))

    def test_add_noise_boundaries(self, rng):
        s = NoiseSchedule.linear()
        z0 = rng.standard_normal((2, 3, 4, 4))
        eps = rng.standard_normal(z0.shape)
        assert np.array_equal(add_noise(z0, 0, eps, s), z0)
        zT = add_noise(z0, s.T, eps, s)
        ab = s.alpha_bar[s.T]
        assert np.allclose(zT, np.sqrt(ab) * z0 + np.sqrt(1 - ab) * eps)

    def test_add_noise_direct_substitution(self, rng):
        s = NoiseSchedule(alpha_bar=np.array([1.0, 0.25]))
        z0 = rng.standard_normal((1, 3, 2, 2))
        eps = rng.standard_normal(z0.shape)
        want = 0.5 * z0 + np.sqrt(0.75) * eps
        assert np.allclose(add_noise(z0, 1, eps, s), want, atol=1e-15)

    def test_add_noise_inversion(self, rng):
        s = NoiseSchedule.linear()
        z0 = rng.standard_normal((2, 3, 4, 4))
        eps = rng.standard_normal(z0.shape)
        for t in (1, 137, 600, 1000):
            zt = add_noise(z0, t, eps, s)
            back = (zt - np.sqrt(1 - s.alpha_bar[t]) * eps) / np.sqrt(s.alpha_bar[t])
            assert np.max(np.abs(back - z0)) < 1e-10

    def test_t_out_of_range(self, rng):
        s = NoiseSchedule.linear()
        z = rng.standard_normal((1, 3, 2, 2))
        with pytest.raises(ValueError, match="outside"):
            add_noise(z, 1001, z, s)


class TestPromptAndText:
    def test_template_exact(self):
        assert prompt_template("a red chair") == \
            "A DSLR photo of a red chair, 3d asset"

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            prompt_template("")
        with pytest.raises(ValueError):
            prompt_template("   ")

    def test_template_applied_before_tokenization(self):
        tokens = ToyTextEncoder.tokenize(prompt_template("a red chair"))
        assert "dslr" in tokens and "asset" in tokens
        assert "chair" in tokens

    def test_same_prompt_bitwise_identical(self):
        a = ToyTextEncoder().embed_prompt("wooden boat")
        b = ToyTextEncoder().embed_prompt("wooden boat")
        assert np.array_equal(a, b)

    def test_tokenless_prompt_embeds_as_null(self):
        enc = ToyTextEncoder()
        assert np.array_equal(enc.embed_prompt("!!!"), enc.null)

    def test_null_differs_from_real_prompts(self):
        enc = ToyTextEncoder()
        assert np.max(np.abs(enc.embed_prompt("a cube") - enc.null)) > 0


class TestCameraEmbedding:
    def test_identical_cameras_bitwise(self, mini_model):
        ring = mini_model.ring
        for v in range(ring.f):
            assert np.array_equal(mini_model.cam_feats[v], camera_features(
                ring.azimuth_deg(v), ring.elevation_deg))
        a = mini_model.cam_mlp(Tensor(mini_model.cam_feats)).data
        b = mini_model.cam_mlp(Tensor(mini_model.cam_feats)).data
        assert np.array_equal(a, b)

    def test_ring_cameras_pairwise_distinct(self):
        model = MvDenoiser(mini_config(f=12), seed=0)
        embs = model.cam_mlp(Tensor(model.cam_feats)).data
        dists = [np.linalg.norm(embs[i] - embs[j])
                 for i in range(12) for j in range(i + 1, 12)]
        assert min(dists) > 0.0

    def test_features_periodic_by_construction(self):
        assert np.array_equal(camera_features(720.0, 10.0),
                              camera_features(0.0, 10.0))


class TestLatentCodec:
    def test_encode_shape_and_range(self, rset0):
        z = encode_images(rset0.images)
        assert z.shape == (12, 3, 8, 8)
        assert z.min() >= -1.0 and z.max() <= 1.0

    def test_decode_inverts_scaling(self, rset0):
        pooled = rset0.images.transpose(0, 3, 1, 2).reshape(
            12, 3, 8, 4, 8, 4).mean(axis=(3, 5))
        want = np.clip(bilinear_upsample2d(Tensor(pooled), 4).data, 0.0, 1.0)
        got = decode_latents(encode_images(rset0.images))
        assert np.max(np.abs(got - want.transpose(0, 2, 3, 1))) < 1e-12

    def test_decode_upsampled_shape(self, rset0):
        img = decode_latents(encode_images(rset0.images))
        assert img.shape == (12, 32, 32, 3)
        assert img.min() >= 0.0 and img.max() <= 1.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_decode_upsample_is_the_interpolation_matmul(self, rng, dtype):
        """Bit for bit the separable matmul pair uh @ rgb @ uw^T."""
        from mvring.tensor import _upsample_matrix
        z = rng.uniform(-1.2, 1.2, (3, 3, 5, 6)).astype(dtype)
        rgb = np.clip((z + 1.0) / 2.0, 0.0, 1.0)
        uh = _upsample_matrix(5, 4, rgb.dtype)
        uw = _upsample_matrix(6, 4, rgb.dtype)
        want = np.clip(np.matmul(uh, np.matmul(rgb, uw.T)), 0.0, 1.0)
        got = decode_latents(z)
        assert got.dtype == dtype
        assert np.array_equal(got, want.transpose(0, 2, 3, 1))


class TestDenoise:
    def test_fresh_model_predicts_zero(self, mini_model, text8, rng):
        z = rng.standard_normal((2, 3, 4, 4))
        out = mini_model.denoise(z, 500, text8).data
        assert np.all(out == 0.0)  # zero-initialised head

    def test_mode_2d_ignores_other_views(self, text8, rng):
        model = MvDenoiser(mini_config(), seed=3)
        _overfit_briefly(model, text8, steps=5)
        z = rng.standard_normal((2, 3, 4, 4))
        a = model.denoise(z, 400, text8, mode_2d=True).data
        z2 = z.copy()
        z2[1] += 3.0
        b = model.denoise(z2, 400, text8, mode_2d=True).data
        assert np.array_equal(a[0], b[0])
        assert not np.array_equal(a[1], b[1])

    def test_mode_2d_is_a_per_view_function(self, text8, rng):
        """Slot v's output depends on slot v's content and camera only."""
        model = MvDenoiser(mini_config(), seed=4)
        _overfit_briefly(model, text8, steps=5)
        z = rng.standard_normal((2, 3, 4, 4))
        base = model.denoise(z, 250, text8, mode_2d=True).data
        for v in range(2):
            clone = np.repeat(z[v:v + 1], 2, axis=0)  # both slots hold view v
            out = model.denoise(clone, 250, text8, mode_2d=True).data
            assert np.array_equal(out[v], base[v])

    def test_bitwise_reproducible(self, mini_model, text8, rng):
        z = rng.standard_normal((2, 3, 4, 4))
        a = mini_model.denoise(z, 123, text8).data
        b = mini_model.denoise(z, 123, text8).data
        assert np.array_equal(a, b)

    def test_ring_equivariance_without_scan(self, text8, rng):
        config = mini_config(f=4, enable_rg=False)
        model = MvDenoiser(config, seed=5)
        _overfit_briefly(model, text8, steps=5, f=4)
        z = rng.standard_normal((4, 3, 4, 4))
        base = model.denoise(z, 321, text8).data
        feats = model.cam_feats
        for k in (1, 2):
            model.cam_feats = np.roll(feats, -k, axis=0)  # slot v sees camera v+k
            rolled = model.denoise(np.roll(z, -k, axis=0), 321, text8).data
            assert np.allclose(rolled, np.roll(base, -k, axis=0), atol=1e-10)

    def test_shape_mismatch_rejected(self, mini_model, text8):
        with pytest.raises(ValueError, match="latent stack"):
            mini_model.denoise(np.zeros((2, 3, 8, 8)), 10, text8)

    def test_unknown_scan_strategy_rejected(self):
        with pytest.raises(ValueError, match="scan strategy"):
            mini_config(scan_strategy="zigzag")


def _jittered(config, seed):
    """A model whose every parameter, the zero-initialised head included, is
    perturbed, so each operator's output reaches the prediction."""
    model = MvDenoiser(config, seed=seed)
    rng = np.random.default_rng(seed)
    for p in model.params():
        p.data = p.data + rng.standard_normal(p.data.shape) * 0.1
    return model


def _graph_nodes(out):
    seen, stack, count = set(), [out], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            count += node._backward is not None
            stack.extend(node._parents)
    return count


class TestBatchedDenoise:
    def test_embedding_must_fit_the_batch(self, mini_model, text8):
        z = np.zeros((2, 3, 4, 4))
        with pytest.raises(ValueError, match="text embedding"):
            mini_model.denoise(z, 10, np.stack([text8] * 2)[None])
        with pytest.raises(ValueError, match="text embedding"):
            mini_model.denoise(z, 10, np.float64(1.0))
        # the ring is the one latent input; a stack of rings is not
        for emb in (text8, np.stack([text8] * 2), np.stack([text8] * 3)):
            with pytest.raises(ValueError, match="latent stack"):
                mini_model.denoise(np.stack([z, z]), 10, emb)

    @pytest.mark.parametrize("over, kw", [
        ({}, {}),
        ({}, {"mode_2d": True}),
        ({"scan_strategy": "row-major"}, {}),
        ({"blocks": 2}, {}),
    ], ids=["full", "mode_2d", "row_major", "two_blocks"])
    def test_one_ring_under_many_prompts_matches_stacked_copies(self, over, kw,
                                                                rng):
        """Prompt b's slice is the ring denoised under prompt b alone."""
        model = _jittered(mini_config(f=3, **over), seed=25)
        z = rng.standard_normal((3, 3, 4, 4))
        emb = rng.standard_normal((3, 8))
        shared = model.denoise(z, 321, emb, **kw).data
        assert shared.shape == (3, 3, 3, 4, 4)
        assert np.max(np.abs(shared[0] - shared[1])) > 1e-3
        for b in range(3):
            one = model.denoise(z, 321, emb[b], **kw).data
            assert np.max(np.abs(shared[b] - one)) <= 1e-12

    def test_shared_ring_gradients_match_stacked_copies(self, rng):
        """Gradients through the shared trunk are the sum of the gradients
        of the single-prompt calls."""
        model = _jittered(mini_config(f=3, blocks=2), seed=26)
        z = rng.standard_normal((3, 3, 4, 4))
        emb = rng.standard_normal((2, 8))
        w = rng.standard_normal((2, 3, 3, 4, 4))

        def grads(e, w_out):
            zt = Tensor(z, requires_grad=True)
            model.tape.zero_grad()
            (model.denoise(zt, 321, e) * Tensor(w_out)).sum().backward()
            return [zt.grad] + [p.grad.copy() for p in model.params()]

        per_prompt = [grads(emb[b], w[b]) for b in range(2)]
        for a, g0, g1 in zip(grads(emb, w), *per_prompt):
            want = g0 + g1
            assert np.max(np.abs(a - want)) <= 1e-12 * np.max(np.abs(want))

    def test_no_grad_builds_no_graph(self, text8, rng):
        model = _jittered(mini_config(), seed=22)
        z = rng.standard_normal((2, 3, 4, 4))
        assert _graph_nodes(model.denoise(z, 100, text8)) > 0
        with no_grad():
            out = model.denoise(z, 100, text8)
        assert _graph_nodes(out) == 0 and not out.requires_grad

    def test_graph_freed_by_refcount(self, text8, rng):
        model = _jittered(mini_config(), seed=23)
        z = Tensor(rng.standard_normal((2, 3, 4, 4)))
        eps = Tensor(rng.standard_normal((2, 3, 4, 4)))

        def step():
            diff = model.denoise(z, 200, text8) - eps
            (diff * diff).mean().backward()

        step()  # fills the lazy per-shape caches
        gc.collect()
        step()
        assert gc.collect() == 0


def np_cross_attention(x, e, gain, bias, w_q, w_k, w_v, w_o):
    """Pre-normed attention of each ring's spatial tokens onto its one
    prompt token, plus residual, with an explicit softmax over that key."""
    n, c, h, w = x.shape
    e = e.reshape(-1, e.shape[-1])
    b = e.shape[0]
    mu = x.mean(axis=1, keepdims=True)
    xn = (x - mu) / np.sqrt(x.var(axis=1, keepdims=True) + 1e-5)
    xn = xn * gain.reshape(1, c, 1, 1) + bias.reshape(1, c, 1, 1)
    tokens = xn.transpose(0, 2, 3, 1).reshape(b, -1, c)
    out = np.empty_like(tokens)
    for r in range(b):
        k, v = e[r:r + 1] @ w_k, e[r:r + 1] @ w_v                # one key
        logits = tokens[r] @ w_q @ k.T / np.sqrt(c)             # [L, 1]
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        out[r] = (p @ v) @ w_o
    return x + out.reshape(n, h, w, c).transpose(0, 3, 1, 2)


class TestCrossAttention:
    C, D = 8, 6

    def _perfbench_args(self, seed):
        """A NormParams and a full AttentionParams, as the layer harness passes."""
        tape = Tape(seed)
        rng = np.random.default_rng(seed)
        norm = NormParams(gain=tape.normal("g", (self.C,)),
                          bias=tape.normal("b", (self.C,)))
        att = AttentionParams.init(tape, "ca", self.C, kv_dim=self.D,
                                   out_scale=1.0)
        return norm, att, (norm.gain.data, norm.bias.data, att.w_q.data,
                           att.w_k.data, att.w_v.data, att.w_o.data), rng

    def _model_args(self, seed):
        """The model's block parameters: no norm, only w_v and w_o."""
        model = MvDenoiser(mini_config(channels=self.C, text_dim=self.D),
                           seed=seed)
        ca = model.blocks[0].ca
        rng = np.random.default_rng(seed)
        ca.w_o.data = rng.standard_normal(ca.w_o.shape)
        # the oracle's queries, keys and norm are arbitrary: with one key the
        # softmax weight is 1 whatever they are
        unused = (rng.standard_normal(self.C), rng.standard_normal(self.C),
                  rng.standard_normal((self.C, self.C)),
                  rng.standard_normal((self.D, self.C)))
        return None, ca, unused + (ca.w_v.data, ca.w_o.data), rng

    @pytest.mark.parametrize("rings", [1, 2])
    @pytest.mark.parametrize("kind", ["perfbench", "model"])
    def test_matches_single_key_attention(self, rings, kind):
        norm, params, arrays, rng = getattr(self, f"_{kind}_args")(30 + rings)
        x = rng.standard_normal((rings * 3, self.C, 4, 5))
        e = rng.standard_normal((rings, self.D))
        if rings == 1:
            e = e[0]
        got = cross_attention(Tensor(x), e, norm, params).data
        want = np_cross_attention(x, e, *arrays)
        assert got.shape == x.shape
        assert np.max(np.abs(got - want)) <= 1e-14
        if rings == 2:   # each ring gets its own shift
            shift = (got - x).reshape(2, -1)
            assert not np.allclose(shift[0], shift[1])

    def test_gradients_match_finite_differences(self):
        _, params, _, rng = self._model_args(40)
        x = Tensor(rng.standard_normal((4, self.C, 3, 3)), requires_grad=True)
        e = rng.standard_normal((2, self.D))
        g = Tensor(rng.standard_normal(x.shape))
        rep = grad_check(lambda: (cross_attention(x, e, None, params) * g).sum(),
                         [x, params.w_v, params.w_o], eps=1e-6, tol=1e-6)
        assert rep.passed, rep

    def test_every_parameter_gets_gradient(self):
        """A full-stack step on the default model reaches every parameter."""
        model = MvDenoiser(ModelConfig(p_2d=0.0, p_drop=0.0), seed=3)
        rng = np.random.default_rng(3)
        for p in model.params():
            p.data = p.data + 0.05 * rng.standard_normal(p.data.shape)
        enc = ToyTextEncoder()
        batch = {"z0": rng.standard_normal((12, 3, 8, 8)) * 0.5,
                 "text": enc.embed_prompt(prompt_template("a red cube")),
                 "null": enc.null}
        training_step(batch, model, model.sched, np.random.default_rng(0))
        dead = [name for name, p in model.named_params().items()
                if not np.any(p.grad_array())]
        assert dead == []


def _overfit_briefly(model, text, steps=5, f=None):
    rng = np.random.default_rng(0)
    f = f or model.config.f
    z0 = rng.standard_normal((f, 3, model.config.latent_h,
                              model.config.latent_w)) * 0.3
    batch = {"z0": z0, "text": text, "null": np.zeros_like(text)}
    train_loop(batch, model, seed=0, max_steps=steps, log_every=steps)


class TestTrainingStep:
    def test_oracle_model_gives_zero_loss(self, text8):
        model = MvDenoiser(mini_config(), seed=6)
        sched = model.sched
        z0 = np.random.default_rng(1).standard_normal((2, 3, 4, 4))
        batch = {"z0": z0, "text": text8, "null": np.zeros_like(text8)}
        probe = np.random.default_rng(42)
        t = int(probe.integers(1, sched.T + 1))
        eps = probe.standard_normal(z0.shape)
        model.denoise = lambda *a, **k: Tensor(eps.copy(), requires_grad=True)
        loss = training_step(batch, model, sched, np.random.default_rng(42))
        assert loss == 0.0

    def test_zero_model_loss_near_one(self, text8):
        model = MvDenoiser(mini_config(), seed=7)  # head starts at zero
        z0 = np.random.default_rng(2).standard_normal((2, 3, 4, 4))
        batch = {"z0": z0, "text": text8, "null": np.zeros_like(text8)}
        losses = [training_step(batch, model, model.sched,
                                np.random.default_rng(s)) for s in range(20)]
        assert abs(np.mean(losses) - 1.0) < 0.15

    def test_nonfinite_loss_aborts(self, text8):
        model = MvDenoiser(mini_config(), seed=8)
        z0 = np.full((2, 3, 4, 4), np.nan)
        batch = {"z0": z0, "text": text8, "null": np.zeros_like(text8)}
        with np.errstate(invalid="ignore"), pytest.raises(TrainingDiverged):
            training_step(batch, model, model.sched, np.random.default_rng(0))

    @pytest.mark.parametrize("kw", [{"max_steps": 0}, {"log_every": 0},
                                    {"log_every": -1}])
    def test_train_loop_rejects_nonpositive_counts(self, kw, text8):
        model = MvDenoiser(mini_config(), seed=9)
        z0 = np.zeros((2, 3, 4, 4))
        batch = {"z0": z0, "text": text8, "null": np.zeros_like(text8)}
        before = [p.data.copy() for p in model.params()]
        with pytest.raises(ValueError, match="max_steps and log_every"):
            train_loop(batch, model, seed=0, **kw)
        assert all(np.array_equal(a, p.data)
                   for a, p in zip(before, model.params()))

    @pytest.mark.parametrize("log_every,logged", [
        (25, [25, 50]), (7, [7, 14, 21, 28, 35, 42, 49, 50])])
    def test_early_stop_step_is_logged_once(self, text8, log_every, logged):
        model = MvDenoiser(mini_config(), seed=9)
        z0 = np.random.default_rng(3).standard_normal((2, 3, 4, 4)) * 0.3
        batch = {"z0": z0, "text": text8, "null": np.zeros_like(text8)}
        calls = []
        # the 50-step average is far below 1e9 as soon as the window fills
        hist = train_loop(batch, model, seed=0, max_steps=200, stop_loss=1e9,
                          log_every=log_every,
                          on_log=lambda *row: calls.append(row))
        assert [row[0] for row in hist] == logged
        assert calls == hist

    def test_loss_decreases_on_tiny_overfit(self, text8):
        model = MvDenoiser(mini_config(), seed=9)
        rng = np.random.default_rng(3)
        z0 = rng.standard_normal((2, 3, 4, 4)) * 0.3
        batch = {"z0": z0, "text": text8, "null": np.zeros_like(text8)}
        hist = train_loop(batch, model, seed=0, max_steps=300, log_every=50)
        assert hist[-1][2] < hist[0][2]

    def test_draw_order_reproducible(self, text8):
        losses = []
        for _ in range(2):
            model = MvDenoiser(mini_config(), seed=10)
            z0 = np.random.default_rng(4).standard_normal((2, 3, 4, 4))
            batch = {"z0": z0, "text": text8, "null": np.zeros_like(text8)}
            losses.append([training_step(batch, model, model.sched,
                                         np.random.default_rng(11))
                           for _ in range(4)])
        assert losses[0] == losses[1]


class TestDdim:
    def test_timesteps_descend_to_zero(self):
        ts = ddim_timesteps(1000, 50)
        assert ts[0] == 1000 and ts[-1] == 0
        assert np.all(np.diff(ts) < 0)
        assert len(ts) == 51

    def test_guidance_one_skips_unconditional(self, text8, rng):
        model = MvDenoiser(mini_config(), seed=11)
        calls = []
        orig = model.denoise

        def spy(z, t, emb, **kw):
            calls.append(np.array_equal(np.asarray(emb), text8))
            return orig(z, t, emb, **kw)

        model.denoise = spy
        ddim_sample(model, text8, np.zeros_like(text8), steps=3, guidance=1.0,
                    seed=0)
        assert all(calls) and len(calls) == 3

    def test_guided_step_runs_the_trunk_on_one_ring(self, text8, monkeypatch):
        model = MvDenoiser(mini_config(f=3), seed=14)
        views = []
        real = dn.res_block

        def spy(x, emb, p):
            views.append(x.shape[0])
            return real(x, emb, p)

        monkeypatch.setattr(dn, "res_block", spy)
        ddim_sample(model, text8, np.zeros_like(text8), steps=3, guidance=7.5,
                    seed=0)
        assert views == [3, 3, 3]

    def test_cfg_matches_two_call_loop(self, rng):
        model = _jittered(mini_config(f=3), seed=24)
        text, null = rng.standard_normal(8), rng.standard_normal(8)
        z_init = rng.standard_normal((3, 3, 4, 4))
        got = ddim_sample(model, text, null, steps=6, guidance=7.5,
                          z_init=z_init)
        z = z_init
        ts = ddim_timesteps(model.sched.T, 6)
        for t_from, t_to in zip(ts[:-1], ts[1:]):
            eps_c = model.denoise(z, int(t_from), text).data
            eps_u = model.denoise(z, int(t_from), null).data
            z = ddim_step(z, int(t_from), int(t_to),
                          eps_u + 7.5 * (eps_c - eps_u), model.sched)
        assert np.max(np.abs(got - z_init)) > 1e-3
        assert np.max(np.abs(got - z)) <= 1e-10

    def test_guidance_zero_is_unconditional(self, text8):
        model = MvDenoiser(mini_config(), seed=12)
        _overfit_briefly(model, text8, steps=10)
        null = np.zeros_like(text8)
        a = ddim_sample(model, text8, null, steps=4, guidance=0.0, seed=5)
        b = ddim_sample(model, null, null, steps=4, guidance=1.0, seed=5)
        assert np.allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("guidance", [float("nan"), float("inf"), -1.0])
    def test_bad_guidance_rejected(self, mini_model, text8, guidance):
        with pytest.raises(ValueError, match="guidance"):
            ddim_sample(mini_model, text8, np.zeros_like(text8), steps=2,
                        guidance=guidance)

    def test_more_steps_than_schedule_rejected(self):
        assert len(ddim_timesteps(1000, 1000)) == 1001
        with pytest.raises(ValueError, match="exceed"):
            ddim_timesteps(1000, 1001)

    def test_single_step_oracle_recovers_z0(self, rng):
        sched = NoiseSchedule.linear()
        z0 = rng.standard_normal((2, 3, 4, 4))
        eps = rng.standard_normal(z0.shape)
        for t in (1000, 600, 50):
            zt = add_noise(z0, t, eps, sched)
            back = ddim_step(zt, t, 0, eps, sched)
            assert np.max(np.abs(back - z0)) < 1e-8

    def test_sampling_bitwise_deterministic(self, text8):
        model = MvDenoiser(mini_config(), seed=13)
        _overfit_briefly(model, text8, steps=10)
        a = ddim_sample(model, text8, np.zeros_like(text8), steps=5,
                        guidance=7.5, seed=9)
        b = ddim_sample(model, text8, np.zeros_like(text8), steps=5,
                        guidance=7.5, seed=9)
        assert np.array_equal(a, b)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, text8):
        model = MvDenoiser(mini_config(), seed=14)
        _overfit_briefly(model, text8, steps=5)
        save_checkpoint(model, tmp_path, step=5, extra={"prompt": "x"})
        assert sorted(os.listdir(tmp_path)) == ["checkpoint.json", "params.mvt"]
        back, manifest = load_checkpoint(tmp_path)
        assert manifest["step"] == 5
        for name, p in model.named_params().items():
            assert np.array_equal(back.named_params()[name].data, p.data)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(tmp_path)

    def test_shape_mismatch_fails_loudly(self, tmp_path):
        from mvring.tensor import save_mvt
        model = MvDenoiser(mini_config(), seed=15)
        save_checkpoint(model, tmp_path, step=0)
        n = sum(p.data.size for p in model.params())
        for shape in ((2, 2), (n - 1,), (n + 1,), (1, n)):
            save_mvt(tmp_path / "params.mvt", np.zeros(shape))
            with pytest.raises(CheckpointError, match="params.mvt"):
                load_checkpoint(tmp_path)

    def test_missing_param_file_fails(self, tmp_path):
        model = MvDenoiser(mini_config(), seed=16)
        save_checkpoint(model, tmp_path, step=0)
        os.remove(tmp_path / "params.mvt")
        with pytest.raises(CheckpointError, match="missing tensor file .*params.mvt"):
            load_checkpoint(tmp_path)

    def test_truncated_param_file_fails(self, tmp_path):
        model = MvDenoiser(mini_config(), seed=16)
        save_checkpoint(model, tmp_path, step=0)
        victim = tmp_path / "params.mvt"
        victim.write_bytes(victim.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match="params.mvt.*corrupt payload"):
            load_checkpoint(tmp_path)

    def test_param_names_out_of_order_fails(self, tmp_path):
        model = MvDenoiser(mini_config(), seed=16)
        save_checkpoint(model, tmp_path, step=0)
        mpath = tmp_path / "checkpoint.json"
        manifest = json.loads(mpath.read_text())
        manifest["param_names"].reverse()
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="in order"):
            load_checkpoint(tmp_path)


class TestAdam:
    def test_minimizes_quadratic(self):
        x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam([x], lr=0.1)
        for _ in range(200):
            x.zero_grad()
            loss = (x * x).sum()
            loss.backward()
            opt.step()
        assert np.max(np.abs(x.data)) < 1e-2

    def test_skips_untouched_params(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = Tensor(np.array([2.0]), requires_grad=True)
        opt = Adam([x, y], lr=0.1)
        (x * x).sum().backward()
        opt.step()
        assert y.data[0] == 2.0
