"""The three cross-view attention operators against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvring.attention import (AirConfig, AttentionParams, ScoreMapper,
                              adjacent_attention, air_attention, score_map,
                              sdpa, trajectory_attention)
from mvring.geometry import LatentStack, ViewRing, delta_azimuth, trajectory_window
from mvring.tensor import Tape, Tensor, grad_check


def np_softmax(x, axis=-1):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def np_sdpa(q, k, v):
    return np_softmax(q @ k.T / math.sqrt(q.shape[-1])) @ v


def random_params(seed, c):
    return AttentionParams.init(Tape(seed), "p", c, out_scale=1.0)


def to_tokens(arr):
    f, c, h, w = arr.shape
    return arr.transpose(0, 2, 3, 1).reshape(f, h * w, c)


def to_maps(tok, h, w):
    f, hw, c = tok.shape
    return tok.reshape(f, h, w, c).transpose(0, 3, 1, 2)


class TestSdpa:
    def test_single_key_returns_value(self, rng):
        q = Tensor(rng.standard_normal((5, 4)))
        k = Tensor(rng.standard_normal((1, 4)))
        v = Tensor(rng.standard_normal((1, 4)))
        out = sdpa(q, k, v).data
        assert np.allclose(out, np.tile(v.data, (5, 1)), atol=1e-15)

    def test_zero_query_uniform_attention(self, rng):
        k = Tensor(rng.standard_normal((6, 4)))
        v = Tensor(rng.standard_normal((6, 4)))
        out = sdpa(Tensor(np.zeros((3, 4))), k, v).data
        assert np.allclose(out, np.tile(v.data.mean(0), (3, 1)), atol=1e-14)

    def test_two_key_closed_form(self):
        q = Tensor(np.array([[1.0, 0.0]]))
        k = Tensor(np.eye(2))
        v = Tensor(np.eye(2))
        out = sdpa(q, k, v).data
        l0 = 1.0 / math.sqrt(2.0)
        w0 = math.exp(l0) / (math.exp(l0) + 1.0)
        assert np.allclose(out, [[w0, 1.0 - w0]], atol=1e-14)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="sdpa"):
            sdpa(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3))),
                 Tensor(np.zeros((5, 3))))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(2, 5))
    def test_duplicate_key_invariance(self, copies, m):
        rng = np.random.default_rng(copies * 10 + m)
        q = Tensor(rng.standard_normal((3, 4)))
        k = rng.standard_normal((m, 4))
        v = rng.standard_normal((m, 4))
        one = sdpa(q, Tensor(k), Tensor(v)).data
        many = sdpa(q, Tensor(np.tile(k, (copies, 1))),
                    Tensor(np.tile(v, (copies, 1)))).data
        assert np.max(np.abs(one - many)) <= 1e-12


class TestAdjacentAttention:
    def test_identical_views_reduce_to_self_attention(self, rng):
        ring = ViewRing(f=5, W=3, H=2)
        p = random_params(0, 4)
        one = rng.standard_normal((1, 4, 2, 3))
        stack = LatentStack(Tensor(np.repeat(one, 5, axis=0)), ring)
        got = adjacent_attention(stack, p).data.data
        tok = to_tokens(one)[0]
        want = np_sdpa(tok @ p.w_q.data, tok @ p.w_k.data,
                       tok @ p.w_v.data) @ p.w_o.data
        want = to_maps(want[None], 2, 3)
        assert np.max(np.abs(got - np.repeat(want, 5, axis=0))) <= 1e-12

    def test_single_view_is_self_attention(self, rng):
        ring = ViewRing(f=1, W=2, H=2)
        p = random_params(1, 4)
        z = rng.standard_normal((1, 4, 2, 2))
        got = adjacent_attention(LatentStack(Tensor(z), ring), p).data.data
        tok = to_tokens(z)[0]
        want = to_maps((np_sdpa(tok @ p.w_q.data, tok @ p.w_k.data,
                                tok @ p.w_v.data) @ p.w_o.data)[None], 2, 2)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_concat_and_attend_oracle(self, rng):
        ring = ViewRing(f=4, W=2, H=2)
        p = random_params(2, 4)
        z = rng.standard_normal((4, 4, 2, 2))
        got = adjacent_attention(LatentStack(Tensor(z), ring), p).data.data
        toks = to_tokens(z)
        outs = []
        for i in range(4):
            cat = np.concatenate([toks[(i - 1) % 4], toks[i], toks[(i + 1) % 4]])
            outs.append(np_sdpa(toks[i] @ p.w_q.data, cat @ p.w_k.data,
                                cat @ p.w_v.data) @ p.w_o.data)
        want = to_maps(np.stack(outs), 2, 2)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_cyclic_relabelling_equivariance_bitwise(self, rng):
        ring = ViewRing(f=6, W=2, H=2)
        p = random_params(3, 4)
        z = rng.standard_normal((6, 4, 2, 2))
        base = adjacent_attention(LatentStack(Tensor(z), ring), p).data.data
        for k in (1, 3):
            rolled = adjacent_attention(
                LatentStack(Tensor(np.roll(z, -k, axis=0)), ring), p).data.data
            assert np.array_equal(rolled, np.roll(base, -k, axis=0))

    def test_channel_mismatch(self, rng):
        p = random_params(4, 8)
        stack = LatentStack(Tensor(rng.standard_normal((2, 4, 2, 2))),
                            ViewRing(f=2, W=2, H=2))
        with pytest.raises(ValueError, match="channels"):
            adjacent_attention(stack, p)

class TestTrajectoryAttention:
    def test_uniform_features_pass_through_identity_projections(self):
        ring = ViewRing(f=1, W=4, H=4)
        eye = Tensor(np.eye(3))
        p = AttentionParams(w_q=eye, w_k=eye, w_v=Tensor(np.eye(3)),
                            w_o=Tensor(np.eye(3)))
        c = np.array([0.3, -1.2, 0.5])
        z = np.tile(c[None, :, None, None], (1, 1, 4, 4))
        got = trajectory_attention(LatentStack(Tensor(z), ring), ring, p).data.data
        assert np.max(np.abs(got - z)) <= 1e-12

    def test_single_view_equals_own_window_attention(self, rng):
        """f=1 makes all three windows coincide; duplicate keys renormalize."""
        ring = ViewRing(f=1, W=4, H=4)
        p = random_params(6, 4)
        z = rng.standard_normal((1, 4, 4, 4))
        got = trajectory_attention(LatentStack(Tensor(z), ring), ring, p).data.data
        tok = to_tokens(z)[0]
        q = tok @ p.w_q.data
        k = tok @ p.w_k.data
        v = tok @ p.w_v.data
        out = np.empty_like(tok)
        for y in range(4):
            for x in range(4):
                win = trajectory_window(x, y, 0.0, 4, 4)
                sel = [r * 4 + c for c, r in win]
                out[y * 4 + x] = np_sdpa(q[y * 4 + x:y * 4 + x + 1],
                                         k[sel], v[sel]) @ p.w_o.data
        want = to_maps(out[None], 4, 4)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_gather_and_attend_oracle(self, rng):
        ring = ViewRing(f=4, W=8, H=8)
        p = random_params(7, 4)
        z = rng.standard_normal((4, 4, 8, 8))
        got = trajectory_attention(LatentStack(Tensor(z), ring), ring, p).data.data

        toks = to_tokens(z)
        q = toks @ p.w_q.data
        k = toks @ p.w_k.data
        v = toks @ p.w_v.data
        out = np.empty_like(toks)
        for i in range(4):
            for y in range(8):
                for x in range(8):
                    ks, vs = [], []
                    for off in (-1, 0, 1):
                        j = (i + off) % 4
                        da = delta_azimuth(ring, i, j) if off else 0.0
                        for c, r in trajectory_window(x, y, da, 8, 8):
                            ks.append(k[j, r * 8 + c])
                            vs.append(v[j, r * 8 + c])
                    out[i, y * 8 + x] = np_sdpa(
                        q[i, y * 8 + x][None], np.stack(ks), np.stack(vs)
                    )[0] @ p.w_o.data
        want = to_maps(out, 8, 8)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_cyclic_relabelling_equivariance_bitwise(self, rng):
        ring = ViewRing(f=4, W=4, H=4)
        p = random_params(8, 4)
        z = rng.standard_normal((4, 4, 4, 4))
        stack = LatentStack(Tensor(z), ring)
        base = trajectory_attention(stack, ring, p).data.data
        rolled = trajectory_attention(
            LatentStack(Tensor(np.roll(z, -2, axis=0)), ring), ring, p).data.data
        assert np.array_equal(rolled, np.roll(base, -2, axis=0))

    def test_ring_shape_mismatch(self, rng):
        ring = ViewRing(f=2, W=8, H=8)
        p = random_params(9, 4)
        stack = LatentStack(Tensor(rng.standard_normal((2, 4, 4, 4))),
                            ViewRing(f=2, W=4, H=4))
        with pytest.raises(ValueError, match="match"):
            trajectory_attention(stack, ring, p)


class TestScoreMap:
    def test_zero_mapper_gives_half(self, rng):
        mapper = ScoreMapper(w1=Tensor(np.zeros((7, 5))), b1=Tensor(np.zeros(5)),
                             w2=Tensor(np.zeros((5, 1))), b2=Tensor(np.zeros(1)))
        stack = LatentStack(Tensor(rng.standard_normal((2, 4, 2, 2))),
                            ViewRing(f=2, W=2, H=2))
        s = score_map(stack, np.zeros(3), mapper).data
        assert s.shape == (2, 1, 2, 2)
        assert np.all(s == 0.5)

    def test_scores_strictly_inside_unit_interval(self, rng):
        tape = Tape(10)
        mapper = ScoreMapper.init(tape, "m", 4, 3)
        stack = LatentStack(Tensor(rng.standard_normal((3, 4, 4, 4)) * 50),
                            ViewRing(f=3, W=4, H=4))
        s = score_map(stack, rng.standard_normal(3), mapper).data
        assert np.all(s > 0.0) and np.all(s < 1.0)

    def test_distinct_prompts_give_distinct_maps(self, rng):
        tape = Tape(11)
        mapper = ScoreMapper.init(tape, "m", 4, 3)
        stack = LatentStack(Tensor(rng.standard_normal((2, 4, 2, 2))),
                            ViewRing(f=2, W=2, H=2))
        s1 = score_map(stack, np.array([1.0, 0.0, 0.0]), mapper).data
        s2 = score_map(stack, np.array([0.0, 1.0, 0.0]), mapper).data
        assert np.max(np.abs(s1 - s2)) > 0.0

    def test_dim_mismatch(self, rng):
        tape = Tape(12)
        mapper = ScoreMapper.init(tape, "m", 4, 3)
        stack = LatentStack(Tensor(rng.standard_normal((2, 4, 2, 2))),
                            ViewRing(f=2, W=2, H=2))
        with pytest.raises(ValueError, match="dim"):
            score_map(stack, np.zeros(5), mapper)


class TestAirAttention:
    def test_unit_scores_identity_strides_match_dense_oracle(self, rng):
        ring = ViewRing(f=4, W=4, H=4)
        p = random_params(13, 4)
        z = rng.standard_normal((4, 4, 4, 4))
        stack = LatentStack(Tensor(z), ring)
        got = air_attention(stack, Tensor(np.ones((4, 1, 4, 4))),
                            AirConfig(1, 1), p).data.data
        toks = to_tokens(z)
        kc = (toks @ p.w_k.data).reshape(-1, 4)
        vc = (toks @ p.w_v.data).reshape(-1, 4)
        outs = [np_sdpa(toks[i] @ p.w_q.data, kc, vc) @ p.w_o.data
                for i in range(4)]
        want = to_maps(np.stack(outs), 4, 4)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_zero_scores_zero_output(self, rng):
        ring = ViewRing(f=3, W=4, H=4)
        p = random_params(14, 4)
        stack = LatentStack(Tensor(rng.standard_normal((3, 4, 4, 4))), ring)
        out = air_attention(stack, Tensor(np.zeros((3, 1, 4, 4))),
                            AirConfig(2, 4), p).data.data
        assert np.all(out == 0.0)

    def test_step_composition_oracle(self, rng):
        """scale -> pool -> concat -> sdpa -> project -> upsample, by hand."""
        ring = ViewRing(f=4, W=8, H=8)
        p = random_params(15, 4)
        z = rng.standard_normal((4, 4, 8, 8))
        scores = rng.uniform(0.1, 0.9, (4, 1, 8, 8))
        cfg = AirConfig(tau=2, rho=4)
        got = air_attention(LatentStack(Tensor(z), ring), Tensor(scores),
                            cfg, p).data.data

        def pool(m, s):
            f, c, h, w = m.shape
            return m.reshape(f, c, h // s, s, w // s, s).mean(axis=(3, 5))

        def project(m, w):
            return to_maps(to_tokens(m) @ w, m.shape[2], m.shape[3])

        qb = project(z, p.w_q.data)
        kb = project(z, p.w_k.data)
        vb = project(z, p.w_v.data)
        qp = pool(scores * qb, cfg.tau)
        kp = pool(scores * kb, cfg.rho)
        vp = pool(scores * vb, cfg.rho)
        k_all = to_tokens(kp).reshape(-1, 4)
        v_all = to_tokens(vp).reshape(-1, 4)
        up_h = np.zeros((8, 4))
        src = np.clip((np.arange(8) + 0.5) / 2 - 0.5, 0, 3)
        i0 = np.minimum(np.floor(src).astype(int), 2)
        up_h[np.arange(8), i0] = 1 - (src - i0)
        up_h[np.arange(8), i0 + 1] += src - i0
        outs = []
        for i in range(4):
            att = np_sdpa(to_tokens(qp)[i], k_all, v_all) @ p.w_o.data
            maps = to_maps(att[None], 4, 4)[0]
            outs.append(np.einsum("Hh,chw,Ww->cHW", up_h, maps, up_h))
        want = np.stack(outs)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_output_shape_for_every_stride_pair(self, rng):
        ring = ViewRing(f=2, W=8, H=8)
        p = random_params(16, 4)
        z = rng.standard_normal((2, 4, 8, 8))
        scores = rng.uniform(0, 1, (2, 1, 8, 8))
        for tau in (1, 2, 4):
            for rho in (tau, 4, 8):
                out = air_attention(LatentStack(Tensor(z), ring), Tensor(scores),
                                    AirConfig(tau, rho), p).data
                assert out.shape == z.shape

    def test_stride_must_divide(self, rng):
        ring = ViewRing(f=2, W=6, H=6)
        p = random_params(17, 4)
        stack = LatentStack(Tensor(rng.standard_normal((2, 4, 6, 6))), ring)
        with pytest.raises(ValueError, match="divide"):
            air_attention(stack, Tensor(np.ones((2, 1, 6, 6))),
                          AirConfig(2, 4), p)

    def test_invalid_config(self):
        with pytest.raises(ValueError, match="tau"):
            AirConfig(tau=4, rho=2)


class TestOperatorGradients:
    def test_all_three_operators_end_to_end(self, rng):
        ring = ViewRing(f=3, W=4, H=4)
        tape = Tape(18)
        p_aa = AttentionParams.init(tape, "aa", 4, out_scale=1.0)
        p_dr = AttentionParams.init(tape, "dr", 4, out_scale=1.0)
        p_air = AttentionParams.init(tape, "air", 4, out_scale=1.0)
        mapper = ScoreMapper.init(tape, "sm", 4, 3)
        text = rng.standard_normal(3)
        x = Tensor(rng.standard_normal((3, 4, 4, 4)) * 0.5, requires_grad=True)

        def f():
            st = LatentStack(x, ring)
            a = adjacent_attention(st, p_aa)
            b = trajectory_attention(a, ring, p_dr)
            s = score_map(b, text, mapper)
            c = air_attention(b, s, AirConfig(2, 4), p_air)
            return (c.data * c.data).sum()

        params = [x, p_aa.w_q, p_aa.w_o, p_dr.w_k, p_air.w_v, mapper.w1]
        rep = grad_check(f, params, eps=1e-6, tol=1e-4, max_entries=10)
        assert rep.passed, rep

    def test_two_ring_chain_gradients(self, rng):
        ring = ViewRing(f=2, W=4, H=4)
        tape = Tape(19)
        p_aa = AttentionParams.init(tape, "aa", 4, out_scale=1.0)
        p_dr = AttentionParams.init(tape, "dr", 4, out_scale=1.0)
        p_air = AttentionParams.init(tape, "air", 4, out_scale=1.0)
        mapper = ScoreMapper.init(tape, "sm", 4, 3)
        text = rng.standard_normal((2, 3))
        x = Tensor(rng.standard_normal((4, 4, 4, 4)) * 0.5, requires_grad=True)

        def f():
            st = LatentStack(x, ring)
            a = adjacent_attention(st, p_aa)
            b = trajectory_attention(a, ring, p_dr)
            c = air_attention(b, score_map(b, text, mapper), AirConfig(2, 4), p_air)
            return (c.data * c.data).sum()

        params = [x, p_aa.w_k, p_dr.w_v, p_air.w_q, mapper.w1]
        rep = grad_check(f, params, eps=1e-6, tol=1e-4, max_entries=10)
        assert rep.passed, rep


class TestRingBatches:
    """A stack of B rings [B*f, C, H, W] mixes views within each ring only."""

    def test_operators_match_single_ring_calls(self, rng):
        ring = ViewRing(f=3, W=4, H=4)
        p = random_params(20, 4)
        mapper = ScoreMapper.init(Tape(21), "sm", 4, 3)
        z = rng.standard_normal((6, 4, 4, 4))
        text = rng.standard_normal((2, 3))

        def ops(x, e):
            st = LatentStack(Tensor(x), ring)
            s = score_map(st, e, mapper)
            return [adjacent_attention(st, p).data.data,
                    trajectory_attention(st, ring, p).data.data,
                    s.data,
                    air_attention(st, s, AirConfig(2, 4), p).data.data]

        both = ops(z, text)
        for b in range(2):
            for got, want in zip(both, ops(z[3 * b:3 * b + 3], text[b])):
                assert np.max(np.abs(got[3 * b:3 * b + 3] - want)) <= 1e-12

    def test_partial_ring_rejected(self, rng):
        with pytest.raises(ValueError, match="whole number of rings"):
            LatentStack(Tensor(rng.standard_normal((5, 4, 2, 2))),
                        ViewRing(f=3, W=2, H=2))

    def test_score_map_needs_one_embedding_per_ring(self, rng):
        ring = ViewRing(f=2, W=2, H=2)
        mapper = ScoreMapper.init(Tape(22), "sm", 4, 3)
        st = LatentStack(Tensor(rng.standard_normal((4, 4, 2, 2))), ring)
        with pytest.raises(ValueError, match="per ring"):
            score_map(st, rng.standard_normal(3), mapper)
