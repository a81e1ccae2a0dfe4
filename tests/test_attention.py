"""The three cross-view attention operators against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvring import reference as ref
from mvring.attention import (AirConfig, AttentionParams, ScoreMapper,
                              adjacent_attention, air_attention, score_map,
                              sdpa, trajectory_attention)
from mvring.geometry import LatentStack, ViewRing
from mvring.scan import SsmParams, rapid_glance
from mvring.tensor import Tape, Tensor, grad_check


def random_params(seed, c):
    return AttentionParams.init(Tape(seed), "p", c, out_scale=1.0)


def self_attention(one, p):
    """Dense attention over a one-view ring [1, C, H, W]: self attention."""
    return ref.air_attention(one, np.ones((1, 1) + one.shape[2:]),
                             AirConfig(1, 1), p)


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
        with pytest.raises(ValueError, match="inner dims"):
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
        want = self_attention(one, p)
        assert np.max(np.abs(got - np.repeat(want, 5, axis=0))) <= 1e-12

    def test_single_view_is_self_attention(self, rng):
        ring = ViewRing(f=1, W=2, H=2)
        p = random_params(1, 4)
        z = rng.standard_normal((1, 4, 2, 2))
        got = adjacent_attention(LatentStack(Tensor(z), ring), p).data.data
        assert np.max(np.abs(got - self_attention(z, p))) <= 1e-12

    def test_concat_and_attend_oracle(self, rng):
        ring = ViewRing(f=4, W=2, H=2)
        p = random_params(2, 4)
        z = rng.standard_normal((4, 4, 2, 2))
        got = adjacent_attention(LatentStack(Tensor(z), ring), p).data.data
        assert np.max(np.abs(got - ref.adjacent_attention(z, p))) <= 1e-10

    def test_cyclic_relabelling_equivariance_bitwise(self, rng):
        ring = ViewRing(f=6, W=2, H=2)
        p = random_params(3, 4)
        z = rng.standard_normal((6, 4, 2, 2))
        base = adjacent_attention(LatentStack(Tensor(z), ring), p).data.data
        for k in (1, 3):
            rolled = adjacent_attention(
                LatentStack(Tensor(np.roll(z, -k, axis=0)), ring), p).data.data
            assert np.array_equal(rolled, np.roll(base, -k, axis=0))


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
        """f=1 makes all three windows the view's own 3x3 neighbourhood."""
        ring = ViewRing(f=1, W=4, H=4)
        p = random_params(6, 4)
        z = rng.standard_normal((1, 4, 4, 4))
        got = trajectory_attention(LatentStack(Tensor(z), ring), ring, p).data.data
        assert np.max(np.abs(got - ref.trajectory_attention(z, p))) <= 1e-12

    def test_gather_and_attend_oracle(self, rng):
        ring = ViewRing(f=4, W=8, H=8)
        p = random_params(7, 4)
        z = rng.standard_normal((4, 4, 8, 8))
        got = trajectory_attention(LatentStack(Tensor(z), ring), ring, p).data.data
        assert np.max(np.abs(got - ref.trajectory_attention(z, p))) <= 1e-10

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


class TestAirAttention:
    def test_unit_scores_identity_strides_match_dense_oracle(self, rng):
        ring = ViewRing(f=4, W=4, H=4)
        p = random_params(13, 4)
        z = rng.standard_normal((4, 4, 4, 4))
        stack = LatentStack(Tensor(z), ring)
        ones = np.ones((4, 1, 4, 4))
        got = air_attention(stack, Tensor(ones), AirConfig(1, 1), p).data.data
        want = ref.air_attention(z, ones, AirConfig(1, 1), p)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_zero_scores_zero_output(self, rng):
        ring = ViewRing(f=3, W=4, H=4)
        p = random_params(14, 4)
        stack = LatentStack(Tensor(rng.standard_normal((3, 4, 4, 4))), ring)
        out = air_attention(stack, Tensor(np.zeros((3, 1, 4, 4))),
                            AirConfig(2, 4), p).data.data
        assert np.all(out == 0.0)

    def test_step_composition_oracle(self, rng):
        ring = ViewRing(f=4, W=8, H=8)
        p = random_params(15, 4)
        z = rng.standard_normal((4, 4, 8, 8))
        scores = rng.uniform(0.1, 0.9, (4, 1, 8, 8))
        cfg = AirConfig(tau=2, rho=4)
        got = air_attention(LatentStack(Tensor(z), ring), Tensor(scores),
                            cfg, p).data.data
        assert np.max(np.abs(got - ref.air_attention(z, scores, cfg, p))) <= 1e-10

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


@pytest.mark.parametrize("op", ["aa", "dr", "air", "rg", "score_map"])
def test_params_for_another_width_raise_matmul_error(rng, op):
    """No operator restates the channel check: parameters built for 8
    channels meet a 4-channel stack in the operator's first matmul."""
    ring = ViewRing(f=2, W=4, H=4)
    stack = LatentStack(Tensor(rng.standard_normal((2, 4, 4, 4))), ring)
    p = random_params(4, 8)
    call = {
        "aa": lambda: adjacent_attention(stack, p),
        "dr": lambda: trajectory_attention(stack, ring, p),
        "air": lambda: air_attention(stack, Tensor(np.ones((2, 1, 4, 4))),
                                     AirConfig(2, 4), p),
        "rg": lambda: rapid_glance(
            stack, SsmParams.init(Tape(8), "s", 8, 2, out_scale=1.0)),
        "score_map": lambda: score_map(stack, np.zeros(3),
                                       ScoreMapper.init(Tape(12), "m", 8, 3)),
    }[op]
    with pytest.raises(ValueError, match="inner dims"):
        call()


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
