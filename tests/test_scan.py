"""Spiral ordering, the selective scan and its oracle, and rapid glance."""

import math

import numpy as np
import pytest

from mvring import _kernel
from mvring import reference as ref
from mvring._kernel import linrec_array
from mvring.geometry import LatentStack, ViewRing
from mvring.scan import (SCAN_STRATEGIES, SsmParams, build_scan_order,
                         discretize_zoh, rapid_glance, row_major_order,
                         selective_scan, selective_scan_sequential,
                         spiral_order)
from mvring.tensor import Tape, Tensor, grad_check, matmul, no_grad


def make_params(tape, d, n):
    return SsmParams.init(tape, "ssm", d, n, out_scale=1.0)


def ssm_tensors(p):
    return [p.a_log, p.w_delta, p.b_delta, p.w_b, p.b_b, p.w_c, p.b_c]


def hand_params():
    """D=N=1, A=-1, delta=softplus(0)=ln2, constant B=C=1."""
    tape = Tape(0)
    return SsmParams(
        a_log=tape.param("a", np.zeros((1, 1))),
        w_delta=tape.param("wd", np.zeros((1, 1))),
        b_delta=tape.param("bd", np.zeros(1)),
        w_b=tape.param("wb", np.zeros((1, 1))),
        b_b=tape.param("bb", np.ones(1)),
        w_c=tape.param("wc", np.zeros((1, 1))),
        b_c=tape.param("bc", np.ones(1)),
    )


class TestSpiralOrder:
    def test_single_cell(self):
        assert spiral_order(1, 1).tolist() == [0]

    def test_three_by_three_walk(self):
        assert spiral_order(3, 3).tolist() == [4, 5, 8, 7, 6, 3, 0, 1, 2]

    def test_two_by_two_walk(self):
        assert spiral_order(2, 2).tolist() == [0, 1, 3, 2]

    def test_bijection_exhaustive_to_16(self):
        for h in range(1, 17):
            for w in range(1, 17):
                order = spiral_order(h, w)
                assert sorted(order.tolist()) == list(range(h * w))

    def test_centre_token_first(self):
        for h in range(1, 17):
            for w in range(1, 17):
                r, c = (h - 1) // 2, (w - 1) // 2
                assert spiral_order(h, w)[0] == r * w + c

    def test_centre_block_locality_beats_row_major(self):
        """Mean pairwise sequence distance of the 4x4 centre block on 8x8."""
        centre = [r * 8 + c for r in range(2, 6) for c in range(2, 6)]

        def mean_dist(order):
            pos = np.empty(64, dtype=np.int64)
            pos[order] = np.arange(64)
            ps = pos[centre]
            return np.abs(ps[:, None] - ps[None, :]).mean()

        assert mean_dist(spiral_order(8, 8)) < mean_dist(row_major_order(8, 8))


class TestScanOrder:
    @pytest.mark.parametrize("f", [1, 2, 3, 12])
    def test_roundtrip_bitwise(self, f, rng, glance_spy):
        """Through an identity scan, every pass returns its tokens to their
        places: the output is exactly 2x (both passes' mean plus residual)."""
        for strategy in SCAN_STRATEGIES:
            for b in (1, 2):
                x = rng.standard_normal((b * f, 5, 4, 4))
                out, seq, want = glance_spy(x, f, strategy)
                assert np.array_equal(seq, want)
                assert np.array_equal(out, 2 * x)

    def test_view_blocks_contiguous_and_reversed(self, rng, glance_spy):
        f, h, w = 3, 2, 2
        order = build_scan_order(f, h, w)
        spatial = spiral_order(h, w)
        want = np.concatenate([v * 4 + spatial for v in range(3)])
        assert np.array_equal(order.perm, want)
        rev = order.reversed_views()
        want_rev = np.concatenate([v * 4 + spatial for v in (2, 1, 0)])
        assert np.array_equal(rev.perm, want_rev)
        # column p*b + r of the [L, P*b, C] scan input reads ring r's tokens
        # in pass p's order
        for strategy in ("spiral-bidirectional", "row-major"):
            for b in (1, 2):
                x = rng.standard_normal((b * f, 2, h, w))
                _, seq, want = glance_spy(x, f, strategy)
                assert np.array_equal(seq, want)

    def test_inverse_composition_is_identity(self):
        for strategy in SCAN_STRATEGIES:
            order = build_scan_order(5, 3, 3, strategy)
            for o in (order, order.reversed_views()):
                assert np.array_equal(np.sort(o.perm), np.arange(45))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            build_scan_order(2, 4, 4, "zigzag")


class TestDiscretize:
    def test_limit_small_delta(self):
        abar, bbar = discretize_zoh(np.array(-1.0), np.array(1.0), np.array(1e-12))
        assert abar == pytest.approx(1.0, abs=1e-11)
        assert bbar == pytest.approx(0.0, abs=1e-11)

    def test_zero_state_matrix(self):
        abar, _ = discretize_zoh(np.array(0.0), np.array(2.0), np.array(0.3))
        assert abar == 1.0

    def test_closed_form(self):
        abar, bbar = discretize_zoh(np.array(-1.0), np.array(1.0),
                                    np.array(math.log(2.0)))
        assert abar == pytest.approx(0.5, abs=1e-15)
        assert bbar == pytest.approx(0.6931471805599453, abs=1e-15)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            discretize_zoh(np.array(-1.0), np.array(1.0), np.array(-0.1))


class TestSequentialScan:
    def test_zero_input(self):
        p = hand_params()
        y = selective_scan_sequential(np.zeros((5, 1)), p)
        assert np.all(y == 0.0)

    def test_single_step_formula(self):
        p = hand_params()
        y = selective_scan_sequential(np.array([[0.7]]), p)
        # y1 = C * (delta * B * x1) with delta = softplus(0.7 * 0 + 0) = ln 2
        assert y[0, 0] == pytest.approx(math.log(2.0) * 0.7, abs=1e-15)

    def test_two_step_hand_recurrence(self):
        p = hand_params()
        y = selective_scan_sequential(np.array([[1.0], [0.0]]), p)
        assert y[:, 0] == pytest.approx([0.6931471805599453,
                                         0.34657359027997264], abs=1e-12)


class TestSelectiveScan:
    def test_matches_sequential_oracle(self, rng):
        tape = Tape(1)
        p = make_params(tape, 8, 4)
        x = Tensor(rng.standard_normal((128, 8)))
        got = selective_scan(x, p).data
        want = selective_scan_sequential(x.data, p)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_zero_input(self):
        tape = Tape(2)
        p = make_params(tape, 4, 2)
        y = selective_scan(Tensor(np.zeros((9, 4))), p)
        assert np.all(y.data == 0.0)

    def test_stability_bound(self, rng):
        tape = Tape(4)
        p = make_params(tape, 4, 3)
        x_np = rng.uniform(-1, 1, (256, 4))
        x = Tensor(x_np)
        y = selective_scan(x, p).data
        delta = np.logaddexp(0.0, x_np @ p.w_delta.data + p.b_delta.data)
        b = x_np @ p.w_b.data + p.b_b.data
        c = x_np @ p.w_c.data + p.b_c.data
        a = -np.exp(p.a_log.data)
        abar_max = np.exp(delta[:, :, None] * a[None]).max()
        assert abar_max < 1.0
        bound = p.d_state * np.abs(c).max() * np.abs(delta).max() * \
            np.abs(b).max() * np.abs(x_np).max() / (1.0 - abar_max)
        assert np.abs(y).max() <= bound

    def test_gradients(self, rng):
        tape = Tape(5)
        p = make_params(tape, 3, 2)
        x = Tensor(rng.uniform(-1, 1, (10, 3)), requires_grad=True)

        def f():
            y = selective_scan(x, p)
            return (y * y).sum()

        rep = grad_check(f, [x] + ssm_tensors(p), eps=1e-6, tol=1e-4)
        assert rep.passed, rep


def composed_selective_scan(x, params):
    """The scan built from separate primitives over [L*M, D, N] arrays."""
    L, D = x.shape[0], x.shape[-1]
    N = params.d_state
    rows = x.reshape(-1, D)
    n = rows.shape[0]
    a = -params.a_log.exp()
    delta = (matmul(rows, params.w_delta) + params.b_delta).softplus()
    b = matmul(rows, params.w_b) + params.b_b
    c = matmul(rows, params.w_c) + params.b_c
    abar = (delta.reshape(n, D, 1) * a.reshape(1, D, N)).exp()
    u = (delta * rows).reshape(n, D, 1) * b.reshape(n, 1, N)
    h = ref.linear_recurrence(abar.reshape(L, n // L * D * N),
                              u.reshape(L, n // L * D * N))
    y = (h.reshape(n, D, N) * c.reshape(n, 1, N)).sum(axis=2)
    return y.reshape(x.shape)


def scan_grads(scan, x, p):
    for t in [x] + ssm_tensors(p):
        t.zero_grad()
    y = scan(x, p)
    (y * y * 0.5 + y).sum().backward()
    return [t.grad_array().copy() for t in [x] + ssm_tensors(p)]


class TestFusedScan:
    @pytest.mark.parametrize("shape", [(40, 6), (40, 3, 6)])
    def test_forward_matches_composed_bitwise(self, rng, shape):
        p = make_params(Tape(13), 6, 4)
        x = Tensor(rng.standard_normal(shape))
        assert np.array_equal(selective_scan(x, p).data,
                              composed_selective_scan(x, p).data)

    @pytest.mark.parametrize("shape", [(40, 6), (40, 3, 6)])
    def test_gradients_match_composed(self, rng, shape):
        p = make_params(Tape(14), 6, 4)
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        got = scan_grads(selective_scan, x, p)
        want = scan_grads(composed_selective_scan, x, p)
        for g, w in zip(got, want):
            assert np.any(w != 0.0)
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))

    def test_width_axis_gradcheck(self, rng):
        p = make_params(Tape(15), 3, 2)
        x = Tensor(rng.uniform(-1, 1, (6, 2, 3)), requires_grad=True)

        def f():
            y = selective_scan(x, p)
            return (y * y).sum()

        rep = grad_check(f, [x] + ssm_tensors(p), eps=1e-6, tol=1e-4)
        assert rep.passed, rep

    def test_no_grad_records_nothing(self, rng):
        p = make_params(Tape(17), 4, 2)
        x = Tensor(rng.standard_normal((9, 2, 4)), requires_grad=True)
        with no_grad():
            y = selective_scan(x, p)
        assert not y.requires_grad
        assert y._parents == () and y._backward is None

    def test_one_kernel_call_per_direction(self, rng, monkeypatch):
        calls = []
        real = _kernel.linrec_array

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(_kernel, "linrec_array", counting)
        p = make_params(Tape(18), 4, 2)
        x = Tensor(rng.standard_normal((6, 4, 2, 2)), requires_grad=True)
        out = rapid_glance(LatentStack(x, ViewRing(f=3, W=2, H=2)), p).data
        assert len(calls) == 1
        (out * out).sum().backward()
        assert len(calls) == 2


class TestRapidGlance:
    def test_single_token_residual(self):
        p = hand_params()
        ring = ViewRing(f=1, W=1, H=1)
        z = np.array([[[[0.7]]]])
        out = rapid_glance(LatentStack(Tensor(z), ring), p).data.data
        # both passes equal the single-step scan; residual adds the input
        want = math.log(2.0) * 0.7 + 0.7
        assert out[0, 0, 0, 0] == pytest.approx(want, abs=1e-14)

    def test_zero_output_projection_is_identity(self, rng):
        tape = Tape(6)
        p = SsmParams.init(tape, "s", 5, 3, out_scale=1.0)
        p.w_c.data[:] = 0.0
        ring = ViewRing(f=3, W=4, H=4)
        z = rng.standard_normal((3, 5, 4, 4))
        out = rapid_glance(LatentStack(Tensor(z), ring), p).data.data
        assert np.array_equal(out, z)

    def test_composition_oracle(self, rng):
        tape = Tape(7)
        p = make_params(tape, 4, 2)
        ring = ViewRing(f=3, W=4, H=4)
        z = rng.standard_normal((3, 4, 4, 4))
        got = rapid_glance(LatentStack(Tensor(z), ring), p).data.data
        want = ref.rapid_glance(z, p, "spiral-bidirectional")
        assert np.max(np.abs(got - want)) < 1e-12

    def test_channel_mismatch_rejected(self, rng):
        tape = Tape(8)
        p = make_params(tape, 4, 2)
        ring = ViewRing(f=2, W=2, H=2)
        stack = LatentStack(Tensor(rng.standard_normal((2, 3, 2, 2))), ring)
        with pytest.raises(ValueError, match="channel"):
            rapid_glance(stack, p)

    def test_row_major_strategy_single_pass(self, rng):
        tape = Tape(9)
        p = make_params(tape, 4, 2)
        ring = ViewRing(f=2, W=2, H=2)
        z = rng.standard_normal((2, 4, 2, 2))
        got = rapid_glance(LatentStack(Tensor(z), ring), p,
                           strategy="row-major").data.data
        assert np.max(np.abs(got - ref.rapid_glance(z, p, "row-major"))) < 1e-14


    @pytest.mark.parametrize("strategy", ["spiral-bidirectional", "row-major"])
    def test_rings_scanned_independently(self, rng, strategy):
        p = make_params(Tape(10), 4, 2)
        ring = ViewRing(f=3, W=4, H=2)
        z = rng.standard_normal((9, 4, 2, 4))  # three rings
        got = rapid_glance(LatentStack(Tensor(z), ring), p, strategy).data.data
        for b in range(3):
            one = rapid_glance(LatentStack(Tensor(z[3 * b:3 * b + 3]), ring), p,
                               strategy).data.data
            assert np.max(np.abs(got[3 * b:3 * b + 3] - one)) <= 1e-12

    def test_two_ring_gradients(self, rng):
        p = make_params(Tape(11), 3, 2)
        ring = ViewRing(f=2, W=2, H=2)
        x = Tensor(rng.standard_normal((4, 3, 2, 2)), requires_grad=True)

        def f():
            y = rapid_glance(LatentStack(x, ring), p).data
            return (y * y).sum()

        rep = grad_check(f, [x] + ssm_tensors(p), eps=1e-6, tol=1e-4)
        assert rep.passed, rep

    def test_selective_scan_width_axis(self, rng):
        p = make_params(Tape(12), 4, 3)
        x = rng.standard_normal((7, 3, 4))
        got = selective_scan(Tensor(x), p).data
        for m in range(3):
            want = selective_scan_sequential(x[:, m], p)
            assert np.max(np.abs(got[:, m] - want)) <= 1e-12


def plain_recurrence(a, u):
    """h = a[l] * h + u[l] step by step, independent of the kernel module."""
    h = np.zeros_like(u[0])
    out = np.empty_like(u)
    for l in range(u.shape[0]):
        h = a[l] * h + u[l]
        out[l] = h
    return out


def blockwise_recurrence(a, u, chunk):
    """linrec_array over blocks of `chunk` rows (None: one call).

    Each block starts from h = 0, so the state the previous block ended in
    is folded into the block's first input row: a[s] * h + u[s].
    """
    if chunk is None:
        return linrec_array(a, u)
    out = np.empty_like(u)
    h = np.zeros_like(u[0])
    for s in range(0, u.shape[0], chunk):
        ub = u[s:s + chunk].copy()
        ub[0] = a[s] * h + ub[0]
        out[s:s + chunk] = linrec_array(a[s:s + chunk], ub)
        h = out[s + ub.shape[0] - 1]
    return out


class TestKernelBackends:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("L", [1, 2, 767])
    @pytest.mark.parametrize("chunk", [None, 1, 7, 64])
    def test_kernel_matches_plain_loop(self, rng, dtype, L, chunk):
        a = rng.uniform(0.0, 1.0, (L, 3, 5)).astype(dtype)
        u = rng.standard_normal((L, 3, 5)).astype(dtype)
        got = blockwise_recurrence(a, u, chunk)
        assert got.dtype == dtype
        assert np.array_equal(got, plain_recurrence(a, u))
