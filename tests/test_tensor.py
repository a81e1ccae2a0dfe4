"""Tensor substrate: op semantics, autodiff, and the .mvt format."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvring.tensor import (MvtError, Tape, Tensor, _sigmoid, avg_pool2d,
                           bilinear_upsample2d, concat, conv3x3, grad_check,
                           layer_norm, linear_recurrence, load_mvt, matmul,
                           no_grad, save_mvt, softmax, take_rows)

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestMatmul:
    def test_identity(self, rng):
        a = Tensor(rng.standard_normal((3, 3)))
        assert np.array_equal(matmul(Tensor(np.eye(3)), a).data, a.data)

    def test_annihilator(self, rng):
        a = Tensor(rng.standard_normal((3, 4)))
        assert np.all(matmul(a, Tensor(np.zeros((4, 2)))).data == 0.0)

    def test_hand_case(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_naive_triple_loop_oracle(self, rng):
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 3))
        want = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    want[i, j] += a[i, k] * b[k, j]
        assert np.allclose(matmul(Tensor(a), Tensor(b)).data, want, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="inner dims"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_batched_and_2d_sides(self, rng):
        a = rng.standard_normal((3, 4, 5))
        b = rng.standard_normal((5, 2))
        assert np.allclose(matmul(Tensor(a), Tensor(b)).data, a @ b)
        w = rng.standard_normal((2, 4))
        assert np.allclose(matmul(Tensor(w), Tensor(a)).data, w @ a)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_stability_under_shift(self):
        out = softmax(Tensor([1000.0, 1000.0])).data
        assert np.allclose(out, [0.5, 0.5])
        assert np.isfinite(out).all()

    def test_closed_form(self):
        out = softmax(Tensor([0.0, math.log(3.0)])).data
        assert np.allclose(out, [0.25, 0.75], atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(finite_floats, min_size=1, max_size=12))
    def test_rows_sum_to_one(self, xs):
        out = softmax(Tensor(np.array(xs))).data
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.all(out > 0.0) and np.all(out < 1.0 + 1e-15)


    def test_scale_and_bias_match_composed_logits(self, rng):
        x = rng.standard_normal((3, 5))
        bias = np.where(rng.random((3, 5)) < 0.4, -1e30, 0.0)
        bias[:, 0] = 0.0
        got = softmax(Tensor(x), scale=0.3, bias=bias).data
        assert np.array_equal(got, softmax(Tensor(x * 0.3 + bias)).data)
        assert np.all(got[bias < 0] == 0.0)

    def test_scale_and_bias_gradient(self, rng):
        x = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 6)))
        bias = np.array([0.0, -1e30, 0.5, 0.0, -1e30, 0.0])
        rep = grad_check(lambda: (softmax(x, scale=0.7, bias=bias) * w).sum(),
                         [x], eps=1e-6, tol=1e-8)
        assert rep.passed, rep


class TestAvgPool:
    def test_mean_of_all(self):
        out = avg_pool2d(Tensor([[1.0, 2.0], [3.0, 4.0]]), 2)
        assert np.array_equal(out.data, [[2.5]])

    def test_identity_stride(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        assert np.array_equal(avg_pool2d(Tensor(x), 1).data, x)

    def test_ramp_window_means(self):
        ramp = np.arange(16, dtype=np.float64).reshape(4, 4)
        want = np.array([[2.5, 4.5], [10.5, 12.5]])
        assert np.array_equal(avg_pool2d(Tensor(ramp), 2).data, want)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divide"):
            avg_pool2d(Tensor(np.zeros((3, 3))), 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3))
    def test_global_mean_preserved(self, hb, wb):
        rng = np.random.default_rng(hb * 7 + wb)
        x = rng.standard_normal((hb * 2, wb * 2))
        pooled = avg_pool2d(Tensor(x), 2).data
        assert abs(pooled.mean() - x.mean()) <= 1e-12


class TestBilinearUpsample:
    def test_constant_preserved(self):
        out = bilinear_upsample2d(Tensor([[3.25]]), 2).data
        assert np.array_equal(out, np.full((2, 2), 3.25))

    def test_identity_factor(self, rng):
        x = rng.standard_normal((3, 3))
        assert np.array_equal(bilinear_upsample2d(Tensor(x), 1).data, x)

    def test_half_pixel_interpolation(self):
        out = bilinear_upsample2d(Tensor([[0.0, 2.0]]), 2).data
        assert np.allclose(out, [[0.0, 0.5, 1.5, 2.0]], atol=1e-15)

    def test_bad_factor(self):
        with pytest.raises(ValueError, match="factor"):
            bilinear_upsample2d(Tensor(np.zeros((2, 2))), 0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 6), st.integers(1, 6))
    def test_global_mean_preserved(self, s, h, w):
        rng = np.random.default_rng(s * 100 + h * 10 + w)
        x = rng.standard_normal((h, w))
        up = bilinear_upsample2d(Tensor(x), s).data
        assert abs(up.mean() - x.mean()) <= 1e-10


class TestFinitePreservation:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(-1e6, 1e6, allow_nan=False),
           st.floats(-1e6, 1e6, allow_nan=False))
    def test_softmax_pool_upsample_stay_finite(self, lo, hi):
        rng = np.random.default_rng(7)
        x = Tensor(rng.uniform(min(lo, hi), max(lo, hi) + 1.0, (4, 4)))
        assert np.isfinite(softmax(x, axis=-1).data).all()
        assert np.isfinite(avg_pool2d(x, 2).data).all()
        assert np.isfinite(bilinear_upsample2d(x, 2).data).all()


class TestAutodiff:
    def test_square_gradient(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        rep = grad_check(lambda: (x * x).sum(), [x])
        assert rep.passed and abs(x.grad_array()[0] - 6.0) < 1e-9

    def test_softmax_sum_is_constant(self):
        x = Tensor(np.array([0.3, -1.2, 2.0]), requires_grad=True)
        rep = grad_check(lambda: softmax(x).sum(), [x])
        assert rep.passed
        softmax(x).sum().backward()
        assert np.max(np.abs(x.grad_array())) < 1e-12

    def test_two_layer_net_loss(self, rng):
        w1 = Tensor(rng.standard_normal((4, 6)) * 0.5, requires_grad=True)
        w2 = Tensor(rng.standard_normal((6, 2)) * 0.5, requires_grad=True)
        x = Tensor(rng.standard_normal((5, 4)))
        t = Tensor(rng.standard_normal((5, 2)))

        def loss():
            d = matmul(matmul(x, w1).silu(), w2) - t
            return (d * d).mean()

        rep = grad_check(loss, [w1, w2], eps=1e-5, tol=1e-4)
        assert rep.passed

    @pytest.mark.parametrize("op", [
        lambda x: x.exp().sum(),
        lambda x: x.sigmoid().sum(),
        lambda x: x.softplus().sum(),
        lambda x: x.silu().sum(),
        lambda x: softmax(x, axis=-1).sum(axis=0).sum(),
        lambda x: (x.transpose((1, 0)) * 2.0).sum(),
        lambda x: x.reshape(6)[1:4].sum(),
        lambda x: avg_pool2d((x * x)[:, 1:], 2).sum(),
        lambda x: bilinear_upsample2d(x, 3).mean(),
        lambda x: conv3x3(x.reshape(1, 1, 2, 3),                 # w [1, 9], b [1]
                          concat([x.reshape(1, 6), x[:1]], axis=1),
                          x[0, :1]).exp().sum(),
        lambda x: (x / (x * x + 2.0)).sum(),
        lambda x: (x - x.mean(axis=1, keepdims=True)).sum(axis=None),
    ])
    def test_primitive_gradients(self, op, rng):
        x = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
        rep = grad_check(lambda: op(x), [x], eps=1e-5, tol=1e-4)
        assert rep.passed, rep

    def test_concat_take_layer_norm_gradients(self, rng):
        a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True)
        gain = Tensor(rng.uniform(0.5, 1.5, (4,)), requires_grad=True)
        bias = Tensor(rng.uniform(-0.5, 0.5, (4,)), requires_grad=True)
        idx = np.array([0, 4, 2, 1, 3])

        def f():
            c = concat([a, b], axis=0)
            g = take_rows(c, idx, np.argsort(idx))
            return (layer_norm(g, gain, bias) * g).sum()

        rep = grad_check(f, [a, b, gain, bias], eps=1e-6, tol=1e-4)
        assert rep.passed, rep

    def test_linear_recurrence_gradients(self, rng):
        a = Tensor(rng.uniform(0.1, 0.9, (6, 3)), requires_grad=True)
        u = Tensor(rng.uniform(-1, 1, (6, 3)), requires_grad=True)

        def f():
            h = linear_recurrence(a, u)
            return (h * h).sum()

        rep = grad_check(f, [a, u])
        assert rep.passed

    @pytest.mark.parametrize("shared_first", [True, False],
                             ids=["shared_first", "own_first"])
    def test_leaves_sharing_an_upstream_gradient(self, rng, shared_first):
        # a + b hands both leaves the same gradient array; a's second
        # contribution must not write into the array that b also holds
        a = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)

        def f():
            shared, own = ((a + b) * w).sum(), (a * a).sum()
            return shared + own if shared_first else own + shared

        rep = grad_check(f, [a, b, w])
        assert rep.passed, rep
        assert np.array_equal(b.grad, w.data)

    def test_backward_replay_bit_identical(self, rng):
        w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        x = Tensor(rng.standard_normal((2, 4)))

        def run():
            w.zero_grad()
            loss = (softmax(matmul(x, w)) * matmul(x, w)).sum()
            loss.backward()
            return w.grad_array().copy()

        assert np.array_equal(run(), run())

    def test_gradient_shape_matches_parameter(self, rng):
        w = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        matmul(Tensor(rng.standard_normal((2, 3))), w).sum().backward()
        assert w.grad.shape == w.data.shape

    def test_grad_check_rejects_nonfinite(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        with np.errstate(invalid="ignore", divide="ignore"), \
                pytest.raises(ValueError, match="finite"):
            grad_check(lambda: x.exp().sum() * np.nan, [x])


def composed_conv3x3(x, w, b):
    """The composed graph conv3x3 replaced: zero border, the nine shifted
    slices stacked along channels, matmul by w [Cout, 9*Cin], bias add."""
    n, c, h, wd = x.shape
    zr = Tensor(np.zeros((n, c, 1, wd), dtype=x.dtype))
    xp = concat([zr, x, zr], axis=2)
    zc = Tensor(np.zeros((n, c, h + 2, 1), dtype=x.dtype))
    xp = concat([zc, xp, zc], axis=3)
    u = concat([xp[:, :, dy:dy + h, dx:dx + wd]
                for dy in range(3) for dx in range(3)], axis=1)
    y = matmul(w, u.reshape(n, 9 * c, h * wd)).reshape(n, w.shape[0], h, wd)
    return y + b.reshape(1, b.shape[0], 1, 1)


def conv_operands(rng, n, cin, cout, h, w, dtype=np.float64):
    x = Tensor(rng.standard_normal((n, cin, h, w)).astype(dtype), requires_grad=True)
    wt = Tensor(rng.standard_normal((cout, 9 * cin)).astype(dtype), requires_grad=True)
    b = Tensor(rng.standard_normal(cout).astype(dtype), requires_grad=True)
    return x, wt, b


CONV_SHAPES = [(12, 16, 16, 8, 8), (2, 3, 5, 4, 7), (1, 2, 3, 1, 5)]


class TestConv3x3:
    @pytest.mark.parametrize("shape", CONV_SHAPES)
    def test_forward_matches_composed_bitwise(self, rng, shape):
        x, w, b = conv_operands(rng, *shape)
        assert np.array_equal(conv3x3(x, w, b).data,
                              composed_conv3x3(x, w, b).data)

    @pytest.mark.parametrize("shape", CONV_SHAPES)
    def test_gradients_match_composed(self, rng, shape):
        ops = conv_operands(rng, *shape)
        seed = rng.standard_normal(shape[:1] + shape[2:])
        grads = []
        for conv in (conv3x3, composed_conv3x3):
            for t in ops:
                t.zero_grad()
            conv(*ops).backward(seed=seed)
            grads.append([t.grad_array().copy() for t in ops])
        for g, want in zip(*grads):
            assert np.any(want != 0.0)
            assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("shape", [(1, 2, 3, 3, 5), (2, 3, 1, 1, 4)])
    def test_gradcheck_odd_shapes(self, rng, shape):
        ops = conv_operands(rng, *shape)

        def f():
            y = conv3x3(*ops)
            return (y * y).sum()

        rep = grad_check(f, list(ops), eps=1e-6, tol=1e-4)
        assert rep.passed, rep

    def test_float32_stays_float32(self, rng):
        ops = conv_operands(rng, 2, 3, 4, 5, 5, dtype=np.float32)
        y = conv3x3(*ops)
        assert y.dtype == np.float32
        y.sum().backward()
        assert all(t.grad.dtype == np.float32 for t in ops)

    def test_no_grad_records_nothing(self, rng):
        with no_grad():
            y = conv3x3(*conv_operands(rng, 2, 3, 4, 5, 5))
        assert not y.requires_grad
        assert y._parents == () and y._backward is None

    @pytest.mark.parametrize("w_shape, b_shape", [((4, 18), (4,)), ((4, 27), (3,))])
    def test_operand_shapes_checked(self, rng, w_shape, b_shape):
        x = Tensor(rng.standard_normal((1, 3, 4, 4)))
        with pytest.raises(ValueError, match="conv3x3"):
            conv3x3(x, Tensor(np.zeros(w_shape)), Tensor(np.zeros(b_shape)))


def masked_sigmoid(x):
    """The boolean-mask formulation the shared helper replaced."""
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


class TestStableSigmoid:
    EDGES = np.array([0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 1.0, -1.0,
                      36.7, -36.7, 745.2, -745.2, np.inf, -np.inf, np.nan])

    def test_bitwise_equal_to_masked_form(self, rng):
        x = np.concatenate([self.EDGES, rng.standard_normal(500) * 30.0])
        with np.errstate(over="ignore"):
            want = masked_sigmoid(x)
        assert np.array_equal(_sigmoid(x), want, equal_nan=True)

    def test_users_share_the_helper(self, rng):
        x = rng.standard_normal((4, 5)) * 10.0
        x.flat[:4] = (0.0, -0.0, 800.0, -800.0)
        s = masked_sigmoid(x)
        assert np.array_equal(Tensor(x).sigmoid().data, s)
        assert np.array_equal(Tensor(x).silu().data, x * s)
        t = Tensor(x, requires_grad=True)
        t.softplus().sum().backward()
        assert np.array_equal(t.grad, s)

    def test_zero_dim_input(self):
        t = Tensor(np.float64(-0.3), requires_grad=True)
        assert t.sigmoid().data == masked_sigmoid(np.array([-0.3]))[0]
        t.softplus().backward()
        assert t.grad == masked_sigmoid(np.array([-0.3]))[0]


class TestSoftplus:
    """max(x, 0) + log1p(exp(-|x|)) stands in for np.logaddexp(0, x)."""

    EDGES = np.array([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan])

    @staticmethod
    def assert_near_logaddexp(x):
        got = Tensor(x).softplus().data
        with np.errstate(invalid="ignore"):
            want = np.logaddexp(0, x)
        assert got.dtype == x.dtype and got.shape == x.shape
        fin = np.isfinite(want)
        assert np.array_equal(got[~fin], want[~fin], equal_nan=True)
        assert np.all(np.abs(got[fin] - want[fin])
                      <= 4 * np.spacing(np.abs(want[fin])))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_within_4_ulp_of_logaddexp(self, rng, dtype):
        scales = (0.01, 0.1, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0)
        x = np.concatenate([rng.standard_normal(2002) * s for s in scales]
                           + [self.EDGES])
        self.assert_near_logaddexp(x.astype(dtype).reshape(-1, 7))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_zero_dim_input(self, dtype):
        for v in (-0.3, 0.0, 40.0, np.nan):
            self.assert_near_logaddexp(np.array(v, dtype=dtype))


class TestNoGrad:
    def test_records_no_graph(self):
        x = Tensor(np.array([0.5, -2.0]), requires_grad=True)
        with no_grad():
            y = (x * x).exp().softplus().sigmoid() + x
            leaf = Tensor(np.ones(2), requires_grad=True)
        assert not y.requires_grad
        assert y._parents == () and y._backward is None
        assert leaf.requires_grad  # explicit leaves keep the flag
        z = x * x
        assert z.requires_grad and z._parents == (x, x)

    def test_values_match_graph_mode(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        want = softmax(matmul(x, x.swap_last2()).silu(), axis=-1).data
        with no_grad():
            got = softmax(matmul(x, x.swap_last2()).silu(), axis=-1).data
        assert np.array_equal(got, want)

    def test_state_restored_after_exception(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(KeyError):
            with no_grad():
                with no_grad():
                    pass
                assert not (x * x).requires_grad
                raise KeyError("boom")
        assert (x * x).requires_grad


class TestTape:
    def test_seeded_init_reproducible(self):
        a = Tape(7).normal("w", (3, 3))
        b = Tape(7).normal("w", (3, 3))
        assert np.array_equal(a.data, b.data)

    def test_duplicate_name_rejected(self):
        tape = Tape(0)
        tape.zeros("w", (2,))
        with pytest.raises(ValueError, match="duplicate"):
            tape.zeros("w", (2,))

    def test_zero_grad(self):
        tape = Tape(0)
        w = tape.normal("w", (2, 2))
        (w * w).sum().backward()
        assert w.grad is not None
        tape.zero_grad()
        assert w.grad is None


class TestMvtFormat:
    def test_roundtrip_bitwise(self, tmp_path, rng):
        for arr in (rng.standard_normal((3, 4, 5)),
                    rng.standard_normal(7).astype(np.float32),
                    np.array(3.5)):
            p = tmp_path / "t.mvt"
            save_mvt(p, arr)
            back = load_mvt(p)
            assert back.dtype == arr.dtype and np.array_equal(back, arr)

    def test_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.mvt"
        p.write_bytes(b"nope....")
        with pytest.raises(MvtError, match="magic"):
            load_mvt(p)

    def test_truncated_payload_names_file(self, tmp_path, rng):
        p = tmp_path / "trunc.mvt"
        save_mvt(p, rng.standard_normal((4, 4)))
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(MvtError, match="corrupt payload") as exc:
            load_mvt(p)
        assert "trunc.mvt" in str(exc.value)

    @pytest.mark.parametrize("extents", [(2**32 - 1,), (2**32 - 1,) * 3])
    def test_huge_header_rejected_before_reading(self, tmp_path, extents):
        p = tmp_path / "huge.mvt"
        p.write_bytes(b"MVT1" + struct.pack("<BB", 1, len(extents))
                      + struct.pack(f"<{len(extents)}I", *extents) + bytes(16))
        tracemalloc.start()
        try:
            with pytest.raises(MvtError, match="corrupt payload"):
                load_mvt(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_trailing_garbage_rejected(self, tmp_path, rng):
        p = tmp_path / "garbage.mvt"
        save_mvt(p, rng.standard_normal(3))
        p.write_bytes(p.read_bytes() + b"x")
        with pytest.raises(MvtError, match="corrupt payload"):
            load_mvt(p)
