"""Minimal dense-tensor substrate with reverse-mode autodiff.

Tensors wrap numpy arrays (float64 by default, float32 supported) and record
a dynamic graph over a closed primitive set: matmul, elementwise arithmetic,
exp/sigmoid/softplus/silu, softmax, layer norm, reductions,
reshape/transpose/concat, basic slicing, row gather, 3x3 convolution,
average pooling, bilinear upsampling, a first-order linear recurrence,
and the selective-SSM recurrence beneath the scan as one node with a
hand-written backward. `backward` replays the graph in a fixed
topological order, so repeated backward passes are bit-identical. Inside
`no_grad()` no graph is recorded: results hold no parents and no backward
closure.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import _kernel

__all__ = [
    "Tensor",
    "Tape",
    "no_grad",
    "GradCheckReport",
    "MvtError",
    "concat",
    "matmul",
    "softmax",
    "layer_norm",
    "avg_pool2d",
    "bilinear_upsample2d",
    "conv3x3",
    "take_rows",
    "linear_recurrence",
    "selective_recurrence",
    "grad_check",
    "save_mvt",
    "load_mvt",
]

_FLOAT_DTYPES = (np.float32, np.float64)
_grad_enabled = True


@contextmanager
def no_grad():
    """Record no graph inside: derived tensors neither require grad nor keep
    parents. Leaves created with requires_grad=True still require it. The
    previous state is restored on exit, also when an exception leaves."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


def _sigmoid(x):
    """Overflow-free logistic function of an array: 1/(1+e) for x >= 0 and
    e/(1+e) below, with e = exp(-|x|). Divides in place to keep the peak
    number of temporaries down."""
    flat = np.asarray(x).reshape(-1)  # 0-d input would make scalars, not arrays
    e = np.exp(-np.abs(flat))
    d = 1.0 + e
    np.divide(e, d, out=e)
    np.divide(1.0, d, out=d)
    return np.where(flat >= 0, d, e).reshape(np.shape(x))


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _acc(node, g):
    """Accumulate a gradient contribution out of place. `g` may be a view of
    another node's gradient, so no gradient array is ever written to."""
    node.grad = g if node.grad is None else node.grad + g


class Tensor:
    """A dense N-d array node in a dynamic autodiff graph.

    An op builds its output as `Tensor(y, _parents=..., _backward=backward)`,
    where `backward(g)` passes the output's gradient `g` to each parent that
    requires grad through `_acc`. Closures capture arrays and parent nodes,
    never their own output node: that would make every graph a reference
    cycle. The constructor keeps `_parents` and `_backward` only when the
    output requires grad.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=np.float64,
                 _parents=(), _backward=None):
        if isinstance(data, Tensor):
            raise TypeError("wrap raw array data, not another Tensor")
        if isinstance(data, (np.ndarray, np.generic)) and data.dtype in _FLOAT_DTYPES:
            self.data = np.asarray(data)  # full reductions yield numpy scalars
        else:
            self.data = np.asarray(data, dtype=dtype)
        self.grad = None
        self.requires_grad = requires_grad or (
            _grad_enabled and any(p.requires_grad for p in _parents))
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    # -- graph machinery -----------------------------------------------------

    def _toposort(self):
        order, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            # reversed so parents are visited left-to-right (fixed order)
            for p in reversed(node._parents):
                if id(p) not in seen:
                    stack.append((p, False))
        return order

    def backward(self, seed=None):
        """Accumulate gradients of this (scalar) tensor into the graph."""
        if not self.requires_grad:
            raise RuntimeError("backward on a tensor that requires no grad")
        if seed is None:
            if self.data.size != 1:
                raise RuntimeError("backward without seed needs a scalar output")
            seed = np.ones_like(self.data)
        order = self._toposort()
        _acc(self, np.asarray(seed, dtype=self.data.dtype))
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)

    def zero_grad(self):
        self.grad = None

    def grad_array(self):
        """Gradient as an array, zeros if this leaf was never reached."""
        return self.grad if self.grad is not None else np.zeros_like(self.data)

    # -- elementwise arithmetic ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        other = self._coerce(other)

        def backward(g):
            if self.requires_grad:
                _acc(self, _unbroadcast(g, self.data.shape))
            if other.requires_grad:
                _acc(other, _unbroadcast(g, other.data.shape))

        return Tensor(self.data + other.data, _parents=(self, other),
                      _backward=backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)

        def backward(g):
            if self.requires_grad:
                _acc(self, _unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                _acc(other, _unbroadcast(g * self.data, other.data.shape))

        return Tensor(self.data * other.data, _parents=(self, other),
                      _backward=backward)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __truediv__(self, other):
        other = self._coerce(other)

        def backward(g):
            if self.requires_grad:
                _acc(self, _unbroadcast(g / other.data, self.data.shape))
            if other.requires_grad:
                _acc(other, _unbroadcast(-g * self.data / (other.data * other.data),
                                         other.data.shape))

        return Tensor(self.data / other.data, _parents=(self, other),
                      _backward=backward)

    def __matmul__(self, other):
        return matmul(self, other)

    # -- elementwise nonlinearities -------------------------------------------

    def exp(self):
        y = np.exp(self.data)

        def backward(g):
            _acc(self, g * y)

        return Tensor(y, _parents=(self,), _backward=backward)

    def sigmoid(self):
        y = _sigmoid(self.data)

        def backward(g):
            _acc(self, g * (y * (1.0 - y)))

        return Tensor(y, _parents=(self,), _backward=backward)

    def softplus(self):
        # max(x, 0) + log1p(exp(-|x|)): np.logaddexp(0, x) is ~8x slower
        x = self.data
        y = np.abs(x.reshape(-1))
        np.negative(y, out=y)
        np.exp(y, out=y)
        np.log1p(y, out=y)
        y += np.maximum(x.reshape(-1), 0)

        def backward(g):
            _acc(self, g * _sigmoid(x))

        return Tensor(y.reshape(x.shape), _parents=(self,), _backward=backward)

    def silu(self):
        x = self.data
        sig = _sigmoid(x)

        def backward(g):
            _acc(self, g * (sig * (1.0 + x * (1.0 - sig))))

        return Tensor(x * sig, _parents=(self,), _backward=backward)

    # -- reductions ------------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _acc(self, np.broadcast_to(g, self.data.shape).copy())

        return Tensor(self.data.sum(axis=axis, keepdims=keepdims),
                      _parents=(self,), _backward=backward)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in np.atleast_1d(axis)])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    # -- shape ops ---------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        src_shape = self.data.shape

        def backward(g):
            _acc(self, g.reshape(src_shape))

        return Tensor(self.data.reshape(shape), _parents=(self,), _backward=backward)

    def transpose(self, axes):
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))

        def backward(g):
            _acc(self, g.transpose(inv))

        return Tensor(self.data.transpose(axes), _parents=(self,), _backward=backward)

    def swap_last2(self):
        axes = list(range(self.ndim))
        axes[-1], axes[-2] = axes[-2], axes[-1]
        return self.transpose(axes)

    def __getitem__(self, idx):
        """Basic slicing only; fancy gathers go through take_rows."""
        def backward(g):
            gx = np.zeros_like(self.data)
            gx[idx] = g
            _acc(self, gx)

        return Tensor(self.data[idx], _parents=(self,), _backward=backward)


# -- construction helpers ------------------------------------------------------


def concat(tensors, axis=0):
    tensors = list(tensors)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                _acc(t, g[tuple(sl)])

    return Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                  _parents=tuple(tensors), _backward=backward)


def matmul(a, b):
    """a[..., m, k] @ b[..., k, n]; batch dims must match, or either side 2-D."""
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    if a.ndim > 2 and b.ndim > 2 and a.data.shape[:-2] != b.data.shape[:-2]:
        raise ValueError("matmul batch dims must match unless one side is 2-D")

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            if ga.ndim > a.ndim:
                ga = ga.sum(axis=tuple(range(ga.ndim - a.ndim)))
            _acc(a, ga)
        if b.requires_grad:
            if b.ndim == 2 and a.ndim > 2:
                k = a.data.shape[-1]
                n = g.shape[-1]
                gb = np.matmul(a.data.reshape(-1, k).T, g.reshape(-1, n))
            else:
                gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
                if gb.ndim > b.ndim:
                    gb = gb.sum(axis=tuple(range(gb.ndim - b.ndim)))
            _acc(b, gb)

    return Tensor(np.matmul(a.data, b.data), _parents=(a, b), _backward=backward)


def softmax(x, axis=-1, scale=1.0, bias=None):
    """Numerically stable softmax of x * scale + bias along `axis`; rows sum
    to 1. `bias` is a constant additive array (0 keeps an entry, large
    negative removes it) and receives no gradient."""
    scale = x.data.dtype.type(scale)
    y = x.data * scale
    if bias is not None:
        y += bias
    y -= y.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        gx = y * (g - dot)
        gx *= scale
        _acc(x, gx)

    return Tensor(y, _parents=(x,), _backward=backward)


def layer_norm(x, gain, bias, axis=-1, eps=1e-5):
    """(x - mean) / sqrt(var + eps) * gain + bias along one axis."""
    mu = x.data.mean(axis=axis, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv

    def backward(g):
        if gain.requires_grad:
            _acc(gain, _unbroadcast(g * xhat, gain.data.shape))
        if bias.requires_grad:
            _acc(bias, _unbroadcast(g, bias.data.shape))
        if x.requires_grad:
            gx = g * gain.data
            m1 = gx.mean(axis=axis, keepdims=True)
            m2 = (gx * xhat).mean(axis=axis, keepdims=True)
            _acc(x, inv * (gx - m1 - xhat * m2))

    return Tensor(xhat * gain.data + bias.data, _parents=(x, gain, bias),
                  _backward=backward)


def avg_pool2d(x, stride):
    """Non-overlapping stride x stride window means over the last two dims."""
    if stride < 1 or int(stride) != stride:
        raise ValueError(f"pool stride must be a positive integer, got {stride}")
    stride = int(stride)
    h, w = x.data.shape[-2:]
    if h % stride or w % stride:
        raise ValueError(f"pool stride {stride} does not divide dims {h}x{w}")
    if stride == 1:
        return x + 0.0
    blocks = x.data.shape[:-2] + (h // stride, stride, w // stride, stride)

    def backward(g):
        gg = g[..., :, None, :, None] * (1.0 / (stride * stride))
        _acc(x, np.broadcast_to(gg, blocks).reshape(x.data.shape).copy())

    return Tensor(x.data.reshape(blocks).mean(axis=(-3, -1)), _parents=(x,),
                  _backward=backward)


def _upsample_matrix(n, s, dtype):
    """Interpolation matrix (n*s, n): half-pixel centers, edges clamped."""
    src = (np.arange(n * s, dtype=np.float64) + 0.5) / s - 0.5
    src = np.clip(src, 0.0, n - 1.0)
    i0 = np.floor(src).astype(np.int64)
    i0 = np.minimum(i0, n - 2) if n > 1 else i0
    w = src - i0
    mat = np.zeros((n * s, n), dtype=np.float64)
    rows = np.arange(n * s)
    if n == 1:
        mat[:, 0] = 1.0
    else:
        mat[rows, i0] = 1.0 - w
        mat[rows, i0 + 1] += w
    return mat.astype(dtype)


def bilinear_upsample2d(x, factor):
    """Bilinear upsample of the last two dims by an integer factor."""
    if factor < 1 or int(factor) != factor:
        raise ValueError(f"upsample factor must be a positive integer, got {factor}")
    factor = int(factor)
    if factor == 1:
        return x + 0.0
    h, w = x.data.shape[-2:]
    uh = _upsample_matrix(h, factor, x.data.dtype)
    uw = _upsample_matrix(w, factor, x.data.dtype)
    y = np.matmul(uh, np.matmul(x.data, uw.T))

    def backward(g):
        _acc(x, np.matmul(uh.T, np.matmul(g, uw)))

    return Tensor(y, _parents=(x,), _backward=backward)


def _im2col3x3(a):
    """[n, C, H, W] -> [n, 9C, H*W]: channel block k holds shift (k//3, k%3)
    of `a` bordered by one pixel of zeros, so a matmul by [Cout, 9C] is a
    same-padded 3x3 convolution."""
    n, c, h, w = a.shape
    ap = np.zeros((n, c, h + 2, w + 2), dtype=a.dtype)
    ap[:, :, 1:-1, 1:-1] = a
    cols = np.empty((n, 9, c, h, w), dtype=a.dtype)
    for k in range(9):
        cols[:, k] = ap[:, :, k // 3:k // 3 + h, k % 3:k % 3 + w]
    return cols.reshape(n, 9 * c, h * w)


def conv3x3(x, w, b):
    """Same-padded 3x3 convolution of x [n, Cin, H, W] by w [Cout, 9*Cin],
    plus bias b [Cout], as one node.

    Column block k of w weighs the input at offset (k//3 - 1, k%3 - 1) from
    each output pixel. The input gradient is the transposed convolution: the
    output gradient's columns times the kernel flipped in space, with its
    channel axes swapped.
    """
    n, cin, h, wd = x.data.shape
    cout = w.data.shape[0]
    if w.data.shape != (cout, 9 * cin) or b.data.shape != (cout,):
        raise ValueError(f"conv3x3 of {x.data.shape} needs w [Cout, {9 * cin}] "
                         f"and b [Cout], got {w.data.shape} and {b.data.shape}")
    cols = _im2col3x3(x.data)
    y = np.matmul(w.data, cols).reshape(n, cout, h, wd)
    y += b.data.reshape(1, cout, 1, 1)

    def backward(g):
        if w.requires_grad:
            g3 = g.reshape(n, cout, h * wd)
            _acc(w, np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0))
        if b.requires_grad:
            _acc(b, g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            wt = w.data.reshape(cout, 9, cin)[:, ::-1].transpose(2, 1, 0)
            gx = np.matmul(wt.reshape(cin, 9 * cout), _im2col3x3(g))
            _acc(x, gx.reshape(n, cin, h, wd))

    return Tensor(y, _parents=(x, w, b), _backward=backward)


def take_rows(x, idx, inverse):
    """Gather rows of x along axis 0 with a permutation `idx`.

    Output shape is idx.shape + x.shape[1:]. `inverse` is the inverse
    permutation (`np.argsort(idx)`); the backward pass gathers with it.
    """
    def backward(g):
        _acc(x, np.take(g, inverse, axis=0))

    return Tensor(np.take(x.data, idx, axis=0), _parents=(x,), _backward=backward)


def _reverse_recurrence(a, g):
    """Adjoint of h[l] = a[l] * h[l-1] + u[l]: gh[l] = g[l] + a[l+1] * gh[l+1]."""
    a_rev = np.concatenate([np.ones_like(a[:1]), a[:0:-1]], axis=0)
    g_rev = np.ascontiguousarray(g[::-1])
    return _kernel.linrec_array(a_rev, g_rev)[::-1]


def linear_recurrence(a, u):
    """h[0] = u[0]; h[l] = a[l] * h[l-1] + u[l], elementwise over trailing dims."""
    if a.data.shape != u.data.shape:
        raise ValueError(f"recurrence shapes differ: {a.data.shape} vs {u.data.shape}")
    h = _kernel.linrec_array(a.data, u.data)

    def backward(g):
        gh = _reverse_recurrence(a.data, g)
        if u.requires_grad:
            _acc(u, gh)
        if a.requires_grad:
            h_prev = np.concatenate([np.zeros_like(h[:1]), h[:-1]], axis=0)
            _acc(a, gh * h_prev)

    return Tensor(h, _parents=(a, u), _backward=backward)


def selective_recurrence(delta, dx, b, c, a):
    """Diagonal selective-SSM scan as one node: y[l] = sum_n h[l, n] * c[l, n].

    h[l, n, d] = exp(delta[l, d] * a[d, n]) * h[l-1, n, d] + dx[l, d] * b[l, n],
    h[-1] = 0, for M independent sequences side by side. `delta` and `dx` are
    [L, M, D], `b` and `c` [L, M, N], `a` is [D, N]; the output is [L, M, D].
    The state is held as [L, M, N, D], channels innermost, and advances in one
    kernel call of width M*N*D; the readout is one einsum over N. The
    backward pass is one reverse-time recurrence plus sums over N and D.
    """
    L, M, D = delta.data.shape
    N = a.data.shape[1]
    dl = delta.data.reshape(L, M, 1, D)
    c4 = c.data.reshape(L, M, N, 1)
    at = a.data.T                                             # [N, D]
    abar = dl * at
    np.exp(abar, out=abar)                                    # [L, M, N, D]
    u = dx.data.reshape(L, M, 1, D) * b.data.reshape(L, M, N, 1)
    h = _kernel.linrec_array(abar, u)
    y = np.einsum("lmnd,lmn->lmd", h, c.data)

    def backward(g):
        if c.requires_grad:
            _acc(c, np.einsum("lmnd,lmd->lmn", h, g))
        gh = _reverse_recurrence(abar, g.reshape(L, M, 1, D) * c4)
        if dx.requires_grad:
            _acc(dx, np.einsum("lmnd,lmn->lmd", gh, b.data))
        if b.requires_grad:
            _acc(b, np.einsum("lmnd,lmd->lmn", gh, dx.data))
        if delta.requires_grad or a.requires_grad:
            gz = np.zeros_like(h)                              # d loss / d(delta*a)
            np.multiply(gh[1:], h[:-1], out=gz[1:])
            gz *= abar
            if delta.requires_grad:
                _acc(delta, np.einsum("lmnd,nd->lmd", gz, at))
            if a.requires_grad:
                _acc(a, np.einsum("lmnd,lmd->dn", gz, delta.data))

    return Tensor(y, _parents=(delta, dx, b, c, a), _backward=backward)


# -- parameter tape ---------------------------------------------------------------


class Tape:
    """Parameter registry with a seeded RNG for reproducible initialisation."""

    def __init__(self, seed=0, dtype=np.float64):
        self.rng = np.random.default_rng(seed)
        self.dtype = dtype
        self.params = {}

    def param(self, name, array):
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(array, dtype=self.dtype), requires_grad=True)
        self.params[name] = t
        return t

    def normal(self, name, shape, scale=1.0):
        return self.param(name, self.rng.standard_normal(shape) * scale)

    def zeros(self, name, shape):
        return self.param(name, np.zeros(shape))

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def tensors(self):
        return list(self.params.values())

    def named(self):
        return dict(self.params)


# -- gradient checking ---------------------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_err: float
    tol: float
    n_checked: int
    worst: tuple = ()

    @property
    def passed(self):
        return self.max_rel_err <= self.tol


def grad_check(f, params, eps=1e-5, tol=1e-4, max_entries=None):
    """Compare tape gradients of scalar `f()` against central finite differences.

    `params` is a list of requires_grad tensors read by `f`. Relative error is
    |a - fd| / max(1, |a|, |fd|), so near-zero gradients compare absolutely.
    `max_entries` caps the coordinates checked per parameter to a strided subset.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    out = f()
    if not np.isfinite(out.data).all():
        raise ValueError("grad_check: function value is not finite")
    out.backward()
    analytic = [p.grad_array().copy() for p in params]

    max_rel = 0.0
    worst = ()
    n_checked = 0
    for k, p in enumerate(params):
        flat = p.data.reshape(-1)
        n = flat.size
        if max_entries is not None and n > max_entries:
            sel = np.linspace(0, n - 1, max_entries).astype(np.int64)
        else:
            sel = np.arange(n)
        for i in sel:
            old = flat[i]
            flat[i] = old + eps
            fp = float(f().data)
            flat[i] = old - eps
            fm = float(f().data)
            flat[i] = old
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise ValueError("grad_check: perturbed function value is not finite")
            fd = (fp - fm) / (2.0 * eps)
            a = float(analytic[k].reshape(-1)[i])
            rel = abs(a - fd) / max(1.0, abs(a), abs(fd))
            n_checked += 1
            if rel > max_rel:
                max_rel = rel
                worst = (k, int(i), a, fd)
    return GradCheckReport(max_rel_err=max_rel, tol=tol, n_checked=n_checked,
                           worst=worst)


# -- .mvt binary tensor files ---------------------------------------------------------


class MvtError(ValueError):
    """Malformed or truncated .mvt tensor file."""


_MVT_MAGIC = b"MVT1"
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def save_mvt(path, array):
    """Write an array as MVT1: magic, dtype code, ndim, u32 extents, payload."""
    arr = np.asarray(array)
    if arr.dtype not in _CODE_FOR:
        raise MvtError(f"unsupported dtype {arr.dtype} for {path}")
    code = _CODE_FOR[arr.dtype]
    with open(path, "wb") as fh:
        fh.write(_MVT_MAGIC)
        fh.write(struct.pack("<BB", code, arr.ndim))
        for extent in arr.shape:
            fh.write(struct.pack("<I", extent))
        fh.write(np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code]).tobytes())


def load_mvt(path):
    with open(path, "rb") as fh:
        head = fh.read(6)
        if len(head) < 6 or head[:4] != _MVT_MAGIC:
            raise MvtError(f"{path}: bad magic, not an MVT1 file")
        code, ndim = head[4], head[5]
        if code not in _DTYPE_CODES:
            raise MvtError(f"{path}: unknown dtype code {code}")
        raw = fh.read(4 * ndim)
        if len(raw) < 4 * ndim:
            raise MvtError(f"{path}: truncated header")
        shape = struct.unpack(f"<{ndim}I", raw) if ndim else ()
        if any(s < 1 for s in shape):
            raise MvtError(f"{path}: zero extent in shape {shape}")
        dtype = _DTYPE_CODES[code]
        count = math.prod(shape)  # Python ints: no overflow for any header
        nbytes = count * dtype.itemsize
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != nbytes:
            raise MvtError(f"{path}: corrupt payload ({size} bytes for {count} values)")
        payload = fh.read(nbytes)
        if len(payload) != nbytes:
            raise MvtError(f"{path}: corrupt payload (file changed while read)")
    return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
