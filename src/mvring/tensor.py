"""Minimal dense-tensor substrate with reverse-mode autodiff.

Every Tensor holds a float64 numpy array, whatever it was built from, and
records a dynamic graph over a closed primitive set: matmul, addition and
multiplication, exp/sigmoid/softplus/silu, softmax, channel layer norm,
sums, reshape/transpose/concat, slicing and index-array gathers, 3x3
convolution, bilinear upsampling, and the selective-SSM recurrence beneath
the scan as one node with a hand-written backward. Means and average
pooling are composed from these.

The graph is made of `_Node`s, not of tensors. A tensor that requires grad
owns one node; a node holds the gradient, the nodes of the parents that
require grad, and the backward closure. Each closure keeps only the arrays
its backward reads, so the forward leaves live only those arrays: a
tensor's own data is freed with the tensor unless some backward reads it.
`backward()` needs a scalar output, runs the closures in a fixed
topological order and consumes the graph as it goes: each interior node's
gradient, closure and parent links are dropped once used, leaves keep their
gradients, and a second backward through the freed graph raises
RuntimeError. Inside `no_grad()` no graph is recorded: results own no node.
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
    "selective_recurrence",
    "grad_check",
    "save_mvt",
    "load_mvt",
]

_grad_enabled = True
LN_EPS = 1e-5


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


class _Node:
    """One vertex of the autodiff graph: the gradient accumulated so far,
    the nodes of the parents that require grad, and the closure that passes
    this node's gradient on to them (None on a leaf)."""

    __slots__ = ("grad", "_parents", "_backward")

    def __init__(self, parents=(), backward=None):
        self.grad = None
        self._parents = parents
        self._backward = backward


def _acc(node, g):
    """Accumulate a gradient contribution out of place. `g` may be a view of
    another node's gradient, so no gradient array is ever written to."""
    node.grad = g if node.grad is None else node.grad + g


def _consumed(g):
    """Closure of an interior node whose backward has already run."""
    raise RuntimeError("backward through a graph that an earlier backward freed")


def _toposort(root):
    """Nodes reachable from `root`, each after all of its parents."""
    order, seen, stack = [], set(), [(root, False)]
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


def _result(y, parents, backward):
    """The output tensor of an op whose inputs own the nodes `parents` (None
    for an input that needs no grad). It gets a node only if some parent
    requires grad and a graph is being recorded."""
    out = Tensor(y)
    if _grad_enabled:
        parents = tuple(p for p in parents if p is not None)
        if parents:
            out._node = _Node(parents, backward)
    return out


class Tensor:
    """A dense N-d array, plus its graph node when it requires grad.

    An op captures its inputs' nodes (`x._node`, None when `x` needs no
    grad) and the arrays its backward reads, and returns
    `_result(y, nodes, backward)`, where `backward(g)` passes the output's
    gradient `g` to each non-None parent node through `_acc`. A closure never
    captures a Tensor, so it pins no array it does not read, and never its
    own output node, which would make every graph a reference cycle.
    `requires_grad`, `grad`, `_parents` and `_backward` read the node.
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad=False):
        if isinstance(data, Tensor):
            raise TypeError("wrap raw array data, not another Tensor")
        self.data = np.asarray(data, dtype=np.float64)
        self._node = _Node() if requires_grad else None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    # -- graph machinery -----------------------------------------------------

    @property
    def requires_grad(self):
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g):
        self._node.grad = g

    @property
    def _parents(self):
        return () if self._node is None else self._node._parents

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    def backward(self):
        """Accumulate gradients of this scalar tensor into the graph's leaves,
        consuming the graph on the way.

        Each interior node's closure runs once, in a fixed topological order;
        then its gradient, closure and parents are dropped, so the arrays they
        hold are freed as soon as nothing upstream needs them. Leaves (nodes
        without a closure) keep their gradients. A second backward through a
        consumed node raises RuntimeError before any gradient moves.
        """
        if not self.requires_grad:
            raise RuntimeError("backward on a tensor that requires no grad")
        if self.data.size != 1:
            raise RuntimeError("backward needs a scalar output")
        order = _toposort(self._node)
        if any(node._backward is _consumed for node in order):
            _consumed(None)
        _acc(self._node, np.ones_like(self.data))
        while order:
            node = order.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node.grad, node._backward, node._parents = None, _consumed, ()

    def zero_grad(self):
        if self._node is not None:
            self._node.grad = None

    def grad_array(self):
        """Gradient as an array, zeros if this leaf was never reached."""
        return self.grad if self.grad is not None else np.zeros_like(self.data)

    # -- elementwise arithmetic ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Tensor):
            return other
        return Tensor(other)

    def __add__(self, other):
        other = self._coerce(other)
        na, nb = self._node, other._node
        sa, sb = self.data.shape, other.data.shape

        def backward(g):
            if na is not None:
                _acc(na, _unbroadcast(g, sa))
            if nb is not None:
                _acc(nb, _unbroadcast(g, sb))

        return _result(self.data + other.data, (na, nb), backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        na, nb = self._node, other._node
        sa, sb = self.data.shape, other.data.shape
        # each factor's gradient reads only the other factor
        a = self.data if nb is not None else None
        b = other.data if na is not None else None

        def backward(g):
            if na is not None:
                _acc(na, _unbroadcast(g * b, sa))
            if nb is not None:
                _acc(nb, _unbroadcast(g * a, sb))

        return _result(self.data * other.data, (na, nb), backward)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    # -- elementwise nonlinearities -------------------------------------------

    def exp(self):
        y = np.exp(self.data)
        n = self._node

        def backward(g):
            _acc(n, g * y)

        return _result(y, (n,), backward)

    def sigmoid(self):
        y = _sigmoid(self.data)
        n = self._node

        def backward(g):
            _acc(n, g * (y * (1.0 - y)))

        return _result(y, (n,), backward)

    def softplus(self):
        # max(x, 0) + log1p(exp(-|x|)): np.logaddexp(0, x) is ~8x slower
        x, n = self.data, self._node
        y = np.abs(x.reshape(-1))
        np.negative(y, out=y)
        np.exp(y, out=y)
        np.log1p(y, out=y)
        y += np.maximum(x.reshape(-1), 0)

        def backward(g):
            _acc(n, g * _sigmoid(x))

        return _result(y.reshape(x.shape), (n,), backward)

    def silu(self):
        x, n = self.data, self._node
        sig = _sigmoid(x)

        def backward(g):
            _acc(n, g * (sig * (1.0 + x * (1.0 - sig))))

        return _result(x * sig, (n,), backward)

    # -- reductions ------------------------------------------------------------

    def sum(self, axis=None):
        n, shape = self._node, self.data.shape

        def backward(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            _acc(n, np.broadcast_to(g, shape).copy())

        return _result(self.data.sum(axis=axis), (n,), backward)

    def mean(self, axis=None):
        n = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in np.atleast_1d(axis)])
        return self.sum(axis=axis) * (1.0 / float(n))

    # -- shape ops ---------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        n, src_shape = self._node, self.data.shape

        def backward(g):
            _acc(n, g.reshape(src_shape))

        return _result(self.data.reshape(shape), (n,), backward)

    def transpose(self, axes):
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))
        n = self._node

        def backward(g):
            _acc(n, g.transpose(inv))

        return _result(self.data.transpose(axes), (n,), backward)

    def swap_last2(self):
        axes = list(range(self.ndim))
        axes[-1], axes[-2] = axes[-2], axes[-1]
        return self.transpose(axes)

    def __getitem__(self, idx):
        """Slicing, or a gather by an index array that repeats no entry.

        The backward pass assigns the output gradient into place, so an
        index that repeats an entry would keep only one of its gradients.
        """
        n, shape = self._node, self.data.shape

        def backward(g):
            gx = np.zeros(shape)
            gx[idx] = g
            _acc(n, gx)

        return _result(self.data[idx], (n,), backward)


# -- construction helpers ------------------------------------------------------


def concat(tensors, axis=0):
    tensors = list(tensors)
    nodes = [t._node for t in tensors]
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def backward(g):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if n is not None:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                _acc(n, g[tuple(sl)])

    return _result(np.concatenate([t.data for t in tensors], axis=axis),
                   nodes, backward)


def matmul(a, b):
    """a[..., m, k] @ b[..., k, n]; b is 2-D or has a's batch dims."""
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    if b.ndim > 2 and a.data.shape[:-2] != b.data.shape[:-2]:
        raise ValueError(f"matmul batch dims differ: {a.data.shape} @ {b.data.shape}")
    na, nb, ad, bd = a._node, b._node, a.data, b.data

    def backward(g):
        if na is not None:
            _acc(na, np.matmul(g, np.swapaxes(bd, -1, -2)))
        if nb is not None:
            if bd.ndim == 2 and ad.ndim > 2:
                k = ad.shape[-1]
                n = g.shape[-1]
                gb = np.matmul(ad.reshape(-1, k).T, g.reshape(-1, n))
            else:
                gb = np.matmul(np.swapaxes(ad, -1, -2), g)
            _acc(nb, gb)

    return _result(np.matmul(ad, bd), (na, nb), backward)


def softmax(x, scale=1.0, bias=None):
    """Numerically stable softmax of x * scale + bias along the last axis;
    rows sum to 1. `bias` is a constant additive array (0 keeps an entry,
    large negative removes it) and receives no gradient. The backward reads
    the output only, so the logits are freed with their tensor."""
    y = x.data * scale
    if bias is not None:
        y += bias
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    n = x._node

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        gx = y * (g - dot)
        gx *= scale
        _acc(n, gx)

    return _result(y, (n,), backward)


def layer_norm(x, gain, bias):
    """Layer norm over the channel axis of x [n, C, H, W]:
    (x - mean) / sqrt(var + LN_EPS) * gain + bias, gain and bias [C]."""
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    gc = gain.data.reshape(-1, 1, 1)
    nx, ng, nb = x._node, gain._node, bias._node

    def backward(g):
        if ng is not None:
            _acc(ng, (g * xhat).sum(axis=(0, 2, 3)))
        if nb is not None:
            _acc(nb, g.sum(axis=(0, 2, 3)))
        if nx is not None:
            gx = g * gc
            m1 = gx.mean(axis=1, keepdims=True)
            m2 = (gx * xhat).mean(axis=1, keepdims=True)
            _acc(nx, inv * (gx - m1 - xhat * m2))

    return _result(xhat * gc + bias.data.reshape(-1, 1, 1), (nx, ng, nb),
                   backward)


def avg_pool2d(x, stride):
    """Non-overlapping stride x stride window means over the last two dims."""
    if stride < 1 or int(stride) != stride:
        raise ValueError(f"pool stride must be a positive integer, got {stride}")
    s = int(stride)
    h, w = x.data.shape[-2:]
    if h % s or w % s:
        raise ValueError(f"pool stride {s} does not divide dims {h}x{w}")
    return x.reshape(x.data.shape[:-2] + (h // s, s, w // s, s)).mean(axis=(-3, -1))


def _upsample_matrix(n, s):
    """Interpolation matrix (n*s, n): half-pixel centers, edges clamped."""
    src = (np.arange(n * s) + 0.5) / s - 0.5
    src = np.clip(src, 0.0, n - 1.0)
    i0 = np.floor(src).astype(np.int64)
    i0 = np.minimum(i0, n - 2) if n > 1 else i0
    w = src - i0
    mat = np.zeros((n * s, n))
    rows = np.arange(n * s)
    if n == 1:
        mat[:, 0] = 1.0
    else:
        mat[rows, i0] = 1.0 - w
        mat[rows, i0 + 1] += w
    return mat


def bilinear_upsample2d(x, factor):
    """Bilinear upsample of the last two dims by an integer factor."""
    if factor < 1 or int(factor) != factor:
        raise ValueError(f"upsample factor must be a positive integer, got {factor}")
    factor = int(factor)
    h, w = x.data.shape[-2:]
    uh = _upsample_matrix(h, factor)
    uw = _upsample_matrix(w, factor)
    y = np.matmul(uh, np.matmul(x.data, uw.T))
    n = x._node

    def backward(g):
        _acc(n, np.matmul(uh.T, np.matmul(g, uw)))

    return _result(y, (n,), backward)


def _im2col3x3(a):
    """[n, C, H, W] -> [n, 9C, H*W]: channel block k holds shift (k//3, k%3)
    of `a` bordered by one pixel of zeros, so a matmul by [Cout, 9C] is a
    same-padded 3x3 convolution."""
    n, c, h, w = a.shape
    ap = np.zeros((n, c, h + 2, w + 2))
    ap[:, :, 1:-1, 1:-1] = a
    cols = np.empty((n, 9, c, h, w))
    for k in range(9):
        cols[:, k] = ap[:, :, k // 3:k // 3 + h, k % 3:k % 3 + w]
    return cols.reshape(n, 9 * c, h * w)


def conv3x3(x, w, b):
    """Same-padded 3x3 convolution of x [n, Cin, H, W] by w [Cout, 9*Cin],
    plus bias b [Cout], as one node.

    Column block k of w weighs the input at offset (k//3 - 1, k%3 - 1) from
    each output pixel. The weight gradient reads the input's column buffer,
    which the node keeps. The input gradient is the transposed convolution:
    the output gradient's columns times the kernel flipped in space, with its
    channel axes swapped.
    """
    n, cin, h, wd = x.data.shape
    cout = w.data.shape[0]
    if w.data.shape != (cout, 9 * cin) or b.data.shape != (cout,):
        raise ValueError(f"conv3x3 of {x.data.shape} needs w [Cout, {9 * cin}] "
                         f"and b [Cout], got {w.data.shape} and {b.data.shape}")
    cols, wdata = _im2col3x3(x.data), w.data
    y = np.matmul(wdata, cols).reshape(n, cout, h, wd)
    y += b.data.reshape(1, cout, 1, 1)
    nx, nw, nb = x._node, w._node, b._node

    def backward(g):
        if nw is not None:
            g3 = g.reshape(n, cout, h * wd)
            _acc(nw, np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0))
        if nb is not None:
            _acc(nb, g.sum(axis=(0, 2, 3)))
        if nx is not None:
            wt = wdata.reshape(cout, 9, cin)[:, ::-1].transpose(2, 1, 0)
            gx = np.matmul(wt.reshape(cin, 9 * cout), _im2col3x3(g))
            _acc(nx, gx.reshape(n, cin, h, wd))

    return _result(y, (nx, nw, nb), backward)


def _reverse_recurrence(a, g):
    """Adjoint of h[l] = a[l] * h[l-1] + u[l]: gh[l] = g[l] + a[l+1] * gh[l+1]."""
    a_rev = np.concatenate([np.ones_like(a[:1]), a[:0:-1]], axis=0)
    g_rev = np.ascontiguousarray(g[::-1])
    return _kernel.linrec_array(a_rev, g_rev)[::-1]


def selective_recurrence(delta, dx, b, c, a):
    """Diagonal selective-SSM scan as one node: y[l] = sum_n h[l, n] * c[l, n].

    h[l, n, d] = exp(delta[l, d] * a[d, n]) * h[l-1, n, d] + dx[l, d] * b[l, n],
    h[-1] = 0, for M independent sequences side by side. `delta` and `dx` are
    [L, M, D], `b` and `c` [L, M, N], `a` is [D, N]; the output is [L, M, D].
    The state is held as [L, M, N, D], channels innermost, and advances in one
    kernel call of width M*N*D; the readout is one einsum over N. The
    backward pass is one reverse-time recurrence plus sums over N and D.
    """
    at = a.data.T                                             # [N, D]
    # order="C": the transposed `at` would otherwise lay the state out N-innermost
    abar = np.einsum("lmd,nd->lmnd", delta.data, at, order="C")
    np.exp(abar, out=abar)                                    # [L, M, N, D]
    dd, dxd, bd, cd = delta.data, dx.data, b.data, c.data
    u = np.einsum("lmd,lmn->lmnd", dxd, bd)
    h = _kernel.linrec_array(abar, u)
    y = np.einsum("lmnd,lmn->lmd", h, cd)
    nodes = (delta._node, dx._node, b._node, c._node, a._node)

    def backward(g):
        ndelta, ndx, nb, nc, na = nodes
        if nc is not None:
            _acc(nc, np.einsum("lmnd,lmd->lmn", h, g))
        gh = _reverse_recurrence(abar, np.einsum("lmd,lmn->lmnd", g, cd))
        if ndx is not None:
            _acc(ndx, np.einsum("lmnd,lmn->lmd", gh, bd))
        if nb is not None:
            _acc(nb, np.einsum("lmnd,lmd->lmn", gh, dxd))
        if ndelta is not None or na is not None:
            gz = np.zeros_like(h)                              # d loss / d(delta*a)
            np.multiply(gh[1:], h[:-1], out=gz[1:])
            gz *= abar
            if ndelta is not None:
                _acc(ndelta, np.einsum("lmnd,nd->lmd", gz, at))
            if na is not None:
                _acc(na, np.einsum("lmnd,lmd->dn", gz, dd))

    return _result(y, nodes, backward)


# -- parameter tape ---------------------------------------------------------------


class Tape:
    """Parameter registry with a seeded RNG for reproducible initialisation."""

    def __init__(self, seed=0):
        self.rng = np.random.default_rng(seed)
        self.params = {}

    def param(self, name, array):
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(array, requires_grad=True)
        self.params[name] = t
        return t

    def normal(self, name, shape, scale=1.0):
        return self.param(name, self.rng.standard_normal(shape) * scale)

    def zeros(self, name, shape):
        return self.param(name, np.zeros(shape))

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()


# -- gradient checking ---------------------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_err: float
    tol: float
    n_checked: int

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
            max_rel = max(max_rel, rel)
    return GradCheckReport(max_rel_err=max_rel, tol=tol, n_checked=n_checked)


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
