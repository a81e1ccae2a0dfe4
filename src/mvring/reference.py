"""Brute-force references that the tests check the program against.

One oracle per cross-view operator, each written the slow, obvious way in
numpy over one ring z [f, C, H, W]: attention over the concatenated
[prev, self, next] views for `aa`, a per-pixel gather over trajectory
windows for `dr`, the scale-pool-attend-project-upsample composition for
`air`, and the two-pass glance over the sequential scan for `rg`. Beside
them sit the other references the runtime modules used to carry: a
first-order linear recurrence node, the depth-aware column projection, a
point's depth in a view and a PPM reader.

No module of the program imports this one; a lint keeps it so.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import _kernel
from .data import ORTHO_SPAN, view_basis
from .geometry import ViewRing, delta_azimuth, trajectory_window
from .scan import build_scan_order, selective_scan_sequential
from .tensor import Tensor, _acc, _reverse_recurrence

__all__ = [
    "softmax",
    "sdpa",
    "to_tokens",
    "to_maps",
    "adjacent_attention",
    "trajectory_attention",
    "air_attention",
    "glance_orders",
    "rapid_glance",
    "linear_recurrence",
    "project_rotated_x",
    "point_depth_px",
    "read_ppm",
]


# -- attention ----------------------------------------------------------------


def softmax(x):
    """Softmax over the last axis, shifted by each row's maximum."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def sdpa(q, k, v):
    """softmax(q k^T / sqrt(d)) v for q [n, d] and k, v [m, d]."""
    return softmax(q @ k.T / math.sqrt(q.shape[-1])) @ v


def to_tokens(z):
    """[n, C, H, W] -> [n, H*W, C]."""
    n, c, h, w = z.shape
    return z.transpose(0, 2, 3, 1).reshape(n, h * w, c)


def to_maps(tokens, h, w):
    """[n, H*W, C] -> [n, C, H, W]."""
    n, _, c = tokens.shape
    return tokens.reshape(n, h, w, c).transpose(0, 3, 1, 2)


def adjacent_attention(z, p):
    """Each view's tokens attend over views i-1, i and i+1, concatenated."""
    f, _, h, w = z.shape
    t = to_tokens(z)
    out = []
    for i in range(f):
        kv = np.concatenate([t[(i - 1) % f], t[i], t[(i + 1) % f]])
        out.append(sdpa(t[i] @ p.w_q.data, kv @ p.w_k.data, kv @ p.w_v.data)
                   @ p.w_o.data)
    return to_maps(np.stack(out), h, w)


def trajectory_attention(z, p):
    """Each pixel attends over the keys gathered, one by one, from its
    trajectory_window in views i-1, i and i+1."""
    f, _, h, w = z.shape
    ring = ViewRing(f=f, W=w, H=h)
    t = to_tokens(z)
    q, k, v = t @ p.w_q.data, t @ p.w_k.data, t @ p.w_v.data
    out = np.empty_like(q)
    for i, y, x in np.ndindex(f, h, w):
        views, cells = zip(*[
            (j, r * w + c) for j in ((i - 1) % f, i, (i + 1) % f)
            for c, r in trajectory_window(x, y, delta_azimuth(ring, i, j), w, h)])
        out[i, y * w + x] = sdpa(q[i, y * w + x][None], k[views, cells],
                                 v[views, cells])[0] @ p.w_o.data
    return to_maps(out, h, w)


def _upsample_matrix(n, s):
    """[n*s, n] half-pixel bilinear weights, edges clamped: column j
    interpolates the j-th unit vector at each output pixel's centre."""
    src = (np.arange(n * s) + 0.5) / s - 0.5
    return np.stack([np.interp(src, np.arange(n), e) for e in np.eye(n)], axis=1)


def air_attention(z, scores, cfg, p):
    """Scale each projection by the scores, average-pool it (queries by tau,
    keys and values by rho), attend each view's queries over every view's
    keys, project, and upsample bilinearly. Unit scores with AirConfig(1, 1)
    make it dense attention over all the ring's tokens."""
    f, c, h, w = z.shape

    def pooled(weight, s):
        m = scores * to_maps(to_tokens(z) @ weight, h, w)
        return to_tokens(m.reshape(f, c, h // s, s, w // s, s).mean(axis=(3, 5)))

    k = pooled(p.w_k.data, cfg.rho).reshape(-1, c)
    v = pooled(p.w_v.data, cfg.rho).reshape(-1, c)
    out = np.stack([sdpa(q, k, v) @ p.w_o.data for q in pooled(p.w_q.data, cfg.tau)])
    hq, wq = h // cfg.tau, w // cfg.tau
    return np.einsum("Hh,nchw,Ww->ncHW", _upsample_matrix(hq, cfg.tau),
                     to_maps(out, hq, wq), _upsample_matrix(wq, cfg.tau))


# -- scan ---------------------------------------------------------------------


def glance_orders(f, h, w, strategy):
    """The token orders rapid_glance scans a ring in: views ascending, then,
    unless the strategy is row-major, the same with the views descending."""
    order = build_scan_order(f, h, w, strategy)
    return (order,) if strategy == "row-major" else (order, order.reversed_views())


def rapid_glance(z, params, strategy):
    """The sequential scan over each of glance_orders, scattered back to the
    tokens' places and averaged, plus the residual."""
    f, c, h, w = z.shape
    t = to_tokens(z).reshape(f * h * w, c)
    orders = glance_orders(f, h, w, strategy)
    total = np.zeros_like(t)
    for o in orders:
        total[o.perm] += selective_scan_sequential(t[o.perm], params)
    return to_maps((total / len(orders)).reshape(f, h * w, c), h, w) + z


def linear_recurrence(a, u):
    """h[0] = u[0]; h[l] = a[l] * h[l-1] + u[l], elementwise over trailing
    dims: one autodiff node over the kernel loop, for composing the scan
    from separate primitives."""
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


# -- geometry and files ---------------------------------------------------------


def project_rotated_x(x, delta_deg, depth_px, W):
    """Column after rotating by delta degrees at signed pixel depth `depth_px`.

    x' = (x - W/2) cos(da) + W/2 - d sin(da). Depth is measured along the view
    direction in pixel units, zero on the rotation-axis plane.
    """
    da = math.radians(delta_deg)
    return (x - W / 2.0) * math.cos(da) + W / 2.0 - depth_px * math.sin(da)


def point_depth_px(point, ring, i):
    """Signed pixel-unit depth of a world point in view i (axis plane = 0)."""
    _, _, fwd = view_basis(ring.azimuth_deg(i), ring.elevation_deg)
    return float(np.dot(point, fwd) * (ring.W / ORTHO_SPAN))


def read_ppm(path):
    """Inverse of metrics.write_ppm, back to float64 in [0, 1]. Malformed
    dimensions, a maxval outside 1..255 or a truncated payload raise
    ValueError."""
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"P6":
            raise ValueError(f"{path}: not a binary PPM")
        dims = fh.readline().split()
        if len(dims) != 2 or not all(d.isdigit() and int(d) > 0 for d in dims):
            raise ValueError(f"{path}: malformed PPM dimensions {dims}")
        maxval = fh.readline().strip()
        if not (maxval.isdigit() and 1 <= int(maxval) <= 255):
            raise ValueError(f"{path}: PPM maxval {maxval} is not in 1..255")
        w, h = int(dims[0]), int(dims[1])
        if os.fstat(fh.fileno()).st_size - fh.tell() < w * h * 3:
            raise ValueError(f"{path}: truncated PPM payload for {w}x{h}")
        raw = fh.read(w * h * 3)
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)
    return arr.astype(np.float64) / int(maxval)
