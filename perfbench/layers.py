"""Isolated per-operator timings at a workload's shapes, each behind an oracle.

Before an operator is timed, its output is compared with a brute-force
numpy computation that shares none of its code: dense attention for `aa`
and `air`, a per-pixel gather-and-attend loop for `dr`, and the sequential
reference scan for both passes of `rg`.
"""

from __future__ import annotations

import math
import time

import numpy as np

from stats import median

ORACLE_TOL = 1e-10
CHANNELS = 16
TEXT_DIM = 16
D_STATE = 4
REPEATS = 30
BUDGET_S = 0.3           # per operator and mode, after one warm-up call
SWEEP = (256, 768, 1024, 4096, 16384)
SWEEP_WIDTH = 64

clock = time.perf_counter


def _softmax_rows(logits):
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _tokens(x):
    f, c, h, w = x.shape
    return x.transpose(0, 2, 3, 1).reshape(f, h * w, c)


def _maps(tokens, h, w):
    f, _, c = tokens.shape
    return tokens.reshape(f, h, w, c).transpose(0, 3, 1, 2)


def oracle_adjacent(x, p):
    """Dense softmax attention of each view over [prev, self, next] keys."""
    f, c, h, w = x.shape
    t = _tokens(x)
    q, k, v = t @ p.w_q.data, t @ p.w_k.data, t @ p.w_v.data
    out = np.empty_like(q)
    for i in range(f):
        nb = [(i - 1) % f, i, (i + 1) % f]
        kk = np.concatenate([k[j] for j in nb])
        vv = np.concatenate([v[j] for j in nb])
        out[i] = _softmax_rows(q[i] @ kk.T / math.sqrt(c)) @ vv
    return _maps(out @ p.w_o.data, h, w)


def oracle_trajectory(x, ring, p, geo):
    """Per-pixel gather over trajectory_window in views i-1, i, i+1, then attend."""
    f, c, h, w = x.shape
    t = _tokens(x)
    q, k, v = t @ p.w_q.data, t @ p.w_k.data, t @ p.w_v.data
    out = np.empty_like(q)
    for i in range(f):
        views = [((i - 1) % f, geo.delta_azimuth(ring, i, (i - 1) % f)),
                 (i, 0.0), ((i + 1) % f, geo.delta_azimuth(ring, i, (i + 1) % f))]
        for y in range(h):
            for xx in range(w):
                keys = [(j, r * w + cc) for j, delta in views
                        for cc, r in geo.trajectory_window(xx, y, delta, w, h)]
                kk = np.stack([k[j, s] for j, s in keys])
                vv = np.stack([v[j, s] for j, s in keys])
                a = _softmax_rows(q[i, y * w + xx] @ kk.T / math.sqrt(c))
                out[i, y * w + xx] = a @ vv
    return _maps(out @ p.w_o.data, h, w)


def oracle_air_dense(x, p):
    """air with unit scores and strides 1: every query over every view's keys."""
    f, c, h, w = x.shape
    t = _tokens(x)
    q, k, v = t @ p.w_q.data, t @ p.w_k.data, t @ p.w_v.data
    kk, vv = k.reshape(-1, c), v.reshape(-1, c)
    out = np.stack([_softmax_rows(q[i] @ kk.T / math.sqrt(c)) @ vv for i in range(f)])
    return _maps(out @ p.w_o.data, h, w)


def oracle_rapid_glance(x, ssm, scan):
    """Both view-order passes through selective_scan_sequential, averaged."""
    f, c, h, w = x.shape
    order = scan.build_scan_order(f, h, w, "spiral-bidirectional")
    flat = x.transpose(0, 2, 3, 1).reshape(f * h * w, c)
    total = np.zeros_like(flat)
    for o in (order, order.reversed_views()):
        y = scan.selective_scan_sequential(flat[o.perm], ssm)
        total[o.perm] += y
    return (total * 0.5).reshape(f, h, w, c).transpose(0, 3, 1, 2) + x


class Operators:
    """Standalone parameters and inputs for each operator at one shape."""

    def __init__(self, mv, h, w, seed):
        dn, att, geo = mv.denoiser, mv.attention, mv.geometry
        self.mv = mv
        rng = np.random.default_rng(seed)
        tape = mv.tensor.Tape(seed)
        f, c = 12, CHANNELS
        self.ring = geo.ViewRing(f=f, W=w, H=h)
        self.x = rng.standard_normal((f, c, h, w))
        self.emb = mv.tensor.Tensor(rng.standard_normal((f, c)))
        self.text = rng.standard_normal(TEXT_DIM)
        self.res = dn.ResBlockParams.init(tape, "res", c)
        # a non-zero second conv so the block's backward reaches every weight
        self.res.conv2.w.data = rng.standard_normal(self.res.conv2.w.shape) * 0.1
        self.ca_norm = dn.NormParams.init(tape, "ca_norm", c)
        self.ca = att.AttentionParams.init(tape, "ca", c, kv_dim=TEXT_DIM, out_scale=1.0)
        self.attn = {n: att.AttentionParams.init(tape, n, c, out_scale=1.0)
                     for n in ("aa", "dr", "air")}
        self.ssm = mv.scan.SsmParams.init(tape, "rg", c, D_STATE, out_scale=1.0)
        self.smap = att.ScoreMapper.init(tape, "smap", c, TEXT_DIM)
        self.air_cfg = att.AirConfig(tau=2, rho=4)
        self.grad_out = rng.standard_normal(self.x.shape)

    def stack(self, xt):
        return self.mv.geometry.LatentStack(xt, self.ring)

    def forward_fns(self):
        dn, att, scan = self.mv.denoiser, self.mv.attention, self.mv.scan

        def air(xt):
            s = self.stack(xt)
            return att.air_attention(s, att.score_map(s, self.text, self.smap),
                                     self.air_cfg, self.attn["air"]).data

        return {
            "denoiser.res_block": lambda xt: dn.res_block(xt, self.emb, self.res),
            "denoiser.cross_attention":
                lambda xt: dn.cross_attention(xt, self.text, self.ca_norm, self.ca),
            "attention.adjacent":
                lambda xt: att.adjacent_attention(self.stack(xt), self.attn["aa"]).data,
            "attention.trajectory":
                lambda xt: att.trajectory_attention(self.stack(xt), self.ring,
                                                    self.attn["dr"]).data,
            "scan.rapid_glance": lambda xt: scan.rapid_glance(self.stack(xt), self.ssm).data,
            "attention.air": air,
        }

    def check_oracles(self):
        """(name, ok, note) for each operator against its brute-force oracle."""
        mv = self.mv
        att, T = mv.attention, mv.tensor.Tensor
        x = self.x
        s = self.stack(T(x))
        unit = T(np.ones((x.shape[0], 1) + x.shape[2:]))
        cases = [
            ("aa vs dense [prev, self, next] attention",
             att.adjacent_attention(s, self.attn["aa"]).data.data,
             oracle_adjacent(x, self.attn["aa"])),
            ("dr vs per-pixel trajectory_window gather",
             att.trajectory_attention(s, self.ring, self.attn["dr"]).data.data,
             oracle_trajectory(x, self.ring, self.attn["dr"], mv.geometry)),
            ("air (unit scores, strides 1) vs dense all-view attention",
             att.air_attention(s, unit, att.AirConfig(tau=1, rho=1),
                               self.attn["air"]).data.data,
             oracle_air_dense(x, self.attn["air"])),
            ("rg scans vs selective_scan_sequential",
             mv.scan.rapid_glance(s, self.ssm).data.data,
             oracle_rapid_glance(x, self.ssm, mv.scan)),
        ]
        out = []
        for name, got, want in cases:
            err = float(np.max(np.abs(got - want)))
            out.append((name, err <= ORACLE_TOL, f"max abs err {err:.1e}"))
        return out

    def timings(self):
        """Median isolated forward and forward+backward time per operator, ms."""
        T = self.mv.tensor.Tensor
        g = T(self.grad_out)
        out = {}
        for name, fn in self.forward_fns().items():
            def fwd():
                fn(T(self.x))

            def fwdbwd():
                xt = T(self.x, requires_grad=True)
                (fn(xt) * g).sum().backward()

            out[name] = {"iso_fwd_ms": _time(fwd), "fwdbwd_ms": _time(fwdbwd)}
        return out

    def trajectory_cold_ms(self, clear_caches):
        """First trajectory_attention call after the per-shape caches are emptied."""
        att, T = self.mv.attention, self.mv.tensor.Tensor
        times = []
        for _ in range(3):
            clear_caches()
            t0 = clock()
            att.trajectory_attention(self.stack(T(self.x)), self.ring, self.attn["dr"])
            times.append((clock() - t0) * 1e3)
        return median(times)


def _time(fn):
    fn()
    times = []
    stop = clock() + BUDGET_S
    while len(times) < REPEATS and (len(times) < 3 or clock() < stop):
        t0 = clock()
        fn()
        times.append((clock() - t0) * 1e3)
    return median(times)


def recurrence_sweep(kernel, seed):
    """Time the linear-recurrence kernel at fixed width over L = 256..16384.

    Returns ({L: ms}, ok): the shortest length is also checked bit for bit
    against a plain Python loop.
    """
    rng = np.random.default_rng(seed)
    out = {}
    ok = True
    for L in SWEEP:
        a = rng.uniform(0.0, 1.0, (L, SWEEP_WIDTH))
        u = rng.standard_normal((L, SWEEP_WIDTH))
        if L == SWEEP[0]:
            h = np.zeros(SWEEP_WIDTH)
            ref = np.empty_like(u)
            for t in range(L):
                h = a[t] * h + u[t]
                ref[t] = h
            ok = np.array_equal(kernel.linrec_array(a, u), ref)
        out[L] = _time(lambda: kernel.linrec_array(a, u))
    return out, ok


def graph_nodes(out):
    """Nodes with a backward closure reachable from `out` through parents."""
    seen, stack, count = set(), [out], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if getattr(node, "_backward", None) is not None:
            count += 1
        stack.extend(getattr(node, "_parents", ()))
    return count
