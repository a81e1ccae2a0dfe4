"""The three cross-view attention operators.

* adjacent_attention: each view's queries attend over the key/value tokens of
  itself and its two ring neighbours.
* trajectory_attention: per-pixel attention over 3x3 windows in neighbouring
  views, centred at the rotation-predicted column.
* air_attention: all-view attention over score-weighted, average-pooled
  feature maps with a coarser key/value stride, upsampled back bilinearly.

All operators are residual-free: they return the projected attention output
with the input's shape, and the caller decides how to mix it back in. Each
takes a stack of B rings, [B*f, C, H, W], reads f from the stack's ring and
mixes views within a ring only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import LatentStack, ViewRing, delta_azimuth, trajectory_window
from .tensor import (Tensor, avg_pool2d, bilinear_upsample2d, concat, matmul,
                     scatter_plan, softmax, take_rows)

__all__ = [
    "AttentionParams",
    "ScoreMapper",
    "AirConfig",
    "sdpa",
    "adjacent_attention",
    "trajectory_attention",
    "score_map",
    "air_attention",
]

_MASK_OFF = -1e30  # additive logit bias that zeroes a key after softmax


@dataclass
class AttentionParams:
    """Q/K/V/O projections shared across space and view, with channel heads."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    n_heads: int = 1

    def __post_init__(self):
        c = self.w_q.shape[1]
        if c % self.n_heads:
            raise ValueError(f"{self.n_heads} heads do not divide dim {c}")

    @property
    def channels(self):
        return self.w_q.shape[0]

    def tensors(self):
        return [self.w_q, self.w_k, self.w_v, self.w_o]

    @classmethod
    def init(cls, tape, prefix, channels, n_heads=1, kv_dim=None, out_scale=None,
             seed=None):
        """Xavier-ish Q/K/V; the output projection starts at zero unless
        `out_scale` sets a (small) random magnitude.

        `seed` re-seeds the Q/K/V draw so several operators can share one
        starting point; `kv_dim` sets a different key/value input dim.
        """
        kv = kv_dim or channels
        rng = np.random.default_rng(seed) if seed is not None else tape.rng
        sq = 1.0 / np.sqrt(channels)
        sk = 1.0 / np.sqrt(kv)
        return cls(
            w_q=tape.param(f"{prefix}.w_q", rng.standard_normal((channels, channels)) * sq),
            w_k=tape.param(f"{prefix}.w_k", rng.standard_normal((kv, channels)) * sk),
            w_v=tape.param(f"{prefix}.w_v", rng.standard_normal((kv, channels)) * sk),
            w_o=(tape.zeros(f"{prefix}.w_o", (channels, channels)) if out_scale is None
                 else tape.param(f"{prefix}.w_o",
                                 rng.standard_normal((channels, channels))
                                 * (out_scale * sq))),
            n_heads=n_heads,
        )


def sdpa(q, k, v, bias=None):
    """softmax(q k^T / sqrt(d)) v over the last two axes.

    q is [..., n, d]; k and v are [..., m, d] with matching batch dims, or
    2-D [m, d] shared across the batch. `bias` is an additive logit array
    (0 keeps a key, large negative removes it).
    """
    d = q.shape[-1]
    if k.shape[-1] != d or v.shape[-1] != d or k.shape[:-1] != v.shape[:-1]:
        raise ValueError(f"sdpa shape mismatch: q{q.shape} k{k.shape} v{v.shape}")
    logits = matmul(q, k.swap_last2()) * (1.0 / np.sqrt(d))
    if bias is not None:
        logits = logits + Tensor(np.asarray(bias, dtype=logits.dtype))
    return matmul(softmax(logits, axis=-1), v)


def _split_heads(t, n_heads):
    """[B, n, C] -> [B*heads, n, C/heads]."""
    b, n, c = t.shape
    return t.reshape(b, n, n_heads, c // n_heads).transpose((0, 2, 1, 3)) \
            .reshape(b * n_heads, n, c // n_heads)


def _merge_heads(t, n_heads):
    bh, n, dh = t.shape
    b = bh // n_heads
    return t.reshape(b, n_heads, n, dh).transpose((0, 2, 1, 3)).reshape(b, n, n_heads * dh)


def _mha(q, k, v, n_heads, bias=None):
    """Multi-head sdpa over [B, n, C] queries and [B, m, C] keys/values."""
    if n_heads == 1:
        return sdpa(q, k, v, bias)
    qh = _split_heads(q, n_heads)
    kh = _split_heads(k, n_heads)
    vh = _split_heads(v, n_heads)
    if bias is not None:
        bias = np.repeat(np.asarray(bias), n_heads, axis=0)
    return _merge_heads(sdpa(qh, kh, vh, bias), n_heads)


def _to_tokens(x):
    """[n, C, H, W] -> [n, H*W, C]."""
    n, c, h, w = x.shape
    return x.transpose((0, 2, 3, 1)).reshape(n, h * w, c)


def _to_maps(tokens, h, w):
    """[n, H*W, C] -> [n, C, H, W]."""
    n, hw, c = tokens.shape
    return tokens.reshape(n, h, w, c).transpose((0, 3, 1, 2))


def _check_channels(stack, params):
    if params.channels != stack.channels:
        raise ValueError(f"params built for {params.channels} channels, "
                         f"stack has {stack.channels}")


def adjacent_attention(stack: LatentStack, params: AttentionParams) -> LatentStack:
    """Attend each view's queries over keys/values of [prev, self, next].

    Neighbours are cyclic within each ring; with f=1 all three slots are the
    view itself, which renormalizes to plain self-attention.
    """
    _check_channels(stack, params)
    n, c, h, w = stack.data.shape
    f, b = stack.f, stack.rings
    tokens = _to_tokens(stack.data)
    q = matmul(tokens, params.w_q)
    k = matmul(tokens, params.w_k)
    v = matmul(tokens, params.w_v)

    def ring_window(t):
        t = t.reshape(b, f, h * w, c)
        prev = concat([t[:, f - 1:], t[:, :f - 1]], axis=1) if f > 1 else t
        nxt = concat([t[:, 1:], t[:, :1]], axis=1) if f > 1 else t
        return concat([prev, t, nxt], axis=2).reshape(n, 3 * h * w, c)

    out = matmul(_mha(q, ring_window(k), ring_window(v), params.n_heads),
                 params.w_o)
    return stack.with_data(_to_maps(out, h, w))


@lru_cache(maxsize=32)
def _trajectory_indices(f, h, w):
    """Per-pixel gather indices and logit bias for the 27-slot key window.

    Slots 0..8 look into view i-1 at the window predicted by the backward
    azimuth step, slots 9..17 are the pixel's own 3x3 neighbourhood, slots
    18..26 look into view i+1. Padded slots carry a -1e30 bias.
    """
    ring = ViewRing(f=f, W=w, H=h)
    deltas = (delta_azimuth(ring, 0, (f - 1) % f), 0.0,
              delta_azimuth(ring, 0, 1 % f))
    offsets = (-1, 0, 1)
    hw = h * w
    spat = np.zeros((hw, 27), dtype=np.int64)
    bias = np.full((hw, 27), _MASK_OFF)
    for y in range(h):
        for x in range(w):
            p = y * w + x
            for s, delta in enumerate(deltas):
                win = trajectory_window(x, y, delta, w, h)
                for j, (cc, rr) in enumerate(win):
                    spat[p, 9 * s + j] = rr * w + cc
                    bias[p, 9 * s + j] = 0.0
    view_off = np.repeat(np.array(offsets, dtype=np.int64), 9)
    idx = ((np.arange(f)[:, None, None] + view_off[None, None, :]) % f) * hw \
        + spat[None, :, :]
    idx = idx.reshape(f * hw, 27)
    bias_b = np.ascontiguousarray(
        np.broadcast_to(bias[None, :, None, :], (f, hw, 1, 27))
        .reshape(f * hw, 1, 27))
    return idx, bias_b, scatter_plan(idx)


@lru_cache(maxsize=32)
def _ring_trajectory_indices(b, f, h, w):
    """_trajectory_indices for B rings: ring r's rows are offset by r*f*H*W."""
    idx, bias_b, plan = _trajectory_indices(f, h, w)
    if b == 1:
        return idx, bias_b, plan
    idx = (idx[None] + (np.arange(b) * idx.shape[0])[:, None, None]) \
        .reshape(b * idx.shape[0], idx.shape[1])
    return idx, np.concatenate([bias_b] * b), scatter_plan(idx)


def trajectory_attention(stack: LatentStack, ring: ViewRing,
                         params: AttentionParams) -> LatentStack:
    """Per-pixel attention over rotation-predicted 3x3 windows.

    Each pixel attends over at most 27 keys: the predicted window in the
    previous view, its own neighbourhood, and the predicted window in the
    next view of its ring.
    """
    _check_channels(stack, params)
    n, c, h, w = stack.data.shape
    if (ring.H, ring.W) != (h, w) or n % ring.f:
        raise ValueError(f"ring {ring.f}x{ring.H}x{ring.W} does not match "
                         f"stack {n}x{h}x{w}")
    hw = h * w
    idx, bias_b, plan = _ring_trajectory_indices(n // ring.f, ring.f, h, w)
    tokens = _to_tokens(stack.data)
    q = matmul(tokens, params.w_q).reshape(n * hw, 1, c)
    k = matmul(tokens, params.w_k).reshape(n * hw, c)
    v = matmul(tokens, params.w_v).reshape(n * hw, c)
    kk = take_rows(k, idx, plan=plan)
    vv = take_rows(v, idx, plan=plan)
    out = _mha(q, kk, vv, params.n_heads, bias_b)
    out = matmul(out.reshape(n, hw, c), params.w_o)
    return stack.with_data(_to_maps(out, h, w))


@dataclass
class ScoreMapper:
    """2-layer MLP scoring each position's relevance to the prompt, in (0,1)."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @property
    def in_dim(self):
        return self.w1.shape[0]

    def tensors(self):
        return [self.w1, self.b1, self.w2, self.b2]

    @classmethod
    def init(cls, tape, prefix, channels, text_dim, hidden=None):
        hidden = hidden or max(channels, 8)
        s = 1.0 / np.sqrt(channels + text_dim)
        return cls(
            w1=tape.normal(f"{prefix}.w1", (channels + text_dim, hidden), s),
            b1=tape.zeros(f"{prefix}.b1", (hidden,)),
            w2=tape.normal(f"{prefix}.w2", (hidden, 1), 1.0 / np.sqrt(hidden)),
            b2=tape.zeros(f"{prefix}.b2", (1,)),
        )


def score_map(stack: LatentStack, text_emb, mapper: ScoreMapper) -> Tensor:
    """Sigmoid relevance of every position to its ring's prompt, [B*f,1,H,W].

    `text_emb` is one embedding [text_dim], or one per ring [B, text_dim].
    """
    n, c, h, w = stack.data.shape
    e = text_emb.data if isinstance(text_emb, Tensor) else np.asarray(text_emb)
    if e.ndim not in (1, 2) or c + e.shape[-1] != mapper.in_dim \
            or e.reshape(-1, e.shape[-1]).shape[0] != stack.rings:
        raise ValueError(f"mapper expects dim {mapper.in_dim} and one embedding "
                         f"per ring, got {c} channels + {e.shape} embedding "
                         f"for {stack.rings} ring(s)")
    hw = h * w
    d = e.shape[-1]
    tokens = _to_tokens(stack.data)
    per_view = np.broadcast_to(e.astype(stack.data.dtype).reshape(-1, 1, 1, d),
                               (stack.rings, stack.f, hw, d))
    text = Tensor(per_view.reshape(n, hw, d))
    hid = (matmul(concat([tokens, text], axis=2), mapper.w1) + mapper.b1).silu()
    s = (matmul(hid, mapper.w2) + mapper.b2).sigmoid()
    return _to_maps(s, h, w)


@dataclass(frozen=True)
class AirConfig:
    """Pooling strides: tau for queries, rho >= tau for keys/values."""

    tau: int = 2
    rho: int = 4

    def __post_init__(self):
        if self.tau < 1 or self.rho < self.tau:
            raise ValueError(f"need 1 <= tau <= rho, got tau={self.tau} rho={self.rho}")


def air_attention(stack: LatentStack, scores: Tensor, cfg: AirConfig,
                  params: AttentionParams) -> LatentStack:
    """All-view attention over score-scaled pooled maps, upsampled back.

    Queries keep a finer stride (tau) than keys/values (rho). Each view's
    pooled queries attend over the concatenation of the pooled keys/values
    of every view in its ring; the result is projected and bilinearly
    upsampled to the input resolution.
    """
    _check_channels(stack, params)
    n, c, h, w = stack.data.shape
    f, b = stack.f, stack.rings
    if scores.shape != (n, 1, h, w):
        raise ValueError(f"scores must be [n,1,H,W]={n, 1, h, w}, got {scores.shape}")
    if h % cfg.tau or w % cfg.tau or h % cfg.rho or w % cfg.rho:
        raise ValueError(f"strides {cfg.tau},{cfg.rho} must divide {h}x{w}")
    tokens = _to_tokens(stack.data)
    q_maps = _to_maps(matmul(tokens, params.w_q), h, w)
    k_maps = _to_maps(matmul(tokens, params.w_k), h, w)
    v_maps = _to_maps(matmul(tokens, params.w_v), h, w)
    q_pool = avg_pool2d(scores * q_maps, cfg.tau)
    k_pool = avg_pool2d(scores * k_maps, cfg.rho)
    v_pool = avg_pool2d(scores * v_maps, cfg.rho)
    nq = (h // cfg.tau) * (w // cfg.tau)
    nk = (h // cfg.rho) * (w // cfg.rho)
    q_tok = _to_tokens(q_pool).reshape(b, f * nq, c)
    k_tok = _to_tokens(k_pool).reshape(b, f * nk, c)
    v_tok = _to_tokens(v_pool).reshape(b, f * nk, c)
    out = _mha(q_tok, k_tok, v_tok, params.n_heads).reshape(n, nq, c)
    out = matmul(out, params.w_o)
    return stack.with_data(
        bilinear_upsample2d(_to_maps(out, h // cfg.tau, w // cfg.tau), cfg.tau))
