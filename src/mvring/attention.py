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
                     softmax)

__all__ = [
    "AttentionParams",
    "Mlp2",
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
    """Single-head Q/K/V/O projections shared across space and view."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor

    @property
    def channels(self):
        return self.w_q.shape[0]

    @classmethod
    def init(cls, tape, prefix, channels, *, out_scale, kv_dim=None, seed=None):
        """Xavier-ish Q/K/V and a small random output projection whose scale
        `out_scale` sets.

        `seed` re-seeds the draw so several operators can share one starting
        point; `kv_dim` sets a different key/value input dim.
        """
        kv = kv_dim or channels
        rng = np.random.default_rng(seed) if seed is not None else tape.rng
        sq = 1.0 / np.sqrt(channels)
        sk = 1.0 / np.sqrt(kv)
        return cls(
            w_q=tape.param(f"{prefix}.w_q", rng.standard_normal((channels, channels)) * sq),
            w_k=tape.param(f"{prefix}.w_k", rng.standard_normal((kv, channels)) * sk),
            w_v=tape.param(f"{prefix}.w_v", rng.standard_normal((kv, channels)) * sk),
            w_o=tape.param(f"{prefix}.w_o", rng.standard_normal((channels, channels))
                           * (out_scale * sq)),
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
    logits = matmul(q, k.swap_last2())
    return matmul(softmax(logits, scale=1.0 / np.sqrt(d), bias=bias), v)


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


def _ring_window(t, axis):
    """Concatenate [prev, self, next] of every view of a [B, f, ...] stack
    along `axis`. Neighbours are cyclic within each ring; with f=1 all three
    are the view itself."""
    f = t.shape[1]
    prev = concat([t[:, f - 1:], t[:, :f - 1]], axis=1) if f > 1 else t
    nxt = concat([t[:, 1:], t[:, :1]], axis=1) if f > 1 else t
    return concat([prev, t, nxt], axis=axis)


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
        return _ring_window(t.reshape(b, f, h * w, c), axis=2) \
            .reshape(n, 3 * h * w, c)

    out = matmul(sdpa(q, ring_window(k), ring_window(v)), params.w_o)
    return stack.with_data(_to_maps(out, h, w))


@lru_cache(maxsize=32)
def _trajectory_bias(f, h, w):
    """[H, W, 9W] logit bias over the key band of each latent row.

    Row y's band holds rows y-1, y, y+1 (zeros past the image edge), each as
    views i-1, i, i+1 side by side: key (3*r + s)*W + x' is column x' of row
    y-1+r in view slot s. The bias is 0 on each pixel's trajectory_window in
    its three views and -1e30 everywhere else.
    """
    ring = ViewRing(f=f, W=w, H=h)
    deltas = (delta_azimuth(ring, 0, (f - 1) % f), 0.0,
              delta_azimuth(ring, 0, 1 % f))
    bias = np.full((h, w, 3, 3, w), _MASK_OFF)
    for y in range(h):
        for x in range(w):
            for s, delta in enumerate(deltas):
                for cc, rr in trajectory_window(x, y, delta, w, h):
                    bias[y, x, rr - y + 1, s, cc] = 0.0
    return bias.reshape(h, w, 9 * w)


def trajectory_attention(stack: LatentStack, ring: ViewRing,
                         params: AttentionParams) -> LatentStack:
    """Per-pixel attention over rotation-predicted 3x3 windows.

    Each pixel attends over at most 27 keys: the predicted window in the
    previous view, its own neighbourhood, and the predicted window in the
    next view of its ring. The queries of a latent row attend together over
    one band of 9W tokens (rows y-1..y+1 of views i-1, i, i+1) under a static
    mask that keeps exactly those windows.
    """
    _check_channels(stack, params)
    n, c, h, w = stack.data.shape
    f = ring.f
    if (ring.H, ring.W) != (h, w) or n % f:
        raise ValueError(f"ring {f}x{ring.H}x{ring.W} does not match "
                         f"stack {n}x{h}x{w}")
    tokens = stack.data.transpose((0, 2, 3, 1))                  # [n, H, W, C]
    rows = _ring_window(tokens.reshape(n // f, f, h, w, c), axis=3)  # [B, f, H, 3W, C]
    edge = Tensor(np.zeros(rows.shape[:2] + (1,) + rows.shape[3:]))
    padded = concat([edge, rows, edge], axis=2)
    band = concat([padded[:, :, :h], rows, padded[:, :, 2:]], axis=3) \
        .reshape(n, h, 9 * w, c)                                  # [n, H, 9W, C]
    out = sdpa(matmul(tokens, params.w_q), matmul(band, params.w_k),
               matmul(band, params.w_v), _trajectory_bias(f, h, w))
    return stack.with_data(matmul(out, params.w_o).transpose((0, 3, 1, 2)))


@dataclass
class Mlp2:
    """Linear -> silu -> Linear."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def init(cls, tape, prefix, d_in, d_hidden, d_out):
        return cls(
            w1=tape.normal(f"{prefix}.w1", (d_in, d_hidden), 1.0 / np.sqrt(d_in)),
            b1=tape.zeros(f"{prefix}.b1", (d_hidden,)),
            w2=tape.normal(f"{prefix}.w2", (d_hidden, d_out), 1.0 / np.sqrt(d_hidden)),
            b2=tape.zeros(f"{prefix}.b2", (d_out,)),
        )

    def __call__(self, x):
        return matmul((matmul(x, self.w1) + self.b1).silu(), self.w2) + self.b2


class ScoreMapper(Mlp2):
    """Mlp2 logit of each position's relevance to the prompt; score_map
    squashes it into (0, 1)."""

    @property
    def in_dim(self):
        return self.w1.shape[0]

    @classmethod
    def init(cls, tape, prefix, channels, text_dim):
        return super().init(tape, prefix, channels + text_dim, max(channels, 8), 1)


def score_map(stack: LatentStack, text_emb, mapper: ScoreMapper) -> Tensor:
    """Sigmoid relevance of every position to its ring's prompt, [B*f,1,H,W].

    `text_emb` is one embedding [text_dim], or one per ring [B, text_dim].
    """
    n, c, h, w = stack.data.shape
    e = np.asarray(text_emb)
    if e.ndim not in (1, 2) or c + e.shape[-1] != mapper.in_dim \
            or e.reshape(-1, e.shape[-1]).shape[0] != stack.rings:
        raise ValueError(f"mapper expects dim {mapper.in_dim} and one embedding "
                         f"per ring, got {c} channels + {e.shape} embedding "
                         f"for {stack.rings} ring(s)")
    hw = h * w
    d = e.shape[-1]
    tokens = _to_tokens(stack.data)
    per_view = np.broadcast_to(e.reshape(-1, 1, 1, d),
                               (stack.rings, stack.f, hw, d))
    text = Tensor(per_view.reshape(n, hw, d))
    s = mapper(concat([tokens, text], axis=2)).sigmoid()
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
    out = sdpa(q_tok, k_tok, v_tok).reshape(n, nq, c)
    out = matmul(out, params.w_o)
    return stack.with_data(
        bilinear_upsample2d(_to_maps(out, h // cfg.tau, w // cfg.tau), cfg.tau))
