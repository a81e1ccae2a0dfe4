"""Selective-scan state space operator over spiral-ordered multiview tokens.

Spatial tokens are serialized by an outward spiral from the image centre so
that object content sits in a short sequence window. The views of a ring
are laid out outermost, one contiguous block each, and a diagonal selective
SSM scans the sequence in both view orders; the descending order is the
same layout with the view axis reversed by slicing. Both orders of every
ring in a stack run side by side as one recurrence. After the token
projections, the scan is a single autodiff node,
tensor.selective_recurrence, whose state is laid out [L, M, N, D] with the
channels innermost; its recurrence is one numpy loop over the sequence
(_kernel.linrec_array). build_scan_order spells out the same token order as
an explicit permutation, for reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import LatentStack
from .tensor import Tensor, concat, matmul, selective_recurrence

__all__ = [
    "ScanOrder",
    "SsmParams",
    "spiral_order",
    "row_major_order",
    "build_scan_order",
    "discretize_zoh",
    "selective_scan_sequential",
    "selective_scan",
    "rapid_glance",
    "SCAN_STRATEGIES",
]

SCAN_STRATEGIES = ("spiral-bidirectional", "spatial-first-bidirectional", "row-major")


def spiral_order(H, W):
    """Row-major indices of an outward spiral walk from the grid centre.

    Starts at (floor((H-1)/2), floor((W-1)/2)), walks right, down, left, up
    with leg lengths 1,1,2,2,3,3,... and skips cells outside the grid.
    """
    if H < 1 or W < 1:
        raise ValueError(f"grid extents must be >= 1, got {H}x{W}")
    r, c = (H - 1) // 2, (W - 1) // 2
    order = [r * W + c]
    total = H * W
    moves = ((0, 1), (1, 0), (0, -1), (-1, 0))
    leg, di = 1, 0
    while len(order) < total:
        for _ in range(2):
            dr, dc = moves[di]
            for _ in range(leg):
                r += dr
                c += dc
                if 0 <= r < H and 0 <= c < W:
                    order.append(r * W + c)
                    if len(order) == total:
                        return np.asarray(order, dtype=np.int64)
            di = (di + 1) % 4
        leg += 1
    return np.asarray(order, dtype=np.int64)


def row_major_order(H, W):
    return np.arange(H * W, dtype=np.int64)


def _strategy_order(strategy, H, W):
    """Token order within one H x W view under a scan strategy."""
    if strategy not in SCAN_STRATEGIES:
        raise ValueError(f"unknown scan strategy {strategy!r}; "
                         f"choose one of {SCAN_STRATEGIES}")
    return spiral_order(H, W) if strategy == "spiral-bidirectional" \
        else row_major_order(H, W)


@dataclass(frozen=True)
class ScanOrder:
    """Bijection between (view, row, col) token positions and sequence slots.

    perm[s] is the flat token index (v*H*W + r*W + c) read at sequence slot s.
    Each view's tokens form one contiguous block.
    """

    f: int
    tokens_per_view: int
    perm: np.ndarray

    def reversed_views(self):
        """Same spatial order, view blocks concatenated in descending order."""
        blocks = self.perm.reshape(self.f, self.tokens_per_view)[::-1]
        return ScanOrder(self.f, self.tokens_per_view, blocks.reshape(-1))


def build_scan_order(f, H, W, strategy="spiral-bidirectional"):
    spatial = _strategy_order(strategy, H, W)
    hw = H * W
    perm = (np.arange(f, dtype=np.int64)[:, None] * hw + spatial[None, :]).reshape(-1)
    return ScanOrder(f=f, tokens_per_view=hw, perm=perm)


# -- selective state space model ------------------------------------------------


@dataclass
class SsmParams:
    """Diagonal selective-SSM parameters for channel dim D and state dim N.

    The state matrix is A = -exp(a_log), always negative. Step size, input
    and output projections are affine functions of the token:
    delta = softplus(x @ w_delta + b_delta), B = x @ w_b + b_b,
    C = x @ w_c + b_c.
    """

    a_log: Tensor   # [D, N]
    w_delta: Tensor  # [D, D]
    b_delta: Tensor  # [D]
    w_b: Tensor     # [D, N]
    b_b: Tensor     # [N]
    w_c: Tensor     # [D, N]
    b_c: Tensor     # [N]

    @property
    def d_model(self):
        return self.a_log.shape[0]

    @property
    def d_state(self):
        return self.a_log.shape[1]

    @classmethod
    def init(cls, tape, prefix, d_model, d_state, *, out_scale):
        """Stable default init: A = -(1..N), delta ~ softplus(0) per token.

        The output projection w_c is random at the magnitude `out_scale`
        sets; zeroed, it makes the operator a no-op inside its residual.
        """
        a0 = np.log(np.tile(np.arange(1, d_state + 1, dtype=np.float64),
                            (d_model, 1)))
        scale = 0.05 / np.sqrt(d_model)
        return cls(
            a_log=tape.param(f"{prefix}.a_log", a0),
            w_delta=tape.normal(f"{prefix}.w_delta", (d_model, d_model), scale),
            b_delta=tape.zeros(f"{prefix}.b_delta", (d_model,)),
            w_b=tape.normal(f"{prefix}.w_b", (d_model, d_state), 1.0 / np.sqrt(d_model)),
            b_b=tape.zeros(f"{prefix}.b_b", (d_state,)),
            w_c=tape.normal(f"{prefix}.w_c", (d_model, d_state),
                            out_scale / np.sqrt(d_model)),
            b_c=tape.zeros(f"{prefix}.b_c", (d_state,)),
        )


def discretize_zoh(a_diag, b, delta):
    """Zero-order-hold state decay with Euler input: (exp(delta*a), delta*b)."""
    a_diag = np.asarray(a_diag, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if np.any(delta < 0):
        raise ValueError("step size must be positive")
    return np.exp(delta * a_diag), delta * b


def selective_scan_sequential(x, params: SsmParams):
    """Reference scan: strictly left-to-right token recurrence over the array
    x [L, D], no tape; returns the array y [L, D].

    h_t = exp(delta_t * A) h_{t-1} + (delta_t * x_t) B_t, y_t = h_t C_t.
    """
    x = np.asarray(x, dtype=np.float64)
    L, D = x.shape
    N = params.d_state
    a = -np.exp(params.a_log.data)
    y = np.empty_like(x)
    h = np.zeros((D, N))
    for t in range(L):
        xt = x[t]
        delta_t = np.logaddexp(0.0, xt @ params.w_delta.data + params.b_delta.data)
        b_t = xt @ params.w_b.data + params.b_b.data
        c_t = xt @ params.w_c.data + params.b_c.data
        abar, bbar = discretize_zoh(a, b_t[None, :], delta_t[:, None])
        h = abar * h + bbar * xt[:, None]
        y[t] = h @ c_t
    return y


def selective_scan(x: Tensor, params: SsmParams):
    """Production scan: vectorized coefficients, kernel recurrence, tape-aware.

    `x` is one sequence [L, D], or M independent sequences side by side,
    [L, M, D]; all of them advance in a single recurrence of width M*N*D.
    The token projections (delta, B, C) are matmul nodes; decay, input,
    recurrence and readout are one fused node, tensor.selective_recurrence,
    holding the state as [L, M, N, D]. Matches selective_scan_sequential
    up to vectorization rounding.
    """
    D = x.shape[-1]
    rows = x.reshape(-1, D)                                   # [L*M, D]
    a = -params.a_log.exp()                                   # [D, N]
    delta = (matmul(rows, params.w_delta) + params.b_delta).softplus()  # [L*M, D]
    b = matmul(rows, params.w_b) + params.b_b                 # [L*M, N]
    c = matmul(rows, params.w_c) + params.b_c                 # [L*M, N]
    L, M = x.shape[0], rows.shape[0] // x.shape[0]
    y = selective_recurrence(delta.reshape(L, M, D), (delta * rows).reshape(L, M, D),
                             b.reshape(L, M, -1), c.reshape(L, M, -1), a)
    return y.reshape(x.shape)


def rapid_glance(stack: LatentStack, params: SsmParams,
                 strategy="spiral-bidirectional"):
    """Bidirectional selective scan over each view ring, plus residual.

    Tokens are gathered into the strategy's spatial order within a view by
    indexing with its permutation, then laid out views outermost,
    [f, H*W, B, C]; indexing with the inverse permutation puts them back.
    Pass one scans a ring's views in ascending order; pass two is the same
    layout with the view axis reversed by slicing, so spatial order within
    a view is unchanged. Both passes of every ring in the stack run as one
    selective scan over [L, 2B, C]; the output is the mean of both passes
    added back onto the input. `row-major` runs pass one only.
    """
    n, C, H, W = stack.data.shape
    if params.d_model != C:
        raise ValueError(f"ssm channel dim {params.d_model} != stack channels {C}")
    order = _strategy_order(strategy, H, W)
    b, f, hw = stack.rings, stack.f, H * W
    inverse = np.argsort(order)
    tokens = stack.data.transpose((2, 3, 0, 1)).reshape(hw, b, f, C)
    t = tokens[order].transpose((2, 0, 1, 3))                 # [f, HW, B, C]
    if strategy == "row-major":
        y = selective_scan(t.reshape(f * hw, b, C), params).reshape(f, hw, b, C)
    else:
        seq = concat([t, t[::-1]], axis=2).reshape(f * hw, 2 * b, C)
        y = selective_scan(seq, params).reshape(f, hw, 2, b, C)
        y = (y[:, :, 0] + y[::-1, :, 1]) * 0.5
    back = y.transpose((1, 2, 0, 3))[inverse]
    maps = back.reshape(H, W, n, C).transpose((2, 3, 0, 1))
    return stack.with_data(maps + stack.data)
