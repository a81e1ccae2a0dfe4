"""Camera ring and the rotation-induced pixel correspondence math.

A ring of cameras at uniform azimuths orbits an object centred at the origin.
Rotating the camera by an angle moves a pixel column along a cosine orbit
plus a depth-dependent shear; the small-angle simplification drops the depth
term and a 3x3 search window absorbs the residual.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .tensor import Tensor

__all__ = [
    "is_int",
    "check_fields",
    "ViewRing",
    "LatentStack",
    "delta_azimuth",
    "project_rotated_x_simplified",
    "trajectory_window",
    "round_half_away",
]


def is_int(v):
    """An integer, Python or numpy, and not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def is_finite_number(v):
    """An integer or a float that converts to a finite float."""
    return (is_int(v) or isinstance(v, (float, np.floating))) \
        and abs(v) <= sys.float_info.max


def check_fields(record):
    """Raise ValueError naming the first field of the dataclass `record` that
    breaks the rule for its annotated type: an int must be an integer >= 1,
    a float a finite number, and a bool a bool. Other fields are the
    record's own to check."""
    for fld in fields(record):
        v = getattr(record, fld.name)
        if fld.type == "int" and not (is_int(v) and v >= 1):
            raise ValueError(f"{fld.name} must be >= 1 and integral, got {v!r}")
        if fld.type == "float" and not is_finite_number(v):
            raise ValueError(f"{fld.name} must be a finite number, got {v!r}")
        if fld.type == "bool" and not isinstance(v, (bool, np.bool_)):
            raise ValueError(f"{fld.name} must be true or false, got {v!r}")


@dataclass(frozen=True)
class ViewRing:
    """f cameras at uniform azimuths on [0, 360), fixed elevation and distance."""

    f: int
    elevation_deg: float = 0.0
    distance: float = 2.0
    W: int = 32
    H: int = 32

    def __post_init__(self):
        check_fields(self)

    def azimuth_deg(self, i):
        if not 0 <= i < self.f:
            raise IndexError(f"view index {i} out of range for f={self.f}")
        return i * 360.0 / self.f


@dataclass
class LatentStack:
    """Per-view latent feature maps plus the camera ring.

    `data` is [B*f, C, H, W]: B rings of f views each, ring-major (views
    b*f .. b*f+f-1 form ring b). A single ring is the B=1 case.
    """

    data: Tensor
    ring: ViewRing

    def __post_init__(self):
        if self.data.ndim != 4:
            raise ValueError(f"latent stack must be 4-d, got {self.data.shape}")
        if not self.data.shape[0] or self.data.shape[0] % self.ring.f:
            raise ValueError(f"stack has {self.data.shape[0]} views, not a "
                             f"whole number of rings of f={self.ring.f}")

    @property
    def f(self):
        return self.ring.f

    @property
    def rings(self):
        return self.data.shape[0] // self.ring.f

    @property
    def channels(self):
        return self.data.shape[1]

    def with_data(self, data):
        return LatentStack(data, self.ring)


def delta_azimuth(ring: ViewRing, i: int, j: int) -> float:
    """Signed minimal azimuth difference from view i to view j, in (-180, 180]."""
    d = ring.azimuth_deg(j) - ring.azimuth_deg(i)
    r = math.fmod(d + 180.0, 360.0)
    if r < 0:
        r += 360.0
    r -= 180.0
    if r == -180.0:
        r = 180.0
    return r


def project_rotated_x_simplified(x, delta_deg, W):
    """Depth-free column prediction: x' = (x - W/2) cos(da) + W/2."""
    da = math.radians(delta_deg)
    return (x - W / 2.0) * math.cos(da) + W / 2.0


def round_half_away(v: float) -> int:
    """Round with ties away from zero (deterministic window centring)."""
    return int(math.floor(v + 0.5)) if v >= 0 else int(math.ceil(v - 0.5))


def trajectory_window(x, y, delta_deg, W, H):
    """3x3 pixel window in the rotated view, centred at the predicted column.

    The centre column is the depth-free prediction rounded half-away-from-zero;
    the row is kept (rotation about the vertical axis leaves rows fixed under
    orthographic projection). Clipped to image bounds; 4..9 pixels survive.
    """
    if not (0 <= x < W and 0 <= y < H):
        raise ValueError(f"pixel ({x},{y}) out of bounds for {W}x{H}")
    cx = round_half_away(project_rotated_x_simplified(x, delta_deg, W))
    cy = y
    cols = [c for c in (cx - 1, cx, cx + 1) if 0 <= c < W]
    rows = [r for r in (cy - 1, cy, cy + 1) if 0 <= r < H]
    return [(c, r) for r in rows for c in cols]
