"""Deterministic synthetic multiview dataset.

Seeded scenes of coloured boxes and spheres inside the unit bounding box are
rendered orthographically from a ring of cameras. Because the projection is
orthographic and the ring rotates about the vertical axis, exact ground-truth
pixel correspondences between views follow from re-projecting each pixel's
surface point, which makes the rotation-window math directly testable.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .geometry import ViewRing, is_int
from .tensor import MvtError, load_mvt, save_mvt

__all__ = [
    "PALETTE",
    "BACKGROUND",
    "ORTHO_SPAN",
    "Primitive",
    "SceneSpec",
    "RenderedSet",
    "Correspondence",
    "DatasetError",
    "ManifestError",
    "ShapeMismatchError",
    "make_scene",
    "render_views",
    "ground_truth_correspondence",
    "view_basis",
    "save_dataset",
    "load_dataset",
]

PALETTE = {
    "red": (0.85, 0.15, 0.15),
    "green": (0.15, 0.70, 0.20),
    "blue": (0.15, 0.25, 0.85),
    "yellow": (0.90, 0.85, 0.10),
    "cyan": (0.10, 0.80, 0.80),
    "magenta": (0.80, 0.15, 0.80),
    "orange": (0.95, 0.55, 0.10),
    "white": (0.95, 0.95, 0.95),
}
BACKGROUND = (0.20, 0.20, 0.20)
# world-unit width of the orthographic window; [-0.5, 0.5]^3 fits at any angle
ORTHO_SPAN = 2.0
DEPTH_TOL_PX = 0.5     # depth agreement that makes a reprojected pixel visible

MANIFEST_VERSION = 2
MANIFEST_NAME = "manifest.json"
IMAGES_NAME = "images.mvt"
DEPTHS_NAME = "depths.mvt"


class DatasetError(Exception):
    """Base class for dataset load/save failures."""


class ManifestError(DatasetError):
    """Missing, unparsable or wrong-version manifest."""


class ShapeMismatchError(DatasetError):
    """Manifest and tensor contents disagree about shapes or counts."""


@dataclass(frozen=True)
class Primitive:
    kind: str            # "box" | "sphere"
    center: tuple        # world xyz
    size: tuple          # box half-extents xyz; spheres use (r, r, r)
    color: str


@dataclass(frozen=True)
class SceneSpec:
    seed: int
    primitives: tuple

    @property
    def prompt(self):
        return " and ".join(f"a {p.color} {p.kind}" for p in self.primitives)


def make_scene(seed) -> SceneSpec:
    """1..4 seeded primitives, each guaranteed inside [-0.5, 0.5]^3."""
    rng = np.random.default_rng(seed)
    names = sorted(PALETTE)
    prims = []
    for _ in range(int(rng.integers(1, 5))):
        kind = "box" if rng.integers(2) == 0 else "sphere"
        if kind == "box":
            half = rng.uniform(0.12, 0.30, size=3)
        else:
            half = np.full(3, rng.uniform(0.12, 0.30))
        center = rng.uniform(-1.0, 1.0, size=3) * (0.5 - half)
        color = names[int(rng.integers(len(names)))]
        prims.append(Primitive(kind=kind, center=tuple(center.tolist()),
                               size=tuple(half.tolist()), color=color))
    return SceneSpec(seed=int(seed), primitives=tuple(prims))


@dataclass
class RenderedSet:
    """Per-view images [f,H,W,3] in [0,1] and signed pixel-unit depth maps.

    Depth is measured along each camera's viewing direction, zero on the
    vertical plane through the origin; background pixels hold +inf.
    """

    images: np.ndarray
    depths: np.ndarray
    ring: ViewRing


def view_basis(azimuth_deg, elevation_deg=0.0):
    """Orthonormal (right, up, forward) camera axes for a ring position."""
    a = np.radians(azimuth_deg)
    e = np.radians(elevation_deg)
    forward = -np.array([np.cos(e) * np.cos(a), np.sin(e), np.cos(e) * np.sin(a)])
    right = np.array([np.sin(a), 0.0, -np.cos(a)])
    up = np.cross(right, forward)
    return right, up, forward


def _pixels_per_world(ring):
    return ring.W / ORTHO_SPAN


def _ray_grid(ring, i):
    """Per-pixel ray origins on the axis plane plus the shared direction."""
    right, up, fwd = view_basis(ring.azimuth_deg(i), ring.elevation_deg)
    ppw = _pixels_per_world(ring)
    us = (np.arange(ring.W) + 0.5 - ring.W / 2.0) / ppw
    vs = (ring.H / 2.0 - (np.arange(ring.H) + 0.5)) / ppw
    origins = vs[:, None, None] * up[None, None, :] + us[None, :, None] * right[None, None, :]
    return origins, fwd, ppw


def _intersect_sphere(origins, fwd, center, radius):
    oc = origins - center
    b = oc @ fwd
    disc = b * b - ((oc * oc).sum(-1) - radius * radius)
    hit = disc >= 0.0
    s = np.where(hit, -b - np.sqrt(np.where(hit, disc, 0.0)), np.inf)
    return s


def _intersect_box(origins, fwd, lo, hi):
    d = np.where(np.abs(fwd) < 1e-15, 1e-15, fwd)
    t1 = (lo - origins) / d
    t2 = (hi - origins) / d
    tmin = np.minimum(t1, t2).max(-1)
    tmax = np.maximum(t1, t2).min(-1)
    hit = tmin <= tmax
    return np.where(hit, tmin, np.inf)


def render_views(scene: SceneSpec, ring: ViewRing) -> RenderedSet:
    """Orthographic z-buffer render of every ring view; bitwise deterministic."""
    f, H, W = ring.f, ring.H, ring.W
    images = np.empty((f, H, W, 3), dtype=np.float64)
    depths = np.empty((f, H, W), dtype=np.float64)
    for i in range(f):
        origins, fwd, ppw = _ray_grid(ring, i)
        best = np.full((H, W), np.inf)
        color = np.tile(np.array(BACKGROUND), (H, W, 1))
        for prim in scene.primitives:
            c = np.asarray(prim.center)
            if prim.kind == "sphere":
                s = _intersect_sphere(origins, fwd, c, prim.size[0])
            else:
                half = np.asarray(prim.size)
                s = _intersect_box(origins, fwd, c - half, c + half)
            nearer = s < best
            best = np.where(nearer, s, best)
            color = np.where(nearer[..., None], np.array(PALETTE[prim.color]), color)
        images[i] = color
        depths[i] = np.where(np.isfinite(best), best * ppw, np.inf)
    return RenderedSet(images=images, depths=depths, ring=ring)


@dataclass
class Correspondence:
    """Per-pixel map from view i into view j; invalid where there is none."""

    cols: np.ndarray    # [H, W] target column
    rows: np.ndarray    # [H, W] target row
    valid: np.ndarray   # [H, W] bool


def ground_truth_correspondence(rset: RenderedSet, i, j) -> Correspondence:
    """Re-project view i's surface points into view j and occlusion-test them.

    A pixel maps validly when its surface point lands in bounds on a
    foreground pixel of view j whose stored depth agrees within
    DEPTH_TOL_PX pixel units.
    """
    ring = rset.ring
    H, W = ring.H, ring.W
    origins, fwd_i, ppw = _ray_grid(ring, i)
    d_px = rset.depths[i]
    fg = np.isfinite(d_px)
    s = np.where(fg, d_px, 0.0) / ppw
    points = origins + s[..., None] * fwd_i

    right_j, up_j, fwd_j = view_basis(ring.azimuth_deg(j), ring.elevation_deg)
    u = points @ right_j
    v = points @ up_j
    cols = np.floor(u * ppw + W / 2.0).astype(np.int64)
    rows = np.floor(H / 2.0 - v * ppw).astype(np.int64)
    inb = fg & (cols >= 0) & (cols < W) & (rows >= 0) & (rows < H)
    cc = np.clip(cols, 0, W - 1)
    rr = np.clip(rows, 0, H - 1)
    tgt_depth = rset.depths[j][rr, cc]
    proj_depth = (points @ fwd_j) * ppw
    visible = inb & np.isfinite(tgt_depth) & \
        (np.abs(proj_depth - tgt_depth) <= DEPTH_TOL_PX)
    return Correspondence(cols=cols, rows=rows, valid=visible)


# -- dataset directory IO -----------------------------------------------------


def save_dataset(rset: RenderedSet, path, seed):
    """Write manifest.json, images.mvt [f, H, W, 3] and depths.mvt [f, H, W]."""
    os.makedirs(path, exist_ok=True)
    save_mvt(os.path.join(path, IMAGES_NAME), rset.images)
    save_mvt(os.path.join(path, DEPTHS_NAME), rset.depths)
    write_manifest(os.path.join(path, MANIFEST_NAME), {
        "version": MANIFEST_VERSION, **asdict(rset.ring), "seed": int(seed)})


def write_manifest(path, payload):
    """JSON with one-space indent and sorted keys, newline-terminated."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_manifest(path, error):
    """The JSON object in `path`. A missing file, text that is not JSON or
    JSON that is not an object raises `error`."""
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError as exc:
        raise error(f"missing manifest {path}") from exc
    except ValueError as exc:   # JSONDecodeError, or bytes that are not UTF-8
        raise error(f"unparsable manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise error(f"manifest {path} is not a JSON object")
    return manifest


def read_mvt(path, error):
    """load_mvt as float64, whatever the file's dtype code, raising `error`
    for a missing or malformed file."""
    try:
        return load_mvt(path).astype(np.float64, copy=False)
    except FileNotFoundError as exc:
        raise error(f"missing tensor file {path}") from exc
    except MvtError as exc:
        raise error(str(exc)) from exc


def load_dataset(path):
    """Read a dataset directory back; returns (RenderedSet, manifest dict)."""
    manifest = read_manifest(os.path.join(path, MANIFEST_NAME), ManifestError)
    version = manifest.get("version")
    if not is_int(version) or version != MANIFEST_VERSION:
        raise ManifestError(f"manifest version {version!r} "
                            f"unsupported (want {MANIFEST_VERSION})")
    seed = manifest.get("seed")
    if not (is_int(seed) and seed >= 0):
        raise ManifestError(f"manifest seed must be an integer >= 0, got {seed!r}")
    try:
        ring = ViewRing(**{fld.name: manifest[fld.name] for fld in fields(ViewRing)})
    except KeyError as exc:
        raise ManifestError(f"manifest missing field {exc}") from exc
    except ValueError as exc:
        raise ManifestError(f"manifest does not describe a ring: {exc}") from exc
    views = (ring.f, ring.H, ring.W)
    arrays = []
    for name, shape in ((IMAGES_NAME, (*views, 3)), (DEPTHS_NAME, views)):
        apath = os.path.join(path, name)
        arr = read_mvt(apath, DatasetError)
        if arr.shape != shape:
            raise ShapeMismatchError(
                f"{apath}: shape {arr.shape}, manifest says {shape}")
        arrays.append(arr)
    images, depths = arrays
    # NaN fails both value tests; +inf is the background depth
    if not ((images >= 0.0) & (images <= 1.0)).all():
        raise DatasetError(f"{path}: {IMAGES_NAME} holds values not in [0, 1]")
    if not (depths > -np.inf).all():
        raise DatasetError(f"{path}: {DEPTHS_NAME} holds NaN or -inf depths")
    return RenderedSet(images=images, depths=depths, ring=ring), manifest
