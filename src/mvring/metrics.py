"""Cross-view consistency and reconstruction metrics, plus PPM output."""

from __future__ import annotations

import numpy as np

from .data import RenderedSet, ground_truth_correspondence

__all__ = [
    "consistency_metric",
    "adjacent_pairs",
    "psnr",
    "write_ppm",
]

PSNR_CAP_DB = 99.0


def adjacent_pairs(f):
    """Ordered ring-neighbour view pairs (i, i+1)."""
    return [(i, (i + 1) % f) for i in range(f)]


def consistency_metric(images, reference: RenderedSet):
    """Mean RGB distance between corresponded pixels of adjacent views.

    `images` is any [f, H, W, 3] stack rendered or sampled on the reference
    set's camera ring; correspondences and validity come from the reference
    geometry. Returns the mean over ring pairs of the per-pair mean Euclidean
    RGB distance; lower is more consistent.
    """
    images = np.asarray(images)
    f = reference.ring.f
    if images.shape != reference.images.shape:
        raise ValueError(f"images {images.shape} do not match the reference "
                         f"set {reference.images.shape}")
    per_pair = []
    for i, j in adjacent_pairs(f):
        corr = ground_truth_correspondence(reference, i, j)
        ys, xs = np.nonzero(corr.valid)
        if ys.size == 0:
            continue
        src = images[i][ys, xs]
        dst = images[j][corr.rows[ys, xs], corr.cols[ys, xs]]
        per_pair.append(float(np.linalg.norm(src - dst, axis=1).mean()))
    if not per_pair:
        raise ValueError("no valid correspondences between any adjacent pair")
    return float(np.mean(per_pair))


def psnr(a, b):
    """10 log10(1 / MSE) for [0,1] images, capped at 99 dB for near-zero MSE."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"psnr shape mismatch: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse < 1e-10:
        return PSNR_CAP_DB
    return float(min(10.0 * np.log10(1.0 / mse), PSNR_CAP_DB))


def write_ppm(path, image):
    """Binary P6 dump of one [H, W, 3] image in [0, 1]."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected [H, W, 3], got {img.shape}")
    h, w, _ = img.shape
    quantized = np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quantized.tobytes())
