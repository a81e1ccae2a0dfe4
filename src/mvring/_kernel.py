"""Backend selection for the linear-recurrence hot loop.

The compiled Cython kernel is used when importable; otherwise a numpy loop
runs, one step per row of the sequence, writing h[l] = a[l] * h[l-1] + u[l]
in place into the output row (a multiply, then an add). Both backends, and
every chunk size, produce bit-identical results: chunking only batches the
work, the per-element multiply/add order never changes. Callers look
`linrec_array` up on this module at call time, so a wrapper set here sees
every call. Set MVRING_SCAN_BACKEND=python|compiled to force a backend.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from . import _scanloop as _compiled
except ImportError:
    _compiled = None

_FORCE = os.environ.get("MVRING_SCAN_BACKEND", "auto")
if _FORCE == "compiled" and _compiled is None:
    raise ImportError(
        "MVRING_SCAN_BACKEND=compiled but the extension is not built; "
        "run `python setup.py build_ext --inplace`")


def backend_name():
    if _FORCE == "python" or _compiled is None:
        return "python"
    return "compiled"


def _linrec_chunk_python(a, u, h0, out):
    h = h0
    for a_l, u_l, o_l in zip(a, u, out):
        np.multiply(a_l, h, out=o_l)
        np.add(o_l, u_l, out=o_l)
        h = o_l


def linrec_python(a, u):
    """Pure-numpy reference recurrence over [L, ...] arrays."""
    out = np.empty_like(u)
    _linrec_chunk_python(a, u, np.zeros_like(u[:1])[0], out)
    return out


def linrec_array(a, u, chunk=None):
    """h[l] = a[l] * h[l-1] + u[l] over axis 0 of [L, ...] arrays, h[-1] = 0.

    `chunk` splits the sequence into pieces whose boundary state is carried
    over; results are bit-identical for every chunk size.
    """
    shape = u.shape
    L = shape[0]
    a2 = np.ascontiguousarray(a.reshape(L, -1))
    u2 = np.ascontiguousarray(u.reshape(L, -1))
    out = np.empty_like(u2)
    h = np.zeros_like(u2[0]) if L else np.zeros((0,), dtype=u2.dtype)
    compiled = backend_name() == "compiled"
    if compiled:
        kern = _compiled.linrec_f64 if u2.dtype == np.float64 else (
            _compiled.linrec_f32 if u2.dtype == np.float32 else None)
        if kern is None:
            compiled = False
    step = L if not chunk else int(chunk)
    if step < 1:
        raise ValueError(f"chunk size must be >= 1, got {chunk}")
    for lo in range(0, L, step):
        hi = min(lo + step, L)
        if compiled:
            kern(a2[lo:hi], u2[lo:hi], h, out[lo:hi])
            h = out[hi - 1]
        else:
            _linrec_chunk_python(a2[lo:hi], u2[lo:hi], h, out[lo:hi])
            h = out[hi - 1]
    return out.reshape(shape)
