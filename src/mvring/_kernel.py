"""The linear-recurrence hot loop.

A numpy loop runs one step per row of the sequence, writing
h[l] = a[l] * h[l-1] + u[l] in place into the output row (a multiply, then
an add). Callers look `linrec_array` up on this module at call time, so a
wrapper set here sees every call.
"""

from __future__ import annotations

import numpy as np


def linrec_array(a, u):
    """h[l] = a[l] * h[l-1] + u[l] over axis 0 of [L, ...] arrays, h[-1] = 0."""
    shape = u.shape
    L = shape[0]
    a2 = np.ascontiguousarray(a.reshape(L, -1))
    u2 = np.ascontiguousarray(u.reshape(L, -1))
    out = np.empty_like(u2)
    h = np.zeros_like(u2[0])
    for a_l, u_l, o_l in zip(a2, u2, out):
        np.multiply(a_l, h, out=o_l)
        np.add(o_l, u_l, out=o_l)
        h = o_l
    return out.reshape(shape)
