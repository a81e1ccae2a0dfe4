"""In-memory span recorder that wraps mvring's public functions.

Each wrapper is installed under the name its caller looks the function up
by: `denoiser` imports the operators by name, so they are patched on the
`denoiser` module; `tensor.linear_recurrence` imports `linrec_array` from
`_kernel` at call time, so the kernel is patched on `_kernel`; methods are
patched on their class. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from stats import self_times


class Tracer:
    """Records (name, start, end, parent, op) spans for one run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.attrs = {}
        self._stack = []
        self.op = -1

    def next_op(self):
        """Mark the start of the next measured operation."""
        self.op += 1

    @contextmanager
    def outside_ops(self):
        """Tag the spans recorded inside as set-up (op -1), then resume."""
        op, self.op = self.op, -1
        try:
            yield
        finally:
            self.op = op

    def wrap(self, name, fn, attr=None):
        """`fn` recording one span per call; `attr(args, kwargs)` tags it."""
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ops.append(self.op)
            self.starts.append(0.0)
            self.ends.append(0.0)
            if attr is not None:
                self.attrs[idx] = attr(args, kwargs)
            self._stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self.starts[idx] = start
                self._stack.pop()

        return traced

    def self_times(self):
        return self_times(list(zip(self.starts, self.ends, self.parents)))

    def dump(self, path):
        """Write the spans as JSON lines (one object per span)."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "run": self.run_id, "span": i, "name": name,
                    "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "op": self.ops[i],
                    **({"attrs": self.attrs[i]} if i in self.attrs else {}),
                }) + "\n")


def _mode_2d(args, kwargs):
    return {"mode_2d": bool(kwargs.get("mode_2d", False))}


def targets(mv):
    """(owner, attribute, span name, attr fn) for every traced function.

    `mv` is a namespace holding the imported mvring modules.
    """
    dn, tensor, kernel = mv.denoiser, mv.tensor, mv.kernel
    return [
        (dn.MvDenoiser, "denoise", "denoiser.denoise", _mode_2d),
        (dn, "res_block", "denoiser.res_block", None),
        (dn, "cross_attention", "denoiser.cross_attention", None),
        (dn, "adjacent_attention", "attention.adjacent", None),
        (dn, "trajectory_attention", "attention.trajectory", None),
        (dn, "rapid_glance", "scan.rapid_glance", None),
        (dn, "score_map", "attention.score_map", None),
        (dn, "air_attention", "attention.air", None),
        (dn, "training_step", "denoiser.training_step", None),
        (dn.Adam, "step", "denoiser.adam", None),
        (dn, "ddim_sample", "denoiser.ddim_sample", None),
        (tensor.Tensor, "backward", "tensor.backward", None),
        (kernel, "linrec_array", "kernel.linrec", None),
        (mv.data, "render_views", "data.render_views", None),
        (mv.data, "save_dataset", "data.save_dataset", None),
        (mv.data, "load_dataset", "data.load_dataset", None),
        (mv.metrics, "consistency_metric", "metrics.consistency", None),
        (mv.metrics, "write_ppm", "metrics.write_ppm", None),
    ]


@contextmanager
def installed(tracer, mv):
    """Patch every target that exists with a span wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, name, tag in targets(mv):
            fn = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if fn is None:
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn, tag))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
