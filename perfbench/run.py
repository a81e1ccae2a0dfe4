#!/usr/bin/env python3
"""mvring benchmark: training and CFG sampling throughput on three ring workloads.

    python3 perfbench/run.py --workload train-full --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

One workload runs in this process. `--trace 0` measures the end-to-end
metrics with nothing wrapped except a timestamp hook on `ddim_step`;
`--trace 1` wraps mvring's public functions, records spans and reports the
per-layer metrics, plus isolated operator timings checked against oracles.
`--workload all` runs every workload, untraced and traced, each in its own
process, and prints one summary per workload. The last line of output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

The program is imported from `src/` next to this directory and nowhere else.
Scratch files go to `.bench_run/` in the checkout and are removed at exit;
a traced run leaves its spans in `.bench_run/traces/<run id>.jsonl`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NAMES = ("train-full", "train-aa", "sample-full")
WIDE_RES = 64  # ring of the wide isolated timings: 16x16 latents
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3   # mallopt parameters, glibc malloc.h
MMAP_THRESHOLD = 32 * 1024 * 1024   # the most glibc raises it to on 64-bit
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD # the trim threshold glibc pairs with it


def cores():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1


def pin_blas_threads():
    """BLAS threads default to 1 and never exceed the core count."""
    for var in BLAS_VARS:
        raw = os.environ.get(var, "")
        n = int(raw) if raw.isdigit() and int(raw) > 0 else 1
        os.environ[var] = str(min(n, cores()))


def pin_malloc_thresholds():
    """Hold glibc's mmap and trim thresholds where its own raising tops out.

    glibc starts both low (128 KiB) and raises them at run time whenever a
    mapped chunk above the mmap threshold is freed: to that chunk's size and
    twice that. The order of those frees differs from process to process,
    and so does where the thresholds settle: train-aa settled at either
    ~360 or ~2300 minor page faults per step, and at either ~85 or ~55
    steps/s. Held at the ceiling of that raising, every process keeps its
    arrays on the heap (~3 faults per train-aa step), so runs differ by the
    machine's speed only. Returns the setting, for the machine record.
    """
    try:
        libc = ctypes.CDLL(None)
        ok = (libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
              and libc.mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)
    except (OSError, AttributeError):
        ok = False
    return f"mmap threshold {MMAP_THRESHOLD} B, trim threshold {TRIM_THRESHOLD} B" \
        if ok else "libc default (no mallopt)"


def import_mvring():
    """Import mvring from this checkout's src/ or stop with exit code 2."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import mvring
        from mvring import (_kernel, attention, data, denoiser, geometry,
                            metrics, scan, tensor)
    except ImportError as exc:
        print(f"cannot import mvring from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if not os.path.abspath(mvring.__file__).startswith(src + os.sep):
        print(f"mvring resolved to {mvring.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return types.SimpleNamespace(kernel=_kernel, attention=attention, data=data,
                                 denoiser=denoiser, geometry=geometry,
                                 metrics=metrics, scan=scan, tensor=tensor)


def machine(mv, malloc):
    import numpy as np

    backend = getattr(mv.kernel, "backend_name", lambda: "python")()
    return {"cores": cores(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
            "scan_backend": backend, "malloc": malloc,
            "MV_TEST_DETERMINISTIC": os.environ.get("MV_TEST_DETERMINISTIC", ""),
            "platform": platform.platform()}


def run_workload(args):
    malloc = pin_malloc_thresholds()
    pin_blas_threads()
    mv = import_mvring()
    import spans
    import workloads as W

    wl = W.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    info = machine(mv, malloc)
    print("machine " + json.dumps(info, sort_keys=True))
    tracer = spans.Tracer(f"{args.workload}-s{args.seed}-{os.getpid()}") \
        if args.trace else None
    try:
        with spans.installed(tracer, mv) if tracer else contextlib.nullcontext():
            setups = W.SetUps(mv, wl, args.seed, workdir, tracer)
            env = setups.run()
            if wl["kind"] == "train":
                result = W.measure_train(mv, env, args.seconds, setups, tracer)
            else:
                result = W.measure_sample(mv, env, wl, args.seed, args.seconds,
                                          workdir, setups, tracer)
            setup_times = setups.times
        check = W.check_train if wl["kind"] == "train" else W.check_sample
        checks = check(mv, env, wl, args.seed, result)
        if tracer is not None:
            metrics, extra = per_layer(mv, W, wl, args, env, result, tracer, setup_times)
            checks += extra
            traces = os.path.join(ROOT, ".bench_run", "traces")
            os.makedirs(traces, exist_ok=True)
            tracer.dump(os.path.join(traces, f"{tracer.run_id}.jsonl"))
        else:
            metrics = W.end_to_end(result, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["tally"].check(timed=len(result["op_ms"]))
    return report(args, info, result["tally"], checks, metrics)


def per_layer(mv, W, wl, args, env, result, tracer, setup_times):
    """Per-layer metrics from the spans plus isolated timings at the workload's shapes."""
    import layers
    from stats import median

    n_ops = len(result["op_ms"])
    selfs = tracer.self_times()
    durs = [e - s for s, e in zip(tracer.starts, tracer.ends)]

    def per_op(names, values):
        return sum(v for v, nm, op in zip(values, tracer.names, tracer.ops)
                   if nm in names and op >= 0) / n_ops * 1e3

    def per_setup(names):
        return sum(d for d, nm, op in zip(durs, tracer.names, tracer.ops)
                   if nm in names and op < 0) / len(setup_times) * 1e3

    def max_calls(name):
        counts = {}
        for nm, op in zip(tracer.names, tracer.ops):
            if nm == name and op >= 0:
                counts[op] = counts.get(op, 0) + 1
        return max(counts.values(), default=0)

    denoise = [i for i, nm in enumerate(tracer.names)
               if nm == "denoiser.denoise" and tracer.ops[i] >= 0]
    cross_view = [durs[i] * 1e3 for i in denoise if not tracer.attrs[i]["mode_2d"]]
    checks = []
    if "modes" in result:
        traced = [tracer.attrs[i]["mode_2d"] for i in denoise]
        checks.append(("replayed 2D-mode coins match the traced denoise calls",
                       traced == result["modes"], f"{sum(traced)} of {len(traced)} 2D"))
    m = {
        "tensor.backward_ms": (per_op({"tensor.backward"}, durs), "ms"),
        "kernel.linrec_calls": (max_calls("kernel.linrec"), "count"),
        "kernel.linrec_ms": (per_op({"kernel.linrec"}, durs), "ms"),
        "scan.rapid_glance_fwd_ms": (per_op({"scan.rapid_glance"}, selfs), "ms"),
        "attention.adjacent_fwd_ms": (per_op({"attention.adjacent"}, selfs), "ms"),
        "attention.trajectory_fwd_ms": (per_op({"attention.trajectory"}, selfs), "ms"),
        "attention.air_fwd_ms":
            (per_op({"attention.air", "attention.score_map"}, selfs), "ms"),
        "denoiser.denoise_calls": (max_calls("denoiser.denoise"), "count"),
        "denoiser.denoise_ms": (median(cross_view) if cross_view else 0.0, "ms"),
        "denoiser.res_block_fwd_ms": (per_op({"denoiser.res_block"}, selfs), "ms"),
        "denoiser.cross_attention_fwd_ms":
            (per_op({"denoiser.cross_attention"}, selfs), "ms"),
        "denoiser.adam_ms": (per_op({"denoiser.adam"}, durs), "ms"),
        "denoiser.sampler_self_ms": (per_op({"denoiser.ddim_sample"}, selfs), "ms"),
        "data.render_views_ms": (per_setup({"data.render_views"}), "ms"),
        "data.dataset_io_ms":
            (per_setup({"data.save_dataset", "data.load_dataset"}), "ms"),
        "metrics.consistency_ms": (per_op({"metrics.consistency"}, durs), "ms"),
        "metrics.ppm_write_ms": (per_op({"metrics.write_ppm"}, durs), "ms"),
        "trace.op_p50_ms": (median(result["p50_ms"]), "ms"),
        "trace.spans_per_op": (sum(1 for op in tracer.ops if op >= 0) / n_ops, "count"),
    }

    model, batch = env["model"], env["batch"]
    probe = model.denoise(batch["z0"], model.sched.T // 2, batch["text"])
    m["tensor.graph_nodes"] = (layers.graph_nodes(probe), "count")

    ops = layers.Operators(mv, wl["res"] // 4, wl["res"] // 4, args.seed)
    checks += ops.check_oracles()
    for name, t in ops.timings().items():
        m[f"{name}_iso_fwd_ms"] = (t["iso_fwd_ms"], "ms")
        m[f"{name}_fwdbwd_ms"] = (t["fwdbwd_ms"], "ms")
    m["attention.trajectory_cold_ms"] = (
        ops.trajectory_cold_ms(lambda: W.clear_caches(mv)), "ms")
    # the same operators at 16x16 latents, where arithmetic outweighs call overhead
    wide = layers.Operators(mv, WIDE_RES // 4, WIDE_RES // 4, args.seed)
    checks += [(f"{name} at 16x16", ok, note) for name, ok, note in wide.check_oracles()]
    for name, t in wide.timings().items():
        m[f"{name}_wide_iso_fwd_ms"] = (t["iso_fwd_ms"], "ms")
        m[f"{name}_wide_fwdbwd_ms"] = (t["fwdbwd_ms"], "ms")
    sweep, sweep_ok = layers.recurrence_sweep(mv.kernel, args.seed)
    checks.append(("recurrence kernel equals a plain loop at L=256", sweep_ok, ""))
    for L, ms in sweep.items():
        m[f"kernel.linrec_L{L}_ms"] = (ms, "ms")
    return m, checks


def report(args, info, tally, checks, metrics):
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  scan backend {info['scan_backend']}")
    for name, ok, note in checks:
        print(f"  check {'PASS' if ok else 'FAIL'}  {name}" + (f"  ({note})" if note else ""))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name} = {value:.6g} {unit}")
    correct = all(ok for _, ok, _ in checks)
    out = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
           "metrics": {k: {"value": float(v), "unit": u}
                       for k, (v, u) in sorted(metrics.items())}}
    print(json.dumps(out))
    return 0


def run_all(args):
    """Each workload in its own process, untraced then traced; one summary each."""
    summary = {}
    status = 0
    for name in NAMES:
        per = {}
        for trace, key in ((0, "untraced"), (1, "traced")):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                status = 1
                continue
            per[key] = json.loads(lines[-1])
            status |= not per[key]["correct"]
        if len(per) == 2:
            plain = per["untraced"]["metrics"]["op_p50_ms"]["value"]
            traced = per["traced"]["metrics"]["trace.op_p50_ms"]["value"]
            per["trace_overhead_pct"] = (traced / plain - 1.0) * 100.0
            print(f"{name}: tracing overhead on op p50 "
                  f"{per['trace_overhead_pct']:+.1f}%")
        summary[name] = per
    print(json.dumps(summary))
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
