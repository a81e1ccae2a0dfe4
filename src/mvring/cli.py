"""Command-line surface: dataset generation, training, sampling, gradient
checks, evaluation and the ablation harness.

Artifacts are byte-deterministic for a fixed seed: CSV rows use a fixed
column schema, images are binary PPM, and run manifests echo the exact
configuration. Exit codes: 0 ok, 2 bad usage/config, 3 I/O or format
errors, 4 violated invariants (diverged training, failed gradient check).
"""

from __future__ import annotations

import argparse
import ctypes
import math
import os
import sys

import numpy as np

from . import data as dat
from . import denoiser as dn
from . import metrics as met
from .geometry import ViewRing
from .tensor import MvtError, grad_check, load_mvt, save_mvt
from .scan import SCAN_STRATEGIES

CSV_HEADER = "run_id,stack,scan_strategy,seed,step,train_loss,consistency,psnr_vs_gt"
STACK_TOKENS = ("aa", "dr", "rg", "air")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INVARIANT = 4

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3     # mallopt parameters, glibc malloc.h
MMAP_THRESHOLD = 32 * 1024 * 1024               # the most glibc raises it to on 64-bit
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _fmt(x):
    if x is None or x == "":
        return ""
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _csv_row(run_id, stack, scan, seed, step="", train_loss="",
             consistency="", psnr_vs_gt=""):
    cells = [run_id, stack, scan, seed, step, train_loss, consistency, psnr_vs_gt]
    return ",".join(_fmt(c) for c in cells)


def _write_csv(path, rows):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(r + "\n")


def parse_stack(text):
    """'aa+dr+rg+air' (or 'none') -> operator enable flags."""
    text = text.strip()
    tokens = [] if text in ("", "none") else text.split("+")
    for t in tokens:
        if t not in STACK_TOKENS:
            raise CliError(f"unknown stack token {t!r}; allowed: "
                           f"{'+'.join(STACK_TOKENS)} or 'none'", EXIT_CONFIG)
    if len(set(tokens)) != len(tokens):
        raise CliError(f"duplicate stack token in {text!r}", EXIT_CONFIG)
    return {f"enable_{t}": (t in tokens) for t in STACK_TOKENS}


def _build_config(manifest, args, stack_flags, scan):
    return dn.ModelConfig(
        f=manifest["f"],
        latent_h=manifest["H"] // dn.LATENT_FACTOR,
        latent_w=manifest["W"] // dn.LATENT_FACTOR,
        channels=args.channels,
        blocks=args.blocks,
        elevation_deg=manifest["elevation_deg"],
        distance=manifest["distance"],
        scan_strategy=scan,
        lr=args.lr,
        **stack_flags,
    )


def _training_batch(rset, manifest, text_dim):
    scene = dat.make_scene(manifest["seed"])
    encoder = dn.ToyTextEncoder(dim=text_dim)
    prompt = dn.prompt_template(scene.prompt)
    return {
        "z0": dn.encode_images(rset.images),
        "text": encoder.embed_prompt(prompt),
        "null": encoder.null,
        "prompt": scene.prompt,
    }


def _scan_strategy(text):
    if text not in SCAN_STRATEGIES:
        raise ValueError(f"unknown scan strategy {text!r}")
    return text


def _seed(text):
    """argparse type of --seed: an integer >= 0, as numpy's generators take."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"want an integer >= 0, got {text!r}")
    return int(text)


def _parse_entries(flag, text, parse):
    """Comma-separated `text` -> {entry: parse(entry)} in order. An empty
    entry, one that `parse` rejects, or one that parses to an earlier
    entry's value exits 2 naming `flag`."""
    out = {}
    for e in map(str.strip, text.split(",")):
        try:
            if not e:
                raise ValueError(f"empty entry in {text!r}")
            value = parse(e)
        except (CliError, ValueError) as exc:
            raise CliError(f"{flag}: {exc}", EXIT_CONFIG) from None
        if value in out.values():
            raise CliError(f"{flag} repeats {e!r}", EXIT_CONFIG)
        out[e] = value
    return out


def _train_one(rset, manifest, args, stack_flags, scan, seed):
    config = _build_config(manifest, args, stack_flags, scan)
    batch = _training_batch(rset, manifest, config.text_dim)
    model = dn.MvDenoiser(config, seed=seed)
    history = dn.train_loop(batch, model, seed=seed, max_steps=args.steps,
                            stop_loss=args.stop_loss, log_every=args.log_every)
    return model, batch, history


def _sample_stack(model, batch, steps, guidance, seed):
    encoder = dn.ToyTextEncoder(dim=model.config.text_dim)
    text = encoder.embed_prompt(dn.prompt_template(batch["prompt"]))
    z = dn.ddim_sample(model, text, encoder.null, steps=steps,
                       guidance=guidance, seed=seed)
    if not np.isfinite(z).all():
        raise CliError(f"the sample at seed {seed} holds non-finite latents "
                       f"(guidance {guidance})", EXIT_INVARIANT)
    return z


def _dump_views(out_dir, z, images):
    os.makedirs(out_dir, exist_ok=True)
    for i in range(images.shape[0]):
        met.write_ppm(os.path.join(out_dir, f"view_{i:02d}.ppm"), images[i])
    save_mvt(os.path.join(out_dir, "latents.mvt"), z)


# -- subcommands -------------------------------------------------------------------


def cmd_gen_data(args):
    if args.views < 2:
        raise CliError(f"need at least 2 views, got {args.views}", EXIT_CONFIG)
    if args.res % dn.LATENT_FACTOR:
        raise CliError(f"image dims {args.res}x{args.res} are not divisible by "
                       f"the latent factor {dn.LATENT_FACTOR}", EXIT_CONFIG)
    if args.elevation == "random":
        elev = float(np.random.default_rng(args.seed).uniform(-30.0, 30.0))
    else:
        try:
            elev = float(args.elevation)
        except ValueError:
            elev = math.nan
        if not math.isfinite(elev):
            raise CliError(f"--elevation must be a finite number of degrees or "
                           f"'random', got {args.elevation!r}", EXIT_CONFIG)
    ring = ViewRing(f=args.views, elevation_deg=elev, distance=2.0,
                    W=args.res, H=args.res)
    scene = dat.make_scene(args.seed)
    rset = dat.render_views(scene, ring)
    dat.save_dataset(rset, args.out, seed=args.seed)
    print(f"wrote {ring.f} views of scene {args.seed} "
          f"({scene.prompt!r}) to {args.out}")
    return EXIT_OK


def cmd_train(args):
    rset, manifest = dat.load_dataset(args.dataset)
    stack_flags = parse_stack(args.stack)
    model, batch, history = _train_one(rset, manifest, args, stack_flags,
                                       args.scan, args.seed)
    stack = model.config.stack
    run_id = f"train__{stack}__{args.scan}__s{args.seed}"
    rows = [_csv_row(run_id, stack, args.scan, args.seed, step=s, train_loss=ma)
            for s, _, ma in history]
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "train_log.csv"), rows)
    dn.save_checkpoint(model, args.out, step=history[-1][0],
                       extra={"dataset_seed": manifest["seed"],
                              "prompt": batch["prompt"],
                              "train_seed": args.seed,
                              "final_loss_ma": history[-1][2]})
    print(f"trained {stack} for {history[-1][0]} steps, "
          f"final smoothed loss {history[-1][2]:.4f}; checkpoint in {args.out}")
    return EXIT_OK


def cmd_sample(args):
    model, manifest = dn.load_checkpoint(args.checkpoint)
    prompt = args.prompt
    if not prompt:
        extra = manifest.get("extra")
        if not isinstance(extra, dict):
            raise CliError(f"checkpoint manifest in {args.checkpoint} has no extra "
                           "object to read the prompt from; pass --prompt", EXIT_IO)
        prompt = extra.get("prompt")
        if prompt is not None and not isinstance(prompt, str):
            raise CliError(f"checkpoint prompt in {args.checkpoint} is not a "
                           f"string: {prompt!r}", EXIT_IO)
    if not prompt:
        raise CliError("checkpoint carries no prompt; pass --prompt", EXIT_CONFIG)
    batch = {"prompt": prompt}
    z = _sample_stack(model, batch, args.steps, args.guidance, args.seed)
    _dump_views(args.out, z, dn.decode_latents(z))
    dat.write_manifest(os.path.join(args.out, "run.json"), {
        "command": "sample",
        "checkpoint": os.path.abspath(args.checkpoint),
        "config": manifest["config"],
        "prompt": prompt,
        "steps": args.steps,
        "guidance": args.guidance,
        "seed": args.seed,
        "malloc": args.malloc,
    })
    print(f"sampled {model.config.f} views ({args.steps} DDIM steps, "
          f"guidance {args.guidance}) into {args.out}")
    return EXIT_OK


def cmd_gradcheck(args):
    if args.max_entries is not None and args.max_entries < 1:
        raise CliError(f"--max-entries must be >= 1, got {args.max_entries}",
                       EXIT_CONFIG)
    if not (math.isfinite(args.eps) and args.eps > 0.0):
        raise CliError(f"--eps must be finite and > 0, got {args.eps}", EXIT_CONFIG)
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise CliError(f"--tol must be finite and >= 0, got {args.tol}", EXIT_CONFIG)
    loss, params = dn.gradcheck_loss(args.seed)
    report = grad_check(loss, params, eps=args.eps, tol=args.tol,
                        max_entries=args.max_entries)
    print(f"gradcheck: {report.n_checked} coordinates, max rel err "
          f"{report.max_rel_err:.3e} (tol {report.tol:g}) -> "
          f"{'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_INVARIANT


def cmd_eval(args):
    rset, _ = dat.load_dataset(args.dataset)
    z = load_mvt(os.path.join(args.samples, "latents.mvt"))
    if z.ndim != 4 or z.shape[1] != dn.LATENT_CHANNELS:
        raise CliError(f"latents.mvt in {args.samples} holds shape {z.shape}, "
                       f"expected [f, {dn.LATENT_CHANNELS}, h, w]", EXIT_IO)
    if not np.isfinite(z).all():
        raise CliError(f"latents.mvt in {args.samples} holds non-finite values",
                       EXIT_IO)
    images = dn.decode_latents(z)
    if images.shape != rset.images.shape:
        raise CliError(f"samples decode to {images.shape}, dataset is "
                       f"{rset.images.shape}", EXIT_CONFIG)
    cons = met.consistency_metric(images, rset)
    p = met.psnr(images, dn.decode_latents(dn.encode_images(rset.images)))
    row = _csv_row("eval", "", "", "", consistency=cons, psnr_vs_gt=p)
    if args.out:
        _write_csv(args.out, [row])
    print(f"consistency {cons:.6f}  psnr_vs_gt {p:.3f} dB")
    return EXIT_OK


def cmd_ablate(args):
    # reject bad sampling flags before training, not after
    dn.check_guidance(args.guidance)
    dn.ddim_timesteps(dn.ModelConfig.T, args.sample_steps)
    stacks = _parse_entries("--stacks", args.stacks, parse_stack)
    scans = list(_parse_entries("--scans", args.scans, _scan_strategy))
    sample_seeds = list(_parse_entries("--sample-seeds", args.sample_seeds,
                                       int).values())
    if min(sample_seeds) < 0:
        raise CliError("--sample-seeds must be integers >= 0", EXIT_CONFIG)
    rset, manifest = dat.load_dataset(args.dataset)
    gt_decoded = dn.decode_latents(dn.encode_images(rset.images))
    rows, views = [], []
    for flags in stacks.values():
        trained = None
        for scan in scans:
            # only rg reads the scan strategy, so an rg-free stack trains once
            if trained is None or flags["enable_rg"]:
                model, batch, history = _train_one(rset, manifest, args, flags,
                                                   scan, args.seed)
                samples = {}
                for s in sample_seeds:
                    z = _sample_stack(model, batch, args.sample_steps,
                                      args.guidance, s)
                    samples[s] = z, dn.decode_latents(z)
                trained = history, samples
            history, samples = trained
            stack = model.config.stack
            run_id = f"{stack}__{scan}__s{args.seed}"
            cons = [met.consistency_metric(im, rset) for _, im in samples.values()]
            psnrs = [met.psnr(im, gt_decoded) for _, im in samples.values()]
            views += [(os.path.join(args.out, run_id, f"seed{s}"), z, im)
                      for s, (z, im) in samples.items()]
            rows.append(_csv_row(run_id, stack, scan, args.seed,
                                 step=history[-1][0], train_loss=history[-1][2],
                                 consistency=float(np.median(cons)),
                                 psnr_vs_gt=float(np.median(psnrs))))
            print(f"{run_id}: steps={history[-1][0]} loss={history[-1][2]:.4f} "
                  f"consistency={np.median(cons):.4f}", flush=True)
    # write nothing until every stack has trained and every sample is finite
    os.makedirs(args.out, exist_ok=True)
    for out_dir, z, images in views:
        _dump_views(out_dir, z, images)
    _write_csv(os.path.join(args.out, "ablation.csv"), rows)
    dat.write_manifest(os.path.join(args.out, "run.json"), {
        "command": "ablate",
        "dataset": os.path.abspath(args.dataset),
        "stacks": list(stacks),
        "scans": scans,
        "seed": args.seed,
        "sample_seeds": sample_seeds,
        "steps": args.steps,
        "stop_loss": args.stop_loss,
        "sample_steps": args.sample_steps,
        "guidance": args.guidance,
        "channels": args.channels,
        "blocks": args.blocks,
        "lr": args.lr,
        "malloc": args.malloc,
    })
    return EXIT_OK


# -- argument surface --------------------------------------------------------------


def _add_train_args(p):
    p.add_argument("--steps", type=int, default=20000,
                   help="max optimisation steps")
    p.add_argument("--stop-loss", type=float, default=0.04,
                   help="early stop once the 50-step loss average dips below")
    p.add_argument("--log-every", type=int, default=200)
    p.add_argument("--channels", type=int, default=16)
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--lr", type=float, default=2e-3)
    p.add_argument("--seed", type=_seed, default=0, help="training seed")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="mvring",
        description="Multiview ring denoiser: synthetic data, training, "
                    "sampling and consistency ablations.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen-data", help="render a seeded multiview dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--views", type=int, default=12)
    p.add_argument("--res", type=int, default=32)
    p.add_argument("--elevation", default="0",
                   help="camera elevation in degrees, or 'random'")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="overfit the denoiser on one dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--stack", default="aa+dr+rg+air")
    p.add_argument("--scan", default="spiral-bidirectional",
                   choices=SCAN_STRATEGIES)
    _add_train_args(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("sample", help="DDIM-sample views from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--guidance", type=float, default=7.5)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--prompt", default=None)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of the miniature model")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--max-entries", type=int, default=None,
                   help="cap checked coordinates per parameter")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("eval", help="score sampled views against a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--out", default=None, help="optional CSV path")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="train/sample/score a stack lattice")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stacks", "--stack", dest="stacks",
                   default="aa,aa+dr+rg+air",
                   help="comma-separated operator stacks")
    p.add_argument("--scans", "--scan", dest="scans",
                   default="spiral-bidirectional",
                   help="comma-separated scan strategies")
    p.add_argument("--sample-steps", type=int, default=50)
    p.add_argument("--guidance", type=float, default=7.5)
    p.add_argument("--sample-seeds", default="0,1,2")
    _add_train_args(p)
    p.set_defaults(fn=cmd_ablate)
    return ap


def pin_malloc_thresholds():
    """Hold glibc's mmap and trim thresholds at 32 and 64 MiB.

    glibc starts both at 128 KiB and raises them whenever a mapped chunk is
    freed, in an order that differs between processes. Where they settle
    low, a training step's larger arrays are mapped and unmapped afresh, or
    the heap top is trimmed and faulted back, at thousands of minor page
    faults per step. Held here, those arrays stay on the heap. Does nothing
    where libc has no mallopt. Returns the setting, for run.json.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        ok = (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
              and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)
    except (OSError, AttributeError, TypeError):
        ok = False
    return f"mmap threshold {MMAP_THRESHOLD} B, trim threshold {TRIM_THRESHOLD} B" \
        if ok else "libc default"


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.malloc = pin_malloc_thresholds()
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (dat.DatasetError, dn.CheckpointError, MvtError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except dn.TrainingDiverged as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
