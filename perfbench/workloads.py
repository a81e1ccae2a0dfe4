"""The three workloads: set-up, the measured loop, and the correctness checks.

Every workload uses scene 0 on a 12-view ring with ModelConfig defaults
(C=16, one block). `--seed` picks the model initialisation, the sampling
seeds and the probes of the checks. The training RNG (timesteps, noise and
the 2D-mode and null-text coins) is seeded with TRAIN_RNG_SEED on every
run, so every run trains on the same mix of 2D and full-stack steps.
"""

from __future__ import annotations

import contextlib
import math
import os
import resource
import time

import numpy as np

from stats import Tally, median, tail_percentile

SCENE = 0
TRAIN_RNG_SEED = 0
VIEWS = 12
FULL = "aa+dr+rg+air"
GUIDANCE = 7.5
DDIM_STEPS = 50
SETUP_TRAIN_STEPS = 8    # short training that makes the sample checkpoint
MIN_TRAIN_STEPS = 100    # so the loss trend and the p90 rest on enough steps
SETUP_EVERY_S = 2.0      # set-ups repeat between operations at this interval
REPRO_STEPS = 20
FD_STEP = 1e-4
FD_RTOL = 1e-6
DDIM_TOL = 1e-10

WORKLOADS = {
    "train-full": {"kind": "train", "res": 32, "stack": FULL},
    "train-aa": {"kind": "train", "res": 32, "stack": "aa"},
    "sample-full": {"kind": "sample", "res": 32, "stack": FULL, "sample_seeds": 3},
}

clock = time.perf_counter


class _TimeUp(Exception):
    """Raised from train_loop's on_log hook to end the measured window."""


def stack_flags(stack):
    tokens = stack.split("+")
    return {f"enable_{t}": t in tokens for t in ("aa", "dr", "rg", "air")}


def clear_caches(mv):
    """Empty mvring's lazy caches so each set-up pays for building them."""
    for mod in (mv.attention, mv.geometry, mv.scan, mv.tensor, mv.denoiser):
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def training_batch(mv, rset, prompt):
    dn = mv.denoiser
    enc = dn.ToyTextEncoder()
    return {"z0": dn.encode_images(rset.images),
            "text": enc.embed_prompt(dn.prompt_template(prompt)),
            "null": enc.null, "prompt": prompt}


def set_up_once(mv, wl, seed, workdir, rep):
    """Render, write and read the dataset, build the model (and, for the
    sample workloads, train briefly, save and reload the checkpoint)."""
    dn, dat = mv.denoiser, mv.data
    res = wl["res"]
    ring = mv.geometry.ViewRing(f=VIEWS, W=res, H=res)
    scene = dat.make_scene(SCENE)
    dpath = os.path.join(workdir, f"dataset{rep}")
    dat.save_dataset(dat.render_views(scene, ring), dpath, seed=SCENE)
    rset, manifest = dat.load_dataset(dpath)
    config = dn.ModelConfig(
        f=manifest["f"], latent_h=manifest["H"] // dn.LATENT_FACTOR,
        latent_w=manifest["W"] // dn.LATENT_FACTOR,
        elevation_deg=manifest["elevation_deg"], distance=manifest["distance"],
        **stack_flags(wl["stack"]))
    model = dn.MvDenoiser(config, seed=seed)
    batch = training_batch(mv, rset, scene.prompt)
    if wl["kind"] == "sample":
        dn.train_loop(batch, model, seed=TRAIN_RNG_SEED, max_steps=SETUP_TRAIN_STEPS,
                      log_every=SETUP_TRAIN_STEPS)
        cpath = os.path.join(workdir, f"checkpoint{rep}")
        dn.save_checkpoint(model, cpath, step=SETUP_TRAIN_STEPS,
                           extra={"prompt": scene.prompt})
        model, _ = dn.load_checkpoint(cpath)
    # one forward fills the lazy per-shape caches (the dr window plan)
    model.denoise(batch["z0"], model.sched.T // 2, batch["text"])
    return {"rset": rset, "model": model, "batch": batch, "config": config}


class SetUps:
    """Timed set-ups: one before the measured loop, then one between
    operations whenever SETUP_EVERY_S has passed since the last.

    The machine's speed drifts over tens of seconds, so set-ups made one
    after another at process start all see the same second of it. Spread
    through the run, their median averages over the same drift as the
    throughput metrics. The measured loop starts them only after it has
    read peak RSS, so that reading covers the same work on every run.
    Traced spans made during a set-up are tagged as set-up, not operation.
    """

    def __init__(self, mv, wl, seed, workdir, tracer=None):
        self.mv, self.wl, self.seed, self.workdir = mv, wl, seed, workdir
        self.tracer = tracer
        self.times = []
        self.due = 0.0

    def run(self):
        """Set up once, timed; returns the new environment."""
        clear_caches(self.mv)
        with self.tracer.outside_ops() if self.tracer else contextlib.nullcontext():
            t0 = clock()
            env = set_up_once(self.mv, self.wl, self.seed, self.workdir, len(self.times))
            self.times.append(clock() - t0)
        self.due = clock() + SETUP_EVERY_S
        return env

    def between_ops(self):
        """Set up again, discarding the result, if one is due."""
        if clock() >= self.due:
            self.run()


# -- train workloads ----------------------------------------------------------------


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_train(mv, env, seconds, setups, tracer=None):
    """Run train_loop with no early stop until `seconds` have passed.

    Each step (training_step plus Adam.step) is timed by the on_log hook,
    called at every step; the hook's own work, set-ups included, falls
    between steps and is not timed. Peak memory is read after
    MIN_TRAIN_STEPS steps, so it covers the same work however long the run is.
    """
    dn = mv.denoiser
    step_ms, losses, rss = [], [], []
    tally = Tally()
    deadline = clock() + seconds
    last = 0.0

    def on_log(step, loss, ma):
        nonlocal last
        now = clock()
        step_ms.append((now - last) * 1e3)
        losses.append(loss)
        tally.record(True)
        if tracer is not None:
            tracer.next_op()
        if step == MIN_TRAIN_STEPS:
            rss.append(peak_rss_mb())
        if step >= MIN_TRAIN_STEPS:
            if now >= deadline:
                raise _TimeUp
            setups.between_ops()
        last = clock()

    if tracer is not None:
        tracer.next_op()
    last = clock()
    try:
        dn.train_loop(env["batch"], env["model"], seed=TRAIN_RNG_SEED, max_steps=10 ** 9,
                      log_every=1, on_log=on_log)
    except _TimeUp:
        pass
    except dn.TrainingDiverged as exc:
        print(f"operation failed: {exc}")
        tally.record(False)
    modes = step_modes(env, len(step_ms))
    return {"tally": tally, "losses": losses, "op_ms": step_ms, "step_ms": step_ms,
            "p50_ms": [t for t, m in zip(step_ms, modes) if not m], "modes": modes,
            "wall_s": sum(step_ms) / 1e3,
            "peak_rss_mb": rss[0] if rss else peak_rss_mb()}


def _loss_at(mv, env, rng_state):
    """training_step's loss and gradients for a fixed draw of its RNG."""
    rng = np.random.default_rng()
    rng.bit_generator.state = rng_state
    model = env["model"]
    return mv.denoiser.training_step(env["batch"], model, model.sched, rng)


def training_draws(env, seed):
    """Yield (rng state before, mode_2d, drop) for successive training_step calls.

    Replays training_step's documented draw order: timestep, noise, the
    2D-mode coin, the null-text coin.
    """
    cfg = env["model"].config
    T = env["model"].sched.T
    shape = env["batch"]["z0"].shape
    rng = np.random.default_rng(seed)
    while True:
        state = rng.bit_generator.state
        rng.integers(1, T + 1)
        rng.standard_normal(shape)
        mode_2d = bool(rng.random() < cfg.p_2d)
        drop = bool(rng.random() < cfg.p_drop)
        yield state, mode_2d, drop


def step_modes(env, n):
    """The 2D-mode coin of the first n steps of every measured training run."""
    draws = training_draws(env, TRAIN_RNG_SEED)
    return [next(draws)[1] for _ in range(n)]


def check_train(mv, env, wl, seed, result):
    """Independent checks of a finished training run; returns (name, ok, note)."""
    dn = mv.denoiser
    losses = result["losses"]
    checks = [("every step's loss is finite",
               bool(losses) and all(math.isfinite(x) for x in losses), "")]
    first, last = float(np.mean(losses[:50])), float(np.mean(losses[-50:]))
    checks.append(("last 50-step loss average below the first",
                   last < first, f"{first:.4f} -> {last:.4f}"))

    # central difference of the loss along a random unit parameter direction
    params = env["model"].params()
    state = next(st for st, mode_2d, drop in training_draws(env, seed + 7919)
                 if not mode_2d and not drop)
    drng = np.random.default_rng(seed + 104729)
    dirs = [drng.standard_normal(p.data.shape) for p in params]
    norm = math.sqrt(sum(float((d * d).sum()) for d in dirs))
    dirs = [d / norm for d in dirs]
    _loss_at(mv, env, state)
    directional = sum(float((p.grad_array() * d).sum()) for p, d in zip(params, dirs))
    base = [p.data for p in params]
    lossed = []
    for sign in (1.0, -1.0):
        for p, b, d in zip(params, base, dirs):
            p.data = b + sign * FD_STEP * d
        lossed.append(_loss_at(mv, env, state))
    for p, b in zip(params, base):
        p.data = b
    fd = (lossed[0] - lossed[1]) / (2 * FD_STEP)
    rel = abs(fd - directional) / max(abs(directional), 1e-300)
    checks.append(("finite difference matches <grad L, d>", rel <= FD_RTOL,
                   f"rel err {rel:.2e} (tol {FD_RTOL:g})"))

    # rerun the first steps from the same seeds: losses must repeat bit for bit
    fresh = dn.MvDenoiser(env["config"], seed=seed)
    again = []
    dn.train_loop(env["batch"], fresh, seed=TRAIN_RNG_SEED, max_steps=REPRO_STEPS,
                  log_every=1, on_log=lambda s, loss, ma: again.append(loss))
    n = min(REPRO_STEPS, len(losses))
    checks.append((f"first {n} losses reproduce bit for bit",
                   again[:n] == losses[:n], ""))
    return checks


# -- sample workloads ---------------------------------------------------------------


def sample_seeds(wl, seed):
    return [seed * 100 + j for j in range(wl["sample_seeds"])]


def measure_sample(mv, env, wl, seed, seconds, workdir, setups, tracer=None):
    """Draw CFG DDIM samples until `seconds` have passed.

    Sampling seeds cycle, so every seed after the first round is a re-sample
    whose latents must match the first draw bit for bit. One operation is a
    sample plus decode, the PPM and latents.mvt writes and both scores.
    Set-ups run between samples, after the first, and are not timed as
    part of them.
    """
    dn, met = mv.denoiser, mv.metrics
    model, batch, rset = env["model"], env["batch"], env["rset"]
    gt = dn.decode_latents(dn.encode_images(rset.images))
    seeds = sample_seeds(wl, seed)
    stamps = []
    real_step = dn.ddim_step

    def timed_step(*args, **kwargs):
        out = real_step(*args, **kwargs)
        stamps.append(clock())
        return out

    tally = Tally()
    ops, op_ms, step_ms = [], [], []
    deadline = clock() + seconds
    dn.ddim_step = timed_step
    try:
        while True:
            k = len(ops)
            s = seeds[k % len(seeds)]
            if tracer is not None:
                tracer.next_op()
            out_dir = os.path.join(workdir, f"sample{k:03d}")
            stamps.clear()
            t0 = clock()
            z = dn.ddim_sample(model, batch["text"], batch["null"],
                               steps=DDIM_STEPS, guidance=GUIDANCE, seed=s)
            images = dn.decode_latents(z)
            os.makedirs(out_dir, exist_ok=True)
            for i in range(images.shape[0]):
                met.write_ppm(os.path.join(out_dir, f"view_{i:02d}.ppm"), images[i])
            mv.tensor.save_mvt(os.path.join(out_dir, "latents.mvt"), z)
            cons = met.consistency_metric(images, rset)
            psnr = met.psnr(images, gt)
            t1 = clock()
            op_ms.append((t1 - t0) * 1e3)
            step_ms.extend(np.diff([t0] + stamps) * 1e3)
            tally.record(True)
            if not ops:
                rss = peak_rss_mb()
            ops.append({"seed": s, "z": z, "images": images, "dir": out_dir,
                        "consistency": cons, "psnr": psnr})
            if t1 >= deadline and len(ops) > len(seeds):
                break
            setups.between_ops()
    finally:
        dn.ddim_step = real_step
    return {"tally": tally, "ops": ops, "op_ms": op_ms, "step_ms": step_ms,
            "p50_ms": op_ms,
            "wall_s": sum(op_ms) / 1e3, "gt": gt, "peak_rss_mb": rss}


def read_ppm_bytes(path):
    """Parse a binary P6 PPM written with maxval 255 into a uint8 array."""
    with open(path, "rb") as fh:
        raw = fh.read()
    parts = raw.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P6" or parts[2] != b"255":
        raise ValueError(f"{path}: unexpected PPM header")
    w, h = (int(v) for v in parts[1].split())
    body = np.frombuffer(parts[3], dtype=np.uint8)
    if body.size != w * h * 3:
        raise ValueError(f"{path}: {body.size} bytes for {w}x{h}x3")
    return body.reshape(h, w, 3)


def _ddim_two_steps_numpy(model, batch, z):
    """Two-step CFG DDIM recomputed from separate denoise calls."""
    T = model.sched.T
    betas = np.linspace(1e-4, 0.02, T)
    ab = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
    ts = np.round(np.linspace(0, T, 3)).astype(np.int64)[::-1]
    for t_from, t_to in zip(ts[:-1], ts[1:]):
        eps_c = model.denoise(z, int(t_from), batch["text"]).data
        eps_u = model.denoise(z, int(t_from), batch["null"]).data
        eps = eps_u + GUIDANCE * (eps_c - eps_u)
        z0 = (z - np.sqrt(1.0 - ab[t_from]) * eps) / np.sqrt(ab[t_from])
        z = np.sqrt(ab[t_to]) * z0 + np.sqrt(1.0 - ab[t_to]) * eps
    return z, ab


def check_sample(mv, env, wl, seed, result):
    dn, met = mv.denoiser, mv.metrics
    model, batch, rset = env["model"], env["batch"], env["rset"]
    ops = result["ops"]
    n_seeds = wl["sample_seeds"]
    checks = [("latents are finite",
               all(np.isfinite(op["z"]).all() for op in ops), "")]
    repeats = [(op, ops[k - n_seeds]) for k, op in enumerate(ops) if k >= n_seeds]
    checks.append(("re-sampled seeds give bit-identical latents",
                   bool(repeats) and all(np.array_equal(a["z"], b["z"])
                                         for a, b in repeats),
                   f"{len(repeats)} re-samples"))

    z = np.random.default_rng(seed * 100 + 99).standard_normal(ops[0]["z"].shape)
    got = dn.ddim_sample(model, batch["text"], batch["null"], steps=2,
                         guidance=GUIDANCE, z_init=z)
    want, ab = _ddim_two_steps_numpy(model, batch, z)
    err = float(np.max(np.abs(got - want)))
    sched_err = float(np.max(np.abs(model.sched.alpha_bar - ab)))
    checks.append(("DDIM steps match the numpy recomputation",
                   err <= DDIM_TOL and sched_err <= 1e-15,
                   f"max abs err {err:.1e}"))

    ppm_ok = mvt_ok = True
    for op in ops:
        want_q = np.floor(np.clip(op["images"], 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
        for i in range(want_q.shape[0]):
            got_q = read_ppm_bytes(os.path.join(op["dir"], f"view_{i:02d}.ppm"))
            ppm_ok &= np.array_equal(got_q, want_q[i])
        with open(os.path.join(op["dir"], "latents.mvt"), "rb") as fh:
            mvt_ok &= fh.read().endswith(np.ascontiguousarray(op["z"], "<f8").tobytes())
    checks.append(("written PPMs equal floor(clip(x)*255+0.5)", ppm_ok, ""))
    checks.append(("latents.mvt holds the sampled latents", mvt_ok, ""))

    psnr_err = 0.0
    for op in ops:
        mse = float(np.mean((op["images"] - result["gt"]) ** 2))
        mine = 99.0 if mse < 1e-10 else min(10.0 * math.log10(1.0 / mse), 99.0)
        psnr_err = max(psnr_err, abs(mine - op["psnr"]))
    checks.append(("PSNR matches the numpy recomputation", psnr_err <= 1e-9,
                   f"max diff {psnr_err:.1e}"))
    gt_cons = met.consistency_metric(rset.images, rset)
    checks.append(("ground-truth views score exactly 0 consistency",
                   gt_cons == 0.0, f"{gt_cons!r}"))
    return checks


# -- end-to-end metrics --------------------------------------------------------------


def end_to_end(result, setup_times):
    """The metrics a user sees; the same names on every workload.

    On the train workloads the p50 is taken over the steps that run the
    cross-view operators. Over all steps it falls on the lower shoulder of
    that group (2D-mode steps are ~36% of them) and jumped by a third
    between runs.
    """
    n = len(result["op_ms"])
    p90 = tail_percentile(result["step_ms"], 90)
    if p90 is None:
        raise RuntimeError(f"only {len(result['step_ms'])} step times: too few "
                           "for a p90 with ten samples beyond it")
    return {
        "setup_s": (median(setup_times), "s"),
        "ops_per_s": (n / result["wall_s"], "1/s"),
        "op_p50_ms": (median(result["p50_ms"]), "ms"),
        "step_p90_ms": (p90, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
