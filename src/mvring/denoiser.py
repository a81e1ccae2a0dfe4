"""Toy multiview latent diffusion model.

Latents are 4x average-pooled RGB images rescaled to [-1, 1]; there is no
learned autoencoder. The denoiser is a small conv/attention stack applied
per view, with four cross-view operators threaded between the per-view
layers: adjacent attention, trajectory-window attention, the bidirectional
spiral scan, and score-pooled all-view rectification. Text conditioning is
a per-ring shift, the whole of cross-attention onto a one-token prompt.
Training minimizes the usual eps-prediction MSE; sampling is deterministic
DDIM with classifier-free guidance, evaluating both guidance branches in
one call, one ring under two prompts, without recording an autodiff graph.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from dataclasses import asdict, dataclass, fields

import numpy as np

from .attention import (AirConfig, AttentionParams, Mlp2, ScoreMapper,
                        adjacent_attention, air_attention, score_map,
                        trajectory_attention)
from .data import (is_finite_number, is_int, read_manifest, read_mvt,
                   write_manifest)
from .geometry import LatentStack, ViewRing
from .scan import SCAN_STRATEGIES, SsmParams, rapid_glance
from .tensor import (Tape, Tensor, bilinear_upsample2d, concat, conv3x3,
                     layer_norm, matmul, no_grad, save_mvt)

__all__ = [
    "NoiseSchedule",
    "ModelConfig",
    "ToyTextEncoder",
    "MvDenoiser",
    "Adam",
    "TrainingDiverged",
    "CheckpointError",
    "prompt_template",
    "add_noise",
    "ddim_timesteps",
    "ddim_step",
    "ddim_sample",
    "check_guidance",
    "gradcheck_loss",
    "encode_images",
    "decode_latents",
    "latent_ring",
    "training_step",
    "train_loop",
    "save_checkpoint",
    "load_checkpoint",
]

LATENT_CHANNELS = 3
LATENT_FACTOR = 4
OPERATOR_OUT_SCALE = 0.15


class TrainingDiverged(RuntimeError):
    """The training loss became non-finite (gradients are not checked)."""


class CheckpointError(RuntimeError):
    """Checkpoint directory is missing pieces or disagrees with its config."""


# -- schedule -------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseSchedule:
    """Cumulative signal coefficients alpha_bar[0..T], alpha_bar[0] = 1."""

    alpha_bar: np.ndarray

    def __post_init__(self):
        ab = self.alpha_bar
        if ab[0] != 1.0 or np.any(np.diff(ab) >= 0) or np.any(ab <= 0) or np.any(ab > 1):
            raise ValueError("alpha_bar must start at 1 and strictly decrease in (0,1]")

    @property
    def T(self):
        return len(self.alpha_bar) - 1

    @classmethod
    def linear(cls, T=1000, beta_start=1e-4, beta_end=0.02):
        betas = np.linspace(beta_start, beta_end, T)
        ab = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
        return cls(alpha_bar=ab)


def add_noise(z0, t, eps, sched: NoiseSchedule):
    """z_t = sqrt(ab_t) z0 + sqrt(1 - ab_t) eps."""
    z0 = np.asarray(z0)
    eps = np.asarray(eps)
    if z0.shape != eps.shape:
        raise ValueError(f"shape mismatch: z0 {z0.shape} vs eps {eps.shape}")
    if not 0 <= t <= sched.T:
        raise ValueError(f"t={t} outside schedule [0, {sched.T}]")
    ab = sched.alpha_bar[t]
    return np.sqrt(ab) * z0 + np.sqrt(1.0 - ab) * eps


# -- text -----------------------------------------------------------------------


def prompt_template(prompt: str) -> str:
    """Wrap a prompt in the sampling template; empty prompts are rejected."""
    if not prompt or not prompt.strip():
        raise ValueError("prompt must be non-empty")
    return f"A DSLR photo of {prompt}, 3d asset"


class ToyTextEncoder:
    """Deterministic stand-in for a frozen text encoder.

    Tokens hash into a fixed seeded embedding table and mean-pool into one
    prompt vector; a reserved null vector serves the unconditional branch.
    """

    def __init__(self, dim=16, vocab=4096, seed=0x7E57):
        rng = np.random.default_rng(seed)
        self.dim = dim
        self.vocab = vocab
        self.table = rng.standard_normal((vocab, dim)) / math.sqrt(dim)
        self.null = rng.standard_normal(dim) / math.sqrt(dim)

    @staticmethod
    def tokenize(text):
        return [t for t in re.split(r"[^0-9a-z]+", text.lower()) if t]

    def token_id(self, token):
        digest = hashlib.md5(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little") % self.vocab

    def embed_prompt(self, prompt):
        """Mean-pooled token embedding; tokenless input embeds as null."""
        tokens = self.tokenize(prompt)
        if not tokens:
            return self.null.copy()
        rows = self.table[[self.token_id(t) for t in tokens]]
        return rows.mean(axis=0)


# -- conditioning features ---------------------------------------------------------


def camera_features(azimuth_deg, elevation_deg, n_freq=4):
    """sin/cos of azimuth and elevation harmonics; 360-periodic bitwise."""
    az = math.radians(azimuth_deg % 360.0)
    el = math.radians(elevation_deg)
    feats = []
    for k in range(n_freq):
        m = float(2 ** k)
        feats += [math.sin(m * az), math.cos(m * az),
                  math.sin(m * el), math.cos(m * el)]
    return np.asarray(feats)


def time_features(t, n_freq=4):
    out = []
    for k in range(n_freq):
        w = 10000.0 ** (-k / max(n_freq - 1, 1))
        out += [math.sin(t * w), math.cos(t * w)]
    return np.asarray(out)


# -- config ----------------------------------------------------------------------


@dataclass
class ModelConfig:
    """Denoiser hyperparameters and the consistency-operator switchboard."""

    f: int = 12
    latent_h: int = 8
    latent_w: int = 8
    channels: int = 16
    blocks: int = 1
    text_dim: int = 16
    d_state: int = 4
    enable_aa: bool = True
    enable_dr: bool = True
    enable_rg: bool = True
    enable_air: bool = True
    scan_strategy: str = "spiral-bidirectional"
    p_2d: float = 0.4
    p_drop: float = 0.1
    T: int = 1000
    elevation_deg: float = 0.0
    distance: float = 2.0
    lr: float = 2e-3

    def __post_init__(self):
        for fld in fields(self):
            v = getattr(self, fld.name)
            if fld.type == "int" and not (is_int(v) and v >= 1):
                raise ValueError(f"{fld.name} must be >= 1 and integral, got {v!r}")
            if fld.type == "float" and not is_finite_number(v):
                raise ValueError(f"{fld.name} must be a finite number, got {v!r}")
            if fld.type == "bool" and not isinstance(v, (bool, np.bool_)):
                raise ValueError(f"{fld.name} must be true or false, got {v!r}")
        if not 0.0 <= self.p_2d <= 1.0 or not 0.0 <= self.p_drop <= 1.0:
            raise ValueError("p_2d and p_drop must lie in [0, 1]")
        if not self.lr > 0.0:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.scan_strategy not in SCAN_STRATEGIES:
            raise ValueError(f"unknown scan strategy {self.scan_strategy!r}")

    @property
    def stack(self):
        names = [n for n, on in (("aa", self.enable_aa), ("dr", self.enable_dr),
                                 ("rg", self.enable_rg), ("air", self.enable_air)) if on]
        return "+".join(names) if names else "none"


def latent_ring(config: ModelConfig) -> ViewRing:
    return ViewRing(f=config.f, elevation_deg=config.elevation_deg,
                    distance=config.distance, W=config.latent_w, H=config.latent_h)


# -- image <-> latent -----------------------------------------------------------------


def encode_images(images):
    """[f,H,W,3] images in [0,1] -> [f,3,H/4,W/4] latents in [-1,1]."""
    x = np.asarray(images).transpose(0, 3, 1, 2)
    f, c, h, w = x.shape
    s = LATENT_FACTOR
    if h % s or w % s:
        raise ValueError(f"image dims {h}x{w} not divisible by {s}")
    pooled = x.reshape(f, c, h // s, s, w // s, s).mean(axis=(3, 5))
    return pooled * 2.0 - 1.0


def decode_latents(z):
    """Latents back to [f,H,W,3] images in [0,1], bilinearly upsampled 4x."""
    rgb = np.clip((np.asarray(z) + 1.0) / 2.0, 0.0, 1.0)
    up = bilinear_upsample2d(Tensor(rgb), LATENT_FACTOR).data
    return np.clip(up, 0.0, 1.0).transpose(0, 2, 3, 1)


# -- layers -----------------------------------------------------------------------


def channel_norm(x, gain, bias, eps=1e-5):
    """Per-position layer norm over the channel axis of [n,C,H,W]."""
    c = x.shape[1]
    return layer_norm(x, gain.reshape(1, c, 1, 1), bias.reshape(1, c, 1, 1),
                      axis=1, eps=eps)


@dataclass
class ConvParams:
    w: Tensor
    b: Tensor

    @classmethod
    def init(cls, tape, prefix, cin, cout, zero=False):
        scale = 1.0 / math.sqrt(9 * cin)
        w = tape.zeros(f"{prefix}.w", (cout, 9 * cin)) if zero else \
            tape.normal(f"{prefix}.w", (cout, 9 * cin), scale)
        return cls(w=w, b=tape.zeros(f"{prefix}.b", (cout,)))


@dataclass
class NormParams:
    gain: Tensor
    bias: Tensor

    @classmethod
    def init(cls, tape, prefix, c):
        return cls(gain=tape.param(f"{prefix}.gain", np.ones(c)),
                   bias=tape.zeros(f"{prefix}.bias", (c,)))


@dataclass
class ResBlockParams:
    norm1: NormParams
    conv1: ConvParams
    emb_proj_w: Tensor
    emb_proj_b: Tensor
    norm2: NormParams
    conv2: ConvParams

    @classmethod
    def init(cls, tape, prefix, c):
        return cls(
            norm1=NormParams.init(tape, f"{prefix}.norm1", c),
            conv1=ConvParams.init(tape, f"{prefix}.conv1", c, c),
            emb_proj_w=tape.normal(f"{prefix}.emb_w", (c, c), 1.0 / math.sqrt(c)),
            emb_proj_b=tape.zeros(f"{prefix}.emb_b", (c,)),
            norm2=NormParams.init(tape, f"{prefix}.norm2", c),
            conv2=ConvParams.init(tape, f"{prefix}.conv2", c, c, zero=True),
        )


def res_block(x, emb, p: ResBlockParams):
    """x + conv(silu(norm(x)) + emb); the second conv starts at zero."""
    h = conv3x3(channel_norm(x, p.norm1.gain, p.norm1.bias).silu(),
                p.conv1.w, p.conv1.b)
    shift = matmul(emb.silu(), p.emb_proj_w) + p.emb_proj_b      # [n, C]
    h = h + shift.reshape(shift.shape[0], shift.shape[1], 1, 1)
    h = conv3x3(channel_norm(h, p.norm2.gain, p.norm2.bias).silu(),
                p.conv2.w, p.conv2.b)
    return x + h


@dataclass
class TextShiftParams:
    w_v: Tensor
    w_o: Tensor


def cross_attention(x, text_emb, norm, params):
    """Attention of each view onto its ring's prompt token, plus residual.

    `x` is [B*f, C, H, W]; `text_emb` is one embedding [text_dim], or one per
    ring [B, text_dim]. The encoder pools a prompt into one token, and with
    one key the softmax weight is exactly 1, so this is x + (e_r @ w_v) @ w_o
    for ring r. `norm`, `params.w_q` and `params.w_k` are never read.
    """
    e = np.asarray(text_emb, dtype=x.dtype)
    e = Tensor(e.reshape(-1, e.shape[-1]))                    # [B, text_dim]
    shift = matmul(matmul(e, params.w_v), params.w_o)         # [B, C]
    b, c = shift.shape
    rings = x.reshape(b, -1, *x.shape[1:]) + shift.reshape(b, 1, c, 1, 1)
    return rings.reshape(x.shape)


@dataclass
class BlockParams:
    res: ResBlockParams
    ca: TextShiftParams
    aa_norm: NormParams = None
    aa: AttentionParams = None
    dr_norm: NormParams = None
    dr: AttentionParams = None
    rg: SsmParams = None
    air_norm: NormParams = None
    air: AttentionParams = None
    smap: ScoreMapper = None


# -- the model -----------------------------------------------------------------------


class MvDenoiser:
    """eps-prediction network over a latent view stack."""

    def __init__(self, config: ModelConfig, seed=0):
        self.config = config
        self.ring = latent_ring(config)
        self.tape = Tape(seed)
        self.sched = NoiseSchedule.linear(T=config.T)
        c = config.channels
        t = self.tape
        nf = 4
        self.n_freq = nf
        self.time_mlp = Mlp2.init(t, "time_mlp", 2 * nf, c, c)
        self.cam_mlp = Mlp2.init(t, "cam_mlp", 4 * nf, c, c)
        self.stem = ConvParams.init(t, "stem", LATENT_CHANNELS, c)
        # one seed so every attention operator starts from the same
        # projections, mirroring init-from-the-2d-path weight sharing; the
        # output projections start small but non-zero so the cross-view
        # paths carry gradient from the first step
        attn_seed = int(t.rng.integers(2 ** 31))
        oscale = OPERATOR_OUT_SCALE
        self.blocks = []
        for b in range(config.blocks):
            pre = f"block{b}"
            blk = BlockParams(
                res=ResBlockParams.init(t, f"{pre}.res", c),
                ca=TextShiftParams(t.normal(f"{pre}.ca.w_v", (config.text_dim, c),
                                            1.0 / math.sqrt(config.text_dim)),
                                   t.zeros(f"{pre}.ca.w_o", (c, c))),
            )
            if config.enable_aa:
                blk.aa_norm = NormParams.init(t, f"{pre}.aa_norm", c)
                blk.aa = AttentionParams.init(t, f"{pre}.aa", c, out_scale=oscale,
                                              seed=attn_seed + b)
            if config.enable_dr:
                blk.dr_norm = NormParams.init(t, f"{pre}.dr_norm", c)
                blk.dr = AttentionParams.init(t, f"{pre}.dr", c, out_scale=oscale,
                                              seed=attn_seed + b)
            if config.enable_rg:
                blk.rg = SsmParams.init(t, f"{pre}.rg", c, config.d_state,
                                        out_scale=oscale)
            if config.enable_air:
                blk.air_norm = NormParams.init(t, f"{pre}.air_norm", c)
                blk.air = AttentionParams.init(t, f"{pre}.air", c, out_scale=oscale,
                                               seed=attn_seed + b)
                blk.smap = ScoreMapper.init(t, f"{pre}.smap", c, config.text_dim)
            self.blocks.append(blk)
        self.head_norm = NormParams.init(t, "head_norm", c)
        self.head = ConvParams.init(t, "head", c, LATENT_CHANNELS, zero=True)
        self.air_cfg = AirConfig()
        self.cam_feats = np.stack([                               # [f, 4*nf]
            camera_features(self.ring.azimuth_deg(v), self.ring.elevation_deg, nf)
            for v in range(config.f)])

    def params(self):
        return self.tape.tensors()

    def named_params(self):
        return self.tape.named()

    def _embeddings(self, t):
        """Per-view camera embedding plus the timestep embedding, [f, C]."""
        tf = Tensor(time_features(t, self.n_freq)[None, :])
        return self.cam_mlp(Tensor(self.cam_feats)) + self.time_mlp(tf)

    def denoise(self, z_t, t, text_emb, mode_2d=False):
        """Predict the injected noise for one ring of latents at step t.

        z_t is the ring [f, 3, H, W]. text_emb is one embedding [text_dim],
        and the output has the shape of z_t; or it is B embeddings
        [B, text_dim], and the ring is denoised under each prompt into
        [B, f, 3, H, W]. The prompt-free trunk (stem conv, block 0's res
        block) runs once, and its output is repeated into B rings just
        before the first text shift. mode_2d bypasses every cross-view
        operator, leaving the per-view text-to-image path.
        """
        cfg = self.config
        x = z_t if isinstance(z_t, Tensor) else Tensor(np.asarray(z_t))
        view = (cfg.f, LATENT_CHANNELS, cfg.latent_h, cfg.latent_w)
        if x.shape != view:
            raise ValueError(f"latent stack shape {x.shape} does not match "
                             f"config {view}")
        e = np.asarray(text_emb)
        if e.ndim not in (1, 2):
            raise ValueError(f"text embedding shape {e.shape} is neither "
                             f"[text_dim] nor [B, text_dim]")
        b = e.shape[0] if e.ndim == 2 else 1
        emb = self._embeddings(t)                                 # [f, C]
        x = conv3x3(x, self.stem.w, self.stem.b)
        for blk in self.blocks:
            x = res_block(x, emb, blk.res)
            if x.shape[0] < b * cfg.f:                            # B whole rings
                x = concat([x] * b, axis=0)
                emb = concat([emb] * b, axis=0)
            x = cross_attention(x, text_emb, None, blk.ca)
            if not mode_2d:
                if cfg.enable_aa:
                    nx = channel_norm(x, blk.aa_norm.gain, blk.aa_norm.bias)
                    x = x + adjacent_attention(LatentStack(nx, self.ring), blk.aa).data
                if cfg.enable_dr:
                    nx = channel_norm(x, blk.dr_norm.gain, blk.dr_norm.bias)
                    x = x + trajectory_attention(LatentStack(nx, self.ring),
                                                 self.ring, blk.dr).data
                if cfg.enable_rg:
                    x = rapid_glance(LatentStack(x, self.ring), blk.rg,
                                     cfg.scan_strategy).data
                if cfg.enable_air:
                    nx = channel_norm(x, blk.air_norm.gain, blk.air_norm.bias)
                    ns = LatentStack(nx, self.ring)
                    scores = score_map(ns, text_emb, blk.smap)
                    x = x + air_attention(ns, scores, self.air_cfg, blk.air).data
        x = channel_norm(x, self.head_norm.gain, self.head_norm.bias).silu()
        out = conv3x3(x, self.head.w, self.head.b)
        return out.reshape(b, *view) if e.ndim == 2 else out


# -- training -----------------------------------------------------------------------


class Adam:
    def __init__(self, params, lr=2e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            p.data = p.data - self.lr * (self.m[i] / b1c) / (
                np.sqrt(self.v[i] / b2c) + self.eps)


def training_step(batch, model: MvDenoiser, sched: NoiseSchedule, rng):
    """One eps-prediction step; returns the loss with gradients populated.

    Draws, in order: timestep, noise, the 2d-degrade coin (p_2d), and the
    null-text coin (p_drop). Aborts on non-finite loss.
    """
    cfg = model.config
    z0 = batch["z0"]
    t = int(rng.integers(1, sched.T + 1))
    eps = rng.standard_normal(z0.shape)
    mode_2d = bool(rng.random() < cfg.p_2d)
    drop = bool(rng.random() < cfg.p_drop)
    text = batch["null"] if drop else batch["text"]
    z_t = add_noise(z0, t, eps, sched)
    pred = model.denoise(z_t, t, text, mode_2d=mode_2d)
    diff = pred - Tensor(eps)
    loss = (diff * diff).mean()
    if not np.isfinite(loss.data):
        raise TrainingDiverged(
            f"non-finite loss at t={t}, mode_2d={mode_2d}: {loss.data!r}")
    model.tape.zero_grad()
    loss.backward()
    return float(loss.data)


def train_loop(batch, model, seed=0, max_steps=20000, stop_loss=None,
               log_every=200, on_log=None):
    """Overfit loop on one multiview batch with a moving-average early stop.

    Returns history rows (step, loss, moving_average). `stop_loss` halts once
    the 50-step moving average dips below it.
    """
    if max_steps < 1 or log_every < 1:
        raise ValueError(f"max_steps and log_every must be >= 1, got "
                         f"{max_steps} and {log_every}")
    if stop_loss is not None and math.isnan(stop_loss):
        raise ValueError("stop_loss must be a number or None, got nan")
    rng = np.random.default_rng(seed)
    opt = Adam(model.params(), lr=model.config.lr)
    sched = model.sched
    history = []
    window = []
    for step in range(1, max_steps + 1):
        loss = training_step(batch, model, sched, rng)
        opt.step()
        window.append(loss)
        if len(window) > 50:
            window.pop(0)
        ma = float(np.mean(window))
        stop = stop_loss is not None and len(window) == 50 and ma < stop_loss
        if stop or step % log_every == 0 or step == max_steps:
            history.append((step, loss, ma))
            if on_log is not None:
                on_log(step, loss, ma)
        if stop:
            break
    return history


# -- sampling -----------------------------------------------------------------------


def ddim_timesteps(T, steps):
    """Uniform descending sub-schedule T = t_0 > t_1 > ... > t_steps = 0."""
    if steps < 1:
        raise ValueError("need at least one DDIM step")
    if steps > T:
        raise ValueError(f"{steps} DDIM steps exceed the schedule's T={T}")
    ts = np.unique(np.round(np.linspace(0, T, steps + 1)).astype(np.int64))
    return ts[::-1]


def ddim_step(z, t_from, t_to, eps_hat, sched: NoiseSchedule):
    """Deterministic (eta=0) update from t_from to t_to given predicted noise."""
    a_from = sched.alpha_bar[t_from]
    a_to = sched.alpha_bar[t_to]
    z0_hat = (z - np.sqrt(1.0 - a_from) * eps_hat) / np.sqrt(a_from)
    return np.sqrt(a_to) * z0_hat + np.sqrt(1.0 - a_to) * eps_hat


def check_guidance(guidance):
    """Reject a guidance scale that is not a finite number >= 0."""
    if not (math.isfinite(guidance) and guidance >= 0.0):
        raise ValueError(f"guidance scale must be finite and >= 0, got {guidance}")


def ddim_sample(model: MvDenoiser, text_emb, null_emb, steps=50, guidance=7.5,
                seed=0, z_init=None):
    """Classifier-free-guided DDIM; bitwise deterministic given the seed.

    Each step is one no-grad denoise call. With guidance != 1 that call
    takes the one ring under two prompts, (text, null): the prompt-free
    trunk runs once and the rest of the network on two rings. Guidance 1
    needs the conditional branch only.
    """
    check_guidance(guidance)
    cfg = model.config
    sched = model.sched
    shape = (cfg.f, LATENT_CHANNELS, cfg.latent_h, cfg.latent_w)
    z = np.random.default_rng(seed).standard_normal(shape) if z_init is None \
        else np.asarray(z_init, dtype=np.float64)
    ts = ddim_timesteps(sched.T, steps)
    pair = np.stack([np.asarray(text_emb), np.asarray(null_emb)])
    with no_grad():
        for t_from, t_to in zip(ts[:-1], ts[1:]):
            if guidance == 1.0:
                eps_hat = model.denoise(z, int(t_from), text_emb).data
            else:
                eps_c, eps_u = model.denoise(z, int(t_from), pair).data
                eps_hat = eps_u + guidance * (eps_c - eps_u)
            z = ddim_step(z, int(t_from), int(t_to), eps_hat, sched)
    return z


# -- gradient check -------------------------------------------------------------------


def gradcheck_loss(seed=0):
    """The miniature model's eps-prediction loss at t=321, for grad_check.

    Builds a 2-view, 4x4-latent, 8-channel denoiser with every cross-view
    operator and one seeded noised batch. Returns (loss, params): calling
    `loss()` runs a fresh forward pass and returns the scalar MSE.
    """
    config = ModelConfig(f=2, latent_h=4, latent_w=4, channels=8, blocks=1,
                         text_dim=8, d_state=2)
    model = MvDenoiser(config, seed=seed)
    rng = np.random.default_rng(seed)
    z0 = rng.standard_normal((config.f, LATENT_CHANNELS, config.latent_h,
                              config.latent_w)) * 0.5
    eps = rng.standard_normal(z0.shape)
    text = ToyTextEncoder(dim=config.text_dim).embed_prompt("a checker cube")
    t = 321
    z_t = add_noise(z0, t, eps, model.sched)
    target = Tensor(eps)

    def loss():
        diff = model.denoise(z_t, t, text) - target
        return (diff * diff).mean()

    return loss, model.params()


# -- checkpoints -----------------------------------------------------------------------


_CKPT_MANIFEST = "checkpoint.json"
_CKPT_PARAMS = "params.mvt"


def save_checkpoint(model: MvDenoiser, path, step=0, extra=None):
    """Write checkpoint.json and params.mvt, one vector holding every
    parameter raveled and concatenated in param_names order."""
    os.makedirs(path, exist_ok=True)
    params = model.named_params()
    save_mvt(os.path.join(path, _CKPT_PARAMS),
             np.concatenate([p.data.ravel() for p in params.values()]))
    write_manifest(os.path.join(path, _CKPT_MANIFEST), {
        "config": asdict(model.config),
        "step": int(step),
        "param_names": list(params),
        "extra": extra or {},
    })


def load_checkpoint(path):
    """Rebuild the model from a checkpoint; any shape mismatch fails loudly."""
    mpath = os.path.join(path, _CKPT_MANIFEST)
    manifest = read_manifest(mpath, CheckpointError)
    saved = manifest.get("config")
    if not isinstance(saved, dict):
        raise CheckpointError(f"checkpoint manifest {mpath} has no config object")
    try:
        model = MvDenoiser(ModelConfig(**saved))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint config does not build the model: {exc}") from exc
    params = model.named_params()
    if manifest.get("param_names") != list(params):
        raise CheckpointError("checkpoint param_names do not list the parameters "
                              "of the architecture built from its config, in order")
    ppath = os.path.join(path, _CKPT_PARAMS)
    flat = read_mvt(ppath, CheckpointError)
    sizes = [p.data.size for p in params.values()]
    if flat.shape != (sum(sizes),):
        raise CheckpointError(f"{ppath}: shape {flat.shape}, the model has "
                              f"{sum(sizes)} parameter values")
    for p, chunk in zip(params.values(), np.split(flat, np.cumsum(sizes)[:-1])):
        p.data = chunk.reshape(p.data.shape)
    return model, manifest
