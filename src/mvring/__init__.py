"""Toy multiview latent denoiser on a camera ring.

Four cross-view consistency operators (adjacent attention, trajectory-window
attention, a spiral-scan selective SSM, and score-pooled all-view
rectification) inside a small eps-prediction diffusion model, trained and
sampled on a bundled synthetic multiview dataset with exact ground-truth
pixel correspondences.
"""

from .attention import (AirConfig, AttentionParams, ScoreMapper,
                        adjacent_attention, air_attention, score_map, sdpa,
                        trajectory_attention)
from .data import (RenderedSet, SceneSpec, ground_truth_correspondence,
                   load_dataset, make_scene, render_views, save_dataset)
from .denoiser import (ModelConfig, MvDenoiser, NoiseSchedule, ToyTextEncoder,
                       add_noise, ddim_sample, decode_latents, encode_images,
                       load_checkpoint, prompt_template, save_checkpoint,
                       train_loop, training_step)
from .geometry import (LatentStack, ViewRing, delta_azimuth, project_rotated_x,
                       project_rotated_x_simplified, trajectory_window)
from .metrics import consistency_metric, psnr, write_ppm
from .scan import (ScanOrder, SsmParams, build_scan_order, discretize_zoh,
                   rapid_glance, selective_scan, selective_scan_sequential,
                   spiral_order)
from .tensor import (Tape, Tensor, avg_pool2d, bilinear_upsample2d, grad_check,
                     linear_recurrence, load_mvt, save_mvt, softmax)

__version__ = "0.1.0"

__all__ = [
    "AirConfig", "AttentionParams", "ScoreMapper", "adjacent_attention",
    "air_attention", "score_map", "sdpa", "trajectory_attention",
    "RenderedSet", "SceneSpec", "ground_truth_correspondence", "load_dataset",
    "make_scene", "render_views", "save_dataset",
    "ModelConfig", "MvDenoiser", "NoiseSchedule", "ToyTextEncoder",
    "add_noise", "ddim_sample", "decode_latents", "encode_images",
    "load_checkpoint", "prompt_template", "save_checkpoint", "train_loop",
    "training_step",
    "LatentStack", "ViewRing", "delta_azimuth", "project_rotated_x",
    "project_rotated_x_simplified", "trajectory_window",
    "consistency_metric", "psnr", "write_ppm",
    "ScanOrder", "SsmParams", "build_scan_order", "discretize_zoh",
    "rapid_glance", "selective_scan", "selective_scan_sequential",
    "spiral_order",
    "Tape", "Tensor", "avg_pool2d", "bilinear_upsample2d", "grad_check",
    "linear_recurrence", "load_mvt", "save_mvt", "softmax",
    "__version__",
]
