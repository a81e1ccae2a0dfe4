"""Toy multiview latent denoiser on a camera ring.

Four cross-view consistency operators (adjacent attention, trajectory-window
attention, a spiral-scan selective SSM, and score-pooled all-view
rectification) inside a small eps-prediction diffusion model, trained and
sampled on a bundled synthetic multiview dataset with exact ground-truth
pixel correspondences.
"""
