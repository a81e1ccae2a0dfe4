"""Print one sha256 per scan strategy over a fixed training run and sample.

Trees that print the same digests compute the same numbers. Each covers 300
training steps of the default model on scene 0's default 12-view ring (each
step's loss and gradients, read through `train_loop`'s `on_log`), then the
final parameters and a 50-step CFG sample. Run from the repository root:

    PYTHONPATH=src python tools/digest.py
"""

import hashlib

from mvring import data as dat
from mvring import denoiser as dn
from mvring.geometry import ViewRing


def digest(scan, steps=300, sample_steps=50):
    scene = dat.make_scene(0)
    encoder = dn.ToyTextEncoder()
    text = encoder.embed_prompt(dn.prompt_template(scene.prompt))
    batch = {"z0": dn.encode_images(dat.render_views(scene, ViewRing(f=12)).images),
             "text": text, "null": encoder.null}
    model = dn.MvDenoiser(dn.ModelConfig(scan_strategy=scan), seed=0)
    h = hashlib.sha256()

    def on_log(step, loss, ma):
        h.update(repr(loss).encode())
        for p in model.params():
            h.update(p.grad_array().tobytes())
    dn.train_loop(batch, model, max_steps=steps, log_every=1, on_log=on_log)
    for p in model.params():
        h.update(p.data.tobytes())
    h.update(dn.ddim_sample(model, text, encoder.null, steps=sample_steps).tobytes())
    return h.hexdigest()


if __name__ == "__main__":
    for scan in ("spiral-bidirectional", "row-major"):
        print(scan, digest(scan))
