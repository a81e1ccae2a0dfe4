import numpy as np
import pytest

from mvring import reference, scan
from mvring.data import make_scene, render_views
from mvring.geometry import LatentStack, ViewRing
from mvring.tensor import Tape, Tensor


@pytest.fixture(scope="session")
def ring32():
    return ViewRing(f=12, W=32, H=32)


@pytest.fixture(scope="session")
def scene0():
    return make_scene(0)


@pytest.fixture(scope="session")
def rset0(scene0, ring32):
    return render_views(scene0, ring32)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def glance_spy(monkeypatch):
    """Run rapid_glance with an identity selective scan.

    Returns run(x, f, strategy) -> (output, scan input, expected scan input).
    x is [B*f, C, H, W]. The expected scan input has column p*B + r equal to
    ring r's tokens in the order of reference.glance_orders' pass p.
    """
    seen = []

    def identity_scan(x, params):
        seen.append(x.data)
        return x

    monkeypatch.setattr(scan, "selective_scan", identity_scan)

    def run(x, f, strategy):
        n, c, h, w = x.shape
        seen.clear()
        params = scan.SsmParams.init(Tape(0), "s", c, 2, out_scale=1.0)
        out = scan.rapid_glance(LatentStack(Tensor(x), ViewRing(f=f, W=w, H=h)),
                                params, strategy).data.data
        tokens = reference.to_tokens(x).reshape(n // f, f * h * w, c)
        orders = reference.glance_orders(f, h, w, strategy)
        want = np.stack([ring[o.perm] for o in orders for ring in tokens], axis=1)
        (got,) = seen
        return out, got, want

    return run
