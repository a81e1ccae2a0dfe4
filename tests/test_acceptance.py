"""Acceptance criteria, one test per criterion, printed as PASS/FAIL lines.

Run as `pytest -v -s tests/test_acceptance.py` to see the criterion lines.
The ablation criteria (7-9) train real models and take a few minutes; they
and criterion 5 carry the `slow` marker, so `-m "not slow"` skips them.
"""

import os
import time

import numpy as np
import pytest

from mvring import denoiser as dn
from mvring.attention import AirConfig, AttentionParams, adjacent_attention, air_attention, trajectory_attention
from mvring.cli import main
from mvring.data import make_scene, render_views, ground_truth_correspondence
from mvring.geometry import LatentStack, ViewRing, delta_azimuth, trajectory_window
from mvring.scan import (SsmParams, _glance_plan, build_scan_order,
                         row_major_order, selective_scan,
                         selective_scan_sequential, spiral_order)
from mvring.tensor import Tape, Tensor, grad_check


def report(num, name, ok, detail=""):
    print(f"\nCRITERION {num} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# -- 1: scan oracle equivalence ---------------------------------------------------


def test_criterion_1_scan_oracle_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for case in range(100):
        tape = Tape(case)
        params = SsmParams.init(tape, "s", 8, 4, out_scale=1.0)
        L = int(rng.integers(1, 1025))
        x = Tensor(rng.standard_normal((L, 8)))
        got = selective_scan(x, params).data
        want = selective_scan_sequential(x, params).data
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - t0
    report(1, "scan oracle equivalence",
           worst < 1e-10 and elapsed < 10.0,
           f"max abs diff {worst:.3e}, {elapsed:.1f}s for 100 cases")


# -- 2: spiral bijection + permutation round trips -----------------------------------


def test_criterion_2_spiral_bijection_and_roundtrip():
    ok = True
    for h in range(1, 17):
        for w in range(1, 17):
            order = spiral_order(h, w)
            ok &= sorted(order.tolist()) == list(range(h * w))
    rng = np.random.default_rng(1002)
    for f in (1, 2, 3, 12):
        order = build_scan_order(f, 4, 4)
        orders = (order, order.reversed_views())
        L = f * 16
        for b in (1, 2):
            passes, gather, scatter = _glance_plan(b, f, 4, 4,
                                                   "spiral-bidirectional")
            tokens = rng.standard_normal((b * L, 6))
            src = np.concatenate([tokens] * passes)
            seq = src[gather]
            ok &= passes == 2 and np.array_equal(seq[scatter], src)
            seq = seq.reshape(L, passes * b, 6)
            for p, o in enumerate(orders):
                for r in range(b):
                    ok &= np.array_equal(seq[:, p * b + r], tokens[r * L + o.perm])
    report(2, "spiral bijection + glance plan round trip", ok)


# -- 3: attention reductions -----------------------------------------------------------


def np_softmax(x):
    e = np.exp(x - x.max(-1, keepdims=True))
    return e / e.sum(-1, keepdims=True)


def np_sdpa(q, k, v):
    return np_softmax(q @ k.T / np.sqrt(q.shape[-1])) @ v


def test_criterion_3_attention_reductions():
    rng = np.random.default_rng(1003)
    tape = Tape(33)
    p4 = AttentionParams.init(tape, "p4", 4, out_scale=1.0)

    # (a) identical views -> plain self attention, 1e-12
    ring5 = ViewRing(f=5, W=2, H=2)
    one = rng.standard_normal((1, 4, 2, 2))
    stack = LatentStack(Tensor(np.repeat(one, 5, axis=0)), ring5)
    got = adjacent_attention(stack, p4).data.data
    tok = one.transpose(0, 2, 3, 1).reshape(4, 4)
    want = (np_sdpa(tok @ p4.w_q.data, tok @ p4.w_k.data, tok @ p4.w_v.data)
            @ p4.w_o.data).reshape(1, 2, 2, 4).transpose(0, 3, 1, 2)
    err_a = float(np.max(np.abs(got - np.repeat(want, 5, axis=0))))

    # (b) unit scores, identity strides -> dense all-view attention, 1e-10
    ring4 = ViewRing(f=4, W=4, H=4)
    z = rng.standard_normal((4, 4, 4, 4))
    st = LatentStack(Tensor(z), ring4)
    got_b = air_attention(st, Tensor(np.ones((4, 1, 4, 4))), AirConfig(1, 1),
                          p4).data.data
    toks = z.transpose(0, 2, 3, 1).reshape(4, 16, 4)
    kc = (toks @ p4.w_k.data).reshape(-1, 4)
    vc = (toks @ p4.w_v.data).reshape(-1, 4)
    want_b = np.stack([np_sdpa(toks[i] @ p4.w_q.data, kc, vc) @ p4.w_o.data
                       for i in range(4)]).reshape(4, 4, 4, 4).transpose(0, 3, 1, 2)
    err_b = float(np.max(np.abs(got_b - want_b)))

    # (c) trajectory attention == gather-and-attend oracle on f=4, 8x8, 1e-10
    ring8 = ViewRing(f=4, W=8, H=8)
    z8 = rng.standard_normal((4, 4, 8, 8))
    got_c = trajectory_attention(LatentStack(Tensor(z8), ring8), ring8,
                                 p4).data.data
    toks8 = z8.transpose(0, 2, 3, 1).reshape(4, 64, 4)
    q = toks8 @ p4.w_q.data
    k = toks8 @ p4.w_k.data
    v = toks8 @ p4.w_v.data
    out = np.empty_like(toks8)
    for i in range(4):
        for y in range(8):
            for x in range(8):
                ks, vs = [], []
                for off in (-1, 0, 1):
                    j = (i + off) % 4
                    da = delta_azimuth(ring8, i, j) if off else 0.0
                    for cc, rr in trajectory_window(x, y, da, 8, 8):
                        ks.append(k[j, rr * 8 + cc])
                        vs.append(v[j, rr * 8 + cc])
                out[i, y * 8 + x] = np_sdpa(q[i, y * 8 + x][None],
                                            np.stack(ks), np.stack(vs))[0] \
                    @ p4.w_o.data
    want_c = out.reshape(4, 8, 8, 4).transpose(0, 3, 1, 2)
    err_c = float(np.max(np.abs(got_c - want_c)))

    report(3, "attention reductions",
           err_a <= 1e-12 and err_b <= 1e-10 and err_c <= 1e-10,
           f"aa {err_a:.2e}, air {err_b:.2e}, dr {err_c:.2e}")


# -- 4: rotation-window guarantee -----------------------------------------------------


def test_criterion_4_window_guarantee_20_scenes():
    ring = ViewRing(f=12, W=32, H=32)
    hit = tot = 0
    for seed in range(20):
        rset = render_views(make_scene(seed), ring)
        for i in range(12):
            for j in ((i + 1) % 12, (i - 1) % 12):
                da = delta_azimuth(ring, i, j)
                corr = ground_truth_correspondence(rset, i, j)
                ys, xs = np.nonzero(corr.valid)
                d = rset.depths[i][ys, xs]
                keep = np.abs(d * np.sin(np.radians(da))) <= 1.0
                for y, x in zip(ys[keep], xs[keep]):
                    tot += 1
                    win = trajectory_window(int(x), int(y), da, 32, 32)
                    hit += (int(corr.cols[y, x]), int(corr.rows[y, x])) in win
    rate = hit / tot
    report(4, "rotation window guarantee", rate >= 0.99 and tot > 1000,
           f"{hit}/{tot} = {rate:.4f}")


# -- 5: end-to-end gradient integrity ---------------------------------------------------


@pytest.mark.slow
def test_criterion_5_miniature_gradcheck_under_60s():
    loss, params = dn.gradcheck_loss(seed=0)
    t0 = time.perf_counter()
    rep = grad_check(loss, params, eps=1e-5, tol=1e-4)
    elapsed = time.perf_counter() - t0
    report(5, "miniature denoiser gradient integrity",
           rep.passed and elapsed < 60.0,
           f"max rel err {rep.max_rel_err:.2e} over {rep.n_checked} coords, "
           f"{elapsed:.1f}s")


# -- 6: diffusion identities ---------------------------------------------------------------


def test_criterion_6_diffusion_identities():
    sched = dn.NoiseSchedule.linear()
    rng = np.random.default_rng(1006)
    z0 = rng.standard_normal((2, 3, 4, 4))
    eps = rng.standard_normal(z0.shape)
    inv_err = 0.0
    for t in (1, 250, 750, 1000):
        zt = dn.add_noise(z0, t, eps, sched)
        back = (zt - np.sqrt(1 - sched.alpha_bar[t]) * eps) \
            / np.sqrt(sched.alpha_bar[t])
        inv_err = max(inv_err, float(np.max(np.abs(back - z0))))

    ddim_err = 0.0
    for t in (1000, 400):
        zt = dn.add_noise(z0, t, eps, sched)
        rec = dn.ddim_step(zt, t, 0, eps, sched)
        ddim_err = max(ddim_err, float(np.max(np.abs(rec - z0))))

    config = dn.ModelConfig(f=2, latent_h=4, latent_w=4, channels=8, blocks=1,
                            text_dim=8, d_state=2, tau=2, rho=4)
    model = dn.MvDenoiser(config, seed=0)
    text = dn.ToyTextEncoder(dim=8).embed_prompt("a cube")
    batch = {"z0": z0, "text": text, "null": np.zeros_like(text)}
    probe = np.random.default_rng(99)
    int(probe.integers(1, sched.T + 1))
    oracle_eps = probe.standard_normal(z0.shape)
    model.denoise = lambda *a, **k: Tensor(oracle_eps.copy(), requires_grad=True)
    oracle_loss = dn.training_step(batch, model, sched, np.random.default_rng(99))

    report(6, "diffusion identities",
           inv_err < 1e-10 and ddim_err < 1e-8 and oracle_loss == 0.0,
           f"inversion {inv_err:.2e}, ddim {ddim_err:.2e}, "
           f"oracle loss {oracle_loss!r}")


# -- 7-9: overfit ablation, scan strategies, determinism ------------------------------------


ABLATE_ARGS = ["--stacks", "aa,aa+dr+rg+air",
               "--scans", "spiral-bidirectional,spatial-first-bidirectional",
               "--steps", "20000", "--stop-loss", "0.04", "--log-every", "500",
               "--seed", "0", "--sample-steps", "50", "--guidance", "7.5",
               "--sample-seeds", "0,1,2"]


def _read_ablation(path):
    rows = {}
    with open(os.path.join(path, "ablation.csv")) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            cells = dict(zip(header, line.strip().split(",")))
            rows[cells["run_id"]] = cells
    return rows


@pytest.fixture(scope="module")
def ablation_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("accept")
    ds = base / "dataset"
    assert main(["gen-data", "--out", str(ds), "--seed", "0",
                 "--views", "12", "--res", "32"]) == 0
    runs = []
    t0 = time.perf_counter()
    for name in ("run1", "run2"):
        out = base / name
        assert main(["ablate", "--dataset", str(ds), "--out", str(out)]
                    + ABLATE_ARGS) == 0
        runs.append(out)
    elapsed = time.perf_counter() - t0
    return runs[0], runs[1], elapsed


@pytest.mark.slow
def test_criterion_7_overfit_ablation_trend(ablation_runs):
    run1, _, elapsed = ablation_runs
    rows = _read_ablation(run1)
    aa = rows["aa__spiral-bidirectional__s0"]
    full = rows["aa+dr+rg+air__spiral-bidirectional__s0"]
    loss_aa = float(aa["train_loss"])
    loss_full = float(full["train_loss"])
    cons_aa = float(aa["consistency"])
    cons_full = float(full["consistency"])
    steps_ok = int(aa["step"]) <= 20000 and int(full["step"]) <= 20000
    # the fixture trains 4 configs twice; the per-run budget is 30 minutes
    budget_ok = elapsed < 8 * 1800.0
    report(7, "overfit + ablation trend",
           loss_aa < 0.05 and loss_full < 0.05 and cons_full < cons_aa
           and steps_ok and budget_ok,
           f"loss aa {loss_aa:.4f}, full {loss_full:.4f}; consistency "
           f"aa {cons_aa:.4f} > full {cons_full:.4f}; total wall {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_8_scan_strategy_ablation(ablation_runs):
    run1, _, _ = ablation_runs
    rows = _read_ablation(run1)
    spiral = "aa+dr+rg+air__spiral-bidirectional__s0"
    spatial = "aa+dr+rg+air__spatial-first-bidirectional__s0"
    both_recorded = spiral in rows and spatial in rows
    both_trained = both_recorded and \
        float(rows[spiral]["train_loss"]) < 0.05 and \
        float(rows[spatial]["train_loss"]) < 0.05

    centre = [r * 8 + c for r in range(2, 6) for c in range(2, 6)]

    def mean_dist(order):
        pos = np.empty(64, dtype=np.int64)
        pos[order] = np.arange(64)
        ps = pos[centre]
        return np.abs(ps[:, None] - ps[None, :]).mean()

    locality = mean_dist(spiral_order(8, 8)) < mean_dist(row_major_order(8, 8))
    report(8, "scan strategy ablation + spiral locality",
           both_recorded and both_trained and locality,
           f"rows {sorted(rows)}; locality spiral "
           f"{mean_dist(spiral_order(8, 8)):.2f} < row-major "
           f"{mean_dist(row_major_order(8, 8)):.2f}")


@pytest.mark.slow
def test_criterion_9_byte_identical_artifacts(ablation_runs):
    run1, run2, _ = ablation_runs
    csv_same = (run1 / "ablation.csv").read_bytes() == \
        (run2 / "ablation.csv").read_bytes()
    ppm_same = True
    n_ppm = 0
    for root, _, files in os.walk(run1):
        for name in sorted(files):
            if not name.endswith(".ppm"):
                continue
            rel = os.path.relpath(os.path.join(root, name), run1)
            n_ppm += 1
            if (run1 / rel).read_bytes() != (run2 / rel).read_bytes():
                ppm_same = False
    report(9, "byte-identical reruns", csv_same and ppm_same and n_ppm == 144,
           f"csv identical: {csv_same}, {n_ppm} PPMs identical: {ppm_same}")
