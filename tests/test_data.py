"""Synthetic renderer, ground-truth correspondences and dataset IO."""

import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from mvring.data import (BACKGROUND, DatasetError, ManifestError, Primitive,
                         SceneSpec, ShapeMismatchError, ground_truth_correspondence,
                         load_dataset, make_scene, point_depth_px, render_views,
                         save_dataset, view_basis)
from mvring.geometry import (ViewRing, delta_azimuth, project_rotated_x,
                             trajectory_window)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "scene_seed0.json")


class TestMakeScene:
    def test_same_seed_identical(self):
        assert make_scene(123) == make_scene(123)

    def test_primitives_inside_unit_box(self):
        for seed in range(300):
            for p in make_scene(seed).primitives:
                c = np.abs(np.asarray(p.center))
                s = np.asarray(p.size)
                assert np.all(c + s <= 0.5 + 1e-12)
                assert 1 <= len(make_scene(seed).primitives) <= 4

    def test_seed0_matches_golden_file(self):
        with open(GOLDEN) as fh:
            golden = json.load(fh)
        assert json.loads(json.dumps(asdict(make_scene(0)))) == golden

    def test_prompt_names_primitives(self):
        scene = make_scene(0)
        for p in scene.primitives:
            assert f"a {p.color} {p.kind}" in scene.prompt


class TestRenderer:
    def test_background_only_scene(self):
        scene = SceneSpec(seed=-1, primitives=(
            Primitive("box", (0.0, 0.0, 0.0), (0.2, 0.2, 0.2), "red"),))
        # paint the primitive with the background colour via a copied palette
        ring = ViewRing(f=4, W=16, H=16)
        rset = render_views(scene, ring)
        bg = ~rset.foreground(0)
        assert np.all(rset.images[0][bg] == np.asarray(BACKGROUND))

    def test_rendering_bitwise_deterministic(self, scene0, ring32):
        a = render_views(scene0, ring32)
        b = render_views(scene0, ring32)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.depths, b.depths)

    def test_centered_sphere_silhouettes_identical(self):
        scene = SceneSpec(seed=-2, primitives=(
            Primitive("sphere", (0.0, 0.0, 0.0), (0.3, 0.3, 0.3), "cyan"),))
        rset = render_views(scene, ViewRing(f=12, W=32, H=32))
        sil0 = rset.foreground(0)
        for i in range(1, 12):
            assert np.array_equal(rset.foreground(i), sil0)

    def test_offset_box_orbit_matches_analytic_column(self):
        centre = (0.3, 0.0, 0.1)
        scene = SceneSpec(seed=-3, primitives=(
            Primitive("box", centre, (0.08, 0.08, 0.08), "yellow"),))
        ring = ViewRing(f=12, W=64, H=64)
        rset = render_views(scene, ring)
        ppw = ring.W / 2.0
        for i in range(12):
            fg = rset.foreground(i)
            assert fg.any()
            cols = np.nonzero(fg)[1]
            centroid = cols.mean() + 0.5
            right, _, _ = view_basis(ring.azimuth_deg(i))
            want = float(np.dot(centre, right)) * ppw + ring.W / 2.0
            assert abs(centroid - want) <= 1.0


class TestCorrespondence:
    def test_identity_on_foreground(self, rset0):
        corr = ground_truth_correspondence(rset0, 2, 2)
        ys, xs = np.nonzero(rset0.foreground(2))
        assert np.all(corr.valid[ys, xs])
        assert np.all(corr.cols[ys, xs] == xs)
        assert np.all(corr.rows[ys, xs] == ys)

    def test_axis_plane_pixels_stay_on_centre_column(self):
        # a thin wall crossing the rotation axis: depth 0 on the axis plane
        scene = SceneSpec(seed=-4, primitives=(
            Primitive("box", (0.0, 0.0, 0.0), (0.01, 0.4, 0.4), "white"),))
        ring = ViewRing(f=12, W=32, H=32)
        rset = render_views(scene, ring)
        corr = ground_truth_correspondence(rset, 0, 1)
        ys, xs = np.nonzero(corr.valid & (np.abs(rset.depths[0]) < 0.3))
        if ys.size:
            x_pred = project_rotated_x(xs + 0.5, 30.0, rset.depths[0][ys, xs],
                                       32)
            assert np.max(np.abs(corr.cols[ys, xs] + 0.5 - x_pred)) <= 1.0

    def test_formula_agreement_within_one_pixel(self, rset0, ring32):
        agrees = []
        for i in range(12):
            j = (i + 1) % 12
            corr = ground_truth_correspondence(rset0, i, j)
            da = delta_azimuth(ring32, i, j)
            ys, xs = np.nonzero(corr.valid)
            d = rset0.depths[i][ys, xs]
            keep = np.abs(d * np.sin(np.radians(da))) <= 1.0
            ys, xs, d = ys[keep], xs[keep], d[keep]
            x_pred = project_rotated_x(xs + 0.5, da, d, 32)
            agrees.extend((np.abs(corr.cols[ys, xs] + 0.5 - x_pred) <= 1.0).tolist())
        assert len(agrees) > 0 and np.mean(agrees) >= 0.99

    def test_window_guarantee_single_scene(self, rset0, ring32):
        hit = tot = 0
        for i in range(12):
            j = (i + 1) % 12
            da = delta_azimuth(ring32, i, j)
            corr = ground_truth_correspondence(rset0, i, j)
            ys, xs = np.nonzero(corr.valid)
            d = rset0.depths[i][ys, xs]
            keep = np.abs(d * np.sin(np.radians(da))) <= 1.0
            for y, x in zip(ys[keep], xs[keep]):
                tot += 1
                win = trajectory_window(int(x), int(y), da, 32, 32)
                hit += (int(corr.cols[y, x]), int(corr.rows[y, x])) in win
        assert tot > 0 and hit / tot >= 0.99

    def test_inverse_consistency(self, rset0):
        fwd = ground_truth_correspondence(rset0, 0, 1)
        bwd = ground_truth_correspondence(rset0, 1, 0)
        ys, xs = np.nonzero(fwd.valid)
        ok = n = 0
        for y, x in zip(ys, xs):
            ty, tx = fwd.rows[y, x], fwd.cols[y, x]
            if not bwd.valid[ty, tx]:
                continue
            n += 1
            ok += (abs(int(bwd.cols[ty, tx]) - int(x)) <= 1
                   and abs(int(bwd.rows[ty, tx]) - int(y)) <= 1)
        assert n > 0 and ok / n >= 0.99

    def test_depth_zero_on_axis_plane_and_sign_flip(self, ring32):
        # projection helper: a fixed world point flips depth sign at +180 deg
        pt = np.array([0.25, -0.1, 0.33])
        for i in range(6):
            d = point_depth_px(pt, ring32, i)
            d_opp = point_depth_px(pt, ring32, i + 6)
            assert d == pytest.approx(-d_opp, abs=1e-9)
        on_axis = np.array([0.0, 0.2, 0.0])   # the rotation axis itself
        for i in range(12):
            assert point_depth_px(on_axis, ring32, i) == pytest.approx(0.0, abs=1e-12)

    def test_wall_face_on_axis_plane_has_zero_depth(self):
        scene = SceneSpec(seed=-5, primitives=(
            Primitive("box", (0.0, 0.0, -0.2), (0.3, 0.3, 0.2), "blue"),))
        ring = ViewRing(f=4, W=32, H=32)
        rset = render_views(scene, ring)
        # at azimuth 90 the camera looks along -z; the face at z=0 is the
        # rotation-axis plane, so its depth must be exactly 0
        i = 1
        fg = rset.foreground(i)
        assert fg.any()
        assert np.max(np.abs(rset.depths[i][fg])) <= 1e-9


class TestDatasetIO:
    def test_roundtrip_bitwise(self, rset0, tmp_path):
        save_dataset(rset0, tmp_path, seed=0)
        back, manifest = load_dataset(tmp_path)
        assert np.array_equal(back.images, rset0.images)
        assert np.array_equal(back.depths, rset0.depths)
        assert manifest["seed"] == 0 and manifest["f"] == 12

    def test_layout_files(self, rset0, tmp_path):
        save_dataset(rset0, tmp_path, seed=0)
        assert sorted(os.listdir(tmp_path)) == ["depths.mvt", "images.mvt",
                                                "manifest.json"]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ManifestError, match="missing manifest"):
            load_dataset(tmp_path)

    def test_version_mismatch(self, rset0, tmp_path):
        save_dataset(rset0, tmp_path, seed=0)
        with open(tmp_path / "manifest.json") as fh:
            m = json.load(fh)
        m["version"] = 99
        with open(tmp_path / "manifest.json", "w") as fh:
            json.dump(m, fh)
        with pytest.raises(ManifestError, match="version"):
            load_dataset(tmp_path)

    def test_view_count_tamper_is_shape_mismatch(self, rset0, tmp_path):
        save_dataset(rset0, tmp_path, seed=0)
        with open(tmp_path / "manifest.json") as fh:
            m = json.load(fh)
        m["f"] = 13
        with open(tmp_path / "manifest.json", "w") as fh:
            json.dump(m, fh)
        with pytest.raises(ShapeMismatchError):
            load_dataset(tmp_path)

    def test_truncated_tensor_names_file(self, rset0, tmp_path):
        save_dataset(rset0, tmp_path, seed=0)
        for name in ("images.mvt", "depths.mvt"):
            victim = tmp_path / name
            good = victim.read_bytes()
            victim.write_bytes(good[:-16])
            with pytest.raises(DatasetError, match=name) as exc:
                load_dataset(tmp_path)
            assert "corrupt payload" in str(exc.value)
            victim.write_bytes(good)

    def test_missing_tensor_file(self, rset0, tmp_path):
        save_dataset(rset0, tmp_path, seed=0)
        for name in ("images.mvt", "depths.mvt"):
            victim = tmp_path / name
            good = victim.read_bytes()
            os.remove(victim)
            with pytest.raises(DatasetError, match=f"missing tensor file .*{name}"):
                load_dataset(tmp_path)
            victim.write_bytes(good)

    def test_wrong_shape_tensor(self, rset0, tmp_path):
        from mvring.tensor import save_mvt
        for name, shape in (("images.mvt", (12, 4, 4, 3)), ("images.mvt", (12, 32, 32)),
                            ("depths.mvt", (12, 32, 32, 3)), ("depths.mvt", (11, 32, 32))):
            save_dataset(rset0, tmp_path, seed=0)
            save_mvt(tmp_path / name, np.zeros(shape))
            with pytest.raises(ShapeMismatchError, match=name):
                load_dataset(tmp_path)
