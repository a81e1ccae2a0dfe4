"""Ring geometry: azimuth deltas, rotation projection, trajectory windows."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvring.geometry import (ViewRing, delta_azimuth,
                             project_rotated_x_simplified, round_half_away,
                             trajectory_window)
from mvring.reference import project_rotated_x

angles = st.floats(min_value=-179.999, max_value=180, allow_nan=False)
depths = st.floats(min_value=-20, max_value=20, allow_nan=False)
cols = st.floats(min_value=0, max_value=31, allow_nan=False)


class TestViewRing:
    @pytest.mark.parametrize("field, value", [
        ("f", 2.5), ("W", "8"), ("H", True), ("elevation_deg", math.nan),
        ("distance", math.inf), ("f", 0), ("W", -8)])
    def test_field_of_the_wrong_kind_is_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            ViewRing(**{"f": 4, field: value})


class TestDeltaAzimuth:
    def test_twelve_view_step(self):
        ring = ViewRing(f=12)
        assert delta_azimuth(ring, 0, 1) == pytest.approx(30.0)

    def test_wraparound(self):
        ring = ViewRing(f=12)
        assert delta_azimuth(ring, 11, 0) == pytest.approx(30.0)

    def test_opposite_is_plus_180(self):
        ring = ViewRing(f=12)
        assert delta_azimuth(ring, 0, 6) == 180.0

    def test_range_and_antisymmetry(self):
        ring = ViewRing(f=12)
        for i in range(12):
            for j in range(12):
                d = delta_azimuth(ring, i, j)
                assert -180.0 < d <= 180.0
                if d != 180.0:
                    assert delta_azimuth(ring, j, i) == pytest.approx(-d)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            delta_azimuth(ViewRing(f=4), 0, 4)


class TestProjection:
    def test_axis_column_fixed_point(self):
        for da in (0.0, 17.0, -120.0):
            assert project_rotated_x(16.0, da, 0.0, 32) == pytest.approx(16.0)

    def test_identity_rotation(self):
        assert project_rotated_x(24.0, 0.0, 0.0, 32) == 24.0
        assert project_rotated_x(9.0, 0.0, 5.0, 32) == 9.0  # depth drops out

    def test_direct_evaluation(self):
        # 8 cos30 + 16 - 2 sin30
        want = 8.0 * math.cos(math.radians(30)) + 16.0 - 1.0
        got = project_rotated_x(24.0, 30.0, 2.0, 32)
        assert got == pytest.approx(21.92820323027551, abs=1e-12)
        assert got == pytest.approx(want, abs=1e-12)

    def test_simplified_direct_evaluation(self):
        got = project_rotated_x_simplified(24.0, 30.0, 32)
        assert got == pytest.approx(22.92820323027551, abs=1e-12)

    def test_simplified_fixed_points(self):
        assert project_rotated_x_simplified(24.0, 0.0, 32) == 24.0
        assert project_rotated_x_simplified(16.0, 77.0, 32) == pytest.approx(16.0)

    @settings(max_examples=100, deadline=None)
    @given(cols, angles)
    def test_depth_zero_reduces_to_simplified(self, x, da):
        full = project_rotated_x(x, da, 0.0, 32)
        simp = project_rotated_x_simplified(x, da, 32)
        assert full == simp

    @settings(max_examples=100, deadline=None)
    @given(cols, angles, depths)
    def test_difference_is_depth_shear(self, x, da, d):
        full = project_rotated_x(x, da, d, 32)
        simp = project_rotated_x_simplified(x, da, 32)
        shear = abs(d * math.sin(math.radians(da)))
        assert abs(full - simp) == pytest.approx(shear, rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(cols, angles, depths)
    @example(x=0.0, da=-169.0, d=5.0)  # true column 32.66, past the right edge
    def test_window_contains_true_column_when_shear_small(self, x, da, d):
        if abs(d * math.sin(math.radians(da))) > 1.0:
            return
        full = project_rotated_x(x, da, d, 32)
        win = trajectory_window(int(x), 5, da, 32, 32)
        wcols = {c for c, _ in win}
        # the window is clipped to the image, so it can only come within one
        # pixel of the true continuous column clipped the same way
        assert min(abs(min(max(full, 0.0), 31.0) - c) for c in wcols) <= 1.5


class TestTrajectoryWindow:
    def test_interior_identity(self):
        win = trajectory_window(5, 5, 0.0, 32, 32)
        assert len(win) == 9
        assert set(win) == {(c, r) for r in (4, 5, 6) for c in (4, 5, 6)}

    def test_corner_clipping(self):
        win = trajectory_window(0, 0, 0.0, 32, 32)
        assert set(win) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_rotated_window(self):
        win = trajectory_window(24, 7, 30.0, 32, 32)
        assert {c for c, _ in win} == {22, 23, 24}
        assert {r for _, r in win} == {6, 7, 8}

    def test_size_bounds(self):
        for x in (0, 1, 16, 30, 31):
            for y in (0, 1, 16, 30, 31):
                n = len(trajectory_window(x, y, 0.0, 32, 32))
                assert 4 <= n <= 9

    def test_out_of_bounds_pixel_rejected(self):
        with pytest.raises(ValueError):
            trajectory_window(32, 0, 0.0, 32, 32)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 31), st.integers(0, 31), angles)
    def test_mirror_symmetry(self, x, y, da):
        """Negating the angle mirrors the window about the centre column.

        The exact identity is proj(W - x, -da) = W - proj(x, da); after
        rounding the two centres may split a tie, hence the 1-pixel slack.
        """
        c_pos = round_half_away(project_rotated_x_simplified(x, da, 32))
        c_neg = round_half_away(project_rotated_x_simplified(32 - x, -da, 32))
        assert abs((32 - c_neg) - c_pos) <= 1
        win_pos = {c for c, _ in trajectory_window(x, y, da, 32, 32)}
        if 0 <= 32 - x < 32:
            win_neg = {32 - c for c, _ in
                       trajectory_window(32 - x, y, -da, 32, 32)}
            if 2 <= c_pos <= 29:  # both windows unclipped horizontally
                assert len(win_pos & win_neg) >= 2

    def test_row_kept_fixed(self):
        for da in (0.0, 30.0, -30.0, 90.0):
            rows = {r for _, r in trajectory_window(10, 9, da, 32, 32)}
            assert rows == {8, 9, 10}


class TestRounding:
    @pytest.mark.parametrize("v,want", [
        (0.5, 1), (1.5, 2), (-0.5, -1), (-1.5, -2), (2.4, 2), (-2.4, -2),
    ])
    def test_half_away_from_zero(self, v, want):
        assert round_half_away(v) == want
