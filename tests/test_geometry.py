import math

import pytest
from hypothesis import given, strategies as st

from orgsim.errors import CommandError
from orgsim.geometry import (Pose, ang_diff_deg, heading_vec, norm_deg,
                             rotate_about, rotate_vec)

angles = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


@given(angles)
def test_norm_deg_range(a):
    n = norm_deg(a)
    assert 0.0 <= n < 360.0


def test_norm_deg_examples():
    assert norm_deg(360.0) == 0.0
    assert norm_deg(-90.0) == 270.0
    assert norm_deg(725.0) == pytest.approx(5.0)


@given(angles, angles)
def test_ang_diff_is_signed_and_half_open(a, b):
    d = ang_diff_deg(a, b)
    assert -180.0 < d <= 180.0
    # adding the difference back lands on the same direction
    assert math.isclose(norm_deg(b + d), norm_deg(a), abs_tol=1e-6) or \
        math.isclose(abs(norm_deg(b + d) - norm_deg(a)), 360.0, abs_tol=1e-6)


def test_ang_diff_examples():
    assert ang_diff_deg(10.0, 350.0) == pytest.approx(20.0)
    assert ang_diff_deg(350.0, 10.0) == pytest.approx(-20.0)
    assert ang_diff_deg(180.0, 0.0) == 180.0
    assert ang_diff_deg(0.0, 180.0) == 180.0  # half-open: +180, never -180


def test_heading_vec_cardinals():
    for deg, expect in [(0, (1, 0)), (90, (0, 1)), (180, (-1, 0)), (270, (0, -1))]:
        vx, vy = heading_vec(deg)
        assert vx == pytest.approx(expect[0], abs=1e-12)
        assert vy == pytest.approx(expect[1], abs=1e-12)


@given(st.floats(-100, 100), st.floats(-100, 100), angles)
def test_rotation_preserves_length(vx, vy, deg):
    rx, ry = rotate_vec(vx, vy, deg)
    assert math.hypot(rx, ry) == pytest.approx(math.hypot(vx, vy), abs=1e-6)


def test_rotate_about_quarter_turn():
    assert rotate_about(2.0, 1.0, 1.0, 1.0, 90.0) == pytest.approx((1.0, 2.0))


def test_pose_normalizes_heading_and_rejects_nan():
    assert Pose(0, 0, -90).heading == 270.0
    with pytest.raises(CommandError):
        Pose(float("nan"), 0, 0)
    with pytest.raises(CommandError):
        Pose(0, float("inf"), 0)


def test_pose_translate_and_distance():
    p = Pose(1.0, 2.0, 45.0)
    q = p.translated(3.0, 4.0)
    assert (q.x, q.y, q.heading) == (4.0, 6.0, 45.0)
    assert p.distance_to(q) == pytest.approx(5.0)
    assert Pose(p.x, p.y, 400.0).heading == pytest.approx(40.0)
