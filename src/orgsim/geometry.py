"""Planar pose and angle arithmetic.

Headings are degrees in [0, 360), x/y are metres. Heading 0 points along +x
and angles grow counterclockwise; maps are read with y growing down the text,
which nobody downstream cares about as long as it stays consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CommandError


def norm_deg(a: float) -> float:
    """Normalize an angle to [0, 360)."""
    a = math.fmod(a, 360.0)
    if a < 0.0:
        a += 360.0
    # adding 360 to a denormal-scale negative rounds to exactly 360.0
    return 0.0 if a == 360.0 else a


def ang_diff_deg(a: float, b: float) -> float:
    """Signed smallest rotation from b to a, in (-180, 180]."""
    d = math.fmod(a - b, 360.0)
    if d > 180.0:
        d -= 360.0
    elif d <= -180.0:
        d += 360.0
    return d


def heading_vec(deg: float) -> tuple[float, float]:
    r = math.radians(deg)
    return math.cos(r), math.sin(r)


def rotate_vec(vx: float, vy: float, deg: float) -> tuple[float, float]:
    r = math.radians(deg)
    c, s = math.cos(r), math.sin(r)
    return vx * c - vy * s, vx * s + vy * c


@dataclass(frozen=True)
class Pose:
    """Position plus heading. Immutable; movement produces a new Pose."""

    x: float
    y: float
    heading: float = 0.0

    def __post_init__(self):
        for v in (self.x, self.y, self.heading):
            if not math.isfinite(v):
                raise CommandError(f"non-finite pose component {v!r}")
        object.__setattr__(self, "heading", norm_deg(self.heading))

    def translated(self, dx: float, dy: float) -> "Pose":
        return Pose(self.x + dx, self.y + dy, self.heading)

    def distance_to(self, other: "Pose") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def rotate_about(px: float, py: float, cx: float, cy: float, deg: float) -> tuple[float, float]:
    """Rotate point (px, py) around pivot (cx, cy) by deg degrees."""
    vx, vy = rotate_vec(px - cx, py - cy, deg)
    return cx + vx, cy + vy
