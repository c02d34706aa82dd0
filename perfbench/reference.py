"""A fixed pure-Python reference kernel that measures how fast the host runs now.

Each repetition times this kernel just before and just after each timed
section and scales the section's wall time by `NOMINAL_S / kernel time`.
The result reads as seconds on a host that runs the kernel in `NOMINAL_S`.
On a shared host, whether a vCPU shares its core with another tenant can
change over seconds, and that makes wall time swing by up to 2x. The scaling
cancels most of the swing: frozen dataclasses, dict updates, float math,
list building and string formatting slow down under contention by about as
much as the simulator does.

The kernel imports nothing from orgsim, so a change to the package does not
move it. Changing this file rescales every time the benchmark reports: it
is part of the benchmark's definition and stays fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

# kernel seconds on a quiet 2-core Xeon VM with CPython 3.11
NOMINAL_S = 0.010
STEPS = 3000        # kernel loop length
REPEATS = 3         # timings per measurement; the fastest counts


@dataclass(frozen=True)
class _Pose:
    x: float
    y: float
    heading: float


def _kernel() -> int:
    poses = {i: _Pose(i * 0.1, (i * 7 % 13) * 0.2, i * 3.0) for i in range(60)}
    lines: list[str] = []
    for k in range(STEPS):
        i = k % 60
        p = poses[i]
        h = math.radians(p.heading)
        q = _Pose(p.x + math.cos(h) * 0.01, p.y + math.sin(h) * 0.01,
                  (p.heading + 1.0) % 360)
        poses[i] = q
        near = [j for j in range(i, i + 8) if abs(poses[j % 60].x - q.x) < 3.0]
        lines.append(f"{k} {i} x={q.x!r} n={len(near)}")
        if len(lines) > 200:
            lines.sort()
            lines.clear()
    return len(lines)


def reference_s() -> float:
    """Fastest of `REPEATS` kernel timings, in seconds."""
    best = math.inf
    for _ in range(REPEATS):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best
