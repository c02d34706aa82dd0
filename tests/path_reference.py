"""Reference sampler for the swept-path rule.

`reference_path_clear` is the plain loop over a terrain function: sample
the segment at t = i / steps for i = 1..steps, with steps = max(1,
ceil(length / 0.05 m)), and block on a sample that is off the arena (None)
or on terrain outside `passable`. `world.Arena.path_clear` must give the
same answer as this loop over `arena.terrain_at`. `sampled` turns a
terrain-function fake into the `path_clear(x0, y0, x1, y1, passable)`
callable that the motion code and the guard take.
"""

import math

PATH_SAMPLE_STEP = 0.05


def reference_path_clear(x0, y0, x1, y1, passable, terrain_at) -> bool:
    dist = math.hypot(x1 - x0, y1 - y0)
    steps = max(1, math.ceil(dist / PATH_SAMPLE_STEP))
    for i in range(1, steps + 1):
        t = i / steps
        terrain = terrain_at(x0 + (x1 - x0) * t, y0 + (y1 - y0) * t)
        if terrain is None or terrain not in passable:
            return False
    return True


def sampled(terrain_at):
    """The path_clear callable that samples `terrain_at` the reference way."""
    def path_clear(x0, y0, x1, y1, passable):
        return reference_path_clear(x0, y0, x1, y1, passable, terrain_at)
    return path_clear
