"""Per-layer tracing of one run, done entirely from outside the package.

The tracer replaces the functions `orgsim.harness` calls into with timing
wrappers, under the names the harness itself uses (for example
`orgsim.harness.guard_action`), and wraps the methods of the one
`Simulation` a run builds on that instance only (`sim._phase_decide`,
`sim.arena.line_of_sight`). Nothing under `src/` is edited, and
`uninstall` puts every original back.

Each wrapper keeps a call count and a self time: its own duration minus the
time of wrapped calls made inside it. Deeper layers are kept only as these
sums; the eight phases also keep one span per tick, in memory, and the spans
are written out once the run has ended.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import orgsim.harness as harness
from orgsim.control import Rejected

PHASES = ("schedule", "sense", "decide", "execute", "docking", "energy",
          "death", "metrics")

# harness-level name -> layer metric prefix
_MODULE_FUNCTIONS = {
    "sense_sockets": "world.sense_sockets",
    "step_controllers": "control.step_controllers",
    "select_action": "control.select_action",
    "guard_action": "control.guard_action",
    "locomotion_step": "robot_model.locomotion_step",
    "actuate_joint": "robot_model.actuate_joint",
    "organism_move": "organism.organism_move",
    "reach_height": "organism.reach_height",
    "advance_dock": "docking.advance_dock",
    "attempt_align": "docking.attempt_align",
    "drain": "energy.drain",
    "recharge": "energy.recharge",
    "share_energy": "energy.share_energy",
}


def _guard_outcome(args, result):
    if isinstance(result, Rejected):
        return "rejected_" + result.reason
    return "admitted"


def _blocked_outcome(args, result):
    return "blocked" if result.blocked else None


def _granted_outcome(args, result):
    return "granted" if result.granted else None


_OUTCOMES = {
    "guard_action": _guard_outcome,
    "organism_move": _blocked_outcome,
    "recharge": _granted_outcome,
}


class Tracer:
    """Wrappers, their sums, and the record needed to undo them."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.outcomes: Counter[str] = Counter()
        self.phase_spans: list[tuple[int, str, float, float]] = []
        self.log_lines = 0
        self._stack: list[float] = []      # child time of each open span
        self._patched: list[tuple[object, str, object]] = []
        self._instances: list[tuple[object, str]] = []
        self._los_seen: set = set()
        self.sim = None

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, outcome=None):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        outcomes = self.outcomes

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self_s[name] += elapsed - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if outcome is not None:
                label = outcome(args, return_value)
                if label is not None:
                    outcomes[f"{name}.{label}"] += 1
            return return_value

        return traced

    def _wrap_phase(self, sim, phase: str, fn):
        name = f"harness.phase_{phase}"
        timed = self.wrap(name, fn)
        spans = self.phase_spans

        def traced(*args):
            t0 = perf_counter()
            result = timed(*args)
            spans.append((sim.tick, phase, t0, perf_counter()))
            return result

        return traced

    def _los_outcome(self, args, result):
        a, b = args
        key = (a, b) if a <= b else (b, a)
        if key in self._los_seen:
            return None
        self._los_seen.add(key)
        return "miss"

    def _set_on_instance(self, obj, attr: str, value) -> None:
        setattr(obj, attr, value)
        self._instances.append((obj, attr))

    def _trace_simulation(self, sim) -> None:
        for phase in PHASES:
            attr = f"_phase_{phase}"
            self._set_on_instance(
                sim, attr, self._wrap_phase(sim, phase, getattr(sim, attr)))
        self._set_on_instance(sim, "_observe",
                              self.wrap("harness.observe", sim._observe))
        self._set_on_instance(
            sim, "_invariant_scan",
            self.wrap("harness.invariant_scan", sim._invariant_scan))
        self._set_on_instance(
            sim.arena, "line_of_sight",
            self.wrap("world.line_of_sight", sim.arena.line_of_sight,
                      self._los_outcome))
        self._set_on_instance(sim.log, "save",
                              self.wrap("harness.log_save", sim.log.save))
        self.sim = sim

    def _patch(self, attr: str, value) -> None:
        self._patched.append((harness, attr, getattr(harness, attr)))
        setattr(harness, attr, value)

    def install(self) -> None:
        """Wrap the harness's imported functions and its Simulation class."""
        for attr, name in _MODULE_FUNCTIONS.items():
            self._patch(attr, self.wrap(name, getattr(harness, attr),
                                        _OUTCOMES.get(attr)))

        build_controllers = harness.build_controllers

        def traced_build_controllers(names, *args, **kwargs):
            built = build_controllers(names, *args, **kwargs)
            return {name: self.wrap(f"behaviors.{name}", fn)
                    for name, fn in built.items()}

        self._patch("build_controllers", traced_build_controllers)

        simulation = harness.Simulation

        def traced_simulation(*args, **kwargs):
            sim = simulation(*args, **kwargs)
            self._trace_simulation(sim)
            return sim

        self._patch("Simulation", traced_simulation)

    def uninstall(self) -> bool:
        """Undo every wrapper; True when nothing traced is left behind."""
        if self.sim is not None:
            self.log_lines = len(self.sim.log.lines)
        for obj, attr in reversed(self._instances):
            delattr(obj, attr)
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        restored = all(getattr(module, attr) is original
                       for module, attr, original in self._patched)
        restored = restored and not any(attr in vars(obj)
                                        for obj, attr in self._instances)
        self.sim = None
        return restored and not self._stack

    # -- results ----------------------------------------------------------

    def tick_times_s(self) -> list[float]:
        """Time inside the eight phase spans of each tick."""
        per_tick: defaultdict[int, float] = defaultdict(float)
        for tick, _, start, end in self.phase_spans:
            per_tick[tick] += end - start
        return [per_tick[t] for t in sorted(per_tick)]

    def write_spans(self, path: Path) -> None:
        t0 = self.phase_spans[0][2] if self.phase_spans else 0.0
        path.write_text(json.dumps({
            "fields": ["tick", "phase", "start_s", "end_s"],
            "phase_spans": [[tick, phase, start - t0, end - t0]
                            for tick, phase, start, end in self.phase_spans],
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "outcomes": dict(self.outcomes),
        }))


def _nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(part: int, whole: int) -> float:
    """A share of calls; 0.0 when there were no calls to share."""
    return part / whole if whole else 0.0


def layer_metrics(tr: Tracer, run_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric one traced run yields, as (value, unit)."""
    out: dict[str, tuple[float, str]] = {}

    def timed(name: str, key: str | None = None, calls: bool = True) -> None:
        key = key or name
        if calls:
            out[f"{name}.calls"] = (tr.calls[key], "count")
        out[f"{name}.self_s"] = (tr.self_s[key], "s")

    for phase in PHASES:
        timed(f"harness.phase_{phase}", calls=False)
    ticks = tr.tick_times_s() or [0.0]
    out["harness.tick.p50_us"] = (_nearest_rank(ticks, 0.50) * 1e6, "us")
    out["harness.tick.p99_us"] = (_nearest_rank(ticks, 0.99) * 1e6, "us")
    timed("harness.observe")
    timed("harness.invariant_scan", calls=False)
    out["harness.log.lines"] = (tr.log_lines, "count")
    out["harness.log_save_s"] = (tr.self_s["harness.log_save"], "s")

    los = "world.line_of_sight"
    timed(los)
    out[f"{los}.hit_ratio"] = (
        _ratio(tr.calls[los] - tr.outcomes[f"{los}.miss"], tr.calls[los]),
        "ratio")
    timed("world.sense_sockets")

    timed("control.step_controllers")
    timed("control.select_action", calls=False)
    guard = "control.guard_action"
    timed(guard)
    out[f"{guard}.admit_ratio"] = (
        _ratio(tr.outcomes[f"{guard}.admitted"], tr.calls[guard]), "ratio")
    for reason in ("collision", "overload", "protocol"):
        out[f"{guard}.rejected_{reason}"] = (
            tr.outcomes[f"{guard}.rejected_{reason}"], "count")

    for behavior in ("explore", "seek_energy", "aggregate", "disposal"):
        timed(f"behaviors.{behavior}")
    timed("robot_model.locomotion_step")
    timed("robot_model.actuate_joint")

    move = "organism.organism_move"
    timed(move)
    out[f"{move}.blocked_ratio"] = (
        _ratio(tr.outcomes[f"{move}.blocked"], tr.calls[move]), "ratio")
    timed("organism.reach_height")
    timed("docking.advance_dock")
    timed("docking.attempt_align")

    timed("energy.drain")
    charge = "energy.recharge"
    timed(charge)
    out[f"{charge}.granted_ratio"] = (
        _ratio(tr.outcomes[f"{charge}.granted"], tr.calls[charge]), "ratio")
    timed("energy.share_energy")

    in_phases = sum(end - start for _, _, start, end in tr.phase_spans)
    out["trace.phase_coverage_ratio"] = (in_phases / run_s, "ratio")
    return out
