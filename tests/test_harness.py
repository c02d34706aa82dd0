"""Run harness: event log, determinism, replay verification, CLI, sweeps."""

import dataclasses
import gc
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from orgsim import cli, harness, sensing
from orgsim.config import (ROSTER_ORDER, load_scenario, load_scenario_file,
                           validate_scenario)
from orgsim.behaviors import REGISTRY
from orgsim.control import (ActionProposal, Actuate, Dock, Drive,
                            InteractionChannel, InternalChannel, LocalChannel,
                            Observation, Recharge, SelfChannel,
                            ToggleCoprocessor)
from orgsim.docking import FACES, DockPhase, Face, undock
from orgsim.errors import (ConfigError, FrameworkError, InvariantBreach,
                           ReplayError)
from orgsim.eventlog import PartialFile, drop
from orgsim.geometry import Pose
from orgsim.harness import (EventLog, RunMetrics, Simulation, replay_file,
                            replay_log, run_scenario, sweep)
from orgsim.organism import reach_height
from orgsim.rng import _BLOCK, Rng, fnv1a64
from orgsim.robot_model import Health, ModuleClass, make_module_spec, to_pj
from orgsim.sensing import SensedModule, SensedModules
from orgsim.world import SensedSocket, TerrainClass, parse_arena
from tests.pinned_runs import (COLONY, CROWD, DESK_DAY, DISPOSAL_OPEN,
                               HAZARD_BLOCKS, IDLE_FIELD)

ROOM_MAP = """\
cellsize 0.25
########
#......#
#......#
#GG....#
########
socket 0 1 1 0.3 20
socket 1 6 2 0.3 15
"""

ROOM_SCENARIO = """\
[run]
days = 1
dt = 10
seed = 7

[energy]
hazard_rate = 0.002
credit_log = yes

[schedule]
mode = rotating
active_count = 1
dwell_min = 30
dwell_max = 60

[roster]
scout = 2
backbone = 1
active_wheel = 1

[controllers]
all = seek_energy, explore

[sensing]
range_m = 4
radio_range_m = 6
"""

CORRIDOR_MAP = "\n".join(["#" * 64, "#" + "." * 62 + "#", "#" * 64]) + "\n"


def room_cfg():
    return load_scenario(ROOM_SCENARIO, map_text=ROOM_MAP)


def corridor_cfg(extra=""):
    text = "[spawns]\nmode = fixed\n0 = 0.5 0.375 0\n[roster]\nscout = 1\n"
    return load_scenario(text + extra, map_text=CORRIDOR_MAP)


# -- event log ------------------------------------------------------------


def test_log_digest_folds_every_line_with_newline():
    log = EventLog()
    log.raw("# header")
    log.event(3, 7, "death", cause="energy", battery=0.25, carried=True)
    log.event(4, -1, "socket", id=2, active=False)
    assert log.lines == [
        "# header",
        "3 7 death cause=energy battery=0.25 carried=1",
        "4 -1 socket id=2 active=0",
    ]
    oracle = fnv1a64("")
    for line in log.lines:
        oracle = fnv1a64(line + "\n", oracle)
    whole = "".join(line + "\n" for line in log.lines)
    assert log.digest == f"{oracle:016x}" == f"{fnv1a64(whole):016x}"
    assert log.event_count == 2   # raw lines are not events


def test_log_save_round_trips(tmp_path):
    log = EventLog()
    log.raw("alpha")
    log.raw("beta")
    log.save(tmp_path / "events.log")
    assert (tmp_path / "events.log").read_text() == "alpha\nbeta\n"


def test_float_fields_use_repr_not_str():
    log = EventLog()
    log.event(1, 0, "x", v=0.1 + 0.2)
    assert log.lines[0] == "1 0 x v=0.30000000000000004"


def test_a_log_streaming_to_a_file_keeps_no_lines(tmp_path):
    part, saved = tmp_path / "out" / "events.log.part", tmp_path / "out" / "events.log"
    handed = []
    with PartialFile(part, saved) as file:
        def write(data):
            handed.append(data)
            file.write(data)
        log = EventLog(write)
        assert not part.parent.exists()    # nothing is made before a line
        log.raw("# scenario wüste")
        log.event(1, 0, "x", v=0.5)
        assert log.lines == [] and part.exists()
    # the digest covers exactly the bytes handed to the writer
    assert handed == ["# scenario wüste\n".encode("utf-8"), b"1 0 x v=0.5\n"]
    data = b"".join(handed)
    assert saved.read_bytes() == data
    assert log.digest == f"{fnv1a64(data):016x}"
    assert not part.exists()


def test_a_discarded_log_leaves_no_file_and_a_dropped_log_no_lines(tmp_path):
    part, saved = tmp_path / "events.log.part", tmp_path / "events.log"
    with pytest.raises(RuntimeError, match="boom"):
        with PartialFile(part, saved) as file:
            EventLog(file.write).raw("alpha")
            raise RuntimeError("boom")
    assert list(tmp_path.iterdir()) == []
    with PartialFile(part, saved):         # no line, no file
        pass
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(InvariantBreach):   # a breach keeps what was written
        with PartialFile(part, saved) as file:
            EventLog(file.write).raw("alpha")
            raise InvariantBreach(1, "demo")
    assert [p.name for p in tmp_path.iterdir()] == ["events.log"]
    assert saved.read_bytes() == b"alpha\n"
    dropped, kept = EventLog(drop), EventLog()
    for each in (dropped, kept):
        each.raw("alpha")
        each.event(2, 1, "death", cause="energy")
    assert dropped.lines == [] and len(kept.lines) == 2
    assert (dropped.digest, dropped.event_count) == (kept.digest, 1)


# -- determinism ----------------------------------------------------------


def test_same_seed_same_digest():
    a = Simulation(room_cfg()).run(150)
    b = Simulation(room_cfg()).run(150)
    assert a.digest == b.digest
    assert a.events == b.events
    assert (a.survivors, a.deaths_energy, a.deaths_hardware) == \
           (b.survivors, b.deaths_energy, b.deaths_hardware)
    assert (a.drawn_j, a.charged_j, a.consumed_j, a.stored_j) == \
           (b.drawn_j, b.charged_j, b.consumed_j, b.stored_j)
    assert a.residual_j == b.residual_j == 0.0


def test_seed_override_changes_the_run():
    a = run_scenario(room_cfg(), seed=1, ticks=60)
    b = run_scenario(room_cfg(), seed=2, ticks=60)
    assert a.seed == 1 and b.seed == 2
    assert a.digest != b.digest


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("scenario, seed, ticks, pinned",
                         [COLONY, CROWD, IDLE_FIELD])
def test_bundled_runs_reproduce_their_pinned_digests(scenario, seed, ticks,
                                                     pinned):
    # docking, sensing, motion and energy all feed the digest, so a
    # refactor that shifts any of them by one bit shows up here
    cfg = load_scenario_file(CONFIG_DIR / f"{scenario}.cfg")
    metrics = Simulation(cfg, seed).run(ticks)
    assert [metrics.digest, metrics.events] == pinned
    assert metrics.residual_j == 0.0


@pytest.mark.slow
@pytest.mark.parametrize("run", DESK_DAY, ids=lambda run: f"seed{run.seed}")
def test_a_day_of_desk_challenge_reproduces_its_pin(run):
    metrics = Simulation(run.load(), run.seed).run(run.ticks)
    assert [metrics.digest, metrics.events] == run.pinned
    assert metrics.residual_j == 0.0


def _hazard_blocks_cfg():
    # survival_zero with batteries that outlast some hazards: five hazard
    # deaths from tick 554 on, five energy deaths from tick 1998 on, and
    # about 15k hazard draws, so nearly four blocks of them
    cfg = HAZARD_BLOCKS.load()
    return dataclasses.replace(
        cfg, hazard_rate=0.0003,
        module_overrides={**cfg.module_overrides, "battery_capacity": 12000})


def test_a_run_over_several_hazard_blocks_reproduces_its_pin(monkeypatch):
    blocks = []
    hits = Rng.hits

    def counted(rng, n, p):
        blocks.append(n)
        return hits(rng, n, p)

    monkeypatch.setattr(Rng, "hits", counted)
    metrics = Simulation(_hazard_blocks_cfg(),
                         HAZARD_BLOCKS.seed).run(HAZARD_BLOCKS.ticks)
    assert blocks == [_BLOCK] * 4
    # pinned from drawing one module at a time, before the draws came in
    # blocks
    assert [metrics.digest, metrics.events] == HAZARD_BLOCKS.pinned
    assert metrics.residual_j == 0.0


def test_the_live_roster_is_every_live_module_after_each_tick():
    sim = Simulation(_hazard_blocks_cfg(), 7)
    death = sim._phase_death

    def death_and_check():
        death()
        want = [st for st in sim.states.values() if st.health is Health.OK]
        assert len(sim._live) == len(want)
        assert all(a is b for a, b in zip(sim._live, want))

    sim._phase_death = death_and_check
    metrics = sim.run(2200)
    assert metrics.deaths_energy == 5 and metrics.deaths_hardware == 5
    assert sim._live == []


def _sensed_from_scratch(sim, i):
    """Module i's sensed modules and sockets, recomputed with no cache."""
    arena = sim.arena
    range_m = sim.cfg.sensing_range_m
    pose = sim.states[i].pose
    origin = arena.cell_of(pose.x, pose.y)
    modules = []
    for j, other in sim.states.items():
        d = pose.distance_to(other.pose)
        if (j != i and d <= range_m and arena._trace(
                origin, arena.cell_of(other.pose.x, other.pose.y))):
            modules.append(SensedModule(j, other.module_class, other.pose,
                                        other.health, d))
    sockets = []
    for s in arena.sockets:
        px, py = arena.cell_center(*s.cell)
        d = pose.distance_to(Pose(px, py))
        if d <= range_m and arena._trace(origin, s.cell):
            sockets.append(SensedSocket(s.id, (px, py),
                                        sim.socket_active[s.id], s.rating, d,
                                        s.height, s.approach_deg))
    return tuple(modules), tuple(sockets)


@pytest.mark.parametrize("scenario, seed, ticks, dwell", [
    ("full_scale", 42, 20, None),
    ("desk_challenge", 11, 200, (2, 5)),
    ("disposal_open", 3, 432, None),
    # the one bundled map with walls between its modules: a read asks the
    # arena about pairs whose rectangle holds walls
    ("disposal_walled", 3, 432, None),
    ("survival_zero", 7, 500, None),
])
def test_incremental_sensing_matches_a_fresh_scan(scenario, seed, ticks,
                                                  dwell):
    cfg = load_scenario_file(CONFIG_DIR / f"{scenario}.cfg")
    if dwell is not None:
        # short dwells toggle sockets every few ticks, so cached socket
        # readings of modules that stand still must be refreshed too
        cfg = dataclasses.replace(cfg, dwell_min=dwell[0], dwell_max=dwell[1])
    sim = Simulation(cfg, seed)
    observe = sim._observe
    checked = []

    def observe_and_check(i, delivered):
        obs = observe(i, delivered)
        modules, sockets = _sensed_from_scratch(sim, i)
        assert tuple(obs.local.modules.select()) == modules, (sim.tick, i)
        assert obs.local.sockets == sockets, (sim.tick, i)
        checked.append(sim.tick)
        return obs

    sim._observe = observe_and_check
    sim.run(ticks)
    # every tick is checked until the last observer dies
    assert set(checked) == set(range(1, max(checked) + 1))
    assert max(checked) == ticks or not sim._sight.observers
    if dwell is not None:
        toggles = sum(" socket " in line for line in sim.log.lines)
        assert toggles > 20


@pytest.mark.parametrize("scenario, seed, ticks, dwell, kept_ticks", [
    ("full_scale", 42, 20, None, (1, 6, 13)),
    ("desk_challenge", 11, 200, (2, 5), (3, 47, 120)),
    ("survival_zero", 7, 400, None, (300, 306)),
])
def test_an_observation_is_a_snapshot_of_its_tick(scenario, seed, ticks,
                                                  dwell, kept_ticks):
    # observations kept from earlier ticks must keep reading those ticks'
    # poses, health and distances while poses and health move on
    # (survival_zero: every observer dies from tick 307)
    cfg = load_scenario_file(CONFIG_DIR / f"{scenario}.cfg")
    if dwell is not None:
        cfg = dataclasses.replace(cfg, dwell_min=dwell[0], dwell_max=dwell[1])
    sim = Simulation(cfg, seed)
    observe = sim._observe
    kept = []

    def observe_and_keep(i, delivered):
        obs = observe(i, delivered)
        if sim.tick in kept_ticks:
            kept.append((sim.tick, i, obs, _sensed_from_scratch(sim, i)))
        return obs

    sim._observe = observe_and_keep
    sim.run(ticks)
    assert {t for t, *_ in kept} == set(kept_ticks)
    ids = range(len(sim.states))
    for t, i, obs, (modules, sockets) in kept:
        view = obs.local.modules
        by_id = {m.id: m for m in modules}
        assert [view.get(j) for j in ids] == [by_id.get(j) for j in ids], (t, i)
        assert tuple(view.select()) == modules, (t, i)
        assert obs.local.sockets == sockets, (t, i)


@pytest.mark.parametrize("scenario, seed, ticks, dwell", [
    ("full_scale", 42, 20, None),
    ("desk_challenge", 11, 300, (2, 5)),
])
def test_a_local_channel_goes_out_again_only_while_nothing_it_reads_changed(
        scenario, seed, ticks, dwell):
    # the memo keys of the stock controllers rest on this: the sight hands
    # an observer last phase's local channel again exactly when no module
    # moved or died and no socket toggled, and that channel then senses
    # what last phase's did (short dwells toggle sockets every few ticks)
    cfg = load_scenario_file(CONFIG_DIR / f"{scenario}.cfg")
    if dwell is not None:
        cfg = dataclasses.replace(cfg, dwell_min=dwell[0], dwell_max=dwell[1])
    sim = Simulation(cfg, seed)
    observe = sim._observe
    last = {}
    seen = {"again": 0, "anew on a toggle alone": 0}

    def observe_and_check(i, delivered):
        obs = observe(i, delivered)
        local = obs.local
        now = (sim.tick, local, tuple(local.modules.select()), local.sockets,
               [st.pose for st in sim.states.values()],
               sim.deaths_energy + sim.deaths_hardware,
               tuple(sim.socket_active.values()))
        before, last[i] = last.get(i), now
        if before is None:
            return obs
        assert before[0] == sim.tick - 1
        moved = any(a is not b for a, b in zip(now[4], before[4]))
        died, toggled = now[5] != before[5], now[6] != before[6]
        again = local is before[1]
        assert again is not (moved or died or toggled), (sim.tick, i)
        if again:
            seen["again"] += 1
            assert now[2] == before[2] and now[3] == before[3], (sim.tick, i)
        elif toggled and not (moved or died):
            seen["anew on a toggle alone"] += 1
        return obs

    sim._observe = observe_and_check
    sim.run(ticks)
    assert seen["again"] > 0
    if dwell is not None:
        assert seen["anew on a toggle alone"] > 0


def test_a_refresh_after_a_move_drops_the_last_phase_s_channels(
        monkeypatch):
    # a refresh that finds a moved module drops every local channel, and
    # with it every view: the sight then reaches nothing of the last decide
    # phase. Refcounts alone must free them, so the collector is off. What
    # may still hold one is an observation a controller keeps, which still
    # reads its own tick's distances, or a memo key, which holds the local
    # channel its controller last read
    class TrackedChannel:
        # LocalChannel's fields: a named tuple takes no weak reference
        __slots__ = LocalChannel._fields + ("__weakref__",)

        def __init__(self, *fields):
            for name, value in zip(LocalChannel._fields, fields):
                setattr(self, name, value)

    class TrackedView(SensedModules):
        __slots__ = ("__weakref__",)

    monkeypatch.setattr(sensing, "LocalChannel", TrackedChannel)
    monkeypatch.setattr(sensing, "SensedModules", TrackedView)
    sim = Simulation(CROWD.load(), CROWD.seed)
    keeper = min(i for i, ctls in sim.controllers.items() if ctls)
    kept = []

    def keep(obs):
        if obs.internal.tick == 3:
            kept.append((obs, _sensed_from_scratch(sim, keeper)[0]))

    sim.controllers[keeper]["keep"] = keep
    this_phase = []                 # weak references, never strong ones
    checked = []
    refresh = sensing.Sight.refresh

    def refresh_and_check(sight, states, sense_sockets):
        nonlocal this_phase
        moved = any(st.pose is not sight.table[j][1]
                    for j, st in states.items())
        last_phase, this_phase = this_phase, []
        alive = refresh(sight, states, sense_sockets)
        if moved and last_phase:
            keeps = [o for obs, _ in kept for o in (obs.local, obs.local.modules)]
            keeps += [o for ctls in sim.controllers.values()
                      for ctl in ctls.values()
                      for local in getattr(ctl, "_key", None) or ()
                      if type(local) is TrackedChannel
                      for o in (local, local.modules)]
            held = [ref() for ref in last_phase]
            assert all(o is None or any(o is k for k in keeps)
                       for o in held), sim.tick
            checked.append(sim.tick)
        return alive

    monkeypatch.setattr(sensing.Sight, "refresh", refresh_and_check)
    observe = sim._observe

    def observe_and_track(i, delivered):
        obs = observe(i, delivered)
        this_phase.append(weakref.ref(obs.local))
        this_phase.append(weakref.ref(obs.local.modules))
        return obs

    sim._observe = observe_and_track
    gc.disable()
    try:
        metrics = sim.run(CROWD.ticks)
    finally:
        gc.enable()
    assert [metrics.digest, metrics.events] == CROWD.pinned
    assert checked == [2, 3, 4, 5, 6, 7, 8, 9], checked
    [(obs, modules)] = kept
    view, by_id = obs.local.modules, {m.id: m for m in modules}
    ids = range(len(sim.states))
    assert len(view) == len(modules) > 10
    assert [view.get(j) for j in ids] == [by_id.get(j) for j in ids]
    assert tuple(view.select()) == modules


def _observation_from_scratch(sim, i, delivered):
    """Module i's observation with every channel built anew from the run."""
    st = sim.states[i]
    arena = sim.arena
    cs = arena.cell_size
    modules, sockets = _sensed_from_scratch(sim, i)
    yard = None
    if arena.graveyard is not None:
        x0, y0, x1, y1 = arena.graveyard
        yard = (x0 * cs, y0 * cs, (x1 + 1) * cs, (y1 + 1) * cs)
    org = sim.registry.organism_of(i)
    ports = st.ports
    return Observation(
        SelfChannel(i, st.module_class, st.pose, st.battery_fraction,
                    st.health, tuple(st.joint_angles), st.coprocessor_on,
                    st.carried),
        LocalChannel(arena.terrain_at(st.pose.x, st.pose.y), sockets, modules,
                     (arena.width * cs, arena.height * cs), yard),
        InteractionChannel(
            tuple(p.face.value for p in ports if p.phase is DockPhase.DOCKED),
            tuple(p.phase.value for p in ports),
            tuple((p.peer.owner, p.peer.face.value) if p.peer is not None
                  else None for p in ports),
            None if org is None else org.id,
            1 if org is None else len(org.nodes),
            (sim.specs[i].edge_length if org is None
             else reach_height(org, sim.specs)),
            tuple(delivered.get(i, ()))),
        InternalChannel(sim.tick, sim.cfg.dt,
                        sum(len(v) for v in delivered.values()),
                        sim._mailboxes[i]))


def _chatter(obs):
    # posts to module 3 every seventh tick, so module 3's interaction
    # channel carries a message on the next tick and none on the one after
    if obs.internal.tick % 7 == 0:
        obs.internal.outbox.post(3, "ping", (obs.internal.tick,))
    return None


# scenario, seed, ticks, config changes, whether module 0 chatters
REUSE_RUNS = [
    ("desk_challenge", 11, 300, {"dwell_min": 2, "dwell_max": 5}, True),
    ("disposal_open", 3, 432, {}, False),
    ("disposal_walled", 3, 432, {}, False),
    ("full_scale", 42, 20, {}, False),
    ("hazard_field", 0, 5, {"controllers_all": ["seek_energy"],
                            "hazard_rate": 0.02}, False),
    ("survival_ample", 1, 300, {"hazard_rate": 0.002}, False),
    ("survival_zero", 7, 400, {}, False),
]


def test_reused_observation_channels_equal_fresh_ones():
    # on every bundled scenario each observation, its reused channels
    # included, must equal one built anew field by field; together the runs
    # cover every event after which a reused channel could go stale
    assert sorted(r[0] for r in REUSE_RUNS) == sorted(
        p.stem for p in CONFIG_DIR.glob("*.cfg"))
    seen = {"local reused": 0, "local built": 0, "interaction reused": 0,
            "interaction built": 0, "messages": 0}
    events = {"merge": 0, "split": 0, "tow=1": 0, "socket": 0,
              "cause=energy": 0, "cause=hazard": 0}
    for scenario, seed, ticks, changes, chatter in REUSE_RUNS:
        cfg = dataclasses.replace(
            load_scenario_file(CONFIG_DIR / f"{scenario}.cfg"), **changes)
        sim = Simulation(cfg, seed)
        if chatter:
            sim.controllers[0]["chatter"] = _chatter
        observe = sim._observe
        last = {}
        ids = range(len(sim.states))

        def observe_and_check(i, delivered):
            obs = observe(i, delivered)
            fresh = _observation_from_scratch(sim, i, delivered)
            by_id = {m.id: m for m in fresh.local.modules}
            view = obs.local.modules
            assert [view.get(j) for j in ids] == [by_id.get(j) for j in ids]
            for channel in Observation._fields:
                got, want = getattr(obs, channel), getattr(fresh, channel)
                for field in type(want)._fields:
                    value = getattr(got, field)
                    if isinstance(value, SensedModules):
                        value = tuple(value.select())
                    assert value == getattr(want, field), (
                        scenario, sim.tick, i, channel, field)
            local, interaction = last.get(i, (None, None))
            seen["local reused" if obs.local is local
                 else "local built"] += 1
            seen["interaction reused" if obs.interaction is interaction
                 else "interaction built"] += 1
            seen["messages"] += len(obs.interaction.messages)
            last[i] = obs.local, obs.interaction
            return obs

        sim._observe = observe_and_check
        sim.run(ticks)
        for line in sim.log.lines[1:]:
            fields = line.split()
            for key in events:
                events[key] += key in fields[2:]
        events["socket"] -= sum(line.startswith("0 -1 socket ")
                                for line in sim.log.lines)
    assert all(events.values()), events
    assert all(seen.values()), seen


def test_a_docking_change_rebuilds_only_its_modules_interaction_channels():
    # after a docking phase that changed some port, a module outside the
    # changed pairings and their organisms, with no messages this tick or
    # last, hands out last tick's interaction channel again; a module whose
    # own ports or organism changed gets a new one
    cfg = load_scenario_file(CONFIG_DIR / "full_scale.cfg")
    sim = Simulation(cfg, 42)
    n = len(sim.states)
    observe, docking = sim._observe, sim._phase_docking
    last = {}
    changed, touched = set(), set()
    counts = {"changed ticks": 0, "kept": 0, "rebuilt": 0}

    def snapshot():
        return ([tuple(p.phase for p in sim.states[i].ports) for i in range(n)],
                [sim.registry.organism_of(i) for i in range(n)])

    def docking_and_record():
        phases, orgs = snapshot()
        docking()
        phases_after, orgs_after = snapshot()
        changed.clear()
        touched.clear()
        for i in range(n):
            if orgs[i] is not orgs_after[i]:
                changed.add(i)
            if phases[i] != phases_after[i]:
                changed.add(i)
                for org in (orgs[i], orgs_after[i]):
                    touched.update(org.nodes if org is not None else ())
        touched.update(changed)
        counts["changed ticks"] += bool(changed)

    def observe_and_check(i, delivered):
        obs = observe(i, delivered)
        before = last.get(i)
        if i in changed:
            assert obs.interaction is not before, (sim.tick, i)
            counts["rebuilt"] += 1
        elif (changed and before is not None and i not in touched
                and not before.messages and not obs.interaction.messages):
            assert obs.interaction is before, (sim.tick, i)
            counts["kept"] += 1
        last[i] = obs.interaction
        return obs

    sim._observe = observe_and_check
    sim._phase_docking = docking_and_record
    sim.run(20)
    assert sim.merges > 0
    assert all(counts.values()), counts


def test_attempt_align_is_asked_once_per_aligning_advance(monkeypatch):
    # advance_dock reads `aligned` only while a pair is aligning, so the
    # docking phase asks attempt_align then and only then
    cfg = load_scenario_file(CONFIG_DIR / "full_scale.cfg")
    sim = Simulation(cfg, 42)
    asked = []
    advances = {"aligning": 0, "other": 0}
    align, advance = harness.attempt_align, harness.advance_dock

    def counting_align(*args):
        asked.append(args)
        return align(*args)

    def counting_advance(port_a, port_b, inp, **kw):
        aligning = port_a.phase is DockPhase.ALIGNING
        advances["aligning" if aligning else "other"] += 1
        assert len(asked) == aligning, (sim.tick, port_a.phase)
        asked.clear()
        return advance(port_a, port_b, inp, **kw)

    monkeypatch.setattr(harness, "attempt_align", counting_align)
    monkeypatch.setattr(harness, "advance_dock", counting_advance)
    sim.run(20)
    assert not asked
    assert advances == {"aligning": 65, "other": 195}


def test_a_split_rebuilds_the_interaction_channel_of_every_former_member():
    # full_scale forms trees of up to 14 modules but splits none in 20
    # ticks, so one module undocks a bridge of the largest tree during the
    # execute phase of tick 15, as an Undock action would; the next tick,
    # every former member reads its new organism, the pair's owners and
    # the modules that only lost their organism alike
    cfg = load_scenario_file(CONFIG_DIR / "full_scale.cfg")
    sim = Simulation(cfg, 42)
    execute, observe = sim._phase_execute, sim._observe
    members = set()
    checked = []

    def execute_and_undock(selected):
        execute(selected)
        if sim.tick == 15:
            org = max(sim.registry.organisms.values(),
                      key=lambda o: (len(o.nodes), -o.id))
            assert len(org.nodes) >= 3 and len(org.edges) == len(org.nodes) - 1
            members.update(org.nodes)
            (owner, face), _ = sorted(org.edges)[0]
            undock(sim.states[owner].port(Face(face)))

    def observe_and_check(i, delivered):
        obs = observe(i, delivered)
        if sim.tick == 16 and i in members:
            fresh = _observation_from_scratch(sim, i, delivered)
            assert obs.interaction == fresh.interaction, i
            checked.append(i)
        return obs

    sim._phase_execute = execute_and_undock
    sim._observe = observe_and_check
    sim.run(16)
    assert sim.splits == 1
    assert sorted(checked) == sorted(members)


# every finite float: signed zeros, subnormals and magnitudes whose
# differences overflow included
FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@given(st.tuples(FLOATS, FLOATS), st.tuples(FLOATS, FLOATS))
@example((0.0, -0.0), (-0.0, 0.0))
@example((5e-324, -5e-324), (0.0, 2.2250738585072014e-308))
@example((1.7976931348623157e308, -1.7976931348623157e308),
         (-1.7976931348623157e308, 1e308))
@example((1e300, 3.0), (-1e300, 2.999999999999999))
def test_a_sight_distance_is_hypot_of_the_differences_bit_for_bit(p, q):
    # a view measures with Pose.distance_to, hypot of the coordinate
    # differences from its observer, as a fresh scan does; the distance
    # must come out the same from either end and by math.dist
    want = math.hypot(p[0] - q[0], p[1] - q[1])
    assert math.dist(p, q).hex() == want.hex()
    assert math.dist(q, p).hex() == want.hex()


OCCLUDED_MAP = """\
cellsize 0.25
##########
#....#...#
#....#...#
#....#...#
##########
"""

OCCLUDED_SCENARIO = """\
[run]
days = 1
dt = 10
seed = 5

[roster]
scout = 4

[controllers]
all = seek_energy

[sensing]
range_m = 8

[spawns]
mode = fixed
0 = 0.375 0.375 0
1 = 1.875 0.625 0
2 = 0.625 0.875 0 battery=0 health=hardware_dead
3 = 1.125 0.375 0
"""


def test_sensed_modules_get_on_a_live_observation():
    cfg = load_scenario(OCCLUDED_SCENARIO, map_text=OCCLUDED_MAP)
    sim = Simulation(cfg)
    observe = sim._observe
    seen = {}

    def observe_and_keep(i, delivered):
        obs = observe(i, delivered)
        seen[i] = (obs, _sensed_from_scratch(sim, i)[0])
        return obs

    sim._observe = observe_and_keep
    sim.run(1)
    obs, scratch = seen[0]
    view = obs.local.modules
    me, behind_wall = sim.states[0], sim.states[1]
    assert view.get(0) is None                   # the observer itself
    assert view.get(4) is None and view.get(99) is None
    assert view.get(-1) is None                  # not id 3, the last in sight
    assert view.get(-4) is None
    assert me.pose.distance_to(behind_wall.pose) <= cfg.sensing_range_m
    assert view.get(1) is None                   # in range, occluded
    dead = view.get(2)
    assert dead == SensedModule(2, sim.states[2].module_class,
                                sim.states[2].pose, Health.HARDWARE_DEAD,
                                me.pose.distance_to(sim.states[2].pose))
    assert view.get(3).health is Health.OK
    assert tuple(view.select()) == scratch == (dead, view.get(3))


@pytest.mark.parametrize("scenario, seed, ticks, pinned", [CROWD, COLONY])
def test_observing_builds_few_sensed_module_records(scenario, seed, ticks,
                                                    pinned, monkeypatch):
    # a deterministic cost guard: the stock controllers read a few sensed
    # modules by id, so an observation must not build one record per
    # module in sight, as an eager tuple would, nor measure one pair per
    # module in sight, as an eager table would
    built = measured = 0

    def counting_record(*fields):
        nonlocal built
        built += 1
        return SensedModule(*fields)

    measure = sensing._measure

    def counting_measure(*args):
        nonlocal measured
        measured += 1
        return measure(*args)

    monkeypatch.setattr(sensing, "SensedModule", counting_record)
    monkeypatch.setattr(sensing, "_measure", counting_measure)
    cfg = load_scenario_file(CONFIG_DIR / f"{scenario}.cfg")
    sim = Simulation(cfg, seed)
    observe = sim._observe
    in_sight = 0

    def observe_and_count(i, delivered):
        nonlocal in_sight, measured
        obs = observe(i, delivered)
        before = measured
        in_sight += len(obs.local.modules)          # builds nothing
        measured = before                 # the controllers' reads count
        return obs

    sim._observe = observe_and_count
    metrics = sim.run(ticks)
    assert [metrics.digest, metrics.events] == pinned
    assert in_sight > 10_000
    assert built <= in_sight // 100, (built, in_sight)
    assert 0 < measured <= in_sight // 100, (measured, in_sight)


def test_open_floor_sightlines_are_neither_traced_nor_cached():
    # a deterministic cost guard: full_scale has walls on its border only,
    # so every sightline between two modules on the floor answers from the
    # wall-count table, with no walk
    cfg = CROWD.load()
    sim = Simulation(cfg, CROWD.seed)
    arena = sim.arena
    walks = 0
    trace = arena._trace

    def counting_trace(p, q):
        nonlocal walks
        walks += 1
        return trace(p, q)

    arena._trace = counting_trace
    metrics = sim.run(CROWD.ticks)
    assert [metrics.digest, metrics.events] == CROWD.pinned
    assert arena._walls is not None
    assert walks == 0


def test_a_run_samples_each_distinct_path_query_once():
    # the arena's path memo samples a query the first time any module asks
    # it, and a run this size evicts nothing
    cfg = COLONY.load()
    sim = Simulation(cfg, COLONY.seed)
    arena = sim.arena
    path_clear = arena.path_clear
    asked = []

    def recording(*query):
        asked.append(query)
        return path_clear(*query)

    arena.path_clear = recording
    metrics = sim.run(COLONY.ticks)
    assert [metrics.digest, metrics.events] == COLONY.pinned
    info = path_clear.cache_info()
    assert info.misses == info.currsize == len(set(asked))
    assert info.hits == len(asked) - info.misses
    assert len(asked) > 400 and info.misses < 50


def test_a_run_without_observers_builds_no_wall_table():
    cfg = load_scenario_file(CONFIG_DIR / "hazard_field.cfg")
    sim = Simulation(cfg, 0)
    sim.run(20)
    assert sim.arena._walls is None


def test_observation_channels_match_their_enum_values():
    # faces, phases and terrain come from shortcuts (`_value_`, the cached
    # cell); each must equal the plain lookup it replaces
    cfg = load_scenario_file(CONFIG_DIR / "full_scale.cfg")
    sim = Simulation(cfg, 42)
    observe = sim._observe
    docked = 0

    def observe_and_check(i, delivered):
        nonlocal docked
        obs = observe(i, delivered)
        st = sim.states[i]
        ports = st.ports
        inter = obs.interaction
        assert inter.docked_faces == tuple(
            p.face.value for p in ports if p.phase is DockPhase.DOCKED)
        assert inter.port_phases == tuple(p.phase.value for p in ports)
        assert inter.port_peers == tuple(
            (p.peer.owner, p.peer.face.value) if p.peer is not None else None
            for p in ports)
        assert obs.local.terrain is sim.arena.terrain_at(st.pose.x, st.pose.y)
        docked += len(inter.docked_faces)
        return obs

    sim._observe = observe_and_check
    sim.run(20)
    assert docked > 100


def test_a_view_asks_line_of_sight_only_for_the_ids_it_is_read_about():
    # disposal_walled: wheels 1 and 2 observe, corpse 0 is the one unwell
    # id, and the map has no socket to ask about. Each read asks the arena
    # from the observer's own cell about the ids it returns or filters
    # through, never about the observer
    cfg = load_scenario_file(CONFIG_DIR / "disposal_walled.cfg")
    sim = Simulation(cfg, 3)
    arena = sim.arena
    asked = []
    line_of_sight = arena.line_of_sight

    def recording(a, b):
        asked.append((a, b))
        return line_of_sight(a, b)

    arena.line_of_sight = recording
    reads = {}

    def reader(obs):
        view, mine = obs.local.modules, []
        for read in (lambda: view.get(obs.me.id),
                     lambda: view.select(healthy=False),
                     lambda: view.select(ModuleClass.ACTIVE_WHEEL, True)):
            asked.clear()
            read()
            mine.append(list(asked))
        reads[obs.me.id] = mine

    for i, ctls in sim.controllers.items():
        if ctls:
            sim.controllers[i] = {"reader": reader}
    cells = [arena.cell_of(st.pose.x, st.pose.y) for st in sim.states.values()]
    sim.run(1)
    assert not arena.sockets
    assert reads == {i: [[], [(cells[i], cells[0])], [(cells[i], cells[3 - i])]]
                     for i in (1, 2)}


POCKET_MAP = """\
cellsize 0.25
##########
#........#
#........#
#....#####
#....#...#
#....#...#
##########
"""

POCKET_SCENARIO = """\
[run]
days = 1
dt = 10
seed = 5

[roster]
scout = 3

[controllers]
all = explore

[sensing]
range_m = 8

[spawns]
mode = fixed
0 = 0.875 0.625 0
1 = 0.375 0.375 0
2 = 0.625 1.375 0
"""

# module 0's column in row 2 on tick 1, 2, ...: into the shadow that the
# wall row and column cast from module 2, then back out
POCKET_TRIP = [3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 3, 2]


def test_sensing_matches_a_fresh_scan_into_a_walled_shadow_and_out():
    # module 0 walks east of the wall column into the shadow it casts from
    # module 2, and back out: each tick must sense what a fresh scan does
    sim = Simulation(load_scenario(POCKET_SCENARIO, map_text=POCKET_MAP))
    for i in sim.controllers:
        sim.controllers[i] = {"still": lambda obs: None}
    arena = sim.arena
    asked = []
    line_of_sight = arena.line_of_sight

    def recording(a, b):
        asked.append((a, b))
        return line_of_sight(a, b)

    arena.line_of_sight = recording
    execute = sim._phase_execute

    def execute_and_drive(selected):
        execute(selected)
        if sim.tick < len(POCKET_TRIP):      # where the next tick sees it
            sim.states[0].pose = Pose(
                *arena.cell_center(POCKET_TRIP[sim.tick], 2))
            # module 2 steps between (2, 5) and (1, 5), so that both ends
            # of the occluded pair move on the walled ticks
            sim.states[2].pose = Pose(*arena.cell_center(2 - sim.tick % 2, 5))

    sim._phase_execute = execute_and_drive
    observe = sim._observe
    occluded = set()

    def observe_and_check(i, delivered):
        obs = observe(i, delivered)
        modules, sockets = _sensed_from_scratch(sim, i)
        # the map has no socket, so only the view asks line_of_sight: from
        # the observer's cell about both others, every pair being in range
        cells = [arena.cell_of(st.pose.x, st.pose.y)
                 for st in sim.states.values()]
        asked.clear()
        assert tuple(obs.local.modules.select()) == modules, (sim.tick, i)
        assert asked == [(cells[i], cells[j]) for j in range(3) if j != i]
        assert obs.local.sockets == sockets == (), (sim.tick, i)
        if len(modules) < 2:                # every pair is in range
            occluded.add(sim.tick)
        return obs

    sim._observe = observe_and_check
    sim.run(len(POCKET_TRIP))
    # module 0 is east of the wall column from tick 3 to tick 10, and out
    # of module 2's sight on each of them but the last, when module 2 sees
    # it from (1, 5)
    assert sorted(occluded) == list(range(3, 10))


def test_an_observer_off_the_arena_senses_no_terrain():
    # a Simulation refuses a spawn off the arena, so module 0 is moved off
    # it before the run: it observes None terrain, then the invariant scan
    # stops the run
    sim = Simulation(load_scenario(OCCLUDED_SCENARIO, map_text=OCCLUDED_MAP))
    sim.states[0].pose = Pose(-0.375, 0.375, 0.0)
    observe = sim._observe
    terrain = {}

    def observe_and_keep(i, delivered):
        obs = observe(i, delivered)
        terrain[i] = obs.local.terrain
        return obs

    sim._observe = observe_and_keep
    with pytest.raises(InvariantBreach, match="out_of_bounds"):
        sim.run(1)
    assert terrain == {0: None, 1: TerrainClass.PLAIN, 3: TerrainClass.PLAIN}


def test_a_custom_controller_switches_its_coprocessor_and_bends_a_joint():
    # no stock controller proposes either action, so a scripted one does:
    # the coprocessor on at tick 1, a bend past the joint's limit at tick 2
    sim = Simulation(load_scenario(OCCLUDED_SCENARIO, map_text=OCCLUDED_MAP))
    script = {1: ToggleCoprocessor(True), 2: Actuate(0, 1000.0)}

    def scripted(obs):
        action = script.get(obs.internal.tick)
        return None if action is None else [ActionProposal(100, action)]

    sim.controllers[0] = {"scripted": scripted}
    st, spec = sim.states[0], sim.specs[0]
    before = st.battery_pj
    metrics = sim.run(3)
    assert st.coprocessor_on is True
    # the guard clamps the target; the joint turns toward it at its speed
    assert 0.0 < st.joint_angles[0] <= spec.bend_range
    assert st.battery_pj < before
    assert metrics.residual_j == 0.0


@pytest.mark.parametrize("action", [
    Drive(math.nan, 0.0, 0.0), Drive(math.inf, 0.0, 0.0),
    Drive(0.0, 0.0, math.nan), Drive(0.0, 0.0, math.inf),
    Actuate(0, math.nan), ToggleCoprocessor("maybe"),
], ids=["linear-nan", "linear-inf", "angular-nan", "angular-inf",
        "joint-target-nan", "coprocessor-maybe"])
def test_an_action_execution_cannot_carry_out_is_a_protocol_reject(action):
    # module 4 of desk_challenge asks for it on every tick: the guard
    # refuses it, so the run goes on and the module stays as it spawned
    sim = Simulation(load_scenario_file(CONFIG_DIR / "desk_challenge.cfg"), 11)
    sim.controllers[4] = {"script": lambda obs: ActionProposal(5, action)}
    st = sim.states[4]
    pose, joints = st.pose, list(st.joint_angles)
    sim.run(3)
    rejects = [line.split()[3] for line in sim.log.lines
               if line.split()[1:3] == ["4", "reject"]]
    assert rejects == ["reason=protocol"]
    assert sim.rejections["protocol"] >= 3
    assert (st.pose, st.joint_angles, st.coprocessor_on) == (pose, joints,
                                                            False)


def test_credit_log_writes_one_line_per_transfer():
    cfg = dataclasses.replace(
        load_scenario_file(CONFIG_DIR / "desk_challenge.cfg"), credit_log=True)
    sim = Simulation(cfg, 11)
    share = harness.share_energy
    transfers = []

    def recording(*args):
        out = share(*args)
        transfers.extend((sim.tick, tr.donor, tr.receiver, tr.joules)
                         for tr in out)
        return out

    harness.share_energy = recording
    try:
        metrics = sim.run(500)
    finally:
        harness.share_energy = share
    logged = [line.split() for line in sim.log.lines
              if line.split()[2:3] == ["share"]]
    assert transfers
    assert [(int(t), int(d), int(r[3:]), float(j[7:]))
            for t, d, _, r, j in logged] == transfers
    assert metrics.shared_j > 0.0


def test_docking_keeps_the_cached_reach_of_untouched_organisms(monkeypatch):
    # the registry replaces an organism on every merge or split, so a docking
    # phase leaves the reach only on organisms it did not touch; every reach
    # held must still equal a fresh reach_height of its organism
    computed = []

    def counting_reach(org, specs, *args):
        computed.append((frozenset(org.nodes), frozenset(org.edges)))
        return reach_height(org, specs, *args)

    monkeypatch.setattr(harness, "reach_height", counting_reach)
    cfg = CROWD.load()
    sim = Simulation(cfg, CROWD.seed)
    docking = sim._phase_docking
    kept_across_a_merge = 0

    def docking_and_check():
        nonlocal kept_across_a_merge
        before = {k: (org, frozenset(org.nodes), frozenset(org.edges))
                  for k, org in sim.registry.organisms.items()
                  if org.reach is not None}
        merges = sim.merges
        docking()
        organisms = sim.registry.organisms
        for k, org in organisms.items():
            if org.reach is not None:
                assert org.reach == reach_height(org, sim.specs), (sim.tick, k)
        for k, (old, nodes, edges) in before.items():
            org = organisms.get(k)
            if org is not None and (nodes, edges) == (frozenset(org.nodes),
                                                      frozenset(org.edges)):
                assert org is old and org.reach is not None, (sim.tick, k)
                kept_across_a_merge += sim.merges > merges

    sim._phase_docking = docking_and_check
    metrics = sim.run(CROWD.ticks)
    assert [metrics.digest, metrics.events] == CROWD.pinned
    assert kept_across_a_merge > 0
    assert len(computed) == len(set(computed)) > 0


def test_a_port_paired_earlier_in_the_phase_refuses_a_second_dock():
    # both docks pass the guard, which sees every face still free; the
    # harness must refuse whichever comes second in id order, whether the
    # engaged port is its target's face or its own
    text = ("[spawns]\nmode = fixed\n0 = 0.5 0.375 0\n1 = 1.5 0.375 0\n"
            "2 = 0.75 0.375 0\n3 = 1.0 0.375 0\n[roster]\nscout = 4\n")
    sim = Simulation(load_scenario(text, map_text=CORRIDOR_MAP))
    docks = {0: Dock(Face.EAST, 2, Face.WEST), 1: Dock(Face.WEST, 2, Face.WEST),
             2: Dock(Face.WEST, 3, Face.WEST)}
    for i, dock in docks.items():
        sim.controllers[i] = {"dock": lambda obs, d=dock: ActionProposal(40, d)}
    sim.run(1)
    refused = "detail=port%20already%20engaged%20by%20another%20pairing"
    assert [line for line in sim.log.lines if " reject " in line] == [
        f"1 {i} reject reason=protocol source=execute {refused}"
        for i in (1, 2)]
    assert list(sim.pairs) == [((0, "E"), (2, "W"))]
    assert [p.phase for p in (sim.states[0].port(Face.EAST),
                              sim.states[2].port(Face.WEST))] == [
        DockPhase.APPROACHING] * 2


def test_a_pairing_that_never_aligns_frees_its_faces_after_the_bound():
    # at heading 0 the east faces look sideways, so 0's east and 1's west
    # face centres sit 0.14 m apart, within the 0.5 m gap that aborts, but
    # too far for a scout to align: only the aligning bound ends the attempt
    text = ("[spawns]\nmode = fixed\n0 = 1.0 0.5 0\n1 = 1.1 0.5 0\n"
            "[roster]\nscout = 2\n")
    sim = Simulation(load_scenario(text, map_text=ROOM_MAP))
    east = sim.states[0].port(Face.EAST)
    dock = Dock(Face.EAST, 1, Face.WEST)

    def dock_when_free(obs):
        if east.phase is DockPhase.FREE:
            return ActionProposal(40, dock)
        return None

    sim.controllers[0] = {"dock": dock_when_free}
    # approaching on tick 1, aligning on 2, ALIGN_LIMIT failed aligning
    # advances, and the next one aborts; a tick later the freed faces take
    # the dock again
    freed = 3 + harness.ALIGN_LIMIT
    sim.run(freed + 1)
    phases = [line for line in sim.log.lines if " phase " in line]
    assert [line.split()[-2] for line in phases] == [
        "state=approaching", "state=aligning", "state=free",
        "state=approaching"]
    assert phases[2:] == [
        f"{freed} 0 phase a=0 fa=E b=1 fb=W state=free tow=0",
        f"{freed + 1} 0 phase a=0 fa=E b=1 fb=W state=approaching tow=0"]
    assert not [line for line in sim.log.lines if " reject " in line]
    west = sim.states[1].port(Face.WEST)
    assert (east.phase, west.phase) == (DockPhase.APPROACHING,) * 2
    assert list(sim.pairs) == [((0, "E"), (1, "W"))]


def guard_checking_the_organism(monkeypatch, sim):
    """Wrap the harness's guard so that every call asserts its organism
    argument is the one the registry holds for that module now. Returns
    the organisms handed to the guard, in call order."""
    guard = harness.guard_action
    handed = []

    def checked(action, module_id, organism, ctx):
        assert organism is sim.registry.organism_of(module_id), (
            sim.tick, module_id)
        handed.append(organism)
        return guard(action, module_id, organism, ctx)

    monkeypatch.setattr(harness, "guard_action", checked)
    return handed


def _wide_edge_desk():
    """desk_challenge with 0.15 m modules, the [modules] override that
    moves the stack slots and the docking faces."""
    text = (CONFIG_DIR / "desk_challenge.cfg").read_text().replace(
        "start_fraction = 0.8", "start_fraction = 0.8\nedge_length = 0.15")
    return load_scenario(text, base_dir=CONFIG_DIR)


def test_every_stock_controller_holds_its_module_s_spec():
    sim = Simulation(_wide_edge_desk())
    held = [(i, ctl.spec) for i, ctls in sim.controllers.items()
            for ctl in ctls.values()]
    assert len(held) == 8 * 3 + 2 * 4       # the wheels also run disposal
    assert all(spec is sim.specs[i] for i, spec in held)
    assert {spec.edge_length for _, spec in held} == {0.15}


def _spawn_by_the_recipe(cfg, arena, seed):
    """Each module's pose, battery fraction and health, worked out here
    from the documented recipe: a seeded run shuffles the free cells by
    Fisher-Yates over the placement stream, then draws one heading per
    module in id order."""
    placement = Rng(seed).substream("placement")
    cells = arena.free_cells()
    if cfg.spawn_mode == "seeded":
        for k in range(len(cells) - 1, 0, -1):
            j = placement.randrange(k + 1)
            cells[k], cells[j] = cells[j], cells[k]
    out = []
    for i in range(cfg.module_count):
        if cfg.spawn_mode == "fixed":
            sp = cfg.fixed_spawns[i]
            out.append((Pose(sp.x, sp.y, sp.heading),
                        cfg.start_fraction if sp.battery is None else sp.battery,
                        sp.health or Health.OK))
        else:
            px, py = arena.cell_center(*cells[i])
            out.append((Pose(px, py, placement.uniform(0.0, 360.0)),
                        cfg.start_fraction, Health.OK))
    return out


@pytest.mark.parametrize("scenario", sorted(
    p.stem for p in CONFIG_DIR.glob("*.cfg")))
def test_construction_builds_every_module_by_the_recipe(scenario):
    cfg = load_scenario_file(CONFIG_DIR / f"{scenario}.cfg")
    sim = Simulation(cfg)
    spawns = _spawn_by_the_recipe(cfg, sim.arena, cfg.seed)
    assert list(sim.states) == list(range(cfg.module_count))
    shared = {}
    # ids run dense through the roster in ROSTER_ORDER
    classes = [mc for mc in ROSTER_ORDER for _ in range(cfg.roster[mc])]
    for i, st_ in sim.states.items():
        mc = classes[i]
        spec = sim.specs[i]
        assert st_.module_class is spec.module_class is mc
        assert spec == make_module_spec(mc, cfg.module_overrides or None)
        assert shared.setdefault(mc, spec) is spec      # one per class
        pose, fraction, health = spawns[i]
        assert st_.pose == pose
        cap = to_pj(spec.battery_capacity)
        assert st_.capacity_pj == cap
        assert st_.battery_pj == (0 if health is Health.ENERGY_DEAD
                                  else round(cap * fraction))
        assert st_.health is health
        assert st_.joint_angles == [0.0] * spec.dof_count
        assert [(p.owner, p.face, p.phase, p.peer) for p in st_.ports] == [
            (i, face, DockPhase.FREE, None) for face in FACES]
        ctls = sim.controllers[i]
        assert list(ctls) == cfg.controllers_for(mc)
        for name, ctl in ctls.items():
            assert ctl.spec is spec
            if name == "explore":
                want = Rng(cfg.seed).substream("noise").substream(
                    f"explore/{i}")
                assert (ctl.rng.label, ctl.rng._s) == (want.label, want._s)
            else:
                assert not hasattr(ctl, "rng")
    # the run hands a mailbox to each live module with controllers only
    sim.run(0)
    assert set(sim._mailboxes) == {i for i, c in sim.controllers.items()
                                   if c and sim.states[i].health is Health.OK}
    assert all(box.sender == i for i, box in sim._mailboxes.items())


def test_simulations_with_other_overrides_carry_their_own_specs():
    text = (CONFIG_DIR / "desk_challenge.cfg").read_text()

    def with_mass(mass):
        return load_scenario(
            text.replace("start_fraction = 0.8",
                         f"start_fraction = 0.8\nmass = {mass}"),
            base_dir=CONFIG_DIR)

    light = Simulation(with_mass(0.5))
    heavy = Simulation(with_mass(2.0))
    assert {spec.mass for spec in light.specs.values()} == {0.5}
    assert {spec.mass for spec in heavy.specs.values()} == {2.0}
    assert not ({id(spec) for spec in light.specs.values()}
                & {id(spec) for spec in heavy.specs.values()})


def test_a_wider_edge_locks_every_pairing_that_aligns():
    # the controllers propose a dock by the same face geometry the docking
    # phase judges it by, so every pairing that aligns goes on to lock
    sim = Simulation(_wide_edge_desk(), 11)
    sim.run(3000)
    phases = {}
    for line in sim.log.lines:
        _, _, kind, *fields = line.split()
        if kind == "phase":
            f = dict(field.split("=", 1) for field in fields)
            phases.setdefault((f["a"], f["fa"], f["b"], f["fb"]),
                              []).append(f["state"])
    after_aligning = [seq[k + 1:k + 2] for seq in phases.values()
                      for k, state in enumerate(seq) if state == "aligning"]
    assert len(after_aligning) == 19
    assert all(nxt == ["locking"] for nxt in after_aligning)


def test_a_merge_hands_the_guard_the_new_organism_of_a_module_guarded_solo(
        monkeypatch):
    # module 0 is guarded alone while it docks its north face to module 1,
    # then drives north (east, at heading 0) as one organism with 1, whose
    # front is a hand's width from the wall: only a guard handed the new
    # organism sees 1's path blocked
    text = ("[spawns]\nmode = fixed\n0 = 1.5 0.625 0\n1 = 1.6 0.625 0\n"
            "[roster]\nscout = 2\n")
    sim = Simulation(load_scenario(text, map_text=ROOM_MAP))
    handed = guard_checking_the_organism(monkeypatch, sim)

    def dock_then_drive(obs):
        if obs.interaction.organism_id is not None:
            return ActionProposal(60, Drive(0.02))
        if obs.interaction.port_phases[0] == "free":   # north
            return ActionProposal(40, Dock(Face.NORTH, 1, Face.SOUTH))
        return None

    sim.controllers[0] = {"script": dock_then_drive}
    m = sim.run(12)
    assert m.merges == 1
    org = sim.registry.organism_of(0)
    assert org is not None and handed[0] is None and handed[-1] is org
    blocked = "detail=path%20of%20module%201%20is%20blocked"
    rejects = [line.split(" ", 1)[1] for line in sim.log.lines
               if " reject " in line]
    assert rejects == [f"0 reject reason=collision source=script {blocked}"]
    assert [sim.states[k].pose.x for k in (0, 1)] == [1.5, 1.6]


def _turning_pair(y):
    """Scouts 0 and 1 side by side at height `y` in ROOM_MAP, whose north
    wall fills y < 0.25. Module 0 docks its north face to 1 and, once they
    are one organism (tick 5), asks once to turn 90 degrees
    counterclockwise about their middle."""
    text = (f"[spawns]\nmode = fixed\n0 = 1.0 {y} 0\n1 = 1.1 {y} 0\n"
            "[roster]\nscout = 2\n")
    sim = Simulation(load_scenario(text, map_text=ROOM_MAP))
    turned = []

    def dock_then_turn(obs):
        if obs.interaction.organism_id is not None:
            if turned:
                return None
            turned.append(obs.internal.tick)
            return ActionProposal(60, Drive(angular=9.0))
        if obs.interaction.port_phases[0] == "free":   # north
            return ActionProposal(40, Dock(Face.NORTH, 1, Face.SOUTH))
        return None

    sim.controllers[0] = {"script": dock_then_turn}
    return sim


def test_an_organism_turn_into_a_wall_is_refused_by_the_guard():
    # the turn swings module 0 down by 0.05 m, into the wall 0.03 m below
    sim = _turning_pair(0.28)
    m = sim.run(6)
    assert m.merges == 1
    blocked = "detail=path%20of%20module%200%20is%20blocked"
    assert [line for line in sim.log.lines if " reject " in line] == [
        f"5 0 reject reason=collision source=script {blocked}"]
    assert [sim.states[k].pose for k in (0, 1)] == [Pose(1.0, 0.28, 0.0),
                                                    Pose(1.1, 0.28, 0.0)]


def test_an_open_organism_turn_rotates_the_body_and_bills_its_crew(
        monkeypatch):
    sim = _turning_pair(0.5)
    drained = []
    drain = harness.drain

    def recording(state, joules, ledger):
        drained.append((sim.tick, state.id, joules))
        return drain(state, joules, ledger)

    monkeypatch.setattr(harness, "drain", recording)
    m = sim.run(6)
    assert m.merges == 1 and m.residual_j == 0.0
    # both scouts swing a quarter turn about their midpoint (1.05, 0.5)
    assert [(round(p.x, 12), round(p.y, 12), p.heading)
            for p in (sim.states[0].pose, sim.states[1].pose)] == [
        (1.05, 0.45, 90.0), (1.05, 0.55, 90.0)]
    # each pays the tariff over its own chord of the arc
    chord = math.hypot(0.05, 0.05)
    per_kg = sim.cfg.tariff.locomotion_j_per_m_kg
    assert [(k, j) for t, k, j in drained if t == 5] == [
        (k, pytest.approx(per_kg * chord * sim.specs[k].mass))
        for k in (0, 1)]


@pytest.mark.parametrize("scenario, seed, ticks, pinned",
                         [DISPOSAL_OPEN, CROWD])
def test_the_guard_is_handed_each_module_s_current_organism(
        monkeypatch, scenario, seed, ticks, pinned):
    sim = Simulation(load_scenario_file(CONFIG_DIR / f"{scenario}.cfg"), seed)
    handed = guard_checking_the_organism(monkeypatch, sim)
    metrics = sim.run(ticks)
    assert [metrics.digest, metrics.events] == pinned
    assert sim.merges > 0
    assert any(org is not None for org in handed)


def test_simulation_runs_once():
    sim = Simulation(room_cfg())
    sim.run(2)
    with pytest.raises(RuntimeError, match="runs once"):
        sim.run(2)


def test_seeded_spawn_needs_enough_cells():
    text = ROOM_SCENARIO.replace("scout = 2", "scout = 99")
    with pytest.raises(ConfigError, match="cannot spawn"):
        Simulation(load_scenario(text, map_text=ROOM_MAP))


# a config that skipped validate_scenario still gets its modes checked
@pytest.mark.parametrize("old, new, finding", [
    ("mode = rotating", "mode = rotate", "unknown schedule mode 'rotate'"),
    ("[roster]", "[spawns]\nmode = Fixed\n[roster]",
     "unknown spawn mode 'Fixed'"),
], ids=["schedule", "spawn"])
def test_a_run_refuses_an_unknown_mode(old, new, finding):
    cfg = load_scenario(ROOM_SCENARIO.replace(old, new), map_text=ROOM_MAP)
    with pytest.raises(ConfigError, match=f"^{finding}$"):
        run_scenario(cfg, ticks=1)


# -- energy accounting through the pipeline -------------------------------


def test_idle_only_run_bills_exactly_idle():
    # no controllers at all: the module just sits there
    cfg = corridor_cfg()
    m = Simulation(cfg).run(100)
    assert m.consumed_j == 100 * 5.0
    assert m.drawn_j == 0.0 and m.charged_j == 0.0
    assert m.stored_j == m.initial_j - 500.0
    assert m.residual_j == 0.0
    assert m.survivors == 1


@pytest.mark.parametrize("coprocessor_on", [False, True])
def test_driving_pays_idle_once_per_tick(coprocessor_on):
    # locomotion energy already includes the idle draw, coprocessor too; the
    # energy phase must not add a second helping for a module that drove
    cfg = corridor_cfg()
    sim = Simulation(cfg)
    sim.states[0].coprocessor_on = coprocessor_on
    push = lambda obs: ActionProposal(60, Drive(0.125, 0.0, 0.0))
    sim.controllers[0] = {"push": push}
    m = sim.run(10)
    # per tick: (0.5 W + 2 W if on) * 10 s idle + 2 J/m/kg * 1.25 m * 1 kg
    idle_j = 25.0 if coprocessor_on else 5.0
    assert m.consumed_j == 10 * (idle_j + 2.5)
    assert m.residual_j == 0.0
    assert not any(" reject " in line for line in sim.log.lines)
    assert m.coverage == pytest.approx(10 / 62)


def test_day_summary_cadence():
    cfg = corridor_cfg("[run]\ndt = 8640\n")   # 10 ticks per day
    sim = Simulation(cfg)
    sim.run(25)
    days = [l for l in sim.log.lines if " day " in l]
    assert len(days) == 2
    assert days[0].startswith("10 -1 day index=1 ")
    assert days[1].startswith("20 -1 day index=2 ")


# -- metrics phase --------------------------------------------------------


def test_a_corpse_in_the_graveyard_is_disposed_once_and_no_other():
    # ROOM_MAP's graveyard is cells (1, 3) and (2, 3); nothing moves
    text = ("[roster]\nscout = 3\n[spawns]\nmode = fixed\n"
            "0 = 0.375 0.875 0 health=hardware_dead\n"
            "1 = 1.375 0.375 0 health=energy_dead\n"
            "2 = 0.625 0.875 0\n")
    sim = Simulation(load_scenario(text, map_text=ROOM_MAP))
    m = sim.run(5)
    assert [l for l in sim.log.lines
            if l.split()[2:3] == ["dispose"]] == ["1 0 dispose"]
    assert sim.disposed == {0}
    assert (m.disposed, m.tasks_open) == (1, 1)
    # only the live module counts toward coverage, even in the graveyard
    assert sim.visited == {(2, 3)}
    assert m.coverage == pytest.approx(1 / 18)


YARD_MAP = """\
cellsize 0.1
##########
#GGGG....#
#GGGG....#
#........#
##########
"""


def test_the_harness_and_the_hauler_agree_on_the_yard_s_far_edge():
    # 0.5 // 0.1 is 4.0, a graveyard cell, yet 0.5 is the yard's far edge,
    # (4 + 1) * 0.1: by the one graveyard rule a corpse there is outside
    # for the harness, which keeps it, and the hauler, which fetches it
    text = ("[roster]\nscout = 1\nactive_wheel = 1\n"
            "[controllers]\nactive_wheel = disposal\n"
            "[spawns]\nmode = fixed\n"
            "0 = 0.5 0.15 0 health=energy_dead\n1 = 0.75 0.35 0\n")
    sim = Simulation(load_scenario(text, map_text=YARD_MAP))
    hauler = sim.controllers[1]["disposal"]
    proposed = []

    def recording(obs):
        proposed.append(hauler(obs))
        return proposed[-1]

    sim.controllers[1] = {"disposal": recording}
    m = sim.run(1)
    assert sim.disposed == set() and m.disposed == 0
    [[proposal]] = proposed
    assert isinstance(proposal.action, Drive)       # on its way to the corpse


# -- invariant scan -------------------------------------------------------


def _docked_pair(sim):
    """A real docked link between module 0's north and module 1's south."""
    a, b = sim.states[0].ports[0], sim.states[1].ports[2]
    a.peer, b.peer = b, a
    a.phase = b.phase = DockPhase.DOCKED
    return a, b


def _peered_out_of_sync(sim):
    a, b = _docked_pair(sim)
    b.phase = DockPhase.LOCKING


def _renamed_organism(sim):
    sim.registry.register_edge(*_docked_pair(sim))
    org = sim.registry.organisms.pop(0)
    org.id = 1
    sim.registry.organisms[1] = org


def _ghost_edge(sim):
    a, b = _docked_pair(sim)
    sim.registry.register_edge(a, b)
    for port in a, b:
        port.peer, port.phase = None, DockPhase.FREE


def _socket_overdrawn(sim):
    # one pJ past what socket 0 can give in a tick
    rating = sim.arena.socket_by_id(0).rating
    sim._socket_drawn[0] = to_pj(rating * sim.cfg.dt) + 1


def _dead_off_the_arena(sim):
    # a point off the arena is outside the yard; the bounds check reports it
    st = sim.states[2]
    st.health, st.pose = Health.HARDWARE_DEAD, Pose(-0.1, 0.5, 0.0)


BREACHES = {
    "battery_bounds": lambda sim: setattr(
        sim.states[2], "battery_pj", sim.states[2].capacity_pj + 1),
    "dead_battery": lambda sim: setattr(
        sim.states[2], "health", Health.ENERGY_DEAD),
    # ticks 1 and 2 already bounds-checked module 2's earlier pose
    "out_of_bounds": lambda sim: setattr(
        sim.states[2], "pose", Pose(-0.1, 0.5, 0.0)),
    "peer_symmetry": lambda sim: setattr(
        sim.states[0].ports[0], "phase", DockPhase.DOCKED),
    "phase_sync": _peered_out_of_sync,
    "stale_peer": lambda sim: setattr(
        sim.states[0].ports[0], "peer", sim.states[1].ports[2]),
    "organism_id": _renamed_organism,
    "ghost_edge": _ghost_edge,
    "dead_out_of_bounds": _dead_off_the_arena,
    "socket_overdraw": _socket_overdrawn,
}
# the cases whose breach has another name than the case
BREACH_NAME = {"dead_out_of_bounds": "out_of_bounds"}


@pytest.mark.parametrize("name", sorted(BREACHES))
def test_invariant_scan_catches_each_breach(name):
    cfg = load_scenario("[roster]\nscout = 2\nbackbone = 2\n",
                        map_text=ROOM_MAP)
    sim = Simulation(cfg, 3)
    death = sim._phase_death

    def death_then_corrupt():
        death()
        if sim.tick == 3:
            BREACHES[name](sim)

    sim._phase_death = death_then_corrupt
    with pytest.raises(InvariantBreach) as caught:
        sim.run(6)
    breach = BREACH_NAME.get(name, name)
    assert (caught.value.tick, caught.value.name) == (3, breach)
    assert f" breach name={breach} " in sim.log.lines[-1]


# a 6 x 4 room with one 0.1 m, 20 W socket and two scouts on its anchor
# cell's centre, each of them plugging in every tick
SHARED_SOCKET_MAP = """\
cellsize 0.25
######
#....#
#....#
######
socket 0 1 1 0.1 20
"""

SHARED_SOCKET_SCENARIO = """\
[run]
dt = 10

[roster]
scout = 2

[modules]
start_fraction = 0.5

[controllers]
all = plug_in

[spawns]
mode = fixed
0 = 0.375 0.375 0
1 = 0.375 0.375 0
"""


class _PlugIn:
    """Proposes a recharge at socket 0 every tick."""

    draws_noise = reads_slot = False

    def __init__(self, module_id, spec, rng, params):
        pass

    def __call__(self, obs):
        return ActionProposal(10, Recharge(0))


def test_a_socket_feeds_one_module_per_tick(monkeypatch):
    monkeypatch.setitem(REGISTRY, "plug_in", _PlugIn)
    cfg = load_scenario(SHARED_SOCKET_SCENARIO, map_text=SHARED_SOCKET_MAP)
    assert validate_scenario(cfg) == []
    sim = Simulation(cfg)
    metrics = sim.run(10)
    # 20 W for 10 ticks of 10 s: 2000 J, all of it to module 0
    assert metrics.drawn_j == 2000.0
    assert metrics.charged_j == 1800.0
    assert metrics.residual_j == 0.0
    assert [line for line in sim.log.lines if " recharge " in line] == [
        "1 0 recharge socket=0 state=granted",
        "1 1 recharge socket=0 state=occupied"]
    # module 1 only paid its idle draw
    half = sim.states[1].capacity_pj // 2
    assert sim.states[0].battery_pj > half > sim.states[1].battery_pj


def _breach_at_tick_3(monkeypatch, name):
    """Make every Simulation corrupt its state after tick 3's deaths."""
    death = Simulation._phase_death

    def death_then_corrupt(sim):
        death(sim)
        if sim.tick == 3:
            BREACHES[name](sim)

    monkeypatch.setattr(Simulation, "_phase_death", death_then_corrupt)


@pytest.mark.parametrize("name", sorted(BREACHES))
def test_a_breached_run_still_saves_its_log(name, tmp_path, monkeypatch):
    _breach_at_tick_3(monkeypatch, name)
    cfg = load_scenario("[roster]\nscout = 2\nbackbone = 2\n",
                        map_text=ROOM_MAP)
    out = tmp_path / "out"
    with pytest.raises(InvariantBreach) as caught:
        run_scenario(cfg, seed=3, ticks=6, out_dir=out)
    breach = BREACH_NAME.get(name, name)
    assert (caught.value.tick, caught.value.name) == (3, breach)
    lines = (out / "events.log").read_text().splitlines()
    assert lines[0] == f"# {harness.LOG_VERSION}"
    assert lines[-1].startswith("3 ") and f" breach name={breach} " in lines[-1]
    assert not (out / "metrics.txt").exists()


# -- output files ---------------------------------------------------------


@pytest.mark.parametrize("scenario",
                         sorted(p.stem for p in CONFIG_DIR.glob("*.cfg")))
def test_the_streamed_log_is_the_kept_log_byte_for_byte(scenario, tmp_path):
    cfg = load_scenario_file(CONFIG_DIR / f"{scenario}.cfg")
    sim = Simulation(cfg)
    kept = sim.run(5)
    out = tmp_path / "out"
    streamed = run_scenario(cfg, ticks=5, out_dir=out)
    data = (out / "events.log").read_bytes()
    assert data == ("\n".join(sim.log.lines) + "\n").encode("utf-8")
    assert streamed.digest == kept.digest == f"{fnv1a64(data):016x}"
    assert sorted(p.name for p in out.iterdir()) == ["events.log",
                                                     "metrics.txt"]


def test_a_run_that_fails_mid_run_leaves_no_new_log(tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    (out / "events.log").write_text("an earlier run's log\n")
    build = harness.build_controllers
    streaming = []

    def with_a_crash(*args):
        def crash(obs):
            streaming.append((out / harness.PARTIAL_LOG).exists())
            if len(streaming) == 12:
                raise RuntimeError("boom")
        return {**build(*args), "crash": crash}

    monkeypatch.setattr(harness, "build_controllers", with_a_crash)
    with pytest.raises(FrameworkError, match="boom"):
        run_scenario(room_cfg(), ticks=20, out_dir=out)
    assert len(streaming) == 12 and all(streaming)
    assert [p.name for p in out.iterdir()] == ["events.log"]
    assert (out / "events.log").read_text() == "an earlier run's log\n"


def test_output_log_off_writes_only_the_metrics(tmp_path):
    cfg = load_scenario(ROOM_SCENARIO + "\n[output]\nlog = false\n",
                        map_text=ROOM_MAP)
    out = tmp_path / "out"
    metrics = run_scenario(cfg, ticks=20, out_dir=out)
    assert [p.name for p in out.iterdir()] == ["metrics.txt"]
    assert (out / "metrics.txt").read_text() == metrics.to_text()


# -- metrics text ---------------------------------------------------------


def _metrics(**changes):
    base = dict(
        name="room", seed=3, ticks=40, dt=10.0, survivors=3,
        deaths_energy=1, deaths_hardware=0, death_ratio=None,
        coverage=1 / 3, disposed=0, tasks_open=1, merges=2, splits=1,
        rejections={"protocol": 2, "collision": 5}, messages_posted=4,
        messages_dropped=0, initial_j=60000.0, drawn_j=0.0, charged_j=1.5,
        consumed_j=200.25, shared_j=0.0, stored_j=59801.25, residual_j=0.0,
        residual_j_per_hour=0.0, events=17, digest="00ff00ff00ff00ff",
        wall_time_s=0.12345)
    return RunMetrics(**{**base, **changes})


def test_metrics_text_is_one_line_per_field_in_field_order():
    assert _metrics().to_text() == (
        "name room\nseed 3\nticks 40\ndt 10.0\nsurvivors 3\n"
        "deaths_energy 1\ndeaths_hardware 0\ndeath_ratio none\n"
        "coverage 0.333333\ndisposed 0\ntasks_open 1\nmerges 2\nsplits 1\n"
        "rejections_collision 5\nrejections_protocol 2\n"
        "messages_posted 4\nmessages_dropped 0\ninitial_j 60000.0\n"
        "drawn_j 0.0\ncharged_j 1.5\nconsumed_j 200.25\nshared_j 0.0\n"
        "stored_j 59801.25\nresidual_j 0.0\nresidual_j_per_hour 0.0\n"
        "events 17\ndigest 00ff00ff00ff00ff\nwall_time_s 0.123\n")
    keys = [line.split()[0] for line in
            _metrics(rejections={}).to_text().splitlines()]
    assert keys == [f.name for f in dataclasses.fields(RunMetrics)
                    if f.name != "rejections"]


@pytest.mark.parametrize("ratio,text", [
    (None, "none"), (math.inf, "inf"), (0.5, "0.5"), (1 / 3, repr(1 / 3))])
def test_metrics_text_writes_the_death_ratio(ratio, text):
    assert f"\ndeath_ratio {text}\n" in _metrics(death_ratio=ratio).to_text()


# -- replay ---------------------------------------------------------------


def test_replay_round_trip(tmp_path):
    first = run_scenario(room_cfg(), ticks=120, out_dir=tmp_path)
    again = replay_file(tmp_path / "events.log")
    assert again.digest == first.digest
    assert again.survivors == first.survivors
    assert again.consumed_j == first.consumed_j


def test_replay_catches_edited_line(tmp_path):
    run_scenario(room_cfg(), ticks=60, out_dir=tmp_path)
    log = tmp_path / "events.log"
    text = log.read_text().replace("cls=scout", "cls=backbone", 1)
    with pytest.raises(ReplayError, match="diverges at line"):
        replay_log(text)


def test_replay_catches_truncation(tmp_path):
    run_scenario(room_cfg(), ticks=60, out_dir=tmp_path)
    lines = (tmp_path / "events.log").read_text().splitlines()
    with pytest.raises(ReplayError, match="length mismatch"):
        replay_log("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ReplayError, match="length mismatch"):
        replay_log("\n".join(lines + ["9999 -1 extra"]) + "\n")


@pytest.mark.parametrize("name", ["a\x0cb", "a\u2028b"])
def test_a_scenario_named_with_a_line_break_character_replays(name, tmp_path):
    cfg = load_scenario(
        ROOM_SCENARIO.replace("[run]\n", f"[run]\nname = {name}\n"),
        map_text=ROOM_MAP)
    assert cfg.name == name
    first = run_scenario(cfg, ticks=30, out_dir=tmp_path)
    data = (tmp_path / "events.log").read_bytes()
    assert f"\n# scenario {name}\n".encode("utf-8") in data
    assert replay_file(tmp_path / "events.log").digest == first.digest


def test_replay_refuses_a_log_whose_final_newline_is_cut(tmp_path):
    run_scenario(room_cfg(), ticks=30, out_dir=tmp_path)
    log = tmp_path / "events.log"
    data = log.read_bytes()
    log.write_bytes(data[:-1])
    n = data.count(b"\n")
    with pytest.raises(ReplayError, match=f"diverges at line {n}: "):
        replay_file(log)


def test_replay_refuses_a_log_with_crlf_line_ends(tmp_path):
    run_scenario(room_cfg(), ticks=30, out_dir=tmp_path)
    log = tmp_path / "events.log"
    log.write_bytes(log.read_bytes().replace(b"\n", b"\r\n"))
    with pytest.raises(ReplayError):
        replay_file(log)


def test_an_edited_spawn_line_stops_the_replay_before_the_first_tick(
        tmp_path, monkeypatch):
    run_scenario(room_cfg(), ticks=60, out_dir=tmp_path)
    log = tmp_path / "events.log"
    text = log.read_text()
    spawn = next(line for line in text.splitlines() if " spawn " in line)
    log.write_text(text.replace(spawn, spawn + "0", 1))
    ticks = []
    schedule = Simulation._phase_schedule

    def counted(self):
        ticks.append(self.tick)
        return schedule(self)

    monkeypatch.setattr(Simulation, "_phase_schedule", counted)
    with pytest.raises(ReplayError, match="diverges at line"):
        replay_file(log)
    assert ticks == []


def test_replay_refuses_a_log_whose_scenario_has_findings(tmp_path):
    run_scenario(room_cfg(), ticks=10, out_dir=tmp_path)
    log = tmp_path / "events.log"
    config = next(line for line in log.read_text().splitlines()
                  if line.startswith("# config "))
    bad = config.replace("range_m%20%3D%204", "range_m%20%3D%20-4")
    assert bad != config
    log.write_text(log.read_text().replace(config, bad))
    with pytest.raises(ConfigError,
                       match=r"^sensing range_m -4\.0 must not be negative$"):
        replay_file(log)
    assert cli.main(["replay", "--log", str(log)]) == 1


def test_replay_rejects_foreign_and_headerless_files():
    with pytest.raises(ReplayError, match="not a recognizable run log"):
        replay_log("hello\nworld\n")
    with pytest.raises(ReplayError, match="lacks 'seed'"):
        replay_log("# orgsim-log v1\n# config x\n# map x\n# ticks 5\n")


@pytest.mark.parametrize("field, value, words", [
    (b"seed", b"abc", "log header 'seed' is not an integer: 'abc'"),
    (b"ticks", b"1.5", "log header 'ticks' is not an integer: '1.5'"),
    (b"seed", b"", "log header 'seed' is not an integer: ''"),
    (b"scenario", b"room\xff", "log header 'scenario' is not UTF-8"),
    (b"config", b"\xfe%5Brun%5D", "log header 'config' is not UTF-8"),
], ids=["seed", "ticks", "empty-seed", "scenario-utf8", "config-utf8"])
def test_replay_names_the_malformed_header_field(field, value, words,
                                                 tmp_path, capsys):
    run_scenario(room_cfg(), ticks=10, out_dir=tmp_path)
    log = tmp_path / "events.log"
    lines = log.read_bytes().split(b"\n")
    at = next(i for i, line in enumerate(lines)
              if line.startswith(b"# " + field + b" "))
    lines[at] = b"# " + field + b" " + value
    log.write_bytes(b"\n".join(lines))
    with pytest.raises(ReplayError, match=f"^{re.escape(words)}$"):
        replay_file(log)
    assert cli.main(["replay", "--log", str(log)]) == 1
    assert capsys.readouterr().err == f"error: {words}\n"


# -- sweeps ---------------------------------------------------------------


def test_sweep_runs_each_seed(tmp_path):
    results = sweep(room_cfg(), [3, 4], ticks=40, out_dir=tmp_path)
    assert [m.seed for m in results] == [3, 4]
    assert results[0].digest != results[1].digest
    for seed in (3, 4):
        assert (tmp_path / f"seed_{seed}" / "metrics.txt").exists()
        assert (tmp_path / f"seed_{seed}" / "events.log").exists()


def test_a_config_parses_its_map_once_for_validation_runs_and_sweeps(
        monkeypatch):
    parses = []

    def counting(text):
        parses.append(text)
        return parse_arena(text)

    monkeypatch.setattr("orgsim.config.parse_arena", counting)
    cfg = load_scenario_file(CONFIG_DIR / "desk_challenge.cfg")
    assert validate_scenario(cfg) == []
    sim = Simulation(cfg)
    results = sweep(cfg, [11, 12, 13], ticks=20)
    assert len(parses) == 1
    assert sim.arena is cfg.arena
    assert [m.seed for m in results] == [11, 12, 13]


def _run_in_turns(sims, ticks):
    """Run the simulations one tick each in turn, each in its own thread:
    a run waits for its turn before its schedule phase and hands the turn
    on after its metrics phase."""
    turn = [0]
    ready = threading.Condition()
    results = [None] * len(sims)

    def hand_on(k):
        with ready:
            turn[0] = (k + 1) % len(sims)
            ready.notify_all()

    for k, sim in enumerate(sims):
        schedule, metrics = sim._phase_schedule, sim._phase_metrics

        def wait_then_schedule(k=k, schedule=schedule):
            with ready:
                assert ready.wait_for(lambda: turn[0] == k, timeout=60)
            schedule()

        def metrics_then_hand_on(k=k, metrics=metrics):
            metrics()
            hand_on(k)

        sim._phase_schedule = wait_then_schedule
        sim._phase_metrics = metrics_then_hand_on

    def body(k):
        try:
            results[k] = sims[k].run(ticks)
        finally:
            hand_on(k)      # a finished or failed run holds up no other

    threads = [threading.Thread(target=body, args=(k,))
               for k in range(len(sims))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    return results


def test_runs_that_share_an_arena_give_their_solo_digests():
    # short dwells toggle sockets every few ticks, and the two seeds toggle
    # different ones: each run's socket flags must be its own
    def desk():
        cfg = load_scenario_file(CONFIG_DIR / "desk_challenge.cfg")
        return dataclasses.replace(cfg, dwell_min=2, dwell_max=5)

    solo = [Simulation(desk(), seed).run(200).digest for seed in (11, 12)]
    assert solo[0] != solo[1]
    cfg = desk()
    sims = [Simulation(cfg, seed) for seed in (11, 12)]
    assert sims[0].arena is sims[1].arena is cfg.arena
    assert sims[0].socket_active is not sims[1].socket_active
    both = _run_in_turns(sims, 200)
    assert [m.digest for m in both] == solo
    assert [sim.tick for sim in sims] == [200, 200]


# -- command line ---------------------------------------------------------


@pytest.fixture
def cli_dir(tmp_path):
    (tmp_path / "room.map").write_text(ROOM_MAP)
    (tmp_path / "run.cfg").write_text(
        "[run]\ndays = 1\ndt = 10\nseed = 3\n"
        "[arena]\nmap = room.map\n"
        "[roster]\nscout = 1\n"
        "[controllers]\nall = explore\n")
    (tmp_path / "bad.cfg").write_text(
        "[arena]\nmap = room.map\n"
        "[roster]\nscout = 1\n"
        "[controllers]\nall = wander\n")
    return tmp_path


def test_cli_run_writes_outputs(cli_dir, capsys):
    out = cli_dir / "out"
    rc = cli.main(["run", "--config", str(cli_dir / "run.cfg"),
                   "--ticks", "40", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("name run\n")
    assert "survivors 1\n" in stdout
    metrics = (out / "metrics.txt").read_text()
    assert metrics == stdout
    assert (out / "events.log").exists()


def test_cli_run_refuses_findings(cli_dir, capsys):
    rc = cli.main(["run", "--config", str(cli_dir / "bad.cfg")])
    assert rc == 2
    assert "finding: unknown controller 'wander'" in capsys.readouterr().err


def test_cli_validate(cli_dir, capsys):
    assert cli.main(["validate", "--config", str(cli_dir / "run.cfg")]) == 0
    assert capsys.readouterr().out.startswith("ok: run (1 modules, 8640 ticks)")
    assert cli.main(["validate", "--config", str(cli_dir / "bad.cfg")]) == 2
    assert "finding:" in capsys.readouterr().out


def test_cli_replay(cli_dir, capsys):
    out = cli_dir / "out"
    cli.main(["run", "--config", str(cli_dir / "run.cfg"),
              "--ticks", "40", "--out", str(out)])
    capsys.readouterr()
    assert cli.main(["replay", "--log", str(out / "events.log")]) == 0
    assert capsys.readouterr().out.startswith("replay ok: 40 ticks")

    log = out / "events.log"
    log.write_text(log.read_text().replace("cls=scout", "cls=backbone", 1))
    assert cli.main(["replay", "--log", str(log)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_sweep(cli_dir, capsys):
    rc = cli.main(["sweep", "--config", str(cli_dir / "run.cfg"),
                   "--seeds", "1..3", "--ticks", "20"])
    assert rc == 0
    out = capsys.readouterr().out
    assert [l.split(":")[0] for l in out.splitlines()] == \
           ["seed 1", "seed 2", "seed 3"]

    rc = cli.main(["sweep", "--config", str(cli_dir / "run.cfg"),
                   "--seeds", "5..2", "--ticks", "20"])
    assert rc == 1
    assert "empty seed range" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["1,,2", "", "1..x", "..3", "a"])
def test_cli_sweep_names_a_bad_seeds_value(seeds, cli_dir, capsys):
    rc = cli.main(["sweep", "--config", str(cli_dir / "run.cfg"),
                   "--seeds", seeds, "--ticks", "1"])
    assert rc == 1
    assert capsys.readouterr() == ("", (
        f"error: --seeds wants A..B or a comma list of integers, "
        f"got {seeds!r}\n"))


def test_cli_missing_config_is_an_error(tmp_path, capsys):
    rc = cli.main(["run", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 1
    assert "error: cannot read scenario" in capsys.readouterr().err


def test_cli_maps_invariant_breach_to_exit_3(cli_dir, capsys, monkeypatch):
    def boom(cfg, seed=None, ticks=None, out_dir=None):
        raise InvariantBreach(5, "battery_bounds", "demo")
    monkeypatch.setattr(cli, "run_scenario", boom)
    rc = cli.main(["run", "--config", str(cli_dir / "run.cfg")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "invariant breach: invariant breached at tick 5: battery_bounds" in err


def test_cli_breach_keeps_the_log_and_writes_no_metrics(cli_dir, capsys,
                                                        monkeypatch):
    _breach_at_tick_3(monkeypatch, "battery_bounds")
    (cli_dir / "four.cfg").write_text(
        "[arena]\nmap = room.map\n[roster]\nscout = 2\nbackbone = 2\n")
    out = cli_dir / "out"
    rc = cli.main(["run", "--config", str(cli_dir / "four.cfg"),
                   "--ticks", "6", "--out", str(out)])
    assert rc == 3
    assert "invariant breach: invariant breached at tick 3: battery_bounds" \
        in capsys.readouterr().err
    last = (out / "events.log").read_text().splitlines()[-1]
    assert last.startswith("3 2 breach name=battery_bounds ")
    assert not (out / "metrics.txt").exists()


def test_a_negative_tick_count_is_refused():
    sim = Simulation(room_cfg())
    with pytest.raises(ValueError, match="must not be negative, got -3"):
        sim.run(-3)
    assert sim.log.lines == []
    assert sim.run(0).ticks == 0                  # zero ticks is a real run


def test_a_non_ascii_scenario_runs_and_replays_under_the_c_locale(tmp_path):
    # with the locale's ASCII as the default encoding, every file the
    # package reads or writes must still be UTF-8
    text = (CONFIG_DIR / "desk_challenge.cfg").read_text(encoding="utf-8")
    (tmp_path / "wueste.cfg").write_text(
        text.replace("name = desk_challenge", "name = wüste"),
        encoding="utf-8")
    shutil.copytree(CONFIG_DIR / "maps", tmp_path / "maps")
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONCOERCECLOCALE": "0", "PYTHONIOENCODING": "utf-8",
           "PYTHONPATH": str(CONFIG_DIR.parent / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}

    def orgsim(*argv):
        done = subprocess.run([sys.executable, "-m", "orgsim.cli", *argv],
                              env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr.decode("utf-8")
        return done.stdout.decode("utf-8")

    out = tmp_path / "out"
    stdout = orgsim("run", "--config", str(tmp_path / "wueste.cfg"),
                    "--ticks", "30", "--out", str(out))
    assert stdout.startswith("name wüste\n")
    assert (out / "metrics.txt").read_text(encoding="utf-8") == stdout
    digest = next(line.split()[1] for line in stdout.splitlines()
                  if line.startswith("digest "))
    data = (out / "events.log").read_bytes()
    assert f"{fnv1a64(data):016x}" == digest
    assert "\n# scenario wüste\n".encode("utf-8") in data
    assert orgsim("replay", "--log", str(out / "events.log")) == \
        f"replay ok: 30 ticks, digest {digest}\n"


@pytest.mark.parametrize("argv", [
    ["run", "--ticks", "-3"],
    ["run", "--ticks", "-3", "--out", "OUT"],
    ["sweep", "--seeds", "1..2", "--ticks", "-1"],
    ["sweep", "--seeds", "1..2", "--ticks", "-1", "--out", "OUT"],
])
def test_cli_refuses_a_negative_tick_count(cli_dir, capsys, argv):
    out = cli_dir / "out"
    argv = [str(out) if a == "OUT" else a for a in argv]
    rc = cli.main(argv[:1] + ["--config", str(cli_dir / "run.cfg")] + argv[1:])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: tick count must not be negative" in captured.err
    assert not out.exists()
