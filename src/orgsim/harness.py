"""Run harness: tick pipeline, event log, metrics, replay, parameter sweeps.

The pipeline order inside one tick is fixed and documented here because
replayability depends on it: socket schedule, radio delivery and sensing,
controllers, arbitration, guard, execution in module id order, docking
advance, energy accounting, deaths, then metrics and invariants. Every line
the run emits is folded into a rolling 64-bit digest; the log also embeds
the complete scenario text and seed, so a log file alone is enough to rerun
the simulation and cross-check every line of the original.
"""

from __future__ import annotations

import math
import time
import urllib.parse
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path

from .behaviors import build_controllers
from .config import ScenarioConfig, load_scenario, scenario_findings
from .control import (ActionProposal, Actuate, Dock, Drive, GuardContext, Idle,
                      InteractionChannel, Mailbox, MessageBus, Observation,
                      Recharge, Rejected, ToggleCoprocessor, Tow, Undock,
                      _internal_channel, _observation, _self_channel,
                      guard_action, select_action, step_controllers)
from .docking import (FACES, PEERED_PHASES, DockPhase, TickInput,
                      advance_dock, attempt_align, face_center, undock)
from .energy import (EnergyLedger, classify_deaths, drain, drain_idle, recharge,
                     share_energy)
from .errors import ConfigError, InvariantBreach, ReplayError
from .geometry import Pose
from .organism import OrganismRegistry, edge_key, organism_move, reach_height
from .rng import HitStream, Rng, fnv1a64
from .robot_model import (Health, ModuleState, actuate_joint, locomotion_step,
                          make_module_spec, new_module_state, pair_tolerance)
from .sensing import Sight
from .world import SocketSchedule, SocketScheduler, in_yard, sense_sockets

LOG_VERSION = "orgsim-log v1"
# bound once: on CPython 3.11, EnumType.__getattr__ slows every `Health.OK`
_OK, _ENERGY_DEAD, _FREE = Health.OK, Health.ENERGY_DEAD, DockPhase.FREE
_DOCKED = DockPhase.DOCKED
_APPROACHING, _ALIGNING = DockPhase.APPROACHING, DockPhase.ALIGNING
_SEPARATING = DockPhase.SEPARATING
# a face's value to its port's index in ModuleState.ports, for the organism
# edges, which hold faces by value
_PORT_OF_FACE = {face.value: k for k, face in enumerate(FACES)}


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _enc(text: str) -> str:
    return urllib.parse.quote(text, safe="")


def _dec(text: str) -> str:
    return urllib.parse.unquote(text)


class EventLog:
    """Append-only run record with a rolling FNV-1a digest over every line."""

    def __init__(self):
        self.lines: list[str] = []
        self._fnv = fnv1a64(b"")
        self.event_count = 0

    def raw(self, line: str) -> None:
        self.lines.append(line)
        self._fnv = fnv1a64(line + "\n", self._fnv)

    def event(self, tick: int, module_id: int, kind: str, **fields) -> None:
        parts = [str(tick), str(module_id), kind]
        parts.extend(f"{k}={_fmt(v)}" for k, v in fields.items())
        self.raw(" ".join(parts))
        self.event_count += 1

    @property
    def digest(self) -> str:
        return f"{self._fnv:016x}"

    def save(self, path: Path) -> None:
        path.write_text("\n".join(self.lines) + "\n")


@dataclass
class RunMetrics:
    """Everything a finished run reports, mirrored into metrics text files."""

    name: str
    seed: int
    ticks: int
    dt: float
    survivors: int
    deaths_energy: int
    deaths_hardware: int
    death_ratio: float | None
    coverage: float
    disposed: int
    tasks_open: int
    merges: int
    splits: int
    rejections: dict[str, int]
    messages_posted: int
    messages_dropped: int
    initial_j: float
    drawn_j: float
    charged_j: float
    consumed_j: float
    shared_j: float
    stored_j: float
    residual_j: float
    residual_j_per_hour: float
    events: int
    digest: str
    wall_time_s: float

    def to_text(self) -> str:
        """One `key value` line per field, in declaration order. Floats are
        written by repr, except `coverage` (6 places) and `wall_time_s` (3);
        `death_ratio` may read `none` or `inf`, and `rejections` gives one
        `rejections_<reason>` line per reason, in name order."""
        lines = []
        for f in fields(self):
            key, value = f.name, getattr(self, f.name)
            if key == "rejections":
                lines += [f"rejections_{r} {value[r]}" for r in sorted(value)]
                continue
            if key == "death_ratio":
                value = ("none" if value is None
                         else "inf" if math.isinf(value) else repr(value))
            elif key == "coverage":
                value = f"{value:.6f}"
            elif key == "wall_time_s":
                value = f"{value:.3f}"
            lines.append(f"{key} {value}")
        return "\n".join(lines) + "\n"


@dataclass
class _Pairing:
    port_a: object
    port_b: object
    tow: bool


class Simulation:
    """One seeded scenario run. Construct, then call run() exactly once.
    Construction refuses a scenario with validation findings: it raises
    ConfigError with `validate_scenario`'s findings joined by "; "."""

    def __init__(self, cfg: ScenarioConfig, seed: int | None = None):
        self.arena = cfg.build_arena()
        findings = scenario_findings(cfg, self.arena)
        if findings:
            raise ConfigError("; ".join(findings))
        self.cfg = cfg
        self.seed = cfg.seed if seed is None else seed
        self.log = EventLog()
        self.tick = 0

        master = Rng(self.seed)
        # its state runs up to a block of draws ahead of the run, see HitStream
        self._hazards = (HitStream(master.substream("hazards"), cfg.hazard_rate)
                         if cfg.hazard_rate > 0.0 else None)
        self._rng_noise = master.substream("noise")
        self._rng_placement = master.substream("placement")

        self.scheduler: SocketScheduler | None = None
        if cfg.schedule_mode == "rotating":
            self.scheduler = SocketScheduler(
                SocketSchedule(cfg.dwell_min, cfg.dwell_max, cfg.active_count),
                self.arena.sockets, master.substream("schedule"))
        else:
            for s in self.arena.sockets:
                s.active = True

        self.specs = {}
        self.states: dict[int, ModuleState] = {}
        # the live states in id order; run() fills it and only _phase_death,
        # where health changes, edits it
        self._live: list[ModuleState] = []
        self.controllers = {}
        self.ledger = EnergyLedger()
        self._spawn_modules()

        self.bus = MessageBus(cfg.radio_range_m)
        self._mailboxes = {i: Mailbox(self.bus, i) for i in self.states}
        self.registry = OrganismRegistry()
        self.pairs: dict[tuple, _Pairing] = {}
        self.visited: set[tuple[int, int]] = set()
        # per id, the (immutable) Pose the last metrics phase saw: a module
        # still on it is neither added to `visited` nor bounds-checked again
        self._metric_poses: list[Pose | None] = [None] * len(self.states)
        self.disposed: set[int] = set()
        self.deaths_energy = 0
        self.deaths_hardware = 0
        self.merges = 0
        self.splits = 0
        self.rejections: dict[str, int] = {}
        self._last_reject: dict[int, tuple] = {}
        self._last_recharge: dict[int, tuple] = {}
        self._delivered_count = 0
        self._ran = False

        # what the observers sense and, per id, the interaction channel
        # last handed out (None once the docking phase changed what it
        # reads), both sized by run() only when some module has controllers:
        # only their Dock actions open pairings
        self._sight: Sight | None = None
        self._interaction: list[InteractionChannel | None] = []

        self._walkable_count = len(self.arena.walkable_cells())

    # -- setup ------------------------------------------------------------

    def _spawn_modules(self) -> None:
        cfg = self.cfg
        n = cfg.module_count
        spawn_cells = None
        if cfg.spawn_mode == "seeded":
            cells = self.arena.free_cells()
            self._rng_placement.shuffle(cells)
            spawn_cells = cells[:n]

        for i in range(n):
            mc = cfg.class_of(i)
            spec = make_module_spec(mc, cfg.module_overrides or None)
            self.specs[i] = spec
            if cfg.spawn_mode == "fixed":
                sp = cfg.fixed_spawns[i]
                frac = cfg.start_fraction if sp.battery is None else sp.battery
                st = new_module_state(i, spec, Pose(sp.x, sp.y, sp.heading),
                                      battery_fraction=frac)
                if sp.health is not None:
                    st.health = sp.health
                    if sp.health is Health.ENERGY_DEAD:
                        st.battery_pj = 0
            else:
                cx, cy = spawn_cells[i]
                px, py = self.arena.cell_center(cx, cy)
                heading = self._rng_placement.uniform(0.0, 360.0)
                st = new_module_state(i, spec, Pose(px, py, heading),
                                      battery_fraction=cfg.start_fraction)
            self.states[i] = st
            self.ledger.note_initial(st.battery_pj)
            names = cfg.controllers_for(mc)
            self.controllers[i] = build_controllers(
                names, i, spec, self._rng_noise, cfg.controller_params)

    def _write_header(self, total_ticks: int) -> None:
        self.log.raw(f"# {LOG_VERSION}")
        self.log.raw(f"# scenario {self.cfg.name}")
        self.log.raw(f"# config {_enc(self.cfg.raw_text)}")
        self.log.raw(f"# map {_enc(self.cfg.map_text)}")
        self.log.raw(f"# seed {self.seed}")
        self.log.raw(f"# ticks {total_ticks}")
        for i, st in self.states.items():
            self.log.event(0, i, "spawn", cls=st.module_class.value,
                           x=st.pose.x, y=st.pose.y, heading=st.pose.heading,
                           battery=st.battery, health=st.health.value)
        for s in self.arena.sockets:
            if s.active:
                self.log.event(0, -1, "socket", id=s.id, active=True)

    # -- the tick pipeline ------------------------------------------------

    def run(self, ticks: int | None = None) -> RunMetrics:
        if ticks is not None and ticks < 0:
            raise ValueError(f"tick count must not be negative, got {ticks}")
        if self._ran:
            raise RuntimeError("a Simulation instance runs once")
        self._ran = True
        total = self.cfg.total_ticks if ticks is None else ticks
        self._write_header(total)
        self._live = [st for st in self.states.values() if st.health is _OK]
        # what the guard reads that holds for the whole run, taken from the
        # arena as the run starts
        self._guard_ctx = GuardContext(self.states, self.specs,
                                       self.arena.path_clear, self.cfg.dt,
                                       self.arena.socket_by_id)
        observers = tuple([st.id for st in self._live
                           if self.controllers[st.id]])
        if observers:
            self._sight = Sight(self.arena, self.cfg.sensing_range_m,
                                len(self.states), observers)
            self._interaction = [None] * len(self.states)
        started = time.perf_counter()
        for _ in range(total):
            self.tick += 1
            self._phase_schedule()
            delivered = self._phase_sense()
            selected = self._phase_decide(delivered)
            self._phase_execute(selected)
            self._phase_docking()
            self._phase_energy()
            self._phase_death()
            self._phase_metrics()
        return self._finalize(total, time.perf_counter() - started)

    def _phase_schedule(self) -> None:
        if self.scheduler is None:
            return
        for sid, active in self.scheduler.step(self.tick):
            self.log.event(self.tick, -1, "socket", id=sid, active=active)

    def _phase_sense(self) -> dict:
        delivered = self.bus.deliver(
            {i: s.pose for i, s in self.states.items()} if self.bus.load else {})
        self._delivered_count = sum(len(v) for v in delivered.values())
        return delivered

    def _observe(self, i: int, delivered: dict) -> Observation:
        """Build module i's observation. The self and internal channels are
        built every tick, and the local channel comes from the sight (see
        Sight.local_channel). The interaction channel goes out again while
        i has no messages, this tick or last, and the docking phase has not
        dropped it (see _phase_docking)."""
        st = self.states[i]
        interaction = self._interaction[i]
        messages = delivered.get(i)
        if interaction is None or messages or interaction.messages:
            ports = st.ports
            org = self.registry.organism_of(i)
            # faces and phases go out by value, read from `_value_`: the
            # `value` property and a member-keyed dict (Enum.__hash__) both
            # run Python code
            interaction = self._interaction[i] = InteractionChannel(
                tuple([p.face._value_ for p in ports if p.phase is _DOCKED]),
                tuple([p.phase._value_ for p in ports]),
                tuple([(p.peer.owner, p.peer.face._value_)
                       if p.peer is not None else None for p in ports]),
                org.id if org is not None else None,
                len(org.nodes) if org is not None else 1,
                self._reach_of(i, org),
                tuple(messages) if messages else ())
        return _observation((
            _self_channel((i, st.module_class, st.pose, st.battery_fraction,
                           st.health, tuple(st.joint_angles),
                           st.coprocessor_on, st.carried)),
            self._sight.local_channel(i), interaction,
            _internal_channel((self.tick, self.cfg.dt, self._delivered_count,
                               self._mailboxes[i])),
        ))

    def _phase_decide(self, delivered: dict) -> dict[int, ActionProposal]:
        selected = {}
        sight = self._sight
        if sight is None:
            return selected
        # sense_sockets is read from this module's globals on every call,
        # where perfbench/tracer.py wraps it
        alive = sight.refresh(self.states,
                              self.deaths_energy + self.deaths_hardware,
                              sense_sockets)
        for i in alive:
            obs = self._observe(i, delivered)
            proposals = step_controllers(self.controllers[i], obs)
            choice = select_action(proposals)
            if not isinstance(choice.action, Idle):
                selected[i] = choice
        return selected

    def _phase_execute(self, selected: dict[int, ActionProposal]) -> None:
        self._idle_paid: set[int] = set()   # see drain_idle
        moved_orgs: set[int] = set()
        # _phase_decide fills `selected` in id order
        for i, prop in selected.items():
            org = self.registry.organism_of(i)
            if (isinstance(prop.action, Drive) and org is not None
                    and org.id in moved_orgs):
                # a lower id already steered this organism; guarding the
                # stale proposal against the moved body would only mislead
                continue
            verdict = guard_action(prop.action, i, org, self._guard_ctx)
            if isinstance(verdict, Rejected):
                self._note_rejection(i, verdict, prop.source)
                continue
            self._apply_action(i, org, verdict, moved_orgs)

    def _note_rejection(self, i: int, rej: Rejected, source: str) -> None:
        self.rejections[rej.reason] = self.rejections.get(rej.reason, 0) + 1
        key = (rej.reason, rej.detail)
        if self._last_reject.get(i) != key:
            self._last_reject[i] = key
            self.log.event(self.tick, i, "reject", reason=rej.reason,
                           source=source, detail=_enc(rej.detail))

    def _apply_action(self, i: int, org, action, moved_orgs: set[int]) -> None:
        """Execute module i's admitted action; `org` is its organism or None,
        as the execute phase looked it up."""
        st = self.states[i]
        spec = self.specs[i]
        cfg = self.cfg

        if isinstance(action, Drive):
            if org is None:
                mr = locomotion_step(st, spec, action, self.arena.path_clear,
                                     cfg.dt, cfg.tariff)
                st.pose = mr.pose
                drain(st, mr.energy_j, self.ledger)
                self._idle_paid.add(i)
            else:
                moved_orgs.add(org.id)
                # the guard has just judged this drive by the same rule on
                # the same state, so the move is not blocked
                res = organism_move(org, self.states, self.specs, action, i,
                                    cfg.dt, self.arena.path_clear, cfg.tariff)
                for mid, pose in res.poses.items():
                    self.states[mid].pose = pose
                for mid, joules in res.energy_j.items():
                    drain(self.states[mid], joules, self.ledger)
            return

        if isinstance(action, Actuate):
            jr = actuate_joint(st, spec, action.dof_index, action.target_deg,
                               cfg.dt, cfg.tariff)
            st.joint_angles[action.dof_index] = jr.angle
            drain(st, jr.energy_j, self.ledger)
            return

        if isinstance(action, Dock):   # Tow included
            self._start_pairing(i, action)
            return

        if isinstance(action, Undock):   # the guard found the port docked
            undock(st.port(action.face))
            return

        if isinstance(action, Recharge):
            self._do_recharge(i, org, action.socket_id)
            return

        if isinstance(action, ToggleCoprocessor):
            st.coprocessor_on = action.on
            return

    def _start_pairing(self, i: int, action: Dock) -> None:
        st = self.states[i]
        other = self.states[action.target_id]
        mine = st.port(action.face)
        theirs = other.port(action.target_face)
        key = edge_key(mine, theirs)
        # the guard found both ports free; a pairing made earlier in this
        # execute phase leaves its ports free until the docking phase
        # advances it, so only the pairings themselves show it
        if any(end in k for k in self.pairs for end in key):
            self._note_rejection(i, Rejected(
                "protocol", "port already engaged by another pairing"),
                "execute")
            return
        self.pairs[key] = _Pairing(mine, theirs, isinstance(action, Tow))

    def _reach_of(self, i: int, org) -> float:
        """Reach of module i, whose organism (or None) the caller looked up.
        Kept on the organism, which the registry replaces on every change."""
        if org is None:
            return self.specs[i].edge_length
        if org.reach is None:
            org.reach = reach_height(org, self.specs)
        return org.reach

    def _do_recharge(self, i: int, org, socket_id: int) -> None:
        st = self.states[i]
        socket = self.arena.socket_by_id(socket_id)
        px, py = self.arena.cell_center(*socket.cell)
        res = recharge(
            st, socket_active=socket.active, socket_rating_w=socket.rating,
            socket_height=socket.height,
            reach_m=self._reach_of(i, org),
            distance_m=math.hypot(st.pose.x - px, st.pose.y - py),
            dt=self.cfg.dt,
            tariff=self.cfg.tariff, ledger=self.ledger,
            contact_range_m=self.cfg.contact_range_m)
        state = "granted" if res.granted else res.reason
        key = (socket_id, state)
        if self._last_recharge.get(i) != key:
            self._last_recharge[i] = key
            self.log.event(self.tick, i, "recharge", socket=socket_id,
                           state=state)

    def _phase_docking(self) -> None:
        """Advance every pending pairing one step, in key order. Each pairing
        is asked only what its phase reads: the face gap while approaching,
        aligning or separating, and `attempt_align` while aligning.

        A module's interaction channel reads its own ports and organism, and
        every peer, organism and reach change comes with a phase change, so
        this phase drops the cached channel of both owners of each pairing
        whose phase it changes, and of every member of each organism a
        merge makes or a split removes. (An undock in the execute phase
        moves its pair to unlocking, which this phase always advances.)"""
        interaction = self._interaction
        for key in sorted(self.pairs):
            pairing = self.pairs[key]
            pa, pb = pairing.port_a, pairing.port_b
            prev = pa.phase
            if prev is _DOCKED:
                continue
            sta = self.states[pa.owner]
            stb = self.states[pb.owner]
            if prev is _APPROACHING or prev is _ALIGNING or prev is _SEPARATING:
                edge = self.specs[pa.owner].edge_length
                ax, ay = face_center(sta.pose, pa.face, edge)
                bx, by = face_center(stb.pose, pb.face, edge)
                gap = math.hypot(ax - bx, ay - by)
                if prev is _SEPARATING:
                    inp = TickInput(separated=gap >= edge)
                else:
                    # attempt_align is read from this module's globals on
                    # every call, where perfbench/tracer.py wraps it
                    inp = TickInput(
                        aligned=prev is _ALIGNING and attempt_align(
                            sta.pose, pa.face, stb.pose, pb.face,
                            pair_tolerance(sta.module_class,
                                           stb.module_class), edge),
                        abort=gap > 0.5)
            else:
                inp = TickInput()
            advance_dock(pa, pb, inp,
                         healthy_a=sta.health is _OK,
                         healthy_b=stb.health is _OK,
                         tow=pairing.tow)
            now = pa.phase
            if now is prev:
                continue
            interaction[pa.owner] = interaction[pb.owner] = None
            self.log.event(self.tick, min(pa.owner, pb.owner), "phase",
                           a=pa.owner, fa=pa.face.value, b=pb.owner,
                           fb=pb.face.value, state=now.value, tow=pairing.tow)
            if now is DockPhase.LOCKING:
                drain(sta, self.cfg.tariff.lock_j, self.ledger)
                drain(stb, self.cfg.tariff.lock_j, self.ledger)
            elif now is _DOCKED:
                ev = self.registry.register_edge(pa, pb)
                for mid in ev.nodes:
                    interaction[mid] = None
                self.merges += 1
                self.log.event(self.tick, -1, "merge", org=ev.organism_id,
                               size=len(ev.nodes),
                               absorbed="+".join(map(str, ev.absorbed)) or "-")
                if pairing.tow:
                    self._refresh_carried(pa.owner, pb.owner)
            elif now is _SEPARATING and prev is DockPhase.UNLOCKING:
                # link is no longer real; the organism loses this edge now,
                # which is exactly what lets the halves move apart
                for mid in self.registry.organism_of(pa.owner).nodes:
                    interaction[mid] = None
                ev = self.registry.remove_edge(key)
                self.splits += 1
                self.log.event(self.tick, -1, "split", org=ev.organism_id,
                               survivors="+".join(map(str, ev.survivors)) or "-",
                               dissolved="+".join(map(str, ev.dissolved)) or "-")
                self._refresh_carried(pa.owner, pb.owner)
            if now is _FREE:
                del self.pairs[key]

    def _refresh_carried(self, *ids: int) -> None:
        for mid in ids:
            st = self.states[mid]
            if st.health is _OK:
                continue
            st.carried = any(
                p.tow and p.port_a.phase is _DOCKED
                and mid in (p.port_a.owner, p.port_b.owner)
                for p in self.pairs.values())

    def _phase_energy(self) -> None:
        tariff, dt = self.cfg.tariff, self.cfg.dt
        drain_idle(self._live, self._idle_paid, tariff, dt, self.ledger)
        edges = [e for org in self.registry.organisms.values() for e in org.edges]
        if edges:
            transfers = share_energy(edges, self.states, dt, tariff, self.ledger)
            if self.cfg.credit_log:
                for tr in transfers:
                    self.log.event(self.tick, tr.donor, "share",
                                   to=tr.receiver, joules=tr.joules)

    def _phase_death(self) -> None:
        """Energy deaths, then one hazard draw per module still alive, both
        in id order, over the live roster, which leaves with only the
        survivors. The roster is walked only when some battery is empty."""
        live = self._live
        if 0 in map(attrgetter("battery_pj"), live):
            kept = []
            for st in live:
                if st.battery_pj == 0:
                    st.health = _ENERGY_DEAD
                    self.deaths_energy += 1
                    self.log.event(self.tick, st.id, "death", cause="energy")
                else:
                    kept.append(st)
            live = self._live = kept
        if self._hazards is not None:
            hits = self._hazards.take(len(live))
            for k in hits:
                st = live[k]
                st.health = Health.HARDWARE_DEAD
                self.deaths_hardware += 1
                self.log.event(self.tick, st.id, "death", cause="hazard",
                               battery=st.battery)
            for k in reversed(hits):
                del live[k]

    def _phase_metrics(self) -> None:
        self._invariant_scan()
        tpd = self.cfg.ticks_per_day
        if self.tick % tpd == 0:
            led = self.ledger.as_dict()
            self.log.event(
                self.tick, -1, "day", index=self.tick // tpd,
                survivors=len(self._live), deaths_energy=self.deaths_energy,
                deaths_hardware=self.deaths_hardware,
                coverage=round(self._coverage(), 6),
                drawn_j=led["drawn_j"], consumed_j=led["consumed_j"],
                residual_j=self.ledger.residual_j(
                    sum(st.battery_pj for st in self.states.values())),
                rejects=sum(self.rejections.values()),
                msgs=self.bus.posted)

    def _coverage(self) -> float:
        total = self._walkable_count
        return len(self.visited) / total if total else 0.0

    def _invariant_scan(self) -> None:
        """One pass over the modules for coverage, disposal and the module
        invariants, in that order for each module, then the organisms.

        A pose is recorded only after its bounds check; a module still on
        the pose recorded last is neither counted nor bounds-checked again.
        The yard lies inside the arena, so a dead module off the arena is
        not disposed and its bounds check breaches.
        """
        arena, poses = self.arena, self._metric_poses
        yard = arena.yard
        for i, st in self.states.items():
            pose = st.pose
            moved = pose is not poses[i]
            if st.health is _OK:
                if moved:
                    self.visited.add(arena.cell_of(pose.x, pose.y))
            elif (yard is not None and i not in self.disposed
                  and in_yard(yard, pose.x, pose.y)):
                self.disposed.add(i)
                self.log.event(self.tick, i, "dispose")
            if not 0 <= st.battery_pj <= st.capacity_pj:
                self._breach(i, "battery_bounds",
                             f"battery {st.battery_pj} of {st.capacity_pj}")
            if st.health is _ENERGY_DEAD and st.battery_pj != 0:
                self._breach(i, "dead_battery",
                             f"energy-dead with {st.battery_pj} pJ")
            if moved:
                if not arena.in_bounds(pose.x, pose.y):
                    self._breach(i, "out_of_bounds", f"({pose.x}, {pose.y})")
                poses[i] = pose
            a, b, c, d = st.ports
            if (a.phase is _FREE and b.phase is _FREE and c.phase is _FREE
                    and d.phase is _FREE and a.peer is None and b.peer is None
                    and c.peer is None and d.peer is None):
                continue
            for p in st.ports:
                if p.phase is _FREE and p.peer is None:
                    continue
                if p.phase in PEERED_PHASES:
                    if p.peer is None or p.peer.peer is not p:
                        self._breach(i, "peer_symmetry",
                                     f"face {p.face.value} {p.phase.value}")
                    elif p.peer.phase is not p.phase:
                        self._breach(i, "phase_sync", f"face {p.face.value}")
                elif p.peer is not None:
                    self._breach(i, "stale_peer", f"face {p.face.value}")
        for org_id, org in self.registry.organisms.items():
            if org_id != min(org.nodes):
                self._breach(-1, "organism_id", f"org {org_id}")
            for edge in org.edges:
                for mid, fval in edge:
                    port = self.states[mid].ports[_PORT_OF_FACE[fval]]
                    if port.phase is not _DOCKED:
                        self._breach(mid, "ghost_edge",
                                     f"face {fval} {port.phase.value}")

    def _breach(self, module_id: int, name: str, detail: str) -> None:
        self.log.event(self.tick, module_id, "breach", name=name,
                       detail=_enc(detail))
        raise InvariantBreach(self.tick, name, detail)

    # -- wrap up ----------------------------------------------------------

    def _finalize(self, total: int, wall: float) -> RunMetrics:
        tally = classify_deaths(self.states.values())
        stored_pj = sum(st.battery_pj for st in self.states.values())
        residual = self.ledger.residual_j(stored_pj)
        hours = total * self.cfg.dt / 3600.0
        led = self.ledger.as_dict()
        # only the dead are disposed
        tasks_open = tally.dead - len(self.disposed)
        events_before = self.log.event_count
        self.log.event(
            self.tick, -1, "run_end", events=events_before,
            survivors=tally.ok, deaths_energy=tally.energy_dead,
            deaths_hardware=tally.hardware_dead, disposed=len(self.disposed),
            tasks_open=tasks_open, coverage=round(self._coverage(), 6),
            drawn_j=led["drawn_j"], consumed_j=led["consumed_j"],
            stored_j=led["initial_j"] + led["charged_j"] - led["consumed_j"],
            residual_j=residual)
        return RunMetrics(
            name=self.cfg.name, seed=self.seed, ticks=total, dt=self.cfg.dt,
            survivors=tally.ok, deaths_energy=tally.energy_dead,
            deaths_hardware=tally.hardware_dead, death_ratio=tally.ratio,
            coverage=self._coverage(), disposed=len(self.disposed),
            tasks_open=tasks_open, merges=self.merges, splits=self.splits,
            rejections=dict(sorted(self.rejections.items())),
            messages_posted=self.bus.posted,
            messages_dropped=self.bus.dropped,
            initial_j=led["initial_j"], drawn_j=led["drawn_j"],
            charged_j=led["charged_j"], consumed_j=led["consumed_j"],
            shared_j=led["shared_j"],
            stored_j=stored_pj / 10 ** 12,
            residual_j=residual,
            residual_j_per_hour=residual / hours if hours else 0.0,
            events=self.log.event_count, digest=self.log.digest,
            wall_time_s=wall)


def run_scenario(cfg: ScenarioConfig, seed: int | None = None,
                 ticks: int | None = None,
                 out_dir: str | Path | None = None) -> RunMetrics:
    """Run one seed of a scenario; optionally write events.log + metrics.txt.

    A run stopped by an invariant breach still writes its events.log, which
    ends with the breach line, but no metrics.txt; the breach is re-raised.
    """
    sim = Simulation(cfg, seed)
    out = None if out_dir is None else Path(out_dir)
    try:
        metrics = sim.run(ticks)
    except InvariantBreach:
        if out is not None:
            _save_log(sim, out)
        raise
    if out is not None:
        _save_log(sim, out)
        (out / "metrics.txt").write_text(metrics.to_text())
    return metrics


def _save_log(sim: Simulation, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if sim.cfg.log_enabled:
        sim.log.save(out / "events.log")


def replay_log(text: str) -> RunMetrics:
    """Re-run a log's embedded scenario and insist on the identical log.

    Raises ReplayError on the first divergent, missing or extra line, which
    is what catches a tampered or truncated record.
    """
    lines = text.splitlines()
    if not lines or lines[0] != f"# {LOG_VERSION}":
        raise ReplayError("not a recognizable run log")
    header: dict[str, str] = {}
    for line in lines[1:]:
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition(" ")
        header[key] = value
    for want in ("config", "map", "seed", "ticks"):
        if want not in header:
            raise ReplayError(f"log header lacks {want!r}")

    cfg = load_scenario(_dec(header["config"]), map_text=_dec(header["map"]),
                        name_hint=header.get("scenario", "replay"))
    sim = Simulation(cfg, seed=int(header["seed"]))
    metrics = sim.run(int(header["ticks"]))

    fresh = sim.log.lines
    for n, (a, b) in enumerate(zip(lines, fresh), start=1):
        if a != b:
            raise ReplayError(
                f"log diverges at line {n}: file has {a!r}, rerun produced {b!r}")
    if len(lines) != len(fresh):
        raise ReplayError(
            f"log length mismatch: file has {len(lines)} lines, "
            f"rerun produced {len(fresh)}")
    return metrics


def replay_file(path: str | Path) -> RunMetrics:
    return replay_log(Path(path).read_text())


def sweep(cfg: ScenarioConfig, seeds, ticks: int | None = None,
          out_dir: str | Path | None = None) -> list[RunMetrics]:
    """Run the scenario once per seed, serially and independently."""
    return [run_scenario(cfg, seed=seed, ticks=ticks,
                         out_dir=None if out_dir is None
                         else Path(out_dir) / f"seed_{seed}")
            for seed in seeds]
