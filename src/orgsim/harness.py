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

import io
import math
import time
import urllib.parse
from contextlib import nullcontext
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path

from .behaviors import build_controllers
from .config import (ROSTER_ORDER, ScenarioConfig, load_scenario,
                     validate_scenario)
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
from .eventlog import EventLog, PartialFile, checker, drop
from .geometry import Pose
from .organism import OrganismRegistry, edge_key, organism_move, reach_height
from .rng import HitStream, Rng
from .robot_model import (Health, ModuleState, actuate_joint, locomotion_step,
                          make_module_spec, new_module_state, pair_tolerance,
                          to_pj)
from .sensing import Sight
from .world import SocketScheduler, in_yard, sense_sockets

LOG_VERSION = "orgsim-log v1"
# where run_scenario streams a log until the run ends and it becomes events.log
PARTIAL_LOG = "events.log.part"
# bound once: on CPython 3.11, EnumType.__getattr__ slows every `Health.OK`
_OK, _ENERGY_DEAD, _FREE = Health.OK, Health.ENERGY_DEAD, DockPhase.FREE
_DOCKED = DockPhase.DOCKED
_APPROACHING, _ALIGNING = DockPhase.APPROACHING, DockPhase.ALIGNING
_SEPARATING = DockPhase.SEPARATING
# aligning advances a pairing may spend without aligning; the next aborts it
ALIGN_LIMIT = 10
# a face's value to its port's index in ModuleState.ports, for the organism
# edges, which hold faces by value
_PORT_OF_FACE = {face.value: k for k, face in enumerate(FACES)}


def _enc(text: str) -> str:
    return urllib.parse.quote(text, safe="")


def _ids(ids: tuple[int, ...]) -> str:
    """A merge or split line's id list: `3+7`, or `-` for none."""
    return "+".join(map(str, ids)) or "-"


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
    aligning: int = 0   # advances made while aligning


class Simulation:
    """One seeded scenario run. Construct, then call run() exactly once.
    Construction refuses a scenario with validation findings: it raises
    ConfigError with `validate_scenario`'s findings joined by "; ".

    The run reads the config's one parsed arena, shared with every other
    run of the config, and keeps its own socket flags in `socket_active`
    (socket id -> on, in id order).

    The run's lines go to `log`, by default a new EventLog that keeps them
    in `log.lines`."""

    def __init__(self, cfg: ScenarioConfig, seed: int | None = None,
                 log: EventLog | None = None):
        findings = validate_scenario(cfg)
        if findings:
            raise ConfigError("; ".join(findings))
        self.arena = cfg.arena
        self.cfg = cfg
        self.seed = cfg.seed if seed is None else seed
        self.log = EventLog() if log is None else log
        self.tick = 0

        master = Rng(self.seed)
        # its state runs up to a block of draws ahead of the run, see HitStream
        self._hazards = (HitStream(master.substream("hazards"), cfg.hazard_rate)
                         if cfg.hazard_rate > 0.0 else None)
        self._rng_noise = master.substream("noise")
        self._rng_placement = master.substream("placement")

        socket_ids = [s.id for s in self.arena.sockets]
        self.scheduler: SocketScheduler | None = None
        if cfg.schedule_mode == "rotating":
            self.scheduler = SocketScheduler(
                socket_ids, master.substream("schedule"), cfg.dwell_min,
                cfg.dwell_max, cfg.active_count)
            self.socket_active = self.scheduler.active
        else:
            self.socket_active = dict.fromkeys(socket_ids, True)

        self.specs = {}
        self.states: dict[int, ModuleState] = {}
        # the live states in id order; run() fills it and only _phase_death,
        # where health changes, edits it
        self._live: list[ModuleState] = []
        self.controllers = {}
        self.ledger = EnergyLedger()
        self._spawn_modules()

        self.bus = MessageBus(cfg.radio_range_m)
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
        # each observer's radio mailbox, made by run()
        self._mailboxes: dict[int, Mailbox] = {}

    # -- setup ------------------------------------------------------------

    def _spawn_modules(self) -> None:
        """Ids run dense through the roster in ROSTER_ORDER. A class's
        ModuleSpec and controller names are worked out once and shared by
        its modules; each module gets its own state, ports and controllers."""
        cfg = self.cfg
        fixed = cfg.spawn_mode == "fixed"
        if not fixed:
            cells = self.arena.free_cells()
            self._rng_placement.shuffle(cells)
        overrides = cfg.module_overrides or None
        first = 0
        for mc in ROSTER_ORDER:
            count = cfg.roster.get(mc, 0)
            if not count:
                continue
            spec = make_module_spec(mc, overrides)
            names = cfg.controllers_for(mc)
            for i in range(first, first + count):
                if fixed:
                    sp = cfg.fixed_spawns[i]
                    frac = cfg.start_fraction if sp.battery is None else sp.battery
                    st = new_module_state(i, spec, Pose(sp.x, sp.y, sp.heading),
                                          frac)
                    if sp.health is not None:
                        st.health = sp.health
                        if sp.health is _ENERGY_DEAD:
                            st.battery_pj = 0
                else:
                    px, py = self.arena.cell_center(*cells[i])
                    heading = self._rng_placement.uniform(0.0, 360.0)
                    st = new_module_state(i, spec, Pose(px, py, heading),
                                          cfg.start_fraction)
                self.specs[i] = spec
                self.states[i] = st
                self.ledger.note_initial(st.battery_pj)
                self.controllers[i] = build_controllers(
                    names, i, spec, self._rng_noise, cfg.controller_params)
            first += count

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
        for sid, on in self.socket_active.items():
            if on:
                self.log.event(0, -1, "socket", id=sid, active=True)

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
            self._sight = Sight(self.arena, self.socket_active,
                                self.cfg.sensing_range_m, len(self.states),
                                observers)
            self._interaction = [None] * len(self.states)
            self._mailboxes = {i: Mailbox(self.bus, i) for i in observers}
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
        # socket id -> pJ drawn this tick; a socket in it feeds no one else
        self._socket_drawn: dict[int, int] = {}
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
        px, py = socket.centre
        drawn, before = self._socket_drawn, self.ledger.drawn_pj
        res = recharge(
            st, socket_active=self.socket_active[socket_id],
            socket_rating_w=socket.rating,
            socket_height=socket.height,
            reach_m=self._reach_of(i, org),
            distance_m=math.hypot(st.pose.x - px, st.pose.y - py),
            dt=self.cfg.dt,
            tariff=self.cfg.tariff, ledger=self.ledger,
            contact_range_m=self.cfg.contact_range_m,
            occupied=socket_id in drawn)
        if res.granted:
            drawn[socket_id] = (drawn.get(socket_id, 0)
                                + self.ledger.drawn_pj - before)
        state = "granted" if res.granted else res.reason
        key = (socket_id, state)
        if self._last_recharge.get(i) != key:
            self._last_recharge[i] = key
            self.log.event(self.tick, i, "recharge", socket=socket_id,
                           state=state)

    def _phase_docking(self) -> None:
        """Advance every pending pairing one step, in key order. Each pairing
        is asked only what its phase reads: the face gap while approaching,
        aligning or separating, and `attempt_align` while aligning. A gap
        over 0.5 m, or an aligning advance past the first ALIGN_LIMIT,
        aborts the attempt.

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
                elif prev is _APPROACHING:
                    inp = TickInput(abort=gap > 0.5)
                else:
                    pairing.aligning += 1
                    # attempt_align is read from this module's globals on
                    # every call, where perfbench/tracer.py wraps it
                    inp = TickInput(
                        aligned=attempt_align(
                            sta.pose, pa.face, stb.pose, pb.face,
                            pair_tolerance(sta.module_class,
                                           stb.module_class), edge),
                        abort=gap > 0.5 or pairing.aligning > ALIGN_LIMIT)
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
                               size=len(ev.nodes), absorbed=_ids(ev.absorbed))
                if pairing.tow:
                    self._refresh_carried(pa.owner, pb.owner)
            elif now is _SEPARATING and prev is DockPhase.UNLOCKING:
                # link is no longer real; the organism loses this edge now,
                # which is exactly what lets the halves move apart
                ev = self.registry.remove_edge(key)
                for mid in ev.nodes:
                    interaction[mid] = None
                self.splits += 1
                self.log.event(self.tick, -1, "split", org=ev.organism_id,
                               survivors=_ids(ev.survivors),
                               dissolved=_ids(ev.dissolved))
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
        total = self.arena.walkable_count
        return len(self.visited) / total if total else 0.0

    def _invariant_scan(self) -> None:
        """One pass over the modules for coverage, disposal and the module
        invariants, in that order for each module, then what each socket
        gave this tick, then the organisms.

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
        for sid, pj in self._socket_drawn.items():
            cap_pj = to_pj(arena.socket_by_id(sid).rating * self.cfg.dt)
            if pj > cap_pj:
                self._breach(-1, "socket_overdraw",
                             f"socket {sid} gave {pj} of {cap_pj} pJ")
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

    With `out_dir` and `[output] log` on, the log streams to PARTIAL_LOG in
    `out_dir`, which the first line makes once `run()` has accepted the tick
    count. The file becomes events.log when the run ends, or when an
    invariant breach stops it (no metrics.txt then; the breach is
    re-raised). Any other failure removes it. Otherwise lines are dropped.
    """
    out = None if out_dir is None else Path(out_dir)
    part = (PartialFile(out / PARTIAL_LOG, out / "events.log")
            if out is not None and cfg.log_enabled else None)
    sim = Simulation(cfg, seed, log=EventLog(part.write if part else drop))
    with part or nullcontext():
        metrics = sim.run(ticks)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "metrics.txt").write_text(metrics.to_text(), encoding="utf-8")
    return metrics


def replay_log(text: str) -> RunMetrics:
    """replay_file for a log held as text, split only at "\\n"."""
    return _replay(io.BytesIO(text.encode()))


def replay_file(path: str | Path) -> RunMetrics:
    """Re-run a log's embedded scenario and insist on the file's bytes. The
    rerun's writer checks each line as it goes, so the first divergent line
    stops the rerun, and neither the file's lines nor the rerun's are held."""
    with open(path, "rb") as f:
        return _replay(f)


def _replay(f) -> RunMetrics:
    if f.readline() != f"# {LOG_VERSION}\n".encode():
        raise ReplayError("not a recognizable run log")
    header = {}
    for line in f:
        if not line.startswith(b"# "):
            break
        key, _, value = line[2:].rstrip(b"\n").partition(b" ")
        key = key.decode(errors="replace")
        try:
            header[key] = value.decode()
        except UnicodeDecodeError:
            raise ReplayError(f"log header {key!r} is not UTF-8") from None
    for want in ("config", "map", "seed", "ticks"):
        if want not in header:
            raise ReplayError(f"log header lacks {want!r}")
    seed, ticks = (_header_int(header, key) for key in ("seed", "ticks"))
    cfg = load_scenario(urllib.parse.unquote(header["config"]),
                        map_text=urllib.parse.unquote(header["map"]),
                        name_hint=header.get("scenario", "replay"))
    f.seek(0)
    check = checker(f)
    sim = Simulation(cfg, seed=seed, log=EventLog(check))
    metrics = sim.run(ticks)
    check(b"")                # the file must end where the rerun does
    return metrics


def _header_int(header: dict[str, str], key: str) -> int:
    try:
        return int(header[key])
    except ValueError:
        raise ReplayError(f"log header {key!r} is not an integer: "
                          f"{header[key]!r}") from None


def sweep(cfg: ScenarioConfig, seeds, ticks: int | None = None,
          out_dir: str | Path | None = None) -> list[RunMetrics]:
    """Run the scenario once per seed, serially and independently."""
    return [run_scenario(cfg, seed=seed, ticks=ticks,
                         out_dir=None if out_dir is None
                         else Path(out_dir) / f"seed_{seed}")
            for seed in seeds]
