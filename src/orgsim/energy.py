"""Energy economy: tariffs, wall power, battery sharing, bookkeeping.

Batteries and the run ledger count integer picojoules. Every transfer moves
whole picojoules, so the books balance to the last digit no matter how long
the run is; floats appear only at the reporting boundary. The grid side of a
charge (what the socket meters) is tracked separately from the battery side
(what survives conversion), and the conservation identity is checked on the
battery side where it is exact.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .robot_model import PJ, Health, ModuleState, to_j, to_pj


@dataclass(frozen=True)
class Tariff:
    """Power and energy prices for every billable activity."""

    idle_w: float = 0.5
    coprocessor_w: float = 2.0
    locomotion_j_per_m_kg: float = 2.0
    actuation_j_per_nm_rad: float = 1.0
    lock_j: float = 5.0
    recharge_efficiency: float = 0.9
    share_rate_w: float = 50.0

    def __post_init__(self):
        for name in ("idle_w", "coprocessor_w", "locomotion_j_per_m_kg",
                     "actuation_j_per_nm_rad", "lock_j", "share_rate_w"):
            value = getattr(self, name)
            if not value >= 0:     # NaN included
                raise ValueError(f"{name} must be >= 0")
            if value == math.inf:
                raise ValueError(f"{name} must be finite")
        if not 0 < self.recharge_efficiency <= 1:
            raise ValueError("recharge_efficiency must be in (0, 1]")

    def idle_draw_j(self, dt: float, coprocessor_on: bool) -> float:
        w = self.idle_w + (self.coprocessor_w if coprocessor_on else 0.0)
        return w * dt


DEFAULT_CONTACT_RANGE_M = 0.1  # one module edge from the socket anchor


class EnergyLedger:
    """Whole-run conservation accounting in integer picojoules.

    initial + charged - consumed must equal the sum of live batteries at any
    instant. `drawn` is the grid-side meter reading and includes conversion
    loss; it is reported but not part of the battery-side identity.
    """

    __slots__ = ("initial_pj", "drawn_pj", "charged_pj", "consumed_pj",
                 "shared_pj")

    def __init__(self):
        self.initial_pj = 0
        self.drawn_pj = 0
        self.charged_pj = 0
        self.consumed_pj = 0
        self.shared_pj = 0   # gross pJ moved between batteries, for reporting

    def note_initial(self, pj: int) -> None:
        self.initial_pj += pj

    def expected_stored_pj(self) -> int:
        return self.initial_pj + self.charged_pj - self.consumed_pj

    def residual_j(self, stored_pj: int) -> float:
        return to_j(self.expected_stored_pj() - stored_pj)

    def as_dict(self) -> dict[str, float]:
        return {
            "initial_j": to_j(self.initial_pj),
            "drawn_j": to_j(self.drawn_pj),
            "charged_j": to_j(self.charged_pj),
            "consumed_j": to_j(self.consumed_pj),
            "shared_j": to_j(self.shared_pj),
        }


def drain(state: ModuleState, joules: float, ledger: EnergyLedger) -> float:
    """Take up to `joules` out of a battery; returns what actually left.

    A battery cannot go below empty. The caller decides whether an empty
    battery kills the module; this function only moves energy.
    """
    if joules < 0:
        raise ValueError(f"cannot drain a negative amount ({joules})")
    want_pj = to_pj(joules)
    got_pj = min(want_pj, state.battery_pj)
    state.battery_pj -= got_pj
    ledger.consumed_pj += got_pj
    return to_j(got_pj)


def drain_idle(states: Iterable[ModuleState], paid: set[int], tariff: Tariff,
               dt: float, ledger: EnergyLedger) -> None:
    """Bill one tick of idle draw to every live state in `states` whose id
    is not in `paid`, in one pass.

    Each module loses exactly what `drain(state, tariff.idle_draw_j(dt,
    state.coprocessor_on), ledger)` would take from it; the price is worked
    out in picojoules once per coprocessor setting instead of once per module.
    """
    off_j = tariff.idle_draw_j(dt, False)
    on_j = tariff.idle_draw_j(dt, True)
    for joules in (off_j, on_j):
        if joules < 0:
            raise ValueError(f"cannot drain a negative amount ({joules})")
    off_pj, on_pj = to_pj(off_j), to_pj(on_j)
    if paid:    # empty when no module drove this tick
        states = [st for st in states if st.id not in paid]
    ok = Health.OK
    total = 0
    for st in states:
        if st.health is ok:
            have = st.battery_pj
            want = on_pj if st.coprocessor_on else off_pj
            got = want if want < have else have
            st.battery_pj = have - got
            total += got
    ledger.consumed_pj += total


class RechargeResult(NamedTuple):
    granted: bool
    reason: str | None      # inactive | dead | reach | position when refused
    drawn_j: float
    stored_j: float


# builds a result in C, like the builders beside the records of
# orgsim.control
_recharge_result = partial(tuple.__new__, RechargeResult)


def recharge(state: ModuleState, *, socket_active: bool, socket_rating_w: float,
             socket_height: float, reach_m: float, distance_m: float,
             dt: float, tariff: Tariff, ledger: EnergyLedger,
             contact_range_m: float = DEFAULT_CONTACT_RANGE_M) -> RechargeResult:
    """One tick of wall charging through the module touching the socket.

    The socket delivers at its rating until the battery has no headroom
    left; a full battery draws nothing. Refusals say why: the socket is off,
    the module is dead, the socket sits above the organism's reach, or the
    module is not at the socket.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not socket_active:
        return _recharge_result((False, "inactive", 0.0, 0.0))
    if state.health is not Health.OK:
        return _recharge_result((False, "dead", 0.0, 0.0))
    if distance_m > contact_range_m:
        return _recharge_result((False, "position", 0.0, 0.0))
    if reach_m < socket_height:
        return _recharge_result((False, "reach", 0.0, 0.0))

    headroom_pj = state.capacity_pj - state.battery_pj
    drawn_pj = round(socket_rating_w * dt * PJ)
    stored_pj = round(drawn_pj * tariff.recharge_efficiency)
    if stored_pj > headroom_pj:
        stored_pj = headroom_pj
        drawn_pj = round(stored_pj / tariff.recharge_efficiency)
    state.battery_pj += stored_pj
    ledger.drawn_pj += drawn_pj
    ledger.charged_pj += stored_pj
    return _recharge_result((True, None, to_j(drawn_pj), to_j(stored_pj)))


class ShareTransfer(NamedTuple):
    donor: int
    receiver: int
    joules: float


def share_energy(edges, states: dict[int, ModuleState], dt: float,
                 tariff: Tariff, ledger: EnergyLedger) -> list[ShareTransfer]:
    """Equalize charge fraction across each docked edge, one pass per tick.

    Each edge moves the integer amount that would level the two modules'
    fractions, capped by the share rate, the donor's remaining charge and
    the receiver's headroom. Donor loss equals receiver gain exactly. Edges
    are processed in sorted order so runs replay identically; a dead module
    neither gives nor takes.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    cap_pj = round(tariff.share_rate_w * dt * PJ)
    out: list[ShareTransfer] = []
    for (ida, _), (idb, _) in sorted(edges):
        sa, sb = states[ida], states[idb]
        if sa.health is not Health.OK or sb.health is not Health.OK:
            continue
        # positive num means a is proportionally fuller than b
        num = sa.battery_pj * sb.capacity_pj - sb.battery_pj * sa.capacity_pj
        if num >= 0:
            donor, recv = sa, sb
        else:
            donor, recv = sb, sa
            num = -num
        delta = num // (sa.capacity_pj + sb.capacity_pj)
        delta = min(delta, cap_pj, donor.battery_pj,
                    recv.capacity_pj - recv.battery_pj)
        if delta <= 0:
            continue
        donor.battery_pj -= delta
        recv.battery_pj += delta
        ledger.shared_pj += delta
        out.append(ShareTransfer(donor.id, recv.id, to_j(delta)))
    return out


@dataclass(frozen=True)
class DeathTally:
    ok: int
    energy_dead: int
    hardware_dead: int
    ratio: float | None     # energy deaths per hardware death

    @property
    def dead(self) -> int:
        return self.energy_dead + self.hardware_dead


def classify_deaths(states) -> DeathTally:
    """Count outcomes over an iterable of module states."""
    ok = ed = hd = 0
    for st in states:
        health = st.health if isinstance(st, ModuleState) else st
        if health is Health.OK:
            ok += 1
        elif health is Health.ENERGY_DEAD:
            ed += 1
        elif health is Health.HARDWARE_DEAD:
            hd += 1
        else:
            raise ValueError(f"unknown health {health!r}")
    if ed == 0 and hd == 0:
        ratio = None
    elif hd == 0:
        ratio = math.inf
    else:
        ratio = ed / hd
    return DeathTally(ok, ed, hd, ratio)
