"""Energy economy: exact integer bookkeeping is the whole point here.

The closing property test drives random scripts of drains, recharges and
shares and checks the conservation identity after every single operation;
if any path dropped or invented a picojoule it would surface there.
"""

import math

import pytest
from hypothesis import given, strategies as st

from orgsim.energy import (DEFAULT_CONTACT_RANGE_M, DeathTally, EnergyLedger,
                           Tariff, classify_deaths, drain, drain_idle,
                           recharge, share_energy)
from orgsim.geometry import Pose
from orgsim.robot_model import (PJ, Health, ModuleClass, make_module_spec,
                                new_module_state, to_pj)

SCOUT = make_module_spec(ModuleClass.SCOUT)


def module(mid=0, fraction=1.0, capacity=20000.0):
    spec = make_module_spec(ModuleClass.SCOUT, {"battery_capacity": capacity})
    return new_module_state(mid, spec, Pose(0, 0, 0), fraction)


# -- tariff ---------------------------------------------------------------


def test_tariff_validation():
    Tariff()  # defaults are valid
    with pytest.raises(ValueError):
        Tariff(idle_w=-0.1)
    with pytest.raises(ValueError):
        Tariff(recharge_efficiency=0.0)
    with pytest.raises(ValueError):
        Tariff(recharge_efficiency=1.1)
    assert Tariff(recharge_efficiency=1.0).recharge_efficiency == 1.0


@pytest.mark.parametrize("name", ["idle_w", "coprocessor_w",
                                  "locomotion_j_per_m_kg",
                                  "actuation_j_per_nm_rad", "lock_j",
                                  "share_rate_w", "recharge_efficiency"])
def test_tariff_refuses_nan(name):
    with pytest.raises(ValueError, match=name):
        Tariff(**{name: math.nan})


def test_idle_draw():
    t = Tariff()
    assert t.idle_draw_j(10.0, False) == pytest.approx(5.0)
    assert t.idle_draw_j(10.0, True) == pytest.approx(25.0)


# -- drain ----------------------------------------------------------------


def test_drain_moves_exact_picojoules():
    led = EnergyLedger()
    st_ = module(fraction=1.0)
    got = drain(st_, 123.456, led)
    assert got == pytest.approx(123.456)
    assert st_.battery_pj == 20000 * PJ - round(123.456 * PJ)
    assert led.consumed_pj == round(123.456 * PJ)


def test_drain_clamps_at_empty():
    led = EnergyLedger()
    st_ = module(fraction=0.001)  # 20 J
    got = drain(st_, 50.0, led)
    assert got == pytest.approx(20.0)
    assert st_.battery_pj == 0
    assert drain(st_, 5.0, led) == 0.0
    with pytest.raises(ValueError):
        drain(st_, -1.0, led)


@pytest.mark.parametrize("coprocessor_on", [False, True])
def test_drain_idle_bills_like_per_module_drain(coprocessor_on):
    tariff, dt = Tariff(), 10.0
    price_pj = to_pj(tariff.idle_draw_j(dt, coprocessor_on))

    def fleet():
        # full, partly full, below one tick's price, empty; then a dead
        # module and one whose idle draw was already paid this tick
        states = {i: module(i) for i in range(6)}
        states[1].battery_pj //= 3
        states[2].battery_pj = price_pj - 1
        states[3].battery_pj = 0
        states[4].health = Health.HARDWARE_DEAD
        for st_ in states.values():
            st_.coprocessor_on = coprocessor_on
        return states

    paid = {5}
    batch, single = fleet(), fleet()
    batch_led, single_led = EnergyLedger(), EnergyLedger()
    for _ in range(2):
        drain_idle(batch.values(), paid, tariff, dt, batch_led)
        for i, st_ in single.items():
            if st_.health is Health.OK and i not in paid:
                drain(st_, tariff.idle_draw_j(dt, st_.coprocessor_on),
                      single_led)
    assert ([st_.battery_pj for st_ in batch.values()]
            == [st_.battery_pj for st_ in single.values()])
    assert batch_led.consumed_pj == single_led.consumed_pj
    assert batch[2].battery_pj == 0 and batch[5].battery_pj == 20000 * PJ
    with pytest.raises(ValueError):
        drain_idle(batch.values(), paid, tariff, -dt, EnergyLedger())


# -- recharge -------------------------------------------------------------


def grant(state, *, active=True, rating=20.0, height=0.3, reach=0.3,
          distance=0.05, dt=10.0, tariff=Tariff(), ledger=None):
    return recharge(state, socket_active=active, socket_rating_w=rating,
                    socket_height=height, reach_m=reach, distance_m=distance,
                    dt=dt, tariff=tariff, ledger=ledger or EnergyLedger())


def test_refusal_reasons_in_priority_order():
    dead = module()
    dead.health = Health.ENERGY_DEAD
    dead.battery_pj = 0
    # an off socket outranks every other refusal
    assert grant(dead, active=False, distance=9.0).reason == "inactive"
    assert grant(dead).reason == "dead"
    healthy = module(fraction=0.5)
    assert grant(healthy, distance=0.2, reach=0.1).reason == "position"
    assert grant(healthy, reach=0.1).reason == "reach"


def test_refusal_boundaries_are_inclusive():
    st_ = module(fraction=0.5)
    # reach exactly at socket height charges; distance exactly at contact range charges
    assert grant(st_, reach=0.3, height=0.3).granted
    assert grant(st_, distance=DEFAULT_CONTACT_RANGE_M).granted
    assert not grant(st_, distance=DEFAULT_CONTACT_RANGE_M + 1e-9).granted


def test_recharge_rounding_oracle():
    led = EnergyLedger()
    st_ = module(fraction=0.0)
    led.note_initial(st_.battery_pj)
    res = grant(st_, rating=20.0, dt=10.0, ledger=led)
    # 20 W for 10 s meters 200 J at the wall; 90 percent lands in the battery
    assert res.granted and res.reason is None
    assert res.drawn_j == pytest.approx(200.0)
    assert res.stored_j == pytest.approx(180.0)
    assert st_.battery_pj == 180 * PJ
    assert led.drawn_pj == 200 * PJ
    assert led.charged_pj == 180 * PJ
    assert led.expected_stored_pj() == st_.battery_pj


def test_recharge_headroom_caps_and_remeters():
    led = EnergyLedger()
    st_ = module()
    st_.battery_pj = st_.capacity_pj - 50 * PJ
    res = grant(st_, ledger=led)
    assert st_.battery_pj == st_.capacity_pj        # filled exactly
    assert led.charged_pj == 50 * PJ
    # the meter reads the grid side of the snipped transfer
    assert abs(led.drawn_pj - (50 * PJ) / 0.9) <= 1.0
    assert res.stored_j == pytest.approx(50.0)


def test_full_battery_draws_nothing():
    led = EnergyLedger()
    res = grant(module(fraction=1.0), ledger=led)
    assert res.granted
    assert (res.drawn_j, res.stored_j) == (0.0, 0.0)
    assert led.drawn_pj == 0


def test_recharge_rejects_bad_dt():
    with pytest.raises(ValueError):
        grant(module(), dt=0.0)


# -- sharing --------------------------------------------------------------


EDGE01 = (((0, "N"), (1, "S")),)


def test_share_moves_rate_capped_amount():
    led = EnergyLedger()
    a, b = module(0, 0.5), module(1, 0.25)
    transfers = share_energy(EDGE01, {0: a, 1: b}, 10.0, Tariff(), led)
    # levelling would move 2500 J; 50 W over 10 s allows 500 J
    assert [(t.donor, t.receiver, t.joules) for t in transfers] == [(0, 1, 500.0)]
    assert a.battery_pj == 9500 * PJ
    assert b.battery_pj == 5500 * PJ
    assert led.shared_pj == 500 * PJ


def test_share_levels_exactly_when_rate_allows():
    a, b = module(0, 0.5), module(1, 0.25)
    share_energy(EDGE01, {0: a, 1: b}, 10.0, Tariff(share_rate_w=1e6),
                 EnergyLedger())
    assert a.battery_pj == b.battery_pj == 7500 * PJ


def test_share_direction_follows_charge_fraction_not_joules():
    # a holds more joules but is proportionally emptier than b
    a = module(0, 0.5, capacity=40000.0)   # 20000 J at 50 percent
    b = module(1, 0.9, capacity=20000.0)   # 18000 J at 90 percent
    transfers = share_energy(EDGE01, {0: a, 1: b}, 10.0, Tariff(),
                             EnergyLedger())
    assert transfers[0].donor == 1 and transfers[0].receiver == 0


def test_share_skips_dead_modules():
    a, b = module(0, 1.0), module(1, 0.1)
    b.health = Health.HARDWARE_DEAD
    assert share_energy(EDGE01, {0: a, 1: b}, 10.0, Tariff(),
                        EnergyLedger()) == []


def test_share_respects_donor_charge_and_receiver_headroom():
    led = EnergyLedger()
    a, b = module(0), module(1, 0.0)
    a.battery_pj = 7            # seven picojoules to give
    share_energy(EDGE01, {0: a, 1: b}, 10.0, Tariff(), led)
    assert (a.battery_pj, b.battery_pj) == (4, 3)  # integer levelling, donor keeps the odd picojoule
    # nearly-full receiver: levelling wants 2.5 pJ and the floor moves 2;
    # a levelling transfer can never overshoot the receiver's headroom
    c, d = module(2, 1.0), module(3)
    d.battery_pj = d.capacity_pj - 5
    share_energy((((2, "N"), (3, "S")),), {2: c, 3: d}, 10.0, Tariff(), led)
    assert d.battery_pj == d.capacity_pj - 3
    assert c.battery_pj == c.capacity_pj - 2


def test_share_processes_edges_in_sorted_order():
    led = EnergyLedger()
    states = {i: module(i, 1.0 if i % 2 == 0 else 0.0) for i in range(4)}
    edges = [((2, "N"), (3, "S")), ((0, "N"), (1, "S"))]
    transfers = share_energy(edges, states, 10.0, Tariff(), led)
    assert [(t.donor, t.receiver) for t in transfers] == [(0, 1), (2, 3)]
    with pytest.raises(ValueError):
        share_energy(edges, states, 0.0, Tariff(), led)


pj_amounts = st.integers(0, 30000 * PJ)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          pj_amounts), max_size=30))
def test_share_conserves_total_exactly(ops):
    states = {}
    for i in range(4):
        states[i] = module(i)
        states[i].battery_pj = ops[i][2] % (states[i].capacity_pj + 1) if len(ops) > i else i * PJ
    total = sum(s.battery_pj for s in states.values())
    led = EnergyLedger()
    for a, b, _ in ops:
        if a == b:
            continue
        edge = (((min(a, b), "N"), (max(a, b), "S")),)
        share_energy(edge, states, 10.0, Tariff(), led)
        assert sum(s.battery_pj for s in states.values()) == total
        for s in states.values():
            assert 0 <= s.battery_pj <= s.capacity_pj


# -- whole-ledger conservation under random activity ----------------------


op_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("drain"), st.integers(0, 3),
                  st.floats(0.0, 30000.0, allow_nan=False)),
        st.tuples(st.just("recharge"), st.integers(0, 3),
                  st.floats(0.1, 100.0, allow_nan=False)),
        st.tuples(st.just("share"), st.integers(0, 3), st.integers(0, 3)),
    ),
    max_size=40)


@given(op_strategy)
def test_ledger_identity_holds_after_every_operation(ops):
    led = EnergyLedger()
    states = {i: module(i, fraction=i / 4) for i in range(4)}
    for s in states.values():
        led.note_initial(s.battery_pj)
    tariff = Tariff()
    for op in ops:
        if op[0] == "drain":
            drain(states[op[1]], op[2], led)
        elif op[0] == "recharge":
            recharge(states[op[1]], socket_active=True, socket_rating_w=op[2],
                     socket_height=0.1, reach_m=0.1, distance_m=0.0,
                     dt=10.0, tariff=tariff, ledger=led)
        else:
            _, a, b = op
            if a == b:
                continue
            edge = (((min(a, b), "N"), (max(a, b), "S")),)
            share_energy(edge, states, 10.0, tariff, led)
        stored = sum(s.battery_pj for s in states.values())
        assert led.expected_stored_pj() == stored
        assert led.residual_j(stored) == 0.0


# -- death tally ----------------------------------------------------------


def test_classify_deaths_counts_and_ratio():
    h = Health
    assert classify_deaths([h.OK, h.OK]) == DeathTally(2, 0, 0, None)
    t = classify_deaths([h.OK, h.ENERGY_DEAD, h.ENERGY_DEAD, h.HARDWARE_DEAD])
    assert (t.ok, t.energy_dead, t.hardware_dead) == (1, 2, 1)
    assert t.ratio == pytest.approx(2.0)
    assert t.dead == 3
    assert classify_deaths([h.ENERGY_DEAD]).ratio == math.inf
    m = module()
    m.health = h.ENERGY_DEAD
    assert classify_deaths([m]).energy_dead == 1
    with pytest.raises(ValueError):
        classify_deaths(["sleepy"])
