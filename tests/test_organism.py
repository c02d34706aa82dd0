"""Organism registry, lift queries, and rigid-body motion.

The registry tests cross-check merge/split bookkeeping and events against a
small union-find written here in the test, so the two sides share no code:
the implementation walks the graph from one end of a removed edge, the
oracle joins sets with path compression.
"""

import gc
import math

import pytest
from hypothesis import given, strategies as st

from orgsim.control import Actuate, Drive, GuardContext, Rejected, guard_action
from orgsim.docking import DockPhase, DockPort, Face
from orgsim.energy import Tariff
from orgsim.errors import CommandError, ProtocolError
from orgsim.geometry import Pose
from orgsim.organism import (G, MergeEvent, Organism,
                             OrganismRegistry, _longest_chain, center_of_mass,
                             edge_key, lift_feasible, lift_torque_nm,
                             organism_move, reach_height,
                             scout_carry_configuration, SplitEvent,
                             worst_case_chain)
from orgsim.robot_model import (Health, ModuleClass, make_module_spec,
                                new_module_state)
from orgsim.world import TerrainClass
from tests.path_reference import sampled

TARIFF = Tariff()

SCOUT = make_module_spec(ModuleClass.SCOUT)
BACKBONE = make_module_spec(ModuleClass.BACKBONE)
WHEEL = make_module_spec(ModuleClass.ACTIVE_WHEEL)


def docked_pair(a: int, b: int, fa=Face.NORTH, fb=Face.SOUTH):
    pa = DockPort(owner=a, face=fa, phase=DockPhase.DOCKED)
    pb = DockPort(owner=b, face=fb, phase=DockPhase.DOCKED)
    pa.peer, pb.peer = pb, pa
    return pa, pb


# -- registry vs union-find oracle ----------------------------------------


def uf_components(ids, pairs):
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    comps = {}
    for i in ids:
        comps.setdefault(find(i), set()).add(i)
    return list(comps.values())


N_MODULES = 7
ALL_PAIRS = [(a, b) for a in range(N_MODULES) for b in range(a + 1, N_MODULES)]


@given(st.lists(st.integers(0, len(ALL_PAIRS) - 1), max_size=40))
def test_registry_tracks_components_exactly(toggles):
    reg = OrganismRegistry()
    live = {}  # (a, b) -> EdgeKey
    # merges, splits and loop-closing edges all build new organisms, so what
    # a caller keeps on one it was handed, such as its reach, stays true
    published = {}  # id(org) -> (org, nodes, edges) when first seen
    expected = {}  # organism id -> members, by the oracle
    for t in toggles:
        a, b = ALL_PAIRS[t]
        before = expected
        if (a, b) in live:
            ev = reg.remove_edge(live.pop((a, b)))
        else:
            pa, pb = docked_pair(a, b)
            ev = reg.register_edge(pa, pb)
            live[(a, b)] = edge_key(pa, pb)

        expected = {min(c): c for c in
                    uf_components(range(N_MODULES), live) if len(c) > 1}
        # the event names what the oracle says the edge touched
        touched = {oid for oid, c in before.items() if a in c or b in c}
        if isinstance(ev, MergeEvent):
            (new_id, members), = [(oid, c) for oid, c in expected.items()
                                  if a in c]
            assert ev.organism_id == new_id
            assert ev.absorbed == tuple(sorted(touched - {new_id}))
            assert ev.nodes == tuple(sorted(members))
        else:
            old_id, = touched
            old = before[old_id]
            parts = uf_components(old, [p for p in live if p[0] in old])
            assert ev.organism_id == old_id
            assert ev.survivors == tuple(sorted(
                min(c) for c in parts if len(c) > 1))
            assert ev.dissolved == tuple(sorted(
                min(c) for c in parts if len(c) == 1))
            assert ev.nodes == tuple(sorted(old))
        got = {oid: set(org.nodes) for oid, org in reg.organisms.items()}
        assert got == expected
        for oid, org in reg.organisms.items():
            assert org.id == min(org.nodes) == oid
            want_edges = {k for (pa_, pb_), k in live.items()
                          if pa_ in org.nodes and pb_ in org.nodes}
            assert org.edges == want_edges
        for mid in range(N_MODULES):
            org = reg.organism_of(mid)
            if any(mid in c for c in expected.values()):
                assert org is not None and mid in org.nodes
            else:
                assert org is None
        for org in reg.organisms.values():
            published.setdefault(id(org), (org, frozenset(org.nodes),
                                            frozenset(org.edges)))
        for org, nodes, edges in published.values():
            assert (org.nodes, org.edges) == (nodes, edges)


def test_reach_is_kept_out_of_eq_and_repr():
    a, b = (Organism(0, {0, 1}, {((0, "N"), (1, "S"))}) for _ in range(2))
    b.reach = 0.2
    assert a == b and repr(a) == repr(b) and a.reach is None


def test_edge_key_is_order_independent():
    pa, pb = docked_pair(4, 2)
    assert edge_key(pa, pb) == edge_key(pb, pa) == ((2, "S"), (4, "N"))


def test_register_requires_docked_mutually_peered_ports():
    pa = DockPort(owner=0, face=Face.NORTH, phase=DockPhase.LOCKING)
    pb = DockPort(owner=1, face=Face.SOUTH, phase=DockPhase.LOCKING)
    reg = OrganismRegistry()
    with pytest.raises(ProtocolError):
        reg.register_edge(pa, pb)
    pa.phase = pb.phase = DockPhase.DOCKED  # still not peered
    with pytest.raises(ProtocolError):
        reg.register_edge(pa, pb)


def test_merge_event_reports_absorbed_organisms():
    reg = OrganismRegistry()
    ev = reg.register_edge(*docked_pair(0, 1))
    assert (ev.organism_id, ev.absorbed, ev.nodes) == (0, (), (0, 1))
    reg.register_edge(*docked_pair(2, 3))
    ev = reg.register_edge(*docked_pair(1, 2))
    assert (ev.organism_id, ev.absorbed, ev.nodes) == (0, (2,), (0, 1, 2, 3))


def test_merge_smaller_newcomer_takes_over_the_id():
    reg = OrganismRegistry()
    reg.register_edge(*docked_pair(1, 2))
    ev = reg.register_edge(*docked_pair(0, 1))
    assert ev.organism_id == 0
    assert ev.absorbed == (1,)


def test_loop_closing_edge_is_not_a_merge():
    reg = OrganismRegistry()
    reg.register_edge(*docked_pair(0, 1))
    reg.register_edge(*docked_pair(1, 2))
    ev = reg.register_edge(*docked_pair(0, 2, Face.EAST, Face.WEST))
    assert ev.absorbed == ()
    assert len(reg.organisms[0].edges) == 3
    # removing one loop edge keeps the organism whole
    sp = reg.remove_edge(((0, "N"), (1, "S")))
    assert (sp.survivors, sp.dissolved) == ((0,), ())


def test_split_events():
    reg = OrganismRegistry()
    reg.register_edge(*docked_pair(0, 1))
    reg.register_edge(*docked_pair(1, 2))
    sp = reg.remove_edge(((0, "N"), (1, "S")))
    assert sp == SplitEvent(0, (1,), (0,), (0, 1, 2))
    sp = reg.remove_edge(((1, "N"), (2, "S")))
    assert sp == SplitEvent(1, (), (1, 2), (1, 2))
    assert reg.organisms == {}
    with pytest.raises(ValueError):
        reg.remove_edge(((0, "N"), (1, "S")))


# -- mass and lift --------------------------------------------------------


def test_center_of_mass_weights_by_mass():
    heavy = make_module_spec(ModuleClass.SCOUT, {"mass": 3.0})
    states = {0: new_module_state(0, SCOUT, Pose(0.0, 0.0, 0)),
              1: new_module_state(1, heavy, Pose(1.0, 0.0, 0))}
    specs = {0: SCOUT, 1: heavy}
    cx, cy = center_of_mass([0, 1], states, specs)
    assert (cx, cy) == pytest.approx((0.75, 0.0))
    with pytest.raises(ValueError):
        center_of_mass([], states, specs)


def test_lift_torque_oracle_values():
    # chain of unit masses on 0.10 m pitch: g * edge * (1 + 2 + ... + n)
    specs = {i: SCOUT for i in range(4)}
    assert lift_torque_nm(0, (1, 2), specs) == pytest.approx(2.943)
    assert lift_torque_nm(0, (1, 2, 3), specs) == pytest.approx(5.886)


def test_lift_feasibility_by_class():
    scout_specs = {i: SCOUT for i in range(4)}
    assert lift_feasible(0, (1, 2), scout_specs)          # 2.943 <= 3
    assert not lift_feasible(0, (1, 2, 3), scout_specs)   # 5.886 > 3
    bb_base = {0: BACKBONE, 1: SCOUT, 2: SCOUT, 3: SCOUT}
    assert lift_feasible(0, (1, 2, 3), bb_base)           # 5.886 <= 7


def chain_org(reg_ids):
    reg = OrganismRegistry()
    for a, b in zip(reg_ids, reg_ids[1:]):
        reg.register_edge(*docked_pair(a, b))
    return reg.organisms[min(reg_ids)]


def test_reach_singleton_is_one_edge():
    # a lone module has no organism (Simulation._reach_of gives it its edge
    # length); a one-module organism, which the search can be handed, agrees
    alone = Organism(id=5, nodes={5}, edges=set())
    assert reach_height(alone, {5: SCOUT}) == pytest.approx(0.10)


def test_reach_designated_stack_is_all_or_nothing():
    org = chain_org([0, 1, 2, 3])
    scouts = {i: SCOUT for i in range(4)}
    mixed = {0: BACKBONE, 1: SCOUT, 2: SCOUT, 3: SCOUT}
    # scout base cannot hold three above; the stack stays flat
    assert reach_height(org, scouts, stack=(0, 1, 2, 3)) == pytest.approx(0.10)
    assert reach_height(org, mixed, stack=(0, 1, 2, 3)) == pytest.approx(0.40)
    assert reach_height(org, scouts, stack=(0, 1, 2)) == pytest.approx(0.30)
    with pytest.raises(ValueError):
        reach_height(org, scouts, stack=())


def test_reach_search_finds_the_best_erectable_chain():
    org = chain_org([0, 1, 2, 3])
    scouts = {i: SCOUT for i in range(4)}
    # all-scout 4-chain: no pivot can lift 3, but any end can lift 2
    assert reach_height(org, scouts) == pytest.approx(0.30)
    one_backbone = {0: BACKBONE, 1: SCOUT, 2: SCOUT, 3: SCOUT}
    assert reach_height(org, one_backbone) == pytest.approx(0.40)


# -- pruned reach search vs exhaustive oracle -----------------------------


def _all_simple_paths(adj, start, limit=24):
    """Every simple path from `start`, the trivial one included, depth
    first; a path stops growing at `limit` modules. The enumeration the
    reach search used before it pruned."""
    path = [start]
    on_path = {start}

    def walk():
        yield tuple(path)
        if len(path) >= limit:
            return
        for nxt in sorted(adj[path[-1]]):
            if nxt in on_path:
                continue
            path.append(nxt)
            on_path.add(nxt)
            yield from walk()
            on_path.discard(nxt)
            path.pop()

    yield from walk()


def exhaustive_worst_case_chain(org, module_id):
    """The first longest path of at most 24 modules hanging off
    `module_id`, neighbours in ascending id: each neighbour's paths
    enumerated in turn with `module_id` taken out of the graph, over
    neighbour lists in edge-key order, an edge listed twice once per edge.
    The enumeration the guard's chain came from before one walk served
    both it and reach."""
    adj = {n: [] for n in org.nodes}
    for (a, _), (b, _) in sorted(org.edges):
        adj[a].append(b)
        adj[b].append(a)
    trimmed = {k: [v for v in vs if v != module_id]
               for k, vs in adj.items() if k != module_id}
    best = ()
    for nb in sorted(adj[module_id]):
        for path in _all_simple_paths(trimmed, nb):
            if len(path) > len(best):
                best = path
    return best


def exhaustive_reach(org, specs):
    """Tallest chain any simple path could erect, every path judged by
    lift_feasible."""
    adj = org.adjacency()
    best = 1
    for start in org.sorted_nodes():
        for path in _all_simple_paths(adj, start):
            if len(path) > best and lift_feasible(path[0], path[1:], specs):
                best = len(path)
    return best * specs[org.sorted_nodes()[0]].edge_length


def organism_of_edges(pairs):
    """An organism over the given module pairs. The k-th pair docks face
    k % 4 of its first module to face (k // 4) % 4 of its second, so a pair
    listed twice is joined by two distinct edges."""
    letters = "NESW"
    edges = set()
    nodes = set()
    for k, (a, b) in enumerate(pairs):
        ea, eb = (a, letters[k % 4]), (b, letters[(k // 4) % 4])
        edges.add((ea, eb) if ea <= eb else (eb, ea))
        nodes |= {a, b}
    return Organism(id=min(nodes), nodes=nodes, edges=edges)


@st.composite
def shaped_organisms(draw):
    """Trees and loop-closing organisms of 1 to 12 modules of mixed
    classes, some with mass or edge_length overrides, the first tree edge
    sometimes doubled."""
    n = draw(st.integers(1, 12))
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    if n > 2:
        ids = st.integers(0, n - 1)
        extra = draw(st.lists(st.tuples(ids, ids).filter(lambda p: p[0] != p[1]),
                              max_size=3))
        pairs += extra
    if n > 1 and draw(st.booleans()):
        pairs.append(pairs[0])
    specs = {}
    for i in range(n):
        overrides = {}
        if draw(st.booleans()):
            overrides["mass"] = draw(st.floats(0.02, 3.0))
        if draw(st.integers(0, 3)) == 0:
            overrides["edge_length"] = draw(st.sampled_from([0.05, 0.1, 0.3]))
        specs[i] = make_module_spec(draw(st.sampled_from(list(ModuleClass))),
                                    overrides)
    org = (organism_of_edges(pairs) if pairs
           else Organism(id=0, nodes={0}, edges=set()))
    return org, specs


@given(shaped_organisms())
def test_pruned_reach_equals_the_exhaustive_search(case):
    org, specs = case
    assert reach_height(org, specs) == exhaustive_reach(org, specs)


@given(shaped_organisms())
def test_worst_case_chain_equals_the_exhaustive_search(case):
    org, specs = case
    for mid in org.sorted_nodes():
        assert worst_case_chain(org, mid, specs) == \
            exhaustive_worst_case_chain(org, mid), mid


@pytest.mark.parametrize("links", [1, 2, 3, 4])
@pytest.mark.parametrize("pivot_class", list(ModuleClass))
def test_pruned_reach_is_exact_at_the_torque_limit(pivot_class, links):
    # module 0 at the end of a line lifts `links` links of mass m with the
    # torque exactly at its limit; one ulp more mass and it cannot
    pivot = make_module_spec(pivot_class)
    chain = tuple(range(1, links + 1))

    def specs_of(mass):
        light = make_module_spec(ModuleClass.SCOUT, {"mass": mass})
        return {0: pivot, **{i: light for i in range(1, links + 2)}}

    def torque(mass):
        return lift_torque_nm(0, chain, specs_of(mass))

    mass = pivot.max_torque / (G * pivot.edge_length * links * (links + 1) / 2)
    while torque(mass) > pivot.max_torque:
        mass = math.nextafter(mass, 0.0)
    while torque(math.nextafter(mass, math.inf)) <= pivot.max_torque:
        mass = math.nextafter(mass, math.inf)
    heavier = math.nextafter(mass, math.inf)
    assert torque(mass) == pivot.max_torque < torque(heavier)
    org = chain_org(list(range(links + 2)))

    def tallest_liftable(specs):
        # modules in the tallest chain pivot 0 lifts, the pivot included
        return 1 + len(_longest_chain(org.adjacency(), 0, 23, specs,
                                      pivot.max_torque))

    assert tallest_liftable(specs_of(mass)) == links + 1
    assert tallest_liftable(specs_of(heavier)) == links
    for specs in (specs_of(mass), specs_of(heavier)):
        assert reach_height(org, specs) == exhaustive_reach(org, specs)

    # the guard judges by the same rule: pivot 0 of a line that ends with
    # the chain may swing it at that mass, not one ulp heavier
    line = chain_org(list(range(links + 1)))

    def guarded(specs):
        states = {i: new_module_state(i, specs[i], Pose(0.1 * i, 0, 0))
                  for i in line.nodes}
        ctx = GuardContext(states, specs, path_clear=None, dt=10.0,
                           socket_by_id=None)
        return guard_action(Actuate(0, 30.0), 0, line, ctx)

    assert worst_case_chain(line, 0, specs_of(mass)) == chain
    assert guarded(specs_of(mass)) == Actuate(0, 30.0)
    refused = guarded(specs_of(heavier))
    assert isinstance(refused, Rejected) and refused.reason == "overload"


def ladder(rungs):
    """Two rails of `rungs` modules, 0..rungs-1 and rungs..2*rungs-1, with a
    rung between each pair of opposite modules."""
    rails = [(i, i + 1) for i in range(rungs - 1)]
    rails += [(rungs + i, rungs + i + 1) for i in range(rungs - 1)]
    return organism_of_edges(rails + [(i, rungs + i) for i in range(rungs)])


def test_reach_of_a_two_by_twelve_ladder_of_backbones():
    org = ladder(12)
    specs = {i: BACKBONE for i in org.nodes}
    # three links cost 0.981 * (1 + 2 + 3) = 5.886 <= 7 N*m, four 9.81
    assert reach_height(org, specs) == exhaustive_reach(org, specs) == 4 * 0.10
    # at 0.25 kg seven links cost 6.867 N*m and eight 8.829
    light = make_module_spec(ModuleClass.BACKBONE, {"mass": 0.25})
    specs = {i: light for i in org.nodes}
    assert lift_feasible(0, tuple(range(1, 8)), specs)
    assert reach_height(org, specs) == 8 * 0.10


def test_worst_case_chain_hangs_the_long_side():
    org = chain_org([0, 1, 2, 3])
    # the guard's chain is the load whatever it weighs: no torque bound
    specs = {i: SCOUT for i in org.nodes}
    assert worst_case_chain(org, 1, specs) == (2, 3)
    assert worst_case_chain(org, 0, specs) == (1, 2, 3)
    assert worst_case_chain(org, 3, specs) == (2, 1, 0)


def test_worst_case_chain_of_a_ladder_takes_ascending_ids_first():
    # the edge keys list some rung neighbours before rail neighbours of a
    # lower id; the walk must still try the lower id first
    org = ladder(10)
    specs = {i: SCOUT for i in org.nodes}
    for mid in org.sorted_nodes():
        assert worst_case_chain(org, mid, specs) == \
            exhaustive_worst_case_chain(org, mid), mid
    assert worst_case_chain(org, 0, specs) == (1, 2, 3, 4, 5, 6, 7, 8, 9, 19,
                                               18, 17, 16, 15, 14, 13, 12, 11,
                                               10)


def test_a_thirty_module_line_hits_the_chain_limit():
    org = chain_org(list(range(30)))
    # reach counts the pivot among its 24 modules: 23 links of 0.01 kg
    # cost 0.00981 * 276 = 2.71 N*m, well within a Backbone's 7
    light = make_module_spec(ModuleClass.BACKBONE, {"mass": 0.01})
    specs = {i: light for i in org.nodes}
    assert worst_case_chain(org, 0, specs) == tuple(range(1, 25))
    assert worst_case_chain(org, 29, specs) == tuple(range(28, 4, -1))
    assert worst_case_chain(org, 10, specs) == tuple(range(11, 30))
    for mid in org.sorted_nodes():
        assert worst_case_chain(org, mid, specs) == \
            exhaustive_worst_case_chain(org, mid), mid
    assert reach_height(org, specs) == exhaustive_reach(org, specs) == 24 * 0.10


def test_the_chain_search_leaves_no_reference_cycle():
    # what a search allocates is freed by reference counting alone: none of
    # it is left for the cycle collector
    org = ladder(4)
    specs = {i: BACKBONE for i in org.nodes}
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        del gc.garbage[:]
        assert reach_height(org, specs) == 4 * 0.10
        assert worst_case_chain(org, 0, specs) == (1, 2, 3, 7, 6, 5, 4)
        gc.collect()
        leaked = [o for o in gc.garbage
                  if "_longest_chain" in getattr(o, "__qualname__", "")]
    finally:
        gc.set_debug(flags)
        del gc.garbage[:]
    assert leaked == []


# -- rigid motion ---------------------------------------------------------


@sampled
def plain(x, y):
    return TerrainClass.PLAIN


def two_scouts(heading=0.0):
    reg = OrganismRegistry()
    reg.register_edge(*docked_pair(0, 1))
    org = reg.organisms[0]
    states = {0: new_module_state(0, SCOUT, Pose(0.0, 0.0, heading)),
              1: new_module_state(1, SCOUT, Pose(0.1, 0.0, heading))}
    specs = {0: SCOUT, 1: SCOUT}
    return org, states, specs


def test_translate_moves_rigidly_and_caps_speed():
    org, states, specs = two_scouts()
    specs = {0: SCOUT, 1: BACKBONE}
    states[1].module_class = ModuleClass.BACKBONE
    res = organism_move(org, states, specs, Drive(1.0, 0.0), 0, 10.0,
                        plain, TARIFF)
    assert not res.blocked
    # slowest ground member is the screw drive at 0.06 m/s
    assert res.poses[0].x == pytest.approx(0.6)
    assert res.poses[1].x == pytest.approx(0.7)
    assert res.poses[0].heading == 0.0
    d_old = states[0].pose.distance_to(states[1].pose)
    d_new = res.poses[0].distance_to(res.poses[1])
    assert abs(d_old - d_new) < 1e-12


def test_turn_rotates_about_the_center_of_mass():
    org, states, specs = two_scouts()
    res = organism_move(org, states, specs, Drive(angular=90.0), 0, 1.0,
                        plain, TARIFF)
    assert res.poses[0].x == pytest.approx(0.05)
    assert res.poses[0].y == pytest.approx(-0.05)
    assert res.poses[1].x == pytest.approx(0.05)
    assert res.poses[1].y == pytest.approx(0.05)
    assert res.poses[0].heading == pytest.approx(90.0)
    d_new = res.poses[0].distance_to(res.poses[1])
    assert abs(d_new - 0.1) < 1e-9


def test_turn_rate_capped_by_rim_speed():
    org, states, specs = two_scouts()
    states[1].pose = Pose(2.0, 0.0, 0.0)  # r_max = 1.0 around the midpoint
    res = organism_move(org, states, specs, Drive(angular=90.0), 0, 10.0,
                        plain, TARIFF)
    # cap 0.125 m/s * 10 s over a 1.0 m radius = 1.25 rad of arc
    assert res.poses[1].heading == pytest.approx(math.degrees(1.25))


def test_a_drive_is_read_in_the_driver_s_body_frame():
    # the body faces +y: a forward drive goes up, a lateral one to the left
    org, states, specs = two_scouts(heading=90.0)
    res = organism_move(org, states, specs, Drive(0.05), 1, 10.0, plain,
                        TARIFF)
    assert res.poses[0].x == pytest.approx(0.0, abs=1e-12)
    assert res.poses[0].y == pytest.approx(0.5)
    res = organism_move(org, states, specs, Drive(0.0, 0.05), 0, 10.0, plain,
                        TARIFF)
    assert res.poses[1].x == pytest.approx(-0.4)
    assert res.poses[1].y == pytest.approx(0.0, abs=1e-12)


def test_turn_bills_the_ground_crew_for_a_carried_rider():
    reg = OrganismRegistry()
    reg.register_edge(*docked_pair(0, 1))
    reg.register_edge(*docked_pair(1, 2))
    org = reg.organisms[0]
    specs = {0: SCOUT, 1: SCOUT, 2: BACKBONE}
    states = {0: new_module_state(0, SCOUT, Pose(1.0, 1.0, 0)),
              1: new_module_state(1, SCOUT, Pose(1.1, 1.0, 0)),
              2: new_module_state(2, BACKBONE, Pose(1.05, 1.1, 0))}
    states[2].carried = True
    res = organism_move(org, states, specs, Drive(angular=3.0), 1, 10.0,
                        plain, TARIFF)
    assert not res.blocked
    cx, cy = center_of_mass(org.nodes, states, specs)
    for mid, old in states.items():
        new = res.poses[mid]
        # every member turns 30 degrees about the center of mass
        assert math.hypot(new.x - cx, new.y - cy) == pytest.approx(
            math.hypot(old.pose.x - cx, old.pose.y - cy))
        assert math.degrees(math.atan2(new.y - cy, new.x - cx)
                            - math.atan2(old.pose.y - cy, old.pose.x - cx)
                            ) % 360.0 == pytest.approx(30.0)
        assert new.heading == pytest.approx(30.0)
    raw = {mid: TARIFF.locomotion_j_per_m_kg * specs[mid].mass
           * states[mid].pose.distance_to(res.poses[mid]) for mid in states}
    # the rider pays nothing; the two walkers split its share evenly
    assert res.energy_j[2] == 0.0
    for mid in (0, 1):
        assert res.energy_j[mid] == pytest.approx(raw[mid] + raw[2] / 2)
    assert sum(res.energy_j.values()) == pytest.approx(sum(raw.values()))


def test_sideways_translation_needs_scout_carry():
    org, states, _ = two_scouts()
    specs = {0: SCOUT, 1: BACKBONE}
    states[1].module_class = ModuleClass.BACKBONE
    with pytest.raises(CommandError):
        organism_move(org, states, specs, Drive(0.0, 0.05), 0, 10.0,
                      plain, TARIFF)


def test_scout_carry_configuration_and_sideways_motion():
    reg = OrganismRegistry()
    reg.register_edge(*docked_pair(0, 1))
    reg.register_edge(*docked_pair(1, 2))
    org = reg.organisms[0]
    specs = {0: SCOUT, 1: SCOUT, 2: BACKBONE}
    states = {0: new_module_state(0, SCOUT, Pose(0.0, 0.0, 0)),
              1: new_module_state(1, SCOUT, Pose(0.1, 0.0, 0)),
              2: new_module_state(2, BACKBONE, Pose(0.05, 0.0, 0))}
    states[2].carried = True
    assert scout_carry_configuration(org, states)
    res = organism_move(org, states, specs, Drive(0.0, 0.05), 0, 10.0,
                        plain, TARIFF)
    assert not res.blocked
    assert res.poses[0].y == pytest.approx(0.5)
    # the rider is billed nothing; the walkers split its freight evenly
    assert res.energy_j[2] == 0.0
    raw = TARIFF.locomotion_j_per_m_kg * 0.5 * 1.0
    assert res.energy_j[0] == pytest.approx(raw * 1.5)
    assert res.energy_j[1] == pytest.approx(raw * 1.5)
    states[2].carried = False
    assert not scout_carry_configuration(org, states)


def test_blocked_member_freezes_the_whole_body():
    @sampled
    def walled(x, y):
        return TerrainClass.PLAIN if x < 0.55 else None
    org, states, specs = two_scouts()
    res = organism_move(org, states, specs, Drive(0.125, 0.0), 0, 10.0,
                        walled, TARIFF)
    assert res.blocked
    assert res.poses[0] == states[0].pose and res.poses[1] == states[1].pose
    assert set(res.energy_j.values()) == {0.0}


def test_carried_module_ignores_soft_terrain_but_not_walls():
    @sampled
    def rough_north(x, y):
        return TerrainClass.ROUGH if y > 0.25 else TerrainClass.PLAIN
    reg = OrganismRegistry()
    reg.register_edge(*docked_pair(0, 1))
    reg.register_edge(*docked_pair(1, 2))
    org = reg.organisms[0]
    specs = {0: SCOUT, 1: SCOUT, 2: BACKBONE}
    states = {0: new_module_state(0, SCOUT, Pose(0.0, 0.0, 0)),
              1: new_module_state(1, SCOUT, Pose(0.1, 0.0, 0)),
              2: new_module_state(2, BACKBONE, Pose(0.05, 0.5, 0))}
    states[2].carried = True
    res = organism_move(org, states, specs, Drive(0.05, 0.0), 0, 10.0,
                        rough_north, TARIFF)
    assert not res.blocked  # rider crosses rough ground it could never walk
    @sampled
    def obstacle_north(x, y):
        return TerrainClass.OBSTACLE if y > 0.25 else TerrainClass.PLAIN
    res = organism_move(org, states, specs, Drive(0.05, 0.0), 0, 10.0,
                        obstacle_north, TARIFF)
    assert res.blocked


def test_ground_member_respects_its_own_traversability():
    @sampled
    def rough_east(x, y):
        return TerrainClass.ROUGH if x > 0.3 else TerrainClass.PLAIN
    org, states, _ = two_scouts()
    specs = {0: SCOUT, 1: BACKBONE}
    states[1].module_class = ModuleClass.BACKBONE
    res = organism_move(org, states, specs, Drive(0.06, 0.0), 0, 10.0,
                        rough_east, TARIFF)
    assert res.blocked  # the screw module cannot enter rough ground


def test_dead_member_must_be_carried():
    org, states, specs = two_scouts()
    states[1].health = Health.HARDWARE_DEAD
    with pytest.raises(CommandError):
        organism_move(org, states, specs, Drive(0.05, 0.0), 0, 10.0,
                      plain, TARIFF)
    states[1].carried = True
    res = organism_move(org, states, specs, Drive(0.05, 0.0), 0, 10.0,
                        plain, TARIFF)
    assert not res.blocked


def test_no_ground_contact_is_an_error():
    org, states, specs = two_scouts()
    states[0].carried = True
    states[1].carried = True
    with pytest.raises(CommandError):
        organism_move(org, states, specs, Drive(0.05, 0.0), 0, 10.0,
                      plain, TARIFF)


def test_zero_commands_are_free_no_ops():
    org, states, specs = two_scouts()
    # below 1e-12 m/s with no turn rate the drive asks for no motion
    for cmd in (Drive(), Drive(1e-13, -1e-13)):
        res = organism_move(org, states, specs, cmd, 0, 10.0, plain, TARIFF)
        assert not res.blocked
        assert res.poses[0] == states[0].pose
        assert set(res.energy_j.values()) == {0.0}
    # decided before any member is looked at: a dead member on the ground
    # stops a move, not a drive that asks for none
    states[1].health = Health.HARDWARE_DEAD
    assert not organism_move(org, states, specs, Drive(), 0, 10.0, plain,
                             TARIFF).blocked
    with pytest.raises(ValueError):
        organism_move(org, states, specs, Drive(angular=1.0), 0, 0.0, plain,
                      TARIFF)
