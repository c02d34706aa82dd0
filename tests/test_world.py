"""Arena parsing, cell geometry, line of sight, socket schedule, sensing."""

import pytest
from hypothesis import given, strategies as st

from orgsim.errors import ConfigError
from orgsim.geometry import Pose
from orgsim.rng import Rng
from orgsim.world import (DEFAULT_CELL_SIZE, Arena, SocketSchedule,
                          SocketScheduler, TerrainClass, arena_from_lines,
                          in_graveyard, parse_arena, sense_sockets)

ROOM = """\
cellsize 0.25
; walled room with one pillar and a two-cell graveyard
#########
#.......#
#...#...#
#.......#
#GG.....#
#########
socket 0 1 1 0.3 20
socket 1 4 1 0.3 10
"""


@pytest.fixture
def room():
    return parse_arena(ROOM)


# -- parsing --------------------------------------------------------------


def test_parse_room(room):
    assert (room.width, room.height) == (9, 6)
    assert room.cell_size == 0.25
    assert room.terrain_at_cell(0, 0) is TerrainClass.OBSTACLE
    assert room.terrain_at_cell(1, 1) is TerrainClass.PLAIN
    assert room.terrain_at_cell(4, 2) is TerrainClass.OBSTACLE
    assert room.graveyard == (1, 4, 2, 4)
    assert [s.id for s in room.sockets] == [0, 1]


def test_terrain_characters():
    a = arena_from_lines([".rshG", "....."])
    got = [a.terrain_at_cell(x, 0) for x in range(5)]
    assert got == [TerrainClass.PLAIN, TerrainClass.ROUGH, TerrainClass.SLOPE,
                   TerrainClass.SMALL_HOLE, TerrainClass.PLAIN]


def test_parse_rejects_ragged_grid():
    with pytest.raises(ConfigError, match="differ in length"):
        parse_arena("...\n....")


def test_parse_rejects_unknown_characters():
    with pytest.raises(ConfigError, match="unknown terrain"):
        parse_arena("..X..")


def test_parse_rejects_empty_and_misplaced_directives():
    with pytest.raises(ConfigError, match="no terrain grid"):
        parse_arena("; nothing here\n")
    with pytest.raises(ConfigError, match="must precede"):
        parse_arena("...\ncellsize 0.5")
    with pytest.raises(ConfigError, match="bad cellsize"):
        parse_arena("cellsize nope\n...")
    with pytest.raises(ConfigError, match="socket wants"):
        parse_arena("...\nsocket 0 1")


def test_socket_validation():
    base = "#####\n#...#\n#####"
    with pytest.raises(ConfigError, match="inside a wall"):
        parse_arena(base + "\nsocket 0 0 0 0.3 20")
    with pytest.raises(ConfigError, match="duplicate socket id"):
        parse_arena(base + "\nsocket 0 1 1 0.3 20\nsocket 0 2 1 0.3 20")
    with pytest.raises(ConfigError, match="outside arena"):
        parse_arena(base + "\nsocket 0 9 9 0.3 20")
    with pytest.raises(ConfigError, match="is negative"):
        parse_arena(base + "\nsocket 0 1 1 -0.3 20")
    with pytest.raises(ConfigError, match="must be positive"):
        parse_arena(base + "\nsocket 0 1 1 0.3 0")
    open_floor = ".....\n.....\n....."
    with pytest.raises(ConfigError, match="does not touch a wall"):
        parse_arena(open_floor + "\nsocket 0 2 1 0.3 20")


def test_graveyard_must_fill_its_rectangle():
    with pytest.raises(ConfigError, match="rectangle"):
        parse_arena("G.G\n...")
    a = parse_arena("GG.\nGG.")
    assert a.graveyard == (0, 0, 1, 1)


# -- cell geometry --------------------------------------------------------


def test_cell_math(room):
    assert room.cell_of(0.0, 0.0) == (0, 0)
    assert room.cell_of(0.26, 0.74) == (1, 2)
    assert room.cell_center(1, 1) == (pytest.approx(0.375), pytest.approx(0.375))
    assert room.in_bounds(0.0, 0.0)
    assert room.in_bounds(2.24, 1.49)
    assert not room.in_bounds(2.25, 0.5)  # metric size is 9*0.25 by 6*0.25
    assert not room.in_bounds(-0.01, 0.5)
    assert room.terrain_at(0.3, 0.3) is TerrainClass.PLAIN
    assert room.terrain_at(5.0, 5.0) is None


def test_socket_position_is_the_anchor_cell_center(room):
    assert room.sockets[0].position(room.cell_size) == (
        pytest.approx(0.375), pytest.approx(0.375))


# -- line of sight --------------------------------------------------------


def test_los_open_and_blocked(room):
    assert room.line_of_sight((1, 1), (7, 1))      # along the open corridor
    assert room.line_of_sight((3, 3), (3, 3))      # same cell
    assert not room.line_of_sight((4, 1), (4, 3))  # pillar at (4, 2) between
    assert room.line_of_sight((4, 1), (4, 2))      # endpoint cells never block


def test_los_cannot_slip_through_a_corner():
    a = arena_from_lines([".#", "#."])
    assert not a.line_of_sight((0, 0), (1, 1))
    assert not a.line_of_sight((1, 1), (0, 0))


def test_los_clear_diagonal():
    a = arena_from_lines(["...", "...", "..."])
    assert a.line_of_sight((0, 0), (2, 2))
    assert a.line_of_sight((0, 2), (2, 0))


cells7 = st.tuples(st.integers(0, 6), st.integers(0, 6))


@given(st.sets(cells7, max_size=20), cells7, cells7)
def test_los_is_symmetric(walls, a, b):
    rows = ["".join("#" if (x, y) in walls else "." for x in range(7))
            for y in range(7)]
    # two arenas so the direction-normalizing cache cannot mask asymmetry
    assert (arena_from_lines(rows).line_of_sight(a, b)
            == arena_from_lines(rows).line_of_sight(b, a))


def test_los_cache_answers_every_pair_of_a_tall_arena():
    # 3 wide by 7 tall: a key that mixed up width and height, or packed a
    # pair into an int that another pair also maps to, would hand one
    # pair's cached answer to another
    rows = ["..#",
            ".#.",
            "...",
            "#..",
            "..#",
            ".#.",
            "#.."]
    a = arena_from_lines(rows)
    cells = [(x, y) for y in range(7) for x in range(3)]
    answers = set()
    for p in cells:
        for q in cells:
            got = a.line_of_sight(p, q)
            assert got == a._trace(p, q), (p, q)
            answers.add(got)
    assert answers == {True, False}


def test_walkable_cells_row_major():
    a = arena_from_lines(["#.", ".."])
    assert a.walkable_cells() == [(1, 0), (0, 1), (1, 1)]


# -- socket approach direction --------------------------------------------


def test_socket_approach_directions(room):
    # west wall beside socket 0 points it east into the room
    assert room.sockets[0].approach_deg == pytest.approx(0.0)
    # socket 1 touches both the pillar below-right conventions: the probe
    # order +x, -x, +y, -y finds the pillar at (4, 2) before the top wall
    assert room.sockets[1].approach_deg == pytest.approx(270.0)


def test_socket_approach_top_and_bottom_walls():
    a = parse_arena("#####\n#...#\n#####\nsocket 0 2 1 0.3 20")
    # anchor touches walls above and below; +y probe wins, so the socket
    # reads as mounted on the bottom-of-grid wall
    assert a.sockets[0].approach_deg == pytest.approx(270.0)
    b = parse_arena("#####\n....#\n#####\nsocket 0 1 1 0.3 20")
    assert b.sockets[0].approach_deg == pytest.approx(270.0)


# -- socket scheduler -----------------------------------------------------


def sockets6():
    a = parse_arena(
        "########\n#......#\n########\n"
        + "\n".join(f"socket {i} {i + 1} 1 0.3 20" for i in range(6)))
    return a.sockets


def test_scheduler_keeps_exact_active_count():
    sched = SocketSchedule(seed=7, dwell_min=5, dwell_max=17, active_count=2)
    socks = sockets6()
    sch = SocketScheduler(sched, socks, Rng(7).substream("schedule"))
    assert len(sch.active_ids()) == 2
    shadow = {s.id: s.active for s in socks}
    for tick in range(1, 3000):
        changes = sch.step(tick)
        assert len(sch.active_ids()) == 2
        offs = [sid for sid, active in changes if not active]
        assert offs == sorted(offs)
        # replaying the change stream must reproduce the live flags; a
        # socket may blink off and on within one step when it expires and
        # is immediately drawn as another expiry's replacement
        for sid, active in changes:
            shadow[sid] = active
        assert shadow == {s.id: s.active for s in socks}


def test_scheduler_is_deterministic_per_seed():
    def trace(seed):
        sch = SocketScheduler(
            SocketSchedule(seed=seed, dwell_min=3, dwell_max=9, active_count=3),
            sockets6(), Rng(seed).substream("schedule"))
        out = [tuple(sch.active_ids())]
        for tick in range(1, 500):
            out.append(tuple(sch.step(tick)))
        return out

    assert trace(11) == trace(11)
    assert trace(11) != trace(12)


def test_scheduler_renews_in_place_when_everything_is_active():
    socks = sockets6()
    sch = SocketScheduler(
        SocketSchedule(seed=1, dwell_min=2, dwell_max=4, active_count=6),
        socks, Rng(1).substream("schedule"))
    for tick in range(1, 200):
        assert sch.step(tick) == []
        assert len(sch.active_ids()) == 6


def test_schedule_validation():
    with pytest.raises(ConfigError):
        SocketSchedule(seed=1, dwell_min=0, dwell_max=4, active_count=1)
    with pytest.raises(ConfigError):
        SocketSchedule(seed=1, dwell_min=5, dwell_max=4, active_count=1)
    with pytest.raises(ConfigError):
        SocketSchedule(seed=1, dwell_min=1, dwell_max=2, active_count=-1)
    with pytest.raises(ConfigError, match="exceeds"):
        SocketScheduler(
            SocketSchedule(seed=1, dwell_min=1, dwell_max=2, active_count=9),
            sockets6(), Rng(1))


# -- sensing --------------------------------------------------------------


def test_sense_sockets_range_and_order(room):
    pose = Pose(0.6, 0.375, 0.0)
    near = sense_sockets(pose, 0.3, room)
    assert [s.id for s in near] == [0]
    assert near[0].distance == pytest.approx(0.225)
    assert near[0].position == (pytest.approx(0.375), pytest.approx(0.375))
    assert near[0].approach_deg == pytest.approx(0.0)
    assert near[0].active is False
    both = sense_sockets(pose, 2.0, room)
    assert [s.id for s in both] == [0, 1]
    with pytest.raises(ValueError):
        sense_sockets(pose, -1.0, room)


def test_sense_sockets_respects_line_of_sight(room):
    # cell (4, 3) sits right behind the pillar from socket 1's anchor (4, 1)
    pose = Pose(1.125, 0.875, 0.0)
    assert [s.id for s in sense_sockets(pose, 2.0, room)] == [0]


def test_sense_reports_active_flag(room):
    room.sockets[1].active = True
    got = sense_sockets(Pose(0.6, 0.375, 0.0), 2.0, room)
    assert [(s.id, s.active) for s in got] == [(0, False), (1, True)]


# -- graveyard ------------------------------------------------------------


def test_in_graveyard(room):
    assert in_graveyard(room, 0.3, 1.1)        # cell (1, 4)
    assert in_graveyard(room, 0.74, 1.24)      # far corner of cell (2, 4)
    assert not in_graveyard(room, 0.8, 1.1)    # cell (3, 4) just outside
    assert not in_graveyard(room, 0.3, 0.3)
    with pytest.raises(ValueError):
        in_graveyard(room, 50.0, 50.0)
    no_grave = arena_from_lines(["...", "..."])
    assert not in_graveyard(no_grave, 0.1, 0.1)
