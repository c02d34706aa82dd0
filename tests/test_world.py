"""Arena parsing, cell geometry, line of sight, socket schedule, sensing."""

import dataclasses
import gc
import math
import weakref
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from orgsim.errors import ConfigError
from orgsim.geometry import Pose
from orgsim.rng import Rng
from orgsim.robot_model import _ABOVE_GROUND, _TRAVERSABLE
from orgsim.world import (DEFAULT_CELL_SIZE, PATH_MEMO_SIZE, Arena,
                          SensedSocket, Socket, SocketScheduler, TerrainClass,
                          in_yard, parse_arena, schedule_findings,
                          sense_sockets)
from tests.path_reference import PATH_SAMPLE_STEP, reference_path_clear


def arena_from_lines(rows: list[str],
                     cell_size: float = DEFAULT_CELL_SIZE) -> Arena:
    """An arena built from grid strings directly."""
    return parse_arena(f"cellsize {cell_size}\n" + "\n".join(rows))


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


# the room's socket flags as a run without a schedule keeps them: all off
ROOM_OFF = {0: False, 1: False}


# -- parsing --------------------------------------------------------------


def test_parse_room(room):
    assert (room.width, room.height) == (9, 6)
    assert room.cell_size == 0.25
    assert room.terrain_at_cell(0, 0) is TerrainClass.OBSTACLE
    assert room.terrain_at_cell(1, 1) is TerrainClass.PLAIN
    assert room.terrain_at_cell(4, 2) is TerrainClass.OBSTACLE
    assert room.graveyard == (1, 4, 2, 4)
    assert [s.id for s in room.sockets] == [0, 1]
    assert room.socket_by_id(1) is room.sockets[1]
    assert room.socket_by_id(2) is None


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


def test_free_cells_leave_out_walls_and_the_graveyard(room):
    free = room.free_cells()
    assert free == [(cx, cy) for cy in range(room.height)
                    for cx in range(room.width)
                    if room.terrain_at_cell(cx, cy) is not TerrainClass.OBSTACLE
                    and (cx, cy) not in {(1, 4), (2, 4)}]
    assert len(free) == 7 * 4 - 1 - 2           # floor less pillar and yard
    assert room.walkable_count == len(free) + 2  # the yard is walkable
    no_grave = parse_arena("..\n#.")
    assert no_grave.free_cells() == [(0, 0), (1, 0), (1, 1)]
    assert no_grave.walkable_count == 3


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
    sensed = sense_sockets(Pose(0.6, 0.375, 0.0), 2.0, room, ROOM_OFF)
    assert [s.position for s in sensed] == [room.cell_center(1, 1),
                                            room.cell_center(4, 1)]
    assert sensed[0].position == (pytest.approx(0.375), pytest.approx(0.375))


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
    arena = arena_from_lines(rows)
    assert arena.line_of_sight(a, b) == arena.line_of_sight(b, a)


def test_los_answers_every_pair_of_a_tall_arena():
    # 3 wide by 7 tall: a wall-table index that mixed up width and height
    # would count the walls of another pair's rectangle
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


MAP_DIR = Path(__file__).resolve().parent.parent / "configs" / "maps"
BUNDLED_MAPS = ["ample", "challenge", "disposal_open", "disposal_walled", "zero",
                pytest.param("hazard", marks=pytest.mark.slow)]  # 640 cells


def _assert_los_matches_trace(arena, cells):
    # every ordered pair on one arena: wall-free boxes answer from the
    # table, and that answer must match a walk
    for p in cells:
        for q in cells:
            assert arena.line_of_sight(p, q) == arena._trace(p, q), (p, q)


def _assert_trace_is_symmetric(arena, cells):
    # a sightline is answered by walking from whichever end is asked first,
    # and a Sight refresh writes that one answer for both directions
    for k, p in enumerate(cells):
        for q in cells[k + 1:]:
            assert arena._trace(p, q) == arena._trace(q, p), (p, q)


@pytest.mark.parametrize("name", BUNDLED_MAPS)
def test_los_matches_a_trace_on_every_pair_of_a_bundled_map(name):
    a = parse_arena((MAP_DIR / f"{name}.map").read_text())
    _assert_los_matches_trace(
        a, [(x, y) for y in range(a.height) for x in range(a.width)])


@pytest.mark.parametrize("name", BUNDLED_MAPS)
def test_trace_is_symmetric_on_every_pair_of_a_bundled_map(name):
    a = parse_arena((MAP_DIR / f"{name}.map").read_text())
    _assert_trace_is_symmetric(
        a, [(x, y) for y in range(-1, a.height + 1)
            for x in range(-1, a.width + 1)])


@st.composite
def walled_grids(draw):
    # 1-wide and 1-tall grids included; cells one step off the grid too
    w, h = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cell = st.tuples(st.integers(-1, w), st.integers(-1, h))
    walls = draw(st.sets(st.tuples(st.integers(0, w - 1),
                                   st.integers(0, h - 1))))
    ends = draw(st.lists(st.one_of(st.sampled_from(sorted(walls) or [(0, 0)]),
                                   cell), min_size=2, max_size=8))
    rows = ["".join("#" if (x, y) in walls else "." for x in range(w))
            for y in range(h)]
    return rows, ends


@given(walled_grids())
def test_los_matches_a_trace_on_random_walls(grid):
    rows, ends = grid
    _assert_los_matches_trace(arena_from_lines(rows), ends)


@given(walled_grids())
def test_trace_is_symmetric_on_random_walls(grid):
    rows, ends = grid
    _assert_trace_is_symmetric(arena_from_lines(rows), ends)


@pytest.mark.parametrize("rows", [["."] * 5, ["#"] * 5, [".#.#."],
                                  ["#....#"], ["#", ".", ".", "#", "."]])
def test_los_matches_a_trace_on_one_cell_wide_grids(rows):
    a = arena_from_lines(rows)
    _assert_los_matches_trace(
        a, [(x, y) for y in range(-1, a.height + 1)
            for x in range(-1, a.width + 1)])


def _rect_is_open_by_count(rows, x0, y0, x1, y1):
    # the rectangle lies on the grid and a plain count finds no wall in it
    if not (0 <= x0 and x1 < len(rows[0]) and 0 <= y0 and y1 < len(rows)):
        return False
    return sum(row[x0:x1 + 1].count("#") for row in rows[y0:y1 + 1]) == 0


def _assert_rects_match_a_count(arena, rows):
    # every ordered rectangle whose corners lie on the grid or one step off
    xs, ys = range(-1, arena.width + 1), range(-1, arena.height + 1)
    answers = set()
    for x0 in xs:
        for x1 in xs[x0 + 1:]:
            for y0 in ys:
                for y1 in ys[y0 + 1:]:
                    got = arena.rect_is_open(x0, y0, x1, y1)
                    assert got == _rect_is_open_by_count(rows, x0, y0, x1, y1), (
                        x0, y0, x1, y1)
                    answers.add(got)
    return answers


@pytest.mark.parametrize("name", BUNDLED_MAPS)
def test_rect_is_open_matches_a_wall_count_on_every_rect_of_a_bundled_map(
        name):
    a = parse_arena((MAP_DIR / f"{name}.map").read_text())
    rows = ["".join("#" if t is TerrainClass.OBSTACLE else "." for t in row)
            for row in a.cells]
    assert _assert_rects_match_a_count(a, rows) == {True, False}


@given(walled_grids())
def test_rect_is_open_matches_a_wall_count_on_random_walls(grid):
    rows, _ = grid
    _assert_rects_match_a_count(arena_from_lines(rows), rows)


def _count_walks(arena):
    walked = []
    trace = arena._trace

    def counting_trace(p, q):
        walked.append((p, q))
        return trace(p, q)

    arena._trace = counting_trace
    return walked


def test_los_answers_wall_free_boxes_without_tracing_or_caching():
    a = arena_from_lines(["#########",
                          "#.......#",
                          "#...#...#",
                          "#.......#",
                          "#########"])
    walked = _count_walks(a)
    assert a._walls is None                      # built on the first query
    assert a.line_of_sight((1, 1), (3, 3))       # box holds no wall
    assert a._walls is not None
    assert a.line_of_sight((5, 3), (7, 1))
    assert walked == []
    assert a.line_of_sight((1, 2), (1, 0))       # wall end cell: walked
    assert not a.line_of_sight((3, 2), (5, 2))   # wall between: walked
    assert not a.line_of_sight((-1, 1), (1, 1))  # off the grid: walked
    assert walked == [((1, 2), (1, 0)), ((3, 2), (5, 2)), ((-1, 1), (1, 1))]


def test_a_walled_pair_walks_on_every_query_in_both_directions():
    a = parse_arena((MAP_DIR / "disposal_walled.map").read_text())
    inside, outside = (4, 4), (4, 1)             # the sealed pocket
    walked = _count_walks(a)
    for _ in range(2):
        assert not a.line_of_sight(outside, inside)
        assert not a.line_of_sight(inside, outside)
    assert walked == [(outside, inside), (inside, outside)] * 2
    assert a.line_of_sight((7, 1), (14, 8))      # open floor: no walk
    assert len(walked) == 4


# -- swept paths ----------------------------------------------------------


# every passable set the motion code hands the arena: each class's table,
# and walls-only for a carried module
PASSABLE_SETS = sorted({*_TRAVERSABLE.values(), _ABOVE_GROUND}, key=len)

# unit directions, axis-aligned and 3-4-5 diagonal: a move of k * 0.05 m
# along one puts the sample count ceil(length / 0.05) on a knife edge
DIRECTIONS = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
              (0.6, 0.8), (-0.8, 0.6), (0.8, -0.6)]


@st.composite
def segments(draw, arena):
    size = arena.cell_size

    def coord(cells):
        # anywhere, a little off the arena included, or exactly on a border
        return draw(st.one_of(
            st.floats(-0.3, cells * size + 0.3),
            st.integers(-1, cells + 1).map(lambda k: k * size)))

    x0, y0 = coord(arena.width), coord(arena.height)
    kind = draw(st.sampled_from(["free", "zero", "step_multiple"]))
    if kind == "free":
        return x0, y0, coord(arena.width), coord(arena.height)
    if kind == "zero":
        return x0, y0, x0, y0
    k = draw(st.integers(1, 60))
    ux, uy = draw(st.sampled_from(DIRECTIONS))
    return (x0, y0, x0 + ux * k * PATH_SAMPLE_STEP,
            y0 + uy * k * PATH_SAMPLE_STEP)


def _assert_path_matches_sampler(arena, seg):
    for passable in PASSABLE_SETS:
        assert arena.path_clear(*seg, passable) == reference_path_clear(
            *seg, passable, arena.terrain_at), (seg, passable)


@pytest.mark.parametrize("name", sorted(p.stem for p in MAP_DIR.glob("*.map")))
@given(data=st.data())
def test_path_clear_matches_the_reference_sampler_on_every_map(name, data):
    arena = parse_arena((MAP_DIR / f"{name}.map").read_text())
    _assert_path_matches_sampler(arena, data.draw(segments(arena)))


@st.composite
def terrain_grids(draw):
    # no border walls, so leaving the arena and meeting a wall differ
    w, h = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rows = ["".join(draw(st.lists(st.sampled_from(".rsh#"), min_size=w,
                                  max_size=w))) for _ in range(h)]
    return arena_from_lines(rows, cell_size=draw(st.sampled_from(
        [DEFAULT_CELL_SIZE, 0.1, 0.3])))


@given(data=st.data())
def test_path_clear_matches_the_reference_sampler_on_random_terrain(data):
    arena = data.draw(terrain_grids())
    for _ in range(10):
        _assert_path_matches_sampler(arena, data.draw(segments(arena)))


def test_path_clear_samples_from_the_first_step_to_the_end():
    a = arena_from_lines(["..#.",
                          "r..."])
    plain = (TerrainClass.PLAIN,)
    assert a.path_clear(0.52, 0.1, 0.1, 0.1, plain)     # start never sampled
    assert not a.path_clear(0.6, 0.1, 0.6, 0.1, plain)  # zero length: the end
    assert not a.path_clear(0.1, 0.1, 0.6, 0.1, plain)  # end in the wall
    assert not a.path_clear(0.1, 0.1, 1.0, 0.1, plain)  # end off the arena
    # the wall's x span is [0.5, 0.75): no sample gap is wider than 0.05 m
    assert not a.path_clear(0.48, 0.2, 0.77, 0.3, plain)
    # 0.064 m takes two samples, and the first clips the wall's corner
    assert not a.path_clear(0.49, 0.21, 0.53, 0.26, plain)
    assert a.path_clear(0.3, 0.4, 0.9, 0.4, plain)      # the row below
    assert not a.path_clear(0.3, 0.4, 0.2, 0.4, plain)  # rough ground
    assert a.path_clear(0.3, 0.4, 0.2, 0.4, _ABOVE_GROUND)
    assert not a.path_clear(0.1, 0.1, 0.6, 0.1, _ABOVE_GROUND)


def _assert_memo_matches_sampler(arena, seg):
    # every passable set twice, then an equal tuple that is another object
    for passable in PASSABLE_SETS:
        want = reference_path_clear(*seg, passable, arena.terrain_at)
        for query in (passable, passable, tuple(list(passable))):
            assert arena.path_clear(*seg, query) == want, (seg, passable)


def _signed_zeros(seg):
    """The segment with every zero coordinate given the other sign."""
    return tuple(-v if v == 0.0 else v for v in seg)


@given(data=st.data())
def test_path_memo_answers_like_the_reference_sampler(data):
    arena = data.draw(terrain_grids())
    segs = [data.draw(segments(arena)) for _ in range(6)]
    segs += [(0.0, 0.0, 0.1, 0.1), (0.1, 0.0, 0.0, 0.0), (0.0, 0.1, 0.0, 0.1)]
    for seg in segs:
        if data.draw(st.booleans()):
            arena.path_clear.cache_clear()
        _assert_memo_matches_sampler(arena, seg)
        size = arena.path_clear.cache_info().currsize
        _assert_memo_matches_sampler(arena, _signed_zeros(seg))
        _assert_memo_matches_sampler(arena, seg)
        # signed zeros and equal passable tuples share their entries, and
        # each distinct query was sampled once
        info = arena.path_clear.cache_info()
        assert info.currsize == size == info.misses


def test_a_dropped_arena_is_freed_without_the_cyclic_collector():
    text = (MAP_DIR / "challenge.map").read_text()
    points = [(0.1, 0.1), (0.6, 0.6), (1.3, 0.4), (2.2, 1.9), (9.0, 0.5)]
    segs = [(*a, *b) for a in points for b in points]
    gc.disable()
    try:
        arena = parse_arena(text)
        answers = [arena.path_clear(*seg, passable)
                   for seg in segs for passable in PASSABLE_SETS]
        info = arena.path_clear.cache_info()
        want = [reference_path_clear(*seg, passable, arena.terrain_at)
                for seg in segs for passable in PASSABLE_SETS]
        freed = weakref.ref(arena)
        del arena
        assert freed() is None
    finally:
        gc.enable()
    assert answers == want
    assert info.misses == info.currsize == len(answers)


def test_path_memo_stores_no_answer_for_nan():
    a = arena_from_lines(["....", "...."])
    plain = (TerrainClass.PLAIN,)
    for seg in [(math.nan, 0.1, 0.2, 0.1), (0.1, 0.1, 0.2, math.nan),
                (math.nan, math.nan, math.nan, math.nan)]:
        for _ in range(2):
            with pytest.raises(ValueError):
                reference_path_clear(*seg, plain, a.terrain_at)
            with pytest.raises(ValueError):
                a.path_clear(*seg, plain)
    assert a.path_clear.cache_info().currsize == 0


def test_path_memo_keeps_at_most_maxsize_answers():
    a = arena_from_lines(["..#.",
                          "r..."])
    plain = (TerrainClass.PLAIN,)
    assert a.path_clear.cache_parameters()["maxsize"] == PATH_MEMO_SIZE
    n = PATH_MEMO_SIZE + 100
    segs = [(0.1, 0.1, 0.9 * k / n, 0.45 * (k % 7) / 7) for k in range(n)]
    # the first hundred queries are evicted, then asked again
    for seg in segs + segs[:100]:
        assert a.path_clear(*seg, plain) == reference_path_clear(
            *seg, plain, a.terrain_at), seg
    info = a.path_clear.cache_info()
    assert info.currsize == PATH_MEMO_SIZE
    assert (info.misses, info.hits) == (n + 100, 0)


def test_walkable_cells_row_major():
    a = arena_from_lines(["#.", ".."])
    assert a.free_cells() == [(1, 0), (0, 1), (1, 1)]
    assert a.walkable_count == 3


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


def test_an_arena_keeps_new_socket_records_and_leaves_the_given_ones():
    # one socket list, two grids: a wall above the anchor on the first, a
    # wall to its right on the second
    given = [Socket(id=0, cell=(1, 1), height=0.3, rating=20.0)]
    above = Arena(parse_arena("###\n...\n...").cells, given, None)
    right = Arena(parse_arena("...\n..#\n...").cells, given, None)
    assert above.sockets[0].approach_deg == 90.0
    assert right.sockets[0].approach_deg == 180.0
    assert above.sockets[0].centre == right.sockets[0].centre == (0.375, 0.375)
    assert given == [Socket(id=0, cell=(1, 1), height=0.3, rating=20.0)]
    assert above.socket_by_id(0) is above.sockets[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        above.sockets[0].approach_deg = 0.0
    assert not hasattr(above, "socket_centres")


# -- socket scheduler -----------------------------------------------------


def sockets6():
    """The ids of six sockets, listed out of order."""
    return [3, 0, 5, 1, 4, 2]


def test_scheduler_keeps_exact_active_count():
    sch = SocketScheduler(sockets6(), Rng(7).substream("schedule"),
                          dwell_min=5, dwell_max=17, active_count=2)
    assert list(sch.active) == list(range(6))      # id order
    assert sum(sch.active.values()) == 2
    shadow = dict(sch.active)
    for tick in range(1, 3000):
        changes = sch.step(tick)
        assert sum(sch.active.values()) == 2
        offs = [sid for sid, active in changes if not active]
        assert offs == sorted(offs)
        # replaying the change stream must reproduce the live flags; a
        # socket may blink off and on within one step when it expires and
        # is immediately drawn as another expiry's replacement
        for sid, active in changes:
            shadow[sid] = active
        assert shadow == sch.active


def test_scheduler_is_deterministic_per_seed():
    def trace(seed):
        sch = SocketScheduler(sockets6(), Rng(seed).substream("schedule"),
                              dwell_min=3, dwell_max=9, active_count=3)
        out = [tuple(sid for sid, on in sch.active.items() if on)]
        for tick in range(1, 500):
            out.append(tuple(sch.step(tick)))
        return out

    assert trace(11) == trace(11)
    assert trace(11) != trace(12)


def test_scheduler_renews_in_place_when_everything_is_active():
    sch = SocketScheduler(sockets6(), Rng(1).substream("schedule"),
                          dwell_min=2, dwell_max=4, active_count=6)
    for tick in range(1, 200):
        assert sch.step(tick) == []
        assert all(sch.active.values())


SCHEDULE_BOUNDS = [
    ((0, 4, 1), "dwell bounds must satisfy 0 < min <= max, got [0, 4]"),
    ((5, 4, 1), "dwell bounds must satisfy 0 < min <= max, got [5, 4]"),
    ((1, 2, -1), "rotating schedule needs active_count > 0"),
    ((1, 2, 0), "rotating schedule needs active_count > 0"),
    ((1, 2, 9), "active_count 9 exceeds the 6 sockets on the map"),
]


def test_schedule_validation():
    # the scheduler raises what validation reports, in the same words
    for bounds, finding in SCHEDULE_BOUNDS:
        assert schedule_findings(6, *bounds) == [finding]
        with pytest.raises(ConfigError) as caught:
            SocketScheduler(sockets6(), Rng(1), *bounds)
        assert str(caught.value) == finding
    assert schedule_findings(6, 1, 1, 6) == []
    # every broken bound is listed, and the scheduler joins them with "; "
    assert schedule_findings(0, 3, 2, 0) == [
        "rotating schedule needs active_count > 0",
        "dwell bounds must satisfy 0 < min <= max, got [3, 2]"]
    with pytest.raises(ConfigError, match="exceeds.*; dwell bounds"):
        SocketScheduler([], Rng(1), 3, 2, 1)


# -- sensing --------------------------------------------------------------


def test_sense_sockets_range_and_order(room):
    pose = Pose(0.6, 0.375, 0.0)
    near = sense_sockets(pose, 0.3, room, ROOM_OFF)
    assert [s.id for s in near] == [0]
    assert near[0].distance == pytest.approx(0.225)
    assert near[0].position == (pytest.approx(0.375), pytest.approx(0.375))
    assert near[0].approach_deg == pytest.approx(0.0)
    assert near[0].active is False
    both = sense_sockets(pose, 2.0, room, ROOM_OFF)
    assert [s.id for s in both] == [0, 1]
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="must not be negative"):
            sense_sockets(pose, bad, room, ROOM_OFF)


def test_sense_sockets_respects_line_of_sight(room):
    # cell (4, 3) sits right behind the pillar from socket 1's anchor (4, 1)
    pose = Pose(1.125, 0.875, 0.0)
    assert [s.id for s in sense_sockets(pose, 2.0, room, ROOM_OFF)] == [0]


CHALLENGE_MAP = (MAP_DIR / "challenge.map").read_text()


@given(st.floats(-0.5, 6.5), st.floats(-0.5, 4.0),
       st.sampled_from([0.0, 0.5, 2.0, 8.0]), st.sets(st.integers(0, 5)))
def test_sensed_sockets_follow_the_per_socket_formula(x, y, range_m, live):
    # the sockets' centres are worked out once, as the arena is validated,
    # and each record is built from one tuple; every field must still be
    # what the formula gives, on and off the grid
    arena = parse_arena(CHALLENGE_MAP)
    active = {s.id: s.id in live for s in arena.sockets}
    got = sense_sockets(Pose(x, y, 0.0), range_m, arena, active)
    cs = arena.cell_size
    want = []
    for s in arena.sockets:
        cx, cy = s.cell
        px, py = (cx + 0.5) * cs, (cy + 0.5) * cs
        d = math.hypot(px - x, py - y)
        if d <= range_m and arena.line_of_sight(
                (int(x // cs), int(y // cs)), s.cell):
            want.append(SensedSocket(id=s.id, position=(px, py),
                                     active=s.id in live, rating=s.rating,
                                     distance=d, height=s.height,
                                     approach_deg=s.approach_deg))
    assert [type(r) for r in got] == [SensedSocket] * len(want)
    assert [r._asdict() for r in got] == [r._asdict() for r in want]


def test_sense_reports_active_flag(room):
    got = sense_sockets(Pose(0.6, 0.375, 0.0), 2.0, room, {0: False, 1: True})
    assert [(s.id, s.active) for s in got] == [(0, False), (1, True)]


# -- graveyard ------------------------------------------------------------


def test_in_graveyard(room):
    yard = room.yard
    assert in_yard(yard, 0.3, 1.1)        # cell (1, 4)
    assert in_yard(yard, 0.74, 1.24)      # far corner of cell (2, 4)
    assert not in_yard(yard, 0.8, 1.1)    # cell (3, 4) just outside
    assert not in_yard(yard, 0.3, 0.3)
    assert not in_yard(yard, 50.0, 50.0)  # off the arena
    assert arena_from_lines(["...", "..."]).yard is None


def test_the_yard_is_the_graveyard_in_metres_with_its_far_edges_open():
    arena = parse_arena("cellsize 0.1\n######\n#GGGG#\n######\n")
    assert arena.yard == (0.1, 0.1, 0.5, 0.2)
    assert in_yard(arena.yard, 0.1, 0.1)                # near corner
    assert not in_yard(arena.yard, 0.5, 0.15)           # far x edge
    assert not in_yard(arena.yard, 0.3, 0.2)            # far y edge
    # though 0.5 // 0.1 == 4.0 names a graveyard cell
    assert arena.cell_of(0.5, 0.15) == (4, 1)
    assert parse_arena("..\n..\n").yard is None
