"""The RNG recipe is a documented contract; these tests pin it down with
independent reimplementations of each primitive."""

import math

import pytest
from hypothesis import given, strategies as st

from orgsim.rng import (_BLOCK, _LANE, HitStream, Rng, _jump, _jump_table,
                        fnv1a64, splitmix64)

M64 = (1 << 64) - 1


# published FNV-1a 64 reference values
@pytest.mark.parametrize("data,expect", [
    (b"", 0xCBF29CE484222325),
    (b"a", 0xAF63DC4C8601EC8C),
    (b"foobar", 0x85944171F73967E8),
])
def test_fnv1a64_reference_vectors(data, expect):
    assert fnv1a64(data) == expect


def test_fnv1a64_str_is_utf8():
    assert fnv1a64("foobar") == fnv1a64(b"foobar")


def test_incremental_fnv_matches_oneshot():
    assert fnv1a64(b"bar", fnv1a64("foo")) == fnv1a64(b"foobar")
    assert fnv1a64(b"", fnv1a64("foobar")) == fnv1a64("foobar")


def _xorshift64star_once(s: int) -> tuple[int, int]:
    # independent transcription of the published generator
    s ^= (s >> 12)
    s = (s ^ (s << 25)) & M64
    s ^= (s >> 27)
    return s, (s * 0x2545F4914F6CDD1D) & M64


def _splitmix64_once(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


@given(st.integers(min_value=0, max_value=M64))
def test_splitmix_matches_reference(x):
    assert splitmix64(x) == _splitmix64_once(x)


@given(st.integers(min_value=0, max_value=M64), st.text(max_size=20))
def test_stream_follows_documented_recipe(seed, label):
    rng = Rng(seed, label)
    state = _splitmix64_once((seed ^ (fnv1a64(label) if label else 0)) & M64)
    if state == 0:
        state = 0x9E3779B97F4A7C15
    for _ in range(5):
        state, out = _xorshift64star_once(state)
        assert rng.u64() == out


def test_substream_label_paths_compose():
    root = Rng(99)
    a = root.substream("noise").substream("explore/4")
    b = Rng(99, "noise/explore/4")
    assert [a.u64() for _ in range(4)] == [b.u64() for _ in range(4)]


def test_substreams_are_position_independent():
    r1 = Rng(5)
    first = r1.substream("hazards").u64()
    r2 = Rng(5)
    for _ in range(1000):
        r2.u64()
    assert r2.substream("hazards").u64() == first


def test_distinct_labels_decorrelate():
    a = Rng(1, "schedule")
    b = Rng(1, "hazards")
    assert [a.u64() for _ in range(8)] != [b.u64() for _ in range(8)]


@given(st.integers(min_value=0, max_value=M64))
def test_random_unit_interval(seed):
    r = Rng(seed)
    for _ in range(20):
        x = r.random()
        assert 0.0 <= x < 1.0


@given(st.integers(min_value=0, max_value=M64),
       st.integers(min_value=1, max_value=10 ** 6))
def test_randrange_in_bounds(seed, n):
    r = Rng(seed)
    for _ in range(10):
        assert 0 <= r.randrange(n) < n


# 2**-10 puts the bound on exactly 2**54, the edge of the carry test
@pytest.mark.parametrize("p", [0.0, 1e-4, 2 ** -10, 0.5,
                               math.nextafter(1.0, 0.0), 1.0, -0.5, math.inf,
                               math.nan])
# 29 to 61: runs shorter than one lane
@pytest.mark.parametrize("n", [0, 1, 29, 30, 31, 61, _LANE - 1, _LANE,
                               _LANE + 1, 2 * _LANE + 1, 200, _BLOCK, 30000])
def test_hits_matches_successive_random_draws(p, n):
    batch, single = Rng(21, "hazards"), Rng(21, "hazards")
    expect = [k for k in range(n) if single.random() < p]
    assert batch.hits(n, p) == expect
    if p == 1e-4 and n == 30000:
        assert expect  # the rare branch was taken at least once
    assert batch.random() == single.random()


@given(st.integers(min_value=0, max_value=M64),
       st.integers(min_value=0, max_value=5 * _LANE),
       st.one_of(st.floats(min_value=0.0, max_value=0.05),
                 st.floats(allow_nan=True, allow_infinity=True)))
def test_hits_of_any_stream_match_random(seed, n, p):
    batch, single = Rng(seed, "hazards"), Rng(seed, "hazards")
    assert batch.hits(n, p) == [k for k in range(n) if single.random() < p]
    assert batch.random() == single.random()


def test_one_table_jump_is_a_lane_of_draws():
    table = _jump_table()
    assert len(table) == 256
    for seed in range(8):
        rng = Rng(seed, "hazards")
        start = rng._s
        for _ in range(_LANE):
            rng.u64()
        assert _jump(table, start) == rng._s


def _draws_ahead(seed, label, n):
    rng = Rng(seed, label)
    for _ in range(n):
        rng.u64()
    return rng._s


# each run of takes crosses block ends: inside a take, at its first or last
# draw, and over a whole block or more
@pytest.mark.parametrize("sizes", [
    [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 0, 2 * _BLOCK + 7],
    [_BLOCK - 1, 1, 1, _BLOCK - 2, 1],
    [_BLOCK + 1, _BLOCK - 1, _BLOCK],
    [3 * _BLOCK + 5],
    [200] * 50,
], ids=["mixed", "ends", "whole", "three_blocks", "ticks"])
@pytest.mark.parametrize("p", [1e-4, 0.01, 0.5])
def test_take_matches_successive_random_draws(sizes, p):
    stream, single = HitStream(Rng(21, "hazards"), p), Rng(21, "hazards")
    used = 0
    for n in sizes:
        assert stream.take(n) == [k for k in range(n) if single.random() < p]
        used += n
        # the stream's state stands at the end of the block holding the last
        # draw handed out, and no further
        ahead = -(-used // _BLOCK) * _BLOCK
        assert stream._rng._s == _draws_ahead(21, "hazards", ahead)


@given(st.integers(min_value=0, max_value=M64),
       st.lists(st.integers(min_value=0, max_value=_BLOCK + 50), max_size=6),
       st.floats(min_value=0.0, max_value=0.05))
def test_takes_of_any_stream_match_random(seed, sizes, p):
    stream, single = HitStream(Rng(seed, "hazards"), p), Rng(seed, "hazards")
    for n in sizes:
        assert stream.take(n) == [k for k in range(n) if single.random() < p]


def test_a_stream_draws_nothing_before_its_first_take():
    rng = Rng(3, "hazards")
    start = rng._s
    stream = HitStream(rng, 0.5)
    assert stream.take(0) == [] and rng._s == start
    stream.take(1)
    assert rng._s == _draws_ahead(3, "hazards", _BLOCK)


def test_hits_breaks_a_tie_like_random():
    # a threshold equal to a draw must exclude that draw, as `<` does
    ref = Rng(4)
    draws = [ref.random() for _ in range(50)]
    p = draws[7]
    assert Rng(4).hits(50, p) == [k for k, r in enumerate(draws) if r < p]
    assert 7 not in Rng(4).hits(50, p)


def test_randint_covers_both_ends():
    r = Rng(3)
    seen = {r.randint(2, 4) for _ in range(200)}
    assert seen == {2, 3, 4}


def test_shuffle_is_permutation_and_deterministic():
    items = list(range(30))
    a, b = list(items), list(items)
    Rng(17, "placement").shuffle(a)
    Rng(17, "placement").shuffle(b)
    assert a == b
    assert sorted(a) == items
    assert a != items  # astronomically unlikely to be identity


def _fisher_yates(rng: Rng, items: list) -> None:
    # the recipe shuffle follows, built from randrange
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


# lengths up to 700 cover a seeded spawn on the hazard map (~540 free cells)
@given(st.integers(0, M64), st.integers(0, 700))
def test_shuffle_is_fisher_yates_over_randrange(seed, n):
    got, want = list(range(n)), list(range(n))
    r, twin = Rng(seed, "placement"), Rng(seed, "placement")
    r.shuffle(got)
    _fisher_yates(twin, want)
    assert got == want
    assert r._s == twin._s


@given(st.integers(0, M64), st.lists(st.integers(), min_size=1, max_size=40))
def test_choice_indexes_by_one_randrange(seed, seq):
    r, twin = Rng(seed, "pick"), Rng(seed, "pick")
    for _ in range(3):
        assert r.choice(seq) == seq[twin.randrange(len(seq))]
        assert r._s == twin._s
    assert r.random() == twin.random()


def test_bad_bounds_raise():
    r = Rng(0)
    with pytest.raises(ValueError):
        r.randrange(0)
    with pytest.raises(ValueError):
        r.randint(3, 2)
    with pytest.raises(ValueError):
        r.choice([])
