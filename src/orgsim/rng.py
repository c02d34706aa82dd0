"""Seeded pseudo-random streams with portable, explicitly documented math.

Every random decision in a run comes from a named substream of one master
seed, so traces are byte-identical across platforms and implementations that
follow the same recipe:

* label hashing: FNV-1a 64 (offset 0xcbf29ce484222325, prime 0x100000001b3)
* state seeding: one splitmix64 step of (master_seed XOR fnv1a64(label path))
* generator: xorshift64* (shifts 12, 25, 27; multiplier 0x2545f4914f6cdd1d)
* floats: top 53 bits of the output scaled by 2**-53
* bounded ints: plain modulo reduction (bias negligible at simulator scales)

A zero state would make xorshift stick, so seeding falls back to the
splitmix64 increment constant in that case. Substreams are derived from the
root seed plus a '/'-joined label path, never from the parent's position, so
adding draws to one stream cannot shift any other.

`Rng.hits`, the batch of Bernoulli draws behind the hazard field, evaluates
the same recipe in lanes: the xorshift step is linear over GF(2), so the
state a fixed number of draws ahead is a fixed 64x64 bit matrix applied to
the current one, and the lanes start at successive jumps of that many
draws and then step together. The indices, the draws consumed and the
final state equal those of the same number of `random()` calls.
`HitStream` hands the hits of such batches out a few draws at a time.
"""

from __future__ import annotations

import math

_M64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_SPLIT_INC = 0x9E3779B97F4A7C15
_MULT = 0x2545F4914F6CDD1D

# draws per lane in Rng.hits. Each lane start costs one table jump (16
# lookups) and each step 14 operations on an int as wide as all lanes, so
# the work on the wide int is the same for any lane length and the lengths
# trade jumps against steps. For a HitStream block of 4096 draws the cost is
# flat from about 64 to 160 draws a lane (0.36 to 0.5 ms a block on CPython
# 3.11), twice that at 16 and a third more at 32; 64 splits the block into
# 64 full lanes
_LANE = 64
# draws per HitStream refill: one Rng.hits call per block
_BLOCK = 4096
_LANE_BITS = 128       # holds a 64-bit state times the 64-bit multiplier
_JUMP: list[int] | None = None   # see _jump_table


def fnv1a64(data: bytes | str, h: int = _FNV_OFFSET) -> int:
    """FNV-1a 64-bit hash, also used for event log digests. Pass the value
    of an earlier call as `h` to continue hashing where it stopped."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _M64
    return h


def _jump_table() -> list[int]:
    """The state _LANE xorshift steps ahead, as 16 nibble tables in one
    list: entry 16*q + v is the jump of v << 4*q, and by linearity the jump
    of a state is the XOR of the entries of its 16 nibbles. Built once, on
    the first call."""
    global _JUMP
    if _JUMP is None:
        columns = []
        for bit in range(64):
            s = 1 << bit
            for _ in range(_LANE):
                s ^= s >> 12
                s ^= (s << 25) & _M64
                s ^= s >> 27
            columns.append(s)
        table = []
        for q in range(16):
            for v in range(16):
                jumped = 0
                for b in range(4):
                    if v >> b & 1:
                        jumped ^= columns[4 * q + b]
                table.append(jumped)
        _JUMP = table
    return _JUMP


def _jump(t: list[int], s: int) -> int:
    """State `s` advanced _LANE steps through the table `t`."""
    return (t[s & 15] ^ t[16 | s >> 4 & 15] ^ t[32 | s >> 8 & 15]
            ^ t[48 | s >> 12 & 15] ^ t[64 | s >> 16 & 15]
            ^ t[80 | s >> 20 & 15] ^ t[96 | s >> 24 & 15]
            ^ t[112 | s >> 28 & 15] ^ t[128 | s >> 32 & 15]
            ^ t[144 | s >> 36 & 15] ^ t[160 | s >> 40 & 15]
            ^ t[176 | s >> 44 & 15] ^ t[192 | s >> 48 & 15]
            ^ t[208 | s >> 52 & 15] ^ t[224 | s >> 56 & 15]
            ^ t[240 | s >> 60])


def splitmix64(x: int) -> int:
    x = (x + _SPLIT_INC) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class Rng:
    """xorshift64* stream tied to (root seed, label path)."""

    __slots__ = ("root", "label", "_s")

    def __init__(self, root: int, label: str = ""):
        self.root = root & _M64
        self.label = label
        s = splitmix64((self.root ^ (fnv1a64(label) if label else 0)) & _M64)
        self._s = s if s != 0 else _SPLIT_INC

    def substream(self, label: str) -> "Rng":
        path = f"{self.label}/{label}" if self.label else label
        return Rng(self.root, path)

    def u64(self) -> int:
        s = self._s
        s ^= s >> 12
        s = (s ^ (s << 25)) & _M64
        s ^= s >> 27
        self._s = s
        return (s * _MULT) & _M64

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return (self.u64() >> 11) * (2.0 ** -53)

    def hits(self, n: int, p: float) -> list[int]:
        """Indices k in [0, n) whose k-th of n successive random() draws is
        below p, consuming exactly those n draws.

        random() < p holds exactly when u >> 11 < p * 2**53, because scaling
        by a power of two is exact in binary floating point; for an integer
        that is u >> 11 < ceil(p * 2**53), that is u < ceil(p * 2**53) << 11,
        which compares the raw output u with one integer.

        The draws are split into lanes of _LANE, lane j starting _LANE * j
        draws ahead (one table jump from lane j - 1), and every lane is a
        128-bit slot of one int. Each shift-xor is masked to the low 64 bits
        of every slot, and the multiply stays inside its slot, because a
        64-bit state times the 64-bit multiplier is below 2**128. Adding
        2**64 - bound to an output carries into bit 64 of its slot exactly
        when the output is at least the bound, so one add and one mask show
        every lane that hit.
        """
        if n <= 0:
            return []
        limit = p * 2.0 ** 53
        if math.isfinite(limit):
            bound = min(max(math.ceil(limit) << 11, 0), 1 << 64)
        else:   # inf: every draw hits; -inf and nan: none does
            bound = 1 << 64 if limit > 0 else 0
        lanes = -(-n // _LANE)
        # 1 in every slot; then the low 64 bits, bit 64, and 2**64 - bound
        ones = ((1 << _LANE_BITS * lanes) - 1) // ((1 << _LANE_BITS) - 1)
        low, carry, add = ones * _M64, ones << 64, ones * ((1 << 64) - bound)
        s = state = self._s
        if lanes > 1:
            table = _jump_table()
            for j in range(1, lanes):
                s = _jump(table, s)
                state |= s << _LANE_BITS * j
        final = n - 1 - (lanes - 1) * _LANE   # the last lane's last draw
        top = _LANE_BITS * (lanes - 1)
        out = []
        for t in range(min(n, _LANE)):
            state ^= (state >> 12) & low
            state ^= (state << 25) & low
            state ^= (state >> 27) & low
            no_hit = (((state * _MULT) & low) + add) & carry
            if no_hit != carry:
                below = carry ^ no_hit
                while below:
                    b = below & -below
                    k = (b.bit_length() - 1) // _LANE_BITS * _LANE + t
                    if k < n:
                        out.append(k)
                    below ^= b
            if t == final:
                self._s = (state >> top) & _M64
        out.sort()
        return out

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.random()

    def randrange(self, n: int) -> int:
        """Uniform int in [0, n)."""
        if n <= 0:
            raise ValueError(f"randrange bound must be positive, got {n}")
        return self.u64() % n

    def randint(self, a: int, b: int) -> int:
        """Uniform int in [a, b], both ends included."""
        if b < a:
            raise ValueError(f"empty range [{a}, {b}]")
        return a + self.randrange(b - a + 1)

    def choice(self, seq):
        if not seq:
            raise ValueError("choice from empty sequence")
        return seq[self.randrange(len(seq))]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


class HitStream:
    """Successive Bernoulli draws of `rng` against one `p`, handed out in
    runs of any length.

    `take(n)` gives the indices k in [0, n) whose k-th of the next n draws
    is below p: the same list as `rng.hits(n, p)` on the stream as far as
    earlier takes used it. The draws come from `rng.hits(_BLOCK, p)` one
    block at a time, the first on the first take that needs one, so the
    stream's own state runs up to one block ahead of the draws handed out;
    nothing else may draw from it.
    """

    __slots__ = ("_rng", "_p", "_hits", "_next", "_pos")

    def __init__(self, rng: Rng, p: float):
        self._rng = rng
        self._p = p
        self._hits: list[int] = []  # the current block's hits, ascending
        self._next = 0              # index in _hits of the first not given
        self._pos = _BLOCK          # draws of the current block given out

    def take(self, n: int) -> list[int]:
        out = []
        done = 0                    # draws of this take already covered
        while True:
            pos, hits, h = self._pos, self._hits, self._next
            end = pos + n - done
            if end > _BLOCK:
                end = _BLOCK
            while h < len(hits) and hits[h] < end:
                out.append(hits[h] - pos + done)
                h += 1
            self._next = h
            self._pos = end
            done += end - pos
            if done >= n:
                return out
            self._hits = self._rng.hits(_BLOCK, self._p)
            self._next = 0
            self._pos = 0
