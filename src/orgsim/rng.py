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
"""

from __future__ import annotations

import math

_M64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_SPLIT_INC = 0x9E3779B97F4A7C15


def fnv1a64(data: bytes | str, h: int = _FNV_OFFSET) -> int:
    """FNV-1a 64-bit hash, also used for event log digests. Pass the value
    of an earlier call as `h` to continue hashing where it stopped."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _M64
    return h


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
        return (s * 0x2545F4914F6CDD1D) & _M64

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
        """
        limit = p * 2.0 ** 53
        if math.isfinite(limit):
            bound = math.ceil(limit) << 11
        else:   # inf: every draw hits; -inf and nan: none does
            bound = 1 << 64 if limit > 0 else 0
        mask, mult = _M64, 0x2545F4914F6CDD1D
        s = self._s
        out = []
        for k in range(n):
            s ^= s >> 12
            s ^= (s << 25) & mask
            s ^= s >> 27
            if (s * mult) & mask < bound:
                out.append(k)
        self._s = s
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
