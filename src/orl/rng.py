"""Deterministic 64-bit PRNG used by every seeded operation.

The generator is part of the external contract: a seed is expanded with
SplitMix64 into the 256-bit state of xoshiro256**, and all derived draws
(integers below a bound, shuffles, subset picks) are defined on top of the
raw 64-bit output stream.  Identical seeds and parameters therefore give
bit-identical results across runs and platforms.

Parallel trial streams are derived as stream k = generator(seed XOR k).
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1


def splitmix64_stream(seed: int, count: int) -> list[int]:
    """First `count` outputs of SplitMix64 started at `seed`."""
    out = []
    z = seed & MASK64
    for _ in range(count):
        z = (z + 0x9E3779B97F4A7C15) & MASK64
        r = z
        r = ((r ^ (r >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        r = ((r ^ (r >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(r ^ (r >> 31))
    return out


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & MASK64


class Xoshiro256StarStar:
    """xoshiro256** seeded through SplitMix64."""

    __slots__ = ("s",)

    def __init__(self, seed: int):
        self.s = splitmix64_stream(seed & MASK64, 4)

    def next_u64(self) -> int:
        s = self.s
        result = (_rotl((s[1] * 5) & MASK64, 7) * 9) & MASK64
        t = (s[1] << 17) & MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection on the top of the range."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        threshold = (MASK64 + 1) - ((MASK64 + 1) % bound)
        while True:
            r = self.next_u64()
            if r < threshold:
                return r % bound

    def next_bit(self) -> int:
        return self.next_u64() & 1

    def next_bits(self, count: int) -> int:
        """`count` draws of `next_bit` in one int: bit i is the i-th draw.

        The state update of `next_u64` runs on locals and is stored once.
        The low bit of rotl(5 * s1, 7) * 9 is bit 57 of 5 * s1, so the
        output needs no rotate and no multiply by 9.
        """
        s0, s1, s2, s3 = self.s
        out = 0
        for i in range(count):
            out |= ((s1 * 5) >> 57 & 1) << i
            t = (s1 << 17) & MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & MASK64
        self.s[:] = s0, s1, s2, s3
        return out

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, swapping position i with j <= i for i = n-1..1."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list[int]:
        """A uniform permutation of 1..n as a list with pi[i-1] = pi(i)."""
        items = list(range(1, n + 1))
        self.shuffle(items)
        return items

    def subset(self, n: int, k: int) -> list[int]:
        """A uniform k-subset of 1..n, returned sorted."""
        if not 0 <= k <= n:
            raise ValueError("subset size out of range")
        items = list(range(1, n + 1))
        self.shuffle(items)
        return sorted(items[:k])


def stream_for_trial(seed: int, trial: int) -> Xoshiro256StarStar:
    """Independent per-trial stream: generator seeded with seed XOR trial."""
    return Xoshiro256StarStar((seed ^ trial) & MASK64)
