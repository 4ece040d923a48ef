"""Deterministic 64-bit PRNG used by every seeded operation.

The generator is part of the external contract: a seed is expanded with
SplitMix64 into the 256-bit state of xoshiro256**, and all derived draws
(integers below a bound, shuffles, subset picks) are defined on top of the
raw 64-bit output stream.  Identical seeds and parameters therefore give
bit-identical results across runs and platforms.

Parallel trial streams are derived as stream k = generator(seed XOR k).

`next_bits` draws long runs of bits in 64-step lanes: L copies of the
generator packed side by side in one big int per state word, lane l started
64 * l steps ahead, all advanced together.  Two facts make that exact.  The
state update is linear over GF(2) (xors, a shift and a rotate), so 64 steps
are one 256 x 256 bit matrix J, the jump matrix, and lane l's start is J^l
times the state, found GROUP at a time through a table of s -> (J s, ...,
J^GROUP s).  And the output bit, bit 57 of 5 * s1, depends only on the low
58 bits of s1, which times 5 stay below 2^61: one multiply of all lanes'
masked s1 words carries nothing across a lane.
"""

from __future__ import annotations

from functools import cache, reduce
from operator import getitem, xor

MASK64 = (1 << 64) - 1
LANE = 64  # steps per lane in `next_bits`, and bits per lane word
GROUP = 4  # lane starts per jump-table lookup in `_lane_words`


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

        The draws run in L = ceil(count / 64) lanes (one when count <= 64):
        lane l starts at step 64 * l, from `_lane_words`, and bit
        64 * l + i is its output at pass i, so 64 passes give every bit.
        The state left behind is the last lane's at step `count`.  The low
        bit of rotl(5 * s1, 7) * 9 is bit 57 of 5 * s1, so the output needs
        no rotate and no multiply by 9, and only the low 58 bits of each
        lane's s1 take part in the one multiply.
        """
        if count < 0:
            raise ValueError("count must not be negative")
        lanes = max(1, -(-count // LANE))
        top = LANE * (lanes - 1)
        out, end = _run_lanes(_lane_words(self.s, lanes), lanes, min(count, LANE),
                              count - top - 1)
        self.s[:] = [w >> top for w in end]
        return out & ((1 << count) - 1)

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


# ---------------------------------------------------------------------------
# 64-step lanes for next_bits
# ---------------------------------------------------------------------------

def _lane_masks(lanes: int) -> tuple[int, int, int, int, int]:
    """The masks `_run_lanes` applies to `lanes` lanes: bit 0 of every lane,
    and every lane's low 58 bits, bits 17..63, low 45 bits and bits 45..63."""
    ones = ((1 << (LANE * lanes)) - 1) // MASK64
    return (ones, ones * ((1 << 58) - 1), ones * (MASK64 ^ ((1 << 17) - 1)),
            ones * ((1 << 45) - 1), ones * (MASK64 ^ ((1 << 45) - 1)))


_ONE_LANE_MASKS = _lane_masks(1)  # every draw of at most 64 bits uses these


def _run_lanes(words: list[int], lanes: int, passes: int, snap: int):
    """Advance `lanes` generators packed in the four state `words` (lane l
    in bits 64 * l..64 * l + 63 of each) `passes` steps.  Returns their
    outputs, bit 64 * l + i being lane l's `next_bit` at pass i, and the
    words after pass `snap` (the words given when no pass is `snap`)."""
    ones, lo58, hi17, lo45, hi45 = _ONE_LANE_MASKS if lanes == 1 else _lane_masks(lanes)
    s0, s1, s2, s3 = end = words
    out = 0
    for i in range(passes):
        out |= ((s1 & lo58) * 5 >> 57 & ones) << i
        t = (s1 << 17) & hi17
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = (s3 << 45) & hi45 | (s3 >> 19) & lo45
        if i == snap:
            end = s0, s1, s2, s3
    return out, end


def _pack(states: bytes) -> list[int]:
    """The four lane words of 32-byte little-endian states, state l as lane l."""
    view = memoryview(states).cast("Q")
    return [int.from_bytes(view[w::4].tobytes(), "little") for w in range(4)]


@cache
def _jump_tables() -> tuple[list[int], ...]:
    """The jumps by 64, 128, ..., 64 * GROUP steps as 64 nibble tables:
    table k maps a nibble v at bits 4k..4k+3 of a 256-bit state (s0 in bits
    0..63, s3 in 192..255) to the xor of the columns of v's set bits.  The
    column of unit state j holds its images after 64 * g steps of
    `_run_lanes` in bits 256 * (g - 1)..256 * g - 1, g = 1..GROUP; the 256
    unit states run as one lane each."""
    units = bytearray(32 * 256)
    for j in range(256):
        units[32 * j + j // 8] |= 1 << (j % 8)  # lane j: bit j of its state
    words = _pack(bytes(units))
    view = memoryview(bytearray(32 * GROUP * 256)).cast("Q")
    for g in range(GROUP):
        _, words = _run_lanes(words, 256, LANE, LANE - 1)
        for w in range(4):
            view[4 * g + w::4 * GROUP] = memoryview(words[w].to_bytes(8 * 256, "little")).cast("Q")
    raw, size = view.cast("B"), 32 * GROUP
    cols = [int.from_bytes(raw[size * j:size * j + size], "little") for j in range(256)]
    tables = []
    for k in range(64):
        table = [0] * 16
        for v in range(1, 16):
            low = v & -v
            table[v] = table[v ^ low] ^ cols[4 * k + low.bit_length() - 1]
        tables.append(table)
    return tuple(tables)


_LOW_NIBBLE = bytes(v & 15 for v in range(256))
_HIGH_NIBBLE = bytes(v >> 4 for v in range(256))


def _lane_words(s: list[int], lanes: int) -> list[int]:
    """The four lane words of `lanes` generators started from state `s` at
    steps 0, 64, ..., 64 * (lanes - 1).  The starts come GROUP at a time:
    one pass over the nibbles of the last start so far, through
    `_jump_tables`, gives the next GROUP starts side by side."""
    if lanes == 1:
        return list(s)
    tables = _jump_tables()
    low, high = tables[0::2], tables[1::2]
    state = (s[0] | s[1] << 64 | s[2] << 128 | s[3] << 192).to_bytes(32, "little")
    starts = [state]
    for _ in range(0, lanes - 1, GROUP):
        group = reduce(xor, map(getitem, high, state.translate(_HIGH_NIBBLE)),
                       reduce(xor, map(getitem, low, state.translate(_LOW_NIBBLE)), 0)
                       ).to_bytes(32 * GROUP, "little")
        starts.append(group)
        state = group[-32:]
    return _pack(b"".join(starts)[:32 * lanes])
