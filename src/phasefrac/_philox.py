"""Seeded uniform doubles, bit for bit those of numpy's Philox generator.

`uniforms(seed)` yields the doubles in [0, 1) that numpy's
`Generator(Philox(seed))` draws, so `low + (high - low) * u` over it equals
`Generator.uniform(low, high)`.  The seed is mixed into a 128-bit key as
numpy's `SeedSequence` does (a pool of four 32-bit words, then
`generate_state(2, uint64)`); the counter starts at 0 and is bumped before
each Philox4x64-10 block of four words (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011); a word w gives the double
(w >> 11) * 2^-53.  Pure Python: importing numpy's random package would load
`secrets`, `hmac` and OpenSSL's libcrypto to draw a handful of numbers.
"""
from __future__ import annotations

import operator
from typing import Callable, Iterator

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
# SeedSequence: the pool size, the constants of its two hashes and the
# multipliers of its mixing step
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# Philox4x64: the round multipliers and the Weyl key increments
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10


def _hasher(const: int, mult: int) -> Callable[[int], int]:
    """SeedSequence's hash of 32-bit words; its constant advances per word."""
    def hash_word(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hash_word


def _mix(x: int, y: int) -> int:
    """SeedSequence's mix of a hashed word y into the pool word x."""
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


def _key(seed: int) -> tuple[int, int]:
    """The two 64-bit key words that `Philox(seed)` takes from its SeedSequence."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    # the seed's 32-bit words, least significant first; 0 is one word
    words = [seed >> 32 * i & _MASK32 for i in range(max(1, (seed.bit_length() + 31) // 32))]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(2, uint64): four 32-bit words, paired little-endian
    out = _hasher(_INIT_B, _MULT_B)
    s0, s1, s2, s3 = (out(word) for word in pool)
    return s0 | s1 << 32, s2 | s3 << 32


def _block(ctr: int, k0: int, k1: int) -> tuple[int, int, int, int]:
    """Philox4x64-10 of the 256-bit counter `ctr` under the key (k0, k1)."""
    x0, x1, x2, x3 = (ctr >> 64 * i & _MASK64 for i in range(4))
    for r in range(_ROUNDS):
        if r:
            k0, k1 = (k0 + _W0) & _MASK64, (k1 + _W1) & _MASK64
        p0, p1 = _M0 * x0, _M1 * x2
        x0, x1, x2, x3 = ((p1 >> 64) ^ x1 ^ k0, p1 & _MASK64,
                          (p0 >> 64) ^ x3 ^ k1, p0 & _MASK64)
    return x0, x1, x2, x3


def uniforms(seed: int) -> Iterator[float]:
    """The endless stream of doubles in [0, 1) that numpy's
    `Generator(Philox(seed)).random()` draws, one per 64-bit word.

    `seed` is any non-negative integer (`operator.index` is applied, so numpy
    integers pass); a negative one raises ValueError, a float TypeError.
    """
    k0, k1 = _key(seed)  # here, so that a bad seed raises before the first draw

    def draws() -> Iterator[float]:
        ctr = 0
        while True:
            ctr += 1
            for word in _block(ctr, k0, k1):
                yield (word >> 11) * 2.0 ** -53

    return draws()
