"""Deterministic RNG sub-streams.

Every random decision in a run draws from its own generator, keyed by
(master seed, purpose tag, and usually user id and round index) through
numpy's SeedSequence spawn keys. Results therefore never depend on the
order in which users or rounds happen to be processed.

Building a SeedSequence and a generator costs tens of microseconds, and
a run draws one fading value for every upload. `pcg64_states` therefore
derives the PCG64 states of many keys in one pass. It repeats
SeedSequence's hash and PCG64's seeding step as plain integer arithmetic,
which numpy keeps stable (NEP 19). `exponentials` sets one reused PCG64 to
each state in turn, so its draws are the bits `substream` gives for the
same keys. `tests/test_streams.py` checks both against numpy itself.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

TAG_PLACEMENT = 1
TAG_PARTITION = 2
TAG_INIT = 3
TAG_TRAIN = 4
TAG_CHANNEL = 5
TAG_CPU = 6

# SeedSequence's constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for one purpose; key ints must be non-negative."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=key))


def derive_seed(master_seed: int, *key: int) -> int:
    """Stable integer seed for components that take a seed, not a stream."""
    return int(
        np.random.SeedSequence(entropy=master_seed, spawn_key=key).generate_state(1, np.uint64)[0]
    )


def _seed_words(master_seed: int) -> list[int]:
    """The master seed as SeedSequence reads an int: 32-bit words, lowest first."""
    if master_seed < 0:
        raise ValueError(f"master seed must be >= 0, got {master_seed}")
    words = [master_seed & _MASK32]
    while master_seed := master_seed >> 32:
        words.append(master_seed & _MASK32)
    return words


def _key_column(position: int, values) -> np.ndarray:
    """One spawn-key position as uint32; each key int must fit one 32-bit word.

    SeedSequence splits a larger int into several words, which would give
    keys of different lengths; no stream this package keys needs one.
    """
    column = np.asarray(values)
    if column.size and not (0 <= column.min() and column.max() <= _MASK32):
        raise ValueError(
            f"spawn key position {position} holds values in "
            f"[{column.min()}, {column.max()}], outside 0..2**32-1"
        )
    return column.astype(np.uint32)


def pcg64_states(master_seed: int, *key) -> Iterator[dict]:
    """`PCG64(SeedSequence(entropy=master_seed, spawn_key=k)).state` for many keys k.

    `key` holds at least one int or array of ints, broadcast together; key
    i is the tuple of their i-th values. The pool mixing and
    `generate_state(4, uint64)` run in uint32 arrays, whose arithmetic
    wraps as SeedSequence's does, over all keys at once; the 128-bit
    seeding step runs on Python ints, one key at a time as the returned
    iterator is consumed, so that a batch holds no more than one state dict.
    """
    run = _seed_words(master_seed)
    columns = np.broadcast_arrays(*(_key_column(i, v) for i, v in enumerate(key)))
    n = columns[0].size
    # A spawned sequence pads the run entropy with zeros to the pool size.
    words = [np.full(n, w, np.uint32) for w in run + [0] * (_POOL_SIZE - len(run))]
    words += [c.ravel() for c in columns]

    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state32 = []
    for i in range(4 * 2):  # generate_state(4, np.uint64): eight uint32 words
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state32.append(value ^ (value >> np.uint32(16)))
    # Little-endian pairs make the uint64 words: seed = (s0, s1), stream = (s2, s3).
    s0, s1, s2, s3 = (
        (state32[2 * j].astype(np.uint64) | state32[2 * j + 1].astype(np.uint64) << np.uint64(32))
        .tolist()
        for j in range(4)
    )
    return map(_pcg64_state, s0, s1, s2, s3)


def _pcg64_state(hi: int, lo: int, inc_hi: int, inc_lo: int) -> dict:
    """What pcg64_set_seed makes of seed (hi, lo) and stream (inc_hi, inc_lo)."""
    # inc = 2 * stream + 1; then two LCG steps around adding the seed.
    inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
    state = ((inc + (hi << 64 | lo)) * _PCG64_MULT + inc) & _MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def exponentials(master_seed: int, *key) -> np.ndarray:
    """The first `exponential(1.0)` of each key's stream, keys as in `pcg64_states`.

    Element i equals `substream(master_seed, *key_i).exponential(1.0)` bit
    for bit.
    """
    bits = np.random.PCG64(0)
    draw = np.random.Generator(bits).exponential
    out = []
    for state in pcg64_states(master_seed, *key):
        bits.state = state
        out.append(draw(1.0))
    return np.array(out, dtype=np.float64)
