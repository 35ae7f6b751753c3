"""Keyed random streams, derived in bulk.

Every Monte Carlo trial draws from ``default_rng(SeedSequence(key))`` for its
integer key: an experiment's prefix ``(seed, kind)`` followed by one row of
small ints (bucket and cycle).  Building that SeedSequence costs tens of
microseconds in Python, more than a short trial, so ``trial_streams`` takes
the rows as one integer grid and reproduces the derivation for all of them in
vectorized uint32 arithmetic: O'Neill's ``seed_seq`` hash mixing into a
4-word pool, ``generate_state(4, uint64)``, then PCG64's seeding step, after
which it re-keys one generator to each derived state in turn.  The streams
are bit for bit those of ``SeedSequence``; the tests check the states and the
first draws against numpy.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterator, Sequence

import numpy as np

_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_XSHIFT = np.uint32(16)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645

PASS_KEYS = 4096  # keys per derivation pass of ``trial_streams``


def _words(key: Sequence[int]) -> list[int]:
    """Little-endian 32-bit words of each int, concatenated (0 is one word)."""
    words: list[int] = []
    for value in map(operator.index, key):
        if value < 0:
            raise ValueError(f"stream key values must be >= 0, got {value}")
        words += [(value >> shift) & _MASK32
                  for shift in range(0, max(value.bit_length(), 1), 32)]
    return words


def _hashmix(value: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """seed_seq's hashmix; its running multiplier never depends on data."""
    def mix(data: np.ndarray) -> np.ndarray:
        nonlocal value
        data = data ^ np.uint32(value)
        value = (value * mult) & _MASK32
        data = data * np.uint32(value)
        return data ^ (data >> _XSHIFT)
    return mix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _pool_state(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, uint64)`` for a (keys, words) array
    of keys that all have the same word count."""
    n_words = words.shape[1]
    hash_a = _hashmix(_INIT_A, _MULT_A)
    zeros = np.zeros(words.shape[0], dtype=np.uint32)
    pool = [hash_a(words[:, i] if i < n_words else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_a(pool[src]))
    for src in range(_POOL_SIZE, n_words):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hash_a(words[:, src]))
    hash_b = _hashmix(_INIT_B, _MULT_B)
    state = np.stack([hash_b(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)],
                     axis=1)
    return np.ascontiguousarray(state, dtype="<u4").view("<u8")


def trial_streams(prefix: Sequence[int], grid: np.ndarray) -> Iterator[np.random.Generator]:
    """One generator per row of ``grid``, equal to
    ``default_rng(SeedSequence((*prefix, *row)))``.

    ``prefix`` holds non-negative ints of any size; ``grid`` is a 2-D integer
    array of values in [0, 2**32), one seed word each.  A bad key raises here:
    a negative or too large value ``ValueError``, a non-integer ``TypeError``.
    States are derived in passes of ``PASS_KEYS`` rows.  The iterator yields
    one reused generator, re-keyed per row, so draw from it before advancing.
    """
    head = _words(prefix)
    grid = np.asarray(grid)
    if grid.ndim != 2 or grid.dtype.kind not in "iu":
        raise TypeError(f"stream key grid must be a 2-D integer array, "
                        f"got {grid.dtype} of shape {grid.shape}")
    for bad in (grid.min(), grid.max()) if grid.size else ():
        if not 0 <= bad <= _MASK32:
            raise ValueError(f"stream key grid values must lie in [0, 2**32), got {bad}")
    return _rekeyed(head, grid)


def _rekeyed(head: list[int], grid: np.ndarray) -> Iterator[np.random.Generator]:
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    pcg = {"state": 0, "inc": 1}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for start in range(0, len(grid), PASS_KEYS):
        rows = grid[start:start + PASS_KEYS]
        words = np.empty((len(rows), len(head) + rows.shape[1]), dtype=np.uint32)
        words[:, :len(head)] = head
        words[:, len(head):] = rows
        for s_hi, s_lo, q_hi, q_lo in _pool_state(words).tolist():
            # PCG64 seeding: inc = (initseq << 1) | 1, state = (inc + initstate)·M + inc.
            inc = (q_hi << 65 | q_lo << 1 | 1) & _MASK128
            pcg["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
            pcg["inc"] = inc
            bit_generator.state = state
            yield rng
