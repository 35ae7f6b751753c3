"""Keyed random streams, derived in bulk.

Every Monte Carlo trial draws from ``default_rng(SeedSequence(key))`` for its
integer key tuple.  Building that SeedSequence costs tens of microseconds in
Python, more than a short trial, so ``pcg64_states`` reproduces the derivation
for many keys at once in vectorized uint32 arithmetic: O'Neill's ``seed_seq``
hash mixing into a 4-word pool, ``generate_state(4, uint64)``, then PCG64's
seeding step.  ``trial_streams`` re-keys one generator to each derived state
in turn.  The streams are bit for bit those of ``SeedSequence``; the tests
check the states and the first draws against numpy.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, Iterator, Sequence

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


def _words(key: Sequence[int], split: dict[int, list[int]]) -> list[int]:
    """Little-endian 32-bit words of each int, concatenated (0 is one word);
    ``split`` keeps the words of each value met, so each is split once."""
    words: list[int] = []
    for value in key:
        value = operator.index(value)
        part = split.get(value)
        if part is None:
            if value < 0:
                raise ValueError(f"stream key values must be >= 0, got {value}")
            part = split[value] = [(value >> shift) & _MASK32
                                   for shift in range(0, max(value.bit_length(), 1), 32)]
        words += part
    return words


class _HashConst:
    """The running multiplier of seed_seq's hashmix; it never depends on data."""

    def __init__(self, init: int, mult: int):
        self.value = init
        self.mult = mult

    def mix(self, data: np.ndarray) -> np.ndarray:
        data = data ^ np.uint32(self.value)
        self.value = (self.value * self.mult) & _MASK32
        data = data * np.uint32(self.value)
        return data ^ (data >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _pool_state(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, uint64)`` for a (keys, words) array
    of keys that all have the same word count."""
    n_words = words.shape[1]
    hash_a = _HashConst(_INIT_A, _MULT_A)
    zeros = np.zeros(words.shape[0], dtype=np.uint32)
    pool = [hash_a.mix(words[:, i] if i < n_words else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_a.mix(pool[src]))
    for src in range(_POOL_SIZE, n_words):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hash_a.mix(words[:, src]))
    hash_b = _HashConst(_INIT_B, _MULT_B)
    state = np.stack([hash_b.mix(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)],
                     axis=1)
    return np.ascontiguousarray(state, dtype="<u4").view("<u8")


def pcg64_states(keys: Sequence[Sequence[int]]) -> list[dict]:
    """``default_rng(SeedSequence(key)).bit_generator.state`` for every key.

    Keys are tuples of non-negative ints; a negative value raises
    ``ValueError`` (it is never wrapped), a non-integer ``TypeError``.
    """
    split: dict[int, list[int]] = {}
    key_words = [_words(key, split) for key in keys]
    by_length: dict[int, list[int]] = {}
    for index, words in enumerate(key_words):
        by_length.setdefault(len(words), []).append(index)
    states: list = [None] * len(key_words)
    for indices in by_length.values():
        words = np.array([key_words[i] for i in indices], dtype=np.uint32)
        for index, (s_hi, s_lo, q_hi, q_lo) in zip(indices, _pool_state(words).tolist()):
            inc = (((q_hi << 64) | q_lo) << 1 | 1) & _MASK128
            state = ((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc) & _MASK128
            states[index] = {"bit_generator": "PCG64",
                             "state": {"state": state, "inc": inc},
                             "has_uint32": 0, "uinteger": 0}
    return states


def trial_streams(keys: Iterable[Sequence[int]]) -> Iterator[np.random.Generator]:
    """One generator per key, equal to ``default_rng(SeedSequence(key))``.

    States are derived in passes of ``PASS_KEYS`` keys, the first up front (a
    bad key in it raises here).  The iterator yields one reused generator,
    re-keyed for each key, so draw from it before advancing.
    """
    keys = iter(keys)
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)

    def rekeyed(states: list[dict]) -> Iterator[np.random.Generator]:
        while states:
            for state in states:
                bit_generator.state = state
                yield rng
            states = pcg64_states(list(itertools.islice(keys, PASS_KEYS)))

    return rekeyed(pcg64_states(list(itertools.islice(keys, PASS_KEYS))))
