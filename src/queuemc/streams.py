"""Per-walker random streams, seeded in one vectorized pass.

``spawn_generators(seed, n)`` returns the same generators as::

    [Generator(PCG64(s)) for s in SeedSequence(seed).spawn(n)]

Building those costs about 25 µs per child, nearly all of it in the
per-child hashing of :class:`numpy.random.SeedSequence`. The children
share their entropy and differ only in the last word of their spawn key,
so the shared part of numpy's hash runs once in Python integers and the
per-child part runs once over all children in numpy ``uint64`` arithmetic
masked to 32 bits. Each child's four state words are then handed to
``PCG64`` through a seed-sequence object (numpy's ``ISeedSequence``
protocol), so the bit generator seeds itself exactly as from the real
child. Tests check the streams against numpy's own spawn.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence constants: pool size, the two hash multiplier
# chains, the pool mixing multipliers and the xorshift.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


def _child_state_words(seed: int, n: int) -> np.ndarray:
    """``SeedSequence(seed).spawn(n)[i].generate_state(4, np.uint64)`` as row i."""
    words = []
    rest = seed
    while True:
        words.append(rest & _M32)
        rest >>= 32
        if not rest:
            break
    # A spawned child pads its run entropy to the pool size before its key.
    words += [0] * (_POOL - len(words))
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * _MULT_A & _M32
        value = value * hash_a & _M32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_L * x - _MIX_R * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(word) for word in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    # The last entropy word is each child's spawn key, its index: mix it
    # into every pool word at once, as a (pool, n) array.
    xor_a, mul_a = _hash_steps(hash_a, _MULT_A, _POOL)
    m32, shift = np.uint64(_M32), np.uint64(16)
    mixed = (np.arange(n, dtype=np.uint64) ^ xor_a) * mul_a & m32
    mixed ^= mixed >> shift
    child_pool = (_column([_MIX_L * word & _M32 for word in pool])
                  - np.uint64(_MIX_R) * mixed) & m32
    child_pool ^= child_pool >> shift

    # generate_state(4, np.uint64): eight 32-bit words drawn cyclically
    # from the pool, paired little-endian into four 64-bit words.
    state = (child_pool[_CYCLE] ^ _XOR_B) * _MUL_B & m32
    state ^= state >> shift
    return np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)


def _column(values) -> np.ndarray:
    return np.array(values, dtype=np.uint64)[:, None]


def _hash_steps(hash_const: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns of the constants of ``count`` hash steps from ``hash_const``:
    the value each step xors in and the value it multiplies by."""
    xors, muls = [], []
    for _ in range(count):
        xors.append(hash_const)
        hash_const = hash_const * mult & _M32
        muls.append(hash_const)
    return _column(xors), _column(muls)


_CYCLE = np.arange(2 * _POOL) % _POOL
_XOR_B, _MUL_B = _hash_steps(_INIT_B, _MULT_B, 2 * _POOL)
# Below this many children numpy's own spawn is the cheaper one: the
# vectorized pass has a fixed cost of about 45 µs, numpy about 16 µs per
# child (2-vCPU Xeon, numpy 2.4).
_VECTOR_MIN = 4


class _SpawnedChild(ISeedSequence):
    """Child ``index`` of ``SeedSequence(seed)``, with PCG64's seed words
    computed in advance; any other request goes to the real child."""

    def __init__(self, seed: int, index: int, words: np.ndarray) -> None:
        self._seed = seed
        self._index = index
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and np.dtype(dtype) == np.uint64:
            return self._words
        child = SeedSequence(self._seed, spawn_key=(self._index,))
        return child.generate_state(n_words, dtype)


def spawn_generators(seed: int, n: int) -> list[Generator]:
    """``[Generator(PCG64(s)) for s in SeedSequence(seed).spawn(n)]``, faster.

    ``seed`` is a non-negative integer and ``n`` is below 2**32.
    """
    seed = int(seed)
    if seed < 0 or not 0 <= n < 2**32:
        raise ValueError("seed must be >= 0 and n in [0, 2**32)")
    if n < _VECTOR_MIN:
        return [Generator(PCG64(s)) for s in SeedSequence(seed).spawn(n)]
    words = _child_state_words(seed, n)
    return [Generator(PCG64(_SpawnedChild(seed, i, row))) for i, row in enumerate(words)]
