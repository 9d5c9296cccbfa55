"""Deterministic substream construction for parallel sampling.

Every sample of an experiment draws from its own counter-based substream
keyed by ``(seed, sample_index, role)``.  Splitting work across processes
therefore cannot change any sample's randomness: worker counts and chunk
boundaries are invisible to the results.

A substream is a Philox generator whose key numpy's ``SeedSequence``
derives from the key tuple.  ``substream`` builds one such generator.  An
ensemble part keys all of its samples at once: ``substream_keys`` runs
the ``SeedSequence`` hash for every ``(seed, j, role)`` of the part in one
numpy pass, and ``Substreams`` serves them all from one Philox, re-keyed
in place for each stream it opens.  The re-keyed generator is the same
object every time, so it has one owner at a time: a stream opened earlier
stops being its substream once the next one opens.
"""
from __future__ import annotations

import numpy as np

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, mixed by hashmix and mix, read out by a second hash
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_MASK = 0xFFFF_FFFF


def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) column of each of the first ``calls`` hash calls."""
    xor, mul = [], []
    for _ in range(calls):
        xor.append(init)
        init = init * mult & _MASK
        mul.append(init)
    return np.array(xor, np.uint32)[:, None], np.array(mul, np.uint32)[:, None]


# the pool fill and the cross-mix take 4 + 12 calls, and 4 more per entropy
# word beyond the pool: enough here for 64 words (a seed of up to 1984 bits)
_MIX_CONSTANTS = _hash_constants(_INIT_A, _MULT_A, 4 * 64)
_OUT_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, _POOL)
# the cross-mix hashes pool word ``src`` into each other word in turn: the
# 3 calls of step ``src`` as a column over all 4 words (word ``src`` idle)
_CROSS = [tuple(np.insert(c[_POOL + 3 * src:_POOL + 3 * src + 3], src, 0, axis=0) for c in _MIX_CONSTANTS)
          for src in range(_POOL)]


def _hash(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mul
    return values ^ (values >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _SHIFT)


def _words(value: int) -> list[int]:
    """``value`` as SeedSequence reads an int: little-endian uint32 words, one for 0."""
    value = int(value)
    if value < 0:
        raise ValueError(f"substream keys must be non-negative, got {value}")
    words = [value & _MASK]
    while value > _MASK:
        value >>= 32
        words.append(value & _MASK)
    return words


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream addressed by ``(seed, *path)``.

    Philox is counter-based and the mapping is stable across platforms.
    ``SeedSequence`` pads its entropy with zeros, so key tuples that differ
    only by trailing zeros give one stream: ``(7,)``, ``(7, 0)`` and
    ``(7, 0, 0)`` alias.  Other distinct tuples give statistically
    independent streams; ``test_no_demo_experiment_reads_two_aliased_substreams``
    guards the demo experiments against an alias.
    """
    seq = np.random.SeedSequence((int(seed),) + tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seed=seq))


def substream_keys(seed: int, indices, roles) -> np.ndarray:
    """Philox keys of the substreams ``(seed, j, role)``, shape ``(J, R, 2)``.

    Entry ``[i, r]`` is ``SeedSequence((seed, indices[i], roles[r]))
    .generate_state(2, np.uint64)``, for every index and role in one pass
    of uint32 arrays.  Indices and roles must lie in ``[0, 2**32)``.
    """
    seed_words = _words(seed)
    roles = np.asarray(roles, dtype=np.int64)
    js = np.asarray(indices, dtype=np.int64)
    for name, a in (("indices", js), ("roles", roles)):
        if len(a) and (a.min() < 0 or a.max() > _MASK):
            raise ValueError(f"substream {name} must lie in [0, 2**32)")
    count = len(js) * len(roles)
    entropy = np.zeros((max(len(seed_words) + 2, _POOL), count), dtype=np.uint32)
    entropy[:len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[len(seed_words)] = np.repeat(js, len(roles))
    entropy[len(seed_words) + 1] = np.tile(roles, len(js))
    calls = 4 * len(entropy)
    xor, mul = _MIX_CONSTANTS if calls <= len(_MIX_CONSTANTS[0]) else _hash_constants(_INIT_A, _MULT_A, calls)
    pool = _hash(entropy[:_POOL], xor[:_POOL], mul[:_POOL])
    for src in range(_POOL):
        mixed = _mix(pool, _hash(pool[src], *_CROSS[src]))
        mixed[src] = pool[src]
        pool = mixed
    t = 4 * _POOL
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hash(word, xor[t:t + _POOL], mul[t:t + _POOL]))
        t += _POOL
    state = _hash(pool, *_OUT_CONSTANTS).astype(np.uint64)
    keys = state[0::2] | (state[1::2] << np.uint64(32))
    return keys.T.reshape(len(js), len(roles), 2)


_ZEROS = np.zeros(4, dtype=np.uint64)


class Substreams:
    """The substreams ``(seed, j, role)`` of one ensemble part, from one Philox.

    ``open(i, role)`` re-keys the one generator to the substream of the
    part's ``i``-th index and returns it, as ``substream(seed, indices[i],
    role)`` would build it: counter 0 and an empty buffer.
    """

    def __init__(self, seed: int, indices, roles):
        self.roles = tuple(int(r) for r in roles)
        self.keys = substream_keys(seed, indices, self.roles)
        self._generator = np.random.Generator(np.random.Philox(0))

    def open(self, i: int, role: int) -> np.random.Generator:
        self._generator.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZEROS, "key": self.keys[i, self.roles.index(role)]},
            "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        return self._generator
