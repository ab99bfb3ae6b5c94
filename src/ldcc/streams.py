"""Deterministic random-number streams.

Everything stochastic in the package draws from numpy's Philox generator, a
counter-based bit generator whose streams are split by key rather than by
call order.  A single user seed plus a small integer tag plus optional
per-item keys (a task index) select a stream, so

* every task's synthetic draw is independent of how many tasks precede it,
* results are reproducible bit-for-bit from the seed alone.

A seed is an integer in [0, 2^64); anything else (a float, a bool) raises
ValueError, so no two seeds name the same streams.  `stream` is the
definition of a stream: the words (seed low, seed high, tag, key...) seed a
SeedSequence, whose first two 64-bit words are the Philox key, with the
counter at zero.  Philox draws are a function of key and counter alone
(Salmon et al. 2011), so a stream is its key: `set_key` moves a generator
to the start of another stream in place, with the same draws as a new one
but without building a bit generator.  `task_keys` derives the keys of a
range of task streams in one pass of uint32 array arithmetic that replays
SeedSequence's hashing, one lane per task, with the same bits as one
SeedSequence per task.  `generate_synthetic` builds one generator, takes a
chunk's keys at once and sets them task by task.

Streams in use:

====  =======================================  =========================
tag   purpose                                  extra key
====  =======================================  =========================
1     synthetic generation of one task         task index
2     model initialization (means, then alpha) --
3     retired: E-step init noise, not reused   --
4     batch-order shuffle in training          --
5     random demo models (CLI ``gen``)         --
====  =======================================  =========================
"""

import numpy as np

_MASK32 = 0xFFFFFFFF

TASK_STREAM = 1
INIT_STREAM = 2
SHUFFLE_STREAM = 4
RANDOM_MODEL_STREAM = 5


def check_seed(seed) -> int:
    """seed as an int; ValueError unless it is an integer in [0, 2^64)."""
    # A float or a bool is refused too: 1.5 would alias int(1.5), and True the seed 1.
    if type(seed) is bool or not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return int(seed)


def _words(seed, tag, key) -> list[int]:
    seed = check_seed(seed)
    return [seed & _MASK32, seed >> 32, int(tag)] + [int(k) & _MASK32 for k in key]


def stream(seed: int, tag: int, *key: int) -> np.random.Generator:
    """Generator for the (seed, tag, key...) stream."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(_words(seed, tag, key))))


def set_key(rng: np.random.Generator, key) -> np.random.Generator:
    """rng, a Philox generator, moved in place to the start of the stream
    whose Philox key is `key` (two 64-bit words): the key, counter and
    buffer of a new generator, so the same draws from here on.  Returns rng."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,  # empty: the next draw runs the counter's first block
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


# SeedSequence's hash constants, as numpy's bit_generator.pyx names them.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hasher(init: int, mult: int):
    """SeedSequence's hash of uint32 arrays under a running constant: each
    call xors the constant in, steps it (times mult) and multiplies by it,
    then folds the high half down."""
    const = init

    def hash_(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16

    return hash_


def _mix(x, y):
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ result >> 16


def task_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """The Philox keys of task streams start..stop-1, a (stop - start, 2)
    uint64 array: row i is the key of task_stream(seed, start + i), whose
    index `_words` takes modulo 2^32.

    SeedSequence hashes the four words of `_words` into a pool of four
    (mix_entropy), then hashes the pool into generate_state(2, np.uint64).
    Only the task index differs from task to task, so the pass runs on one
    uint32 lane per task, with numpy's wrapping arithmetic."""
    index = np.arange(start, stop, dtype=np.uint64) & _MASK32
    hashmix = _hasher(_INIT_A, _MULT_A)
    words = _words(seed, TASK_STREAM, ())
    pool = [hashmix(np.full(index.size, w, np.uint32)) for w in words]
    pool.append(hashmix(index.astype(np.uint32)))
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    out = _hasher(_INIT_B, _MULT_B)
    state = np.stack([out(word) for word in pool], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def task_stream(seed: int, index: int) -> np.random.Generator:
    return stream(seed, TASK_STREAM, index)


def init_stream(seed: int) -> np.random.Generator:
    return stream(seed, INIT_STREAM)


def shuffle_stream(seed: int) -> np.random.Generator:
    return stream(seed, SHUFFLE_STREAM)


def random_model_stream(seed: int) -> np.random.Generator:
    return stream(seed, RANDOM_MODEL_STREAM)
