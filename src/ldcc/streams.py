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
counter at zero.  Philox
draws are a function of key and counter alone (Salmon et al. 2011), so a
stream is its key: `rekey` moves a generator to the start of another
stream in place, with the same draws as a new one but without building a
bit generator.  `generate_synthetic` builds one generator and re-keys it
per task (`task_rekey`).

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


def rekey(rng: np.random.Generator, seed: int, tag: int, *key: int) -> np.random.Generator:
    """rng, a Philox generator, moved in place to the start of
    stream(seed, tag, *key): the same key, counter and buffer, so the same
    draws from here on.  Returns rng."""
    philox_key = np.random.SeedSequence(_words(seed, tag, key)).generate_state(2, np.uint64)
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": philox_key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,  # empty: the next draw runs the counter's first block
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def task_stream(seed: int, index: int) -> np.random.Generator:
    return stream(seed, TASK_STREAM, index)


def task_rekey(rng: np.random.Generator, seed: int, index: int) -> np.random.Generator:
    return rekey(rng, seed, TASK_STREAM, index)


def init_stream(seed: int) -> np.random.Generator:
    return stream(seed, INIT_STREAM)


def shuffle_stream(seed: int) -> np.random.Generator:
    return stream(seed, SHUFFLE_STREAM)


def random_model_stream(seed: int) -> np.random.Generator:
    return stream(seed, RANDOM_MODEL_STREAM)
