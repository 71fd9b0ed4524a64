"""Reproducible randomness: SeedSequence spawning helpers.

Every experiment takes one master seed; anything that runs in parallel
(worker processes, batched trials) receives *spawned* child sequences,
so results are bit-identical regardless of worker count or scheduling
order — the standard NumPy approach recommended for parallel Monte
Carlo.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "spawn_generators",
    "spawn_seeds",
    "generator_from",
    "seed_sequence_from",
    "unspawned",
]


def unspawned(seed: np.random.SeedSequence) -> np.random.SeedSequence:
    """A copy of ``seed`` that has spawned no children yet.

    ``SeedSequence.spawn`` numbers its children on from what the object
    already spawned, so spawning from the caller's own object would make
    a second call with the same seed draw other children.  Spawning from
    this copy (same entropy, spawn key and pool size) makes a result
    depend on the seed's identity only; a caller who wants a stream
    passes a ``Generator``.
    """
    return np.random.SeedSequence(
        seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size
    )


def seed_sequence_from(
    seed: np.random.Generator | np.random.SeedSequence | int | None,
) -> np.random.SeedSequence:
    """Coerce a seed-ish argument into a spawnable ``SeedSequence``.

    The inverse convenience of :func:`generator_from`, used by the
    sharded execution paths, which need a *spawnable* root rather than
    a single stream.  A ``Generator`` argument cannot be split
    losslessly, so its entropy is drawn from the stream itself (one
    ``integers`` call — deterministic given the generator state, and
    the generator advances exactly one draw).
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        return np.random.SeedSequence(int(seed.integers(2**63)))
    return np.random.SeedSequence(seed)


def generator_from(seed: np.random.Generator | np.random.SeedSequence | int | None) -> np.random.Generator:
    """Coerce a seed-ish argument into a ``numpy.random.Generator``."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_seeds(master: int | np.random.SeedSequence, count: int) -> list[np.random.SeedSequence]:
    """Spawn ``count`` independent child SeedSequences from a master seed.

    A ``SeedSequence`` master is left untouched (see :func:`unspawned`):
    the same master always spawns the same children.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if isinstance(master, np.random.SeedSequence):
        return unspawned(master).spawn(count)
    return np.random.SeedSequence(master).spawn(count)


def spawn_generators(master: int | np.random.SeedSequence, count: int) -> list[np.random.Generator]:
    """Spawn ``count`` independent Generators from a master seed."""
    return [np.random.default_rng(s) for s in spawn_seeds(master, count)]
