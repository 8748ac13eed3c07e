"""Deterministic RNG streams for replicated experiments.

Replicas are grouped into fixed-size blocks; block b of a run seeded with
``seed`` draws from ``default_rng(SeedSequence(entropy=seed, spawn_key=(b,)))``.
Blocks are simulated in a fixed internal order and merged in block order, so
results are byte-identical for any worker count.
"""

from __future__ import annotations

import numpy as np

SEED_SCHEME = "seedseq-pcg64-blocks-v1"


def rng_for_block(seed: int, block: int) -> np.random.Generator:
    """Independent generator for block ``block`` of a run seeded with ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(block),))
    return np.random.default_rng(ss)
