"""Seed derivation helpers.

Every random decision in the package flows through a named stream derived
from a user-facing 64-bit seed, so results are reproducible bit-for-bit
regardless of how much work runs in parallel.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

DEFAULT_SEED = 20230125  # the seed of every screen, forest, fold split and draw not given one


def _as_entropy(parts: tuple[int, ...]) -> list[int]:
    # SeedSequence rejects negative entropy words.
    return [int(p) & _MASK64 for p in parts]


def stream(*parts: int) -> np.random.Generator:
    """Return an independent generator keyed by the given integer parts."""
    return np.random.default_rng(np.random.SeedSequence(_as_entropy(parts)))


def derive_seed(*parts: int) -> int:
    """Collapse integer parts into a single nonnegative 64-bit seed."""
    words = np.random.SeedSequence(_as_entropy(parts)).generate_state(2)
    return (int(words[0]) << 32) | int(words[1])
