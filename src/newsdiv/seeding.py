"""Deterministic child seeds, stable across platforms and runs."""
from __future__ import annotations

import random


def derive_seed(seed: int, label: str) -> int:
    """Derive a 64-bit child seed from a master seed and a purpose label.

    Hash based, so the stream drawn for one purpose (say, the random
    recommender of impression I17) never shifts when another purpose draws
    more or fewer values.
    """
    # Imported here: hashlib maps OpenSSL, which a run that draws no seed
    # (enrich, the loaders, the popular recommender) never needs.
    import hashlib

    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(seed: int, label: str) -> random.Random:
    return random.Random(derive_seed(seed, label))
