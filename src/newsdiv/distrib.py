"""Discrete probability distributions over categorical keys.

Distributions are built from ordered item lists, optionally discounting each
item by its rank (reciprocal-rank or log2 discounted-gain weights).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Sequence, TypeVar

from .errors import EmptyDistributionError

T = TypeVar("T")

SCHEMES = ("none", "mrr", "ndcg")

SUM_TOLERANCE = 1e-9


def rank_weight(scheme: str, rank: int) -> float:
    """Weight of the item at ``rank`` (1-based).

    none -> 1, mrr -> 1/rank, ndcg -> 1/log2(rank + 1).
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if scheme == "none":
        return 1.0
    if scheme == "mrr":
        return 1.0 / rank
    if scheme == "ndcg":
        return 1.0 / math.log2(rank + 1)
    raise ValueError(f"unknown weighting scheme {scheme!r}")


@lru_cache(maxsize=1024)
def rank_weights(scheme: str, length: int) -> tuple[float, ...]:
    """``rank_weight`` of ranks 1 .. ``length``, computed once per (scheme,
    length)."""
    return tuple(rank_weight(scheme, rank) for rank in range(1, length + 1))


@dataclass(frozen=True)
class RankWeighting:
    """Discount scheme plus an optional rank cutoff (None means no cutoff)."""

    scheme: str = "none"
    cutoff: int | None = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown weighting scheme {self.scheme!r}")
        if self.cutoff is not None and type(self.cutoff) is not int:
            raise TypeError(f"cutoff must be an int or None, got {self.cutoff!r}")
        if self.cutoff is not None and self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1 when set, got {self.cutoff}")

    def without_cutoff(self) -> "RankWeighting":
        return RankWeighting(self.scheme, None)

    def ranked(self, items: Sequence[T]) -> Sequence[T]:
        """The items within the cutoff, in rank order."""
        return items if self.cutoff is None else items[: self.cutoff]


def _check_alpha(alpha: float) -> None:
    if not ((isinstance(alpha, float) or type(alpha) is int) and 0.0 <= alpha < 0.5):
        raise ValueError(f"alpha must be in [0, 0.5), got {alpha!r}")


class DiscreteDistribution:
    """Normalized mass over string keys.  Immutable once built."""

    __slots__ = ("masses",)

    def __init__(self, masses: Mapping[str, float]):
        total = math.fsum(masses.values())
        if not abs(total - 1.0) <= SUM_TOLERANCE:  # NaN fails it too
            raise ValueError(f"masses sum to {total!r}, expected 1")
        for key, mass in masses.items():
            if mass < 0.0:
                raise ValueError(f"negative mass {mass!r} at key {key!r}")
        object.__setattr__(self, "masses", dict(masses))

    @classmethod
    def from_weights(cls, weights: Mapping[str, float]) -> "DiscreteDistribution":
        """Normalize non-negative weights into a distribution."""
        total = math.fsum(weights.values())
        if total <= 0.0:
            raise EmptyDistributionError("empty distribution")
        return cls({key: w / total for key, w in weights.items()})

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(self.masses)

    def mass(self, key: str) -> float:
        return self.masses.get(key, 0.0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DiscreteDistribution) and self.masses == other.masses

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v:.6g}" for k, v in sorted(self.masses.items()))
        return f"DiscreteDistribution({{{inner}}})"


KeyFn = Callable[[T], Mapping[str, float]]
# An item's keys as ``_key_pairs`` returns them: (key, multiplier) pairs.
_KeyPairs = tuple[tuple[str, float], ...]


def _key_pairs(keys: Mapping[str, float]) -> _KeyPairs:
    """An item's {key: multiplier} as the (key, multiplier) pairs that
    count.  A zero multiplier drops out; a negative or NaN one is a
    ValueError."""
    pairs = []
    for key, multiplier in keys.items():
        if not multiplier >= 0.0:
            raise ValueError(f"key multiplier {multiplier!r} at key {key!r} is not >= 0")
        if multiplier != 0.0:
            pairs.append((key, multiplier))
    return tuple(pairs)


def _from_pairs(rows: Sequence[_KeyPairs], scheme: str) -> DiscreteDistribution:
    """The distribution of ``_key_pairs`` rows, one per item in rank order,
    each item weighted by ``scheme``'s weight of its rank."""
    weights: dict[str, list[float]] = {}
    for pairs, item_weight in zip(rows, rank_weights(scheme, len(rows))):
        for key, multiplier in pairs:
            weights.setdefault(key, []).append(item_weight * multiplier)
    return DiscreteDistribution.from_weights({key: math.fsum(parts) for key, parts in weights.items()})


def _history_from_pairs(rows: Sequence[_KeyPairs], scheme: str) -> DiscreteDistribution:
    """``_from_pairs`` over a reading history; an empty one gives no context."""
    if not rows:
        raise EmptyDistributionError("no context")
    return _from_pairs(rows, scheme)


def _ranked_pairs(items: Sequence[T], key_fn: KeyFn, weighting: RankWeighting) -> list[_KeyPairs]:
    """The ``_key_pairs`` of the items within the cutoff of ``weighting``."""
    return [_key_pairs(key_fn(item)) for item in weighting.ranked(items)]


def build_distribution(
    items: Sequence[T],
    key_fn: KeyFn,
    weighting: RankWeighting,
) -> DiscreteDistribution:
    """Rank-discounted distribution of keys over an ordered item list.

    The item at list position i carries rank i + 1.  With a cutoff n, items
    ranked beyond n are dropped before any weighting.  ``key_fn`` maps an
    item to {key: multiplier}; an empty mapping keeps the item out of both
    the numerator and the normalizer (a missing field is not evidence of any
    key).  Every key of a multi-key item receives the full item weight times
    its multiplier, and the normalizer is the total over keys, so masses
    always sum to one.  Without any key, it is an EmptyDistributionError.
    """
    return _from_pairs(_ranked_pairs(items, key_fn, weighting), weighting.scheme)


def history_distribution(
    history: Sequence[T],
    key_fn: KeyFn,
    weighting: RankWeighting,
) -> DiscreteDistribution:
    """Distribution over a reading history, rank = recency position.

    ``history`` must be ordered most recent first, so the discount weighs
    recently read articles higher.
    """
    return _history_from_pairs(_ranked_pairs(history, key_fn, weighting), weighting.scheme)
