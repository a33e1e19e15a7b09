"""Discrete probability distributions over categorical keys.

Distributions are built from ordered item lists, optionally discounting each
item by its rank (reciprocal-rank or log2 discounted-gain weights), binning
continuous fields, and smoothing a (context, recommendation) pair so that the
divergence between them is always defined.
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
        if self.cutoff is not None and self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1 when set, got {self.cutoff}")

    def without_cutoff(self) -> "RankWeighting":
        return RankWeighting(self.scheme, None)


@dataclass(frozen=True)
class Binning:
    """Equal-width binning of a continuous field onto string keys.

    A value maps to floor((x - lo) / (hi - lo) * bin_count); the top edge
    falls into the last bin.  Keys are "bin_0" .. "bin_<n-1>".
    """

    field: str
    bin_count: int = 10
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        if self.bin_count < 2:
            raise ValueError(f"degenerate binning: bin_count must be >= 2, got {self.bin_count}")
        if not self.lo < self.hi:
            raise ValueError(f"binning range must satisfy lo < hi, got [{self.lo}, {self.hi}]")

    def key_for(self, value: float) -> str:
        span = self.hi - self.lo
        index = int(math.floor((value - self.lo) / span * self.bin_count))
        index = min(max(index, 0), self.bin_count - 1)
        return f"bin_{index}"


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha < 0.5:
        raise ValueError(f"alpha must be in [0, 0.5), got {alpha}")


class DiscreteDistribution:
    """Normalized mass over string keys.  Immutable once built."""

    __slots__ = ("masses",)

    def __init__(self, masses: Mapping[str, float]):
        total = math.fsum(masses.values())
        if abs(total - 1.0) > SUM_TOLERANCE:
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
    always sum to one.
    """
    ranked = items if weighting.cutoff is None else items[: weighting.cutoff]
    weights: dict[str, list[float]] = {}
    for item, item_weight in zip(ranked, rank_weights(weighting.scheme, len(ranked))):
        for key, multiplier in key_fn(item).items():
            if multiplier < 0.0:
                raise ValueError(f"negative key multiplier {multiplier!r} at key {key!r}")
            if multiplier == 0.0:
                continue
            weights.setdefault(key, []).append(item_weight * multiplier)
    if not weights:
        raise EmptyDistributionError("empty distribution")
    sums = {key: math.fsum(parts) for key, parts in sorted(weights.items())}
    total = math.fsum(sums.values())
    return DiscreteDistribution({key: value / total for key, value in sums.items()})


def history_distribution(
    history: Sequence[T],
    key_fn: KeyFn,
    weighting: RankWeighting,
) -> DiscreteDistribution:
    """Distribution over a reading history, rank = recency position.

    ``history`` must be ordered most recent first, so the discount weighs
    recently read articles higher.
    """
    if not history:
        raise EmptyDistributionError("no context")
    return build_distribution(history, key_fn, weighting)


def _smoothed_masses(
    p_masses: Mapping[str, float], q_masses: Mapping[str, float], alpha: float
) -> tuple[list[str], list[float], list[float]]:
    """The sorted union domain of two mass mappings and the masses of
    ``smooth_pair``'s (p_bar, q_bar) over it, as two lists aligned with the
    domain.  ``alpha`` must already be checked."""
    domain = sorted(p_masses.keys() | q_masses.keys())
    keep = 1.0 - alpha
    p_mixed = [keep * p_masses.get(key, 0.0) + alpha * q_masses.get(key, 0.0) for key in domain]
    q_mixed = [keep * q_masses.get(key, 0.0) + alpha * p_masses.get(key, 0.0) for key in domain]
    p_total = math.fsum(p_mixed)
    q_total = math.fsum(q_mixed)
    return domain, [value / p_total for value in p_mixed], [value / q_total for value in q_mixed]


def smooth_pair(
    p: DiscreteDistribution,
    q: DiscreteDistribution,
    alpha: float,
) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """Mix each distribution with its counterpart on the union domain.

    Returns (p_bar, q_bar) with p_bar = (1 - alpha) p + alpha q and
    symmetrically for q_bar, renormalized.  For alpha > 0, q_bar is positive
    wherever p is (no zero division) and p_bar is positive wherever q is
    (the divergence cannot be forced to zero by a key missing from p).
    """
    _check_alpha(alpha)
    domain, p_bar, q_bar = _smoothed_masses(p.masses, q.masses, alpha)
    return (
        DiscreteDistribution(dict(zip(domain, p_bar))),
        DiscreteDistribution(dict(zip(domain, q_bar))),
    )
