"""Baseline recommenders over an impression's candidate pool."""
from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

from .corpus import ImpressionLog, RecommendationList
from .seeding import derive_rng

BASELINES = ("random", "popular")


def click_counts(impressions: Iterable[ImpressionLog]) -> Counter[str]:
    """Clicks per article over a behaviors set; the popularity signal."""
    counts: Counter[str] = Counter()
    for impression in impressions:
        counts.update(impression.clicked_ids)
    return counts


def recommend_random(impression: ImpressionLog, seed: int) -> RecommendationList:
    """Uniform random permutation of the candidates, seeded per impression so
    the ranking never depends on processing order."""
    rng = derive_rng(seed, f"random:{impression.impression_id}")
    ranked = list(impression.candidate_ids)
    rng.shuffle(ranked)
    return RecommendationList(impression.impression_id, impression.user_id, tuple(ranked))


def recommend_popular(impression: ImpressionLog, counts: Mapping[str, int]) -> RecommendationList:
    """Candidates by click count descending, ties broken by ascending id.

    Unseen candidates count zero; an all-zero pool degenerates to plain id
    order, deterministically.
    """
    ranked = sorted(
        impression.candidate_ids, key=lambda article_id: (-counts.get(article_id, 0), article_id)
    )
    return RecommendationList(impression.impression_id, impression.user_id, tuple(ranked))
