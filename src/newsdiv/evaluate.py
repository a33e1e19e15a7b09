"""Evaluation driver: per-impression metric samples across a configuration
grid, with skips recorded instead of silently biasing the means."""
from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Iterable, Mapping, Sequence

from .corpus import Article, Corpus, ImpressionLog, RecommendationList
from .distrib import RankWeighting
from .errors import EmptyDistributionError, ValidationError
from .metrics import (
    MetricConfig,
    activation_divergence,
    alternative_voices,
    calibration_complexity,
    calibration_topic,
    representation,
    sample_fragmentation,
)

POOLS = ("impression", "daily")


@dataclass(frozen=True)
class GridPoint:
    divergence: str
    weighting: str
    cutoff: int  # 0 encodes "no cutoff" (@N)

    def rank_weighting(self) -> RankWeighting:
        return RankWeighting(self.weighting, self.cutoff if self.cutoff > 0 else None)


@dataclass(frozen=True)
class KeyedRow:
    """The key fields that a sample and a skip share."""

    metric: str
    recommender: str
    divergence: str
    weighting: str
    cutoff: int
    pair_id: str

    def config_key(self) -> tuple:
        """The report row this sample or skip belongs to."""
        return (self.metric, self.recommender, self.divergence, self.weighting, self.cutoff)

    def row_key(self) -> tuple:
        return (*self.config_key(), self.pair_id)


@dataclass(frozen=True)
class SampleRow(KeyedRow):
    value: float


@dataclass(frozen=True)
class SkipRow(KeyedRow):
    reason: str


@dataclass
class EvaluationResult:
    samples: list[SampleRow]
    skips: list[SkipRow]


def build_grid(
    divergences: Sequence[str],
    weightings: Sequence[str],
    cutoffs: Sequence[int],
) -> list[GridPoint]:
    if not cutoffs:
        raise ValueError("cutoffs list must be non-empty")
    return [
        GridPoint(divergence, weighting, cutoff)
        for divergence in divergences
        for weighting in weightings
        for cutoff in cutoffs
    ]


def daily_pools(impressions: Sequence[ImpressionLog]) -> dict[str, tuple[str, ...]]:
    """Candidate-id union per UTC day, for the global-pool context switch."""
    pools: dict[str, set[str]] = {}
    for impression in impressions:
        pools.setdefault(_impression_day(impression), set()).update(impression.candidate_ids)
    return {day: tuple(sorted(ids)) for day, ids in pools.items()}


def _impression_day(impression: ImpressionLog) -> str:
    return datetime.fromtimestamp(impression.time, tz=timezone.utc).strftime("%Y-%m-%d")


_PER_IMPRESSION = (
    ("calibration_topic", calibration_topic, "history"),
    ("calibration_complexity", calibration_complexity, "history"),
    ("activation", activation_divergence, "pool"),
    ("representation", representation, "pool"),
    ("alternative_voices", alternative_voices, "pool"),
)


def evaluate_recommendations(
    corpus: Corpus,
    impressions: Sequence[ImpressionLog],
    recommendations_by_source: Mapping[str, Sequence[RecommendationList]],
    metric_config: MetricConfig,
    grid: Sequence[GridPoint],
    pool: str = "impression",
) -> EvaluationResult:
    """Compute every metric sample for every recommender and grid point.

    Rows come back sorted on (metric, recommender, divergence, weighting,
    cutoff, pair id).  Fragmentation partners are drawn once per recommender from the seed and
    reused across the grid, keeping grid points comparable.
    """
    if pool not in POOLS:
        raise ValueError(f"unknown pool {pool!r}")
    by_impression = {impression.impression_id: impression for impression in impressions}
    day_pools = daily_pools(impressions) if pool == "daily" else {}
    grid_configs = [
        (
            point,
            replace(metric_config, divergence=point.divergence, weighting=point.rank_weighting()),
        )
        for point in grid
    ]

    samples: list[SampleRow] = []
    skips: list[SkipRow] = []
    for source in sorted(recommendations_by_source):
        recommendations = recommendations_by_source[source]
        joined = []
        for recommendation in recommendations:
            impression = by_impression.get(recommendation.impression_id)
            if impression is None:
                raise ValidationError(
                    f"recommendation references unknown impression {recommendation.impression_id!r}"
                )
            joined.append((impression, recommendation))
        for impression, recommendation in joined:
            _evaluate_impression(
                corpus, impression, recommendation, source, grid_configs, day_pools, samples, skips
            )

        ranked_articles = {
            recommendation.impression_id: _resolve(corpus, recommendation.ranked_items)
            for recommendation in recommendations
        }
        for point, config in grid_configs:
            outcome = sample_fragmentation(ranked_articles, config)
            key = ("fragmentation", source, point.divergence, point.weighting, point.cutoff)
            samples.extend(SampleRow(*key, pair_id, value) for pair_id, value in outcome.samples)
            skips.extend(SkipRow(*key, pair_id, reason) for pair_id, reason in outcome.skips)

    samples.sort(key=KeyedRow.row_key)
    skips.sort(key=lambda row: (*row.row_key(), row.reason))
    return EvaluationResult(samples=samples, skips=skips)


def _resolve(corpus: Corpus, ids: Iterable[str]) -> list[Article]:
    return [corpus[article_id] for article_id in ids]


def _evaluate_impression(
    corpus: Corpus,
    impression: ImpressionLog,
    recommendation: RecommendationList,
    source: str,
    grid_configs: Sequence[tuple[GridPoint, MetricConfig]],
    day_pools: Mapping[str, tuple[str, ...]],
    samples: list[SampleRow],
    skips: list[SkipRow],
) -> None:
    """Append one impression's per-impression samples and skips."""
    history = _resolve(corpus, impression.history)
    recommended = _resolve(corpus, recommendation.ranked_items)
    if day_pools:
        candidates = _resolve(corpus, day_pools[_impression_day(impression)])
    else:
        candidates = _resolve(corpus, impression.candidate_ids)

    for point, config in grid_configs:
        for metric_name, metric_fn, context_kind in _PER_IMPRESSION:
            context = history if context_kind == "history" else candidates
            key = (metric_name, source, point.divergence, point.weighting, point.cutoff)
            try:
                value = metric_fn(context, recommended, config)
            except EmptyDistributionError as exc:
                skips.append(SkipRow(*key, impression.impression_id, str(exc)))
                continue
            samples.append(SampleRow(*key, impression.impression_id, value))
