"""Evaluation driver: per-impression metric samples across a configuration
grid, with skips recorded instead of silently biasing the means."""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .corpus import Article, Corpus, ImpressionLog, RecommendationList
from .distrib import DiscreteDistribution, KeyFn, RankWeighting, build_distribution
from .errors import EmptyDistributionError, ValidationError
from .metrics import (
    HISTORY_METRICS,
    MetricConfig,
    _sample,
    context_builder,
    metric_keys,
    sample_fragmentation,
)

POOLS = ("impression", "daily")

# A distribution built for scoring, or the reason that it could not be built.
_Built = DiscreteDistribution | str


@dataclass(frozen=True)
class GridPoint:
    divergence: str
    weighting: str
    cutoff: int  # 0 encodes "no cutoff" (@N)

    def rank_weighting(self) -> RankWeighting:
        return RankWeighting(self.weighting, self.cutoff if self.cutoff > 0 else None)


@dataclass(frozen=True, slots=True)
class KeyedRow:
    """The key fields that a sample and a skip share."""

    metric: str
    recommender: str
    divergence: str
    weighting: str
    cutoff: int
    pair_id: str

    def config_key(self) -> tuple:
        """The report row this sample or skip belongs to: its
        ``CONFIG_COLUMNS`` values."""
        return _config_key(self)

    def row_key(self) -> tuple:
        return _row_key(self)


# The names of the key fields, which are also the key columns of every
# output file; all of them but the pair id name a report row.
KEY_COLUMNS = tuple(key_field.name for key_field in fields(KeyedRow))
CONFIG_COLUMNS = KEY_COLUMNS[:-1]
_config_key = attrgetter(*CONFIG_COLUMNS)
_row_key = attrgetter(*KEY_COLUMNS)


@dataclass(frozen=True, slots=True)
class SampleRow(KeyedRow):
    value: float


@dataclass(frozen=True, slots=True)
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
    if not cutoffs or min(cutoffs) < 0:
        raise ValueError("cutoffs must be a non-empty list of values >= 0 (0 means no cutoff)")
    for name, values in (("divergences", divergences), ("weightings", weightings), ("cutoffs", cutoffs)):
        if len(set(values)) < len(values):
            raise ValueError(f"{name} list has duplicates: {', '.join(map(str, values))}")
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


class _ArticleKeys(dict):
    """Article id -> its key mapping under each per-impression metric,
    resolved on first use and kept for the run (the corpus does not change
    meanwhile)."""

    def __init__(self, corpus: Corpus, key_fns: Sequence[KeyFn]):
        super().__init__()
        self.corpus = corpus
        self.key_fns = key_fns

    def __missing__(self, article_id: str) -> tuple[Mapping[str, float], ...]:
        article = self.corpus[article_id]
        keys = tuple(key_fn(article) for key_fn in self.key_fns)
        self[article_id] = keys
        return keys


class _Scorer:
    """The per-impression samples and skips of every list, with each piece
    of work done once: article keys once per run, pool contexts once per
    impression (once per day with daily pools), history contexts once per
    (impression, weighting) and list distributions once per (list,
    weighting, cutoff)."""

    def __init__(
        self,
        corpus: Corpus,
        metric_config: MetricConfig,
        grid_configs: Sequence[tuple[GridPoint, MetricConfig]],
        day_pools: Mapping[str, tuple[str, ...]],
    ):
        key_fns = metric_keys(metric_config)
        self.metrics = tuple(key_fns)
        self.from_history = tuple(metric in HISTORY_METRICS for metric in self.metrics)
        self.keys = _ArticleKeys(corpus, tuple(key_fns.values()))
        # The key function of each metric over the rows of self.keys.
        self.row_key_fns = tuple(itemgetter(index) for index in range(len(self.metrics)))
        self.plans = [
            (point, config, [context_builder(metric, config.weighting) for metric in self.metrics])
            for point, config in grid_configs
        ]
        self.day_pools = day_pools
        self.day_contexts: dict[str, dict[tuple[int, RankWeighting], _Built]] = {}
        self.samples: list[SampleRow] = []
        self.skips: list[SkipRow] = []

    def _built(
        self,
        cache: dict[tuple[int, RankWeighting], _Built],
        build: Callable,
        ids: Sequence[str],
        metric: int,
        weighting: RankWeighting,
    ) -> _Built:
        """``build``'s distribution of one metric's keys over the articles
        ``ids``, or the reason that the samples using it are skipped; kept in
        ``cache`` under (metric, weighting)."""
        built = cache.get((metric, weighting))
        if built is None:
            rows = [self.keys[article_id] for article_id in ids]
            try:
                built = build(rows, self.row_key_fns[metric], weighting)
            except EmptyDistributionError as exc:
                built = str(exc)
            cache[metric, weighting] = built
        return built

    def score_impression(
        self, impression: ImpressionLog, entries: Sequence[tuple[str, RecommendationList]]
    ) -> None:
        if self.day_pools:
            day = _impression_day(impression)
            pool = self.day_pools[day]
            pool_contexts = self.day_contexts.setdefault(day, {})
        else:
            pool = impression.candidate_ids
            pool_contexts = {}
        history_contexts: dict[tuple[int, RankWeighting], _Built] = {}
        for source, recommendation in entries:
            lists: dict[tuple[int, RankWeighting], _Built] = {}
            for point, config, context_builders in self.plans:
                for metric, name in enumerate(self.metrics):
                    build, weighting = context_builders[metric]
                    if self.from_history[metric]:
                        context = self._built(
                            history_contexts, build, impression.history, metric, weighting
                        )
                    else:
                        context = self._built(pool_contexts, build, pool, metric, weighting)
                    recommended = self._built(
                        lists,
                        build_distribution,
                        recommendation.ranked_items,
                        metric,
                        config.weighting,
                    )
                    key = (name, source, point.divergence, point.weighting, point.cutoff)
                    value = _sample(context, recommended, config)
                    if isinstance(value, str):
                        self.skips.append(SkipRow(*key, impression.impression_id, value))
                    else:
                        self.samples.append(SampleRow(*key, impression.impression_id, value))


def evaluate_recommendations(
    corpus: Corpus,
    impressions: Sequence[ImpressionLog],
    recommendations_by_source: Mapping[str, Sequence[RecommendationList]],
    metric_config: MetricConfig,
    grid: Sequence[GridPoint],
    pool: str = "impression",
) -> EvaluationResult:
    """Compute every metric sample for every recommender and grid point.

    Rows come back sorted on their ``KEY_COLUMNS``.  Fragmentation partners
    are drawn once per recommender from the seed and reused across the grid,
    keeping grid points comparable.  An impression id that occurs twice in
    ``impressions`` or in one source's lists is a ValidationError.
    """
    if pool not in POOLS:
        raise ValueError(f"unknown pool {pool!r}")
    by_impression: dict[str, ImpressionLog] = {}
    for impression in impressions:
        if impression.impression_id in by_impression:
            raise ValidationError(f"duplicate impression id {impression.impression_id!r}")
        by_impression[impression.impression_id] = impression
    day_pools = daily_pools(impressions) if pool == "daily" else {}
    grid_configs = [
        (
            point,
            replace(metric_config, divergence=point.divergence, weighting=point.rank_weighting()),
        )
        for point in grid
    ]

    # Scoring goes impression by impression, so that the contexts of an
    # impression are built once for all of its lists and then dropped.
    lists_by_impression: dict[str, list[tuple[str, RecommendationList]]] = {}
    for source in sorted(recommendations_by_source):
        listed = set()
        for recommendation in recommendations_by_source[source]:
            impression_id = recommendation.impression_id
            if impression_id not in by_impression:
                raise ValidationError(
                    f"recommendation references unknown impression {impression_id!r}"
                )
            if impression_id in listed:
                raise ValidationError(f"{source} lists impression {impression_id!r} twice")
            listed.add(impression_id)
            lists_by_impression.setdefault(impression_id, []).append((source, recommendation))

    scorer = _Scorer(corpus, metric_config, grid_configs, day_pools)
    for impression_id, entries in lists_by_impression.items():
        scorer.score_impression(by_impression[impression_id], entries)
    samples, skips = scorer.samples, scorer.skips

    for source in sorted(recommendations_by_source):
        ranked_articles = {
            recommendation.impression_id: _resolve(corpus, recommendation.ranked_items)
            for recommendation in recommendations_by_source[source]
        }
        chains: dict[RankWeighting, dict[str, _Built]] = {}
        for point, config in grid_configs:
            outcome = sample_fragmentation(ranked_articles, config, chains)
            key = ("fragmentation", source, point.divergence, point.weighting, point.cutoff)
            samples.extend(SampleRow(*key, pair_id, value) for pair_id, value in outcome.samples)
            skips.extend(SkipRow(*key, pair_id, reason) for pair_id, reason in outcome.skips)

    samples.sort(key=KeyedRow.row_key)
    skips.sort(key=lambda row: (*row.row_key(), row.reason))
    return EvaluationResult(samples=samples, skips=skips)


def _resolve(corpus: Corpus, ids: Iterable[str]) -> list[Article]:
    return [corpus[article_id] for article_id in ids]
