"""Evaluation driver: per-impression metric samples across a configuration
grid, with skips recorded instead of silently biasing the means."""
from __future__ import annotations

import gc
import os
import threading
from collections import defaultdict
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from functools import partial
from operator import attrgetter, itemgetter
from typing import Callable, Mapping, MutableSequence, NamedTuple, NoReturn, Sequence

from .corpus import Corpus, ImpressionLog, RecommendationList, id_table
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

    def row_key(self) -> tuple:
        return _row_key(self)


# The names of the key fields, which are also the key columns of every
# output file; all of them but the pair id name a report row.
KEY_COLUMNS = tuple(key_field.name for key_field in fields(KeyedRow))
CONFIG_COLUMNS = KEY_COLUMNS[:-1]
_row_key = attrgetter(*KEY_COLUMNS)


def _config_key(metric: str, source: str, point: GridPoint) -> tuple:
    """The ``CONFIG_COLUMNS`` value of a metric's rows of one source and point."""
    return (metric, source, point.divergence, point.weighting, point.cutoff)


@dataclass(frozen=True, slots=True)
class SampleRow(KeyedRow):
    value: float


@dataclass(frozen=True, slots=True)
class SkipRow(KeyedRow):
    reason: str


class Columns(NamedTuple):
    """The rows of one configuration (one ``CONFIG_COLUMNS`` value): their
    pair ids and, aligned with them, the sample values (an ``array('d')``)
    or the skip reasons (a list)."""

    pair_ids: list[str]
    values: MutableSequence[float] | list[str]

    def add(self, pair_id: str, value: float | str) -> None:
        self.pair_ids.append(pair_id)
        self.values.append(value)


# Column sets by their CONFIG_COLUMNS value.
ColumnSets = dict[tuple, Columns]


@dataclass
class EvaluationResult:
    """Every sample and skip of a run, as one column set per configuration.
    Both mappings hold their keys in sorted order and each column set its
    rows in pair id order, so that together they are in ``KEY_COLUMNS``
    order; configurations without a sample (or a skip) have no entry."""

    sample_columns: ColumnSets
    skip_columns: ColumnSets

    @property
    def samples(self) -> list[SampleRow]:
        """The samples as rows in ``KEY_COLUMNS`` order, built on each access."""
        return _rows(SampleRow, self.sample_columns)

    @property
    def skips(self) -> list[SkipRow]:
        """The skips as rows in ``KEY_COLUMNS`` order, built on each access."""
        return _rows(SkipRow, self.skip_columns)

    @property
    def sample_count(self) -> int:
        return sum(len(columns.pair_ids) for columns in self.sample_columns.values())

    @property
    def skip_count(self) -> int:
        return sum(len(columns.pair_ids) for columns in self.skip_columns.values())


def _rows(row_type: type, column_sets: ColumnSets) -> list:
    return [
        row_type(*key, pair_id, value)
        for key, columns in column_sets.items()
        for pair_id, value in zip(*columns)
    ]


def _sample_columns() -> Columns:
    # Imported on first use: the array extension would add about 0.14 MB of
    # RSS to the commands that import this module but score nothing.
    from array import array

    return Columns([], array("d"))


def _skip_columns() -> Columns:
    return Columns([], [])


def _in_key_order(column_sets: Mapping[tuple, Columns]) -> ColumnSets:
    return {key: column_sets[key] for key in sorted(column_sets)}


def build_grid(
    divergences: Sequence[str],
    weightings: Sequence[str],
    cutoffs: Sequence[int],
) -> list[GridPoint]:
    for name, values in (("divergences", divergences), ("weightings", weightings), ("cutoffs", cutoffs)):
        if not values:
            raise ValueError(f"{name} must be a non-empty list")
        if len(set(values)) < len(values):
            raise ValueError(f"{name} list has duplicates: {', '.join(map(str, values))}")
    if min(cutoffs) < 0:
        raise ValueError("cutoffs must be a non-empty list of values >= 0 (0 means no cutoff)")
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
        sources: Sequence[str],
    ):
        key_fns = metric_keys(metric_config)
        self.metrics = tuple(key_fns)
        self.from_history = tuple(metric in HISTORY_METRICS for metric in self.metrics)
        self.keys = _ArticleKeys(corpus, tuple(key_fns.values()))
        # The key function of each metric over the rows of self.keys.
        self.row_key_fns = tuple(itemgetter(index) for index in range(len(self.metrics)))
        self.plans = [
            (config, [context_builder(metric, config.weighting) for metric in self.metrics])
            for _, config in grid_configs
        ]
        # Each source's config keys, by entry of self.plans and metric.
        self.config_keys = {
            source: [
                [_config_key(metric, source, point) for metric in self.metrics]
                for point, _ in grid_configs
            ]
            for source in sources
        }
        self.day_pools = day_pools
        self.day_contexts: dict[str, dict[tuple[int, RankWeighting], _Built]] = {}
        self.samples: defaultdict[tuple, Columns] = defaultdict(_sample_columns)
        self.skips: defaultdict[tuple, Columns] = defaultdict(_skip_columns)

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
        """Append the impression's samples and skips to their column sets;
        called in impression id order, so that each column set stays in
        pair id order."""
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
            for (config, context_builders), keys in zip(self.plans, self.config_keys[source]):
                for metric, key in enumerate(keys):
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
                    value = _sample(context, recommended, config)
                    if isinstance(value, str):
                        self.skips[key].add(impression.impression_id, value)
                    else:
                        self.samples[key].add(impression.impression_id, value)


# Scored column sets: samples, then skips.
_Scored = tuple[ColumnSets, ColumnSets]

# Lists x grid points from which per-impression scoring runs in a forked
# child.  Measured on 2 vCPU with js/mrr/@N lists of the benchmark's `log`
# world, a CLI-sized process lost 10-20 ms by forking at 100-250 and gained
# 85-160 ms (21-40%) at 500-1000; the test suite's largest runs stay below.
_FORK_MIN_WORK = 1000


def _start_scoring(
    scorer: _Scorer,
    impressions: Sequence[tuple[ImpressionLog, Sequence[tuple[str, RecommendationList]]]],
    work: int,
) -> Callable[[], _Scored]:
    """Score ``impressions`` (each with its lists, in impression id order)
    and return a function that returns the scorer's column sets.

    With at least ``_FORK_MIN_WORK`` lists x grid points, more than one CPU
    and no other thread, the scoring runs in a child made with
    ``os.fork()``, and the caller can score fragmentation meanwhile; the
    returned function waits for the child and raises the child's exception,
    if any.  Otherwise the scoring runs here, before this returns."""
    if _forks(work):
        # The child's collector leaves the inherited heap alone, so that its
        # pages stay shared; objects a caller froze stay frozen.
        thaw = gc.get_freeze_count() == 0
        gc.freeze()
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            if thaw:
                gc.unfreeze()
        else:
            if pid == 0:
                os.close(read_fd)
                _score_in_child(scorer, impressions, write_fd)
            os.close(write_fd)
            own_ids = {impression.impression_id: impression.impression_id for impression, _ in impressions}
            return partial(_finish_child, pid, read_fd, own_ids, thaw)
    for impression, entries in impressions:
        scorer.score_impression(impression, entries)
    scored = scorer.samples, scorer.skips
    return lambda: scored


def _forks(work: int) -> bool:
    return (
        work >= _FORK_MIN_WORK
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
        and threading.active_count() == 1
    )


def _score_in_child(scorer: _Scorer, impressions: Sequence, write_fd: int) -> NoReturn:
    """The forked child: score, pickle the column sets (or the exception,
    for the parent to raise) to the parent through ``write_fd``, and exit."""
    import pickle

    try:
        with open(write_fd, "wb") as stream:
            try:
                for impression, entries in impressions:
                    scorer.score_impression(impression, entries)
                result = scorer.samples, scorer.skips
            except BaseException as exc:  # sent to the parent, which raises it
                result = exc
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:
                    result = RuntimeError(f"{type(exc).__name__}: {exc}")
            pickle.dump(result, stream)
    finally:
        os._exit(0)


def _finish_child(pid: int, read_fd: int, own_ids: Mapping[str, str], thaw: bool) -> _Scored:
    """Read the child's column sets, reap the child, raise its exception if
    it sent one, and give each row the caller's own id from ``own_ids``."""
    import pickle

    try:
        with open(read_fd, "rb") as stream:
            result = pickle.load(stream)
    except (EOFError, pickle.UnpicklingError):
        result = None  # the child died before sending all of its result
    finally:
        _, status = os.waitpid(pid, 0)
        if thaw:
            gc.unfreeze()
    if result is None:
        code = os.waitstatus_to_exitcode(status)
        raise RuntimeError(f"the scoring child ended without its result (exit {code})")
    if isinstance(result, BaseException):
        raise result
    for column_sets in result:
        for pair_ids, _ in column_sets.values():
            pair_ids[:] = map(own_ids.__getitem__, pair_ids)
    return result


def evaluate_recommendations(
    corpus: Corpus,
    impressions: Sequence[ImpressionLog],
    recommendations_by_source: Mapping[str, Sequence[RecommendationList]],
    metric_config: MetricConfig,
    grid: Sequence[GridPoint],
    pool: str = "impression",
) -> EvaluationResult:
    """Compute every metric sample for every recommender and grid point.

    Rows come back as column sets in ``KEY_COLUMNS`` order (see
    ``EvaluationResult``).  Fragmentation partners are drawn from the seed
    once per distinct set of listed impressions and reused across the grid
    and the recommenders, keeping grid points comparable.  An impression id
    that occurs twice in ``impressions`` or in one source's lists is a
    ValidationError; an empty grid, or one that repeats a point (whose
    samples would count twice), is a ValueError.

    A large run (at least ``_FORK_MIN_WORK`` lists x grid points) on more
    than one CPU scores the per-impression metrics in a child made with
    ``os.fork()`` while this process scores fragmentation; the result is
    the same.  It forks only while this process runs no other thread, and
    runs inline otherwise.
    """
    if pool not in POOLS:
        raise ValueError(f"unknown pool {pool!r}")
    if not grid:
        raise ValueError("grid must be a non-empty list of points")
    if len(set(grid)) < len(grid):
        raise ValueError("grid repeats a point")
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

    finish = _start_scoring(
        _Scorer(corpus, metric_config, grid_configs, day_pools, recommendations_by_source),
        [
            (by_impression[impression_id], lists_by_impression[impression_id])
            for impression_id in sorted(lists_by_impression)
        ],
        len(grid) * sum(map(len, recommendations_by_source.values())),
    )
    del lists_by_impression

    samples: defaultdict[tuple, Columns] = defaultdict(_sample_columns)
    skips: defaultdict[tuple, Columns] = defaultdict(_skip_columns)
    try:
        # One object per distinct pair id, and one partner draw per distinct
        # list id set, across sources and grid points.
        pair_ids, draws = id_table(), {}
        for source in sorted(recommendations_by_source):
            _add_fragmentation(
                samples, skips, corpus, source, recommendations_by_source[source], grid_configs,
                pair_ids, draws,
            )
        del pair_ids, draws  # before the child's columns arrive
    except BaseException:
        finish()  # a scoring error comes first, as it does inline
        raise
    scored_samples, scored_skips = finish()
    # Disjoint keys: the scorer's are per-impression metrics only.
    samples.update(scored_samples)
    skips.update(scored_skips)
    return EvaluationResult(_in_key_order(samples), _in_key_order(skips))


def _add_fragmentation(
    samples: defaultdict[tuple, Columns],
    skips: defaultdict[tuple, Columns],
    corpus: Corpus,
    source: str,
    recommendations: Sequence[RecommendationList],
    grid_configs: Sequence[tuple[GridPoint, MetricConfig]],
    pair_ids: Callable[[str], str],
    draws: dict[tuple, list[tuple[str, str, str]]],
) -> None:
    """Append one source's fragmentation samples and skips at every grid
    point to their column sets, in pair id order, each pair id as
    ``pair_ids`` maps it; partner draws are kept in ``draws``."""
    ranked_articles = {
        recommendation.impression_id: [corpus[article_id] for article_id in recommendation.ranked_items]
        for recommendation in recommendations
    }
    chains: dict[RankWeighting, dict[str, _Built]] = {}
    for point, config in grid_configs:
        outcome = sample_fragmentation(ranked_articles, config, chains, draws)
        key = _config_key("fragmentation", source, point)
        for pair_id, value in outcome.samples:
            samples[key].add(pair_ids(pair_id), value)
        for pair_id, reason in outcome.skips:
            skips[key].add(pair_ids(pair_id), reason)
        del outcome  # before the next point's draw
