"""Evaluation driver: per-impression metric samples across a configuration
grid, with skips recorded instead of silently biasing the means."""
from __future__ import annotations

import gc
import os
import threading
from collections import defaultdict
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import partial
from operator import itemgetter
from typing import Callable, Mapping, NoReturn, Sequence

from .corpus import Corpus, ImpressionLog, RecommendationList, join_list
from .distrib import KeyFn, RankWeighting, _from_pairs, _history_from_pairs, _key_pairs, _KeyPairs
from .errors import ValidationError
from .metrics import (
    HISTORY_METRICS,
    SUPPLY_WEIGHTING,
    MetricConfig,
    Rows,
    Side,
    _sample,
    build_side,
    metric_keys,
    new_rows,
    sample_fragmentation,
)

POOLS = ("impression", "daily")


def check_pool(pool: str) -> None:
    if pool not in POOLS:
        raise ValueError(f"unknown pool {pool!r}")


@dataclass(frozen=True)
class GridPoint:
    divergence: str
    weighting: str
    cutoff: int  # 0 encodes "no cutoff" (@N)

    def __post_init__(self) -> None:
        self.metric_config()  # which checks the divergence, the scheme and any cutoff but the int 0

    def rank_weighting(self) -> RankWeighting:
        return RankWeighting(self.weighting, None if self.cutoff == 0 and type(self.cutoff) is int else self.cutoff)

    def metric_config(self, base: MetricConfig = MetricConfig()) -> MetricConfig:
        """``base`` with this point's divergence and rank weighting."""
        return replace(base, divergence=self.divergence, weighting=self.rank_weighting())


# The key columns of every output file, in key order; all of them but the
# pair id name a report row.
KEY_COLUMNS = ("metric", "recommender", "divergence", "weighting", "cutoff", "pair_id")
CONFIG_COLUMNS = KEY_COLUMNS[:-1]


def _config_key(metric: str, source: str, point: GridPoint) -> tuple:
    """The ``CONFIG_COLUMNS`` value of a metric's rows of one source and point."""
    return (metric, source, point.divergence, point.weighting, point.cutoff)


@dataclass
class EvaluationResult:
    """Every sample and skip of a run: ``rows`` maps each configuration's
    ``CONFIG_COLUMNS`` value to its ``metrics.Rows``.  The keys are in
    sorted order and each configuration's rows in pair id order, so that
    together they are in ``KEY_COLUMNS`` order."""

    rows: dict[tuple, Rows]

    @property
    def samples(self) -> list[tuple]:
        """``(*KEY_COLUMNS, value)`` per sample, in key order, built on each access."""
        return [(*key, *row) for key, rows in self.rows.items() for row in zip(*rows.samples)]

    @property
    def skips(self) -> list[tuple]:
        """``(*KEY_COLUMNS, reason)`` per skip, in key order, built on each access."""
        return [(*key, *row) for key, rows in self.rows.items() for row in zip(*rows.skips)]

    @property
    def sample_count(self) -> int:
        return sum(len(rows.samples.pair_ids) for rows in self.rows.values())

    @property
    def skip_count(self) -> int:
        return sum(len(rows.skips.pair_ids) for rows in self.rows.values())


def build_grid(
    divergences: Sequence[str],
    weightings: Sequence[str],
    cutoffs: Sequence[int],
) -> list[GridPoint]:
    for name, values in (("divergences", divergences), ("weightings", weightings), ("cutoffs", cutoffs)):
        if not values:
            raise ValueError(f"{name} must be a non-empty list")
        check_distinct(name, values)
    # A cutoff that is no int is left to its point, whose message names it.
    if any(type(cutoff) is int and cutoff < 0 for cutoff in cutoffs):
        raise ValueError("cutoffs must be a non-empty list of values >= 0 (0 means no cutoff)")
    return [
        GridPoint(divergence, weighting, cutoff)
        for divergence in divergences
        for weighting in weightings
        for cutoff in cutoffs
    ]


def check_distinct(name: str, values: Sequence) -> None:
    """A TypeError if the list of ``name`` is one string, a ValueError if it repeats a value."""
    if isinstance(values, str):
        raise TypeError(f"{name} must be a list, got {values!r}")
    if len(set(values)) < len(values):
        raise ValueError(f"{name} list has duplicates: {', '.join(map(str, values))}")


def daily_pools(impressions: Sequence[ImpressionLog]) -> dict[str, tuple[str, ...]]:
    """Candidate-id union per UTC day, for the global-pool context switch."""
    pools: dict[str, set[str]] = {}
    for impression in impressions:
        pools.setdefault(_impression_day(impression), set()).update(impression.candidate_ids)
    return {day: tuple(sorted(ids)) for day, ids in pools.items()}


def _impression_day(impression: ImpressionLog) -> str:
    return datetime.fromtimestamp(impression.time, tz=timezone.utc).strftime("%Y-%m-%d")


class _ArticleKeys(dict):
    """Article id -> its ``_key_pairs`` under each per-impression metric,
    resolved on first use and kept for the run (the corpus does not change
    meanwhile)."""

    def __init__(self, corpus: Corpus, key_fns: Sequence[KeyFn]):
        super().__init__()
        self.corpus = corpus
        self.key_fns = key_fns

    def __missing__(self, article_id: str) -> tuple[_KeyPairs, ...]:
        try:
            article = self.corpus[article_id]
        except KeyError:
            raise ValidationError(f"impressions reference an article missing from the catalog: {article_id}") from None
        keys = tuple(_key_pairs(key_fn(article)) for key_fn in self.key_fns)
        self[article_id] = keys
        return keys


class _Scorer:
    """The per-impression samples and skips of every list, with each piece
    of work done once: article keys once per run; the keys of a history, a
    pool and a list once per impression (a pool once per day with daily
    pools); pool contexts once per impression (or day), history contexts
    once per (impression, history weighting) and list distributions once
    per (list, list weighting)."""

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
        self.keys = _ArticleKeys(corpus, tuple(key_fns.values()))
        # The grid points by list weighting, each group with its history
        # weighting (a history is never cut off) and its points' configs,
        # each with every source's config keys per metric.
        groups: dict[RankWeighting, list[tuple[MetricConfig, dict[str, list[tuple]]]]] = {}
        for point, config in grid_configs:
            keys = {source: [_config_key(metric, source, point) for metric in self.metrics] for source in sources}
            groups.setdefault(config.weighting, []).append((config, keys))
        self.groups = [(weighting, weighting.without_cutoff(), points) for weighting, points in groups.items()]
        self.day_pools = day_pools
        self.day_contexts: dict[str, list[Side | None]] = {}
        self.rows: defaultdict[tuple, Rows] = defaultdict(new_rows)

    def _columns(self, ids: Sequence[str]) -> tuple[Sequence[_KeyPairs], ...]:
        """Per metric, the ``_key_pairs`` of the articles ``ids``, in order."""
        keys = self.keys
        return tuple(zip(*[keys[article_id] for article_id in ids])) or ((),) * len(self.metrics)

    def _pool_contexts(self, ids: Sequence[str]) -> list[Side | None]:
        """Per metric, its context over the pool of articles ``ids``, not
        discounted; None for the metrics whose context is the history."""
        return [
            None if metric in HISTORY_METRICS else build_side(_from_pairs, column, SUPPLY_WEIGHTING.scheme)
            for metric, column in zip(self.metrics, self._columns(ids))
        ]

    def score_impression(
        self, impression: ImpressionLog, entries: Sequence[tuple[str, RecommendationList]]
    ) -> None:
        """Add the impression's samples and skips to their configurations'
        rows; called in impression id order, so that the rows stay in pair
        id order."""
        if self.day_pools:
            day = _impression_day(impression)
            pool_contexts = self.day_contexts.get(day)
            if pool_contexts is None:
                pool_contexts = self.day_contexts[day] = self._pool_contexts(self.day_pools[day])
        else:
            pool_contexts = self._pool_contexts(impression.candidate_ids)
        history = self._columns(impression.history)
        contexts_by_weighting: dict[RankWeighting, list[Side]] = {}
        for _, history_weighting, _ in self.groups:
            if history_weighting not in contexts_by_weighting:
                contexts_by_weighting[history_weighting] = [
                    build_side(_history_from_pairs, column, history_weighting.scheme) if context is None else context
                    for column, context in zip(history, pool_contexts)
                ]
        impression_id = impression.impression_id
        rows = self.rows
        for source, recommendation in entries:
            columns = self._columns(recommendation.ranked_items)
            for weighting, history_weighting, points in self.groups:
                contexts = contexts_by_weighting[history_weighting]
                lists = [build_side(_from_pairs, weighting.ranked(column), weighting.scheme) for column in columns]
                for config, keys in points:
                    for key, context, recommended in zip(keys[source], contexts, lists):
                        rows[key].add(impression_id, _sample(context, recommended, config))


# Lists x grid points from which per-impression scoring runs in a forked
# child.  Measured on 2 vCPU with js/mrr/@N lists of the benchmark's `log`
# world, a CLI-sized process lost 10-20 ms by forking at 100-250 and gained
# 85-160 ms (21-40%) at 500-1000; the test suite's largest runs stay below.
_FORK_MIN_WORK = 1000


def _start_scoring(
    scorer: _Scorer,
    impressions: Sequence[tuple[ImpressionLog, Sequence[tuple[str, RecommendationList]]]],
    work: int,
) -> Callable[[], dict[tuple, Rows]]:
    """Score ``impressions`` (each with its lists, in impression id order)
    and return a function that returns the scorer's rows.

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
            return partial(_finish_child, pid, read_fd, thaw)
    for impression, entries in impressions:
        scorer.score_impression(impression, entries)
    scored = scorer.rows
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
    """The forked child: score, pickle the rows (or the exception, for the
    parent to raise) to the parent through ``write_fd``, and exit."""
    import pickle

    try:
        with open(write_fd, "wb") as stream:
            try:
                for impression, entries in impressions:
                    scorer.score_impression(impression, entries)
                result = scorer.rows
            except BaseException as exc:  # sent to the parent, which raises it
                result = exc
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:
                    result = RuntimeError(f"{type(exc).__name__}: {exc}")
            pickle.dump(result, stream)
    finally:
        os._exit(0)


def _finish_child(pid: int, read_fd: int, thaw: bool) -> dict[tuple, Rows]:
    """Read the child's rows, reap the child and raise its exception if it
    sent one.  The rows are one pickle: one object per impression id."""
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

    The result holds one ``metrics.Rows`` per configuration, in
    ``KEY_COLUMNS`` order (see ``EvaluationResult``), fragmentation's as
    ``sample_fragmentation`` returned them.  Fragmentation partners are
    drawn from the seed once per distinct set of listed impressions and
    reused across the grid and the recommenders, keeping grid points
    comparable.  A ValidationError rejects an impression id that occurs
    twice in ``impressions`` or in one source's lists, a list that breaks a
    join rule (``corpus.join_list``) and an article missing from
    ``corpus``; an empty grid, or one that repeats a point, is a ValueError.

    A large run (at least ``_FORK_MIN_WORK`` lists x grid points) on more
    than one CPU scores the per-impression metrics in a child made with
    ``os.fork()`` while this process scores fragmentation; the result is
    the same.  It forks only while this process runs no other thread, and
    runs inline otherwise.
    """
    check_pool(pool)
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
    grid_configs = [(point, point.metric_config(metric_config)) for point in grid]

    # Scoring goes impression by impression, so that the contexts of an
    # impression are built once for all of its lists and then dropped.
    lists_by_impression: dict[str, list[tuple[str, RecommendationList]]] = {}
    for source in sorted(recommendations_by_source):
        for recommendation in recommendations_by_source[source]:
            impression_id = recommendation.impression_id
            join_list(by_impression, impression_id, recommendation.user_id, recommendation.ranked_items)
            entries = lists_by_impression.setdefault(impression_id, [])
            if entries and entries[-1][0] == source:  # sources come one after another
                raise ValidationError(f"{source} lists impression {impression_id!r} twice")
            entries.append((source, recommendation))

    finish = _start_scoring(
        _Scorer(corpus, metric_config, grid_configs, day_pools, recommendations_by_source),
        [
            (by_impression[impression_id], lists_by_impression[impression_id])
            for impression_id in sorted(lists_by_impression)
        ],
        len(grid) * sum(map(len, recommendations_by_source.values())),
    )
    del lists_by_impression

    rows: dict[tuple, Rows] = {}
    try:
        # One partner draw per distinct list id set, across sources and grid
        # points; one chain distribution per list and weighting of a source.
        draws = {}
        for source in sorted(recommendations_by_source):
            ranked_articles = {
                recommendation.impression_id: [corpus[article_id] for article_id in recommendation.ranked_items]
                for recommendation in recommendations_by_source[source]
            }
            chains: dict[RankWeighting, dict[str, Side]] = {}
            for point, config in grid_configs:
                rows[_config_key("fragmentation", source, point)] = sample_fragmentation(
                    ranked_articles, config, chains, draws
                )
            del ranked_articles, chains  # before the next source's
        del draws  # before the child's rows arrive
    except BaseException:
        finish()  # a scoring error comes first, as it does inline
        raise
    rows.update(finish())  # disjoint keys: the scorer's are per-impression metrics
    return EvaluationResult(dict(sorted(rows.items(), key=itemgetter(0))))
