import gc
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import newsdiv
from newsdiv.cli import main
from newsdiv.corpus import (
    Article,
    Corpus,
    ImpressionLog,
    RecommendationList,
    load_behaviors,
    load_catalog,
)
from newsdiv.enrich import enrich_corpus, load_gazetteer, load_lexicon
from newsdiv.errors import EmptyDistributionError, UnsmoothedZeroError, ValidationError
from newsdiv import evaluate as evaluate_module
from newsdiv.evaluate import (
    POOLS,
    GridPoint,
    _impression_day,
    build_grid,
    daily_pools,
    evaluate_recommendations,
)
from newsdiv import metrics
from newsdiv.metrics import (
    MetricConfig,
    activation_divergence,
    alternative_voices,
    calibration_complexity,
    calibration_topic,
    fragmentation,
    fragmentation_partners,
    representation,
)
from newsdiv.recommenders import recommend_random
from newsdiv.report import read_samples_csv, write_samples_csv
from views import Sample, Skip, named_samples, named_skips, row_key
from writers import dump_behaviors


@pytest.fixture(scope="module")
def world(synthetic_world):
    corpus = load_catalog(synthetic_world["news"], synthetic_world["bodies"])
    impressions = load_behaviors(synthetic_world["behaviors"])
    enrich_corpus(
        corpus,
        lexicon=load_lexicon(synthetic_world["lexicon"]),
        gazetteer=load_gazetteer(synthetic_world["gazetteer"]),
        impressions=impressions,
    )
    return corpus, impressions


def history_matched_oracle(corpus, impression):
    """Ranks candidates by how much mass the user's history puts on their
    subcategory; an upper reference for calibration."""
    weights = {}
    for article_id in impression.history:
        subcategory = corpus[article_id].subcategory
        weights[subcategory] = weights.get(subcategory, 0.0) + 1.0
    ranked = sorted(
        impression.candidate_ids,
        key=lambda cid: (-weights.get(corpus[cid].subcategory, 0.0), cid),
    )
    return RecommendationList(
        impression_id=impression.impression_id,
        user_id=impression.user_id,
        ranked_items=tuple(ranked),
    )


class TestGrid:
    def test_cross_product(self):
        grid = build_grid(["js"], ["none", "mrr"], [1, 0])
        assert len(grid) == 4
        assert GridPoint("js", "mrr", 0) in grid

    def test_empty_cutoffs_rejected(self):
        with pytest.raises(ValueError):
            build_grid(["js"], ["mrr"], [])

    @pytest.mark.parametrize(
        "divergences,weightings,cutoffs",
        [(["js", "js"], ["mrr"], [0]), (["js"], ["mrr", "mrr"], [0]), (["js"], ["mrr"], [10, 0, 10])],
    )
    def test_duplicate_values_rejected(self, divergences, weightings, cutoffs):
        with pytest.raises(ValueError, match="list has duplicates"):
            build_grid(divergences, weightings, cutoffs)

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            build_grid(["js"], ["mrr"], [-3])

    def test_zero_cutoff_means_none(self):
        assert GridPoint("js", "mrr", 0).rank_weighting().cutoff is None
        assert GridPoint("js", "mrr", 10).rank_weighting().cutoff == 10

    # Only the int 0 means no cutoff; 0.0 and False are no ints.
    @pytest.mark.parametrize("cutoff", [2.0, True, 0.0, False])
    def test_cutoff_must_be_an_int(self, cutoff):
        with pytest.raises(TypeError, match=f"^cutoff must be an int or None, got {cutoff!r}$"):
            build_grid(["js"], ["mrr"], [cutoff])

    # A point built in code is checked when built, not when first scored.
    @pytest.mark.parametrize(
        "weighting,cutoff,message",
        [("bogus", 0, "unknown weighting scheme 'bogus'"), ("mrr", -3, "cutoff must be >= 1 when set, got -3")],
    )
    def test_point_checks_itself_when_built(self, weighting, cutoff, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GridPoint("js", weighting, cutoff)


class TestDailyPools:
    def test_groups_by_utc_day(self, world):
        _, impressions = world
        pools = daily_pools(impressions)
        assert len(pools) == 3  # the generator spreads times over three days
        for ids in pools.values():
            assert ids == tuple(sorted(ids))


class TestEvaluateRecommendations:
    def test_random_beats_history_matched_oracle_on_calibration(self, world):
        corpus, impressions = world
        recommendations = {
            "random": [recommend_random(impression, seed=42) for impression in impressions],
            "external:oracle": [
                history_matched_oracle(corpus, impression) for impression in impressions
            ],
        }
        result = evaluate_recommendations(
            corpus,
            impressions,
            recommendations,
            MetricConfig(seed=42),
            build_grid(["js"], ["mrr"], [10]),
        )
        means = {}
        for source in ("random", "external:oracle"):
            values = [
                row.value
                for row in named_samples(result.samples)
                if row.metric == "calibration_topic" and row.recommender == source
            ]
            means[source] = math.fsum(values) / len(values)
        assert 0.0 < means["external:oracle"] < means["random"] < 1.0

    def test_rows_sorted_and_deterministic(self, world):
        corpus, impressions = world
        recommendations = {
            "random": [recommend_random(impression, seed=1) for impression in impressions[:20]]
        }
        config = MetricConfig(seed=1, fragmentation_pairs=2)
        grid = build_grid(["js"], ["mrr"], [0])
        first = evaluate_recommendations(corpus, impressions, recommendations, config, grid)
        second = evaluate_recommendations(corpus, impressions, recommendations, config, grid)
        assert first.samples == second.samples
        assert first.skips == second.skips
        keys = [
            (row.metric, row.recommender, row.divergence, row.weighting, row.cutoff, row.pair_id)
            for row in named_samples(first.samples)
        ]
        assert keys == sorted(keys)

    def test_fragmentation_pairs_shared_across_grid(self, world):
        corpus, impressions = world
        recommendations = {
            "random": [recommend_random(impression, seed=1) for impression in impressions[:10]]
        }
        config = MetricConfig(seed=1, fragmentation_pairs=1)
        grid = build_grid(["js", "kl"], ["mrr"], [5, 0])
        result = evaluate_recommendations(corpus, impressions, recommendations, config, grid)
        pair_ids = {}
        for row in named_samples(result.samples):
            if row.metric == "fragmentation":
                key = (row.divergence, row.cutoff)
                pair_ids.setdefault(key, set()).add(row.pair_id)
        assert len(set(map(frozenset, pair_ids.values()))) == 1

    def test_fragmentation_pair_ids_shared_across_sources_and_grid(self, world):
        corpus, impressions = world
        recommendations = {
            source: [recommend_random(impression, seed=seed) for impression in impressions[:10]]
            for source, seed in (("a", 1), ("b", 2))
        }
        grid = build_grid(["js", "kl"], ["mrr"], [5, 0])
        result = evaluate_recommendations(
            corpus, impressions, recommendations, MetricConfig(seed=1, fragmentation_pairs=2), grid
        )
        pair_ids = [
            pair_id
            for key, rows in result.rows.items()
            if key[0] == "fragmentation"
            for columns in rows
            for pair_id in columns.pair_ids
        ]
        # 2 sources x 4 points x 10 lists x 2 partners, over 20 distinct pairs
        assert len(pair_ids) == 160
        assert len({id(pair_id) for pair_id in pair_ids}) == len(set(pair_ids)) == 20

    def test_fragmentation_rows_stored_as_returned(self, world, monkeypatch):
        corpus, impressions = world
        recommendations = {
            source: [recommend_random(impression, seed=seed) for impression in impressions[:10]]
            for source, seed in (("b", 2), ("a", 1))
        }
        returned = []
        sample = evaluate_module.sample_fragmentation

        def recording(*args):
            returned.append(sample(*args))
            return returned[-1]

        monkeypatch.setattr(evaluate_module, "sample_fragmentation", recording)
        grid = build_grid(["js", "kl"], ["mrr"], [5])
        result = evaluate_recommendations(
            corpus, impressions, recommendations, MetricConfig(seed=1, fragmentation_pairs=2), grid
        )
        calls = [(source, point) for source in ("a", "b") for point in grid]
        assert len(returned) == len(calls)
        for (source, point), rows in zip(calls, returned):
            key = ("fragmentation", source, point.divergence, point.weighting, point.cutoff)
            assert result.rows[key] is rows

    def test_chain_distributions_built_once_per_weighting(self, world, monkeypatch):
        corpus, impressions = world
        recommendations = {
            source: [recommend_random(impression, seed=seed) for impression in impressions[:10]]
            for source, seed in (("a", 1), ("b", 2))
        }
        builds = []
        build = metrics.build_distribution

        def counting(items, key_fn, weighting):
            if key_fn is metrics.chain_keys:
                builds.append(weighting)
            return build(items, key_fn, weighting)

        monkeypatch.setattr(metrics, "build_distribution", counting)
        grid = build_grid(["kl", "js"], ["mrr"], [5, 0])
        evaluate_recommendations(corpus, impressions, recommendations, MetricConfig(seed=1), grid)
        # 2 sources x 10 lists x 2 cutoffs, shared by both divergences
        assert len(builds) == 40
        assert len(set(builds)) == 2

    @pytest.mark.parametrize("pool", POOLS)
    def test_scorer_builds_each_context_and_list_once(self, world, monkeypatch, pool):
        corpus, impressions = world
        impressions = impressions[:10]
        recommendations = {
            source: [recommend_random(impression, seed=seed) for impression in impressions]
            for source, seed in (("a", 1), ("b", 2), ("c", 3))
        }
        monkeypatch.setattr(evaluate_module, "_FORK_MIN_WORK", sys.maxsize)
        builds = Counter()

        def counting(build):
            def wrapper(rows, scheme):
                builds[build.__name__] += 1
                return build(rows, scheme)

            monkeypatch.setattr(evaluate_module, build.__name__, wrapper)

        counting(evaluate_module._from_pairs)
        counting(evaluate_module._history_from_pairs)
        grid = build_grid(["kl", "js"], ["none", "mrr"], [10, 0])
        evaluate_recommendations(corpus, impressions, recommendations, MetricConfig(seed=1), grid, pool)
        pools = len(daily_pools(impressions)) if pool == "daily" else len(impressions)
        # 2 history contexts per impression and history weighting (none, mrr)
        assert builds["_history_from_pairs"] == 2 * 2 * len(impressions)
        # 3 pool contexts per impression (or day), and 5 distributions per
        # list (3 sources x 10) and list weighting (none@10, none@N, mrr@10,
        # mrr@N)
        assert builds["_from_pairs"] == 3 * pools + 5 * 4 * 30

    def test_partners_drawn_once_per_list_id_set(self, world, monkeypatch):
        corpus, impressions = world
        impressions = impressions[:10]
        recommendations = {
            source: [recommend_random(impression, seed=seed) for impression in impressions]
            for source, seed in (("a", 1), ("b", 2), ("c", 3))
        }
        config = MetricConfig(seed=1, fragmentation_pairs=2)
        grid = build_grid(["js"], ["mrr"], [5, 0])
        draws = []
        draw = metrics.fragmentation_partners

        def counting(*args):
            draws.append(args)
            return draw(*args)

        monkeypatch.setattr(metrics, "fragmentation_partners", counting)
        expected = reference_evaluation(corpus, impressions, recommendations, config, grid, "impression")
        result = evaluate_recommendations(corpus, impressions, recommendations, config, grid)
        # 3 sources x 2 points over the same 10 lists
        assert len(draws) == 1
        assert result.samples == expected[0]
        assert result.skips == expected[1]

    def test_daily_pool_changes_supply_metrics_only(self, world):
        corpus, impressions = world
        recommendations = {
            "random": [recommend_random(impression, seed=1) for impression in impressions[:20]]
        }
        config = MetricConfig(seed=1, fragmentation_pairs=1)
        grid = build_grid(["js"], ["mrr"], [0])
        per_impression = evaluate_recommendations(
            corpus, impressions, recommendations, config, grid, pool="impression"
        )
        per_day = evaluate_recommendations(
            corpus, impressions, recommendations, config, grid, pool="daily"
        )

        def values(result, metric):
            return [row.value for row in named_samples(result.samples) if row.metric == metric]

        assert values(per_impression, "calibration_topic") == values(per_day, "calibration_topic")
        assert values(per_impression, "activation") != values(per_day, "activation")


# The evaluation loop without shared distributions: every sample
# resolves its articles and calls the public metric functions afresh, and
# fragmentation rebuilds both chain distributions for every pair.
REFERENCE_METRICS = (
    ("calibration_topic", calibration_topic, "history"),
    ("calibration_complexity", calibration_complexity, "history"),
    ("activation", activation_divergence, "pool"),
    ("representation", representation, "pool"),
    ("alternative_voices", alternative_voices, "pool"),
)


def reference_evaluation(corpus, impressions, recommendations_by_source, metric_config, grid, pool):
    by_impression = {impression.impression_id: impression for impression in impressions}
    day_pools = daily_pools(impressions) if pool == "daily" else {}
    configs = [
        (point, replace(metric_config, divergence=point.divergence, weighting=point.rank_weighting()))
        for point in grid
    ]
    samples, skips = [], []
    for source in sorted(recommendations_by_source):
        recommendations = recommendations_by_source[source]
        for recommendation in recommendations:
            impression = by_impression[recommendation.impression_id]
            history = [corpus[article_id] for article_id in impression.history]
            recommended = [corpus[article_id] for article_id in recommendation.ranked_items]
            pool_ids = day_pools[_impression_day(impression)] if day_pools else impression.candidate_ids
            candidates = [corpus[article_id] for article_id in pool_ids]
            for point, config in configs:
                for name, metric_fn, context_kind in REFERENCE_METRICS:
                    context = history if context_kind == "history" else candidates
                    key = (name, source, point.divergence, point.weighting, point.cutoff)
                    try:
                        value = metric_fn(context, recommended, config)
                    except EmptyDistributionError as exc:
                        skips.append(Skip(*key, impression.impression_id, str(exc)))
                        continue
                    samples.append(Sample(*key, impression.impression_id, value))
        ranked = {
            recommendation.impression_id: [corpus[article_id] for article_id in recommendation.ranked_items]
            for recommendation in recommendations
        }
        for point, config in configs:
            key = ("fragmentation", source, point.divergence, point.weighting, point.cutoff)
            if len(ranked) < 2:
                skips.append(Skip(*key, "", "fewer than 2 recommendation lists"))
                continue
            partners = fragmentation_partners(list(ranked), config.fragmentation_pairs, config.seed)
            for current, partner in partners:
                pair_id = f"{current}|{partner}"
                try:
                    value = fragmentation(ranked[current], ranked[partner], config)
                except EmptyDistributionError as exc:
                    skips.append(Skip(*key, pair_id, str(exc)))
                    continue
                samples.append(Sample(*key, pair_id, value))
    samples.sort(key=row_key)
    skips.sort()  # by key, then reason
    return samples, skips


def assert_matches_reference(corpus, impressions, recommendations, config, grid, pool):
    try:
        expected = reference_evaluation(corpus, impressions, recommendations, config, grid, pool)
    except UnsmoothedZeroError:
        with pytest.raises(UnsmoothedZeroError):
            evaluate_recommendations(corpus, impressions, recommendations, config, grid, pool=pool)
        return
    result = evaluate_recommendations(corpus, impressions, recommendations, config, grid, pool=pool)
    assert result.samples == expected[0]
    assert result.skips == expected[1]


FULL_GRID = build_grid(["kl", "js"], ["none", "mrr", "ndcg"], [0, 1, 50])


class TestAgainstReference:
    @pytest.mark.parametrize("pool", ["impression", "daily"])
    def test_synthetic_world(self, world, pool):
        corpus, impressions = world
        impressions = impressions[:30]
        recommendations = {
            "random": [recommend_random(impression, seed=3) for impression in impressions],
            "external:oracle": [history_matched_oracle(corpus, impression) for impression in impressions[:12]],
            "external:single": [recommend_random(impressions[0], seed=4)],
        }
        config = MetricConfig(seed=3, fragmentation_pairs=2)
        assert_matches_reference(corpus, impressions, recommendations, config, FULL_GRID, pool)

    def test_repeated_grid_point(self, world):
        """A repeated point would count its samples twice."""
        corpus, impressions = world
        impressions = impressions[:12]
        recommendations = {"random": [recommend_random(impression, seed=5) for impression in impressions]}
        grid = [GridPoint("js", "mrr", 0)] * 2
        with pytest.raises(ValueError, match="grid repeats a point"):
            evaluate_recommendations(corpus, impressions, recommendations, MetricConfig(seed=5), grid)

    def test_unknown_pool(self, world):
        corpus, impressions = world
        with pytest.raises(ValueError, match="^unknown pool 'weekly'$"):
            evaluate_recommendations(corpus, impressions, {}, MetricConfig(), FULL_GRID, pool="weekly")

    def test_empty_grid(self, world):
        corpus, impressions = world
        impressions = impressions[:12]
        recommendations = {"random": [recommend_random(impression, seed=5) for impression in impressions]}
        with pytest.raises(ValueError, match="grid must be a non-empty list"):
            evaluate_recommendations(corpus, impressions, recommendations, MetricConfig(seed=5), [])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_worlds(self, data):
        draw = data.draw
        article_ids = [f"A{index}" for index in range(draw(st.integers(1, 7)))]
        corpus = Corpus()
        for article_id in article_ids:
            corpus.add(
                Article(
                    id=article_id,
                    subcategory=draw(st.sampled_from(["", "s1", "s2", "s3"])),
                    complexity=draw(st.none() | st.floats(0.0, 100.0)),
                    activation=draw(st.none() | st.floats(0.0, 1.0)),
                    chain_id=draw(st.sampled_from([None, "c1", "c2", "c3"])),
                    political_actors=frozenset(draw(st.lists(st.sampled_from(["p1", "p2", "p3"]), max_size=3))),
                    minority_mentions=draw(st.integers(0, 3)),
                    majority_mentions=draw(st.integers(0, 3)),
                )
            )
        impressions = []
        for index in range(draw(st.integers(1, 5))):
            candidates = draw(st.lists(st.sampled_from(article_ids), min_size=1, max_size=6, unique=True))
            impressions.append(
                ImpressionLog(
                    impression_id=f"I{index}",
                    user_id=f"U{index}",
                    time=draw(st.sampled_from([0.0, 3600.0, 86400.0, 200000.0])),
                    candidates=tuple((article_id, draw(st.booleans())) for article_id in candidates),
                    history=tuple(draw(st.lists(st.sampled_from(article_ids), max_size=5))),
                )
            )
        recommendations = {}
        sources = st.lists(st.sampled_from(["random", "popular", "external:x"]), min_size=1, unique=True)
        for source in draw(sources):
            listed = draw(st.lists(st.sampled_from(impressions), unique_by=lambda i: i.impression_id))
            recommendations[source] = [
                RecommendationList(
                    impression_id=impression.impression_id,
                    user_id=impression.user_id,
                    ranked_items=tuple(draw(st.permutations(impression.candidate_ids)))[
                        : draw(st.integers(0, 6))
                    ],
                )
                for impression in listed
            ]
        grid = draw(st.lists(st.sampled_from(FULL_GRID), min_size=1, max_size=6, unique=True))
        config = MetricConfig(
            alpha=draw(st.sampled_from([0.0, 0.001, 0.2])),
            activation_bins=draw(st.integers(2, 5)),
            complexity_bins=draw(st.integers(2, 5)),
            fragmentation_pairs=draw(st.integers(1, 3)),
            seed=draw(st.integers(0, 3)),
        )
        pool = draw(st.sampled_from(["impression", "daily"]))
        assert_matches_reference(corpus, impressions, recommendations, config, grid, pool)


def column_bytes(result):
    """A result's keys, pair ids and values, with each sample value as its
    bytes, so that two results compare bit for bit."""
    return [
        (key, rows.samples.pair_ids, rows.samples.values.tobytes(), rows.skips)
        for key, rows in result.rows.items()
    ]


class TestForkedScoring:
    """Per-impression scoring in a forked child, with the size gate forced
    open, gives the inline result and leaves nothing behind."""

    GRID = build_grid(["kl", "js"], ["none", "mrr"], [10, 0])

    @pytest.fixture
    def forks(self, monkeypatch):
        """Open the size gate; the pids of the forks made meanwhile."""
        if not evaluate_module._forks(sys.maxsize):
            pytest.skip("scoring never forks here: one CPU, no os.fork or other threads")
        monkeypatch.setattr(evaluate_module, "_FORK_MIN_WORK", 0)
        pids = []
        fork = os.fork

        def recording():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording)
        return pids

    @staticmethod
    def recommendations(corpus, impressions):
        return {
            "random": [recommend_random(impression, seed=3) for impression in impressions[:50]],
            "external:oracle": [history_matched_oracle(corpus, impression) for impression in impressions[:20]],
        }

    @staticmethod
    def inline(monkeypatch):
        monkeypatch.setattr(evaluate_module, "_FORK_MIN_WORK", sys.maxsize)

    @pytest.mark.parametrize("pool", POOLS)
    def test_same_result_as_inline(self, world, forks, monkeypatch, pool):
        corpus, impressions = world
        recommendations = self.recommendations(corpus, impressions)
        config = MetricConfig(seed=3)
        forked = evaluate_recommendations(corpus, impressions, recommendations, config, self.GRID, pool=pool)
        assert len(forks) == 1
        self.inline(monkeypatch)
        inline = evaluate_recommendations(corpus, impressions, recommendations, config, self.GRID, pool=pool)
        assert len(forks) == 1
        assert column_bytes(forked) == column_bytes(inline)
        assert forked.sample_count > 0 and forked.skip_count > 0

    def test_rows_hold_one_object_per_impression_id(self, world, forks):
        corpus, impressions = world
        result = evaluate_recommendations(
            corpus, impressions, self.recommendations(corpus, impressions), MetricConfig(seed=3), self.GRID
        )
        assert len(forks) == 1
        pair_ids = [
            pair_id
            for key, rows in result.rows.items()
            if key[0] != "fragmentation"
            for columns in rows
            for pair_id in columns.pair_ids
        ]
        assert len(set(pair_ids)) == 50
        assert len({id(pair_id) for pair_id in pair_ids}) == 50

    def test_fragmentation_error_reaps_the_child_and_is_raised(self, world, forks, monkeypatch):
        def fail(*args):
            raise RuntimeError("fragmentation failed")

        monkeypatch.setattr(evaluate_module, "sample_fragmentation", fail)
        corpus, impressions = world
        with pytest.raises(RuntimeError, match="^fragmentation failed$"):
            evaluate_recommendations(
                corpus, impressions, self.recommendations(corpus, impressions), MetricConfig(seed=3), self.GRID
            )
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)
        assert gc.get_freeze_count() == 0

    def test_child_is_reaped_and_heap_thawed(self, world, forks):
        corpus, impressions = world
        evaluate_recommendations(
            corpus, impressions, self.recommendations(corpus, impressions), MetricConfig(seed=3), self.GRID
        )
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)
        assert gc.get_freeze_count() == 0

    def test_child_exception_is_raised_with_its_message(self, world, forks, monkeypatch):
        corpus, impressions = world
        recommendations = self.recommendations(corpus, impressions)
        config = MetricConfig(seed=3, alpha=0.0)
        with pytest.raises(UnsmoothedZeroError) as forked:
            evaluate_recommendations(corpus, impressions, recommendations, config, self.GRID)
        assert len(forks) == 1
        self.inline(monkeypatch)
        with pytest.raises(UnsmoothedZeroError) as inline:
            evaluate_recommendations(corpus, impressions, recommendations, config, self.GRID)
        assert str(forked.value) == str(inline.value)

    def test_cli_internal_error_unchanged(self, synthetic_world, forks, monkeypatch, capsys, tmp_path):
        # The CLI rejects kl at --alpha 0, so the per-impression half fails
        # here as unsmoothed kl would.
        def unsmoothed(*args):
            raise UnsmoothedZeroError("unsmoothed zero at key 'politics'")

        monkeypatch.setattr(evaluate_module, "_sample", unsmoothed)
        args = [
            "evaluate",
            *(arg for role in ("news", "bodies", "behaviors") for arg in (f"--{role}", str(synthetic_world[role]))),
            "--divergence", "kl", "--cutoffs", "0",
        ]
        assert main([*args, "--out", str(tmp_path / "forked")]) == 2
        forked = capsys.readouterr().err
        assert len(forks) == 1
        self.inline(monkeypatch)
        assert main([*args, "--out", str(tmp_path / "inline")]) == 2
        assert capsys.readouterr().err == forked
        assert forked == "internal error: UnsmoothedZeroError: unsmoothed zero at key 'politics'\n"

    def test_fork_failure_falls_back_to_inline(self, world, forks, monkeypatch):
        corpus, impressions = world
        recommendations = self.recommendations(corpus, impressions)
        attempts = []

        def failing():
            attempts.append(1)
            raise OSError("Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failing)
        fallback = evaluate_recommendations(corpus, impressions, recommendations, MetricConfig(seed=3), self.GRID)
        assert attempts == [1]
        assert gc.get_freeze_count() == 0
        self.inline(monkeypatch)
        inline = evaluate_recommendations(corpus, impressions, recommendations, MetricConfig(seed=3), self.GRID)
        assert attempts == [1]
        assert column_bytes(fallback) == column_bytes(inline)

    def test_child_exit_without_result(self, world, forks, monkeypatch):
        parent = os.getpid()

        def exit_in_child(*args):
            assert os.getpid() != parent
            os._exit(3)

        monkeypatch.setattr(evaluate_module._Scorer, "score_impression", exit_in_child)
        corpus, impressions = world
        with pytest.raises(RuntimeError, match=r"ended without its result \(exit 3\)"):
            evaluate_recommendations(
                corpus, impressions, self.recommendations(corpus, impressions), MetricConfig(seed=3), self.GRID
            )
        assert len(forks) == 1
        assert gc.get_freeze_count() == 0

    def test_unpicklable_child_exception(self, world, forks, monkeypatch):
        class Local(Exception):
            pass

        def fail(*args):
            raise Local("scoring failed")

        monkeypatch.setattr(evaluate_module._Scorer, "score_impression", fail)
        corpus, impressions = world
        with pytest.raises(RuntimeError) as raised:
            evaluate_recommendations(
                corpus, impressions, self.recommendations(corpus, impressions), MetricConfig(seed=3), self.GRID
            )
        assert type(raised.value) is RuntimeError
        assert str(raised.value) == "Local: scoring failed"
        assert len(forks) == 1

    def test_other_thread_scores_inline(self, world, forks, monkeypatch):
        corpus, impressions = world
        recommendations = self.recommendations(corpus, impressions)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            threaded = evaluate_recommendations(corpus, impressions, recommendations, MetricConfig(seed=3), self.GRID)
        finally:
            release.set()
            other.join()
        assert forks == []
        self.inline(monkeypatch)
        inline = evaluate_recommendations(corpus, impressions, recommendations, MetricConfig(seed=3), self.GRID)
        assert column_bytes(threaded) == column_bytes(inline)


class TestDuplicateImpressions:
    def test_duplicate_list_in_one_source_rejected(self, world):
        corpus, impressions = world
        lists = [recommend_random(impression, seed=1) for impression in impressions[:3]]
        with pytest.raises(ValidationError, match="random lists impression 'I0000' twice"):
            evaluate_recommendations(
                corpus,
                impressions,
                {"random": [*lists, lists[0]]},
                MetricConfig(),
                build_grid(["js"], ["mrr"], [0]),
            )

    def test_list_for_an_unknown_impression_rejected(self, world):
        corpus, impressions = world
        with pytest.raises(ValidationError, match="^recommendation references unknown impression 'I0000'$"):
            evaluate_recommendations(
                corpus,
                impressions[1:],
                {"random": [recommend_random(impressions[0], seed=1)]},
                MetricConfig(),
                build_grid(["js"], ["mrr"], [0]),
            )

    def test_duplicate_impression_rejected(self, world):
        corpus, impressions = world
        with pytest.raises(ValidationError, match="duplicate impression id 'I0001'"):
            evaluate_recommendations(
                corpus, [*impressions, impressions[1]], {}, MetricConfig(), build_grid(["js"], ["mrr"], [0])
            )


class TestRowOrder:
    """Pair ids sort as strings within each configuration: with ids of
    different lengths "I10|I2" comes before "I1|I3", and "I10" before "I2"."""

    @pytest.fixture(scope="class")
    def short_ids(self, world):
        _, impressions = world
        return [
            replace(impression, impression_id=f"I{number}")
            for number, impression in enumerate(impressions[:12], 1)
        ]

    def test_result_rows_sorted(self, world, short_ids):
        corpus, _ = world
        recommendations = {
            "random": [recommend_random(impression, seed=2) for impression in short_ids],
            # empty lists: a skip per metric, and skipped fragmentation pairs
            "external:empty": [
                RecommendationList(impression.impression_id, impression.user_id, ())
                for impression in short_ids[::3]
            ],
        }
        config = MetricConfig(seed=2, fragmentation_pairs=3)
        result = evaluate_recommendations(
            corpus, short_ids, recommendations, config, build_grid(["js"], ["mrr"], [0])
        )
        samples, skips = named_samples(result.samples), named_skips(result.skips)
        assert samples == sorted(samples, key=row_key)
        assert skips == sorted(skips, key=row_key)
        fragmentation_ids = {row.pair_id for row in samples if row.metric == "fragmentation"}
        assert {pair_id.split("|")[0] for pair_id in fragmentation_ids} >= {"I1", "I10"}
        assert {row.metric for row in skips} >= {"fragmentation", "calibration_topic"}

    def test_samples_csv_rows_sorted(self, synthetic_world, short_ids, tmp_path):
        behaviors = tmp_path / "behaviors.tsv"
        dump_behaviors(short_ids, behaviors)
        inputs = [
            arg
            for role in ("news", "bodies", "lexicon", "gazetteer")
            for arg in (f"--{role}", str(synthetic_world[role]))
        ]
        out = tmp_path / "out"
        code = main(["evaluate", *inputs, "--behaviors", str(behaviors), "--seed", "2", "--out", str(out)])
        assert code == 0
        rows = named_samples(read_samples_csv(out / "samples.csv"))
        assert rows == sorted(rows, key=row_key)
        assert {row.pair_id.split("|")[0] for row in rows if row.metric == "fragmentation"} >= {"I1", "I10"}

    def test_samples_csv_reads_back_as_the_result_samples(self, world, short_ids, tmp_path):
        corpus, _ = world
        recommendations = {"random": [recommend_random(impression, seed=2) for impression in short_ids]}
        grid = build_grid(["js", "kl"], ["mrr"], [3, 0])
        result = evaluate_recommendations(corpus, short_ids, recommendations, MetricConfig(seed=2), grid)
        write_samples_csv(result.rows, tmp_path / "samples.csv")
        read = read_samples_csv(tmp_path / "samples.csv")
        assert read == result.samples
        assert {tuple(map(type, row)) for row in read} == {(str, str, str, str, int, str, float)}


class TestMemory:
    def test_traced_bytes_per_row(self, world):
        """Traced bytes of one js/mrr/@N evaluation (2 recommenders x 150
        impressions, 3000 rows) per sample-or-skip row, over the whole
        module's run or this test alone.  Row objects sorted at the end
        peaked at 342-383 B and kept 227-256 B per row; per-configuration
        columns peak at 127-133 B and keep 81-86 B.  The bounds sit between."""
        corpus, impressions = world
        recommendations = {
            source: [recommend_random(impression, seed=seed) for impression in impressions]
            for source, seed in (("a", 1), ("b", 2))
        }
        grid = build_grid(["js"], ["mrr"], [0])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = evaluate_recommendations(corpus, impressions, recommendations, MetricConfig(seed=1), grid)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = len(result.samples) + len(result.skips)
        assert (peak - base) / rows < 230
        assert (retained - base) / rows < 150

    def test_importing_the_cli_leaves_array_unloaded(self):
        """The array extension (about 0.14 MB of RSS) is imported when the
        first rows are made, so that the commands that score nothing do
        without it."""
        code = "import sys, newsdiv.cli; print('array' in sys.modules)"
        source = Path(newsdiv.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(source)}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert (result.returncode, result.stdout) == (0, "False\n")
