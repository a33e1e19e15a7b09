import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from newsdiv.corpus import Article, Corpus, ImpressionLog, RecommendationList, load_behaviors, load_catalog
from newsdiv.distrib import Binning
from newsdiv.enrich import enrich_corpus, load_gazetteer, load_lexicon
from newsdiv.errors import EmptyDistributionError, UnsmoothedZeroError, ValidationError
from newsdiv.evaluate import (
    GridPoint,
    SampleRow,
    SkipRow,
    _impression_day,
    build_grid,
    daily_pools,
    evaluate_recommendations,
)
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
        source="external:oracle",
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
                for row in result.samples
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
            for row in first.samples
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
        for row in result.samples:
            if row.metric == "fragmentation":
                key = (row.divergence, row.cutoff)
                pair_ids.setdefault(key, set()).add(row.pair_id)
        assert len(set(map(frozenset, pair_ids.values()))) == 1

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
            return [row.value for row in result.samples if row.metric == metric]

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
                        skips.append(SkipRow(*key, impression.impression_id, str(exc)))
                        continue
                    samples.append(SampleRow(*key, impression.impression_id, value))
        ranked = {
            recommendation.impression_id: [corpus[article_id] for article_id in recommendation.ranked_items]
            for recommendation in recommendations
        }
        for point, config in configs:
            key = ("fragmentation", source, point.divergence, point.weighting, point.cutoff)
            if len(ranked) < 2:
                skips.append(SkipRow(*key, "", "fewer than 2 recommendation lists"))
                continue
            partners = fragmentation_partners(list(ranked), config.fragmentation_pairs, config.seed)
            for current, partner in partners:
                pair_id = f"{current}|{partner}"
                try:
                    value = fragmentation(ranked[current], ranked[partner], config)
                except EmptyDistributionError as exc:
                    skips.append(SkipRow(*key, pair_id, str(exc)))
                    continue
                samples.append(SampleRow(*key, pair_id, value))
    samples.sort(key=SampleRow.row_key)
    skips.sort(key=lambda row: (*row.row_key(), row.reason))
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
                    source=source,
                )
                for impression in listed
            ]
        grid = draw(st.lists(st.sampled_from(FULL_GRID), min_size=1, max_size=6))
        config = MetricConfig(
            alpha=draw(st.sampled_from([0.0, 0.001, 0.2])),
            activation_bins=Binning("activation", draw(st.integers(2, 5)), 0.0, 1.0),
            complexity_bins=Binning("complexity", draw(st.integers(2, 5)), 0.0, 100.0),
            fragmentation_pairs=draw(st.integers(1, 3)),
            seed=draw(st.integers(0, 3)),
        )
        pool = draw(st.sampled_from(["impression", "daily"]))
        assert_matches_reference(corpus, impressions, recommendations, config, grid, pool)


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

    def test_duplicate_impression_rejected(self, world):
        corpus, impressions = world
        with pytest.raises(ValidationError, match="duplicate impression id 'I0001'"):
            evaluate_recommendations(
                corpus, [*impressions, impressions[1]], {}, MetricConfig(), build_grid(["js"], ["mrr"], [0])
            )
