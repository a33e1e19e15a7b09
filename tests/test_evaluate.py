import math

import pytest

from newsdiv.corpus import RecommendationList, load_behaviors, load_catalog
from newsdiv.enrich import enrich_corpus, load_gazetteer, load_lexicon
from newsdiv.evaluate import (
    GridPoint,
    build_grid,
    daily_pools,
    evaluate_recommendations,
)
from newsdiv.metrics import MetricConfig
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
