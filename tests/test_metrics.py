import math

import pytest
from scipy.spatial import distance as sp_distance

import newsdiv
from newsdiv import metrics
from newsdiv.corpus import Article
from newsdiv.distrib import RankWeighting
from newsdiv.errors import EmptyDistributionError
from newsdiv.metrics import (
    MetricConfig,
    activation_divergence,
    aggregate,
    alternative_voices,
    calibration_complexity,
    calibration_topic,
    fragmentation,
    fragmentation_partners,
    representation,
    sample_fragmentation,
)
from newsdiv.seeding import derive_rng


@pytest.mark.parametrize(
    "name",
    ["activation_divergence", "alternative_voices", "calibration_complexity", "calibration_topic",
     "fragmentation", "representation"],
)
def test_every_metric_function_is_exported(name):
    assert getattr(newsdiv, name) is getattr(metrics, name)


def art(article_id="A", **fields):
    return Article(id=article_id, **fields)


def cfg(**overrides):
    defaults = dict(divergence="js", weighting=RankWeighting("mrr"), alpha=0.0, seed=9)
    defaults.update(overrides)
    return MetricConfig(**defaults)


def js_oracle(p, q):
    return sp_distance.jensenshannon(p, q, base=2)


class TestCalibrationTopic:
    def test_identical_single_subcategory(self):
        history = [art("h1", subcategory="soccer")]
        recommended = [art("r1", subcategory="soccer")]
        assert calibration_topic(history, recommended, cfg()) == 0.0

    def test_two_subcategory_history_against_matching_top_item(self):
        history = [art("h1", subcategory="x"), art("h2", subcategory="y")]
        recommended = [art("r1", subcategory="x")]
        value = calibration_topic(history, recommended, cfg())
        assert value == pytest.approx(js_oracle([2 / 3, 1 / 3], [1.0, 0.0]), abs=1e-12)
        assert value == pytest.approx(0.43689, abs=1e-4)

    def test_empty_history_skips(self):
        with pytest.raises(EmptyDistributionError, match="no context"):
            calibration_topic([], [art("r1", subcategory="x")], cfg())

    def test_history_never_truncated_by_cutoff(self):
        history = [art("h1", subcategory="x"), art("h2", subcategory="y")]
        recommended = [art("r1", subcategory="x")]
        with_cutoff = calibration_topic(history, recommended, cfg(weighting=RankWeighting("mrr", 1)))
        without = calibration_topic(history, recommended, cfg())
        assert with_cutoff == without


class TestCalibrationComplexity:
    def test_single_bin_is_zero(self):
        history = [art("h1", complexity=55.0)]
        recommended = [art("r1", complexity=57.0)]  # same bin_5
        assert calibration_complexity(history, recommended, cfg()) == 0.0

    def test_two_bin_history(self):
        history = [art("h1", complexity=25.0), art("h2", complexity=55.0)]  # bins 2 and 5
        recommended = [art("r1", complexity=55.0)]
        value = calibration_complexity(history, recommended, cfg())
        assert value == pytest.approx(js_oracle([2 / 3, 1 / 3], [0.0, 1.0]), abs=1e-12)
        assert value == pytest.approx(0.67760, abs=1e-4)

    def test_articles_without_complexity_excluded(self):
        history = [art("h1", complexity=25.0), art("h2")]
        recommended = [art("r1", complexity=25.0)]
        assert calibration_complexity(history, recommended, cfg()) == 0.0

    def test_all_excluded_skips(self):
        with pytest.raises(EmptyDistributionError):
            calibration_complexity([art("h1")], [art("r1", complexity=10.0)], cfg())

    def test_degenerate_binning_rejected(self):
        with pytest.raises(ValueError, match="degenerate binning"):
            MetricConfig(complexity_bins=1)

    # Accepted, 1.5 failed later inside fragmentation_partners with a bare
    # TypeError, and True drew one partner.
    @pytest.mark.parametrize("pairs", [1.5, 5.0, True])
    def test_fragmentation_pairs_must_be_an_int(self, pairs):
        with pytest.raises(TypeError, match=f"^fragmentation_pairs must be an int, got {pairs!r}$"):
            MetricConfig(fragmentation_pairs=pairs)

    @pytest.mark.parametrize("alpha", [-0.1, 0.5, math.nan])
    def test_alpha_checked_by_the_config(self, alpha):
        with pytest.raises(ValueError, match="alpha must be in"):
            MetricConfig(alpha=alpha)


class TestFragmentation:
    def test_identical_lists(self):
        articles = [art("a", chain_id="e1"), art("b", chain_id="e2")]
        assert fragmentation(articles, articles, cfg()) == 0.0

    def test_disjoint_chains_hit_bound(self):
        left = [art("a", chain_id="e1")]
        right = [art("b", chain_id="e2")]
        assert fragmentation(left, right, cfg()) == pytest.approx(1.0, abs=1e-12)

    def test_symmetrized_kl_hand_value(self):
        left = [art("a", chain_id="e1"), art("b", chain_id="e2")]
        right = [
            art("c", chain_id="e1"),
            art("d", chain_id="e2"),
            art("e", chain_id="e2"),
            art("f", chain_id="e2"),
        ]
        config = cfg(divergence="kl", weighting=RankWeighting("none"))
        assert fragmentation(left, right, config) == pytest.approx(0.19812, abs=1e-4)

    @pytest.mark.parametrize("divergence", ["js", "kl"])
    def test_exact_symmetry(self, divergence):
        left = [art("a", chain_id="e1"), art("b", chain_id="e2"), art("c", chain_id="e3")]
        right = [art("d", chain_id="e2"), art("e", chain_id="e4")]
        config = cfg(divergence=divergence, alpha=0.001)
        assert fragmentation(left, right, config) == fragmentation(right, left, config)


class TestActivationDivergence:
    def test_permutation_of_pool_is_zero(self):
        pool = [art(f"a{i}", activation=value) for i, value in enumerate([0.05, 0.55, 0.95])]
        recommended = [pool[2], pool[0], pool[1]]
        config = cfg(weighting=RankWeighting("none"))
        assert activation_divergence(pool, recommended, config) < 1e-9

    def test_top_item_from_high_bin(self):
        pool = [art("a", activation=0.05), art("b", activation=0.95)]
        recommended = [pool[1]]
        value = activation_divergence(pool, recommended, cfg())
        assert value == pytest.approx(js_oracle([0.5, 0.5], [0.0, 1.0]), abs=1e-12)
        assert value == pytest.approx(0.5579, abs=1e-3)

    def test_empty_recommendation_is_an_error(self):
        pool = [art("a", activation=0.5)]
        with pytest.raises(EmptyDistributionError, match="empty distribution"):
            activation_divergence(pool, [], cfg())

    def test_pool_without_activation_skips(self):
        pool = [art("a"), art("b")]
        with pytest.raises(EmptyDistributionError):
            activation_divergence(pool, [art("c", activation=0.5)], cfg())


class TestRepresentation:
    def test_identical_actor_distributions(self):
        pool = [art("a", political_actors=frozenset({"P1"}))]
        assert representation(pool, pool, cfg()) == 0.0

    def test_recommendation_mentions_one_side(self):
        pool = [
            art("a", political_actors=frozenset({"P1"})),
            art("b", political_actors=frozenset({"P2"})),
        ]
        recommended = [pool[0]]
        value = representation(pool, recommended, cfg())
        assert value == pytest.approx(0.5579, abs=1e-3)

    def test_permutation_without_discount_is_zero(self):
        pool = [
            art("a", political_actors=frozenset({"P1"})),
            art("b", political_actors=frozenset({"P1", "P2"})),
            art("c", political_actors=frozenset({"P2"})),
        ]
        recommended = [pool[1], pool[2], pool[0]]
        config = cfg(weighting=RankWeighting("none"))
        assert representation(pool, recommended, config) < 1e-9

    def test_actorless_pool_skips(self):
        with pytest.raises(EmptyDistributionError):
            representation([art("a")], [art("b", political_actors=frozenset({"P1"}))], cfg())


class TestAlternativeVoices:
    def test_equal_shares(self):
        pool = [art("a", minority_mentions=1, majority_mentions=4)]
        config = cfg(weighting=RankWeighting("none"))
        assert alternative_voices(pool, pool, config) == 0.0

    def test_majority_only_recommendation(self):
        pool = [art("a", minority_mentions=1, majority_mentions=4)]
        recommended = [art("b", majority_mentions=2)]
        value = alternative_voices(pool, recommended, cfg())
        assert value == pytest.approx(js_oracle([0.2, 0.8], [0.0, 1.0]), abs=1e-12)
        assert value == pytest.approx(0.32868, abs=1e-4)

    def test_minority_only_recommendation_diverges(self):
        pool = [art("a", minority_mentions=2, majority_mentions=2)]
        recommended = [art("b", minority_mentions=3)]
        assert alternative_voices(pool, recommended, cfg()) > 0.0

    def test_all_zero_counts_skip(self):
        with pytest.raises(EmptyDistributionError):
            alternative_voices([art("a")], [art("b", minority_mentions=1)], cfg())


class TestRankSensitivity:
    def make_lists(self):
        a = art("a", subcategory="x")
        b = art("b", subcategory="y")
        history = [art("h1", subcategory="x")]
        return history, [a, b], [b, a]

    def test_mrr_ordering_matters(self):
        history, forward, backward = self.make_lists()
        config = cfg()
        assert calibration_topic(history, forward, config) != calibration_topic(
            history, backward, config
        )

    def test_undiscounted_ordering_never_matters(self):
        history, forward, backward = self.make_lists()
        config = cfg(weighting=RankWeighting("none"))
        assert calibration_topic(history, forward, config) == calibration_topic(
            history, backward, config
        )

    def test_cutoff_stabilizes_by_ten(self):
        # 20-item list: one off-topic item at rank 1, on-topic from rank 2 on
        history = [art("h1", subcategory="x")]
        items = [art("r0", subcategory="y")] + [
            art(f"r{rank}", subcategory="x") for rank in range(1, 20)
        ]
        values = {
            cutoff: calibration_topic(
                history, items, cfg(weighting=RankWeighting("mrr", cutoff or None))
            )
            for cutoff in (1, 10, 0)
        }
        assert abs(values[10] - values[0]) < abs(values[1] - values[0])


class TestBoundsByKind:
    def test_js_samples_within_unit_interval(self):
        pool = [art("a", activation=0.1), art("b", activation=0.9)]
        value = activation_divergence(pool, [pool[0]], cfg(alpha=0.001))
        assert 0.0 <= value <= 1.0

    def test_kl_samples_non_negative(self):
        pool = [art("a", activation=0.1), art("b", activation=0.9)]
        value = activation_divergence(pool, [pool[0]], cfg(divergence="kl", alpha=0.001))
        assert value >= 0.0


class TestFragmentationSampling:
    def make_recs(self, count):
        return {
            f"I{i}": [art(f"a{i}", chain_id=f"e{i}"), art(f"b{i}", chain_id="shared")]
            for i in range(count)
        }

    def test_three_lists_one_pair_each(self):
        result = sample_fragmentation(self.make_recs(3), cfg(fragmentation_pairs=1, alpha=0.001))
        assert len(result.samples.pair_ids) == len(result.samples.values) == 3
        for pair_id in result.samples.pair_ids:
            left, right = pair_id.split("|")
            assert left != right

    def test_rows_in_pair_id_order(self):
        """Pair ids sort as strings, so "I10|..." comes before "I1|...",
        although the partner draw starts with I1, the first list id."""
        recs = {list_id: [art(list_id, chain_id="shared")] for list_id in ("I1", "I10", "I2")}
        result = sample_fragmentation(recs, cfg(fragmentation_pairs=2, alpha=0.001))
        assert result.samples.pair_ids == ["I10|I1", "I10|I2", "I1|I10", "I1|I2", "I2|I1", "I2|I10"]

    def test_same_seed_same_samples(self):
        recs = self.make_recs(5)
        config = cfg(fragmentation_pairs=2, alpha=0.001)
        first = sample_fragmentation(recs, config)
        second = sample_fragmentation(recs, config)
        assert first.samples == second.samples

    def test_oversampling_covers_all_partners(self):
        partners = fragmentation_partners(["I0", "I1", "I2", "I3"], pairs=9, seed=1)
        for current in ("I0", "I1", "I2", "I3"):
            drawn = {right for left, right in partners if left == current}
            assert drawn == {"I0", "I1", "I2", "I3"} - {current}

    def test_partner_draw_ignores_input_order(self):
        forward = fragmentation_partners(["I0", "I1", "I2"], pairs=1, seed=3)
        shuffled = fragmentation_partners(["I2", "I0", "I1"], pairs=1, seed=3)
        assert forward == shuffled

    @pytest.mark.parametrize(
        "ids, pairs, message", [(["I0", "I1"], 0, "pairs must be >= 1"), (["I0", "I1", "I0"], 1, "ids must be unique")]
    )
    def test_partner_draw_rejects(self, ids, pairs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fragmentation_partners(ids, pairs=pairs, seed=3)

    # True would draw one partner each, and 1.5 would fail inside random.sample.
    @pytest.mark.parametrize("pairs", [True, 1.5])
    def test_partner_draw_checks_its_count_as_the_config_does(self, pairs):
        with pytest.raises(TypeError, match=f"^pairs must be an int, got {pairs!r}$"):
            fragmentation_partners(["I0", "I1", "I2"], pairs=pairs, seed=3)

    @pytest.mark.parametrize("n, pairs", [(2, 5), (3, 1), (7, 5), (500, 600), (3600, 5), (6000, 2)])
    def test_partner_draw_matches_list_copy_reference(self, n, pairs):
        ids = [f"I{number}" for number in range(n)]
        ordered = sorted(ids)
        rng = derive_rng(11, "fragmentation")
        expected = []
        for current in ordered:
            others = [candidate for candidate in ordered if candidate != current]
            for partner in rng.sample(others, min(pairs, len(others))):
                expected.append((current, partner))
        assert fragmentation_partners(ids, pairs=pairs, seed=11) == expected

    def test_single_list_yields_skip(self):
        result = sample_fragmentation(self.make_recs(1), cfg())
        assert (result.samples.pair_ids, list(result.samples.values)) == ([], [])
        assert (result.skips.pair_ids, result.skips.values) == ([""], ["fewer than 2 recommendation lists"])


class TestAggregate:
    def test_three_samples(self):
        stats = aggregate([0.1, 0.2, 0.3])
        assert stats.mean == pytest.approx(0.2, abs=1e-12)
        assert stats.std == pytest.approx(0.1, abs=1e-12)
        assert stats.ci95 == pytest.approx(0.11316, abs=1e-5)

    def test_single_sample(self):
        stats = aggregate([0.5])
        assert stats.mean == 0.5
        assert stats.std == 0.0
        assert stats.ci95 == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestMetricConfig:
    def test_unknown_divergence_rejected(self):
        with pytest.raises(ValueError):
            MetricConfig(divergence="hellinger")

    def test_pairs_must_be_positive(self):
        with pytest.raises(ValueError):
            MetricConfig(fragmentation_pairs=0)
