import math
import re

import pytest
from hypothesis import given, strategies as st

from newsdiv.corpus import ACTIVATION_TOP, COMPLEXITY_TOP, Article
from newsdiv.distrib import (
    DiscreteDistribution,
    SCHEMES,
    RankWeighting,
    build_distribution,
    history_distribution,
    rank_weight,
    rank_weights,
)
from newsdiv.divergence import smooth_pair
from newsdiv.errors import EmptyDistributionError
from newsdiv.metrics import MetricConfig, binned_keys


def keys_of(label):
    # items are plain dicts {"keys": {...}} in these tests
    return label["keys"]


def item(*keys, mult=1.0):
    return {"keys": {key: mult for key in keys}}


class TestRankWeight:
    def test_mrr(self):
        assert rank_weight("mrr", 2) == 0.5

    def test_ndcg(self):
        assert rank_weight("ndcg", 3) == pytest.approx(0.5, abs=1e-12)

    def test_none(self):
        assert rank_weight("none", 17) == 1.0

    def test_rank_below_one_rejected(self):
        with pytest.raises(ValueError):
            rank_weight("mrr", 0)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            rank_weight("dcg", 1)

    @pytest.mark.parametrize("scheme", ["mrr", "ndcg"])
    def test_discount_strictly_decreasing(self, scheme):
        weights = [rank_weight(scheme, rank) for rank in range(1, 101)]
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_none_constant(self):
        assert {rank_weight("none", rank) for rank in range(1, 101)} == {1.0}

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("length", [0, 1, 7, 150])
    def test_cached_weights_are_rank_weight(self, scheme, length):
        assert list(rank_weights(scheme, length)) == [rank_weight(scheme, r) for r in range(1, length + 1)]


class TestBuildDistribution:
    def test_mrr_example(self):
        items = [item("X"), item("Y"), item("X")]
        dist = build_distribution(items, keys_of, RankWeighting("mrr"))
        assert dist.mass("X") == pytest.approx(8 / 11, abs=1e-12)
        assert dist.mass("Y") == pytest.approx(3 / 11, abs=1e-12)

    def test_ndcg_example(self):
        items = [item("X"), item("Y"), item("X")]
        dist = build_distribution(items, keys_of, RankWeighting("ndcg"))
        weights = [1.0, 1.0 / math.log2(3), 0.5]
        assert dist.mass("X") == pytest.approx((weights[0] + weights[2]) / sum(weights), abs=1e-12)
        assert dist.mass("Y") == pytest.approx(weights[1] / sum(weights), abs=1e-12)
        assert dist.mass("X") == pytest.approx(0.70392, abs=1e-5)

    def test_uniform_counting(self):
        items = [item("X"), item("Y"), item("X")]
        dist = build_distribution(items, keys_of, RankWeighting("none"))
        assert dist.mass("X") == pytest.approx(2 / 3, abs=1e-12)

    def test_keyless_items_leave_both_sides(self):
        items = [item("X"), item(), item("Y")]
        dist = build_distribution(items, keys_of, RankWeighting("mrr"))
        # weights 1 and 1/3; the keyless rank-2 item contributes nowhere
        assert dist.mass("X") == pytest.approx(0.75, abs=1e-12)
        assert dist.mass("Y") == pytest.approx(0.25, abs=1e-12)

    def test_multikey_full_item_weight(self):
        items = [item("A", "B"), item("A")]
        dist = build_distribution(items, keys_of, RankWeighting("mrr"))
        # key weights: A gets 1 + 1/2, B gets 1; normalizer 2.5
        assert dist.mass("A") == pytest.approx(1.5 / 2.5, abs=1e-12)
        assert dist.mass("B") == pytest.approx(1.0 / 2.5, abs=1e-12)

    def test_multiplier_scales_mass(self):
        items = [{"keys": {"minority": 1.0, "majority": 4.0}}]
        dist = build_distribution(items, keys_of, RankWeighting("none"))
        assert dist.mass("minority") == pytest.approx(0.2, abs=1e-12)
        assert dist.mass("majority") == pytest.approx(0.8, abs=1e-12)

    def test_cutoff_equals_truncation(self):
        items = [item(key) for key in "XYZXYXZZY"]
        with_cutoff = build_distribution(items, keys_of, RankWeighting("mrr", 4))
        truncated = build_distribution(items[:4], keys_of, RankWeighting("mrr"))
        assert with_cutoff.masses == truncated.masses

    @pytest.mark.parametrize("multiplier", [-1.0, math.nan])
    def test_negative_or_nan_multiplier_rejected(self, multiplier):
        items = [item("X"), {"keys": {"Y": multiplier}}]
        with pytest.raises(ValueError, match="key multiplier .* at key 'Y' is not >= 0"):
            build_distribution(items, keys_of, RankWeighting("none"))

    def test_zero_multiplier_drops_the_key(self):
        items = [item("X"), {"keys": {"Y": 0.0}}]
        assert build_distribution(items, keys_of, RankWeighting("none")).masses == {"X": 1.0}

    def test_items_beyond_the_cutoff_are_not_resolved(self):
        items = [item("X"), {"keys": {"Y": -1.0}}]
        assert build_distribution(items, keys_of, RankWeighting("none", 1)).masses == {"X": 1.0}

    def test_all_keyless_is_an_error(self):
        with pytest.raises(EmptyDistributionError, match="empty distribution"):
            build_distribution([item(), item()], keys_of, RankWeighting("none"))

    @given(
        st.lists(
            st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=5, unique=True),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from(["none", "mrr", "ndcg"]),
    )
    def test_multikey_masses_sum_to_one(self, key_sets, scheme):
        items = [item(*keys) for keys in key_sets]
        dist = build_distribution(items, keys_of, RankWeighting(scheme))
        assert math.fsum(dist.masses.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(mass >= 0 for mass in dist.masses.values())


class TestHistoryDistribution:
    def test_single_article_degenerate(self):
        dist = history_distribution([item("X")], keys_of, RankWeighting("mrr"))
        assert dist.masses == {"X": 1.0}

    def test_same_key_collapses(self):
        dist = history_distribution([item("X"), item("X")], keys_of, RankWeighting("mrr"))
        assert dist.mass("X") == pytest.approx(1.0, abs=1e-12)

    def test_recency_discount(self):
        dist = history_distribution([item("X"), item("Y")], keys_of, RankWeighting("mrr"))
        assert dist.mass("X") == pytest.approx(2 / 3, abs=1e-12)
        assert dist.mass("Y") == pytest.approx(1 / 3, abs=1e-12)

    def test_empty_history_is_no_context(self):
        with pytest.raises(EmptyDistributionError, match="no context"):
            history_distribution([], keys_of, RankWeighting("mrr"))


class TestBinning:
    """``metrics.binned_keys``' equal-width bins and ``MetricConfig``'s bin counts."""

    def test_floor_mapping(self):
        key_fn = binned_keys("activation", ACTIVATION_TOP, 10)
        assert key_fn(Article("A", activation=0.0)) == {"bin_0": 1.0}
        assert key_fn(Article("A", activation=0.35)) == {"bin_3": 1.0}
        assert key_fn(Article("A", activation=0.999)) == {"bin_9": 1.0}
        assert key_fn(Article("A")) == {}

    def test_top_edge_in_last_bin(self):
        key_fn = binned_keys("complexity", COMPLEXITY_TOP, 10)
        assert key_fn(Article("A", complexity=COMPLEXITY_TOP)) == {"bin_9": 1.0}

    def test_degenerate_bin_count_rejected(self):
        for counts in ({"activation_bins": 1}, {"complexity_bins": 1}):
            with pytest.raises(ValueError, match="degenerate binning: bin_count must be >= 2, got 1"):
                MetricConfig(**counts)

    # Accepted, 2.5 bins mapped a complexity of 100.0 to the key 'bin_1.5';
    # True read as one bin got the degenerate-binning message.
    @pytest.mark.parametrize("name", ["activation_bins", "complexity_bins"])
    @pytest.mark.parametrize("count", [2.5, 10.0, True])
    def test_bin_count_must_be_an_int(self, name, count):
        with pytest.raises(TypeError, match=f"^{name} must be an int, got {count!r}$"):
            MetricConfig(**{name: count})

    # A direct caller gets the config's checks: 2.5 bins would map 100.0 to
    # 'bin_1.5', and one bin would put every value into 'bin_0'.
    @pytest.mark.parametrize(
        "count,error,message",
        [
            (2.5, TypeError, "bin_count must be an int, got 2.5"),
            (True, TypeError, "bin_count must be an int, got True"),
            (1, ValueError, "degenerate binning: bin_count must be >= 2, got 1"),
            (0, ValueError, "degenerate binning: bin_count must be >= 2, got 0"),
        ],
    )
    def test_binned_keys_checks_its_count_as_the_config_does(self, count, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            binned_keys("complexity", COMPLEXITY_TOP, count)


class TestSmoothing:
    def test_mixing_example(self):
        p = DiscreteDistribution({"a": 1.0, "b": 0.0})
        q = DiscreteDistribution({"a": 0.5, "b": 0.5})
        p_bar, q_bar = smooth_pair(p, q, 0.01)
        assert p_bar.mass("a") == pytest.approx(0.995, abs=1e-12)
        assert p_bar.mass("b") == pytest.approx(0.005, abs=1e-12)
        assert q_bar.mass("a") == pytest.approx(0.505, abs=1e-12)
        assert q_bar.mass("b") == pytest.approx(0.495, abs=1e-12)

    def test_equal_pair_is_fixed_point(self):
        p = DiscreteDistribution({"a": 0.3, "b": 0.7})
        p_bar, q_bar = smooth_pair(p, p, 0.25)
        assert p_bar.mass("a") == pytest.approx(0.3, abs=1e-12)
        assert q_bar.mass("b") == pytest.approx(0.7, abs=1e-12)

    def test_alpha_zero_keeps_zeros_on_union(self):
        p = DiscreteDistribution({"a": 1.0})
        q = DiscreteDistribution({"b": 1.0})
        p_bar, q_bar = smooth_pair(p, q, 0.0)
        assert p_bar.masses == {"a": 1.0, "b": 0.0}
        assert q_bar.masses == {"a": 0.0, "b": 1.0}

    def test_positive_alpha_covers_counterpart_support(self):
        p = DiscreteDistribution({"a": 1.0})
        q = DiscreteDistribution({"b": 1.0})
        p_bar, q_bar = smooth_pair(p, q, 0.001)
        assert q_bar.mass("a") > 0
        assert p_bar.mass("b") > 0

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
        st.floats(0.0, 0.49),
    )
    def test_swap_symmetry(self, raw_p, raw_q, alpha):
        size = min(len(raw_p), len(raw_q))
        keys = [f"k{i}" for i in range(size)]
        p = DiscreteDistribution.from_weights(dict(zip(keys, raw_p)))
        q = DiscreteDistribution.from_weights(dict(zip(keys, raw_q)))
        p_bar, q_bar = smooth_pair(p, q, alpha)
        q_bar_swapped, p_bar_swapped = smooth_pair(q, p, alpha)
        assert p_bar.masses == p_bar_swapped.masses
        assert q_bar.masses == q_bar_swapped.masses

    def test_alpha_range_enforced(self):
        p = DiscreteDistribution({"a": 1.0})
        with pytest.raises(ValueError):
            smooth_pair(p, p, 0.5)
        with pytest.raises(ValueError):
            smooth_pair(p, p, -0.1)


class TestDiscreteDistribution:
    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            DiscreteDistribution({"a": 0.5, "b": 0.4})

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDistribution({"a": 1.5, "b": -0.5})

    def test_from_weights_normalizes(self):
        dist = DiscreteDistribution.from_weights({"a": 2.0, "b": 6.0})
        assert dist.mass("a") == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("masses", [{"a": math.nan}, {"a": 1.0, "b": math.nan}, {"a": math.inf}])
    def test_nan_or_infinite_mass_rejected(self, masses):
        with pytest.raises(ValueError, match="masses sum to"):
            DiscreteDistribution(masses)

    @pytest.mark.parametrize("weights", [{"a": 1.0, "b": math.inf}, {"a": 1.0, "b": math.nan}])
    def test_from_weights_rejects_nan_or_infinite_weights(self, weights):
        with pytest.raises(ValueError):
            DiscreteDistribution.from_weights(weights)

    def test_from_weights_rejects_zero_total(self):
        with pytest.raises(EmptyDistributionError):
            DiscreteDistribution.from_weights({"a": 0.0})

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            RankWeighting("mrr", 0)

    # Accepted, True read as cutoff 1 and 2.0 sliced nothing: items[:2.0] raised a bare TypeError.
    @pytest.mark.parametrize("cutoff", [True, False, 2.0, "3"])
    def test_cutoff_must_be_an_int(self, cutoff):
        with pytest.raises(TypeError, match=f"^cutoff must be an int or None, got {cutoff!r}$"):
            RankWeighting("mrr", cutoff)

    def test_equality_and_repr(self):
        dist = DiscreteDistribution({"b": 0.75, "a": 0.25})
        assert dist == DiscreteDistribution({"a": 0.25, "b": 0.75})
        assert dist != DiscreteDistribution({"a": 0.75, "b": 0.25})
        assert dist != {"a": 0.25, "b": 0.75}
        third = DiscreteDistribution({"b": 2 / 3, "a": 1 / 3})
        assert repr(third) == "DiscreteDistribution({a: 0.333333, b: 0.666667})"

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="^unknown weighting scheme 'bogus'$"):
            RankWeighting("bogus")
