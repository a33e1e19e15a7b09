from collections import Counter

from newsdiv.corpus import ImpressionLog, load_behaviors
from newsdiv.recommenders import click_counts, recommend_popular, recommend_random


def impression(impression_id, candidate_ids, clicked=()):
    return ImpressionLog(
        impression_id=impression_id,
        user_id=f"user-{impression_id}",
        time=0.0,
        candidates=tuple((cid, cid in clicked) for cid in candidate_ids),
        history=(),
    )


class TestRandom:
    def test_single_candidate(self):
        rec = recommend_random(impression("I1", ["N1"]), seed=0)
        assert rec.ranked_items == ("N1",)

    def test_same_seed_same_permutation(self):
        imp = impression("I1", ["N1", "N2", "N3", "N4"])
        assert recommend_random(imp, seed=42).ranked_items == recommend_random(imp, 42).ranked_items

    def test_different_seeds_differ_somewhere(self):
        imp = impression("I1", [f"N{i}" for i in range(8)])
        rankings = {recommend_random(imp, seed).ranked_items for seed in range(6)}
        assert len(rankings) > 1

    def test_permutation_of_candidates(self):
        imp = impression("I1", ["N1", "N2", "N3"])
        rec = recommend_random(imp, seed=7)
        assert sorted(rec.ranked_items) == ["N1", "N2", "N3"]

    def test_rank_one_roughly_uniform(self):
        # each of 4 candidates should open the ranking ~25% of the time
        hits = Counter()
        total = 10_000
        for index in range(total):
            rec = recommend_random(impression(f"I{index}", ["N1", "N2", "N3", "N4"]), seed=1)
            hits[rec.ranked_items[0]] += 1
        for candidate in ("N1", "N2", "N3", "N4"):
            assert abs(hits[candidate] / total - 0.25) < 0.02


class TestPopular:
    def test_sort_with_id_tie_break(self):
        counts = Counter({"a": 5, "b": 3, "c": 3, "d": 0})
        rec = recommend_popular(impression("I1", ["d", "c", "b", "a"]), counts)
        assert rec.ranked_items == ("a", "b", "c", "d")

    def test_all_zero_counts_degenerate_to_id_order(self):
        rec = recommend_popular(impression("I1", ["n3", "n1", "n2"]), Counter())
        assert rec.ranked_items == ("n1", "n2", "n3")

    def test_unseen_candidate_counts_as_zero(self):
        counts = Counter({"a": 2})
        rec = recommend_popular(impression("I1", ["z", "a"]), counts)
        assert rec.ranked_items == ("a", "z")


class TestClickCounts:
    def test_from_fixture(self, fixture_paths):
        impressions = load_behaviors(fixture_paths["behaviors"])
        counts = click_counts(impressions)
        assert counts == Counter({"N1": 1, "N6": 1, "N3": 1})
