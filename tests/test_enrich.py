import json
import math
import re
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from newsdiv.corpus import Article, load_behaviors, load_catalog
from newsdiv.enrich import (
    Gazetteer,
    GazetteerEntry,
    activation,
    chain_articles,
    complexity,
    count_syllables,
    dump_enriched,
    enrich_corpus,
    load_gazetteer,
    load_lexicon,
    load_sidecar,
    tag_entities,
    tokenize,
)
from newsdiv.errors import ParseError


class TestComplexity:
    def test_easy_sentence_clamps_to_100(self):
        # 6 words, 1 sentence, 6 syllables: raw 116.145
        assert complexity("The cat sat on the mat.") == 100.0

    def test_ten_word_sentence(self):
        text = "The quick brown foxes jump over the lazy big dog."
        assert sum(count_syllables(word) for word in text.split()) == 13
        assert complexity(text) == pytest.approx(86.705, abs=1e-9)

    def test_empty_text_is_absent(self):
        assert complexity("") is None
        assert complexity("   \n ") is None

    def test_result_always_in_range(self):
        hard = "Incomprehensibility characterization institutionalization. " * 5
        value = complexity(hard)
        assert 0.0 <= value <= 100.0

    def test_unpunctuated_text_counts_one_sentence(self):
        assert complexity("hello world") is not None

    @pytest.mark.parametrize(
        "word,expected",
        [("the", 1), ("mate", 1), ("foxes", 2), ("lazy", 2), ("brown", 1), ("over", 2)],
    )
    def test_syllable_heuristic(self, word, expected):
        assert count_syllables(word) == expected

    @given(st.text(max_size=200))
    def test_range_on_arbitrary_text(self, text):
        value = complexity(text)
        assert value is None or 0.0 <= value <= 100.0


class TestActivation:
    def test_symmetric_cancellation(self):
        lexicon = {"good": 0.7, "awful": -0.7}
        assert activation("a good thing and an awful thing", lexicon) == 0.0

    def test_single_match_absolute(self):
        assert activation("a terrible idea", {"terrible": -0.35}) == pytest.approx(0.35)

    def test_no_match_is_zero(self):
        assert activation("nothing to see", {"terrible": -0.35}) == 0.0

    def test_repeated_tokens_count_each_occurrence(self):
        lexicon = {"good": 0.6, "bad": -0.3}
        # mean of (0.6, 0.6, -0.3)
        assert activation("good good bad", lexicon) == pytest.approx(0.3)

    def test_lexicon_loading(self, fixture_paths):
        lexicon = load_lexicon(fixture_paths["lexicon"])
        assert lexicon["good"] == 0.7
        assert lexicon["awful"] == -0.7

    def test_lexicon_polarity_range_enforced(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        path.write_text("great\t1.5\n", encoding="utf-8")
        with pytest.raises(ParseError, match="outside"):
            load_lexicon(path)

    @given(st.text(max_size=200))
    def test_range_on_arbitrary_text(self, text):
        lexicon = {"good": 1.0, "bad": -1.0, "odd": 0.3}
        assert 0.0 <= activation(text, lexicon) <= 1.0


def article(article_id, text, when):
    return Article(id=article_id, title="", body=text, published_at=when)


HOUR = 3600.0
DAY = 86400.0
# Few words, so generated articles repeat texts and tie on cosine.
CHAIN_WORDS = ["mayor", "bridge", "vote", "storm", "river", "derby"]


def reference_chains(articles, tau, window_seconds):
    """Story chaining as a full scan of every open chain, normalising each
    centroid again for every comparison."""
    tokens = {item.id: tokenize(item.text()) for item in articles}
    frequency = {}
    for words in tokens.values():
        for token in set(words):
            frequency[token] = frequency.get(token, 0) + 1
    idf = {token: math.log((1 + len(articles)) / (1 + df)) + 1.0 for token, df in frequency.items()}

    def normalised(vector):
        norm = math.sqrt(math.fsum(value * value for value in vector.values()))
        return {} if norm == 0.0 else {token: value / norm for token, value in vector.items()}

    def cosine(a, b):
        if len(b) < len(a):
            a, b = b, a
        return math.fsum(value * b[token] for token, value in a.items() if token in b)

    chains = []  # [chain id, vector sum, last seen]
    assignment = {}
    for item in articles:
        counts = {}
        for token in tokens[item.id]:
            counts[token] = counts.get(token, 0) + 1
        vector = normalised({token: count * idf[token] for token, count in counts.items()})
        when = item.published_at
        best, best_score = None, 0.0
        for chain in chains:
            if when - chain[2] > window_seconds:
                continue
            score = cosine(vector, normalised(chain[1]))
            if score > best_score:
                best, best_score = chain, score
        if best is not None and best_score >= tau:
            for token, value in vector.items():
                best[1][token] = best[1].get(token, 0.0) + value
            best[2] = max(best[2], when)
            assignment[item.id] = best[0]
        else:
            chains.append([f"chain_{len(chains) + 1:06d}", dict(vector), when])
            assignment[item.id] = chains[-1][0]
    return assignment


class TestChaining:
    def test_identical_texts_one_hour_apart_share_a_chain(self):
        articles = [
            article("a", "mayor opens the new bridge", 0.0),
            article("b", "mayor opens the new bridge", HOUR),
        ]
        chains = chain_articles(articles, tau=0.5)
        assert chains["a"] == chains["b"]

    def test_disjoint_vocabulary_splits(self):
        articles = [
            article("a", "mayor opens bridge", 0.0),
            article("b", "striker scores twice", HOUR),
        ]
        chains = chain_articles(articles, tau=0.5)
        assert chains["a"] != chains["b"]

    def test_window_excludes_stale_chains(self):
        articles = [
            article("a", "mayor opens the new bridge", 0.0),
            article("b", "mayor opens the new bridge", 4 * DAY),
        ]
        chains = chain_articles(articles, tau=0.5, window_seconds=3 * DAY)
        assert chains["a"] != chains["b"]

    def test_within_window_boundary_joins(self):
        articles = [
            article("a", "mayor opens the new bridge", 0.0),
            article("b", "mayor opens the new bridge", 3 * DAY),
        ]
        chains = chain_articles(articles, tau=0.5, window_seconds=3 * DAY)
        assert chains["a"] == chains["b"]

    def test_tie_permutation_keeps_partition(self):
        texts = {
            "a": "mayor opens the new bridge today",
            "b": "mayor opens the new bridge today",
            "c": "striker scores twice in the derby",
        }

        def partition(order):
            articles = [article(name, texts[name], 0.0) for name in order]
            chains = chain_articles(articles, tau=0.5)
            groups = {}
            for name, chain in chains.items():
                groups.setdefault(chain, set()).add(name)
            return {frozenset(group) for group in groups.values()}

        expected = {frozenset({"a", "b"}), frozenset({"c"})}
        for order in (["a", "b", "c"], ["c", "b", "a"], ["b", "c", "a"]):
            assert partition(order) == expected

    def test_determinism(self):
        articles = [
            article("a", "mayor opens the new bridge", 0.0),
            article("b", "council votes on the bridge plan", HOUR),
            article("c", "striker scores twice", 2 * HOUR),
        ]
        assert chain_articles(articles) == chain_articles(articles)

    def test_tau_range_enforced(self):
        with pytest.raises(ValueError):
            chain_articles([], tau=0.0)

    @pytest.mark.parametrize("window", [-1.0, math.nan])
    def test_negative_or_nan_window_rejected(self, window):
        with pytest.raises(ValueError, match="chaining window"):
            chain_articles([], window_seconds=window)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(CHAIN_WORDS), max_size=6).map(" ".join),
                st.sampled_from([0.0, HOUR, DAY - 1.0, DAY, DAY + 1.0, 2 * DAY, 3 * DAY]),
            ),
            max_size=25,
        ),
        st.sampled_from([0.1, 0.5, 0.8, 1.0]),
    )
    def test_matches_full_scan_reference(self, drafts, tau):
        articles = [
            article(f"a{number}", text, when)
            for number, (text, when) in enumerate(sorted(drafts, key=lambda draft: draft[1]))
        ]
        assert chain_articles(articles, tau=tau, window_seconds=DAY) == reference_chains(
            articles, tau, DAY
        )


# Overlapping aliases, aliases opening or closing with punctuation, and
# underscores, digits and non-ASCII word characters.
ALIASES = st.one_of(
    st.sampled_from(
        ["new york", "york", "new", ".net", "o'neil", "u.s.", "josé", "jo", "a_b", "b2", "x-ray", "é"]
    ),
    st.text("abyé_1.' ", min_size=1, max_size=4),
)
SEPARATORS = [" ", "  ", ".", ",", "-", "'", "_", "\n", "s", "1"]
TEXT_CHARS = "aboyNé_É1.' İ"


def reference_mention_counts(gazetteer, text):
    """Every alias pattern run over the lowered text, entry by entry."""
    lowered = text.lower()
    counts = {}
    for entry in gazetteer.entries:
        mentions = sum(
            len(re.findall(r"\b" + re.escape(alias) + r"\b", lowered)) for alias in entry.aliases
        )
        if mentions:
            counts[entry.canonical_id] = mentions
    return counts


def reference_tags(gazetteer, counts):
    actors, minority, majority = set(), 0, 0
    for entry in gazetteer.entries:
        mentions = counts.get(entry.canonical_id, 0)
        if not mentions:
            continue
        if entry.is_political:
            actors.add(entry.canonical_id)
        if entry.kind == "person":
            if entry.in_knowledge_base:
                majority += mentions
            else:
                minority += mentions
    return frozenset(actors), minority, majority


class TestEntities:
    def test_party_mentioned_twice_counts_once_in_set(self, fixture_paths):
        gazetteer = load_gazetteer(fixture_paths["gazetteer"])
        actors, minority, majority = tag_entities(
            "The Unity Party met. The unity party voted.", gazetteer
        )
        assert actors == frozenset({"Q-UNITY"})
        assert (minority, majority) == (0, 0)  # party mentions do not touch voice counts

    def test_unlinked_person_counts_toward_minority(self, fixture_paths):
        gazetteer = load_gazetteer(fixture_paths["gazetteer"])
        actors, minority, majority = tag_entities(
            "Bob Novak wrote. Bob Novak spoke. Bob Novak left.", gazetteer
        )
        assert minority == 3
        assert majority == 0
        assert actors == frozenset()  # not flagged political

    def test_no_matches(self, fixture_paths):
        gazetteer = load_gazetteer(fixture_paths["gazetteer"])
        assert tag_entities("nothing relevant here", gazetteer) == (frozenset(), 0, 0)

    def test_text_local_additivity(self, fixture_paths):
        gazetteer = load_gazetteer(fixture_paths["gazetteer"])
        left = "Jane Miller praised the vote."
        right = "Bob Novak disagreed with Jane Miller."
        _, minority_l, majority_l = tag_entities(left, gazetteer)
        _, minority_r, majority_r = tag_entities(right, gazetteer)
        _, minority_all, majority_all = tag_entities(left + " " + right, gazetteer)
        assert minority_all == minority_l + minority_r
        assert majority_all == majority_l + majority_r

    def test_word_boundaries_respected(self, fixture_paths):
        gazetteer = load_gazetteer(fixture_paths["gazetteer"])
        actors, _, _ = tag_entities("The disunity party failed.", gazetteer)
        assert "Q-UNITY" not in actors

    def test_duplicate_gazetteer_id_rejected(self, tmp_path):
        path = tmp_path / "gaz.jsonl"
        record = {"canonical_id": "X", "kind": "person", "aliases": ["x y"],
                  "is_political": False, "in_knowledge_base": True}
        path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="duplicate"):
            load_gazetteer(path)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(ALIASES, min_size=1, max_size=3),
                st.sampled_from(["person", "party"]),
                st.booleans(),
                st.booleans(),
            ),
            min_size=1,
            max_size=6,
        ),
        st.lists(st.one_of(ALIASES, st.sampled_from(SEPARATORS), st.text(TEXT_CHARS, max_size=4))),
    )
    def test_indexed_lookup_matches_every_alias_scan(self, drafts, pieces):
        gazetteer = Gazetteer(
            [
                GazetteerEntry(f"E{number}", kind, tuple(aliases), political, linked)
                for number, (aliases, kind, political, linked) in enumerate(drafts)
            ]
        )
        text = "".join(pieces)
        expected = reference_mention_counts(gazetteer, text)
        assert list(gazetteer.mention_counts(text).items()) == list(expected.items())
        assert tag_entities(text, gazetteer) == reference_tags(gazetteer, expected)


@pytest.fixture
def enriched(fixture_paths):
    corpus = load_catalog(fixture_paths["news"], fixture_paths["bodies"])
    lexicon = load_lexicon(fixture_paths["lexicon"])
    gazetteer = load_gazetteer(fixture_paths["gazetteer"])
    return enrich_corpus(corpus, lexicon=lexicon, gazetteer=gazetteer)


class TestEnrichCorpus:
    def test_ranges(self, enriched):
        for article in enriched:
            assert 0.0 <= article.complexity <= 100.0
            assert 0.0 <= article.activation <= 1.0
            assert article.chain_id

    def test_near_identical_articles_chain_together(self, enriched):
        assert enriched["N3"].chain_id == enriched["N4"].chain_id
        assert enriched["N1"].chain_id != enriched["N3"].chain_id

    def test_entity_fields(self, enriched):
        n1 = enriched["N1"]
        assert n1.political_actors == frozenset({"P-MILLER", "Q-UNITY"})
        assert n1.majority_mentions == 2  # two "jane miller" mentions
        n2 = enriched["N2"]
        assert n2.minority_mentions == 1
        assert n2.political_actors == frozenset()

    def test_without_gazetteer_entity_fields_stay_empty(self, fixture_paths):
        corpus = load_catalog(fixture_paths["news"], fixture_paths["bodies"])
        enrich_corpus(corpus, lexicon=load_lexicon(fixture_paths["lexicon"]))
        assert all(article.political_actors == frozenset() for article in corpus)
        assert all(article.minority_mentions == 0 for article in corpus)

    def test_missing_timestamps_taken_from_first_appearance(self, fixture_paths):
        corpus = load_catalog(fixture_paths["news"])  # no bodies, no published_at
        impressions = load_behaviors(fixture_paths["behaviors"])
        enrich_corpus(corpus, impressions=impressions)
        # N1 first appears in I1 (11/12/2019 9:25:58 AM)
        assert corpus["N1"].published_at == impressions[0].time
        assert all(article.chain_id for article in corpus)

    def test_unchained_articles_warned(self, fixture_paths):
        corpus = load_catalog(fixture_paths["news"])  # nothing carries a timestamp
        enrich_corpus(corpus)
        assert any("not chained" in warning for warning in corpus.warnings)
        assert all(article.chain_id is None for article in corpus)


class TestSidecar:
    def test_overrides_and_rejections(self, enriched, fixture_paths):
        computed_complexity = enriched["N7"].complexity
        load_sidecar(fixture_paths["sidecar"], enriched)
        # first record applies, out-of-range second record is rejected
        assert enriched["N7"].activation == 0.65
        assert enriched["N7"].complexity == computed_complexity  # untouched
        assert any("N99" in warning for warning in enriched.warnings)
        assert any("rejected" in warning for warning in enriched.warnings)

    def test_empty_sidecar_is_a_no_op(self, enriched, tmp_path):
        before = {article.id: article for article in enriched}
        path = tmp_path / "sidecar.jsonl"
        path.write_text("", encoding="utf-8")
        load_sidecar(path, enriched)
        assert {article.id: article for article in enriched} == before

    def test_file_is_closed(self, enriched, fixture_paths):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            load_sidecar(fixture_paths["sidecar"], enriched)
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []

    def test_enrich_output_feeds_back_as_sidecar(self, enriched, tmp_path, fixture_paths):
        path = tmp_path / "enriched.jsonl"
        dump_enriched(enriched, path)
        fresh = load_catalog(fixture_paths["news"], fixture_paths["bodies"])
        load_sidecar(path, fresh)
        for article in enriched:
            assert fresh[article.id].complexity == article.complexity
            assert fresh[article.id].activation == article.activation
            assert fresh[article.id].chain_id == article.chain_id
            assert fresh[article.id].political_actors == article.political_actors


class TestDumpEnriched:
    def test_byte_stable(self, enriched, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        dump_enriched(enriched, first)
        dump_enriched(enriched, second)
        assert first.read_bytes() == second.read_bytes()
