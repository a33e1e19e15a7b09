import json
import math
import re
import tracemalloc
import warnings
from collections import Counter

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from newsdiv.corpus import Article, Corpus, load_behaviors, load_catalog
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
        [("the", 1), ("mate", 1), ("foxes", 2), ("lazy", 2), ("brown", 1), ("over", 2), ("", 0)],
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

    @pytest.mark.parametrize("repeat", ["great", "Great"])
    def test_lexicon_token_listed_twice_names_both_lines(self, tmp_path, repeat):
        path = tmp_path / "lexicon.tsv"
        path.write_text(f"great\t0.8\n# same token again\n{repeat}\t-0.8\n", encoding="utf-8")
        message = f"{path}:3: duplicate token 'great' (first on line 1)"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_lexicon(path)

    @pytest.mark.parametrize("token", ["don't", "multi word", "café", "x-ray", "a_b"])
    def test_lexicon_token_that_can_never_match_is_rejected(self, tmp_path, token):
        """tokenize yields only runs of [a-z0-9], so any other token would
        load and never score."""
        path = tmp_path / "lexicon.tsv"
        path.write_text(f"great\t0.8\n{token}\t-0.5\n", encoding="utf-8")
        message = f"{path}:2: token {token!r} is not one run of [a-z0-9] and can never match"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_lexicon(path)

    def test_lexicon_token_matches_in_any_case(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        path.write_text("COVID19\t-0.5\n", encoding="utf-8")
        assert load_lexicon(path) == {"covid19": -0.5}

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
# Drawn as often as all of CHAIN_WORDS, so chains also differ in vocabulary;
# "!" holds no token, so a text of it alone has an empty vector.
OTHER_WORDS = ["council", "budget", "flood", "school", "strike", "court", "fire", "market", "train",
               "harbour", "tunnel", "!"]


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

    def test_equal_scores_go_to_the_first_created_chain(self):
        # "c" scores exactly the same against both chains, by symmetry of
        # the token frequencies: 0.428..., above tau.
        articles = [
            article("a", "mayor bridge", 0.0),
            article("b", "storm river", HOUR),
            article("c", "mayor storm", 2 * HOUR),
        ]
        chains = chain_articles(articles, tau=0.4)
        assert chains["a"] != chains["b"]
        assert chains["c"] == chains["a"]

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

    # Compared as given: "x" raised a bare TypeError and True read as 1.0.
    @pytest.mark.parametrize("tau", ["x", True])
    def test_tau_must_be_a_number(self, tau):
        with pytest.raises(ValueError, match=re.escape(f"tau must be in (0, 1], got {tau!r}")):
            chain_articles([], tau=tau)

    def test_tau_may_be_a_float_subclass(self):
        assert chain_articles([], tau=numpy.float64(0.5)) == {}

    @pytest.mark.parametrize("window", [-1.0, math.nan])
    def test_negative_or_nan_window_rejected(self, window):
        with pytest.raises(ValueError, match="chaining window"):
            chain_articles([], window_seconds=window)

    def test_memory_grows_with_the_vocabulary_not_the_occurrences(self):
        """Repeating every word of every body eleven times adds 80,000 token
        occurrences; the heap peak may grow by at most 16 bytes for each,
        about one list slot, because every occurrence of a token shares
        one string."""

        def peak(repeats):
            articles = [
                article(f"a{number}", " ".join([f"w{(number + word) % 300}" for word in range(40)] * repeats),
                        number * HOUR)
                for number in range(200)
            ]
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                chain_articles(articles)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert (peak(11) - peak(1)) / (200 * 40 * 10) <= 16

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(
                    st.one_of(st.sampled_from(CHAIN_WORDS), st.sampled_from(OTHER_WORDS)), max_size=8
                ).map(" ".join),
                st.one_of(
                    st.sampled_from([0.0, HOUR, DAY - 1.0, DAY, DAY + 1.0, 2 * DAY, 3 * DAY]),
                    st.integers(0, 8 * 24).map(lambda hours: hours * HOUR),
                ),
            ),
            max_size=40,
        ),
        st.sampled_from([0.1, 0.5, 0.8, 1.0]),
        st.booleans(),
    )
    def test_matches_full_scan_reference(self, drafts, tau, in_time_order):
        """Times span eight one-day windows, so most chains holding a token
        have left the window, and come in drawn order unless sorted."""
        if in_time_order:
            drafts = sorted(drafts, key=lambda draft: draft[1])
        articles = [article(f"a{number}", text, when) for number, (text, when) in enumerate(drafts)]
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
    """Every alias tried at each position of the lowered text in turn: the
    longest match there counts, and the scan goes on from its end."""
    lowered = text.lower()
    patterns = [
        (entry.canonical_id, re.compile(r"(?<!\w)" + re.escape(alias.lower()) + r"(?!\w)"))
        for entry in gazetteer.entries
        for alias in entry.aliases
    ]
    mentions = Counter()
    position = 0
    while position < len(lowered):
        ends = [(match.end(), canonical_id) for canonical_id, pattern in patterns
                if (match := pattern.match(lowered, position))]
        if ends:
            position, canonical_id = max(ends)
            mentions[canonical_id] += 1
        else:
            position += 1
    return {entry.canonical_id: mentions[entry.canonical_id] for entry in gazetteer.entries
            if mentions[entry.canonical_id]}


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

    def test_aliases_bounded_by_punctuation_match_ordinary_mentions(self):
        gazetteer = Gazetteer(
            [
                GazetteerEntry("US", "party", ("u.s.",), True, True),
                GazetteerEntry("NET", "party", (".net",), True, True),
                GazetteerEntry("CPP", "party", ("c++",), True, True),
            ]
        )
        assert gazetteer.mention_counts("The U.S. said") == {"US": 1}
        assert gazetteer.mention_counts("use .net daily") == {"NET": 1}
        assert gazetteer.mention_counts("c++ rocks") == {"CPP": 1}
        # A word character next to the alias still rules the mention out.
        assert gazetteer.mention_counts("the U.S.A, x.net and c++x") == {}

    def test_alias_case_is_folded_in_a_directly_built_gazetteer(self):
        gazetteer = Gazetteer([GazetteerEntry("E1", "person", ("Barack Obama",), True, True)])
        assert gazetteer.mention_counts("Barack Obama spoke.") == {"E1": 1}
        assert gazetteer.mention_counts("BARACK OBAMA spoke.") == {"E1": 1}

    @pytest.mark.parametrize(
        "aliases,text,expected",
        [
            ([("Barack Obama", "Obama")], "Barack Obama spoke. Obama left.", {"E1": 2}),
            ([("Barack Obama",), ("Obama",)], "Barack Obama spoke.", {"E1": 1}),
            ([("Obama",), ("Barack Obama",)], "Barack Obama spoke.", {"E2": 1}),
            ([("new",), ("new york",)], "new york, new", {"E1": 1, "E2": 1}),
            ([("new york",), ("york times",)], "the new york times", {"E1": 1}),
            ([("york times",), ("new york",)], "new york times in york times", {"E1": 1, "E2": 1}),
            # An alias's own occurrences can overlap too.
            ([("a a",)], "a a a", {"E1": 1}),
            ([("..",)], "....", {"E1": 2}),
            ([("a.a",)], "xa.a.a", {"E1": 1}),
        ],
        ids=["one-entry", "nested", "nested-listed-first", "same-start", "partial", "partial-then-apart",
             "self-overlap-words", "self-overlap-punctuation", "self-overlap-after-a-word-character"],
    )
    def test_overlapping_matches_count_only_the_leftmost_longest(self, aliases, text, expected):
        gazetteer = Gazetteer(
            [GazetteerEntry(f"E{number}", "person", names, False, False) for number, names in enumerate(aliases, 1)]
        )
        assert gazetteer.mention_counts(text) == expected
        assert reference_mention_counts(gazetteer, text) == expected

    def test_a_name_inside_another_entrys_name_is_no_second_actor(self):
        gazetteer = Gazetteer(
            [GazetteerEntry("E1", "person", ("Barack Obama",), True, True),
             GazetteerEntry("E2", "person", ("Obama",), True, False)]
        )
        assert tag_entities("Barack Obama spoke.", gazetteer) == (frozenset({"E1"}), 0, 1)

    @pytest.mark.parametrize(
        "entries,flags,message,line",
        [
            # Rules the loader shares: a file of the same entries is rejected
            # on ``line`` with the same message, a repeat naming line 1 too.
            ([("E1", "person", ("Obama", "obama"))], (False, False), "duplicate alias 'obama'", 1),
            ([("E1", "person", ("Obama",)), ("E2", "party", ("OBAMA",))], (False, False),
             "duplicate alias 'obama'", 2),
            ([("", "person", ("ann kovac",))], (False, False), "empty 'canonical_id'", 1),
            ([("E1", "person", ("ann",)), ("E1", "party", ("bob",))], (False, False),
             "duplicate gazetteer id 'E1'", 2),
            ([("E1", "person", ("Obama", ""))], (False, False), "aliases must be non-empty", 1),
            # Tagged, 'Person' would count no voice: 'Ann Kovac spoke.' gave (E1, 0, 0).
            ([("E1", "Person", ("ann kovac",))], (False, False), "kind must be 'person' or 'party', got 'Person'", 1),
            # Accepted, the entry could never match.
            ([("E1", "person", ())], (False, False), "aliases must be non-empty", 1),
            # Rules only code can break: the loader's field types rule them out.
            # One string would become one alias per letter: 'a ban on b and n' gave {'E1': 3}.
            ([("E1", "person", "ban")], (False, False), "aliases must be a sequence of strings, got 'ban'", None),
            # str.lower raised a bare TypeError.
            ([("E1", "person", ("ann", 5))], (False, False),
             "aliases must be a sequence of strings, got ('ann', 5)", None),
            # Iterating it raised a bare TypeError.
            ([("E1", "person", 5)], (False, False), "aliases must be a sequence of strings, got 5", None),
            # Read by its truth value, 'no' made E1 a political actor in tag_entities('ann', ...).
            ([("E1", "person", ("ann",))], ("no", False), "is_political and in_knowledge_base must be bools", None),
            ([("E1", "person", ("ann",))], (False, 1), "is_political and in_knowledge_base must be bools", None),
            ([(5, "person", ("ann",))], (False, False), "canonical_id must be a string, got 5", None),
            # Unhashable, the id raised a bare TypeError.
            ([(["E1"], "person", ("ann",))], (False, False), "canonical_id must be a string, got ['E1']", None),
        ],
        ids=["alias-in-one-entry", "alias-in-two-entries", "empty-id", "repeated-id", "empty-alias", "unknown-kind",
             "no-aliases", "aliases-as-one-string", "non-string-alias", "non-iterable-aliases", "non-bool-political",
             "non-bool-knowledge-base", "non-string-id", "unhashable-id"],
    )
    def test_directly_built_gazetteer_rejects(self, tmp_path, entries, flags, message, line):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            Gazetteer([GazetteerEntry(canonical_id, kind, aliases, *flags)
                       for canonical_id, kind, aliases in entries])
        if line is not None:
            path = tmp_path / "gazetteer.jsonl"
            path.write_text("".join(json.dumps({"canonical_id": canonical_id, "kind": kind, "aliases": list(aliases)})
                                    + "\n" for canonical_id, kind, aliases in entries), encoding="utf-8")
            repeat = " (first on line 1)" if message.startswith("duplicate") else ""
            with pytest.raises(ParseError, match=f"^{re.escape(f'{path}:{line}: {message}{repeat}')}$"):
                load_gazetteer(path)

    def test_tagging_compiles_no_pattern(self, fixture_paths, monkeypatch):
        compiled = []
        compile_pattern = re.compile

        def counting(pattern, *args, **kwargs):
            compiled.append(pattern)
            return compile_pattern(pattern, *args, **kwargs)

        monkeypatch.setattr(re, "compile", counting)
        gazetteer = load_gazetteer(fixture_paths["gazetteer"])
        text = "Jane Miller met the Unity Party's leader, not Bob."
        counts = gazetteer.mention_counts(text)
        assert counts  # the text mentions some entries
        assert gazetteer.mention_counts(text) == counts
        assert compiled == []

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
        # An alias listed twice is an error, so each keeps its first listing,
        # and so is an entry without aliases, so one left with none is dropped.
        seen = set()
        entries = []
        for number, (aliases, kind, political, linked) in enumerate(drafts):
            kept = []
            for alias in aliases:
                if alias.lower() not in seen:
                    seen.add(alias.lower())
                    kept.append(alias)
            if kept:
                entries.append(GazetteerEntry(f"E{number}", kind, tuple(kept), political, linked))
        gazetteer = Gazetteer(entries)
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

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from(["the", "The", "THE", "cake", "Cake,", "cake.", "rhythm", "e", "née",
                                 "x-ray", "Mayor's", "bridge!", "...", "Beautiful", "beautiful?",
                                 "elephants", "Situation.", "reading-ease"]),
                max_size=12,
            ).map(" ".join),
            min_size=1,
            max_size=6,
        )
    )
    def test_complexity_counts_as_the_text_alone(self, texts):
        """The run's syllable memo gives each text the score it has alone."""
        corpus = Corpus()
        for number, text in enumerate(texts):
            corpus.add(article(f"a{number}", text, 0.0))
        enrich_corpus(corpus)
        assert [item.complexity for item in corpus] == [complexity(text) for text in texts]

    def test_activation_counts_as_the_text_alone(self):
        """Dated articles reuse chaining's token lists; undated ones are
        tokenized on their own."""
        lexicon = {"good": 0.7, "awful": -0.4, "fine": 0.2}
        texts = ["good good awful", "Awful, fine.", "nothing here", "GOOD fine fine", "awful"]
        corpus = Corpus()
        for number, text in enumerate(texts):
            corpus.add(article(f"a{number}", text, None if number % 2 else number * HOUR))
        enrich_corpus(corpus, lexicon=lexicon)
        assert [item.activation for item in corpus] == [activation(text, lexicon) for text in texts]

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

    def test_later_record_overrides_only_its_fields(self, enriched, tmp_path):
        computed_complexity = enriched["N1"].complexity
        path = tmp_path / "sidecar.jsonl"
        path.write_text(
            '{"id": "N1", "activation": 0.25, "chain_id": "first"}\n'
            '{"id": "N1", "activation": 0.75, "chain_id": null}\n',
            encoding="utf-8",
        )
        load_sidecar(path, enriched)
        assert enriched["N1"].activation == 0.75
        assert enriched["N1"].chain_id == "first"
        assert enriched["N1"].complexity == computed_complexity

    @pytest.mark.parametrize(
        "field", [{"chain_id": ""}, {"political_actors": ["", "P1"]}], ids=["chain_id", "political_actors"]
    )
    def test_empty_chain_or_actor_id_rejected_with_a_warning(self, enriched, tmp_path, field):
        before = enriched["N1"]
        path = tmp_path / "sidecar.jsonl"
        path.write_text(json.dumps({"id": "N1", **field}) + "\n", encoding="utf-8")
        load_sidecar(path, enriched)
        assert enriched["N1"] == before
        assert f"{path}:1: record for 'N1' rejected (chain and actor ids must be non-empty)" in enriched.warnings

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
