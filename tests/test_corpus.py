import json
import re
import sys
from datetime import datetime, timezone

import pytest

from newsdiv.corpus import (
    Article,
    Corpus,
    ImpressionLog,
    RecommendationList,
    dump_recommendations,
    load_behaviors,
    load_catalog,
    load_recommendations,
    missing_article_ids,
    parse_time,
    read_records,
    write_records,
)
from newsdiv.errors import ParseError, ValidationError
from writers import dump_behaviors, dump_catalog, format_time


class TestLoadCatalog:
    def test_field_mapping(self, tmp_path):
        news = tmp_path / "news.tsv"
        news.write_text('N1\tsports\tsoccer\t"Title"\t"Abs"\turl\n', encoding="utf-8")
        corpus = load_catalog(news)
        article = corpus["N1"]
        assert article.category == "sports"
        assert article.subcategory == "soccer"
        assert article.body == '"Abs"'  # abstract fallback

    def test_fixture_order_stable(self, fixture_paths):
        corpus = load_catalog(fixture_paths["news"])
        assert len(corpus) == 8
        assert [article.id for article in corpus][:3] == ["N1", "N2", "N3"]

    def test_duplicate_id_names_the_id(self, tmp_path):
        news = tmp_path / "news.tsv"
        news.write_text("N1\ta\tb\tT\tA\nN1\ta\tb\tT\tA\n", encoding="utf-8")
        with pytest.raises(ParseError, match="N1"):
            load_catalog(news)

    def test_malformed_line_reports_line_number(self, tmp_path):
        news = tmp_path / "news.tsv"
        news.write_text("N1\ta\tb\tT\tA\nN2\tonly-two\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":2"):
            load_catalog(news)

    def test_orphan_body_record_warns_and_skips(self, fixture_paths):
        corpus = load_catalog(fixture_paths["news"], fixture_paths["bodies"])
        assert len([w for w in corpus.warnings if "N9" in w]) == 1
        assert len(corpus.warnings) == 1
        assert "N9" not in corpus

    def test_bodies_override_abstract(self, fixture_paths):
        bare = load_catalog(fixture_paths["news"])
        full = load_catalog(fixture_paths["news"], fixture_paths["bodies"])
        assert full["N1"].body != bare["N1"].body
        assert full["N1"].published_at == 1573372800.0


class TestLoadBehaviors:
    def test_fixture_counts(self, fixture_paths):
        logs = load_behaviors(fixture_paths["behaviors"])
        assert len(logs) == 3
        assert [len(log.candidates) for log in logs] == [4, 2, 7]

    def test_click_flag_parsing(self, fixture_paths):
        logs = load_behaviors(fixture_paths["behaviors"])
        assert logs[1].candidates == (("N5", False), ("N6", True))

    def test_history_reversed_to_recent_first(self, fixture_paths):
        logs = load_behaviors(fixture_paths["behaviors"])
        # logged oldest first as "N1 N3"
        assert logs[0].history == ("N3", "N1")

    def test_empty_history_accepted(self, fixture_paths):
        logs = load_behaviors(fixture_paths["behaviors"])
        assert logs[2].history == ()

    def test_candidate_token_without_suffix_is_an_error(self, tmp_path):
        path = tmp_path / "behaviors.tsv"
        path.write_text("I1\tU1\t2019-11-12T10:00:00Z\t\tN5\n", encoding="utf-8")
        with pytest.raises(ParseError, match="I1"):
            load_behaviors(path)

    def test_empty_candidates_rejected(self, tmp_path):
        path = tmp_path / "behaviors.tsv"
        path.write_text("I1\tU1\t2019-11-12T10:00:00Z\tN1\t\n", encoding="utf-8")
        with pytest.raises(ParseError, match="no candidates"):
            load_behaviors(path)

    def test_duplicate_impression_rejected_with_line(self, tmp_path):
        path = tmp_path / "behaviors.tsv"
        path.write_text(
            "I1\tU1\t2019-11-12T10:00:00Z\tN1\tN2-0\n"
            "I2\tU2\t2019-11-12T10:00:00Z\tN1\tN2-0\n"
            "I1\tU3\t2019-11-12T11:00:00Z\t\tN3-1\n",
            encoding="utf-8",
        )
        message = f"{path}:3: duplicate impression id 'I1' (first on line 1)"
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_behaviors(path)

    def test_malformed_candidate_named_with_its_line_after_valid_ones_were_parsed(self, tmp_path):
        path = tmp_path / "behaviors.tsv"
        path.write_text(
            "I1\tU1\t2019-11-12T10:00:00Z\tN1\tN1-1 N2-0\n"
            "I2\tU2\t2019-11-12T10:00:00Z\tN1\tN1-1 N2-0 N2-2\n",
            encoding="utf-8",
        )
        message = f"{path}:2: impression 'I2': candidate token 'N2-2' lacks a -0/-1 click suffix"
        with pytest.raises(ParseError, match=re.escape(message) + "$"):
            load_behaviors(path)


# A valid first line, then (second line, the message after "path:2: ").
BAD_IMPRESSIONS = [
    ("\tU1\t2019-11-12T10:00:00Z\t\tN1-1", "empty impression id"),
    (
        "I1|I2\tU1\t2019-11-12T10:00:00Z\t\tN1-1",
        "impression id 'I1|I2' contains '|', which separates the ids of a fragmentation pair",
    ),
    (
        "I1\tU1\t2019-11-12T10:00:00Z\t\tN1-1 N2-0 N3-0 N4-0 N1-1",
        "duplicate candidates in the pool of impression 'I1': N1",
    ),
    (
        "I1\tU1\t2019-11-12T10:00:00Z\t\tN3-0 N1-1 N3-1 N2-0 N1-0",
        "duplicate candidates in the pool of impression 'I1': N1, N3",
    ),
]
FIRST_IMPRESSION = "I0\tU0\t2019-11-12T09:00:00Z\tN1\tN1-1 N2-0\n"


@pytest.mark.parametrize(
    "line,message", BAD_IMPRESSIONS, ids=["empty-id", "pipe-in-id", "repeated-candidate", "two-repeated"]
)
def test_malformed_impression_named_with_its_line(tmp_path, line, message):
    path = tmp_path / "behaviors.tsv"
    path.write_text(FIRST_IMPRESSION + line + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=re.escape(f"{path}:2: {message}") + "$"):
        load_behaviors(path)


IMPRESSION = {
    "impression_id": "I1", "user_id": "U1", "time": 1573552800.0, "candidates": (("N1", True),), "history": (),
}
RANKING = {"impression_id": "I1", "user_id": "U1", "ranked_items": ("N1",)}
# Each rule that an impression or a list checks itself: (record, fields it is
# built with in code, its line in a file, error, message).
RECORD_RULES = [
    (ImpressionLog, {"impression_id": ""}, "\tU1\t2019-11-12T10:00:00Z\t\tN1-1", ValidationError,
     "empty impression id"),
    (ImpressionLog, {"impression_id": "I1|I2"}, "I1|I2\tU1\t2019-11-12T10:00:00Z\t\tN1-1", ValidationError,
     "impression id 'I1|I2' contains '|', which separates the ids of a fragmentation pair"),
    (ImpressionLog, {"candidates": ()}, "I1\tU1\t2019-11-12T10:00:00Z\t\t", ParseError,
     "impression 'I1' has no candidates"),
    (ImpressionLog, {"candidates": (("N3", False), ("N1", True), ("N3", True), ("N1", False))},
     "I1\tU1\t2019-11-12T10:00:00Z\t\tN3-0 N1-1 N3-1 N1-0", ValidationError,
     "duplicate candidates in the pool of impression 'I1': N1, N3"),
    (RecommendationList, {"ranked_items": ("N3", "N1", "N3", "N1")},
     '{"impression_id": "I1", "user_id": "U1", "ranked_item_ids": ["N3", "N1", "N3", "N1"]}', ValidationError,
     "duplicate items in ranking for impression 'I1': N1, N3"),
]


@pytest.mark.parametrize(
    "record,fields,line,error,message", RECORD_RULES,
    ids=["empty-id", "pipe-in-id", "no-candidates", "repeated-candidates", "repeated-items"],
)
def test_record_rule_holds_in_code_and_in_its_file(tmp_path, record, fields, line, error, message):
    """Built in code, the record gives the bare message; its loader adds
    only ``path:lineno: ``."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        record(**{**(IMPRESSION if record is ImpressionLog else RANKING), **fields})
    if record is ImpressionLog:
        path, first, load = tmp_path / "behaviors.tsv", FIRST_IMPRESSION, load_behaviors
    else:
        path, load = tmp_path / "recs.jsonl", load_recommendations
        first = '{"impression_id": "I0", "user_id": "U0", "ranked_item_ids": ["N1"]}\n'
    path.write_text(first + line + "\n", encoding="utf-8")
    with pytest.raises(error, match=f"^{re.escape(f'{path}:2: {message}')}$"):
        load(path)


@pytest.mark.parametrize("load", [load_catalog, load_behaviors])
def test_short_row_names_its_line_and_column_count(tmp_path, load):
    """Both TSV loaders read through one column check, with one message."""
    path = tmp_path / "input.tsv"
    path.write_text("x\ty\tz\n", encoding="utf-8")
    message = f"{path}:1: expected at least 5 tab-separated columns, got 3"
    with pytest.raises(ParseError, match=re.escape(message) + "$"):
        load(path)


class TestSharedIds:
    """Within one load, equal ids are one object; no table outlives it."""

    def test_behaviors_hold_one_object_per_id(self, synthetic_world):
        impressions = load_behaviors(synthetic_world["behaviors"])
        ids = [
            article_id
            for impression in impressions
            for article_id in (*impression.candidate_ids, *impression.history)
        ]
        assert len(ids) > len(set(ids))
        assert len({id(article_id) for article_id in ids}) == len(set(ids))
        candidates = [candidate for impression in impressions for candidate in impression.candidates]
        assert len({id(candidate) for candidate in candidates}) == len(set(candidates))

    def test_validated_lists_hold_the_impressions_objects(self, fixture_paths):
        loaded = load_behaviors(fixture_paths["behaviors"])
        impressions = {impression.impression_id: impression for impression in loaded}
        recommendations = load_recommendations(fixture_paths["recommendations"], loaded)
        for recommendation in recommendations:
            impression = impressions[recommendation.impression_id]
            assert recommendation.impression_id is impression.impression_id
            assert recommendation.user_id is impression.user_id
            pool = {id(article_id) for article_id in impression.candidate_ids}
            assert {id(item) for item in recommendation.ranked_items} <= pool

    def test_unvalidated_lists_hold_one_object_per_id(self, tmp_path):
        path = tmp_path / "recs.jsonl"
        lines = [
            {"impression_id": "I1", "user_id": "U1", "ranked_item_ids": ["N1", "N2"]},
            {"impression_id": "I2", "user_id": "U1", "ranked_item_ids": ["N2", "N1"]},
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        first, second = load_recommendations(path)
        assert first.user_id is second.user_id
        assert [id(item) for item in first.ranked_items] == [id(item) for item in reversed(second.ranked_items)]

    @pytest.mark.parametrize(
        "role,load,ids",
        [("behaviors", load_behaviors, "candidate_ids"), ("recommendations", load_recommendations, "ranked_items")],
    )
    def test_no_table_outlives_a_load(self, fixture_paths, role, load, ids):
        first, second = load(fixture_paths[role]), load(fixture_paths[role])
        article_id, other = (getattr(loaded[0], ids)[0] for loaded in (first, second))
        assert article_id == other and article_id is not other
        del first, second, other
        # Only this frame's name and getrefcount's argument are left.
        assert sys.getrefcount(article_id) == 2


class TestTimes:
    def test_log_stamp_format(self):
        epoch = parse_time("11/12/2019 9:25:58 AM")
        expected = datetime(2019, 11, 12, 9, 25, 58, tzinfo=timezone.utc).timestamp()
        assert epoch == expected

    def test_iso_format(self):
        assert parse_time("2019-11-12T10:00:00Z") == parse_time("2019-11-12T10:00:00+00:00")

    def test_round_trip(self):
        epoch = parse_time("2019-11-12T10:00:00Z")
        assert parse_time(format_time(epoch)) == epoch

    def test_unparseable_rejected(self):
        with pytest.raises(ParseError):
            parse_time("last tuesday")


class TestLoadRecommendations:
    def test_accepted_with_rank_order(self, fixture_paths):
        impressions = load_behaviors(fixture_paths["behaviors"])
        recs = load_recommendations(fixture_paths["recommendations"], impressions)
        assert recs[0].ranked_items == ("N2", "N1")
        assert recs[0].ranked_items[0] == "N2"  # rank 1

    def test_duplicate_item_rejected(self, tmp_path, fixture_paths):
        impressions = load_behaviors(fixture_paths["behaviors"])
        path = tmp_path / "recs.jsonl"
        path.write_text(
            json.dumps({"impression_id": "I1", "user_id": "U1", "ranked_item_ids": ["N2", "N2"]})
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="duplicate"):
            load_recommendations(path, impressions)

    def test_out_of_pool_item_named(self, tmp_path, fixture_paths):
        impressions = load_behaviors(fixture_paths["behaviors"])
        path = tmp_path / "recs.jsonl"
        path.write_text(
            json.dumps({"impression_id": "I2", "user_id": "U2", "ranked_item_ids": ["N9"]}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="N9"):
            load_recommendations(path, impressions)

    def test_unknown_impression_rejected(self, tmp_path, fixture_paths):
        impressions = load_behaviors(fixture_paths["behaviors"])
        path = tmp_path / "recs.jsonl"
        path.write_text(
            json.dumps({"impression_id": "I9", "user_id": "U9", "ranked_item_ids": ["N1"]}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="I9"):
            load_recommendations(path, impressions)

    def test_user_other_than_the_impressions_rejected_with_line(self, tmp_path, fixture_paths):
        impressions = load_behaviors(fixture_paths["behaviors"])
        path = tmp_path / "recs.jsonl"
        lines = [
            {"impression_id": "I2", "user_id": "U2", "ranked_item_ids": ["N5"]},
            {"impression_id": "I1", "user_id": "U2", "ranked_item_ids": ["N1"]},
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        message = f"{path}:2: user id 'U2' does not match impression 'I1', which belongs to 'U1'"
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_recommendations(path, impressions)

    def test_unvalidated_load_skips_pool_checks(self, fixture_paths):
        recs = load_recommendations(fixture_paths["recommendations"])
        assert len(recs) == 3

    @pytest.mark.parametrize("validate", [True, False])
    def test_duplicate_impression_rejected_with_line(self, tmp_path, fixture_paths, validate):
        impressions = load_behaviors(fixture_paths["behaviors"]) if validate else None
        path = tmp_path / "recs.jsonl"
        lines = [
            {"impression_id": "I1", "user_id": "U1", "ranked_item_ids": ["N1"]},
            {"impression_id": "I2", "user_id": "U2", "ranked_item_ids": ["N5"]},
            {"impression_id": "I1", "user_id": "U1", "ranked_item_ids": ["N2"]},
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        message = f"{path}:3: duplicate impression id 'I1' (first on line 1)"
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_recommendations(path, impressions)

    @pytest.mark.parametrize("ranked", ['"N1N2"', '{"N1": 1}', '["N1", 2]', "null"])
    def test_ranking_must_be_a_list_of_ids(self, tmp_path, ranked):
        path = tmp_path / "recs.jsonl"
        path.write_text(
            '{"impression_id": "I1", "user_id": "U1", "ranked_item_ids": []}\n'
            f'{{"impression_id": "I2", "user_id": "U2", "ranked_item_ids": {ranked}}}\n',
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match=re.escape(f"{path}:2: 'ranked_item_ids' must be a list of strings")):
            load_recommendations(path)

    def test_impression_id_must_be_a_string(self, tmp_path):
        path = tmp_path / "recs.jsonl"
        path.write_text('{"impression_id": ["I1"], "user_id": "U1", "ranked_item_ids": []}\n', encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"{path}:1: 'impression_id' must be a string")):
            load_recommendations(path)

    def test_every_duplicate_item_named_once(self, tmp_path):
        path = tmp_path / "recs.jsonl"
        path.write_text(
            json.dumps(
                {"impression_id": "I1", "user_id": "U1", "ranked_item_ids": ["N3", "N1", "N3", "N2", "N1", "N3"]}
            )
            + "\n",
            encoding="utf-8",
        )
        message = f"{path}:1: duplicate items in ranking for impression 'I1': N1, N3"
        with pytest.raises(ValidationError, match=re.escape(message) + "$"):
            load_recommendations(path)


class TestRoundTrip:
    def test_catalog(self, tmp_path, fixture_paths):
        corpus = load_catalog(fixture_paths["news"], fixture_paths["bodies"])
        news_out = tmp_path / "news.tsv"
        bodies_out = tmp_path / "bodies.jsonl"
        dump_catalog(corpus, news_out, bodies_out)
        reloaded = load_catalog(news_out, bodies_out)
        assert list(reloaded.articles) == list(corpus.articles)
        for article in corpus:
            assert reloaded[article.id] == article

    def test_behaviors(self, tmp_path, fixture_paths):
        impressions = load_behaviors(fixture_paths["behaviors"])
        out = tmp_path / "behaviors.tsv"
        dump_behaviors(impressions, out)
        assert load_behaviors(out) == impressions

    def test_recommendations(self, tmp_path, fixture_paths):
        impressions = load_behaviors(fixture_paths["behaviors"])
        recs = load_recommendations(fixture_paths["recommendations"], impressions)
        out = tmp_path / "recs.jsonl"
        dump_recommendations(recs, out)
        assert load_recommendations(out, impressions) == recs

    def test_records_keep_non_ascii_text(self, tmp_path):
        records = [
            {"title": "Çà et là — 東京", "id": "N1", "tags": ["über", "naïve"]},
            {"id": "N2", "published_at": None, "count": 3},
        ]
        path = tmp_path / "records.jsonl"
        write_records(path, records)
        assert [record.fields for record in read_records(path)] == records
        text = path.read_text(encoding="utf-8")
        assert "東京" in text and "\\u" not in text
        assert text.endswith("}\n")
        for record in read_records(path):
            assert list(record.fields) == sorted(record.fields)


class TestInvariants:
    def test_missing_article_ids(self, fixture_paths):
        corpus = load_catalog(fixture_paths["news"])
        impressions = load_behaviors(fixture_paths["behaviors"])
        assert missing_article_ids(impressions, corpus) == []

    def test_missing_ids_reported_sorted(self, tmp_path, fixture_paths):
        corpus = load_catalog(fixture_paths["news"])
        path = tmp_path / "behaviors.tsv"
        path.write_text(
            "I1\tU1\t2019-11-12T10:00:00Z\tNZ2\tNZ9-0 N1-1\n", encoding="utf-8"
        )
        impressions = load_behaviors(path)
        assert missing_article_ids(impressions, corpus) == ["NZ2", "NZ9"]

    def test_corpus_add_and_update_check_the_id(self):
        corpus = Corpus()
        corpus.add(Article(id="A"))
        with pytest.raises(ValidationError, match="^duplicate article id 'A'$"):
            corpus.add(Article(id="A", title="again"))
        with pytest.raises(KeyError, match="B"):
            corpus.update(Article(id="B"))
        assert list(corpus) == [Article(id="A")]

    def test_article_range_invariants(self):
        with pytest.raises(ValidationError):
            Article(id="A", activation=1.4)
        with pytest.raises(ValidationError):
            Article(id="A", complexity=-3.0)
        with pytest.raises(ValidationError):
            Article(id="A", minority_mentions=-1)
        with pytest.raises(ValidationError):
            Article(id="")
