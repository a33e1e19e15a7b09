"""The input contract: every loader reads through one line reader, one
JSON-lines reader and one typed-field helper, so a malformed line is an
InputError whose message starts with ``path:lineno``."""
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from newsdiv.cli import main
from newsdiv.config import OPTION_KEYS, load_config_file
from newsdiv.corpus import (
    Record,
    at_line,
    load_behaviors,
    load_catalog,
    load_recommendations,
    read_lines,
    read_records,
)
from newsdiv.enrich import load_gazetteer, load_lexicon, load_sidecar
from newsdiv.errors import InputError, ParseError, ValidationError

GAZETTEER_ENTRY = {"canonical_id": "X", "kind": "person", "aliases": ["ann"]}

# (file, appended line, the message after "path:lineno: ").
PROBES = [
    ("gazetteer", {"kind": "person", "aliases": ["x y"]}, "missing field 'canonical_id'"),
    ("gazetteer", [1, 2], "expected a JSON object"),
    ("sidecar", [1, 2], "expected a JSON object"),
    ("bodies", [1, 2], "expected a JSON object"),
    ("bodies", {"id": "N1", "published_at": [1]}, "'published_at' must be a finite number"),
    ("sidecar", {"id": "N1", "complexity": "abc"}, "'complexity' must be a finite number"),
    ("sidecar", {"id": "N1", "minority_mentions": "many"}, "'minority_mentions' must be an integer"),
    ("sidecar", {"id": "N1", "political_actors": "P1"}, "'political_actors' must be a list of strings"),
    ("gazetteer", {**GAZETTEER_ENTRY, "aliases": "ann"}, "'aliases' must be a list of strings"),
    ("gazetteer", {**GAZETTEER_ENTRY, "is_political": "false"}, "'is_political' must be true or false"),
    ("gazetteer", {**GAZETTEER_ENTRY, "canonical_id": ""}, "empty 'canonical_id'"),
    ("sidecar", {"id": "N1", "chain_id": 5}, "'chain_id' must be a string"),
    ("bodies", {"id": "N1", "published_at": math.nan}, "'published_at' must be a finite number"),
    ("bodies", {"id": "N1", "published_at": "yesterday"}, "unparseable timestamp 'yesterday'"),
    ("bodies", {"id": "N1", "body": "Other text entirely."}, "duplicate article id 'N1' (first on line 1)"),
    ("sidecar", {"id": "N1", "complexity": math.nan}, "'complexity' must be a finite number"),
    ("bodies", {"id": "", "body": "Text."}, "empty 'id'"),
    ("gazetteer", {**GAZETTEER_ENTRY, "kind": "org"}, "kind must be 'person' or 'party', got 'org'"),
    ("gazetteer", {**GAZETTEER_ENTRY, "aliases": []}, "aliases must be non-empty"),
]


def enrich_args(fixture_paths, tmp_path, **override):
    paths = {role: fixture_paths[role] for role in ("news", "bodies", "lexicon", "gazetteer")}
    paths.update(override)
    flags = [item for role, path in paths.items() for item in (f"--{role}", str(path))]
    return ["enrich", *flags, "-o", str(tmp_path / "enriched.jsonl")]


@pytest.mark.parametrize(
    "role,line,message", PROBES, ids=[f"{role}-{json.dumps(line)}" for role, line, _ in PROBES]
)
def test_probe_exits_one_with_its_line(fixture_paths, tmp_path, capsys, role, line, message):
    path = tmp_path / f"{role}.jsonl"
    lines = [] if role == "sidecar" else fixture_paths[role].read_text(encoding="utf-8").splitlines()
    path.write_text("".join(f"{text}\n" for text in [*lines, json.dumps(line)]), encoding="utf-8")
    code = main(enrich_args(fixture_paths, tmp_path, **{role: path}))
    assert code == 1
    assert f"error: {path}:{len(lines) + 1}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "enriched.jsonl").exists()


def test_out_of_range_sidecar_value_stays_a_warning(fixture_paths, tmp_path, capsys):
    path = tmp_path / "sidecar.jsonl"
    path.write_text('{"id": "N1", "minority_mentions": -2}\n{"id": "N2", "complexity": 140}\n', encoding="utf-8")
    assert main(enrich_args(fixture_paths, tmp_path, sidecar=path)) == 0
    err = capsys.readouterr().err
    assert f"warning: {path}:1: record for 'N1' rejected (mention counts must be >= 0)" in err
    assert f"warning: {path}:2: record for 'N2' rejected (complexity out of range" in err


@pytest.mark.parametrize(
    "counts",
    [{"minority_mentions": 10**400}, {"minority_mentions": 10**308, "majority_mentions": 10**308}],
    ids=["int-too-large-for-a-float", "sum-overflows"],
)
def test_mention_count_too_large_to_sum_is_a_rejected_record(fixture_paths, tmp_path, capsys, counts):
    path = tmp_path / "sidecar.jsonl"
    path.write_text(json.dumps({"id": "N1", **counts}) + "\n", encoding="utf-8")
    inputs = [arg for role in ("news", "behaviors") for arg in (f"--{role}", str(fixture_paths[role]))]
    assert main(["evaluate", *inputs, "--sidecar", str(path), "--out", str(tmp_path / "out")]) == 0
    err = capsys.readouterr().err
    assert f"warning: {path}:1: record for 'N1' rejected (mention counts must be <= {2**53})" in err


class TestRecordGet:
    def record(self, **fields):
        return Record(3, fields)

    def test_int_is_read_as_a_float_where_a_number_is_expected(self):
        value = self.record(score=50).get("score", float)
        assert value == 50.0 and type(value) is float

    @pytest.mark.parametrize("value", [True, "1", math.inf, -math.inf, math.nan, 10**400])
    def test_non_numbers_and_non_finite_numbers_are_rejected(self, value):
        with pytest.raises(ParseError, match="^'score' must be a finite number, got "):
            self.record(score=value).get("score", float)

    @pytest.mark.parametrize("kind,value", [(int, True), (int, 2.0), (bool, 1), (str, 5), (list, ["a", 1])])
    def test_wrong_type_is_rejected(self, kind, value):
        with pytest.raises(ParseError, match="^'field' must be "):
            self.record(field=value).get("field", kind)

    def test_missing_or_null_optional_field_gives_the_default(self):
        assert self.record().get("field", int, 7) == 7
        assert self.record(field=None).get("field", int, 7) == 7

    def test_missing_required_field_is_named(self):
        with pytest.raises(ParseError, match="^missing field 'field'$"):
            self.record().get("field", str)

    def test_null_required_field_is_a_type_error(self):
        with pytest.raises(ParseError, match="^'field' must be a string, got None$"):
            self.record(field=None).get("field", str)


class TestAtLine:
    @pytest.mark.parametrize("error", [InputError, ParseError, ValidationError])
    def test_an_input_error_gains_the_prefix_and_keeps_its_type(self, error):
        with pytest.raises(error, match="^f.jsonl:3: bad value$"):
            with at_line("f.jsonl", 3):
                raise error("bad value")

    def test_another_error_passes_unchanged(self):
        with pytest.raises(KeyError, match="^'x'$"):
            with at_line("f.jsonl", 3):
                raise KeyError("x")

    def test_a_record_read_inside_names_its_line(self):
        with pytest.raises(ParseError, match="^f.jsonl:3: missing field 'field'$"):
            with at_line("f.jsonl", 3):
                Record(3, {}).get("field", str)


class TestReaders:
    def test_line_endings_and_blank_lines(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_bytes(b"a\tb \r\n\n  \nc\n")
        assert list(read_lines(path)) == [(1, "a\tb "), (4, "c")]

    def test_comments_are_trimmed_and_skipped(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_bytes(b"  # note\n  x = 1  \n")
        assert list(read_lines(path, comments=True)) == [(2, "x = 1")]

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        path = tmp_path / "news.tsv"
        path.write_bytes(b"N1\ta\tb\tT\tA\nN2\ta\tb\t\xff\tA\n")
        with pytest.raises(ParseError, match=f"^{path}:2: not UTF-8"):
            load_catalog(path)

    @pytest.mark.parametrize("line", ["1" * 5000, "[" * 100000, "{", "null"])
    def test_json_that_is_not_an_object_names_its_line(self, tmp_path, line):
        path = tmp_path / "a.jsonl"
        path.write_text("{}\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{path}:2: "):
            list(read_records(path))

    def test_duplicate_gazetteer_id_names_both_lines(self, tmp_path):
        path = tmp_path / "gazetteer.jsonl"
        path.write_text(f"{json.dumps(GAZETTEER_ENTRY)}\n\n{json.dumps(GAZETTEER_ENTRY)}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{path}:3: duplicate gazetteer id 'X' \\(first on line 1\\)$"):
            load_gazetteer(path)

    def test_alias_repeated_within_an_entry_in_another_case(self, tmp_path):
        path = tmp_path / "gazetteer.jsonl"
        entry = {**GAZETTEER_ENTRY, "aliases": ["ann kovac", "Ann Kovac"]}
        path.write_text(json.dumps(entry) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{path}:1: duplicate alias 'ann kovac' \\(first on line 1\\)$"):
            load_gazetteer(path)

    def test_alias_shared_by_two_entries_names_both_lines(self, tmp_path):
        path = tmp_path / "gazetteer.jsonl"
        other = {**GAZETTEER_ENTRY, "canonical_id": "Y", "aliases": ["bo", "ANN"]}
        path.write_text(f"{json.dumps(GAZETTEER_ENTRY)}\n{json.dumps(other)}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{path}:2: duplicate alias 'ann' \\(first on line 1\\)$"):
            load_gazetteer(path)


FIELDS = (
    "id", "body", "published_at", "impression_id", "user_id", "ranked_item_ids", "canonical_id",
    "kind", "aliases", "is_political", "in_knowledge_base", "complexity", "activation", "chain_id",
    "political_actors", "minority_mentions", "majority_mentions",
)
NAMES = st.sampled_from(["N1", "N2", "I1", "U1", "person", "party", "2019-11-12T10:00:00Z", "#", ""])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | NAMES,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
CELLS = (
    NAMES
    | st.sampled_from(
        [
            "N1-1 N2-0", "N1-1 N1-0", "I1|I2", "N1 N2", "0.5", "11/12/2019 9:25:58 AM", "0001-01-01T00:00:00+01:00",
            '{"id": "N1", "body": "Other text."}',
        ]
    )
    | st.text(max_size=8)
)
LINES = st.one_of(
    st.text(),
    st.dictionaries(st.sampled_from(FIELDS), JSON_VALUES, max_size=6).map(json.dumps),
    JSON_VALUES.map(json.dumps),
    st.lists(CELLS, max_size=7).map("\t".join),
    st.tuples(st.sampled_from(sorted(OPTION_KEYS) + ["external.x", "x y"]), st.text(max_size=8)).map(" = ".join),
).map(lambda text: text.replace("\n", " ").encode("utf-8")) | st.binary()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(line=LINES, copies=st.integers(1, 2))
def test_every_loader_returns_or_names_the_line(fixture_paths, fuzz_dir, line, copies):
    """Each loader returns or names a line of a file that holds ``line``
    once or twice; the second copy repeats every id or key it holds."""
    path = fuzz_dir / "input"
    path.write_bytes((line.replace(b"\n", b"") + b"\n") * copies)
    impressions = load_behaviors(fixture_paths["behaviors"])
    loaders = [
        lambda: load_catalog(path),
        lambda: load_catalog(fixture_paths["news"], path),
        lambda: load_behaviors(path),
        lambda: load_recommendations(path, impressions),
        lambda: load_lexicon(path),
        lambda: load_gazetteer(path),
        lambda: load_sidecar(path, load_catalog(fixture_paths["news"])),
        lambda: load_config_file(path),
    ]
    for load in loaders:
        try:
            load()
        except InputError as exc:
            message = str(exc)
            prefixes = [f"{path}:{lineno}: " for lineno in range(1, copies + 1)]
            # The line is named once: no second prefix follows the first.
            assert any(
                message.startswith(prefix) and not message[len(prefix):].startswith(f"{path}:") for prefix in prefixes
            ), message
