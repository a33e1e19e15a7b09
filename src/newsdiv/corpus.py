"""Parsing, validation and writing of catalogs, impression logs and
recommendation files.

File formats (all UTF-8, LF line endings):

* news catalog: tab-separated ``id  category  subcategory  title  abstract
  [url ...]``; columns after the fifth are ignored.
* article bodies: JSON lines ``{"id", "body", "published_at"}`` where
  ``published_at`` is epoch seconds (or an ISO-8601 string) and may be null.
* behaviors: tab-separated ``impression_id  user_id  time  history
  candidates`` with a space-separated history (oldest first, as logged) and
  candidate tokens ``<article_id>-0|1`` carrying the click flag.
* recommendations: JSON lines ``{"impression_id", "user_id",
  "ranked_item_ids"}``.

The loaders keep input order, so parsed lists line up with file rows.  An
error about a line starts with ``path:lineno``.  Within one load, equal ids
are one shared ``str`` object (see :func:`id_table`).
"""
from __future__ import annotations

import json
import re
import sys
from collections import Counter
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ParseError, ValidationError

_CANDIDATE_RE = re.compile(r"^(.+)-([01])$")

# The ranges [0, top] of the two continuous article fields.
ACTIVATION_TOP = 1.0
COMPLEXITY_TOP = 100.0


@dataclass(frozen=True)
class Article:
    """One news item plus its enrichment annotations.

    ``body`` falls back to the abstract text when no full body is known.
    ``published_at`` is epoch seconds UTC.  Enrichment fields stay at their
    absent defaults until the enrichment pipeline or a sidecar fills them.
    """

    id: str
    title: str = ""
    body: str = ""
    category: str = ""
    subcategory: str = ""
    published_at: float | None = None
    complexity: float | None = None
    activation: float | None = None
    chain_id: str | None = None
    political_actors: frozenset[str] = frozenset()
    minority_mentions: int = 0
    majority_mentions: int = 0

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("article id must be non-empty")
        if self.chain_id == "" or "" in self.political_actors:
            raise ValidationError("chain and actor ids must be non-empty")
        if self.complexity is not None and not 0.0 <= self.complexity <= COMPLEXITY_TOP:
            raise ValidationError(f"complexity out of range [0, {COMPLEXITY_TOP:g}]: {self.complexity!r}")
        if self.activation is not None and not 0.0 <= self.activation <= ACTIVATION_TOP:
            raise ValidationError(f"activation out of range [0, {ACTIVATION_TOP:g}]: {self.activation!r}")
        if self.minority_mentions < 0 or self.majority_mentions < 0:
            raise ValidationError("mention counts must be >= 0")

    def text(self) -> str:
        """Title and body joined; the text enrichment operates on."""
        return f"{self.title}\n{self.body}".strip()


@dataclass(frozen=True)
class ImpressionLog:
    """One user/time slice: candidate pool with click flags, reading history.

    ``history`` is ordered most recent first (position 1 = latest read);
    ``time`` is epoch seconds UTC.
    """

    impression_id: str
    user_id: str
    time: float
    candidates: tuple[tuple[str, bool], ...]
    history: tuple[str, ...]

    @property
    def candidate_ids(self) -> tuple[str, ...]:
        return tuple(article_id for article_id, _ in self.candidates)

    @property
    def clicked_ids(self) -> tuple[str, ...]:
        return tuple(article_id for article_id, clicked in self.candidates if clicked)


@dataclass(frozen=True)
class RecommendationList:
    """Ranked article ids issued for one impression (rank 1 first)."""

    impression_id: str
    user_id: str
    ranked_items: tuple[str, ...]


class Corpus:
    """Article catalog keyed by id, in input order.  Immutable after load
    except for enrichment overrides via :meth:`update`."""

    def __init__(self) -> None:
        self.articles: dict[str, Article] = {}
        self.warnings: list[str] = []

    def add(self, article: Article) -> None:
        if article.id in self.articles:
            raise ValidationError(f"duplicate article id {article.id!r}")
        self.articles[article.id] = article

    def update(self, article: Article) -> None:
        if article.id not in self.articles:
            raise KeyError(article.id)
        self.articles[article.id] = article

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def __getitem__(self, article_id: str) -> Article:
        return self.articles[article_id]

    def __contains__(self, article_id: str) -> bool:
        return article_id in self.articles

    def __len__(self) -> int:
        return len(self.articles)

    def __iter__(self) -> Iterator[Article]:
        return iter(self.articles.values())


def parse_time(value: str) -> float:
    """Epoch seconds from an ISO-8601 string or a ``m/d/Y h:M:S AM`` log stamp.

    Naive stamps are taken as UTC.  A stamp whose UTC time falls outside
    years 1-9999 is a ParseError, like one that does not parse.
    """
    text = value.strip()
    iso = text[:-1] + "+00:00" if text.endswith("Z") else text
    try:
        try:
            parsed = datetime.fromisoformat(iso)
        except ValueError:
            parsed = datetime.strptime(text, "%m/%d/%Y %I:%M:%S %p")
        if parsed.tzinfo is None:
            parsed = parsed.replace(tzinfo=timezone.utc)
        return parsed.astimezone(timezone.utc).timestamp()
    except ValueError:
        raise ParseError(f"unparseable timestamp {value!r}") from None
    except OverflowError:
        raise ParseError(f"timestamp {value!r} is outside years 1-9999 in UTC") from None


def read_lines(path: Path, comments: bool = False) -> Iterator[tuple[int, str]]:
    """Line number and text of each non-blank line of a UTF-8 file, without
    its line ending.  With ``comments``, lines are also trimmed and those that
    start with ``#`` are skipped.  Bytes that are not UTF-8 are a ParseError."""
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: not UTF-8 ({exc})") from None
            if comments:
                line = line.strip()
            if line.strip() and not (comments and line.startswith("#")):
                yield lineno, line


def read_rows(path: Path) -> Iterator[tuple[int, list[str]]]:
    """Line number and first five tab-separated columns of each non-blank
    line of a TSV file; columns after the fifth are ignored."""
    for lineno, line in read_lines(path):
        columns = line.split("\t")
        if len(columns) < 5:
            raise ParseError(f"{path}:{lineno}: expected at least 5 tab-separated columns, got {len(columns)}")
        yield lineno, columns[:5]


def id_table() -> Callable[[str], str]:
    """A function that maps each id to the first equal string it was given.

    Each load makes its own, so that its result holds one object per
    distinct id and the table is dropped with the load.  ``sys.intern``
    would keep every id for the rest of the process."""
    table: dict[str, str] = {}
    return lambda text: table.setdefault(text, text)


_REQUIRED = object()
_KINDS = {str: "a string", list: "a list of strings", int: "an integer", bool: "true or false",
          float: "a finite number"}


class Record(NamedTuple):
    """One JSON-lines object and the line it came from."""

    path: Path
    lineno: int
    fields: dict

    @property
    def where(self) -> str:
        return f"{self.path}:{self.lineno}"

    def get(self, name: str, kind: type, default: object = _REQUIRED):
        """Field ``name`` as ``kind``: str, bool, int, list (of str) or float
        (any finite number).  A missing or null field gives ``default``;
        without one it is an error, and so is a value of another type."""
        value = self.fields.get(name)
        if value is None:
            if default is not _REQUIRED:
                return default
            if name not in self.fields:
                raise ParseError(f"{self.where}: missing field {name!r}")
        elif kind is float:
            # Comparisons reject NaN, infinities and ints too large for a float.
            if type(value) in (int, float) and -sys.float_info.max <= value <= sys.float_info.max:
                return float(value)
        elif kind is list:
            if type(value) is list and all(type(item) is str for item in value):
                return value
        elif type(value) is kind:
            return value
        raise ParseError(f"{self.where}: {name!r} must be {_KINDS[kind]}, got {value!r:.60}")


def read_records(path: Path) -> Iterator[Record]:
    """Each non-blank line of a JSON-lines file, which must hold an object."""
    for lineno, line in read_lines(path):
        try:
            fields = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{path}:{lineno}: invalid JSON ({exc})") from None
        if type(fields) is not dict:
            raise ParseError(f"{path}:{lineno}: expected a JSON object, got {line:.60}")
        yield Record(path, lineno, fields)


def check_unique(
    first_lines: dict[str, int], key: str, path: Path, lineno: int, what: str, error=ValidationError
) -> None:
    """Note the line on which ``key`` first occurs; a repeat, also one on the
    same line, is an ``error``."""
    first = first_lines.get(key)
    if first is not None:
        raise error(f"{path}:{lineno}: duplicate {what} {key!r} (first on line {first})")
    first_lines[key] = lineno


def _timestamp(text: str, path: Path, lineno: int) -> float:
    try:
        return parse_time(text)
    except ParseError as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from None


def load_catalog(news_path: str | Path, bodies_path: str | Path | None = None) -> Corpus:
    """Parse the news TSV (and optional bodies file) into a Corpus.

    Articles without a bodies record keep the abstract as their body.
    Bodies records for unknown ids are skipped with a warning; duplicate ids
    and malformed lines are hard errors.
    """
    news_path = Path(news_path)
    corpus = Corpus()
    first_lines: dict[str, int] = {}
    for lineno, (article_id, category, subcategory, title, abstract) in read_rows(news_path):
        if not article_id:
            raise ParseError(f"{news_path}:{lineno}: empty article id")
        check_unique(first_lines, article_id, news_path, lineno, "article id", ParseError)
        corpus.add(
            Article(
                id=article_id,
                title=title,
                body=abstract,
                category=category,
                subcategory=subcategory,
            )
        )
    if bodies_path is not None:
        _load_bodies(Path(bodies_path), corpus)
    return corpus


def _load_bodies(path: Path, corpus: Corpus) -> None:
    first_lines: dict[str, int] = {}
    for record in read_records(path):
        article_id = record.get("id", str)
        if not article_id:
            raise ParseError(f"{record.where}: empty 'id'")
        published = record.fields.get("published_at")
        if type(published) is str:
            published = _timestamp(published, path, record.lineno)
        else:
            published = record.get("published_at", float, None)
        body = record.get("body", str, None)
        check_unique(first_lines, article_id, path, record.lineno, "article id", ParseError)
        if article_id not in corpus:
            corpus.warn(f"{record.where}: body for unknown article {article_id!r} skipped")
            continue
        article = corpus[article_id]
        corpus.update(
            replace(
                article,
                body=body if body is not None else article.body,
                published_at=published if published is not None else article.published_at,
            )
        )


def load_behaviors(path: str | Path) -> list[ImpressionLog]:
    """Parse the behaviors TSV into impression logs.

    The source logs history oldest first; it is reversed here so that
    position 1 is the most recently read article, the orientation the
    recency discount expects.  An impression id must be non-empty, free of
    ``|`` (the separator of fragmentation pair ids) and unique; a pool must
    not list an article twice.
    """
    path = Path(path)
    impressions = []
    first_lines: dict[str, int] = {}
    shared = id_table()
    # Each distinct well-formed candidate token, parsed once.
    parsed: dict[str, tuple[str, bool]] = {}
    for lineno, (impression_id, user_id, time_text, history_text, candidates_text) in read_rows(path):
        if not impression_id:
            raise ValidationError(f"{path}:{lineno}: empty impression id")
        if "|" in impression_id:
            raise ValidationError(
                f"{path}:{lineno}: impression id {impression_id!r} contains '|', "
                "which separates the ids of a fragmentation pair"
            )
        check_unique(first_lines, impression_id, path, lineno, "impression id")
        candidates = []
        for token in candidates_text.split():
            candidate = parsed.get(token)
            if candidate is None:
                match = _CANDIDATE_RE.match(token)
                if match is None:
                    raise ParseError(
                        f"{path}:{lineno}: impression {impression_id!r}: "
                        f"candidate token {token!r} lacks a -0/-1 click suffix"
                    )
                candidate = parsed[token] = (shared(match.group(1)), match.group(2) == "1")
            candidates.append(candidate)
        if not candidates:
            raise ParseError(f"{path}:{lineno}: impression {impression_id!r} has no candidates")
        if len({article_id for article_id, _ in candidates}) < len(candidates):
            counts = Counter(article_id for article_id, _ in candidates)
            repeated = sorted(article_id for article_id, count in counts.items() if count > 1)
            raise ValidationError(
                f"{path}:{lineno}: duplicate candidates in the pool of impression "
                f"{impression_id!r}: {', '.join(repeated)}"
            )
        impressions.append(
            ImpressionLog(
                impression_id=impression_id,
                user_id=shared(user_id),
                time=_timestamp(time_text, path, lineno),
                candidates=tuple(candidates),
                history=tuple(map(shared, reversed(history_text.split()))),
            )
        )
    return impressions


def load_recommendations(
    path: str | Path,
    impressions: Sequence[ImpressionLog] | None = None,
) -> list[RecommendationList]:
    """Parse a recommendations JSON-lines file, optionally validating it
    against the impressions it will be joined with.

    Validation rejects a ranking that is not a list of ids, an impression
    listed twice, duplicate items within a ranking, and (given the
    impressions) unknown impression ids, a user id other than the
    impression's and items outside the impression's candidate pool.
    """
    path = Path(path)
    by_impression = (
        {impression.impression_id: impression for impression in impressions}
        if impressions is not None
        else None
    )
    recommendations = []
    first_lines: dict[str, int] = {}
    shared = id_table()
    for record in read_records(path):
        impression_id = record.get("impression_id", str)
        user_id = record.get("user_id", str)
        ranked = record.get("ranked_item_ids", list)
        check_unique(first_lines, impression_id, path, record.lineno, "impression id")
        duplicates = sorted(item for item, count in Counter(ranked).items() if count > 1)
        if duplicates:
            raise ValidationError(
                f"{record.where}: duplicate items in ranking for impression "
                f"{impression_id!r}: {', '.join(duplicates)}"
            )
        if by_impression is not None:
            impression = by_impression.get(impression_id)
            if impression is None:
                raise ValidationError(f"{record.where}: unknown impression id {impression_id!r}")
            if user_id != impression.user_id:
                raise ValidationError(
                    f"{record.where}: user id {user_id!r} does not match impression "
                    f"{impression_id!r}, which belongs to {impression.user_id!r}"
                )
            pool = {article_id: article_id for article_id in impression.candidate_ids}
            outside = sorted(item for item in ranked if item not in pool)
            if outside:
                raise ValidationError(
                    f"{record.where}: items outside the candidate pool of impression "
                    f"{impression_id!r}: {', '.join(outside)}"
                )
            impression_id, user_id = impression.impression_id, impression.user_id
            ranked = [pool[item] for item in ranked]
        else:
            user_id = shared(user_id)
            ranked = [shared(item) for item in ranked]
        recommendations.append(RecommendationList(impression_id, user_id, tuple(ranked)))
    return recommendations


def missing_article_ids(impressions: Iterable[ImpressionLog], corpus: Corpus) -> list[str]:
    """Article ids referenced by candidates or histories but absent from the
    corpus, sorted; non-empty means the inputs do not belong together."""
    missing = set()
    for impression in impressions:
        for article_id in impression.candidate_ids:
            if article_id not in corpus:
                missing.add(article_id)
        for article_id in impression.history:
            if article_id not in corpus:
                missing.add(article_id)
    return sorted(missing)


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write ``lines`` to a UTF-8 file, each followed by an LF.  Every text
    file the package writes goes through here."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in lines:
            handle.write(line + "\n")


def write_records(path: str | Path, records: Iterable[Mapping[str, object]]) -> None:
    """Write one JSON object per line, keys sorted and non-ASCII text kept;
    the inverse of :func:`read_records`."""
    write_lines(path, (json.dumps(record, ensure_ascii=False, sort_keys=True) for record in records))


def dump_recommendations(recommendations: Iterable[RecommendationList], path: str | Path) -> None:
    write_records(
        path,
        (
            {
                "impression_id": recommendation.impression_id,
                "user_id": recommendation.user_id,
                "ranked_item_ids": list(recommendation.ranked_items),
            }
            for recommendation in recommendations
        ),
    )
