"""Parsing and validation of catalogs, impression logs and recommendation files.

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

The loaders keep input order, so parsed lists line up with file rows.
"""
from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import ParseError, ValidationError

_CANDIDATE_RE = re.compile(r"^(.+)-([01])$")


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
        if self.complexity is not None and not 0.0 <= self.complexity <= 100.0:
            raise ValidationError(f"complexity out of range [0, 100]: {self.complexity!r}")
        if self.activation is not None and not 0.0 <= self.activation <= 1.0:
            raise ValidationError(f"activation out of range [0, 1]: {self.activation!r}")
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
    source: str


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

    def get(self, article_id: str) -> Article | None:
        return self.articles.get(article_id)

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

    Naive stamps are taken as UTC.
    """
    text = value.strip()
    iso = text[:-1] + "+00:00" if text.endswith("Z") else text
    try:
        parsed = datetime.fromisoformat(iso)
    except ValueError:
        try:
            parsed = datetime.strptime(text, "%m/%d/%Y %I:%M:%S %p")
        except ValueError:
            raise ParseError(f"unparseable timestamp {value!r}") from None
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.timestamp()


def format_time(epoch: float) -> str:
    """ISO-8601 UTC, microseconds only when present."""
    stamp = datetime.fromtimestamp(epoch, tz=timezone.utc)
    if stamp.microsecond:
        return stamp.strftime("%Y-%m-%dT%H:%M:%S.%f") + "Z"
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


def _read_lines(path: Path) -> Iterator[tuple[int, str]]:
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if line.strip():
                yield lineno, line


def load_catalog(news_path: str | Path, bodies_path: str | Path | None = None) -> Corpus:
    """Parse the news TSV (and optional bodies file) into a Corpus.

    Articles without a bodies record keep the abstract as their body.
    Bodies records for unknown ids are skipped with a warning; duplicate ids
    and malformed lines are hard errors.
    """
    news_path = Path(news_path)
    corpus = Corpus()
    for lineno, line in _read_lines(news_path):
        columns = line.split("\t")
        if len(columns) < 5:
            raise ParseError(
                f"{news_path}:{lineno}: expected at least 5 tab-separated columns, got {len(columns)}"
            )
        article_id, category, subcategory, title, abstract = columns[:5]
        if not article_id:
            raise ParseError(f"{news_path}:{lineno}: empty article id")
        if article_id in corpus:
            raise ParseError(f"{news_path}:{lineno}: duplicate article id {article_id!r}")
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
    for lineno, line in _read_lines(path):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: invalid JSON ({exc})") from None
        article_id = record.get("id")
        if not isinstance(article_id, str) or not article_id:
            raise ParseError(f"{path}:{lineno}: missing or invalid 'id'")
        if article_id not in corpus:
            corpus.warn(f"{path}:{lineno}: body for unknown article {article_id!r} skipped")
            continue
        published = record.get("published_at")
        if isinstance(published, str):
            published = parse_time(published)
        elif published is not None:
            published = float(published)
        article = corpus[article_id]
        body = record.get("body")
        corpus.update(
            replace(
                article,
                body=body if isinstance(body, str) else article.body,
                published_at=published if published is not None else article.published_at,
            )
        )


def load_behaviors(path: str | Path) -> list[ImpressionLog]:
    """Parse the behaviors TSV into impression logs.

    The source logs history oldest first; it is reversed here so that
    position 1 is the most recently read article, the orientation the
    recency discount expects.
    """
    path = Path(path)
    impressions = []
    first_line: dict[str, int] = {}
    for lineno, line in _read_lines(path):
        columns = line.split("\t")
        if len(columns) < 5:
            raise ParseError(
                f"{path}:{lineno}: expected 5 tab-separated columns, got {len(columns)}"
            )
        impression_id, user_id, time_text, history_text, candidates_text = columns[:5]
        if impression_id in first_line:
            raise ValidationError(
                f"{path}:{lineno}: duplicate impression id {impression_id!r} "
                f"(first on line {first_line[impression_id]})"
            )
        first_line[impression_id] = lineno
        candidates = []
        for token in candidates_text.split():
            match = _CANDIDATE_RE.match(token)
            if match is None:
                raise ParseError(
                    f"{path}:{lineno}: impression {impression_id!r}: "
                    f"candidate token {token!r} lacks a -0/-1 click suffix"
                )
            candidates.append((match.group(1), match.group(2) == "1"))
        if not candidates:
            raise ParseError(f"{path}:{lineno}: impression {impression_id!r} has no candidates")
        try:
            time_value = parse_time(time_text)
        except ParseError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        impressions.append(
            ImpressionLog(
                impression_id=impression_id,
                user_id=user_id,
                time=time_value,
                candidates=tuple(candidates),
                history=tuple(reversed(history_text.split())),
            )
        )
    return impressions


def load_recommendations(
    path: str | Path,
    impressions: Sequence[ImpressionLog] | None = None,
    source: str | None = None,
) -> list[RecommendationList]:
    """Parse a recommendations JSON-lines file, optionally validating it
    against the impressions it will be joined with.

    Validation rejects a ranking that is not a list of ids, an impression
    listed twice, duplicate items within a ranking, and (given the
    impressions) unknown impression ids and items outside the impression's
    candidate pool.
    """
    path = Path(path)
    label = source if source is not None else f"external:{path.stem}"
    by_impression = (
        {impression.impression_id: impression for impression in impressions}
        if impressions is not None
        else None
    )
    recommendations = []
    first_line: dict[str, int] = {}
    for lineno, line in _read_lines(path):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: invalid JSON ({exc})") from None
        try:
            impression_id = record["impression_id"]
            user_id = record["user_id"]
            ranked = record["ranked_item_ids"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{path}:{lineno}: missing field {exc}") from None
        if not isinstance(impression_id, str):
            raise ParseError(f"{path}:{lineno}: 'impression_id' must be a string")
        if not isinstance(ranked, list) or not all(isinstance(item, str) for item in ranked):
            raise ParseError(f"{path}:{lineno}: 'ranked_item_ids' must be a list of strings")
        if impression_id in first_line:
            raise ValidationError(
                f"{path}:{lineno}: duplicate impression id {impression_id!r} "
                f"(first on line {first_line[impression_id]})"
            )
        first_line[impression_id] = lineno
        duplicates = sorted(item for item, count in Counter(ranked).items() if count > 1)
        if duplicates:
            raise ValidationError(
                f"{path}:{lineno}: duplicate items in ranking for impression "
                f"{impression_id!r}: {', '.join(duplicates)}"
            )
        if by_impression is not None:
            impression = by_impression.get(impression_id)
            if impression is None:
                raise ValidationError(f"{path}:{lineno}: unknown impression id {impression_id!r}")
            pool = set(impression.candidate_ids)
            outside = sorted(item for item in ranked if item not in pool)
            if outside:
                raise ValidationError(
                    f"{path}:{lineno}: items outside the candidate pool of impression "
                    f"{impression_id!r}: {', '.join(outside)}"
                )
        recommendations.append(
            RecommendationList(
                impression_id=impression_id,
                user_id=user_id,
                ranked_items=tuple(ranked),
                source=label,
            )
        )
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


def dump_catalog(corpus: Corpus, news_path: str | Path, bodies_path: str | Path) -> None:
    """Write the canonical catalog pair; re-parsing restores the raw fields."""
    with open(news_path, "w", encoding="utf-8", newline="\n") as handle:
        for article in corpus:
            handle.write(
                "\t".join([article.id, article.category, article.subcategory, article.title, "", ""])
                + "\n"
            )
    with open(bodies_path, "w", encoding="utf-8", newline="\n") as handle:
        for article in corpus:
            record = {
                "id": article.id,
                "body": article.body,
                "published_at": article.published_at,
            }
            handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


def dump_behaviors(impressions: Iterable[ImpressionLog], path: str | Path) -> None:
    """Write behaviors in the canonical TSV; history goes back out oldest
    first so a round trip restores the stored orientation."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for impression in impressions:
            candidates = " ".join(
                f"{article_id}-{1 if clicked else 0}" for article_id, clicked in impression.candidates
            )
            handle.write(
                "\t".join(
                    [
                        impression.impression_id,
                        impression.user_id,
                        format_time(impression.time),
                        " ".join(reversed(impression.history)),
                        candidates,
                    ]
                )
                + "\n"
            )


def dump_recommendations(recommendations: Iterable[RecommendationList], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for recommendation in recommendations:
            record = {
                "impression_id": recommendation.impression_id,
                "user_id": recommendation.user_id,
                "ranked_item_ids": list(recommendation.ranked_items),
            }
            handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
