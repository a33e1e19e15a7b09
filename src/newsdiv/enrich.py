"""Per-article metadata: reading ease, sentiment activation, story chains and
entity-derived fields.

Everything here is deterministic and model-free: a closed-form readability
formula, a polarity lexicon, TF-IDF cosine chaining and gazetteer alias
matching.  A sidecar file can override any computed field with the output of
a stronger external pipeline.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import (Article, Corpus, ImpressionLog, check_unique, read_lines, read_records,
                     write_records)
from .errors import ParseError, ValidationError

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_WORD_RE = re.compile(r"\w+")
_SENTENCE_RE = re.compile(r"[.!?]+")
_VOWEL_RUN_RE = re.compile(r"[aeiouy]+")

DEFAULT_TAU = 0.5
DEFAULT_WINDOW_SECONDS = 3 * 86400.0


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def count_syllables(word: str) -> int:
    """Vowel-group heuristic: maximal aeiouy runs, one dropped for a silent
    trailing 'e', never below one per word."""
    if not word:
        return 0
    letters = re.sub(r"[^a-z]", "", word.lower())
    runs = len(_VOWEL_RUN_RE.findall(letters))
    if letters.endswith("e"):
        runs -= 1
    return max(runs, 1)


def complexity(text: str) -> float | None:
    """Reading-ease score 206.835 - 1.015 (words/sentences)
    - 84.6 (syllables/words), clamped to [0, 100].

    Sentences split on runs of ``.!?``; words on whitespace; syllables via
    :func:`count_syllables`.  Empty text yields None, not zero.
    """
    if not text.strip():
        return None
    words = text.split()
    sentences = sum(1 for part in _SENTENCE_RE.split(text) if part.strip()) or 1
    syllables = sum(count_syllables(word) for word in words)
    score = 206.835 - 1.015 * (len(words) / sentences) - 84.6 * (syllables / len(words))
    return min(max(score, 0.0), 100.0)


def load_lexicon(path: str | Path) -> dict[str, float]:
    """Polarity lexicon TSV ``token <tab> polarity`` with polarity in [-1, 1].

    Tokens match case-insensitively, so a token listed twice, in any case,
    is a ParseError."""
    path = Path(path)
    lexicon: dict[str, float] = {}
    first_lines: dict[str, int] = {}
    for lineno, line in read_lines(path, comments=True):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'token<TAB>polarity'")
        token, polarity_text = parts
        try:
            polarity = float(polarity_text)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: invalid polarity {polarity_text!r}") from None
        if not -1.0 <= polarity <= 1.0:
            raise ParseError(f"{path}:{lineno}: polarity {polarity} outside [-1, 1]")
        token = token.lower()
        check_unique(first_lines, token, path, lineno, "token", ParseError)
        lexicon[token] = polarity
    return lexicon


def activation(text: str, lexicon: Mapping[str, float]) -> float:
    """Absolute mean polarity of the lexicon-matched tokens, in [0, 1].

    Every token occurrence counts; text without a single match scores 0.
    """
    matched = [lexicon[token] for token in tokenize(text) if token in lexicon]
    if not matched:
        return 0.0
    return abs(math.fsum(matched) / len(matched))


@dataclass(frozen=True)
class GazetteerEntry:
    canonical_id: str
    kind: str  # "person" | "party"
    aliases: tuple[str, ...]
    is_political: bool
    in_knowledge_base: bool


class Gazetteer:
    """Alias table for entity tagging; aliases are matched case-insensitively
    on word boundaries, every occurrence counting as one mention."""

    def __init__(self, entries: Sequence[GazetteerEntry]):
        self.entries = tuple(entries)
        self._by_id = {entry.canonical_id: entry for entry in self.entries}
        if len(self._by_id) < len(self.entries):
            raise ParseError("duplicate gazetteer ids")
        # A match of \b<alias>\b for an alias opening with a word character
        # starts where one of the text's \w+ runs equals the alias's leading
        # \w+ run (its lead word), so patterns are indexed by lead word.
        # Aliases opening with any other character are always tried.
        self._by_lead: dict[str, list[tuple[int, re.Pattern[str]]]] = {}
        self._unindexed: list[tuple[int, re.Pattern[str]]] = []
        for index, entry in enumerate(self.entries):
            for alias in entry.aliases:
                pattern = re.compile(r"\b" + re.escape(alias) + r"\b")
                lead = _WORD_RE.match(alias)
                if lead is None:
                    self._unindexed.append((index, pattern))
                else:
                    self._by_lead.setdefault(lead.group(), []).append((index, pattern))

    def mention_counts(self, text: str) -> dict[str, int]:
        """Mentions per canonical id, in gazetteer order; ids without a match
        are omitted."""
        lowered = text.lower()
        candidates = list(self._unindexed)
        for word in set(_WORD_RE.findall(lowered)):
            candidates.extend(self._by_lead.get(word, ()))
        mentions: dict[int, int] = {}
        for index, pattern in candidates:
            found = len(pattern.findall(lowered))
            if found:
                mentions[index] = mentions.get(index, 0) + found
        return {self.entries[index].canonical_id: mentions[index] for index in sorted(mentions)}


def load_gazetteer(path: str | Path) -> Gazetteer:
    """Gazetteer JSON lines: ``{"canonical_id", "kind", "aliases",
    "is_political", "in_knowledge_base"}``."""
    path = Path(path)
    entries = []
    first_lines: dict[str, int] = {}
    for record in read_records(path):
        canonical_id = record.get("canonical_id", str)
        kind = record.get("kind", str, None)
        if kind not in ("person", "party"):
            raise ParseError(f"{record.where}: kind must be 'person' or 'party', got {kind!r}")
        aliases = [alias.lower() for alias in record.get("aliases", list, [])]
        if not aliases or not all(aliases):
            raise ParseError(f"{record.where}: aliases must be non-empty")
        check_unique(first_lines, canonical_id, path, record.lineno, "gazetteer id", ParseError)
        entries.append(
            GazetteerEntry(
                canonical_id=canonical_id,
                kind=kind,
                aliases=tuple(aliases),
                is_political=record.get("is_political", bool, False),
                in_knowledge_base=record.get("in_knowledge_base", bool, False),
            )
        )
    return Gazetteer(entries)


def tag_entities(text: str, gazetteer: Gazetteer) -> tuple[frozenset[str], int, int]:
    """(political actor ids, minority mentions, majority mentions) for a text.

    Actors are the matched entries flagged political, as a set.  Matched
    person entries count their mentions toward the majority tally when they
    are in the knowledge base, toward the minority tally otherwise.
    """
    counts = gazetteer.mention_counts(text)
    actors = set()
    minority = 0
    majority = 0
    for canonical_id, mentions in counts.items():
        entry = gazetteer._by_id[canonical_id]
        if entry.is_political:
            actors.add(entry.canonical_id)
        if entry.kind == "person":
            if entry.in_knowledge_base:
                majority += mentions
            else:
                minority += mentions
    return frozenset(actors), minority, majority


def _tf_idf_vector(tokens: Sequence[str], idf: Mapping[str, float]) -> dict[str, float]:
    counts: dict[str, int] = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    vector = {token: count * idf[token] for token, count in counts.items() if token in idf}
    norm = math.sqrt(math.fsum(value * value for value in vector.values()))
    if norm == 0.0:
        return {}
    return {token: value / norm for token, value in vector.items()}


def _cosine(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    if len(b) < len(a):
        a, b = b, a
    return math.fsum(value * b[token] for token, value in a.items() if token in b)


class _Chain:
    __slots__ = ("chain_id", "vector_sum", "last_seen", "_centroid")

    def __init__(self, chain_id: str, last_seen: float):
        self.chain_id = chain_id
        self.vector_sum: dict[str, float] = {}
        self.last_seen = last_seen
        self._centroid: dict[str, float] | None = None

    def centroid(self) -> dict[str, float]:
        """The normalised ``vector_sum``, kept until the next :meth:`absorb`."""
        if self._centroid is None:
            norm = math.sqrt(math.fsum(value * value for value in self.vector_sum.values()))
            if norm == 0.0:
                self._centroid = {}
            else:
                self._centroid = {token: value / norm for token, value in self.vector_sum.items()}
        return self._centroid

    def absorb(self, vector: Mapping[str, float], seen: float) -> None:
        for token, value in vector.items():
            self.vector_sum[token] = self.vector_sum.get(token, 0.0) + value
        self.last_seen = max(self.last_seen, seen)
        self._centroid = None


def check_chaining(tau: float, window_seconds: float) -> None:
    """Reject a cosine threshold outside (0, 1] and a negative or NaN window."""
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    if not window_seconds >= 0.0:
        raise ValueError(f"chaining window must be >= 0 seconds, got {window_seconds}")


def chain_articles(
    articles: Sequence[Article],
    tau: float = DEFAULT_TAU,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
) -> dict[str, str]:
    """Greedy single-pass story chaining over time-ordered articles.

    Each article joins the chain with the highest centroid cosine, provided
    the cosine reaches ``tau`` and the chain was last extended within the
    moving window (default three days); otherwise it opens a new chain.
    TF-IDF vectors use smoothed IDF over the full list passed in, so the
    caller should pass the whole catalog, sorted by timestamp ascending.
    Returns article id -> chain id.
    """
    check_chaining(tau, window_seconds)
    document_tokens = {article.id: tokenize(article.text()) for article in articles}
    frequency: dict[str, int] = {}
    for tokens in document_tokens.values():
        for token in set(tokens):
            frequency[token] = frequency.get(token, 0) + 1
    total = len(articles)
    idf = {token: math.log((1 + total) / (1 + df)) + 1.0 for token, df in frequency.items()}

    chains: list[_Chain] = []
    holders: dict[str, list[int]] = {}  # token -> positions of the chains holding it
    assignment: dict[str, str] = {}
    for article in articles:
        vector = _tf_idf_vector(document_tokens[article.id], idf)
        when = article.published_at if article.published_at is not None else 0.0
        # A chain sharing no token scores fsum([]) == 0.0, which never beats
        # best_score, so only the holders of the article's tokens are scored.
        # Creation order keeps the first-created chain winning ties.
        candidates: set[int] = set()
        for token in vector:
            candidates.update(holders.get(token, ()))
        best: int | None = None
        best_score = 0.0
        for position in sorted(candidates):
            chain = chains[position]
            if when - chain.last_seen > window_seconds:
                continue
            score = _cosine(vector, chain.centroid())
            if score > best_score:
                best, best_score = position, score
        if best is None or best_score < tau:
            best = len(chains)
            chains.append(_Chain(f"chain_{best + 1:06d}", when))
        chain = chains[best]
        for token in vector:
            if token not in chain.vector_sum:
                holders.setdefault(token, []).append(best)
        chain.absorb(vector, when)
        assignment[article.id] = chain.chain_id
    return assignment


def assign_missing_timestamps(corpus: Corpus, impressions: Iterable[ImpressionLog]) -> Corpus:
    """Give articles without a publication time the time of their earliest
    impression appearance, so story chaining can place them."""
    earliest: dict[str, float] = {}
    for impression in impressions:
        for article_id in impression.candidate_ids + impression.history:
            seen = earliest.get(article_id)
            if seen is None or impression.time < seen:
                earliest[article_id] = impression.time
    for article in list(corpus):
        if article.published_at is None and article.id in earliest:
            corpus.update(replace(article, published_at=earliest[article.id]))
    return corpus


def enrich_corpus(
    corpus: Corpus,
    lexicon: Mapping[str, float] | None = None,
    gazetteer: Gazetteer | None = None,
    tau: float = DEFAULT_TAU,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    impressions: Iterable[ImpressionLog] | None = None,
) -> Corpus:
    """Fill the computed enrichment fields of every article in place.

    Articles with empty text keep complexity and activation absent.  Without
    a lexicon, activation stays absent; without a gazetteer, entity fields
    stay at their empty defaults.  Articles that end up without any
    timestamp cannot be chained and are counted as warnings.
    """
    if impressions is not None:
        assign_missing_timestamps(corpus, impressions)

    dated = [article for article in corpus if article.published_at is not None]
    dated.sort(key=lambda article: article.published_at)
    chain_of = chain_articles(dated, tau=tau, window_seconds=window_seconds)
    undated = len(corpus) - len(dated)
    if undated:
        corpus.warn(f"{undated} article(s) lack a timestamp and were not chained")

    for article in list(corpus):
        text = article.text()
        fields: dict[str, object] = {
            "complexity": complexity(text),
            "chain_id": chain_of.get(article.id),
        }
        if lexicon is not None and text:
            fields["activation"] = activation(text, lexicon)
        if gazetteer is not None:
            actors, minority, majority = tag_entities(text, gazetteer)
            fields.update(
                political_actors=actors,
                minority_mentions=minority,
                majority_mentions=majority,
            )
        corpus.update(replace(article, **fields))
    return corpus


_SIDECAR_FIELDS = {
    **dict.fromkeys(("complexity", "activation"), float),
    **dict.fromkeys(("minority_mentions", "majority_mentions"), int),
    "chain_id": str,
    "political_actors": list,
}


def load_sidecar(path: str | Path, corpus: Corpus) -> Corpus:
    """Override enrichment fields from a JSON-lines sidecar.

    Records carry ``id`` plus any subset of the enrichment fields; present
    fields replace computed values, absent or null fields stay untouched.  A
    field of the wrong type is an error; records for unknown ids or with
    out-of-range values are rejected with a warning.
    """
    path = Path(path)
    for record in read_records(path):
        article_id = record.get("id", str)
        overrides = {}
        for name, kind in _SIDECAR_FIELDS.items():
            value = record.get(name, kind, None)
            if value is not None:
                overrides[name] = frozenset(value) if kind is list else value
        if article_id not in corpus:
            corpus.warn(f"{record.where}: sidecar record for unknown article {article_id!r} skipped")
            continue
        if not overrides:
            continue
        try:
            updated = replace(corpus[article_id], **overrides)
        except ValidationError as exc:
            corpus.warn(f"{record.where}: record for {article_id!r} rejected ({exc})")
            continue
        corpus.update(updated)
    return corpus


def dump_enriched(corpus: Corpus, path: str | Path) -> None:
    """Write the enriched catalog as JSON lines: every ``Article`` field, one
    article per input-order row; byte-stable for identical inputs.  The
    output doubles as a sidecar."""
    write_records(
        path,
        ({**vars(article), "political_actors": sorted(article.political_actors)} for article in corpus),
    )
