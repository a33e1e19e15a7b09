"""Per-article metadata: reading ease, sentiment activation, story chains and
entity-derived fields.

Everything here is deterministic and model-free: a closed-form readability
formula, a polarity lexicon, TF-IDF cosine chaining and gazetteer alias
matching.  A sidecar file can override any computed field with the output of
a stronger external pipeline.
"""
from __future__ import annotations

import functools
import math
import re
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

from .corpus import (COMPLEXITY_TOP, Article, Corpus, ImpressionLog, at_line, check_unique, id_table, read_lines,
                     read_records, write_records)
from .errors import ParseError, ValidationError

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_WORD_RE = re.compile(r"\w+")
_SENTENCE_RE = re.compile(r"[.!?]+")
_VOWEL_RUN_RE = re.compile(r"[aeiouy]+")
_NON_LETTER_RE = re.compile(r"[^a-z]")

DEFAULT_TAU = 0.5
DEFAULT_WINDOW_SECONDS = 3 * 86400.0


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def count_syllables(word: str) -> int:
    """Vowel-group heuristic: maximal aeiouy runs, one dropped for a silent
    trailing 'e', never below one per word."""
    if not word:
        return 0
    letters = _NON_LETTER_RE.sub("", word.lower())
    runs = len(_VOWEL_RUN_RE.findall(letters))
    if letters.endswith("e"):
        runs -= 1
    return max(runs, 1)


def complexity(text: str, syllables: Callable[[str], int] = count_syllables) -> float | None:
    """Reading-ease score 206.835 - 1.015 (words/sentences)
    - 84.6 (syllables/words), clamped to [0, 100].

    Sentences split on runs of ``.!?``; words on whitespace; syllables via
    ``syllables``, :func:`count_syllables` or a memo of it.  Empty text
    yields None, not zero.
    """
    if not text.strip():
        return None
    words = text.split()
    sentences = sum(1 for part in _SENTENCE_RE.split(text) if part.strip()) or 1
    syllable_count = sum(map(syllables, words))
    score = 206.835 - 1.015 * (len(words) / sentences) - 84.6 * (syllable_count / len(words))
    return min(max(score, 0.0), COMPLEXITY_TOP)


def load_lexicon(path: str | Path) -> dict[str, float]:
    """Polarity lexicon TSV ``token <tab> polarity`` with polarity in [-1, 1].

    Tokens match case-insensitively, so a token listed twice, in any case,
    is a ParseError.  So is a token that, lower-cased, is not one run of
    ``[a-z0-9]``: :func:`tokenize` yields no other tokens, so it could never
    match."""
    path = Path(path)
    lexicon: dict[str, float] = {}
    first_lines: dict[str, int] = {}
    for lineno, line in read_lines(path, comments=True):
        with at_line(path, lineno):
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError("expected 'token<TAB>polarity'")
            token, polarity_text = parts
            try:
                polarity = float(polarity_text)
            except ValueError:
                raise ParseError(f"invalid polarity {polarity_text!r}") from None
            if not -1.0 <= polarity <= 1.0:
                raise ParseError(f"polarity {polarity} outside [-1, 1]")
            if not _TOKEN_RE.fullmatch(token.lower()):
                raise ParseError(f"token {token!r} is not one run of [a-z0-9] and can never match")
            token = token.lower()
            check_unique(first_lines, token, lineno, "token", ParseError)
        lexicon[token] = polarity
    return lexicon


def activation(text: str, lexicon: Mapping[str, float]) -> float:
    """Absolute mean polarity of the lexicon-matched tokens, in [0, 1].

    Every token occurrence counts; text without a single match scores 0.
    """
    return _activation(tokenize(text), lexicon)


def _activation(tokens: Iterable[str], lexicon: Mapping[str, float]) -> float:
    """:func:`activation` over a text's ``tokens``."""
    matched = [lexicon[token] for token in tokens if token in lexicon]
    if not matched:
        return 0.0
    return abs(math.fsum(matched) / len(matched))


@dataclass(frozen=True)
class GazetteerEntry:
    """One gazetteer entry, from code or :func:`load_gazetteer`: a non-string
    or empty id, a kind other than ``person`` or ``party``, aliases other than
    a non-empty sequence of non-empty strings, or a non-bool flag is a ParseError."""

    canonical_id: str
    kind: str  # "person" | "party"
    aliases: tuple[str, ...]
    is_political: bool
    in_knowledge_base: bool

    def __post_init__(self) -> None:
        if not isinstance(self.canonical_id, str):
            raise ParseError(f"canonical_id must be a string, got {self.canonical_id!r:.60}")
        if not self.canonical_id:
            raise ParseError("empty 'canonical_id'")
        if self.kind not in ("person", "party"):
            raise ParseError(f"kind must be 'person' or 'party', got {self.kind!r}")
        if isinstance(self.aliases, str) or not isinstance(self.aliases, Sequence) or any(
                not isinstance(alias, str) for alias in self.aliases):
            raise ParseError(f"aliases must be a sequence of strings, got {self.aliases!r:.60}")
        if not self.aliases or not all(self.aliases):
            raise ParseError("aliases must be non-empty")
        if not isinstance(self.is_political, bool) or not isinstance(self.in_knowledge_base, bool):
            raise ParseError("is_political and in_knowledge_base must be bools")


class Gazetteer:
    """Alias table for entity tagging: aliases match case-insensitively
    where no word character adjoins them, each occurrence one mention; of
    overlapping matches, only the leftmost, longest one counts.  An id, or
    an alias (case folded), listed twice is a ParseError."""

    def __init__(self, entries: Sequence[GazetteerEntry]):
        self.entries = tuple(entries)
        # No word character adjoins a match, so an alias's first \w+ run (its
        # lead word) is one of the text's \w+ runs: aliases are indexed by
        # lead word.  Aliases without a word character are always tried.
        self._by_lead: dict[str, list[tuple[int, str]]] = {}
        self._unindexed: list[tuple[int, str]] = []
        self._by_id: dict[str, GazetteerEntry] = {}
        seen: set[str] = set()
        for index, entry in enumerate(self.entries):
            if self._by_id.setdefault(entry.canonical_id, entry) is not entry:
                raise ParseError(f"duplicate gazetteer id {entry.canonical_id!r}")
            for alias in entry.aliases:
                alias = alias.lower()
                if alias in seen:
                    raise ParseError(f"duplicate alias {alias!r}")
                seen.add(alias)
                lead = _WORD_RE.search(alias)
                if lead:
                    self._by_lead.setdefault(lead.group(), []).append((index, alias))
                else:
                    self._unindexed.append((index, alias))

    def mention_counts(self, text: str) -> dict[str, int]:
        """Mentions per canonical id, in gazetteer order; ids without a match
        are omitted."""
        lowered = text.lower()
        candidates = list(self._unindexed)
        for word in set(_WORD_RE.findall(lowered)):
            candidates.extend(self._by_lead.get(word, ()))
        # Every occurrence of a candidate that no word character adjoins, as
        # (start, -length, entry index): sorted, the leftmost, longest comes first.
        found = []
        for index, alias in candidates:
            start = lowered.find(alias)
            while start >= 0:
                end = start + len(alias)
                if not (start and _WORD_RE.match(lowered, start - 1, start) or _WORD_RE.match(lowered, end, end + 1)):
                    found.append((start, -len(alias), index))
                start = lowered.find(alias, start + 1)
        mentions: dict[int, int] = {}
        counted_end = 0
        for start, negative_length, index in sorted(found):
            if start >= counted_end:
                mentions[index] = mentions.get(index, 0) + 1
                counted_end = start - negative_length
        return {self.entries[index].canonical_id: mentions[index] for index in sorted(mentions)}


def load_gazetteer(path: str | Path) -> Gazetteer:
    """Gazetteer JSON lines ``{"canonical_id", "kind", "aliases",
    "is_political", "in_knowledge_base"}``, each checked by
    :class:`GazetteerEntry` (its ParseError gains the line).  An id, or an
    alias in any case, listed twice is a ParseError naming both lines: an
    alias would count each mention once per listing."""
    path = Path(path)
    entries = []
    first_lines: dict[str, int] = {}
    alias_lines: dict[str, int] = {}
    for record in read_records(path):
        with at_line(path, record.lineno):
            fields = (record.get("canonical_id", str), record.get("kind", str, None))
            aliases = tuple(record.get("aliases", list, []))
            flags = (record.get("is_political", bool, False), record.get("in_knowledge_base", bool, False))
            entry = GazetteerEntry(*fields, aliases, *flags)
            check_unique(first_lines, entry.canonical_id, record.lineno, "gazetteer id", ParseError)
            for alias in entry.aliases:
                check_unique(alias_lines, alias.lower(), record.lineno, "alias", ParseError)
        entries.append(entry)
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


class _Chain:
    __slots__ = ("chain_id", "vector_sum", "last_seen", "_norm")

    def __init__(self, chain_id: str, last_seen: float):
        self.chain_id = chain_id
        self.vector_sum: dict[str, float] = {}
        self.last_seen = last_seen
        self._norm: float | None = None

    def norm(self) -> float:
        """The Euclidean norm of ``vector_sum``, kept until the next
        :meth:`absorb`; the centroid is ``vector_sum`` divided by it."""
        if self._norm is None:
            self._norm = math.sqrt(math.fsum([value * value for value in self.vector_sum.values()]))
        return self._norm

    def absorb(self, vector: Mapping[str, float], seen: float) -> None:
        for token, value in vector.items():
            self.vector_sum[token] = self.vector_sum.get(token, 0.0) + value
        self.last_seen = max(self.last_seen, seen)
        self._norm = None


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
    return _chain(articles, _document_tokens(articles), tau, window_seconds)


def _document_tokens(articles: Iterable[Article]) -> dict[str, list[str]]:
    """Article id -> the tokens of its text.  Every occurrence of a token maps
    to one string, so the token lists, and chaining's vectors, chain sums and
    ``holders`` built from them, grow with the vocabulary, not with the
    occurrences."""
    canonical = id_table()
    return {article.id: list(map(canonical, tokenize(article.text()))) for article in articles}


def _chain(
    articles: Sequence[Article], document_tokens: Mapping[str, list[str]], tau: float, window_seconds: float
) -> dict[str, str]:
    """:func:`chain_articles` over ``articles``, each tokenized in ``document_tokens``."""
    check_chaining(tau, window_seconds)
    idf: dict[str, float] = {}  # document frequencies, then their IDF in place
    for article in articles:
        for token in set(document_tokens[article.id]):
            idf[token] = idf.get(token, 0) + 1
    total = len(articles)
    for token, df in idf.items():
        idf[token] = math.log((1 + total) / (1 + df)) + 1.0

    chains: list[_Chain] = []
    holders: dict[str, list[int]] = {}  # token -> positions of the chains holding it
    assignment: dict[str, str] = {}
    for article in articles:
        vector = _tf_idf_vector(document_tokens[article.id], idf)
        when = article.published_at if article.published_at is not None else 0.0
        # The cosine with a chain is the fsum of one product per article
        # token the chain holds, with vector_sum[token] / norm as the
        # centroid's entry, so products are gathered token by token from the
        # index.  A chain sharing no token would score fsum([]) == 0.0, which
        # never beats best_score.  Each chain's window is tested once per
        # article; None marks a chain outside it.  A chain in the index holds
        # a positive entry, so its norm is positive.
        scoring: dict[int, tuple[dict[str, float], float, list[float]] | None] = {}
        for token, value in vector.items():
            for position in holders.get(token, ()):
                if position in scoring:
                    entry = scoring[position]
                else:
                    chain = chains[position]
                    entry = scoring[position] = (
                        None if when - chain.last_seen > window_seconds
                        else (chain.vector_sum, chain.norm(), [])
                    )
                if entry is not None:
                    vector_sum, norm, products = entry
                    products.append(value * (vector_sum[token] / norm))
        # Creation order keeps the first-created chain winning ties.
        best: int | None = None
        best_score = 0.0
        for position in sorted(scoring):
            entry = scoring[position]
            if entry is not None:
                score = math.fsum(entry[2])
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

    # Chaining is greedy, so ties (the norm for stamps taken from impressions)
    # are broken by id, never by the catalog's line order.
    dated = [article for article in corpus if article.published_at is not None]
    dated.sort(key=lambda article: (article.published_at, article.id))
    tokens = _document_tokens(corpus)  # one token list per article, for chaining and activation
    chain_of = _chain(dated, tokens, tau, window_seconds)
    undated = len(corpus) - len(dated)
    if undated:
        corpus.warn(f"{undated} article(s) lack a timestamp and were not chained")

    syllables = functools.cache(count_syllables)  # one count per distinct word of this run
    for article in list(corpus):
        text = article.text()
        words = tokens.pop(article.id)
        fields: dict[str, object] = {
            "complexity": complexity(text, syllables),
            "chain_id": chain_of.get(article.id),
        }
        if lexicon is not None and text:
            fields["activation"] = _activation(words, lexicon)
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
        with at_line(path, record.lineno):
            article_id = record.get("id", str)
            overrides = {}
            for name, kind in _SIDECAR_FIELDS.items():
                value = record.get(name, kind, None)
                if value is not None:
                    overrides[name] = frozenset(value) if kind is list else value
        if article_id not in corpus:
            corpus.warn(f"{path}:{record.lineno}: sidecar record for unknown article {article_id!r} skipped")
            continue
        try:
            updated = replace(corpus[article_id], **overrides)
        except ValidationError as exc:
            corpus.warn(f"{path}:{record.lineno}: record for {article_id!r} rejected ({exc})")
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
