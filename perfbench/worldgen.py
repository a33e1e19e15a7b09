"""Seeded synthetic worlds for the benchmark.

A world is the set of input files newsdiv reads (catalog, bodies, behaviors,
lexicon, gazetteer and, on one workload, an external rankings file) plus a
``truth.json`` with the planted ground truth that only the output check
reads.  The same (workload, seed) pair always gives byte-identical files.

Text is built from pseudo-words so that every planted fact is exact:

* Every article belongs to one hidden story event and draws most of its
  words from that event's topic words, so story chaining has real clusters
  to find instead of one chain per article.
* Gazetteer aliases are two-word names whose words occur nowhere else, so
  an article's actors and minority/majority mention counts are known.
* Lexicon, alias and vocabulary words come from disjoint pools.
* Some histories are empty and some candidate pools are actor-free, so the
  skip paths of the calibration, representation and voice metrics run.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

BASE_TIME = 1573344000.0  # 2019-11-10T00:00:00Z
DAY = 86400.0
UNDATED_SHARE = 0.02  # articles whose time comes from the impression log
EMPTY_HISTORY_SHARE = 0.08
ACTOR_FREE_POOL_SHARE = 0.1

_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload's world."""

    articles: int
    events: int
    vocabulary: int
    event_words: int
    gazetteer: int
    lexicon: int
    impressions: int
    candidates: int
    history_max: int
    span_days: float  # articles are published inside [0, span_days)
    external: bool = False


SHAPES = {
    "log": Shape(
        articles=300, events=30, vocabulary=2000, event_words=12, gazetteer=40, lexicon=150,
        impressions=1200, candidates=15, history_max=10, span_days=10.0, external=True,
    ),
    "catalog": Shape(
        articles=600, events=80, vocabulary=5000, event_words=12, gazetteer=300,
        lexicon=300, impressions=300, candidates=10, history_max=5, span_days=2.5,
    ),
}


def _syllable(rng: random.Random) -> str:
    coda = rng.choice(_CONSONANTS) if rng.random() < 0.3 else ""
    return rng.choice(_CONSONANTS) + rng.choice(_VOWELS) + coda


def _word_pool(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct pseudo-words of one to three syllables, so that
    reading-ease scores spread over several complexity bins."""
    words: set[str] = set()
    ordered = []
    while len(ordered) < count:
        syllables = rng.choices((1, 2, 3), weights=(0.45, 0.35, 0.2))[0]
        word = "".join(_syllable(rng) for _ in range(syllables))
        if word not in words:
            words.add(word)
            ordered.append(word)
    return ordered


def _sentence(words: list[str]) -> str:
    return " ".join(words).capitalize() + "."


def generate(root: Path, workload: str, seed: int, shape: Shape | None = None) -> dict[str, Path]:
    """Write the world for ``workload`` and ``seed`` under ``root``.

    ``shape`` overrides the workload's sizes (the benchmark's tests use
    small shapes).  Returns the paths of the written files by role.
    """
    shape = shape or SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    root.mkdir(parents=True, exist_ok=True)

    alias_words = 4 * shape.gazetteer
    pool = _word_pool(rng, shape.vocabulary + shape.lexicon + alias_words)
    vocabulary = pool[: shape.vocabulary]
    lexicon_words = pool[shape.vocabulary : shape.vocabulary + shape.lexicon]
    names = pool[shape.vocabulary + shape.lexicon :]

    lexicon = {word: round(rng.uniform(-1.0, 1.0), 3) for word in lexicon_words}

    entries = []
    for index in range(shape.gazetteer):
        first, last, title, other = names[4 * index : 4 * index + 4]
        aliases = [f"{first} {last}"]
        if index % 5 < 2:
            aliases.append(f"{title} {other}")
        entries.append(
            {
                "canonical_id": f"G{index:05d}",
                "kind": "person" if rng.random() < 0.7 else "party",
                "aliases": aliases,
                "is_political": rng.random() < 0.6,
                "in_knowledge_base": rng.random() < 0.5,
            }
        )

    subcategories = [
        ("news", "politics"), ("news", "world"), ("news", "local"), ("finance", "markets"),
        ("finance", "economy"), ("sports", "soccer"), ("sports", "tennis"), ("culture", "cinema"),
        ("culture", "music"), ("travel", "trips"), ("health", "medicine"), ("science", "space"),
    ]
    events = []
    for index in range(shape.events):
        events.append(
            {
                "words": rng.sample(vocabulary, shape.event_words),
                "section": rng.choice(subcategories),
                "cast": rng.sample(range(shape.gazetteer), min(3, shape.gazetteer)),
                "start": rng.uniform(0.0, max(shape.span_days - 1.0, 0.0)) * DAY,
            }
        )

    articles = []
    for index in range(shape.articles):
        event = events[rng.randrange(shape.events)]
        article_id = f"N{index:05d}"
        mentions: dict[int, int] = {}
        if rng.random() < 0.6:
            for _ in range(rng.randint(1, 3)):
                entry = rng.choice(event["cast"]) if rng.random() < 0.7 else rng.randrange(shape.gazetteer)
                mentions[entry] = mentions.get(entry, 0) + rng.randint(1, 2)
        planted = [entry for entry, count in sorted(mentions.items()) for _ in range(count)]
        rng.shuffle(planted)

        sentences = []
        for _ in range(rng.randint(3, 7)):
            length = rng.randint(5, 18)
            words = []
            for _ in range(length):
                draw = rng.random()
                if draw < 0.6:
                    words.append(rng.choice(event["words"]))
                elif draw < 0.9:
                    words.append(rng.choice(vocabulary))
                else:
                    words.append(rng.choice(lexicon_words))
            sentences.append(words)
        for entry in planted:
            alias = rng.choice(entries[entry]["aliases"])
            sentences[rng.randrange(len(sentences))].append(alias.title())
        body = " ".join(_sentence(words) for words in sentences)
        title = " ".join(rng.sample(event["words"], 4)).capitalize()
        abstract = _sentence(rng.sample(event["words"], 6))

        if rng.random() < UNDATED_SHARE:
            published = None
        else:
            published = BASE_TIME + min(event["start"] + rng.uniform(0.0, 1.5) * DAY, shape.span_days * DAY - 1.0)
            published = round(published, 1)
        category, subcategory = event["section"]
        articles.append(
            {
                "id": article_id,
                "category": category,
                "subcategory": subcategory,
                "title": title,
                "abstract": abstract,
                "body": body,
                "published_at": published,
                "mentions": mentions,
            }
        )

    actor_free = [article["id"] for article in articles if not article["mentions"]]
    all_ids = [article["id"] for article in articles]
    popularity = {article_id: 1.0 / (1 + rank) for rank, article_id in enumerate(rng.sample(all_ids, len(all_ids)))}

    impressions = []
    for index in range(shape.impressions):
        source = actor_free if rng.random() < ACTOR_FREE_POOL_SHARE else all_ids
        candidates = rng.sample(source, shape.candidates)
        weights = [popularity[article_id] for article_id in candidates]
        clicked = set(rng.choices(candidates, weights=weights, k=rng.randint(1, 2)))
        if rng.random() < EMPTY_HISTORY_SHARE:
            history = []
        else:
            history = rng.sample(all_ids, rng.randint(1, shape.history_max))
        when = BASE_TIME + rng.uniform(0.0, shape.span_days) * DAY
        impressions.append(
            {
                "id": f"I{index:06d}",
                "user": f"U{rng.randrange(max(shape.impressions // 3, 1)):05d}",
                "time": int(when),
                "history": history,
                "candidates": [(article_id, article_id in clicked) for article_id in candidates],
            }
        )

    paths = {
        "news": root / "news.tsv",
        "bodies": root / "bodies.jsonl",
        "behaviors": root / "behaviors.tsv",
        "lexicon": root / "lexicon.tsv",
        "gazetteer": root / "gazetteer.jsonl",
        "truth": root / "truth.json",
    }
    with open(paths["news"], "w", encoding="utf-8", newline="\n") as handle:
        for article in articles:
            row = [article["id"], article["category"], article["subcategory"], article["title"], article["abstract"]]
            handle.write("\t".join(row + [f"https://example.org/{article['id']}"]) + "\n")
    with open(paths["bodies"], "w", encoding="utf-8", newline="\n") as handle:
        for article in articles:
            record = {"id": article["id"], "body": article["body"], "published_at": article["published_at"]}
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    with open(paths["behaviors"], "w", encoding="utf-8", newline="\n") as handle:
        for impression in impressions:
            stamp = _iso(impression["time"])
            tokens = " ".join(f"{article_id}-{int(clicked)}" for article_id, clicked in impression["candidates"])
            row = [impression["id"], impression["user"], stamp, " ".join(impression["history"]), tokens]
            handle.write("\t".join(row) + "\n")
    with open(paths["lexicon"], "w", encoding="utf-8", newline="\n") as handle:
        for word, polarity in lexicon.items():
            handle.write(f"{word}\t{polarity}\n")
    with open(paths["gazetteer"], "w", encoding="utf-8", newline="\n") as handle:
        for entry in entries:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    if shape.external:
        paths["external"] = root / "rankings.jsonl"
        with open(paths["external"], "w", encoding="utf-8", newline="\n") as handle:
            for impression in impressions:
                ranked = [article_id for article_id, _ in impression["candidates"]]
                scores = {article_id: rng.random() + popularity[article_id] for article_id in ranked}
                ranked.sort(key=lambda article_id: (-scores[article_id], article_id))
                record = {"impression_id": impression["id"], "user_id": impression["user"], "ranked_item_ids": ranked}
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    truth = {"articles": {}}
    for article in articles:
        actors = sorted(
            entries[entry]["canonical_id"] for entry in article["mentions"] if entries[entry]["is_political"]
        )
        minority = majority = 0
        for entry, count in article["mentions"].items():
            if entries[entry]["kind"] == "person":
                if entries[entry]["in_knowledge_base"]:
                    majority += count
                else:
                    minority += count
        truth["articles"][article["id"]] = {
            "political_actors": actors,
            "minority_mentions": minority,
            "majority_mentions": majority,
        }
    with open(paths["truth"], "w", encoding="utf-8", newline="\n") as handle:
        json.dump(truth, handle, sort_keys=True)
        handle.write("\n")
    return paths


def _iso(epoch: int) -> str:
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
