"""Shared fixtures: the small committed corpus and a larger generated world
with a popularity-skewed category, used by the end-to-end and acceptance
tests.  All generation is seeded, so every session sees identical files."""
from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"

SENTIMENT_WORDS = ["great", "good", "terrible", "awful", "win", "crisis", "warm", "quiet"]
NEUTRAL_WORDS = [
    "council", "report", "street", "company", "river", "window", "meeting",
    "harbor", "garden", "season", "record", "market", "stadium", "museum",
]
ACTOR_ALIASES = ["ann kovac", "raul ortiz", "mei tanaka", "unity party", "reform bloc"]


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, exited or running,
    as the ResourceWarning filter fails one that leaves a file open."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left child process {pid} unreaped" if pid else "the test left a child process running")


@pytest.fixture(scope="session")
def fixture_paths() -> dict[str, Path]:
    return {
        "news": FIXTURES / "news.tsv",
        "bodies": FIXTURES / "bodies.jsonl",
        "behaviors": FIXTURES / "behaviors.tsv",
        "lexicon": FIXTURES / "lexicon.tsv",
        "gazetteer": FIXTURES / "gazetteer.jsonl",
        "sidecar": FIXTURES / "sidecar.jsonl",
        "recommendations": FIXTURES / "recommendations.jsonl",
    }


def _article_text(rng: random.Random, with_actor: bool) -> str:
    words = rng.sample(NEUTRAL_WORDS, 6) + [rng.choice(SENTIMENT_WORDS)]
    rng.shuffle(words)
    sentence_one = " ".join(words[:4]).capitalize() + "."
    sentence_two = " ".join(words[4:]).capitalize() + "."
    if with_actor:
        sentence_two += f" {rng.choice(ACTOR_ALIASES).title()} commented on it."
    return f"{sentence_one} {sentence_two}"


def build_synthetic_world(root: Path, n_users: int = 150, seed: int = 7) -> dict[str, Path]:
    """A catalog with one popular subcategory ("daily") plus four niche ones,
    reading histories concentrated on "daily", and impressions whose daily
    candidates are always the clicked ones, so click counts are skewed."""
    rng = random.Random(seed)
    root.mkdir(parents=True, exist_ok=True)

    articles = []
    for index in range(60):
        articles.append((f"D{index:03d}", "news", "daily"))
    for prefix, category, subcategory in (
        ("M", "finance", "market"),
        ("S", "sports", "soccer"),
        ("C", "culture", "cinema"),
        ("T", "travel", "trips"),
    ):
        for index in range(15):
            articles.append((f"{prefix}{index:03d}", category, subcategory))

    base_time = 1573344000.0  # three-day spread from here
    news_path = root / "news.tsv"
    bodies_path = root / "bodies.jsonl"
    with open(news_path, "w", encoding="utf-8", newline="\n") as news_file, open(
        bodies_path, "w", encoding="utf-8", newline="\n"
    ) as bodies_file:
        for position, (article_id, category, subcategory) in enumerate(articles):
            text = _article_text(rng, with_actor=rng.random() < 0.35)
            title = f"{subcategory} update {article_id}"
            news_file.write(
                "\t".join([article_id, category, subcategory, title, text, ""]) + "\n"
            )
            record = {
                "id": article_id,
                "body": text + " " + _article_text(rng, with_actor=False),
                "published_at": base_time + (position % 72) * 3600.0,
            }
            bodies_file.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")

    daily_ids = [article_id for article_id, _, sub in articles if sub == "daily"]
    niche_ids = [article_id for article_id, _, sub in articles if sub != "daily"]

    behaviors_path = root / "behaviors.tsv"
    with open(behaviors_path, "w", encoding="utf-8", newline="\n") as behaviors_file:
        for user_index in range(n_users):
            history = rng.sample(daily_ids, 7) + [rng.choice(niche_ids)]
            rng.shuffle(history)
            candidates = rng.sample(daily_ids, 5) + rng.sample(niche_ids, 5)
            rng.shuffle(candidates)
            tokens = [
                f"{article_id}-{1 if article_id in daily_ids else 0}"
                for article_id in candidates
            ]
            time_text = f"11/{10 + user_index % 3}/2019 {1 + user_index % 11}:{user_index % 60:02d}:00 AM"
            behaviors_file.write(
                "\t".join(
                    [
                        f"I{user_index:04d}",
                        f"U{user_index:04d}",
                        time_text,
                        " ".join(history),
                        " ".join(tokens),
                    ]
                )
                + "\n"
            )

    lexicon_path = root / "lexicon.tsv"
    polarities = {
        "great": 0.8, "good": 0.6, "terrible": -0.8, "awful": -0.7,
        "win": 0.5, "crisis": -0.6, "warm": 0.3, "quiet": 0.1,
    }
    with open(lexicon_path, "w", encoding="utf-8", newline="\n") as lexicon_file:
        for token, polarity in polarities.items():
            lexicon_file.write(f"{token}\t{polarity}\n")

    gazetteer_path = root / "gazetteer.jsonl"
    entries = [
        {"canonical_id": "A-KOVAC", "kind": "person", "aliases": ["ann kovac"],
         "is_political": True, "in_knowledge_base": True},
        {"canonical_id": "A-ORTIZ", "kind": "person", "aliases": ["raul ortiz"],
         "is_political": True, "in_knowledge_base": False},
        {"canonical_id": "A-TANAKA", "kind": "person", "aliases": ["mei tanaka"],
         "is_political": False, "in_knowledge_base": False},
        {"canonical_id": "B-UNITY", "kind": "party", "aliases": ["unity party"],
         "is_political": True, "in_knowledge_base": True},
        {"canonical_id": "B-REFORM", "kind": "party", "aliases": ["reform bloc"],
         "is_political": True, "in_knowledge_base": True},
    ]
    with open(gazetteer_path, "w", encoding="utf-8", newline="\n") as gazetteer_file:
        for entry in entries:
            gazetteer_file.write(json.dumps(entry, ensure_ascii=False, sort_keys=True) + "\n")

    return {
        "news": news_path,
        "bodies": bodies_path,
        "behaviors": behaviors_path,
        "lexicon": lexicon_path,
        "gazetteer": gazetteer_path,
    }


@pytest.fixture(scope="session")
def synthetic_world(tmp_path_factory) -> dict[str, Path]:
    return build_synthetic_world(tmp_path_factory.mktemp("world"))
