"""Writers for the catalog and behaviors formats, used by the tests for
loader round trips and for writing derived logs; the package itself only
reads these files."""
from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

from newsdiv.corpus import Corpus, ImpressionLog, write_lines, write_records


def format_time(epoch: float) -> str:
    """ISO-8601 UTC, microseconds only when present."""
    stamp = datetime.fromtimestamp(epoch, tz=timezone.utc)
    if stamp.microsecond:
        return stamp.strftime("%Y-%m-%dT%H:%M:%S.%f") + "Z"
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


def dump_catalog(corpus: Corpus, news_path: str | Path, bodies_path: str | Path) -> None:
    """Write the canonical catalog pair; re-parsing restores the raw fields."""
    write_lines(
        news_path,
        ("\t".join([article.id, article.category, article.subcategory, article.title, "", ""])
         for article in corpus),
    )
    write_records(
        bodies_path,
        ({"id": article.id, "body": article.body, "published_at": article.published_at}
         for article in corpus),
    )


def dump_behaviors(impressions: Iterable[ImpressionLog], path: str | Path) -> None:
    """Write behaviors in the canonical TSV; history goes back out oldest
    first so a round trip restores the stored orientation."""
    write_lines(path, map(_behaviors_line, impressions))


def _behaviors_line(impression: ImpressionLog) -> str:
    history = " ".join(reversed(impression.history))
    candidates = " ".join(
        f"{article_id}-{1 if clicked else 0}" for article_id, clicked in impression.candidates
    )
    time = format_time(impression.time)
    return "\t".join([impression.impression_id, impression.user_id, time, history, candidates])
