"""Aggregation and serialization of evaluation output.

Three files per run, keyed by ``evaluate.KEY_COLUMNS`` and written from
the ``rows`` of an ``evaluate.EvaluationResult``: one ``metrics.Rows`` per
configuration, walked in the mapping's (sorted) key order.

* ``report.json``: one aggregate row per ``CONFIG_COLUMNS`` value, numbers
  rounded to 4 decimals.
* ``samples.csv``: every individual divergence sample at full precision,
  RFC-4180 quoting, for external plotting or re-aggregation.
* ``skips.json``: per-configuration skip counts by reason.

All writers emit byte-identical output for identical input.
"""
from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import write_lines
from .evaluate import CONFIG_COLUMNS, KEY_COLUMNS
from .metrics import Rows, aggregate

SAMPLE_COLUMNS = (*KEY_COLUMNS, "sample")
_NUMBER_COLUMNS = {"cutoff": int, "sample": float}  # the others are strings


def aggregate_rows(rows: Mapping[tuple, Rows]) -> list[dict]:
    """The report rows: one per configuration that produced at least one
    sample, with its key columns, its rounded ``metrics.Aggregate`` and its
    skip count.

    Configurations where everything was skipped get no row; their counts
    remain visible in the skip report.
    """
    return [
        {
            **dict(zip(CONFIG_COLUMNS, key)),
            **{
                name: round(value, 4) if type(value) is float else value
                for name, value in asdict(aggregate(both.samples.values)).items()
            },
            "skips": len(both.skips.pair_ids),
        }
        for key, both in rows.items()
        if both.samples.pair_ids
    ]


def write_report(
    rows: Sequence[Mapping[str, object]],
    path: str | Path,
    config_echo: Mapping[str, object] | None = None,
) -> None:
    _write_json(path, {"config": dict(config_echo) if config_echo else {}, "rows": list(rows)})


def write_samples_csv(rows: Mapping[tuple, Rows], path: str | Path) -> None:
    """One line per sample, in the order of ``rows`` and of each
    configuration's samples.

    The lines are those of a ``csv.writer`` with ``QUOTE_MINIMAL``: each
    configuration's key columns are formatted by one once, and a pair id
    only if it holds a character that the writer might quote."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")

    def fields(*values: object) -> str:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow(values)
        return buffer.getvalue()[:-1]

    def lines():
        yield fields(*SAMPLE_COLUMNS)
        for key, both in rows.items():
            prefix = fields(*key)
            for pair_id, value in zip(*both.samples):
                yield f"{prefix},{fields(pair_id) if _quotable(pair_id) else pair_id},{value!r}"

    write_lines(path, lines())


def _quotable(text: str) -> bool:
    """Whether a ``csv.writer`` might quote ``text``."""
    return "," in text or '"' in text or "\r" in text or "\n" in text


def read_samples_csv(path: str | Path) -> list[tuple]:
    """Inverse of :func:`write_samples_csv`, for re-aggregation: the rows as
    ``EvaluationResult.samples`` gives them, ``(*KEY_COLUMNS, value)``."""
    with open(path, encoding="utf-8", newline="") as handle:
        return [
            tuple(_NUMBER_COLUMNS.get(name, str)(record[name]) for name in SAMPLE_COLUMNS)
            for record in csv.DictReader(handle)
        ]


def write_skips(rows: Mapping[tuple, Rows], path: str | Path) -> None:
    """The skip count of each configuration, in the order of ``rows``, and
    reason."""
    counts = [
        {**dict(zip(CONFIG_COLUMNS, key)), "reason": reason, "count": count}
        for key, both in rows.items()
        for reason, count in sorted(Counter(both.skips.values).items())
    ]
    _write_json(path, {"rows": counts})


def _write_json(path: str | Path, payload: Mapping[str, object]) -> None:
    write_lines(path, [json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2)])
