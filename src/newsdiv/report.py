"""Aggregation and serialization of evaluation output.

Three files per run, keyed by ``evaluate.KEY_COLUMNS``:

* ``report.json``: one aggregate row per ``CONFIG_COLUMNS`` value, numbers
  rounded to 4 decimals.
* ``samples.csv``: every individual divergence sample at full precision,
  RFC-4180 quoting, for external plotting or re-aggregation.
* ``skips.json``: per-configuration skip counts by reason.

All writers emit byte-identical output for identical input.
"""
from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from typing import Mapping, Sequence, get_type_hints

from .corpus import write_lines
from .evaluate import CONFIG_COLUMNS, KEY_COLUMNS, KeyedRow, SampleRow, SkipRow
from .metrics import aggregate

SAMPLE_COLUMNS = (*KEY_COLUMNS, "sample")


def aggregate_rows(samples: Sequence[SampleRow], skips: Sequence[SkipRow]) -> list[dict]:
    """The report rows: one per configuration that produced at least one
    sample, with its key columns, its rounded ``metrics.Aggregate`` and its
    skip count.

    Configurations where everything was skipped get no row; their counts
    remain visible in the skip report.
    """
    grouped: dict[tuple, list[float]] = {}
    for sample in samples:
        grouped.setdefault(sample.config_key(), []).append(sample.value)
    skip_counts = Counter(skip.config_key() for skip in skips)
    return [
        {
            **dict(zip(CONFIG_COLUMNS, key)),
            **{
                name: round(value, 4) if type(value) is float else value
                for name, value in asdict(aggregate(grouped[key])).items()
            },
            "skips": skip_counts[key],
        }
        for key in sorted(grouped)
    ]


def write_report(
    rows: Sequence[Mapping[str, object]],
    path: str | Path,
    config_echo: Mapping[str, object] | None = None,
) -> None:
    _write_json(path, {"config": dict(config_echo) if config_echo else {}, "rows": list(rows)})


def write_samples_csv(samples: Sequence[SampleRow], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(SAMPLE_COLUMNS)
        writer.writerows((*row.row_key(), repr(row.value)) for row in samples)


def read_samples_csv(path: str | Path) -> list[SampleRow]:
    """Inverse of :func:`write_samples_csv`; lets callers re-aggregate."""
    key_types = get_type_hints(KeyedRow)
    with open(path, encoding="utf-8", newline="") as handle:
        return [
            SampleRow(*(key_types[name](record[name]) for name in KEY_COLUMNS), float(record["sample"]))
            for record in csv.DictReader(handle)
        ]


def write_skips(skips: Sequence[SkipRow], path: str | Path) -> None:
    counts = Counter((*skip.config_key(), skip.reason) for skip in skips)
    rows = [
        {**dict(zip(CONFIG_COLUMNS, key)), "reason": reason, "count": count}
        for (*key, reason), count in sorted(counts.items())
    ]
    _write_json(path, {"rows": rows})


def _write_json(path: str | Path, payload: Mapping[str, object]) -> None:
    write_lines(path, [json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2)])
