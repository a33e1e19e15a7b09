"""Aggregation and serialization of evaluation output.

Three files per run:

* ``report.json``: one aggregate row per (metric, recommender, divergence,
  weighting, cutoff), numbers rounded to 4 decimals.
* ``samples.csv``: every individual divergence sample at full precision,
  RFC-4180 quoting, for external plotting or re-aggregation.
* ``skips.json``: per-configuration skip counts by reason.

All writers emit byte-identical output for identical input.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .evaluate import SampleRow, SkipRow
from .metrics import aggregate

SAMPLE_COLUMNS = ("metric", "recommender", "divergence", "weighting", "cutoff", "pair_id", "sample")


@dataclass(frozen=True)
class AggregateRow:
    metric: str
    recommender: str
    divergence: str
    weighting: str
    cutoff: int
    n: int
    mean: float
    std: float
    ci95: float
    skips: int


def aggregate_rows(samples: Sequence[SampleRow], skips: Sequence[SkipRow]) -> list[AggregateRow]:
    """One aggregate per configuration that produced at least one sample.

    Configurations where everything was skipped get no row; their counts
    remain visible in the skip report.
    """
    grouped: dict[tuple, list[float]] = {}
    for sample in samples:
        grouped.setdefault(sample.config_key(), []).append(sample.value)
    skip_counts: dict[tuple, int] = {}
    for skip in skips:
        key = skip.config_key()
        skip_counts[key] = skip_counts.get(key, 0) + 1
    rows = []
    for key in sorted(grouped):
        stats = aggregate(grouped[key])
        metric, recommender, divergence, weighting, cutoff = key
        rows.append(
            AggregateRow(
                metric=metric,
                recommender=recommender,
                divergence=divergence,
                weighting=weighting,
                cutoff=cutoff,
                n=stats.n,
                mean=stats.mean,
                std=stats.std,
                ci95=stats.ci95,
                skips=skip_counts.get(key, 0),
            )
        )
    return rows


def write_report(
    rows: Sequence[AggregateRow],
    path: str | Path,
    config_echo: Mapping[str, object] | None = None,
) -> None:
    payload = {
        "config": dict(config_echo) if config_echo else {},
        "rows": [
            {
                "metric": row.metric,
                "recommender": row.recommender,
                "divergence": row.divergence,
                "weighting": row.weighting,
                "cutoff": row.cutoff,
                "n": row.n,
                "mean": round(row.mean, 4),
                "std": round(row.std, 4),
                "ci95": round(row.ci95, 4),
                "skips": row.skips,
            }
            for row in rows
        ],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, ensure_ascii=False, sort_keys=True, indent=2)
        handle.write("\n")


def write_samples_csv(samples: Sequence[SampleRow], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(SAMPLE_COLUMNS)
        for row in samples:
            writer.writerow(
                [
                    row.metric,
                    row.recommender,
                    row.divergence,
                    row.weighting,
                    row.cutoff,
                    row.pair_id,
                    repr(row.value),
                ]
            )


def read_samples_csv(path: str | Path) -> list[SampleRow]:
    """Inverse of :func:`write_samples_csv`; lets callers re-aggregate."""
    rows = []
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        for record in reader:
            rows.append(
                SampleRow(
                    metric=record["metric"],
                    recommender=record["recommender"],
                    divergence=record["divergence"],
                    weighting=record["weighting"],
                    cutoff=int(record["cutoff"]),
                    pair_id=record["pair_id"],
                    value=float(record["sample"]),
                )
            )
    return rows


def write_skips(skips: Sequence[SkipRow], path: str | Path) -> None:
    grouped: dict[tuple, int] = {}
    for skip in skips:
        key = (*skip.config_key(), skip.reason)
        grouped[key] = grouped.get(key, 0) + 1
    payload = {
        "rows": [
            {
                "metric": metric,
                "recommender": recommender,
                "divergence": divergence,
                "weighting": weighting,
                "cutoff": cutoff,
                "reason": reason,
                "count": count,
            }
            for (metric, recommender, divergence, weighting, cutoff, reason), count in sorted(
                grouped.items()
            )
        ]
    }
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, ensure_ascii=False, sort_keys=True, indent=2)
        handle.write("\n")
