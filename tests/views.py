"""Named views of the plain tuples, in key order, that
``EvaluationResult.samples`` and ``.skips`` and ``report.read_samples_csv``
return."""
from __future__ import annotations

from collections import namedtuple
from typing import Iterable

from newsdiv.evaluate import KEY_COLUMNS

Sample = namedtuple("Sample", (*KEY_COLUMNS, "value"))
Skip = namedtuple("Skip", (*KEY_COLUMNS, "reason"))


def named_samples(rows: Iterable[tuple]) -> list[Sample]:
    return list(map(Sample._make, rows))


def named_skips(rows: Iterable[tuple]) -> list[Skip]:
    return list(map(Skip._make, rows))


def row_key(row: tuple) -> tuple:
    """A row's ``KEY_COLUMNS`` values."""
    return row[: len(KEY_COLUMNS)]
