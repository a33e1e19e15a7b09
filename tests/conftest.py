"""Shared fixtures: the small committed corpus and a larger generated world
with a popularity-skewed category, used by the end-to-end and acceptance
tests.  Both come from ``world.py``, which this module re-exports."""
from __future__ import annotations

import os
from pathlib import Path

import pytest

from world import FIXTURES, build_synthetic_world


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


@pytest.fixture(scope="session")
def synthetic_world(tmp_path_factory) -> dict[str, Path]:
    return build_synthetic_world(tmp_path_factory.mktemp("world"))
