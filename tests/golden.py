"""Golden digests: the sha256 of every output file of a small set of runs.

For the same inputs, flags and seed, ``report.json``, ``samples.csv``,
``skips.json`` and ``enriched.jsonl`` must stay byte-identical.  ``CASES``
runs the CLI in-process on the committed fixtures and on conftest's
synthetic world, with relative paths, because ``report.json`` echoes the
input paths.  ``test_golden.py`` compares their digests with
``golden.json``.

To rewrite the digests after a change that alters output on purpose (and
say why in CHANGES.md), run from the repository root::

    PYTHONPATH=src python tests/golden.py --write
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from conftest import FIXTURES, build_synthetic_world
from newsdiv import evaluate
from newsdiv.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

FIXTURE_INPUTS = [
    "--news", "fixtures/news.tsv",
    "--bodies", "fixtures/bodies.jsonl",
    "--behaviors", "fixtures/behaviors.tsv",
    "--lexicon", "fixtures/lexicon.tsv",
    "--gazetteer", "fixtures/gazetteer.jsonl",
    "--sidecar", "fixtures/sidecar.jsonl",
    "--seed", "42",
]
FIXTURE_RUN = [*FIXTURE_INPUTS, "--external", "fixture=fixtures/recommendations.jsonl"]
WORLD_INPUTS = [
    "--news", "world/news.tsv",
    "--bodies", "world/bodies.jsonl",
    "--behaviors", "world/behaviors.tsv",
    "--lexicon", "world/lexicon.tsv",
    "--gazetteer", "world/gazetteer.jsonl",
    "--seed", "7",
]
WORLD_SWEEP = ["sensitivity", *WORLD_INPUTS, "--divergences", "kl,js", "--weightings", "none,mrr", "--cutoffs", "10,0"]

# Each case's ``evaluate._FORK_MIN_WORK`` (None keeps the default: the
# sweeps fork where the host can) and its argv, without the output.
CASES = {
    "fixtures-js-mrr-0": (
        None, ["evaluate", *FIXTURE_RUN, "--divergence", "js", "--weighting", "mrr", "--cutoffs", "0"]
    ),
    "fixtures-kl-ndcg-1-3-0": (
        None, ["evaluate", *FIXTURE_RUN, "--divergence", "kl", "--weighting", "ndcg", "--cutoffs", "1,3,0"]
    ),
    "world-forked": (0, ["evaluate", *WORLD_INPUTS]),
    "world-inline": (sys.maxsize, ["evaluate", *WORLD_INPUTS]),
    "world-sweep": (None, WORLD_SWEEP),
    "world-sweep-daily": (None, [*WORLD_SWEEP, "--pool", "daily"]),
    "fixtures-enrich": (None, ["enrich", *FIXTURE_INPUTS]),
    # Enrichment beyond fixture size: story chains, tags and activation.
    "world-enrich": (None, ["enrich", *WORLD_INPUTS]),
    # A recommender name that samples.csv must quote.
    "fixtures-quoted-name": (
        None, ["evaluate", *FIXTURE_INPUTS, "--external", 'm,"x"=fixtures/recommendations.jsonl']
    ),
}


def prepare(root: Path) -> None:
    """Put the inputs of every case under ``root``."""
    shutil.copytree(FIXTURES, root / "fixtures")
    build_synthetic_world(root / "world")


def run(name: str) -> dict[str, str]:
    """Run case ``name`` in the current directory, which ``prepare`` made,
    with the fork gate already set; the sha256 of each file it wrote."""
    command, *args = CASES[name][1]
    out = Path("out", name)
    out.mkdir(parents=True)
    if command == "enrich":
        args += ["--output", str(out / "enriched.jsonl")]
    else:
        args += ["--out", str(out)]
    code = main([command, *args])
    if code != 0:
        raise RuntimeError(f"case {name} exited {code}")
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out.iterdir())}


def write() -> None:
    default = evaluate._FORK_MIN_WORK
    digests = {}
    with tempfile.TemporaryDirectory() as root:
        prepare(Path(root))
        cwd = os.getcwd()
        os.chdir(root)
        try:
            for name, (gate, _) in CASES.items():
                evaluate._FORK_MIN_WORK = default if gate is None else gate
                digests[name] = run(name)
        finally:
            evaluate._FORK_MIN_WORK = default
            os.chdir(cwd)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    write()
