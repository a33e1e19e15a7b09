"""Golden digests: the sha256 of every output file of a small set of runs.

For the same inputs, flags and seed, ``report.json``, ``samples.csv``,
``skips.json`` and ``enriched.jsonl`` must stay byte-identical.  ``CASES``
runs the CLI in-process on the committed fixtures and on ``world.py``'s
synthetic world, with relative paths, because ``report.json`` echoes the
input paths.  ``test_golden.py`` compares their digests with
``golden.json``.

To compare them without pytest, say under another interpreter, run from the
repository root::

    PYTHONPATH=src python tests/golden.py --check

which exits 1 and names each case, and each of its files, whose digest
differs.  To rewrite the digests after a change that alters output on
purpose (and say why in CHANGES.md), run ``golden.py --write``.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from world import FIXTURES, build_synthetic_world
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


def compute() -> dict[str, dict[str, str]]:
    """The digests of every case, run in one temporary directory."""
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
    return digests


def check() -> int:
    """Recompute every case and print each one whose digests differ from
    ``golden.json``'s, with the files that differ; 1 if any does, else 0."""
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = compute()
    differ = 0
    for name in sorted(expected.keys() | actual.keys()):
        old, new = expected.get(name, {}), actual.get(name, {})
        changed = sorted(file for file in old.keys() | new.keys() if old.get(file) != new.get(file))
        if changed:
            differ += 1
            print(f"{name} differs from golden.json in {', '.join(changed)}")
    print(f"{len(actual) - differ} of {len(actual)} cases match golden.json on Python {sys.version.split()[0]}")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(json.dumps(compute(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    elif sys.argv[1:] == ["--check"]:
        sys.exit(check())
    else:
        sys.exit(f"usage: {sys.argv[0]} --check | --write")
