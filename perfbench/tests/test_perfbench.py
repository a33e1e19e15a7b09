"""Tests of the benchmark itself: stable inputs, and an output check that
catches a single corrupted value.

    python -m pytest perfbench/tests
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import worldgen  # noqa: E402

TINY = worldgen.Shape(
    articles=60, events=6, vocabulary=300, event_words=8, gazetteer=12, lexicon=30,
    impressions=40, candidates=8, history_max=5, span_days=3.0, external=True,
)

# A grid over both divergences, both weightings and a cutoff, so that the
# output check's reference covers every scoring path the CLI offers.
SWEEP = run.Workload(
    "sensitivity",
    ("--divergences", "kl,js", "--weightings", "none,mrr", "--cutoffs", "10,0"),
    tuple((d, w, c) for d in ("kl", "js") for w in ("none", "mrr") for c in (10, 0)),
)


def _tree_digest(root: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(root.iterdir())}


def _newsdiv(args: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    subprocess.run([sys.executable, "-m", "newsdiv.cli", *args], check=True, env=env, capture_output=True)


@pytest.mark.parametrize("workload", sorted(worldgen.SHAPES))
def test_generator_is_byte_stable(tmp_path, workload):
    worldgen.generate(tmp_path / "a", workload, 11)
    worldgen.generate(tmp_path / "b", workload, 11)
    worldgen.generate(tmp_path / "c", workload, 12)
    assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")
    assert _tree_digest(tmp_path / "a") != _tree_digest(tmp_path / "c")


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    world = worldgen.generate(root / "world", "log", 3, shape=TINY)
    workload = SWEEP
    _newsdiv(run.cli_args(workload, world, root / "out", 3))
    _newsdiv(["recommend", "--behaviors", str(world["behaviors"]), "--strategy", "random",
              "--seed", "3", "-o", str(root / "random.jsonl")])
    facts = check.World(world)
    lists = {
        "random": check.read_lists(root / "random.jsonl"),
        "popular": facts.popular_lists(),
        "external:model": check.read_lists(world["external"]),
    }
    return facts, root / "out", lists, list(workload.grid)


def test_check_accepts_evaluation(evaluated):
    facts, out, lists, grid = evaluated
    assert check.check_evaluation(facts, out, lists, grid, run.PAIRS) > 0


def test_check_rejects_one_flipped_sample(evaluated, tmp_path):
    facts, out, lists, grid = evaluated
    for name in check.EVALUATION_FILES:
        (tmp_path / name).write_bytes((out / name).read_bytes())
    lines = (tmp_path / "samples.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if line.startswith("calibration_topic,"))
    head, _, value = lines[index].rstrip("\n").rpartition(",")
    flipped = float(value) / 2 if float(value) > 0 else 0.5
    lines[index] = f"{head},{flipped!r}\n"
    (tmp_path / "samples.csv").write_text("".join(lines), encoding="utf-8")
    with pytest.raises(check.CheckError):
        check.check_evaluation(facts, tmp_path, lists, grid, run.PAIRS)


@pytest.fixture(scope="module")
def enriched(tmp_path_factory):
    root = tmp_path_factory.mktemp("catalog")
    world = worldgen.generate(root / "world", "catalog", 5, shape=TINY)
    _newsdiv(run.cli_args(run.WORKLOADS["catalog"], world, root, 5))
    return check.World(world), root / "enriched.jsonl"


def test_check_accepts_enrichment(enriched):
    facts, path = enriched
    assert check.check_enriched(facts, path) == TINY.articles


def test_check_rejects_one_flipped_actor(enriched, tmp_path):
    facts, path = enriched
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    row = next(row for row in rows if row["political_actors"])
    row["political_actors"] = row["political_actors"][1:]
    corrupted = tmp_path / "enriched.jsonl"
    corrupted.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows), encoding="utf-8")
    with pytest.raises(check.CheckError):
        check.check_enriched(facts, corrupted)


def test_traced_run_matches_and_accounts_for_its_wall(tmp_path):
    world = worldgen.generate(tmp_path / "world", "log", 7, shape=TINY)
    workload = run.WORKLOADS["log"]
    deadline = run.time.perf_counter() + 120
    plain = tmp_path / "plain"
    traced = tmp_path / "traced"
    wall, code, _ = run.spawn(
        [sys.executable, "-m", "newsdiv.cli", *run.cli_args(workload, world, plain, 7)], plain, deadline
    )
    assert code == 0
    argv = [sys.executable, str(run.BENCH / "child.py"), "trace", str(traced / "spans"), "--"]
    traced_wall, code, _ = run.spawn(argv + run.cli_args(workload, world, traced, 7), traced, deadline)
    assert code == 0
    assert check.digests(plain, workload.outputs) == check.digests(traced, workload.outputs)

    stats, header = run.span_stats(traced / "spans")
    metrics = run.layer_metrics(stats, header, traced_wall, 0)
    layers = sum(metrics[f"{layer}.self_s"] for layer in run.LAYERS)
    assert 0.0 < layers < traced_wall
    assert metrics["trace.other_s"] == pytest.approx(traced_wall - layers)
    assert metrics["evaluate.total_s"] > metrics["metrics.fragmentation_s"] > 0.0
    assert metrics["distrib.build.calls"] > 0 and metrics["divergence.calls"] > 0
    assert set(metrics) | {"trace.overhead_frac"} == set(run.per_layer_units())
