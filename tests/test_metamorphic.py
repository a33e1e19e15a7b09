"""Metamorphic relations of the whole pipeline, each run through the CLI
in-process: changes to a run's input or grid that must leave its output
rows as they are.  Forked against inline scoring is ``TestForkedScoring``'s
in ``test_evaluate.py``."""
import csv
import json
import random

import pytest

from conftest import build_synthetic_world
from newsdiv.cli import main

# The files whose line order carries no meaning.  A sidecar's does: a later
# record for an id overrides the fields that it gives.
SHUFFLED = ("news", "bodies", "behaviors", "lexicon", "gazetteer", "external")


def run(command, paths, out, *flags):
    """The rows of a CLI run's three files: report rows (``report.json``'s
    config echo holds the input paths), samples.csv's lines and the skip
    counts."""
    inputs = [item for role, path in paths.items() if role != "external" for item in (f"--{role}", str(path))]
    if "external" in paths:
        inputs += ["--external", f"model={paths['external']}"]
    assert main([command, *inputs, "--seed", "7", "--out", str(out), *flags]) == 0
    return (
        json.loads((out / "report.json").read_text(encoding="utf-8"))["rows"],
        (out / "samples.csv").read_text(encoding="utf-8").splitlines(),
        json.loads((out / "skips.json").read_text(encoding="utf-8"))["rows"],
    )


@pytest.fixture(scope="module")
def tied_world(tmp_path_factory):
    """conftest's world without publication times, so that every article
    takes the time of its first impression, and articles first shown
    together tie; plus the popular baseline's lists as an external file."""
    root = tmp_path_factory.mktemp("tied")
    paths = build_synthetic_world(root)
    bodies = [json.loads(line) for line in paths["bodies"].read_text(encoding="utf-8").splitlines()]
    paths["bodies"].write_text(
        "".join(json.dumps({"id": record["id"], "body": record["body"]}) + "\n" for record in bodies),
        encoding="utf-8",
    )
    paths["external"] = root / "external.jsonl"
    assert main(["recommend", "--behaviors", str(paths["behaviors"]), "--strategy", "popular",
                 "-o", str(paths["external"])]) == 0
    return paths


@pytest.fixture(scope="module")
def tied_run(tied_world, tmp_path_factory):
    return run("evaluate", tied_world, tmp_path_factory.mktemp("tied-out"))


@pytest.mark.parametrize("role", SHUFFLED)
def test_shuffling_one_input_file_leaves_every_row(tied_world, tied_run, tmp_path, role):
    lines = tied_world[role].read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(role).shuffle(lines)
    shuffled = tmp_path / tied_world[role].name
    shuffled.write_text("".join(lines), encoding="utf-8")
    assert run("evaluate", {**tied_world, role: shuffled}, tmp_path / "out") == tied_run


def at_point(rows, point):
    """The report or skip rows of one (divergence, weighting, cutoff)."""
    return [row for row in rows if (row["divergence"], row["weighting"], row["cutoff"]) == point]


@pytest.fixture(scope="module")
def sweep(synthetic_world, tmp_path_factory):
    return run(
        "sensitivity", synthetic_world, tmp_path_factory.mktemp("sweep"),
        "--divergences", "kl,js", "--weightings", "none,mrr", "--cutoffs", "10,0",
    )


@pytest.mark.parametrize("point", [("kl", "none", 10), ("js", "mrr", 0)])
def test_a_sweeps_rows_at_one_point_equal_that_points_evaluation(synthetic_world, sweep, tmp_path, point):
    report, samples, skips = sweep
    divergence, weighting, cutoff = point
    single = run(
        "evaluate", synthetic_world, tmp_path / "single",
        "--divergence", divergence, "--weighting", weighting, "--cutoffs", str(cutoff),
    )
    header, *lines = samples
    point_lines = [line for line in lines if next(csv.reader([line]))[2:5] == [divergence, weighting, str(cutoff)]]
    assert (at_point(report, point), [header, *point_lines], at_point(skips, point)) == single
    assert point_lines


def test_one_file_under_two_names_gives_the_same_columns(fixture_paths, tmp_path):
    paths = {role: fixture_paths[role] for role in ("news", "bodies", "behaviors", "lexicon", "gazetteer")}
    external = fixture_paths["recommendations"]
    report, samples, skips = run(
        "evaluate", paths, tmp_path, "--external", f"a={external}", "--external", f"b={external}"
    )

    def under(name, rows):
        return [{**row, "recommender": None} for row in rows if row["recommender"] == name]

    for rows in (report, list(csv.DictReader(samples)), skips):
        assert under("external:a", rows) == under("external:b", rows)
        assert under("external:a", rows)
