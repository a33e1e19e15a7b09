"""Offline benchmark for the newsdiv batch scorer.

    python3 perfbench/run.py --workload log|catalog --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark generates a seeded
world (``worldgen.py``), runs the real CLI on it in fresh single-threaded
processes for ``--seconds`` seconds (closed loop: the next run starts when
the previous one has exited), checks every run's outputs (``check.py``) and
prints one JSON object as its last line of output:

    {"correct": ..., "attempted": <CLI runs>, "failed": <runs that exited
     non-zero or failed the output check>, "metrics": {...}}

``failed / attempted`` is the failure fraction.  With ``--trace 0`` the
metrics are the end-to-end ones, each a median over the run's untraced CLI
runs (``setup_s`` over loader processes, one before each CLI run, so
that both sample the same stretch of the host's speed).  With ``--trace 1``
untraced and traced runs alternate, and the metrics are the per-layer ones
from the traced runs (``child.py trace``), again medians.

Workloads, and why each exists.  There are two so that each run can
measure for about a minute: the host's speed drifts over tens of seconds,
and medians of shorter runs were not steady enough.

* ``log``: ``newsdiv evaluate`` at js/mrr/@N on a long log with random,
  popular and one external recommender.  One grid point and many lists:
  the O(N^2) partner draw, the loaders, the recommenders and the writers
  take their largest share, and grid-point reuse has nothing to share.
* ``catalog``: ``newsdiv enrich`` on a catalog published inside the
  chaining window with planted story events and a large gazetteer.  Story
  chaining and entity tagging do nearly all the work and the scoring
  modules none, so an evaluation-path change must leave it unchanged.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import check
import worldgen

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_RUNS = 3
LOOP_BUDGET_S = 120.0  # no CLI run starts later than this into an invocation
CHILD_TIMEOUT_S = 170.0
PAIRS = 5  # newsdiv's default fragmentation partner draws per list

LAYERS = ("corpus", "enrich", "recommenders", "evaluate", "metrics", "distrib", "divergence", "report")


@dataclass(frozen=True)
class Workload:
    command: str
    flags: tuple[str, ...] = ()
    grid: tuple[tuple[str, str, int], ...] = ()  # (divergence, weighting, cutoff)

    @property
    def outputs(self) -> tuple[str, ...]:
        return ("enriched.jsonl",) if self.command == "enrich" else check.EVALUATION_FILES


WORKLOADS = {
    "log": Workload(
        "evaluate",
        ("--divergence", "js", "--weighting", "mrr", "--cutoffs", "0"),
        (("js", "mrr", 0),),
    ),
    "catalog": Workload("enrich"),
}


@dataclass
class Run:
    wall: float
    code: int
    rss_mb: float
    out: Path
    traced: bool
    ok: bool = False


def spawn(argv: list[str], log_dir: Path, deadline: float) -> tuple[float, int, float]:
    """Run one child to exit; (wall seconds, exit code, peak RSS in MB).

    Peak RSS comes from this child's own rusage (``os.wait4``), not from
    RUSAGE_CHILDREN, which keeps the high-water mark of every earlier child.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log_dir / "stdout", "wb") as out, open(log_dir / "stderr", "wb") as err:
        start = time.perf_counter()
        process = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(max(deadline - start, 1.0), process.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    return wall, process.returncode, usage.ru_maxrss / 1024.0


def cli_args(workload: Workload, world: dict[str, Path], out: Path, seed: int) -> list[str]:
    inputs = []
    for role in ("news", "bodies", "behaviors", "lexicon", "gazetteer"):
        inputs += [f"--{role}", str(world[role])]
    if workload.command == "enrich":
        return ["enrich", *inputs, "-o", str(out / "enriched.jsonl")]
    args = [workload.command, *inputs, *workload.flags, "--seed", str(seed), "--out", str(out)]
    if "external" in world:
        args += ["--external", f"model={world['external']}"]
    return args


def span_stats(prefix: Path) -> tuple[dict[str, list[float]], dict]:
    """Per span name: [calls, inclusive seconds, self seconds].

    A span's self time is its duration minus the durations of its direct
    child spans; spans of one thread nest, so children never overlap.
    """
    header = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
    n = header["spans"]
    columns = [array("i"), array("i"), array("d"), array("d")]
    with open(prefix.with_suffix(".bin"), "rb") as handle:
        for column in columns:
            column.fromfile(handle, n)
    name_of, parent, start, end = columns
    duration = [e - s for s, e in zip(start, end)]
    covered = [0.0] * n
    for index in range(n):
        if parent[index] >= 0:
            covered[parent[index]] += duration[index]
    stats: dict[str, list[float]] = {name: [0, 0.0, 0.0] for name in header["names"]}
    for index in range(n):
        entry = stats[header["names"][name_of[index]]]
        entry[0] += 1
        entry[1] += duration[index]
        entry[2] += duration[index] - covered[index]
    return stats, header


def layer_metrics(stats: dict[str, list[float]], header: dict, wall: float, out_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced run; layers are newsdiv's modules.

    A ``*_s`` metric named after functions is their inclusive time, except
    ``corpus.parse_s``, ``enrich.load_s`` and ``distrib.build_s``, which sum
    self times so that nested loaders or builders count once.
    ``<layer>.self_s`` is the self time of every span of that layer, and
    ``trace.other_s`` the traced wall outside all spans (interpreter start,
    imports, argument parsing, CLI glue), so together they add up to
    ``trace.wall_s``.
    """
    def calls(*names: str) -> float:
        return sum(stats.get(name, (0, 0.0, 0.0))[0] for name in names)

    def inclusive(*names: str) -> float:
        return sum(stats.get(name, (0, 0.0, 0.0))[1] for name in names)

    def own(*names: str) -> float:
        return sum(stats.get(name, (0, 0.0, 0.0))[2] for name in names)

    facts = header["facts"]
    samples = facts.get("samples", 0)
    rows = samples + facts.get("skips", 0)
    builds = calls("distrib.build_distribution")
    evaluate_total = inclusive("evaluate.evaluate_recommendations")
    fragmentation = inclusive("metrics.sample_fragmentation")
    metrics = {
        "corpus.parse_s": own(
            "corpus.load_catalog", "corpus.load_behaviors", "corpus.load_recommendations",
            "corpus.missing_article_ids",
        ),
        "enrich.load_s": own("enrich.load_lexicon", "enrich.load_gazetteer"),
        "enrich.total_s": inclusive("enrich.enrich_corpus"),
        "enrich.chain_s": inclusive("enrich.chain_articles"),
        "enrich.tag_s": inclusive("enrich.tag_entities"),
        "enrich.complexity_s": inclusive("enrich.complexity"),
        "enrich.activation_s": inclusive("enrich.activation"),
        "enrich.dump_s": inclusive("enrich.dump_enriched"),
        "enrich.chains": facts.get("chains", 0),
        "recommenders.s": inclusive(
            "recommenders.recommend_random", "recommenders.recommend_popular", "recommenders.click_counts"
        ),
        "evaluate.total_s": evaluate_total,
        "evaluate.per_impression_s": evaluate_total - fragmentation,
        "evaluate.sample_ratio": samples / rows if rows else 0.0,
        "metrics.fragmentation_s": fragmentation,
        "metrics.partners_s": inclusive("metrics.fragmentation_partners"),
        "metrics.fragmentation.calls": calls("metrics.fragmentation"),
        "metrics.pair_divergence.calls": calls("metrics.pair_divergence"),
        "distrib.build_s": own("distrib.build_distribution", "distrib.history_distribution"),
        "distrib.build.calls": builds,
        "distrib.smooth_s": inclusive("distrib.smooth_pair"),
        "distrib.smooth.calls": calls("distrib.smooth_pair"),
        "distrib.constructed": header["counts"]["distrib.DiscreteDistribution"],
        "distrib.builds_per_sample": builds / samples if samples else 0.0,
        "divergence.js_s": inclusive("divergence.js"),
        "divergence.kl_s": inclusive("divergence.kl"),
        "divergence.calls": calls("divergence.js", "divergence.kl"),
        "report.aggregate_s": inclusive("report.aggregate_rows"),
        "report.write_s": inclusive("report.write_report", "report.write_samples_csv", "report.write_skips"),
        "report.bytes": out_bytes,
    }
    accounted = 0.0
    for layer in LAYERS:
        layer_self = sum(entry[2] for name, entry in stats.items() if name.split(".", 1)[0] == layer)
        metrics[f"{layer}.self_s"] = layer_self
        accounted += layer_self
    metrics["trace.wall_s"] = wall
    metrics["trace.other_s"] = wall - accounted
    return metrics


def per_layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)["per_layer"]}


def bench(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    invocation_start = time.perf_counter()
    hard_deadline = invocation_start + CHILD_TIMEOUT_S
    workload = WORKLOADS[name]
    world = worldgen.generate(work / "world", name, seed)
    world_facts = check.World(world)
    compileall.compile_dir(str(SRC), quiet=1)

    load = [sys.executable, str(BENCH / "child.py"), "load"]
    for role in ("news", "bodies", "behaviors", "lexicon", "gazetteer", "external"):
        if role in world:
            load += [f"--{role}", str(world[role])]
    setup_walls = []
    setup_ok = True

    runs: list[Run] = []
    reference_digests = None
    loop_start = time.perf_counter()
    while True:
        traced = trace and len(runs) % 2 == 1
        out = work / f"run{len(runs)}"
        if not trace:
            wall, code, _ = spawn(load, work / f"setup{len(runs)}", hard_deadline)
            setup_walls.append(wall)
            setup_ok = setup_ok and code == 0
        argv = [sys.executable, "-m", "newsdiv.cli"]
        if traced:
            argv = [sys.executable, str(BENCH / "child.py"), "trace", str(out / "spans"), "--"]
        argv += cli_args(workload, world, out, seed)
        wall, code, rss = spawn(argv, out, hard_deadline)
        run = Run(wall, code, rss, out, traced)
        runs.append(run)
        if code == 0:
            try:
                found = check.digests(out, workload.outputs)
            except check.CheckError as exc:
                print(f"run {len(runs)}: {exc}", file=sys.stderr)
            else:
                reference_digests = reference_digests or found
                run.ok = found == reference_digests
        if not run.ok:
            tail = (out / "stderr").read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"run {len(runs)} failed (exit {code}): {tail}", file=sys.stderr)
        now = time.perf_counter()
        untraced = sum(1 for r in runs if not r.traced)
        enough = now - loop_start >= seconds and untraced >= MIN_RUNS and (not trace or untraced < len(runs))
        if enough or now - invocation_start > LOOP_BUDGET_S:
            break

    valid = next((r for r in runs if r.ok), None)
    if valid is not None:
        try:
            checked = validate(workload, world, world_facts, valid.out, seed, work, hard_deadline)
            print(f"output check passed ({checked} rows compared)", file=sys.stderr)
        except check.CheckError as exc:
            print(f"output check failed: {exc}", file=sys.stderr)
            for r in runs:
                r.ok = False

    failed = sum(1 for r in runs if not r.ok)
    plain = [r for r in runs if not r.traced and r.ok] or [r for r in runs if not r.traced]
    wall = statistics.median(r.wall for r in plain)
    print(
        f"{name} seed {seed}: {len(runs)} CLI runs, walls "
        + " ".join(f"{r.wall:.3f}{'t' if r.traced else ''}" for r in runs),
        file=sys.stderr,
    )
    result = {"correct": failed == 0 and setup_ok, "attempted": len(runs), "failed": failed}
    if not trace:
        n_articles = len(world_facts.order)
        n_impressions = len(world_facts.impressions)
        result["metrics"] = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r.rss_mb for r in plain), "unit": "MB"},
            "impressions_per_s": {"value": n_impressions / wall, "unit": "1/s"},
            "articles_per_s": {"value": n_articles / wall, "unit": "1/s"},
        }
        return result

    per_run = []
    for r in runs:
        if not r.traced or r.code != 0:
            continue
        out_bytes = sum((r.out / f).stat().st_size for f in check.EVALUATION_FILES if (r.out / f).is_file())
        stats, header = span_stats(r.out / "spans")
        metrics = layer_metrics(stats, header, r.wall, out_bytes)
        metrics["trace.overhead_frac"] = r.wall / wall - 1.0
        per_run.append(metrics)
    units = per_layer_units()
    result["metrics"] = {
        metric: {"value": statistics.median(m[metric] for m in per_run), "unit": units[metric]}
        for metric in units
        if per_run
    }
    return result


def validate(workload: Workload, world, world_facts: check.World, out: Path, seed: int, work: Path, deadline: float) -> int:
    """Full output check of one run; the others match it byte for byte."""
    if workload.command == "enrich":
        return check.check_enriched(world_facts, out / "enriched.jsonl")
    random_path = work / "random.jsonl"
    argv = [
        sys.executable, "-m", "newsdiv.cli", "recommend", "--behaviors", str(world["behaviors"]),
        "--strategy", "random", "--seed", str(seed), "-o", str(random_path),
    ]
    _, code, _ = spawn(argv, work / "recommend", deadline)
    if code != 0:
        raise check.CheckError(f"newsdiv recommend exited {code}")
    lists = {"random": check.read_lists(random_path), "popular": world_facts.popular_lists()}
    if "external" in world:
        lists["external:model"] = check.read_lists(world["external"])
    return check.check_evaluation(world_facts, out, lists, list(workload.grid), PAIRS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "newsdiv" / "cli.py").is_file():
        print(f"error: no newsdiv sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
