"""Acceptance suite: every release criterion at its stated tolerance, one
printed pass/fail line per criterion (run with ``pytest -s`` to see them
inline, or ``-v`` for the per-test table)."""
import functools
import json
import math
import time

import numpy as np
import pytest
from scipy.spatial import distance as sp_distance

from newsdiv.cli import main
from newsdiv.corpus import Article
from newsdiv.distrib import DiscreteDistribution, RankWeighting, build_distribution
from newsdiv.divergence import f_divergence, js, kl
from newsdiv.metrics import (
    MetricConfig,
    activation_divergence,
    alternative_voices,
    calibration_topic,
    fragmentation,
    representation,
)
from newsdiv.report import read_samples_csv
from views import named_samples


def criterion(name):
    def decorate(test):
        @functools.wraps(test)
        def wrapper(*args, **kwargs):
            try:
                test(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL")
                raise
            print(f"ACCEPTANCE {name}: PASS")

        return wrapper

    return decorate


def random_distribution(rng, size, strictly_positive=True):
    masses = rng.random(size)
    if strictly_positive:
        masses = masses + 1e-6
    elif size > 2 and rng.random() < 0.3:
        masses[rng.integers(size)] = 0.0
    total = masses.sum()
    if total == 0.0:
        masses[0] = 1.0
        total = 1.0
    return DiscreteDistribution({f"k{i}": float(m / total) for i, m in enumerate(masses)})


@pytest.fixture(scope="module")
def world_run(synthetic_world, tmp_path_factory):
    """End-to-end CLI run over the generated corpus; timed for the runtime
    criterion and reused by the boundedness/determinism/directional tests."""
    out_dir = tmp_path_factory.mktemp("world_run")
    args = [
        "evaluate",
        "--news", str(synthetic_world["news"]),
        "--bodies", str(synthetic_world["bodies"]),
        "--behaviors", str(synthetic_world["behaviors"]),
        "--lexicon", str(synthetic_world["lexicon"]),
        "--gazetteer", str(synthetic_world["gazetteer"]),
        "--divergence", "js",
        "--weighting", "mrr",
        "--cutoffs", "10,0",
        "--pairs", "2",
        "--seed", "42",
    ]
    started = time.monotonic()
    code = main([*args, "--out", str(out_dir)])
    elapsed = time.monotonic() - started
    assert code == 0
    return {"args": args, "out": out_dir, "elapsed": elapsed}


@criterion("metric axioms (sqrt-JS distance, KL asymmetry)")
def test_metric_axioms():
    rng = np.random.default_rng(2024)
    asymmetry_witness = 0.0
    for index in range(10_000):
        size = int(rng.integers(2, 9))
        p = random_distribution(rng, size, strictly_positive=False)
        q = random_distribution(rng, size, strictly_positive=False)
        r = random_distribution(rng, size, strictly_positive=False)

        # identity: d(p, p) = 0 and d(p, q) = 0 only for equal distributions
        assert js(p, p) <= 1e-9
        value_pq = js(p, q)
        if value_pq <= 1e-9:
            assert all(abs(p.mass(k) - q.mass(k)) < 1e-4 for k in p.domain)

        # exact symmetry
        assert value_pq == js(q, p)

        # triangle inequality
        assert js(p, r) <= value_pq + js(q, r) + 1e-9

        if index < 1_000:
            p_pos = random_distribution(rng, size)
            q_pos = random_distribution(rng, size)
            asymmetry_witness = max(
                asymmetry_witness, abs(kl(p_pos, q_pos) - kl(q_pos, p_pos))
            )
    # equal masses mean zero distance, regardless of key insertion order
    p = DiscreteDistribution({"a": 0.3, "b": 0.2, "c": 0.5})
    q = DiscreteDistribution({"c": 0.5, "b": 0.2, "a": 0.3})
    assert js(p, q) == 0.0
    assert asymmetry_witness > 1e-3


@criterion("hand oracles (kl, js, mrr masses, symmetrized-kl fragmentation)")
def test_hand_oracles():
    p = DiscreteDistribution({"a": 0.5, "b": 0.5})
    q = DiscreteDistribution({"a": 0.25, "b": 0.75})
    assert kl(p, q) == pytest.approx(0.2075, abs=1e-4)
    assert js(p, q) == pytest.approx(0.2209, abs=1e-4)

    items = [{"k": "X"}, {"k": "Y"}, {"k": "X"}]
    dist = build_distribution(items, lambda item: {item["k"]: 1.0}, RankWeighting("mrr"))
    assert dist.mass("X") == pytest.approx(8 / 11, abs=1e-12)
    assert dist.mass("Y") == pytest.approx(3 / 11, abs=1e-12)

    left = [Article(id="a", chain_id="e1"), Article(id="b", chain_id="e2")]
    right = [
        Article(id="c", chain_id="e1"),
        Article(id="d", chain_id="e2"),
        Article(id="e", chain_id="e2"),
        Article(id="f", chain_id="e2"),
    ]
    config = MetricConfig(divergence="kl", weighting=RankWeighting("none"), alpha=0.0)
    assert fragmentation(left, right, config) == pytest.approx(0.19812, abs=1e-4)


@criterion("f-divergence generator equivalence (1000 pairs, 1e-10)")
def test_generator_equivalence():
    rng = np.random.default_rng(99)
    for _ in range(1_000):
        size = int(rng.integers(2, 9))
        p = random_distribution(rng, size)
        q = random_distribution(rng, size)
        assert f_divergence(p, q, "kl") == pytest.approx(kl(p, q), abs=1e-10)
        assert f_divergence(p, q, "js") == pytest.approx(js(p, q), abs=1e-10)
    # sanity against an external implementation on a fixed pair
    p = DiscreteDistribution({"a": 0.2, "b": 0.8})
    q = DiscreteDistribution({"a": 0.6, "b": 0.4})
    assert f_divergence(p, q, "js") == pytest.approx(
        sp_distance.jensenshannon([0.2, 0.8], [0.6, 0.4], base=2), abs=1e-12
    )


@criterion("boundedness (all js samples in [0, 1])")
def test_js_samples_bounded(world_run):
    samples = named_samples(read_samples_csv(world_run["out"] / "samples.csv"))
    assert samples
    for row in samples:
        assert 0.0 <= row.value <= 1.0, f"{row.metric} sample {row.value} out of bounds"


@criterion("zero divergence when recommendation permutes the supply")
def test_zero_divergence_identity():
    config = MetricConfig(divergence="js", weighting=RankWeighting("none"), alpha=0.0)
    pool = [
        Article(id="a", activation=0.05, complexity=10.0,
                political_actors=frozenset({"P1"}), minority_mentions=1),
        Article(id="b", activation=0.55, complexity=50.0,
                political_actors=frozenset({"P2"}), majority_mentions=2),
        Article(id="c", activation=0.95, complexity=90.0,
                political_actors=frozenset({"P1", "P2"}), minority_mentions=2,
                majority_mentions=1),
    ]
    permuted = [pool[2], pool[0], pool[1]]
    assert activation_divergence(pool, permuted, config) < 1e-9
    assert representation(pool, permuted, config) < 1e-9
    assert alternative_voices(pool, permuted, config) < 1e-9


@criterion("cutoff stabilization (@10 within 10% of @N, @1 off by > 25%)")
def test_cutoff_stabilization():
    history = [Article(id=f"h{i}", subcategory="a") for i in range(5)]
    # six lists lead with the off-topic item, one buries it beyond rank 10
    front_loaded = [Article(id="x0", subcategory="b")] + [
        Article(id=f"x{rank}", subcategory="a") for rank in range(1, 20)
    ]
    back_loaded = [Article(id=f"y{rank}", subcategory="a") for rank in range(10)] + [
        Article(id=f"y{rank}", subcategory="b") for rank in range(10, 20)
    ]
    lists = [front_loaded] * 6 + [back_loaded]

    def mean_at(cutoff):
        config = MetricConfig(
            divergence="js", weighting=RankWeighting("mrr", cutoff), alpha=0.0
        )
        values = [calibration_topic(history, items, config) for items in lists]
        return math.fsum(values) / len(values)

    at_one = mean_at(1)
    at_ten = mean_at(10)
    at_n = mean_at(None)
    assert abs(at_ten - at_n) / at_n < 0.10
    assert abs(at_one - at_n) / at_n > 0.25


@criterion("determinism (byte-identical report.json and samples.csv)")
def test_determinism(world_run, tmp_path):
    rerun = tmp_path / "rerun"
    code = main([*world_run["args"], "--out", str(rerun)])
    assert code == 0
    for name in ("report.json", "samples.csv"):
        assert (rerun / name).read_bytes() == (world_run["out"] / name).read_bytes()


@criterion("random dominates most-popular on topic calibration (synthetic)")
def test_directional_check(world_run):
    report = json.loads((world_run["out"] / "report.json").read_text())
    rows = {
        (row["recommender"], row["cutoff"]): row
        for row in report["rows"]
        if row["metric"] == "calibration_topic" and row["weighting"] == "mrr"
    }
    random_row = rows[("random", 10)]
    popular_row = rows[("popular", 10)]
    assert 0.0 < popular_row["mean"] < random_row["mean"] < 1.0
    # non-overlapping 95% confidence intervals
    assert random_row["mean"] - random_row["ci95"] > popular_row["mean"] + popular_row["ci95"]


@criterion("end-to-end fixture run under 60 seconds")
def test_runtime(world_run):
    assert world_run["elapsed"] < 60.0
