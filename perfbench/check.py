"""Output check for the benchmark, with a small independent reference.

The reference rebuilds per-impression samples from the definitions in the
README: rank weights (none 1, mrr 1/rank, ndcg 1/log2(rank + 1)), a rank
cutoff on recommendation lists only, recency-weighted histories, an
undiscounted candidate pool, alpha-smoothing of each pair on its union
domain, and log2 KL (context first) or square-root JS.  Article keys come
from the input files and from the world's planted truth, never from
newsdiv itself.

Every check raises :class:`CheckError` on the first violation.  Nothing is
pinned to one seed or one machine: each expectation is derived from the
world the benchmark generated.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from collections import Counter, defaultdict
from pathlib import Path

ALPHA = 0.001
BINS = 10
TOLERANCE = 1e-9
ROUNDING = 1e-12  # a KL of two nearly equal distributions may round below zero
REFERENCE_METRICS = ("calibration_topic", "activation", "representation", "alternative_voices")
PER_IMPRESSION_METRICS = REFERENCE_METRICS + ("calibration_complexity",)
EVALUATION_FILES = ("report.json", "samples.csv", "skips.json")

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class CheckError(Exception):
    """The program's output disagrees with what its inputs imply."""


def digests(out_dir: Path, names) -> dict[str, str]:
    """sha256 of each named output file; a missing file is a failure."""
    result = {}
    for name in names:
        path = out_dir / name
        if not path.is_file():
            raise CheckError(f"missing output {name}")
        result[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return result


def rank_weight(scheme: str, rank: int) -> float:
    if scheme == "none":
        return 1.0
    if scheme == "mrr":
        return 1.0 / rank
    return 1.0 / math.log2(rank + 1)


def distribution(keyed: list[dict[str, float]], scheme: str, cutoff: int) -> dict[str, float] | None:
    """Rank-weighted key distribution; None when no item carries a key."""
    items = keyed[:cutoff] if cutoff else keyed
    parts: dict[str, list[float]] = defaultdict(list)
    for rank, keys in enumerate(items, start=1):
        weight = rank_weight(scheme, rank)
        for key, multiplier in keys.items():
            if multiplier > 0.0:
                parts[key].append(weight * multiplier)
    if not parts:
        return None
    sums = {key: math.fsum(values) for key, values in sorted(parts.items())}
    total = math.fsum(sums.values())
    return {key: value / total for key, value in sums.items()}


def smooth(p: dict[str, float], q: dict[str, float]) -> tuple[dict[str, float], dict[str, float]]:
    domain = sorted(set(p) | set(q))
    p_mixed = {k: (1.0 - ALPHA) * p.get(k, 0.0) + ALPHA * q.get(k, 0.0) for k in domain}
    q_mixed = {k: (1.0 - ALPHA) * q.get(k, 0.0) + ALPHA * p.get(k, 0.0) for k in domain}
    p_total = math.fsum(p_mixed.values())
    q_total = math.fsum(q_mixed.values())
    return (
        {k: v / p_total for k, v in p_mixed.items()},
        {k: v / q_total for k, v in q_mixed.items()},
    )


def kl(p: dict[str, float], q: dict[str, float]) -> float:
    return math.fsum(p[k] * math.log2(p[k] / q[k]) for k in sorted(p) if p[k] > 0.0)


def js(p: dict[str, float], q: dict[str, float]) -> float:
    terms = []
    for k in sorted(p):
        mid = (p[k] + q[k]) / 2.0
        if p[k] > 0.0:
            terms.append(0.5 * p[k] * math.log2(p[k] / mid))
        if q[k] > 0.0:
            terms.append(0.5 * q[k] * math.log2(q[k] / mid))
    total = math.fsum(terms)
    return math.sqrt(total) if total > 0.0 else 0.0


def reference_sample(context, recommendation, divergence: str) -> float | None:
    """Divergence of the recommendation from its context; None is a skip."""
    if context is None or recommendation is None:
        return None
    context_s, recommendation_s = smooth(context, recommendation)
    if divergence == "js":
        return js(context_s, recommendation_s)
    return kl(context_s, recommendation_s)


def activation_score(text: str, lexicon: dict[str, float]) -> float:
    """Absolute mean polarity of the lexicon tokens in the text."""
    matched = [lexicon[token] for token in _TOKEN_RE.findall(text.lower()) if token in lexicon]
    if not matched:
        return 0.0
    return abs(math.fsum(matched) / len(matched))


class World:
    """The generated inputs, parsed without newsdiv."""

    def __init__(self, paths: dict[str, Path]):
        self.order: list[str] = []
        self.subcategory: dict[str, str] = {}
        titles: dict[str, str] = {}
        with open(paths["news"], encoding="utf-8") as handle:
            for line in handle:
                columns = line.rstrip("\n").split("\t")
                self.order.append(columns[0])
                self.subcategory[columns[0]] = columns[2]
                titles[columns[0]] = columns[3]
        self.published: dict[str, float | None] = {}
        self.text: dict[str, str] = {}
        with open(paths["bodies"], encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                self.published[record["id"]] = record["published_at"]
                self.text[record["id"]] = f"{titles[record['id']]}\n{record['body']}".strip()
        self.lexicon: dict[str, float] = {}
        with open(paths["lexicon"], encoding="utf-8") as handle:
            for line in handle:
                token, polarity = line.rstrip("\n").split("\t")
                self.lexicon[token] = float(polarity)
        self.impressions: list[tuple[str, tuple[str, ...], tuple[str, ...], tuple[str, ...]]] = []
        with open(paths["behaviors"], encoding="utf-8") as handle:
            for line in handle:
                impression_id, _, _, history, candidates = line.rstrip("\n").split("\t")
                tokens = candidates.split()
                pool = tuple(token[:-2] for token in tokens)
                clicked = tuple(token[:-2] for token in tokens if token.endswith("-1"))
                recent_first = tuple(reversed(history.split()))
                self.impressions.append((impression_id, recent_first, pool, clicked))
        with open(paths["truth"], encoding="utf-8") as handle:
            self.truth = json.load(handle)["articles"]

    def popular_lists(self) -> dict[str, tuple[str, ...]]:
        """The most-popular baseline: click count descending, then id."""
        clicks = Counter(article for _, _, _, clicked in self.impressions for article in clicked)
        return {
            impression_id: tuple(sorted(pool, key=lambda article: (-clicks[article], article)))
            for impression_id, _, pool, _ in self.impressions
        }

    def article_keys(self) -> dict[str, dict[str, dict[str, dict[str, float]]]]:
        """Per reference metric, each article's key masses."""
        keys: dict[str, dict[str, dict[str, float]]] = {metric: {} for metric in REFERENCE_METRICS}
        for article in self.order:
            truth = self.truth[article]
            sub = self.subcategory[article]
            keys["calibration_topic"][article] = {sub: 1.0} if sub else {}
            score = activation_score(self.text[article], self.lexicon)
            index = min(max(int(math.floor(score * BINS)), 0), BINS - 1)
            keys["activation"][article] = {f"bin_{index}": 1.0} if self.text[article] else {}
            keys["representation"][article] = {actor: 1.0 for actor in truth["political_actors"]}
            voices = {}
            if truth["minority_mentions"]:
                voices["minority"] = float(truth["minority_mentions"])
            if truth["majority_mentions"]:
                voices["majority"] = float(truth["majority_mentions"])
            keys["alternative_voices"][article] = voices
        return keys


def read_lists(path: Path) -> dict[str, tuple[str, ...]]:
    lists = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            lists[record["impression_id"]] = tuple(record["ranked_item_ids"])
    return lists


def check_evaluation(
    world: World,
    out_dir: Path,
    lists_by_source: dict[str, dict[str, tuple[str, ...]]],
    grid: list[tuple[str, str, int]],
    pairs: int,
) -> int:
    """Check report.json, samples.csv and skips.json of one evaluation.

    ``grid`` holds (divergence, weighting, cutoff) points.  Returns the
    number of samples compared against the reference.
    """
    samples: dict[tuple, dict[str, float]] = defaultdict(dict)
    with open(out_dir / "samples.csv", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        if next(reader) != ["metric", "recommender", "divergence", "weighting", "cutoff", "pair_id", "sample"]:
            raise CheckError("samples.csv header changed")
        for metric, source, divergence, weighting, cutoff, pair_id, text in reader:
            value = float(text)
            config = (metric, source, divergence, weighting, int(cutoff))
            if pair_id in samples[config]:
                raise CheckError(f"duplicate sample {config} {pair_id}")
            if not math.isfinite(value) or value < -ROUNDING or (divergence == "js" and value > 1.0):
                raise CheckError(f"sample out of range: {config} {pair_id} = {text}")
            samples[config][pair_id] = value
    with open(out_dir / "skips.json", encoding="utf-8") as handle:
        skip_rows = json.load(handle)["rows"]
    skips: Counter = Counter()
    for row in skip_rows:
        config = (row["metric"], row["recommender"], row["divergence"], row["weighting"], row["cutoff"])
        skips[config] += row["count"]

    expected_configs = set()
    for source, lists in lists_by_source.items():
        n_lists = len(lists)
        for divergence, weighting, cutoff in grid:
            for metric in PER_IMPRESSION_METRICS:
                config = (metric, source, divergence, weighting, cutoff)
                expected_configs.add(config)
                if len(samples.get(config, {})) + skips[config] != n_lists:
                    raise CheckError(f"{config}: samples plus skips != {n_lists} impressions")
                if not set(samples.get(config, {})) <= set(lists):
                    raise CheckError(f"{config}: sample for an unknown impression")
            config = ("fragmentation", source, divergence, weighting, cutoff)
            expected_configs.add(config)
            _check_fragmentation(config, samples.get(config, {}), skips[config], set(lists), pairs)
    unexpected = (set(samples) | set(skips)) - expected_configs
    if unexpected:
        raise CheckError(f"unexpected configurations: {sorted(unexpected)[:3]}")

    compared = _check_reference(world, samples, skips, lists_by_source, grid)
    _check_report(out_dir / "report.json", samples, skips)
    return compared


def _check_fragmentation(config, values: dict[str, float], skipped: int, ids: set[str], pairs: int) -> None:
    per_list = min(pairs, len(ids) - 1)
    if len(values) + skipped != len(ids) * per_list:
        raise CheckError(f"{config}: samples plus skips != {len(ids)} lists x {per_list} partners")
    drawn: Counter = Counter()
    for pair_id, value in values.items():
        current, _, partner = pair_id.partition("|")
        if current == partner or current not in ids or partner not in ids:
            raise CheckError(f"{config}: invalid pair {pair_id}")
        drawn[current] += 1
        mirrored = values.get(f"{partner}|{current}")
        if mirrored is not None and abs(mirrored - value) > TOLERANCE:
            raise CheckError(f"{config}: fragmentation not symmetric for {pair_id}")
    if drawn and max(drawn.values()) > per_list:
        raise CheckError(f"{config}: a list drew more than {per_list} partners")


def _check_reference(world, samples, skips, lists_by_source, grid) -> int:
    keys = world.article_keys()
    impressions = {impression_id: (history, pool) for impression_id, history, pool, _ in world.impressions}
    compared = 0
    for source, lists in lists_by_source.items():
        for divergence, weighting, cutoff in grid:
            for metric in REFERENCE_METRICS:
                key_of = keys[metric]
                config = (metric, source, divergence, weighting, cutoff)
                observed = samples.get(config, {})
                expected_skips = 0
                for impression_id, ranked in lists.items():
                    history, pool = impressions[impression_id]
                    if metric == "calibration_topic":
                        context_items, context_scheme = history, weighting
                    else:
                        context_items, context_scheme = pool, "none"
                    context = distribution([key_of[a] for a in context_items], context_scheme, 0)
                    recommendation = distribution([key_of[a] for a in ranked], weighting, cutoff)
                    expected = reference_sample(context, recommendation, divergence)
                    actual = observed.get(impression_id)
                    if expected is None:
                        expected_skips += 1
                        if actual is not None:
                            raise CheckError(f"{config} {impression_id}: sample where a skip is due")
                        continue
                    if actual is None:
                        raise CheckError(f"{config} {impression_id}: skipped where a sample is due")
                    if abs(actual - expected) > TOLERANCE:
                        raise CheckError(
                            f"{config} {impression_id}: sample {actual!r} != reference {expected!r}"
                        )
                    compared += 1
                if skips[config] != expected_skips:
                    raise CheckError(f"{config}: {skips[config]} skips, reference {expected_skips}")
    return compared


def _check_report(path: Path, samples, skips) -> None:
    """report.json rows restate samples.csv and skips.json exactly."""
    with open(path, encoding="utf-8") as handle:
        rows = json.load(handle)["rows"]
    reported = {}
    for row in rows:
        config = (row["metric"], row["recommender"], row["divergence"], row["weighting"], row["cutoff"])
        reported[config] = row
    with_samples = {config for config, values in samples.items() if values}
    if set(reported) != with_samples:
        raise CheckError("report.json rows differ from the configurations with samples")
    for config, row in reported.items():
        values = list(samples[config].values())
        n = len(values)
        mean = math.fsum(values) / n
        std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1)) if n > 1 else 0.0
        expected = {
            "n": n,
            "mean": round(mean, 4),
            "std": round(std, 4),
            "ci95": round(1.96 * std / math.sqrt(n), 4),
            "skips": skips[config],
        }
        for field, value in expected.items():
            if row[field] != value:
                raise CheckError(f"report.json {config}: {field} {row[field]!r}, expected {value!r}")


def check_enriched(world: World, path: Path) -> int:
    """Check enriched.jsonl against the planted truth; returns its row count."""
    with open(path, encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle]
    if [row["id"] for row in rows] != world.order:
        raise CheckError("enriched.jsonl rows are not the catalog in input order")
    for row in rows:
        article = row["id"]
        truth = world.truth[article]
        for field in ("political_actors", "minority_mentions", "majority_mentions"):
            if row[field] != truth[field]:
                raise CheckError(f"{article}: {field} {row[field]!r}, planted {truth[field]!r}")
        expected = activation_score(world.text[article], world.lexicon)
        if row["activation"] is None or abs(row["activation"] - expected) > TOLERANCE:
            raise CheckError(f"{article}: activation {row['activation']!r}, expected {expected!r}")
        if row["complexity"] is None or not 0.0 <= row["complexity"] <= 100.0:
            raise CheckError(f"{article}: complexity {row['complexity']!r} outside [0, 100]")
        if world.published[article] is not None and row["published_at"] != world.published[article]:
            raise CheckError(f"{article}: published_at changed")
        if (row["chain_id"] is None) != (row["published_at"] is None):
            raise CheckError(f"{article}: chain_id {row['chain_id']!r} with published_at {row['published_at']!r}")
    return len(rows)
