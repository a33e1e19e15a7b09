"""The five normative diversity metrics over ranked recommendation lists.

Every metric is the divergence between two discrete distributions: the
recommendation's rank-discounted distribution against a metric-specific
context.

* calibration (topic / complexity): context = the user's reading history,
  discounted by recency.
* fragmentation: context = another user's recommendation, both sides
  discounted by rank, over story chains.
* activation / representation / alternative voices: context = the impression's
  candidate pool, never discounted (there is no ranking over the supply).

The rank cutoff applies to recommendation lists only; a reading history is
never truncated by it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Mapping, Sequence

from .corpus import Article
from .distrib import (
    Binning,
    DiscreteDistribution,
    KeyFn,
    RankWeighting,
    _check_alpha,
    build_distribution,
    history_distribution,
    smooth_pair,  # noqa: F401 - not called here; perfbench/child.py wraps metrics.smooth_pair
)
from .divergence import KINDS, js, kl
from .errors import EmptyDistributionError
from .seeding import derive_rng

METRIC_NAMES = (
    "calibration_topic",
    "calibration_complexity",
    "fragmentation",
    "activation",
    "representation",
    "alternative_voices",
)

SUPPLY_WEIGHTING = RankWeighting("none", None)


@dataclass(frozen=True)
class MetricConfig:
    """Everything a metric needs beyond the articles themselves.

    A fixed seed makes the whole run deterministic, including fragmentation
    partner sampling.
    """

    divergence: str = "js"
    weighting: RankWeighting = RankWeighting("mrr", None)
    alpha: float = 0.001
    activation_bins: Binning = Binning("activation", 10, 0.0, 1.0)
    complexity_bins: Binning = Binning("complexity", 10, 0.0, 100.0)
    fragmentation_pairs: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.divergence not in KINDS:
            raise ValueError(f"unknown divergence {self.divergence!r}")
        _check_alpha(self.alpha)
        if self.fragmentation_pairs < 1:
            raise ValueError("fragmentation_pairs must be >= 1")


def subcategory_keys(article: Article) -> Mapping[str, float]:
    return {article.subcategory: 1.0} if article.subcategory else {}


def chain_keys(article: Article) -> Mapping[str, float]:
    return {article.chain_id: 1.0} if article.chain_id else {}


def actor_keys(article: Article) -> Mapping[str, float]:
    return {actor: 1.0 for actor in article.political_actors}


def voice_keys(article: Article) -> Mapping[str, float]:
    """Minority/majority masses proportional to mention counts."""
    keys = {}
    if article.minority_mentions:
        keys["minority"] = float(article.minority_mentions)
    if article.majority_mentions:
        keys["majority"] = float(article.majority_mentions)
    return keys


def binned_keys(binning: Binning):
    def key_fn(article: Article) -> Mapping[str, float]:
        value = getattr(article, binning.field)
        return {binning.key_for(value): 1.0} if value is not None else {}

    return key_fn


def metric_keys(config: MetricConfig) -> dict[str, KeyFn]:
    """Key function of each per-impression metric."""
    return {
        "calibration_topic": subcategory_keys,
        "calibration_complexity": binned_keys(config.complexity_bins),
        "activation": binned_keys(config.activation_bins),
        "representation": actor_keys,
        "alternative_voices": voice_keys,
    }


# Per-impression metrics whose context is the reading history; the others
# take the candidate pool.
HISTORY_METRICS = frozenset({"calibration_topic", "calibration_complexity"})


def context_builder(metric: str, weighting: RankWeighting) -> tuple[Callable, RankWeighting]:
    """How a per-impression metric builds its context for a list weighted by
    ``weighting``: the function (called with items and a key function) and
    its weighting.  A reading history is discounted like the list but never
    cut off, and must not be empty; a candidate pool is not discounted."""
    if metric in HISTORY_METRICS:
        return history_distribution, weighting.without_cutoff()
    return build_distribution, SUPPLY_WEIGHTING


def pair_divergence(
    context: DiscreteDistribution,
    recommendation: DiscreteDistribution,
    config: MetricConfig,
    symmetrize_kl: bool = False,
) -> float:
    """Diverge the pair after smoothing it on its union domain (``js`` and
    ``kl`` smooth with ``config.alpha``).

    KL runs context-first (how far the recommendation drifts from the
    context); ``symmetrize_kl`` averages the two KL directions instead,
    which fragmentation uses because neither user is the reference.
    """
    alpha = config.alpha
    if config.divergence == "js":
        return js(context, recommendation, alpha)
    return kl(context, recommendation, alpha, symmetrize=symmetrize_kl)


def _sample(
    context: DiscreteDistribution | str,
    recommendation: DiscreteDistribution | str,
    config: MetricConfig,
    symmetrize_kl: bool = False,
) -> float | str:
    """pair_divergence of two distributions, or the skip reason that stands
    in for the first one that could not be built."""
    for side in (context, recommendation):
        if isinstance(side, str):
            return side
    return pair_divergence(context, recommendation, config, symmetrize_kl)


def _per_impression(
    metric: str,
    context_items: Sequence[Article],
    recommended: Sequence[Article],
    config: MetricConfig,
) -> float:
    key_fn = metric_keys(config)[metric]
    build, context_weighting = context_builder(metric, config.weighting)
    context = build(context_items, key_fn, context_weighting)
    recommendation = build_distribution(recommended, key_fn, config.weighting)
    return pair_divergence(context, recommendation, config)


def calibration_topic(
    history: Sequence[Article],
    recommended: Sequence[Article],
    config: MetricConfig,
) -> float:
    """Divergence of recommended subcategories from the reading history's."""
    return _per_impression("calibration_topic", history, recommended, config)


def calibration_complexity(
    history: Sequence[Article],
    recommended: Sequence[Article],
    config: MetricConfig,
) -> float:
    """Calibration over binned reading-ease scores instead of subcategories."""
    return _per_impression("calibration_complexity", history, recommended, config)


def fragmentation(
    recommended_u: Sequence[Article],
    recommended_v: Sequence[Article],
    config: MetricConfig,
) -> float:
    """Divergence between two users' recommended story-chain distributions.

    Symmetric for both divergence kinds: JS inherently, KL by averaging the
    two parameter orders.
    """
    distribution_u = build_distribution(recommended_u, chain_keys, config.weighting)
    distribution_v = build_distribution(recommended_v, chain_keys, config.weighting)
    return pair_divergence(distribution_u, distribution_v, config, symmetrize_kl=True)


def activation_divergence(
    candidates: Sequence[Article],
    recommended: Sequence[Article],
    config: MetricConfig,
) -> float:
    """Divergence of recommended activation bins from the candidate pool's."""
    return _per_impression("activation", candidates, recommended, config)


def representation(
    candidates: Sequence[Article],
    recommended: Sequence[Article],
    config: MetricConfig,
) -> float:
    """Divergence of recommended political-actor presence from the pool's.

    Articles mentioning several actors weigh in once per actor; articles
    mentioning none drop out entirely.
    """
    return _per_impression("representation", candidates, recommended, config)


def alternative_voices(
    candidates: Sequence[Article],
    recommended: Sequence[Article],
    config: MetricConfig,
) -> float:
    """Divergence of the minority/majority voice share from the pool's."""
    return _per_impression("alternative_voices", candidates, recommended, config)


def fragmentation_partners(ids: Sequence[str], pairs: int, seed: int) -> list[tuple[str, str]]:
    """Seeded partner draw: for every id, ``pairs`` distinct partners sampled
    uniformly without replacement (all of them when pairs >= population - 1).

    Deterministic for a fixed seed regardless of caller ordering.
    """
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    ordered = sorted(ids)
    if len(ordered) != len(set(ordered)):
        raise ValueError("ids must be unique")
    rng = derive_rng(seed, "fragmentation")
    # Sampling positions in range(n - 1) draws the same positions as sampling
    # the list of the other ids, without building that list for every id.
    others = len(ordered) - 1
    drawn = []
    for i, current in enumerate(ordered):
        for j in rng.sample(range(others), min(pairs, others)):
            drawn.append((current, ordered[j if j < i else j + 1]))
    return drawn


@dataclass
class FragmentationSamples:
    samples: list[tuple[str, float]] = field(default_factory=list)
    skips: list[tuple[str, str]] = field(default_factory=list)


def sample_fragmentation(
    recommendations: Mapping[str, Sequence[Article]],
    config: MetricConfig,
    built: dict[RankWeighting, dict[str, DiscreteDistribution | str]] | None = None,
    draws: dict[tuple, list[tuple[str, str, str]]] | None = None,
) -> FragmentationSamples:
    """Fragmentation over seeded partner pairs of recommendation lists.

    ``recommendations`` maps a list id (impression id) to its ranked
    articles.  Fewer than two lists yields no samples, only a skip entry.
    Sample ids are "u|v" for the ordered draw (u, v).  The samples and the
    skips each come in pair id order, the string order of their ids.

    Each list's chain distribution (or the reason it could not be built) is
    built once, however often it is drawn.  Given ``built``, it is kept there
    under ``config.weighting`` and reused by later calls over the same lists,
    such as grid points that differ only in the divergence.  Given
    ``draws``, the partner draw and its sample ids, in that order, are kept
    there under the sorted list ids, ``config.fragmentation_pairs`` and ``config.seed``, and
    reused by later calls over the same list ids, such as other grid points
    and other recommenders of the same impressions.
    """
    result = FragmentationSamples()
    if len(recommendations) < 2:
        result.skips.append(("", "fewer than 2 recommendation lists"))
        return result
    chains = {} if built is None else built.setdefault(config.weighting, {})
    for list_id, articles in recommendations.items():
        if list_id in chains:
            continue
        try:
            chains[list_id] = build_distribution(articles, chain_keys, config.weighting)
        except EmptyDistributionError as exc:
            chains[list_id] = str(exc)
    ids = tuple(sorted(recommendations))
    draw_key = (ids, config.fragmentation_pairs, config.seed)
    drawn = None if draws is None else draws.get(draw_key)
    if drawn is None:
        drawn = sorted(
            (
                (current, partner, f"{current}|{partner}")
                for current, partner in fragmentation_partners(ids, config.fragmentation_pairs, config.seed)
            ),
            key=itemgetter(2),
        )
        if draws is not None:
            draws[draw_key] = drawn
    for current, partner, pair_id in drawn:
        value = _sample(chains[current], chains[partner], config, symmetrize_kl=True)
        if isinstance(value, str):
            result.skips.append((pair_id, value))
        else:
            result.samples.append((pair_id, value))
    return result


@dataclass(frozen=True)
class Aggregate:
    """Mean with a normal-approximation 95% confidence interval."""

    n: int
    mean: float
    std: float
    ci95: float


def aggregate(samples: Sequence[float]) -> Aggregate:
    """Mean, sample standard deviation (n - 1, zero for a single sample) and
    the 1.96 std / sqrt(n) interval half-width."""
    n = len(samples)
    if n == 0:
        raise ValueError("cannot aggregate zero samples")
    mean = math.fsum(samples) / n
    if n == 1:
        std = 0.0
    else:
        std = math.sqrt(math.fsum((value - mean) ** 2 for value in samples) / (n - 1))
    return Aggregate(n=n, mean=mean, std=std, ci95=1.96 * std / math.sqrt(n))
