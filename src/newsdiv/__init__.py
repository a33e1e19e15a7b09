"""Normative diversity metrics for ranked news-recommendation logs.

Scores recommendation lists on five divergence-based metrics (calibration
over topics and complexity, fragmentation, activation, representation and
alternative voices), each the smoothed, rank-aware divergence between the
recommendation's distribution and a metric-specific context distribution.
"""

from .corpus import (
    Article,
    Corpus,
    ImpressionLog,
    RecommendationList,
    load_behaviors,
    load_catalog,
    load_recommendations,
)
from .distrib import (
    DiscreteDistribution,
    RankWeighting,
    build_distribution,
    history_distribution,
    rank_weight,
)
from .divergence import f_divergence, js, kl, smooth_pair
from .enrich import (
    Gazetteer,
    activation,
    chain_articles,
    complexity,
    enrich_corpus,
    load_gazetteer,
    load_lexicon,
    load_sidecar,
    tag_entities,
)
from .errors import (
    EmptyDistributionError,
    InputError,
    ParseError,
    UnsmoothedZeroError,
    ValidationError,
)
from .metrics import (
    METRIC_NAMES,
    Aggregate,
    MetricConfig,
    activation_divergence,
    aggregate,
    alternative_voices,
    calibration_complexity,
    calibration_topic,
    fragmentation,
    representation,
    sample_fragmentation,
)
from .recommenders import click_counts, recommend_popular, recommend_random

__version__ = "0.1.0"
