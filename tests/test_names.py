"""One message per name rule, whatever the route.

Each closed vocabulary has one owner that checks it: ``MetricConfig`` the
divergence names, ``RankWeighting`` the weighting schemes,
``evaluate.check_pool`` the pools and ``RunConfig.validate`` the baseline
recommenders, which no library object owns.  ``f_divergence``, the
independent reference, keeps its own check in the owner's wording.  Here
each bad name goes through every route that reaches it (a config-file line,
a flag without argparse ``choices``, ``RunConfig.validate`` and the library
objects) and must come out with its owner's exact message.
"""
import pytest

from newsdiv.cli import main
from newsdiv.config import RunConfig
from newsdiv.corpus import Corpus
from newsdiv.distrib import DiscreteDistribution, RankWeighting
from newsdiv.divergence import f_divergence
from newsdiv.errors import InputError
from newsdiv.evaluate import GridPoint, build_grid, check_pool, evaluate_recommendations
from newsdiv.metrics import MetricConfig

from test_cli import base_args

MESSAGES = {
    "divergence": "divergence must be one of kl, js, got 'bogus'",
    "weighting": "unknown weighting scheme 'bogus'",
    "pool": "unknown pool 'bogus'",
    "recommender": "recommender must be one of random, popular, got 'bogus'",
}

# Each RunConfig field, which is also a config-file key, and its vocabulary.
FIELDS = [
    ("divergence", "divergence"),
    ("divergences", "divergence"),
    ("weighting", "weighting"),
    ("weightings", "weighting"),
    ("pool", "pool"),
    ("recommenders", "recommender"),
]

# The flags without argparse ``choices``, each given a good name and then a
# bad one; --divergence, --weighting and --pool leave a bad name to argparse.
FLAGS = [
    ("sensitivity", "--divergences", "js,bogus", "divergence"),
    ("sensitivity", "--weightings", "mrr,bogus", "weighting"),
    ("evaluate", "--recommenders", "random,bogus", "recommender"),
]

_UNIFORM = DiscreteDistribution({"a": 0.5, "b": 0.5})

# Each library route: the call and its vocabulary.
LIBRARY = [
    (lambda: MetricConfig(divergence="bogus"), "divergence"),
    (lambda: GridPoint("bogus", "mrr", 0), "divergence"),
    (lambda: build_grid(["bogus"], ["mrr"], [0]), "divergence"),
    (lambda: build_grid(["js", "bogus"], ["mrr"], [0, 3]), "divergence"),
    (lambda: f_divergence(_UNIFORM, _UNIFORM, "bogus"), "divergence"),
    (lambda: RankWeighting("bogus"), "weighting"),
    (lambda: GridPoint("js", "bogus", 3), "weighting"),
    (lambda: build_grid(["js"], ["bogus"], [0]), "weighting"),
    (lambda: check_pool("bogus"), "pool"),
    (lambda: evaluate_recommendations(Corpus(), [], {}, MetricConfig(), [GridPoint("js", "mrr", 0)], pool="bogus"),
     "pool"),
]
LIBRARY_IDS = [
    "MetricConfig", "GridPoint-divergence", "build_grid-divergence", "build_grid-divergence-sweep", "f_divergence",
    "RankWeighting", "GridPoint-weighting", "build_grid-weighting", "check_pool", "evaluate_recommendations",
]


@pytest.mark.parametrize("key,vocabulary", FIELDS, ids=[key for key, _ in FIELDS])
def test_config_file_line(fixture_paths, tmp_path, capsys, key, vocabulary):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(f"seed = 1\n{key} = bogus\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["evaluate", *base_args(fixture_paths, out_dir), "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"error: {config_path}:2: {MESSAGES[vocabulary]}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command,flag,value,vocabulary", FLAGS, ids=[flag for _, flag, _, _ in FLAGS])
def test_flag(fixture_paths, tmp_path, capsys, command, flag, value, vocabulary):
    out_dir = tmp_path / "out"
    assert main([command, *base_args(fixture_paths, out_dir), flag, value]) == 1
    assert capsys.readouterr().err == f"error: {MESSAGES[vocabulary]}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("key,vocabulary", FIELDS, ids=[key for key, _ in FIELDS])
def test_run_config(key, vocabulary):
    value = "bogus" if key in ("divergence", "weighting", "pool") else ["bogus"]
    with pytest.raises(InputError) as caught:
        RunConfig(**{key: value}).validate()
    assert str(caught.value) == MESSAGES[vocabulary]


@pytest.mark.parametrize("call,vocabulary", LIBRARY, ids=LIBRARY_IDS)
def test_library(call, vocabulary):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == MESSAGES[vocabulary]
