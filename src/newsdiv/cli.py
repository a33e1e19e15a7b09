"""Command-line interface.

Subcommands: ``enrich`` (compute article metadata), ``recommend`` (baseline
ranking files), ``evaluate`` (score one divergence/weighting setup) and
``sensitivity`` (sweep divergence x weighting x cutoffs).  Exit codes: 0 on
success, 1 on input and usage errors, 2 on internal errors.
"""
from __future__ import annotations

import argparse
import sys

from . import corpus as corpus_io
from .config import _PATH_KEYS, OPTION_KEYS, RunConfig, load_config_file
from .distrib import SCHEMES
from .divergence import KINDS
from .enrich import dump_enriched, enrich_corpus, load_gazetteer, load_lexicon, load_sidecar
from .errors import InputError
from .evaluate import POOLS, build_grid, evaluate_recommendations
from .recommenders import BASELINES, click_counts, recommend_popular, recommend_random
from .report import aggregate_rows, write_report, write_samples_csv, write_skips


class _HelpFormatter(argparse.HelpFormatter):
    """Ends the help of each run option with its ``RunConfig()`` default."""

    def _get_help_string(self, action: argparse.Action) -> str | None:
        key = "activation_bins" if action.dest == "bins" else action.dest
        default = getattr(RunConfig(), key) if key in OPTION_KEYS else None
        if isinstance(default, list):
            default = ",".join(map(str, default))
        return action.help if default is None else f"{action.help} (default {default})"


class _Parser(argparse.ArgumentParser):
    """Takes each flag under its full name only, so that ``--divergence``
    cannot stand for ``--divergences``, and reports usage errors as input
    errors, so that they exit 1."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, formatter_class=_HelpFormatter, **kwargs)

    def error(self, message: str):
        raise InputError(f"{self.prog}: {message}")


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--news", help="news catalog TSV")
    parser.add_argument("--bodies", help="article bodies JSON-lines")
    parser.add_argument("--behaviors", help="impression log TSV")
    parser.add_argument("--lexicon", help="sentiment lexicon TSV")
    parser.add_argument("--gazetteer", help="entity gazetteer JSON-lines")
    parser.add_argument("--sidecar", help="enrichment override JSON-lines")
    parser.add_argument("--seed", help="master seed")
    parser.add_argument("--tau", help="story-chain cosine threshold")
    parser.add_argument("--window-days", dest="window_days", help="story-chain window")


def _add_metric_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cutoffs", help="comma list of rank cutoffs; 0 means @N")
    parser.add_argument("--alpha", help="smoothing fraction")
    parser.add_argument("--bins", help="bin count for activation and complexity")
    parser.add_argument("--pairs", help="fragmentation partner draws per list")
    parser.add_argument("--recommenders", help="comma list of baseline recommenders")
    parser.add_argument(
        "--external", action="append", dest="externals", metavar="NAME=PATH",
        help="external recommendations JSON-lines; repeatable",
    )
    parser.add_argument("--pool", choices=POOLS, help="supply context")
    parser.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="newsdiv",
        description="Score ranked news-recommendation logs on normative diversity metrics.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    enrich = subparsers.add_parser("enrich", help="compute per-article metadata")
    _add_common_options(enrich)
    enrich.add_argument("-o", "--output", required=True, help="enriched catalog JSON-lines")
    enrich.set_defaults(handler=_cmd_enrich)

    recommend = subparsers.add_parser("recommend", help="write a baseline recommendation file")
    _add_common_options(recommend)
    recommend.add_argument("--strategy", choices=BASELINES, required=True)
    recommend.add_argument("-o", "--output", required=True, help="recommendations JSON-lines")
    recommend.set_defaults(handler=_cmd_recommend)

    evaluate = subparsers.add_parser("evaluate", help="score recommenders on all metrics")
    _add_common_options(evaluate)
    _add_metric_options(evaluate)
    evaluate.add_argument("--divergence", choices=KINDS, help="divergence")
    evaluate.add_argument("--weighting", choices=SCHEMES, help="rank discount")
    evaluate.set_defaults(handler=_cmd_score)

    sensitivity = subparsers.add_parser(
        "sensitivity", help="sweep divergence, rank-awareness and cutoffs"
    )
    _add_common_options(sensitivity)
    _add_metric_options(sensitivity)
    sensitivity.add_argument("--divergences", help="comma list to sweep")
    sensitivity.add_argument("--weightings", help="comma list to sweep")
    sensitivity.set_defaults(handler=_cmd_score)

    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Flags over the config file over the defaults; ``--external N=P`` sets ``external.N``."""
    options = load_config_file(args.config) if args.config else {}
    options.update(
        {key: value for key in OPTION_KEYS if (value := getattr(args, key, None)) is not None}
    )
    for item in getattr(args, "externals", None) or ():
        name, separator, path = (part.strip() for part in item.partition("="))
        if not separator or not name:
            raise InputError(f"--external expects name=path, got {item!r}")
        if not path:
            raise InputError(f"--external {name}= has an empty path")
        options[f"external.{name}"] = path
    return RunConfig.from_options(options)


def _require(config: RunConfig, *names: str) -> None:
    """Check, before anything is loaded, the options and input files given."""
    for name in names:
        if getattr(config, name) is None:
            raise InputError(f"--{name} is required for this command")
    given = [(name, getattr(config, name)) for name in _PATH_KEYS]
    given += [("external recommendations", path) for path in config.externals.values()]
    for name, path in given:
        if path is not None and not path.exists():
            raise InputError(f"{name} file not found: {path}")


def _load_corpus(config: RunConfig, impressions=None) -> corpus_io.Corpus:
    corpus = corpus_io.load_catalog(config.news, config.bodies)
    enrich_corpus(
        corpus,
        lexicon=load_lexicon(config.lexicon) if config.lexicon else None,
        gazetteer=load_gazetteer(config.gazetteer) if config.gazetteer else None,
        tau=config.tau,
        window_seconds=config.window_seconds,
        impressions=impressions,
    )
    if config.sidecar:
        load_sidecar(config.sidecar, corpus)
    for warning in corpus.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return corpus


def _cmd_enrich(args: argparse.Namespace, config: RunConfig) -> int:
    _require(config, "news")
    impressions = corpus_io.load_behaviors(config.behaviors) if config.behaviors else None
    corpus = _load_corpus(config, impressions)
    dump_enriched(corpus, args.output)
    print(f"enriched {len(corpus)} articles -> {args.output} ({len(corpus.warnings)} warnings)")
    return 0


def _cmd_recommend(args: argparse.Namespace, config: RunConfig) -> int:
    _require(config, "behaviors")
    impressions = corpus_io.load_behaviors(config.behaviors)
    recommendations = _baseline(args.strategy, impressions, config.seed)
    corpus_io.dump_recommendations(recommendations, args.output)
    print(f"wrote {len(recommendations)} {args.strategy} recommendations -> {args.output}")
    return 0


def _baseline(strategy: str, impressions, seed: int):
    """Ranked lists of one baseline recommender, one per impression."""
    if strategy == "random":
        return [recommend_random(impression, seed) for impression in impressions]
    counts = click_counts(impressions)
    return [recommend_popular(impression, counts) for impression in impressions]


def _gather_recommendations(config: RunConfig, impressions):
    by_source = {name: _baseline(name, impressions, config.seed) for name in config.recommenders}
    for name, path in sorted(config.externals.items()):
        source = f"external:{name}"
        by_source[source] = corpus_io.load_recommendations(path, impressions, source=source)
    return by_source


def _cmd_score(args: argparse.Namespace, config: RunConfig) -> int:
    if args.command == "evaluate":
        grid = build_grid([config.divergence], [config.weighting], config.cutoffs)
    else:
        grid = build_grid(config.divergences, config.weightings, config.cutoffs)
    _require(config, "news", "behaviors")
    if not config.recommenders and not config.externals:
        raise InputError("no recommenders to score: --recommenders is empty and no --external given")
    impressions = corpus_io.load_behaviors(config.behaviors)
    corpus = _load_corpus(config, impressions)
    missing = corpus_io.missing_article_ids(impressions, corpus)
    if missing:
        raise InputError(
            f"behaviors reference {len(missing)} article id(s) missing from the catalog: "
            + ", ".join(missing[:10])
        )
    recommendations = _gather_recommendations(config, impressions)
    result = evaluate_recommendations(
        corpus, impressions, recommendations, config.metric_config(), grid, pool=config.pool
    )
    out_dir = config.out
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = aggregate_rows(result.sample_columns, result.skip_columns)
    write_report(rows, out_dir / "report.json", config.echo())
    write_samples_csv(result.sample_columns, out_dir / "samples.csv")
    write_skips(result.skip_columns, out_dir / "skips.json")
    print(
        f"wrote {out_dir / 'report.json'} ({len(rows)} rows), "
        f"{out_dir / 'samples.csv'} ({result.sample_count} samples), "
        f"{out_dir / 'skips.json'} ({result.skip_count} skips)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args, _resolve_config(args))
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure, distinct exit code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
