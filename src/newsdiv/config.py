"""Run configuration: key=value config files and the options of one run.

A config file holds one ``key = value`` pair per line (``#`` comments and
blank lines allowed; values may be quoted, and a ``#`` inside quotes is kept).
Keys are those of :data:`OPTION_KEYS`; external recommendation files use keys
of the form ``external.<name> = <path>``.  Flags override the file, which
overrides the defaults; those are the library's own, but for the swept
weightings and the cutoffs.  Each value of a file is checked on its line.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

from .corpus import check_unique, read_lines
from .distrib import SCHEMES
from .divergence import KINDS
from .enrich import DEFAULT_TAU, DEFAULT_WINDOW_SECONDS, check_chaining
from .errors import InputError
from .evaluate import POOLS, build_grid, check_distinct
from .metrics import MetricConfig
from .recommenders import BASELINES

_PATH_KEYS = ("news", "bodies", "behaviors", "lexicon", "gazetteer", "sidecar")
_DAY_SECONDS = 86400.0
_METRIC_DEFAULTS = MetricConfig()


def _split_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _out_dir(text: str) -> Path:
    if not text:
        raise ValueError("empty output directory")
    return Path(text)


# How the text of each option that a flag or a config file can set becomes
# its RunConfig value.  "bins" sets both bin counts; the two keys after it
# override one each.
_PARSERS = {
    **dict.fromkeys(_PATH_KEYS, lambda text: Path(text) if text else None),
    **dict.fromkeys(("divergence", "weighting", "pool"), str),
    **dict.fromkeys(("recommenders", "divergences", "weightings"), _split_list),
    **dict.fromkeys(("alpha", "tau", "window_days"), float),
    **dict.fromkeys(("bins", "activation_bins", "complexity_bins", "pairs", "seed"), int),
    "cutoffs": lambda text: [int(part) for part in _split_list(text)],
    "out": _out_dir,
}
OPTION_KEYS = frozenset(_PARSERS)

# key = value, then an optional comment; a quoted value may hold "#".
_LINE = re.compile(r"""([^=#]*?)\s*=\s*("[^"]*"|'[^']*'|[^#]*?)\s*(?:#.*)?""")


def load_config_file(path: str | Path) -> dict[str, str]:
    """The ``key = value`` pairs of a config file, as text.  An unknown or
    repeated key, or a value that fails the checks ``RunConfig.from_options``
    makes of it alone, is an InputError that names its line."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"config file not found: {path}")
    values: dict[str, str] = {}
    first_lines: dict[str, int] = {}
    for lineno, line in read_lines(path, comments=True):
        match = _LINE.fullmatch(line)
        if match is None:
            raise InputError(f"{path}:{lineno}: expected 'key = value'")
        key, value = match.groups()
        if key not in OPTION_KEYS and not (key.startswith("external.") and key != "external."):
            raise InputError(f"{path}:{lineno}: unknown key {key!r}")
        check_unique(first_lines, key, path, lineno, "key", InputError)
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
            value = value[1:-1]
        try:
            RunConfig.from_options({key: value})
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
        values[key] = value
    return values


@dataclass
class RunConfig:
    """Resolved inputs and parameters for one CLI run."""

    news: Path | None = None
    bodies: Path | None = None
    behaviors: Path | None = None
    lexicon: Path | None = None
    gazetteer: Path | None = None
    sidecar: Path | None = None
    externals: dict[str, Path] = field(default_factory=dict)
    out: Path = Path("out")

    recommenders: list[str] = field(default_factory=lambda: list(BASELINES))
    divergence: str = _METRIC_DEFAULTS.divergence
    weighting: str = _METRIC_DEFAULTS.weighting.scheme
    divergences: list[str] = field(default_factory=lambda: list(KINDS))
    weightings: list[str] = field(default_factory=lambda: ["none", "mrr"])
    cutoffs: list[int] = field(default_factory=lambda: [0])
    alpha: float = _METRIC_DEFAULTS.alpha
    activation_bins: int = _METRIC_DEFAULTS.activation_bins
    complexity_bins: int = _METRIC_DEFAULTS.complexity_bins
    pairs: int = _METRIC_DEFAULTS.fragmentation_pairs
    seed: int = _METRIC_DEFAULTS.seed
    pool: str = POOLS[0]
    tau: float = DEFAULT_TAU
    window_days: float = DEFAULT_WINDOW_SECONDS / _DAY_SECONDS

    @classmethod
    def from_options(cls, options: Mapping[str, object]) -> "RunConfig":
        """Build from string options over the field defaults, validating as
        it goes.  External files come as ``external.<name>`` keys."""
        config = cls()
        for key, parse in _PARSERS.items():
            if options.get(key) is None:
                continue
            try:
                value = parse(str(options[key]))
            except ValueError:
                raise InputError(f"invalid value for {key}: {options[key]!r}") from None
            if key == "bins":
                config.activation_bins = config.complexity_bins = value
            else:
                setattr(config, key, value)
        for key, value in options.items():
            if isinstance(key, str) and key.startswith("external."):
                if not str(value).strip():
                    raise InputError(f"config key {key!r} has an empty path")
                config.externals[key[len("external."):]] = Path(str(value))

        config.validate()
        return config

    def validate(self) -> None:
        """Check the names here and every other value with the library's own
        checks, whose ValueError becomes an input error."""
        for name, values, allowed in (
            ("divergence", [self.divergence, *self.divergences], KINDS),
            ("weighting", [self.weighting, *self.weightings], SCHEMES),
            ("recommender", self.recommenders, BASELINES),
            ("pool", [self.pool], POOLS),
        ):
            for value in values:
                if value not in allowed:
                    raise InputError(f"{name} must be one of {', '.join(allowed)}, got {value!r}")
        try:
            self.metric_config()
            build_grid([self.divergence], [self.weighting], self.cutoffs)
            build_grid(self.divergences, self.weightings, self.cutoffs)
            check_distinct("recommenders", self.recommenders)
            check_chaining(self.tau, self.window_seconds)
        except ValueError as exc:
            raise InputError(str(exc)) from None

    @property
    def window_seconds(self) -> float:
        return self.window_days * _DAY_SECONDS

    def metric_config(self) -> MetricConfig:
        return replace(
            _METRIC_DEFAULTS,
            divergence=self.divergence,
            weighting=replace(_METRIC_DEFAULTS.weighting, scheme=self.weighting),
            alpha=self.alpha,
            activation_bins=self.activation_bins,
            complexity_bins=self.complexity_bins,
            fragmentation_pairs=self.pairs,
            seed=self.seed,
        )

    def echo(self) -> dict[str, object]:
        """Configuration as written into report.json."""
        echo: dict[str, object] = {
            key: str(path) if (path := getattr(self, key)) else None for key in _PATH_KEYS
        }
        echo["externals"] = {name: str(path) for name, path in sorted(self.externals.items())}
        for key in ("recommenders", "cutoffs", "alpha", "activation_bins", "complexity_bins", "pairs",
                    "seed", "pool", "tau", "window_days"):
            echo[key] = getattr(self, key)
        return echo
