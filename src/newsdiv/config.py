"""Run configuration: defaults, key=value config files and flag merging.

A config file holds one ``key = value`` pair per line (``#`` comments and
blank lines allowed; values may be quoted, and a ``#`` inside quotes is kept).
Keys are those of :data:`OPTION_KEYS`; external recommendation files use keys
of the form ``external.<name> = <path>``.  Command-line flags override the
file, which overrides the built-in defaults.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .corpus import read_lines
from .distrib import SCHEMES, Binning, RankWeighting
from .divergence import KINDS
from .enrich import check_chaining
from .errors import InputError
from .evaluate import POOLS, build_grid
from .metrics import MetricConfig
from .recommenders import BASELINES

_PATH_KEYS = ("news", "bodies", "behaviors", "lexicon", "gazetteer", "sidecar")


def _split_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


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
    "out": Path,
}
OPTION_KEYS = frozenset(_PARSERS)

# key = value, then an optional comment; a quoted value may hold "#".
_LINE = re.compile(r"""([^=#]*?)\s*=\s*("[^"]*"|'[^']*'|[^#]*?)\s*(?:#.*)?""")


def load_config_file(path: str | Path) -> dict[str, str]:
    """The ``key = value`` pairs of a config file, as text.  An unknown key,
    or an option value that fails the checks ``RunConfig.from_options`` makes
    of it alone, is an InputError that names its line."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for lineno, line in read_lines(path, comments=True):
        match = _LINE.fullmatch(line)
        if match is None:
            raise InputError(f"{path}:{lineno}: expected 'key = value'")
        key, value = match.groups()
        if key not in OPTION_KEYS and not (key.startswith("external.") and key != "external."):
            raise InputError(f"{path}:{lineno}: unknown key {key!r}")
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
            value = value[1:-1]
        if key in OPTION_KEYS:
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

    recommenders: list[str] = field(default_factory=lambda: ["random", "popular"])
    divergence: str = "js"
    weighting: str = "mrr"
    divergences: list[str] = field(default_factory=lambda: ["kl", "js"])
    weightings: list[str] = field(default_factory=lambda: ["none", "mrr"])
    cutoffs: list[int] = field(default_factory=lambda: [0])
    alpha: float = 0.001
    activation_bins: int = 10
    complexity_bins: int = 10
    pairs: int = 5
    seed: int = 0
    pool: str = "impression"
    tau: float = 0.5
    window_days: float = 3.0

    @classmethod
    def from_options(cls, options: Mapping[str, object]) -> "RunConfig":
        """Build from string options over the field defaults, validating as
        it goes."""
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

        externals = options.get("externals")
        if externals:
            for item in externals if isinstance(externals, list) else _split_list(str(externals)):
                name, separator, path_text = item.partition("=")
                if not separator or not name.strip():
                    raise InputError(f"--external expects name=path, got {item!r}")
                if not path_text.strip():
                    raise InputError(f"--external {name.strip()}= has an empty path")
                config.externals[name.strip()] = Path(path_text.strip())
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
            check_chaining(self.tau, self.window_days * 86400.0)
        except ValueError as exc:
            raise InputError(str(exc)) from None

    def metric_config(self) -> MetricConfig:
        return MetricConfig(
            divergence=self.divergence,
            weighting=RankWeighting(self.weighting, None),
            alpha=self.alpha,
            activation_bins=Binning("activation", self.activation_bins, 0.0, 1.0),
            complexity_bins=Binning("complexity", self.complexity_bins, 0.0, 100.0),
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
