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

from .distrib import SCHEMES, Binning, RankWeighting
from .divergence import KINDS
from .errors import InputError
from .evaluate import POOLS
from .metrics import MetricConfig
from .recommenders import BASELINES

DEFAULTS: dict[str, str] = {
    "divergence": "js",
    "weighting": "mrr",
    "cutoffs": "0",
    "alpha": "0.001",
    "bins": "10",
    "pairs": "5",
    "seed": "0",
    "recommenders": "random,popular",
    "pool": "impression",
    "tau": "0.5",
    "window_days": "3",
    "divergences": "kl,js",
    "weightings": "none,mrr",
    "out": "out",
}

_PATH_KEYS = ("news", "bodies", "behaviors", "lexicon", "gazetteer", "sidecar")

# Every key that a flag or a config file can set.
OPTION_KEYS = frozenset((*_PATH_KEYS, *DEFAULTS, "activation_bins", "complexity_bins"))

# key = value, then an optional comment; a quoted value may hold "#".
_LINE = re.compile(r"""([^=#]*?)\s*=\s*("[^"]*"|'[^']*'|[^#]*?)\s*(?:#.*)?""")


def load_config_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise InputError(f"config file not found: {path}")
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            match = _LINE.fullmatch(line)
            if match is None:
                raise InputError(f"{path}:{lineno}: expected 'key = value'")
            key, value = match.groups()
            if key not in OPTION_KEYS and not (key.startswith("external.") and key != "external."):
                raise InputError(f"{path}:{lineno}: unknown key {key!r}")
            if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
                value = value[1:-1]
            values[key] = value
    return values


def _split_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


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
        """Build from merged string options, validating as it goes."""
        merged = dict(DEFAULTS)
        merged.update({k: v for k, v in options.items() if v is not None})
        config = cls()
        try:
            for key in _PATH_KEYS:
                if merged.get(key):
                    setattr(config, key, Path(str(merged[key])))
            config.out = Path(str(merged["out"]))
            config.recommenders = _split_list(str(merged["recommenders"]))
            config.divergence = str(merged["divergence"])
            config.weighting = str(merged["weighting"])
            config.divergences = _split_list(str(merged["divergences"]))
            config.weightings = _split_list(str(merged["weightings"]))
            config.cutoffs = [int(part) for part in _split_list(str(merged["cutoffs"]))]
            config.alpha = float(str(merged["alpha"]))
            bins = int(str(merged["bins"]))
            config.activation_bins = int(str(merged.get("activation_bins", bins)))
            config.complexity_bins = int(str(merged.get("complexity_bins", bins)))
            config.pairs = int(str(merged["pairs"]))
            config.seed = int(str(merged["seed"]))
            config.pool = str(merged["pool"])
            config.tau = float(str(merged["tau"]))
            config.window_days = float(str(merged["window_days"]))
        except ValueError as exc:
            raise InputError(f"invalid configuration value: {exc}") from None

        externals = merged.get("externals")
        if externals:
            for item in externals if isinstance(externals, list) else _split_list(str(externals)):
                name, separator, path_text = item.partition("=")
                if not separator or not name.strip():
                    raise InputError(f"--external expects name=path, got {item!r}")
                if not path_text.strip():
                    raise InputError(f"--external {name.strip()}= has an empty path")
                config.externals[name.strip()] = Path(path_text.strip())
        for key, value in merged.items():
            if isinstance(key, str) and key.startswith("external."):
                if not str(value).strip():
                    raise InputError(f"config key {key!r} has an empty path")
                config.externals[key[len("external."):]] = Path(str(value))

        config.validate()
        return config

    def validate(self) -> None:
        if not self.cutoffs:
            raise InputError("cutoffs list must be non-empty")
        if any(cutoff < 0 for cutoff in self.cutoffs):
            raise InputError("cutoffs must be >= 0 (0 means no cutoff)")
        for name, values, allowed in (
            ("divergence", [self.divergence, *self.divergences], KINDS),
            ("weighting", [self.weighting, *self.weightings], SCHEMES),
            ("recommender", self.recommenders, BASELINES),
            ("pool", [self.pool], POOLS),
        ):
            for value in values:
                if value not in allowed:
                    raise InputError(f"{name} must be one of {', '.join(allowed)}, got {value!r}")
        if not 0.0 <= self.alpha < 0.5:
            raise InputError(f"alpha must be in [0, 0.5), got {self.alpha}")
        if self.pairs < 1:
            raise InputError("pairs must be >= 1")

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
        return {
            "news": str(self.news) if self.news else None,
            "bodies": str(self.bodies) if self.bodies else None,
            "behaviors": str(self.behaviors) if self.behaviors else None,
            "lexicon": str(self.lexicon) if self.lexicon else None,
            "gazetteer": str(self.gazetteer) if self.gazetteer else None,
            "sidecar": str(self.sidecar) if self.sidecar else None,
            "externals": {name: str(path) for name, path in sorted(self.externals.items())},
            "recommenders": list(self.recommenders),
            "cutoffs": list(self.cutoffs),
            "alpha": self.alpha,
            "activation_bins": self.activation_bins,
            "complexity_bins": self.complexity_bins,
            "pairs": self.pairs,
            "seed": self.seed,
            "pool": self.pool,
            "tau": self.tau,
            "window_days": self.window_days,
        }
