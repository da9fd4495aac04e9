"""Declarative analysis configuration: one config = one analysis.

Configs are JSON files. Relative input paths are resolved against the config
file's directory. A run's manifest embeds both the verbatim config and the
fully resolved form; loading a manifest as a config reruns the analysis it
describes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .clr import PriorSpec
from .errors import ConfigurationError
from .io import open_input
from .splines import MODEL_KINDS

__all__ = ["AnalysisConfig", "load_config", "validate_config"]

_INPUT_KEYS = ("events", "grid", "zones", "membership", "temperature_field", "pm25_field")
_INT_KEYS = (
    "temperature_window_days", "pm25_window_days", "temperature_df", "pm25_df",
    "chains", "warmup", "draws", "curve_points", "surface_points", "seed",
)


def _default_prior_sd(model_kind) -> dict:
    """The default prior sd of each block for ``model_kind``; an unknown kind
    is left for ``validate_config`` to report."""
    return dict(PriorSpec.for_model(MODEL_KINDS.get(model_kind)).sd)


def _number(value) -> bool:
    # bool is a subclass of int, and JSON true is no number
    return type(value) in (int, float)


@dataclass
class AnalysisConfig:
    events: str = ""
    grid: str = ""
    zones: str = ""
    membership: str = ""
    temperature_field: str = ""
    pm25_field: str = ""
    season_months: tuple[int, int] = (6, 9)
    temperature_window_days: int = 1
    pm25_window_days: int = 3
    trim_quantile: float = 0.95
    model_kind: str = "spline_linear"
    temperature_df: int = 3
    pm25_df: int = 3
    prior_sd: dict = field(default_factory=dict)
    chains: int = 4
    warmup: int = 1000
    draws: int = 1000
    contrast_quantiles: tuple[float, float] = (0.5, 0.95)
    curve_points: int = 50
    surface_points: int = 50
    seed: int | None = None
    output_dir: str = "run"

    def __post_init__(self):
        # a block that prior_sd leaves out keeps its model's default sd
        self.prior_sd = {**_default_prior_sd(self.model_kind), **self.prior_sd}

    def to_dict(self) -> dict:
        d = asdict(self)
        d["season_months"] = list(self.season_months)
        d["contrast_quantiles"] = list(self.contrast_quantiles)
        return d

    @classmethod
    def from_dict(cls, raw: dict) -> "AnalysisConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        for key in (*_INPUT_KEYS, "output_dir", "model_kind"):
            value = raw.get(key, "")
            if type(value) is not str:
                raise ConfigurationError(f"{key} must be a string, got {value!r}")
        for key in _INT_KEYS:
            value = raw.get(key, 0)
            # bool is a subclass of int, and JSON true is no count
            if type(value) is not int and not (key == "seed" and value is None):
                raise ConfigurationError(f"{key} must be an integer, got {value!r}")
        for key, kind, ok in (
            ("season_months", "integers", lambda v: type(v) is int),
            ("contrast_quantiles", "numbers", _number),
        ):
            value = raw.get(key, (0, 0))
            if not (isinstance(value, (list, tuple)) and len(value) == 2 and all(map(ok, value))):
                raise ConfigurationError(f"{key} must be two {kind}, got {value!r}")
        if not _number(raw.get("trim_quantile", 0.0)):
            raise ConfigurationError(f"trim_quantile must be a number, got {raw['trim_quantile']!r}")
        prior = raw.get("prior_sd", {})
        if not isinstance(prior, dict):
            raise ConfigurationError(f"prior_sd must be an object, got {prior!r}")
        blocks = _default_prior_sd(raw.get("model_kind"))
        for name, sd in prior.items():
            if name not in blocks:
                raise ConfigurationError(f"prior_sd: unknown block {name!r} (known: {', '.join(blocks)})")
            if not (_number(sd) and math.isfinite(sd) and sd > 0):
                raise ConfigurationError(f"prior_sd: {name} must be a positive finite number, got {sd!r}")
        kwargs = dict(raw)
        if "season_months" in kwargs:
            kwargs["season_months"] = tuple(kwargs["season_months"])
        if "contrast_quantiles" in kwargs:
            kwargs["contrast_quantiles"] = tuple(kwargs["contrast_quantiles"])
        return cls(**kwargs)

    def resolve_paths(self, base: Path) -> "AnalysisConfig":
        updates = {}
        for key in _INPUT_KEYS:
            value = getattr(self, key)
            if value and not Path(value).is_absolute():
                updates[key] = str((base / value).resolve())
        return replace(self, **updates) if updates else self


def load_config(path) -> tuple[AnalysisConfig, dict]:
    """Load a config (or a run manifest) file.

    Returns the resolved config and the verbatim dict as given in the file.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        with open_input(path) as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: config must be a JSON object")
    manifest = "resolved_config" in raw     # from an earlier run
    try:
        cfg = AnalysisConfig.from_dict(raw["resolved_config"] if manifest else raw)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    if manifest:
        return cfg, raw.get("config", raw["resolved_config"])
    return cfg.resolve_paths(path.parent), raw


def validate_config(cfg: AnalysisConfig, need_seed: bool = False, check_files: bool = True) -> list[str]:
    """Dry-run checks. Returns a list of problems (empty when valid)."""
    problems = []
    lo, hi = cfg.season_months
    if not (1 <= lo <= hi <= 12):
        problems.append(f"season_months {cfg.season_months} is not a valid month range")
    if cfg.temperature_window_days < 1 or cfg.pm25_window_days < 1:
        problems.append("exposure windows must be at least 1 day")
    if not 0.0 < cfg.trim_quantile <= 1.0:
        problems.append(f"trim_quantile {cfg.trim_quantile} must be in (0, 1]")
    if cfg.model_kind not in MODEL_KINDS:
        problems.append(f"model_kind {cfg.model_kind!r} must be one of {tuple(MODEL_KINDS)}")
    if cfg.temperature_df < 1 or cfg.pm25_df < 1:
        problems.append("spline df must be at least 1")
    if cfg.chains < 2:
        problems.append("need at least 2 chains")
    if cfg.warmup < 10 or cfg.draws < 10:
        problems.append("warmup and draws must each be at least 10")
    q_lo, q_hi = cfg.contrast_quantiles
    if not (0.0 < q_lo <= 1.0 and 0.0 < q_hi <= 1.0):
        problems.append(f"contrast quantiles {cfg.contrast_quantiles} must be in (0, 1]")
    if cfg.curve_points < 2 or cfg.surface_points < 2:
        problems.append("curve_points and surface_points must be at least 2")
    if need_seed and cfg.seed is None:
        problems.append("seed is required (set it in the config or pass --seed)")
    if cfg.seed is not None and cfg.seed < 0:
        problems.append(f"seed {cfg.seed} must be at least 0")
    if check_files:
        for key in _INPUT_KEYS:
            value = getattr(cfg, key)
            if not value:
                problems.append(f"missing input path: {key}")
            elif not Path(value).exists():
                problems.append(f"{key}: file not found: {value}")
    return problems
