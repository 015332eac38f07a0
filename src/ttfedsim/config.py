"""Scenario configuration: a flat dotted-key file format and its dataclass.

The on-disk format is deliberately plain: one `section.key = value` pair
per line, `#` comments, blank lines ignored. dB-valued keys carry a _db /
_dbm suffix and are converted to linear units when the physical parameter
objects are built, never stored converted.

Each key is declared once, on its ScenarioConfig field (`_key`): its
name, its default and its range. The key table the parser reads
(`_KEYS`, with the parser chosen by the field's annotation) and
`validate`'s range checks are derived from the fields; only the enums
and the rules that span fields are written out.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace

from .datagen import NUM_CLASSES
from .wireless import ChannelParams

ALGORITHMS = ("ttfed", "fedavg", "fedasync", "fedat")
POLICIES = ("proposed", "equal_bandwidth", "equal_weight")
FADING_MODES = ("distribution", "realization")
DATA_SOURCES = ("synthetic", "idx")


class ConfigError(ValueError):
    """Invalid or unknown configuration input; the message names the key."""


def _key(key: str, default, *, low=None, positive=False, takes_inf=False):
    """A ScenarioConfig field: its config key, its default and its range.

    `low` is an inclusive lower bound and `positive` an exclusive one at
    0. A float must be finite unless the field `takes_inf`. None, where
    the annotation takes it, is in range.
    """
    meta = {"key": key, "low": low, "positive": positive, "takes_inf": takes_inf}
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class ScenarioConfig:
    algorithm: str = _key("sim.algorithm", "ttfed")
    seed: int = _key("sim.seed", 1, low=0)
    users: int = _key("sim.users", 20, low=1)
    radius_m: float = _key("sim.radius_m", 600.0, positive=True)
    # fraction of the slowest user's cycle T
    delta_t_frac: float | None = _key("sim.delta_t_frac", 0.6, positive=True)
    # absolute interval; overrides the fraction
    delta_t_s: float | None = _key("sim.delta_t_s", None, positive=True)
    # time budget = rounds * delta_t for every algorithm
    rounds: int = _key("sim.rounds", 300, low=0)
    time_budget_s: float | None = _key("sim.time_budget_s", None, low=0)
    psi: float = _key("sim.psi", 0.5)
    policy: str = _key("sim.policy", "proposed")
    scheduling_fading: str = _key("sim.scheduling_fading", "distribution")
    greedy_skip: bool = _key("sim.greedy_skip", False)
    eval_every: int = _key("sim.eval_every", 1, low=1)
    max_evals: int = _key("sim.max_evals", 2000, low=1)
    accuracy_targets: tuple[float, ...] = _key("sim.accuracy_targets", (0.5, 0.6, 0.7, 0.8))
    path_loss_exponent: float = _key("channel.path_loss_exponent", 3.76, low=2)
    noise_psd_dbm_hz: float = _key("channel.noise_psd_dbm_hz", -174.0)
    tx_power_w: float = _key("channel.tx_power_w", 0.01, positive=True)
    snr_threshold_db: float = _key("channel.snr_threshold_db", 0.0)
    total_bandwidth_hz: float = _key("channel.total_bandwidth_hz", 20e6, positive=True)
    bits_per_param: int = _key("channel.bits_per_param", 16, low=1)
    cpu_freq_hz: float = _key("compute.cpu_freq_hz", 1e9, positive=True)
    # set -> uniform per-user draw
    cpu_freq_max_hz: float | None = _key("compute.cpu_freq_max_hz", None)
    cycles_per_sample: float = _key("compute.cycles_per_sample", 5e5, positive=True)
    data_source: str = _key("data.source", "synthetic")
    train_per_class: int = _key("data.train_per_class", 250, low=1)
    test_per_class: int = _key("data.test_per_class", 200, low=1)
    data_seed: int = _key("data.seed", 12345, low=0)
    # the skews take inf as their limits
    zipf_eta: float = _key("data.zipf_eta", 0.0, low=0, takes_inf=True)
    dirichlet_theta: float = _key("data.dirichlet_theta", math.inf, low=0, takes_inf=True)
    train_images_path: str = _key("data.train_images", "")
    train_labels_path: str = _key("data.train_labels", "")
    test_images_path: str = _key("data.test_images", "")
    test_labels_path: str = _key("data.test_labels", "")
    learning_rate: float = _key("train.learning_rate", 0.01, low=0)
    local_epochs: int = _key("train.local_epochs", 1, low=1)
    batch_size: int = _key("train.batch_size", 32, low=1)
    hidden_width: int = _key("train.hidden_width", 50, low=1)

    def validate(self) -> None:
        """Check the enums, every field's declared range, then the cross-field rules.

        Each error names its config key, so a bad value stops before
        anything is built instead of failing later inside a layer.
        """
        if self.algorithm not in ALGORITHMS:
            raise _error("algorithm", f"unknown algorithm {self.algorithm!r}")
        if self.policy not in POLICIES:
            raise _error("policy", f"unknown policy {self.policy!r}")
        if self.scheduling_fading not in FADING_MODES:
            raise _error("scheduling_fading", f"unknown mode {self.scheduling_fading!r}")
        if self.data_source not in DATA_SOURCES:
            raise _error("data_source", f"unknown source {self.data_source!r}")
        for f in fields(self):
            value, low = getattr(self, f.name), f.metadata["low"]
            if value is None and f.type.endswith("| None"):
                continue
            if low is not None and not value >= low:
                raise _error(f.name, f"must be >= {low}, got {value}")
            if f.metadata["positive"] and not value > 0:
                raise _error(f.name, f"must be positive, got {value}")
            finite = f.type.startswith("float") and not f.metadata["takes_inf"]
            if finite and not math.isfinite(value):
                raise _error(f.name, f"must be finite, got {value}")
        train_size = NUM_CLASSES * self.train_per_class
        if self.users > train_size:
            raise _error(
                "users",
                f"cannot give {self.users} users >= 1 sample from {train_size} "
                f"({NUM_CLASSES} classes x {_KEY_OF['train_per_class']})",
            )
        if self.delta_t_s is None and self.delta_t_frac is None:
            intervals = f"{_KEY_OF['delta_t_s']} / {_KEY_OF['delta_t_frac']}"
            raise ConfigError(f"{intervals}: one must be set")
        if not 0.0 < self.psi < 1.0:
            raise _error("psi", f"must lie in (0, 1), got {self.psi}")
        for t in self.accuracy_targets:
            if not 0.0 <= t <= 1.0:
                raise _error("accuracy_targets", f"target {t} outside [0, 1]")
        if self.cpu_freq_max_hz is not None and not self.cpu_freq_max_hz >= self.cpu_freq_hz:
            raise _error(
                "cpu_freq_max_hz",
                f"must be >= {_KEY_OF['cpu_freq_hz']} "
                f"({self.cpu_freq_max_hz} < {self.cpu_freq_hz})",
            )
        if self.data_source == "idx":
            for name in [f.name for f in fields(self) if f.name.endswith("_path")]:
                if not getattr(self, name):
                    raise _error(name, f"required when {_KEY_OF['data_source']} = idx")

    def channel_params(self, model_bits: float) -> ChannelParams:
        """Physical parameters with dB keys converted to linear units."""
        return ChannelParams(
            path_loss_exponent=self.path_loss_exponent,
            noise_psd=10.0 ** ((self.noise_psd_dbm_hz - 30.0) / 10.0),
            tx_power=self.tx_power_w,
            snr_threshold=10.0 ** (self.snr_threshold_db / 10.0),
            total_bandwidth=self.total_bandwidth_hz,
            model_bits=model_bits,
        )

    @property
    def equal_share_hz(self) -> float:
        """B/U, each user's uplink bandwidth when the budget is split evenly."""
        return self.total_bandwidth_hz / self.users

    def scenario_key(self) -> ScenarioConfig:
        """What a scenario is built from: every field but `algorithm`.

        Configs with equal keys build the same scenario, so their runs may
        share one.
        """
        return replace(self, algorithm=ALGORITHMS[0])

    def to_flat(self) -> dict[str, str]:
        """Canonical flat key/value view (used for files and hashing)."""
        out = {}
        for key, (attr, _) in sorted(_KEYS.items()):
            out[key] = _format_value(getattr(self, attr))
        return out

    def content_hash(self) -> str:
        text = "\n".join(f"{k} = {v}" for k, v in self.to_flat().items())
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_opt_float(text: str) -> float | None:
    return None if text.lower() == "none" else float(text)


def _parse_targets(text: str) -> tuple[float, ...]:
    if not text.strip():
        return ()
    return tuple(float(part) for part in text.split(","))


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# a field's parser, by its annotation; the annotations are strings, as
# this module and bound.py postpone their evaluation
_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "float | None": _parse_opt_float,
    "bool": _parse_bool,
    "tuple[float, ...]": _parse_targets,
}

# dataclass field -> config key
_KEY_OF = {f.name: f.metadata["key"] for f in fields(ScenarioConfig)}
# config key -> (dataclass field, parser)
_KEYS = {f.metadata["key"]: (f.name, _PARSERS[f.type]) for f in fields(ScenarioConfig)}


def _error(name: str, reason: str) -> ConfigError:
    """A ConfigError that names the config key of field `name`."""
    return ConfigError(f"{_KEY_OF[name]}: {reason}")


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Flat file lines into a raw key -> value string map."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def apply_overrides(raw: dict[str, str], overrides: list[str]) -> dict[str, str]:
    """Merge `key=value` strings (CLI --override) into the raw map."""
    merged = dict(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        merged[key.strip()] = value.strip()
    return merged


def parse_keys(raw: dict[str, str], keys: dict[str, tuple[str, object]]) -> dict:
    """Field values from a raw map through a key -> (field, parser) table.

    Unknown keys and unparseable values are errors naming the key.
    """
    kwargs = {}
    for key, value in raw.items():
        if key not in keys:
            raise ConfigError(f"unknown config key {key!r}")
        attr, parser = keys[key]
        try:
            kwargs[attr] = parser(value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{key}: cannot parse {value!r} ({exc})") from exc
    return kwargs


def build_config(raw: dict[str, str]) -> ScenarioConfig:
    """Typed ScenarioConfig from a raw map; unknown keys are errors."""
    kwargs = parse_keys(raw, _KEYS)
    if "delta_t_s" in kwargs and kwargs["delta_t_s"] is not None:
        kwargs.setdefault("delta_t_frac", None)
    cfg = ScenarioConfig(**kwargs)
    cfg.validate()
    return cfg


def load_config(path: str, overrides: list[str] | None = None) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        raw = parse_config_text(fh.read(), source=path)
    return build_config(apply_overrides(raw, overrides or []))


def with_updates(cfg: ScenarioConfig, **updates) -> ScenarioConfig:
    """Dataclass replace + revalidation, for programmatic tweaks."""
    new = replace(cfg, **updates)
    new.validate()
    return new

