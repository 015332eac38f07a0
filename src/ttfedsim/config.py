"""Scenario configuration: a flat dotted-key file format and its dataclass.

The on-disk format is deliberately plain: one `section.key = value` pair
per line, `#` comments, blank lines ignored. dB-valued keys carry a _db /
_dbm suffix and are converted to linear units when the physical parameter
objects are built, never stored converted.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace

from .datagen import NUM_CLASSES
from .wireless import ChannelParams

ALGORITHMS = ("ttfed", "fedavg", "fedasync", "fedat")
POLICIES = ("proposed", "equal_bandwidth", "equal_weight")
FADING_MODES = ("distribution", "realization")
DATA_SOURCES = ("synthetic", "idx")


class ConfigError(ValueError):
    """Invalid or unknown configuration input; the message names the key."""


@dataclass(frozen=True)
class ScenarioConfig:
    # sim.*
    algorithm: str = "ttfed"
    seed: int = 1
    users: int = 20
    radius_m: float = 600.0
    delta_t_frac: float | None = 0.6  # fraction of the slowest user's cycle T
    delta_t_s: float | None = None  # absolute interval; overrides the fraction
    rounds: int = 300  # time budget = rounds * delta_t for every algorithm
    time_budget_s: float | None = None
    psi: float = 0.5
    policy: str = "proposed"
    scheduling_fading: str = "distribution"
    greedy_skip: bool = False
    eval_every: int = 1
    max_evals: int = 2000
    accuracy_targets: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8)
    # channel.*
    path_loss_exponent: float = 3.76
    noise_psd_dbm_hz: float = -174.0
    tx_power_w: float = 0.01
    snr_threshold_db: float = 0.0
    total_bandwidth_hz: float = 20e6
    bits_per_param: int = 16
    # compute.*
    cpu_freq_hz: float = 1e9
    cpu_freq_max_hz: float | None = None  # set -> uniform per-user draw
    cycles_per_sample: float = 5e5
    # data.*
    data_source: str = "synthetic"
    train_per_class: int = 250
    test_per_class: int = 200
    data_seed: int = 12345
    zipf_eta: float = 0.0
    dirichlet_theta: float = math.inf
    train_images_path: str = ""
    train_labels_path: str = ""
    test_images_path: str = ""
    test_labels_path: str = ""
    # train.*
    learning_rate: float = 0.01
    local_epochs: int = 1
    batch_size: int = 32
    hidden_width: int = 50

    def validate(self) -> None:
        """Check every value's range; the only place that knows them.

        Each error names its config key, so a bad value stops before
        anything is built instead of failing later inside a layer.
        """
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"sim.algorithm: unknown algorithm {self.algorithm!r}")
        if self.policy not in POLICIES:
            raise ConfigError(f"sim.policy: unknown policy {self.policy!r}")
        if self.scheduling_fading not in FADING_MODES:
            raise ConfigError(f"sim.scheduling_fading: unknown mode {self.scheduling_fading!r}")
        if self.data_source not in DATA_SOURCES:
            raise ConfigError(f"data.source: unknown source {self.data_source!r}")
        for key, value, low in (
            ("sim.seed", self.seed, 0),
            ("sim.users", self.users, 1),
            ("sim.rounds", self.rounds, 0),
            ("sim.eval_every", self.eval_every, 1),
            ("sim.max_evals", self.max_evals, 1),
            ("channel.path_loss_exponent", self.path_loss_exponent, 2),
            ("channel.bits_per_param", self.bits_per_param, 1),
            ("data.train_per_class", self.train_per_class, 1),
            ("data.test_per_class", self.test_per_class, 1),
            ("data.seed", self.data_seed, 0),
            ("data.zipf_eta", self.zipf_eta, 0),
            ("data.dirichlet_theta", self.dirichlet_theta, 0),
            ("train.learning_rate", self.learning_rate, 0),
            ("train.local_epochs", self.local_epochs, 1),
            ("train.batch_size", self.batch_size, 1),
            ("train.hidden_width", self.hidden_width, 1),
        ):
            if not value >= low:
                raise ConfigError(f"{key}: must be >= {low}, got {value}")
        for key, value in (
            ("sim.radius_m", self.radius_m),
            ("channel.tx_power_w", self.tx_power_w),
            ("channel.total_bandwidth_hz", self.total_bandwidth_hz),
            ("compute.cpu_freq_hz", self.cpu_freq_hz),
            ("compute.cycles_per_sample", self.cycles_per_sample),
        ):
            if not value > 0:
                raise ConfigError(f"{key}: must be positive, got {value}")
        for key, value in (
            ("sim.radius_m", self.radius_m),
            ("sim.delta_t_frac", self.delta_t_frac),
            ("sim.delta_t_s", self.delta_t_s),
            ("sim.time_budget_s", self.time_budget_s),
            ("channel.path_loss_exponent", self.path_loss_exponent),
            ("channel.noise_psd_dbm_hz", self.noise_psd_dbm_hz),
            ("channel.tx_power_w", self.tx_power_w),
            ("channel.snr_threshold_db", self.snr_threshold_db),
            ("channel.total_bandwidth_hz", self.total_bandwidth_hz),
            ("compute.cpu_freq_hz", self.cpu_freq_hz),
            ("compute.cpu_freq_max_hz", self.cpu_freq_max_hz),
            ("compute.cycles_per_sample", self.cycles_per_sample),
            ("train.learning_rate", self.learning_rate),
        ):  # data.zipf_eta and data.dirichlet_theta take inf as their limits
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key}: must be finite, got {value}")
        train_size = NUM_CLASSES * self.train_per_class
        if self.users > train_size:
            raise ConfigError(
                f"sim.users: cannot give {self.users} users >= 1 sample from {train_size} "
                f"({NUM_CLASSES} classes x data.train_per_class)"
            )
        if self.delta_t_s is None and self.delta_t_frac is None:
            raise ConfigError("sim.delta_t_s / sim.delta_t_frac: one must be set")
        if self.delta_t_s is not None and not self.delta_t_s > 0:
            raise ConfigError(f"sim.delta_t_s: must be positive, got {self.delta_t_s}")
        if self.delta_t_frac is not None and not self.delta_t_frac > 0:
            raise ConfigError(f"sim.delta_t_frac: must be positive, got {self.delta_t_frac}")
        if self.time_budget_s is not None and not self.time_budget_s >= 0:
            raise ConfigError(f"sim.time_budget_s: must be >= 0, got {self.time_budget_s}")
        if not 0.0 < self.psi < 1.0:
            raise ConfigError(f"sim.psi: must lie in (0, 1), got {self.psi}")
        for t in self.accuracy_targets:
            if not 0.0 <= t <= 1.0:
                raise ConfigError(f"sim.accuracy_targets: target {t} outside [0, 1]")
        if self.cpu_freq_max_hz is not None and not self.cpu_freq_max_hz >= self.cpu_freq_hz:
            raise ConfigError(
                "compute.cpu_freq_max_hz: must be >= compute.cpu_freq_hz "
                f"({self.cpu_freq_max_hz} < {self.cpu_freq_hz})"
            )
        if self.data_source == "idx":
            for key, value in (
                ("data.train_images", self.train_images_path),
                ("data.train_labels", self.train_labels_path),
                ("data.test_images", self.test_images_path),
                ("data.test_labels", self.test_labels_path),
            ):
                if not value:
                    raise ConfigError(f"{key}: required when data.source = idx")

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


# config key -> (dataclass field, parser)
_KEYS: dict[str, tuple[str, object]] = {
    "sim.algorithm": ("algorithm", str),
    "sim.seed": ("seed", int),
    "sim.users": ("users", int),
    "sim.radius_m": ("radius_m", float),
    "sim.delta_t_frac": ("delta_t_frac", _parse_opt_float),
    "sim.delta_t_s": ("delta_t_s", _parse_opt_float),
    "sim.rounds": ("rounds", int),
    "sim.time_budget_s": ("time_budget_s", _parse_opt_float),
    "sim.psi": ("psi", float),
    "sim.policy": ("policy", str),
    "sim.scheduling_fading": ("scheduling_fading", str),
    "sim.greedy_skip": ("greedy_skip", _parse_bool),
    "sim.eval_every": ("eval_every", int),
    "sim.max_evals": ("max_evals", int),
    "sim.accuracy_targets": ("accuracy_targets", _parse_targets),
    "channel.path_loss_exponent": ("path_loss_exponent", float),
    "channel.noise_psd_dbm_hz": ("noise_psd_dbm_hz", float),
    "channel.tx_power_w": ("tx_power_w", float),
    "channel.snr_threshold_db": ("snr_threshold_db", float),
    "channel.total_bandwidth_hz": ("total_bandwidth_hz", float),
    "channel.bits_per_param": ("bits_per_param", int),
    "compute.cpu_freq_hz": ("cpu_freq_hz", float),
    "compute.cpu_freq_max_hz": ("cpu_freq_max_hz", _parse_opt_float),
    "compute.cycles_per_sample": ("cycles_per_sample", float),
    "data.source": ("data_source", str),
    "data.train_per_class": ("train_per_class", int),
    "data.test_per_class": ("test_per_class", int),
    "data.seed": ("data_seed", int),
    "data.zipf_eta": ("zipf_eta", float),
    "data.dirichlet_theta": ("dirichlet_theta", float),
    "data.train_images": ("train_images_path", str),
    "data.train_labels": ("train_labels_path", str),
    "data.test_images": ("test_images_path", str),
    "data.test_labels": ("test_labels_path", str),
    "train.learning_rate": ("learning_rate", float),
    "train.local_epochs": ("local_epochs", int),
    "train.batch_size": ("batch_size", int),
    "train.hidden_width": ("hidden_width", int),
}


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


_FIELD_NAMES = {f.name for f in fields(ScenarioConfig)}
assert all(attr in _FIELD_NAMES for attr, _ in _KEYS.values())
