"""Flat config file parsing, validation, and round-tripping."""

import math
import re
from pathlib import Path

import pytest

from ttfedsim.config import (
    _KEYS,
    ALGORITHMS,
    DATA_SOURCES,
    FADING_MODES,
    POLICIES,
    ConfigError,
    ScenarioConfig,
    apply_overrides,
    build_config,
    load_config,
    parse_config_text,
    with_updates,
)

SAMPLE = """\
# toy scenario
sim.algorithm = fedavg
sim.seed = 42

sim.users = 3
data.dirichlet_theta = inf
"""


class TestParseText:
    def test_comments_and_blanks(self):
        raw = parse_config_text(SAMPLE)
        assert raw == {
            "sim.algorithm": "fedavg",
            "sim.seed": "42",
            "sim.users": "3",
            "data.dirichlet_theta": "inf",
        }

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match=r"demo.cfg:3"):
            parse_config_text("a = 1\n\nbroken line\n", source="demo.cfg")

    def test_first_equals_splits(self):
        raw = parse_config_text("sim.algorithm = a=b")
        assert raw["sim.algorithm"] == "a=b"


class TestOverrides:
    def test_merge(self):
        raw = apply_overrides({"sim.seed": "1"}, ["sim.seed=9", "sim.users = 4"])
        assert raw == {"sim.seed": "9", "sim.users": "4"}

    def test_malformed(self):
        with pytest.raises(ConfigError, match="override"):
            apply_overrides({}, ["sim.seed"])


class TestBuildConfig:
    def test_defaults_fill_in(self):
        cfg = build_config(parse_config_text(SAMPLE))
        assert cfg.algorithm == "fedavg"
        assert cfg.seed == 42
        assert cfg.users == 3
        assert cfg.dirichlet_theta == math.inf
        assert cfg.total_bandwidth_hz == 20e6

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="sim.bogus"):
            build_config({"sim.bogus": "1"})

    def test_unparseable_value_names_key(self):
        with pytest.raises(ConfigError, match="sim.users"):
            build_config({"sim.users": "many"})

    def test_absolute_interval_clears_fraction(self):
        cfg = build_config({"sim.delta_t_s": "2.5"})
        assert cfg.delta_t_s == 2.5
        assert cfg.delta_t_frac is None

    def test_explicit_none(self):
        cfg = build_config({"sim.delta_t_frac": "0.3", "compute.cpu_freq_max_hz": "none"})
        assert cfg.cpu_freq_max_hz is None

    def test_bool_and_targets(self):
        cfg = build_config(
            {"sim.greedy_skip": "true", "sim.accuracy_targets": "0.5, 0.9"}
        )
        assert cfg.greedy_skip is True
        assert cfg.accuracy_targets == (0.5, 0.9)

    def test_load_config_with_overrides(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(SAMPLE)
        cfg = load_config(str(path), overrides=["sim.seed=7"])
        assert cfg.seed == 7 and cfg.algorithm == "fedavg"


# one row per range-checked key; each error names its key
REJECTS = [
    ({"algorithm": "sgd"}, "sim.algorithm"),
    ({"policy": "random"}, "sim.policy"),
    ({"scheduling_fading": "rician"}, "sim.scheduling_fading"),
    ({"users": 0}, "sim.users"),
    ({"radius_m": 0.0}, "sim.radius_m"),
    ({"delta_t_frac": None, "delta_t_s": None}, "one must be set"),
    ({"psi": 1.0}, "sim.psi"),
    ({"rounds": -1}, "sim.rounds"),
    ({"max_evals": 0}, "sim.max_evals"),
    ({"accuracy_targets": (1.5,)}, "sim.accuracy_targets"),
    ({"cpu_freq_hz": 2e9, "cpu_freq_max_hz": 1e9}, "cpu_freq_max_hz"),
    ({"total_bandwidth_hz": 0.0}, "channel.total_bandwidth_hz"),
    ({"bits_per_param": 0}, "channel.bits_per_param"),
    ({"data_source": "csv"}, "data.source"),
    ({"data_source": "idx"}, "data.train_images"),
    ({"learning_rate": -0.1}, r"train\.learning_rate: must be >= 0"),
    ({"hidden_width": 0}, r"train\.hidden_width: must be >= 1"),
    ({"seed": -1}, r"sim\.seed: must be >= 0"),
    ({"delta_t_s": 0.0}, r"sim\.delta_t_s: must be positive"),
    ({"delta_t_frac": 0.0}, r"sim\.delta_t_frac: must be positive"),
    ({"time_budget_s": -1.0}, r"sim\.time_budget_s: must be >= 0"),
    ({"eval_every": 0}, r"sim\.eval_every: must be >= 1"),
    ({"users": 3000}, r"sim\.users: cannot give 3000 users >= 1 sample from 2500"),
    ({"path_loss_exponent": 1.9}, r"channel\.path_loss_exponent: must be >= 2"),
    ({"noise_psd_dbm_hz": -math.inf}, r"channel\.noise_psd_dbm_hz: must be finite"),
    ({"tx_power_w": 0.0}, r"channel\.tx_power_w: must be positive"),
    ({"snr_threshold_db": math.nan}, r"channel\.snr_threshold_db: must be finite"),
    ({"cpu_freq_hz": 0.0}, r"compute\.cpu_freq_hz: must be positive"),
    ({"cycles_per_sample": 0.0}, r"compute\.cycles_per_sample: must be positive"),
    ({"train_per_class": 0}, r"data\.train_per_class: must be >= 1"),
    ({"test_per_class": 0}, r"data\.test_per_class: must be >= 1"),
    ({"data_seed": -1}, r"data\.seed: must be >= 0"),
    ({"zipf_eta": -1.0}, r"data\.zipf_eta: must be >= 0"),
    ({"dirichlet_theta": -0.1}, r"data\.dirichlet_theta: must be >= 0"),
    ({"data_source": "idx", "train_images_path": "i"}, r"data\.train_labels: required"),
    (
        {"data_source": "idx", "train_images_path": "i", "train_labels_path": "l"},
        r"data\.test_images: required",
    ),
    (
        {
            "data_source": "idx",
            "train_images_path": "i",
            "train_labels_path": "l",
            "test_images_path": "t",
        },
        r"data\.test_labels: required",
    ),
    ({"local_epochs": 0}, r"train\.local_epochs: must be >= 1"),
    ({"batch_size": 0}, r"train\.batch_size: must be >= 1"),
    ({"radius_m": math.inf}, r"sim\.radius_m: must be finite"),
    ({"delta_t_frac": math.inf}, r"sim\.delta_t_frac: must be finite"),
    ({"delta_t_s": math.inf}, r"sim\.delta_t_s: must be finite"),
    ({"time_budget_s": math.inf}, r"sim\.time_budget_s: must be finite"),
    ({"path_loss_exponent": math.inf}, r"channel\.path_loss_exponent: must be finite"),
    ({"tx_power_w": math.inf}, r"channel\.tx_power_w: must be finite"),
    ({"total_bandwidth_hz": math.inf}, r"channel\.total_bandwidth_hz: must be finite"),
    ({"cpu_freq_hz": math.inf}, r"compute\.cpu_freq_hz: must be finite"),
    ({"cpu_freq_max_hz": math.inf}, r"compute\.cpu_freq_max_hz: must be finite"),
    ({"cycles_per_sample": math.inf}, r"compute\.cycles_per_sample: must be finite"),
    ({"learning_rate": math.inf}, r"train\.learning_rate: must be finite"),
]

# keys whose every parseable value is valid
UNRANGED = {"sim.greedy_skip"}  # a boolean


class TestValidate:
    @pytest.mark.parametrize("updates,fragment", REJECTS)
    def test_rejects(self, updates, fragment):
        cfg = ScenarioConfig(**updates)
        with pytest.raises(ConfigError, match=fragment):
            cfg.validate()

    def test_every_key_is_checked_or_exempt(self):
        named = set()
        for updates, _ in REJECTS:
            with pytest.raises(ConfigError) as info:
                ScenarioConfig(**updates).validate()
            # "key: ..." or "key / key: ..."
            named.update(str(info.value).split(": ")[0].split(" / "))
        assert named <= set(_KEYS)
        assert set(_KEYS) - named == UNRANGED

    def test_default_is_valid(self):
        ScenarioConfig().validate()

    def test_bounds_are_inclusive(self):
        ScenarioConfig(
            seed=0,
            data_seed=0,
            users=2500,  # one sample each from 10 * 250
            rounds=0,
            time_budget_s=0.0,
            path_loss_exponent=2.0,
            zipf_eta=0.0,
            dirichlet_theta=0.0,
            learning_rate=0.0,  # a zero step is a legal no-op
            cpu_freq_max_hz=1e9,
        ).validate()

    def test_skews_take_inf_as_their_limits(self):
        ScenarioConfig(zipf_eta=math.inf, dirichlet_theta=math.inf).validate()


class TestRoundTrip:
    def test_flat_round_trip(self):
        cfg = ScenarioConfig(algorithm="fedat", seed=9, delta_t_s=1.25,
                             delta_t_frac=None, cpu_freq_max_hz=5e9)
        assert build_config(cfg.to_flat()) == cfg

    def test_content_hash_stable_and_sensitive(self):
        a = ScenarioConfig()
        b = ScenarioConfig(seed=2)
        assert a.content_hash() == ScenarioConfig().content_hash()
        assert a.content_hash() != b.content_hash()
        assert len(a.content_hash()) == 16
        int(a.content_hash(), 16)  # hex digest prefix


class TestWithUpdates:
    def test_applies_and_revalidates(self):
        cfg = with_updates(ScenarioConfig(), users=5)
        assert cfg.users == 5
        with pytest.raises(ConfigError):
            with_updates(ScenarioConfig(), users=0)


ROOT = Path(__file__).resolve().parents[1]


def readme_text() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


def readme_key_table() -> dict[str, tuple[str, str]]:
    """README configuration table: key -> (documented default, meaning)."""
    text = readme_text()
    rows = re.findall(r"^\| `([a-z_]+\.[a-z_]+)` \| (.*?) \| (.*?) \|$", text, re.MULTILINE)
    return {key: (default, meaning) for key, default, meaning in rows}


class TestReadmeKeyTable:
    def test_documents_exactly_the_config_keys(self):
        assert sorted(readme_key_table()) == sorted(_KEYS)

    @pytest.mark.parametrize(
        "key,values",
        [
            ("sim.algorithm", ALGORITHMS),
            ("sim.policy", POLICIES),
            ("sim.scheduling_fading", FADING_MODES),
            ("data.source", DATA_SOURCES),
        ],
    )
    def test_enumerated_values(self, key, values):
        meaning = readme_key_table()[key][1]
        assert sorted(re.findall(r"`([^`]+)`", meaning)) == sorted(values)

    def test_documented_defaults(self):
        defaults = ScenarioConfig()
        for key, (default, _) in readme_key_table().items():
            attr, parser = _KEYS[key]
            actual = getattr(defaults, attr)
            if default == "unset":
                assert actual in (None, ""), key
            else:
                assert parser(default.strip("`")) == actual, key


class TestReadmeDescribesTheTree:
    def test_layout_lists_exactly_the_modules(self):
        layout = readme_text().split("## Layout", 1)[1].split("```")[1]
        listed = re.findall(r"^  (\w+\.py) ", layout, re.MULTILINE)
        modules = [p.name for p in (ROOT / "src" / "ttfedsim").glob("*.py")]
        assert sorted(listed) == sorted(m for m in modules if m != "__init__.py")

    def test_named_paths_exist(self):
        prose = "".join(readme_text().split("```")[::2])  # fenced blocks dropped
        spans = re.findall(r"`([^`]+)`", prose)
        roots = ("configs/", "scripts/", "tests/", "perfbench/", "src/")
        paths = [s for s in spans if s.startswith(roots)]
        assert paths
        assert [p for p in paths if not (ROOT / p).exists()] == []
