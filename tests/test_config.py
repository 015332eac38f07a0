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


class TestValidate:
    @pytest.mark.parametrize(
        "updates,fragment",
        [
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
            ({"learning_rate": -0.1}, "train"),
            ({"hidden_width": 0}, r"train\.hidden_width: must be >= 1"),
        ],
    )
    def test_rejects(self, updates, fragment):
        cfg = ScenarioConfig(**updates)
        with pytest.raises(ConfigError, match=fragment):
            cfg.validate()

    def test_default_is_valid(self):
        ScenarioConfig().validate()


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


def readme_key_table() -> dict[str, tuple[str, str]]:
    """README configuration table: key -> (documented default, meaning)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
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
