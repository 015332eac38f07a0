"""End-to-end CLI: run/sweep/bound subcommands, file outputs, exit codes."""

import csv
import json
import math
import os
import re
import weakref
from dataclasses import fields

import pytest

from ttfedsim import cli
from ttfedsim.cli import (
    COMPARISON_COLUMNS,
    CSV_HEADER,
    METRICS_COLUMNS,
    _atomic_write,
    _parse_axis,
    load_bound_constants,
    main,
    metrics_csv_text,
    summary_dict,
)
from ttfedsim.bound import check_conditions
from ttfedsim.config import (
    ALGORITHMS,
    ConfigError,
    ScenarioConfig,
    build_config,
    load_config,
    parse_config_text,
)
from ttfedsim.engine import EvalPoint, run, setup_scenario

from test_datagen import write_idx_images, write_idx_labels

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def readme_blocks(heading: str, language: str) -> list[str]:
    """The bodies of the ```language blocks in README's section under `heading`."""
    with open(os.path.join(os.path.dirname(CONFIGS), "README.md"), encoding="utf-8") as fh:
        section = fh.read().split(f"\n{heading}\n", 1)[1]
    section = re.split(r"\n#{2,3} ", section, maxsplit=1)[0]
    return re.findall(rf"```{language}\n(.*?)```", section, re.S)


# small enough to train and evaluate in tens of milliseconds
TOY_CFG = """\
sim.algorithm = ttfed
sim.seed = 5
sim.users = 2
sim.radius_m = 50
sim.delta_t_frac = 1.0
sim.rounds = 2
data.train_per_class = 4
data.test_per_class = 2
train.hidden_width = 8
train.batch_size = 4
"""

BOUND_CFG = """\
bound.smoothness = 1.0
bound.strong_convexity = 1.0
bound.grad_offset = 0.4
bound.grad_slope = 0.05
bound.drift_inner = 0.05
bound.drift_norm = 0.1
bound.local_ratio = 1.0
bound.local_gap = 0.2
bound.initial_gap = 2.0
bound.num_tiers = 1
bound.median_const = 0.5
bound.failure_fractions = 0.5
"""


@pytest.fixture(scope="module")
def toy_run():
    cfg = build_config(parse_config_text(TOY_CFG))
    return cfg, run(cfg)


@pytest.fixture()
def toy_cfg_file(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(TOY_CFG)
    return str(path)


@pytest.fixture()
def bound_cfg_file(tmp_path):
    path = tmp_path / "bound.cfg"
    path.write_text(BOUND_CFG)
    return str(path)


class TestCsvAndSummary:
    def test_csv_shape(self, toy_run):
        cfg, metrics = toy_run
        rows = list(csv.reader(metrics_csv_text(metrics).splitlines()))
        assert rows[0] == CSV_HEADER
        assert len(rows) == len(metrics.evals) + 1
        assert all(len(r) == len(CSV_HEADER) for r in rows)
        assert {r[2] for r in rows[1:]} == {"ttfed"}

    def test_csv_values_match_evals(self, toy_run):
        cfg, metrics = toy_run
        rows = list(csv.reader(metrics_csv_text(metrics).splitlines()))[1:]
        for row, p in zip(rows, metrics.evals):
            assert float(row[0]) == pytest.approx(p.time_s)
            assert int(row[1]) == p.round
            assert float(row[3]) == pytest.approx(p.accuracy, abs=1e-6)
            assert int(row[5]) == p.uplink_msgs

    def test_summary_contents(self, toy_run):
        cfg, metrics = toy_run
        s = summary_dict(cfg, metrics)
        assert s["algorithm"] == "ttfed"
        assert s["seed"] == 5
        assert s["num_tiers"] == metrics.num_tiers
        assert s["final_accuracy"] == metrics.evals[-1].accuracy
        assert s["peak_accuracy"] == max(p.accuracy for p in metrics.evals)
        assert s["config_hash"] == cfg.content_hash()
        assert set(s["target_crossings"]) == {"0.5", "0.6", "0.7", "0.8"}
        json.dumps(s)  # must be serializable as-is

    def test_readme_names_every_summary_key(self, toy_run):
        with open(os.path.join(os.path.dirname(CONFIGS), "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        assert [key for key in summary_dict(*toy_run) if f"`{key}`" not in readme] == []

    def test_metrics_columns_are_the_eval_fields(self):
        columns = [name for name in METRICS_COLUMNS if name != "algorithm"]
        assert columns == [f.name for f in fields(EvalPoint)]

    def test_comparison_columns_are_summary_keys(self, toy_run):
        columns = set(COMPARISON_COLUMNS) - {"axis_value"}
        assert columns - set(summary_dict(*toy_run)) == set()

    def test_readme_outputs_show_both_headers(self):
        headers = [",".join(METRICS_COLUMNS) + "\n", ",".join(COMPARISON_COLUMNS) + "\n"]
        assert readme_blocks("## Outputs", "") == headers

    def test_comparison_rows_are_the_cells_summaries(self, toy_cfg_file, tmp_path):
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", toy_cfg_file, "--axis", "sim.algorithm=ttfed,fedavg"]
        assert main(argv + ["--seeds", "1,2", "--out-dir", str(out)]) == 0
        expected = [list(COMPARISON_COLUMNS)]
        for entry in json.loads((out / "manifest.json").read_text())["runs"]:
            with open(entry["summary_json"], encoding="utf-8") as fh:
                row = dict(json.load(fh), axis_value=entry["axis_value"])
            expected.append([format(row[name], spec) for name, spec in COMPARISON_COLUMNS.items()])
        rows = list(csv.reader((out / "comparison.csv").read_text().splitlines()))
        assert len(rows) == 5 and rows == expected

    def test_summary_shows_tier_populations_and_empty_events(self, tmp_path):
        """compare.cfg at seed 1 puts every user in tier 2 of 2.

        TT-Fed's odd rounds are then due for tier 1 alone and have an empty
        cohort; FedAT runs populated tiers only. The CSVs keep their columns.
        """
        out = tmp_path / "compare"
        argv = ["sweep", "--config", os.path.join(CONFIGS, "compare.cfg")]
        argv += ["--axis", "sim.algorithm=ttfed,fedat", "--seeds", "1"]
        assert main(argv + ["--override", "sim.rounds=40", "--out-dir", str(out)]) == 0
        summaries = {}
        for entry in json.loads((out / "manifest.json").read_text())["runs"]:
            with open(entry["summary_json"]) as fh:
                summaries[entry["axis_value"]] = json.load(fh)
            with open(entry["metrics_csv"]) as fh:
                assert next(csv.reader(fh)) == CSV_HEADER
        assert summaries["ttfed"]["tier_populations"] == [0, 20]
        assert summaries["ttfed"]["empty_events"] == 20
        assert summaries["ttfed"]["events"] == 40
        assert summaries["fedat"]["tier_populations"] == [0, 20]
        assert summaries["fedat"]["empty_events"] == 0
        header = (out / "comparison.csv").read_text().splitlines()[0]
        assert header == (
            "axis_value,seed,algorithm,final_accuracy,final_loss,uplink_msgs,"
            "downlink_broadcasts,downlink_unicasts,num_tiers,delta_t_s,peak_accuracy"
        )

    @pytest.mark.parametrize("algorithm", ["ttfed", "fedasync"])
    def test_summary_counts_the_events(self, algorithm):
        cfg = build_config(parse_config_text(TOY_CFG + f"sim.algorithm = {algorithm}\n"))
        sc = setup_scenario(cfg)
        trace = []
        s = summary_dict(cfg, run(cfg, scenario=sc, trace=trace))
        assert s["events"] == len(trace) > 0
        assert 0.0 < s["final_time_s"] <= sc.budget_s


def test_readme_library_use_runs():
    (snippet,) = readme_blocks("### Library use", "python")
    exec(compile(snippet, "README.md", "exec"), {"__name__": "readme_library_use"})


class TestAtomicWrite:
    def test_creates_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.txt"
        _atomic_write(str(path), "hello\n")
        assert path.read_text() == "hello\n"

    def test_no_temp_residue(self, tmp_path):
        _atomic_write(str(tmp_path / "x.csv"), "data\n")
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp_")]
        assert leftovers == []

    def test_overwrites(self, tmp_path):
        path = tmp_path / "x.csv"
        _atomic_write(str(path), "one\n")
        _atomic_write(str(path), "two\n")
        assert path.read_text() == "two\n"


class TestParseAxis:
    def test_basic(self):
        assert _parse_axis("sim.rounds=1,2,3") == ("sim.rounds", ["1", "2", "3"])

    def test_strips_whitespace(self):
        assert _parse_axis(" sim.psi = 0.3 , 0.5 ") == ("sim.psi", ["0.3", "0.5"])

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            _parse_axis("sim.rounds")

    def test_no_values(self):
        with pytest.raises(ConfigError):
            _parse_axis("sim.rounds=, ,")


class TestRunCommand:
    def test_writes_outputs(self, toy_cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--config", toy_cfg_file, "--out-dir", str(out)])
        assert rc == 0
        csv_path = out / "ttfed_seed5_metrics.csv"
        json_path = out / "ttfed_seed5_summary.json"
        assert csv_path.exists() and json_path.exists()
        rows = list(csv.reader(csv_path.read_text().splitlines()))
        assert rows[0] == CSV_HEADER and len(rows) > 1
        summary = json.loads(json_path.read_text())
        assert summary["algorithm"] == "ttfed" and summary["seed"] == 5
        assert "final accuracy" in capsys.readouterr().out

    def test_seed_flag_renames(self, toy_cfg_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", "--config", toy_cfg_file, "--out-dir", str(out), "--seed", "9"])
        assert rc == 0
        assert (out / "ttfed_seed9_metrics.csv").exists()

    def test_override_algorithm(self, toy_cfg_file, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "run",
                "--config",
                toy_cfg_file,
                "--out-dir",
                str(out),
                "--override",
                "sim.algorithm=fedavg",
                "--override",
                "sim.rounds=1",
            ]
        )
        assert rc == 0
        assert (out / "fedavg_seed5_summary.json").exists()

    def test_env_var_out_dir(self, toy_cfg_file, tmp_path, monkeypatch):
        env_out = tmp_path / "envout"
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(env_out))
        assert main(["run", "--config", toy_cfg_file]) == 0
        assert (env_out / "ttfed_seed5_metrics.csv").exists()

    def test_flag_beats_env(self, toy_cfg_file, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "envout"))
        flag_out = tmp_path / "flagout"
        assert main(["run", "--config", toy_cfg_file, "--out-dir", str(flag_out)]) == 0
        assert (flag_out / "ttfed_seed5_metrics.csv").exists()
        assert not (tmp_path / "envout").exists()


class TestSweepCommand:
    def test_grid_outputs(self, toy_cfg_file, tmp_path):
        out = tmp_path / "sweep"
        rc = main(
            [
                "sweep",
                "--config",
                toy_cfg_file,
                "--axis",
                "sim.rounds=1,2",
                "--seeds",
                "3",
                "--out-dir",
                str(out),
            ]
        )
        assert rc == 0
        comparison = list(csv.reader((out / "comparison.csv").read_text().splitlines()))
        assert comparison[0][0] == "axis_value"
        assert comparison[0][8] == "num_tiers"
        assert comparison[0][-1] == "peak_accuracy"
        assert len(comparison) == 3
        assert [r[0] for r in comparison[1:]] == ["1", "2"]
        assert {r[1] for r in comparison[1:]} == {"3"}
        assert {r[8] for r in comparison[1:]} == {"1"}

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["axis"] == "sim.rounds=1,2"
        assert len(manifest["runs"]) == 2
        for entry in manifest["runs"]:
            assert os.path.exists(entry["metrics_csv"])
            assert os.path.exists(entry["summary_json"])
            assert entry["seed"] == 3

    def test_default_seed_from_config(self, toy_cfg_file, tmp_path):
        out = tmp_path / "sweep"
        rc = main(
            [
                "sweep",
                "--config",
                toy_cfg_file,
                "--axis",
                "sim.rounds=1",
                "--out-dir",
                str(out),
            ]
        )
        assert rc == 0
        assert (out / "runs" / "rounds_1_seed5_ttfed_metrics.csv").exists()

    def test_algorithm_cells_share_a_scenario(self, toy_cfg_file, tmp_path, monkeypatch):
        built = []

        def counting_setup(cfg):
            # the previous group's scenario is gone before the next is built
            assert all(ref() is None for ref in built)
            scenario = setup(cfg)
            built.append(weakref.ref(scenario))
            return scenario

        setup = cli.setup_scenario
        monkeypatch.setattr(cli, "setup_scenario", counting_setup)
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", toy_cfg_file, "--axis", "sim.algorithm=ttfed,fedavg,fedat"]
        assert main(argv + ["--seeds", "1,2", "--out-dir", str(out)]) == 0
        assert len(built) == 2  # once per seed, not once per cell

        # grid order: value-major, seeds inside
        comparison = list(csv.reader((out / "comparison.csv").read_text().splitlines()))[1:]
        cells = [(alg, seed) for alg in ("ttfed", "fedavg", "fedat") for seed in (1, 2)]
        assert [(r[0], int(r[1])) for r in comparison] == cells
        manifest = json.loads((out / "manifest.json").read_text())
        assert [(e["axis_value"], e["seed"]) for e in manifest["runs"]] == cells

        # each cell writes what a separate run of it writes
        for entry, (alg, seed) in zip(manifest["runs"], cells):
            single = tmp_path / f"run_{alg}_{seed}"
            argv = ["run", "--config", toy_cfg_file, "--override", f"sim.algorithm={alg}"]
            assert main(argv + ["--seed", str(seed), "--out-dir", str(single)]) == 0
            stem = f"{alg}_seed{seed}"
            with open(entry["metrics_csv"]) as fh:
                assert fh.read() == (single / f"{stem}_metrics.csv").read_text()
            with open(entry["summary_json"]) as fh:
                assert json.load(fh) == json.loads((single / f"{stem}_summary.json").read_text())

    @pytest.mark.parametrize("stage", ["run", "setup_scenario"])
    def test_a_failed_cell_is_recorded_and_the_others_complete(
        self, toy_cfg_file, tmp_path, monkeypatch, capsys, stage
    ):
        argv = ["sweep", "--config", toy_cfg_file, "--axis", "sim.algorithm=ttfed,fedavg"]
        argv += ["--seeds", "1,2"]
        clean = tmp_path / "clean"
        assert main(argv + ["--out-dir", str(clean)]) == 0

        real = getattr(cli, stage)

        def flaky(cfg, *args):
            # run fails for one cell; setup for the scenario both seed-2 cells share
            if cfg.seed == 2 and (stage == "setup_scenario" or cfg.algorithm == "fedavg"):
                raise RuntimeError("injected")
            return real(cfg, *args)

        monkeypatch.setattr(cli, stage, flaky)
        capsys.readouterr()
        out = tmp_path / "flaky"
        assert main(argv + ["--out-dir", str(out)]) == 1
        failed = [("fedavg", 2)] if stage == "run" else [("ttfed", 2), ("fedavg", 2)]
        err = capsys.readouterr().err
        assert "RuntimeError: injected" in err
        assert f"error: {len(failed)} of 4 cells failed" in err

        entries = json.loads((out / "manifest.json").read_text())["runs"]
        cells = [(alg, seed) for alg in ("ttfed", "fedavg") for seed in (1, 2)]
        assert [(e["axis_value"], e["seed"]) for e in entries] == cells
        for entry, cell in zip(entries, cells):
            if cell in failed:
                assert entry["error"] == "RuntimeError: injected"
                assert "metrics_csv" not in entry and "summary_json" not in entry
            else:
                assert "error" not in entry
                with open(entry["metrics_csv"]) as fh:
                    assert fh.read() == (clean / os.path.relpath(fh.name, out)).read_text()
        assert sorted(os.listdir(out / "runs")) == sorted(
            name
            for name in os.listdir(clean / "runs")
            if not any(f"seed{seed}_{alg}_" in name for alg, seed in failed)
        )

        rows = (out / "comparison.csv").read_text().splitlines()
        kept = [i for i, cell in enumerate(cells) if cell not in failed]
        clean_rows = (clean / "comparison.csv").read_text().splitlines()
        assert rows == [clean_rows[0]] + [clean_rows[1 + i] for i in kept]

    def test_a_killed_sweep_leaves_its_finished_cells_on_record(
        self, toy_cfg_file, tmp_path, monkeypatch
    ):
        argv = ["sweep", "--config", toy_cfg_file, "--axis", "sim.algorithm=ttfed,fedavg"]
        argv += ["--seeds", "1,2"]
        clean = tmp_path / "clean"
        assert main(argv + ["--out-dir", str(clean)]) == 0
        clean_entries = json.loads((clean / "manifest.json").read_text())["runs"]

        real, started = cli.run, []

        def interrupted(cfg, *args):
            started.append((cfg.algorithm, cfg.seed))
            if len(started) == 3:
                raise KeyboardInterrupt
            return real(cfg, *args)

        monkeypatch.setattr(cli, "run", interrupted)
        out = tmp_path / "killed"
        with pytest.raises(KeyboardInterrupt):
            main(argv + ["--out-dir", str(out)])
        # the cells of one scenario run together: seed 1's two cells come first
        assert started == [("ttfed", 1), ("fedavg", 1), ("ttfed", 2)]
        assert not (out / "comparison.csv").exists()
        entries = json.loads((out / "manifest.json").read_text())["runs"]
        cells = [(alg, seed) for alg in ("ttfed", "fedavg") for seed in (1, 2)]
        assert [(e["axis_value"], e["seed"]) for e in entries] == cells
        for entry, clean_entry, cell in zip(entries, clean_entries, cells):
            assert "error" not in entry
            if cell in started[:2]:
                for path in ("metrics_csv", "summary_json"):
                    with open(entry[path]) as fh:
                        assert fh.read() == (clean / os.path.relpath(fh.name, out)).read_text()
            else:  # not yet run: neither paths nor error
                assert set(entry) == {"axis_key", "axis_value", "seed", "config_hash"}
                assert entry == {key: clean_entry[key] for key in entry}

    def test_compare_config_over_the_four_algorithms(self, tmp_path):
        out = tmp_path / "compare"
        argv = ["sweep", "--config", os.path.join(CONFIGS, "compare.cfg")]
        argv += ["--axis", "sim.algorithm=" + ",".join(ALGORITHMS), "--out-dir", str(out)]
        for override in ("sim.users=6", "sim.rounds=2", "sim.max_evals=5"):
            argv += ["--override", override]
        assert main(argv) == 0
        rows = list(csv.DictReader((out / "comparison.csv").read_text().splitlines()))
        assert [r["algorithm"] for r in rows] == list(ALGORITHMS)
        for row, entry in zip(rows, json.loads((out / "manifest.json").read_text())["runs"]):
            assert float(row["peak_accuracy"]) >= float(row["final_accuracy"])
            with open(entry["summary_json"]) as fh:
                summary = json.load(fh)
            assert "0.9" in summary["target_crossings"]
            assert summary["uplink_msgs"] == int(row["uplink_msgs"])

    def test_interval_study_at_a_fixed_budget(self, toy_cfg_file, tmp_path):
        """The README's interval study: one absolute budget, the interval swept."""
        cycle = setup_scenario(build_config(parse_config_text(TOY_CFG))).round_time
        budget = 3.3 * cycle  # not a multiple of either interval
        out = tmp_path / "interval"
        argv = ["sweep", "--config", toy_cfg_file, "--axis", "sim.delta_t_frac=0.5,1.0"]
        argv += ["--override", f"sim.time_budget_s={budget!r}", "--out-dir", str(out)]
        assert main(argv) == 0
        tiers = []
        for entry in json.loads((out / "manifest.json").read_text())["runs"]:
            with open(entry["summary_json"]) as fh:
                summary = json.load(fh)
            rounds = math.floor(budget / summary["delta_t_s"] + 1e-9)
            assert summary["downlink_broadcasts"] == rounds
            with open(entry["metrics_csv"]) as fh:
                last = list(csv.DictReader(fh))[-1]
            assert float(last["time_s"]) <= budget
            tiers.append(summary["num_tiers"])
        assert tiers == sorted(tiers, reverse=True)

    def test_bad_axis_is_config_error(self, toy_cfg_file, tmp_path, capsys):
        rc = main(
            [
                "sweep",
                "--config",
                toy_cfg_file,
                "--axis",
                "sim.rounds",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 2
        assert "config error" in capsys.readouterr().err


class TestShippedConfigs:
    def test_default_cfg_spells_out_the_defaults(self):
        assert load_config(os.path.join(CONFIGS, "default.cfg")) == ScenarioConfig()

    def test_compare_cfg(self):
        assert load_config(os.path.join(CONFIGS, "compare.cfg")) == ScenarioConfig(
            max_evals=300,
            accuracy_targets=(0.5, 0.6, 0.7, 0.8, 0.9),
            cpu_freq_max_hz=5e9,
            dirichlet_theta=0.0,
            learning_rate=1.0,
            batch_size=250,
        )

    def test_bound_example_cfg(self):
        constants, rounds = load_bound_constants(os.path.join(CONFIGS, "bound_example.cfg"))
        assert check_conditions(constants)[0]
        assert rounds == [0, 1, 10, 100, 1000]


class TestLoadBoundConstants:
    def test_full_file(self, bound_cfg_file):
        constants, rounds = load_bound_constants(bound_cfg_file)
        assert constants.smoothness == 1.0
        assert constants.failure_fractions == (0.5,)
        assert constants.median_const == 0.5
        assert rounds == [0, 1, 10, 100, 1000]

    def test_round_values_override(self, bound_cfg_file):
        _, rounds = load_bound_constants(
            bound_cfg_file, overrides=["bound.round_values=0,5,50"]
        )
        assert rounds == [0, 5, 50]

    def test_unparseable_round_values_name_the_key(self, bound_cfg_file):
        with pytest.raises(ConfigError, match="bound.round_values"):
            load_bound_constants(bound_cfg_file, overrides=["bound.round_values=0,x"])

    def test_median_none(self, bound_cfg_file):
        constants, _ = load_bound_constants(
            bound_cfg_file, overrides=["bound.median_const=none"]
        )
        assert constants.median_const is None and constants.xi == 0.5

    @pytest.mark.parametrize("spelling", ["none", "None"])
    def test_median_none_spellings_give_half_the_tiers(self, bound_cfg_file, spelling):
        constants, _ = load_bound_constants(
            bound_cfg_file,
            overrides=[
                f"bound.median_const={spelling}",
                "bound.num_tiers=3",
                "bound.failure_fractions=0.5,0.5,0.5",
            ],
        )
        assert constants.median_const is None and constants.xi == 1.5

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "b.cfg"
        path.write_text(BOUND_CFG + "bound.mystery = 1\n")
        with pytest.raises(ConfigError, match="bound.mystery"):
            load_bound_constants(str(path))

    def test_invalid_constants_wrapped(self, bound_cfg_file):
        with pytest.raises(ConfigError, match="bound constants invalid"):
            load_bound_constants(bound_cfg_file, overrides=["bound.smoothness=-1"])

    # one rejected value per key; NaN and infinity are rejected wherever a float is read
    REJECTED = {
        "bound.smoothness": "0",
        "bound.strong_convexity": "nan",
        "bound.grad_offset": "inf",
        "bound.grad_slope": "-0.1",
        "bound.drift_inner": "-inf",
        "bound.drift_norm": "nan",
        "bound.local_ratio": "inf",
        "bound.local_gap": "nan",
        "bound.initial_gap": "inf",
        "bound.num_tiers": "0",
        "bound.median_const": "nan",
        "bound.failure_fractions": "nan",
        "bound.round_values": "0,-1",
    }

    def test_every_key_has_a_rejection_row(self):
        assert sorted(self.REJECTED) == sorted(cli._BOUND_KEYS)

    @pytest.mark.parametrize("key", sorted(REJECTED))
    def test_rejection_names_the_key(self, bound_cfg_file, key, capsys):
        override = f"{key}={self.REJECTED[key]}"
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_bound_constants(bound_cfg_file, overrides=[override])
        assert main(["bound", "--config", bound_cfg_file, "--override", override]) != 0
        captured = capsys.readouterr()
        assert key in captured.err and "conditions_ok" not in captured.out


class TestBoundCommand:
    def test_table_output(self, bound_cfg_file, capsys):
        rc = main(["bound", "--config", bound_cfg_file])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert "conditions_ok" in lines[0]
        assert len(lines) == 6  # header + default round values
        first = lines[1].split()
        assert first[0] == "0" and float(first[1]) == 2.0
        assert first[2] == "true"
        assert "warning" not in out

    def test_violation_warning(self, bound_cfg_file, capsys):
        rc = main(
            ["bound", "--config", bound_cfg_file, "--override", "bound.grad_slope=0.5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "warning: convergence conditions violated" in out
        assert "drift bound" in out
        assert out.splitlines()[-1].split()[-1] == "false"

    def test_divergent_asymptote_exits_2(self, bound_cfg_file, capsys):
        rc = main(
            [
                "bound",
                "--config",
                bound_cfg_file,
                "--override",
                "bound.drift_inner=0.25",
                "--override",
                "bound.grad_slope=0",
                "--override",
                "bound.failure_fractions=0",
            ]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestMainExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("sim.bogus = 1\n")
        rc = main(["run", "--config", str(path), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_is_1(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "ttfedsim" in capsys.readouterr().out


# (override, the key the error must name); each one used to fail only once
# the scenario was being built or run, with exit 1 and no key
BAD_VALUES = [
    ("train.learning_rate=-0.1", "train.learning_rate"),
    ("train.local_epochs=0", "train.local_epochs"),
    ("train.batch_size=0", "train.batch_size"),
    ("data.zipf_eta=-1", "data.zipf_eta"),
    ("data.dirichlet_theta=-0.1", "data.dirichlet_theta"),
    ("channel.path_loss_exponent=1.9", "channel.path_loss_exponent"),
    ("data.train_per_class=0", "data.train_per_class"),
    ("data.test_per_class=0", "data.test_per_class"),
    ("sim.users=41", "sim.users"),  # 4 samples per class: 40 in all
    ("sim.seed=-1", "sim.seed"),
    ("data.seed=-1", "data.seed"),
    ("sim.radius_m=1e8", "sim.radius_m"),  # in range, but no user can upload
]


class TestBadValuesStopBeforeRunning:
    @pytest.mark.parametrize("override,key", BAD_VALUES)
    def test_run(self, toy_cfg_file, tmp_path, capsys, override, key):
        out = tmp_path / "out"
        rc = main(["run", "--config", toy_cfg_file, "--out-dir", str(out), "--override", override])
        assert rc == 2
        assert f"config error: {key}:" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_checks_every_axis_value_first(self, toy_cfg_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", toy_cfg_file, "--axis", "data.zipf_eta=0,-1"]
        rc = main(argv + ["--out-dir", str(out)])
        assert rc == 2
        assert "config error: data.zipf_eta:" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_checks_every_seed_first(self, toy_cfg_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(
            [
                "sweep",
                "--config",
                toy_cfg_file,
                "--axis",
                "sim.rounds=1",
                "--seeds",
                "1,-1",
                "--out-dir",
                str(out),
            ]
        )
        assert rc == 2
        assert "config error: sim.seed:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "axis,seeds,flag",
        [
            ("sim.algorithm=ttfed,fedavg,ttfed", "1", "--axis"),
            ("sim.algorithm=ttfed", "1,2,1", "--seeds"),
            ("sim.seed=1,2", "3", "--seeds"),  # both cells would run seed 3
        ],
    )
    def test_sweep_rejects_a_repeated_cell(self, toy_cfg_file, tmp_path, capsys, axis, seeds, flag):
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", toy_cfg_file, "--axis", axis, "--seeds", seeds]
        rc = main(argv + ["--out-dir", str(out)])
        assert rc == 2
        assert f"config error: {flag}: " in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_rejects_an_unparseable_seed(self, toy_cfg_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", toy_cfg_file, "--axis", "sim.rounds=1", "--seeds", "1,x"]
        rc = main(argv + ["--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error: --seeds:" in err and "'x'" in err
        assert not out.exists()

    def test_idx_class_smaller_than_train_per_class(self, toy_cfg_file, tmp_path, capsys):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx_images(str(images), 20)
        write_idx_labels(str(labels), list(range(10)) * 2)  # two samples per class
        idx_keys = [
            "data.source=idx",
            f"data.train_images={images}",
            f"data.train_labels={labels}",
            f"data.test_images={images}",
            f"data.test_labels={labels}",
            "data.train_per_class=3",
        ]
        out = tmp_path / "out"
        argv = ["run", "--config", toy_cfg_file, "--out-dir", str(out)]
        rc = main(argv + [arg for key in idx_keys for arg in ("--override", key)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"config error: data.train_per_class: {labels}:" in err
        assert not out.exists()
