"""End-to-end CLI checks: run, sweep, entry, verify-fixtures, list-fixtures."""

import csv
import re
from pathlib import Path
import json

import numpy as np
import pytest

from modelmarket.cli import main
import modelmarket.cli as cli_mod
import modelmarket.fixtures as fixtures_mod
from modelmarket.equilibrium import run_dynamics
from modelmarket.fixtures import builtin_instance
from modelmarket.game import platform_utilities
from modelmarket.metrics import market_shares, welfare_figures

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def _read_json(path):
    with open(path) as handle:
        return json.load(handle)


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _synthetic_block(n_models=3):
    return {
        "models": [{"bias": 0.1 * j,
                    "kernels": [{"center": [0.2 + 0.3 * j, 0.5], "amplitude": 0.6, "width": 0.3}]}
                   for j in range(n_models)],
        "gmm": {"components": [{"weight": 1.0, "mean": [0.5, 0.5],
                                "covariance": [[0.05, 0.0], [0.0, 0.05]]}],
                "k_types": 4, "seed": 3, "sample_size": 200},
        "n_platforms": 3,
    }


class TestRun:
    def test_counterexample_run_reports_a_cycle(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "c1_rps"},
            "dynamics": {"start": [0, 0], "max_steps": 100},
            "output": {"prefix": "c1"},
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = _read_json(tmp_path / "c1_summary.json")
        assert summary["outcome_kind"] == "cycle"
        assert summary["pne_count"] == 0

    def test_cycle_summary_equals_the_single_figure_functions(self, tmp_path):
        spec = builtin_instance("c8_players_3").spec
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "c8_players_3"},
            "dynamics": {"start": [2, 2, 0]},
            "output": {"prefix": "c8"},
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = _read_json(tmp_path / "c8_summary.json")
        outcome = run_dynamics(spec, (2, 2, 0))
        assert summary["outcome_kind"] == outcome.kind == "cycle"
        anchor = outcome.cycle_profiles[0]
        shares = market_shares(spec, anchor)
        figures = welfare_figures(spec, outcome)
        assert summary["final_utilities"] == [float(u) for u in platform_utilities(spec, anchor)]
        assert (summary["hhi"], summary["shares"]) == (shares.hhi, list(shares.shares))
        assert (summary["welfare"], summary["welfare_state_average"],
                summary["welfare_multiset_average"]) == (
            figures.value, figures.state_average, figures.multiset_average)

    def test_differentiated_instance_converges(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "fig2_a"},
            "dynamics": {"start": [0, 0], "max_steps": 100},
            "output": {"prefix": "a"},
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = _read_json(tmp_path / "a_summary.json")
        assert summary["outcome_kind"] == "equilibrium"
        assert sorted(summary["equilibrium_profile"]) == ["g1", "g2"]
        assert summary["welfare"] == pytest.approx(0.85, abs=1e-9)

    def test_zero_max_steps_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "fig2_a"},
            "dynamics": {"start": [0, 0], "max_steps": 0},
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "max_steps" in capsys.readouterr().err

    def test_config_parse_error_is_line_anchored(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"instance": {"builtin": "c1_rps"},\n  "oops"\n}')
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert re.search(r"broken\.json:\d+:\d+", err)

    def test_file_instance_and_choice_override(self, tmp_path):
        instance = _write_config(tmp_path, {
            "model_labels": ["m1", "m2"],
            "scores": [[0.9, 0.2], [0.4, 0.8]],
            "type_labels": ["a", "b"],
            "weights": [0.5, 0.5],
            "n_platforms": 2,
        }, name="inst.json")
        cfg = _write_config(tmp_path, {
            "instance": {"file": instance},
            "choice": {"kind": "softmax", "tau": 0.5},
            "dynamics": {"start": [0, 1], "max_steps": 50},
            "output": {"prefix": "soft"},
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = _read_json(tmp_path / "soft_summary.json")
        assert summary["choice"] == {"kind": "softmax", "tau": 0.5}

    def test_env_var_sets_default_output_dir(self, tmp_path, monkeypatch):
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "fig2_b"},
            "dynamics": {"start": [0, 0], "max_steps": 50},
            "output": {"prefix": "envd"},
        })
        monkeypatch.setenv("MODELMARKET_OUT", str(tmp_path / "via_env"))
        assert main(["run", "--config", cfg]) == 0
        assert (tmp_path / "via_env" / "envd_summary.json").exists()

    def test_optimum_over_budget_still_writes_the_summary(self, tmp_path):
        # C(50 + 10 - 1, 10) multisets exceed the optimum's budget of 10^7
        rng = np.random.default_rng(4)
        instance = _write_config(tmp_path, {
            "scores": rng.uniform(0.0, 1.0, size=(50, 4)).tolist(),
            "weights": [0.25, 0.25, 0.25, 0.25],
            "n_platforms": 10,
        }, name="wide.json")
        cfg = _write_config(tmp_path, {
            "instance": {"file": instance},
            "dynamics": {"seed": 2, "max_steps": 200},
            "output": {"prefix": "wide"},
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = _read_json(tmp_path / "wide_summary.json")
        assert summary["social_optimum"] is None
        assert "62828356305 multisets" in summary["social_optimum_note"]
        assert summary["pne"] is None
        assert (tmp_path / "wide_steps.csv").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "c7_welfare_gap"},
            "dynamics": {"max_steps": 100, "seed": 5},
            "output": {"prefix": "rep"},
        })
        main(["run", "--config", cfg, "--out", str(tmp_path / "one")])
        main(["run", "--config", cfg, "--out", str(tmp_path / "two")])
        for name in ("rep_steps.csv", "rep_summary.json"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


class TestSweep:
    def test_model_pool_sweep_reproduces_welfare_drop(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "fig3_b"},
            "dynamics": {"max_steps": 200, "seed": 1},
            "sweep": {"axis": "models", "values": [2, 3], "repetitions": 2},
            "output": {"prefix": "pool"},
        })
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        summaries = _read_json(tmp_path / "pool_summary.json")
        by_value = {}
        for s in summaries:
            by_value.setdefault(s["sweep_value"], []).append(s["welfare"])
        assert all(w == pytest.approx(0.85, abs=1e-9) for w in by_value[2])
        assert all(w == pytest.approx(0.84, abs=1e-9) for w in by_value[3])

    def test_single_platform_takes_best_average_model(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "fig3_b"},
            "dynamics": {"max_steps": 200, "seed": 1},
            "sweep": {"axis": "platforms", "values": [1, 2, 3], "repetitions": 1},
            "output": {"prefix": "plat"},
        })
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        summaries = _read_json(tmp_path / "plat_summary.json")
        solo = [s for s in summaries if s["sweep_value"] == 1][0]
        assert solo["welfare"] == pytest.approx(0.84, abs=1e-9)  # max_j T_j

    def test_row_count_matches_trajectory_lengths(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "c7_welfare_gap"},
            "dynamics": {"max_steps": 300, "seed": 3},
            "sweep": {"axis": "platforms", "values": [2, 3], "repetitions": 3},
            "output": {"prefix": "rows"},
        })
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = _read_csv(tmp_path / "rows_long.csv")
        per_cell = {}
        for row in rows:
            key = (row["sweep_value"], row["repetition"])
            per_cell[key] = max(per_cell.get(key, -1), int(row["step"]))
        assert len(rows) == sum(last + 1 for last in per_cell.values())

    def test_distinct_seeds_vary_starts_and_jobs_match_serial(self, tmp_path):
        base = {
            "instance": {"builtin": "c8_players_2"},
            "dynamics": {"max_steps": 400, "seed": 11},
            "sweep": {"axis": "platforms", "values": [2], "repetitions": 3,
                      "seeds": [21, 22, 23]},
            "output": {"prefix": "par"},
        }
        cfg = _write_config(tmp_path, base)
        main(["sweep", "--config", cfg, "--out", str(tmp_path / "serial")])
        main(["sweep", "--config", cfg, "--out", str(tmp_path / "jobs"), "--jobs", "2"])
        serial = (tmp_path / "serial" / "par_long.csv").read_bytes()
        parallel = (tmp_path / "jobs" / "par_long.csv").read_bytes()
        assert serial == parallel
        starts = {s["start"][0] + s["start"][1]
                  for s in _read_json(tmp_path / "serial" / "par_summary.json")}
        assert len(starts) > 1  # different seeds draw different start profiles

    def test_instance_is_built_once_and_jobs_match_serial(self, tmp_path, monkeypatch):
        builds = []
        build = fixtures_mod.gmm_population
        monkeypatch.setattr(fixtures_mod, "gmm_population",
                            lambda spec: builds.append(1) or build(spec))
        cfg = _write_config(tmp_path, {
            "instance": {"synthetic": _synthetic_block()},
            "dynamics": {"max_steps": 200, "seed": 4},
            "sweep": {"axis": "models", "values": [1, 2, 3], "repetitions": 2},
            "output": {"prefix": "syn"},
        })
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "serial")]) == 0
        assert len(builds) == 1
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "jobs"), "--jobs", "2"]) == 0
        for name in ("syn_long.csv", "syn_summary.json"):
            serial = (tmp_path / "serial" / name).read_bytes()
            assert serial == (tmp_path / "jobs" / name).read_bytes()
        assert [s["sweep_value"] for s in _read_json(tmp_path / "serial" / "syn_summary.json")] \
            == [1, 1, 2, 2, 3, 3]

    def test_every_cell_is_validated_before_any_runs(self, tmp_path, capsys, monkeypatch):
        runs = []
        run = cli_mod.run_dynamics
        monkeypatch.setattr(cli_mod, "run_dynamics",
                            lambda *a, **k: runs.append(1) or run(*a, **k))
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "fig3_b"},
            "sweep": {"axis": "models", "values": [2, 3, 9]},
        })
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "model-pool size 9 out of range" in capsys.readouterr().err
        assert runs == []
        assert not out.exists()

    def test_population_axis(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "fig2_a"},
            "dynamics": {"max_steps": 100, "seed": 0},
            "sweep": {"axis": "population", "values": [[0.5, 0.5], [0.9, 0.1]],
                      "repetitions": 1},
            "output": {"prefix": "popu"},
        })
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        summaries = _read_json(tmp_path / "popu_summary.json")
        # a 0.9-weight on the type that g1 wins pushes the market onto g1
        heavy = [s for s in summaries if s["sweep_value"] == [0.9, 0.1]][0]
        assert heavy["pne"] == [["g1", "g1"]]


class TestEntry:
    @pytest.fixture
    def entry_config(self, tmp_path):
        return _write_config(tmp_path, {
            "instance": {
                "file": _write_config(tmp_path, {
                    "model_labels": ["inc1", "inc2"],
                    "scores": [[0.80, 0.30, 0.50], [0.60, 0.35, 0.75]],
                    "type_labels": ["a", "b", "c"],
                    "weights": [0.2, 0.5, 0.3],
                    "n_platforms": 3,
                }, name="incumbents.json"),
            },
            "training": {
                "method": "both",
                "estimator": "exact",
                "outcomes": ["x1", "x2", "x3", "x4", "x5"],
                "rewards": [
                    [0.90, 0.70, 0.00, 0.00, 0.20],
                    [0.00, 0.00, 0.90, 0.80, 0.10],
                    [0.10, 0.00, 0.10, 0.20, 0.90],
                ],
                "dataset": {
                    "counts": [3000, 2500, 2000, 1500, 1000],
                    "attributes": ["art", "art", "math", "math", "misc"],
                    "attribute_labels": ["art", "math", "misc"],
                    "type_preferences": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                },
                "params": {"lambda": 2.0, "learning_rate": 0.5, "inner_epochs": 40,
                           "seed": 3},
                "n_platforms": 3,
            },
            "output": {"prefix": "toy"},
        })

    def test_training_produces_adopted_entrant(self, tmp_path, entry_config):
        assert main(["entry", "--config", entry_config, "--out", str(tmp_path)]) == 0
        report = _read_json(tmp_path / "toy_report.json")
        assert report["direct"]["adopted"] is True
        assert report["resampling"]["adopted"] is True
        trace = _read_csv(tmp_path / "toy_trace_direct.csv")
        assert float(trace[-1]["objective"]) > float(trace[0]["objective"])
        assert len(_read_csv(tmp_path / "toy_trace_resampling.csv")) == 6  # init + 5 rounds

    def test_trace_headers(self, tmp_path, entry_config):
        assert main(["entry", "--config", entry_config, "--out", str(tmp_path)]) == 0
        headers = {method: (tmp_path / f"toy_trace_{method}.csv").read_text().splitlines()[0]
                   for method in ("resampling", "direct")}
        assert headers == {
            "resampling": "round,objective,score_a,score_b,score_c",
            "direct": "epoch,cross_entropy,objective,loss,score_a,score_b,score_c",
        }

    @pytest.mark.parametrize("training, message", [
        pytest.param({"estimator": "typo"}, "unknown estimator 'typo'", id="estimator"),
        pytest.param({"params": {"inner_epochs": 0}},
                     "direct-gradient training needs inner_epochs >= 1", id="inner_epochs"),
        pytest.param({"method": "typo"}, "unknown training method 'typo'", id="method"),
    ])
    def test_failed_run_writes_no_file(self, tmp_path, capsys, training, message):
        # with method both, resampling trains before direct fails
        payload = _read_json(CONFIGS / "entry_underserved_type.json")
        payload["instance"]["file"] = str(CONFIGS / payload["instance"]["file"])
        payload["training"].update({"method": "both", **training})
        out = tmp_path / "out"
        out.mkdir()
        assert main(["entry", "--config", _write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(out.iterdir()) == []

    def test_lambda_zero_reproduces_the_data_distribution(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "instance": {
                "file": _write_config(tmp_path, {
                    "scores": [[0.8, 0.3], [0.6, 0.35]],
                    "weights": [0.5, 0.5],
                    "n_platforms": 2,
                }, name="inc2.json"),
            },
            "training": {
                "method": "direct",
                "outcomes": ["x1", "x2", "x3"],
                "rewards": [[0.9, 0.1, 0.2], [0.1, 0.8, 0.3]],
                "dataset": {"counts": [600, 300, 100]},
                "params": {"lambda": 0.0, "inner_epochs": 80, "seed": 1},
                "n_platforms": 2,
            },
            "output": {"prefix": "mle"},
        })
        assert main(["entry", "--config", cfg, "--out", str(tmp_path)]) == 0
        trace = _read_csv(tmp_path / "mle_trace_direct.csv")
        ce = [float(r["cross_entropy"]) for r in trace]
        assert all(b <= a + 1e-9 for a, b in zip(ce, ce[1:]))
        report = _read_json(tmp_path / "mle_report.json")
        # the entrant's type scores match the empirical data distribution's
        empirical = [0.6, 0.3, 0.1]
        expected = [sum(e * r for e, r in zip(empirical, row))
                    for row in ([0.9, 0.1, 0.2], [0.1, 0.8, 0.3])]
        got = report["direct"]["entrant_scores"]
        assert got == pytest.approx(expected, abs=5e-3)


    def test_idle_resampling_duplicates_the_base_distribution_scores(self, tmp_path):
        # one outer round with zero inner epochs: the entrant is exactly the
        # base-distribution fit, so the market gains a copy of its score row
        cfg = _write_config(tmp_path, {
            "instance": {
                "file": _write_config(tmp_path, {
                    "scores": [[0.8, 0.3], [0.6, 0.35]],
                    "weights": [0.5, 0.5],
                    "n_platforms": 2,
                }, name="inc3.json"),
            },
            "training": {
                "method": "resampling",
                "outcomes": ["x1", "x2", "x3"],
                "rewards": [[0.9, 0.1, 0.2], [0.1, 0.8, 0.3]],
                "dataset": {"counts": [600, 300, 100]},
                "params": {"outer_rounds": 1, "inner_epochs": 0, "seed": 2},
                "n_platforms": 2,
            },
            "output": {"prefix": "idle"},
        })
        assert main(["entry", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = _read_json(tmp_path / "idle_report.json")
        empirical = [0.6, 0.3, 0.1]
        expected = [sum(e * r for e, r in zip(empirical, row))
                    for row in ([0.9, 0.1, 0.2], [0.1, 0.8, 0.3])]
        assert report["resampling"]["entrant_scores"] == pytest.approx(expected, abs=1e-9)


class TestConfigValidation:
    def test_two_instance_sources_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "c1_rps", "synthetic": {}},
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_unknown_choice_kind_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "c1_rps"},
            "choice": {"kind": "argmax"},
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "unknown choice kind" in capsys.readouterr().err

    def test_unknown_sweep_axis_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "c1_rps"},
            "sweep": {"axis": "temperature", "values": [1]},
        })
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "unknown sweep axis" in capsys.readouterr().err

    def test_missing_kernel_key_names_its_block(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "instance": {"synthetic": {
                "models": [{"kernels": [{"center": [0.5, 0.5], "amplitude": 0.5}]}],
                "gmm": {"components": [{"weight": 1.0, "mean": [0.5, 0.5],
                                        "covariance": [[0.01, 0.0], [0.0, 0.01]]}],
                        "k_types": 2, "sample_size": 50},
                "n_platforms": 2,
            }},
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "missing 'width' in the kernel block" in capsys.readouterr().err

    def test_unknown_training_param_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "fig2_a"},
            "training": {
                "outcomes": ["x0", "x1"],
                "rewards": [[0.5, 0.5], [0.2, 0.8]],
                "dataset": {"counts": [1, 1]},
                "params": {"betta": 2.0},
            },
        })
        assert main(["entry", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "unknown key 'betta' in the training.params block" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("outer_rounds", 2.5), ("inner_epochs", 3.5), ("eval_budget", 100.5), ("seed", "3"),
        ("seed", 3.7), ("beta", "4"), ("lambda", None), ("outer_rounds", True), ("beta", True),
    ])
    def test_training_param_of_the_wrong_type_rejected(self, tmp_path, capsys, key, value):
        payload = _read_json(CONFIGS / "entry_underserved_type.json")
        payload["instance"]["file"] = str(CONFIGS / payload["instance"]["file"])
        payload["training"]["params"][key] = value
        out = tmp_path / "out"
        assert main(["entry", "--config", _write_config(tmp_path, payload), "--out", str(out)]) == 2
        kind = "a number" if key in ("beta", "lambda") else "an integer"
        assert capsys.readouterr().err == f"error: {key} must be {kind} (got {value!r})\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, field, value", [
        ("run", "instance.n_platforms", 2.7),
        ("run", "synthetic.n_platforms", "2"),
        ("run", "gmm.k_types", 2.7),
        ("run", "gmm.seed", 3.5),
        ("run", "gmm.sample_size", "200"),
        ("run", "dynamics.max_steps", 50.9),
        ("run", "dynamics.seed", 1.5),
        ("run", "dynamics.max_steps", True),
        ("run", "dynamics.seed", False),
        ("sweep", "sweep.repetitions", 1.5),
        ("sweep", "sweep.seeds", 4.5),
        pytest.param("sweep", "a models sweep value", 2.9, id="sweep-models_value-2.9"),
        pytest.param("sweep", "a platforms sweep value", "3", id="sweep-platforms_value-3"),
        ("entry", "training.n_platforms", 2.5),
    ])
    def test_integer_config_field_must_be_an_integer(self, tmp_path, capsys, command, field, value):
        payload = self._every_block()
        block, _, key = field.rpartition(".")
        if block == "instance":
            payload["instance"] = {"file": _write_config(tmp_path, {
                "scores": [[0.5, 0.2], [0.3, 0.6]], "weights": [0.5, 0.5], "n_platforms": value,
            }, name="inst.json")}
        elif block in ("synthetic", "gmm"):
            payload["instance"] = {"synthetic": _synthetic_block()}
            target = payload["instance"]["synthetic"]
            (target["gmm"] if block == "gmm" else target)[key] = value
        elif field == "sweep.seeds":
            payload["sweep"].update(repetitions=1, seeds=[value])
        elif field.endswith("sweep value"):
            payload["sweep"] = {"axis": field.split()[1], "values": [value]}
        else:
            payload[block][key] = value
        out = tmp_path / "out"
        assert main([command, "--config", _write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {field} must be an integer (got {value!r})\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, field, value", [
        ("run", "choice.tau", "0.05"),
        ("run", "synthetic model bias", "0.1"),
        ("run", "kernel amplitude", "0.6"),
        ("run", "kernel width", True),
        ("run", "gmm.dx", "0.1"),
        ("run", "gmm component weight", "1.0"),
        ("sweep", "a population sweep weight", "0.5"),
    ])
    def test_float_config_field_must_be_a_number(self, tmp_path, capsys, command, field, value):
        payload = self._every_block()
        payload["instance"] = {"synthetic": _synthetic_block()}
        synthetic = payload["instance"]["synthetic"]
        if field == "choice.tau":
            payload["choice"] = {"kind": "softmax", "tau": value}
        elif field == "synthetic model bias":
            synthetic["models"][0]["bias"] = value
        elif field.startswith("kernel"):
            synthetic["models"][0]["kernels"][0][field.split()[1]] = value
        elif field == "gmm.dx":
            synthetic["gmm"]["dx"] = value
        elif field == "gmm component weight":
            synthetic["gmm"]["components"][0]["weight"] = value
        else:
            payload["sweep"] = {"axis": "population", "values": [[value, 0.5, 0.0, 0.0]]}
        out = tmp_path / "out"
        assert main([command, "--config", _write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert f"error: {field} must be a number (got {value!r})" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sweep, message", [
        ({"axis": "models", "values": [2], "seeds": 5}, "sweep.seeds must be a list (got 5)"),
        ({"axis": "models", "values": 5}, "sweep.values must be a list (got 5)"),
        ({"axis": "population", "values": [0.5]},
         "a population sweep value must be a list of weights (got 0.5)"),
    ])
    def test_sweep_lists_must_be_lists(self, tmp_path, capsys, sweep, message):
        payload = self._every_block()
        payload["sweep"] = sweep
        out = tmp_path / "out"
        assert main(["sweep", "--config", _write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, field, value", [
        ("run", "dynamics.start", 3),
        ("run", "instance.weights", 1),
        ("run", "kernel center", 0.5),
        ("entry", "training.dataset.attribute_labels", 5),
    ])
    def test_list_config_field_must_be_a_list(self, tmp_path, capsys, command, field, value):
        payload = self._every_block()
        if field == "instance.weights":
            payload["instance"] = {"file": _write_config(tmp_path, {
                "scores": [[0.5, 0.2], [0.3, 0.6]], "weights": value, "n_platforms": 2,
            }, name="inst.json")}
        elif field == "kernel center":
            payload["instance"] = {"synthetic": _synthetic_block()}
            payload["instance"]["synthetic"]["models"][0]["kernels"][0]["center"] = value
        elif field == "dynamics.start":
            payload["dynamics"]["start"] = value
        else:
            payload["training"]["dataset"]["attribute_labels"] = value
        out = tmp_path / "out"
        assert main([command, "--config", _write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {field} must be a list (got {value!r})\n"
        assert not out.exists()

    @staticmethod
    def _every_block():
        return {
            "instance": {"builtin": "fig2_a"},
            "choice": {"kind": "hardmax"},
            "dynamics": {"max_steps": 50},
            "sweep": {"axis": "models", "values": [2]},
            "training": {
                "outcomes": ["x0", "x1"],
                "rewards": [[0.5, 0.5], [0.2, 0.8]],
                "dataset": {"counts": [1, 1]},
            },
            "output": {"prefix": "p"},
        }

    @pytest.mark.parametrize("command, block, key", [
        ("run", "dynamics", "max_step"),
        ("sweep", "dynamics", "sed"),
        ("sweep", "sweep", "repetition"),
        ("run", "top-level", "choise"),
        ("run", "instance", "buildin"),
        ("run", "choice", "temperature"),
        ("entry", "training", "estimater"),
        ("entry", "training.dataset", "count"),
        ("run", "output", "prefx"),
        pytest.param("run", "synthetic", "n_platform", id="run-synthetic-n_platform"),
        pytest.param("run", "gmm", "sample_sise", id="run-gmm-sample_sise"),
        pytest.param("run", "gmm component", "weigth", id="run-gmm_component-weigth"),
        pytest.param("run", "synthetic model", "biass", id="run-synthetic_model-biass"),
        pytest.param("run", "kernel", "centre", id="run-kernel-centre"),
        pytest.param("sweep", "gmm", "sed", id="sweep-gmm-sed"),
        pytest.param("run", "instance file", "model_label", id="run-instance_file-model_label"),
    ])
    def test_unknown_block_key_rejected(self, tmp_path, capsys, command, block, key):
        payload = self._every_block()
        synthetic_paths = {
            "synthetic": (),
            "gmm": ("gmm",),
            "gmm component": ("gmm", "components", 0),
            "synthetic model": ("models", 0),
            "kernel": ("models", 0, "kernels", 0),
        }
        if block == "instance file":
            payload["instance"] = {"file": "inst.json"}
            target = {"scores": [[0.5, 0.2]], "weights": [0.5, 0.5], "n_platforms": 1}
        elif block in synthetic_paths:
            payload["instance"] = {"synthetic": _synthetic_block()}
            target = payload["instance"]["synthetic"]
            for part in synthetic_paths[block]:
                target = target[part]
        else:
            target = payload
            for part in block.split(".") if block != "top-level" else ():
                target = target[part]
        target[key] = 1
        if block == "instance file":
            _write_config(tmp_path, target, name="inst.json")
        cfg = _write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"error: unknown key {key!r} in the {block} block" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, block, value", [
        pytest.param("sweep", "sweep", ["models", [2]], id="sweep"),
        pytest.param("run", "output", "runs", id="output"),
        pytest.param("run", "instance", "fig2_a", id="instance"),
        pytest.param("run", "choice", "softmax", id="choice"),
        pytest.param("entry", "training", [], id="training"),
        pytest.param("entry", "training.dataset", [1, 1], id="training.dataset"),
        pytest.param("run", "top-level", [{"instance": {"builtin": "fig2_a"}}], id="top-level"),
    ])
    def test_block_that_is_not_an_object_rejected(self, tmp_path, capsys, command, block, value):
        payload = self._every_block()
        if block == "top-level":
            payload = value
        else:
            *path, last = block.split(".")
            parent = payload
            for part in path:
                parent = parent[part]
            parent[last] = value
        cfg = _write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"error: the {block} block must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_mover_order_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "c1_rps"},
            "dynamics": {"order": "reverse"},
        })
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "error: unknown mover order 'reverse'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("start", [[1.7, 0], ["1", 0]])
    def test_start_entries_must_be_model_indices(self, tmp_path, capsys, start):
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "c1_rps"},
            "dynamics": {"start": start},
        })
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "error: a profile must be a list of model indices" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_non_positive_jobs_rejected(self, tmp_path, capsys, jobs):
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "fig3_b"},
            "sweep": {"axis": "models", "values": [2], "repetitions": 1},
        })
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--jobs", jobs]) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_entry_rewards_must_match_population(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "fig2_a"},
            "training": {
                "outcomes": ["x0", "x1"],
                "rewards": [[0.5, 0.5]],            # one type; instance has two
                "dataset": {"counts": [1, 1]},
            },
        })
        assert main(["entry", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "disagree on user types" in capsys.readouterr().err


class TestShippedConfigs:
    """The example configs under configs/ stay runnable."""

    CONFIGS = Path(__file__).resolve().parent.parent / "configs"

    def test_run_example(self, tmp_path):
        assert main(["run", "--config", str(self.CONFIGS / "run_reference_cycle.json"),
                     "--out", str(tmp_path)]) == 0
        summary = _read_json(tmp_path / "reference_cycle_summary.json")
        assert summary["outcome_kind"] == "cycle"

    def test_sweep_example(self, tmp_path):
        assert main(["sweep", "--config", str(self.CONFIGS / "sweep_pool_growth.json"),
                     "--out", str(tmp_path)]) == 0
        summaries = _read_json(tmp_path / "pool_growth_summary.json")
        assert {s["sweep_value"] for s in summaries} == {2, 3}

    def test_entry_example(self, tmp_path):
        assert main(["entry", "--config", str(self.CONFIGS / "entry_underserved_type.json"),
                     "--out", str(tmp_path)]) == 0
        report = _read_json(tmp_path / "underserved_entry_report.json")
        assert report["direct"]["adopted"] is True


class TestFixtureCommands:
    def test_verify_fixtures_passes(self, capsys):
        assert main(["verify-fixtures"]) == 0
        out = capsys.readouterr().out
        assert "verify-fixtures: PASS" in out
        assert out.count(": ok") == 12

    def test_corrupted_fixture_is_reported(self, capsys, monkeypatch):
        import modelmarket.game as game_mod
        real = fixtures_mod.builtin_instance

        def corrupt(name):
            fixture = real(name)
            if name == "fig2_a":
                bad_spec = game_mod.GameSpec(
                    game_mod.ScoreMatrix([[0.90, 0.35], [0.85, 0.81]]),
                    fixture.spec.population, 2)
                return fixtures_mod.Fixture(fixture.name, fixture.description,
                                            bad_spec, fixture.expected, fixture.notes)
            return fixture

        monkeypatch.setattr(fixtures_mod, "builtin_instance", corrupt)
        import modelmarket.cli as cli_mod
        monkeypatch.setattr(cli_mod, "verify_fixture",
                            lambda name: fixtures_mod.verify_fixture(corrupt(name)))
        assert main(["verify-fixtures"]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH" in out

    def test_unknown_fixture_name_fails_before_computation(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"instance": {"builtin": "mystery"}})
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "unknown fixture" in capsys.readouterr().err

    def test_list_fixtures_names_everything(self, capsys):
        assert main(["list-fixtures"]) == 0
        out = capsys.readouterr().out
        for name in fixtures_mod.fixture_names():
            assert name in out
