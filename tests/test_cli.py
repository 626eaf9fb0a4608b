"""End-to-end CLI checks: run, sweep, entry, verify-fixtures, list-fixtures."""

import concurrent.futures
import csv
import ctypes
import difflib
import errno
import os
import re
import subprocess
import sys
from pathlib import Path
import json
import math

import numpy as np
import pytest

from modelmarket.cli import main
import modelmarket.cli as cli_mod
import modelmarket.config as config_mod
import modelmarket.entry as entry_mod
import modelmarket.fixtures as fixtures_mod
import modelmarket.game as game_mod
import modelmarket.metrics as metrics_mod
from modelmarket.equilibrium import enumerate_pne, run_dynamics
from modelmarket.errors import MarketGameError
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
    # from (0, 0) the 7th turn returns to the state after the first, so the
    # last allowed turn ends the run at its repeated state
    @pytest.mark.parametrize("max_steps", [7, 100])
    def test_counterexample_run_reports_a_cycle(self, tmp_path, capsys, max_steps):
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "c1_rps"},
            "dynamics": {"start": [0, 0], "max_steps": max_steps},
            "output": {"prefix": "c1"},
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = _read_json(tmp_path / "c1_summary.json")
        assert summary["outcome_kind"] == "cycle"
        assert len(summary["cycle_profiles"]) == 6
        assert summary["pne_count"] == 0

    def test_a_bad_start_fails_before_the_game_is_solved(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli_mod, "analyze", lambda spec: pytest.fail("the game was solved"))
        cfg = _write_config(tmp_path, {"instance": {"builtin": "fig2_a"}, "dynamics": {"start": [0, 5]}})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: model index 5 out of range [0, 2)\n"
        assert not (tmp_path / "out").exists()

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

    def test_the_default_output_dir_is_out(self, tmp_path, monkeypatch):
        # --out is the one source of the output directory; no variable stands in for it
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "fig2_b"},
            "dynamics": {"start": [0, 0], "max_steps": 50},
            "output": {"prefix": "envd"},
        })
        monkeypatch.setenv("MODELMARKET_OUT", str(tmp_path / "via_env"))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", cfg]) == 0
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "cfg.json", "out", "out/envd_steps.csv", "out/envd_summary.json"]

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


    def test_large_score_scale_runs(self, tmp_path, capsys):
        # the coverage cross-check's routes differ by an ulp at this scale
        instance = _write_config(tmp_path, {
            "scores": [[592526.236, 635883.129], [322905.795, 720603.332]],
            "weights": [0.03, 0.97], "n_platforms": 3}, name="scaled.json")
        cfg = _write_config(tmp_path, {"instance": {"file": instance},
                                       "dynamics": {"start": [0, 0, 0]},
                                       "output": {"prefix": "scaled"}})
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = _read_json(tmp_path / "scaled_summary.json")
        assert summary["equilibrium_profile"] in summary["pne"]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("max_steps", [1, 6])  # 6: one turn short of the repeated state
    def test_timeout_summary_has_no_welfare_and_no_outcome_profile(self, tmp_path, max_steps):
        cfg = _write_config(tmp_path, {"instance": {"builtin": "c1_rps"},
                                       "dynamics": {"start": [0, 0], "max_steps": max_steps},
                                       "output": {"prefix": "c1"}})
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = _read_json(tmp_path / "c1_summary.json")
        assert summary["outcome_kind"] == "timeout" and summary["welfare"] is None
        assert "equilibrium_profile" not in summary and "cycle_profiles" not in summary

    def test_softmax_tau_too_small_for_the_scores_is_one_error(self, tmp_path, capsys):
        # the largest score / tau overflows, which wrote NaN utilities and shares
        cfg = _write_config(tmp_path, {"instance": {"builtin": "fig2_a"},
                                       "choice": {"kind": "softmax", "tau": 1e-320}})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: softmax tau 1e-320 is too small for the score scale\n"
        assert not out.exists()

    def test_platforms_times_scores_past_the_limit_is_one_error(self, tmp_path, capsys):
        # N * S overflowed in the deviation terms, with a numpy warning first
        instance = _write_config(tmp_path, {"scores": [[1e307, 5e306], [6e306, 9e306]],
                                            "weights": [0.5, 0.5], "n_platforms": 20}, name="big.json")
        cfg = _write_config(tmp_path, {"instance": {"file": instance}})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: 20 platforms times the largest score 1e+307 exceeds 8.988465674311579e+307\n")
        assert not out.exists()

    def test_largest_score_scale_within_the_limit_runs(self, tmp_path, capsys):
        largest = game_mod.SCALE_LIMIT / 10
        while 10 * largest > game_mod.SCALE_LIMIT:
            largest = np.nextafter(largest, 0.0)
        instance = _write_config(tmp_path, {
            "scores": [[largest, 0.4 * largest], [0.55 * largest, 0.95 * largest], [largest, largest]],
            "weights": [0.3, 0.7], "n_platforms": 10}, name="largest.json")
        cfg = _write_config(tmp_path, {"instance": {"file": instance}, "output": {"prefix": "largest"}})
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = _read_json(tmp_path / "largest_summary.json")
        assert summary["equilibrium_profile"] in summary["pne"]
        assert math.isfinite(summary["welfare"]) and summary["welfare"] > 0.9 * largest
        assert capsys.readouterr().err == ""

    def test_gmm_too_large_for_kmeans_is_one_error(self, tmp_path, capsys):
        # the draws' squared distances overflowed, and the run wrote welfare 0.0
        cfg = _write_config(tmp_path, {"instance": {"synthetic": {
            "models": [{"kernels": [{"center": [0, 0], "amplitude": 1, "width": 1}]}],
            "n_platforms": 2,
            "gmm": {"components": [{"weight": 1, "mean": [1e308, 0], "covariance": [[1e308, 0], [0, 1]]}],
                    "k_types": 3, "sample_size": 50}}}})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: k-means points must be finite and at most 4.74038e+152 ")
        assert not out.exists()

    @pytest.mark.parametrize("scores", [[[1, 0.4], [0.55, 0.95], [1, 1]],
                                        [[4.4e306, 1.76e306], [2.42e306, 4.18e306], [4.4e306, 4.4e306]]],
                             ids=["1.0", "4.4e306"])
    def test_weights_within_tolerance_of_one_run(self, tmp_path, capsys, scores):
        # the weights sum to 1 + 1e-9, which UserPopulation accepts; the share
        # check compared the shares' sum with 1 and refused them
        instance = _write_config(tmp_path, {
            "scores": scores, "weights": [0.3, 0.7000000009999999], "n_platforms": 20},
            name="weights.json")
        cfg = _write_config(tmp_path, {"instance": {"file": instance}, "output": {"prefix": "w"}})
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        summary = _read_json(tmp_path / "w_summary.json")
        assert abs(sum(summary["shares"]) - (0.3 + 0.7000000009999999)) <= game_mod.WEIGHT_TOL

    @pytest.mark.parametrize("center, width", [([1e308, 0], 1), ([1e154, 0], 0.3),
                                               ([0, 0], 1e-200), ([0, 0], 1e200)],
                             ids=["far-center", "mid-center", "tiny-width", "huge-width"])
    def test_rbf_kernel_at_float_edges_is_one_error(self, tmp_path, capsys, center, width):
        # overflow and divide-by-zero warnings with exit 0, or an OverflowError traceback
        cfg = _write_config(tmp_path, {"instance": {"synthetic": {
            "models": [{"kernels": [{"center": center, "amplitude": 1, "width": width}]}],
            "n_platforms": 2,
            "gmm": {"components": [{"weight": 1, "mean": [0, 0], "covariance": [[1, 0], [0, 1]]}],
                    "k_types": 3, "sample_size": 50}}}})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: models[0].kernels[0]: ")
        assert not out.exists()

    def test_rbf_bias_plus_amplitude_past_the_largest_float_is_one_error(self, tmp_path, capsys):
        # an overflow warning in the sum, then exit 0 with welfare 1.0 from the clamp
        cfg = _write_config(tmp_path, {"instance": {"synthetic": {
            "models": [{"bias": 1e308, "kernels": [{"center": [0, 0], "amplitude": 1.7e308, "width": 1}]}],
            "n_platforms": 2,
            "gmm": {"components": [{"weight": 1, "mean": [0, 0], "covariance": [[1, 0], [0, 1]]}],
                    "k_types": 3, "sample_size": 50}}}})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: models[0]: |bias| + the sum of its kernels' |amplitude| must be finite "
            "(bias 1e+308)\n")
        assert not out.exists()

    def test_failed_invariant_writes_nothing(self, tmp_path, capsys, monkeypatch):
        exact = game_mod.average_scores
        monkeypatch.setattr(game_mod, "average_scores", lambda spec: exact(spec) + 1e-6)
        cfg = _write_config(tmp_path, {"instance": {"builtin": "fig2_a"}})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: coverage decomposition mismatch")
        assert not out.exists()


class TestSweep:
    @pytest.fixture
    def serial_pool(self, monkeypatch):
        """Stands in for ProcessPoolExecutor and starts no worker: records each
        pool's worker count in ``pools`` and each map's function and item
        count in ``maps``, and maps in process."""

        class SerialPool:
            pools, maps = [], []

            def __init__(self, max_workers):
                self.pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                items = list(items)
                self.maps.append((fn, len(items)))
                return map(fn, items)

        # cmd_sweep imports the pool class when it needs one, so it finds this
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        return SerialPool

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

    def test_a_count_past_the_int_str_limit_is_a_note(self, tmp_path):
        # 3**10000 profiles has 4,772 digits, more than str(int) writes
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "fig3_b"},
            "dynamics": {"max_steps": 1, "seed": 1},
            "sweep": {"axis": "platforms", "values": [10000], "repetitions": 1},
            "output": {"prefix": "wide"},
        })
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        [summary] = _read_json(tmp_path / "wide_summary.json")
        assert summary["pne"] is None
        assert summary["pne_note"] == "enumeration needs more than 10**4771 profiles but the budget is 1000000"

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
            "dynamics": {"max_steps": 400, "seed": 21},
            "sweep": {"axis": "platforms", "values": [2], "repetitions": 3},
            "output": {"prefix": "par"},
        }
        cfg = _write_config(tmp_path, base)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "serial")]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "jobs"), "--jobs", "2"]) == 0
        serial = (tmp_path / "serial" / "par_long.csv").read_bytes()
        parallel = (tmp_path / "jobs" / "par_long.csv").read_bytes()
        assert serial == parallel
        starts = {s["start"][0] + s["start"][1]
                  for s in _read_json(tmp_path / "serial" / "par_summary.json")}
        assert len(starts) > 1  # the repetitions' seeds draw different start profiles

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

    def test_workers_are_capped_at_the_cell_count(self, tmp_path, monkeypatch, serial_pool):
        pools = serial_pool.pools
        cpus = [64]
        monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: cpus[0])
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "fig3_b"},
            "dynamics": {"max_steps": 200, "seed": 1},
            "sweep": {"axis": "models", "values": [2, 3], "repetitions": 3},
            "output": {"prefix": "cap"},
        })
        one_cell = _write_config(tmp_path, {
            "instance": {"builtin": "fig3_b"},
            "sweep": {"axis": "models", "values": [2]},
            "output": {"prefix": "one"},
        }, name="one.json")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "serial")]) == 0
        assert main(["sweep", "--config", one_cell, "--out", str(tmp_path / "serial")]) == 0
        assert pools == []
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "jobs"),
                     "--jobs", "4096"]) == 0
        assert pools == [6]
        # one cell runs in process, whatever --jobs says
        assert main(["sweep", "--config", one_cell, "--out", str(tmp_path / "jobs"),
                     "--jobs", "8"]) == 0
        assert pools == [6]
        # and at the CPU count; an unknown count means one CPU, so in process
        cpus[0] = 4
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "cpus"),
                     "--jobs", "4096"]) == 0
        assert pools == [6, 4]
        cpus[0] = None
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "cpus"),
                     "--jobs", "4096"]) == 0
        assert pools == [6, 4]
        for name in ("cap_long.csv", "cap_summary.json", "one_long.csv", "one_summary.json"):
            assert (tmp_path / "serial" / name).read_bytes() == \
                (tmp_path / "jobs" / name).read_bytes()
        for name in ("cap_long.csv", "cap_summary.json"):
            assert (tmp_path / "serial" / name).read_bytes() == \
                (tmp_path / "cpus" / name).read_bytes()

    def test_only_a_sweep_with_workers_imports_the_process_pool(self, tmp_path):
        # the pool pulls in multiprocessing, socket, logging and queue; a fresh
        # process that imports the CLI and runs a serial sweep loads none of it
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        script = ("import sys, modelmarket.cli as cli\n"
                  "pool = 'concurrent.futures.process'\n"
                  "print(pool in sys.modules)\n"
                  "cli.main(['sweep', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
                  "print(pool in sys.modules)\n")
        done = subprocess.run([sys.executable, "-c", script, str(CONFIGS / "sweep_pool_growth.json"),
                               str(tmp_path)], capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[0::2] == ["False", "False"]

    def test_each_value_is_solved_once(self, tmp_path, monkeypatch, serial_pool):
        # the shipped sweep: 2 values x 3 repetitions, so 2 games and 6 cells
        solves, maps = [], serial_pool.maps
        for name in ("enumerate_pne", "social_optimum"):
            solve = getattr(metrics_mod, name)
            monkeypatch.setattr(metrics_mod, name, lambda *a, _name=name, _solve=solve, **k:
                                solves.append(_name) or _solve(*a, **k))
        monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 4)
        cfg = str(CONFIGS / "sweep_pool_growth.json")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "serial")]) == 0
        assert sorted(solves) == ["enumerate_pne"] * 2 + ["social_optimum"] * 2
        assert maps == []
        solves.clear()
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "jobs"), "--jobs", "2"]) == 0
        assert sorted(solves) == ["enumerate_pne"] * 2 + ["social_optimum"] * 2
        assert maps == [(metrics_mod.analyze, 2), (cli_mod._run_sweep_cell, 6)]
        for name in ("pool_growth_long.csv", "pool_growth_summary.json"):
            assert (tmp_path / "serial" / name).read_bytes() == \
                (tmp_path / "jobs" / name).read_bytes()
        summaries = _read_json(tmp_path / "serial" / "pool_growth_summary.json")
        # every repetition carries its value's answers
        assert [s["pne_count"] for s in summaries] == [2, 2, 2, 1, 1, 1]

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
        assert capsys.readouterr().err == "error: model count 9 out of range [1, 3]\n"
        assert runs == []
        assert not out.exists()

    def test_tau_axis_reproduces_the_c8_players_3_row(self, tmp_path):
        assert main(["sweep", "--config", str(CONFIGS / "sweep_tau.json"), "--out", str(tmp_path)]) == 0
        summaries = _read_json(tmp_path / "tau_summary.json")
        taus = [1e-4, 1e-3, 1e-2, 0.03, 0.1, 0.3, 1, 10, 1e3]
        assert [s["sweep_value"] for s in summaries] == taus
        assert [s["choice"] for s in summaries] == [{"kind": "softmax", "tau": float(t)} for t in taus]
        assert [s["pne_count"] for s in summaries] == [3, 3, 3, 3, 3, 1, 1, 1, 1]
        # the hardmax game has no PNE; softmax splits a type two scores 2.4e-5
        # apart, and lists the orderings of (g1, g3, g3) up to tau = 0.1
        assert enumerate_pne(builtin_instance("c8_players_3").spec) == []
        assert summaries[4]["pne"] == [["g1", "g3", "g3"], ["g3", "g1", "g3"], ["g3", "g3", "g1"]]
        assert [s["support"] for s in summaries] == [2] * 5 + [1] * 4

    @pytest.mark.parametrize("value, message", [
        (0, "sweep.values[1] must be > 0 (got 0)"),
        (-0.5, "sweep.values[1] must be > 0 (got -0.5)"),
        (True, "sweep.values[1] must be a number (got True)"),
        (1e-320, "softmax tau 1e-320 is too small for the score scale"),
    ], ids=["zero", "negative", "bool", "too-small"])
    def test_tau_axis_refuses_a_bad_value_in_one_error_line(self, tmp_path, capsys, value, message):
        cfg = _write_config(tmp_path, {"instance": {"builtin": "c8_players_3"},
                                       "sweep": {"axis": "tau", "values": [0.1, value]}})
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
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

    def test_a_repeated_attribute_label_is_one_error_and_writes_nothing(self, tmp_path, capsys,
                                                                         entry_config):
        payload = _read_json(entry_config)
        payload["training"]["dataset"]["attribute_labels"] = ["art", "math", "math"]
        out = tmp_path / "out"
        assert main(["entry", "--config", _write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: attribute labels must be unique\n"
        assert not out.exists()

    def test_past_both_budgets_writes_null_and_notes(self, tmp_path, monkeypatch):
        # M^N = 50^10 profiles and C(59, 10) multisets exceed both budgets
        rng = np.random.default_rng(4)
        instance = _write_config(tmp_path, {
            "scores": rng.uniform(0.0, 1.0, size=(50, 4)).tolist(),
            "weights": [0.25, 0.25, 0.25, 0.25],
            "n_platforms": 10,
        }, name="wide.json")
        cfg = _write_config(tmp_path, {
            "instance": {"file": instance},
            "training": {
                "method": "both",
                "estimator": "exact",
                "outcomes": ["x1", "x2", "x3"],
                # every outcome earns 1.0 on the first type, which no incumbent reaches
                "rewards": [[1.0, 1.0, 1.0], [0.1, 0.9, 0.3], [0.2, 0.3, 0.9], [0.5, 0.5, 0.5]],
                "dataset": {"counts": [300, 200, 100]},
                "params": {"outer_rounds": 1, "inner_epochs": 5, "seed": 3},
                "n_platforms": 10,
            },
            "output": {"prefix": "wide"},
        })
        reports = []
        evaluate = entry_mod.evaluate_entrant
        monkeypatch.setattr(entry_mod, "evaluate_entrant",
                            lambda *a, **k: reports.append(evaluate(*a, **k)) or reports[-1])
        assert main(["entry", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = _read_json(tmp_path / "wide_report.json")
        for section in (report["pre_entry"], report["resampling"], report["direct"]):
            assert section["pne"] is None and section["social_optimum"] is None
            assert "profiles but the budget is 1000000" in section["pne_note"]
            assert "multisets but the budget is 10000000" in section["social_optimum_note"]
        assert "97656250000000000 profiles" in report["pre_entry"]["pne_note"]
        assert "62828356305 multisets" in report["pre_entry"]["social_optimum_note"]
        # without the PNE list, adoption is read off the dynamics outcome
        assert len(reports) == 2
        for method, entrant in zip(("resampling", "direct"), reports):
            assert entrant.metrics.analysis.pne is None
            outcome = entrant.outcome
            assert report[method]["outcome_kind"] == outcome.kind == "equilibrium"
            assert entrant.entrant_index in outcome.equilibrium_profile
            assert report[method]["adopted"] is True

    def test_trace_headers(self, tmp_path, entry_config):
        assert main(["entry", "--config", entry_config, "--out", str(tmp_path)]) == 0
        headers = {method: (tmp_path / f"toy_trace_{method}.csv").read_text().splitlines()[0]
                   for method in ("resampling", "direct")}
        assert headers == {
            "resampling": "round,objective,score_a,score_b,score_c",
            "direct": "epoch,cross_entropy,objective,loss,score_a,score_b,score_c",
        }

    @pytest.mark.parametrize("training, message", [
        pytest.param({"estimator": "typo"},
                     "training.estimator must be one of 'exact', 'reinforce' (got 'typo')",
                     id="estimator"),
        pytest.param({"method": "resampling", "estimator": "typo"},
                     "training.estimator must be one of 'exact', 'reinforce' (got 'typo')",
                     id="estimator-resampling"),
        pytest.param({"params": {"inner_epochs": 0}},
                     "direct-gradient training needs inner_epochs >= 1", id="inner_epochs"),
        pytest.param({"method": "typo"}, "training.method must be one of 'resampling', "
                     "'direct', 'both' (got 'typo')", id="method"),
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


# the dotted path an error names, by the short name a test case uses
_MODEL, _COMPONENT = "instance.synthetic.models[0]", "instance.synthetic.gmm.components[0]"
_PATHS = {
    "synthetic": "instance.synthetic",
    "synthetic.n_platforms": "instance.synthetic.n_platforms",
    "gmm": "instance.synthetic.gmm",
    "gmm.k_types": "instance.synthetic.gmm.k_types",
    "gmm.seed": "instance.synthetic.gmm.seed",
    "gmm.sample_size": "instance.synthetic.gmm.sample_size",
    "gmm.dx": "instance.synthetic.gmm.dx",
    "a models sweep value": "sweep.values[0]",
    "a platforms sweep value": "sweep.values[0]",
    "a population sweep weight": "an entry of sweep.values[0]",
    "synthetic model": _MODEL,
    "synthetic model bias": f"{_MODEL}.bias",
    "kernel": f"{_MODEL}.kernels[0]",
    "kernel center": f"{_MODEL}.kernels[0].center",
    "an entry of kernel center": f"an entry of {_MODEL}.kernels[0].center",
    "kernel amplitude": f"{_MODEL}.kernels[0].amplitude",
    "kernel width": f"{_MODEL}.kernels[0].width",
    "gmm component": _COMPONENT,
    "gmm component weight": f"{_COMPONENT}.weight",
    "an entry of gmm component mean": f"an entry of {_COMPONENT}.mean",
    "an entry of gmm component covariance": f"an entry of {_COMPONENT}.covariance",
    "gmm component covariance": f"{_COMPONENT}.covariance",
}


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
        assert capsys.readouterr().err == (
            "error: choice.kind must be one of 'hardmax', 'softmax' (got 'argmax')\n")

    def test_unknown_sweep_axis_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "c1_rps"},
            "sweep": {"axis": "temperature", "values": [1]},
        })
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == ("error: sweep.axis must be one of 'models', "
                                           "'platforms', 'population', 'tau' (got 'temperature')\n")

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
        assert ("missing 'width' in the instance.synthetic.models[0].kernels[0] block"
                in capsys.readouterr().err)

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

    def test_lam_is_not_a_second_key_for_lambda(self, tmp_path, capsys):
        payload = _read_json(CONFIGS / "entry_underserved_type.json")
        payload["instance"]["file"] = str(CONFIGS / payload["instance"]["file"])
        payload["training"]["params"].update({"lambda": 2.0, "lam": 0.0})
        out = tmp_path / "out"
        assert main(["entry", "--config", _write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: unknown key 'lam' in the training.params block\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "entry"])
    def test_no_command_takes_a_seed_flag(self, tmp_path, capsys, command):
        # the config holds every seed: dynamics.seed and training.params.seed
        cfg = str(CONFIGS / {"run": "run_reference_cycle.json", "sweep": "sweep_pool_growth.json",
                             "entry": "entry_underserved_type.json"}[command])
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--seed", "5", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_takes_no_jobs_flag(self, tmp_path, capsys):
        # only sweep has workers
        cfg = str(CONFIGS / "run_reference_cycle.json")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", cfg, "--jobs", "2", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_readme_synopsis_lists_each_command_s_flags(self):
        # the CLI block of README shows each subcommand with exactly the flags its parser takes
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
        documented = {line.split()[1]: sorted(re.findall(r"--[a-z-]+", line)) for line in block.splitlines()}
        commands = next(a for a in cli_mod._build_parser()._actions if a.dest == "command").choices
        assert documented == {name: sorted(flag for action in sub._actions for flag in action.option_strings
                                           if flag not in ("-h", "--help"))
                              for name, sub in commands.items()}

    def test_softmax_choice_block_needs_tau(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"instance": {"builtin": "fig2_a"}, "choice": {"kind": "softmax"}})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: missing 'tau' in a softmax choice block\n"

    @pytest.mark.parametrize("command, setting", [
        ("run", "sweep"), ("run", "training"), ("sweep", "training"), ("entry", "dynamics"),
        ("entry", "sweep"), ("sweep", "dynamics.start"),
        ("run", "output.dir"), ("sweep", "output.dir"), ("entry", "output.dir"),
        ("run", "dynamics.order"), ("sweep", "dynamics.order"), ("sweep", "sweep.seeds")])
    def test_a_setting_the_command_does_not_read_is_one_error(self, tmp_path, capsys, monkeypatch,
                                                              command, setting):
        # each is valid where it is read (output.dir nowhere: --out names the output
        # directory; dynamics.order and sweep.seeds nowhere: platforms move round-robin
        # and dynamics.seed seeds every sweep cell); here it would do nothing, so it is
        # refused unsolved
        _no_game_solved(monkeypatch)
        payload = self._every_block(command)
        if "." in setting:
            block, _, key = setting.partition(".")
            payload[block][key] = {"start": [0, 0], "order": "round_robin", "seeds": [1]}.get(key, "out")
            message = f"unknown key {key!r} in the {block} block"
        else:
            reader = {"sweep": "sweep", "training": "entry", "dynamics": "run"}[setting]
            payload[setting] = self._every_block(reader)[setting]
            message = f"unknown key {setting!r} in the top-level block"
        out = tmp_path / "out"
        assert main([command, "--config", _write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("document", ["config", "instance file", "fixture record"])
    def test_a_hardmax_tau_is_one_error(self, tmp_path, capsys, monkeypatch, document):
        # only softmax has a temperature; under hardmax a tau would do nothing
        hardmax = {"kind": "hardmax", "tau": 0.3}
        payload = {"instance": {"builtin": "fig2_a"}, "choice": hardmax}
        if document == "instance file":
            payload = {"instance": {"file": _write_config(tmp_path, {
                "scores": [[0.5, 0.2], [0.3, 0.6]], "weights": [0.5, 0.5], "n_platforms": 2,
                "choice": hardmax}, name="inst.json")}}
        elif document == "fixture record":
            record = json.loads((fixtures_mod.DATA_DIR / "fig2_a.json").read_text())
            record["explicit"]["choice"] = hardmax
            (tmp_path / "fig2_a.json").write_text(json.dumps(record))
            monkeypatch.setattr(fixtures_mod, "DATA_DIR", tmp_path)
            del payload["choice"]
        out = tmp_path / "out"
        assert main(["run", "--config", _write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: a hardmax choice rule takes no tau (got 0.3)\n"
        assert not out.exists()

    def test_a_seed_that_draws_nothing_is_one_error(self, tmp_path, capsys, monkeypatch):
        # dynamics.start is run's start, so a dynamics.seed given beside it would do nothing
        _no_game_solved(monkeypatch)
        payload = {"instance": {"builtin": "c1_rps"}, "dynamics": {"seed": 5, "start": [0, 0]}}
        out = tmp_path / "out"
        assert main(["run", "--config", _write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: dynamics.start leaves dynamics.seed nothing to draw: give one of the two\n")
        assert not out.exists()

    @pytest.mark.parametrize("document", ["config", "instance file"])
    @pytest.mark.parametrize("json_input", ["deep nesting", "long integer"])
    def test_json_that_json_cannot_read_is_one_error(self, tmp_path, capsys, monkeypatch, document,
                                                     json_input):
        # json.load raises RecursionError past the recursion limit, and ValueError on an
        # integer past sys.get_int_max_str_digits() digits
        _no_game_solved(monkeypatch)
        nested = "[" * 100_000 + "]" * 100_000
        tau = '{"kind": "softmax", "tau": 1' + "0" * 4999 + "}"
        text = {("config", "deep nesting"): '{"instance": ' + nested + "}",
                ("config", "long integer"): '{"instance": {"builtin": "fig2_a"}, "choice": ' + tau + "}",
                ("instance file", "deep nesting"): '{"scores": ' + nested + "}",
                ("instance file", "long integer"): ('{"scores": [[0.5, 0.2], [0.3, 0.6]], "weights": [0.5, 0.5], '
                                                    '"n_platforms": 2, "choice": ' + tau + "}")}
        path = tmp_path / ("cfg.json" if document == "config" else "inst.json")
        path.write_text(text[document, json_input])
        cfg = str(path) if document == "config" else _write_config(tmp_path, {"instance": {"file": str(path)}})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        if json_input == "deep nesting":
            assert err == f"error: {path}: nested too deeply to read\n"
        elif 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
            assert err == f"error: {path}: an integer has too many digits to read\n"
        else:  # a Python without the digit limit reads the integer and refuses it as a tau
            field = "choice.tau" if document == "config" else "instance.choice.tau"
            assert len(err.splitlines()) == 1 and err.startswith(f"error: {field} must be finite (got 1000")
        assert not out.exists()

    def test_an_empty_sweep_is_one_error(self, tmp_path, capsys, monkeypatch):
        # a sweep of no values would write a header-only table and an empty summary
        _no_game_solved(monkeypatch)
        monkeypatch.setattr(cli_mod, "_build_instance", lambda *a: pytest.fail("an instance was built"))
        payload = {"instance": {"builtin": "c1_rps"}, "sweep": {"axis": "platforms", "values": []}}
        out = tmp_path / "out"
        assert main(["sweep", "--config", _write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: sweep.values must list at least one value\n"
        assert not out.exists()

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
        assert capsys.readouterr().err == (
            f"error: training.params.{key} must be {kind} (got {value!r})\n")
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
        pytest.param("sweep", "a models sweep value", 2.9, id="sweep-models_value-2.9"),
        pytest.param("sweep", "a platforms sweep value", "3", id="sweep-platforms_value-3"),
        ("entry", "training.n_platforms", 2.5),
    ])
    def test_integer_config_field_must_be_an_integer(self, tmp_path, capsys, command, field, value):
        payload = self._every_block(command)
        block, _, key = field.rpartition(".")
        if block == "instance":
            payload["instance"] = {"file": _write_config(tmp_path, {
                "scores": [[0.5, 0.2], [0.3, 0.6]], "weights": [0.5, 0.5], "n_platforms": value,
            }, name="inst.json")}
        elif block in ("synthetic", "gmm"):
            payload["instance"] = {"synthetic": _synthetic_block()}
            target = payload["instance"]["synthetic"]
            (target["gmm"] if block == "gmm" else target)[key] = value
        elif field.endswith("sweep value"):
            payload["sweep"] = {"axis": field.split()[1], "values": [value]}
        else:
            payload[block][key] = value
        out = tmp_path / "out"
        assert main([command, "--config", _write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {_PATHS.get(field, field)} must be an integer (got {value!r})\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, field, value", [
        ("run", "choice.tau", "0.05"),
        ("run", "synthetic model bias", "0.1"),
        ("run", "kernel amplitude", "0.6"),
        ("run", "kernel width", True),
        ("run", "gmm.dx", "0.1"),
        ("run", "gmm component weight", "1.0"),
        ("sweep", "a population sweep weight", "0.5"),
        ("run", "an entry of instance.scores", "0.2"),
        ("run", "an entry of instance.scores", True),
        ("run", "an entry of instance.weights", "0.5"),
        ("entry", "an entry of training.rewards", "0.8"),
        ("entry", "an entry of training.dataset.counts", "1"),
        ("entry", "an entry of training.dataset.type_preferences", True),
        ("run", "an entry of kernel center", "0.5"),
        ("run", "an entry of gmm component mean", "0.5"),
        ("run", "an entry of gmm component covariance", "0.05"),
    ])
    def test_float_config_field_must_be_a_number(self, tmp_path, capsys, command, field, value):
        payload = self._every_block(command)
        payload["instance"] = {"synthetic": _synthetic_block()}
        synthetic = payload["instance"]["synthetic"]
        component = synthetic["gmm"]["components"][0]
        training = payload.get("training")
        if field.startswith("an entry of instance"):
            instance = {"scores": [[0.5, 0.2], [0.3, 0.6]], "weights": [0.5, 0.5], "n_platforms": 2}
            if field.endswith("scores"):
                instance["scores"][1][1] = value
            else:
                instance["weights"][1] = value
            payload["instance"] = {"file": _write_config(tmp_path, instance, name="inst.json")}
        elif field.startswith("an entry of training"):
            payload["instance"] = {"builtin": "fig2_a"}
            if field.endswith("rewards"):
                training["rewards"][1][1] = value
            elif field.endswith("counts"):
                training["dataset"]["counts"] = [value, 1]
            else:
                training["dataset"]["type_preferences"] = [[1, 0], [0, value]]
        elif field == "an entry of kernel center":
            synthetic["models"][0]["kernels"][0]["center"][0] = value
        elif field == "an entry of gmm component mean":
            component["mean"][0] = value
        elif field == "an entry of gmm component covariance":
            component["covariance"][0][0] = value
        elif field == "choice.tau":
            payload["choice"] = {"kind": "softmax", "tau": value}
        elif field == "synthetic model bias":
            synthetic["models"][0]["bias"] = value
        elif field.startswith("kernel"):
            synthetic["models"][0]["kernels"][0][field.split()[1]] = value
        elif field == "gmm.dx":
            synthetic["gmm"]["dx"] = value
        elif field == "gmm component weight":
            component["weight"] = value
        else:
            payload["sweep"] = {"axis": "population", "values": [[value, 0.5, 0.0, 0.0]]}
        out = tmp_path / "out"
        assert main([command, "--config", _write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {_PATHS.get(field, field)} must be a number (got {value!r})\n")
        assert not out.exists()

    @pytest.mark.parametrize("sweep, message", [
        ({"axis": "models", "values": 5}, "sweep.values must be a list (got 5)"),
        ({"axis": "population", "values": [0.5]}, "sweep.values[0] must be a list (got 0.5)"),
    ])
    def test_sweep_lists_must_be_lists(self, tmp_path, capsys, sweep, message):
        payload = self._every_block("sweep")
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
        ("run", "a row of instance.scores", 0.3),
        ("entry", "a row of training.rewards", 0.2),
    ])
    def test_list_config_field_must_be_a_list(self, tmp_path, capsys, command, field, value):
        payload = self._every_block(command)
        if field == "instance.weights":
            payload["instance"] = {"file": _write_config(tmp_path, {
                "scores": [[0.5, 0.2], [0.3, 0.6]], "weights": value, "n_platforms": 2,
            }, name="inst.json")}
        elif field == "a row of instance.scores":
            payload["instance"] = {"file": _write_config(tmp_path, {
                "scores": [[0.5, 0.2], value], "weights": [0.5, 0.5], "n_platforms": 2,
            }, name="inst.json")}
        elif field == "a row of training.rewards":
            payload["training"]["rewards"][1] = value
        elif field == "kernel center":
            payload["instance"] = {"synthetic": _synthetic_block()}
            payload["instance"]["synthetic"]["models"][0]["kernels"][0]["center"] = value
        elif field == "dynamics.start":
            payload["dynamics"]["start"] = value
        else:
            payload["training"]["dataset"]["attribute_labels"] = value
        out = tmp_path / "out"
        assert main([command, "--config", _write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {_PATHS.get(field, field)} must be a list (got {value!r})\n")
        assert not out.exists()

    @staticmethod
    def _every_block(command):
        """A small config holding every block ``command`` reads, and no other."""
        blocks = {
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
        return {block: blocks[block] for block in config_mod.COMMANDS[command]}

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
        payload = self._every_block(command)
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
        assert capsys.readouterr().err == (
            f"error: unknown key {key!r} in the {_PATHS.get(block, block)} block\n")
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
        payload = self._every_block(command)
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

    @pytest.mark.parametrize("start", [[1.7, 0], ["1", 0], [True, False]])
    def test_start_entries_must_be_model_indices(self, tmp_path, capsys, start):
        cfg = _write_config(tmp_path, {
            "instance": {"builtin": "c1_rps"},
            "dynamics": {"start": start},
        })
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: an entry of dynamics.start must be an integer (got {start[0]!r})\n")
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("instance.file", 5), ("output.prefix", ["a"]),
    ])
    def test_path_fields_must_be_strings(self, tmp_path, capsys, field, value):
        payload = self._every_block("run")
        block, _, key = field.partition(".")
        payload[block] = {key: value}
        out = tmp_path / "out"
        assert main(["run", "--config", _write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {field} must be a string (got {value!r})\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, field", [
        ("run", "instance.scores"), ("entry", "training.rewards"),
        ("run", "gmm component covariance"),
    ])
    def test_matrix_rows_must_have_equal_lengths(self, tmp_path, capsys, command, field):
        payload = self._every_block(command)
        if field == "instance.scores":
            payload["instance"] = {"file": _write_config(tmp_path, {
                "scores": [[0.5, 0.2], [0.3]], "weights": [0.5, 0.5], "n_platforms": 2,
            }, name="inst.json")}
        elif field == "training.rewards":
            payload["training"]["rewards"][1] = [0.2]
        else:
            payload["instance"] = {"synthetic": _synthetic_block()}
            payload["instance"]["synthetic"]["gmm"]["components"][0]["covariance"][1] = [0.05]
        out = tmp_path / "out"
        assert main([command, "--config", _write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: the rows of {_PATHS.get(field, field)} must have equal lengths\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["config file", "instance file", "fixture record fig2_a"])
    def test_a_missing_file_is_named_by_its_kind(self, tmp_path, capsys, monkeypatch, kind):
        missing = tmp_path / "missing.json"
        cfg = str(missing)
        if kind == "instance file":
            cfg = _write_config(tmp_path, {"instance": {"file": "missing.json"}})
        elif kind.startswith("fixture record"):
            monkeypatch.setattr(fixtures_mod, "DATA_DIR", tmp_path / "records")
            missing = tmp_path / "records" / "fig2_a.json"
            cfg = _write_config(tmp_path, {"instance": {"builtin": "fig2_a"}})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {kind} not found: {missing}\n"
        assert not (tmp_path / "out").exists()

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


class TestNegativeSeeds:
    """numpy's generators need seeds >= 0: every seed field says so in one line."""

    @staticmethod
    def _entry_payload():
        payload = _read_json(CONFIGS / "entry_underserved_type.json")
        payload["instance"]["file"] = str(CONFIGS / payload["instance"]["file"])
        return payload

    def _assert_one_error(self, argv, capsys, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    def test_dynamics_seed(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"instance": {"builtin": "c1_rps"},
                                       "dynamics": {"seed": -1}})
        self._assert_one_error(["run", "--config", cfg, "--out", str(tmp_path)], capsys,
                               "dynamics.seed must be >= 0 (got -1)")

    def test_gmm_seed(self, tmp_path, capsys):
        block = _synthetic_block()
        block["gmm"]["seed"] = -4
        cfg = _write_config(tmp_path, {"instance": {"synthetic": block}})
        self._assert_one_error(["run", "--config", cfg, "--out", str(tmp_path)], capsys,
                               "instance.synthetic.gmm.seed must be >= 0 (got -4)")

    def test_training_seed(self, tmp_path, capsys):
        payload = self._entry_payload()
        payload["training"]["params"]["seed"] = -1
        self._assert_one_error(["entry", "--config", _write_config(tmp_path, payload),
                                "--out", str(tmp_path)], capsys,
                               "training.params.seed must be >= 0 (got -1)")


def _table_fields(table, keys=(), name=""):
    """(keys to the field, its dotted path, the field) for every field of a
    config table, nested ones included; a list of blocks is entered at [0]."""
    for key, field in table.items():
        path = f"{name}.{key}" if name else key
        yield keys + (key,), path, field
        if field.kind == config_mod.BLOCK:
            yield from _table_fields(field.table, keys + (key,), path)
        elif field.kind == config_mod.BLOCKS:
            yield from _table_fields(field.table, keys + (key, 0), f"{path}[0]")


_NAN, _INF = float("nan"), float("inf")  # json.dump writes them as NaN and Infinity

# values of a wrong kind for a field of each kind, and non-finite numbers;
# None is left out where a field takes null for its default
_WRONG = {
    config_mod.INT: [True, 2.5, "x", "2", None, {}, [1]],
    config_mod.NUMBER: [True, "x", None, {}, [1], _NAN, _INF, -_INF],
    config_mod.STRING: [True, 3, None, {}, ["x"]],
    config_mod.ENUM: [True, 3, "x", None, {}, [1]],
    config_mod.NUMBERS: [3, "x", None, {}, [True], ["x"], [None], [[1]], [_NAN], [_INF]],
    config_mod.MATRIX: [3, "x", None, {}, [1], [[True]], [["x"]], [[_NAN]], [[-_INF]]],
    config_mod.STRINGS: [3, "x", None, {}, [1], [True], [None], [["x"]]],
    config_mod.INTS: [3, "x", None, {}, [True], [2.5], ["x"]],
    config_mod.LIST: [3, "x", None, {}],
    config_mod.BLOCK: [True, 3, "x", None, [1], {"unknown": 1}],
    config_mod.BLOCKS: [3, "x", None, {}, [3], [{"unknown": 1}]],
    config_mod.ANY: [],  # fixture expectations: verify_fixture checks them
}


def _wrong_values(field):
    """Values of a wrong kind for ``field``, and one past each of its bounds."""
    wrong = [v for v in _WRONG[field.kind] if v is not None or field.default is not None]
    if field.minimum is not None:
        below = field.minimum - 1
        wrong.append([below] if field.kind == config_mod.INTS else below)
    wrong += [bound for bound in (field.above, field.below) if bound is not None]
    if field.maximum is not None:
        wrong.append(field.maximum + 0.5)
    return wrong


def _full_config(command, source):
    """A config of ``command`` that sets every field of its table, taking its
    instance from ``source``: builtin, file (``inst.json``) or synthetic.  A
    seed beside a start would draw nothing, so run sets no dynamics.seed, and
    a sweep sets no start."""
    synthetic = _synthetic_block(2)
    synthetic["n_platforms"] = synthetic["gmm"]["k_types"] = 2
    instance = {"builtin": {"builtin": "fig2_a"}, "file": {"file": "inst.json"},
                "synthetic": {"synthetic": synthetic}}[source]
    blocks = {
        "instance": instance,
        "choice": {"kind": "softmax", "tau": 0.5},
        "dynamics": {"start": [0, 1], "max_steps": 20},
        "sweep": {"axis": "models", "values": [2], "repetitions": 1},
        "training": {
            "method": "direct", "estimator": "exact", "outcomes": ["x0", "x1"],
            "rewards": [[0.5, 0.5], [0.2, 0.8]],
            "dataset": {"counts": [1, 1], "attributes": ["a", "b"], "attribute_labels": ["a", "b"],
                        "type_preferences": [[1, 0], [0, 1]]},
            "params": {"inner_epochs": 1},
            "n_platforms": 2,
        },
        "output": {"prefix": "p"},
    }
    if command == "sweep":
        blocks["dynamics"] = {"max_steps": 20, "seed": 3}
    return {block: blocks[block] for block in config_mod.COMMANDS[command]}


_INSTANCE_FILE = {"scores": [[0.5, 0.2], [0.3, 0.6]], "weights": [0.5, 0.5], "n_platforms": 2,
                  "model_labels": ["g1", "g2"], "type_labels": ["a", "b"],
                  "choice": {"kind": "hardmax"}}


def _readers():
    """For each dotted path of a config field, the commands whose table holds it,
    in table order; every path is first met under the first of its commands."""
    readers = {}
    for command, table in config_mod.COMMANDS.items():
        for keys, path, field in _table_fields(table):
            readers.setdefault(path, (keys, field, []))[2].append(command)
    return readers


# (document, the command it runs under, keys, path, field): each config field
# under the first command that reads it, each instance-file field under run
_CASES = ([("config", commands[0], keys, path, field)
           for path, (keys, field, commands) in _readers().items()]
          + [("file", "run", *case) for case in _table_fields(config_mod.INSTANCE_FILE, (), "instance")])


class TestConfigTable:
    """Every field of the command tables, fed every wrong kind, fails in one
    line that names it; README's reference names exactly the tables' fields
    and which commands read them."""

    @pytest.mark.parametrize("document, command, keys, path, field",
                             [pytest.param(*case, id=f"{case[0]}:{case[3]}") for case in _CASES
                              if _wrong_values(case[4])])
    def test_every_wrong_kind_is_one_error_naming_the_field(self, tmp_path, capsys, document,
                                                            command, keys, path, field):
        source = "file" if document == "file" else next(
            (k for k in ("synthetic", "file") if keys[:2] == ("instance", k)), "builtin")
        for value in _wrong_values(field):
            payload = _full_config(command, source)
            instance_file = json.loads(json.dumps(_INSTANCE_FILE))
            target = instance_file if document == "file" else payload
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value
            _write_config(tmp_path, instance_file, name="inst.json")
            out = tmp_path / "out"
            argv = [command, "--config", _write_config(tmp_path, payload), "--out", str(out)]
            assert main(argv) == 2, value
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (value, err)
            assert path in err, (value, err)
            assert not out.exists()

    def test_a_full_config_runs(self, tmp_path):
        for source in ("builtin", "file", "synthetic"):
            _write_config(tmp_path, _INSTANCE_FILE, name="inst.json")
            for command in ("run", "sweep", "entry"):
                cfg = _write_config(tmp_path, _full_config(command, source))
                assert main([command, "--config", cfg, "--out", str(tmp_path / source)]) == 0

    @pytest.mark.parametrize("document, key, value, message", [
        ("file", "model_labels", [1, True],
         "an entry of instance.model_labels must be a string (got 1)"),
        ("file", "type_labels", [None, 2.5],
         "an entry of instance.type_labels must be a string (got None)"),
        ("config", "outcomes", [1, 2], "an entry of training.outcomes must be a string (got 1)"),
    ])
    def test_labels_must_be_strings(self, tmp_path, capsys, document, key, value, message):
        command = "run" if document == "file" else "entry"
        payload = _full_config(command, "file")
        instance_file = dict(_INSTANCE_FILE)
        (instance_file if document == "file" else payload["training"])[key] = value
        _write_config(tmp_path, instance_file, name="inst.json")
        out = tmp_path / "out"
        assert main([command, "--config", _write_config(tmp_path, payload),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_readme_reference_names_every_field(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config reference", 1)[1]
        table = section.split("| field | kind | default | bound |", 1)[1].split("\n\n", 1)[0]
        documented = re.findall(r"^\| `([^`]+)` \|", table, flags=re.MULTILINE)
        fields = {path.replace("[0]", "[]") for _, _, _, path, _ in _CASES}
        assert len(documented) == len(set(documented))
        assert sorted(fields - set(documented)) == [], "fields missing from the README table"
        assert sorted(set(documented) - fields) == [], "README rows that name no field"
        # which commands read each block, and each field its block's commands do not all read
        table = section.split("| block or field | read by |", 1)[1].split("\n\n", 1)[0]
        documented = {path: re.findall(r"`([^`]+)`", commands) for path, commands
                      in re.findall(r"^\| `([^`]+)` \|([^|]*)\|", table, flags=re.MULTILINE)}
        readers = {path: commands for path, (_, _, commands) in _readers().items()}
        assert documented == {path: commands for path, commands in readers.items()
                              if commands != readers.get(path.rpartition(".")[0].removesuffix("[0]"))}


def _set(keys, value):
    """A change to a full config: set the entry that ``keys`` lead to;
    "file" leads into the instance file, "synthetic" into the synthetic block."""
    def change(payload, instance_file):
        target = {"file": instance_file,
                  "synthetic": payload["instance"].get("synthetic")}.get(keys[0], payload)
        path = keys[1:] if keys[0] in ("file", "synthetic") else keys
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return change


def _resampling_counts(counts):
    """A change to a full config: train by resampling on the given counts."""
    def change(payload, _):
        payload["training"]["method"] = "resampling"
        payload["training"]["dataset"]["counts"] = counts
    return change


_REDRAW_SIZE = "counts total must round into [1, 2**63 - 1] to resample (got {})"
_NO_ATTRIBUTES = "attribute_labels and type_attribute_prefs need attributes"

# a full config's instance source, a change to it, and the error line it must
# end in: the bounds of the table under their dotted paths, then the checks
# that stay with the records, each reached from a config file
_CHECKS = {
    "params.beta": ("file", _set(("training", "params", "beta"), 0),
                    "training.params.beta must be > 0 (got 0)"),
    "params.blend": ("file", _set(("training", "params", "blend"), 1.5),
                     "training.params.blend must be <= 1 (got 1.5)"),
    "params.baseline_decay": ("file", _set(("training", "params", "baseline_decay"), 1),
                              "training.params.baseline_decay must be < 1 (got 1)"),
    "choice.tau": ("file", _set(("choice", "tau"), 0), "choice.tau must be > 0 (got 0)"),
    "training.n_platforms": ("file", _set(("training", "n_platforms"), 0),
                             "training.n_platforms must be >= 1 (got 0)"),
    "instance.n_platforms": ("file", _set(("file", "n_platforms"), 0),
                             "instance.n_platforms must be >= 1 (got 0)"),
    "synthetic.n_platforms": ("synthetic", _set(("synthetic", "n_platforms"), 0),
                              "instance.synthetic.n_platforms must be >= 1 (got 0)"),
    "gmm.k_types": ("synthetic", _set(("synthetic", "gmm", "k_types"), 0),
                    "instance.synthetic.gmm.k_types must be >= 1 (got 0)"),
    "kernel width": ("synthetic", _set(("synthetic", "models", 0, "kernels", 0, "width"), 0),
                     "instance.synthetic.models[0].kernels[0].width must be > 0 (got 0)"),
    "component weight": ("synthetic", _set(("synthetic", "gmm", "components", 0, "weight"), -0.5),
                         "instance.synthetic.gmm.components[0].weight must be >= 0 (got -0.5)"),
    "counts length": ("file", _set(("training", "dataset", "counts"), [1, 1, 1]),
                      "counts must be one value per outcome"),
    "negative counts": ("file", _set(("training", "dataset", "counts"), [-1, 2]),
                        "counts must be finite and non-negative"),
    "empty dataset": ("file", _set(("training", "dataset", "counts"), [0, 0]),
                      "dataset must contain at least one item"),
    "counts total past the largest float": ("file", _set(("training", "dataset", "counts"), [1e308, 1e308]),
                                            "counts must sum to a finite total (got inf)"),
    "counts total below one redraw": ("file", _resampling_counts([0.2, 0.2]), _REDRAW_SIZE.format("0.4")),
    "counts total past int64": ("file", _resampling_counts([1e19, 1]), _REDRAW_SIZE.format("1e+19")),
    "counts total near the largest float": ("file", _resampling_counts([1e300, 1e300]),
                                            _REDRAW_SIZE.format("2e+300")),
    "attributes length": ("file", _set(("training", "dataset", "attributes"), ["a"]),
                          "attributes must label every outcome"),
    "unknown attribute": ("file", _set(("training", "dataset", "attributes"), ["a", "c"]),
                          "attributes must come from attribute_labels"),
    "attributes without preferences": ("file", _set(("training", "dataset", "type_preferences"), None),
                                       "structured datasets need type_attribute_prefs"),
    "attribute labels without attributes": ("file", _set(("training", "dataset"), {
        "counts": [1, 1], "attribute_labels": ["a", "b"]}), _NO_ATTRIBUTES),
    "empty attribute labels without attributes": ("builtin", _set(("training", "dataset"), {
        "counts": [1, 1], "attribute_labels": []}), _NO_ATTRIBUTES),
    "empty attribute labels with attributes": ("file", _set(("training", "dataset", "attribute_labels"), []),
                                               "attributes must come from attribute_labels"),
    "preferences without attributes": ("file", _set(("training", "dataset"), {
        "counts": [1, 1], "type_preferences": [[1, 0], [0, 1]]}), _NO_ATTRIBUTES),
    "preference shape": ("file", _set(("training", "dataset", "type_preferences"), [[1, 0, 0], [0, 1, 0]]),
                         "type_attribute_prefs must be K x |attributes|"),
    "preference rows": ("file", lambda payload, _: payload["training"].update(
        method="resampling", dataset={**payload["training"]["dataset"],
                                      "type_preferences": [[1, 0], [0, 1], [1, 0]]}),
                        "type_attribute_prefs rows must match the population"),
    "rewards shape": ("file", _set(("training", "rewards"), []), "rewards must be a K x |X| matrix"),
    "rewards range": ("file", _set(("training", "rewards"), [[0.5, 1.5], [0.2, 0.8]]),
                      "rewards must lie in [0, 1]"),
    "no user types": ("file", lambda payload, instance: instance.update(weights=[], type_labels=[]),
                      "population needs at least one user type"),
    "repeated type labels": ("file", _set(("file", "type_labels"), ["a", "a"]),
                             "user type labels must be unique"),
    "type labels length": ("file", _set(("file", "type_labels"), ["a"]),
                           "weights must be a vector matching type_labels"),
    "empty scores": ("file", _set(("file", "scores"), [[]]), "scores must be a non-empty M x K matrix"),
    "model labels length": ("file", _set(("file", "model_labels"), ["g1"]),
                            "model_labels must match the number of score rows"),
    "repeated model labels": ("file", _set(("file", "model_labels"), ["g", "g"]),
                              "model labels must be unique"),
    "no kernels": ("synthetic", _set(("synthetic", "models", 0, "kernels"), []),
                   "an RBF model needs at least one kernel"),
    "kernel dimensions": ("synthetic", _set(("synthetic", "models", 0, "kernels"), [
        {"center": [0.5, 0.5], "amplitude": 0.6, "width": 0.3},
        {"center": [0.5], "amplitude": 0.6, "width": 0.3}]), "all kernel centers must share one dimension"),
    "covariance shape": ("synthetic", _set(("synthetic", "gmm", "components", 0, "covariance"), [[1]]),
                         "covariance shape must match the mean dimension"),
    "covariance symmetry": ("synthetic", _set(("synthetic", "gmm", "components", 0, "covariance"),
                                              [[0.05, 0.01], [0.0, 0.05]]), "covariance must be symmetric"),
    "no components": ("synthetic", _set(("synthetic", "gmm", "components"), []),
                      "a GMM needs at least one component"),
    "component dimensions": ("synthetic", _set(("synthetic", "gmm", "components"), [
        {"weight": 0.5, "mean": [0.5, 0.5], "covariance": [[0.05, 0.0], [0.0, 0.05]]},
        {"weight": 0.5, "mean": [0.5], "covariance": [[0.05]]}]),
                             "all component means must share one dimension"),
    "sample below k_types": ("synthetic", _set(("synthetic", "gmm", "sample_size"), 1),
                             "sample_size must be at least k_types"),
    "model and type dimensions": ("synthetic", _set(("synthetic", "models", 0, "kernels"), [
        {"center": [0.5], "amplitude": 0.6, "width": 0.3}]), "model and type dimensions differ"),
}


class TestInputChecks:
    """Each bound of the table names its dotted path, and each check a record
    keeps is reached from a config file: one error line, nothing written."""

    @pytest.mark.parametrize("case", list(_CHECKS))
    def test_one_error_line_and_no_output(self, tmp_path, capsys, case):
        source, change, message = _CHECKS[case]
        payload = _full_config("entry", source)
        instance_file = json.loads(json.dumps(_INSTANCE_FILE))
        change(payload, instance_file)
        _write_config(tmp_path, instance_file, name="inst.json")
        out = tmp_path / "out"
        assert main(["entry", "--config", _write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


# the shipped record each game block's cases start from
_RECORD_BASES = {"explicit": "fig2_a", "synthetic": "simu_appendix_d", "preferences": "llm_pool1"}


class TestFixtureRecordTable:
    """Every field of a fixture record, fed every wrong kind, fails in one
    MarketGameError that names the record and the field's dotted path."""

    @staticmethod
    def _load(tmp_path, monkeypatch, name, record):
        monkeypatch.setattr(fixtures_mod, "DATA_DIR", tmp_path)
        (tmp_path / f"{name}.json").write_text(json.dumps(record))
        return builtin_instance(name)

    @pytest.mark.parametrize("keys, path, field",
                             [pytest.param(*case, id=case[1])
                              for case in _table_fields(config_mod.FIXTURE_RECORD)
                              if _wrong_values(case[2])])
    def test_every_wrong_kind_is_one_error_naming_the_field(self, tmp_path, monkeypatch,
                                                            keys, path, field):
        name = _RECORD_BASES.get(keys[0], "fig2_a")
        shipped = (fixtures_mod.DATA_DIR / f"{name}.json").read_text()
        for value in _wrong_values(field):
            record = target = json.loads(shipped)
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value
            with pytest.raises(MarketGameError) as info:
                self._load(tmp_path, monkeypatch, name, record)
            assert f"{name}.{path}" in str(info.value), value

    @pytest.mark.parametrize("block, key", [("expected", "pne"),
                                            ("expected.dynamics", "welfare_interval")])
    def test_a_misspelled_expectation_key_is_one_error(self, tmp_path, monkeypatch, capsys,
                                                        block, key):
        # a check whose key is misspelled would otherwise be skipped in silence
        record = json.loads((fixtures_mod.DATA_DIR / "c8_players_3.json").read_text())
        target = record["expected"] if block == "expected" else record["expected"]["dynamics"]
        target[f"{key}_typo"] = target.pop(key)
        (tmp_path / "c8_players_3.json").write_text(json.dumps(record))
        monkeypatch.setattr(fixtures_mod, "DATA_DIR", tmp_path)
        monkeypatch.setattr(fixtures_mod, "_FIXTURE_NAMES", ["c8_players_3"])
        assert main(["verify-fixtures"]) == 2
        assert capsys.readouterr().err == (
            f"error: unknown key '{key}_typo' in the c8_players_3.{block} block\n")

    @pytest.mark.parametrize("games", [(), ("explicit", "preferences")])
    def test_a_record_has_exactly_one_game(self, tmp_path, monkeypatch, games):
        record = {"expected": {}}
        for game in games:
            record[game] = json.loads(
                (fixtures_mod.DATA_DIR / f"{_RECORD_BASES[game]}.json").read_text())[game]
        with pytest.raises(MarketGameError, match="^fixture record fig2_a block needs exactly one "
                                              "of: explicit, synthetic, preferences$"):
            self._load(tmp_path, monkeypatch, "fig2_a", record)


class TestAbnormalExits:
    def test_memory_error_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setattr(cli_mod.entry_mod, "train_resampling", exhausted)
        payload = _read_json(CONFIGS / "entry_underserved_type.json")
        payload["instance"]["file"] = str(CONFIGS / payload["instance"]["file"])
        out = tmp_path / "out"
        assert main(["entry", "--config", _write_config(tmp_path, payload),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: out of memory: Unable to allocate 72.8 TiB for an array\n")

    def test_closed_pipe_exits_quietly(self):
        # the read end is closed before the command writes, so its first
        # write to stdout meets a broken pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src),
                                                          os.environ.get("PYTHONPATH")]))}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "modelmarket.cli", "list-fixtures"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert done.stderr == b""
        assert done.returncode == 1


def _command_payload(command):
    """A small config ``command`` runs: fig2_a, with a one-cell sweep or one
    short direct-gradient training."""
    payload = {"instance": {"builtin": "fig2_a"}}
    if command == "sweep":
        payload["sweep"] = {"axis": "platforms", "values": [2], "repetitions": 1}
    if command == "entry":
        payload["training"] = {"outcomes": ["x1", "x2"], "rewards": [[0.5, 0.5], [0.2, 0.8]],
                               "dataset": {"counts": [1, 1]}, "method": "direct",
                               "params": {"inner_epochs": 2}}
    return payload


def _no_game_solved(monkeypatch):
    """Makes solving a game or running dynamics fail the test."""
    def solved(*args, **kwargs):
        raise AssertionError("a game was solved")

    monkeypatch.setattr(cli_mod, "analyze", solved)
    monkeypatch.setattr(cli_mod, "run_dynamics", solved)


class TestOutsideWorldFailures:
    """A path the system refuses ends in one error line naming it, exit 2."""

    @pytest.mark.parametrize("command", ["run", "sweep", "entry"])
    def test_an_output_directory_that_is_a_file(self, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        cfg = _write_config(tmp_path, _command_payload(command))
        assert main([command, "--config", cfg, "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {taken}: ") and err.count("\n") == 1, err
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize("out", ["file/sub", "/proc/modelmarket_out"])
    def test_an_output_directory_that_cannot_be_made(self, tmp_path, capsys, out):
        if out.startswith("/proc") and not os.path.isdir("/proc"):
            pytest.skip("no /proc here")
        (tmp_path / "file").write_text("")
        out = out if out.startswith("/") else str(tmp_path / out)
        assert main(["run", "--config", _write_config(tmp_path, _command_payload("run")),
                     "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["run", "sweep", "entry"])
    @pytest.mark.parametrize("prefix", ["a/b", "/abs", "a\0b"])
    def test_a_prefix_with_a_separator_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                       command, prefix):
        _no_game_solved(monkeypatch)
        payload = {**_command_payload(command), "output": {"prefix": prefix}}
        out = tmp_path / "out"
        assert main([command, "--config", _write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: output.prefix must not hold a path separator or NUL (got {prefix!r})\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "entry"])
    @pytest.mark.parametrize("field", ["--out", "--config", "instance.file"])
    def test_a_nul_in_a_path_is_refused_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                         command, field):
        _no_game_solved(monkeypatch)
        monkeypatch.chdir(tmp_path)  # where the default output directory would be made
        payload = _command_payload(command)
        if field == "instance.file":
            payload["instance"] = {"file": "inst\0ance.json"}
        cfg = _write_config(tmp_path, payload)
        argv = [command, "--config", cfg]
        if field == "--config":
            argv[2] = cfg = cfg + "\0"
        if field == "--out":
            argv += ["--out", "out\0put"]
        assert main(argv) == 2
        value = {"--config": cfg, "instance.file": "inst\0ance.json",
                 "--out": "out\0put"}[field]
        assert capsys.readouterr().err == f"error: {field} must not hold a NUL (got {value!r})\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_a_directory_named_as_an_output_leaves_no_other_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "run_fig2_a_summary.json").mkdir(parents=True)
        assert main(["run", "--config", _write_config(tmp_path, _command_payload("run")),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {out / 'run_fig2_a_summary.json'}: Is a directory\n"
        assert [p.name for p in out.iterdir()] == ["run_fig2_a_summary.json"]

    @pytest.mark.parametrize("command", ["run", "sweep", "entry"])
    @pytest.mark.parametrize("step", ["open", "replace"])
    @pytest.mark.parametrize("at", [0, 1])
    def test_a_failure_at_any_file_leaves_no_file(self, tmp_path, capsys, monkeypatch,
                                                  command, step, at):
        # each command writes two files here: a table and then its report
        calls = []
        real = {"open": open, "replace": os.replace}[step]

        def failing(*args, **kwargs):
            calls.append(args[0])
            if len(calls) == at + 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real(*args, **kwargs)

        if step == "open":
            monkeypatch.setattr(cli_mod, "open", failing, raising=False)
        else:
            monkeypatch.setattr(os, "replace", failing)
        out = tmp_path / "out"
        assert main([command, "--config", _write_config(tmp_path, _command_payload(command)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert len(calls) == at + 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("kind", ["config file", "instance file"])
    def test_a_directory_as_a_config_or_instance_file(self, tmp_path, capsys, kind):
        folder = tmp_path / "folder"
        folder.mkdir()
        cfg = str(folder)
        if kind == "instance file":
            cfg = _write_config(tmp_path, {"instance": {"file": "folder"}})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {folder}: ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["config file", "instance file"])
    def test_a_file_that_is_not_utf8(self, tmp_path, capsys, kind):
        latin = tmp_path / "latin.json"
        latin.write_bytes('{"instance": {"builtin": "fig2_\u00e9"}}\n'.encode("latin-1"))
        cfg = str(latin)
        if kind == "instance file":
            cfg = _write_config(tmp_path, {"instance": {"file": "latin.json"}})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {latin}: not UTF-8 text (byte 31)\n"
        assert not out.exists()


class TestEmptyTypeLabels:
    """Only null asks for the default type labels, as for model labels."""

    @pytest.mark.parametrize("weights, message", [
        ([0.5, 0.5], "weights must be a vector matching type_labels"),
        ([], "population needs at least one user type")])
    def test_an_instance_file(self, tmp_path, capsys, weights, message):
        scores = [[0.5, 0.2], [0.3, 0.6]] if weights else [[], []]
        _write_config(tmp_path, {"scores": scores, "weights": weights, "n_platforms": 2,
                                 "type_labels": []}, name="inst.json")
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, {"instance": {"file": "inst.json"}})
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_a_fixture_record(self, tmp_path, capsys, monkeypatch):
        record = json.loads((fixtures_mod.DATA_DIR / "fig2_a.json").read_text())
        record["explicit"]["type_labels"] = []
        (tmp_path / "fig2_a.json").write_text(json.dumps(record))
        monkeypatch.setattr(fixtures_mod, "DATA_DIR", tmp_path)
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, {"instance": {"builtin": "fig2_a"}})
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: weights must be a vector matching type_labels\n"
        assert not out.exists()


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

    def test_entry_reinforce_example(self, tmp_path):
        assert main(["entry", "--config", str(self.CONFIGS / "entry_underserved_reinforce.json"),
                     "--out", str(tmp_path)]) == 0
        report = _read_json(tmp_path / "underserved_reinforce_report.json")
        assert "resampling" not in report
        assert report["direct"]["adopted"] is True
        assert report["direct"]["outcome_kind"] == "equilibrium"

    def test_one_process_repeats_its_runs_around_a_failure(self, tmp_path, capsys):
        # main() reuses one parser per process: a failed run in between must
        # leave later runs as they were
        bad = tmp_path / "bad.json"
        bad.write_text('{"instance": {"file": 5}}')
        commands = [("run", "run_reference_cycle"), ("sweep", "sweep_pool_growth"),
                    ("entry", "entry_underserved_type"), ("entry", "entry_underserved_reinforce")]

        def one_round(out):
            return [main([cmd, "--config", str(self.CONFIGS / f"{name}.json"), "--out", str(out)])
                    for cmd, name in commands]

        assert one_round(tmp_path / "first") == [0, 0, 0, 0]
        capsys.readouterr()
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "bad")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert one_round(tmp_path / "second") == [0, 0, 0, 0]
        first = sorted(p.name for p in (tmp_path / "first").iterdir())
        assert first == sorted(p.name for p in (tmp_path / "second").iterdir())
        for name in first:
            assert (tmp_path / "first" / name).read_bytes() == \
                (tmp_path / "second" / name).read_bytes()


GOLDEN = Path(__file__).resolve().parent / "golden"
# the OpenBLAS core and numpy's AVX512F flag that tests/golden was recorded under
RECORDED_KERNEL = ("SkylakeX", True)


def _blas_kernel() -> tuple[str | None, bool]:
    """The core numpy's bundled OpenBLAS runs (None without one) and numpy's AVX512F flag."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1
        from numpy.core._multiarray_umath import __cpu_features__
    core = None
    for lib in (Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*"):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode()
    return core, bool(__cpu_features__.get("AVX512F"))


class TestRecordedBytes:
    """The shipped configs and the fixture commands give the bytes recorded
    under tests/golden.  Dots in weighted sums round by the BLAS kernel, so
    the bytes are compared only under the kernel they were recorded with."""

    @pytest.fixture(autouse=True)
    def _recorded_kernel(self):
        core, avx512f = _blas_kernel()
        if (core, avx512f) != RECORDED_KERNEL:
            pytest.skip(f"tests/golden holds the bytes of OpenBLAS core {RECORDED_KERNEL[0]} with "
                        f"AVX512F {RECORDED_KERNEL[1]}; this machine runs core {core} with "
                        f"AVX512F {avx512f}")

    @staticmethod
    def _assert_recorded(name: str, actual: bytes) -> None:
        recorded = (GOLDEN / name).read_bytes()
        if actual != recorded:
            core, avx512f = _blas_kernel()
            diff = difflib.unified_diff(recorded.decode().splitlines(), actual.decode().splitlines(),
                                        f"tests/golden/{name}", "this run", lineterm="", n=1)
            pytest.fail(f"{name} differs from its recorded bytes (numpy {np.__version__}, "
                        f"OpenBLAS core {core}, AVX512F {avx512f}):\n" + "\n".join(diff))

    def test_shipped_configs(self, tmp_path):
        runs = [("run", "run_reference_cycle"), ("sweep", "sweep_pool_growth"), ("sweep", "sweep_tau"),
                ("entry", "entry_underserved_type"), ("entry", "entry_underserved_reinforce")]
        for command, name in runs:
            assert main([command, "--config", str(CONFIGS / f"{name}.json"), "--out", str(tmp_path)]) == 0
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == sorted(p.name for p in GOLDEN.iterdir() if p.suffix != ".txt")
        for name in written:
            self._assert_recorded(name, (tmp_path / name).read_bytes())

    def test_sweeps_through_workers(self, tmp_path):
        for name in ("sweep_pool_growth", "sweep_tau"):
            assert main(["sweep", "--config", str(CONFIGS / f"{name}.json"), "--out", str(tmp_path),
                         "--jobs", "2"]) == 0
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ["pool_growth_long.csv", "pool_growth_summary.json", "tau_long.csv",
                           "tau_summary.json"]
        for name in written:
            self._assert_recorded(name, (tmp_path / name).read_bytes())

    @pytest.mark.parametrize("command", ["verify-fixtures", "list-fixtures"])
    def test_fixture_commands(self, capsys, command):
        assert main([command]) == 0
        self._assert_recorded(f"{command}.txt", capsys.readouterr().out.encode())


class TestOneThresholdRule:
    @pytest.mark.parametrize("instance, start, profile, pne_count", [
        # two values that differ by just over the threshold
        pytest.param({"scores": [[0.1317770745302126], [0.1317770745312126]],
                      "weights": [1.0], "n_platforms": 1}, [0], ["g2"], 1, id="threshold"),
        # a softmax deviation gain within ulps of the threshold, where adding the
        # rivals' exponentials in profile order once rejected this listed start
        pytest.param({"scores": [[0.3792938853014244, 0.10421019388155572, 0.9054290816103407],
                                 [0.025232939887885886, 0.22396692242099092, 0.9094703295567117],
                                 [0.2807764740442198, 0.27089834498352905, 0.6792624397768348],
                                 [0.8829032712488051, 0.2958443441484473, 0.37632881322022116]],
                      "weights": [0.4400542636588001, 0.10303236554472871, 0.4569133707964711],
                      "n_platforms": 4, "choice": {"kind": "softmax", "tau": 0.2}},
                     [1, 3, 3, 1], ["g2", "g4", "g4", "g2"], 18, id="rival-order"),
    ])
    def test_run_equilibrium_is_in_its_pne_list(self, tmp_path, instance, start, profile, pne_count):
        (tmp_path / "boundary.json").write_text(json.dumps(instance))
        cfg = _write_config(tmp_path, {"instance": {"file": "boundary.json"},
                                       "dynamics": {"start": start},
                                       "output": {"prefix": "boundary"}})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        summary = _read_json(tmp_path / "out" / "boundary_summary.json")
        assert summary["outcome_kind"] == "equilibrium"
        assert summary["equilibrium_profile"] == profile
        assert summary["equilibrium_profile"] in summary["pne"] and len(summary["pne"]) == pne_count


class TestFixtureCommands:
    def test_verify_fixtures_passes(self, capsys):
        assert main(["verify-fixtures"]) == 0
        out = capsys.readouterr().out
        assert "verify-fixtures: PASS" in out
        assert out.count(": ok") == 12

    def test_corrupted_fixture_is_reported(self, capsys, monkeypatch):
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
