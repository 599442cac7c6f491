"""End-to-end tests for the command-line interface."""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import wfsim
from wfsim.chain import sample_path
from wfsim.cli import main
from wfsim.config import COMMANDS, FIELDS, resolve
from wfsim.errors import WfsimError
from wfsim.fitness import finite_difference_jacobian, make_rule
from wfsim.meanfield import solve_interior_equilibrium, sum_zero_basis
from wfsim.simplex import round_to_lattice

from conftest import A1, A2, CHI1, CHI2, NON_SYMMETRIC

CONFIG_DIR = Path(wfsim.__file__).parent / "configs"


@pytest.fixture()
def runner():
    return CliRunner()


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output + result.stderr
    return result


def load_json(out_dir, name):
    return json.loads((Path(out_dir) / name).read_text())


def start_config(command, start):
    """A small valid config for a command that takes a start vector."""
    cfg = {"matrix": A2, "omega": 0.5, "seed": 1}
    if command == "simulate":
        cfg.update({"N": 50, "initial": start, "steps": 5})
    elif command == "extinction":
        cfg.update({"N": 50, "initials": [start], "replicates": 2})
    else:
        cfg.update({"N": [50], "initial": start, "epsilons": [0.1],
                    "horizon": 2, "replicates": 5})
    return cfg


# ----------------------------------------------------------------------
# meanfield
# ----------------------------------------------------------------------

class TestMeanfield:
    def test_benchmark_slow_system_report(self, runner, tmp_path):
        cfg = write_config(tmp_path, "mf.json",
                           {"matrix": A1, "omega_ratio": 1e-3})
        out = tmp_path / "out"
        run_ok(runner, ["meanfield", "--config", cfg, "--out", str(out)])
        report = load_json(out, "report.json")
        np.testing.assert_allclose(report["equilibrium"], CHI1, atol=1e-6)
        assert report["interior"]
        assert 0.0 < report["spectral_radius_sum_zero"] < 1.0
        assert report["stability"]["ok"]

    def test_two_type_hand_values(self, runner, tmp_path):
        cfg = write_config(tmp_path, "mf.json",
                           {"matrix": [[1, 2], [2, 1]], "omega": 0.5})
        out = tmp_path / "out"
        run_ok(runner, ["meanfield", "--config", cfg, "--out", str(out)])
        report = load_json(out, "report.json")
        np.testing.assert_allclose(report["equilibrium"], [0.5, 0.5],
                                   atol=1e-12)
        assert report["spectral_radius_sum_zero"] == pytest.approx(0.8,
                                                                   abs=1e-12)

    def test_permanence_flag(self, runner, tmp_path):
        cfg = write_config(tmp_path, "mf.json",
                           {"matrix": A2, "omega": 0.5,
                            "check_permanence": True})
        out = tmp_path / "out"
        run_ok(runner, ["meanfield", "--config", cfg, "--out", str(out)])
        report = load_json(out, "report.json")
        assert report["permanence"]["status"] == "permanent"
        np.testing.assert_allclose(report["permanence"]["witness"], CHI2,
                                   atol=1e-6)

    def test_singular_face_scan_is_pinned(self, runner, tmp_path):
        # the {1,2} face submatrix [[1, 1], [1, 1]] is singular, so the
        # permanence check scans that face's grid for fixed points; SHA-256
        # recorded before the scan became one map call
        cfg = write_config(tmp_path, "mf.json",
                           {"matrix": [[1, 1, 2], [1, 1, 3], [2, 3, 1]],
                            "omega": 0.5, "check_permanence": True})
        out = tmp_path / "out"
        run_ok(runner, ["meanfield", "--config", cfg, "--out", str(out)])
        perm = load_json(out, "report.json")["permanence"]
        assert perm["n_boundary_fixed_points"] == 44
        assert perm["status"] == "not-verified"
        assert perm["min_margin"] == pytest.approx(-1 / 24, abs=1e-12)
        assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == (
            "9f5990df1dd5dc68e632e14fd9acf67fde615ea175990573f1676b597fb16356")

    def test_non_symmetric_matrix_report(self, runner, tmp_path):
        cfg = write_config(tmp_path, "mf.json",
                           {"matrix": NON_SYMMETRIC, "omega": 0.5})
        out = tmp_path / "out"
        run_ok(runner, ["meanfield", "--config", cfg, "--out", str(out)])
        report = load_json(out, "report.json")
        chi = np.array([4, 5, 6]) / 15
        np.testing.assert_allclose(report["equilibrium"], chi, atol=1e-12)
        d_fd = finite_difference_jacobian(make_rule(NON_SYMMETRIC, omega=0.5), chi)
        np.testing.assert_allclose(np.array(report["jacobian"]) @ sum_zero_basis(3),
                                   d_fd @ sum_zero_basis(3), atol=1e-8)

    def test_singular_matrix_exits_two(self, runner, tmp_path):
        cfg = write_config(tmp_path, "mf.json",
                           {"matrix": [[1, 1], [1, 1]], "omega": 0.5})
        result = runner.invoke(main, ["meanfield", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "no interior equilibrium" in result.stderr

    @pytest.mark.parametrize("update", [
        {"matrix": [[1e300, 1], [1, 1e300]]},
        {"matrix": [[1e300, 1, 1], [1, 1e300, 1], [1, 1, 1e300]]},
        {"matrix": [[1e300, 1], [1, 1e300]], "check_permanence": True},
    ], ids=["two-type", "three-type", "permanence"])
    def test_huge_payoffs_exit_cleanly(self, tmp_path, update):
        result = invoke("meanfield", {"omega": 0.5, **update}, tmp_path)
        assert result.exit_code in (0, 2), result.stderr
        # exit 0 leaves no exception; exit 2 must be the command's own
        assert result.exception is None or isinstance(result.exception, SystemExit), \
            repr(result.exception)

    def test_zero_mass_equilibrium_exits_two(self, runner, tmp_path):
        cfg = write_config(tmp_path, "mf.json",
                           {"matrix": [[89, 57], [53, 21]], "omega": 0.5})
        result = runner.invoke(main, ["meanfield", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "zero total mass" in result.stderr

    def test_unknown_field_exits_one(self, runner, tmp_path):
        cfg = write_config(tmp_path, "mf.json",
                           {"matrix": A2, "omega": 0.5, "bogus": 1})
        result = runner.invoke(main, ["meanfield", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "config error:" in result.stderr
        assert "bogus" in result.stderr

    def test_manifest_checksums_match_outputs(self, runner, tmp_path):
        cfg = write_config(tmp_path, "mf.json",
                           {"matrix": A2, "omega": 0.5})
        out = tmp_path / "out"
        run_ok(runner, ["meanfield", "--config", cfg, "--out", str(out)])
        manifest = load_json(out, "manifest.json")
        import hashlib
        for name, digest in manifest["outputs"].items():
            blob = (out / name).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == digest

    def test_resolved_config_round_trips(self, runner, tmp_path):
        cfg = write_config(tmp_path, "mf.json",
                           {"matrix": A1, "omega_ratio": 1e-3})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_ok(runner, ["meanfield", "--config", cfg, "--out", str(out1)])
        run_ok(runner, ["meanfield", "--config",
                        str(out1 / "manifest.json"), "--out", str(out2)])
        m1, m2 = load_json(out1, "manifest.json"), load_json(out2, "manifest.json")
        assert m1["config"] == m2["config"]
        assert m1["outputs"] == m2["outputs"]


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

class TestSimulate:
    def base_config(self):
        return {"matrix": A2, "omega": 0.5, "N": 500,
                "initial": [0.8, 0.1, 0.1], "steps": 100, "seed": 11}

    def test_seed_repeat_is_byte_identical(self, runner, tmp_path):
        cfg = write_config(tmp_path, "sim.json", self.base_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_ok(runner, ["simulate", "--config", cfg, "--out", str(out1)])
        run_ok(runner, ["simulate", "--config", cfg, "--out", str(out2)])
        assert (out1 / "trajectory.csv").read_bytes() == \
            (out2 / "trajectory.csv").read_bytes()

    def test_vertex_start_is_constant(self, runner, tmp_path):
        cfg = self.base_config()
        cfg.update({"initial": [1.0, 0.0, 0.0], "steps": 5})
        path = write_config(tmp_path, "sim.json", cfg)
        out = tmp_path / "out"
        run_ok(runner, ["simulate", "--config", path, "--out", str(out)])
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "step,count_1,count_2,count_3"
        assert len(lines) == 7
        for k, line in enumerate(lines[1:]):
            assert line == f"{k},500,0,0"

    def test_threshold_stop_recorded(self, runner, tmp_path):
        cfg = self.base_config()
        cfg.update({"steps": 500, "stop_threshold": 0.05})
        path = write_config(tmp_path, "sim.json", cfg)
        out = tmp_path / "out"
        run_ok(runner, ["simulate", "--config", path, "--out", str(out)])
        manifest = load_json(out, "manifest.json")
        assert manifest["stopped_at"] is not None
        assert manifest["censored"] is False
        last = (out / "trajectory.csv").read_text().splitlines()[-1]
        counts = list(map(int, last.split(",")))[1:]
        assert min(counts) <= 0.05 * 500

    def test_seed_flag_overrides_config(self, runner, tmp_path):
        cfg = write_config(tmp_path, "sim.json", self.base_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_ok(runner, ["simulate", "--config", cfg, "--out", str(out1)])
        run_ok(runner, ["simulate", "--config", cfg, "--seed", "99",
                        "--out", str(out2)])
        assert (out1 / "trajectory.csv").read_bytes() != \
            (out2 / "trajectory.csv").read_bytes()
        assert load_json(out2, "manifest.json")["seed"] == 99

    def test_stride_rows_plus_stop_step_match_sample_path(self, runner, tmp_path):
        cfg = self.base_config()
        cfg.update({"steps": 500, "stride": 7, "stop_threshold": 0.05, "seed": 13})
        path = write_config(tmp_path, "sim.json", cfg)
        out = tmp_path / "out"
        run_ok(runner, ["simulate", "--config", path, "--out", str(out)])
        stop_step = load_json(out, "manifest.json")["stopped_at"]
        assert stop_step % 7 != 0          # so the stop step is an extra row
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(13)))
        counts = sample_path(make_rule(A2, omega=0.5),
                             round_to_lattice(cfg["initial"], 500), 500, rng,
                             stop=lambda c: c.min() / 500 <= 0.05)
        assert len(counts) - 1 == stop_step
        expected = [",".join(map(str, [k, *counts[k]]))
                    for k in [*range(0, stop_step + 1, 7), stop_step]]
        assert (out / "trajectory.csv").read_text().splitlines()[1:] == expected

    def test_start_at_threshold_writes_one_row(self, runner, tmp_path):
        cfg = self.base_config()
        cfg.update({"initial": [0.96, 0.02, 0.02], "stride": 7,
                    "stop_threshold": 0.05})
        path = write_config(tmp_path, "sim.json", cfg)
        out = tmp_path / "out"
        run_ok(runner, ["simulate", "--config", path, "--out", str(out)])
        assert (out / "trajectory.csv").read_text().splitlines() == \
            ["step,count_1,count_2,count_3", "0,480,10,10"]
        manifest = load_json(out, "manifest.json")
        assert manifest["stopped_at"] == 0 and manifest["censored"] is False

    # SHA-256 of trajectory.csv for configs that together reach the
    # linear-fractional, exponential and mutation rules, strides above 1
    # and a threshold stop: a change to the sampler that moves one draw or
    # one written row breaks a digest
    PINNED = {
        "linear-fractional": (
            {"matrix": A2, "omega": 0.5, "N": 500, "initial": [0.8, 0.1, 0.1],
             "steps": 2000, "stride": 1, "seed": 3},
            "ed5aeb815c71dd6d3b9cccbdc244409030fe7973b760b203116c8f1b4aa23a96"),
        "exponential": (
            {"matrix": A1, "fitness": "exponential", "beta": 0.3, "N": 200,
             "initial": [0.4, 0.3, 0.3], "steps": 3000, "seed": 5},
            "4592519336a7674ad4e10311804519e22a167e9a1d4366f75b0c0514941d2c16"),
        "mutation-stride-3": (
            {"matrix": A2, "omega": 0.5,
             "mutation": [[0.98, 0.01, 0.01], [0.01, 0.98, 0.01],
                          [0.01, 0.01, 0.98]],
             "N": 300, "initial": [0.2, 0.5, 0.3], "steps": 5000, "stride": 3,
             "seed": 9},
            "cb1f705a5b341e82c6448e5f12fe76b1fc4c8c535fe6e71800f30b0606e9a33e"),
        "threshold-stride-7": (
            {"matrix": A1, "omega": 0.5, "N": 300, "initial": [0.25, 0.4, 0.35],
             "steps": 5000, "stride": 7, "stop_threshold": 0.05, "seed": 13},
            "d41043826b999ee5c3f412331aac905ecde80a8774df71bff1d0a264174dab0a"),
    }

    @pytest.mark.parametrize("name", list(PINNED))
    def test_trajectory_bytes_are_pinned(self, runner, tmp_path, name):
        cfg, digest = self.PINNED[name]
        path = write_config(tmp_path, "sim.json", cfg)
        out = tmp_path / "out"
        run_ok(runner, ["simulate", "--config", path, "--out", str(out)])
        blob = (out / "trajectory.csv").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest
        assert load_json(out, "manifest.json")["outputs"]["trajectory.csv"] == digest

    def test_stopped_run_allocates_only_the_rows_it_reaches(self, runner, tmp_path):
        # this run stops at step 2188: a 10**10-step budget must not
        # allocate 10**10 rows up front
        cfg, _ = self.PINNED["threshold-stride-7"]
        outputs = []
        for steps in (5000, 10**10):
            path = write_config(tmp_path, f"sim{steps}.json", {**cfg, "steps": steps})
            out = tmp_path / f"out{steps}"
            run_ok(runner, ["simulate", "--config", path, "--out", str(out)])
            assert load_json(out, "manifest.json")["stopped_at"] == 2188
            outputs.append((out / "trajectory.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_path_past_the_address_space_exits_two(self, runner, tmp_path):
        # numpy refuses a (10**13 + 1, 3) int64 path at once, allocating nothing
        cfg = self.base_config()
        cfg["steps"] = 10**13
        path = write_config(tmp_path, "sim.json", cfg)
        result = runner.invoke(main, ["simulate", "--config", path,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1

    def test_unknown_field_exits_one(self, runner, tmp_path):
        cfg = self.base_config()
        cfg["stop_treshold"] = 0.05
        path = write_config(tmp_path, "sim.json", cfg)
        result = runner.invoke(main, ["simulate", "--config", path,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "stop_treshold" in result.stderr

    def test_missing_fields_exit_one(self, runner, tmp_path):
        cfg = write_config(tmp_path, "sim.json",
                           {"matrix": A2, "omega": 0.5})
        result = runner.invoke(main, ["simulate", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "config error:" in result.stderr
        assert "missing" in result.stderr


# ----------------------------------------------------------------------
# extinction
# ----------------------------------------------------------------------

class TestExtinction:
    def test_smoke_config_reduced_replicates(self, runner, tmp_path):
        out = tmp_path / "out"
        run_ok(runner, ["extinction", "--config",
                        str(CONFIG_DIR / "table2_smoke.json"),
                        "--replicates", "10", "--out", str(out)])
        summary = load_json(out, "summary.json")
        counts = np.asarray(summary["counts"])
        assert counts.shape == (3, 3)
        np.testing.assert_array_equal(
            counts.sum(axis=1) + np.asarray(summary["censored"]), [10, 10, 10])
        assert summary["least_fit_types"] == [1]
        trials = (out / "trials.csv").read_text().splitlines()
        assert len(trials) == 1 + 30

    def test_thread_count_never_changes_outputs(self, runner, tmp_path):
        args = ["extinction", "--config",
                str(CONFIG_DIR / "table2_smoke.json"), "--replicates", "8"]
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        run_ok(runner, args + ["--threads", "1", "--out", str(out1)])
        run_ok(runner, args + ["--threads", "2", "--out", str(out2)])
        for name in ("summary.json", "trials.csv", "histogram.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_rerun_reproduces_outputs(self, runner, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_ok(runner, ["extinction", "--config",
                        str(CONFIG_DIR / "table2_smoke.json"),
                        "--replicates", "6", "--out", str(out1)])
        run_ok(runner, ["extinction", "--config",
                        str(out1 / "manifest.json"), "--out", str(out2)])
        for name in ("summary.json", "trials.csv", "histogram.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_trials(self, runner, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        base = ["extinction", "--config",
                str(CONFIG_DIR / "table2_smoke.json"), "--replicates", "6"]
        run_ok(runner, base + ["--out", str(out1)])
        run_ok(runner, base + ["--seed", "404", "--out", str(out2)])
        assert (out1 / "trials.csv").read_bytes() != \
            (out2 / "trials.csv").read_bytes()


# ----------------------------------------------------------------------
# qsd
# ----------------------------------------------------------------------

class TestQsd:
    def test_single_interior_state_toy(self, runner, tmp_path):
        cfg = write_config(tmp_path, "qsd.json", {
            "matrix": [[1, 1], [1, 1]], "omega": 0.5,
            "mutation": [[0.5, 0.5], [0.5, 0.5]], "N": 2,
        })
        out = tmp_path / "out"
        run_ok(runner, ["qsd", "--config", cfg, "--out", str(out)])
        res = load_json(out, "qsd.json")["results"][0]
        assert res["eigenvalue"] == pytest.approx(0.5, abs=1e-12)
        assert res["leak_residual"] < 1e-10
        assert res["interior_states"] == 1

    def test_ladder_is_increasing(self, runner, tmp_path):
        cfg = write_config(tmp_path, "qsd.json",
                           {"matrix": A2, "omega": 0.5, "N": [4, 6, 8]})
        out = tmp_path / "out"
        run_ok(runner, ["qsd", "--config", cfg, "--out", str(out)])
        results = load_json(out, "qsd.json")["results"]
        eigs = [r["eigenvalue"] for r in results]
        assert eigs == sorted(eigs)
        assert eigs[0] < eigs[-1]
        assert all(r["leak_residual"] < 1e-10 for r in results)

    def test_state_cap_exits_two(self, runner, tmp_path):
        cfg = write_config(tmp_path, "qsd.json",
                           {"matrix": A2, "omega": 0.5, "N": 200})
        result = runner.invoke(main, ["qsd", "--config", cfg,
                                      "--out", str(tmp_path / "out")],
                               env={"WF_MAX_STATES": "100"})
        assert result.exit_code == 2
        assert "error:" in result.stderr

    def test_reducible_interior_exits_two(self, runner, tmp_path):
        cfg = write_config(tmp_path, "qsd.json", {
            "matrix": [[1, 1], [1, 1]], "omega": 0.5,
            "mutation": [[1.0, 0.0], [1.0, 0.0]], "N": 3,
        })
        result = runner.invoke(main, ["qsd", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2

    def test_weights_included_on_request(self, runner, tmp_path):
        cfg = write_config(tmp_path, "qsd.json", {
            "matrix": A2, "omega": 0.5, "N": 6, "include_weights": True,
        })
        out = tmp_path / "out"
        run_ok(runner, ["qsd", "--config", cfg, "--out", str(out)])
        res = load_json(out, "qsd.json")["results"][0]
        weights = np.asarray(res["weights"])
        assert weights.size == res["interior_states"]
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------

class TestBounds:
    def base_config(self):
        return {"matrix": A2, "omega": 0.5, "N": [200], "epsilons": [0.1],
                "horizon": 10, "replicates": 50, "seed": 9}

    def test_table_shape_and_header(self, runner, tmp_path):
        cfg = write_config(tmp_path, "b.json", self.base_config())
        out = tmp_path / "out"
        run_ok(runner, ["bounds", "--config", cfg, "--out", str(out)])
        lines = (out / "bounds.csv").read_text().splitlines()
        assert lines[0] == ("N,epsilon,K,exceed_count,replicates,"
                            "empirical_prob,wilson_upper_99,bound,consistent")
        assert len(lines) == 1 + 10
        summary = load_json(out, "bounds_summary.json")
        for key in ("lipschitz_estimate", "rho_used", "pair_max",
                    "jacobian_max", "expectation"):
            assert key in summary
        assert summary["rho_used"] == pytest.approx(
            1.2 * summary["lipschitz_estimate"])

    def test_expansive_map_flagged_inapplicable(self, runner, tmp_path):
        cfg = write_config(tmp_path, "b.json", self.base_config())
        out = tmp_path / "out"
        run_ok(runner, ["bounds", "--config", cfg, "--out", str(out)])
        entry = load_json(out, "bounds_summary.json")["expectation"][0]
        assert entry["applicable"] is False
        assert entry["expectation_bound"] is None
        assert entry["censored_mean_tau"] >= 1.0

    def test_manifest_rerun_is_byte_identical(self, runner, tmp_path):
        cfg = write_config(tmp_path, "b.json", self.base_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_ok(runner, ["bounds", "--config", cfg, "--out", str(out1)])
        run_ok(runner, ["bounds", "--config", str(out1 / "manifest.json"),
                        "--out", str(out2)])
        for name in ("bounds.csv", "bounds_summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_ensemble_past_the_address_space_exits_two(self, runner, tmp_path):
        cfg = self.base_config()
        cfg.update({"replicates": 10**13, "lipschitz_samples": 10})
        path = write_config(tmp_path, "b.json", cfg)
        result = runner.invoke(main, ["bounds", "--config", path,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1

    def test_outputs_are_pinned(self, runner, tmp_path):
        # SHA-256 recorded before the finite differences were stacked: a
        # moved probe derivative or draw changes the Lipschitz estimate or
        # a count, and with it a digest
        cfg = {"matrix": A2, "omega": 0.5, "N": [200, 800], "epsilons": [0.05, 0.1],
               "horizon": 20, "replicates": 500, "seed": 7, "lipschitz_samples": 50}
        path = write_config(tmp_path, "b.json", cfg)
        out = tmp_path / "out"
        run_ok(runner, ["bounds", "--config", path, "--out", str(out)])
        for name, digest in {
            "bounds.csv": "a650ddb817e39e7d4510381574c1bac929cb789e379bdfed73e8a9327c48a4fe",
            "bounds_summary.json":
                "eda7ad6acbae97476af7d382ff39da8213ff1da8f59f7dfe46af0f610613d6cd",
        }.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_missing_fields_exit_one(self, runner, tmp_path):
        cfg = write_config(tmp_path, "b.json", {"matrix": A2, "omega": 0.5})
        result = runner.invoke(main, ["bounds", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "missing" in result.stderr


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------

class TestPlumbing:
    def test_missing_config_path(self, runner, tmp_path):
        result = runner.invoke(main, ["meanfield",
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "config error:" in result.stderr

    def test_nonexistent_config_file(self, runner, tmp_path):
        result = runner.invoke(main, ["meanfield", "--config",
                                      str(tmp_path / "nope.json"),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "not found" in result.stderr

    def test_invalid_json_exits_one(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(main, ["meanfield", "--config", str(bad),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "not valid JSON" in result.stderr

    @pytest.mark.parametrize("command", ["simulate", "extinction"])
    def test_omega_and_ratio_together_exit_one(self, runner, tmp_path, command):
        cfg = start_config(command, [0.8, 0.1, 0.1])
        cfg["omega_ratio"] = 1.0
        path = write_config(tmp_path, "c.json", cfg)
        result = runner.invoke(main, [command, "--config", path,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "omega_ratio" in result.stderr

    @pytest.mark.parametrize("start", [
        [0.8, 0.3, 0.1], [0.6, 0.3, 0.0], [0.8, 0.2], [1.2, -0.1, -0.1],
        [float("nan"), 0.5, 0.5],
    ], ids=["sum-above-1", "sum-below-1", "length", "negative", "nan"])
    @pytest.mark.parametrize("command", ["simulate", "extinction", "bounds"])
    def test_malformed_start_exits_one(self, runner, tmp_path, command, start):
        path = write_config(tmp_path, "c.json", start_config(command, start))
        result = runner.invoke(main, [command, "--config", path,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 1, result.stderr
        assert "config error: initial condition" in result.stderr

    def test_readme_quick_start_imports(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Library quick start", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        imports = [line for line in block.splitlines()
                   if line.startswith(("import ", "from "))]
        assert imports
        exec("\n".join(imports), {})

    @staticmethod
    def scipy_modules_after(code: str) -> str:
        """The scipy modules a fresh interpreter holds after running ``code``."""
        code += "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        src = str(Path(wfsim.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        return run.stdout.strip().splitlines()[-1]

    def test_cli_and_an_ensemble_load_no_scipy(self):
        # scipy is imported inside the functions that need it, so `wf`
        # start-up and `wf extinction` never pay for it
        code = (
            "import sys, wfsim.cli\n"
            "from wfsim.extinction import ExperimentSpec, run_experiment\n"
            "cfg = {'matrix': [[1, 20, 35], [20, 21, 30], [35, 30, 1]], 'omega': 0.5,\n"
            "       'N': 50, 'initials': [[0.8, 0.1, 0.1]], 'replicates': 4, 'seed': 1,\n"
            "       'sample_window': [1, 5]}\n"
            "run_experiment(ExperimentSpec.from_config(cfg))\n")
        assert self.scipy_modules_after(code) == "[]"

    @pytest.mark.parametrize("command,cfg", [
        ("bounds", {"matrix": A2, "omega": 0.5, "N": [50, 200], "epsilons": [0.1],
                    "horizon": 5, "replicates": 20, "seed": 1,
                    "lipschitz_samples": 20}),
        ("simulate", {"matrix": A2, "omega": 0.5, "N": 50, "initial": [0.8, 0.1, 0.1],
                      "steps": 20, "seed": 1}),
    ])
    def test_bounds_and_simulate_load_no_scipy(self, tmp_path, command, cfg):
        # the Lipschitz probe and the pseudo-orbit search measure max-norm
        # distances with numpy alone, so `wf bounds` runs without scipy
        path = write_config(tmp_path, "c.json", cfg)
        code = (
            "import sys\n"
            "from wfsim.cli import main\n"
            f"sys.argv = ['wf', {command!r}, '--config', {path!r},\n"
            f"            '--out', {str(tmp_path / 'out')!r}]\n"
            "try:\n"
            "    main()\n"
            "except SystemExit as exc:\n"
            "    assert exc.code in (0, None), exc.code\n")
        assert self.scipy_modules_after(code) == "[]"

    def test_shipped_configs_parse(self):
        from wfsim.extinction import ExperimentSpec
        for name in ("table1.json", "table2.json",
                     "table1_smoke.json", "table2_smoke.json"):
            cfg = json.loads((CONFIG_DIR / name).read_text())
            spec = ExperimentSpec.from_config(cfg)
            assert spec.m == 3
            assert spec.stop_threshold == 0.05
            assert spec.sample_window == (1000, 5000)

    def test_full_table_configs_use_benchmark_scale(self):
        for name in ("table1.json", "table2.json"):
            cfg = json.loads((CONFIG_DIR / name).read_text())
            assert cfg["replicates"] == 10_000
            assert cfg["N"] == 500
            assert len(cfg["initials"]) == 3


# ----------------------------------------------------------------------
# the config schema
# ----------------------------------------------------------------------

def small_config(command):
    """A small valid config for any command."""
    if command == "meanfield":
        return {"matrix": A2, "omega": 0.5}
    if command == "qsd":
        return {"matrix": A2, "omega": 0.5, "N": [4]}
    return start_config(command, [0.8, 0.1, 0.1])


def invoke(command, cfg, out_dir, *args):
    """Run a command on a config, catching any exception it lets escape."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = write_config(out_dir, "config.json", cfg)
    return CliRunner().invoke(main, [command, "--config", path,
                                     "--out", str(out_dir / "out"), *args],
                              catch_exceptions=True)


def assert_config_error(result, *names):
    # an uncaught exception also exits 1; only a SystemExit means the
    # command reported the error itself
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert result.exit_code == 1, result.stderr
    assert "config error:" in result.stderr
    for name in names:
        assert name in result.stderr


RAGGED = [[1, 20, 35], [20, 21], [35, 30, 1]]


class TestConfigSchema:
    """Malformed values exit 1 with a config error on every command."""

    def check_malformed(self, tmp_path, command, update):
        cfg = small_config(command)
        cfg.update(update)
        assert_config_error(invoke(command, cfg, tmp_path), *update)

    @pytest.mark.parametrize("update", [
        {"matrix": "abc"}, {"matrix": RAGGED}, {"matrix": []}, {"omega": "0.5"},
        {"check_permanence": "no"}, {"check_permanence": None}, {"seed": 1},
    ], ids=repr)
    def test_meanfield(self, tmp_path, update):
        self.check_malformed(tmp_path, "meanfield", update)

    @pytest.mark.parametrize("update", [
        {"N": "fifty"}, {"N": [50]}, {"N": True}, {"N": 50.7}, {"N": 0},
        {"N": 2**62},
        {"seed": 1.5}, {"seed": -1}, {"steps": "5"}, {"stride": 0},
        {"stop_threshold": None}, {"stop_threshold": -0.1}, {"omega": 1.5},
        {"replicates": 3},
    ], ids=repr)
    def test_simulate(self, tmp_path, update):
        self.check_malformed(tmp_path, "simulate", update)

    @pytest.mark.parametrize("update", [
        {"N": "fifty"}, {"N": [50]}, {"matrix": RAGGED}, {"bin_width": 0},
        {"bin_width": 1e300}, {"sample_window": [1]},
        {"sample_window": [5, 1]}, {"stop_threshold": None}, {"initials": 5},
        {"initials": []}, {"replicates": 0}, {"max_steps": -1},
        {"mode": None}, {"M": "3"}, {"seed": 1.5},
    ], ids=repr)
    def test_extinction(self, tmp_path, update):
        self.check_malformed(tmp_path, "extinction", update)

    @pytest.mark.parametrize("update", [
        {"tol": "x"}, {"tol": -1}, {"include_weights": "false"},
        {"N": "fifty"}, {"N": [4, 0]}, {"N": []}, {"matrix": "abc"},
        {"seed": 1},
    ], ids=repr)
    def test_qsd(self, tmp_path, update):
        self.check_malformed(tmp_path, "qsd", update)

    @pytest.mark.parametrize("update", [
        {"epsilons": 0.1}, {"epsilons": []}, {"epsilons": [0.1, 0]},
        {"horizon": 0}, {"replicates": 0}, {"lipschitz_samples": 0},
        {"safety": -1}, {"N": 50.7}, {"N": ["50"]}, {"b": [1, 1]},
    ], ids=repr)
    def test_bounds(self, tmp_path, update):
        self.check_malformed(tmp_path, "bounds", update)

    @pytest.mark.parametrize("params", [
        {"omega": 0.5, "beta": 3},
        {"fitness": "exponential", "beta": 0.3, "omega": 0.5},
        {"fitness": "exponential", "beta": 0.3, "omega_ratio": 1.0},
    ], ids=["linear-fractional-beta", "exponential-omega",
            "exponential-omega_ratio"])
    @pytest.mark.parametrize("command", ["simulate", "extinction", "bounds"])
    def test_parameter_of_the_other_fitness_family_exits_one(
            self, tmp_path, command, params):
        cfg = start_config(command, [0.8, 0.1, 0.1])
        del cfg["omega"]
        cfg.update(params)
        assert_config_error(invoke(command, cfg, tmp_path), "apply to")

    @pytest.mark.parametrize("command, flag", [
        ("meanfield", "--seed"), ("qsd", "--seed"), ("meanfield", "--replicates"),
        ("simulate", "--replicates"), ("qsd", "--replicates"),
    ])
    def test_flag_the_command_does_not_use_exits_one(self, tmp_path, command,
                                                      flag):
        result = invoke(command, small_config(command), tmp_path, flag, "3")
        assert_config_error(result, flag)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_threads_below_one_exit_one(self, tmp_path, command):
        result = invoke(command, small_config(command), tmp_path,
                        "--threads", "0")
        assert_config_error(result, "--threads")

    def test_bounds_takes_both_overrides(self, tmp_path):
        result = invoke("bounds", small_config("bounds"), tmp_path,
                        "--seed", "4", "--replicates", "6", "--threads", "2")
        assert result.exit_code == 0, result.stderr
        manifest = load_json(tmp_path / "out", "manifest.json")
        assert (manifest["seed"], manifest["config"]["replicates"]) == (4, 6)

    def test_resolved_config_is_a_fixed_point(self):
        for command in COMMANDS:
            cfg = small_config(command)
            cfg.pop("omega")
            cfg["omega_ratio"] = 1.0
            resolved = resolve(command, cfg)
            assert resolved["omega"] == 0.5 and "omega_ratio" not in resolved
            assert resolve(command, resolved) == resolved

    def test_readme_table_lists_every_field(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("### Config fields", 1)[1].split("\n\n")[2]
        rows = [line.split("|") for line in table.splitlines()[2:]]
        listed = {row[1].strip().strip("`"): {
            c.strip() for c in row[4].split(",")} for row in rows}
        assert set(listed) == set(FIELDS)
        for name, commands in listed.items():
            want = {c for c, fields in COMMANDS.items() if name in fields}
            assert commands == ({"all"} if want == set(COMMANDS) else want), name


#: Replacement values for the property test.  No integer in it is large,
#: so no replacement makes a valid run long.
POOL = ["x", "", True, False, None, [1, 2], [[0.5, 0.5]], 0, -1, 0.5, 1e300]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(COMMANDS)), data=st.data())
def test_mutated_configs_exit_cleanly(command, data):
    cfg = small_config(command)
    mutations = data.draw(st.lists(st.sampled_from(["drop", "add", "replace"]),
                                   min_size=1, max_size=2))
    for kind in mutations:
        if kind == "drop" and cfg:
            del cfg[data.draw(st.sampled_from(sorted(cfg)))]
        elif kind == "add":
            cfg["bogus"] = data.draw(st.sampled_from(POOL))
        else:
            cfg[data.draw(st.sampled_from(COMMANDS[command]))] = \
                data.draw(st.sampled_from(POOL))
    with tempfile.TemporaryDirectory() as tmp:
        result = invoke(command, cfg, Path(tmp))
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        "".join(traceback.format_exception(*result.exc_info))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(m=st.integers(2, 4), data=st.data())
def test_meanfield_on_random_positive_matrices(m, data):
    # an interior equilibrium always gets a report; otherwise the command
    # reports the boundary solution or exits 2, never with a traceback
    matrix = [data.draw(st.lists(st.floats(0.01, 100.0), min_size=m, max_size=m))
              for _ in range(m)]
    omega = data.draw(st.floats(0.01, 0.99))
    with tempfile.TemporaryDirectory() as tmp:
        result = invoke("meanfield", {"matrix": matrix, "omega": omega}, Path(tmp))
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        "".join(traceback.format_exception(*result.exc_info))
    try:
        interior = solve_interior_equilibrium(matrix).is_interior
    except WfsimError:  # singular or ill-conditioned: no trusted equilibrium
        interior = False
    assert result.exit_code in ((0,) if interior else (0, 2)), result.stderr
