"""End-to-end tests for the command-line interface."""

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import traceback
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wfsim
from wfsim import chain, cli, extinction
from wfsim.chain import sample_path
from wfsim.config import COMMANDS, FIELDS, resolve, rule_keywords
from wfsim.errors import WfsimError
from wfsim.fitness import finite_difference_jacobian, make_rule
from wfsim.meanfield import solve_interior_equilibrium, sum_zero_basis
from wfsim.simplex import round_to_lattice

from conftest import A1, A2, BAD_LAWS, CHI1, CHI2, NON_SYMMETRIC, run_wf

CONFIG_DIR = Path(wfsim.__file__).parent / "configs"


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def config_path(tmp_path, cfg):
    """A shipped config's path, or a config mapping written to a file."""
    return str(cfg) if isinstance(cfg, Path) else write_config(tmp_path, "cfg.json", cfg)


def run_ok(args):
    result = run_wf(args, catch_exceptions=False)
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
    def test_benchmark_slow_system_report(self, tmp_path):
        cfg = write_config(tmp_path, "mf.json",
                           {"matrix": A1, "omega_ratio": 1e-3})
        out = tmp_path / "out"
        run_ok(["meanfield", "--config", cfg, "--out", str(out)])
        report = load_json(out, "report.json")
        np.testing.assert_allclose(report["equilibrium"], CHI1, atol=1e-6)
        assert report["interior"]
        assert 0.0 < report["spectral_radius_sum_zero"] < 1.0
        assert report["stability"]["ok"]

    def test_two_type_hand_values(self, tmp_path):
        cfg = write_config(tmp_path, "mf.json",
                           {"matrix": [[1, 2], [2, 1]], "omega": 0.5})
        out = tmp_path / "out"
        run_ok(["meanfield", "--config", cfg, "--out", str(out)])
        report = load_json(out, "report.json")
        np.testing.assert_allclose(report["equilibrium"], [0.5, 0.5],
                                   atol=1e-12)
        # the full derivative of the map: it sends the equilibrium to zero
        np.testing.assert_allclose(report["jacobian"], [[0.4, -0.4], [-0.4, 0.4]],
                                   atol=1e-12)
        assert report["spectral_radius_sum_zero"] == pytest.approx(0.8,
                                                                   abs=1e-12)

    def test_permanence_flag(self, tmp_path):
        cfg = write_config(tmp_path, "mf.json",
                           {"matrix": A2, "omega": 0.5,
                            "check_permanence": True})
        out = tmp_path / "out"
        run_ok(["meanfield", "--config", cfg, "--out", str(out)])
        report = load_json(out, "report.json")
        assert report["permanence"]["status"] == "permanent"
        np.testing.assert_allclose(report["permanence"]["witness"], CHI2,
                                   atol=1e-6)

    def test_singular_face_scan_is_pinned(self, tmp_path):
        # the {1,2} face submatrix [[1, 1], [1, 1]] is singular, so the
        # permanence check scans that face's grid for fixed points; SHA-256
        # recorded before the scan became one map call
        cfg = write_config(tmp_path, "mf.json",
                           {"matrix": [[1, 1, 2], [1, 1, 3], [2, 3, 1]],
                            "omega": 0.5, "check_permanence": True})
        out = tmp_path / "out"
        run_ok(["meanfield", "--config", cfg, "--out", str(out)])
        perm = load_json(out, "report.json")["permanence"]
        assert perm["n_boundary_fixed_points"] == 44
        assert perm["status"] == "not-verified"
        assert perm["min_margin"] == pytest.approx(-1 / 24, abs=1e-12)
        assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == (
            "9f5990df1dd5dc68e632e14fd9acf67fde615ea175990573f1676b597fb16356")

    def test_degenerate_face_scan_skips_undefined_points(self, tmp_path):
        # on the singular {1,2} face every type's fitness 1 - omega + omega
        # (A x)_i is 0, so the update map is undefined at each scanned grid
        # point: the scan skips them, as the vertex check skips vertices 1, 2
        matrix = [[-1, -1, 2], [-1, -1, 3], [2, 3, 1]]
        reports = []
        for check in (False, True):
            out = tmp_path / f"out-{check}"
            cfg = write_config(tmp_path, f"mf-{check}.json",
                               {"matrix": matrix, "omega": 0.5, "check_permanence": check})
            run_ok(["meanfield", "--config", cfg, "--out", str(out)])
            reports.append(load_json(out, "report.json"))
        perm = reports[1].pop("permanence")
        assert perm["n_boundary_fixed_points"] == 3
        assert perm["status"] == "not-verified"
        assert reports[1] == reports[0]

    #: name -> (config, SHA-256 of report.json), recorded before the raw
    #: fitness values, the payoff flag cache and the permanence notes were
    #: removed: the jacobian, the flags and the permanence certificate of a
    #: linear-fractional, an exponential (overflowing raw fitness) and a
    #: mutation rule; the mutation rule has no boundary fixed points. The
    #: zero-diagonal matrix's 1 x 1 faces are singular, so its vertices come
    #: from the face scan; its digest was recorded while vertices still had
    #: a branch of their own
    PINNED = {
        "zero-diagonal": (
            {"matrix": [[0, 1, 2], [1, 0, 3], [2, 3, 0]], "omega": 0.5,
             "check_permanence": True},
            "069527dd0fa8473973c7cd5a86c1330fb67bbf583aac9361103d8a414c6da269"),
        "a2": ({"matrix": A2, "omega": 0.5, "check_permanence": True},
               "38bd4f54306e4982b5aa6c25303d279b92223307977476df4288c8964b4aab96"),
        "exponential-40": (
            {"matrix": A2, "fitness": "exponential", "beta": 40,
             "check_permanence": True},
            "38b71db40857fc8d57a5a150d08ba2e8c98f65e50af6d9e5ebba3c6e815b6e0f"),
        "mutation": (
            {"matrix": A2, "omega": 0.5, "check_permanence": True,
             "mutation": [[0.98, 0.01, 0.01], [0.01, 0.98, 0.01], [0.01, 0.01, 0.98]]},
            "9bff76c2431e53448d81c0a1f7ccff440e8c5d5268d2d08c02fe73b0dbe009ac"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_permanence_report_is_pinned(self, tmp_path, name):
        cfg, digest = self.PINNED[name]
        out = tmp_path / "out"
        run_ok(["meanfield", "--config", write_config(tmp_path, "mf.json", cfg),
                "--out", str(out)])
        assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == digest

    def test_non_symmetric_matrix_report(self, tmp_path):
        cfg = write_config(tmp_path, "mf.json",
                           {"matrix": NON_SYMMETRIC, "omega": 0.5})
        out = tmp_path / "out"
        run_ok(["meanfield", "--config", cfg, "--out", str(out)])
        report = load_json(out, "report.json")
        chi = np.array([4, 5, 6]) / 15
        np.testing.assert_allclose(report["equilibrium"], chi, atol=1e-12)
        d_fd = finite_difference_jacobian(make_rule(NON_SYMMETRIC, omega=0.5), chi)
        np.testing.assert_allclose(np.array(report["jacobian"]) @ sum_zero_basis(3),
                                   d_fd @ sum_zero_basis(3), atol=1e-8)

    @pytest.mark.parametrize("beta", [0.3, 40.0])
    def test_exponential_report_at_any_beta(self, tmp_path, beta):
        # at beta = 40 the raw fitness exp(beta * (A2 chi)_i) overflows; the
        # derivative is taken at the scale of the shifted weights
        cfg = write_config(tmp_path, "mf.json",
                           {"matrix": A2, "fitness": "exponential", "beta": beta})
        out = tmp_path / "out"
        run_ok(["meanfield", "--config", cfg, "--out", str(out)])
        report = load_json(out, "report.json")
        rule = make_rule(A2, fitness="exponential", beta=beta)
        basis = sum_zero_basis(3)
        d = np.array(report["jacobian"]) @ basis
        d_fd = finite_difference_jacobian(rule, np.array(report["equilibrium"])) @ basis
        assert np.all(np.isfinite(d))
        assert np.abs(d - d_fd).max() <= 1e-7 * np.abs(d).max()

    def test_singular_matrix_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, "mf.json",
                           {"matrix": [[1, 1], [1, 1]], "omega": 0.5})
        result = run_wf(["meanfield", "--config", cfg,
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

    def test_zero_mass_equilibrium_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, "mf.json",
                           {"matrix": [[89, 57], [53, 21]], "omega": 0.5})
        result = run_wf(["meanfield", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "zero total mass" in result.stderr

    def test_unknown_field_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, "mf.json",
                           {"matrix": A2, "omega": 0.5, "bogus": 1})
        result = run_wf(["meanfield", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "config error:" in result.stderr
        assert "bogus" in result.stderr

    def test_manifest_checksums_match_outputs(self, tmp_path):
        cfg = write_config(tmp_path, "mf.json",
                           {"matrix": A2, "omega": 0.5})
        out = tmp_path / "out"
        run_ok(["meanfield", "--config", cfg, "--out", str(out)])
        manifest = load_json(out, "manifest.json")
        import hashlib
        for name, digest in manifest["outputs"].items():
            blob = (out / name).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == digest

    def test_resolved_config_round_trips(self, tmp_path):
        cfg = write_config(tmp_path, "mf.json",
                           {"matrix": A1, "omega_ratio": 1e-3})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_ok(["meanfield", "--config", cfg, "--out", str(out1)])
        run_ok(["meanfield", "--config",
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

    def test_seed_repeat_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", self.base_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_ok(["simulate", "--config", cfg, "--out", str(out1)])
        run_ok(["simulate", "--config", cfg, "--out", str(out2)])
        assert (out1 / "trajectory.csv").read_bytes() == \
            (out2 / "trajectory.csv").read_bytes()

    def test_vertex_start_is_constant(self, tmp_path):
        cfg = self.base_config()
        cfg.update({"initial": [1.0, 0.0, 0.0], "steps": 5})
        path = write_config(tmp_path, "sim.json", cfg)
        out = tmp_path / "out"
        run_ok(["simulate", "--config", path, "--out", str(out)])
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "step,count_1,count_2,count_3"
        assert len(lines) == 7
        for k, line in enumerate(lines[1:]):
            assert line == f"{k},500,0,0"

    def test_threshold_stop_recorded(self, tmp_path):
        cfg = self.base_config()
        cfg.update({"steps": 500, "stop_threshold": 0.05})
        path = write_config(tmp_path, "sim.json", cfg)
        out = tmp_path / "out"
        run_ok(["simulate", "--config", path, "--out", str(out)])
        manifest = load_json(out, "manifest.json")
        assert manifest["stopped_at"] is not None
        assert manifest["censored"] is False
        last = (out / "trajectory.csv").read_text().splitlines()[-1]
        counts = list(map(int, last.split(",")))[1:]
        assert min(counts) <= 0.05 * 500

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", self.base_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_ok(["simulate", "--config", cfg, "--out", str(out1)])
        run_ok(["simulate", "--config", cfg, "--seed", "99",
                "--out", str(out2)])
        assert (out1 / "trajectory.csv").read_bytes() != \
            (out2 / "trajectory.csv").read_bytes()
        assert load_json(out2, "manifest.json")["seed"] == 99

    def test_stride_rows_plus_stop_step_match_sample_path(self, tmp_path):
        cfg = self.base_config()
        cfg.update({"steps": 500, "stride": 7, "stop_threshold": 0.05, "seed": 13})
        path = write_config(tmp_path, "sim.json", cfg)
        out = tmp_path / "out"
        run_ok(["simulate", "--config", path, "--out", str(out)])
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

    def test_start_at_threshold_writes_one_row(self, tmp_path):
        cfg = self.base_config()
        cfg.update({"initial": [0.96, 0.02, 0.02], "stride": 7,
                    "stop_threshold": 0.05})
        path = write_config(tmp_path, "sim.json", cfg)
        out = tmp_path / "out"
        run_ok(["simulate", "--config", path, "--out", str(out)])
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
        # the path fixes at (100, 0) after one step, but the box of laws
        # around its start reaches (50, 50), where total fitness is zero
        "degenerate-box": (
            {"matrix": [[1, -3], [-3, 1]], "omega": 0.9, "N": 100,
             "initial": [0.98, 0.02], "steps": 50, "stride": 1, "seed": 1},
            "a7aa230a5aa8cae7783ec18c1ecf977683fd9a555c9fa90099e099d8c12b3265"),
    }

    @pytest.mark.parametrize("name", list(PINNED))
    def test_trajectory_bytes_are_pinned(self, tmp_path, name):
        cfg, digest = self.PINNED[name]
        path = write_config(tmp_path, "sim.json", cfg)
        out = tmp_path / "out"
        run_ok(["simulate", "--config", path, "--out", str(out)])
        blob = (out / "trajectory.csv").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest
        assert load_json(out, "manifest.json")["outputs"]["trajectory.csv"] == digest

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_csv_chunks_leave_the_bytes(self, tmp_path, monkeypatch, chunk):
        # every CSV table goes through one chunked writer: a pinned run of
        # each command that writes one keeps its digests at any chunk size
        monkeypatch.setattr(cli, "CSV_CHUNK", chunk)
        cfg, digest = self.PINNED["threshold-stride-7"]
        runs = [("simulate", cfg, [], {"trajectory.csv": digest}),
                *(("extinction", *case) for case in TestExtinction.PINNED),
                ("bounds", TestBounds.PINNED[0], [], TestBounds.PINNED[1])]
        for k, (command, cfg, args, digests) in enumerate(runs):
            out = tmp_path / f"out{k}"
            run_ok([command, "--config", config_path(tmp_path, cfg), *args,
                    "--out", str(out)])
            for name, digest in digests.items():
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() == \
                    digest, (command, name)

    def test_stopped_run_allocates_only_the_rows_it_reaches(self, tmp_path):
        # this run stops at step 2188: a 10**10-step budget must not
        # allocate 10**10 rows up front
        cfg, _ = self.PINNED["threshold-stride-7"]
        outputs = []
        for steps in (5000, 10**10):
            path = write_config(tmp_path, f"sim{steps}.json", {**cfg, "steps": steps})
            out = tmp_path / f"out{steps}"
            run_ok(["simulate", "--config", path, "--out", str(out)])
            assert load_json(out, "manifest.json")["stopped_at"] == 2188
            outputs.append((out / "trajectory.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("law", BAD_LAWS.values(), ids=BAD_LAWS.keys())
    def test_law_that_multinomial_refuses_exits_two(self, tmp_path, monkeypatch, law):
        # checked before the C draw, which would not refuse it as numpy's
        # Generator.multinomial does
        monkeypatch.setattr(chain, "sampling_probs",
                            lambda rule, freqs: np.broadcast_to(law, freqs.shape).copy())
        result = run_wf(["simulate", "--config",
                         write_config(tmp_path, "sim.json", self.base_config()),
                         "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: sampling law")
        assert len(result.stderr.splitlines()) == 1

    def test_path_past_the_address_space_exits_two(self, tmp_path):
        # numpy refuses a (10**13 + 1, 3) int64 path at once, allocating nothing
        cfg = self.base_config()
        cfg["steps"] = 10**13
        path = write_config(tmp_path, "sim.json", cfg)
        result = run_wf(["simulate", "--config", path,
                         "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1

    @pytest.mark.parametrize("n", [2**40, 2**53])
    def test_start_whose_floors_overshoot_runs(self, tmp_path, n):
        # the start sums to 1 + 8e-10, which the schema accepts; its floors
        # at N add up to more than N
        cfg = write_config(tmp_path, "sim.json", {
            "matrix": [[1, 2], [2, 1]], "omega": 0.5, "N": n,
            "initial": [0.5000000004, 0.5000000004], "steps": 3, "seed": 1})
        out = tmp_path / "out"
        run_ok(["simulate", "--config", cfg, "--out", str(out)])
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        assert rows[0] == f"0,{n // 2},{n // 2}"
        assert all(sum(map(int, row.split(",")[1:])) == n for row in rows)

    def test_unknown_field_exits_one(self, tmp_path):
        cfg = self.base_config()
        cfg["stop_treshold"] = 0.05
        path = write_config(tmp_path, "sim.json", cfg)
        result = run_wf(["simulate", "--config", path,
                         "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "stop_treshold" in result.stderr

    def test_missing_fields_exit_one(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json",
                           {"matrix": A2, "omega": 0.5})
        result = run_wf(["simulate", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "config error:" in result.stderr
        assert "missing" in result.stderr


# ----------------------------------------------------------------------
# extinction
# ----------------------------------------------------------------------

class TestExtinction:
    def test_smoke_config_reduced_replicates(self, tmp_path):
        out = tmp_path / "out"
        run_ok(["extinction", "--config",
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

    def test_thread_count_never_changes_outputs(self, tmp_path):
        args = ["extinction", "--config",
                str(CONFIG_DIR / "table2_smoke.json"), "--replicates", "8"]
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        run_ok(args + ["--threads", "1", "--out", str(out1)])
        run_ok(args + ["--threads", "2", "--out", str(out2)])
        for name in ("summary.json", "trials.csv", "histogram.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_rerun_reproduces_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_ok(["extinction", "--config",
                str(CONFIG_DIR / "table2_smoke.json"),
                "--replicates", "6", "--out", str(out1)])
        run_ok(["extinction", "--config",
                str(out1 / "manifest.json"), "--out", str(out2)])
        for name in ("summary.json", "trials.csv", "histogram.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_trials(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        base = ["extinction", "--config",
                str(CONFIG_DIR / "table2_smoke.json"), "--replicates", "6"]
        run_ok(base + ["--out", str(out1)])
        run_ok(base + ["--seed", "404", "--out", str(out2)])
        assert (out1 / "trials.csv").read_bytes() != \
            (out2 / "trials.csv").read_bytes()

    #: (config, extra arguments, SHA-256 of each output), recorded before
    #: simplex points and drift reports became plain arrays: a moved draw,
    #: stop or distance changes a digest.  The second case is the one
    #: absorption run through the command.
    PINNED = [
        (CONFIG_DIR / "table2_smoke.json", ["--replicates", "20"], {
            "summary.json":
                "e63d390a78d47b5e61bc52137ec2ef605e8545dc4c8591d083a75854db936e98",
            "trials.csv":
                "941bc926f1d769b465d6c9cbddc19c273a800c9794674100b280564090777210",
            "histogram.csv":
                "7995da062a6304a1122ee204c5e8ffa34271b7cc771d0a1a699eb42ba8c03e86",
        }),
        ({"matrix": A2, "omega": 0.5, "N": 50, "initials": [CHI2.tolist()],
          "replicates": 12, "seed": 3, "mode": "absorption"}, [], {
            "summary.json":
                "18c428f4e80cb1794aa7333c8652a042cedee73ec7d3f6622157dccadd81fb64",
            "trials.csv":
                "e43d592ae49cd711d31a2efb4d2c1a4b6ad0f6eefc29dc5ad8394d8a3aa8e127",
            "histogram.csv":
                "21fd133f34f9bf80eb3e3f489f43cb39543bae258477571d489ab36a3f4052ee",
        }),
    ]

    def test_outputs_are_pinned(self, tmp_path):
        for k, (cfg, args, digests) in enumerate(self.PINNED):
            out = tmp_path / f"out{k}"
            run_ok(["extinction", "--config", config_path(tmp_path, cfg),
                    *args, "--threads", "2", "--out", str(out)])
            for name, digest in digests.items():
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() == \
                    digest, (k, name)

    @pytest.mark.parametrize("law", BAD_LAWS.values(), ids=BAD_LAWS.keys())
    def test_law_that_multinomial_refuses_exits_two(self, tmp_path, monkeypatch, law):
        monkeypatch.setattr(extinction, "sampling_probs",
                            lambda rule, freqs: np.tile(law, (len(freqs), 1)))
        cfg = {"matrix": A2, "omega": 0.5, "N": 50, "initials": [[0.4, 0.3, 0.3]],
               "replicates": 4, "seed": 3}
        result = run_wf(["extinction", "--config", config_path(tmp_path, cfg),
                         "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: sampling law")
        assert len(result.stderr.splitlines()) == 1

    def test_bin_count_past_memory_exits_two_before_any_trial(self, tmp_path,
                                                              monkeypatch):
        # bin_width 1e-300 lies in (0, 1.5] but asks for 1.5e300 bins
        def no_trials(*args):
            raise AssertionError("a trial block ran")

        monkeypatch.setattr(extinction, "_run_chunk", no_trials)
        cfg = {"matrix": A2, "omega": 0.5, "N": 50, "initials": [[0.8, 0.1, 0.1]],
               "replicates": 4, "seed": 3, "bin_width": 1e-300}
        result = run_wf(["extinction", "--config", config_path(tmp_path, cfg),
                         "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ") and "bin_width 1e-300" in result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert not (tmp_path / "out").exists()


# ----------------------------------------------------------------------
# qsd
# ----------------------------------------------------------------------

class TestQsd:
    def test_single_interior_state_toy(self, tmp_path):
        cfg = write_config(tmp_path, "qsd.json", {
            "matrix": [[1, 1], [1, 1]], "omega": 0.5,
            "mutation": [[0.5, 0.5], [0.5, 0.5]], "N": 2,
        })
        out = tmp_path / "out"
        run_ok(["qsd", "--config", cfg, "--out", str(out)])
        res = load_json(out, "qsd.json")["results"][0]
        assert res["eigenvalue"] == pytest.approx(0.5, abs=1e-12)
        assert res["leak_residual"] < 1e-10
        assert res["interior_states"] == 1

    def test_ladder_is_increasing(self, tmp_path):
        cfg = write_config(tmp_path, "qsd.json",
                           {"matrix": A2, "omega": 0.5, "N": [4, 6, 8]})
        out = tmp_path / "out"
        run_ok(["qsd", "--config", cfg, "--out", str(out)])
        results = load_json(out, "qsd.json")["results"]
        eigs = [r["eigenvalue"] for r in results]
        assert eigs == sorted(eigs)
        assert eigs[0] < eigs[-1]
        assert all(r["leak_residual"] < 1e-10 for r in results)

    def test_state_cap_exits_two(self, tmp_path):
        # 246,051 lattice states at N=700 (N=200 ran into the byte cap on the
        # T x T block before the interior kernel was applied through tables)
        cfg = write_config(tmp_path, "qsd.json",
                           {"matrix": A2, "omega": 0.5, "N": 700})
        result = run_wf(["qsd", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "error:" in result.stderr

    def test_table_byte_cap_exits_two(self, tmp_path):
        # N=217 is the last M=3 rung whose power tables fit BLOCK_BYTE_CAP
        cfg = write_config(tmp_path, "qsd.json",
                           {"matrix": A2, "omega": 0.5, "N": 218})
        result = run_wf(["qsd", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "error: interior power tables (23436, 432)" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_environment_does_not_change_the_result(self, tmp_path):
        # the library reads no environment variable; WF_MAX_STATES once
        # lowered the lattice cap
        cfg = write_config(tmp_path, "qsd.json", {
            "matrix": A2, "omega": 0.5, "N": [6, 8], "include_weights": True})
        blobs = []
        for env in ({}, {"WF_MAX_STATES": "1"}):
            out = tmp_path / f"out{len(blobs)}"
            result = run_wf(["qsd", "--config", cfg, "--out", str(out)],
                            env=env, catch_exceptions=False)
            assert result.exit_code == 0, result.stderr
            blobs.append((out / "qsd.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_reducible_interior_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, "qsd.json", {
            "matrix": [[1, 1], [1, 1]], "omega": 0.5,
            "mutation": [[1.0, 0.0], [1.0, 0.0]], "N": 3,
        })
        result = run_wf(["qsd", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("n,exit_code", [(200, 0), (300, 2), (400, 2)])
    def test_survival_factor_not_below_one_exits_two(self, tmp_path, n, exit_code):
        # the leak of this game at N=300 and 400 is below float64's resolution
        # of 1; qsd.json once read eigenvalue 1.0000000000000002 and exited 0
        cfg = write_config(tmp_path, "qsd.json",
                           {"matrix": [[1, 3], [2, 1]], "omega": 0.5, "N": n})
        result = run_wf(["qsd", "--config", cfg, "--out", str(tmp_path / "out")])
        assert result.exit_code == exit_code, result.stderr
        if exit_code:
            assert result.stderr.startswith("error: survival factor")
            assert f"N={n}" in result.stderr
            assert len(result.stderr.splitlines()) == 1
            assert not (tmp_path / "out").exists()
        else:
            assert load_json(tmp_path / "out", "qsd.json")["results"][0]["eigenvalue"] < 1

    def test_outputs_are_pinned(self, tmp_path):
        # SHA-256 recorded when the interior kernel came to be applied through
        # power tables: a moved bit in a step moves a weight, and the digest.
        # The products run on one OpenBLAS thread, so the digest holds at any
        # thread count or core count; they still take their bits from the
        # BLAS kernel of the CPU (forcing OpenBLAS's Sandybridge kernel moves
        # the digest)
        cfg = write_config(tmp_path, "qsd.json", {
            "matrix": A2, "omega": 0.5, "N": [30, 45], "include_weights": True})
        out = tmp_path / "out"
        run_ok(["qsd", "--config", cfg, "--out", str(out)])
        assert hashlib.sha256((out / "qsd.json").read_bytes()).hexdigest() == (
            "80c834659771ae53b10aac2945aa1d40f18f85772285354e1b08ea76a3a83851")

    def test_weights_included_on_request(self, tmp_path):
        cfg = write_config(tmp_path, "qsd.json", {
            "matrix": A2, "omega": 0.5, "N": 6, "include_weights": True,
        })
        out = tmp_path / "out"
        run_ok(["qsd", "--config", cfg, "--out", str(out)])
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

    def test_table_shape_and_header(self, tmp_path):
        cfg = write_config(tmp_path, "b.json", self.base_config())
        out = tmp_path / "out"
        run_ok(["bounds", "--config", cfg, "--out", str(out)])
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

    def test_expansive_map_flagged_inapplicable(self, tmp_path):
        cfg = write_config(tmp_path, "b.json", self.base_config())
        out = tmp_path / "out"
        run_ok(["bounds", "--config", cfg, "--out", str(out)])
        entry = load_json(out, "bounds_summary.json")["expectation"][0]
        assert entry["applicable"] is False
        assert entry["expectation_bound"] is None
        assert entry["censored_mean_tau"] >= 1.0

    def test_manifest_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "b.json", self.base_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_ok(["bounds", "--config", cfg, "--out", str(out1)])
        run_ok(["bounds", "--config", str(out1 / "manifest.json"),
                "--out", str(out2)])
        for name in ("bounds.csv", "bounds_summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_ensemble_past_the_address_space_exits_two(self, tmp_path):
        cfg = self.base_config()
        cfg.update({"replicates": 10**13, "lipschitz_samples": 10})
        path = write_config(tmp_path, "b.json", cfg)
        result = run_wf(["bounds", "--config", path,
                         "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1

    def test_expectation_bound_past_the_float_range_exits_two(self, tmp_path):
        # strong mutation contracts the map, so rho < 1 and the expectation
        # bound exp((1 - rho)^2 eps^2 N / 2) / (2M) is past the float range
        cfg = {"matrix": A2, "omega": 0.5,
               "mutation": [[0.4, 0.3, 0.3], [0.3, 0.4, 0.3], [0.3, 0.3, 0.4]],
               "N": [20000], "initial": [0.3, 0.4, 0.3], "epsilons": [0.5],
               "horizon": 3, "replicates": 10, "seed": 1}
        path = write_config(tmp_path, "b.json", cfg)
        result = run_wf(["bounds", "--config", path,
                         "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1
        assert "N=20000" in result.stderr and "epsilon=0.5" in result.stderr
        assert not (tmp_path / "out").exists()

    #: (config, SHA-256 of each output), recorded before the finite
    #: differences were stacked: a moved probe derivative or draw changes
    #: the Lipschitz estimate or a count, and with it a digest
    PINNED = (
        {"matrix": A2, "omega": 0.5, "N": [200, 800], "epsilons": [0.05, 0.1],
         "horizon": 20, "replicates": 500, "seed": 7, "lipschitz_samples": 50},
        {"bounds.csv": "a650ddb817e39e7d4510381574c1bac929cb789e379bdfed73e8a9327c48a4fe",
         "bounds_summary.json":
             "eda7ad6acbae97476af7d382ff39da8213ff1da8f59f7dfe46af0f610613d6cd"},
    )

    def test_outputs_are_pinned(self, tmp_path):
        cfg, digests = self.PINNED
        path = write_config(tmp_path, "b.json", cfg)
        out = tmp_path / "out"
        run_ok(["bounds", "--config", path, "--out", str(out)])
        for name, digest in digests.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_memory_is_flat_in_the_horizon(self):
        # each N's ensemble keeps running-maximum records, a few per
        # replicate, not one deviation per step: at horizon 1000 the run
        # traces far less than one (replicates, horizon) float matrix
        def config(replicates):
            return resolve("bounds", {"matrix": A2, "omega": 0.5, "N": [200, 800],
                                      "epsilons": [0.05, 0.1], "horizon": 1000,
                                      "replicates": replicates, "seed": 5,
                                      "lipschitz_samples": 10})

        cfg = config(4000)
        rule = make_rule(**rule_keywords(cfg))
        # a small run first, so the modules numpy imports on first use are
        # not counted against the ensemble
        cli._run_bounds(config(2), rule, 1)
        tracemalloc.start()
        try:
            cli._run_bounds(cfg, rule, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.15 * 8 * cfg["replicates"] * cfg["horizon"]

    def test_missing_fields_exit_one(self, tmp_path):
        cfg = write_config(tmp_path, "b.json", {"matrix": A2, "omega": 0.5})
        result = run_wf(["bounds", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "missing" in result.stderr

    def test_epsilon_past_the_square_range_has_a_zero_tail_bound(self, tmp_path):
        # epsilon^2 is past the float range: every tail bound underflows to 0,
        # and the expansive map has no expectation bound
        cfg = write_config(tmp_path, "b.json", dict(self.base_config(), epsilons=[1e200]))
        out = tmp_path / "out"
        run_ok(["bounds", "--config", cfg, "--out", str(out)])
        lines = (out / "bounds.csv").read_text().splitlines()[1:]
        assert len(lines) == 10
        assert all(line.split(",")[7] == "0.0" for line in lines)
        assert load_json(out, "bounds_summary.json")["expectation"][0]["applicable"] is False

    def test_expectation_exponent_past_the_float_range_exits_two(self, tmp_path):
        # the contracting map of the expectation-bound test above, with
        # epsilon^2 itself past the float range
        cfg = {"matrix": A2, "omega": 0.5,
               "mutation": [[0.4, 0.3, 0.3], [0.3, 0.4, 0.3], [0.3, 0.3, 0.4]],
               "N": [50], "initial": [0.3, 0.4, 0.3], "epsilons": [1e200],
               "horizon": 3, "replicates": 10, "seed": 1}
        path = write_config(tmp_path, "b.json", cfg)
        result = run_wf(["bounds", "--config", path,
                         "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ") and "epsilon=1e+200" in result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_default_start_off_the_interior_exits_two(self, tmp_path):
        # the equal-payoff profile of this matrix is (-1, 2): no default start
        cfg = dict(self.base_config(), matrix=[[3, 1], [2, 0.5]])
        path = write_config(tmp_path, "b.json", cfg)
        result = run_wf(["bounds", "--config", path,
                         "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "[-1.0, 2.0]" in result.stderr and "initial" in result.stderr
        assert not (tmp_path / "out").exists()


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------

class TestPlumbing:
    def test_missing_config_path(self, tmp_path):
        result = run_wf(["meanfield",
                         "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "config error:" in result.stderr

    def test_nonexistent_config_file(self, tmp_path):
        result = run_wf(["meanfield", "--config",
                         str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "not found" in result.stderr

    def test_invalid_json_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = run_wf(["meanfield", "--config", str(bad),
                         "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "not valid JSON" in result.stderr

    @pytest.mark.parametrize("command", ["simulate", "extinction"])
    def test_omega_and_ratio_together_exit_one(self, tmp_path, command):
        cfg = start_config(command, [0.8, 0.1, 0.1])
        cfg["omega_ratio"] = 1.0
        path = write_config(tmp_path, "c.json", cfg)
        result = run_wf([command, "--config", path,
                         "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "omega_ratio" in result.stderr

    @pytest.mark.parametrize("ratio", [1e16, 1e300])
    def test_omega_ratio_rounding_omega_to_one_exits_one(self, tmp_path, ratio):
        # r / (1 + r) is 1.0 in float64 from r = 1e16; the error names the
        # field the config set, not the omega it resolves to
        cfg = {"matrix": A2, "omega_ratio": ratio}
        assert_config_error(invoke("meanfield", cfg, tmp_path), "omega_ratio")
        assert resolve("meanfield", {"matrix": A2, "omega_ratio": 9e15})["omega"] < 1.0

    @pytest.mark.parametrize("start", [
        [0.8, 0.3, 0.1], [0.6, 0.3, 0.0], [0.8, 0.2], [1.2, -0.1, -0.1],
        [float("nan"), 0.5, 0.5],
    ], ids=["sum-above-1", "sum-below-1", "length", "negative", "nan"])
    @pytest.mark.parametrize("command", ["simulate", "extinction", "bounds"])
    def test_malformed_start_exits_one(self, tmp_path, command, start):
        path = write_config(tmp_path, "c.json", start_config(command, start))
        result = run_wf([command, "--config", path,
                         "--out", str(tmp_path / "out")])
        assert result.exit_code == 1, result.stderr
        assert "config error: initial condition" in result.stderr

    def test_version(self):
        result = run_wf(["--version"])
        assert (result.exit_code, result.output) == (0, "wf, version 0.1.0\n")

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_help_names_the_flags_and_the_runner(self, command):
        result = run_wf([command, "--help"])
        assert result.exit_code == 0, result.output
        for flag in ("--config", "--seed", "--replicates", "--threads", "--out"):
            assert flag in result.output
        words = " ".join(result.output.split())
        assert " ".join(cli.RUNNERS[command].__doc__.split()) in words

    @pytest.mark.parametrize("args", [
        ["meanfield", "--bogus"],
        ["simulate", "--seed", "x"],
        [],
        ["meanfield", "--conf", "c.json"],      # no abbreviation of a flag
    ], ids=["unknown-flag", "non-integer-seed", "no-command", "abbreviated-flag"])
    def test_usage_error_exits_two(self, args):
        result = run_wf(args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("usage: wf")
        assert result.output == result.stderr
        assert "Traceback" not in result.output

    def test_readme_quick_start_imports(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Library quick start", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        imports = [line for line in block.splitlines()
                   if line.startswith(("import ", "from "))]
        assert imports
        exec("\n".join(imports), {})

    def test_readme_examples_run(self, tmp_path):
        # every JSON config under a "### `wf <command>`" heading runs as is
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        ran = []
        for section in re.split(r"^#+ ", readme, flags=re.M):
            heading = re.match(r"`wf (\w+)`", section)
            if heading is None:
                continue
            command = heading.group(1)
            for i, block in enumerate(re.findall(r"```json\n(.*?)```", section, re.S)):
                cfg = tmp_path / f"{command}{i}.json"
                cfg.write_text(block)
                run_ok([command, "--config", str(cfg),
                        "--out", str(tmp_path / cfg.stem)])
                ran.append(command)
        assert ran == ["meanfield", "simulate", "qsd", "bounds"]

    #: commands that draw no random numbers, with a config each
    NON_SAMPLING = [
        ("qsd", {"matrix": A2, "omega": 0.5, "N": [6, 12], "include_weights": True}),
        ("meanfield", {"matrix": A2, "omega": 0.5, "check_permanence": True}),
    ]

    @staticmethod
    def fresh_env(blas_threads: str | None = None) -> dict:
        """The environment of a fresh interpreter that imports the package
        from this tree, with ``OPENBLAS_NUM_THREADS`` set to ``blas_threads``
        (unset for None, as OpenBLAS's other thread variables are)."""
        src = str(Path(wfsim.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            env.pop(name, None)
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        return env

    @classmethod
    def last_line(cls, code: str, blas_threads: str | None = None) -> str:
        """The last line that a fresh interpreter prints running ``code``."""
        run = subprocess.run([sys.executable, "-c", code], env=cls.fresh_env(blas_threads),
                             check=True, capture_output=True, text=True)
        return run.stdout.strip().splitlines()[-1]

    @classmethod
    def modules_after(cls, code: str, package: str) -> str:
        """The modules of ``package`` (a dotted name) that a fresh
        interpreter holds after running ``code``."""
        code += (f"\nprint(sorted(m for m in sys.modules if m == {package!r}"
                 f" or m.startswith({package + '.'!r})))\n")
        return cls.last_line(code)

    def test_package_import_loads_no_numpy(self):
        # so that wfsim.cli can set OpenBLAS's thread count before numpy loads
        assert self.modules_after("import sys, wfsim", "numpy") == "[]"

    #: the modules of one command or a few: each runner imports its own
    COMMAND_MODULES = {"wfsim.chain", "wfsim.extinction", "wfsim.deviation", "wfsim.meanfield"}

    def test_cli_import_loads_no_command_module(self):
        # every `wf` process compiles and loads only what its command runs
        loaded = ast.literal_eval(self.modules_after("import sys, wfsim.cli", "wfsim"))
        assert loaded and self.COMMAND_MODULES.isdisjoint(loaded)

    def test_simulate_loads_only_the_chain(self, tmp_path):
        cfg = {"matrix": A2, "omega": 0.5, "N": 50, "initial": [0.8, 0.1, 0.1],
               "steps": 20, "seed": 1}
        code = self.command_code(tmp_path, "simulate", cfg)
        loaded = set(ast.literal_eval(self.modules_after(code, "wfsim")))
        assert loaded & self.COMMAND_MODULES == {"wfsim.chain"}

    def cli_blas_threads(self, blas_threads: str | None) -> tuple[int, int]:
        """(OpenBLAS threads, OS threads) of a fresh interpreter after
        ``import wfsim.cli``.  Skips without /proc or OpenBLAS; fails where
        numpy names OpenBLAS but no thread getter is found."""
        if not Path("/proc/self/task").is_dir():
            pytest.skip("no /proc/self/task to count threads in")
        code = ("import json, os, wfsim.cli\n"
                "import numpy as np\n"
                "from wfsim.chain import _openblas_threads\n"
                "functions = _openblas_threads()\n"
                "blas = np.show_config(mode='dicts')['Build Dependencies']['blas']['name']\n"
                "print(json.dumps([functions and functions[0](), blas,\n"
                "                  len(os.listdir('/proc/self/task'))]))\n")
        blas, name, tasks = json.loads(self.last_line(code, blas_threads))
        if blas is None:
            assert "openblas" not in name.lower(), \
                f"numpy's BLAS is {name}, but no OpenBLAS thread getter was found"
            pytest.skip(f"numpy's BLAS is {name}, not OpenBLAS")
        return blas, tasks

    def test_cli_loads_openblas_on_one_thread(self):
        # no command uses a second BLAS thread, and a pool's idle worker
        # costs every wf process start-up time and CPU
        assert self.cli_blas_threads(None) == (1, 1)

    def test_cli_keeps_an_exported_blas_thread_count(self):
        blas, _ = self.cli_blas_threads("2")
        # OpenBLAS caps the count at the usable cores
        assert blas == min(2, len(os.sched_getaffinity(0)))

    @pytest.mark.parametrize("command,cfg", [
        ("qsd", {"matrix": A2, "omega": 0.5, "N": [30, 45], "include_weights": True}),
        ("simulate", {"matrix": A2, "omega": 0.5, "N": 50, "initial": [0.8, 0.1, 0.1],
                      "steps": 200, "seed": 1}),
        ("bounds", {"matrix": A2, "omega": 0.5, "N": [50, 200], "epsilons": [0.1],
                    "horizon": 5, "replicates": 20, "seed": 1,
                    "lipschitz_samples": 20}),
    ])
    def test_outputs_do_not_depend_on_the_blas_variable(self, tmp_path, command, cfg):
        # in-process tests run on the numpy pytest loaded; only a fresh
        # `wf` process sees the variable it was started with
        path = write_config(tmp_path, "c.json", cfg)
        outputs = {}
        for threads in (None, "1", "2"):
            out = tmp_path / f"out-{threads}"
            subprocess.run([sys.executable, "-m", "wfsim.cli", command, "--config", path,
                            "--out", str(out)], env=self.fresh_env(threads), check=True,
                           capture_output=True)
            outputs[threads] = {name: (out / name).read_bytes()
                                for name in load_json(out, "manifest.json")["outputs"]}
        assert outputs[None] and outputs["1"] == outputs[None] == outputs["2"]

    #: one small config per `wf` command
    EVERY_COMMAND = [
        ("extinction", {"matrix": A2, "omega": 0.5, "N": 50, "initials": [[0.8, 0.1, 0.1]],
                        "replicates": 4, "seed": 1, "sample_window": [1, 5]}),
        ("bounds", {"matrix": A2, "omega": 0.5, "N": [50, 200], "epsilons": [0.1],
                    "horizon": 5, "replicates": 20, "seed": 1, "lipschitz_samples": 20}),
        ("simulate", {"matrix": A2, "omega": 0.5, "N": 50, "initial": [0.8, 0.1, 0.1],
                      "steps": 20, "seed": 1}),
        *NON_SAMPLING,
    ]

    # beside scipy, no `wf` path loads it: a path that imported it where
    # it is installed would pass the blocked-scipy test below unseen

    def test_cli_and_an_ensemble_load_no_scipy(self):
        code = (
            "import sys, wfsim.cli\n"
            "from wfsim.extinction import ExperimentSpec, run_experiment\n"
            f"run_experiment(ExperimentSpec.from_config({self.EVERY_COMMAND[0][1]!r}))\n")
        assert self.modules_after(code, "scipy") == "[]"

    @pytest.mark.parametrize("command,cfg", EVERY_COMMAND[1:3])
    def test_bounds_and_simulate_load_no_scipy(self, tmp_path, command, cfg):
        assert self.modules_after(self.command_code(tmp_path, command, cfg), "scipy") == "[]"

    @pytest.mark.parametrize("command,cfg", NON_SAMPLING)
    def test_qsd_and_meanfield_load_no_scipy(self, tmp_path, command, cfg):
        assert self.modules_after(self.command_code(tmp_path, command, cfg), "scipy") == "[]"

    @pytest.mark.parametrize("command,cfg", EVERY_COMMAND)
    def test_no_command_loads_numpy_ma(self, tmp_path, command, cfg):
        # np.median and np.unique import numpy.ma (~1 MiB resident, ~10 ms);
        # wf bounds runs estimate_lipschitz and simulate_deviations
        assert self.modules_after(self.command_code(tmp_path, command, cfg), "numpy.ma") == "[]"

    #: criterion 09's chains: (rule keywords, N)
    CRITERION_09_CHAINS = [
        ({"matrix": A2, "omega": 0.5}, 6),
        ({"matrix": A2, "omega": 0.5,
          "mutation": (np.full((3, 3), 1.0 / 3.0) * 0.15 + np.eye(3) * 0.85).tolist()}, 6),
        ({"matrix": A2, "omega": 0.5,
          "mutation": [[0.9, 0.1, 0.0], [0.1, 0.9, 0.0], [0.0, 0.0, 1.0]]}, 6),
        ({"matrix": A2, "omega": 0.5,
          "mutation": [[0.9, 0.1, 0.0], [0.1, 0.9, 0.0], [0.0, 0.0, 1.0]]}, 100),
    ]

    @classmethod
    def scipy_free_results(cls) -> str:
        """Source that prints, as JSON, the classes of criterion 09's chains,
        criterion 06's exact one-step cell (N=2000, epsilon=0.1) and the
        stationary covariance of A1 and A2 at their interior equilibria:
        the three results whose functions once imported scipy."""
        return (
            "import json\n"
            "from wfsim.chain import build_exact_chain\n"
            "from wfsim.deviation import one_step_exceedance_upper\n"
            "from wfsim.fitness import make_rule\n"
            "from wfsim.gaussian import noise_covariance, stationary_covariance\n"
            "from wfsim.meanfield import iterate, solve_interior_equilibrium\n"
            "from wfsim.simplex import round_to_lattice\n"
            "results = {'classes': [], 'covariances': []}\n"
            f"for keywords, n in {cls.CRITERION_09_CHAINS!r}:\n"
            "    chain = build_exact_chain(make_rule(**keywords), n)\n"
            "    results['classes'].append([\n"
            "        chain.scc_labels.tolist(), chain.periods, chain.transient.tolist(),\n"
            "        [members.tolist() for members in chain.recurrent_classes]])\n"
            f"rule = make_rule({A2!r}, omega=0.5)\n"
            f"x0 = round_to_lattice({CHI2.tolist()!r}, 2000)\n"
            "results['union'] = one_step_exceedance_upper(rule, x0, 0.1)\n"
            f"for matrix in {[A1, A2]!r}:\n"
            "    rule = make_rule(matrix, omega=0.5)\n"
            "    chi = iterate(rule, solve_interior_equilibrium(matrix).vector, 30).states[-1]\n"
            "    results['covariances'].append(stationary_covariance(\n"
            "        rule.jacobian(chi), noise_covariance(rule.update_probs(chi))).tolist())\n"
            "print(json.dumps(results))\n")

    def test_library_and_every_command_run_with_scipy_blocked(self, tmp_path):
        # numpy is the only runtime dependency: with every import of scipy
        # (test-only) and of click (the old command line) refused, the
        # functions that once used scipy (criteria 06 and 09, the stationary
        # covariance) give the results they give beside scipy, and every
        # `wf` command runs. Their scipy references are in test_chain,
        # test_deviation and test_gaussian
        commands = ""
        for command, cfg in self.EVERY_COMMAND:
            (tmp_path / command).mkdir()
            commands += self.command_code(tmp_path / command, command, cfg)
        blocked = json.loads(self.last_line(
            "import sys\nsys.modules['scipy'] = sys.modules['click'] = None\n"
            + commands + self.scipy_free_results()))
        assert all((tmp_path / command / "out" / "manifest.json").is_file()
                   for command, _ in self.EVERY_COMMAND)
        assert blocked == json.loads(self.last_line(self.scipy_free_results()))
        assert 0 < blocked["union"] < 1e-20      # criterion 06: ~7.4e-23

    @pytest.mark.parametrize("command,cfg", NON_SAMPLING)
    def test_qsd_and_meanfield_load_no_numpy_random(self, tmp_path, command, cfg):
        # the lockstep trials resolve numpy's C multinomial on first use, so
        # commands that never sample do not load numpy.random (and OpenSSL)
        code = self.command_code(tmp_path, command, cfg)
        assert self.modules_after(code, "numpy.random") == "[]"

    def test_extinction_parent_loads_no_numpy_random(self, tmp_path):
        # the trials, their streams and the C multinomial run in the two
        # workers; the parent only merges rows. Loading numpy.random there
        # (a block run in the parent, or the C draw resolved before the
        # fork) raised the run's peak RSS by 3-7 MiB. Two cores are
        # reported whatever the machine has, so the pool starts
        cfg = {"matrix": A2, "omega": 0.5, "N": 50, "initials": [[0.8, 0.1, 0.1]],
               "replicates": 6, "seed": 1, "sample_window": [1, 5]}
        code = ("import os\nos.cpu_count = lambda: 2\n"
                + self.command_code(tmp_path, "extinction", cfg, "--threads", "2"))
        assert self.modules_after(code, "numpy.random") == "[]"
        assert len((tmp_path / "out" / "trials.csv").read_text().splitlines()) == 7

    @staticmethod
    def command_code(tmp_path, command: str, cfg: dict, *args: str) -> str:
        """Source that runs ``wf <command>`` on ``cfg`` with ``args`` and
        requires exit 0."""
        path = write_config(tmp_path, "c.json", cfg)
        return (
            "import sys\n"
            "from wfsim.cli import main\n"
            f"sys.argv = ['wf', {command!r}, '--config', {path!r},\n"
            f"            '--out', {str(tmp_path / 'out')!r}, *{list(args)!r}]\n"
            "try:\n"
            "    main()\n"
            "except SystemExit as exc:\n"
            "    assert exc.code in (0, None), exc.code\n")

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
    return run_wf([command, "--config", path, "--out", str(out_dir / "out"), *args])


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

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_one_type_matrix_exits_one(self, tmp_path, command):
        cfg = (small_config(command) if command in ("meanfield", "qsd")
               else start_config(command, [1.0]))
        cfg["matrix"] = [[1.0]]
        result = invoke(command, cfg, tmp_path)
        assert_config_error(result, "matrix", "at least 2 types")
        assert "Traceback" not in result.output

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
        "".join(traceback.format_exception(result.exception))


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
        "".join(traceback.format_exception(result.exception))
    try:
        interior = solve_interior_equilibrium(matrix).is_interior
    except WfsimError:  # singular or ill-conditioned: no trusted equilibrium
        interior = False
    assert result.exit_code in ((0,) if interior else (0, 2)), result.stderr
