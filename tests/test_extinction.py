"""Tests for metastability and route-to-extinction experiments."""

import concurrent.futures
import gc
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from wfsim import extinction, fitness
from wfsim.errors import (ConfigError, DimensionMismatch, DomainError, InvalidNormalization,
                          PreconditionError)
from wfsim.extinction import (
    ExperimentSpec,
    _experiment_context,
    _run_chunk,
    increasing_proportion_trend,
    least_fit,
    run_experiment,
    run_trial_absorption,
    run_trial_threshold,
    trial_rng,
)
from wfsim.fitness import make_rule
from wfsim.simplex import round_to_lattice

from conftest import A1, A2, BAD_LAWS, CHI1, CHI2, neutral_rule


# ----------------------------------------------------------------------
# least-fit analysis at the equilibrium
# ----------------------------------------------------------------------

class TestLeastFit:
    def test_benchmark_a2(self, rule_a2):
        assert least_fit(rule_a2, CHI2) == (1,)

    def test_benchmark_a1(self, rule_a1):
        assert least_fit(rule_a1, CHI1) == (1,)

    def test_equilibrium_image_reduces_to_coordinate_minima(self, rule_a2):
        # at an interior fixed point the expected next shares are the shares
        # themselves: the least-fit type holds the smallest coordinate
        order = np.argsort(CHI2)
        assert least_fit(rule_a2, CHI2) == (int(order[0]) + 1,)

    def test_uniform_image_rejected(self, rule_two):
        with pytest.raises(DomainError, match="uniform"):
            least_fit(rule_two, np.array([0.5, 0.5]))

    def test_minimum_attained_exactly_on_least_fit_set(self, rule_a1):
        image = rule_a1.update_probs(CHI1)
        mask = np.isin(np.arange(1, 4), least_fit(rule_a1, CHI1))
        assert np.all(image[mask] == image.min())
        assert np.all(image[~mask] > image.min())


# ----------------------------------------------------------------------
# single threshold-stopped trials
# ----------------------------------------------------------------------

class TestRunTrialThreshold:
    def test_starting_at_the_threshold_stops_immediately(self, rule_a2):
        x0 = round_to_lattice([0.05, 0.15, 0.8], 500)
        out = run_trial_threshold(rule_a2, x0, trial_rng(1, 0, 0),
                                  equilibrium=CHI2)
        assert out.stop_time == 0
        assert not out.censored
        assert out.least_index == 0
        assert out.early_sample
        assert out.sample_time == 0

    def test_benchmark_least_abundant_is_overwhelmingly_type_one(self, rule_a2):
        x0 = round_to_lattice([0.8, 0.1, 0.1], 500)
        outs = [run_trial_threshold(rule_a2, x0, trial_rng(11, 0, t),
                                    equilibrium=CHI2)
                for t in range(100)]
        hits = sum(o.least_index == 0 for o in outs)
        assert hits >= 99
        assert all(not o.censored for o in outs)
        assert all(o.stop_time >= 1 for o in outs)

    def test_distance_sample_inside_window(self, rule_a2):
        x0 = round_to_lattice([0.8, 0.1, 0.1], 500)
        out = run_trial_threshold(rule_a2, x0, trial_rng(2, 0, 0),
                                  sample_window=(1, 1), equilibrium=CHI2)
        assert not out.early_sample
        assert out.sample_time == 1
        assert 0.0 <= out.d_eq <= math.sqrt(2.0)

    def test_window_starting_at_step_zero_samples_the_start(self, rule_a2):
        # step 0 lies inside the window and before the stop (at step 19)
        x0 = round_to_lattice([0.8, 0.1, 0.1], 100)
        out = run_trial_threshold(rule_a2, x0, trial_rng(1, 0, 0),
                                  sample_window=(0, 0), equilibrium=CHI2)
        assert out.stop_time == 19
        assert not out.early_sample
        assert out.sample_time == 0
        assert out.d_eq == float(np.linalg.norm(x0.counts / 100 - CHI2))
        assert out.d_eq == pytest.approx(1.0117, abs=1e-4)

    def test_no_equilibrium_means_no_distance(self, rule_a2):
        x0 = round_to_lattice([0.8, 0.1, 0.1], 500)
        out = run_trial_threshold(rule_a2, x0, trial_rng(3, 0, 0))
        assert out.d_eq is None

    def test_step_cap_censors(self, rule_neutral3):
        x0 = round_to_lattice([1 / 3, 1 / 3, 1 / 3], 500)
        out = run_trial_threshold(rule_neutral3, x0, trial_rng(4, 0, 0),
                                  max_steps=3)
        assert out.censored
        assert out.stop_time == 3

    def test_bad_window_rejected(self, rule_a2):
        x0 = round_to_lattice([0.8, 0.1, 0.1], 500)
        with pytest.raises(ConfigError):
            run_trial_threshold(rule_a2, x0, trial_rng(5, 0, 0),
                                sample_window=(10, 5))


# ----------------------------------------------------------------------
# single run-to-absorption trials
# ----------------------------------------------------------------------

class TestRunTrialAbsorption:
    def test_two_types_always_lose_exactly_one(self):
        rule = neutral_rule(2)
        x0 = round_to_lattice([0.5, 0.5], 20)
        outs = [run_trial_absorption(rule, x0, trial_rng(13, 0, t),
                                     least_fit_set=(1,))
                for t in range(50)]
        for out in outs:
            assert out.support_size == 1
            assert len(out.vanished) == 1
            assert out.event == (out.vanished[0] == 0)
            assert not out.censored

    def test_benchmark_small_population_events(self, rule_a2):
        x0 = round_to_lattice(CHI2, 25)
        outs = [run_trial_absorption(rule_a2, x0, trial_rng(14, 0, t),
                                     least_fit_set=least_fit(rule_a2, CHI2))
                for t in range(100)]
        events = sum(o.event for o in outs)
        assert events >= 80
        assert all(o.stop_time >= 1 for o in outs)

    def test_mutation_rule_rejected(self):
        rule = make_rule(A2, omega=0.5,
                         mutation=np.full((3, 3), 1.0 / 3.0))
        x0 = round_to_lattice(CHI2, 25)
        with pytest.raises(PreconditionError, match="mutation-free"):
            run_trial_absorption(rule, x0, trial_rng(15, 0, 0),
                                 least_fit_set=(1,))

    def test_boundary_start_rejected(self, rule_a2):
        x0 = round_to_lattice([0.5, 0.5, 0.0], 10)
        with pytest.raises(PreconditionError, match="interior"):
            run_trial_absorption(rule_a2, x0, trial_rng(16, 0, 0),
                                 least_fit_set=(1,))

    @pytest.mark.parametrize("label", [0, 4])
    def test_label_outside_one_to_m_rejected(self, rule_a2, label):
        x0 = round_to_lattice(CHI2, 25)
        with pytest.raises(DimensionMismatch, match=r"out of range 1\.\.3"):
            run_trial_absorption(rule_a2, x0, trial_rng(17, 0, 0),
                                 least_fit_set=(1, label))


# ----------------------------------------------------------------------
# lockstep blocks: one call, one stream per trial
# ----------------------------------------------------------------------

def streams(seed, count):
    return [trial_rng(seed, 0, t) for t in range(count)]


class TestLockstepBlocks:
    @pytest.mark.parametrize("start, kwargs", [
        ([0.05, 0.15, 0.8], {"equilibrium": CHI2}),               # stop at step 0
        ([0.8, 0.1, 0.1], {"sample_window": (5, 40), "max_steps": 30,
                           "equilibrium": CHI2}),                 # some censored
        ([0.8, 0.1, 0.1], {"sample_window": (1, 1), "equilibrium": CHI2}),
        ([0.4, 0.3, 0.3], {"sample_window": (5, 40)}),           # no equilibrium
    ], ids=["stop-at-zero", "censored", "window-1-1", "no-equilibrium"])
    def test_threshold_block_matches_one_stream_calls(self, rule_a2, start, kwargs):
        x0 = round_to_lattice(start, 100)
        gens, lone = streams(31, 40), streams(31, 40)
        block = run_trial_threshold(rule_a2, x0, gens, **kwargs)
        alone = [run_trial_threshold(rule_a2, x0, rng, **kwargs) for rng in lone]
        assert isinstance(block, list) and len(block) == 40
        assert block == alone
        # a stream advances by its own trial's draws only, however long the block runs
        assert [g.bit_generator.state for g in gens] == [g.bit_generator.state for g in lone]

    def test_blocks_mix_every_kind_of_trial(self, rule_a2):
        x0 = round_to_lattice([0.8, 0.1, 0.1], 100)
        block = run_trial_threshold(rule_a2, x0, streams(31, 40), sample_window=(5, 40),
                                    max_steps=30, equilibrium=CHI2)
        kinds = {(o.censored, o.early_sample) for o in block}
        # (censored, early): censored, stopped before and after the sample step
        assert {(True, False), (False, True), (False, False)} <= kinds

    @pytest.mark.parametrize("case", ["neutral-two-type", "a2-n25"])
    def test_absorption_block_matches_one_stream_calls(self, rule_a2, case):
        if case == "neutral-two-type":
            rule, x0, fit = neutral_rule(2), round_to_lattice([0.5, 0.5], 20), (1,)
        else:
            rule, x0 = rule_a2, round_to_lattice(CHI2, 25)
            fit = least_fit(rule_a2, CHI2)
        block = run_trial_absorption(rule, x0, streams(13, 30), least_fit_set=fit)
        alone = [run_trial_absorption(rule, x0, rng, least_fit_set=fit)
                 for rng in streams(13, 30)]
        assert block == alone

    @pytest.mark.parametrize("kwargs, kinds", [
        ({"sample_window": (5, 40), "max_steps": 30, "equilibrium": CHI2},
         {(True, False), (False, True), (False, False)}),
        ({"sample_window": (1, 1), "equilibrium": CHI2}, {(False, True), (False, False)}),
    ], ids=["censored", "window-1-1"])
    def test_block_over_starts_matches_per_start_and_one_stream_calls(self, rule_a2, kwargs,
                                                                      kinds):
        # (0.05, 0.15, 0.8) stops at step 0, so its trials are sampled early;
        # rows are (censored, early_sample): censored, sampled early, in the window
        starts = [round_to_lattice(p, 100)
                  for p in ([0.8, 0.1, 0.1], [0.05, 0.15, 0.8], [0.4, 0.3, 0.3])]
        mixed = [p for p in starts for _ in range(15)]
        block = run_trial_threshold(rule_a2, mixed, streams(31, 45), **kwargs)
        per_start = [out for k, p in enumerate(starts)
                     for out in run_trial_threshold(rule_a2, p, streams(31, 45)[15 * k:15 * k + 15],
                                                    **kwargs)]
        alone = [run_trial_threshold(rule_a2, p, rng, **kwargs)
                 for p, rng in zip(mixed, streams(31, 45))]
        assert block == per_start == alone
        assert kinds <= {(o.censored, o.early_sample) for o in block}
        assert any(o.d_eq is not None and not o.early_sample for o in block)

    def test_absorption_block_over_starts_matches_one_stream_calls(self, rule_a2):
        starts = [round_to_lattice(p, 25) for p in (CHI2, [0.5, 0.3, 0.2], [0.1, 0.1, 0.8])]
        mixed = [p for p in starts for _ in range(10)]
        fit = least_fit(rule_a2, CHI2)
        block = run_trial_absorption(rule_a2, mixed, streams(13, 30), least_fit_set=fit,
                                     max_steps=200)
        alone = [run_trial_absorption(rule_a2, p, rng, least_fit_set=fit, max_steps=200)
                 for p, rng in zip(mixed, streams(13, 30))]
        assert block == alone
        assert {o.event for o in block} >= {True, False}

    def test_starts_must_match_the_streams(self, rule_a2):
        starts = [round_to_lattice([0.8, 0.1, 0.1], 100), round_to_lattice([0.8, 0.1, 0.1], 50)]
        with pytest.raises(DimensionMismatch, match="3 starts for 2 streams"):
            run_trial_threshold(rule_a2, starts + starts[:1], streams(1, 2))
        with pytest.raises(DimensionMismatch, match="share N and M"):
            run_trial_threshold(rule_a2, starts, streams(1, 2))

    def test_block_distances_match_per_row_norm(self):
        rng = np.random.default_rng(5)
        for m in (2, 3, 5, 9):
            counts = rng.multinomial(997, np.ones(m) / m, size=20_000)
            point = rng.dirichlet(np.ones(m))
            assert extinction._distances(counts, 997, point) == \
                [float(np.linalg.norm(c / 997 - point)) for c in counts]

    def test_rows_do_not_depend_on_block_split_or_threads(self, small_spec):
        ctx = _experiment_context(small_spec)
        whole = _run_chunk(small_spec, *ctx, 0, 12)
        halves = _run_chunk(small_spec, *ctx, 0, 5) + _run_chunk(small_spec, *ctx, 5, 12)
        split = [row for i in range(2) for row in halves if row[0] == i]
        assert whole == split
        assert [row[:2] for row in whole] == [(i, t) for i in range(2) for t in range(12)]
        assert run_experiment(small_spec, threads=1).rows == whole
        assert run_experiment(small_spec, threads=3).rows == whole

    def test_rows_do_not_depend_on_the_block_cap(self, small_spec, monkeypatch):
        # threads 1, 2 and 3 are compared by the test above and by
        # TestRunExperiment.test_worker_count_does_not_change_results
        rows = run_experiment(small_spec, threads=1).rows
        sizes = []
        threshold = extinction.run_trial_threshold
        monkeypatch.setattr(extinction, "LOCKSTEP_TRIALS", 5)
        monkeypatch.setattr(extinction, "run_trial_threshold",
                            lambda rule, x0, rng, **kw: (sizes.append(len(rng)),
                                                         threshold(rule, x0, rng, **kw))[1])
        _, ranges = TestRunExperiment.record_pools_and_ranges(monkeypatch)
        assert run_experiment(small_spec, threads=1).rows == rows
        # 12 trials of 2 starts: 6 blocks of 2 trials a start
        assert ranges == [(t, t + 2) for t in range(0, 12, 2)]
        assert sizes == [4] * 6


# ----------------------------------------------------------------------
# the C multinomial draw of a block
# ----------------------------------------------------------------------

def draw_laws(m):
    """Laws (K, m): two interior ones, one with a zero first, middle (for
    m > 2) and last cell, and every one-hot law."""
    interior = np.random.default_rng(m).dirichlet(np.ones(m), size=2)
    holes = [0, m - 1] + ([m // 2] if m > 2 else [])
    holed = np.array([interior[0] * (np.arange(m) != hole) for hole in holes])
    return np.vstack([interior, holed / holed.sum(axis=1, keepdims=True), np.eye(m)])


class TestBlockDraws:
    @pytest.mark.parametrize("n", [1, 2, 50, 500, 10**6])
    @pytest.mark.parametrize("m", [2, 3, 5, 9])
    def test_rows_match_generator_multinomial(self, m, n):
        laws = draw_laws(m)
        gens, twins = streams(n + m, len(laws)), streams(n + m, len(laws))
        draw = extinction._BlockDraws(gens, n, m)
        # each round moves the laws to other rows, so a cell left over from
        # the row's last draw would show
        for shift in range(len(laws)):
            law = np.roll(laws, shift, axis=0)
            want = np.array([g.multinomial(n, p) for g, p in zip(twins, law)])
            np.testing.assert_array_equal(draw(law), want)
        assert [g.bit_generator.state for g in gens] == [g.bit_generator.state for g in twins]

    @pytest.mark.parametrize("law", BAD_LAWS.values(), ids=BAD_LAWS.keys())
    def test_law_that_multinomial_refuses_raises(self, rule_a2, monkeypatch, law):
        monkeypatch.setattr(extinction, "sampling_probs",
                            lambda rule, freqs: np.tile(law, (len(freqs), 1)))
        with pytest.raises(InvalidNormalization):
            run_trial_threshold(rule_a2, round_to_lattice([0.4, 0.3, 0.3], 100), streams(1, 4))

    def test_missing_c_draw_names_numpy_version(self, monkeypatch):
        # the binding every per-stream draw goes through lives in wfsim.fitness
        fitness._c_multinomial.cache_clear()
        monkeypatch.setattr(fitness.ctypes, "PyDLL", lambda path: object())
        try:
            with pytest.raises(PreconditionError, match=re.escape(f"numpy {np.__version__} ")):
                fitness._c_multinomial()
        finally:
            fitness._c_multinomial.cache_clear()

    def test_block_memory(self):
        # 2,000 trials of one block peak at 3.1 MiB: 2.4 MiB of outcomes,
        # states and streams, as with one Generator.multinomial call per
        # row, and 0.6 MiB of C call arguments; after the run only the 0.5
        # MiB of outcomes stay. Reading each stream's bitgen_t through
        # bit_generator.ctypes instead of its capsule peaks at 5.0 MiB
        spec = ExperimentSpec.from_config(minimal_config(
            N=50, replicates=2000, initials=[[0.8, 0.1, 0.1]], sample_window=[1, 5]))
        held, peak = self.traced_run(spec)
        assert peak < 4 * 2**20
        assert held < 2**20

    def test_share_past_the_cap_runs_in_capped_blocks(self, monkeypatch):
        # 3 starts x 2,000 trials in blocks of at most 1,000 trials: the peak
        # is one block's state on top of the outcomes kept so far (0.5 MiB
        # per 2,000), where one 6,000-trial block peaks at ~9 MiB
        monkeypatch.setattr(extinction, "LOCKSTEP_TRIALS", 1000)
        spec = ExperimentSpec.from_config(minimal_config(
            N=50, replicates=2000, initials=[[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
            sample_window=[1, 5]))
        held, peak = self.traced_run(spec)
        assert peak < 4 * 2**20
        assert held < 2 * 2**20

    @staticmethod
    def traced_run(spec):
        """(held, peak) traced bytes of ``run_experiment(spec)`` at one thread."""
        # a 10-trial run first loads the modules numpy loads on first use
        run_experiment(ExperimentSpec.from_config({**spec.to_config(), "replicates": 10}))
        gc.collect()
        tracemalloc.start()
        try:
            result = run_experiment(spec, threads=1)
            gc.collect()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.rows) == spec.replicates * len(spec.initials)
        return held, peak


# ----------------------------------------------------------------------
# experiment specs and per-trial randomness
# ----------------------------------------------------------------------

def minimal_config(**overrides):
    cfg = {
        "matrix": A2,
        "omega": 0.5,
        "N": 100,
        "initials": [[0.8, 0.1, 0.1]],
        "replicates": 10,
        "seed": 7,
    }
    cfg.update(overrides)
    return cfg


class TestExperimentSpec:
    def test_defaults(self):
        spec = ExperimentSpec.from_config(minimal_config())
        assert spec.m == 3
        assert spec.mode == "threshold"
        assert spec.stop_threshold == 0.05
        assert spec.sample_window == (1000, 5000)

    def test_config_round_trip(self):
        spec = ExperimentSpec.from_config(minimal_config(mode="absorption",
                                                         stop_threshold=0.1))
        again = ExperimentSpec.from_config(spec.to_config())
        assert json.dumps(spec.to_config(), sort_keys=True) == \
            json.dumps(again.to_config(), sort_keys=True)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields: bogus"):
            ExperimentSpec.from_config(minimal_config(bogus=1))

    def test_missing_fields_listed(self):
        cfg = minimal_config()
        del cfg["seed"], cfg["N"]
        with pytest.raises(ConfigError, match="missing fields"):
            ExperimentSpec.from_config(cfg)

    def test_mixing_odds_canonicalized(self):
        cfg = minimal_config(matrix=A1)
        del cfg["omega"]
        cfg["omega_ratio"] = 1e-3
        spec = ExperimentSpec.from_config(cfg)
        assert spec.rule_params["omega"] == pytest.approx(1e-3 / (1 + 1e-3),
                                                          rel=1e-15)
        probe = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(
            spec.build_rule().update_probs(probe),
            make_rule(A1, omega=1e-3 / (1.0 + 1e-3)).update_probs(probe),
            rtol=1e-14)

    def test_declared_size_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="M=4"):
            ExperimentSpec.from_config(minimal_config(M=4))

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment mode"):
            ExperimentSpec.from_config(minimal_config(mode="bogus"))

    def test_bad_replicates_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentSpec.from_config(minimal_config(replicates=0))

    def test_initial_length_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="initial condition"):
            ExperimentSpec.from_config(minimal_config(initials=[[0.5, 0.5]]))


class TestTrialRng:
    def test_stream_is_reproducible(self):
        a = trial_rng(7, 1, 5).integers(0, 2 ** 32, size=10)
        b = trial_rng(7, 1, 5).integers(0, 2 ** 32, size=10)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_distinct(self):
        base = trial_rng(7, 1, 5).integers(0, 2 ** 32, size=10)
        for seed, initial, trial in ((8, 1, 5), (7, 2, 5), (7, 1, 6)):
            other = trial_rng(seed, initial, trial).integers(0, 2 ** 32, size=10)
            assert not np.array_equal(base, other)


# ----------------------------------------------------------------------
# full ensembles
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_spec():
    return ExperimentSpec.from_config(minimal_config(
        N=100, replicates=12, seed=3,
        initials=[[0.8, 0.1, 0.1], [0.1, 0.8, 0.1]],
        sample_window=[5, 10], max_steps=2000))


class TestRunExperiment:
    def test_worker_count_does_not_change_results(self, small_spec):
        serial = run_experiment(small_spec, threads=1)
        parallel = run_experiment(small_spec, threads=2)
        np.testing.assert_array_equal(serial.counts, parallel.counts)
        np.testing.assert_array_equal(serial.censored, parallel.censored)
        assert serial.rows == parallel.rows
        assert json.dumps(serial.summary_dict(), sort_keys=True) == \
            json.dumps(parallel.summary_dict(), sort_keys=True)

    @staticmethod
    def record_pools_and_ranges(monkeypatch):
        """Run pools inline and note each pool's size and each trial range
        ``run_experiment`` runs as a block."""
        workers, ranges = [], []

        class InlinePool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        def run_chunk(spec, rule, eq, fit_set, start, stop):
            ranges.append((start, stop))
            return _run_chunk(spec, rule, eq, fit_set, start, stop)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(extinction, "_run_chunk", run_chunk)
        return workers, ranges

    def test_pool_is_capped_by_tasks_and_cores(self, small_spec, monkeypatch):
        # an inline stand-in for the pool, so no process starts at any threads;
        # a worker gets one block over every start, so the lockstep batches
        # stay as large as the cores allow
        serial = run_experiment(small_spec, threads=1).rows
        workers, ranges = self.record_pools_and_ranges(monkeypatch)
        cores = os.cpu_count() or 1
        rows = run_experiment(small_spec, threads=10**6).rows
        assert len(workers) == (cores > 1)
        assert all(w <= min(cores, small_spec.replicates) for w in workers)
        assert len(ranges) <= cores
        assert rows == serial

    def test_one_core_runs_inline(self, small_spec, monkeypatch):
        serial = run_experiment(small_spec, threads=1).rows
        workers, ranges = self.record_pools_and_ranges(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        rows = run_experiment(small_spec, threads=4).rows
        assert workers == []
        assert ranges == [(0, small_spec.replicates)]
        assert rows == serial

    def test_context_is_computed_once_per_run(self, small_spec, monkeypatch):
        # every block runs under the run's rule, equilibrium and least-fit labels
        _, ranges = self.record_pools_and_ranges(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        specs, context = [], extinction._experiment_context
        monkeypatch.setattr(extinction, "_experiment_context",
                            lambda spec: (specs.append(spec), context(spec))[1])
        run_experiment(small_spec, threads=4)
        assert specs == [small_spec]
        assert len(ranges) >= 2

    def test_counts_partition_the_replicates(self, small_spec):
        result = run_experiment(small_spec, threads=1)
        totals = result.counts.sum(axis=1) + result.censored
        np.testing.assert_array_equal(totals,
                                      [small_spec.replicates] * 2)

    def test_context_fields(self, small_spec):
        result = run_experiment(small_spec, threads=1)
        assert result.least_fit_labels == [1]
        np.testing.assert_allclose(result.equilibrium, CHI2, atol=1e-6)
        assert np.all(np.isfinite(result.mean_stop_time))

    def test_benchmark_counts_concentrate_on_type_one(self):
        spec = ExperimentSpec.from_config(minimal_config(
            N=500, replicates=50, seed=21))
        result = run_experiment(spec, threads=1)
        assert result.counts[0, 0] >= 49
        assert result.censored[0] == 0

    def test_distance_histogram_concentrates_near_zero(self):
        spec = ExperimentSpec.from_config(minimal_config(
            N=500, replicates=100, seed=22))
        result = run_experiment(spec, threads=1)
        hist, edges = result.histogram_counts, result.histogram_edges
        assert edges[0] == 0.0
        assert edges[-1] == pytest.approx(1.5)
        assert hist.sum() == 100 - result.censored.sum()
        near = hist[edges[1:] <= 0.3].sum()
        assert near / hist.sum() >= 0.95
        peak_edge = edges[np.argmax(hist)]
        assert peak_edge < 0.2

    @pytest.mark.parametrize("bin_width", [0.01, 0.35, 0.6, 0.7, 1.5])
    def test_histogram_counts_every_distance(self, bin_width):
        # from (0.98, 0.01, 0.01) every trial stops at step 0 and is sampled
        # there, 1.22 from the equilibrium: past 1.2, the last edge that
        # round(1.5 / 0.6) bins of width 0.6 would reach
        spec = ExperimentSpec.from_config(minimal_config(
            replicates=20, initials=[[0.98, 0.01, 0.01]], bin_width=bin_width))
        result = run_experiment(spec, threads=1)
        d_eq = [out.d_eq for _, _, out in result.rows
                if not out.censored and out.d_eq is not None]
        assert len(d_eq) == 20 and min(d_eq) > 1.2
        assert result.histogram_counts.sum() == len(d_eq)
        assert result.histogram_edges[-1] >= math.sqrt(2)

    def test_trial_rows_align_with_columns(self, small_spec):
        result = run_experiment(small_spec, threads=1)
        rows = list(result.trial_rows())
        assert len(rows) == 2 * small_spec.replicates
        for row in rows:
            assert len(row) == len(result.TRIAL_COLUMNS)
        first = rows[0]
        assert first[0] == 0 and first[1] == 0
        assert first[3] in (1, 2, 3)          # least-abundant label, 1-based

    def test_absorption_mode(self, rule_a2):
        spec = ExperimentSpec.from_config(minimal_config(
            N=25, replicates=40, seed=5, mode="absorption",
            initials=[[0.0246914, 0.7345679, 0.2407407]]))
        result = run_experiment(spec, threads=1)
        uncensored = int(spec.replicates - result.censored[0])
        assert result.event_counts is not None
        assert result.event_counts[0] >= 0.8 * uncensored
        assert result.counts[0].sum() == uncensored


# ----------------------------------------------------------------------
# monotone trend checks
# ----------------------------------------------------------------------

class TestIncreasingProportionTrend:
    def test_monotone_ladder_passes(self):
        report = increasing_proportion_trend([(10, 100), (20, 100), (30, 100)])
        assert report.ok
        assert report.proportions == (0.1, 0.2, 0.3)
        assert all(z < 0 for z in report.z_values)

    def test_significant_drop_fails(self):
        report = increasing_proportion_trend([(90, 100), (10, 100)])
        assert not report.ok
        assert report.z_values[0] > 1.6448536269514722

    def test_small_noise_tolerated(self):
        report = increasing_proportion_trend([(50, 100), (48, 100)])
        assert report.ok

    def test_needs_two_rungs(self):
        with pytest.raises(DomainError):
            increasing_proportion_trend([(10, 100)])

    def test_bad_pair_rejected(self):
        with pytest.raises(DomainError):
            increasing_proportion_trend([(10, 100), (5, 0)])
