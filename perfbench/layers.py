"""Traced run: per-layer metrics from calls into each module's public
functions, wrapped in spans recorded by this file.

Each workload's decomposition is replayed in this process; a span (name,
start, end, parent, run id) is kept in memory around every call and the
list is written out when the run ends.  Self time is a span's duration
minus that of its child spans.  For per-trial spans inside
``run_experiment`` at one thread, ``trial_rng`` and ``run_trial_threshold``
are wrapped in the ``wfsim.extinction`` namespace for the duration of
that call only; the program's files are not changed.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse.linalg

from wfsim import extinction
from wfsim.chain import build_exact_chain, interior_qsd, sample_path
from wfsim.deviation import (
    bound_table,
    estimate_lipschitz,
    simulate_deviations,
    wilson_upper,
)
from wfsim.extinction import ExperimentSpec, least_fit, run_experiment
from wfsim.fitness import make_rule
from wfsim.gaussian import (
    ar1_covariance,
    noise_covariance,
    rescaled_residuals,
    stationary_covariance,
)
from wfsim.meanfield import iterate, solve_interior_equilibrium
from wfsim.simplex import lattice_counts, round_to_lattice

from workloads import A2

#: Sizes of the layer-only measurements.  ``full`` matches the criterion-07
#: Gaussian check and the ROADMAP baseline rows.
LAYER_SIZES = {
    "full": {"update_probs_calls": 20_000, "iterate_steps": 20_000,
             "lattice_baseline": (3, 300), "baseline_n": 60,
             "gaussian": {"n": 10_000, "step": 20, "replicates": 10_000},
             "small_repeats": 50, "span_calls": 20_000},
    "smoke": {"update_probs_calls": 100, "iterate_steps": 100,
              "lattice_baseline": (3, 20), "baseline_n": 6,
              "gaussian": {"n": 100, "step": 3, "replicates": 50},
              "small_repeats": 2, "span_calls": 100},
}


class Tracer:
    """In-memory spans: name, start, end, parent index and run id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.run_id = None

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def find(self, name: str, **attrs) -> list[dict]:
        return [s for s in self.spans if s["name"] == name
                and all(s.get(k) == v for k, v in attrs.items())]

    def duration(self, name: str, **attrs) -> float:
        (span,) = self.find(name, **attrs)
        return span["end"] - span["start"]

    def self_time(self, span: dict) -> float:
        idx = self.spans.index(span)
        children = sum(s["end"] - s["start"] for s in self.spans
                       if s["parent"] == idx)
        return span["end"] - span["start"] - children


def span_cost(calls: int) -> float:
    """Seconds a traced call costs over the same call untraced: a function
    wrapped in a span, as the per-trial wrappers are, against calling it
    directly.  Median of five rounds of ``calls`` calls."""
    scratch = Tracer()

    def plain():
        return None

    def traced():
        with scratch.span("probe"):
            return plain()

    rounds = []
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(calls):
            plain()
        middle = time.perf_counter()
        for _ in range(calls):
            traced()
        rounds.append((time.perf_counter() - middle) - (middle - started))
        scratch.spans.clear()
    return statistics.median(rounds) / calls


@contextmanager
def traced_trials(tracer):
    """Give each trial_rng / run_trial_threshold call its own span."""
    rng_fn, trial_fn = extinction.trial_rng, extinction.run_trial_threshold

    def trial_rng(*args, **kwargs):
        with tracer.span("extinction.trial_rng"):
            return rng_fn(*args, **kwargs)

    def run_trial_threshold(*args, **kwargs):
        with tracer.span("extinction.run_trial_threshold"):
            return trial_fn(*args, **kwargs)

    extinction.trial_rng = trial_rng
    extinction.run_trial_threshold = run_trial_threshold
    try:
        yield
    finally:
        extinction.trial_rng, extinction.run_trial_threshold = rng_fn, trial_fn


def _rule(tr, cfg):
    with tr.span("fitness.make_rule"):
        return make_rule(cfg["matrix"], omega=cfg["omega"])


# ----------------------------------------------------------------------
# replays: the same public calls the workload's command makes
# ----------------------------------------------------------------------

def replay_ensemble(tr, cfg, lsize):
    with tr.span("extinction.ExperimentSpec.from_config"):
        spec = ExperimentSpec.from_config(cfg)
    with tr.span("fitness.make_rule"):
        rule = spec.build_rule()
    with tr.span("meanfield.solve_interior_equilibrium"):
        eq = solve_interior_equilibrium(cfg["matrix"]).vector
    with tr.span("extinction.least_fit"):
        least_fit(rule, eq)
    with traced_trials(tr), tr.span("extinction.run_experiment", threads=1):
        started = time.perf_counter()
        result = run_experiment(spec, threads=1)
        t1 = time.perf_counter() - started
    with tr.span("extinction.run_experiment", threads=2):
        started = time.perf_counter()
        run_experiment(spec, threads=2)
        t2 = time.perf_counter() - started
    return {"result": result, "t1": t1, "t2": t2}


def replay_trajectory(tr, cfg, lsize):
    rule = _rule(tr, cfg)
    x0 = round_to_lattice(np.asarray(cfg["initial"]), cfg["N"])
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg["seed"])))
    with tr.span("chain.sample_path"):
        sample_path(rule, x0, cfg["steps"], rng)
    x = x0.counts / x0.n
    with tr.span("fitness.update_probs"):
        for _ in range(lsize["update_probs_calls"]):
            rule.update_probs(x)
    return {}


def replay_exact(tr, cfg, lsize):
    rule = _rule(tr, cfg)
    chains, qsds = {}, {}
    for n in cfg["N"]:
        with tr.span("chain.build_exact_chain", n=n):
            chains[n] = build_exact_chain(rule, n)
        with tr.span("chain.interior_qsd", n=n):
            qsds[n] = interior_qsd(chains[n])
    with tr.span("simplex.lattice_counts", n=max(cfg["N"])):
        lattice_counts(rule.m, max(cfg["N"]))
    largest = chains[max(cfg["N"])].matrix
    return {"qsd": qsds, "states": largest.shape[0],
            "kernel_mb": largest.shape[0] ** 2 * 8 / 2**20,
            "nnz_frac": float(np.count_nonzero(largest > 1e-16)) / largest.size}


def replay_orbit_gap(tr, cfg, lsize):
    rule = _rule(tr, cfg)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg["seed"])))
    probes = []
    batch = rule.update_probs_batch
    rule.update_probs_batch = lambda xs: (probes.append(len(xs)), batch(xs))[1]
    with tr.span("deviation.estimate_lipschitz"):
        lip = estimate_lipschitz(rule, cfg["lipschitz_samples"], rng)
    del rule.update_probs_batch
    rho = cfg["safety"] * lip.value
    start = np.asarray(cfg["initial"])
    reps, horizon = cfg["replicates"], cfg["horizon"]
    unsatisfiable = 0
    for n in cfg["N"]:
        x0 = round_to_lattice(start, n)
        with tr.span("deviation.simulate_deviations", n=n):
            ens = simulate_deviations(rule, x0, horizon, reps, rng)
        for eps in cfg["epsilons"]:
            with tr.span("deviation.bound_table", n=n, eps=eps):
                rows = bound_table(ens, eps, rho, rule.m)
            unsatisfiable += sum(wilson_upper(0, r.replicates) > r.bound
                                 for r in rows)
    with tr.span("meanfield.iterate"):
        iterate(rule, start, lsize["iterate_steps"])
    xs = rng.dirichlet(np.ones(rule.m), size=reps)
    with tr.span("fitness.update_probs_batch"):
        for _ in range(lsize["small_repeats"]):
            rule.update_probs_batch(xs)
    with tr.span("meanfield.solve_interior_equilibrium"):
        for _ in range(lsize["small_repeats"]):
            solve_interior_equilibrium(cfg["matrix"])
    return {"probes": sum(probes), "unsatisfiable": unsatisfiable}


def replay_gaussian(tr, lsize):
    """Criterion-07 size.  No ``wf`` subcommand reaches this module."""
    g = lsize["gaussian"]
    rule = make_rule(A2, omega=0.5)
    with tr.span("gaussian.rescaled_residuals"):
        res = rescaled_residuals(rule, g["n"], [0.8, 0.1, 0.1], step=g["step"],
                                 replicates=g["replicates"],
                                 rng=np.random.default_rng(20260814))
    with tr.span("gaussian.ar1_covariance"):
        for _ in range(lsize["small_repeats"]):
            ar1_covariance(res.orbit)
    chi = solve_interior_equilibrium(A2).vector
    d, sigma = rule.jacobian(chi), noise_covariance(rule.update_probs(chi))
    with tr.span("gaussian.stationary_covariance"):
        for _ in range(lsize["small_repeats"]):
            stationary_covariance(d, sigma)
    return {}


def replay_baselines(tr, exact_cfg, lsize):
    """ROADMAP baseline rows not already timed by a workload replay."""
    m, n = lsize["lattice_baseline"]
    with tr.span("baseline.lattice_counts"):
        lattice_counts(m, n)
    rule = make_rule(exact_cfg["matrix"], omega=exact_cfg["omega"])
    chain = build_exact_chain(rule, lsize["baseline_n"])
    idx = chain.interior_indices()
    sub = chain.matrix[np.ix_(idx, idx)]
    with tr.span("baseline.eigs"):
        scipy.sparse.linalg.eigs(sub.T, k=1, which="LM")
    return {}


REPLAYS = {"ensemble": replay_ensemble, "trajectory": replay_trajectory,
           "exact": replay_exact, "orbit_gap": replay_orbit_gap}


def replay(tracer: Tracer, workload: str, cfg: dict, lsize: dict):
    """Run one workload's replay under ``tracer`` with its own run id."""
    tracer.run_id = workload
    with tracer.span(workload):
        return REPLAYS[workload](tracer, cfg, lsize)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def layer_metrics(tr: Tracer, configs: dict, outs: dict, lsize: dict) -> dict:
    """Every per-layer metric, as name -> (value, unit)."""
    m = {}
    ens, ex, gap = outs["ensemble"], outs["exact"], outs["orbit_gap"]
    traj_cfg, exact_cfg, gap_cfg = (configs["trajectory"], configs["exact"],
                                    configs["orbit_gap"])
    nmax = max(exact_cfg["N"])
    reps = lsize["small_repeats"]

    m["simplex.lattice_counts.s"] = (tr.duration("simplex.lattice_counts", n=nmax), "s")
    m["fitness.update_probs.us"] = (
        tr.duration("fitness.update_probs") / lsize["update_probs_calls"] * 1e6, "us")
    m["fitness.update_probs_batch.ns_per_row"] = (
        tr.duration("fitness.update_probs_batch") / (reps * gap_cfg["replicates"]) * 1e9,
        "ns")
    m["chain.sample_path.us_per_gen"] = (
        tr.duration("chain.sample_path") / traj_cfg["steps"] * 1e6, "us")
    m["chain.build_exact_chain.s"] = (tr.duration("chain.build_exact_chain", n=nmax), "s")
    m["chain.build_exact_chain.states"] = (ex["states"], "count")
    m["chain.kernel_mb"] = (ex["kernel_mb"], "MiB")
    m["chain.kernel_nnz_frac"] = (ex["nnz_frac"], "ratio")
    m["chain.interior_qsd.s"] = (tr.duration("chain.interior_qsd", n=nmax), "s")
    m["chain.interior_qsd.iterations"] = (ex["qsd"][nmax].iterations, "count")
    m["chain.interior_qsd.leak_residual"] = (ex["qsd"][nmax].leak_residual, "1")
    m["meanfield.solve_interior_equilibrium.us"] = (
        tr.duration("meanfield.solve_interior_equilibrium", run="orbit_gap")
        / reps * 1e6, "us")
    m["meanfield.iterate.us_per_step"] = (
        tr.duration("meanfield.iterate") / lsize["iterate_steps"] * 1e6, "us")
    m["deviation.estimate_lipschitz.s"] = (tr.duration("deviation.estimate_lipschitz"), "s")
    m["deviation.estimate_lipschitz.probes"] = (gap["probes"], "count")
    row_gens = gap_cfg["replicates"] * gap_cfg["horizon"] * len(gap_cfg["N"])
    m["deviation.simulate_deviations.ns_per_row_gen"] = (
        sum(s["end"] - s["start"] for s in tr.find("deviation.simulate_deviations"))
        / row_gens * 1e9, "ns")
    m["deviation.bound_table.s"] = (
        sum(s["end"] - s["start"] for s in tr.find("deviation.bound_table")), "s")
    m["deviation.unsatisfiable_cells"] = (gap["unsatisfiable"], "count")

    g = lsize["gaussian"]
    m["gaussian.rescaled_residuals.ns_per_row_gen"] = (
        tr.duration("gaussian.rescaled_residuals") / (g["replicates"] * g["step"]) * 1e9,
        "ns")
    m["gaussian.ar1_covariance.s"] = (tr.duration("gaussian.ar1_covariance") / reps, "s")
    m["gaussian.stationary_covariance.s"] = (
        tr.duration("gaussian.stationary_covariance") / reps, "s")

    rows = ens["result"].rows
    stops = np.array([out.stop_time for _, _, out in rows])
    trial_s = np.array([s["end"] - s["start"]
                        for s in tr.find("extinction.run_trial_threshold")])
    rng_s = [s["end"] - s["start"] for s in tr.find("extinction.trial_rng")]
    m["extinction.trial_rng.us"] = (statistics.median(rng_s) * 1e6, "us")
    m["extinction.run_trial_threshold.us_per_gen"] = (
        trial_s.sum() / stops.sum() * 1e6, "us")
    m["extinction.trial_us.p50"] = (float(np.percentile(trial_s, 50)) * 1e6, "us")
    m["extinction.trial_us.p99"] = (float(np.percentile(trial_s, 99)) * 1e6, "us")
    m["extinction.generations"] = (int(stops.sum()), "count")
    m["extinction.stop_time.p50"] = (float(np.percentile(stops, 50)), "count")
    m["extinction.stop_time.p99"] = (float(np.percentile(stops, 99)), "count")
    (t1_span,) = tr.find("extinction.run_experiment", threads=1)
    m["extinction.run_experiment.self_s"] = (tr.self_time(t1_span), "s")
    m["extinction.parallel_efficiency"] = (ens["t1"] / (2.0 * ens["t2"]), "ratio")

    n60 = lsize["baseline_n"]
    m["baseline.table1_ensemble_t1.s"] = (ens["t1"], "s")
    m["baseline.lattice_counts_n300.s"] = (tr.duration("baseline.lattice_counts"), "s")
    m["baseline.build_exact_chain_n60.s"] = (
        tr.duration("chain.build_exact_chain", n=n60), "s")
    m["baseline.qsd_power_n60.s"] = (tr.duration("chain.interior_qsd", n=n60), "s")
    m["baseline.qsd_power_n60.iterations"] = (ex["qsd"][n60].iterations, "count")
    m["baseline.eigs_n60.s"] = (tr.duration("baseline.eigs"), "s")
    return m
