"""Command-line interface.

Five subcommands tie the toolkit into reproducible experiments driven by
JSON configs: ``meanfield`` (equilibrium/stability report), ``simulate``
(single trajectory), ``extinction`` (stopped/absorbed ensembles),
``qsd`` (quasi-stationary distributions), and ``bounds`` (decoupling-time
bounds versus empirical frequencies).  Every run writes a manifest with
the resolved config, seed, version, and SHA-256 checksums of each output;
re-running with the manifest as the config reproduces the outputs
byte-for-byte.

Exit codes: 0 success, 1 config error, 2 precondition or numeric error.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .chain import build_exact_chain, interior_qsd, sample_path
from .deviation import (
    bound_table,
    estimate_lipschitz,
    expected_decoupling_lower_bound,
    simulate_deviations,
)
from .errors import ConfigError, WfsimError
from .extinction import ExperimentSpec, run_experiment
from .fitness import check_fields, make_rule, rule_params, start_vector
from .meanfield import build_meanfield_report, solve_interior_equilibrium
from .simplex import round_to_lattice


def _load_config(path: str | None) -> dict:
    if not path:
        raise ConfigError("--config is required")
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    # a manifest doubles as a config: unwrap its resolved-config field
    if "config" in data and "command" in data:
        data = data["config"]
        if not isinstance(data, dict):
            raise ConfigError("manifest carries a malformed config")
    return data


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def _csv_bytes(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def _write_outputs(out_dir: Path, command: str, resolved_config: dict,
                   seed, outputs: dict[str, bytes],
                   extras: dict | None = None, started: float = 0.0) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    checksums = {}
    for name, blob in outputs.items():
        (out_dir / name).write_bytes(blob)
        checksums[name] = hashlib.sha256(blob).hexdigest()
    manifest = {
        "command": command,
        "config": resolved_config,
        "seed": seed,
        "version": __version__,
        "wall_clock_s": round(time.perf_counter() - started, 3),
        "outputs": checksums,
    }
    if extras:
        manifest.update(extras)
    (out_dir / "manifest.json").write_bytes(_json_bytes(manifest))
    for name in list(outputs) + ["manifest.json"]:
        click.echo(f"wrote {out_dir / name}")


def _common_options(fn):
    for opt in reversed([
        click.option("--config", "config_path", type=str, default=None,
                     help="JSON config file (or a manifest.json)"),
        click.option("--seed", type=int, default=None,
                     help="override the config's master seed"),
        click.option("--replicates", type=int, default=None,
                     help="override the config's replicate count"),
        click.option("--threads", type=int, default=1,
                     help="worker processes (never affects results)"),
        click.option("--out", "out_dir", type=str, default=".",
                     help="output directory"),
    ]):
        fn = opt(fn)
    return fn


@click.group()
@click.version_option(version=__version__, prog_name="wf")
def main():
    """Simulation and analysis toolkit for multinomial resampling
    dynamics with fitness-weighted updates."""


def _dispatch(command: str, runner, config_path, seed, replicates, threads,
              out_dir) -> None:
    started = time.perf_counter()
    try:
        cfg = _load_config(config_path)
        if seed is not None:
            cfg["seed"] = seed
        if replicates is not None:
            cfg["replicates"] = replicates
        resolved, outputs, extras = runner(cfg, threads)
        _write_outputs(Path(out_dir), command, resolved,
                       resolved.get("seed"), outputs, extras, started)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(1)
    except WfsimError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


# ----------------------------------------------------------------------
# meanfield
# ----------------------------------------------------------------------

def _run_meanfield(cfg: dict, threads: int):
    check_fields(cfg, optional=("check_permanence", "seed", "replicates"))
    params = rule_params(cfg)
    rule = make_rule(**params)
    report = build_meanfield_report(rule, check_perm=bool(cfg.get("check_permanence")))
    resolved = dict(params)
    resolved["check_permanence"] = bool(cfg.get("check_permanence", False))
    return resolved, {"report.json": _json_bytes(report.to_dict())}, None


@main.command("meanfield")
@_common_options
def cmd_meanfield(config_path, seed, replicates, threads, out_dir):
    """Equilibrium, stability flags, Jacobian, and spectral radius."""
    _dispatch("meanfield", _run_meanfield, config_path, seed, replicates,
              threads, out_dir)


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def _run_simulate(cfg: dict, threads: int):
    check_fields(cfg, required=("N", "initial", "steps", "seed"),
                 optional=("stride", "stop_threshold", "replicates"))
    params = rule_params(cfg)
    rule = make_rule(**params)
    n = int(cfg["N"])
    steps = int(cfg["steps"])
    stride = int(cfg.get("stride", 1))
    if n < 1 or steps < 0 or stride < 1:
        raise ConfigError("N, steps, stride must be positive")
    threshold = cfg.get("stop_threshold")
    seed = int(cfg["seed"])
    start = start_vector(cfg["initial"], rule.m)
    x0 = round_to_lattice(start, n)

    def stop(counts):
        return threshold is not None and counts.min() / n <= threshold

    if stop(x0.counts):
        path = x0.counts[None, :]
    else:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        path = sample_path(rule, x0, steps, rng, stop=stop)
    last = len(path) - 1
    stopped_at = last if stop(path[last]) else None
    # every stride-th step, plus the last one (the stop step or ``steps``)
    kept = itertools.chain(range(0, last + 1, stride), [last] if last % stride else [])
    rows = ((k, *path[k].tolist()) for k in kept)

    resolved = dict(params)
    resolved.update({"N": n, "initial": start.tolist(),
                     "steps": steps, "stride": stride, "seed": seed})
    if threshold is not None:
        resolved["stop_threshold"] = float(threshold)
    header = ["step"] + [f"count_{j + 1}" for j in range(rule.m)]
    extras = {"stopped_at": stopped_at,
              "censored": bool(threshold is not None and stopped_at is None)}
    return resolved, {"trajectory.csv": _csv_bytes(header, rows)}, extras


@main.command("simulate")
@_common_options
def cmd_simulate(config_path, seed, replicates, threads, out_dir):
    """One trajectory of the resampling chain, written as CSV."""
    _dispatch("simulate", _run_simulate, config_path, seed, replicates,
              threads, out_dir)


# ----------------------------------------------------------------------
# extinction
# ----------------------------------------------------------------------

def _run_extinction(cfg: dict, threads: int):
    spec = ExperimentSpec.from_config(cfg)
    result = run_experiment(spec, threads=threads)
    outputs = {
        "summary.json": _json_bytes(result.summary_dict()),
        "trials.csv": _csv_bytes(result.TRIAL_COLUMNS, result.trial_rows()),
        "histogram.csv": _csv_bytes(
            ["bin_left", "bin_right", "count"],
            [(repr(float(l)), repr(float(r)), int(c))
             for l, r, c in zip(result.histogram_edges[:-1],
                                result.histogram_edges[1:],
                                result.histogram_counts)],
        ),
    }
    return spec.to_config(), outputs, {"censored_total": int(result.censored.sum())}


@main.command("extinction")
@_common_options
def cmd_extinction(config_path, seed, replicates, threads, out_dir):
    """Stopped or absorbed trial ensembles (outcome tables + histogram)."""
    _dispatch("extinction", _run_extinction, config_path, seed, replicates,
              threads, out_dir)


# ----------------------------------------------------------------------
# qsd
# ----------------------------------------------------------------------

def _run_qsd(cfg: dict, threads: int):
    check_fields(cfg, required=("N",),
                 optional=("include_weights", "tol", "seed", "replicates"))
    params = rule_params(cfg)
    rule = make_rule(**params)
    n_values = cfg["N"] if isinstance(cfg["N"], list) else [cfg["N"]]
    n_values = [int(v) for v in n_values]
    tol = float(cfg.get("tol", 1e-12))
    include_weights = bool(cfg.get("include_weights", False))

    results = []
    for n in n_values:
        chain = build_exact_chain(rule, n)
        res = interior_qsd(chain, tol=tol)
        entry = {
            "N": n,
            "eigenvalue": res.eigenvalue,
            "leak_residual": res.leak_residual,
            "iterations": res.iterations,
            "interior_states": int(res.weights.size),
        }
        if include_weights:
            entry["states"] = res.states.tolist()
            entry["weights"] = res.weights.tolist()
        results.append(entry)

    resolved = dict(params)
    resolved.update({"N": n_values if isinstance(cfg["N"], list) else n_values[0],
                     "tol": tol, "include_weights": include_weights})
    return resolved, {"qsd.json": _json_bytes({"results": results})}, None


@main.command("qsd")
@_common_options
def cmd_qsd(config_path, seed, replicates, threads, out_dir):
    """Quasi-stationary distribution of the interior restriction."""
    _dispatch("qsd", _run_qsd, config_path, seed, replicates, threads, out_dir)


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------

def _run_bounds(cfg: dict, threads: int):
    check_fields(cfg, required=("N", "epsilons", "horizon", "replicates", "seed"),
                 optional=("initial", "lipschitz_samples", "safety"))
    params = rule_params(cfg)
    rule = make_rule(**params)
    if "initial" in cfg:
        start = start_vector(cfg["initial"], rule.m)
    else:
        start = solve_interior_equilibrium(params["matrix"]).vector
    n_values = cfg["N"] if isinstance(cfg["N"], list) else [cfg["N"]]
    n_values = [int(v) for v in n_values]
    epsilons = [float(e) for e in cfg["epsilons"]]
    horizon = int(cfg["horizon"])
    replicates = int(cfg["replicates"])
    seed = int(cfg["seed"])
    samples = int(cfg.get("lipschitz_samples", 300))
    safety = float(cfg.get("safety", 1.2))

    master = np.random.SeedSequence(seed)
    streams = master.spawn(len(n_values) + 1)
    lip = estimate_lipschitz(rule, samples,
                             np.random.Generator(np.random.PCG64(streams[0])))
    rho = safety * lip.value

    rows = []
    expectation = []
    for idx, n in enumerate(n_values):
        x0 = round_to_lattice(start, n)
        rng = np.random.Generator(np.random.PCG64(streams[idx + 1]))
        ens = simulate_deviations(rule, x0, horizon, replicates, rng)
        for eps in epsilons:
            for row in bound_table(ens, eps, rho, rule.m):
                rows.append((row.n, row.epsilon, row.horizon, row.exceed_count,
                             row.replicates, repr(row.empirical),
                             repr(row.wilson_upper), repr(row.bound),
                             int(row.consistent)))
            entry = {"N": n, "epsilon": eps,
                     "censored_mean_tau": ens.censored_mean(eps)}
            if rho < 1.0:
                b = expected_decoupling_lower_bound(eps, n, rule.m, rho)
                entry.update({"expectation_bound": b.value,
                              "applicable": b.applicable})
            else:
                entry.update({"expectation_bound": None, "applicable": False})
            expectation.append(entry)

    resolved = dict(params)
    resolved.update({"N": n_values if isinstance(cfg["N"], list) else n_values[0],
                     "epsilons": epsilons, "horizon": horizon,
                     "replicates": replicates, "seed": seed,
                     "initial": start.tolist(),
                     "lipschitz_samples": samples, "safety": safety})
    header = ["N", "epsilon", "K", "exceed_count", "replicates",
              "empirical_prob", "wilson_upper_99", "bound", "consistent"]
    summary = {"lipschitz_estimate": lip.value, "rho_used": rho,
               "pair_max": lip.pair_max, "jacobian_max": lip.jacobian_max,
               "expectation": expectation}
    outputs = {"bounds.csv": _csv_bytes(header, rows),
               "bounds_summary.json": _json_bytes(summary)}
    return resolved, outputs, None


@main.command("bounds")
@_common_options
def cmd_bounds(config_path, seed, replicates, threads, out_dir):
    """Decoupling-time tail bounds versus empirical frequencies."""
    _dispatch("bounds", _run_bounds, config_path, seed, replicates, threads,
              out_dir)


if __name__ == "__main__":
    main()
