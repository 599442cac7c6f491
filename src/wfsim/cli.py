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
from .config import COMMANDS, resolve, rule_keywords
from .errors import ConfigError, WfsimError
from .extinction import ExperimentSpec, run_experiment
from .fitness import make_rule, rng_stream
from .meanfield import build_meanfield_report, solve_interior_equilibrium
from .simplex import round_to_lattice

#: Rows of an integer table formatted at a time by ``_int_csv_bytes``.
CSV_CHUNK = 4096


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


def _int_csv_bytes(header, table: np.ndarray) -> bytes:
    """``_csv_bytes(header, table.tolist())`` for an integer table, formatted
    ``CSV_CHUNK`` rows at a time with one %-format each."""
    line = ",".join(["%d"] * table.shape[1]) + "\n"
    parts = [",".join(header) + "\n"]
    for lo in range(0, len(table), CSV_CHUNK):
        chunk = table[lo: lo + CSV_CHUNK]
        parts.append(line * len(chunk) % tuple(chunk.ravel().tolist()))
    return "".join(parts).encode()


def _write_outputs(out_dir: Path, command: str, resolved_config: dict,
                   outputs: dict[str, bytes], extras: dict | None,
                   started: float) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    checksums = {}
    for name, blob in outputs.items():
        (out_dir / name).write_bytes(blob)
        checksums[name] = hashlib.sha256(blob).hexdigest()
    manifest = {
        "command": command,
        "config": resolved_config,
        "seed": resolved_config.get("seed"),
        "version": __version__,
        "wall_clock_s": round(time.perf_counter() - started, 3),
        "outputs": checksums,
    }
    if extras:
        manifest.update(extras)
    (out_dir / "manifest.json").write_bytes(_json_bytes(manifest))
    for name in list(outputs) + ["manifest.json"]:
        click.echo(f"wrote {out_dir / name}")


@click.group()
@click.version_option(version=__version__, prog_name="wf")
def main():
    """Simulation and analysis toolkit for multinomial resampling
    dynamics with fitness-weighted updates."""


def _dispatch(command: str, runner, config_path, seed, replicates, threads,
              out_dir) -> None:
    """Load, check and resolve the config, build the rule, run, write."""
    started = time.perf_counter()
    try:
        cfg = _load_config(config_path)
        for flag, field, value in (("--seed", "seed", seed),
                                   ("--replicates", "replicates", replicates)):
            if value is not None:
                if field not in COMMANDS[command]:
                    raise ConfigError(f"{flag} does not apply to wf {command}")
                cfg[field] = value
        if threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {threads}")
        cfg = resolve(command, cfg)
        outputs, extras = runner(cfg, make_rule(**rule_keywords(cfg)), threads)
        _write_outputs(Path(out_dir), command, cfg, outputs, extras, started)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(1)
    except (WfsimError, MemoryError) as exc:
        click.echo(f"error: {str(exc) or 'out of memory'}", err=True)
        sys.exit(2)


def _command(name: str):
    """Register ``runner(resolved_config, rule, threads) -> (outputs,
    extras)`` as ``wf <name>``, with its docstring as the help text."""
    def register(runner):
        @main.command(name, help=runner.__doc__)
        @click.option("--config", "config_path", type=str, default=None,
                      help="JSON config file (or a manifest.json)")
        @click.option("--seed", type=int, default=None,
                      help="override seed (simulate, extinction, bounds)")
        @click.option("--replicates", type=int, default=None,
                      help="override replicates (extinction, bounds)")
        @click.option("--threads", type=int, default=1,
                      help="extinction's worker processes, and trial blocks "
                           "per start, at most the cores (never affect results)")
        @click.option("--out", "out_dir", type=str, default=".",
                      help="output directory")
        def command(config_path, seed, replicates, threads, out_dir):
            _dispatch(name, runner, config_path, seed, replicates, threads,
                      out_dir)
        return runner
    return register


@_command("meanfield")
def _run_meanfield(cfg: dict, rule, threads: int):
    """Equilibrium, stability flags, Jacobian, and spectral radius."""
    report = build_meanfield_report(rule, check_perm=cfg["check_permanence"])
    return {"report.json": _json_bytes(report.to_dict())}, None


@_command("simulate")
def _run_simulate(cfg: dict, rule, threads: int):
    """One trajectory of the resampling chain, written as CSV."""
    n, stride, threshold = cfg["N"], cfg["stride"], cfg.get("stop_threshold")
    x0 = round_to_lattice(cfg["initial"], n)

    # without a threshold every row is written, so sample_path allocates them at once
    stop = None if threshold is None else (lambda counts: counts.min() / n <= threshold)
    path = sample_path(rule, x0, cfg["steps"], rng_stream(cfg["seed"]), stop=stop)
    last = len(path) - 1
    stopped_at = last if stop is not None and stop(path[last]) else None
    # every stride-th step, plus the last one (the stop step or ``steps``)
    kept = np.arange(0, last + 1, stride)
    if last % stride:
        kept = np.append(kept, last)
    header = ["step"] + [f"count_{j + 1}" for j in range(rule.m)]
    table = np.column_stack([kept, path[kept]])
    extras = {"stopped_at": stopped_at,
              "censored": bool(threshold is not None and stopped_at is None)}
    return {"trajectory.csv": _int_csv_bytes(header, table)}, extras


@_command("extinction")
def _run_extinction(cfg: dict, rule, threads: int):
    """Stopped or absorbed trial ensembles (outcome tables + histogram)."""
    result = run_experiment(ExperimentSpec(cfg), threads=threads)
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
    return outputs, {"censored_total": int(result.censored.sum())}


@_command("qsd")
def _run_qsd(cfg: dict, rule, threads: int):
    """Quasi-stationary distribution of the interior restriction."""
    results = []
    for n in cfg["N"] if isinstance(cfg["N"], list) else [cfg["N"]]:
        chain = build_exact_chain(rule, n)
        res = interior_qsd(chain, tol=cfg["tol"])
        entry = {
            "N": n,
            "eigenvalue": res.eigenvalue,
            "leak_residual": res.leak_residual,
            "iterations": res.iterations,
            "interior_states": int(res.weights.size),
        }
        if cfg["include_weights"]:
            entry["states"] = res.states.tolist()
            entry["weights"] = res.weights.tolist()
        results.append(entry)
    return {"qsd.json": _json_bytes({"results": results})}, None


@_command("bounds")
def _run_bounds(cfg: dict, rule, threads: int):
    """Decoupling-time tail bounds versus empirical frequencies."""
    if "initial" not in cfg:
        # the default start, recorded in the manifest: the interior equilibrium
        cfg["initial"] = solve_interior_equilibrium(cfg["matrix"]).vector.tolist()
    n_values = cfg["N"] if isinstance(cfg["N"], list) else [cfg["N"]]
    lip = estimate_lipschitz(rule, cfg["lipschitz_samples"], rng_stream(cfg["seed"], 0))
    rho = cfg["safety"] * lip.value

    # one CSV line per bound_table row, with the fields csv.writer would
    # write (floats by repr); the lines are joined and encoded once
    lines = ["N,epsilon,K,exceed_count,replicates,empirical_prob,"
             "wilson_upper_99,bound,consistent\n"]
    expectation = []
    for idx, n in enumerate(n_values):
        x0 = round_to_lattice(cfg["initial"], n)
        ens = simulate_deviations(rule, x0, cfg["horizon"], cfg["replicates"],
                                  rng_stream(cfg["seed"], idx + 1))
        for eps in cfg["epsilons"]:
            lines.extend(f"{row.n},{row.epsilon},{row.horizon},{row.exceed_count},"
                         f"{row.replicates},{row.empirical!r},{row.wilson_upper!r},"
                         f"{row.bound!r},{int(row.consistent)}\n"
                         for row in bound_table(ens, eps, rho, rule.m))
            entry = {"N": n, "epsilon": eps,
                     "censored_mean_tau": ens.censored_mean(eps)}
            if rho < 1.0:
                b = expected_decoupling_lower_bound(eps, n, rule.m, rho)
                entry.update({"expectation_bound": b.value,
                              "applicable": b.applicable})
            else:
                entry.update({"expectation_bound": None, "applicable": False})
            expectation.append(entry)
        # free this N's records before the next N's are simulated
        del ens

    summary = {"lipschitz_estimate": lip.value, "rho_used": rho,
               "pair_max": lip.pair_max, "jacobian_max": lip.jacobian_max,
               "expectation": expectation}
    outputs = {"bounds.csv": "".join(lines).encode(),
               "bounds_summary.json": _json_bytes(summary)}
    return outputs, None


if __name__ == "__main__":
    main()
