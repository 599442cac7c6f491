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

import json
import os
import sys
import time
from itertools import islice
from pathlib import Path

# before numpy loads: no command uses a second BLAS thread, and starting
# OpenBLAS's pool slows the import and leaves a worker that can spin idle.
# An exported value is kept
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click
import numpy as np

from . import __version__
from .config import COMMANDS, resolve, rule_keywords
from .errors import ConfigError, PreconditionError, WfsimError
from .fitness import make_rule, rng_stream
from .simplex import round_to_lattice

#: Rows of a table formatted at a time by ``_csv_bytes``.
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
    """Every CSV output: ``header``, then ``rows`` (a 2-D array or an iterable
    of rows), ``CSV_CHUNK`` rows per %-format.  Fields are written by ``%s``,
    floats by repr; none needs quoting.  One chunk at a time is flattened,
    or pulled from an iterable, and it is freed once formatted."""
    width = len(header)
    line = ",".join(["%s"] * width) + "\n"

    def text(flat):
        return line * (len(flat) // width) % tuple(flat)

    if isinstance(rows, np.ndarray):
        body = (text(rows[lo: lo + CSV_CHUNK].ravel().tolist())
                for lo in range(0, len(rows), CSV_CHUNK))
    else:
        rows = iter(rows)
        body = iter(lambda: text([v for row in islice(rows, CSV_CHUNK) for v in row]), "")
    return "".join([",".join(header) + "\n", *body]).encode()


def _write_outputs(out_dir: Path, command: str, resolved_config: dict,
                   outputs: dict[str, bytes], extras: dict | None,
                   started: float) -> None:
    # imported here: after numpy, hashlib maps OpenSSL, 3.65 MiB of
    # resident memory that a run pays only once it writes
    import hashlib

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
                      help="extinction's worker processes, at most the cores, each "
                           "running its trial range of every start as one block "
                           "(never affect results); every command runs BLAS on one "
                           "OpenBLAS thread whatever K, unless OPENBLAS_NUM_THREADS "
                           "is exported (qsd's products stay on one)")
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
    from .meanfield import build_meanfield_report
    report = build_meanfield_report(rule, check_perm=cfg["check_permanence"])
    return {"report.json": _json_bytes(report)}, None


@_command("simulate")
def _run_simulate(cfg: dict, rule, threads: int):
    """One trajectory of the resampling chain, written as CSV."""
    from .chain import sample_path
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
    return {"trajectory.csv": _csv_bytes(header, table)}, extras


@_command("extinction")
def _run_extinction(cfg: dict, rule, threads: int):
    """Stopped or absorbed trial ensembles (outcome tables + histogram)."""
    from .extinction import ExperimentSpec, run_experiment
    result = run_experiment(ExperimentSpec(cfg), threads=threads)
    outputs = {
        "summary.json": _json_bytes(result.summary_dict()),
        "trials.csv": _csv_bytes(result.TRIAL_COLUMNS, result.trial_rows()),
        "histogram.csv": _csv_bytes(
            ["bin_left", "bin_right", "count"],
            zip(result.histogram_edges[:-1].tolist(),
                result.histogram_edges[1:].tolist(),
                result.histogram_counts.tolist()),
        ),
    }
    return outputs, {"censored_total": int(result.censored.sum())}


@_command("qsd")
def _run_qsd(cfg: dict, rule, threads: int):
    """Quasi-stationary distribution of the interior restriction."""
    from .chain import build_exact_chain, interior_qsd
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
    from . import deviation, meanfield
    if "initial" not in cfg:
        # the default start, recorded in the manifest: the interior equilibrium
        eq = meanfield.solve_interior_equilibrium(cfg["matrix"])
        if not eq.is_interior:
            raise PreconditionError(
                f"the equal-payoff profile {np.round(eq.vector, 6).tolist()} is not "
                "interior, so there is no default start: give initial")
        cfg["initial"] = eq.vector.tolist()
    n_values = cfg["N"] if isinstance(cfg["N"], list) else [cfg["N"]]
    lip = deviation.estimate_lipschitz(rule, cfg["lipschitz_samples"], rng_stream(cfg["seed"], 0))
    rho = cfg["safety"] * lip.value
    expectation = []

    def rows():
        # one N's ensemble at a time; each epsilon's rows go to the writer as
        # they are tabulated, and its expectation entry is appended after them
        for idx, n in enumerate(n_values):
            x0 = round_to_lattice(cfg["initial"], n)
            ens = deviation.simulate_deviations(rule, x0, cfg["horizon"], cfg["replicates"],
                                                rng_stream(cfg["seed"], idx + 1))
            for eps in cfg["epsilons"]:
                yield from ((row.n, row.epsilon, row.horizon, row.exceed_count,
                             row.replicates, row.empirical, row.wilson_upper,
                             row.bound, int(row.consistent))
                            for row in deviation.bound_table(ens, eps, rho, rule.m))
                entry = {"N": n, "epsilon": eps,
                         "censored_mean_tau": ens.censored_mean(eps)}
                if rho < 1.0:
                    b = deviation.expected_decoupling_lower_bound(eps, n, rule.m, rho)
                    entry.update({"expectation_bound": b.value,
                                  "applicable": b.applicable})
                else:
                    entry.update({"expectation_bound": None, "applicable": False})
                expectation.append(entry)
            # free this N's records before the next N's are simulated
            del ens

    table = _csv_bytes(["N", "epsilon", "K", "exceed_count", "replicates",
                        "empirical_prob", "wilson_upper_99", "bound", "consistent"],
                       rows())
    summary = {"lipschitz_estimate": lip.value, "rho_used": rho,
               "pair_max": lip.pair_max, "jacobian_max": lip.jacobian_max,
               "expectation": expectation}
    outputs = {"bounds.csv": table,
               "bounds_summary.json": _json_bytes(summary)}
    return outputs, None


if __name__ == "__main__":
    main()
