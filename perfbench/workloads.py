"""The four benchmark workloads: the config each gets from the seed, the
``wf`` command that runs it, the output checks, and the work it does.

``ensemble``    ``wf extinction --threads 2``: Table-1 stopped trials.
``trajectory``  ``wf simulate``: one long interior path written as CSV.
``exact``       ``wf qsd``: exact lattice chains and QSD power iteration.
``orbit_gap``   ``wf bounds``: batched deviation ensembles and tail bounds.

Every check returns a list of problems; an empty list means the run's
outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from common import wf_argv

A1 = [[1.0, 20.0, 45.0], [20.0, 21.0, 30.0], [45.0, 30.0, 1.0]]
A2 = [[1.0, 20.0, 35.0], [20.0, 21.0, 30.0], [35.0, 30.0, 1.0]]
CHI2 = [0.0246914, 0.7345679, 0.2407407]
STARTS = [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]

#: Reference least-abundant shares per start (the criterion-03 table).
TABLE1_TARGETS = {
    (0.8, 0.1, 0.1): (0.0933, 0.6831, 0.2248),
    (0.1, 0.8, 0.1): (0.5991, 0.0164, 0.3903),
    (0.1, 0.1, 0.8): (0.3692, 0.5940, 0.0373),
}

#: Interior survival factors of the A2 chain (omega 0.5), recorded with
#: dense power iteration before any change to the exact layer.
QSD_EIGENVALUES = {
    4: 0.4036259916210875,
    6: 0.6229268057516065,
    8: 0.7317312518845887,
    30: 0.9078479866108942,
    45: 0.9240319445077303,
    60: 0.9343082939550207,
    70: 0.9393747677012545,
}
EIGENVALUE_TOL = 1e-10
LEAK_TOL = 1e-10

#: Workload sizes.  ``timed`` is what the end-to-end runs measure.
#: ``traced`` differs only for ``ensemble``: 1000 trials per start, the
#: ROADMAP baseline size.  The share check needs ``timed``'s 2000 per
#: start: there the 0.05 tolerance is about 4.5 standard errors; at 1000
#: it is 3.2 and fails by chance in about one seed in 300.  ``smoke`` is
#: tiny and only exercises the plumbing, so its share tolerance accepts all.
SIZES = {
    "timed": {
        "ensemble": {"replicates": 2000, "share_tol": 0.05, "ref_stride": 10},
        "trajectory": {"steps": 100_000},
        "exact": {"ladder": [30, 45, 60, 70]},
        "orbit_gap": {"replicates": 16_000, "horizon": 100,
                      "lipschitz_samples": 1000},
    },
    "traced": {
        "ensemble": {"replicates": 1000, "share_tol": None, "ref_stride": 10},
        "trajectory": {"steps": 100_000},
        "exact": {"ladder": [30, 45, 60, 70]},
        "orbit_gap": {"replicates": 16_000, "horizon": 100,
                      "lipschitz_samples": 1000},
    },
    "smoke": {
        "ensemble": {"replicates": 8, "share_tol": 1.0, "ref_stride": 3},
        "trajectory": {"steps": 300},
        "exact": {"ladder": [4, 6, 8]},
        "orbit_gap": {"replicates": 200, "horizon": 10,
                      "lipschitz_samples": 50},
    },
}


def _read_json(path: Path):
    return json.loads(path.read_text())


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ----------------------------------------------------------------------
# ensemble
# ----------------------------------------------------------------------

def ensemble_config(seed: int, size: dict) -> dict:
    return {"matrix": A1, "omega_ratio": 0.001, "N": 500, "M": 3,
            "initials": STARTS, "replicates": size["replicates"], "seed": seed,
            "stop_threshold": 0.05, "sample_window": [1000, 5000]}


def trial_reference(cfg: dict, stride: int, offset: int) -> dict:
    """trials.csv rows of every ``stride``-th trial, computed in this
    process from the canonical per-trial streams (one thread)."""
    import numpy as np
    from wfsim.extinction import (ExperimentResult, ExperimentSpec,
                                  run_trial_threshold, trial_rng)
    from wfsim.meanfield import solve_interior_equilibrium
    from wfsim.simplex import round_to_lattice

    spec = ExperimentSpec.from_config(cfg)
    rule = spec.build_rule()
    eq = solve_interior_equilibrium(spec.rule_params["matrix"]).vector
    rows = []
    for i, initial in enumerate(spec.initials):
        x0 = round_to_lattice(np.asarray(initial), spec.n)
        for t in range(offset % stride, spec.replicates, stride):
            out = run_trial_threshold(
                rule, x0, trial_rng(spec.seed, i, t),
                stop_threshold=spec.stop_threshold,
                sample_window=spec.sample_window, max_steps=spec.max_steps,
                equilibrium=eq)
            rows.append((i, t, out))
    # trial_rows only reads ``rows``; reuse it so the format has one source
    formatted = ExperimentResult.trial_rows(types.SimpleNamespace(rows=rows))
    return {(r[0], r[1]): [str(v) for v in r] for r in formatted}


def ensemble_prepare(cfg: dict, size: dict, seed: int) -> dict:
    return {"reference": trial_reference(cfg, size["ref_stride"], seed)}


def ensemble_check(out: Path, cfg: dict, size: dict, state: dict) -> list[str]:
    problems = []
    manifest = _read_json(out / "manifest.json")
    if manifest.get("censored_total") != 0:
        problems.append(f"censored trials: {manifest.get('censored_total')}")
    table = _read_csv(out / "trials.csv")
    header, rows = table[0], table[1:]
    expected = len(cfg["initials"]) * cfg["replicates"]
    if len(rows) != expected:
        problems.append(f"trials.csv has {len(rows)} rows, expected {expected}")
    censored = header.index("censored")
    if any(r[censored] != "0" for r in rows):
        problems.append("trials.csv marks censored trials")
    by_key = {(int(r[0]), int(r[1])): r for r in rows}
    mismatched = [k for k, ref in state["reference"].items()
                  if by_key.get(k) != ref]
    if mismatched:
        problems.append(f"{len(mismatched)} trial rows differ from the "
                        f"one-thread reference, first {mismatched[0]}")
    tol = size["share_tol"]
    if tol is not None:
        counts = _read_json(out / "summary.json")["counts"]
        for initial, row in zip(cfg["initials"], counts):
            for share, target in zip((c / cfg["replicates"] for c in row),
                                     TABLE1_TARGETS[tuple(initial)]):
                if abs(share - target) > tol:
                    problems.append(f"start {initial}: share {share:.4f} vs "
                                    f"reference {target} (tolerance {tol})")
    return problems


def ensemble_work(out: Path, cfg: dict) -> tuple[int, int]:
    table = _read_csv(out / "trials.csv")
    col = table[0].index("stop_time")
    gens = sum(int(r[col]) for r in table[1:])
    return gens, gens


# ----------------------------------------------------------------------
# trajectory
# ----------------------------------------------------------------------

def trajectory_config(seed: int, size: dict) -> dict:
    return {"matrix": A1, "omega": 0.5, "N": 500, "initial": [0.8, 0.1, 0.1],
            "steps": size["steps"], "stride": 1, "seed": seed}


def trajectory_check(out: Path, cfg: dict, size: dict, state: dict) -> list[str]:
    problems = []
    blob = (out / "trajectory.csv").read_bytes()
    digest = hashlib.sha256(blob).hexdigest()
    if _read_json(out / "manifest.json")["outputs"].get("trajectory.csv") != digest:
        problems.append("manifest checksum does not match trajectory.csv")
    first = state.setdefault("checksum", digest)
    if digest != first:
        problems.append("trajectory.csv differs from the first run with this seed")
    rows = list(csv.reader(blob.decode().splitlines()))[1:]
    if len(rows) != cfg["steps"] + 1:
        problems.append(f"{len(rows)} rows, expected {cfg['steps'] + 1}")
    bad = [r[0] for r in rows if sum(int(c) for c in r[1:]) != cfg["N"]]
    if bad:
        problems.append(f"{len(bad)} rows do not sum to N, first at step {bad[0]}")
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        problems.append("step column is not 0, 1, 2, ...")
    return problems


def trajectory_work(out: Path, cfg: dict) -> tuple[int, int]:
    return cfg["steps"], cfg["steps"]


# ----------------------------------------------------------------------
# exact
# ----------------------------------------------------------------------

def exact_config(seed: int, size: dict) -> dict:
    # deterministic: the seed has nothing to vary here
    return {"matrix": A2, "omega": 0.5, "N": size["ladder"]}


def exact_check(out: Path, cfg: dict, size: dict, state: dict) -> list[str]:
    problems = []
    results = _read_json(out / "qsd.json")["results"]
    if [r["N"] for r in results] != cfg["N"]:
        problems.append(f"ladder {[r['N'] for r in results]} != {cfg['N']}")
    for r in results:
        if not r["leak_residual"] < LEAK_TOL:
            problems.append(f"N={r['N']}: leak residual {r['leak_residual']:.2e}")
        want = QSD_EIGENVALUES.get(r["N"])
        if want is None or abs(r["eigenvalue"] - want) > EIGENVALUE_TOL:
            problems.append(f"N={r['N']}: eigenvalue {r['eigenvalue']!r} vs "
                            f"recorded {want!r}")
    eigs = [r["eigenvalue"] for r in results]
    if not all(a < b for a, b in zip(eigs, eigs[1:])):
        problems.append(f"survival factors not strictly increasing: {eigs}")
    return problems


def exact_work(out: Path, cfg: dict) -> tuple[int, int]:
    """Generations: power-iteration steps, each advancing the interior law
    by one generation.  States: lattice states enumerated over the ladder."""
    results = _read_json(out / "qsd.json")["results"]
    gens = sum(r["iterations"] for r in results)
    states = sum(math.comb(n + 2, 2) for n in cfg["N"])
    return gens, states


# ----------------------------------------------------------------------
# orbit_gap
# ----------------------------------------------------------------------

def orbit_gap_config(seed: int, size: dict) -> dict:
    return {"matrix": A2, "omega": 0.5, "N": [500, 2000], "initial": CHI2,
            "epsilons": [0.05, 0.1], "horizon": size["horizon"],
            "replicates": size["replicates"], "seed": seed,
            "lipschitz_samples": size["lipschitz_samples"], "safety": 1.2}


def bound_cells(rows: list[list[str]]) -> tuple[list[str], int]:
    """Inconsistent cells among those some sample could pass (Wilson upper
    limit at zero exceedances within the bound), and the number of cells
    no sample can pass at this replicate count."""
    from wfsim.deviation import wilson_upper

    inconsistent, unsatisfiable = [], 0
    for n, eps, k, _, reps, _, _, bound, consistent in rows:
        if wilson_upper(0, int(reps)) > float(bound):
            unsatisfiable += 1
        elif consistent != "1":
            inconsistent.append(f"N={n} eps={eps} K={k}")
    return inconsistent, unsatisfiable


def orbit_gap_check(out: Path, cfg: dict, size: dict, state: dict) -> list[str]:
    problems = []
    rows = _read_csv(out / "bounds.csv")[1:]
    expected = len(cfg["N"]) * len(cfg["epsilons"]) * cfg["horizon"]
    if len(rows) != expected:
        problems.append(f"bounds.csv has {len(rows)} rows, expected {expected}")
    inconsistent, unsatisfiable = bound_cells(rows)
    if inconsistent:
        problems.append(f"{len(inconsistent)} satisfiable cells inconsistent, "
                        f"first {inconsistent[0]}")
    state["unsatisfiable_cells"] = unsatisfiable
    return problems


def orbit_gap_work(out: Path, cfg: dict) -> tuple[int, int]:
    gens = cfg["replicates"] * cfg["horizon"] * len(cfg["N"])
    return gens, gens


# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    threads: int
    main_output: str
    config: Callable[[int, dict], dict]
    check: Callable[[Path, dict, dict, dict], list[str]]
    work: Callable[[Path, dict], tuple[int, int]]
    prepare: Callable[[dict, dict, int], dict] = lambda cfg, size, seed: {}

    def argv(self, config_path: Path, out_dir: Path) -> list[str]:
        return wf_argv(self.command, "--config", str(config_path),
                       "--out", str(out_dir), "--threads", str(self.threads))


WORKLOADS = {w.name: w for w in (
    Workload("ensemble", "extinction", 2, "trials.csv", ensemble_config,
             ensemble_check, ensemble_work, ensemble_prepare),
    Workload("trajectory", "simulate", 1, "trajectory.csv", trajectory_config,
             trajectory_check, trajectory_work),
    Workload("exact", "qsd", 1, "qsd.json", exact_config, exact_check,
             exact_work),
    Workload("orbit_gap", "bounds", 1, "bounds.csv", orbit_gap_config,
             orbit_gap_check, orbit_gap_work),
)}
