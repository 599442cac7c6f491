#!/usr/bin/env python3
"""wfsim benchmark.

Timed run (``--trace 0``): writes the workload's config from the seed,
times ``--seconds`` worth of its ``wf`` command in child processes, checks
every run's outputs, and reports the end-to-end metrics as medians.
Traced run (``--trace 1``): replays every workload's decomposition through
public calls with spans around them and reports the per-layer metrics.
Smoke mode (``--smoke``): every workload at a tiny size; checks that each
metric named in BENCHMARK.json is emitted with its unit and that a failed
output check is counted.

Run from the repository root:

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (``failed / attempted`` is the
error rate).  A results file with the spread of every metric, each run's
raw figures and the machine context is written under
``perfbench/out/results``; a traced run writes its spans beside its
outputs in ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import OUT, ROOT, SRC, launch, summary

#: Set-up probes per timed run; ``setup_s`` is the median of their
#: in-process import-plus-set-up times.
SETUP_LAUNCHES = 3
#: Import probes per traced run; ``cli.import_s`` is their median.
IMPORT_LAUNCHES = 3
#: A timed run makes at least this many runs of the workload's command,
#: and keeps going until ``--seconds`` have passed.
MIN_REPS = 2

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "gens_per_s": "1/s",
             "states_per_s": "1/s", "peak_rss_mb": "MiB"}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def probe(config_path: Path, log: Path) -> dict:
    """One set-up probe in a fresh process; its import and set-up times."""
    run = launch([sys.executable, str(Path(__file__).with_name("probe.py")),
                  str(config_path)], log)
    if run.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {run.log_tail()}")
    return json.loads(run.log.read_text().strip().splitlines()[-1])


def run_checks(wl, out_dir: Path, cfg: dict, size: dict, state: dict) -> list[str]:
    try:
        return wl.check(out_dir, cfg, size, state)
    except Exception as exc:  # unreadable or malformed outputs fail the run
        return [f"output check raised {type(exc).__name__}: {exc}"]


def sabotage(out_dir: Path, wl) -> None:
    """Drop the last line of the main output (smoke mode only)."""
    path = out_dir / wl.main_output
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def timed_run(name: str, seed: int, seconds: float, size_name: str = "timed",
              corrupt: bool = False) -> dict:
    from workloads import SIZES, WORKLOADS

    wl, size = WORKLOADS[name], SIZES[size_name][name]
    run_dir = fresh_dir(OUT / f"{name}-{size_name}-seed{seed}")
    cfg = wl.config(seed, size)
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    launches = 1 if size_name == "smoke" else SETUP_LAUNCHES
    setup = [probe(cfg_path, run_dir / "probe.log")["setup_s"]
             for _ in range(launches)]
    state = wl.prepare(cfg, size, seed)

    reps = []
    min_reps = 1 if size_name == "smoke" else MIN_REPS
    started = time.perf_counter()
    while True:
        out_dir = run_dir / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        child = launch(wl.argv(cfg_path, out_dir), run_dir / "wf.log")
        if child.returncode != 0:
            problems = [f"exit {child.returncode}"
                        + (" (timed out)" if child.timed_out else "")
                        + f": {child.log_tail()}"]
        else:
            if corrupt:
                sabotage(out_dir, wl)
            problems = run_checks(wl, out_dir, cfg, size, state)
        try:
            gens, states = wl.work(out_dir, cfg)
        except Exception:  # outputs missing: the run is already failed
            gens = states = 0
        reps.append({"wall_s": child.wall_s, "cpu_s": child.cpu_s,
                     "peak_rss_mb": child.peak_rss_mb,
                     "gens_per_s": gens / child.wall_s,
                     "states_per_s": states / child.wall_s,
                     "generations": gens, "states": states,
                     "problems": problems})
        if len(reps) >= min_reps and time.perf_counter() - started >= seconds:
            break

    spread = {"setup_s": summary(setup)}
    for key in ("wall_s", "cpu_s", "gens_per_s", "states_per_s", "peak_rss_mb"):
        spread[key] = summary([r[key] for r in reps])
    failed = sum(bool(r["problems"]) for r in reps)
    notes = {k: v for k, v in state.items() if k != "reference"}
    return {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": spread[k]["median"], "unit": E2E_UNITS[k]}
                    for k in E2E_UNITS},
        "details": {"workload": name, "seed": seed, "seconds": seconds,
                    "size": size_name, "config": cfg,
                    "error_rate": failed / len(reps),
                    "spread": {k: dict(v, unit=E2E_UNITS[k]) for k, v in spread.items()},
                    "setup_samples_s": setup, "runs": reps, "notes": notes},
    }


def traced_run(name: str, seed: int, size_name: str = "traced") -> dict:
    import layers
    from workloads import SIZES, WORKLOADS

    wsizes = SIZES[size_name]
    lsize = layers.LAYER_SIZES["smoke" if size_name == "smoke" else "full"]
    run_dir = fresh_dir(OUT / f"{name}-{size_name}-seed{seed}")
    configs = {w: WORKLOADS[w].config(seed, wsizes[w]) for w in WORKLOADS}

    tracer = layers.Tracer()
    outs = {w: layers.replay(tracer, w, configs[w], lsize) for w in layers.REPLAYS}
    tracer.run_id = "gaussian"
    layers.replay_gaussian(tracer, lsize)
    tracer.run_id = "baseline"
    layers.replay_baselines(tracer, configs["exact"], lsize)
    metrics = layers.layer_metrics(tracer, configs, outs, lsize)
    # Traced minus untraced time of this workload's replay, as the measured
    # cost of one traced call times the calls traced.  Timing the replay
    # twice instead measures run-to-run drift, which on a shared 2-core
    # machine is around a second against milliseconds of tracing.
    spans = sum(s["run"] == name for s in tracer.spans)
    metrics["trace.overhead_s"] = (spans * layers.span_cost(lsize["span_calls"]), "s")

    # cli layer: the workload's own command once, and fresh-process imports
    wl, cfg = WORKLOADS[name], configs[name]
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    imports = [probe(cfg_path, run_dir / "probe.log")["import_s"]
               for _ in range(IMPORT_LAUNCHES)]
    out_dir = run_dir / "out"
    child = launch(wl.argv(cfg_path, out_dir), run_dir / "wf.log")
    if child.returncode != 0:
        raise RuntimeError(f"{wl.command} failed: {child.log_tail()}")
    if name == "ensemble":
        # the traced one-thread run_experiment against the --threads 2 child
        state = {"reference": {(r[0], r[1]): [str(v) for v in r]
                               for r in outs["ensemble"]["result"].trial_rows()}}
    else:
        state = wl.prepare(cfg, wsizes[name], seed)
    problems = run_checks(wl, out_dir, cfg, wsizes[name], state)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    metrics["cli.import_s"] = (summary(imports)["median"], "s")
    metrics["cli.inner_s"] = (manifest["wall_clock_s"], "s")
    metrics["cli.output_mb"] = (
        sum(p.stat().st_size for p in out_dir.iterdir()) / 2**20, "MiB")

    spans_path = run_dir / "spans.json"
    spans_path.write_text(json.dumps(tracer.spans))
    return {
        "correct": not problems,
        "attempted": 1,
        "failed": int(bool(problems)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": {"workload": name, "seed": seed, "size": size_name,
                    "problems": problems, "spans_traced": spans,
                    "import_samples_s": imports,
                    "spans": str(spans_path.relative_to(ROOT))},
    }


# ----------------------------------------------------------------------
# machine context
# ----------------------------------------------------------------------

def _l3_cache():
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            if Path(index, "level").read_text().strip() == "3":
                return Path(index, "size").read_text().strip()
        except OSError:
            return None
    return None


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, when it can be asked."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def machine_context() -> dict:
    import numpy
    import scipy

    nproc = os.cpu_count()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _blas_threads()
    return {
        "nproc": nproc,
        "usable_cpus": len(os.sched_getaffinity(0)),
        "l3_cache": _l3_cache(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": f"{blas['name']} {blas['version']}",
                 "scipy": f"{scipy_blas['name']} {scipy_blas['version']}",
                 "threads": None if threads is None else min(threads, nproc)},
        "git_sha": _git_sha(),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# smoke mode
# ----------------------------------------------------------------------

def _expect_metrics(result: dict, want: dict, label: str) -> list[str]:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    problems = [f"{label}: {k} missing" for k in want if k not in got]
    problems += [f"{label}: {k} not in BENCHMARK.json" for k in got if k not in want]
    problems += [f"{label}: {k} has unit {got[k]}, expected {want[k]}"
                 for k in want if k in got and got[k] != want[k]]
    problems += [f"{label}: {k} is not a finite number"
                 for k, v in result["metrics"].items()
                 if not (isinstance(v["value"], (int, float))
                         and math.isfinite(v["value"]))]
    if not result["correct"]:
        problems.append(f"{label}: output checks failed: {result['details']}")
    return problems


def smoke() -> dict:
    from workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for name in WORKLOADS:
        problems += _expect_metrics(timed_run(name, 1, 0, "smoke"), e2e, name)
    problems += _expect_metrics(traced_run("ensemble", 1, "smoke"), per_layer,
                                "traced")
    bad = timed_run("ensemble", 1, 0, "smoke", corrupt=True)
    if bad["correct"] or bad["failed"] != bad["attempted"]:
        problems.append("a corrupted output was not counted as failed")
    return {"correct": not problems, "attempted": len(WORKLOADS) + 2,
            "failed": int(bool(problems)), "problems": problems}


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "wfsim" / "cli.py").is_file():
        print(f"no wfsim sources under {SRC}: run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.smoke:
        result = smoke()
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if args.trace:
        result = traced_run(args.workload, args.seed)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    details = result.pop("details")
    details["machine"] = machine_context()
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    path.write_text(json.dumps({**result, **details}, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
