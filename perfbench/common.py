"""Shared plumbing: repository paths, child processes and summary statistics."""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: A child that runs longer than this is killed (with its process group)
#: and counted as failed; every full-size workload finishes in well under it.
CHILD_TIMEOUT_S = 60.0


def child_env() -> dict:
    """Environment for child processes: the package is imported from ``src``."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def wf_argv(*args: str) -> list[str]:
    """The ``wf`` command line, run from source as ``python3 -m wfsim.cli``."""
    return [sys.executable, "-m", "wfsim.cli", *args]


@dataclass
class ChildRun:
    """One child process, timed from launch to exit, with its own rusage."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    timed_out: bool
    log: Path

    def log_tail(self, lines: int = 5) -> str:
        text = self.log.read_text(errors="replace").strip().splitlines()
        return " | ".join(text[-lines:])


def launch(argv: list[str], log: Path, timeout: float = CHILD_TIMEOUT_S) -> ChildRun:
    """Run ``argv`` from the repository root and reap it with ``os.wait4``.

    ``wait4`` reports the rusage of this child and of the children it
    reaped itself (a worker pool), never that of earlier siblings, which
    ``RUSAGE_CHILDREN`` would fold in as a running maximum.  The child
    leads its own process group, so a timeout kills its workers too.
    """
    state = {"reaped": False, "timed_out": False}
    lock = threading.Lock()
    with open(log, "wb") as sink:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=sink,
                                stderr=subprocess.STDOUT, start_new_session=True)

        def kill():
            with lock:
                if not state["reaped"]:
                    state["timed_out"] = True
                    os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        finally:
            with lock:
                state["reaped"] = True
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                    peak_rss_mb=usage.ru_maxrss / 1024.0,
                    returncode=proc.returncode, timed_out=state["timed_out"],
                    log=log)


def summary(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and sample count."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}
