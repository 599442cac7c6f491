"""Metastability and route-to-extinction experiments.

Near an interior equilibrium the finite population lingers for a long
time, then a large fluctuation pushes one type below a threshold or all
the way to extinction — and the theory predicts which type: one whose
expected next-generation share at the equilibrium is smallest.  This
module identifies that least-fit set, runs stopped and absorbed trial
ensembles with reproducible parallelism, and aggregates them into
per-initial-condition outcome counts plus a histogram of distances from
the equilibrium at a random intermediate time.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass
from functools import cache
from itertools import compress
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .config import resolve, rule_keywords
from .errors import (ConfigError, DimensionMismatch, DomainError, InvalidNormalization,
                     NoInteriorEquilibrium, PreconditionError, ResourceLimitExceeded)
from .fitness import UpdateRule, _row_sums, make_rule, rng_stream, sampling_probs
from .meanfield import solve_interior_equilibrium
from .simplex import LatticePoint, round_to_lattice

#: One-sided 95% normal quantile for the trend checks.
Z_95 = 1.6448536269514722

#: Scratch bytes for numpy's ``binomial_t`` parameter cache, one per
#: lockstep block: the struct is an int and 16 eight-byte fields (136 bytes
#: on 64-bit builds), with room to spare.
BINOMIAL_CACHE_BYTES = 256


# ----------------------------------------------------------------------
# least-fit analysis at equilibrium
# ----------------------------------------------------------------------

def least_fit(rule: UpdateRule, point) -> tuple[int, ...]:
    """The types with the minimal expected next-generation share at a
    profile, as ascending 1-based labels.

    Ties are exact: every index attaining the minimum goes into the
    least-fit set.  A uniform image has no least-fit type and is rejected.
    """
    image = rule.update_probs(np.asarray(point, dtype=np.float64))
    mask = image == image.min()
    if mask.all():
        raise DomainError(
            "update image is uniform; the least-fit set is undefined"
        )
    return tuple(int(j) + 1 for j in np.flatnonzero(mask))


# ----------------------------------------------------------------------
# single trials
# ----------------------------------------------------------------------

class TrialOutcome(NamedTuple):
    """Result of one simulated trial (threshold-stopped or absorbed)."""

    stop_time: int
    censored: bool
    least_index: int               # 0-based argmin at the stop state
    tie: bool
    sample_time: Optional[int] = None     # step at which d_eq was taken
    early_sample: bool = False            # sampled before the window (stop came first)
    d_eq: Optional[float] = None
    support_size: Optional[int] = None    # absorption mode only
    vanished: Optional[tuple[int, ...]] = None  # 0-based extinct indices
    event: Optional[bool] = None          # exactly one extinct type, in the least-fit set


@cache
def _c_multinomial():
    """numpy's C draw ``random_multinomial(bitgen_t *, int64 n, int64 *out,
    double *p, npy_intp d, binomial_t *)``, which ``Generator.multinomial``
    wraps, and the reader of a stream's ``bitgen_t *`` from its capsule.
    Resolved on first use: reading ``np.random`` loads numpy.random, which
    commands that never sample do not pay for.  ``PyDLL`` keeps the GIL
    through each call."""
    draw = getattr(ctypes.PyDLL(np.random._generator.__file__), "random_multinomial", None)
    if draw is None:
        raise PreconditionError(f"numpy {np.__version__} exports no random_multinomial "
                                "from numpy.random._generator; lockstep trials draw with it")
    # no argtypes: each call passes ctypes objects of the C types, which
    # go through unconverted; declared argtypes made a draw ~30% slower
    draw.restype = None
    bitgen = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return draw, bitgen


def _check_law(law: np.ndarray) -> None:
    """``Generator.multinomial``'s checks on its probabilities, run once on
    a whole law (L, M): every cell in [0, 1] and not NaN, and the first M-1
    cells of each row summing to at most 1 + 1e-12."""
    if not (law.min() >= 0.0 and law.max() <= 1.0):
        raise InvalidNormalization("sampling law has a NaN or a cell outside [0, 1]")
    head = _row_sums(law[:, :-1]).max()
    if head > 1.0 + 1e-12:
        raise InvalidNormalization(f"sampling law's first M-1 cells sum to {head!r} > 1 + 1e-12")


class _BlockDraws:
    """The multinomial draws of a lockstep block, one C call per live
    stream, with ``Generator.multinomial``'s bits and stream advances.

    Calling it with a law (L, M) draws ``n`` items for row j from the j-th
    live stream; :meth:`keep` drops the streams of ended trials.  Each
    stream draws into its own row of a fixed counts buffer from its own
    row of a fixed law buffer, so its call arguments are built once.  The
    Generators' locks are not taken: no other thread may draw from these
    streams meanwhile."""

    def __init__(self, gens: list, n: int, m: int):
        self._call, bitgen = _c_multinomial()
        self._gens = gens                   # owners of the bitgen_t pointed to
        law, counts = (ctypes.c_double * (len(gens) * m))(), (ctypes.c_int64 * (len(gens) * m))()
        self._law, self._counts = np.frombuffer(law), np.frombuffer(counts, dtype=np.int64)
        n_c, m_c = ctypes.c_int64(n), ctypes.c_ssize_t(m)
        cache_c = ctypes.create_string_buffer(BINOMIAL_CACHE_BYTES)
        row = 8 * m                         # bytes per row of either buffer
        self._args = [(ctypes.c_void_p(bitgen(g.bit_generator.capsule, b"BitGenerator")), n_c,
                       ctypes.byref(counts, row * j), ctypes.byref(law, row * j), m_c, cache_c)
                      for j, g in enumerate(gens)]
        self._cells = np.arange(len(gens) * m)     # buffer cells of the live streams' rows

    def keep(self, mask: np.ndarray) -> None:
        self._args = list(compress(self._args, mask.tolist()))
        self._cells = self._cells.reshape(len(mask), -1)[mask].ravel()

    def __call__(self, law: np.ndarray) -> np.ndarray:
        _check_law(law)
        self._law.put(self._cells, law)
        # the C draw writes no cells after the count runs out
        self._counts.fill(0)
        call = self._call
        for args in self._args:
            call(*args)
        return self._counts.take(self._cells).reshape(law.shape)


def _lockstep(rule: UpdateRule, x0: LatticePoint, rng, threshold: float,
              max_steps: int, window: Optional[tuple[int, int]], finish):
    """Run one trial per stream from ``x0``, all in lockstep, until its
    least frequency is at most ``threshold`` (checked from step 0) or
    ``max_steps`` pass.  Each generation the live trials share one batch
    ``sampling_probs`` call, whose rows do not depend on the batch, and
    draw from their own streams, so a trial's path is the same in any
    block.  With a ``window`` each stream first draws the step whose state
    is sampled; if the stop comes first, the state before it is (early).
    ``finish(outcome, counts, sample, sample_time, early)`` completes it."""
    gens = [rng] if isinstance(rng, np.random.Generator) else list(rng)
    n, r = x0.n, len(gens)
    t_star = np.array([int(g.integers(window[0], window[1] + 1)) for g in gens]
                      if window else np.zeros(r), dtype=np.int64)
    final = np.tile(x0.counts, (r, 1))
    before, sampled = final.copy(), final.copy()
    censored = final.min(axis=1) / n > threshold
    stop = np.where(censored, max_steps, 0)
    live = np.flatnonzero(censored)
    draw, cur = _BlockDraws([gens[j] for j in live], n, x0.m), final[live]
    prev, marks = cur, set(t_star.tolist())
    for k in range(1, max_steps + 1):
        if not live.size:
            break
        prev, cur = cur, draw(sampling_probs(rule, cur / n))
        if k in marks:
            hit = t_star[live] == k
            sampled[live[hit]] = cur[hit]
        # x / n is monotone in x, so the block's least count decides
        if cur.min() / n <= threshold:
            done = cur.min(axis=1) / n <= threshold
            ended = live[done]
            stop[ended], final[ended], before[ended] = k, cur[done], prev[done]
            censored[ended] = False
            live, cur, prev = live[~done], cur[~done], prev[~done]
            draw.keep(~done)
    final[live], before[live] = cur, prev
    outs = []
    for j, (k, t) in enumerate(zip(stop.tolist(), t_star.tolist())):
        ties = np.flatnonzero(final[j] == final[j].min())
        out = TrialOutcome(k, bool(censored[j]), int(ties[0]), ties.size > 1)
        early = t > k
        outs.append(finish(out, final[j], before[j] if early else sampled[j],
                           max(k - 1, 0) if early else t, early))
    return outs[0] if isinstance(rng, np.random.Generator) else outs


def run_trial_threshold(rule: UpdateRule, x0: LatticePoint,
                        rng: np.random.Generator | Sequence[np.random.Generator],
                        *, stop_threshold: float = 0.05,
                        sample_window: tuple[int, int] = (1000, 5000),
                        max_steps: int = 1_000_000,
                        equilibrium: Optional[np.ndarray] = None):
    """Simulate until some type's frequency drops to the stop threshold.

    Records the least-abundant type at the stop time (ties broken toward
    the lowest index and flagged) and the Euclidean distance to the
    equilibrium at a uniformly random step inside ``sample_window`` — or
    at the step before stopping when the trial ends sooner (flagged).
    Hitting ``max_steps`` first marks the trial censored.  ``rng`` is one
    stream (returns one outcome) or a sequence of streams, one trial
    each, run in lockstep (returns their outcomes in order).  The draws
    bypass the Generators' locks: no other thread may draw from these
    streams during the call.
    """
    lo, hi = int(sample_window[0]), int(sample_window[1])
    if not 0 <= lo <= hi:
        raise ConfigError(f"bad sample window {sample_window}")

    def finish(out, counts, sample, sample_time, early):
        d = (float(np.linalg.norm(sample / x0.n - equilibrium))
             if equilibrium is not None else None)
        return out._replace(sample_time=sample_time, early_sample=early, d_eq=d)

    return _lockstep(rule, x0, rng, stop_threshold, max_steps, (lo, hi), finish)


def run_trial_absorption(rule: UpdateRule, x0: LatticePoint,
                         rng: np.random.Generator | Sequence[np.random.Generator],
                         *, least_fit_set: Sequence[int],
                         max_steps: int = 1_000_000):
    """Simulate until the first boundary hit (some type's count reaches 0)
    and label it: does exactly one type vanish, and is it least-fit?
    ``least_fit_set`` holds 1-based labels, as :func:`least_fit` returns.

    Requires a mutation-free rule (so the boundary is absorbing) and an
    interior start.  ``rng`` is one stream or a sequence of them, as in
    :func:`run_trial_threshold`.
    """
    if rule.mutation is not None:
        raise PreconditionError("absorption trials require a mutation-free rule")
    if np.any(x0.counts == 0):
        raise PreconditionError("absorption trials require an interior start")
    if not all(1 <= label <= x0.m for label in least_fit_set):
        raise DimensionMismatch(f"least-fit labels {least_fit_set} out of range 1..{x0.m}")

    def finish(out, counts, *_):
        zeros = np.flatnonzero(counts == 0)
        support_size = int(np.count_nonzero(counts))
        event = (None if out.censored else
                 support_size == x0.m - 1 and int(zeros[0]) + 1 in least_fit_set)
        return out._replace(support_size=support_size, event=event,
                            vanished=tuple(int(z) for z in zeros))

    return _lockstep(rule, x0, rng, 0.0, max_steps, None, finish)


# ----------------------------------------------------------------------
# ensembles
# ----------------------------------------------------------------------

class ExperimentSpec:
    """A trial ensemble: a resolved ``extinction`` config (see
    :mod:`wfsim.config`) with its fields as attributes.  Build it with
    :meth:`from_config`; the constructor takes an already resolved config."""

    def __init__(self, config: dict):
        self.config = config
        self.rule_params = rule_keywords(config)
        self.n, self.m, self.initials = config["N"], config["M"], config["initials"]
        self.replicates, self.seed = config["replicates"], config["seed"]
        self.mode, self.stop_threshold = config["mode"], config["stop_threshold"]
        self.sample_window = tuple(config["sample_window"])
        self.max_steps, self.bin_width = config["max_steps"], config["bin_width"]

    @classmethod
    def from_config(cls, cfg: dict) -> "ExperimentSpec":
        """Check and resolve a config mapping with the documented field names."""
        return cls(resolve("extinction", cfg))

    def to_config(self) -> dict:
        """Resolved config mapping; feeding it back reproduces this spec."""
        return dict(self.config)

    def build_rule(self) -> UpdateRule:
        return make_rule(**self.rule_params)


def trial_rng(seed: int, initial_idx: int, trial: int) -> np.random.Generator:
    """The canonical per-trial stream, spawn key (initial, trial)."""
    return rng_stream(seed, initial_idx, trial)


def _experiment_context(spec: ExperimentSpec):
    """What every block of a run shares: (rule, equilibrium or None,
    least-fit labels or None)."""
    rule = spec.build_rule()
    eq = fit_set = None
    try:
        result = solve_interior_equilibrium(spec.rule_params["matrix"])
        eq = result.vector if result.is_interior else None
        fit_set = None if eq is None else least_fit(rule, eq)
    except (NoInteriorEquilibrium, DomainError):
        pass
    if spec.mode == "absorption" and fit_set is None:
        raise PreconditionError(
            "absorption experiments need an interior equilibrium with a "
            "non-uniform update image to define the least-fit set"
        )
    return rule, eq, fit_set


def _run_chunk(spec: ExperimentSpec, rule: UpdateRule, eq: Optional[np.ndarray],
               fit_set: Optional[tuple[int, ...]], initial_idx: int, start: int,
               stop: int) -> list[tuple[int, int, TrialOutcome]]:
    """Worker: trials [start, stop) of one initial condition, as one
    lockstep block, under the run's ``_experiment_context``."""
    x0 = round_to_lattice(np.asarray(spec.initials[initial_idx]), spec.n)
    trials = range(start, stop)
    rngs = [trial_rng(spec.seed, initial_idx, trial) for trial in trials]
    if spec.mode == "threshold":
        outs = run_trial_threshold(
            rule, x0, rngs, stop_threshold=spec.stop_threshold,
            sample_window=spec.sample_window, max_steps=spec.max_steps,
            equilibrium=eq)
    else:
        outs = run_trial_absorption(rule, x0, rngs, least_fit_set=fit_set,
                                    max_steps=spec.max_steps)
    return [(initial_idx, trial, out) for trial, out in zip(trials, outs)]


@dataclass
class ExperimentResult:
    """Aggregated ensemble outcome.

    ``counts[i, j]`` is the number of uncensored trials of initial
    condition ``i`` whose least-abundant (threshold mode) or vanished-set
    argmin (absorption mode) type was ``j``.
    """

    spec: ExperimentSpec
    counts: np.ndarray                 # (I, M) int64
    censored: np.ndarray               # (I,) int64
    rows: list[tuple[int, int, TrialOutcome]]
    histogram_edges: np.ndarray
    histogram_counts: np.ndarray
    equilibrium: Optional[np.ndarray]
    least_fit_labels: Optional[list[int]]
    mean_stop_time: np.ndarray                    # uncensored mean, per initial
    event_counts: Optional[np.ndarray] = None     # absorption mode, per initial

    def summary_dict(self) -> dict:
        out = {
            "config": self.spec.to_config(),
            "counts": self.counts.tolist(),
            "censored": self.censored.tolist(),
            "equilibrium": None if self.equilibrium is None else self.equilibrium.tolist(),
            "least_fit_types": self.least_fit_labels,
            "replicates": self.spec.replicates,
            "mean_stop_time": [None if not np.isfinite(v) else float(v)
                               for v in self.mean_stop_time],
        }
        if self.event_counts is not None:
            out["event_counts"] = self.event_counts.tolist()
        return out

    TRIAL_COLUMNS = ("initial_idx", "trial", "stop_time", "least_type", "tie",
                     "sample_time", "early_sample", "d_eq", "support_size",
                     "vanished_types", "event", "censored")

    def trial_rows(self):
        """Rows for trials.csv, aligned with TRIAL_COLUMNS."""
        for initial_idx, trial, out in self.rows:
            yield (
                initial_idx, trial, out.stop_time, out.least_index + 1,
                int(out.tie),
                "" if out.sample_time is None else out.sample_time,
                int(out.early_sample),
                "" if out.d_eq is None else repr(out.d_eq),
                "" if out.support_size is None else out.support_size,
                "" if out.vanished is None else ";".join(str(v + 1) for v in out.vanished),
                "" if out.event is None else int(out.event),
                int(out.censored),
            )


def run_experiment(spec: ExperimentSpec, threads: int = 1) -> ExperimentResult:
    """Run the full ensemble: every initial condition times ``replicates``
    trials, in lockstep blocks merged deterministically.  Each initial
    condition gets one block per worker process, at most ``threads``, the
    cores and the trials; with one worker the blocks run in this process.

    Results are identical for any ``threads`` and any split into blocks
    because each trial draws from its own (seed, initial, trial) stream.
    """
    if threads < 1:
        raise ConfigError("threads must be positive")
    rule, eq, fit_set = _experiment_context(spec)
    # the last edge reaches sqrt(2), the largest distance between two simplex
    # points, so np.histogram drops no distance; built before any trial runs,
    # so a bin count past what memory holds is refused at once
    width = spec.bin_width
    try:
        n_bins = max(int(round(1.5 / width)), math.ceil(math.sqrt(2) / width))
        edges = np.linspace(0.0, n_bins * width, n_bins + 1)
    except (OverflowError, ValueError, MemoryError):
        raise ResourceLimitExceeded(f"bin_width {width} asks for more histogram "
                                    "bins than memory holds") from None

    n_initials = len(spec.initials)
    # one block per worker that can run: more blocks would only shrink the
    # lockstep batches, and a forked pool starts all its workers at once
    workers = min(threads, os.cpu_count() or 1, spec.replicates)
    chunk = math.ceil(spec.replicates / workers)
    tasks = [(i, s, min(s + chunk, spec.replicates))
             for i in range(n_initials) for s in range(0, spec.replicates, chunk)]

    if workers == 1:
        blocks = [_run_chunk(spec, rule, eq, fit_set, *task) for task in tasks]
    else:
        # imported here, so runs that never start a pool skip its import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_chunk, spec, rule, eq, fit_set, *t) for t in tasks]
            blocks = [f.result() for f in futures]
    # tasks run in (initial, trial) order, so the rows come out sorted
    all_rows = [row for block in blocks for row in block]

    counts = np.zeros((n_initials, spec.m), dtype=np.int64)
    censored = np.zeros(n_initials, dtype=np.int64)
    event_counts = np.zeros(n_initials, dtype=np.int64)
    stop_sums = np.zeros(n_initials)
    d_values = []
    for initial_idx, _, out in all_rows:
        if out.censored:
            censored[initial_idx] += 1
            continue
        counts[initial_idx, out.least_index] += 1
        stop_sums[initial_idx] += out.stop_time
        event_counts[initial_idx] += bool(out.event)
        if out.d_eq is not None:
            d_values.append(out.d_eq)

    hist, _ = np.histogram(np.asarray(d_values), bins=edges)

    stopped = counts.sum(axis=1)
    mean_stop = np.where(stopped > 0, stop_sums / np.maximum(stopped, 1), np.nan)
    return ExperimentResult(
        spec=spec, counts=counts, censored=censored, rows=all_rows,
        histogram_edges=edges, histogram_counts=hist,
        equilibrium=eq,
        least_fit_labels=None if fit_set is None else list(fit_set),
        mean_stop_time=mean_stop,
        event_counts=event_counts if spec.mode == "absorption" else None,
    )


# ----------------------------------------------------------------------
# trend checks across population sizes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TrendReport:
    """Monotone-proportion check over an ordered ladder of sample points.

    A pair fails when the later proportion is significantly *below* the
    earlier one (one-sided two-proportion z-test); the trend holds when no
    pair fails.
    """

    ok: bool
    z_values: tuple[float, ...]
    proportions: tuple[float, ...]


def increasing_proportion_trend(counts: Sequence[tuple[int, int]]) -> TrendReport:
    """Check that binomial proportions do not significantly decrease along
    a ladder; ``counts`` holds (successes, trials) per rung."""
    if len(counts) < 2:
        raise DomainError("need at least two ladder points")
    if any(trials < 1 or not 0 <= successes <= trials for successes, trials in counts):
        raise DomainError("bad (successes, trials) pair")
    zs = []
    for (s1, t1), (s2, t2) in zip(counts, counts[1:]):
        pool = (s1 + s2) / (t1 + t2)
        se = math.sqrt(max(pool * (1.0 - pool), 1e-300) * (1.0 / t1 + 1.0 / t2))
        zs.append((s1 / t1 - s2 / t2) / se)
    return TrendReport(ok=not any(z > Z_95 for z in zs), z_values=tuple(zs),
                       proportions=tuple(s / t for s, t in counts))
