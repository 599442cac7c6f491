"""Metastability and route-to-extinction experiments.

Near an interior equilibrium the finite population lingers for a long
time, then a large fluctuation pushes one type below a threshold or all
the way to extinction — and the theory predicts which type: one whose
expected next-generation share at the equilibrium is smallest.  This
module identifies that least-fit set, runs stopped and absorbed trial
ensembles with reproducible parallelism, and aggregates them into
per-initial-condition outcome counts plus a histogram of distances from
the equilibrium at a random intermediate time.

Each trial draws from its own (seed, initial, trial) stream, so a trial's
outcome does not depend on the block it runs in.  An ensemble splits its
trials into ranges (:func:`run_experiment` alone decides the split) and
runs each range for every initial condition at once as one lockstep block
of at most ``LOCKSTEP_TRIALS`` trials: the block's streams are seeded
together by :func:`wfsim.fitness.rng_streams`, its generations share one
update-map call and one C multinomial call per live trial
(``fitness._c_multinomial``), and its outcomes are read off whole arrays.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .config import resolve, rule_keywords
from .errors import (ConfigError, DimensionMismatch, DomainError, NoInteriorEquilibrium,
                     PreconditionError, ResourceLimitExceeded)
from .fitness import (BINOMIAL_CACHE_BYTES, UpdateRule, _c_multinomial, _check_law, make_rule,
                      rng_stream, rng_streams, sampling_probs)
from .meanfield import solve_interior_equilibrium
from .simplex import LatticePoint, round_to_lattice

#: One-sided 95% normal quantile for the trend checks.
Z_95 = 1.6448536269514722

#: Most trials in one lockstep block, about 13 MiB of block state at
#: ~1.6 KB a trial.  An ensemble past it runs as several blocks.
LOCKSTEP_TRIALS = 8192


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
        n_c, m_c, row = ctypes.c_int64(n), ctypes.c_ssize_t(m), 8 * m   # row: bytes per row
        cache_c = (ctypes.c_char * BINOMIAL_CACHE_BYTES)()
        self._args = [(bitgen(g), n_c, ctypes.byref(counts, row * j),
                       ctypes.byref(law, row * j), m_c, cache_c) for j, g in enumerate(gens)]
        self._cells = np.arange(len(gens) * m)     # buffer cells of the live streams' rows

    def keep(self, mask: np.ndarray) -> None:
        self._args = list(compress(self._args, mask.tolist()))
        self._cells = self._cells.reshape(len(mask), -1)[mask].ravel()

    def __call__(self, law: np.ndarray) -> np.ndarray:
        self._law.put(self._cells, _check_law(law))
        # the C draw writes no cells after the count runs out
        self._counts.fill(0)
        call = self._call
        for args in self._args:
            call(*args)
        return self._counts.take(self._cells).reshape(law.shape)


class _Block(NamedTuple):
    """Per-trial arrays of a finished lockstep block (R trials, M types)."""

    stop: np.ndarray               # (R,) step of the stop, max_steps if censored
    censored: np.ndarray           # (R,) bool
    final: np.ndarray              # (R, M) counts at the stop
    sample_time: np.ndarray        # (R,) step whose counts are sampled
    early: np.ndarray              # (R,) bool: the stop came before the sample step
    sample: np.ndarray             # (R, M) counts at sample_time
    n: int                         # population size

    def least_and_ties(self) -> tuple[list[int], list[bool]]:
        """Each trial's least type at the stop (0-based, lowest index on a
        tie) and whether another type ties it."""
        low = self.final == self.final.min(axis=1, keepdims=True)
        return low.argmax(axis=1).tolist(), (low.sum(axis=1) > 1).tolist()


def _lockstep(rule: UpdateRule, x0, gens: list, threshold: float,
              max_steps: int, window: Optional[tuple[int, int]]) -> _Block:
    """Run one trial per stream, all in lockstep, until its least frequency
    is at most ``threshold`` (checked from step 0) or ``max_steps`` pass.
    ``x0`` is one start for every stream or a sequence of one start per
    stream, all with the same N and M.  Each generation the live trials
    share one batch ``sampling_probs`` call, whose rows do not depend on
    the batch, and draw from their own streams, so a trial's path is the
    same in any block.  With a ``window`` each stream first draws the step
    whose state is sampled; if the stop comes first, the state before it
    is (early)."""
    r = len(gens)
    starts = [x0] * r if isinstance(x0, LatticePoint) else list(x0)
    if len(starts) != r:
        raise DimensionMismatch(f"{len(starts)} starts for {r} streams")
    n, m = starts[0].n, starts[0].m
    if any(p.n != n or p.m != m for p in starts):
        raise DimensionMismatch("the starts of one block must share N and M")
    t_star = np.array([int(g.integers(window[0], window[1] + 1)) for g in gens]
                      if window else np.zeros(r), dtype=np.int64)
    final = np.array([p.counts for p in starts])
    before, sampled = final.copy(), final.copy()
    censored = final.min(axis=1) / n > threshold
    stop = np.where(censored, max_steps, 0)
    live = np.flatnonzero(censored)
    draw, cur = _BlockDraws([gens[j] for j in live], n, m), final[live]
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
    early = t_star > stop
    return _Block(stop, censored, final, np.where(early, np.maximum(stop - 1, 0), t_star),
                  early, np.where(early[:, None], before, sampled), n)


def _streams(rng) -> list:
    """One stream or a sequence of them, as a list."""
    return [rng] if isinstance(rng, np.random.Generator) else list(rng)


def _distances(counts: np.ndarray, n: int, point: np.ndarray) -> list[float]:
    """Euclidean distance of each row's profile ``counts / n`` from
    ``point``, with the bits of ``np.linalg.norm`` on that row: the squared
    norms go through numpy's dot kernel, which ``norm`` calls, as a stack of
    (1, M) @ (M, 1) products (``norm(axis=1)`` and ``einsum`` sum in
    another order)."""
    diff = counts / n - point
    return np.sqrt(diff[:, None, :] @ diff[:, :, None]).ravel().tolist()


def run_trial_threshold(rule: UpdateRule, x0: LatticePoint | Sequence[LatticePoint],
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
    each, run in lockstep (returns their outcomes in order); ``x0`` is one
    start for every stream or one start per stream.  The draws bypass the
    Generators' locks: no other thread may draw from these streams during
    the call.
    """
    lo, hi = int(sample_window[0]), int(sample_window[1])
    if not 0 <= lo <= hi:
        raise ConfigError(f"bad sample window {sample_window}")
    gens = _streams(rng)
    if not gens:
        return []
    block = _lockstep(rule, x0, gens, stop_threshold, max_steps, (lo, hi))
    d_eq = (repeat(None) if equilibrium is None
            else _distances(block.sample, block.n, equilibrium))
    outs = list(map(TrialOutcome, block.stop.tolist(), block.censored.tolist(),
                    *block.least_and_ties(), block.sample_time.tolist(),
                    block.early.tolist(), d_eq))
    return outs[0] if isinstance(rng, np.random.Generator) else outs


def run_trial_absorption(rule: UpdateRule, x0: LatticePoint | Sequence[LatticePoint],
                         rng: np.random.Generator | Sequence[np.random.Generator],
                         *, least_fit_set: Sequence[int],
                         max_steps: int = 1_000_000):
    """Simulate until the first boundary hit (some type's count reaches 0)
    and label it: does exactly one type vanish, and is it least-fit?
    ``least_fit_set`` holds 1-based labels, as :func:`least_fit` returns.

    Requires a mutation-free rule (so the boundary is absorbing) and
    interior starts.  ``x0`` and ``rng`` are as in
    :func:`run_trial_threshold`.
    """
    starts = [x0] if isinstance(x0, LatticePoint) else x0
    if rule.mutation is not None:
        raise PreconditionError("absorption trials require a mutation-free rule")
    if any(np.any(p.counts == 0) for p in starts):
        raise PreconditionError("absorption trials require an interior start")
    if not all(1 <= label <= rule.m for label in least_fit_set):
        raise DimensionMismatch(f"least-fit labels {least_fit_set} out of range 1..{rule.m}")
    gens = _streams(rng)
    if not gens:
        return []

    block = _lockstep(rule, x0, gens, 0.0, max_steps, None)
    zero = block.final == 0
    support = rule.m - zero.sum(axis=1)
    # an uncensored trial has a zero count; argmax finds the first
    event = ((support == rule.m - 1) & np.isin(zero.argmax(axis=1) + 1, least_fit_set)).tolist()
    vanished = [tuple(j for j, z in enumerate(row) if z) for row in zero.tolist()]
    outs = list(map(TrialOutcome, block.stop.tolist(), block.censored.tolist(),
                    *block.least_and_ties(), repeat(None), repeat(False), repeat(None),
                    support.tolist(), vanished,
                    [None if c else e for c, e in zip(block.censored.tolist(), event)]))
    return outs[0] if isinstance(rng, np.random.Generator) else outs


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


def trial_rng(seed: int, initial_idx: int, trial: int | range):
    """The canonical per-trial stream, spawn key (initial, trial); for a
    range of trials, their streams in a list."""
    if isinstance(trial, range):
        return rng_streams(seed, [(initial_idx, t) for t in trial])
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
               fit_set: Optional[tuple[int, ...]], start: int,
               stop: int) -> list[tuple[int, int, TrialOutcome]]:
    """Worker: trials [start, stop) of every initial condition under the
    run's ``_experiment_context``, as one lockstep block over every start,
    in (initial, trial) order.  ``trial_rng`` and ``run_trial_threshold``
    are looked up in this module at each call, so a tracer can wrap them."""
    x0s = [round_to_lattice(np.asarray(p), spec.n) for p in spec.initials]
    trials = range(start, stop)
    keys = [(i, t) for i in range(len(x0s)) for t in trials]
    rngs = [g for i in range(len(x0s)) for g in trial_rng(spec.seed, i, trials)]
    starts = [x0s[i] for i, _ in keys]
    if spec.mode == "threshold":
        outs = run_trial_threshold(
            rule, starts, rngs, stop_threshold=spec.stop_threshold,
            sample_window=spec.sample_window, max_steps=spec.max_steps,
            equilibrium=eq)
    else:
        outs = run_trial_absorption(rule, starts, rngs, least_fit_set=fit_set,
                                    max_steps=spec.max_steps)
    return [(i, t, out) for (i, t), out in zip(keys, outs)]


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
    trials, merged deterministically.  Only here do the trials split into
    near-equal ranges, each run over every start as one lockstep block
    (:func:`_run_chunk`): the fewest within ``LOCKSTEP_TRIALS`` that give
    each worker (at most ``threads``, the cores and the replicates) the
    same number.  One worker runs them in this process, more a process pool.

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

    n_initials, reps = len(spec.initials), spec.replicates
    workers = min(threads, os.cpu_count() or 1, reps)
    most = max(LOCKSTEP_TRIALS // n_initials, 1)         # trials of a start in one block
    span = math.ceil(reps / (workers * math.ceil(reps / (most * workers))))
    ranges = [(lo, min(lo + span, reps)) for lo in range(0, reps, span)]

    if workers == 1:
        shares = [_run_chunk(spec, rule, eq, fit_set, *r) for r in ranges]
    else:
        # imported here, so runs that never start a pool skip its import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(ranges))) as pool:
            futures = [pool.submit(_run_chunk, spec, rule, eq, fit_set, *r) for r in ranges]
            shares = [f.result() for f in futures]
    all_rows = sorted((row for share in shares for row in share), key=itemgetter(0, 1))

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
