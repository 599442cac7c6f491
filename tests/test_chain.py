"""Finite-population resampling chain: sampling, exact analysis, QSD."""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph, csr_matrix
from scipy.stats import multinomial

from wfsim import chain
from wfsim.chain import (
    InteriorKernel,
    build_exact_chain,
    classify_states,
    interior_qsd,
    kernel_block,
    quadratic_form_drift,
    recurrent_class_faces,
    sample_path,
)
from wfsim.errors import (
    DegenerateFitness,
    InvalidNormalization,
    NumericRangeError,
    PreconditionError,
    ReducibleInterior,
    ResourceLimitExceeded,
)
from wfsim.fitness import (
    MutationMatrix,
    UpdateRule,
    make_rule,
    sampling_probs,
)
from wfsim.simplex import LatticePoint

from conftest import A1, A2, BAD_LAWS, neutral_rule, rule_of_kind


#: Rules whose exact-chain rows are compared with scipy's multinomial law.
KERNEL_RULES = [
    make_rule(A1, omega=1e-3 / (1.0 + 1e-3)),
    make_rule(A2, omega=0.5, mutation=[[0.9, 0.1, 0.0], [0.0, 0.9, 0.1],
                                       [0.1, 0.0, 0.9]]),
    make_rule(A2, fitness="exponential", beta=0.3),
]
KERNEL_RULE_IDS = ["linear-fractional", "mutation", "exponential"]


def constant_vertex_rule(m: int):
    """Rule whose update image is always the first vertex."""
    theta = np.zeros((m, m))
    theta[:, 0] = 1.0
    return UpdateRule(neutral_rule(m).fitness, MutationMatrix(theta))


def state_at(chain, counts) -> int:
    """Index of the composition ``counts`` among ``chain.states``."""
    (index,) = np.flatnonzero((chain.states == counts).all(axis=1))
    return int(index)


def count_rows(update_probs, record):
    """``update_probs`` that first hands the profiles it maps, as rows, to
    ``record``."""
    def counted(xs):
        record(np.atleast_2d(xs))
        return update_probs(xs)
    return counted


def mixing_rule(base, u: float = 0.05):
    """Add a small uniform mutation floor so the image is always interior."""
    m = base.fitness.m
    theta = (1 - u) * np.eye(m) + u / m
    return UpdateRule(base.fitness, MutationMatrix(theta))


@pytest.fixture
def classify_calls(monkeypatch):
    """The (S, M) support shape of every ``chain.classify_states`` call, in
    order."""
    calls = []

    def counted(support, reach):
        calls.append(support.shape)
        return classify_states(support, reach)

    monkeypatch.setattr(chain, "classify_states", counted)
    return calls


@pytest.fixture
def openblas():
    """(get, set) of the caller's OpenBLAS thread count, found by the lookup
    ``interior_qsd`` uses; the count is restored after the test.  Fails
    where numpy names OpenBLAS but the lookup finds nothing."""
    functions = chain._openblas_threads()
    if functions is None:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert "openblas" not in blas["name"].lower(), \
            f"numpy's BLAS is {blas['name']}, but no OpenBLAS thread setter was found"
        pytest.skip(f"numpy's BLAS is {blas['name']}, not OpenBLAS")
    get, set_ = functions
    before = get()
    yield get, set_
    set_(before)


# ----------------------------------------------------------------------
# single-step sampling
# ----------------------------------------------------------------------

class TestStepSample:
    def test_degenerate_image_is_deterministic(self):
        rule = constant_vertex_rule(3)
        rng = np.random.default_rng(0)
        path = sample_path(rule, LatticePoint([2, 2, 2], 6), 1, rng)
        assert tuple(path[1]) == (6, 0, 0)

    def test_moments_match_the_update_image(self, rule_a2):
        n, reps = 100, 30_000
        x = LatticePoint([40, 30, 30], n)
        p = rule_a2.update_probs(x.counts / n)
        rng = np.random.default_rng(123)
        draws = np.array(
            [sample_path(rule_a2, x, 1, rng)[1] for _ in range(reps)],
            dtype=np.float64,
        ) / n
        se = np.sqrt(p * (1 - p) / (n * reps))
        assert np.all(np.abs(draws.mean(axis=0) - p) < 3 * se)
        # empirical covariance of one multinomial step scales like 1/N
        emp_cov = np.cov(draws, rowvar=False)
        pred = (np.diag(p) - np.outer(p, p)) / n
        assert np.max(np.abs(emp_cov - pred)) < 5e-5

    def test_sample_path_shapes_and_determinism(self, rule_a2):
        x0 = LatticePoint([400, 50, 50], 500)
        a = sample_path(rule_a2, x0, steps=30, rng=np.random.default_rng(7))
        b = sample_path(rule_a2, x0, steps=30, rng=np.random.default_rng(7))
        assert a.shape == (31, 3) and a.dtype == np.int64
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a.sum(axis=1), 500)

    def test_sample_path_stop_predicate(self, rule_a2):
        x0 = LatticePoint([400, 50, 50], 500)
        path = sample_path(
            rule_a2, x0, steps=10_000, rng=np.random.default_rng(8),
            stop=lambda c: c.min() == 0,
        )
        assert path[-1].min() == 0
        assert np.all(path[:-1].min(axis=1) > 0)

    def test_law_memo_cap_does_not_change_the_path(self, rule_a2, monkeypatch):
        rule, x0, steps = mixing_rule(rule_a2), LatticePoint([40, 30, 30], 100), 2000
        full = sample_path(rule, x0, steps, np.random.default_rng(5))
        monkeypatch.setattr(chain, "LAW_MEMO", 2)
        capped = sample_path(rule, x0, steps, np.random.default_rng(5))
        rng, counts, reference = np.random.default_rng(5), x0.counts, [x0.counts]
        for _ in range(steps):
            counts = rng.multinomial(100, sampling_probs(rule, counts / 100))
            reference.append(counts)
        # the path revisits states and visits more than the capped memo holds
        assert 2 < len(np.unique(full, axis=0)) < steps
        np.testing.assert_array_equal(full, capped)
        np.testing.assert_array_equal(full, np.array(reference))

    def test_law_is_computed_once_per_distinct_state(self):
        # neutral, no mutation: the map sees each state's counts / 60; the
        # 1,891-state lattice takes several boxes of at most 225 states
        calls, rule = [], neutral_rule(3)
        rule.update_probs = count_rows(rule.update_probs, lambda rows: calls.extend(
            map(tuple, np.rint(60 * rows).astype(int).tolist())))
        path = sample_path(rule, LatticePoint([20, 20, 20], 60), 500,
                           np.random.default_rng(3))
        visited = {tuple(row) for row in path[:-1].tolist()}
        assert len(calls) == len(set(calls))
        assert visited <= set(calls)
        assert 225 < len(calls) < 1891

    @pytest.mark.parametrize("kind", ["linear-fractional", "exponential", "mutation"])
    def test_box_path_is_the_per_state_path(self, kind):
        rule, n, steps = rule_of_kind(kind), 60, 3000
        x0 = LatticePoint([3, 50, 7], n)
        assert (x0.counts + chain._box_offsets(3)).min() < 0     # the box is clipped
        rng, counts, reference = np.random.default_rng(2), x0.counts, [x0.counts]
        for _ in range(steps):
            counts = rng.multinomial(n, sampling_probs(rule, counts / n))
            reference.append(counts)
        np.testing.assert_array_equal(
            sample_path(rule, x0, steps, np.random.default_rng(2)), reference)

    def test_box_through_an_undefined_state_falls_back(self):
        # total fitness is zero at (50, 50), inside the start's box but
        # never visited: the path is the per-state one and raises nothing
        rule, x0 = make_rule([[1, -3], [-3, 1]], omega=0.9), LatticePoint([98, 2], 100)
        with pytest.raises(DegenerateFitness):
            sampling_probs(rule, np.array([0.5, 0.5]))
        rng, counts, reference = np.random.default_rng(1), x0.counts, [x0.counts]
        for _ in range(50):
            counts = rng.multinomial(100, sampling_probs(rule, counts / 100))
            reference.append(counts)
        np.testing.assert_array_equal(
            sample_path(rule, x0, 50, np.random.default_rng(1)), reference)

    def test_full_memo_computes_one_state_per_miss(self, monkeypatch):
        # the start is computed alone and the second miss's box fills the
        # memo: every later miss outside those maps one profile, however
        # often the state recurs
        calls, rule = [], neutral_rule(3)
        rule.update_probs = count_rows(rule.update_probs,
                                       lambda rows: calls.extend([1] * len(rows)))
        x0, steps = LatticePoint([20, 20, 20], 60), 500
        monkeypatch.setattr(chain, "LAW_MEMO", 2)
        path = sample_path(rule, x0, steps, np.random.default_rng(3))
        visited = [tuple(row) for row in path[:-1].tolist()]
        second = next(row for row in visited if row != tuple(x0.counts))
        box = {tuple(row) for row in (np.array(second) + chain._box_offsets(3)).tolist()
               if min(row) >= 0} - {tuple(x0.counts)}
        misses = [row for row in visited[1:] if row != tuple(x0.counts) and row not in box]
        assert len(misses) > len(set(misses))                     # states recur
        assert len(calls) == 1 + len(box) + len(misses)

    def test_start_that_already_stops_is_one_row(self, rule_a2):
        path = sample_path(rule_a2, LatticePoint([480, 10, 10], 500), 100,
                           np.random.default_rng(1),
                           stop=lambda c: c.min() / 500 <= 0.05)
        np.testing.assert_array_equal(path, [[480, 10, 10]])

    @staticmethod
    def replay(rule, x0: LatticePoint, steps: int, rng, stop=None) -> np.ndarray:
        """The path of a per-step ``rng.multinomial`` loop."""
        counts, path = x0.counts, [x0.counts]
        for _ in range(steps):
            if stop is not None and stop(counts):
                break
            counts = rng.multinomial(x0.n, sampling_probs(rule, counts / x0.n))
            path.append(counts)
        return np.array(path)

    @pytest.mark.parametrize("case", ["plain", "stop", "capped-memo", "boundary"])
    def test_draws_advance_the_stream_as_generator_multinomial(self, rule_a2, monkeypatch,
                                                                case):
        rule, x0, stop = rule_a2, LatticePoint([40, 30, 30], 100), None
        if case == "stop":
            stop = lambda c: c.min() <= 8  # noqa: E731
        elif case == "capped-memo":
            rule = mixing_rule(rule_a2)
            monkeypatch.setattr(chain, "LAW_MEMO", 2)
        elif case == "boundary":
            # neutral drift at N=4 fixes within a few steps; a draw whose count
            # runs out before the last cell writes no last cell, so a counts
            # buffer not zeroed would keep the earlier draw's
            rule, x0 = neutral_rule(3), LatticePoint([1, 2, 1], 4)
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        path = sample_path(rule, x0, 400, rng, stop=stop)
        np.testing.assert_array_equal(path, self.replay(rule, x0, 400, twin, stop))
        assert rng.bit_generator.state == twin.bit_generator.state
        if case == "stop":
            assert len(path) < 401 and stop(path[-1])
        if case == "boundary":
            assert any(path[k, -1] > 0 and path[k + 1, -1] == 0 for k in range(len(path) - 1))

    @pytest.mark.parametrize("law", BAD_LAWS.values(), ids=BAD_LAWS.keys())
    def test_law_that_multinomial_refuses_raises(self, rule_a2, monkeypatch, law):
        # the start's law is computed alone, and checked before its draw
        monkeypatch.setattr(chain, "sampling_probs",
                            lambda rule, freqs: np.broadcast_to(law, freqs.shape).copy())
        with pytest.raises(InvalidNormalization):
            sample_path(rule_a2, LatticePoint([40, 30, 30], 100), 5, np.random.default_rng(1))

    @pytest.mark.parametrize("law", BAD_LAWS.values(), ids=BAD_LAWS.keys())
    def test_box_with_a_refused_law_falls_back(self, rule_a2, monkeypatch, law):
        # every box law is refused, so each miss computes its state alone
        def box_refused(rule, freqs):
            probs = sampling_probs(rule, freqs)
            if probs.ndim == 2:
                probs[:] = law
            return probs
        monkeypatch.setattr(chain, "sampling_probs", box_refused)
        x0 = LatticePoint([40, 30, 30], 100)
        np.testing.assert_array_equal(
            sample_path(rule_a2, x0, 200, np.random.default_rng(4)),
            self.replay(rule_a2, x0, 200, np.random.default_rng(4)))


# ----------------------------------------------------------------------
# transition probabilities
# ----------------------------------------------------------------------

class TestTransitionProbs:
    """Single entries and whole rows of the exact transition matrix."""

    def test_two_type_hand_values(self):
        chain = build_exact_chain(neutral_rule(2), 2)
        row = chain.matrix[state_at(chain, (1, 1))]
        assert row[state_at(chain, (2, 0))] == pytest.approx(0.25)
        assert row[state_at(chain, (1, 1))] == pytest.approx(0.5)

    def test_unreachable_when_image_coordinate_vanishes(self, rule_a2):
        chain = build_exact_chain(rule_a2, 6)
        row = chain.matrix[state_at(chain, (6, 0, 0))]
        assert row[state_at(chain, (5, 1, 0))] == 0.0
        assert row[state_at(chain, (6, 0, 0))] == 1.0

    @pytest.mark.parametrize("rule", KERNEL_RULES, ids=KERNEL_RULE_IDS)
    def test_rows_sum_to_one_exhaustively(self, rule):
        # the chain renormalises its rows, so compare them with the exact
        # multinomial law of the sampler's cell probabilities, whose sum
        # over the lattice is 1 only when the lattice holds every composition
        chain = build_exact_chain(rule, 6)
        for i, counts in enumerate(chain.states):
            pmf = multinomial.pmf(chain.states, 6, sampling_probs(rule, counts / 6))
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(chain.matrix[i], pmf, rtol=1e-12, atol=1e-300)
            np.testing.assert_array_equal(chain.matrix[i] > 0, pmf > 0)

    @pytest.mark.parametrize("n", [30, 70])
    @pytest.mark.parametrize("rule", KERNEL_RULES, ids=KERNEL_RULE_IDS)
    def test_rows_match_the_multinomial_law_at_larger_n(self, rule, n):
        # the log-factorial table (math.lgamma) against scipy's pmf on about
        # 100 evenly spaced rows, every nonzero entry to rtol 1e-12 (the
        # largest relative gap measured is 2.0e-13, on entries down to 1e-186)
        chain = build_exact_chain(rule, n)
        for i in range(0, chain.n_states, max(1, chain.n_states // 100)):
            pmf = multinomial.pmf(chain.states, n, sampling_probs(rule, chain.states[i] / n))
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(chain.matrix[i], pmf, rtol=1e-12, atol=0)
            np.testing.assert_array_equal(chain.matrix[i] > 0, pmf > 0)


def whole_kernel(exact, monkeypatch) -> np.ndarray:
    """The transition matrix built as one block of every row, the single
    (S, M) @ (M, S) product the chain was assembled with before blocks."""
    every = np.arange(exact.n_states)
    with monkeypatch.context() as patch:
        patch.setattr(chain, "KERNEL_BLOCK", exact.n_states + 1)
        return kernel_block(exact, every)


class TestKernelBlock:
    """Row blocks of the kernel against the whole-matrix build."""

    @pytest.mark.parametrize("n", [6, 30, 70])
    @pytest.mark.parametrize("rule", KERNEL_RULES, ids=KERNEL_RULE_IDS)
    def test_shipped_blocks_are_bit_identical(self, rule, n, monkeypatch):
        exact = build_exact_chain(rule, n)
        whole = whole_kernel(exact, monkeypatch)
        idx = exact.interior_indices()
        np.testing.assert_array_equal(exact.matrix, whole)
        np.testing.assert_array_equal(kernel_block(exact, idx), whole[idx])

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("n", [6, 30, 70])
    @pytest.mark.parametrize("rule", KERNEL_RULES, ids=KERNEL_RULE_IDS)
    def test_thin_blocks_agree_to_rounding(self, rule, n, block, monkeypatch):
        """Thin blocks are not bit-exact: BLAS multiplies a block of one or
        a few rows on another kernel (a matrix-vector product at one row,
        another accumulation order for thin panels), so a log-law may move
        by an ulp, and exp turns that into a relative error of about
        |log-law| ulps (up to 1.2e-13 measured at N=70)."""
        exact = build_exact_chain(rule, n)
        whole = whole_kernel(exact, monkeypatch)
        idx = exact.interior_indices()
        monkeypatch.setattr(chain, "KERNEL_BLOCK", block)
        for got, want in [(exact.matrix, whole),
                          (kernel_block(exact, idx), whole[idx])]:
            np.testing.assert_array_equal(got > 0, want > 0)
            # rtol 1e-12, written out: assert_allclose takes 0.5 s per N=70 matrix
            gap = np.abs(got - want)
            assert np.all(gap <= 1e-12 * want), (gap / np.maximum(want, 1e-300)).max()

    def test_byte_cap_refuses_before_allocating(self, rule_a2, monkeypatch):
        exact = build_exact_chain(rule_a2, 30)
        idx = exact.interior_indices()
        want = kernel_block(exact, idx)
        nbytes = idx.size * exact.n_states * 8            # 406 interior of 496 states
        monkeypatch.setattr(chain, "BLOCK_BYTE_CAP", nbytes - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitExceeded) as info:
                kernel_block(exact, idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < nbytes / 100
        assert f"kernel block (406, 496) would take {nbytes} bytes" in str(info.value)
        assert f"cap {nbytes - 1}" in str(info.value)
        # a block of exactly the cap is built
        monkeypatch.setattr(chain, "BLOCK_BYTE_CAP", nbytes)
        np.testing.assert_array_equal(kernel_block(exact, idx), want)

    def test_rows_and_columns_in_any_order(self, rule_a2):
        exact = build_exact_chain(rule_a2, 12)
        rows, cols = np.array([40, 3, 77, 3]), np.array([90, 0, 12])
        # columns are kept after the elementwise normalisation: the same bits
        np.testing.assert_array_equal(kernel_block(exact, rows)[:, cols],
                                      exact.matrix[np.ix_(rows, cols)])


# ----------------------------------------------------------------------
# exact chain structure
# ----------------------------------------------------------------------

class TestExactChain:
    def test_vertices_are_the_recurrent_classes_without_mutation(self, rule_a2):
        chain = build_exact_chain(rule_a2, 6)
        assert chain.n_states == 28
        assert len(chain.recurrent_classes) == 3
        recurrent_states = {
            tuple(chain.states[i]) for cls in chain.recurrent_classes for i in cls
        }
        assert recurrent_states == {(6, 0, 0), (0, 6, 0), (0, 0, 6)}
        assert all(p == 1 for p in chain.periods)
        assert len(chain.transient) == 25
        # each vertex is absorbing: a singleton class that keeps all its mass
        vertex = state_at(chain, (6, 0, 0))
        assert any(cls.tolist() == [vertex] for cls in chain.recurrent_classes)
        assert chain.matrix[vertex, vertex] == 1.0

    def test_neutral_two_type_absorption(self):
        chain = build_exact_chain(neutral_rule(2), 2)
        classes = {
            tuple(map(tuple, chain.states[cls])) for cls in chain.recurrent_classes
        }
        assert classes == {((0, 2),), ((2, 0),)}
        assert [tuple(chain.states[i]) for i in chain.transient] == [(1, 1)]

    def test_mixing_gives_single_aperiodic_class(self, rule_a2):
        chain = build_exact_chain(mixing_rule(rule_a2), 6)
        assert len(chain.recurrent_classes) == 1
        assert len(chain.recurrent_classes[0]) == chain.n_states
        assert chain.periods == [1]
        assert chain.transient.size == 0

    def test_mutation_swap_gives_a_period_two_class(self):
        # every individual switches type each generation: the two pure
        # states swap forever and every mixed state leads into them
        rule = make_rule([[1, 1], [1, 1]], omega=0.5, mutation=[[0, 1], [1, 0]])
        chain = build_exact_chain(rule, 6)
        assert [cls.tolist() for cls in chain.recurrent_classes] == [[0, 6]]
        assert chain.periods == [2]
        assert chain.transient.tolist() == [1, 2, 3, 4, 5]

    def test_rows_are_normalized(self, rule_a2):
        chain = build_exact_chain(rule_a2, 6)
        np.testing.assert_allclose(chain.matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_build_refuses_only_past_the_state_cap(self, rule_a2):
        # 246,051 states: past the state cap, the one cap enumeration has
        with pytest.raises(ResourceLimitExceeded, match="exceeding the cap of 200000") as info:
            build_exact_chain(rule_a2, 700)
        assert "246051 states" in str(info.value)
        # 3,240 states: the full matrix (84 MB) is past the byte cap, but
        # only a block that is built is refused
        exact = build_exact_chain(rule_a2, 79)
        assert exact.n_states == 3240
        with pytest.raises(ResourceLimitExceeded, match=r"kernel block \(3240, 3240\)"):
            exact.matrix

    def test_states_are_classified_once_and_only_when_read(self, rule_a2, classify_calls):
        exact = build_exact_chain(mixing_rule(rule_a2), 12)
        res = interior_qsd(exact)
        assert res.leak_residual < 1e-12
        assert classify_calls == []         # an irreducible interior needs no classes
        assert len(exact.recurrent_classes) == 1
        assert exact.recurrent_classes[0].size == exact.n_states
        assert (exact.periods, exact.transient.size) == ([1], 0)
        np.testing.assert_array_equal(exact.scc_labels, 0)
        assert classify_calls == [(exact.n_states, 3)]



def direct_classification(positive: np.ndarray):
    """SCC partition, sink classes with their periods, and transient states,
    from scipy.sparse.csgraph run on the full mask."""
    adj = csr_matrix(positive)
    n_comp, labels = csgraph.connected_components(adj, directed=True,
                                                  connection="strong")
    rows, cols = adj.nonzero()
    has_exit = np.zeros(n_comp, dtype=bool)
    has_exit[labels[rows[labels[rows] != labels[cols]]]] = True
    partition = {frozenset(np.flatnonzero(labels == c).tolist()) for c in range(n_comp)}
    sinks = {}
    for c in np.flatnonzero(~has_exit):
        members = np.flatnonzero(labels == c)
        sub = adj[members][:, members]
        level = csgraph.shortest_path(sub, unweighted=True, indices=0).astype(np.int64)
        r, k = sub.nonzero()
        sinks[frozenset(members.tolist())] = int(np.gcd.reduce(level[r] + 1 - level[k])) or 1
    return partition, sinks, set(np.flatnonzero(has_exit[labels]).tolist())


def assert_matches_direct(positive, labels, classes, periods, transient):
    partition, sinks, direct_transient = direct_classification(positive)
    assert {frozenset(np.flatnonzero(labels == c).tolist())
            for c in np.unique(labels)} == partition
    # component ids are 0..k-1, ascending by smallest member; so are the classes
    assert np.array_equal(np.unique(labels), np.arange(len(partition)))
    assert np.all(np.diff(np.unique(labels, return_index=True)[1]) > 0)
    assert [cls[0] for cls in classes] == sorted(min(c) for c in sinks)
    assert all(np.all(np.diff(cls) > 0) for cls in classes)
    assert {frozenset(cls.tolist()): p for cls, p in zip(classes, periods)} == sinks
    assert transient.tolist() == sorted(direct_transient)


def induced_mask(support: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """[i, j]: every type present at state j is one state i's law draws."""
    return (support[None] <= reach[:, None]).all(axis=-1)


@st.composite
def supports_and_reaches(draw):
    """(S, M) support and reach masks of a few kinds, drawn from a seeded
    stream; every reach row holds some support row, so none is empty."""
    s, m = draw(st.integers(1, 14)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "sparse", "cycles"]))
    support = rng.random((s, m)) < draw(st.sampled_from([0.2, 0.5, 0.8]))
    reach = rng.random((s, m)) < (0.2 if kind == "sparse" else 0.6)
    if kind == "cycles":
        # one type per state; most laws draw only the next type of a
        # shuffled cyclic order, so sink classes of period up to M occur
        order = rng.permutation(m)
        successor = np.empty(m, dtype=np.int64)
        successor[order] = np.roll(order, -1)
        types = rng.permutation(np.arange(s) % m)
        support = np.eye(m, dtype=bool)[types]
        cyclic = rng.random(s) < 0.8
        reach[cyclic] = np.eye(m, dtype=bool)[successor[types]][cyclic]
    reach[np.arange(s), rng.integers(0, m, size=s)] |= ~reach.any(axis=1)
    # every state moves somewhere, as on a lattice, which holds each vertex:
    # shrinking a support keeps every edge into its state
    for i in np.flatnonzero(~induced_mask(support, reach).any(axis=1)):
        support[rng.integers(0, s)] &= reach[i]
    return support, reach


class TestDistinctRows:
    @pytest.mark.parametrize("width", [3, 63, 64, 65, 70])
    def test_matches_numpy_unique(self, width):
        # an int64 radix key over the columns would wrap from 64 boolean
        # columns, merging or misordering rows that differ in a leading one
        rng = np.random.default_rng(width)
        pool = rng.random((800, width)) < 0.3
        rows = pool[rng.integers(0, len(pool), 3000)]
        rows[::2, 0] ^= True
        want, inverse = np.unique(rows, axis=0, return_inverse=True)
        patterns, at = chain._distinct_rows(rows)
        np.testing.assert_array_equal(patterns, want)
        np.testing.assert_array_equal(at, inverse.ravel())
        np.testing.assert_array_equal(patterns[at], rows)

    def test_no_columns_is_one_empty_row(self):
        patterns, at = chain._distinct_rows(np.zeros((5, 0), dtype=np.int64))
        assert patterns.shape == (1, 0)
        np.testing.assert_array_equal(at, np.zeros(5))


class TestClassifyStates:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(supports_and_reaches())
    def test_matches_csgraph_on_the_induced_mask(self, pair):
        assert_matches_direct(induced_mask(*pair), *classify_states(*pair))

    @pytest.mark.parametrize("rule,n", [
        (make_rule(A2, omega=0.5), 6),
        (make_rule(A2, omega=0.5), 30),
        (make_rule(A2, omega=0.5), 70),
        (mixing_rule(make_rule(A2, omega=0.5)), 30),
        (make_rule(A2, omega=0.5, mutation=[[0.9, 0.1, 0.0], [0.1, 0.9, 0.0],
                                            [0.0, 0.0, 1.0]]), 30),
        (make_rule([[1, 1], [1, 1]], omega=0.5, mutation=[[0, 1], [1, 0]]), 6),
        (make_rule(A2, omega=0.5, mutation=[[0, 1, 0], [0, 0, 1], [1, 0, 0]]), 30),
    ], ids=["A2-6", "A2-30", "A2-70", "mixing-30", "block-mutation-30",
            "swap-6", "cyclic-mutation-30"])
    def test_exact_chain_matches_csgraph(self, rule, n):
        chain = build_exact_chain(rule, n)
        assert_matches_direct(chain.matrix > 0, chain.scc_labels,
                              chain.recurrent_classes, chain.periods, chain.transient)

    def test_cyclic_mutation_has_period_three(self):
        rule = make_rule(A2, omega=0.5, mutation=[[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        chain = build_exact_chain(rule, 30)
        assert [tuple(map(tuple, chain.states[cls])) for cls in chain.recurrent_classes] == [
            ((0, 0, 30), (0, 30, 0), (30, 0, 0))]
        assert chain.periods == [3]

    def test_exponential_chain_with_mostly_distinct_rows(self):
        # exp underflow at beta = 8 leaves 1,570 distinct rows of 1,891 in
        # the float kernel, and zeros where the law is positive: its pattern
        # splits into 1,108 SCCs, the chain into 7.  The recurrent classes,
        # their periods and the transient states are the same
        chain = build_exact_chain(make_rule(A2, fitness="exponential", beta=8.0), 60)
        positive = chain.matrix > 0
        assert np.unique(positive, axis=0).shape[0] == 1570
        assert csgraph.connected_components(positive, connection="strong")[0] == 1108
        assert chain.scc_labels.max() + 1 == 7
        _, sinks, transient = direct_classification(positive)
        assert {frozenset(cls.tolist()): p
                for cls, p in zip(chain.recurrent_classes, chain.periods)} == sinks
        assert chain.transient.tolist() == sorted(transient)
        # the float pattern lies within the support rule's, which csgraph agrees on
        mask = induced_mask(chain.states > 0,
                            sampling_probs(chain.rule, chain.states / chain.n) > 0)
        assert not (positive & ~mask).any()
        assert_matches_direct(mask, chain.scc_labels, chain.recurrent_classes,
                              chain.periods, chain.transient)

    @pytest.mark.parametrize("mutation,classes,periods", [
        (None, [[(0, 0, 630)], [(0, 630, 0)], [(630, 0, 0)]], [1, 1, 1]),
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[(0, 0, 630), (0, 630, 0), (630, 0, 0)]], [3]),
    ], ids=["A2", "cyclic-mutation"])
    def test_state_cap_is_classified_without_the_kernel(self, mutation, classes, periods,
                                                        monkeypatch):
        # 199,396 states: the (S, S) kernel would take 318 GB, its positive
        # pattern S^2/8 = 5.0 GB packed; classification holds a few (S, M)
        # arrays and the hub graph, at most 8 S edges (7 hubs at M=3)
        def refused(*args):
            raise AssertionError("classification built kernel rows")

        monkeypatch.setattr(chain, "kernel_block", refused)
        exact = build_exact_chain(make_rule(A2, omega=0.5, mutation=mutation), 630)
        tracemalloc.start()
        try:
            got = [[tuple(exact.states[i]) for i in cls] for cls in exact.recurrent_classes]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exact.n_states == 199_396
        assert got == classes
        assert exact.periods == periods
        assert exact.transient.size == exact.n_states - 3
        assert peak < 64 * 2**20


class TestRecurrentClassFaces:
    def test_vertex_classes_are_singleton_faces(self, rule_a2):
        chain = build_exact_chain(rule_a2, 5)
        for k in range(len(chain.recurrent_classes)):
            supports, is_union = recurrent_class_faces(chain, k)
            assert is_union
            assert len(supports) == 1 and len(supports[0]) == 1

    def test_irreducible_chain_is_the_full_face(self, rule_a2):
        chain = build_exact_chain(mixing_rule(rule_a2), 5)
        supports, is_union = recurrent_class_faces(chain, 0)
        assert is_union
        assert set(supports[0]) == {1, 2, 3}

    def test_block_mutation_yields_two_faces(self, rule_a2):
        # types 1 and 2 mix with each other; type 3 never arises from them
        theta = np.array([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0], [0.0, 0.0, 1.0]])
        rule = UpdateRule(rule_a2.fitness, MutationMatrix(theta))
        chain = build_exact_chain(rule, 6)
        face_sets = set()
        for k in range(len(chain.recurrent_classes)):
            supports, is_union = recurrent_class_faces(chain, k)
            assert is_union
            face_sets.add(frozenset(tuple(sorted(s)) for s in supports))
        assert face_sets == {frozenset({(1, 2)}), frozenset({(3,)})}

    def test_faces_are_label_tuples(self, rule_a2):
        # the form summary.json writes: ascending 1-based labels as ints
        theta = np.array([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0], [0.0, 0.0, 1.0]])
        chain = build_exact_chain(UpdateRule(rule_a2.fitness, MutationMatrix(theta)), 6)
        faces = sorted(recurrent_class_faces(chain, k)[0]
                       for k in range(len(chain.recurrent_classes)))
        assert faces == [[(1, 2)], [(3,)]]
        assert all(type(label) is int for face in faces for label in face[0])

    def test_masks_match_a_per_state_loop(self, rule_a2):
        theta = np.array([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0], [0.0, 0.0, 1.0]])
        chain = build_exact_chain(UpdateRule(rule_a2.fitness, MutationMatrix(theta)), 30)
        for k, members in enumerate(chain.recurrent_classes):
            supports = {frozenset(np.flatnonzero(chain.states[i] > 0).tolist())
                        for i in members}
            maximal = [s for s in supports if not any(s < o for o in supports)]
            predicted = {i for i in range(chain.n_states)
                         if any(frozenset(np.flatnonzero(chain.states[i] > 0).tolist()) <= mx
                                for mx in maximal)}
            labels = sorted(tuple(sorted(j + 1 for j in s)) for s in maximal)
            assert recurrent_class_faces(chain, k) == (labels, predicted == set(members.tolist()))


# ----------------------------------------------------------------------
# quasi-stationary distributions
# ----------------------------------------------------------------------

#: A two-type game, interior equilibrium (2/3, 1/3), whose exit rate from
#: the interior falls like e^{-0.128 N} at omega = 0.5.
TWO_TYPE_SLOW_EXIT = [[1, 3], [2, 1]]


class TestQsd:
    def test_single_interior_state_toy(self):
        theta = MutationMatrix(np.full((2, 2), 0.5))
        rule = UpdateRule(neutral_rule(2).fitness, theta)
        chain = build_exact_chain(rule, 2)
        res = interior_qsd(chain)
        assert res.eigenvalue == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(res.weights, [1.0])
        assert res.leak_residual < 1e-12

    def test_survival_factor_grows_with_population(self, rule_a2):
        lams = []
        for n in (4, 6, 8):
            res = interior_qsd(build_exact_chain(rule_a2, n))
            assert res.leak_residual < 1e-10
            assert np.all(res.weights > 0)
            lams.append(res.eigenvalue)
        assert lams[0] < lams[1] < lams[2]

    def test_power_iteration_matches_dense_eigensolver(self, rule_a2):
        exact = build_exact_chain(rule_a2, 8)
        res = interior_qsd(exact)
        eigs = scipy.linalg.eigvals(interior_block(exact))
        assert abs(res.eigenvalue - float(np.max(eigs.real))) < 1e-10

    def test_reducible_interior_detected(self):
        chain = build_exact_chain(constant_vertex_rule(2), 3)
        with pytest.raises(ReducibleInterior):
            interior_qsd(chain)

    def test_solve_holds_only_the_interior_block(self, rule_a2):
        # tracemalloc peak over build plus solve at N=70, against the power
        # tables, 2 T (N-2) float64 (2.4 MiB): 2.19x measured, the rest being
        # the normalisers' row chunk (about 2 MiB) and per-band vectors.  The
        # T^2 interior block it replaced (42 MiB) peaked at 1.25x its size
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            exact = build_exact_chain(rule_a2, 70)
            res = interior_qsd(exact)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "matrix" not in vars(exact)
        assert peak < 3 * 2 * res.weights.size * 68 * 8

    def test_no_interior_states(self, rule_a2):
        chain = build_exact_chain(rule_a2, 2)
        with pytest.raises(PreconditionError):
            interior_qsd(chain)

    @pytest.mark.parametrize("n", [300, 400])
    def test_survival_factor_past_float64_is_refused(self, n):
        # the leak e^{-0.128 N} of this two-type game is below float64's
        # resolution of 1: the sum of mu Q once read 1.0000000000000002
        chain = build_exact_chain(make_rule(TWO_TYPE_SLOW_EXIT, omega=0.5), n)
        with pytest.raises(NumericRangeError, match=f"N={n}"):
            interior_qsd(chain)

    @pytest.mark.parametrize("n,eigenvalue", [
        (30, 0.9078479866108942),
        (45, 0.9240319445077303),
        (60, 0.9343082939550209),
        (70, 0.9393747677012545),
    ])
    def test_ladder_survival_factors_hold_their_bits(self, rule_a2, n, eigenvalue):
        # the A2 ladder values written by the kernel built with
        # scipy.special.gammaln, before the log-factorial table
        res = interior_qsd(build_exact_chain(rule_a2, n))
        assert abs(res.eigenvalue - eigenvalue) <= 1e-14
        assert res.leak_residual < 1e-13

    def test_bits_do_not_depend_on_the_callers_blas_threads(self, rule_a2, openblas):
        # every product runs on one OpenBLAS thread; on the default pool the
        # N=60 and N=70 weights moved between one and two threads (N=45 did not)
        get, set_ = openblas
        runs = {}
        for threads in (2, 1):
            set_(threads)
            caller = get()
            runs[threads] = []
            for n in (60, 70):
                runs[threads].append(interior_qsd(build_exact_chain(rule_a2, n)))
                assert get() == caller
        for two, one in zip(runs[2], runs[1]):
            np.testing.assert_array_equal(two.weights, one.weights)
            assert (two.eigenvalue, two.iterations, two.leak_residual) == \
                (one.eigenvalue, one.iterations, one.leak_residual)
        # restored also when the solve raises: a zero mutation column
        # empties every interior row
        rule = make_rule(A2, omega=0.5, mutation=[[0.5, 0.5, 0.0], [0.5, 0.5, 0.0],
                                                  [0.2, 0.8, 0.0]])
        set_(2)
        caller = get()
        with pytest.raises(ReducibleInterior):
            interior_qsd(build_exact_chain(rule, 12))
        assert get() == caller

    def test_concurrent_solves_restore_the_callers_blas_threads(self, rule_a2, openblas):
        # the count is process-wide, so solves on several Python threads run
        # one at a time: none restores a count that another one set
        get, set_ = openblas
        set_(2)
        caller = get()
        exact = build_exact_chain(rule_a2, 30)
        want = interior_qsd(exact)
        results = []

        def solve():
            for _ in range(4):
                results.append(interior_qsd(exact))

        workers = [threading.Thread(target=solve) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert get() == caller
        assert len(results) == 12
        for res in results:
            np.testing.assert_array_equal(res.weights, want.weights)


def interior_rows(exact):
    """(rows, block) for 512-row blocks of the interior states, each block
    the kernel from those rows to every interior state.  The columns are
    kept after ``kernel_block``'s elementwise normalisation, so they have
    the bits of any other row split, and a (512, S) block stays under the
    byte cap where the (T, S) rows do not (82 MB at N=80)."""
    idx = exact.interior_indices()
    for lo in range(0, idx.size, 512):
        yield slice(lo, lo + 512), kernel_block(exact, idx[lo: lo + 512])[:, idx]


def interior_block(exact) -> np.ndarray:
    """The (T, T) interior block of the kernel."""
    return np.concatenate([block for _, block in interior_rows(exact)])


def dense_step(exact, mu: np.ndarray) -> np.ndarray:
    """``mu @ Q`` on the interior block, accumulated over its row blocks so
    the (T, T) block is never held."""
    out = np.zeros(exact.interior_indices().size)
    for rows, block in interior_rows(exact):
        out += mu[rows] @ block
    return out


M4 = [[1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 4.0, 3.0], [3.0, 4.0, 1.0, 2.0], [4.0, 3.0, 2.0, 1.0]]


class TestInteriorKernel:
    """``mu @ Q`` through the power tables against the dense block."""

    @pytest.mark.parametrize("rule,n", [
        (make_rule(A2, omega=0.5), 6),
        (make_rule(A2, omega=0.5), 30),
        (make_rule(A2, omega=0.5), 70),
        (make_rule(A2, omega=0.5), 100),       # past the cap on the T x T block
        (mixing_rule(make_rule(A2, omega=0.5)), 30),
        (mixing_rule(make_rule(A2, omega=0.5)), 70),
        (make_rule(A2, omega=0.5, mutation=[[0.9, 0.1, 0.0], [0.1, 0.9, 0.0],
                                            [0.0, 0.0, 1.0]]), 30),
        (make_rule([[1.0, 3.0], [2.0, 1.0]], omega=0.5), 50),
        (make_rule([[1.0, 3.0], [2.0, 1.0]], omega=0.5), 3163),
        (make_rule(M4, omega=0.5), 12),
        (make_rule(M4, omega=0.5), 20),
    ], ids=["a2-6", "a2-30", "a2-70", "a2-100", "mixing-30", "mixing-70", "block-30",
            "m2-50", "m2-3163", "m4-12", "m4-20"])
    def test_step_matches_the_dense_block(self, rule, n):
        # both routes round exponents of size up to N log M, so they differ
        # by about N ulps: 1e-13 relative up to N=450, N * eps past it.  At
        # N=3163 (M=2) both differ from an mpmath reference by up to 4e-12,
        # through the shared math.lgamma table, and from each other by 2e-13
        exact = build_exact_chain(rule, n)
        op = InteriorKernel(exact)
        rtol = max(1e-13, n * np.finfo(float).eps)
        rng = np.random.default_rng(n)
        for mu in (np.full(op.size, 1.0 / op.size), rng.random(op.size)):
            got, want = op.apply(mu), dense_step(exact, mu)
            np.testing.assert_array_equal(got > 0, want > 0)
            gap = np.abs(got - want)
            assert np.all(gap <= rtol * want), (gap / want).max()

    def test_ladder_top_iterates_like_the_dense_solve(self, rule_a2):
        # N=80 is the largest M=3 rung whose T x T block (76 MB) fits the cap
        # the reference is the same power loop on the block
        exact = build_exact_chain(rule_a2, 80)
        idx = exact.interior_indices()
        res = interior_qsd(exact)
        block = interior_block(exact)
        mu = np.full(idx.size, 1.0 / idx.size)
        for its in range(1, chain.QSD_MAX_ITER + 1):
            nxt = mu @ block
            lam = float(nxt.sum())
            nxt /= lam
            delta = float(np.abs(nxt - mu).sum())
            mu = nxt
            if delta < 1e-12:
                break
        assert res.iterations == its
        assert abs(res.eigenvalue - lam) <= 1e-14
        np.testing.assert_allclose(res.weights, mu, rtol=1e-13, atol=0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="long double is no wider than float64 on this platform")
    @pytest.mark.parametrize("n", [30, 45])
    def test_survival_factor_matches_a_long_double_replay(self, rule_a2, n):
        # the reference is the dense power loop in long double: the same
        # sampling_probs, long-double log-factorials, each row normalised
        # over all S destinations, and interior_qsd's own iteration count.
        # The factored normalisers land within 2.0e-16 (N=30) and 4.9e-17
        # (N=45) of it; a closed-form row normaliser missed by 9.2e-15
        exact = build_exact_chain(rule_a2, n)
        res = interior_qsd(exact)
        idx = exact.interior_indices()
        states = exact.states
        log_factorial = np.concatenate(
            [[0], np.cumsum(np.log(np.arange(1, n + 1, dtype=np.longdouble)))])
        log_count = log_factorial[n] - log_factorial[states].sum(axis=1)
        log_p = np.log(sampling_probs(rule_a2, states[idx] / n).astype(np.longdouble))
        law = np.exp(log_p @ states.T.astype(np.longdouble) + log_count)
        block = (law / law.sum(axis=1, keepdims=True))[:, idx]
        mu = np.full(idx.size, 1 / np.longdouble(idx.size))
        for _ in range(res.iterations):
            nxt = mu @ block
            lam = nxt.sum()
            mu = nxt / lam
        assert abs(res.eigenvalue - float(lam)) <= 1e-15, abs(res.eigenvalue - float(lam))

    @pytest.mark.parametrize("rule", [
        make_rule(A2, omega=0.5, mutation=[[0.5, 0.5, 0.0], [0.5, 0.5, 0.0],
                                           [0.2, 0.8, 0.0]]),
        make_rule([[1.0, 1.0], [-1.0, 1.0]], omega=0.9),
    ], ids=["zero-column", "negative-fitness"])
    def test_pieces_are_counted_like_classify_states(self, rule):
        # a mutation matrix with a zero column empties every interior row; a
        # fitness driven below zero empties the rows where it is clamped.
        # The pieces are the strong components of the dense block's pattern
        exact = build_exact_chain(rule, 12)
        pieces = csgraph.connected_components(interior_block(exact) > 0,
                                              connection="strong")[0]
        assert InteriorKernel(exact).pieces == pieces > 1
        with pytest.raises(ReducibleInterior, match=f"into {pieces} strongly connected"):
            interior_qsd(exact)

    def test_one_type_is_refused(self):
        exact = build_exact_chain(make_rule([[1.0]], omega=0.5), 3)
        with pytest.raises(PreconditionError, match="at least two types"):
            interior_qsd(exact)

    def test_byte_cap_refuses_before_allocating(self, rule_a2, monkeypatch):
        exact = build_exact_chain(rule_a2, 30)
        nbytes = 406 * 2 * 28 * 8       # T (U + N-M+1) float64, U = N-M+1 at M=3
        monkeypatch.setattr(chain, "BLOCK_BYTE_CAP", nbytes - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitExceeded) as info:
                InteriorKernel(exact)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < nbytes / 10
        assert f"interior power tables (406, 56) would take {nbytes} bytes" in str(info.value)
        # tables of exactly the cap are built
        monkeypatch.setattr(chain, "BLOCK_BYTE_CAP", nbytes)
        assert InteriorKernel(exact).size == 406


# ----------------------------------------------------------------------
# exhaustive drift checks
# ----------------------------------------------------------------------

class TestDrift:
    def test_two_type_score_is_a_submartingale(self):
        a = np.array([[3.0, 1.0], [1.0, 3.0]])
        rule = make_rule(a, omega=0.3)
        for n in (2, 5, 10):
            low, low_off = quadratic_form_drift(rule, n)
            assert low >= -1e-12
            assert low_off > 0

    def test_vertices_have_zero_drift(self):
        # the closed form against E[h(next)] - h from the whole kernel
        for a in ([[3.0, 1.0], [1.0, 3.0]],
                  [[4.0, 1.0, 2.0], [1.0, 5.0, 1.5], [2.0, 1.5, 6.0]]):
            a = np.array(a)
            rule = make_rule(a, omega=0.3)
            for n in range(1, 13):
                exact = build_exact_chain(rule, n)
                hv = np.einsum("ij,jk,ik->i", exact.states / n, a, exact.states / n)
                drift = kernel_block(exact, np.arange(exact.n_states)) @ hv - hv
                vertex = (exact.states == n).any(axis=1)
                np.testing.assert_allclose(drift[vertex], 0.0, rtol=0, atol=1e-13)
                low, low_off = quadratic_form_drift(rule, n)
                assert abs(low - drift.min()) <= 1e-13
                if n > 1:
                    assert abs(low_off - drift[~vertex].min()) <= 1e-13

    def test_indefinite_form_rejected(self, rule_two):
        with pytest.raises(PreconditionError):
            quadratic_form_drift(rule_two, 4)

    def test_mutation_is_refused(self):
        # a mutation step pulls the profile off the vertices, and x'Ax can
        # fall in expectation: (-0.81, -0.60) at N=20 without the check
        rule = make_rule([[4.0, 1.0, 2.0], [1.0, 5.0, 1.5], [2.0, 1.5, 6.0]], omega=0.5,
                         mutation=[[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        with pytest.raises(PreconditionError, match="without mutation"):
            quadratic_form_drift(rule, 20)
