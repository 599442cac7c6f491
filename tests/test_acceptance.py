"""Acceptance suite: one test per release criterion.

Each test prints one PASSED/FAILED line under ``pytest -v`` and asserts
the criterion at its stated tolerance.  Monte Carlo criteria pin their
seeds so reruns are deterministic; failures carry the measured values in
the assertion message.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import binom
from click.testing import CliRunner

import wfsim
from wfsim.chain import (
    build_exact_chain,
    interior_qsd,
    quadratic_form_drift,
)
from wfsim.cli import main as cli_main
from wfsim.deviation import (
    bound_table,
    estimate_lipschitz,
    one_step_exceedance_upper,
    simulate_deviations,
    wilson_upper,
)
from wfsim.extinction import (
    ExperimentSpec,
    increasing_proportion_trend,
    least_fit,
    run_experiment,
    run_trial_absorption,
    trial_rng,
)
from wfsim.fitness import (
    MutationMatrix,
    UpdateRule,
    finite_difference_jacobian,
    make_rule,
    sampling_probs,
)
from wfsim.gaussian import (
    REL_TOL,
    Z_LIMIT,
    ar1_covariance,
    compare_residual_moments,
    rescaled_residuals,
)
from wfsim.meanfield import (
    random_pd_on_sum_zero_matrix,
    random_stability_matrix,
    solve_interior_equilibrium,
    spectral_radius_on_sum_zero,
    sum_zero_basis,
)
from wfsim.simplex import lattice_counts, round_to_lattice

from conftest import A1, A2, CHI2, jacobian_at_equilibrium, neutral_rule

CONFIG_DIR = Path(wfsim.__file__).parent / "configs"

TABLE1_TARGETS = {
    (0.8, 0.1, 0.1): (0.0933, 0.6831, 0.2248),
    (0.1, 0.8, 0.1): (0.5991, 0.0164, 0.3903),
    (0.1, 0.1, 0.8): (0.3692, 0.5940, 0.0373),
}


def test_criterion_01_interior_equilibria():
    """Both benchmark equilibria to 1e-6 per coordinate, in under a second."""
    started = time.perf_counter()
    eq1 = solve_interior_equilibrium(A1).vector
    eq2 = solve_interior_equilibrium(A2).vector
    elapsed = time.perf_counter() - started
    np.testing.assert_allclose(eq1, [0.24766355, 0.41121495, 0.3411215],
                               atol=1e-6)
    np.testing.assert_allclose(eq2, [0.0246913, 0.7345679, 0.2407407],
                               atol=1e-6)
    assert elapsed < 1.0, f"equilibrium solve took {elapsed:.3f}s"


def test_criterion_02_least_abundant_type_dominates():
    """Fast benchmark system, N=500: type 1 least-abundant in >= 99% of
    1000 stopped trials from each of the three standard starts."""
    started = time.perf_counter()
    spec = ExperimentSpec.from_config({
        "matrix": A2, "omega": 0.5, "N": 500,
        "initials": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
        "replicates": 1000, "seed": 20260815,
        "stop_threshold": 0.05, "sample_window": [1000, 5000],
    })
    result = run_experiment(spec, threads=4)
    elapsed = time.perf_counter() - started
    assert result.censored.sum() == 0
    for i in range(3):
        share = result.counts[i, 0] / 1000.0
        assert share >= 0.99, (
            f"initial {spec.initials[i]}: type-1 least-abundant share "
            f"{share:.4f} < 0.99 (counts {result.counts[i].tolist()})"
        )
    assert elapsed < 300.0, f"ensemble took {elapsed:.1f}s (budget 300s)"


def test_criterion_03_outcome_proportions_match_benchmarks():
    """Slow benchmark system, N=500, 10000 trials per start: per-cell
    outcome proportions within 0.05 of the reference values.

    Trials here typically stop before the distance-sampling window opens;
    the sample is then taken at the last pre-stop state and flagged.  The
    0.05 tolerance absorbs that convention.
    """
    started = time.perf_counter()
    spec = ExperimentSpec.from_config({
        "matrix": A1, "omega_ratio": 1e-3, "N": 500,
        "initials": [list(k) for k in TABLE1_TARGETS],
        "replicates": 10_000, "seed": 20260814,
        "stop_threshold": 0.05, "sample_window": [1000, 5000],
    })
    result = run_experiment(spec, threads=4)
    elapsed = time.perf_counter() - started
    assert result.censored.sum() == 0
    for i, (initial, targets) in enumerate(TABLE1_TARGETS.items()):
        props = result.counts[i] / 10_000.0
        for j, target in enumerate(targets):
            assert abs(props[j] - target) <= 0.05, (
                f"initial {initial}: type-{j + 1} proportion {props[j]:.4f} "
                f"vs reference {target} (tolerance 0.05)"
            )
    assert elapsed < 1800.0, f"ensemble took {elapsed:.1f}s (budget 1800s)"


def test_criterion_04_equilibrium_contraction_suite():
    """Benchmark matrices plus >= 100 generated stability matrices
    (M in {2,3,4}), each at mixing weights {0.1, 0.5, 0.9}: the update
    map's derivative at the equilibrium, both the closed form and the
    ``rule.jacobian`` that ``wf meanfield`` writes, contracts sum-zero
    directions (spectral radius < 1 - 1e-9) and matches finite differences
    to 1e-5; the two agree on sum-zero directions to 1e-12."""
    rng = np.random.default_rng(2026)
    matrices = [np.asarray(A1, dtype=np.float64),
                np.asarray(A2, dtype=np.float64)]
    for m in (2, 3, 4):
        matrices.extend(random_stability_matrix(m, rng).entries
                        for _ in range(34))
    assert len(matrices) - 2 >= 100
    for a in matrices:
        chi = solve_interior_equilibrium(a).vector
        basis = sum_zero_basis(a.shape[0])
        for omega in (0.1, 0.5, 0.9):
            rule = make_rule(a, omega=omega)
            closed = jacobian_at_equilibrium(a, omega, chi)
            analytic = rule.jacobian(chi)
            fd = finite_difference_jacobian(rule, chi)
            for name, deriv in (("closed-form", closed), ("rule.jacobian", analytic)):
                radius = spectral_radius_on_sum_zero(deriv)
                assert radius < 1.0 - 1e-9, (
                    f"{name} radius {radius!r} at omega={omega} for matrix {a.tolist()}"
                )
                gap = float(np.abs((deriv - fd) @ basis).max())
                assert gap <= 1e-5, (
                    f"{name}-vs-FD gap {gap:.2e} at omega={omega} "
                    f"for matrix {a.tolist()}"
                )
            gap = float(np.abs((analytic - closed) @ basis).max())
            assert gap <= 1e-12, (
                f"rule.jacobian-vs-closed-form gap {gap:.2e} at omega={omega} "
                f"for matrix {a.tolist()}"
            )


def score_drift_terms(rule: UpdateRule, n: int):
    """The two terms of the one-step drift of x'Ax at every lattice state,
    with p the multinomial law at x: the selection term p'Ap - x'Ax and
    the noise term tr(A Sigma_p)/N = sum_{i<j} p_i p_j (a_ii + a_jj -
    2 a_ij)/N, Sigma_p = diag(p) - pp' (Sigma_p has zero row sums)."""
    x = lattice_counts(rule.m, n) / n
    p = sampling_probs(rule, x)
    a = rule.fitness.payoff.entries
    d = np.diag(a)
    spread = d[:, None] + d[None, :] - 2.0 * a            # zero on the diagonal
    selection = (np.einsum("ij,jk,ik->i", p, a, p)
                 - np.einsum("ij,jk,ik->i", x, a, x))
    noise = 0.5 * np.einsum("ij,jk,ik->i", p, spread, p) / n
    return selection, noise, (x == 1.0).any(axis=1)


def test_criterion_05_average_score_submartingale():
    """Exhaustive exact drift check of x'Ax for positive-entry matrices
    positive definite on sum-zero vectors (seed 515): five at M=2 at
    N <= 8 and N in {50, 1000, 10000}, five at M=3 at N <= 8 and N in
    {50, 200, 630} (near the 200,000-state cap), then one M=4 matrix
    (N <= 8, 50, 100) and one M=5 matrix (N <= 8, 20, 40).  The
    conditional drift is >= -1e-12 everywhere and strictly positive off
    the vertices; each of its two terms, the selection term p'Ap - x'Ax
    and the noise term, is >= -1e-12 on its own, and their sum has the
    minima that ``quadratic_form_drift`` reports."""
    rng = np.random.default_rng(515)
    cases = [(2, random_pd_on_sum_zero_matrix(2, rng)) for _ in range(5)]
    cases += [(3, random_pd_on_sum_zero_matrix(3, rng)) for _ in range(5)]
    cases += [(4, random_pd_on_sum_zero_matrix(4, rng)),
              (5, random_pd_on_sum_zero_matrix(5, rng))]
    ladders = {2: (50, 1000, 10000), 3: (50, 200, 630), 4: (50, 100), 5: (20, 40)}
    omegas = (0.3, 0.5, 0.7)
    for idx, (m, payoff) in enumerate(cases):
        rule = make_rule(payoff.entries, omega=omegas[idx % 3])
        for n in (*range(1, 9), *ladders[m]):
            where = f"matrix #{idx} (M={m}), N={n}"
            low, low_off = quadratic_form_drift(rule, n)
            assert low >= -1e-12, f"{where}: min drift {low:.3e}"
            assert low_off > 0.0, f"{where}: off-vertex drift {low_off:.3e}"
            selection, noise, vertex = score_drift_terms(rule, n)
            assert selection.min() >= -1e-12, (
                f"{where}: min selection term {selection.min():.3e}"
            )
            assert noise.min() >= -1e-12, f"{where}: min noise term {noise.min():.3e}"
            drift = selection + noise
            assert abs(drift.min() - low) <= 1e-13, where
            if not vertex.all():
                assert abs(drift[~vertex].min() - low_off) <= 1e-13, where


def test_criterion_06_decoupling_tail_bounds(rule_a2):
    """Fast benchmark system, N in {500, 2000}, eps in {0.05, 0.1},
    horizons K <= 50, 1000 trajectories, rho = 1.2 * estimated Lipschitz
    constant.  Every cell that some sample could pass (Wilson 99% upper
    limit at 0 exceedances within the tail bound) must have its Wilson
    upper limit within the bound.  A K=1 cell below that resolution is
    judged by its exact one-step law instead: the union of binomial tails
    must lie within the bound, and the observed exceedance count must be
    plausible under that union at the 99% level.  An unresolvable cell at
    K >= 2 has no exact certificate and fails."""
    lip = estimate_lipschitz(rule_a2, 1000, np.random.default_rng(60))
    rho = 1.2 * lip.value
    violations = []
    for idx, n in enumerate((500, 2000)):
        x0 = round_to_lattice(CHI2, n)
        ens = simulate_deviations(rule_a2, x0, horizon=50, replicates=1000,
                                  rng=np.random.default_rng(61 + idx))
        for eps in (0.05, 0.1):
            for row in bound_table(ens, eps, rho, rule_a2.m):
                cell = (f"N={n} eps={eps} K={row.horizon}: "
                        f"exceedances {row.exceed_count}/{row.replicates}, "
                        f"bound={row.bound:.6g}")
                if wilson_upper(0, row.replicates) <= row.bound:
                    if not row.consistent:
                        violations.append(
                            f"{cell}: wilson={row.wilson_upper:.6g} > bound")
                elif row.horizon == 1:
                    union = one_step_exceedance_upper(rule_a2, x0, eps)
                    p_value = float(binom.sf(row.exceed_count - 1,
                                             row.replicates, union))
                    if union > row.bound or p_value < 0.01:
                        violations.append(
                            f"{cell}: exact one-step union={union:.3g}, "
                            f"P(count >= observed)={p_value:.3g} "
                            "(needs union <= bound and P >= 0.01)")
                else:
                    violations.append(
                        f"{cell}: Wilson limit at 0 exceedances "
                        f"{wilson_upper(0, row.replicates):.6g} exceeds the "
                        "bound and no exact certificate exists for K >= 2")
    assert not violations, (
        f"rho_used={rho:.4f}; {len(violations)} inconsistent cell(s):\n"
        + "\n".join(violations)
    )


def test_criterion_07_gaussian_residual_moments(rule_a2):
    """Fast benchmark system, N=10^4, 20 steps, 10^4 replicates from the
    lattice-exact start (0.8, 0.1, 0.1): rescaled residual mean within
    3 SE of zero per coordinate; covariance entrywise within
    max(10% relative, 3 SE) of the linearized noise recursion."""
    res = rescaled_residuals(rule_a2, 10_000, [0.8, 0.1, 0.1], step=20,
                             replicates=10_000,
                             rng=np.random.default_rng(20260814))
    predicted = ar1_covariance(res.orbit)[20]
    assert (REL_TOL, Z_LIMIT) == (0.10, 3.0)
    comp = compare_residual_moments(res.residuals, predicted)
    assert comp.mean_ok, (
        f"residual mean off zero: max |mean|/SE = {comp.max_mean_z:.3f} > 3 "
        f"(empirical mean {res.residuals.mean(axis=0).tolist()})"
    )
    assert comp.cov_ok, (
        f"covariance mismatch: worst entry exceeds its allowance by "
        f"{comp.max_cov_excess:.3e}\nempirical:\n{comp.empirical_cov}\n"
        f"predicted:\n{comp.predicted_cov}"
    )


def test_criterion_08_quasi_stationary_distributions(rule_a2):
    """Single-interior-state toy gives survival factor exactly 1/2; the
    benchmark ladder N in {4,6,8,10,12} has strictly increasing survival
    factors, leak residuals < 1e-10, and power iteration matching a dense
    eigensolver to 1e-10."""
    toy = UpdateRule(neutral_rule(2).fitness,
                     MutationMatrix(np.full((2, 2), 0.5)))
    toy_res = interior_qsd(build_exact_chain(toy, 2))
    assert toy_res.eigenvalue == pytest.approx(0.5, abs=1e-12)

    survival = []
    for n in (4, 6, 8, 10, 12):
        chain = build_exact_chain(rule_a2, n)
        res = interior_qsd(chain)
        assert res.leak_residual < 1e-10, (
            f"N={n}: leak residual {res.leak_residual:.2e}"
        )
        idx = chain.interior_indices()
        sub = chain.matrix[np.ix_(idx, idx)]
        dense = float(np.max(scipy.linalg.eigvals(sub).real))
        assert abs(res.eigenvalue - dense) < 1e-10, (
            f"N={n}: power iteration {res.eigenvalue!r} vs dense {dense!r}"
        )
        survival.append(res.eigenvalue)
    assert all(a < b for a, b in zip(survival, survival[1:])), (
        f"survival factors not strictly increasing: {survival}"
    )


def test_criterion_09_recurrent_structure(rule_a2):
    """Mutation-free chain (M=3, N=6): the three pure states are the only
    recurrent classes and every mixed state is transient.  A fully mixing
    rule is one aperiodic recurrent class.  A block mutation pattern
    yields recurrent classes that are unions of lattice faces, also at
    N=100, where the (S, S) kernel would pass the byte cap."""
    from wfsim.chain import recurrent_class_faces

    chain = build_exact_chain(rule_a2, 6)
    assert len(chain.recurrent_classes) == 3
    recurrent_states = {tuple(chain.states[i])
                        for cls in chain.recurrent_classes for i in cls}
    assert recurrent_states == {(6, 0, 0), (0, 6, 0), (0, 0, 6)}
    assert chain.transient.size == chain.n_states - 3

    mixing = UpdateRule(rule_a2.fitness,
                        MutationMatrix(np.full((3, 3), 1.0 / 3.0) * 0.15
                                       + np.eye(3) * 0.85))
    mixed_chain = build_exact_chain(mixing, 6)
    assert len(mixed_chain.recurrent_classes) == 1
    assert mixed_chain.periods == [1]
    assert mixed_chain.transient.size == 0

    block = UpdateRule(rule_a2.fitness,
                       MutationMatrix([[0.9, 0.1, 0.0],
                                       [0.1, 0.9, 0.0],
                                       [0.0, 0.0, 1.0]]))
    for n in (6, 100):
        block_chain = build_exact_chain(block, n)
        face_sets = set()
        for k in range(len(block_chain.recurrent_classes)):
            supports, is_union = recurrent_class_faces(block_chain, k)
            assert is_union, f"N={n}: class {k} is not a union of faces"
            face_sets.add(frozenset(tuple(sorted(s)) for s in supports))
        assert face_sets == {frozenset({(1, 2)}), frozenset({(3,)})}
    assert "matrix" not in vars(block_chain)


def test_criterion_10_manifest_determinism(tmp_path):
    """An experiment rerun from its manifest, with 1 and then 8 worker
    threads, reproduces every CSV/JSON output byte for byte."""
    runner = CliRunner()
    outs = {name: tmp_path / name for name in ("t1", "t8", "rerun")}
    base = ["extinction", "--config", str(CONFIG_DIR / "table2_smoke.json"),
            "--replicates", "16"]

    r1 = runner.invoke(cli_main, base + ["--threads", "1",
                                         "--out", str(outs["t1"])])
    assert r1.exit_code == 0, r1.output
    r8 = runner.invoke(cli_main, base + ["--threads", "8",
                                         "--out", str(outs["t8"])])
    assert r8.exit_code == 0, r8.output
    rr = runner.invoke(cli_main,
                       ["extinction", "--config",
                        str(outs["t1"] / "manifest.json"),
                        "--threads", "8", "--out", str(outs["rerun"])])
    assert rr.exit_code == 0, rr.output

    manifests = {k: json.loads((d / "manifest.json").read_text())
                 for k, d in outs.items()}
    assert manifests["t1"]["outputs"] == manifests["t8"]["outputs"]
    assert manifests["t1"]["outputs"] == manifests["rerun"]["outputs"]
    for name in ("summary.json", "trials.csv", "histogram.csv"):
        blobs = {k: (d / name).read_bytes() for k, d in outs.items()}
        assert blobs["t1"] == blobs["t8"] == blobs["rerun"], f"{name} differs"
        digest = hashlib.sha256(blobs["t1"]).hexdigest()
        assert manifests["t1"]["outputs"][name] == digest


def test_note_extinction_trend_ladder(rule_a2):
    """Companion trend check: over N in {25, 50, 100} with 2000 absorbed
    trials each, the single-extinction-in-least-fit-set frequency is
    non-decreasing (95% one-sided test) and the mean absorption time
    strictly increases."""
    ladder = []
    mean_times = []
    for n in (25, 50, 100):
        x0 = round_to_lattice(CHI2, n)
        outs = run_trial_absorption(rule_a2, x0,
                                    [trial_rng(500 + n, 0, t) for t in range(2000)],
                                    least_fit_set=least_fit(rule_a2, CHI2))
        assert not any(o.censored for o in outs)
        ladder.append((sum(o.event for o in outs), 2000))
        mean_times.append(float(np.mean([o.stop_time for o in outs])))
    trend = increasing_proportion_trend(ladder)
    assert trend.ok, (
        f"event frequency decreased along the ladder: "
        f"proportions {trend.proportions}, z values {trend.z_values}"
    )
    assert mean_times[0] < mean_times[1] < mean_times[2], (
        f"mean absorption times not increasing: {mean_times}"
    )
