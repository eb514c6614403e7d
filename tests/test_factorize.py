"""Constructive weak factorization and the operator pairing."""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from pytest import approx
from reference import materialize, product_sum

from pwlab import factorize
from pwlab.factorize import (FejerAtomPlan, Factorization, fejer_deconvolve,
                             fejer_triangle, pair, regroup_pairs, sinc_atom,
                             toeplitz_test_set, weak_factorize, xpq_sandwich)
from pwlab.grid import SampledFunction, fft_spectrum, lp_norm, symmetric_grid
from pwlab.pwspace import default_grid, project_band, sinc_profile
from pwlab.symbols import gaussian_symbol
from pwlab.toeplitz import NyquistBasis, identity_matrix, toeplitz_matrix

A = 1.0
B = 0.9  # target half-band with the standard margin


@pytest.fixture(scope="module")
def grid():
    return default_grid(A)


@pytest.fixture(scope="module")
def target(grid):
    vals = sinc_profile(B, grid.points).astype(complex) ** 2
    return project_band(SampledFunction(grid, vals), 2.0 * B)


@pytest.fixture(scope="module")
def fact(target):
    return weak_factorize(target, A, 2.0)


def test_atom_spectrum_is_the_exact_triangle(grid):
    atom = sinc_atom(A, 0.0, grid)
    prod = SampledFunction(grid, atom.values * np.conj(atom.values))
    spec = fft_spectrum(prod)
    xi = spec.grid.points
    want = fejer_triangle(A, xi)
    assert np.max(np.abs(spec.values - want)) < 1e-12


def test_atom_translation_is_exact(grid):
    base = sinc_atom(A, 0.0, grid)
    # an on-grid shift, and centres at and next to each end of the grid
    for t in (3.25, *grid.points[:2], *grid.points[-2:]):
        moved = sinc_atom(A, t, grid)
        k = round(t / grid.step)
        assert np.array_equal(moved.values, np.roll(base.values, k))


def test_coarse_grid_is_refused_before_placing_atoms():
    # target band 2b = 0.9: step 0.35 is past 1/(2(a+b)) = 0.345, so no stride
    # places the atom centers
    grid = symmetric_grid(64.0, 0.35)
    vals = sinc_profile(0.45, grid.points).astype(complex) ** 2
    with pytest.raises(ValueError, match="grid too coarse"):
        weak_factorize(project_band(SampledFunction(grid, vals), 0.9), A, 2.0)


def test_reconstruction_residuals(fact, target):
    sup_h = np.max(np.abs(target.values))
    assert fact.residual_sup < 1e-6 * sup_h
    assert fact.residual_l1 < 1e-5 * lp_norm(target.fun, 1.0)
    assert len(fact) == 512
    assert fact.nuclear_sum == approx(3.1108065814890642, rel=1e-9)


def test_atom_stack_is_a_view_of_one_atom(target, grid, monkeypatch):
    calls = []
    monkeypatch.setattr(factorize, "sinc_atom",
                        lambda *args: calls.append(args) or sinc_atom(*args))
    F = weak_factorize(target, A, 2.0)
    assert len(calls) <= 1                    # the passthrough candidate only
    assert len(F) == len(F.plan.centers) == 512
    assert F.atoms.shape[-1] == grid.count
    assert not F.atoms.flags.writeable and not F.atoms.flags.owndata
    stride = round(F.plan.spacing / grid.step)
    for k in (0, 1, 255, 511):
        assert F.plan.centers[k] == grid.points[k * stride]
        atom = sinc_atom(A, grid.points[k * stride], grid)
        assert np.array_equal(F.atoms[F.rows[k]], atom.values)


def test_reconstruct_matches_target(fact, target):
    rec = product_sum(*materialize(fact))
    assert np.max(np.abs(rec - target.values)) < 1e-12


def test_pair_with_identity_is_the_integral(fact, target, grid):
    T1 = identity_matrix(A, 2.0, -grid.start)
    got = pair(T1, fact)
    # the rectangle-rule integral of the target
    assert got == approx(grid.step * np.sum(target.values), rel=1e-10)
    # continuum value: integral of sinc_B^2 = 2B, short only by tail clipping
    assert abs(got - 2.0 * B) < 2e-3


def test_pair_is_representation_independent(fact, grid):
    T = toeplitz_matrix(gaussian_symbol(), A, 2.0, -grid.start, grid)
    v1 = pair(T, fact)
    v2 = pair(T, regroup_pairs(fact))
    assert abs(v1 - v2) < 1e-6 * abs(v1)


@pytest.mark.parametrize("p", [2.0, 1.5, 1.0])
def test_regroup_nuclear_sum_is_the_per_row_sum(target, grid, p):
    # the reference wraps each row and takes lp_norm; same arithmetic, so equal
    R = regroup_pairs(weak_factorize(target, A, p))
    assert R.nuclear_sum == _per_row_nuclear_sum(R)


def _per_row_nuclear_sum(F):
    """Reference: sum_k ||f_k||_p ||g_k||_q over the materialized stacks, one
    lp_norm per row."""
    return float(sum(lp_norm(SampledFunction(F.grid, fk), F.p)
                     * lp_norm(SampledFunction(F.grid, gk), F.q)
                     for fk, gk in zip(*materialize(F))))


def test_pair_respects_symbol_bound(fact, target, grid):
    # |<T_psi, h>| <= sup|psi| * ||h||_1
    T = toeplitz_matrix(gaussian_symbol(), A, 2.0, -grid.start, grid)
    assert abs(pair(T, fact)) <= 1.0 * lp_norm(target.fun, 1.0) * (1 + 1e-6)


def test_pair_with_zero_operator(fact, grid):
    T1 = identity_matrix(A, 2.0, -grid.start)
    Z = type(T1)(np.zeros_like(T1.entries), A, 2.0, T1.window, T1.nodes)
    assert pair(Z, fact) == 0j


def _rows(F, rows):
    """F restricted to the given pairs of its plan."""
    plan = FejerAtomPlan(F.plan.spacing, F.plan.centers[rows], F.plan.weights[rows])
    return dataclasses.replace(F, plan=plan, rows=F.rows[rows])


def _pair_per_pair(T, F):
    """Reference: one coefficient read and one matrix-vector product per pair
    of the materialized stacks."""
    basis = NyquistBasis(T.a, T.window, F.grid)
    total = 0.0 + 0.0j
    for fk, gk in zip(*materialize(F)):
        cf = basis.coefficients(SampledFunction(F.grid, fk))
        cg = basis.coefficients(SampledFunction(F.grid, gk))
        total += np.conj(cg) @ (T.entries @ cf)
    return complex(total)


def test_stack_pair_matches_per_pair(fact, grid):
    atom = sinc_atom(A, 0.5, grid)
    single = weak_factorize(project_band(SampledFunction(
        grid, 0.3 * atom.values * np.conj(atom.values)), 2.0 * A), A, 2.0)
    forms = {"full": fact, "first-100": _rows(fact, slice(0, 100)),
             "regrouped": regroup_pairs(fact),
             "regrouped-twice": regroup_pairs(regroup_pairs(fact)), "one-pair": single,
             "empty": _rows(fact, slice(0, 0))}
    assert len(single) == 1 and len(forms["empty"]) == 0
    W = -grid.start
    # one sequence per Nyquist window: each operator alone and in its sequence
    for ops in ([identity_matrix(A, 2.0, W),
                 toeplitz_matrix(gaussian_symbol(), A, 2.0, W, grid)],
                [toeplitz_matrix(gaussian_symbol(), A, 2.0, 32.0, grid)]):
        for name, F in forms.items():
            together = pair(ops, F)
            assert len(together) == len(ops), name
            for T, got in zip(ops, together):
                want = _pair_per_pair(T, F)
                assert abs(pair(T, F) - want) <= 1e-12 * abs(want), name
                assert abs(got - want) <= 1e-12 * abs(want), name
    assert isinstance(pair(T, forms["empty"]), complex)
    assert pair([], fact) == []


@pytest.mark.parametrize("k", [1, 63, 64, 65, 101, 512])
@pytest.mark.parametrize("times", [1, 2])
def test_regroup_matches_the_materialized_stacks(fact, grid, k, times):
    # pair counts on and around regroup_pairs' block boundaries; an odd last
    # pair stays unmerged, and a regrouping is regrouped again
    R = _rows(fact, slice(0, k))
    for _ in range(times):
        R = regroup_pairs(R)
    f, g = materialize(R)
    assert all(np.array_equal(x, y) for x, y in zip(R.pair_samples(), (f, g)))
    if k % 2:
        assert np.array_equal(g[-1], R.atoms[R.rows[-1]])
    assert R.nuclear_sum == _per_row_nuclear_sum(R)
    T = toeplitz_matrix(gaussian_symbol(), A, 2.0, -grid.start, grid)
    want = _pair_per_pair(T, R)
    assert abs(pair(T, R) - want) <= 1e-12 * abs(want)


def test_a_non_finite_pair_scale_is_refused(fact):
    plan = FejerAtomPlan(fact.plan.spacing, fact.plan.centers[:3],
                         np.array([0.5, np.inf, 0.25], dtype=complex))
    with pytest.raises(ValueError, match="NaN or Inf"):
        Factorization(plan, fact.atoms, fact.rows[:3], fact.grid, 1.0, 0.0, 0.0,
                      A, 2.0)


def test_factorization_holds_no_sample_stack(target, grid):
    # the check-13 sequence stays below one (k, count) complex stack, 16.8 MB
    W = -grid.start
    ops = [identity_matrix(A, 2.0, W),
           toeplitz_matrix(gaussian_symbol(), A, 2.0, W, grid)]
    tracemalloc.start()
    try:
        F = weak_factorize(target, A, 2.0)
        v1 = pair(ops, F)
        v2 = pair(ops, regroup_pairs(F))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(F) == 512
    assert abs(v1[1] - v2[1]) < 1e-6 * abs(v1[1])
    assert peak < len(F) * grid.count * 16


def test_coefficients_of_a_stack_are_its_rows(fact, grid):
    basis = NyquistBasis(A, 32.0, grid)
    f = materialize(fact)[0]
    stack = basis.coefficients(SampledFunction(grid, f))
    assert stack.shape == (len(fact), basis.size)
    for k in (0, 7, 300, 511):
        row = basis.coefficients(SampledFunction(grid, f[k]))
        assert np.array_equal(stack[k], row)


def test_band_mismatch_is_an_error(fact, grid):
    T = identity_matrix(2.0, 2.0, -grid.start / 2)
    with pytest.raises(ValueError, match="band"):
        pair(T, fact)


def test_band_is_checked_before_the_empty_shortcut(fact, grid):
    T = identity_matrix(2.0, 2.0, -grid.start / 2)
    with pytest.raises(ValueError, match="band mismatch"):
        pair(T, _rows(fact, slice(0, 0)))
    with pytest.raises(ValueError, match="band mismatch"):
        pair([T], _rows(fact, slice(0, 0)))


def test_a_sequence_must_share_one_nyquist_window(fact, grid):
    W = -grid.start
    for other in (identity_matrix(A, 2.0, 32.0), identity_matrix(2.0, 2.0, W)):
        for F in (fact, _rows(fact, slice(0, 0))):
            with pytest.raises(ValueError, match="different Nyquist windows"):
                pair([identity_matrix(A, 2.0, W), other], F)


def test_single_atom_product_passes_through(grid):
    atom = sinc_atom(A, 0.5, grid)
    vals = 0.3 * atom.values * np.conj(atom.values)
    h = project_band(SampledFunction(grid, vals), 2.0 * A)
    F = weak_factorize(h, A, 2.0)
    assert len(F) == 1
    assert F.residual_sup < 1e-14
    assert F.nuclear_sum == approx(0.3 * lp_norm(atom.fun, 2.0) ** 2, rel=1e-9)


def test_zero_target():
    grid = default_grid(A, 32.0)     # not the default grid of the band
    h = project_band(SampledFunction(grid, np.zeros(grid.count, complex)),
                     2.0 * B)
    F = weak_factorize(h, A, 2.0)
    assert len(F) == 0
    assert F.nuclear_sum == 0.0
    assert F.grid == grid and len(F.plan.centers) == len(F.plan.weights) == 0
    f, g = materialize(F)
    assert f.shape == g.shape == (0, grid.count)
    assert not np.any(product_sum(f, g))


def test_full_band_target_is_rejected(grid):
    vals = sinc_profile(A, grid.points).astype(complex) ** 2
    h = project_band(SampledFunction(grid, vals), 2.0 * A)
    with pytest.raises(ValueError, match="margin"):
        fejer_deconvolve(h, A)


def test_weight_sup_bound(fact, target):
    # |w_hat| <= |h_hat| / (2(a-b)) transfers to the deconvolved weight
    w = fejer_deconvolve(target, A)
    spec_h = fft_spectrum(target.fun)
    l1_hat = float(np.sum(np.abs(spec_h.values))) * spec_h.grid.step
    assert np.max(np.abs(w.values)) <= l1_hat / (2.0 * (A - B)) + 1e-9


def test_nuclear_sum_grows_with_shrinking_margin(grid):
    sums = []
    for b in (0.6, 0.8, 0.9):
        vals = sinc_profile(b, grid.points).astype(complex) ** 2
        h = project_band(SampledFunction(grid, vals), 2.0 * b)
        sums.append(weak_factorize(h, A, 2.0).nuclear_sum)
    assert sums[0] < sums[1] < sums[2]


def test_holder_per_term(fact, grid):
    T1 = identity_matrix(A, 2.0, -grid.start)
    q = fact.q
    for k in range(0, len(fact), 64):
        one = _rows(fact, slice(k, k + 1))
        fk, gk = materialize(one)
        term = abs(pair(T1, one))
        bound = (lp_norm(SampledFunction(grid, fk[0]), 2.0)
                 * lp_norm(SampledFunction(grid, gk[0]), q))
        assert term <= bound * (1 + 1e-3)


def test_quartic_target_integral(grid):
    c = 0.45
    vals = sinc_profile(c, grid.points).astype(complex) ** 4
    h = project_band(SampledFunction(grid, vals), 1.8 * A)
    F = weak_factorize(h, A, 2.0)
    assert F.residual_sup < 1e-6 * np.max(np.abs(h.values))
    T1 = identity_matrix(A, 2.0, -grid.start)
    # integral of sinc_c^4 = (2/3)(2c)^3
    assert pair(T1, F) == approx((2.0 / 3.0) * (2.0 * c) ** 3, abs=1e-6)


def test_xpq_sandwich_certificates(target, fact, grid):
    tests = toeplitz_test_set(A, 2.0, seed=42, grid=grid)
    rep = xpq_sandwich(target, A, 2.0, tests)
    assert set(rep) == {"estimate", "nuclear_sum", "h_l1"}
    assert rep["h_l1"] == lp_norm(target.fun, 1.0)
    assert rep["h_l1"] <= rep["nuclear_sum"] * (1.0 + 1e-6)
    assert rep["estimate"] <= rep["nuclear_sum"] * (1.0 + 1e-6)
    assert rep["estimate"] == approx(max(abs(pair(T, fact)) for T in tests))
    assert rep["estimate"] > 0.5  # the identity member alone pairs to ~1.8
