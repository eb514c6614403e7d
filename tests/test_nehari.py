"""Minimal Hankel completions and the bounded-symbol pipeline."""
import warnings

import numpy as np
import pytest
from pytest import approx

from pwlab.grid import SampledFunction, lp_norm
from pwlab.nehari import (absorption_residual, bounded_symbol,
                          hankel_norm_estimate, hankel_pairing_residual,
                          line_to_disk, nehari_solve)
from pwlab.pwspace import default_grid, project_band, sinc_kernel
from pwlab.split import SUPPORTS, split_symbol
from pwlab.symbols import gaussian_symbol, sampled_symbol, sup_norm
from pwlab.toeplitz import toeplitz_matrix

A = 1.0


@pytest.fixture(scope="module")
def grid():
    return default_grid(A)


@pytest.fixture(scope="module")
def right_target(grid):
    # the shape the splitting stage hands to the completion stage:
    # conj(theta)^2 times the analytic-spectrum right part
    parts = split_symbol(gaussian_symbol(), A, grid)
    theta2 = np.exp(4j * np.pi * A * grid.points)
    lo, hi = SUPPORTS["R"]
    return sampled_symbol(
        SampledFunction(grid, parts.part_r.values * np.conj(theta2)),
        support=(lo * A - 2.0 * A, hi * A - 2.0 * A))


@pytest.fixture(scope="module")
def solved(right_target, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return nehari_solve(right_target, A, 2.0, grid=grid)


def test_moments_match(solved):
    assert solved.moment_residual < 1e-6 * solved.sigma0


def test_minimal_symbol_is_flat(solved, grid):
    # AAK solutions have constant modulus sigma0; the sup equals sigma0
    assert solved.sup_norm == approx(solved.sigma0, rel=1e-6)


def test_sigma0_agrees_with_independent_hankel_norm(solved, right_target, grid):
    from pwlab.symbols import samples
    est = hankel_norm_estimate(samples(right_target, grid))
    assert solved.hankel_norm == approx(est, rel=1e-12)
    assert abs(solved.sigma0 - est) < 0.05 * est


def test_pairing_oracle_closed_form(solved, right_target):
    # window-free check: pairing defects of psi - b over circle-transfer
    # probes collapse to Fourier coefficients
    res = hankel_pairing_residual(right_target, solved)
    assert res < 1e-5


def test_sigma0_converges_in_truncation(right_target, grid):
    # not monotone (coefficient aliasing at small M can overshoot), but the
    # error against the resolved value shrinks fast
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s64, s128, s256 = [nehari_solve(right_target, A, 2.0, M=M,
                                        grid=grid).sigma0
                           for M in (64, 128, 256)]
    assert abs(s128 - s256) < abs(s64 - s256)
    assert abs(s128 - s256) < 1e-5 * s256


def test_zero_target_gives_zero_completion(grid):
    b = sampled_symbol(SampledFunction(grid, np.zeros(grid.count, complex)),
                       support=(-2.0, 0.5))
    res = nehari_solve(b, A, 2.0, grid=grid)
    assert res.sigma0 == 0.0
    assert np.max(np.abs(res.psi.values)) == 0.0


def test_tail_warning_fires_at_tiny_truncation(right_target, grid):
    with pytest.warns(UserWarning, match="tail"):
        nehari_solve(right_target, A, 2.0, M=24, grid=grid)


@pytest.mark.parametrize("M", [0, -3])
def test_truncation_below_one_is_rejected(right_target, M):
    with pytest.raises(ValueError, match="truncation must be at least 1"):
        line_to_disk(right_target, M)


def test_matched_variant_absorbs_into_analytic_class(solved, grid):
    # probe with an analytic-class band function (spectrum in [0, a)); a
    # two-sided probe would smear the completion's legal co-analytic content
    # below zero and hide the distinction
    from pwlab.pwspace import modulate
    f = modulate(project_band(sinc_kernel(0.5, 0.0, grid), 0.5).fun, 0.5)
    matched = absorption_residual(solved.psi_matched, A, f)
    raw = absorption_residual(solved.psi, A, f)
    assert matched < 1e-10
    assert raw > 1e-3  # the minimal variant alone leaves genuine content


@pytest.fixture(scope="module")
def bounded(grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return bounded_symbol(gaussian_symbol(), A, grid=grid)


def test_bounded_symbol_certifies_gaussian(bounded):
    cert = bounded.certificate(2.0)
    assert cert["operator_residual"] < 1e-3
    assert bounded.sup_norm <= 1.0 + 1e-6   # no worse than the symbol itself here
    assert cert["ratio"] < 20.0
    assert cert["c_meas"] < 20.0


def test_bounded_symbol_residual_small_across_p(bounded):
    # one p-free construction, certified at each p
    for p in (1.5, 3.0):
        assert bounded.certificate(p)["operator_residual"] < 1e-3


def test_construction_stages_do_not_depend_on_p(right_target, grid):
    # bounded_symbol builds once and certifies per p; this is what allows it
    def build(p):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return (toeplitz_matrix(gaussian_symbol(), A, p, 32.0, grid).entries,
                    nehari_solve(right_target, A, p, grid=grid).psi_matched.values)

    ref = build(2.0)
    for p in (1.5, 3.0):
        for got, want in zip(build(p), ref):
            assert np.array_equal(got, want)
