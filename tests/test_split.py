import numpy as np
import pytest
from pytest import approx

from pwlab.grid import SampledFunction, fft_spectrum
from pwlab.pwspace import default_grid
from pwlab.split import (SUPPORTS, bump, bump_l1_norms, central_recover_sweep,
                         jensen_certificate, sinc_norm_constant, split_symbol)
from pwlab.symbols import bump_spectrum_symbol, gaussian_symbol, samples
from pwlab.toeplitz import (operator_norm_certified, toeplitz_apply,
                            toeplitz_matrix)

A = 1.0

# frozen reference values for the cutoff transforms' L1 norms (band 1)
L1_SIDE = 1.905759971508898
L1_CENTER = 1.6123048037558374


@pytest.fixture(scope="module")
def grid():
    return default_grid(A)


@pytest.fixture(scope="module")
def parts(grid):
    return split_symbol(gaussian_symbol(), A, grid)


def test_partition_of_unity_on_the_double_band():
    us = np.linspace(-2.0, 2.0, 401)
    total = sum(bump(us, w) for w in ("L", "C", "R"))
    assert np.max(np.abs(total - 1.0)) < 1e-12


@pytest.mark.parametrize("which", ["L", "C", "R"])
def test_bump_over_an_array_matches_pointwise_calls(which):
    us = np.arange(-4.5, 4.5 + 1e-12, 1.0 / 32.0)
    pointwise = np.array([bump(u, which) for u in us])
    assert np.array_equal(bump(us, which), pointwise)


def test_bumps_vanish_outside_their_supports():
    for which, (lo, hi) in SUPPORTS.items():
        for u in (lo - 0.05, hi + 0.05, lo - 2.0, hi + 2.0):
            assert bump(u, which) == 0.0


def test_parts_sum_to_symbol_on_double_band(grid, parts):
    phi = samples(gaussian_symbol(), grid)
    total = parts.part_l.values + parts.part_c.values + parts.part_r.values
    diff = fft_spectrum(SampledFunction(grid, total - phi.values))
    xi = diff.grid.points
    inside = np.abs(xi) <= 2.0 * A
    peak = np.max(np.abs(fft_spectrum(phi).values))
    assert np.max(np.abs(diff.values[inside])) < 1e-12 * peak


def test_part_spectra_live_in_their_windows(grid, parts):
    for which in ("L", "C", "R"):
        lo, hi = SUPPORTS[which]
        spec = fft_spectrum(parts.part(which))
        xi = spec.grid.points
        outside = (xi < lo * A - 1e-9) | (xi > hi * A + 1e-9)
        peak = np.max(np.abs(spec.values)) or 1.0
        assert np.max(np.abs(spec.values[outside])) < 1e-10 * peak
        assert parts.band_certificates[which] < 1e-10


def test_operator_sum_matches_full_operator(grid, parts):
    T = toeplitz_matrix(gaussian_symbol(), A, 2.0, 32.0, grid)
    acc = np.zeros_like(T.entries)
    for which in ("L", "C", "R"):
        acc += toeplitz_matrix(parts.part_symbol(which), A, 2.0, 32.0,
                               grid).entries
    rel = np.linalg.norm(acc - T.entries, 2) / np.linalg.norm(T.entries, 2)
    assert rel < 1e-6


def test_l1_constants_frozen_values():
    d = bump_l1_norms(1.0)
    assert d["L"] == approx(L1_SIDE, rel=1e-12)
    assert d["C"] == approx(L1_CENTER, rel=1e-12)
    assert d["R"] == approx(L1_SIDE, rel=1e-12)


def test_l1_constants_scale_invariant():
    base = bump_l1_norms(1.0)
    for a in (0.5, 2.0, 4.0):
        d = bump_l1_norms(a)
        for k in ("L", "C", "R"):
            assert d[k] == approx(base[k], abs=1e-6)


def test_jensen_certificate_structure(grid):
    sym = bump_spectrum_symbol(0.05, 1.9, seed=6, hermitian=True)
    parts = split_symbol(sym, A, grid)
    m_parts = {name: toeplitz_matrix(parts.part_symbol(name), A, 2.0, 32.0, grid)
               for name in ("L", "C", "R")}
    T = toeplitz_matrix(sym, A, 2.0, 32.0, grid)
    l1_norms = bump_l1_norms(A)
    rep = jensen_certificate(T, m_parts, l1_norms)
    assert set(rep) == {"L", "C", "R"}
    norm_full = operator_norm_certified(T)["lower"]
    for name, (norm, bound) in rep.items():
        assert norm == operator_norm_certified(m_parts[name])["lower"]
        assert norm <= bound
        assert bound == approx(l1_norms[name] * norm_full * 1.001, rel=1e-12)


def test_central_recovery_at_a_point(grid):
    parts = split_symbol(gaussian_symbol(), A, grid)
    phi_sym = parts.part_symbol("C")
    from pwlab.pwspace import project_band

    def apply_fn(f):
        return toeplitz_apply(phi_sym, project_band(f, A))

    got, = central_recover_sweep(apply_fn, A, [0.0], grid)
    want = parts.part_c.values[grid.index_of(0.0)]
    # window-64 truncation limits the wide test-sinc quadrature to ~1e-4
    assert abs(got - want) < 1e-3


def test_sinc_constant_below_bound_for_a_range_of_p():
    for p in (1.1, 1.5, 2.0, 3.0, 8.0):
        d = sinc_norm_constant(p)
        assert d["product"] <= d["bound"]


def test_sinc_constant_exact_at_two():
    assert sinc_norm_constant(2.0)["product"] == approx(np.sqrt(2.0) / 2.0,
                                                        abs=1e-3)
