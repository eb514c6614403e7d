import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx

from pwlab.grid import Grid, SampledFunction, inverse_spectrum, lp_norm, symmetric_grid
from pwlab.pwspace import default_grid
from pwlab.symbols import (MAX_MOD_POLY_DEGREE, bump_spectrum_symbol, from_dict,
                           gaussian_symbol, mod_poly_symbol, point_values,
                           sampled_symbol, samples, spectrum_on, to_dict)


def test_gaussian_samples_match_closed_form(grid1):
    sym = gaussian_symbol(amp=2.0, width=1.5, shift=0.25)
    got = samples(sym, grid1).values
    x = grid1.points
    want = 2.0 * np.exp(-((x - 0.25) / 1.5) ** 2)
    assert np.max(np.abs(got - want)) < 1e-14


def test_gaussian_spectrum_decays_fast(grid1):
    from pwlab.grid import fft_spectrum
    spec = fft_spectrum(samples(gaussian_symbol(), grid1))
    xi = spec.grid.points
    peak = np.max(np.abs(spec.values))
    assert np.max(np.abs(spec.values[np.abs(xi) > 4.0])) < 1e-10 * peak


def test_mod_poly_growth():
    g = default_grid(1.0)
    sym = mod_poly_symbol(1, 2.0)
    vals = point_values(sym, g.points)
    assert vals[g.index_of(3.0)] == approx(3.0 * np.exp(4j * np.pi * 3.0))


def test_bump_spectrum_support_is_respected():
    g = default_grid(1.0)
    fg = g.freq_grid()
    vals = spectrum_on(bump_spectrum_symbol(0.3, 1.2, seed=9), fg)
    xi = fg.points
    peak = np.max(np.abs(vals))
    outside = (xi < 0.3 - 1e-9) | (xi > 1.2 + 1e-9)
    assert np.max(np.abs(vals[outside])) < 1e-12 * peak


@pytest.mark.parametrize("hermitian", [False, True])
def test_bump_point_values_match_midpoint_sum(hermitian):
    # the 4096-node midpoint rule written out as an m x 4096 exponential matrix
    sym = bump_spectrum_symbol(0.2, 0.9, seed=4, hermitian=hermitian)
    x = np.concatenate([np.linspace(-30.0, 30.0, 23), [417.5, -1234.25]])
    lo, hi = sym.spectral_support
    dxi = (hi - lo) / 4096
    xi = lo + (np.arange(4096) + 0.5) * dxi
    svals = spectrum_on(sym, Grid(xi[0], dxi, 4096))
    want = dxi * (svals[None, :] * np.exp(2j * np.pi * np.outer(x, xi))).sum(axis=1)
    got = point_values(sym, x)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


_SHAPE_SYMBOLS = {
    "gaussian": gaussian_symbol(amp=2.0, width=1.5, shift=0.25, mod=0.3),
    "mod_poly": mod_poly_symbol(2, 0.25),
    "sampled": sampled_symbol(samples(gaussian_symbol(width=2.0),
                                      symmetric_grid(16.0, 0.125))),
    "bump_spectrum": bump_spectrum_symbol(0.2, 0.9, seed=4),
    "hermitian-bump": bump_spectrum_symbol(0.2, 0.9, seed=4, hermitian=True),
}


@pytest.mark.parametrize("kind", list(_SHAPE_SYMBOLS))
def test_point_values_keep_the_shape_of_x(kind):
    # a sampled symbol is zero at 40.0, outside its window, and exact at 1.125
    sym = _SHAPE_SYMBOLS[kind]
    x = np.array([[0.3, -2.7, 40.0], [1.125, -15.55, 3.3]])
    got = point_values(sym, x)
    assert got.shape == (2, 3)
    assert np.array_equal(got, point_values(sym, x.ravel()).reshape(2, 3))
    one = point_values(sym, 0.3)
    assert np.ndim(one) == 0
    assert abs(one - got[0, 0]) <= 1e-14 * np.max(np.abs(got))


def test_bump_spectrum_seeded_reproducible():
    g = default_grid(1.0)
    s1 = samples(bump_spectrum_symbol(0.1, 1.0, seed=5), g)
    s2 = samples(bump_spectrum_symbol(0.1, 1.0, seed=5), g)
    assert np.array_equal(s1.values, s2.values)


def test_hermitian_bump_is_real_valued():
    # the conjugate-symmetric spectrum synthesizes to real values up to
    # rounding, and samples keeps their real part: an exactly real symbol
    g = default_grid(1.0)
    sym = bump_spectrum_symbol(0.05, 1.9, seed=11, hermitian=True)
    synth = inverse_spectrum(SampledFunction(g.freq_grid(), spectrum_on(sym, g.freq_grid())),
                             start=g.start)
    assert np.max(np.abs(synth.values.imag)) < 1e-12 * np.max(np.abs(synth.values))
    assert np.array_equal(samples(sym, g).values, synth.values.real)


def test_sampled_symbol_roundtrip_through_dict(grid1):
    f = samples(gaussian_symbol(), grid1)
    sym = sampled_symbol(f, support=(-2.0, 2.0))
    back = from_dict(to_dict(sym))
    assert back.spectral_support == (-2.0, 2.0)
    assert np.array_equal(samples(back, grid1).values, f.values)


@pytest.mark.parametrize("maker", [
    lambda: gaussian_symbol(amp=0.7, width=2.0, shift=-1.0),
    lambda: mod_poly_symbol(2, 4.0, amp=0.5),
    lambda: bump_spectrum_symbol(0.2, 0.9, seed=13, hermitian=True),
])
def test_dict_roundtrip_preserves_values(maker, grid1):
    sym = maker()
    back = from_dict(to_dict(sym))
    assert np.allclose(samples(back, grid1).values, samples(sym, grid1).values,
                       rtol=0, atol=1e-14)


def test_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        from_dict({"kind": "cauchy"})


def test_from_dict_names_missing_field():
    with pytest.raises(ValueError, match="degree"):
        from_dict({"kind": "mod_poly", "mod": 2.0})


def test_mod_poly_degree_is_bounded():
    mod_poly_symbol(MAX_MOD_POLY_DEGREE, 0.0)
    with pytest.raises(ValueError, match="degree"):
        mod_poly_symbol(MAX_MOD_POLY_DEGREE + 1, 0.0)
    with pytest.raises(ValueError, match="degree"):
        from_dict({"kind": "mod_poly", "degree": 100000, "mod": 0.0})


@given(st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_sup_norm_brackets_amplitude_for_gaussians(width, shift):
    # the peak may fall between samples: bounded by the half-step falloff
    g = symmetric_grid(32.0, 1.0 / 16.0)
    sym = gaussian_symbol(amp=1.25, width=width, shift=shift)
    s = lp_norm(samples(sym, g), np.inf)
    assert s <= 1.25 + 1e-12
    assert s >= 1.25 * np.exp(-(g.step / (2.0 * width)) ** 2)
