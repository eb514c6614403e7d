import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx

from pwlab.factorize import fejer_triangle
from pwlab.grid import (MAX_GRID_POINTS, Grid, SampledFunction, energy_fraction,
                        evaluate_offgrid, fft_spectrum, filter_spectrum,
                        grid_count, inverse_spectrum, lattice_sum, lp_norm,
                        symmetric_grid)
from pwlab.nehari import DEFAULT_TRUNCATION, _circle_nodes, _circle_size, hankel_symbol
from pwlab.pwspace import band_mask, default_grid, project_band, project_halfline
from pwlab.split import split_symbol
from pwlab.symbols import bump_spectrum_symbol, gaussian_symbol, spectrum_on
from reference import direct_lattice_sum, factored_lattice_sum, inner


def test_symmetric_grid_layout():
    g = symmetric_grid(64.0, 1.0 / 16.0)
    assert g.count == 2048
    assert g.start == -64.0
    assert g.points[0] == -64.0
    assert g.points[-1] == approx(64.0 - 1.0 / 16.0)
    assert g.nyquist == approx(8.0)


def test_odd_count_is_rejected():
    # freq_grid() starts at -nyquist, half a bin off the DFT lattice for odd n
    with pytest.raises(ValueError, match="count"):
        Grid(-2.03125, 0.0625, 65)


def test_step_whose_nyquist_overflows_is_rejected():
    with pytest.raises(ValueError, match="step"):
        Grid(-1.0, 5e-324, 4)


@pytest.mark.parametrize("count", [MAX_GRID_POINTS + 2, 1e300, float("inf"),
                                   float("nan")])
def test_grid_count_past_the_cap_is_refused(count):
    with pytest.raises(ValueError, match="points a grid may hold"):
        grid_count(count)
    if count <= 1e300:
        with pytest.raises(ValueError, match="points a grid may hold"):
            Grid(-1.0, 1e-6, int(count))


def test_grid_count_at_the_cap_is_kept():
    assert grid_count(float(MAX_GRID_POINTS)) == MAX_GRID_POINTS
    assert Grid(-1.0, 1e-6, MAX_GRID_POINTS).count == MAX_GRID_POINTS


@pytest.mark.parametrize("a, window", [(1e300, 64.0), (1e200, 1e200), (1e308, 64.0)],
                         ids=["band-1e300", "both-1e200", "underflowed-step"])
def test_default_grid_past_the_cap_is_refused_before_sizing(a, window, monkeypatch):
    # nothing is sized: the refusal comes before any array exists
    monkeypatch.setattr(np, "arange", None)
    with pytest.raises(ValueError, match="points a grid may hold"):
        default_grid(a, window)


def test_freq_grid_matches_fft_layout():
    g = symmetric_grid(8.0, 0.25)
    fg = g.freq_grid()
    assert fg.count == g.count
    assert fg.start == approx(-2.0)
    assert fg.step == approx(1.0 / (g.count * g.step))


def test_spectrum_of_pure_frequency_is_a_spike():
    g = symmetric_grid(32.0, 1.0 / 8.0)
    xi0 = 0.5
    f = SampledFunction(g, np.exp(2j * np.pi * xi0 * g.points))
    spec = fft_spectrum(f)
    k = spec.grid.index_of(xi0)
    # delta scaling: the spike carries the full window mass
    assert abs(spec.values[k]) == approx(2 * 32.0, rel=1e-12)
    rest = np.delete(np.abs(spec.values), k)
    assert np.max(rest) < 1e-9 * abs(spec.values[k])


def test_inverse_spectrum_roundtrip():
    g = symmetric_grid(16.0, 1.0 / 8.0)
    rng = np.random.default_rng(7)
    f = SampledFunction(g, rng.standard_normal(g.count)
                        + 1j * rng.standard_normal(g.count))
    back = inverse_spectrum(fft_spectrum(f), start=g.start)
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_impulse_at_zero_has_flat_spectrum():
    # the offset phase is reduced in integers, so on a grid whose start is a
    # whole number of steps it is an exact root of unity even at n = 8192
    g = symmetric_grid(256.0, 1.0 / 16.0)
    assert g.count == 8192
    vals = np.zeros(g.count)
    vals[g.index_of(0.0)] = 1.0
    spec = fft_spectrum(SampledFunction(g, vals))
    assert np.max(np.abs(spec.values - g.step)) <= 1e-14 * g.step


def _filters(xi):
    """Band, half-line and Fejer-divisor multipliers on the frequencies xi."""
    tri = fejer_triangle(1.0, xi)
    return {"band": band_mask(xi, 1.0).astype(float),
            "halfline": (xi >= 0).astype(float),
            "fejer": np.where(np.abs(xi) <= 1.8, 1.0 / np.where(tri > 0, tri, 1.0),
                              0.0)}


@pytest.mark.parametrize("g", [default_grid(1.0), Grid(-8.3, 0.0625, 266)],
                         ids=["default", "off-lattice"])
def test_filter_spectrum_matches_phased_route(g):
    # reference: the offset-phased transform, multiplier, phased inverse
    f = _rough(g, seed=5)
    spec = fft_spectrum(f)
    for name, h in _filters(spec.grid.points).items():
        want = inverse_spectrum(SampledFunction(spec.grid, h * spec.values),
                                start=g.start).values
        got = filter_spectrum(f, h)
        assert got.grid == g
        assert np.max(np.abs(got.values - want)) <= 1e-13 * np.max(np.abs(want)), name


@pytest.mark.parametrize("g", [default_grid(1.0), Grid(-8.3, 0.0625, 266)],
                         ids=["default", "off-lattice"])
def test_stack_transforms_act_row_by_row(g):
    rows = [_rough(g, seed=s).values for s in (1, 2, 3)]
    routes = {
        "project_band": lambda f: project_band(f, 1.0).values,
        "project_halfline": lambda f: project_halfline(f, -1).values,
        "fft_spectrum": lambda f: fft_spectrum(f).values,
        "inverse_spectrum": lambda f: inverse_spectrum(fft_spectrum(f),
                                                       start=g.start).values,
    }
    for name, route in routes.items():
        got = route(SampledFunction(g, np.array(rows)))
        want = np.array([route(SampledFunction(g, v)) for v in rows])
        assert got.shape == (3, g.count), name
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), name


@pytest.mark.parametrize("shape", [(2, 3, 64), (3, 63), (64, 3), (0,), ()])
def test_sampled_function_rejects_other_shapes(shape):
    g = symmetric_grid(4.0, 0.125)
    with pytest.raises(ValueError, match="values length does not match grid count"):
        SampledFunction(g, np.zeros(shape))


def test_energy_fraction_of_zero_function_is_zero():
    g = symmetric_grid(8.0, 0.25)
    spec = fft_spectrum(SampledFunction(g, np.zeros(g.count)))
    assert energy_fraction(spec, spec.grid.points < 0) == 0.0


def quad_integral(f: SampledFunction) -> complex:
    """Rectangle-rule integral, step * sum (a reference for the lattice sums)."""
    return f.grid.step * np.sum(f.values)


def test_quad_integral_gaussian():
    g = symmetric_grid(32.0, 1.0 / 16.0)
    f = SampledFunction(g, np.exp(-np.pi * g.points ** 2))
    assert quad_integral(f) == approx(1.0, abs=1e-12)


def test_lp_norm_scaling():
    g = symmetric_grid(16.0, 1.0 / 8.0)
    f = SampledFunction(g, np.exp(-g.points ** 2))
    doubled = SampledFunction(g, 2.0 * f.values)
    for p in (1.0, 1.5, 2.0, 4.0):
        assert lp_norm(doubled, p) == approx(2.0 * lp_norm(f, p), rel=1e-12)


def test_inner_against_parseval():
    g = symmetric_grid(16.0, 1.0 / 8.0)
    rng = np.random.default_rng(3)
    f = SampledFunction(g, rng.standard_normal(g.count) + 0j)
    h = SampledFunction(g, rng.standard_normal(g.count) + 0j)
    sf, sh = fft_spectrum(f), fft_spectrum(h)
    assert inner(f, h) == approx(inner(sf, sh), rel=1e-10)


def test_evaluate_offgrid_reproduces_grid_points():
    g = symmetric_grid(8.0, 0.25)
    f = SampledFunction(g, np.cos(0.3 * g.points))
    xs = g.points[::7]
    got = evaluate_offgrid(f, xs)
    assert np.max(np.abs(got - f.values[::7])) < 1e-12


def _direct_interpolant(f, x):
    """dxi * sum_j S_j exp(2 pi i xi_j x), one point at a time."""
    spec = fft_spectrum(f)
    xi = spec.grid.points
    return np.array([spec.grid.step * np.sum(spec.values * np.exp(2j * np.pi * xi * z))
                     for z in np.atleast_1d(np.asarray(x, dtype=complex))])


def _rough(g, seed=0):
    rng = np.random.default_rng(seed)
    x = g.points
    return SampledFunction(g, np.exp(-0.05 * x ** 2) * np.cos(1.3 * x)
                           + 0.1 * (rng.standard_normal(g.count)
                                    + 1j * rng.standard_normal(g.count)))


@pytest.mark.parametrize("count", [256, 2 * 509])
def test_evaluate_offgrid_matches_direct_sum(count):
    # 2*509 has no divisor near sqrt(n): the factored sum runs as 2 x 509
    g = Grid(-count / 16.0, 0.125, count)
    f = _rough(g)
    rng = np.random.default_rng(1)
    off = rng.uniform(g.start, g.start + g.span, 40)
    xs = np.concatenate([off, g.points[::17]])
    rng.shuffle(xs)
    got = evaluate_offgrid(f, xs)
    want = _direct_interpolant(f, xs)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    on = np.isin(xs, g.points)
    assert np.array_equal(got[on], f.values[np.searchsorted(g.points, xs[on])])


def test_evaluate_offgrid_scalar_point():
    g = symmetric_grid(16.0, 0.125)
    f = _rough(g, seed=2)
    v = evaluate_offgrid(f, 0.3)
    assert np.ndim(v) == 0
    assert abs(v - _direct_interpolant(f, 0.3)[0]) <= 1e-12 * np.max(np.abs(f.values))


def test_evaluate_offgrid_keeps_the_shape_of_x():
    g = symmetric_grid(16.0, 0.125)
    f = _rough(g, seed=3)
    x = np.array([[0.3, g.points[5], -7.77], [g.points[100], 12.01, -15.9]])
    got = evaluate_offgrid(f, x)
    assert got.shape == (2, 3)
    assert np.array_equal(got, evaluate_offgrid(f, x.ravel()).reshape(2, 3))


def _smooth_coeffs(n, seed):
    """Gaussian-enveloped random complex coefficients, centred on the lattice."""
    rng = np.random.default_rng(seed)
    env = np.exp(-((np.arange(n) - n / 2) / (n / 6)) ** 2)
    return env * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


@pytest.fixture(scope="module")
def lattice_cases():
    """(coeffs, xi0, dxi, x) of the package's `lattice_sum` call shapes and of
    two edge cases."""
    # check 09's right target through evaluate_offgrid: n = 2,048 and the
    # 2,028 circle preimages line_to_disk finds in its window
    grid = default_grid(1.0)
    fun = hankel_symbol(split_symbol(gaussian_symbol(), 1.0, grid).part_r, 1.0).params["fun"]
    spec = fft_spectrum(fun)
    _, x = _circle_nodes(_circle_size(DEFAULT_TRUNCATION))
    inside = x[(x >= grid.start) & (x <= grid.points[-1])]
    # a bump_spectrum point_values: n = 4,096 midpoint nodes on its support
    bump = bump_spectrum_symbol(0.2, 0.9, seed=4, hermitian=True)
    lo, hi = bump.spectral_support
    dxi = (hi - lo) / 4096
    fg = Grid(lo + 0.5 * dxi, dxi, 4096)
    # odd n, and points up to five half periods 1/(2 dxi) = 8 out, on a
    # 2^-20 lattice so that every phase x*xi is exact
    rng = np.random.default_rng(7)
    far = np.round(rng.uniform(-40.0, 40.0, 300) * 2.0 ** 20) / 2.0 ** 20
    return {
        "line_to_disk-2048": (spec.values, spec.grid.start, spec.grid.step, inside),
        "bump-4096": (spectrum_on(bump, fg), fg.start, dxi, x),
        "odd-1023": (_smooth_coeffs(1023, 5), -511 / 32, 1 / 32,
                     rng.uniform(-16.0, 16.0, 500)),
        "beyond-half-period": (_smooth_coeffs(256, 6), -8.0, 1 / 16, far),
    }


@pytest.mark.parametrize("case", ["line_to_disk-2048", "bump-4096", "odd-1023",
                                  "beyond-half-period"])
def test_lattice_sum_matches_direct_and_factored_sums(lattice_cases, case):
    coeffs, xi0, dxi, x = lattice_cases[case]
    if case == "line_to_disk-2048":
        assert len(coeffs) == 2048 and len(x) == 2028
    if case == "beyond-half-period":
        assert np.max(np.abs(x)) > 4 * 0.5 / dxi     # four half periods
    got = lattice_sum(coeffs, xi0, dxi, x)
    want = direct_lattice_sum(coeffs, xi0, dxi, x)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    assert np.max(np.abs(got - factored_lattice_sum(coeffs, xi0, dxi, x))) <= 1e-12 * scale


def test_lattice_sum_of_no_points_is_empty():
    got = lattice_sum(_smooth_coeffs(64, 8), -2.0, 1 / 16, np.empty(0))
    assert got.shape == (0,) and got.dtype == complex


@given(st.integers(min_value=-40, max_value=40))
def test_index_of_inverts_points(k):
    g = symmetric_grid(8.0, 0.125)
    idx = k % g.count
    assert g.index_of(g.points[idx]) == idx


@given(st.floats(min_value=-3.9, max_value=3.9),
       st.floats(min_value=0.05, max_value=1.0))
def test_bandlimited_interpolation_consistency(x0, width):
    # trig interpolation of a smooth band-limited sample is stable off-grid
    g = symmetric_grid(32.0, 1.0 / 8.0)
    f = SampledFunction(g, np.exp(-width * g.points ** 2))
    v = evaluate_offgrid(f, np.asarray([x0]))[0]
    assert abs(v - np.exp(-width * x0 ** 2)) < 1e-6
