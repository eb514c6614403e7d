"""Band projections, kernels, and the p-norm machinery."""
import numpy as np
import pytest
from pytest import approx

from pwlab.grid import SampledFunction, lp_norm
from pwlab.pwspace import (BandlimitedFunction, band_residual,
                           boyd_lower_bound, default_grid, holder_conjugate,
                           modulate, project_band, project_halfline,
                           projector_two_term, riesz_constant_estimate,
                           sinc_kernel, sinc_profile)
from pwlab.toeplitz import matrix_pnorm
from reference import inner


def test_sinc_profile_center_and_zeros():
    a = 1.0
    assert sinc_profile(a, np.asarray([0.0]))[0] == approx(2 * a)
    ks = np.arange(1, 9) / (2 * a)  # Nyquist lattice away from 0
    assert np.max(np.abs(sinc_profile(a, ks))) < 1e-14


def test_sinc_l2_norm(grid1):
    # the 1/x tail clipped at |x| = 64 costs ~1.6e-3 of the exact mass 2a
    f = SampledFunction(grid1, sinc_profile(1.0, grid1.points).astype(complex))
    assert lp_norm(f, 2.0) ** 2 == approx(2.0, rel=2e-3)


def test_projection_idempotent(grid1):
    rng = np.random.default_rng(0)
    raw = SampledFunction(grid1, rng.standard_normal(grid1.count)
                          + 1j * rng.standard_normal(grid1.count))
    once = project_band(raw, 1.0).fun
    twice = project_band(once, 1.0).fun
    assert np.max(np.abs(twice.values - once.values)) < 1e-13
    assert band_residual(once, 1.0) < 1e-28


def test_projection_is_selfadjoint(grid1):
    rng = np.random.default_rng(1)
    f = SampledFunction(grid1, rng.standard_normal(grid1.count) + 0j)
    g = SampledFunction(grid1, rng.standard_normal(grid1.count) + 0j)
    lhs = inner(project_band(f, 1.0).fun, g)
    rhs = inner(f, project_band(g, 1.0).fun)
    assert lhs == approx(rhs, rel=1e-12)


def csinc(a: float, z) -> np.ndarray:
    """sinc for complex arguments, with a series fallback near z = 0."""
    z = np.asarray(z, dtype=complex)
    zz = np.atleast_1d(z)
    small = np.abs(zz) < 1e-8
    w = 2.0 * np.pi * a * zz
    den = np.where(small, 1.0, zz)
    out = np.where(small, 2.0 * a * (1.0 - w ** 2 / 6.0), np.sin(w) / (np.pi * den))
    return out if z.shape else out[0]


def eval_functional(fb: BandlimitedFunction, z) -> complex:
    """Reference: fb at a (possibly complex) point via the kernel pairing
    integral step*sum sinc_a(z - y) f(y)."""
    ker = csinc(fb.a, np.asarray(z, dtype=complex) - fb.grid.points)
    return complex(fb.grid.step * np.sum(ker * fb.values))


def test_kernel_reproduces_point_values(grid1):
    # quadrature route; accuracy limited by the clipped kernel tail
    fb = project_band(sinc_kernel(0.5, 0.0, grid1), 0.5)
    for x in (0.0, 0.25, 1.5, -3.0):
        direct = fb.values[grid1.index_of(x)]
        via_kernel = eval_functional(fb, x)
        assert abs(via_kernel - direct) < 2e-3


def make_bandlimited(f: SampledFunction, a: float, p: float = 2.0,
                     tol: float = 1e-8) -> BandlimitedFunction:
    """f certified as band-limited to a, refused past a band residual of tol
    (a reference for callers that certify rather than project)."""
    r = band_residual(f, a)
    if r > tol:
        raise ValueError(f"band residual {r:.3e} exceeds tolerance {tol:.1e}")
    return BandlimitedFunction(f, a, p)


def test_make_bandlimited_rejects_wideband(grid1):
    rng = np.random.default_rng(2)
    raw = SampledFunction(grid1, rng.standard_normal(grid1.count) + 0j)
    with pytest.raises(ValueError):
        make_bandlimited(raw, 1.0)


def test_project_band_rejects_unresolvable_band():
    g = default_grid(1.0)  # nyquist 8
    f = SampledFunction(g, np.zeros(g.count, dtype=complex))
    with pytest.raises(ValueError):
        project_band(f, 9.0)


def test_halfline_split_is_a_partition(grid1):
    rng = np.random.default_rng(3)
    f = SampledFunction(grid1, rng.standard_normal(grid1.count)
                        + 1j * rng.standard_normal(grid1.count))
    up = project_halfline(f, +1)
    down = project_halfline(f, -1)
    assert np.max(np.abs(up.values + down.values - f.values)) < 1e-12


def test_modulate_shifts_band_content(grid1):
    fb = project_band(sinc_kernel(1.0, 0.0, grid1), 1.0)
    shifted = modulate(fb.fun, 3.0)
    assert band_residual(shifted, 1.0) > 0.99  # moved entirely out of band
    assert band_residual(modulate(shifted, -3.0), 1.0) < 1e-25


def test_two_term_identity_on_band_functions(grid1):
    rng = np.random.default_rng(4)
    raw = SampledFunction(grid1, rng.standard_normal(grid1.count)
                          + 1j * rng.standard_normal(grid1.count))
    f = project_band(raw, 1.0).fun
    d = projector_two_term(f, 1.0)
    assert np.max(np.abs(d.values - f.values)) < 1e-10 * np.max(np.abs(f.values))


def test_holder_conjugate():
    assert holder_conjugate(2.0) == approx(2.0)
    assert holder_conjugate(1.5) == approx(3.0)
    assert holder_conjugate(4.0) == approx(4.0 / 3.0)


def test_riesz_constant_is_one_at_two():
    assert riesz_constant_estimate(2.0) == 1.0


@pytest.mark.parametrize("p", [1.0, np.inf, np.nan])
def test_riesz_constant_rejects_p_outside_open_range(p):
    with pytest.raises(ValueError, match="p must be in"):
        riesz_constant_estimate(p)


def test_riesz_constant_grows_away_from_two():
    a2 = riesz_constant_estimate(2.0)
    assert riesz_constant_estimate(1.5) > a2
    assert riesz_constant_estimate(3.0) > a2


def test_boyd_estimate_on_scaled_identity():
    n = 64

    def apply(v):
        return 3.0 * v

    for p in (1.5, 2.0, 3.0):
        est = boyd_lower_bound(apply, apply, n, p, seed=5)
        assert est == approx(3.0, rel=1e-8)


def _sign_power(y, e):
    """|y|^e * sign(y) for complex y, zero-safe."""
    ay = np.abs(y)
    safe = np.where(ay > 0, ay, 1.0)
    return np.where(ay > 0, ay ** e * (y / safe), 0.0)


def _boyd_per_start(apply_fn, adjoint_fn, n, p, weight=1.0, seed=42, iters=60):
    """Reference: the four starts iterated one after another, one vector at a
    time, with the same draws and stop rules as the block route, and every
    norm and power taken unscaled, as written in the definition."""
    q = holder_conjugate(p)
    rng = np.random.default_rng(seed)
    pool = [np.ones(n, dtype=complex)]
    for _ in range(3):
        pool.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    best = 0.0
    for x in pool:
        nx = (weight * np.sum(np.abs(x) ** p)) ** (1 / p)
        if nx == 0:
            continue
        x = x / nx
        est_prev = 0.0
        for _ in range(iters):
            y = apply_fn(x)
            ny = (weight * np.sum(np.abs(y) ** p)) ** (1 / p)
            if ny == 0:
                break
            est = ny
            w = adjoint_fn(_sign_power(y, p - 1.0))
            nw = (weight * np.sum(np.abs(w) ** q)) ** (1 / q)
            if nw == 0:
                break
            x = _sign_power(w, q - 1.0)
            nx = (weight * np.sum(np.abs(x) ** p)) ** (1 / p)
            x = x / nx
            if abs(est - est_prev) <= 1e-12 * max(est, 1e-300):
                est_prev = est
                break
            est_prev = est
        best = max(best, est_prev)
    return best


def _dense(n, seed=11):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 8.0])
@pytest.mark.parametrize("adjoint", [False, True], ids=["A", "A*"])
def test_block_boyd_matches_per_start_on_dense_matrix(p, adjoint):
    M = _dense(48)
    A = M.conj().T if adjoint else M
    want = _boyd_per_start(lambda x: A @ x, lambda y: A.conj().T @ y, 48, p)
    got = boyd_lower_bound(lambda X: X @ A.T, lambda Y: Y @ A.conj(), 48, p)
    assert got == approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", [1.1, 3.0])
def test_block_boyd_matches_per_start_with_quadrature_weight(p):
    A = _dense(48, seed=5)
    want = _boyd_per_start(lambda x: A @ x, lambda y: A.conj().T @ y, 48, p,
                           weight=0.0625)
    got = boyd_lower_bound(lambda X: X @ A.T, lambda Y: Y @ A.conj(), 48, p,
                           weight=0.0625)
    assert got == approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 8.0])
def test_block_boyd_matches_per_start_on_band_projector(p, grid1):
    def apply(v):  # maps one vector or a stack of rows alike
        return project_band(SampledFunction(grid1, v), 1.0).values

    want = _boyd_per_start(apply, apply, grid1.count, p, weight=grid1.step)
    got = boyd_lower_bound(apply, apply, grid1.count, p, weight=grid1.step)
    assert got == approx(want, rel=1e-12, abs=0.0)


def test_block_boyd_drops_a_start_that_stops_early():
    # A annihilates the ones vector, the first start: that row stops at once
    # on a zero image while the three Gaussian starts keep iterating.  Whole
    # entries and a start scaled by 1/8 (n = 64, p = 2) make that image
    # exactly zero in any summation order.
    n = 64
    rng = np.random.default_rng(3)
    A = (rng.integers(-5, 6, (n, n)) + 1j * rng.integers(-5, 6, (n, n)))
    A[:, -1] = -A[:, :-1].sum(axis=1)
    assert not np.any(np.ones((1, n)) @ A.T)
    rows_seen = []

    def apply(X):
        rows_seen.append(X.shape[0])
        return X @ A.T

    want = _boyd_per_start(lambda x: A @ x, lambda y: A.conj().T @ y, n, 2.0)
    got = boyd_lower_bound(apply, lambda Y: Y @ A.conj(), n, 2.0)
    assert got == approx(want, rel=1e-12, abs=0.0)
    assert rows_seen[0] == 4 and rows_seen[1] == 3
    assert rows_seen == sorted(rows_seen, reverse=True)
    assert len(rows_seen) <= 60


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [1.001, 1000.0])
def test_boyd_is_exact_on_a_diagonal_at_extreme_p(p):
    # |y|^999 at p = 1000, and |w|^1000 at p = 1.001 (q = 1001), overflow
    # unless each row is scaled by its largest modulus first
    d = np.array([3.0, 1.0, 0.5])
    est = boyd_lower_bound(lambda X: X * d, lambda Y: Y * d, 3, p)
    assert est == approx(3.0, rel=1e-12, abs=0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [1.001, 1000.0])
def test_matrix_pnorm_lower_bound_stays_finite_at_extreme_p(p):
    got = matrix_pnorm(_dense(32, seed=2), p)
    assert np.isfinite(got["lower"]) and got["lower"] > 0.0
    assert got["lower"] <= got["upper"] * (1 + 1e-12)


@pytest.mark.parametrize("project", [lambda f: project_band(f, 1.0).fun,
                                     project_halfline],
                         ids=["band", "halfline"])
def test_projectors_are_self_adjoint(project, grid1):
    # real 0/1 spectral masks: <Px, y> = <x, Py>, which lets one Boyd run
    # serve a conjugate pair of exponents
    rng = np.random.default_rng(4)
    x, y = (SampledFunction(grid1, rng.standard_normal((3, grid1.count))
                            + 1j * rng.standard_normal((3, grid1.count)))
            for _ in range(2))
    lhs = np.sum(project(x).values * np.conj(y.values), axis=-1)
    rhs = np.sum(x.values * np.conj(project(y).values), axis=-1)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(lhs))


@pytest.mark.parametrize("p", [1.0, 0.5, np.inf, np.nan])
def test_boyd_rejects_p_outside_open_range(p):
    with pytest.raises(ValueError, match="p must be in"):
        boyd_lower_bound(lambda X: X, lambda Y: Y, 8, p)


def test_matrix_pnorm_rejects_nan_p():
    with pytest.raises(ValueError, match="p must be"):
        matrix_pnorm(2.0 * np.eye(4), float("nan"))
