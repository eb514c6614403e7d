"""Operator application, matrix assembly, and norm certification."""
import math
import tracemalloc
import warnings
from contextlib import nullcontext

import numpy as np
import pytest
from pytest import approx

from pwlab.commutator import (_omega_kernel, build_frame, lambda_ops,
                              lattice_omega_apply)
from pwlab.grid import Grid, SampledFunction, fft_spectrum, symmetric_grid
from pwlab.pwspace import default_grid, project_band, sinc_kernel
from pwlab.symbols import (MAX_MOD_POLY_DEGREE, bump_spectrum_symbol,
                           gaussian_symbol, mod_poly_symbol, sampled_symbol,
                           samples)
from pwlab.toeplitz import (DEFAULT_BASIS_WINDOW, MAX_BASIS_NODES, NyquistBasis,
                            OperatorMatrix, _mod_poly_kernel, assemble_matrix,
                            hankel_apply, identity_matrix, identity_residuals,
                            matrix_from_dict, matrix_pnorm, matrix_to_dict, norm2,
                            operator_norm_certified, toeplitz_apply, toeplitz_matrix)
from reference import block_fft_matrix, inner, lattice_omega_adjoint, svd_norm

A = 1.0


@pytest.fixture(scope="module")
def grid():
    return default_grid(A)


def test_unit_symbol_acts_as_identity(grid):
    one = sampled_symbol(SampledFunction(grid, np.ones(grid.count, complex)))
    f = project_band(sinc_kernel(0.7, 0.5, grid), A)
    out = toeplitz_apply(one, f)
    assert np.max(np.abs(out.values - f.values)) < 1e-12


def test_apply_is_linear(grid):
    sym = gaussian_symbol()
    f = project_band(sinc_kernel(0.5, 0.0, grid), A)
    g = project_band(sinc_kernel(0.8, 2.0, grid), A)
    both = project_band(SampledFunction(grid, 2.0 * f.values - 1j * g.values), A)
    lhs = toeplitz_apply(sym, both).values
    rhs = (2.0 * toeplitz_apply(sym, f).values
           - 1j * toeplitz_apply(sym, g).values)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_real_symbol_gives_selfadjoint_operator(grid):
    sym = bump_spectrum_symbol(0.05, 1.5, seed=2, hermitian=True)
    f = project_band(sinc_kernel(0.6, -1.0, grid), A)
    g = project_band(sinc_kernel(0.9, 1.5, grid), A)
    lhs = inner(toeplitz_apply(sym, f).fun, g.fun)
    rhs = inner(f.fun, toeplitz_apply(sym, g).fun)
    assert lhs == approx(rhs, rel=1e-10)


def test_zero_symbol_operator_vanishes(grid):
    # x * exp(4 pi i x) pushes the whole band out of itself: no tap reaches the
    # band block, so every entry is exactly zero
    T = toeplitz_matrix(mod_poly_symbol(1, 2.0 * A), A, 2.0, 32.0, grid)
    assert not np.any(T.entries)


def _apply_route(sym, grid):
    return toeplitz_apply(sym, project_band(sinc_kernel(0.5, 0.0, grid), A))


def _matrix_route(sym, grid):
    return toeplitz_matrix(sym, A, 2.0, 8.0, grid)


# the stencil loop the lattice kernel replaced: the shift, then the 5-point
# (i/2 pi) d/dxi once per degree, each as a sum of rolls, in natural order
_LOOP_STENCILS = {1: ((25 / 12, -4.0, 3.0, -4 / 3, 1 / 4), (0, -1, -2, -3, -4)),
                  -1: ((-25 / 12, 4.0, -3.0, 4 / 3, -1 / 4), (0, 1, 2, 3, 4)),
                  0: ((1 / 12, -2 / 3, 2 / 3, -1 / 12), (-2, -1, 1, 2))}


def _stencil_loop_kernel(params, grid):
    dxi = grid.freq_step
    vals = np.roll((np.arange(grid.count) == 0).astype(complex),
                   int(round(params["mod"] / dxi)))
    coefs, offs = _LOOP_STENCILS[int(np.sign(params["mod"]))]
    for _ in range(params["degree"]):
        vals = (1j / (2 * np.pi)) * sum(c * np.roll(vals, -o)
                                        for c, o in zip(coefs, offs)) / dxi
    return np.fft.fftshift(params["amp"] * vals)


def _unbounded_warning(expected):
    """pytest.warns for the unbounded-mod_poly warning when expected, else nothing."""
    return pytest.warns(UserWarning, match="unbounded") if expected else nullcontext()


# the basis spans its grid; on the 64-point window-2 grid the power's 81 and
# 129 taps wrap around the lattice
@pytest.mark.parametrize("degree, mod, window", [
    (degree, mod, 8.0) for degree in range(6)
    for mod in (-1.0, -0.25, 0.0, 0.5, 2.0 * A)] + [(20, 0.5, 2.0), (32, 0.0, 2.0)])
def test_mod_poly_kernel_matches_stencil_loop(degree, mod, window):
    grid = default_grid(A, window)
    params = {"degree": degree, "mod": mod, "amp": 0.7}
    kernel, ref = _mod_poly_kernel(params, grid), _stencil_loop_kernel(params, grid)
    assert np.max(np.abs(kernel - ref)) <= 1e-12 * np.max(np.abs(ref))
    # degree >= 1 with |mod| < 2a is unbounded: assembled with a warning
    with _unbounded_warning(degree >= 1 and abs(mod) < 2.0 * A):
        M = toeplitz_matrix(mod_poly_symbol(degree, mod, 0.7), A, 2.0, window, grid)
    basis = NyquistBasis(A, window, grid)
    h, m = grid.count // 2, basis.bins
    R = assemble_matrix(ref[h - m + 1:h + m], basis, 2.0).entries
    # at mod 2a the band block holds no tap: both are exactly zero
    assert np.linalg.norm(M.entries - R, 2) <= 1e-12 * np.linalg.norm(R, 2)


def test_mod_poly_needs_lattice_modulation(grid):
    for route in (_apply_route, _matrix_route):
        with pytest.raises(ValueError, match="lattice"):
            route(mod_poly_symbol(1, 2.0 + 1e-5), grid)


def test_resolution_guard_names_the_problem(grid):
    for route in (_apply_route, _matrix_route):
        with pytest.raises(ValueError, match="resolve"):
            route(bump_spectrum_symbol(6.0, 7.5, seed=1), grid)


def _symbol_case(make, window=8.0, a=A, case_grid=None):
    """On case_grid when given, else on the window-64 grid."""
    def build(grid):
        if case_grid is not None:
            grid = case_grid
        elif window != 8.0:
            grid = default_grid(A, window)
        sym = make(grid)
        return (toeplitz_matrix(sym, a, 2.0, window, grid),
                NyquistBasis(a, window, grid), lambda v: toeplitz_apply(sym, v))
    return build


# band 0.75 at oversample 5 on the window-16 grid: stride 5, m = 48 band bins
# from b0 = -24, and basis window 6 holds N = 18 nodes; on the window-17 grid
# at oversample 8, m = 51 is odd, b0 = -25, and d_k^2 = exp(4 pi i b0 k/m) != 1
NARROW_BAND, NARROW_WINDOW, NARROW_GRID = 0.75, 6.0, (16.0, 5)
ODD_GRID = (17.0, 8)
# band 1 at stride 2, the coarsest the basis takes: m = 32 = n/2 band bins, so
# the taps K(1 - m) ... K(m - 1) reach lattice indices 1 and n - 1
STRIDE2_GRID = symmetric_grid(8.0, 0.25)


def _narrow_case(make, grid_args=NARROW_GRID):
    return _symbol_case(make, NARROW_WINDOW, NARROW_BAND,
                        default_grid(NARROW_BAND, *grid_args))


def _omega_case(conjugate, frame_grid=None):
    def build(grid):
        # the frame's basis spans its grid, so a window-8 grid gives basis window 8
        frame = build_frame(A, 2.0, frame_grid or default_grid(A, 8.0))
        ops = lambda_ops(frame)
        return (ops.lam_bar if conjugate else ops.lam, frame.basis,
                lambda v: project_band((lattice_omega_adjoint if conjugate else
                                        lattice_omega_apply)(v.fun), A))
    return build


BLOCK_CASES = {
    "gaussian-mod": _symbol_case(lambda g: gaussian_symbol(width=0.8, shift=0.3,
                                                           mod=0.25)),
    # basis 1024 on the 8192-point window-256 grid
    "gaussian-mod-b1024": _symbol_case(lambda g: gaussian_symbol(
        width=0.8, shift=0.3, mod=0.25), window=256.0),
    "mod_poly-0": _symbol_case(lambda g: mod_poly_symbol(0, 0.5, amp=0.7)),
    "mod_poly-2-negative-mod": _symbol_case(lambda g: mod_poly_symbol(2, -0.25,
                                                                      amp=0.3)),
    "mod_poly-1-2a": _symbol_case(lambda g: mod_poly_symbol(1, 2.0 * A)),
    "sampled": _symbol_case(lambda g: sampled_symbol(
        samples(gaussian_symbol(amp=1.1, width=0.9, mod=-0.5), g))),
    "bump-hermitian": _symbol_case(lambda g: bump_spectrum_symbol(
        0.05, 1.5, seed=2, hermitian=True)),
    "gaussian-a0.75-os5": _narrow_case(lambda g: gaussian_symbol()),
    "mod_poly-2-negative-mod-a0.75-os5": _narrow_case(
        lambda g: mod_poly_symbol(2, -0.25)),
    "bump-hermitian-a0.75-os5": _narrow_case(lambda g: bump_spectrum_symbol(
        0.05, 1.5, seed=2, hermitian=True)),
    "gaussian-a0.75-odd-bins": _narrow_case(lambda g: gaussian_symbol(), ODD_GRID),
    "omega": _omega_case(False),
    "omega-bar": _omega_case(True),
    "gaussian-stride2": _symbol_case(lambda g: gaussian_symbol(width=4.0),
                                     case_grid=STRIDE2_GRID),
    "mod_poly-0-stride2": _symbol_case(lambda g: mod_poly_symbol(0, 0.5, amp=0.7),
                                       case_grid=STRIDE2_GRID),
    "mod_poly-2-negative-mod-stride2": _symbol_case(
        lambda g: mod_poly_symbol(2, -0.25, amp=0.3), case_grid=STRIDE2_GRID),
    "omega-stride2": _omega_case(False, STRIDE2_GRID),
}


@pytest.mark.parametrize("name", list(BLOCK_CASES))
def test_block_assembly_matches_column_route(name, grid):
    """The band-block matrix equals the definitional route: apply the operator
    to each basis vector and read its Nyquist coefficients."""
    with _unbounded_warning(name.startswith("mod_poly-2-negative-mod")):
        M, basis, apply = BLOCK_CASES[name](grid)
    if basis.size > 256:
        # three seeded columns, each against its own norm
        for k in np.random.default_rng(7).choice(basis.size, 3, replace=False):
            ref = basis.coefficients(apply(basis.vector(int(k))).fun)
            err = float(np.linalg.norm(M.entries[:, k] - ref))
            assert err <= 1e-12 * float(np.linalg.norm(ref))
        return
    ref = np.stack([basis.coefficients(apply(basis.vector(k)).fun)
                    for k in range(basis.size)], axis=1)
    err = float(np.linalg.norm(M.entries - ref, 2))
    # x exp(4 pi i a x) compresses to zero: its columns are rounding noise
    scale = 1.0 if name == "mod_poly-1-2a" else float(np.linalg.norm(ref, 2))
    assert err <= 1e-12 * scale


def _band_taps(sym, grid, m):
    """The taps K(1 - m), ..., K(m - 1) that `toeplitz_matrix` assembles from."""
    kernel = (_mod_poly_kernel(sym.params, grid) if sym.kind == "mod_poly"
              else grid.freq_step * fft_spectrum(samples(sym, grid)).values)
    h = grid.count // 2
    return kernel[h - m + 1:h + m]


# check 06's grid (m = 1,024 band bins, N = 128 nodes), and the CLI's default
# grid spanning the basis window at N = m = 256 and 1,024
ASSEMBLY_SHAPES = {"check06": (symmetric_grid(256.0, 1.0 / 16.0), 32.0),
                   "n256": (default_grid(A, 64.0), 64.0),
                   "n1024": (default_grid(A, 256.0), 256.0)}
ASSEMBLY_SYMBOLS = {
    "gaussian": lambda g: gaussian_symbol(width=0.8, shift=0.3, mod=0.25),
    "bump-hermitian": lambda g: bump_spectrum_symbol(0.05, 1.5, seed=2, hermitian=True),
    "bump": lambda g: bump_spectrum_symbol(0.05, 1.5, seed=11),
    "sampled": lambda g: sampled_symbol(samples(gaussian_symbol(
        amp=1.1, width=0.9, mod=-0.5), g)),
    "mod_poly-1": lambda g: mod_poly_symbol(1, 0.25, amp=0.5),
    "mod_poly-2-negative-mod": lambda g: mod_poly_symbol(2, -0.25, amp=0.3),
}


@pytest.mark.parametrize("shape", list(ASSEMBLY_SHAPES))
@pytest.mark.parametrize("name", list(ASSEMBLY_SYMBOLS))
def test_closed_form_matches_both_slow_routes(name, shape):
    """The closed form equals the whole band block's 2-D FFT and the column
    route on 16 seeded basis vectors, to 1e-12 of the largest entry."""
    grid, window = ASSEMBLY_SHAPES[shape]
    sym = ASSEMBLY_SYMBOLS[name](grid)
    basis = NyquistBasis(A, window, grid)
    taps = _band_taps(sym, grid, basis.bins)
    M = assemble_matrix(taps, basis, 2.0).entries
    R = block_fft_matrix(taps, basis)
    top = float(np.max(np.abs(R)))
    assert np.max(np.abs(M - R)) <= 1e-12 * top
    for k in np.random.default_rng(5).choice(basis.size, 16, replace=False):
        col = basis.coefficients(toeplitz_apply(sym, basis.vector(int(k))).fun)
        assert np.max(np.abs(M[:, k] - col)) <= 1e-12 * top


@pytest.mark.parametrize("window", [8.0, 64.0])
def test_lambda_ops_match_the_block_fft(window):
    # Lambda from the Blaschke column, LambdaBar from the same taps reversed
    frame = build_frame(A, 2.0, default_grid(A, window))
    basis, ops = frame.basis, lambda_ops(frame)
    m = basis.bins
    taps = np.concatenate([np.zeros(m - 1), _omega_kernel(m, basis.grid.freq_step)])
    for M, t in ((ops.lam, taps), (ops.lam_bar, taps[::-1])):
        R = block_fft_matrix(t, basis)
        assert np.max(np.abs(M.entries - R)) <= 1e-12 * np.max(np.abs(R))


def test_check06_assembly_holds_no_band_block():
    # m = 1,024 band bins, N = 128 nodes: the closed form holds O(m + N^2),
    # below one N x m complex array (2.1 MB), where the whole m x m block's
    # transform peaked at 18.9 MB
    grid, window = ASSEMBLY_SHAPES["check06"]
    basis = NyquistBasis(A, window, grid)
    taps = _band_taps(gaussian_symbol(), grid, basis.bins)
    peaks = []
    for assemble in (lambda: assemble_matrix(taps, basis, 2.0),
                     lambda: toeplitz_matrix(gaussian_symbol(), A, 2.0, window, grid)):
        tracemalloc.start()
        try:
            assemble()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (basis.size, basis.bins) == (128, 1024)
    assert peaks[0] < basis.size * basis.bins * 16
    assert peaks[1] < 4e6


def test_mod_poly_refusal_check_holds_no_matrix_of_moduli():
    # at N = m = 1,024 the gaussian peaks near 17.4 B per entry; the mod_poly's
    # float64 check took 24.2, one N x N float array of |entries| more
    grid, window = ASSEMBLY_SHAPES["n1024"]
    peaks = []
    for sym in (gaussian_symbol(), mod_poly_symbol(1, 2.0 * A)):
        tracemalloc.start()
        try:
            M = toeplitz_matrix(sym, A, 2.0, window, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert M.size == 1024
    assert peaks[1] <= peaks[0] + 0.5 * M.size ** 2


# the accepted cases nearest the float64 refusal on the window-64 grid, with
# the degree past each that is refused: both routes cancel taps far larger
# than the entries (so does the column route), and they meet to a multiple of
# eps * sum |taps| (at most 0.69 of it measured), not to 1e-12 of the entries
@pytest.mark.parametrize("degree, window", [(4, 8.0), (5, 8.0), (5, 16.0), (6, 16.0)])
@pytest.mark.parametrize("mod", [0.25, 0.5, -1.0])
def test_mod_poly_near_the_refusal_matches_the_block_fft(grid, degree, window, mod):
    sym = mod_poly_symbol(degree, mod)
    with pytest.warns(UserWarning, match="unbounded"):
        M = toeplitz_matrix(sym, A, 2.0, window, grid).entries
    basis = NyquistBasis(A, window, grid)
    taps = _band_taps(sym, grid, basis.bins)
    err = np.max(np.abs(M - block_fft_matrix(taps, basis)))
    assert err <= 2.0 * np.finfo(float).eps * np.sum(np.abs(taps))
    if (degree, window) in ((5, 8.0), (6, 16.0)):
        with pytest.raises(ValueError, match="float64 cannot resolve"):
            toeplitz_matrix(mod_poly_symbol(degree + 1, mod), A, 2.0, window, grid)


@pytest.mark.parametrize("window", [8.0, DEFAULT_BASIS_WINDOW])
def test_every_mod_poly_degree_resolves_on_the_default_grid(window):
    # `toeplitz`'s default grid spans the basis window: no degree is refused
    grid = default_grid(A, window)
    for degree in range(MAX_MOD_POLY_DEGREE + 1):
        for mod in (0.0, 0.25, -0.25, 1.0, 2.0 * A):
            with _unbounded_warning(degree >= 1 and abs(mod) < 2.0 * A):
                M = toeplitz_matrix(mod_poly_symbol(degree, mod), A, 2.0, window, grid)
            assert M.size == 4 * window


def test_nyquist_basis_is_orthonormal(grid):
    basis = NyquistBasis(A, 8.0, grid)
    G = np.zeros((basis.size, basis.size), dtype=complex)
    for j in range(basis.size):
        vj = basis.vector(j)
        for k in range(j, basis.size):
            G[j, k] = inner(vj.fun, basis.vector(k).fun)
            G[k, j] = np.conj(G[j, k])
    assert np.max(np.abs(G - np.eye(basis.size))) < 1e-12


def test_basis_coefficients_invert_synthesis(grid):
    rng = np.random.default_rng(4)
    bases = [NyquistBasis(A, 8.0, grid)] + [
        NyquistBasis(NARROW_BAND, NARROW_WINDOW, default_grid(NARROW_BAND, *g))
        for g in (NARROW_GRID, ODD_GRID)]
    for basis in bases:
        c = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        f = basis.synthesize(c)
        assert np.max(np.abs(basis.coefficients(f) - c)) < 1e-12


def test_basis_refuses_a_grid_that_cannot_hold_its_band():
    # step 1/(2a): one grid step per node, m = n band bins; the taps would wrap
    grid = Grid(-8.0, 0.5, 32)
    with pytest.raises(ValueError, match=r"grid nyquist 1\.0 does not exceed band 1\.0"):
        NyquistBasis(A, 8.0, grid)
    sym = sampled_symbol(samples(gaussian_symbol(), grid))
    with pytest.raises(ValueError, match="2 grid steps per node"):
        toeplitz_matrix(sym, A, 2.0, 8.0, grid)


@pytest.mark.parametrize("a, window", [(A, 64.0625), (0.75, 16.5)])
def test_basis_refuses_a_fractional_number_of_band_bins(a, window):
    # 4 a window = 256.25 and 49.5 bins: the vectors would not be orthonormal
    grid = default_grid(a, window)
    with pytest.raises(ValueError, match="not a multiple of the 8 grid steps"):
        NyquistBasis(a, 8.0, grid)
    with pytest.raises(ValueError, match="fractional number of bins"):
        toeplitz_matrix(gaussian_symbol(), a, 2.0, 8.0, grid)


def test_basis_refuses_a_grid_that_misses_its_last_node():
    # [-8, 2) holds the first node, -8, but not the last, 7.5
    with pytest.raises(ValueError, match="7.5 is not a point of this grid"):
        NyquistBasis(A, 8.0, Grid(-8.0, 1.0 / 16.0, 160))


@pytest.mark.parametrize("window", [1024.25, 1e4, 1e100])
def test_basis_past_the_node_cap_is_refused_before_sizing(window, monkeypatch):
    # 4097 nodes and more; the grid is a start, a step and a count, not samples,
    # the identity is refused before np.eye would size it, and a matrix file of
    # 8 nodes before np.arange would list the nodes of its window
    matrix = {"band": A, "p": 2.0, "entries": np.zeros((8, 8, 2)),
              "basis": {"window": window, "nodes": np.arange(8.0)}}

    def sized(*args, **kwargs):
        raise AssertionError("sized a refused basis")
    monkeypatch.setattr(np, "eye", sized)
    monkeypatch.setattr(np, "arange", sized)
    assert 4.0 * A * window > MAX_BASIS_NODES
    with pytest.raises(ValueError, match=f"more than {MAX_BASIS_NODES} basis"):
        NyquistBasis(A, window, default_grid(A, 1e4))
    with pytest.raises(ValueError, match=f"more than {MAX_BASIS_NODES} basis"):
        identity_matrix(A, 2.0, window)
    with pytest.raises(ValueError, match=f"'window'.* more than {MAX_BASIS_NODES} basis"):
        matrix_from_dict(matrix)


@pytest.mark.parametrize("count, shift", [(64, 0.15), (64, 1e-9), (63, 0.0)])
def test_matrix_off_the_nyquist_nodes_is_refused(count, shift):
    # band 1 on window 16: the 64 nodes k/2 from k = -32
    nodes = (np.arange(count) - 32) / 2.0 + shift
    with pytest.raises(ValueError, match="needs 64 nodes k/"):
        OperatorMatrix(np.eye(count), 1.0, 2.0, 16.0, nodes)


def test_identity_matrix_is_identity(grid):
    T = identity_matrix(A, 2.0, 32.0)
    assert np.max(np.abs(T.entries - np.eye(T.size))) < 1e-12


def test_matrix_pnorm_exact_cases():
    M = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex)
    assert matrix_pnorm(M, 1.0)["lower"] == approx(5.0)
    assert matrix_pnorm(M, np.inf)["lower"] == approx(3.0)
    assert matrix_pnorm(M, 2.0)["lower"] == approx(np.linalg.norm(M, 2))


def test_matrix_pnorm_bracket_for_intermediate_p():
    rng = np.random.default_rng(8)
    M = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    for p in (1.5, 3.0):
        d = matrix_pnorm(M, p)
        assert 0.0 < d["lower"] <= d["upper"] * (1 + 1e-12)
    # diagonal case has the same p-norm for every p: the bracket collapses
    D = np.diag([3.0, 1.0, 0.5, 0.25]).astype(complex)
    for p in (1.5, 3.0):
        d = matrix_pnorm(D, p)
        assert d["lower"] == approx(3.0, rel=1e-8)
        assert d["upper"] >= 3.0 - 1e-12


def _gaussian(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _rank3() -> np.ndarray:
    rng = np.random.default_rng(3)
    return (rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))) \
        @ (rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64)))


_NORM2_CASES = {
    **{f"gaussian{n}": (lambda n=n: _gaussian(n, n)) for n in (1, 2, 5, 115, 256, 300)},
    "rank3": _rank3,
    "noise2.4e-17": lambda: 2.4e-17 * _gaussian(128, 17) / svd_norm(_gaussian(128, 17)),
    "zero": lambda: np.zeros((64, 64), dtype=complex),
    "identity": lambda: np.eye(96, dtype=complex),
    "tied-diagonal": lambda: np.diag([2.0, 2.0, 1.5, 1.0, 0.5] * 8).astype(complex),
}


def _toeplitz_interior(kind: str, nodes: int) -> np.ndarray:
    """A `toeplitz_matrix` of 4·window nodes at band 1, edges excluded;
    "spoiled" adds check 11's two-node rank-one bump to the gaussian."""
    window = nodes / 4.0
    sym = {"gaussian": gaussian_symbol(), "spoiled": gaussian_symbol(),
           "hermitian-bump": bump_spectrum_symbol(0.05, 1.5, seed=11, hermitian=True),
           "bump": bump_spectrum_symbol(0.05, 1.5, seed=11)}[kind]
    M = toeplitz_matrix(sym, A, 2.0, window, default_grid(A, window))
    if kind == "spoiled":
        e = np.zeros(M.size)
        e[M.size // 2] = e[M.size // 2 + 16] = 1.0 / math.sqrt(2.0)
        M = OperatorMatrix(M.entries + np.outer(e, e), A, 2.0, window, M.nodes)
    return M.interior()


_NORM2_CASES.update({
    f"{kind}-{nodes}": (lambda kind=kind, nodes=nodes: _toeplitz_interior(kind, nodes))
    for kind in ("gaussian", "hermitian-bump", "bump", "spoiled")
    for nodes in (128, 256, 512)})


@pytest.mark.parametrize("name", list(_NORM2_CASES))
def test_norm2_matches_svd(name):
    # 300 is above Nehari's LANCZOS_CAP; norm2's cap is n, so nothing warns.
    # The zero matrix must give exactly 0.0
    X = _NORM2_CASES[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = norm2(X)
    assert abs(got - svd_norm(X)) <= 1e-12 * svd_norm(X)
    assert norm2(X) == got            # the start is seeded: bit for bit


def test_norm2_refuses_a_non_square_matrix():
    with pytest.raises(ValueError, match="square"):
        norm2(np.ones((3, 4), dtype=complex))


def test_norm2_memory_tracks_the_steps_taken():
    # the 921-node interior of a 1,024-node gaussian matrix converges in 12
    # steps; bases of n + 1 rows would be 27 MB, a conjugate copy 13.6 MB
    X = np.ascontiguousarray(_toeplitz_interior("gaussian", 1024))
    tracemalloc.start()
    try:
        norm2(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_gaussian_matrix_norm_under_sup(grid):
    sym = gaussian_symbol()
    T = toeplitz_matrix(sym, A, 2.0, 32.0, grid)
    n = operator_norm_certified(T, 2.0)
    assert n["lower"] <= 1.0 + 1e-9  # ||T_phi|| <= sup|phi| = 1 at p = 2


def test_projector_and_intertwine_identities(grid):
    res = identity_residuals(A, 2.0, grid, seed=42, trials=5)
    assert res["projector_two_term"] < 1e-10
    assert res["projector_halfline_sandwich"] < 1e-10
    assert res["hankel_toeplitz_intertwine"] < 1e-10


def test_matrix_dict_roundtrip(grid):
    T = toeplitz_matrix(gaussian_symbol(), A, 2.0, 8.0, grid)
    T2 = matrix_from_dict(matrix_to_dict(T))
    assert np.array_equal(T.entries, T2.entries)
    assert (T2.a, T2.p, T2.window) == (T.a, T.p, T.window)
    assert np.array_equal(T.nodes, T2.nodes)


def test_matrix_from_dict_names_missing_field():
    with pytest.raises(ValueError, match="entries"):
        matrix_from_dict({"band": 1.0, "p": 2.0,
                          "basis": {"window": 8.0, "nodes": [0.0]}})


@pytest.mark.parametrize("count, accepted", [(8, True), (9, False)])
def test_matrix_from_dict_counts_nodes_as_the_basis_does(count, accepted):
    # 4 band window = 8.5: NyquistBasis holds round(8.5) = 8 nodes; its grid
    # spans window 2.25, since the band holds 8.5 bins of a window-2.125 grid
    nodes = (np.arange(count) - count // 2) / 2.0
    d = {"band": 1.0, "p": 2.0, "basis": {"window": 2.125, "nodes": nodes},
         "entries": np.zeros((count, count, 2))}
    if accepted:
        basis = NyquistBasis(1.0, 2.125, default_grid(1.0, 2.25))
        assert matrix_from_dict(d).size == basis.size
    else:
        with pytest.raises(ValueError, match="needs 8 nodes"):
            matrix_from_dict(d)


def test_hankel_apply_produces_antianalytic_output(grid):
    from pwlab.grid import fft_spectrum
    from pwlab.pwspace import modulate
    sym = sampled_symbol(SampledFunction(
        grid, samples(bump_spectrum_symbol(0.3, 1.4, seed=3), grid).values
        * np.exp(-4j * np.pi * A * grid.points)))
    f = project_band(sinc_kernel(0.5, 0.0, grid), A)
    out = hankel_apply(sym, modulate(f.fun, A))  # lift into the analytic class
    spec = fft_spectrum(out)
    pos = spec.grid.points >= 0
    assert np.max(np.abs(spec.values[pos])) < 1e-10 * np.max(np.abs(spec.values))


def test_hankel_apply_rejects_nonanalytic_input(grid):
    sym = gaussian_symbol()
    f = project_band(sinc_kernel(0.5, 0.0, grid), A)  # two-sided spectrum
    with pytest.raises(ValueError, match="analytic"):
        hankel_apply(sym, f.fun)
