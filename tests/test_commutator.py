"""Conformal frame, compression calculus, Toeplitz test, symbol recovery."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from pytest import approx

from pwlab.commutator import (_compressions, _kernel_images, blaschke_params,
                              build_frame, commutator_test,
                              defect_identity_residual, lambda_ops,
                              lattice_omega_apply, recover_symbol,
                              recovery_roundtrip, series_reconstruct)
from pwlab.grid import SampledFunction, lp_norm
from pwlab.nehari import cayley
from pwlab.pwspace import (BandlimitedFunction, band_residual, default_grid,
                           project_band, sinc_kernel)
from pwlab.symbols import (bump_spectrum_symbol, gaussian_symbol,
                           sampled_symbol)
from pwlab.toeplitz import (NyquistBasis, OperatorMatrix, identity_matrix,
                            matrix_pnorm, toeplitz_matrix)
from reference import (dense_defect_residual, dense_kernel_images,
                       dense_series_residual, inner, lattice_omega_adjoint)

A = 1.0
W = 64.0  # frame operators need the basis to span the whole grid window


def closed_form_kernel(a, grid):
    """(1/2 pi i)(theta_a - e^(-4 pi a) conj(theta_a))/(x - i) on the grid."""
    x = grid.points
    theta = np.exp(2j * np.pi * a * x)
    decay = math.exp(-4.0 * np.pi * a)
    vals = (theta - decay * np.conj(theta)) / (2j * np.pi * (x - 1j))
    return SampledFunction(grid, vals)


def omega_compatible(f, frame):
    """Kernel-orthogonality test for membership of omega*f in the band class.

    defect = |<f, k>| / (||f|| ||k||); the flag is defect <= 1e-6.  The other
    side of the equivalence, the out-of-band mass of omega*f, is computed
    independently through the lattice multiplication and reported alongside.
    """
    fun = f.fun if isinstance(f, BandlimitedFunction) else f
    nf = lp_norm(fun, 2.0)
    nk = lp_norm(frame.kernel, 2.0)
    defect = abs(inner(fun, frame.kernel)) / (nf * nk) if nf > 0.0 else 0.0
    omega_f = lattice_omega_apply(fun)
    residual = band_residual(omega_f, frame.basis.a) if nf > 0.0 else 0.0
    return {"flag": defect <= 1e-6, "defect": defect, "omega_residual": residual}


def k_projector(f, frame):
    """K f = f - alpha <f, k> k, the projector onto the kernel's complement."""
    fun = f.fun if isinstance(f, BandlimitedFunction) else f
    coef = frame.alpha * inner(fun, frame.kernel)
    return SampledFunction(fun.grid, fun.values - coef * frame.kernel.values)


@pytest.fixture(scope="module")
def grid():
    return default_grid(A)


@pytest.fixture(scope="module")
def frame(grid):
    return build_frame(A, 2.0, grid)


@pytest.fixture(scope="module")
def ops(frame):
    return frame.ops


@pytest.fixture(scope="module")
def T_gauss(grid):
    return toeplitz_matrix(gaussian_symbol(), A, 2.0, W, grid)


@pytest.fixture(scope="module")
def big():
    """The gaussian's matrix and its frame, compressions assembled, at
    N = m = 1,024 nodes (band 1, window 256): 16 MB per N x N array."""
    grid = default_grid(A, 256.0)
    T = toeplitz_matrix(gaussian_symbol(), A, 2.0, 256.0, grid)
    frame = build_frame(A, 2.0, grid)
    frame.ops
    assert T.size == frame.basis.bins == 1024
    return T, frame


def traced_peak(call) -> int:
    """The largest number of bytes traced while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_omega_is_unimodular(grid):
    assert np.max(np.abs(np.abs(cayley(grid.points)) - 1.0)) < 1e-14


def test_blaschke_calibration():
    c, r = blaschke_params(1.0 / 128.0)
    assert c * r == approx(1.0 - r ** 2, rel=1e-14)  # unit-trace defect
    assert r == approx(0.952116675599932, rel=1e-14)


def test_lattice_omega_adjointness(grid):
    rng = np.random.default_rng(0)
    f = SampledFunction(grid, rng.standard_normal(grid.count)
                        + 1j * rng.standard_normal(grid.count))
    g = SampledFunction(grid, rng.standard_normal(grid.count)
                        + 1j * rng.standard_normal(grid.count))
    lhs = inner(lattice_omega_apply(f), g)
    rhs = inner(f, lattice_omega_adjoint(g))
    assert lhs == approx(rhs, rel=1e-12)


def test_kernel_is_band_function_with_unit_alpha_norm(frame):
    assert band_residual(frame.kernel, A) < 1e-28
    assert frame.alpha * lp_norm(frame.kernel, 2.0) ** 2 == approx(1.0,
                                                                   rel=1e-12)


def test_kernel_tracks_closed_form_loosely(frame, grid):
    # the lattice-calibrated kernel and the continuum closed form agree in
    # shape; a few-percent interior gap is inherent to the discretization
    ref = closed_form_kernel(A, grid)
    num = frame.kernel.values / frame.kernel.values[grid.index_of(0.0)]
    den = ref.values / ref.values[grid.index_of(0.0)]
    mid = np.abs(grid.points) <= 16.0
    assert np.max(np.abs(num[mid] - den[mid])) < 5e-2


def test_omega_preserves_band_exactly_off_the_kernel(frame, grid):
    # equivalence: omega*f stays band-limited iff f is orthogonal to the
    # conjugate kernel; on the lattice both sides are exact
    rng = np.random.default_rng(1)
    for _ in range(10):
        raw = SampledFunction(grid, rng.standard_normal(grid.count)
                              + 1j * rng.standard_normal(grid.count))
        rep = omega_compatible(k_projector(project_band(raw, A).fun, frame),
                               frame)
        assert rep["flag"]
        assert rep["defect"] < 1e-12
        assert rep["omega_residual"] < 1e-24


def test_omega_compatibility_flags(frame, grid):
    f = project_band(sinc_kernel(0.5, 1.0, grid), A)
    rep_raw = omega_compatible(f, frame)
    rep_proj = omega_compatible(k_projector(f, frame), frame)
    assert not rep_raw["flag"]        # generic band functions hit the kernel
    assert rep_raw["omega_residual"] > 1e-12
    assert rep_proj["flag"]
    assert rep_proj["defect"] < 1e-10
    rep_kernel = omega_compatible(frame.kernel, frame)
    assert rep_kernel["defect"] == approx(1.0, abs=1e-12)
    assert rep_kernel["omega_residual"] == approx(1.0, abs=1e-9)


def test_lambda_norm_and_defect_identity(ops, frame):
    assert np.linalg.norm(ops.lam.entries, 2) == approx(1.0, abs=1e-12)
    assert defect_identity_residual(frame) < 1e-6


def test_defect_matches_the_dense_route(frame):
    # the residual is a rounding residual, ~1.2e-11: compared absolutely
    assert abs(defect_identity_residual(frame) - dense_defect_residual(frame)) <= 1e-14


def test_frame_carries_its_compressions(grid):
    frame = build_frame(A, 2.0, grid)
    assert "ops" not in vars(frame)          # nothing assembled until read
    ops = frame.ops
    assert frame.ops is ops
    ref = lambda_ops(frame)
    assert np.array_equal(ops.lam.entries, ref.lam.entries)
    assert np.array_equal(ops.lam_bar.entries, ref.lam_bar.entries)


def test_commutator_passes_toeplitz_inputs(frame, grid, T_gauss):
    assert commutator_test(T_gauss, frame) < 1e-6
    sym = bump_spectrum_symbol(0.05, 1.5, seed=7, hermitian=True)
    T = toeplitz_matrix(sym, A, 2.0, W, grid)
    assert commutator_test(T, frame) < 1e-6
    Z = OperatorMatrix(np.zeros_like(T_gauss.entries), A, 2.0, W,
                       T_gauss.nodes)
    assert commutator_test(Z, frame) == 0.0


def test_single_node_spoiler_is_invisible(frame, T_gauss):
    # rank-one spikes on one basis vector are absorbed by the kernel direction
    # and provably pass the test; detection needs two nodes
    n = T_gauss.size
    e = np.zeros(n)
    e[n // 2] = 1.0
    S = OperatorMatrix(T_gauss.entries + np.outer(e, e), A, 2.0, W,
                       T_gauss.nodes)
    assert commutator_test(S, frame) < 1e-6


def test_two_node_spoiler_is_detected(frame, T_gauss):
    n = T_gauss.size
    e = np.zeros(n)
    e[n // 2] = e[n // 2 + 16] = 1.0 / np.sqrt(2.0)
    S = OperatorMatrix(T_gauss.entries + np.outer(e, e), A, 2.0, W,
                       T_gauss.nodes)
    assert commutator_test(S, frame) > 1e-3


def test_series_reconstruction_improves_with_order(frame, T_gauss):
    r8, r64 = (series_reconstruct([T_gauss], N, frame)[0] for N in (8, 64))
    assert r64 < 0.05
    assert r64 < r8


def test_series_on_identity(frame):
    T1 = identity_matrix(A, 2.0, W)
    r64 = series_reconstruct([T1], 64, frame)[0]
    assert r64 < 0.05


@pytest.mark.parametrize("N,label", [(N, label) for N in (0, 1, 8, 64)
                                      for label in ("identity", "gaussian", "spoiled")])
def test_series_closed_form_matches_partial_sum(frame, T_gauss, N, label):
    # against the definition, summed term by term: sum_{n=0}^{N} LBar^n C L^n;
    # the errors' difference is read in T's 2-norm, since the gaussian's
    # relative error is itself 1.5e-5 at N = 64.  A Toeplitz T's error keeps
    # its norm when Lambda and LambdaBar trade places, so only the spoiled
    # gaussian, which is not Toeplitz, sees such a swap
    n = T_gauss.size
    e = np.zeros(n)
    e[n // 2] = e[n // 2 + 16] = 1.0 / np.sqrt(2.0)
    T = {"identity": identity_matrix(A, 2.0, W), "gaussian": T_gauss,
         "spoiled": dataclasses.replace(T_gauss, entries=T_gauss.entries
                                        + np.outer(e, e))}[label]
    r = series_reconstruct([T], N, frame)[0]
    sel = np.abs(T.nodes) <= math.sqrt(64.0 / (2.0 * np.pi * A)) / 3.0
    block = np.linalg.norm(T.entries[np.ix_(sel, sel)], 2)
    assert sel.sum() == 5
    assert (abs(r - dense_series_residual(T, N, frame)) * block
            <= 1e-12 * np.linalg.norm(T.entries, 2))


@pytest.mark.parametrize("N", [0, 8, 64])
def test_series_over_a_sequence_matches_single_calls(frame, T_gauss, N):
    mats = [identity_matrix(A, 2.0, W), T_gauss]
    together = series_reconstruct(mats, N, frame)
    assert len(together) == len(mats)
    for T, r in zip(mats, together):
        assert r == series_reconstruct([T], N, frame)[0]


@pytest.mark.parametrize("k", [1, 2, 9, 65])
def test_compression_powers_match_matrix_powers(ops, grid, k):
    # Lambda^k and LambdaBar^k assembled from the k-th power of the Blaschke
    # column, against dense powers of lambda_ops' matrices
    powers = _compressions(NyquistBasis(A, W, grid), 2.0, k)
    for got, base in ((powers.lam, ops.lam), (powers.lam_bar, ops.lam_bar)):
        ref = np.linalg.matrix_power(base.entries, k)
        assert np.max(np.abs(got.entries - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("N", [-2, 1.5, True])
def test_series_order_must_be_a_nonnegative_integer(frame, T_gauss, N):
    with pytest.raises(ValueError, match="N must be a non-negative integer"):
        series_reconstruct([T_gauss], N, frame)


def test_series_needs_a_basis_spanning_the_band(frame, grid):
    # a window-32 basis on the window-64 grid holds half the band's bins
    T = toeplitz_matrix(gaussian_symbol(), A, 2.0, 32.0, grid)
    narrow = dataclasses.replace(frame, basis=NyquistBasis(A, 32.0, grid))
    with pytest.raises(ValueError, match="spans the band"):
        series_reconstruct([T], 8, narrow)


def test_kernel_images_match_the_dense_commutator(grid, frame, T_gauss):
    # C k and Q k against C and Q formed as N x N arrays, to 1e-12 of
    # ||T||_2 ||k||_2: the identity's Q k is rounding noise (~1e-16), so a
    # comparison relative to the images themselves would read 0.43 there
    n = T_gauss.size
    e = np.zeros(n)
    e[n // 2] = e[n // 2 + 16] = 1.0 / np.sqrt(2.0)
    frame3 = build_frame(A, 3.0, grid)
    cases = [(T_gauss, frame),
             (toeplitz_matrix(bump_spectrum_symbol(0.05, 1.5, seed=7, hermitian=True),
                              A, 2.0, W, grid), frame),
             (toeplitz_matrix(gaussian_symbol(width=2.0, shift=3.0, mod=0.4),
                              A, 2.0, W, grid), frame),
             (identity_matrix(A, 2.0, W), frame),
             (OperatorMatrix(np.zeros((n, n)), A, 2.0, W, T_gauss.nodes), frame),
             (dataclasses.replace(T_gauss, entries=T_gauss.entries + np.outer(e, e)),
              frame),
             (toeplitz_matrix(gaussian_symbol(), A, 3.0, W, grid), frame3)]
    knorm = np.linalg.norm(frame.kernel_coeffs)
    for T, fr in cases:
        assert T.size == 256
        scale = 1e-12 * np.linalg.norm(T.entries, 2) * knorm
        for got, ref in zip(_kernel_images(T, fr), dense_kernel_images(T, fr)):
            assert np.linalg.norm(got - ref) <= scale


def test_recovery_forms_no_n_by_n_array(big):
    # N = m = 1,024: beyond T, Lambda and LambdaBar (16 B per entry each) the
    # recovery holds vectors and grid samples, ~1 B per entry; forming C, its
    # products, Q and the identity peaked at 64
    T, frame = big
    assert traced_peak(lambda: recover_symbol(T, frame)) <= 4 * T.size ** 2


def test_roundtrip_holds_one_n_by_n_array(big):
    # beyond T and the recovered symbol the round trip holds the re-assembled
    # matrix, 16 B per entry, and forms the error in its place; holding the
    # error as a second array peaked at 34
    T, frame = big
    rec = recover_symbol(T, frame)
    assert traced_peak(lambda: recovery_roundtrip(T, rec)) <= 20 * T.size ** 2


def test_series_forms_no_n_by_n_product(big):
    # the two assembled powers are 32 B per entry, and the products read only
    # the drained block's rows and columns; a partial sum per matrix, formed
    # by two N x N x N products, peaked at 80 over these two
    T, frame = big
    mats = [identity_matrix(A, 2.0, 256.0), T]
    assert traced_peak(lambda: series_reconstruct(mats, 64, frame)) <= 40 * T.size ** 2


def test_recovery_roundtrip_identity(frame):
    T1 = identity_matrix(A, 2.0, W)
    assert recovery_roundtrip(T1, recover_symbol(T1, frame)) < 1e-3


def test_recovery_roundtrip_gaussian(frame, T_gauss):
    rec = recover_symbol(T_gauss, frame)
    assert recovery_roundtrip(T_gauss, rec) < 1e-3


def test_recovery_roundtrip_deep_frequency(frame, grid):
    # pure frequency with spectrum entirely below the band: the recovered
    # symbol must reproduce content invisible to naive central recovery
    sym = sampled_symbol(
        SampledFunction(grid, np.exp(2j * np.pi * (-1.5) * grid.points)),
        support=(-1.5, -1.5))
    T = toeplitz_matrix(sym, A, 2.0, W, grid)
    assert recovery_roundtrip(T, recover_symbol(T, frame)) < 1e-3


def test_recovery_of_zero_operator(frame, T_gauss):
    Z = OperatorMatrix(np.zeros_like(T_gauss.entries), A, 2.0, W,
                       T_gauss.nodes)
    rec = recover_symbol(Z, frame)
    assert np.max(np.abs(rec.total.values)) == 0.0


def test_recovery_is_the_same_at_every_p(grid, frame, T_gauss):
    # neither the entries nor the frame read p: the parts are those of p = 2,
    # bit for bit; the round trip is the error's upper p-norm bound over T's
    # lower one, and stays within 1e-3
    rec2 = recover_symbol(T_gauss, frame)
    for p in (1.5, 3.0):
        T = toeplitz_matrix(gaussian_symbol(), A, p, W, grid)
        rec = recover_symbol(T, build_frame(A, p, grid))
        for part in ("phi_bar_part", "psi_part"):
            assert np.array_equal(getattr(rec, part).values,
                                  getattr(rec2, part).values)
        T_rec = toeplitz_matrix(sampled_symbol(rec.total), A, p, W, rec.total.grid)
        err, tnorm = (matrix_pnorm(X, p) for X in (T_rec.entries - T.entries, T.entries))
        assert recovery_roundtrip(T, rec) == err["upper"] / tnorm["lower"] < 1e-3


def test_frame_matrix_size_guard(frame, grid):
    T = toeplitz_matrix(gaussian_symbol(), A, 2.0, 32.0, grid)
    with pytest.raises(ValueError, match="window"):
        commutator_test(T, frame)


@pytest.mark.parametrize("call", [commutator_test, recover_symbol,
                                  lambda T, frame: series_reconstruct([T], 8, frame)],
                         ids=["commutator_test", "recover_symbol", "series_reconstruct"])
def test_frame_refuses_another_band_or_window(frame, T_gauss, call):
    # band 2 on window 32 holds the frame's 256 nodes, and window 64.1 the
    # very nodes of window 64: node counts alone let both through, to a
    # deviation of 5e-17 and a round trip of 0.47 on the first; a window
    # within 1e-12 of the frame's is the frame's, as OperatorMatrix reads nodes
    band2 = toeplitz_matrix(gaussian_symbol(), 2.0, 2.0, 32.0, default_grid(2.0, 32.0))
    wide = dataclasses.replace(T_gauss, window=W + 0.1)
    for T, got in ((band2, "band 2.0, window 32.0"), (wide, "band 1.0, window 64.1")):
        assert T.size == frame.basis.size
        with pytest.raises(ValueError, match=f"operator is on {got}, but the frame "
                                             f"on band 1.0, window 64.0"):
            call(T, frame)
    call(dataclasses.replace(T_gauss, window=W * (1.0 + 1e-13)), frame)


def test_the_frame_depends_only_on_band_and_window():
    # a matrix file without a grid is read on default_grid(a, W): the grid's
    # oversampling moves neither the commutator test nor the recovery
    # round-trip past rounding, since the frame follows from the band a and
    # the window W (frequency step 1/(2W), 4aW band bins, alpha by Parseval);
    # nor does p move the frame or the recovered parts by one bit
    T = dataclasses.replace(
        toeplitz_matrix(gaussian_symbol(), A, 2.0, 32.0, default_grid(A, 32.0)),
        grid=None)
    n = T.size
    e = np.zeros(n)
    e[n // 2] = e[n // 2 + 12] = 1.0 / np.sqrt(2.0)
    S = dataclasses.replace(T, entries=T.entries + np.outer(e, e))
    clean, spoiled, roundtrip = [], [], []
    for oversample in (4, 8, 16):
        grid = default_grid(A, 32.0, oversample)
        frame = build_frame(A, 2.0, grid)
        clean.append(commutator_test(T, frame))
        spoiled.append(commutator_test(S, frame))
        rec = recover_symbol(T, frame)
        roundtrip.append(recovery_roundtrip(T, rec))
        for p in (1.5, 3.0):
            other = build_frame(A, p, grid)
            assert np.array_equal(other.kernel.values, frame.kernel.values)
            assert np.array_equal(other.kernel_coeffs, frame.kernel_coeffs)
            assert other.alpha == frame.alpha
            for op in ("lam", "lam_bar"):
                assert np.array_equal(getattr(other.ops, op).entries,
                                      getattr(frame.ops, op).entries)
            rec_p = recover_symbol(dataclasses.replace(T, p=p), other)
            assert np.array_equal(rec_p.phi_bar_part.values, rec.phi_bar_part.values)
            assert np.array_equal(rec_p.psi_part.values, rec.psi_part.values)
    assert n == 128 and spoiled[0] > 1e-3
    assert np.ptp(clean) <= 1e-15
    assert np.ptp(spoiled) <= 1e-12 * spoiled[0]
    assert np.ptp(roundtrip) <= 1e-15
