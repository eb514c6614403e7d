"""Conformal-compression calculus on the band lattice.

Multiplication by omega(x) = (x - i)/(x + i) shifts spectra upward through a
one-sided exponential kernel.  On the frequency lattice the exact analogue is
the elementary Blaschke factor of the bin shift S,

    M = (r - S)(1 - r S)^(-1),

a lower-triangular Toeplitz matrix with first column (r, -c r, -c r^2, ...)
where c = 4 pi * freq_step and r is fixed by c r = 1 - r^2.  That calibration
is forced: the compression Lambda of M to the band block must satisfy the
rank-one identity I - adj(Lambda) Lambda = alpha k (x) k whose right side has
unit trace, and the trace of the lattice defect is c^2 r^2 / (1 - r^2)^2 up
to a term r^(2n).  With this choice the defect is *exactly* rank one on the
geometric profile r^(-l), the lattice twin of the conjugate-kernel spectrum
e^(2 pi (xi - a)) (the two growth rates agree to ~1e-6 per bin, ~1e-3 across
the band).  Everything downstream -- the commutator characterization, the
series reconstruction, and the symbol recovery -- works in this exact lattice
algebra.

The band bins are a contiguous block of the lattice, a semi-invariant
subspace of every lower-triangular kernel, and compressions to a
semi-invariant subspace multiply (Sarason, Trans. AMS 127, 1967): Lambda^k is
the compression of M^k, whose first column is the Blaschke column's k-th
power as a power series, truncated to the band's m bins.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Grid, SampledFunction, fft_spectrum, inverse_spectrum, lp_norm
from .pwspace import _top_pairs, default_grid
from .symbols import sampled_symbol
from .toeplitz import (NyquistBasis, OperatorMatrix, _pnorm_upper,
                       assemble_matrix, matrix_pnorm, norm2, toeplitz_matrix)


def blaschke_params(freq_step: float) -> tuple[float, float]:
    """(c, r): kernel strength and pole radius.

    r is the positive root of c r = 1 - r^2 (unit-trace defect, see module
    docstring).
    """
    c = 4.0 * np.pi * freq_step
    r = 0.5 * (math.sqrt(c * c + 4.0) - c)
    return c, r


def _omega_kernel(n: int, freq_step: float) -> np.ndarray:
    c, r = blaschke_params(freq_step)
    col = np.zeros(n)
    col[0] = r
    col[1:] = -c * r ** np.arange(1, n)
    return col


def lattice_omega_apply(f: SampledFunction) -> SampledFunction:
    """Apply the lattice surrogate of multiplication by omega.

    The spectrum (in ascending frequency order) is convolved with the
    Blaschke column.  The column decays geometrically, so the lattice top
    never feeds back around: the action agrees with the semi-infinite
    operator to underflow.
    """
    spec = fft_spectrum(f)
    n = f.grid.count
    out = np.convolve(spec.values, _omega_kernel(n, f.grid.freq_step))[:n]
    return inverse_spectrum(SampledFunction(spec.grid, out), start=f.grid.start)


@dataclass
class ConformalFrame:
    p: float
    basis: NyquistBasis          # holds the band a and the grid
    kernel: SampledFunction      # conjugate kernel, defect-exact lattice profile
    kernel_coeffs: np.ndarray
    alpha: float                 # 1 / ||kernel||_2^2

    @cached_property
    def ops(self) -> CompressionOps:
        """lambda_ops(self), assembled on first use."""
        return lambda_ops(self)


def build_frame(a: float, p: float = 2.0, grid: Grid | None = None) -> ConformalFrame:
    """Assemble the conformal frame for band a on the given lattice.

    The conjugate kernel is built in the frequency domain as the geometric
    profile r^(-l) anchored at e^(-4 pi a) on the bottom band bin -- the
    profile on which the compression defect is exactly rank one.  It tracks
    the closed form (1/2 pi i)(theta_a(x) - e^(-4 pi a) conj(theta_a)(x))/(x - i)
    to a few percent at this window.
    """
    if grid is None:
        grid = default_grid(a)
    basis = NyquistBasis(a, -grid.start, grid)
    _, r = blaschke_params(grid.freq_step)

    fg = grid.freq_grid()
    profile = np.zeros(fg.count, dtype=complex)
    profile[basis.band] = math.exp(-4.0 * np.pi * a) * r ** (-np.arange(basis.bins, dtype=float))
    kernel = inverse_spectrum(SampledFunction(fg, profile), start=grid.start)

    alpha = 1.0 / lp_norm(kernel, 2.0) ** 2
    return ConformalFrame(p, basis, kernel, basis.coefficients(kernel), alpha)


@dataclass
class CompressionOps:
    lam: OperatorMatrix        # compression of multiplication by omega
    lam_bar: OperatorMatrix    # compression of multiplication by conj(omega)


def _compressions(basis: NyquistBasis, p: float, k: int) -> CompressionOps:
    """Lambda^k and LambdaBar^k from the Blaschke column's k-th power, truncated
    to the m band bins by repeated squaring (see module docstring)."""
    grid, m = basis.grid, basis.bins
    if basis.size != m:   # only N = m nodes make the matrix similar to the band block
        raise ValueError(f"compression powers need a basis that spans the band: "
                         f"{basis.size} nodes for {m} bins; use window {-grid.start}")
    power, base = np.eye(1, m)[0], _omega_kernel(m, grid.freq_step)   # power = 1
    while k:
        if k & 1:
            power = np.convolve(power, base)[:m]
        base, k = np.convolve(base, base)[:m], k >> 1
    taps = np.concatenate([np.zeros(m - 1), power])    # K(d), d = 1 - m ... m - 1
    return CompressionOps(assemble_matrix(taps, basis, p),
                          assemble_matrix(taps[::-1], basis, p))


def lambda_ops(frame: ConformalFrame) -> CompressionOps:
    """Assemble the band compressions of omega- and conj(omega)-multiplication.

    Lambda is the band block of the lower-triangular Blaschke kernel, K(d) =
    col[d] for d >= 0, and LambdaBar that of its correlation kernel K(-d), each
    built on its own (not one as the adjoint of the other); at p = 2
    adjointness is then a checkable property rather than a definition.
    """
    return _compressions(frame.basis, frame.p, 1)


def defect_identity_residual(frame: ConformalFrame) -> float:
    """|| (I - LambdaBar Lambda) - alpha k (x) k ||_2 in the basis coordinates,
    by `_top_pairs` on the defect's matrix-vector products."""
    lam, lam_bar = frame.ops.lam.entries, frame.ops.lam_bar.entries
    kc, alpha = frame.kernel_coeffs, frame.alpha
    return _top_pairs(lambda x: x - lam_bar @ (lam @ x) - alpha * kc * (np.conj(kc) @ x),
                      lambda y: (y - np.conj((np.conj(y) @ lam_bar) @ lam)
                                 - alpha * kc * (np.conj(kc) @ y)), kc.size, kc.size, 0.0)[0]


def _check_frame_matrix(T: OperatorMatrix, frame: ConformalFrame):
    # equal node counts are not enough: band 2 on window 32 and band 1 on
    # window 64 both hold 256 nodes
    b = frame.basis
    if T.a != b.a or not abs(T.window - b.window) <= 1e-12 * b.window:
        raise ValueError(f"operator is on band {T.a}, window {T.window}, but the "
                         f"frame on band {b.a}, window {b.window}; assemble it on "
                         f"the frame's band and window")


def _k_project_coeffs(vecs: np.ndarray, frame: ConformalFrame) -> np.ndarray:
    kc = frame.kernel_coeffs
    scale = frame.alpha  # alpha * ||kc||^2 = 1 on the lattice
    return vecs - scale * np.outer(kc, np.conj(kc) @ vecs)


def commutator_test(T: OperatorMatrix, frame: ConformalFrame, seed: int = 42) -> float:
    """Toeplitz characterization: <T f, g> = <T(omega f), omega g> on Ran K.

    Eight seeded random coefficient vectors a side are K-projected; for such
    vectors the lattice omega-multiplication coincides with the frame's
    Lambda, so the right pairing is (Lambda g)^H T (Lambda f).  Returns the
    deviation, the largest normalized mismatch; 0 for the zero operator.
    """
    _check_frame_matrix(T, frame)
    n = T.size
    tnorm = norm2(T.entries)
    if tnorm == 0.0:
        return 0.0
    rng = np.random.default_rng(seed)
    fs = _k_project_coeffs(rng.standard_normal((n, 8))
                           + 1j * rng.standard_normal((n, 8)), frame)
    gs = _k_project_coeffs(rng.standard_normal((n, 8))
                           + 1j * rng.standard_normal((n, 8)), frame)
    lam = frame.ops.lam.entries
    plain = np.conj(gs).T @ (T.entries @ fs)
    moved = np.conj(lam @ gs).T @ (T.entries @ (lam @ fs))
    scale = tnorm * np.outer(np.linalg.norm(gs, axis=0), np.linalg.norm(fs, axis=0))
    return float(np.max(np.abs(plain - moved) / scale))


def series_reconstruct(mats, N: int, frame: ConformalFrame) -> list:
    """Relative error of the partial sum sum_{n=0}^{N} LambdaBar^n
    (T - LambdaBar T Lambda) Lambda^n on the drain-certified sub-basis, for
    each T in mats.

    The sum telescopes to T - LambdaBar^(N+1) T Lambda^(N+1): the
    reconstruction error is precisely the operator mass not yet drained
    through the compression.  Lambda^n pushes mass outward by roughly
    sqrt(n/(2 pi a)) nodes, so only basis vectors well inside that horizon
    have drained by step N; the certificate reads the operator restricted to
    nodes |t_k| <= radius = sqrt(64/(2 pi a))/3, the horizon of the reference
    step count, and is the error's 2-norm there over T's (the error's own
    when T's block is 0).  Compressions to a semi-invariant subspace multiply
    (Sarason, Trans. AMS 127, 1967), so the powers are assembled as the
    compressions of omega^(N+1) and conj(omega)^(N+1), from the (N+1)-th
    power of the Blaschke column on the frame's basis, once for all of mats;
    only their rows and columns at the block's nodes are multiplied.
    """
    if isinstance(N, bool) or not isinstance(N, numbers.Integral) or N < 0:
        raise ValueError(f"series order N must be a non-negative integer, got {N!r}")
    for M in mats:
        _check_frame_matrix(M, frame)
    powers = _compressions(frame.basis, frame.p, int(N) + 1)
    radius = math.sqrt(64.0 / (2.0 * np.pi * frame.basis.a)) / 3.0
    out = []
    for M in mats:
        sel = np.abs(M.nodes) <= radius
        err = norm2(powers.lam_bar.entries[sel] @ (M.entries @ powers.lam.entries[:, sel]))
        denom = norm2(M.entries[np.ix_(sel, sel)])
        out.append(err / denom if denom > 0.0 else err)
    return out


@dataclass
class RecoveredSymbol:
    phi_bar_part: SampledFunction   # anti-analytic-type summand
    psi_part: SampledFunction       # analytic-type summand

    @property
    def total(self) -> SampledFunction:
        return SampledFunction(self.phi_bar_part.grid,
                               self.phi_bar_part.values + self.psi_part.values)


def _kernel_images(T: OperatorMatrix, frame: ConformalFrame) -> tuple:
    """(C k, Q k) of `recover_symbol`, by matrix-vector products alone."""
    _check_frame_matrix(T, frame)
    t, lam, lam_bar = T.entries, frame.ops.lam.entries, frame.ops.lam_bar.entries
    kc, kh = frame.kernel_coeffs, np.conj(frame.kernel_coeffs)
    Ck = t @ kc - lam_bar @ (t @ (lam @ kc))
    CHk = np.conj(kh @ t - ((kh @ lam_bar) @ t) @ lam)
    return Ck, CHk - frame.alpha * np.conj(kh @ Ck) * kc


def recover_symbol(T: OperatorMatrix, frame: ConformalFrame) -> RecoveredSymbol:
    """Recover the two-sided symbol of a Toeplitz-certified operator.

    With the frame's compressions, C = T - LambdaBar T Lambda and
    Q = C^H - alpha conj(<C k, k>) I, the two summands come from the kernel
    images:

        phi_bar_part = alpha conj(theta_a) C[k] / eta
        psi_part     = conj(alpha conj(theta_a) Q[k] / eta)

    (the involution f -> theta conj(f) undone in closed form).  The quotient
    alpha conj(theta_a)/eta equals (1 - theta(i)^2 conj(theta)^2) / k, and the
    division is evaluated in exactly that shape through the frame kernel: the
    defect calculus is rank-one on the frame's own kernel samples, so dividing
    by anything else (say the continuum closed form, which the discretized
    kernel tracks only to a few percent at this window) would leak the kernel
    discretization into the recovered symbol.  A guarded division protects any
    grid point where the kernel is negligibly small.

    Only these images of k are read, so C and Q are never formed: C k and
    C^H k = conj(k^H C) are matrix-vector products (`_kernel_images`).

    The recovery is the same at every 1 < p < inf: the entries <T e_k', e_k>,
    the frame's kernel, coefficients, alpha, Lambda and LambdaBar follow from
    band, window and grid alone, and C^H is the adjoint under the pairing
    int f conj(g), the PW^p x PW^q duality at every p.  The branch weights
    (x + i)^(-2/p) belong to the continuous proof, which maps PW^p into a
    Hardy space, not to this lattice algebra; p enters only the round trip's
    norm.
    """
    a, grid = frame.basis.a, frame.basis.grid
    theta_bar = np.exp(-2j * np.pi * a * grid.points)
    numer = 1.0 - np.exp(-4.0 * np.pi * a) * theta_bar ** 2
    kv = frame.kernel.values
    guard = np.abs(kv) < 1e-12 * float(np.max(np.abs(kv)))
    safe_k = np.where(guard, 1.0, kv)
    phi_bar, psi_bar = (np.where(guard, 0.0, frame.basis.synthesize(v).values
                                 * numer / safe_k) for v in _kernel_images(T, frame))
    return RecoveredSymbol(SampledFunction(grid, phi_bar),
                           SampledFunction(grid, np.conj(psi_bar)))


def recovery_roundtrip(T: OperatorMatrix, rec: RecoveredSymbol) -> float:
    """Relative error of reassembling T from its recovered symbol, in T's p:
    the error's upper p-norm bound over T's lower one (`norm2` at p = 2)."""
    T_rec = toeplitz_matrix(sampled_symbol(rec.total), T.a, T.p, T.window,
                            rec.total.grid)
    tnorm = matrix_pnorm(T.entries, T.p)["lower"]
    err = _pnorm_upper(np.subtract(T_rec.entries, T.entries, out=T_rec.entries), T.p)
    return err / tnorm if tnorm > 0.0 else err
