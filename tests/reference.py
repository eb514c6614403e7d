"""Reference implementations that only the tests read.  pytest puts this
directory on sys.path, so a test module imports them as `from reference
import ...`."""
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from pwlab.commutator import _omega_kernel
from pwlab.grid import (SampledFunction, _require_same_grid, fft_spectrum,
                        inverse_spectrum)


def inner(f: SampledFunction, g: SampledFunction) -> complex:
    """L2 pairing <f, g> = step * sum f conj(g)."""
    _require_same_grid(f, g)
    return complex(f.grid.step * np.sum(f.values * np.conj(g.values)))


def lattice_omega_adjoint(f: SampledFunction) -> SampledFunction:
    """The exact adjoint of `commutator.lattice_omega_apply`: the spectrum
    correlated against the same Blaschke column."""
    spec = fft_spectrum(f)
    n = f.grid.count
    out = np.convolve(spec.values, _omega_kernel(n, f.grid.freq_step)[::-1])[n - 1:]
    return inverse_spectrum(SampledFunction(spec.grid, out), start=f.grid.start)


def svd_norm(X: np.ndarray) -> float:
    """The 2-norm of a dense matrix by its full SVD, the definitional route
    that `toeplitz.norm2` replaces."""
    return float(np.linalg.svd(X, compute_uv=False)[0])


def direct_lattice_sum(coeffs, xi0: float, dxi: float, x) -> np.ndarray:
    """`grid.lattice_sum` by its definition: the full table of
    exp(2 pi i (xi0 + j*dxi) x), each phase reduced mod 1 before the
    exponential, times the coefficients; 256 points at a time."""
    c = np.asarray(coeffs, dtype=complex)
    xi = xi0 + dxi * np.arange(len(c))
    x = np.asarray(x, dtype=float).ravel()
    return np.concatenate([np.exp(2j * np.pi * (np.outer(x[s:s + 256], xi) % 1.0)) @ c
                           for s in range(0, len(x), 256)] or [np.zeros(0, complex)])


def factored_lattice_sum(coeffs, xi0: float, dxi: float, x) -> np.ndarray:
    """`grid.lattice_sum` by the exact factored route its nonuniform FFT
    replaces.  With j = q*B + b, B the divisor of n = len(coeffs) nearest
    sqrt(n) and Q = n/B, each term is exp(2 pi i (xi0 + qB dxi) x) *
    exp(2 pi i b dxi x): m x Q and m x B phase tables, one matrix product
    with the coefficients as a (Q, B) array, and a row sum."""
    c = np.asarray(coeffs, dtype=complex)
    x = np.asarray(x, dtype=float).ravel()
    n = len(c)
    lo = next(d for d in range(math.isqrt(n), 0, -1) if n % d == 0)
    B = lo if math.sqrt(n) - lo <= n // lo - math.sqrt(n) else n // lo
    Q = n // B
    outer = np.exp(2j * np.pi * np.outer(x, xi0 + B * dxi * np.arange(Q)))
    inner = np.exp(2j * np.pi * np.outer(x, dxi * np.arange(B)))
    return np.sum(outer * (inner @ c.reshape(Q, B).T), axis=1)


def block_fft_matrix(taps: np.ndarray, basis) -> np.ndarray:
    """The entries of `toeplitz.assemble_matrix(taps, basis, p)` by the
    definitional route its closed form replaces: the 2-D m-point FFT of the
    whole m x m band block K(j - l), read at the node residues and phased by
    d_k conj(d_k')."""
    toep = sliding_window_view(taps, basis.bins)[:, ::-1]   # toep[j, l] = K(j - l)
    r, d = basis.residues, basis.phase
    block = np.fft.fft(np.fft.ifft(toep, axis=0)[r], axis=1)[:, r]
    return d[:, None] * block * np.conj(d)


def dense_kernel_images(T, frame) -> tuple:
    """(C k, Q k) of `commutator.recover_symbol` by the definitional route
    its matrix-vector products replace: C = T - LambdaBar T Lambda and
    Q = C^H - alpha conj(<C k, k>) I formed as N x N arrays."""
    lam, lam_bar = frame.ops.lam.entries, frame.ops.lam_bar.entries
    kc = frame.kernel_coeffs
    C = T.entries - lam_bar @ T.entries @ lam
    Ck = C @ kc
    Q = np.conj(C).T - frame.alpha * np.conj(np.conj(kc) @ Ck) * np.eye(T.size)
    return Ck, Q @ kc


def dense_defect_residual(frame) -> float:
    """`commutator.defect_identity_residual` by the definitional route its
    matrix-vector products replace: I - LambdaBar Lambda - alpha k (x) k formed
    as an N x N array, and its 2-norm by the SVD."""
    lam, lam_bar = frame.ops.lam.entries, frame.ops.lam_bar.entries
    kc = frame.kernel_coeffs
    return svd_norm(np.eye(kc.size) - lam_bar @ lam
                    - frame.alpha * np.outer(kc, np.conj(kc)))


def dense_series_residual(T, N: int, frame) -> float:
    """One value of `commutator.series_reconstruct` by the definitional route
    its closed form replaces: the partial sum sum_{n=0}^{N} LambdaBar^n
    (T - LambdaBar T Lambda) Lambda^n summed term by term as N x N arrays, then
    compared with T on the nodes |t_k| <= sqrt(64/(2 pi a))/3, relative to T
    there, with 2-norms by the SVD."""
    lam, lam_bar = frame.ops.lam.entries, frame.ops.lam_bar.entries
    term = T.entries - lam_bar @ T.entries @ lam
    total = np.zeros_like(term)
    for _ in range(N + 1):
        total += term
        term = lam_bar @ term @ lam
    sel = np.abs(T.nodes) <= math.sqrt(64.0 / (2.0 * np.pi * frame.basis.a)) / 3.0
    block = np.ix_(sel, sel)
    denom = svd_norm(T.entries[block])
    err = svd_norm(total[block] - T.entries[block])
    return err / denom if denom > 0.0 else err


def materialize(F) -> tuple:
    """The (k, count) sample stacks of a `factorize.Factorization`, built the
    way it once held them: f = (spacing * w)[:, None] * atoms, and each
    regrouping a copy of both stacks with the two-by-two add and subtract."""
    g = F.atoms[F.rows]
    f = (F.plan.spacing * F.plan.weights)[:, None] * g
    for _ in range(F.regroups):
        f, g = f.copy(), g.copy()
        k = len(f) - len(f) % 2
        np.add(f[0:k:2], f[1:k:2], out=f[0:k:2])
        np.subtract(g[1:k:2], g[0:k:2], out=g[1:k:2])
    return f, g


def product_sum(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_k f_k conj(g_k) over the rows of two stacks."""
    acc = np.zeros(f.shape[-1], dtype=complex)
    for fk, gk in zip(f, g):
        acc += fk * np.conj(gk)
    return acc
