"""Constructive weak factorization of band-2b targets into sinc-atom pairs.

A function h with spectrum in [-2b, 2b], b < a, is written as

    h(x) = delta_t * sum_k w(t_k) * A(x - t_k) * conj(A(x - t_k))

where A is the flat-spectrum unit atom of the band [-a, a) and w solves the
deconvolution w-hat = h-hat / K-hat against the Fejer triangle
K-hat(xi) = max(2a - |xi|, 0), the spectrum of |A|^2.  On the sampling
lattice the identity is exact rather than approximate: the atoms are
synthesized spectrally (so translation is a cyclic roll), |A|^2 has exactly
the triangle spectrum, and the atom spacing delta_t < 1/(2(a+b)) pushes every
spectral alias of w clear of the triangle's support.  The pairs
(f_k, g_k) = (delta_t w(t_k) A(. - t_k), A(. - t_k)), held as two (k, count)
sample stacks, then realize the factorization with an explicit nuclear sum
sum_k ||f_k||_p ||g_k||_q.

Full-band targets (b = a) are excluded: the triangle vanishes at +-2a and the
deconvolution blows up.  The margin b is read off the target's certified band.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import (Grid, SampledFunction, filter_spectrum, inverse_spectrum,
                   lp_norm)
from .pwspace import (BandlimitedFunction, band_mask, band_residual,
                      holder_conjugate)
from .symbols import bump_spectrum_symbol
from .toeplitz import (NyquistBasis, OperatorMatrix, identity_matrix,
                       matrix_pnorm, toeplitz_matrix)

TEST_SET_SIZE = 4      # `toeplitz_test_set`: identity and three smooth symbols
ATOM_TOL = 1e-8        # a target this close to one atom product (of its sup) passes through
RESIDUAL_SUP_TOL = 1e-6  # weak_factorize warns past this sup residual (of the sup)


def _base_atom(a: float, grid: Grid) -> tuple[np.ndarray, int]:
    """Samples of the atom of band a on grid, and the index of its peak."""
    fg = grid.freq_grid()
    mask = band_mask(fg.points, a)
    base = inverse_spectrum(SampledFunction(fg, np.where(mask, 1.0 + 0j, 0.0)),
                            start=grid.start)
    return base.values, int(np.argmax(np.abs(base.values)))


def sinc_atom(a: float, t: float, grid: Grid) -> BandlimitedFunction:
    """Flat-spectrum unit atom of band [-a, a) centred at the grid point t.

    This is the lattice realization of sinc_a(. - t): the inverse transform
    of the indicator of the band, so translates are exact cyclic rolls and
    the atom is band-certified bit-for-bit.  The half-open band convention
    leaves a small imaginary ripple (one spectral bin's worth); the
    conjugate-product |A|^2 used by the factorization is exactly real.
    """
    base, i0 = _base_atom(a, grid)
    i = grid.index_of(t)
    return BandlimitedFunction(SampledFunction(grid, np.roll(base, i - i0)), a)


def fejer_triangle(a: float, xi: np.ndarray) -> np.ndarray:
    """The spectrum of |sinc_a|^2: the triangle max(2a - |xi|, 0)."""
    return np.maximum(2.0 * a - np.abs(np.asarray(xi, dtype=float)), 0.0)


@dataclass
class FejerAtomPlan:
    """Sampling plan for the atom sum: centers t_k, spacing, and weights."""

    spacing: float
    centers: np.ndarray
    weights: np.ndarray

    def decay_constant(self) -> float:
        """Measured C with |w(t_k)| <= C/(1 + t_k^2) over the plan."""
        return float(np.max(np.abs(self.weights) * (1.0 + self.centers ** 2)))


def _product_sum(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_k f_k conj(g_k), accumulated row by row: no (k, count) temporary."""
    acc = np.zeros(f.shape[-1], dtype=complex)
    for fk, gk in zip(f, g):
        acc += fk * np.conj(gk)
    return acc


def _row_norms(values: np.ndarray, step: float, p: float) -> list:
    """lp_norm of each row of a (k, count) stack, without wrapping (and
    re-checking) each row; row by row, so no (k, count) temporary."""
    if p == np.inf:
        return [float(np.max(np.abs(row))) for row in values]
    return [float((step * np.sum(np.abs(row) ** p)) ** (1.0 / p)) for row in values]


@dataclass
class Factorization:
    f: SampledFunction                # (k, count) stack of the f_k
    g: SampledFunction                # (k, count) stack of the g_k, same grid
    nuclear_sum: float                # sum ||f_k||_p ||g_k||_q
    residual_sup: float
    residual_l1: float
    a: float
    p: float
    plan: FejerAtomPlan | None = None

    def __len__(self) -> int:
        return len(self.f.values)

    @property
    def q(self) -> float:
        return holder_conjugate(self.p)


def _as_banded(h, name: str) -> BandlimitedFunction:
    if not isinstance(h, BandlimitedFunction):
        raise TypeError(f"{name} must be a BandlimitedFunction carrying its "
                        "certified band (use project_band)")
    return h


def fejer_deconvolve(h: BandlimitedFunction, a: float) -> SampledFunction:
    """Solve  h = w * |sinc_a|^2 (convolution)  for w by spectral division.

    h must be certified at band 2b with b < a strictly; on [-2b, 2b] the
    triangle denominator is at least 2(a - b).
    """
    h = _as_banded(h, "h")
    b = h.a / 2.0
    if not b < a:
        raise ValueError(f"margin violated: target band 2b = {h.a} needs b < a = {a} "
                         "(the triangle denominator vanishes at the full band)")
    r = band_residual(h.fun, h.a)
    if r > 1e-8:
        raise ValueError(f"h drifted out of its declared band: residual {r:.3e}")
    xi = h.grid.freq_grid().points
    tri = fejer_triangle(a, xi)
    inside = np.abs(xi) <= 2.0 * b
    inv_tri = np.where(inside, 1.0 / np.where(tri > 0.0, tri, 1.0), 0.0)
    return filter_spectrum(h.fun, inv_tri)


def _atom_stride(grid: Grid, a: float, b: float) -> int:
    """Largest power-of-two grid stride with spacing strictly below 1/(2(a+b))."""
    limit = 1.0 / (2.0 * (a + b))
    if grid.step >= limit:
        raise ValueError("grid too coarse to place Poisson-exact atom centers")
    stride = 1
    while stride * 2 * grid.step < limit and grid.count % (stride * 2) == 0:
        stride *= 2
    return stride


def weak_factorize(h: BandlimitedFunction, a: float, p: float,
                   atom_tol: float = ATOM_TOL) -> Factorization:
    """Factor a band-2b target into sinc-atom pairs f_k conj(g_k).

    A target that already equals a (scaled) single atom product is passed
    through as a one-pair factorization at any band up to 2a; otherwise the
    strict margin b < a applies and the Fejer deconvolution supplies the
    weights.  Truncation/reconstruction residuals are measured on the grid
    and flagged (not fatal) when above tolerance.
    """
    h = _as_banded(h, "h")
    grid = h.grid
    q = holder_conjugate(p)
    sup_h = float(np.max(np.abs(h.values)))
    if sup_h == 0.0:
        empty = SampledFunction(grid, np.zeros((0, grid.count)))
        return Factorization(empty, empty, 0.0, 0.0, 0.0, a, p, plan=None)

    # single-atom passthrough: h = s * A(.-t) conj(A(.-t)) for a grid center t
    i_star = int(np.argmax(np.abs(h.values)))
    atom = sinc_atom(a, grid.points[i_star], grid)
    peak = float(np.max(np.abs(atom.values) ** 2))
    s = h.values[i_star] / peak
    cand = s * atom.values * np.conj(atom.values)
    if float(np.max(np.abs(h.values - cand))) <= atom_tol * sup_h:
        f = s * atom.values
        nuclear = lp_norm(SampledFunction(grid, f), p) * lp_norm(atom.fun, q)
        res = np.abs(h.values - cand)
        return Factorization(SampledFunction(grid, f[None]),
                             SampledFunction(grid, atom.values[None]), nuclear,
                             float(res.max()), float(grid.step * res.sum()),
                             a, p, plan=None)

    b = h.a / 2.0
    w = fejer_deconvolve(h, a)
    stride = _atom_stride(grid, a, b)
    dt = stride * grid.step
    idx = np.arange(0, grid.count, stride)
    centers = grid.points[idx]
    weights = w.values[idx]
    plan = FejerAtomPlan(dt, centers, weights)

    # the atom centred at idx[j] is the base atom rolled by idx[j] - i0: a
    # window of the atom tiled three times, starting n + i0 - idx[j]
    base, i0 = _base_atom(a, grid)
    n = grid.count
    g = sliding_window_view(np.tile(base, 3), n)[n + i0:i0:-stride]
    keep = weights != 0.0
    if not keep.all():
        g = g[keep]
    f = (dt * weights[keep])[:, None] * g

    res = np.abs(_product_sum(f, g) - h.values)
    residual_sup = float(res.max())
    residual_l1 = float(grid.step * res.sum())
    if residual_sup > RESIDUAL_SUP_TOL * sup_h:
        warnings.warn(f"atom-sum reconstruction off by {residual_sup:.3e} "
                      f"(sup {sup_h:.3e}); factorization returned as-is",
                      RuntimeWarning)
    atom_p = lp_norm(SampledFunction(grid, g[0]), p) if len(g) else 0.0
    atom_q = lp_norm(SampledFunction(grid, g[0]), q) if len(g) else 0.0
    nuclear = float(dt * np.sum(np.abs(weights)) * atom_p * atom_q)
    return Factorization(SampledFunction(grid, f), SampledFunction(grid, g),
                         nuclear, residual_sup, residual_l1, a, p, plan=plan)


def pair(T, F: Factorization) -> complex | list:
    """The duality pairing  sum_k <T f_k, g_k>  of an operator with a target.

    T is one OperatorMatrix, giving a complex, or a sequence of them on one
    Nyquist window (same a and window), giving their pairings in order.  Each
    reads one N x N matrix, built once from the stacks' Nyquist coefficients as
    C = cf^T conj(cg), in O(N^2) as sum_ij T_ij C_ji (the trace duality tr(T C)).
    Coefficients are read on the operators' own Nyquist window, so atoms
    centred outside it are truncated honestly; with the full sampling window
    the basis is a square Parseval frame and the pairing matches grid
    quadrature exactly.
    """
    ops = [T] if isinstance(T, OperatorMatrix) else list(T)
    for op in ops:
        if (op.a, op.window) != (ops[0].a, ops[0].window):
            raise ValueError(f"operators on different Nyquist windows: (a, window) = "
                             f"({ops[0].a}, {ops[0].window}) and ({op.a}, {op.window})")
        if abs(op.a - F.a) > 1e-12:
            raise ValueError(f"band mismatch: operator at a = {op.a}, "
                             f"factorization at a = {F.a}")
    if len(F) == 0 or not ops:
        values = [0.0 + 0.0j] * len(ops)
    else:
        basis = NyquistBasis(ops[0].a, ops[0].window, F.f.grid)
        cg = basis.coefficients(F.g)
        C = basis.coefficients(F.f).T @ np.conj(cg, out=cg)
        values = [complex(np.sum(op.entries * C.T)) for op in ops]
    return values[0] if isinstance(T, OperatorMatrix) else values


def regroup_pairs(F: Factorization) -> Factorization:
    """An algebraically equal factorization with pairs merged two-by-two.

    (f1, g1), (f2, g2) -> (f1 + f2, g1), (f2, g2 - g1): the pairwise products
    sum to the same function, so the pairing must agree with the original —
    this is the representation-independence probe.  An odd last pair stays.
    """
    f, g = F.f.values.copy(), F.g.values.copy()
    k = len(F) - len(F) % 2
    np.add(f[0:k:2], f[1:k:2], out=f[0:k:2])
    np.subtract(g[1:k:2], g[0:k:2], out=g[1:k:2])
    grid = F.f.grid
    nuclear = float(sum(nf * ng for nf, ng in zip(_row_norms(f, grid.step, F.p),
                                                  _row_norms(g, grid.step, F.q))))
    return Factorization(SampledFunction(grid, f), SampledFunction(grid, g),
                         nuclear, F.residual_sup, F.residual_l1, F.a, F.p,
                         plan=F.plan)


def toeplitz_test_set(a: float, p: float, seed: int, grid: Grid) -> list:
    """Identity plus seeded smooth-symbol Toeplitz matrices at unit norm, on
    the full sampling window of the grid: TEST_SET_SIZE operators."""
    window = -grid.start
    ops = [identity_matrix(a, p, window)]
    for k in range(TEST_SET_SIZE - 1):
        sym = bump_spectrum_symbol(0.05 * a, 1.4 * a, seed=seed + k, hermitian=True)
        T = toeplitz_matrix(sym, a, p, window, grid)
        norm = matrix_pnorm(T.entries, p)["lower"]
        if norm > 0.0:
            T = OperatorMatrix(T.entries / norm, a, p, window, T.nodes)
        ops.append(T)
    return ops


def xpq_sandwich(h: BandlimitedFunction, a: float, p: float,
                 test_set: list) -> dict:
    """Lower bound for the pairing norm, max |pair(T, h-factorization)| over
    unit-norm test operators, with the two quantities the nuclear sum bounds
    from above: the estimate and ||h||_1."""
    F = weak_factorize(h, a, p)
    return {"estimate": max((abs(v) for v in pair(test_set, F)), default=0.0),
            "nuclear_sum": F.nuclear_sum, "h_l1": lp_norm(h.fun, 1.0)}
