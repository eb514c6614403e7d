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
(f_k, g_k) = (delta_t w(t_k) A(. - t_k), A(. - t_k)) then realize the
factorization with an explicit nuclear sum sum_k ||f_k||_p ||g_k||_q.  They
are held as the plan (t_k, w_k, delta_t) and the windows of one atom; each
reader forms only the samples it needs, never a (k, count) stack.

Full-band targets (b = a) are excluded: the triangle vanishes at +-2a and the
deconvolution blows up.  The margin b is read off the target's certified band.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

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
REGROUP_BLOCK = 64     # regroup_pairs forms this many (even) pairs' samples at a time


def _atom_windows(a: float, grid: Grid) -> tuple[np.ndarray, int]:
    """Read-only windows of the atom of band a tiled three times, and the index
    i0 of its peak: the atom centred at grid index i is window n + i0 - i."""
    fg = grid.freq_grid()
    mask = band_mask(fg.points, a)
    base = inverse_spectrum(SampledFunction(fg, np.where(mask, 1.0 + 0j, 0.0)),
                            start=grid.start).values
    return (sliding_window_view(np.tile(base, 3), grid.count),
            int(np.argmax(np.abs(base))))


def sinc_atom(a: float, t: float, grid: Grid) -> BandlimitedFunction:
    """Flat-spectrum unit atom of band [-a, a) centred at the grid point t.

    This is the lattice realization of sinc_a(. - t): the inverse transform
    of the indicator of the band, so translates are exact cyclic rolls and
    the atom is band-certified bit-for-bit.  The half-open band convention
    leaves a small imaginary ripple (one spectral bin's worth); the
    conjugate-product |A|^2 used by the factorization is exactly real.
    """
    windows, i0 = _atom_windows(a, grid)
    window = windows[grid.count + i0 - grid.index_of(t)]
    return BandlimitedFunction(SampledFunction(grid, window), a)


def fejer_triangle(a: float, xi: np.ndarray) -> np.ndarray:
    """The spectrum of |sinc_a|^2: the triangle max(2a - |xi|, 0)."""
    return np.maximum(2.0 * a - np.abs(np.asarray(xi, dtype=float)), 0.0)


@dataclass
class FejerAtomPlan:
    """Sampling plan for the atom sum: centers t_k, spacing, and weights, so
    f_k = spacing * w_k * A(. - t_k) and g_k = A(. - t_k)."""

    spacing: float
    centers: np.ndarray
    weights: np.ndarray

    def decay_constant(self) -> float:
        """Measured C with |w(t_k)| <= C/(1 + t_k^2) over the plan; 0 when empty."""
        return float(np.max(np.abs(self.weights) * (1.0 + self.centers ** 2),
                            initial=0.0))


def _row_norms(values: np.ndarray, step: float, p: float) -> list:
    """lp_norm of each row of a block, with lp_norm's arithmetic: the row sums
    of one blocked np.sum equal the per-row sums bit for bit."""
    if p == np.inf:
        return [float(m) for m in np.max(np.abs(values), axis=1)]
    return [float((step * s) ** (1.0 / p)) for s in np.sum(np.abs(values) ** p, axis=1)]


@dataclass
class Factorization:
    """h = sum_k f_k conj(g_k), with f_k = spacing * w_k * A(. - t_k) and
    g_k = A(. - t_k) from the plan, and A(. - t_k) the window rows[k] of
    `atoms`; then the two-by-two merge of regroup_pairs, `regroups` times."""

    plan: FejerAtomPlan
    atoms: np.ndarray                 # read-only windows of one tiled atom
    rows: np.ndarray                  # the window of atoms holding each g_k
    grid: Grid
    nuclear_sum: float                # sum ||f_k||_p ||g_k||_q
    residual_sup: float
    residual_l1: float
    a: float
    p: float
    regroups: int = 0

    def __post_init__(self):
        # O(k): the atom is finite, so every sample of every pair is finite
        # when every pair scale is
        with np.errstate(invalid="ignore", over="ignore"):
            scales = self.plan.spacing * self.plan.weights
        if not np.all(np.isfinite(scales)):
            raise ValueError("pair scales spacing * weight contain NaN or Inf")

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def q(self) -> float:
        return holder_conjugate(self.p)

    def pair_samples(self, lo: int = 0, hi: int | None = None,
                     cols=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """The samples of f_k and g_k, k = lo..hi-1, at the grid indices cols:
        two fresh (hi - lo, len(cols)) arrays.  lo is even, so a block holds
        whole merged pairs and an odd last pair stays unmerged."""
        g = self.atoms[:, cols][self.rows[lo:hi]]
        f = (self.plan.spacing * self.plan.weights[lo:hi])[:, None] * g
        for _ in range(self.regroups):
            m = len(g) - len(g) % 2
            np.add(f[0:m:2], f[1:m:2], out=f[0:m:2])
            np.subtract(g[1:m:2], g[0:m:2], out=g[1:m:2])
        return f, g


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
    through as a one-atom plan at any band up to 2a; otherwise the
    strict margin b < a applies and the Fejer deconvolution supplies the
    weights.  Truncation/reconstruction residuals are measured on the grid
    and flagged (not fatal) when above tolerance.
    """
    h = _as_banded(h, "h")
    grid = h.grid
    q = holder_conjugate(p)
    sup_h = float(np.max(np.abs(h.values)))
    # single-atom passthrough: h = s * A(.-t) conj(A(.-t)) for a grid center t;
    # a zero target passes with s = 0, which `keep` drops: an empty plan
    windows, i0 = _atom_windows(a, grid)
    n = grid.count
    i = int(np.argmax(np.abs(h.values)))
    atom = windows[n + i0 - i]
    s = h.values[i] / float(np.max(np.abs(atom) ** 2))
    if float(np.max(np.abs(h.values - s * atom * np.conj(atom)))) <= atom_tol * sup_h:
        dt, idx, weights = 1.0, np.array([i]), np.array([s])
    else:
        w = fejer_deconvolve(h, a)
        stride = _atom_stride(grid, a, h.a / 2.0)
        dt = stride * grid.step
        idx = np.arange(0, n, stride)
        weights = w.values[idx]
    keep = weights != 0.0
    idx, weights = idx[keep], weights[keep]
    rows = n + i0 - idx
    plan = FejerAtomPlan(dt, grid.points[idx], weights)

    # sum_k f_k conj(g_k), f_k formed row by row: no (k, count) temporary
    acc = np.zeros(n, dtype=complex)
    for r, scale in zip(rows, dt * weights):
        acc += scale * windows[r] * np.conj(windows[r])
    res = np.abs(acc - h.values)
    residual_sup = float(res.max())
    residual_l1 = float(grid.step * res.sum())
    if residual_sup > RESIDUAL_SUP_TOL * sup_h:
        warnings.warn(f"atom-sum reconstruction off by {residual_sup:.3e} "
                      f"(sup {sup_h:.3e}); factorization returned as-is",
                      RuntimeWarning)
    nuclear = 0.0
    if len(rows):
        atom = SampledFunction(grid, windows[rows[0]])
        nuclear = float(dt * np.sum(np.abs(weights)) * lp_norm(atom, p) * lp_norm(atom, q))
    return Factorization(plan, windows, rows, grid, nuclear, residual_sup,
                         residual_l1, a, p)


def pair(T, F: Factorization) -> complex | list:
    """The duality pairing  sum_k <T f_k, g_k>  of an operator with a target.

    T is one OperatorMatrix, giving a complex, or a sequence of them on one
    Nyquist window (same a and window), giving their pairings in order.  Each
    reads one N x N matrix, built once from the pairs' Nyquist coefficients as
    C = cf^T conj(cg), in O(N^2) as sum_ij T_ij C_ji (the trace duality tr(T C)).
    The coefficients are formed from the atom's samples at the N nodes alone:
    k x N work, never k x count.
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
        basis = NyquistBasis(ops[0].a, ops[0].window, F.grid)
        # basis.coefficients' c_k = f(t_k)/sqrt(2a), on the node columns alone
        f, g = F.pair_samples(cols=basis.reads)
        f /= math.sqrt(2.0 * basis.a)
        g /= math.sqrt(2.0 * basis.a)
        C = f.T @ np.conj(g, out=g)
        values = [complex(np.sum(op.entries * C.T)) for op in ops]
    return values[0] if isinstance(T, OperatorMatrix) else values


def regroup_pairs(F: Factorization) -> Factorization:
    """An algebraically equal factorization with pairs merged two-by-two.

    (f1, g1), (f2, g2) -> (f1 + f2, g1), (f2, g2 - g1): the pairwise products
    sum to the same function, so the pairing must agree with the original —
    this is the representation-independence probe.  An odd last pair stays.
    The merge is recorded, not applied; the nuclear sum takes each merged
    row's Lp norm REGROUP_BLOCK pairs at a time.
    """
    R = replace(F, regroups=F.regroups + 1)
    nuclear = 0.0
    for lo in range(0, len(R), REGROUP_BLOCK):
        f, g = R.pair_samples(lo, lo + REGROUP_BLOCK)
        for nf, ng in zip(_row_norms(f, R.grid.step, R.p),
                          _row_norms(g, R.grid.step, R.q)):
            nuclear += nf * ng
    R.nuclear_sum = nuclear
    return R


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
