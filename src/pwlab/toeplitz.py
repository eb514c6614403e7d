"""Toeplitz and Hankel operators on the band [-a, a): application routes,
Nyquist-basis matrix assembly, and p-norm estimation.

Application routes
------------------

Every symbol is applied as T_phi f = P_a[m f], a pointwise product followed
by the spectral band projection.  The multiplier m is the symbol's samples,
except for A x^n exp(2 pi i c x): it grows, so its samples would be polluted
by the sampling window, and m is synthesized from its exact lattice kernel
instead, the lattice shift c/dxi convolved with the n-th power of a 5-point
stencil for (i/2 pi) d/dxi.  The stencil is oriented away from the shifted
spectrum (trailing for c > 0, leading for c < 0) so that it never reaches
across the support jump; edge spikes land outside the half-open band and are
cut by the projection.  This reproduces the vanishing of T_{x exp(4 pi i a x)}
at machine precision, where the sampled product fails completely.

Matrix assembly
---------------

The Nyquist basis vectors are band-limited, so an operator acting on spectra
as a lattice convolution, out_j = sum_l K(j - l) in_l, is fully described by
the Toeplitz block of K on the m band bins: its matrix is (dxi/2a) E^T Toep(K)
conj(E), with E = exp(2 pi i xi_j t_k) the band-bin x node phases, and equals
the column route (synthesize e_k, apply, read the nodes) up to rounding.  As
m = 2a/dxi, the bins xi_j = (b0 + j) dxi and nodes t_k = k/(2a) give
E[j, k] = d_k exp(2 pi i j (k mod m)/m) with d_k = exp(2 pi i b0 k/m): E is a
block of the m-point DFT, dxi/2a = 1/m, and the matrix is d_k conj(d_k') times
the (k mod m, k' mod m) entries of Y = fft(ifft(Toep(K), axis=0), axis=1).

That 2-D DFT of a Toeplitz block has a closed form, from its displacement
structure (Kailath & Sayed, SIAM Review 37, 1995).  With w = exp(2 pi i/m) and
g(u) = (1/m) (sum_{d >= 0} - sum_{d < 0}) K(d) w^(ud),

    Y[u, v] = (g(u) - g(v)) / (1 - w^(u - v))            for u != v,
    Y[u, u] = (1/m) sum_d (m - |d|) K(d) w^(ud),

both m-point FFTs of the taps read at the node residues.  As u - v = k - k'
mod m, the divisor and the phases d_k conj(d_k') form one factor of k - k'
alone, (i/2) exp(2 pi i (2 b0 - 1)(k - k')/2m) / sin(pi (k - k')/m), which
is conj-symmetric in k - k': the matrix costs O(m log m + N^2) and holds no
m x m or N x m array.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import (Grid, SampledFunction, energy_fraction, fft_spectrum,
                   inverse_spectrum, lattice_phase)
from .jsonio import grid_from_dict, grid_to_dict, member, number
from .pwspace import (
    BandlimitedFunction,
    _top_pairs,
    band_mask,
    boyd_lower_bound,
    default_grid,
    holder_conjugate,
    project_band,
    project_halfline,
    projector_halfline_sandwich,
    projector_two_term,
    modulate,
)
from .symbols import SymbolSpec, bump_spectrum_symbol, sampled_symbol, samples

# the basis half-width of `nehari.bounded_symbol` and the CLI's --basis-window
DEFAULT_BASIS_WINDOW = 32.0
# the most Nyquist basis nodes, refused before anything is sized: assembly traces
# ~17 B per matrix entry (~0.4 GB here), the round trip ~17, the frame's
# compressions ~33, recover_symbol 1.1 at 1,024 nodes and 0.5 at 2,048
MAX_BASIS_NODES = 4096

# 4th-order first-derivative taps K(d), d ascending: trailing from d = 0 (the
# leading stencil is its negated mirror, ending at d = 0), central from d = -2
_STENCIL_TRAILING = np.array([25 / 12, -4.0, 3.0, -4 / 3, 1 / 4])
_STENCIL_CENTRAL = np.array([-1 / 12, 2 / 3, 0.0, -2 / 3, 1 / 12])


def _mod_poly_kernel(params: dict, grid: Grid) -> np.ndarray:
    """Lattice kernel K(d), at index d + n/2, of A x^degree exp(2 pi i c x)
    (see Application routes)."""
    dxi = grid.freq_step
    shift = params["mod"] / dxi
    if abs(shift - round(shift)) > 1e-9:
        raise ValueError(
            f"mod_poly modulation {params['mod']} is not on the frequency lattice "
            f"(step {dxi}); choose mod as a multiple of the lattice step")
    taps, first = {1: (_STENCIL_TRAILING, 0), -1: (-_STENCIL_TRAILING[::-1], -4),
                   0: (_STENCIL_CENTRAL, -2)}[int(np.sign(params["mod"]))]
    degree = params["degree"]
    # numpy.polynomial's polypow loop, without the import every process would pay
    coeffs = params["amp"] * functools.reduce(
        np.convolve, [(1j / (2 * np.pi * dxi)) * taps] * degree, np.ones(1))
    kernel = np.zeros(grid.count, dtype=complex)
    # a power wider than the lattice wraps around it
    np.add.at(kernel, (round(shift) + first * degree + np.arange(len(coeffs))
                       + grid.count // 2) % grid.count, coeffs)
    return kernel


def _unbounded_mod_poly(sym: SymbolSpec, a: float) -> str | None:
    """Why T_phi is unbounded, or None: A x^n exp(2 pi i c x) with n >= 1, A != 0
    and |c| < 2a is in frequency an n-th derivative the band does not tame."""
    P = sym.params
    if sym.kind == "mod_poly" and P["amp"] and P["degree"] >= 1 and abs(P["mod"]) < 2 * a:
        return (f"mod_poly degree {P['degree']} with mod {P['mod']}: T_phi is "
                f"unbounded for degree >= 1 and |mod| < 2a = {2.0 * a}")
    return None


def _multiplier(sym: SymbolSpec, grid: Grid) -> SampledFunction:
    """phi's samples; for mod_poly, the function whose lattice kernel is K."""
    if sym.kind != "mod_poly":
        return samples(sym, grid)
    spec = _mod_poly_kernel(sym.params, grid) / grid.freq_step
    return inverse_spectrum(SampledFunction(grid.freq_grid(), spec), start=grid.start)


def _resolution_check(sym: SymbolSpec, a: float, grid: Grid):
    if sym.spectral_support is None:
        return
    lo, hi = sym.spectral_support
    radius = max(abs(lo), abs(hi))
    if grid.nyquist < a + radius:
        raise ValueError(
            f"grid nyquist {grid.nyquist} cannot resolve symbol support radius "
            f"{radius} against band {a}; refine the grid")


def toeplitz_apply(sym: SymbolSpec, f: BandlimitedFunction) -> BandlimitedFunction:
    """T_phi f = P_a[phi * f]."""
    _resolution_check(sym, f.a, f.grid)
    phi = _multiplier(sym, f.grid)
    return project_band(SampledFunction(f.grid, phi.values * f.values), f.a, f.p)


def hankel_apply(sym: SymbolSpec, f: SampledFunction) -> SampledFunction:
    """H_phi f = P_-[phi * f] for f in the analytic class (spectrum in R_+): its
    negative-frequency energy fraction must be at most 1e-6."""
    spec = fft_spectrum(f)
    neg = energy_fraction(spec, spec.grid.points < 0)
    if neg > 1e-6:
        raise ValueError(
            f"input is not analytic-class: negative-frequency energy fraction {neg:.2e}")
    phi = samples(sym, f.grid)
    return project_halfline(SampledFunction(f.grid, phi.values * f.values), -1)


def hankel_symbol(part: SampledFunction, a: float) -> SymbolSpec:
    """conj(theta)^2 * part as a symbol, theta = exp(2 pi i a x): for a part with
    spectrum in [0, inf), the b with spectrum in [-2a, inf) `nehari_solve` completes."""
    return sampled_symbol(modulate(part, -2.0 * a))


# -- Nyquist basis and matrix assembly ---------------------------------------


def nyquist_indices(a: float, window: float) -> np.ndarray:
    """Indices k, from -(count // 2), of the count = round(4 a window) nodes
    t_k = k/(2a) covering [-window, window): the one rule for which nodes form
    a basis.  A count outside 8 ... MAX_BASIS_NODES is refused before anything
    is sized."""
    count = 4.0 * a * window
    count = round(count) if math.isfinite(count) else count
    if not 8 <= count <= MAX_BASIS_NODES:
        bound = "fewer than 8" if count < 8 else f"more than {MAX_BASIS_NODES}"
        raise ValueError(f"window {window} at band {a} holds {count} nodes: "
                         f"{bound} basis nodes")
    return np.arange(count) - count // 2


@dataclass
class NyquistBasis:
    """Shifted-sinc coordinate system e_k = sinc_a(. - t_k)/sqrt(2a) for the
    band [-a, a), nodes t_k = k/(2a) covering [-window, window).  Its band
    phases are the m-point DFT (see Matrix assembly) on a grid that holds every
    node, resolves the band (stride >= 2 grid steps per node, so m <= n/2) and
    puts m = count/stride whole bins in the band: `bins` = m at `band` in
    natural order from the lattice bin `first_bin` b0, and node k at
    `residues` k mod m with `phase` d_k.  The basis refuses any other grid."""

    a: float
    window: float
    grid: Grid

    def __post_init__(self):
        self._k = nyquist_indices(self.a, self.window)
        self.nodes = self._k / (2.0 * self.a)
        ratio = 1.0 / (2.0 * self.a * self.grid.step)
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("grid step does not subdivide the Nyquist spacing")
        stride = int(round(ratio))
        if stride < 2:
            raise ValueError(f"grid nyquist {self.grid.nyquist} does not exceed band "
                             f"{self.a}: the basis needs 2 grid steps per node")
        band = np.flatnonzero(band_mask(self.grid.freq_grid().points, self.a))
        if len(band) * stride != self.grid.count:
            raise ValueError(f"grid count {self.grid.count} is not a multiple of "
                             f"the {stride} grid steps per basis node: the "
                             f"band holds a fractional number of bins")
        self.bins, self.band = len(band), slice(int(band[0]), int(band[-1]) + 1)
        self.residues = self._k % self.bins
        self.first_bin = int(band[0]) - self.grid.count // 2
        self.phase = lattice_phase(self.first_bin, self._k, self.bins)
        # every node must sit on the sampling grid so coefficients are exact
        # reads; the first and last on it give size <= bins: distinct k mod m
        self.reads = slice(self.grid.index_of(self.nodes[0]),
                            self.grid.index_of(self.nodes[-1]) + 1, stride)

    @property
    def size(self) -> int:
        return len(self.nodes)

    def vector(self, k: int) -> BandlimitedFunction:
        """Basis vector synthesized exactly on the lattice (periodized sinc),
        so that project_band leaves it invariant up to rounding."""
        unit = np.zeros(self.size)
        unit[k] = 1.0
        return BandlimitedFunction(self.synthesize(unit), self.a)

    def coefficients(self, f: SampledFunction) -> np.ndarray:
        """Expansion coefficients of a band-a function, c_k = f(t_k)/sqrt(2a);
        of a (k, count) stack, one row of coefficients per function."""
        return f.values[..., self.reads] / math.sqrt(2.0 * self.a)

    def synthesize(self, coeffs: np.ndarray) -> SampledFunction:
        """sum_k c_k e_k: the band is the m-point fft of c_k conj(d_k) at k mod m."""
        placed = np.zeros(self.bins, dtype=complex)
        placed[self.residues] = (np.asarray(coeffs) * np.conj(self.phase)
                                 / math.sqrt(2.0 * self.a))
        fg = self.grid.freq_grid()
        spec = np.zeros(fg.count, dtype=complex)
        spec[self.band] = np.fft.fft(placed)
        return inverse_spectrum(SampledFunction(fg, spec), start=self.grid.start)


@dataclass
class OperatorMatrix:
    entries: np.ndarray
    a: float
    p: float
    window: float
    nodes: np.ndarray
    grid: Grid | None = None     # the grid it was assembled on, when known

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        n = len(self.nodes)
        if self.entries.shape != (n, n):
            raise ValueError("entries shape does not match basis size")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("matrix entries contain NaN or Inf")
        k = nyquist_indices(self.a, self.window)
        off = np.max(np.abs(self.nodes - k / (2.0 * self.a))) if n == len(k) else None
        if off is None or not off <= 1e-12 * self.window:
            got = n if off is None else f"nodes off them by up to {off:.3g}"
            raise ValueError(f"band {self.a} on window {self.window} needs {len(k)} "
                             f"nodes k/(2*band) from k = {k[0]}, got {got}")

    @property
    def size(self) -> int:
        return len(self.nodes)

    def interior(self) -> np.ndarray:
        """Submatrix without the basis functions in the window's outer tenth
        (their tails stick out of the sampling window and pollute norms)."""
        keep = np.abs(self.nodes) <= 0.9 * self.window
        return self.entries[np.ix_(keep, keep)]


def assemble_matrix(taps: np.ndarray, basis: NyquistBasis, p: float) -> OperatorMatrix:
    """Matrix in `basis` of the lattice convolution out_j = sum_l K(j - l) in_l,
    given the taps K(1 - m), ..., K(m - 1) that its m band bins read: the 2-D
    m-point DFT of its band block, in closed form (see Matrix assembly)."""
    m, n, d = basis.bins, basis.size, np.arange(basis.bins)
    # pos[d] = K(d) and neg[d] = K(d - m), the taps d >= 0 and d < 0 at d mod m;
    # the diagonal weights them by m - |d|, which is m - d and d
    pos, neg = taps[m - 1:], np.concatenate(([0.0], taps[:m - 1]))
    g, diag = np.fft.ifft([pos - neg, (m - d) * pos + d * neg])[:, basis.residues]
    # the factor at k - k' = 1 ... n - 1 <= m - 1, and its conjugate below; the
    # sine's argument is folded to [0, pi/2] to keep its relative precision
    delta = np.arange(1, n)
    upper = 0.5j * lattice_phase(2 * basis.first_bin - 1, delta, 2 * m) / np.sin(
        np.pi * np.minimum(delta, m - delta) / m)
    factor = np.concatenate([np.conj(upper[::-1]), [0.0], upper])
    entries = np.subtract.outer(g, g)
    entries *= sliding_window_view(factor, n)[:, ::-1]     # [k, k'] = factor(k - k')
    np.fill_diagonal(entries, diag)
    return OperatorMatrix(entries, basis.a, p, basis.window, basis.nodes, basis.grid)


def toeplitz_matrix(sym: SymbolSpec, a: float, p: float, window: float,
                    grid: Grid | None = None) -> OperatorMatrix:
    """Nyquist-basis matrix of T_phi, assembled from its lattice kernel; a
    mod_poly matrix that float64 cannot resolve is refused, an unbounded one warns."""
    if grid is None:
        grid = default_grid(a)
    _resolution_check(sym, a, grid)
    if sym.kind == "mod_poly":
        kernel = _mod_poly_kernel(sym.params, grid)
    else:
        # K(d) = dxi * phi^(xi_d): the symbol's lattice spectrum
        kernel = grid.freq_step * fft_spectrum(samples(sym, grid)).values
    basis = NyquistBasis(a, window, grid)
    h, m = grid.count // 2, basis.bins
    taps = kernel[h - m + 1:h + m]      # K(1 - m), ..., K(m - 1); m <= n/2
    M = assemble_matrix(taps, basis, p)
    if sym.kind != "mod_poly":
        return M
    # an entry off the diagonal is a difference of two unit-weight sums of the
    # taps |d| < m (m band bins) divided by m |1 - w^(k - k')| >= 2m sin(pi/m),
    # one on it weights them by (m - |d|)/m <= 1: its rounding is of order
    # eps * sum |taps|, and a basis narrower than its grid cancels taps far
    # larger than the entries; the largest entry is taken 64 rows at a time,
    # so the check holds no N x N array of moduli
    top = max(float(np.max(np.abs(M.entries[i:i + 64]))) for i in range(0, M.size, 64))
    if np.finfo(float).eps * np.sum(np.abs(taps)) > 1e-8 * top:
        raise ValueError(f"mod_poly degree {sym.params['degree']}: float64 cannot resolve "
                         f"this matrix; lower the degree or widen the basis to the grid")
    if unbounded := _unbounded_mod_poly(sym, a):
        warnings.warn(f"{unbounded}; its matrix grows with the basis window", stacklevel=2)
    return M


def identity_matrix(a: float, p: float, window: float) -> OperatorMatrix:
    nodes = nyquist_indices(a, window) / (2.0 * a)
    return OperatorMatrix(np.eye(len(nodes), dtype=complex), a, p, window, nodes)


# -- matrix p-norms -----------------------------------------------------------


def norm2(X: np.ndarray) -> float:
    """The 2-norm (largest singular value) of a square matrix: `_top_pairs`'s
    sigma0 on x -> X x and y -> X* y with cap n and floor 0.

    The Ritz value is a lower bound that converges to sigma_max from the
    kernel's seeded start (so two calls on one matrix agree bit for bit) and
    meets the SVD's to rounding; the run is exact at k = n, so the cap never
    warns.  It can only miss when the start is orthogonal to the top right
    singular vector."""
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError(f"norm2 needs a square matrix, got shape {X.shape}")
    n = len(X)
    return _top_pairs(lambda x: X @ x, lambda y: np.conj(np.conj(y) @ X), n, n, 0.0)[0]


def matrix_pnorm(A: np.ndarray, p: float) -> dict:
    """{lower, upper} bounds for the l^p -> l^p norm of a dense matrix.  The
    upper is `_pnorm_upper`, the norm itself at p in {1, 2, inf} (`norm2` at
    p = 2); off those, Boyd-Higham runs on A at p and on A* at q
    (||A||_p = ||A*||_q) give the lower: on a seeded 115x115 complex Gaussian
    at p = 1.5 the run on A alone reads 0.43% below the pair."""
    up = _pnorm_upper(A, p)
    if p in (1, 2, math.inf):
        return {"lower": up, "upper": up}
    q = holder_conjugate(p)
    # the estimator's callables map a stack of row vectors: x -> A x is X @ A^T
    At, Ac = A.T, A.conj()
    lo = boyd_lower_bound(lambda X: X @ At, lambda Y: Y @ Ac, A.shape[1], p)
    lo_dual = boyd_lower_bound(lambda X: X @ Ac, lambda Y: Y @ At, A.shape[0], q)
    return {"lower": min(max(lo, lo_dual), up), "upper": up}


def _pnorm_upper(A: np.ndarray, p: float) -> float:
    """The l^p -> l^p norm of A at p in {1, 2, inf} (at p = 2 `norm2`, which
    meets the SVD to rounding), otherwise the Riesz-Thorin bound
    ||A||_1^(1/p) ||A||_inf^(1/q)."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if p == 2:
        return norm2(A)
    # exact at p = 1 and p = inf, where one of the two exponents is 0
    n1, ninf = (float(np.max(np.sum(np.abs(A), axis=ax))) for ax in (0, 1))
    return n1 ** (1.0 / p) * ninf ** (1.0 / holder_conjugate(p))


def operator_norm_certified(M: OperatorMatrix, p: float) -> dict:
    """p-norm bounds on the edge-excluded interior block."""
    return matrix_pnorm(M.interior(), p)


# -- identity checks ----------------------------------------------------------


def identity_residuals(a: float, p: float, grid: Grid, seed: int,
                       trials: int) -> dict:
    """Max relative residuals of the band-projector identities and the
    Hankel/Toeplitz intertwining, over a seeded random test set."""
    rng = np.random.default_rng(seed)
    r_two = r_sandwich = 0.0
    for _ in range(trials):
        raw = SampledFunction(grid, rng.standard_normal(grid.count)
                              + 1j * rng.standard_normal(grid.count))
        f = project_band(raw, a).fun
        scale = float(np.max(np.abs(f.values))) or 1.0
        d1 = projector_two_term(f, a) - f
        d2 = projector_halfline_sandwich(f, a) - f
        r_two = max(r_two, float(np.max(np.abs(d1.values))) / scale)
        r_sandwich = max(r_sandwich, float(np.max(np.abs(d2.values))) / scale)

    # Hankel/Toeplitz intertwining: H_{conj(th_a)^2 phi}[th_a g] =
    # conj(th_a) T_phi[g] for g in the band space and phi with spectrum in R_+
    r_hankel = 0.0
    for k in range(3):
        phi = bump_spectrum_symbol(0.3 * a, 1.6 * a, seed=seed + k)
        phi_s = samples(phi, grid)
        raw = SampledFunction(grid, rng.standard_normal(grid.count)
                              + 1j * rng.standard_normal(grid.count))
        g = project_band(raw, a)
        lhs = hankel_apply(hankel_symbol(phi_s, a), modulate(g.fun, a))
        rhs = modulate(toeplitz_apply(sampled_symbol(phi_s), g).fun, -a)
        scale = float(np.max(np.abs(rhs.values))) or 1.0
        r_hankel = max(r_hankel, float(np.max(np.abs(lhs.values - rhs.values))) / scale)

    return {"projector_two_term": r_two,
            "projector_halfline_sandwich": r_sandwich,
            "hankel_toeplitz_intertwine": r_hankel}


# -- matrix files --------------------------------------------------------------
# {"band": a, "p": p, "basis": {"window": w, "nodes": [...]}, "entries":
#  [[[re, im], ...], ...]} and, for an assembled matrix, "grid": {"start",
#  "step", "count"}


def matrix_to_dict(M: OperatorMatrix) -> dict:
    d = {
        "band": M.a,
        "p": M.p,
        "basis": {"window": M.window, "nodes": np.array(M.nodes, dtype=float)},
        "entries": np.stack([M.entries.real, M.entries.imag], axis=-1),
    }
    if M.grid is not None:
        d["grid"] = grid_to_dict(M.grid)
    return d


def matrix_from_dict(d: dict) -> OperatorMatrix:
    """Matrix from its JSON object; a malformed field is a ValueError naming it."""
    band, p = (number(d, name, owner="matrix") for name in ("band", "p"))
    if band <= 0.0:
        raise ValueError(f"matrix field 'band' must be positive, got {band}")
    basis = member(d, "basis", owner="matrix")
    window = number(basis, "window", owner="matrix basis")
    nodes = number(basis, "nodes", owner="matrix basis", ndim=1)
    raw = number(d, "entries", owner="matrix", ndim=3)
    n = len(nodes)
    if raw.shape != (n, n, 2):
        raise ValueError(f"matrix field 'entries' must hold {n} x {n} [re, im] "
                         f"pairs for the {n} basis nodes, got shape {raw.shape}")
    grid = grid_from_dict(member(d, "grid", owner="matrix")) if "grid" in d else None
    try:
        return OperatorMatrix(raw[..., 0] + 1j * raw[..., 1], band, p, window,
                              nodes, grid)
    except ValueError as e:
        raise ValueError(f"matrix fields 'band', 'window' and 'nodes' "
                         f"disagree: {e}") from None
