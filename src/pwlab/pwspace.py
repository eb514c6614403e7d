"""Band-limited function spaces on the discrete substrate.

The band of half-width ``a`` is the frequency interval ``[-a, a)``; the
half-open right endpoint is a deliberate choice.  On the DFT lattice it makes
the band projector, the positive/negative half-line projectors and the
modulation shifts fit together exactly: ``P_+ + P_- = I`` bin by bin, and the
two-sided exponential-shift decompositions of the band projector hold with no
double-counted edge bin.  With a closed right endpoint those identities pick
up O(1/step) edge defects.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import (
    Grid,
    SampledFunction,
    energy_fraction,
    fft_spectrum,
    filter_spectrum,
    symmetric_grid,
)

DEFAULT_BAND = 1.0
DEFAULT_WINDOW = 64.0
DEFAULT_OVERSAMPLE = 8


def default_grid(a: float, window: float = DEFAULT_WINDOW,
                 oversample: int = DEFAULT_OVERSAMPLE) -> Grid:
    """Symmetric grid sampling a band-a function at `oversample` x Nyquist."""
    if oversample < 4:
        raise ValueError("oversample must be at least 4")
    step = 1.0 / (2.0 * a * oversample)
    return symmetric_grid(window, step)


def sinc_profile(a: float, x) -> np.ndarray:
    """sin(2 pi a x)/(pi x) with the value 2a at x = 0."""
    return 2.0 * a * np.sinc(2.0 * a * np.asarray(x, dtype=float))


def sinc_kernel(a: float, t: float, grid: Grid) -> SampledFunction:
    """Translate of the band-a reproducing kernel centred at t."""
    return SampledFunction(grid, sinc_profile(a, grid.points - t).astype(complex))


def band_mask(xi: np.ndarray, a: float) -> np.ndarray:
    return (xi >= -a) & (xi < a)


@dataclass
class BandlimitedFunction:
    """A sampled function certified to (numerically) live in band [-a, a)."""

    fun: SampledFunction
    a: float
    p: float = 2.0

    @property
    def grid(self) -> Grid:
        return self.fun.grid

    @property
    def values(self) -> np.ndarray:
        return self.fun.values


def band_residual(f: SampledFunction, a: float) -> float:
    """Fraction of spectral L2 energy outside [-a, a).  Zero function -> 0."""
    spec = fft_spectrum(f)
    return energy_fraction(spec, ~band_mask(spec.grid.points, a))


def project_band(f: SampledFunction, a: float, p: float = 2.0) -> BandlimitedFunction:
    """Spectral truncation of f to the band [-a, a)."""
    if f.grid.nyquist <= a:
        raise ValueError(
            f"grid step {f.grid.step} resolves frequencies up to {f.grid.nyquist}, "
            f"cannot project to band {a}")
    mask = band_mask(f.grid.freq_grid().points, a)
    return BandlimitedFunction(filter_spectrum(f, mask), a, p)


def project_halfline(f: SampledFunction, sign: int = +1) -> SampledFunction:
    """Riesz projection: keep frequencies xi >= 0 (sign=+1) or xi < 0 (sign=-1)."""
    nonneg = np.arange(f.grid.count) >= f.grid.count // 2
    return filter_spectrum(f, nonneg if sign > 0 else ~nonneg)


def modulate(f: SampledFunction, b: float) -> SampledFunction:
    """Multiply by exp(2 pi i b x); shifts the spectrum up by b."""
    return SampledFunction(f.grid, f.values * np.exp(2j * np.pi * b * f.grid.points))


def projector_two_term(f: SampledFunction, a: float) -> SampledFunction:
    """Band projector written through half-line projections and modulations:

        P_a f = conj(th_a) P_+ [th_a f] - th_a P_+ [conj(th_a) f],

    with th_a(x) = exp(2 pi i a x).  The first term keeps frequencies >= -a,
    the second subtracts those >= a, leaving exactly the band [-a, a).
    """
    up = modulate(project_halfline(modulate(f, a), +1), -a)
    down = modulate(project_halfline(modulate(f, -a), +1), +a)
    return up - down


def projector_halfline_sandwich(f: SampledFunction, a: float) -> SampledFunction:
    """Band projector in sandwich form th_a P_- conj(th_a)^2 P_+ th_a."""
    g = project_halfline(modulate(f, a), +1)
    h = project_halfline(modulate(g, -2 * a), -1)
    return modulate(h, a)


# -- p-norm machinery ---------------------------------------------------------

def holder_conjugate(p: float) -> float:
    if p == 1:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def _dual_power(v: np.ndarray, e: float, weight: float):
    """Per row: m = max|v|, u = r^(e-1)·sgn(v) and s = weight·Σ r^e with
    r = |v|/m <= 1, so no power overflows, ||v||_e = m·s^(1/e), ||u||_e'^e' = s."""
    a = np.abs(v)
    m = np.max(a, axis=-1, initial=0.0)
    r = a / np.where(m > 0, m, 1.0)[:, None]
    t = r ** (e - 1.0)
    s = weight * np.sum(r * t, axis=-1)
    return m, v * np.divide(t, a, out=a, where=a > 0), s


def boyd_lower_bound(apply_fn, adjoint_fn, n: int, p: float, weight: float = 1.0,
                     seed: int = 42) -> float:
    """Boyd/Higham power iteration; returns a certified-from-below estimate of
    the p -> p operator norm (1 < p < inf) of a linear map given by
    apply/adjoint callables.

    The four starts (ones, then three seeded complex Gaussians) iterate as one
    block: each callable maps a (k, n) stack of row vectors to a (k, n) stack
    and is called once per iteration on the rows still running, at most
    60 times in all.  A row stops on its own when its image or dual image
    vanishes or its estimate changes by at most 1e-12 relative, and leaves
    the block.  `weight` is the quadrature step if vectors represent function
    samples (norms are then weight^(1/p)-scaled, which cancels in the ratio).
    Each half-step takes one power of |v|/(row max), giving ||y||_p and the
    next start's norm (||x||_p^p = Σ|w|^q) with no overflow at any p."""
    if not 1.0 < p < math.inf:
        raise ValueError(f"p must be in (1, inf), got {p}")
    q = holder_conjugate(p)
    rng = np.random.default_rng(seed)
    x = np.ones((4, n), dtype=complex)
    for i in range(1, 4):
        x[i] = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    m, _, s = _dual_power(x, p, weight)
    rows = np.flatnonzero(m != 0)
    x = x[rows] / (m[rows] * s[rows] ** (1 / p))[:, None]
    est_prev = np.zeros(4)
    for _ in range(60):
        if not len(rows):
            break
        m, z, s = _dual_power(apply_fn(x), p, weight)
        keep = m != 0
        rows, z, ny = rows[keep], z[keep], m[keep] * s[keep] ** (1 / p)
        if not len(rows):
            break
        m, x, s = _dual_power(adjoint_fn(z), q, weight)
        keep = m != 0
        rows, ny, x = rows[keep], ny[keep], x[keep] / s[keep, None] ** (1 / p)
        running = np.abs(ny - est_prev[rows]) > 1e-12 * np.maximum(ny, 1e-300)
        est_prev[rows] = ny
        rows, x = rows[running], x[running]
    return float(np.max(est_prev))


def _top_pairs(apply, adjoint, n: int, cap: int,
               floor: float) -> tuple[float, np.ndarray, np.ndarray]:
    """sigma0 and the top pair (u, v), A v = sigma0 u, of the operator on C^n
    with products x -> A x (`apply`) and y -> A* y (`adjoint`).

    Golub-Kahan-Lanczos bidiagonalization A V_k = U_k B_k (Golub & Kahan 1965;
    Golub & Van Loan ch. 10) from a seeded start, each vector orthogonalized
    twice against all earlier ones.  B_k = P S Q* is decomposed every 4 steps
    to k = 32, then every k/8 to k/4 steps.  The top Ritz pair has residual
    beta_k |p_0[-1]|; the run stops once it is <= 1e-15 s_0, or once
    s_0 <= floor (a numerically zero operator's residuals are noise).  The
    run takes at most min(n, cap) steps, and each basis grows by doubling with
    the steps taken, to at most min(n, cap) + 1 rows.  It is exact at k = n;
    a run the cap stops warns and returns a lower bound.
    """
    rng = np.random.default_rng(0)
    cap = min(n, cap)
    bases = [np.zeros((0, n), dtype=complex)] * 2   # U and V, basis vectors as rows
    alpha, beta = np.zeros((2, cap))

    def extend(side: int, k: int, x: np.ndarray) -> float:
        """Store x, orthogonalized against rows :k of bases[side] and
        normalized, as its row k."""
        Q = bases[side]
        if k == len(Q):      # full: double the rows
            Q = bases[side] = np.concatenate(
                (Q, np.zeros((min(max(k, 8), cap + 1 - k), n), dtype=complex)))
        for _ in range(2):
            x = x - np.conj(Q[:k] @ np.conj(x)) @ Q[:k]
        norm = float(np.linalg.norm(x))
        if norm == 0.0:        # an invariant subspace: go on from a fresh direction
            extend(side, k, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        else:
            Q[k] = x / norm
        return norm

    extend(1, 0, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    for k in range(cap):    # orthogonalizing removes beta u_(k-1), alpha v_k below
        alpha[k] = extend(0, k, apply(bases[1][k]))
        if k + 1 < n:
            beta[k] = extend(1, k + 1, adjoint(bases[0][k]))
        if (k + 1) % max(4, 2 ** ((k + 1).bit_length() - 3)) == 0 or k + 1 == cap:
            p, s, qh = np.linalg.svd(np.diag(alpha[:k + 1]) + np.diag(beta[:k], 1))
            res = beta[k] * abs(p[k, 0])                # the top Ritz pair's residual
            if res <= 1e-15 * s[0] or s[0] <= floor:
                break
    else:                   # the cap, not the residual, ended the run
        warnings.warn(f"Lanczos stopped at its cap of {cap} steps with residual "
                      f"{res / s[0]:.1e} of sigma0; sigma0 {s[0]:.8e} is a lower bound")
    U, V = bases
    return float(s[0]), p[:, 0] @ U[:k + 1], np.conj(qh[0]) @ V[:k + 1]


def riesz_constant_estimate(p: float) -> float:
    """Lower estimate of the L^p -> L^p norm of the positive-half-line
    projector, computed on a dedicated modest grid, [-32, 32) at step 1/8.

    At p = 2 the projector has norm exactly 1.  For p != 2 the discrete model
    (a circulant, i.e. the periodic Hilbert transform) has norm > 1, the same
    at p and at its conjugate as the projector is self-adjoint (so `apply` is
    its own adjoint), and grows as p moves away from 2 like max(p, p/(p-1)).
    `boyd_lower_bound` refuses a p outside (1, inf).
    """
    if p == 2.0:
        return 1.0
    g = symmetric_grid(32.0, 0.125)
    def apply(v):
        return project_halfline(SampledFunction(g, v)).values
    return boyd_lower_bound(apply, apply, g.count, p, weight=g.step, seed=42)
