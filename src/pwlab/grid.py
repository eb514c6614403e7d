"""Uniform grids, sampled functions and the discrete Fourier substrate.

Conventions used throughout the package:

* Fourier transform: ``F[f](xi) = integral f(x) exp(-2 pi i xi x) dx``.
* A function sampled on ``x_k = start + k*step`` has the discrete transform
  ``S_j = step * sum_k f(x_k) exp(-2 pi i xi_j x_k)`` evaluated on the
  frequency lattice ``xi_j`` induced by the grid (spacing ``1/(count*step)``).
* Spectra are returned in increasing-frequency ("natural") order, bin
  j = -count/2 .. count/2 - 1 at xi_j = j/(count*step).
* One phase rule: exp(-2 pi i xi_j start) = lattice_phase(j, -start/step,
  count), reduced mod count before the exponential.  Filters (pointwise
  spectral multipliers, `filter_spectrum`) apply no phase: the two cancel.

With these weights the discrete transform is the rectangle-rule approximation
of the continuous one, so Parseval and quadrature identities hold with no
extra normalization factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the most points a grid may hold, refused before anything is sized: `pwlab
# nehari`, the grid command with the largest peak per point, grows by ~0.62 kB
# per point (146 MB RSS at 262,144 points, 309 MB at 524,288), ~0.65 GB here
MAX_GRID_POINTS = 1 << 20


def grid_count(count: float) -> int:
    """count, rounded, as a grid's number of points: the one rule for how
    many a grid may hold.  A count that is not finite or is more than
    MAX_GRID_POINTS is refused before anything is sized."""
    if not count <= MAX_GRID_POINTS:    # inf and nan fail too
        raise ValueError(f"grid count {count:.10g} is more than the "
                         f"{MAX_GRID_POINTS:,} points a grid may hold")
    return int(round(count))


@dataclass(frozen=True)
class Grid:
    """Uniform sampling lattice x_k = start + k*step, k = 0..count-1."""

    start: float
    step: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.step)):
            raise ValueError("grid start/step must be finite")
        if self.step <= 0:
            raise ValueError("grid step must be positive")
        if not math.isfinite(self.nyquist):
            raise ValueError(f"grid step {self.step} is too small: its "
                             "Nyquist frequency overflows")
        grid_count(self.count)
        if self.count < 2:
            raise ValueError(f"grid count must be at least 2, got {self.count}")
        if self.count % 2:
            # freq_grid() starts at -nyquist, which is a DFT bin only for even
            # counts; an odd count would shift every spectrum by half a bin
            raise ValueError(f"grid count must be even, got {self.count}")

    @property
    def points(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)

    @property
    def span(self) -> float:
        return self.step * self.count

    @property
    def freq_step(self) -> float:
        return 1.0 / (self.count * self.step)

    @property
    def nyquist(self) -> float:
        """Largest frequency representable without aliasing, 1/(2*step)."""
        return 0.5 / self.step

    def freq_grid(self) -> "Grid":
        """Frequency lattice of the DFT, natural (increasing) order."""
        return Grid(start=-self.nyquist, step=self.freq_step, count=self.count)

    def index_of(self, x: float) -> int:
        """Index of the grid point within 1e-9 steps of x; ValueError if none."""
        k = (x - self.start) / self.step
        kr = int(round(k))
        if abs(k - kr) > 1e-9 or not (0 <= kr < self.count):
            raise ValueError(f"{x} is not a point of this grid")
        return kr


def symmetric_grid(half_width: float, step: float) -> Grid:
    """Grid covering [-half_width, half_width) with the given step."""
    count = 2 * half_width / step if step else math.inf    # an underflowed step
    return Grid(start=-half_width, step=step, count=grid_count(count))


@dataclass
class SampledFunction:
    """Complex samples attached to a grid: one function, shape (count,), or a
    stack of k functions on the same grid, shape (k, count), with the grid on
    the last axis.  Transforms and filters act row by row; `evaluate_offgrid`
    and the reductions (`lp_norm`, `energy_fraction`) take one
    function."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim not in (1, 2) or self.values.shape[-1] != self.grid.count:
            raise ValueError("values length does not match grid count")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values contain NaN or Inf")

    def __sub__(self, other):
        _require_same_grid(self, other)
        return SampledFunction(self.grid, self.values - other.values)


def _require_same_grid(f: SampledFunction, g: SampledFunction):
    if f.grid != g.grid:
        raise ValueError("operands live on different grids")


def lattice_phase(j, s, n: int) -> np.ndarray:
    """exp(2 pi i (j*s mod n)/n): an exact root of unity for whole j and s."""
    return np.exp(2j * np.pi * (np.multiply(j, s) % n) / n)


def fft_spectrum(f: SampledFunction) -> SampledFunction:
    """Discrete Fourier transform of f on the induced frequency lattice.

    Includes the grid-offset phase, so the result approximates the continuous
    transform of the underlying function, not just of the sample vector.
    """
    g, n = f.grid, f.grid.count
    raw = np.fft.fftshift(np.fft.fft(f.values), axes=-1)
    phase = lattice_phase(np.arange(n) - n // 2, -g.start / g.step, n)
    return SampledFunction(g.freq_grid(), g.step * raw * phase)


def inverse_spectrum(spec: SampledFunction, start: float | None = None) -> SampledFunction:
    """Invert fft_spectrum.  `start` selects the time-grid offset (default
    symmetric window)."""
    fg = spec.grid
    count = fg.count
    step = 1.0 / (count * fg.step)
    if start is None:
        start = -0.5 * count * step
    # v_k = dxi * sum_j S_j exp(2 pi i xi_j x_k); fold the start phase in and
    # let ifft handle the k-dependence.
    phased = spec.values * lattice_phase(np.arange(count) - count // 2,
                                         start / step, count)
    vals = np.fft.ifft(np.fft.ifftshift(phased, axes=-1)) / step
    return SampledFunction(Grid(start, step, count), vals)


def filter_spectrum(f: SampledFunction, h: np.ndarray) -> SampledFunction:
    """f with its spectrum multiplied by h (natural order), on f's grid; the
    offset phases cancel against a pointwise multiplier, so none is applied."""
    return SampledFunction(f.grid,
                           np.fft.ifft(np.fft.ifftshift(h) * np.fft.fft(f.values)))


def energy_fraction(spec: SampledFunction, mask: np.ndarray) -> float:
    """Fraction of the spectrum's L2 energy where mask holds; 0 if there is none."""
    power = np.abs(spec.values) ** 2
    total = float(np.sum(power))
    return float(np.sum(power[mask])) / total if total > 0.0 else 0.0


def lp_norm(f: SampledFunction, p: float) -> float:
    if p == np.inf:
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise ValueError("p must be >= 1 or inf")
    return float((f.grid.step * np.sum(np.abs(f.values) ** p)) ** (1.0 / p))


def lattice_sum(coeffs, xi0: float, dxi: float, x) -> np.ndarray:
    """sum_j c_j exp(2 pi i (xi0 + j*dxi) x) at every point of the 1-d array x.

    With j = q*B + b, B the divisor of n = len(coeffs) nearest sqrt(n) and
    Q = n/B, each term is exp(2 pi i (xi0 + qB dxi) x) * exp(2 pi i b dxi x):
    m x Q and m x B phase tables, one matrix product with the coefficients
    as a (Q, B) array, and a row sum.  Exact up to rounding; no parameters.
    """
    c = np.asarray(coeffs, dtype=complex)
    x = np.asarray(x, dtype=float).ravel()
    n = len(c)
    lo = next(d for d in range(math.isqrt(n), 0, -1) if n % d == 0)
    B = lo if math.sqrt(n) - lo <= n // lo - math.sqrt(n) else n // lo
    Q = n // B
    outer = np.exp(2j * np.pi * np.outer(x, xi0 + B * dxi * np.arange(Q)))
    inner = np.exp(2j * np.pi * np.outer(x, dxi * np.arange(B)))
    return np.sum(outer * (inner @ c.reshape(Q, B).T), axis=1)


def evaluate_offgrid(f: SampledFunction, x) -> np.ndarray:
    """Evaluate the trigonometric interpolant of f at arbitrary real x.

    The interpolant is the band-limited extension determined by the DFT
    lattice: f(x) = dxi * sum_j S_j exp(2 pi i xi_j x).  Grid points return
    their samples exactly; off-grid accuracy improves with window size for
    decaying functions.  The m off-grid points go through `lattice_sum`:
    m*2*sqrt(n) complex exponentials and one m x sqrt(n) x sqrt(n) complex
    matrix product (zgemm) for an n-point grid, instead of m*n exponentials.
    """
    g = f.grid
    x = np.asarray(x, dtype=float)
    xv = np.atleast_1d(x)
    k = (xv - g.start) / g.step
    kr = np.rint(k)
    on = (np.abs(k - kr) < 1e-9) & (kr >= 0) & (kr < g.count)
    out = np.empty(len(xv), dtype=complex)
    out[on] = f.values[kr[on].astype(int)]
    if not on.all():
        spec = fft_spectrum(f)
        fg = spec.grid
        out[~on] = fg.step * lattice_sum(spec.values, fg.start, fg.step, xv[~on])
    return out[0] if x.ndim == 0 else out
