"""Frequency splitting of a symbol into left / central / right parts.

A fixed smooth partition psi_L + psi_C + psi_R = 1 on [-2, 2] (supports
[-4, -1/4], [-1/2, 1/2], [1/4, 4]) is dilated by the band radius and applied
to the symbol's spectrum.  The central part has spectrum inside [-a/2, a/2]
and is the piece whose symbol can be read back off the operator pointwise;
the side parts are handed to the Hankel machinery.

The L^1 norms of the inverse transforms of the dilated cutoffs control the
operator norms of the parts (Young's inequality); they are dilation
invariants and are computed here on a window where the smooth-cutoff tail is
negligible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import (Grid, SampledFunction, energy_fraction, evaluate_offgrid,
                   fft_spectrum, filter_spectrum, inverse_spectrum, lp_norm,
                   symmetric_grid)
from .pwspace import holder_conjugate, sinc_kernel, sinc_profile
from .symbols import SymbolSpec, samples, sampled_symbol
from .toeplitz import operator_norm_certified

BUMP_NAMES = ("L", "C", "R")
DECAY_TOL = 1e-8       # split_symbol warns when its spectral edge exceeds this of the peak

# Spectral supports of the three cutoffs in units of the band radius.
SUPPORTS = {"L": (-4.0, -0.25), "C": (-0.5, 0.5), "R": (0.25, 4.0)}


def _smooth_step(u: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, strictly rising between."""
    u = np.asarray(u, dtype=float)
    eu = np.where(u > 0.0, np.exp(-1.0 / np.where(u > 0.0, u, 1.0)), 0.0)
    ev = np.where(u < 1.0, np.exp(-1.0 / np.where(u < 1.0, 1.0 - u, 1.0)), 0.0)
    return eu / (eu + ev)


def bump(u, which: str) -> np.ndarray:
    """Values at the points u of the reference cutoff psi_L, psi_C or psi_R
    (band = 1), elementwise over an array or a scalar."""
    u = np.asarray(u, dtype=float)
    if which == "L":
        return _smooth_step((u + 4.0) / 2.0) * _smooth_step(-4.0 * u - 1.0)
    if which == "R":
        return bump(-u, "L")
    if which == "C":
        inside = (u >= -0.5) & (u <= 0.5)
        return np.where(inside, 1.0 - bump(u, "L") - bump(u, "R"), 0.0)
    raise ValueError(f"unknown bump {which!r}; expected one of {BUMP_NAMES}")


# L^1 norms of the inverse transforms: the cutoffs are supported in [-4a, 4a],
# so a frequency window of 32a holds them with room to spare, and the 1/64a
# frequency step puts the time samples on [-32/a, 32/a) where the smooth
# cutoffs' transforms have decayed far below 1e-6 of their peak.
_L1_WINDOW_MULT = 32.0
_L1_STEP_DIV = 64.0
_L1_COUNT = 4096


def bump_l1_norms(a: float) -> dict:
    """L^1 norms of the inverse transforms of the dilated cutoffs.

    Dilation invariance is exact in exact arithmetic (the dilation rescales
    height by a and width by 1/a); the fixed a-proportional grid keeps the
    computed values stable across bands as well.
    """
    fgrid = Grid(-_L1_WINDOW_MULT * a, a / _L1_STEP_DIV, _L1_COUNT)
    out = {}
    for name in BUMP_NAMES:
        spec = SampledFunction(fgrid, bump(fgrid.points / a, name)
                               .astype(complex))
        out[name] = lp_norm(inverse_spectrum(spec), 1.0)
    return out


@dataclass
class SplitResult:
    part_l: SampledFunction
    part_c: SampledFunction
    part_r: SampledFunction
    band_certificates: dict
    a: float

    def part(self, which: str) -> SampledFunction:
        return {"L": self.part_l, "C": self.part_c, "R": self.part_r}[which]

    def part_symbol(self, which: str) -> SymbolSpec:
        lo, hi = SUPPORTS[which]
        return sampled_symbol(self.part(which), support=(lo * self.a,
                                                         hi * self.a))


def split_symbol(sym: SymbolSpec, a: float, grid: Grid,
                 decay_tol: float = DECAY_TOL) -> SplitResult:
    """Split a symbol into spectral parts via the dilated cutoff triple.

    The parts are exact lattice truncations: each part's spectrum is the
    symbol's spectrum times the dilated cutoff, so the three parts sum to the
    symbol exactly on the lattice bins where the cutoffs sum to one
    (|xi| <= 2a).  Residual spectrum beyond |xi| > 2a is the caller's to
    absorb; for fast-decaying symbols it is negligible and the operator sum
    identity holds to machine precision.
    """
    f = samples(sym, grid)
    spec = fft_spectrum(f)
    xi = spec.grid.points

    peak = float(np.max(np.abs(spec.values)))
    edge = np.abs(xi) >= 0.9 * grid.nyquist
    if peak > 0.0 and float(np.max(np.abs(spec.values[edge]))) > decay_tol * peak:
        warnings.warn("symbol spectrum decays slowly; split tolerances "
                      "degrade with the unresolved tail", stacklevel=2)

    parts = {}
    certs = {}
    for name in BUMP_NAMES:
        cut = bump(xi / a, name)
        lo, hi = SUPPORTS[name]
        # energy outside [lo a, hi a]; one bin of slack for the endpoint bins
        outside = (xi < lo * a - spec.grid.step) | (xi > hi * a + spec.grid.step)
        part_spec = SampledFunction(spec.grid, spec.values * cut)
        certs[name] = energy_fraction(part_spec, outside)
        parts[name] = filter_spectrum(f, cut)
    return SplitResult(parts["L"], parts["C"], parts["R"], certs, a)


def jensen_certificate(m_full, m_parts: dict, l1_norms: dict) -> dict:
    """Both sides of ||T_X|| <= ||inverse-transform of cutoff||_1 * ||T|| per part.

    m_full is the operator matrix of the symbol, m_parts maps each name in
    BUMP_NAMES to the matrix of that split part (same basis), and l1_norms
    are `bump_l1_norms`.  Norms are certified lower estimates on the
    edge-excluded interior block (the same estimator on both sides, so the
    comparison is fair at every p).  Returns {name: (norm, bound)}; each
    bound carries a 1e-3 relative slack, and the caller compares the two.
    """
    norm_full = operator_norm_certified(m_full)["lower"]
    return {name: (operator_norm_certified(m_parts[name])["lower"],
                   l1_norms[name] * norm_full * (1.0 + 1e-3))
            for name in BUMP_NAMES}


def central_recover_sweep(apply_fn, a: float, xs, grid: Grid) -> np.ndarray:
    """Read the central symbol at each point x of xs off the operator itself.

    Feeds the operator a narrow-band sinc centered at x (bandwidth a/8, so
    the product of symbol spectrum and test spectrum stays inside the band)
    and evaluates the output at x; dividing by the sinc's height at its
    center (2*eps) returns phi_C(x).  One point at a time: a stacked probe
    is no faster and holds every test sinc at once.
    """
    eps = a / 8.0
    values = []
    for x in map(float, xs):
        out = apply_fn(sinc_kernel(eps, x, grid))
        fun = out if isinstance(out, SampledFunction) else out.fun
        values.append(complex(evaluate_offgrid(fun, x)) / (2.0 * eps))
    return np.asarray(values)


# Dedicated grid for the sinc L^p norms: |sinc|^p has corners at the zeros,
# so the quadrature needs a fine step, and the p -> 1 tail (~t^-p) needs a
# wide window.
_NORM_GRID = symmetric_grid(512.0, 1.0 / 64.0)


def sinc_norm_constant(p: float) -> dict:
    """Product ||sinc_1||_q * ||sinc_{1/8}||_p and its stated upper bound.

    The bound (4/pi)(p + 1/(p-1)) controls the growth of the recovery
    constant as p approaches 1 or infinity; the caller compares the two.
    """
    if not (1.0 < p < np.inf):
        raise ValueError("p must lie in (1, inf)")
    q = holder_conjugate(p)
    s1 = SampledFunction(_NORM_GRID,
                         sinc_profile(1.0, _NORM_GRID.points).astype(complex))
    s8 = SampledFunction(_NORM_GRID,
                         sinc_profile(0.125, _NORM_GRID.points).astype(complex))
    return {"product": lp_norm(s1, q) * lp_norm(s8, p),
            "bound": (4.0 / np.pi) * (p + 1.0 / (p - 1.0))}
