"""Symbol specifications for Toeplitz/Hankel operators.

A symbol is described declaratively (kind + parameters) so that operators can
pick its multiplier on the grid: samples for decaying symbols, synthesis from
the exact lattice kernel for polynomial-times-exponential symbols, and
lattice synthesis for symbols given by their spectrum.

Supported kinds (JSON-facing):

* ``gaussian``:  A * exp(-((x - shift)/width)^2) * exp(2 pi i mod x)
* ``mod_poly``:  A * x^degree * exp(2 pi i mod x)
* ``sampled``:   explicit samples on a grid
* ``bump_spectrum``: smooth compactly supported spectrum, synthesized exactly
  on the working lattice (optionally Hermitian-symmetrized to a real symbol)
"""

from __future__ import annotations

import functools
import math
import reprlib
from dataclasses import dataclass, field

import numpy as np

from .grid import (Grid, SampledFunction, evaluate_offgrid, inverse_spectrum,
                   lattice_sum)
from . import jsonio

KINDS = ("gaussian", "mod_poly", "sampled", "bump_spectrum")

# Matrix entries grow geometrically with the degree.  With the basis spanning
# its grid, over mod 0, +-0.25 and 1 at band 1, the largest at degree 32 is
# 7.4e64 on window 32 and 9.4e93 on window 256, under jsonio.MAX_MAGNITUDE =
# 1e100, past which a written matrix file could not be read; on window 32 it
# passes 1e100 at degree 50.
MAX_MOD_POLY_DEGREE = 32


@dataclass
class SymbolSpec:
    kind: str
    params: dict = field(default_factory=dict)
    # closed interval certain to contain the (numerically relevant) spectrum;
    # None means unknown / all of R
    spectral_support: tuple | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}")


def gaussian_symbol(amp: float = 1.0, width: float = 1.0, shift: float = 0.0,
                    mod: float = 0.0) -> SymbolSpec:
    if width <= 0:
        raise ValueError("width must be positive")
    # spectrum is a Gaussian of std 1/(pi*width*sqrt2) centred at mod;
    # 9 sigma puts the tail below 2e-18
    halfw = 9.0 / (math.pi * width * math.sqrt(2.0))
    return SymbolSpec("gaussian",
                      {"amp": amp, "width": width, "shift": shift, "mod": mod},
                      spectral_support=(mod - halfw, mod + halfw))


def mod_poly_symbol(degree: int, mod: float, amp: float = 1.0) -> SymbolSpec:
    if degree < 0 or degree != int(degree) or degree > MAX_MOD_POLY_DEGREE:
        raise ValueError(f"degree must be an integer in [0, "
                         f"{MAX_MOD_POLY_DEGREE}], got {degree}")
    # spectrum is a distribution concentrated at the single frequency `mod`
    return SymbolSpec("mod_poly", {"degree": int(degree), "mod": mod, "amp": amp},
                      spectral_support=(mod, mod))


def sampled_symbol(f: SampledFunction, support: tuple | None = None) -> SymbolSpec:
    return SymbolSpec("sampled", {"fun": f}, spectral_support=support)


def bump_spectrum_symbol(lo: float, hi: float, amp: float = 1.0, *,
                         seed: int | None, hermitian: bool = False) -> SymbolSpec:
    """Symbol whose spectrum is a smooth bump supported exactly in [lo, hi].

    With hermitian=True the spectrum is reflected to [-hi, -lo] with conjugate
    symmetry, producing a real symbol.  A seed (None for none) adds a smooth
    random modulation so several distinct symbols can share a support.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if hermitian and lo < 0:
        raise ValueError("hermitian bump needs lo >= 0 (mirror would overlap)")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return SymbolSpec("bump_spectrum",
                      {"lo": lo, "hi": hi, "amp": amp, "seed": seed,
                       "hermitian": bool(hermitian)},
                      spectral_support=(-hi, hi) if hermitian else (lo, hi))


def _bump_profile(u: np.ndarray) -> np.ndarray:
    """exp(-1/(u(1-u))) on (0,1), zero outside; peaks at exp(-4)."""
    inside = (u > 0) & (u < 1)
    safe = np.where(inside, u * (1 - u), 1.0)
    return np.where(inside, np.exp(-1.0 / safe), 0.0) * math.exp(4.0)


def spectrum_on(sym: SymbolSpec, fgrid: Grid) -> np.ndarray:
    """Spectrum values of a bump_spectrum symbol on a frequency lattice."""
    P = sym.params
    width = P["hi"] - P["lo"]

    def one_sided(xi):
        s = P["amp"] * _bump_profile((xi - P["lo"]) / width)
        if P["seed"] is not None:
            rng = np.random.default_rng(P["seed"])
            c = rng.standard_normal(3) * 0.3
            s = s * (1.0 + sum(c[k] * np.sin(2 * np.pi * (k + 1) * (xi - P["lo"]) / width)
                               for k in range(3)))
        return s

    xi = fgrid.points
    s = one_sided(xi).astype(complex)
    if P["hermitian"]:
        s = s + one_sided(-xi)
    return s


def samples(sym: SymbolSpec, grid: Grid) -> SampledFunction:
    """Evaluate the symbol on a grid; the closed-form kinds by `point_values`."""
    if sym.kind == "sampled":
        f = sym.params["fun"]
        if f.grid != grid:
            raise ValueError("sampled symbol lives on a different grid")
        return f
    if sym.kind == "bump_spectrum":
        spec = SampledFunction(grid.freq_grid(), spectrum_on(sym, grid.freq_grid()))
        f = inverse_spectrum(spec, start=grid.start)
        # a hermitian spectrum's samples are real: drop the rounding in Im
        return SampledFunction(grid, f.values.real) if sym.params["hermitian"] else f
    return SampledFunction(grid, point_values(sym, grid.points))


def point_values(sym: SymbolSpec, x) -> np.ndarray:
    """Evaluate the symbol at scattered (non-lattice) real points.

    The closed-form kinds evaluate directly.  A sampled symbol uses its
    trigonometric interpolant inside the stored window and is zero outside
    (the interpolant is periodic, so extrapolating it would wrap).  A
    bump_spectrum symbol integrates its compactly supported spectrum on a
    fine midpoint rule, which for a smooth profile converges beyond machine
    precision long before the 4096 nodes used here.
    """
    x = np.asarray(x, dtype=float)
    P = sym.params
    if sym.kind == "gaussian":
        return (P["amp"] * np.exp(-((x - P["shift"]) / P["width"]) ** 2)
                * np.exp(2j * np.pi * P["mod"] * x))
    if sym.kind == "mod_poly":
        return (P["amp"] * x ** P["degree"]
                * np.exp(2j * np.pi * P["mod"] * x)).astype(complex)
    if sym.kind == "sampled":
        f = P["fun"]
        g = f.grid
        inside = (x >= g.start) & (x <= g.start + (g.count - 1) * g.step)
        out = np.zeros(x.shape, dtype=complex)
        if np.any(inside):
            out[inside] = evaluate_offgrid(f, x[inside])
        return out
    lo, hi = sym.spectral_support
    n = 4096
    dxi = (hi - lo) / n
    fg = Grid(lo + 0.5 * dxi, dxi, n)
    return dxi * lattice_sum(spectrum_on(sym, fg), fg.start, dxi, x)


def to_dict(sym: SymbolSpec) -> dict:
    d = {"kind": sym.kind}
    if sym.kind == "sampled":
        d["fun"] = jsonio.function_to_dict(sym.params["fun"])
        if sym.spectral_support is not None:
            d["support"] = list(sym.spectral_support)
    else:
        d.update({k: v for k, v in sym.params.items() if v is not None})
    return d


_number = functools.partial(jsonio.number, owner="symbol")


def _support(d: dict) -> tuple | None:
    """The optional 'support' field: two numbers lo <= hi."""
    if "support" not in d:
        return None
    sup = _number(d, "support", ndim=1).tolist()
    if len(sup) != 2 or sup[0] > sup[1]:
        raise ValueError(f"symbol field 'support' must be two numbers [lo, hi] "
                         f"with lo <= hi, got {reprlib.repr(sup)}")
    return tuple(sup)


def from_dict(d: dict) -> SymbolSpec:
    if "kind" not in d:
        raise ValueError("symbol field 'kind' is missing")
    kind = d["kind"]
    if kind == "gaussian":
        return gaussian_symbol(amp=_number(d, "amp", 1.0),
                               width=_number(d, "width", 1.0),
                               shift=_number(d, "shift", 0.0),
                               mod=_number(d, "mod", 0.0))
    if kind == "mod_poly":
        return mod_poly_symbol(degree=_number(d, "degree", cast=int),
                               mod=_number(d, "mod"),
                               amp=_number(d, "amp", 1.0))
    if kind == "sampled":
        fun = jsonio.member(d, "fun", owner="symbol")
        try:
            fun = jsonio.function_from_dict(fun)
        except ValueError as e:
            raise ValueError(f"symbol field 'fun': {e}") from None
        return sampled_symbol(fun, _support(d))
    if kind == "bump_spectrum":
        seed, hermitian = d.get("seed"), d.get("hermitian", False)
        if not isinstance(hermitian, bool):
            raise ValueError(f"symbol field 'hermitian' must be true or "
                             f"false, got {reprlib.repr(hermitian)}")
        return bump_spectrum_symbol(_number(d, "lo"), _number(d, "hi"),
                                    amp=_number(d, "amp", 1.0),
                                    seed=None if seed is None
                                    else _number(d, "seed", cast=int),
                                    hermitian=hermitian)
    raise ValueError(f"unknown symbol kind {reprlib.repr(kind)}")
