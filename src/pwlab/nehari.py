"""Minimal-sup-norm Hankel completion and the bounded-symbol pipeline.

The Hankel content of a line symbol is carried to the unit circle with the
Cayley map (the circle is sampled on a half-shifted uniform grid so the point
z = 1, the image of x = infinity, is never hit).  On the circle the negative
Fourier coefficients define a finite Hankel section, and the top Schmidt pair
gives the classical quotient formula for a symbol whose modulus equals the
top singular value a.e. and whose negative moments reproduce the data.  The
quotient is a closed form, so pulling back to the line is pointwise
evaluation, not interpolation.

Only sigma0 and the top pair of the section are read: `_top_pairs` finds
them by Lanczos from its FFT products (the section is held as its
2M + 1 disk coefficients, never as a matrix), and the same kernel on the
lattice operator P_- M_b P_+ gives `NehariResult.hankel_norm`, computed on
first read; the bounded-symbol pipeline never reads it.

The bounded-symbol pipeline splits a symbol into spectral parts, replaces
each one-sided part by its minimal-norm Hankel completion, and reassembles.
The left part is completed through its conjugate, whose spectrum has the
right part's shape: T_conj(X) = (T_X)* pointwise, so conjugating a completion
back keeps the operator it reproduces.  For a real symbol that conjugate is
the right part itself, so one solve serves both.  The operator content is untouched:
the replaced pieces differ from the originals by functions whose Toeplitz
compressions vanish.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Grid, SampledFunction, energy_fraction, fft_spectrum, lp_norm
from .pwspace import default_grid, project_halfline
from .split import split_symbol
from .symbols import SymbolSpec, point_values, sampled_symbol, samples
from .toeplitz import (DEFAULT_BASIS_WINDOW, OperatorMatrix, _pnorm_upper,
                       _unbounded_mod_poly, hankel_symbol, operator_norm_certified,
                       toeplitz_matrix)

DEFAULT_TRUNCATION = 256
CIRCLE_OVERSAMPLE = 8
TAIL_TOL = 1e-8
AAK_TOL = 5e-2          # nehari_solve warns when sup|psi| > sigma0 * (1 + AAK_TOL)
LANCZOS_CAP = 256       # most steps of `_top_pairs`, and the rows of its bases
# the largest truncation M, refused before anything is allocated: nehari_solve's
# traced peak grows by ~21 kB per unit of M (check 09's symbol), ~0.7 GB here
MAX_TRUNCATION = 32_768


def cayley(x) -> np.ndarray:
    """omega(x) = (x - i)/(x + i); maps the line onto the circle minus {1}."""
    x = np.asarray(x, dtype=complex)
    return (x - 1j) / (x + 1j)


def _circle_size(M: int) -> int:
    return max(CIRCLE_OVERSAMPLE * M, 2048)


def _circle_nodes(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-shifted uniform angles and their line preimages -cot(theta/2)."""
    thetas = 2.0 * np.pi * (np.arange(size) + 0.5) / size
    return thetas, -1.0 / np.tan(thetas / 2.0)


def _circle_coeffs(vals: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """Fourier coefficients n in ns of samples at _circle_nodes(len(vals))."""
    size = len(vals)
    F = np.fft.fft(vals) / size
    return np.exp(-1j * np.pi * ns / size) * F[ns % size]


def line_to_disk(b: SymbolSpec, M: int) -> np.ndarray:
    """Fourier coefficients c(-M..M) of b composed with the inverse Cayley map:
    all that `aak_solve` reads of b.

    The half-shifted circle grid keeps all sample points at finite x; a symbol
    that blows up along the real line still shows up as non-finite or huge
    values near the grid ends and is rejected.
    """
    if M < 1:
        raise ValueError(f"truncation must be at least 1, got {M}")
    if M > MAX_TRUNCATION:
        raise ValueError(f"truncation must be at most {MAX_TRUNCATION}, got {M}")
    _, x = _circle_nodes(_circle_size(M))
    vals = np.asarray(point_values(b, x), dtype=complex)
    interior = np.abs(x) <= 10.0
    scale = float(np.max(np.abs(vals[interior]))) if np.any(interior) else 0.0
    if not np.all(np.isfinite(vals)) or \
            float(np.max(np.abs(vals))) > 1e8 * (1.0 + scale):
        raise ValueError("symbol blows up toward x = +-inf (circle point z = 1); "
                         "cannot transfer to the disk")
    return _circle_coeffs(vals, np.arange(-M, M + 1))


def _nearest_fill(vals: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """Replace flagged entries by the nearest (index-wise) unflagged value."""
    if not np.any(bad):
        return vals
    idx = np.arange(len(vals))
    good_idx = idx[~bad]
    pos = np.searchsorted(good_idx, idx[bad])
    left = good_idx[np.clip(pos - 1, 0, len(good_idx) - 1)]
    right = good_idx[np.clip(pos, 0, len(good_idx) - 1)]
    nearest = np.where(np.abs(idx[bad] - left) <= np.abs(right - idx[bad]),
                       left, right)
    out = vals.copy()
    out[bad] = vals[nearest]
    return out


@dataclass
class AAKSolution:
    sigma0: float
    v_coeffs: np.ndarray     # analytic Schmidt polynomial, ascending powers
    w_coeffs: np.ndarray     # anti-analytic side: w~(z) = sum w_j z^(-j-1)
    moment_residual: float

    def _quotient(self, wt: np.ndarray, v: np.ndarray) -> np.ndarray:
        """sigma0 * wt / v, where |v| < 1e-8 max|v| takes its nearest good value."""
        bad = np.abs(v) < 1e-8 * float(np.max(np.abs(v)))
        return _nearest_fill(self.sigma0 * wt / np.where(bad, 1.0, v), bad)

    def eval_disk(self, z) -> np.ndarray:
        """sigma0 * w~(z) / v(z) on |z| = 1, by Horner at arbitrary points."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        zb = np.conj(z)
        return self._quotient(np.polyval(self.w_coeffs[::-1], zb) * zb,
                              np.polyval(self.v_coeffs[::-1], z))

    def eval_circle(self, size: int) -> np.ndarray:
        """`eval_disk` at z_k = exp(i theta_k), theta_k = 2 pi (k + 1/2)/size
        (`_circle_nodes`), size >= M: shifted roots of unity, so v(z_k) is one
        zero-padded inverse DFT of v_j e^(i pi j/size), and w~(z_k) is
        e^(-2 pi i k/size) times one DFT of w_j e^(-i pi (j+1)/size)."""
        j = np.arange(len(self.v_coeffs))
        v = np.fft.ifft(self.v_coeffs * np.exp(1j * np.pi * j / size), size,
                        norm="forward")
        wt = np.fft.fft(self.w_coeffs * np.exp(-1j * np.pi * (j + 1) / size), size)
        return self._quotient(wt * np.exp(-2j * np.pi * np.arange(size) / size), v)


def _top_pairs(apply, adjoint, n: int,
               floor: float) -> tuple[float, np.ndarray, np.ndarray]:
    """sigma0 and the top pair (u, v), A v = sigma0 u, of the operator on C^n
    with products x -> A x (`apply`) and y -> A* y (`adjoint`).

    Golub-Kahan-Lanczos bidiagonalization A V_k = U_k B_k (Golub & Kahan 1965;
    Golub & Van Loan ch. 10) from a seeded start, each vector orthogonalized
    twice against all earlier ones.  B_k = P S Q* is decomposed every 4 steps
    to k = 32, then every k/8 to k/4 steps.  The top Ritz pair has residual
    beta_k |p_0[-1]|; the run stops once it is <= 1e-15 s_0, or once
    s_0 <= floor (a numerically zero operator's residuals are noise).  Each
    basis holds min(n, LANCZOS_CAP) + 1 rows; the run is exact at k = n, and
    one the cap stops warns and returns a lower bound.
    """
    rng = np.random.default_rng(0)
    cap = min(n, LANCZOS_CAP)
    U, V = np.zeros((2, cap + 1, n), dtype=complex)  # basis vectors as rows
    alpha, beta = np.zeros((2, cap))

    def extend(Q: np.ndarray, k: int, x: np.ndarray) -> float:
        """Store x, orthogonalized against Q[:k] and normalized, as Q[k]."""
        for _ in range(2):
            x = x - np.conj(Q[:k] @ np.conj(x)) @ Q[:k]
        norm = float(np.linalg.norm(x))
        if norm == 0.0:        # an invariant subspace: go on from a fresh direction
            extend(Q, k, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        else:
            Q[k] = x / norm
        return norm

    extend(V, 0, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    for k in range(cap):    # orthogonalizing removes beta u_(k-1), alpha v_k below
        alpha[k] = extend(U, k, apply(V[k]))
        if k + 1 < n:
            beta[k] = extend(V, k + 1, adjoint(U[k]))
        if (k + 1) % max(4, 2 ** ((k + 1).bit_length() - 3)) == 0 or k + 1 == cap:
            p, s, qh = np.linalg.svd(np.diag(alpha[:k + 1]) + np.diag(beta[:k], 1))
            res = beta[k] * abs(p[k, 0])                # the top Ritz pair's residual
            if res <= 1e-15 * s[0] or s[0] <= floor:
                break
    else:                   # the cap, not the residual, ended the run
        warnings.warn(f"Lanczos stopped at its cap of {cap} steps with residual "
                      f"{res / s[0]:.1e} of sigma0; sigma0 {s[0]:.8e} is a lower bound")
    return float(s[0]), p[:, 0] @ U[:k + 1], np.conj(qh[0]) @ V[:k + 1]


def _section_products(coeffs: np.ndarray, n: int) -> tuple:
    """x -> G x and y -> G* y for the n x n section G[j, k] = c(-(j+k+1)), n >= M,
    of the coefficients c(-M..M), zero past -M.  (G x)[j] = sum_k h[j+k] x[k],
    h[t] = c(-(t+1)), is a correlation: j + k < 2n, so 2n-point FFTs give it
    without wrap.  G is symmetric, so G* y = conj(G conj(y))."""
    M = len(coeffs) // 2
    h = np.zeros(2 * n, dtype=complex)
    h[:M] = coeffs[:M][::-1]
    hf = np.fft.fft(h)

    def apply(x: np.ndarray) -> np.ndarray:
        return np.fft.ifft(hf * np.fft.ifft(x, 2 * n, norm="forward"))[:n]

    return apply, lambda y: np.conj(apply(np.conj(y)))


def aak_solve(coeffs: np.ndarray) -> AAKSolution:
    """Top-singular-pair completion of the disk coefficients c(-M..M).

    The returned symbol is sigma0 * w~/v for the top Schmidt pair (v, w) of
    the M x M section of c(-M..-1), which its negative Fourier coefficients
    reproduce (exactly in exact arithmetic: the section holds the whole Hankel
    matrix of that polynomial in 1/z).  `_top_pairs` runs on the section's FFT
    products (`_section_products`); the floor that zeroes the completion also
    stops it.  The moment check reads the quotient at the circle nodes by FFT
    (`eval_circle`).  A tied top singular value leaves the top pair
    non-unique, but not the completion: the section has finite rank, and
    sigma0 w~/v is the same for every top pair (Adamyan, Arov & Krein,
    Math. USSR Sb. 15, 1971).
    """
    M = len(coeffs) // 2
    floor = 1e-13 * max(1.0, float(np.max(np.abs(coeffs))))
    sigma0, w, v = _top_pairs(*_section_products(coeffs, M), M, floor)
    if sigma0 <= floor:
        return AAKSolution(sigma0, np.eye(1, M, dtype=complex)[0],
                           np.zeros(M, dtype=complex), 0.0)

    sol = AAKSolution(sigma0, v, w, 0.0)
    psi = sol.eval_circle(_circle_size(M))
    back = _circle_coeffs(psi, np.arange(-M, 0))
    sol.moment_residual = float(np.max(np.abs(back - coeffs[:M]))) / sigma0
    return sol


def hankel_norm_estimate(b: SampledFunction) -> float:
    """2-norm of f -> P_-[b f] on the analytic class, by `_top_pairs`.

    The lattice realizes the analytic class as nonnegative-frequency content;
    the kernel runs on A = P_- M_b P_+ and A* = P_+ M_conj(b) P_- and stops at
    the floor sigma0 <= 1e-13 max|b| (b = 1 leaves rounding noise) or at
    LANCZOS_CAP steps with a warning and a lower bound, never an n x n basis.
    """
    def half(vals: np.ndarray, sign: int) -> np.ndarray:
        return project_halfline(SampledFunction(b.grid, vals), sign).values

    return _top_pairs(lambda x: half(b.values * half(x, +1), -1),
                      lambda y: half(np.conj(b.values) * half(y, -1), +1),
                      b.grid.count, 1e-13 * float(np.max(np.abs(b.values))))[0]


@dataclass
class NehariResult:
    psi: SampledFunction          # minimal-sup completion, pulled back pointwise
    psi_matched: SampledFunction  # psi plus the residual co-analytic lattice content
    sigma0: float
    moment_residual: float
    sup_norm: float               # sup |psi| (the minimal variant)
    correction_sup: float         # sup of the matched-variant correction term
    tail_ratio: float
    truncation: int
    symbol_samples: SampledFunction   # b on the grid

    @cached_property
    def hankel_norm(self) -> float:
        """`hankel_norm_estimate` of the symbol samples, computed on first read."""
        return hankel_norm_estimate(self.symbol_samples)


def nehari_solve(b: SymbolSpec, a: float, p: float = 2.0,
                 M: int = DEFAULT_TRUNCATION, grid: Grid | None = None) -> NehariResult:
    """Minimal-sup-norm symbol with the same Hankel operator as b.

    b must carry its spectrum in [-2a, inf) (the shape theta_bar^2 times an
    analytic-spectrum factor produced by the splitting stage); the anti-
    analytic content is then a transferred polynomial tail the completion can
    match.  The returned `psi` satisfies sup|psi| <= sigma0 * (1 + AAK_TOL)
    and reproduces the first `truncation` negative disk moments to the
    reported residual; moments beyond the section are uncontrolled, so
    `psi_matched` additionally swaps in b's exact negative-frequency lattice
    content (at a sup-norm cost of `correction_sup`) for use where the
    operator itself must be reproduced to machine precision.
    """
    if grid is None:
        grid = default_grid(a)
    bs = samples(b, grid)
    spec = fft_spectrum(bs)
    frac = energy_fraction(spec, spec.grid.points < -2.0 * a - 2.0 * spec.grid.step)
    if frac > 1e-8:
        raise ValueError(
            f"nehari: spectrum extends below -2a (energy fraction {frac:.2e}); "
            "expected theta_bar^2 times an analytic-spectrum symbol")

    coeffs = line_to_disk(b, M)
    peak = float(np.max(np.abs(coeffs)))
    tail = float(np.abs(coeffs[0])) / peak if peak > 0.0 else 0.0
    if tail > TAIL_TOL:
        warnings.warn(f"coefficient tail ratio {tail:.2e} exceeds "
                      f"{TAIL_TOL}; increase the truncation", stacklevel=2)
    sol = aak_solve(coeffs)
    psi = SampledFunction(grid, sol.eval_disk(cayley(grid.points)))
    corr = project_halfline(SampledFunction(grid, bs.values - psi.values), -1)
    matched = SampledFunction(grid, psi.values + corr.values)
    sup = lp_norm(psi, np.inf)
    if sup > (1.0 + AAK_TOL) * sol.sigma0:
        warnings.warn(f"sup norm {sup:.4e} exceeds (1+tol)*sigma0 "
                      f"{(1 + AAK_TOL) * sol.sigma0:.4e}", stacklevel=2)
    return NehariResult(psi, matched, sol.sigma0, sol.moment_residual, sup,
                        lp_norm(corr, np.inf), tail, M, bs)


# -- bounded-symbol pipeline ---------------------------------------------------


@dataclass
class BoundedSymbol:
    """psi and the matrices of T_phi and T_psi (None when T_phi vanishes)."""
    psi: SampledFunction
    sup_norm: float
    sigma_left: float
    sigma_right: float
    m_phi: OperatorMatrix
    m_psi: OperatorMatrix | None

    def certificate(self, p: float) -> dict:
        """|T_phi|, |T_phi - T_psi| / |T_phi|, |psi|_inf / |T_phi| and the
        implied constant ratio / (p + 1/(p-1)), in the p-norm."""
        t_norm = operator_norm_certified(self.m_phi, p)["lower"]
        if self.m_psi is None:     # psi = 0; the residual is absolute
            return {"t_norm": t_norm, "operator_residual": t_norm,
                    "ratio": 0.0, "c_meas": 0.0}
        diff = _pnorm_upper(self.m_phi.interior() - self.m_psi.interior(), p)
        ratio = self.sup_norm / t_norm
        c_meas = ratio / (p + 1.0 / (p - 1.0)) if p > 1.0 else float("inf")
        return {"t_norm": t_norm, "operator_residual": diff / t_norm,
                "ratio": ratio, "c_meas": c_meas}


def _stage(name: str, thunk):
    """Run one pipeline stage; a ValueError is re-raised naming the stage."""
    try:
        return thunk()
    except ValueError as exc:
        raise ValueError(f"bounded_symbol stage '{name}': {exc}") from exc


def bounded_symbol(sym: SymbolSpec, a: float, M: int = DEFAULT_TRUNCATION,
                   grid: Grid | None = None,
                   window: float = DEFAULT_BASIS_WINDOW) -> BoundedSymbol:
    """Bounded symbol with the same Toeplitz operator as sym on the band.

    Splits the symbol, keeps the central part verbatim, and replaces part_R
    and conj(part_L), whose spectrum lies where part_R's does, by modulated
    minimal Hankel completions; T_conj(X) = (T_X)* carries the left one back:

        psi = theta^2 psi_r + phi_C + conj(theta^2 psi_l).

    A real symbol (every sample's imaginary part exactly zero) has
    part_L = conj(part_R), and the minimal completion is unique when sigma0
    is simple (Adamyan, Arov & Krein 1971): psi_l = psi_r, so its one solve
    serves both sides and psi is real.

    Nothing here depends on p (the matrices' entries do not): both operators
    are assembled once in the shifted-sinc coordinates and `certificate(p)`
    reads their norms.  T_phi vanishes when its 2-norm is below 1e-8 of the
    symbol's sup (at least 1); psi is then zero.  A mod_poly symbol whose
    T_phi is unbounded (`_unbounded_mod_poly`) is refused before anything is built.
    """
    if unbounded := _unbounded_mod_poly(sym, a):
        raise ValueError(unbounded)
    if grid is None:
        grid = default_grid(a)

    m_phi = _stage("assemble", lambda: toeplitz_matrix(sym, a, 2.0, window, grid))
    phi = samples(sym, grid)
    if operator_norm_certified(m_phi, 2.0)["lower"] <= 1e-8 * max(lp_norm(phi, np.inf), 1.0):
        zero = SampledFunction(grid, np.zeros(grid.count, dtype=complex))
        return BoundedSymbol(zero, 0.0, 0.0, 0.0, m_phi, None)

    parts = _stage("split", lambda: split_symbol(sym, a, grid))
    theta2 = np.exp(4j * np.pi * a * grid.points)
    norm2 = lp_norm(phi, 2.0)

    def completion(part: np.ndarray, label: str) -> tuple:
        # theta^2 psi_matched and sigma0; psi_matched carries b's exact co-analytic
        # lattice content, so the reassembled operator agrees with the original
        part = SampledFunction(grid, part)
        if lp_norm(part, 2.0) <= 1e-12 * max(norm2, 1.0):
            return 0.0, 0.0
        res = _stage(label, lambda: nehari_solve(hankel_symbol(part, a), a, M=M, grid=grid))
        return theta2 * res.psi_matched.values, res.sigma0

    right, sig_r = completion(parts.part_r.values, "nehari(right)")
    if np.any(phi.values.imag):
        left, sig_l = completion(np.conj(parts.part_l.values), "nehari(left,conjugated)")
    else:                   # part_L = conj(part_R): the same completion
        left, sig_l = right, sig_r
    psi = SampledFunction(grid, right + parts.part_c.values + np.conj(left))

    m_psi = _stage("certify",
                   lambda: toeplitz_matrix(sampled_symbol(psi), a, 2.0, window, grid))
    return BoundedSymbol(psi, lp_norm(psi, np.inf), sig_l, sig_r, m_phi, m_psi)
