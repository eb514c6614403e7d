"""Minimal Hankel completions and the bounded-symbol pipeline."""
import tracemalloc
import warnings

import numpy as np
import pytest
from pytest import approx

from pwlab import nehari
from pwlab.grid import SampledFunction, energy_fraction, fft_spectrum, lp_norm
from pwlab.nehari import (AAKSolution, NehariResult, _circle_coeffs, _circle_nodes,
                          _circle_size, _section_products, _top_pairs, aak_solve,
                          bounded_symbol, hankel_norm_estimate, hankel_symbol,
                          line_to_disk, nehari_solve)
from pwlab.pwspace import default_grid, project_band, sinc_kernel
from pwlab.split import split_symbol
from pwlab.symbols import (bump_spectrum_symbol, gaussian_symbol, mod_poly_symbol,
                           point_values, sampled_symbol, samples)
from pwlab.toeplitz import toeplitz_matrix

A = 1.0


# -- references: identities of the completion, kept out of the package --------


def absorption_residual(psi_r: SampledFunction, a: float,
                        f: SampledFunction) -> float:
    """Relative defect of P_+[psi_r theta^2 f] = psi_r theta^2 f.

    For a completion whose co-analytic content sits in [-2a, 0), the product
    with theta^2 and an analytic band function has no genuine content below
    zero: whatever negative-frequency mass exists is either a Hankel defect
    (it lands in [-3a, 0), since the factors shift spectra by at most 3a) or
    periodic-lattice wrap from near the Nyquist edge (it lands far below).
    The certificate therefore reads the spectral mass in [-3a, 0) only, which
    is exactly the continuum statement on a wrap-free lattice.
    """
    grid = psi_r.grid
    theta2 = np.exp(4j * np.pi * a * grid.points)
    spec = fft_spectrum(SampledFunction(grid, psi_r.values * theta2 * f.values))
    xi = spec.grid.points
    return float(np.sqrt(energy_fraction(spec, (xi >= -3.0 * a) & (xi < 0.0))))


def hankel_pairing_residual(b, result: NehariResult, orders: int = 64,
                            nodes: int = 8192) -> float:
    """Largest pairing defect |<(psi - b) f_j, g_k>| over canonical probes.

    The probes are the unit-norm transfers of the circle monomials,
    f_j = pi^(-1/2) (x+i)^(-1) omega(x)^j on the analytic side and
    g_k = pi^(-1/2) (x+i)^(-1) conj(omega(x))^k on the co-analytic side.
    Substituting x = -cot(theta/2) collapses the pairing integral to a single
    Fourier coefficient of (psi - b) along the circle parameter, evaluated
    here by midpoint quadrature; both factors are closed forms, so no window
    truncation enters.  Probe orders j + k run over 1..orders.
    """
    thetas, x = _circle_nodes(nodes)
    vb = point_values(b, x)
    # aak_solve is deterministic (its Lanczos start is seeded): this re-solve is
    # the completion nehari_solve pulled back to the grid
    sol = aak_solve(line_to_disk(b, result.truncation))
    vp = sol.eval_disk(np.exp(1j * thetas))
    return float(np.max(np.abs(_circle_coeffs(vp - vb, -np.arange(1, orders + 1)))))


def _right_target(sym, grid):
    # the shape the splitting stage hands to the completion stage:
    # conj(theta)^2 times the analytic-spectrum right part
    parts = split_symbol(sym, A, grid)
    theta2 = np.exp(4j * np.pi * A * grid.points)
    return sampled_symbol(SampledFunction(grid, parts.part_r.values * np.conj(theta2)))


@pytest.fixture(scope="module")
def grid():
    return default_grid(A)


@pytest.fixture(scope="module")
def right_target(grid):
    return _right_target(gaussian_symbol(), grid)


@pytest.fixture(scope="module")
def solved(right_target, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return nehari_solve(right_target, A, 2.0, grid=grid)


def test_hankel_symbol_is_the_right_target(right_target, grid):
    b = hankel_symbol(split_symbol(gaussian_symbol(), A, grid).part_r, A)
    assert b.kind == "sampled" and b.params["fun"].grid == grid
    assert np.array_equal(b.params["fun"].values, right_target.params["fun"].values)


def test_eval_disk_fills_a_zero_of_v_from_its_nearest_neighbour():
    # v(z) = 1 + z vanishes at z = -1, entries 0 and 3; entry 0 has one good
    # neighbour, entry 3 two at the same distance, and the left one wins
    sol = AAKSolution(2.0, np.array([1.0, 1.0], dtype=complex),
                      np.array([0.5, 0.25j], dtype=complex), 0.0)
    z = np.array([-1.0, np.exp(0.3j), np.exp(1.0j), -1.0, np.exp(2.0j)])
    out = sol.eval_disk(z)
    assert np.all(np.isfinite(out))
    good = [1, 2, 4]
    zb = np.conj(z[good])
    want = 2.0 * (0.5 * zb + 0.25j * zb ** 2) / (1.0 + z[good])
    assert out[good] == approx(want, rel=1e-14)
    assert out[0] == out[1] and out[3] == out[2]


@pytest.mark.parametrize("M", [8, 256, 2048])
def test_eval_circle_matches_horner(right_target, M):
    # the FFT route against the definitional one, on a completion of check 09's
    # target at each truncation
    sol = aak_solve(line_to_disk(right_target, M))
    size = _circle_size(M)
    thetas, _ = _circle_nodes(size)
    horner = sol.eval_disk(np.exp(1j * thetas))
    assert np.max(np.abs(sol.eval_circle(size) - horner)) <= 1e-12 * np.max(np.abs(horner))


def test_eval_circle_fills_a_zero_of_v_on_a_node():
    # v(z) = z - z_3 vanishes at node 3 of 16; both routes fill it from node 2
    size = 16
    thetas, _ = _circle_nodes(size)
    z = np.exp(1j * thetas)
    sol = AAKSolution(2.0, np.array([-z[3], 1.0]), np.array([0.5, 0.25j]), 0.0)
    fft, horner = sol.eval_circle(size), sol.eval_disk(z)
    assert np.all(np.isfinite(fft))
    assert fft[3] == fft[2]
    assert np.max(np.abs(fft - horner)) <= 1e-12 * np.max(np.abs(horner))


def test_aak_solve_evaluates_no_polynomial_by_horner(right_target, monkeypatch):
    # the circle values come by FFT: Horner there would cost O(M^2)
    calls = []
    monkeypatch.setattr(np, "polyval", lambda *args: calls.append(args))
    sol = aak_solve(line_to_disk(right_target, 256))
    assert calls == [] and sol.moment_residual < 1e-6


def test_moments_match(solved):
    assert solved.moment_residual < 1e-6 * solved.sigma0


def test_minimal_symbol_is_flat(solved, grid):
    # AAK solutions have constant modulus sigma0; the sup equals sigma0
    assert solved.sup_norm == approx(solved.sigma0, rel=1e-6)


def test_sigma0_agrees_with_independent_hankel_norm(solved, right_target, grid):
    est = hankel_norm_estimate(samples(right_target, grid))
    assert solved.hankel_norm == approx(est, rel=1e-12)
    assert abs(solved.sigma0 - est) < 0.05 * est


def test_pairing_oracle_closed_form(solved, right_target):
    # window-free check: pairing defects of psi - b over circle-transfer
    # probes collapse to Fourier coefficients
    res = hankel_pairing_residual(right_target, solved)
    assert res < 1e-5


def test_sigma0_converges_in_truncation(right_target, grid):
    # not monotone (coefficient aliasing at small M can overshoot), but the
    # error against the resolved value shrinks fast
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s64, s128, s256 = [nehari_solve(right_target, A, 2.0, M=M,
                                        grid=grid).sigma0
                           for M in (64, 128, 256)]
    assert abs(s128 - s256) < abs(s64 - s256)
    assert abs(s128 - s256) < 1e-5 * s256


def test_zero_target_gives_zero_completion(grid):
    b = sampled_symbol(SampledFunction(grid, np.zeros(grid.count, complex)),
                       support=(-2.0, 0.5))
    res = nehari_solve(b, A, 2.0, grid=grid)
    assert res.sigma0 == 0.0
    assert np.max(np.abs(res.psi.values)) == 0.0


def test_tail_warning_fires_at_tiny_truncation(right_target, grid):
    with pytest.warns(UserWarning, match="tail"):
        nehari_solve(right_target, A, 2.0, M=24, grid=grid)


@pytest.mark.parametrize("M", [0, -3])
def test_truncation_below_one_is_rejected(right_target, M):
    with pytest.raises(ValueError, match="truncation must be at least 1"):
        line_to_disk(right_target, M)


def test_truncation_above_the_cap_is_refused_before_allocating(right_target):
    # the cap's own allocation would be 8 * MAX_TRUNCATION circle nodes and
    # Lanczos bases of hundreds of MB; the refusal comes first
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"at most {nehari.MAX_TRUNCATION}"):
            line_to_disk(right_target, nehari.MAX_TRUNCATION + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_matched_variant_absorbs_into_analytic_class(solved, grid):
    # probe with an analytic-class band function (spectrum in [0, a)); a
    # two-sided probe would smear the completion's legal co-analytic content
    # below zero and hide the distinction
    from pwlab.pwspace import modulate
    f = modulate(project_band(sinc_kernel(0.5, 0.0, grid), 0.5).fun, 0.5)
    matched = absorption_residual(solved.psi_matched, A, f)
    raw = absorption_residual(solved.psi, A, f)
    assert matched < 1e-10
    assert raw > 1e-3  # the minimal variant alone leaves genuine content


def test_unbounded_mod_poly_is_refused_before_assembly(grid, monkeypatch):
    def assemble(*args, **kw):
        raise AssertionError("assembled an unbounded symbol")
    monkeypatch.setattr(nehari, "toeplitz_matrix", assemble)
    with pytest.raises(ValueError, match=r"degree 1 with mod 0\.25: .*unbounded"):
        bounded_symbol(mod_poly_symbol(1, 0.25), A, grid=grid)


def _bounded(sym, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return bounded_symbol(sym, A, grid=grid)


@pytest.fixture(scope="module")
def bounded(grid):
    return _bounded(gaussian_symbol(), grid)


def test_bounded_symbol_certifies_gaussian(bounded):
    cert = bounded.certificate(2.0)
    assert cert["operator_residual"] < 1e-3
    assert bounded.sup_norm <= 1.0 + 1e-6   # no worse than the symbol itself here
    assert cert["ratio"] < 20.0
    assert cert["c_meas"] < 20.0


def test_bounded_symbol_residual_small_across_p(bounded):
    # one p-free construction, certified at each p
    for p in (1.5, 3.0):
        assert bounded.certificate(p)["operator_residual"] < 1e-3


@pytest.mark.parametrize("sym", [
    gaussian_symbol(), gaussian_symbol(amp=0.8, width=2.0),
    gaussian_symbol(amp=1.2, width=0.7, shift=0.4),
    bump_spectrum_symbol(0.05, 1.9, seed=11, hermitian=True)],
    ids=["check10-0", "check10-1", "check10-2", "hermitian-bump"])
def test_real_symbol_gets_a_real_psi(grid, sym):
    # part_L = conj(part_R), so psi = 2 Re(theta^2 psi_r) + phi_C, real to
    # rounding at every grid point, x = -W included
    out = _bounded(sym, grid)
    assert np.max(np.abs(out.psi.values.imag)) <= 1e-12 * out.sup_norm
    assert abs(out.sigma_left - out.sigma_right) <= 1e-12 * out.sigma_right


@pytest.mark.parametrize("kw", [dict(mod=0.3), dict(amp=1.0, width=1.5, mod=-0.6)],
                         ids=["mod0.3", "mod-0.6"])
def test_conjugate_symbol_gets_the_conjugate_psi(grid, kw):
    # T_conj(phi) = (T_phi)*: conjugating the symbol swaps and conjugates its
    # one-sided parts, and psi follows; the operator holds to rounding at each p
    out = _bounded(gaussian_symbol(**kw), grid)
    conj = _bounded(gaussian_symbol(**{**kw, "mod": -kw["mod"]}), grid)
    assert np.max(np.abs(conj.psi.values - np.conj(out.psi.values))) <= 1e-12 * out.sup_norm
    for p in (1.5, 2.0, 3.0):
        assert out.certificate(p)["operator_residual"] <= 1e-13


def test_construction_stages_do_not_depend_on_p(right_target, grid):
    # bounded_symbol builds once and certifies per p; this is what allows it
    def build(p):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return (toeplitz_matrix(gaussian_symbol(), A, p, 32.0, grid).entries,
                    nehari_solve(right_target, A, p, grid=grid).psi_matched.values)

    ref = build(2.0)
    for p in (1.5, 3.0):
        for got, want in zip(build(p), ref):
            assert np.array_equal(got, want)


# -- the top-pair kernel against the full SVD -----------------------------------


def _svd_reference(gamma):
    u, s, vh = np.linalg.svd(gamma)
    return s[0], s[1], u[:, 0], np.conj(vh[0])


def _products(A):
    """`_top_pairs`'s arguments for a dense square A, with no floor."""
    return lambda x: A @ x, lambda y: np.conj(np.conj(y) @ A), len(A), 0.0


def _counted(apply, adjoint, calls: list):
    """apply and adjoint, each appending to calls when it runs."""
    return lambda x: calls.append(1) or apply(x), lambda y: calls.append(1) or adjoint(y)


def _dense_section(coeffs: np.ndarray, n: int | None = None) -> np.ndarray:
    """The n x n section G[j, k] = c(-(j+k+1)) of the disk coefficients
    c(-M..M), zero past -M (n = M by default), built entry by entry."""
    M = len(coeffs) // 2
    s = np.arange(n or M)[:, None] + np.arange(n or M)[None, :] + 1
    return np.where(s <= M, coeffs[np.clip(M - s, 0, 2 * M)], 0.0)


@pytest.fixture(scope="module")
def hard_target(grid):
    """Check 10's sigma1/sigma0 = 0.991 target: the right part of gaussian(0.8, 2.0)."""
    return _right_target(gaussian_symbol(amp=0.8, width=2.0), grid)


@pytest.fixture(scope="module")
def disks(right_target, hard_target):
    """Check 09's and check 10's disk coefficients at the default truncation."""
    return {"check09": line_to_disk(right_target, nehari.DEFAULT_TRUNCATION),
            "check10-0.991": line_to_disk(hard_target, nehari.DEFAULT_TRUNCATION)}


@pytest.fixture(scope="module")
def sections(disks):
    """The dense sections of `disks` and a seeded complex 48 x 48 matrix."""
    rng = np.random.default_rng(48)
    return {**{name: _dense_section(c) for name, c in disks.items()},
            "random48": rng.standard_normal((48, 48))
            + 1j * rng.standard_normal((48, 48))}


@pytest.mark.parametrize("M", [1, 2, 64, 256])
@pytest.mark.parametrize("extra", [0, 1], ids=["n=M", "n=M+1"])
@pytest.mark.parametrize("which", ["check09", "check10-0.991"])
def test_section_products_match_dense_section(right_target, hard_target, M, extra, which):
    coeffs = line_to_disk(right_target if which == "check09" else hard_target, M)
    n = M + extra
    G = _dense_section(coeffs, n)
    apply, adjoint = _section_products(coeffs, n)
    rng = np.random.default_rng(M + extra)
    for _ in range(3):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for got, want in ((apply(x), G @ x), (adjoint(x), np.conj(G.T) @ x)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _assert_top_pairs(gamma, products, gap):
    """`_top_pairs` on products of gamma gives its SVD's sigma0 and top pair
    to 1e-12 relative; gap is the intended sigma1/sigma0, if any."""
    s0, s1, u, v = _svd_reference(gamma)
    if gap is not None:                                # the intended section
        assert s1 / s0 == approx(gap, abs=1e-3)
    got0, gu, gv = _top_pairs(*products)
    assert abs(got0 - s0) <= 1e-12 * s0
    phase = np.vdot(v, gv) / abs(np.vdot(v, gv))     # the pair is unique up to phase
    assert np.max(np.abs(gv - phase * v)) <= 1e-12
    assert np.max(np.abs(gu - phase * u)) <= 1e-12
    assert np.linalg.norm(gamma @ gv - got0 * gu) <= 1e-12 * s0


@pytest.mark.parametrize("name, gap", [("check09", 0.959), ("check10-0.991", 0.991),
                                       ("random48", None)])
def test_top_pairs_match_svd(sections, name, gap):
    _assert_top_pairs(sections[name], _products(sections[name]), gap)


@pytest.mark.parametrize("name, gap", [("check09", 0.959), ("check10-0.991", 0.991)])
def test_top_pairs_on_section_products_match_svd(sections, disks, name, gap):
    n = len(sections[name])
    _assert_top_pairs(sections[name], (*_section_products(disks[name], n), n, 0.0), gap)


def test_top_pairs_stops_on_the_residual(sections):
    # two products per Lanczos step; 24 steps leave a 3e-6 relative residual
    # on the 0.991 section, and the factorization is exact only at 256
    apply, adjoint, n, floor = _products(sections["check10-0.991"])
    calls = []
    _top_pairs(*_counted(apply, adjoint, calls), n, floor)
    assert 2 * 24 < len(calls) <= 2 * 40


@pytest.mark.parametrize("name", ["check09", "check10-0.991"])
def test_aak_completion_matches_svd_completion(disks, sections, name):
    s0, _, u, v = _svd_reference(sections[name])
    ref = AAKSolution(s0, v, u, 0.0)
    got = aak_solve(disks[name])
    z = np.exp(1j * _circle_nodes(_circle_size(len(v)))[0])
    want = ref.eval_disk(z)
    assert abs(got.sigma0 - s0) <= 1e-12 * s0
    # psi = sigma0 w~/v magnifies a rounding-level change of the pair by
    # max|v| / |v(z)| (v dips to 0.0043 of a 2.08 peak on the 0.991 section),
    # so the 1e-12 relative bound is scaled pointwise by that condition
    v = np.abs(np.polynomial.polynomial.polyval(z, v))
    cond = np.max(v) / v
    assert np.all(np.abs(got.eval_disk(z) - want)
                  <= 1e-12 * np.max(np.abs(want)) * cond)


def _section(coeffs: dict, M: int = 64) -> np.ndarray:
    """Disk coefficients c(-M..M) holding {n: c_n}, laid out as line_to_disk does."""
    disk = np.zeros(2 * M + 1, dtype=complex)
    for n, c in coeffs.items():
        disk[M + n] = c
    return disk


@pytest.mark.parametrize("coeffs, completion",
                         [({-2: 1.0}, lambda z: np.conj(z) ** 2),
                          ({-1: 1e-12, -3: 1.0}, None)],
                         ids=["conj(z)^2", "near-double"])
def test_degenerate_section_completes_without_warning(coeffs, completion):
    # conj(z)^2: sigma0 = sigma1 = 1 exactly; near-double: the even and odd
    # index blocks give 1 + 5e-13 and 1.  The top pair is not unique, but the
    # completion is: any top pair reproduces the moments, and conj(z)^2 is
    # its own (a unit-sup function with c(-2) = 1 has no other coefficient)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = aak_solve(_section(coeffs))
    assert sol.sigma0 == approx(1.0, rel=1e-12)
    assert sol.moment_residual <= 1e-10 * sol.sigma0
    if completion is not None:
        z = np.exp(1j * _circle_nodes(_circle_size(64))[0])
        assert np.max(np.abs(sol.eval_disk(z) - completion(z))) <= 1e-12


def _tied_matrix(gap: float, n: int = 256) -> np.ndarray:
    """U diag(1, 1 - gap, 254 values drawn from [1e-3, 0.95]) V*, U and V
    seeded random unitaries: a full-rank section-sized matrix whose Krylov
    space does not close before n steps."""
    rng = np.random.default_rng(101)
    tail = np.sort(rng.uniform(1e-3, 0.95, n - 2))[::-1]
    U, V = (np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            for _ in range(2))
    return U @ np.diag(np.r_[1.0, 1.0 - gap, tail]) @ np.conj(V.T)


@pytest.mark.parametrize("gap, steps", [(1e-11, 96), (0.0, 56)],
                         ids=["near-tie", "exact-tie"])
def test_high_rank_tie_is_resolved(gap, steps):
    # any vector of a tied top space is a top pair, so the exact tie converges
    # at 56 steps, before the second tied vector has entered; the near tie
    # at 96
    gamma = _tied_matrix(gap)
    s0 = _svd_reference(gamma)[0]
    apply, adjoint, n, floor = _products(gamma)
    calls = []
    got0, u, v = _top_pairs(*_counted(apply, adjoint, calls), n, floor)
    assert abs(got0 - s0) <= 1e-12 * s0
    assert np.linalg.norm(gamma @ v - got0 * u) <= 1e-12 * s0
    assert len(calls) <= 2 * steps


def test_zero_and_below_floor_sections_give_zero_solution():
    zero = aak_solve(_section({}))
    assert zero.sigma0 == 0.0 and zero.moment_residual == 0.0
    # analytic content only: a zero section under a nonzero peak, so every
    # Lanczos vector comes from the fresh-direction fallback
    analytic = aak_solve(_section({0: 1.0, 3: 0.5}))
    assert analytic.sigma0 == 0.0
    tiny = aak_solve(_section({0: 1.0, -1: 1e-20}))    # sigma0 1e-20 < 1e-13 * peak
    assert tiny.sigma0 == approx(1e-20, rel=1e-12)
    for sol in (zero, analytic, tiny):
        assert np.array_equal(sol.v_coeffs, np.eye(64)[0])
        assert not np.any(sol.w_coeffs)


def test_bounded_symbol_never_estimates_hankel_norm(grid, monkeypatch):
    calls = []
    monkeypatch.setattr(nehari, "hankel_norm_estimate",
                        lambda *args, **kw: calls.append(args))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bounded_symbol(gaussian_symbol(), A, grid=grid)
    assert calls == []


def _counted_solves(sym, grid, monkeypatch):
    """bounded_symbol(sym) and the number of nehari_solve calls it made."""
    calls = []
    solve = nehari.nehari_solve

    def counted(*args, **kw):
        calls.append(args)
        return solve(*args, **kw)

    monkeypatch.setattr(nehari, "nehari_solve", counted)
    return _bounded(sym, grid), len(calls)


@pytest.mark.parametrize("sym", [
    gaussian_symbol(), gaussian_symbol(amp=0.8, width=2.0),
    gaussian_symbol(amp=1.2, width=0.7, shift=0.4),
    bump_spectrum_symbol(0.05, 1.9, seed=11, hermitian=True)],
    ids=["check10-0", "check10-1", "check10-2", "hermitian-bump"])
def test_real_symbol_is_solved_once(grid, sym, monkeypatch):
    out, solves = _counted_solves(sym, grid, monkeypatch)
    assert solves == 1
    assert out.sigma_left == out.sigma_right
    assert np.max(np.abs(out.psi.values.imag)) <= 1e-12 * out.sup_norm
    for p in (1.5, 2.0, 3.0):       # within check 10's bounds
        cert = out.certificate(p)
        assert cert["operator_residual"] <= 1e-3 and cert["c_meas"] <= 20.0


@pytest.mark.parametrize("sym", [gaussian_symbol(mod=0.3)], ids=["mod0.3"])
def test_symbol_with_imaginary_samples_is_solved_twice(grid, sym, monkeypatch):
    assert np.any(samples(sym, grid).values.imag)
    assert _counted_solves(sym, grid, monkeypatch)[1] == 2


def test_hankel_norm_is_the_estimate_on_first_read(right_target, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = nehari_solve(right_target, A, 2.0, grid=grid)
    assert "hankel_norm" not in vars(res)
    assert res.hankel_norm == hankel_norm_estimate(samples(right_target, grid))


# -- the Hankel norm: the same kernel on the lattice operator -------------------


def _lattice_hankel_norm(b: SampledFunction) -> float:
    """Dense SVD of P_- M_b P_+ in the unitary DFT basis, where M_b is the
    circulant of b's DFT and P_+ / P_- keep the nonnegative / negative bins."""
    n = b.grid.count
    c = np.fft.fft(b.values) / n
    neg, nonneg = np.arange(n // 2, n), np.arange(n // 2)
    return np.linalg.svd(c[(neg[:, None] - nonneg[None, :]) % n], compute_uv=False)[0]


@pytest.fixture(scope="module")
def grid32():
    return default_grid(A, 32.0)          # n = 1024


@pytest.mark.parametrize("sym", [gaussian_symbol(), gaussian_symbol(amp=0.8, width=2.0)],
                         ids=["check09", "check10-0.991"])
def test_hankel_norm_matches_lattice_svd(grid32, sym):
    b = samples(_right_target(sym, grid32), grid32)
    ref = _lattice_hankel_norm(b)
    assert abs(hankel_norm_estimate(b) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("value", [0.0, 1.0])
def test_hankel_norm_of_a_constant_stops_at_the_floor(grid, monkeypatch, value):
    # P_- M_1 P_+ = 0, on the lattice rounding noise near 4e-16 that no
    # relative residual test passes; the floor ends the run at the first check
    calls, kernel = [], nehari._top_pairs
    monkeypatch.setattr(nehari, "_top_pairs", lambda apply, adjoint, n, floor:
                        kernel(*_counted(apply, adjoint, calls), n, floor))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = hankel_norm_estimate(SampledFunction(grid, np.full(grid.count, value, complex)))
    assert est <= 1e-13 * value
    assert len(calls) <= 8


def test_hankel_norm_at_the_cap_warns_and_bounds_from_below(grid32, monkeypatch):
    b = samples(_right_target(gaussian_symbol(), grid32), grid32)
    monkeypatch.setattr(nehari, "LANCZOS_CAP", 8)
    with pytest.warns(UserWarning, match="cap of 8 steps") as caught:
        est = hankel_norm_estimate(b)
    assert len(caught) == 1
    assert est <= _lattice_hankel_norm(b)


def test_hankel_norm_memory_is_bounded_by_the_cap(right_target, grid):
    # two bases of LANCZOS_CAP + 1 rows and a few vectors; an n x n basis
    # would be 134 MB on this grid
    n = grid.count
    b = samples(right_target, grid)
    tracemalloc.start()
    try:
        hankel_norm_estimate(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (nehari.LANCZOS_CAP + 1) * n * 16 + 32 * n * 16


def test_completion_memory_is_bounded_by_the_cap():
    # the Lanczos bases and a few vectors on the 8M circle nodes; the M x M
    # section alone would be 67 MB at M = 2048
    M = 2048
    tracemalloc.start()
    try:
        aak_solve(line_to_disk(gaussian_symbol(amp=0.5, width=3.0, mod=-1.0), M))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (nehari.LANCZOS_CAP + 1) * M * 16 + 64 * M * 16
