"""Acceptance gate: every headline guarantee, one pass/fail line per criterion.

The identity suite in :mod:`pwlab.verify` is run once at the default desk
scale (band 1, window [-64, 64], oversample 8, seed 42) and each criterion
below asserts that all of its rows landed inside their stated bounds.  Rows
carry (measured, bound) with pass defined as measured <= bound; lower bounds
appear as "-floor" rows with the floor in the measured slot.
"""
import pytest

from pwlab import verify
from pwlab.grid import SampledFunction
from pwlab.pwspace import boyd_lower_bound, default_grid, project_band

ROW_IDS = [
    "01-repro-spectral", "01-repro-quadrature", "02-zero-symbol",
    "03-vanishing-spectrum",
    "04-two-term-identity", "04-sandwich-identity", "04-hankel-intertwine",
    "04-projector-norm-p1.5", "04-projector-norm-p2", "04-projector-norm-p3",
    "05-operator-sum", "05-jensen-ratio", "05-cutoff-a-invariance",
    "06-recovery-sweep", "06-central-sup-bound",
    "07-sinc-constant-p1.1", "07-sinc-constant-p1.5", "07-sinc-constant-p2",
    "07-sinc-constant-p3", "07-sinc-constant-p8", "07-sinc-constant-p2-value",
    "08-upper-0", "08-lower-floor-0", "08-upper-1", "08-lower-floor-1",
    "08-upper-2", "08-lower-floor-2",
    "09-moment-match", "09-sup-vs-sigma0", "09-sigma0-vs-hankel",
    "10-operator-residual", "10-constant-ceiling",
    "11-toeplitz-deviation", "11-spoiler-floor", "11-rank-one-defect",
    "12-identity-n64", "12-identity-monotone", "12-gaussian-n64",
    "12-gaussian-monotone",
    "13-reconstruction-sup", "13-reconstruction-l1", "13-nuclear-ceiling",
    "13-pairing-well-defined",
    "14-l1-vs-nuclear-sinc-sq", "14-estimate-vs-nuclear-sinc-sq",
    "14-l1-vs-nuclear-sinc-quartic", "14-estimate-vs-nuclear-sinc-quartic",
]


@pytest.fixture(scope="module")
def report():
    return verify.run_all(a=1.0, p=2.0, seed=42, progress=None)


def _criterion(report, prefix, n_rows, label):
    rows = [r for r in report["checks"] if r["check_id"].startswith(prefix)]
    assert len(rows) == n_rows, f"expected {n_rows} rows under {prefix}"
    ok = all(r["passed"] for r in rows)
    worst = max(rows, key=lambda r: r["measured"] / r["bound"]
                if r["bound"] else 1.0)
    print(f"{'PASS' if ok else 'FAIL'}  criterion {prefix.rstrip('-')}"
          f" ({label}): {sum(r['passed'] for r in rows)}/{len(rows)} rows,"
          f" tightest {worst['check_id']}"
          f" measured={worst['measured']:.3e} bound={worst['bound']:.3e}")
    assert ok, [r["check_id"] for r in rows if not r["passed"]]


def test_01_reproducing_identity(report):
    """In-band sinc is reproduced to 1e-10 sup; quadrature route to 1e-4."""
    _criterion(report, "01-", 2, "reproducing identity")


def test_02_zero_symbol_operator(report):
    """A modulated polynomial symbol assembles to norm <= 1e-8."""
    _criterion(report, "02-", 1, "zero-symbol operator")


def test_03_vanishing_spectrum_symbols(report):
    """Symbols with spectrum outside [-2a, 2a] give norm <= 1e-8."""
    _criterion(report, "03-", 1, "vanishing-spectrum symbols")


def test_04_projector_decomposition(report):
    """Two-term projector identity to 1e-10; norm est <= 2*Riesz + 1e-3."""
    _criterion(report, "04-", 6, "projector decomposition")


def test_05_three_part_splitting(report):
    """Operator sum to 1e-6 relative; part bounds; a-invariant constants."""
    _criterion(report, "05-", 3, "three-part splitting")


def test_06_central_recovery(report):
    """Sweep recovery to 1e-5 sup; central sup bound with 5% slack."""
    _criterion(report, "06-", 2, "central recovery")


def test_07_sinc_constant_growth(report):
    """||sinc_1||_q ||sinc_{1/8}||_p under (4/pi)(p + 1/(p-1)); sqrt2/2 at 2."""
    _criterion(report, "07-", 6, "sinc constant growth")


def test_08_norm_equivalence_sandwich(report):
    """Real double-band symbols: norm within [sup/3 * 0.95, sup * 1.001]."""
    _criterion(report, "08-", 6, "norm equivalence sandwich")


def test_09_minimal_hankel_completion(report):
    """Moments to 1e-6*sigma0; sup <= 1.05*sigma0; sigma0 vs Hankel 5%."""
    _criterion(report, "09-", 3, "minimal completion")


def test_10_bounded_symbol_pipeline(report):
    """Operator residual <= 1e-3 relative; sup ratio under ceiling 20."""
    _criterion(report, "10-", 2, "bounded-symbol pipeline")


def test_11_commutator_characterization(report):
    """Toeplitz deviate <= 1e-6, spoiled >= 1e-3; defect identity 1e-6."""
    _criterion(report, "11-", 3, "commutator characterization")


def test_12_series_reconstruction(report):
    """Interior-basis residual at order 64 <= 5% and below order 8."""
    _criterion(report, "12-", 4, "series reconstruction")


def test_13_weak_factorization(report):
    """Residuals 1e-6 sup / 1e-5 L1; finite nuclear sum; pairing 1e-6."""
    _criterion(report, "13-", 4, "weak factorization")


def test_14_nuclear_norm_sandwich(report):
    """||h||_1 and the sampled estimate are both <= the nuclear sum."""
    _criterion(report, "14-", 4, "nuclear norm sandwich")


def test_suite_is_complete_and_green(report):
    meta = report["meta"]
    assert meta["n_rows"] == 47
    assert meta["all_pass"] is True
    assert meta["elapsed_s"] < 300.0  # desk-scale runtime budget


def test_row_ids_and_order_are_pinned(report):
    assert [r["check_id"] for r in report["checks"]] == ROW_IDS


def test_04_conjugate_exponents_share_one_estimate(report):
    by_id = {r["check_id"]: r for r in report["checks"]}
    p15, p3 = by_id["04-projector-norm-p1.5"], by_id["04-projector-norm-p3"]
    assert p15["measured"] == p3["measured"] and p15["bound"] == p3["bound"]
    assert p15["note"] == p3["note"]


def test_04_runs_one_estimate_per_conjugate_pair(monkeypatch):
    boyd_ps, riesz_ps = [], []
    boyd, riesz = verify.boyd_lower_bound, verify.riesz_constant_estimate
    monkeypatch.setattr(verify, "boyd_lower_bound", lambda f, g, n, p, **kw:
                        boyd_ps.append(p) or boyd(f, g, n, p, **kw))
    monkeypatch.setattr(verify, "riesz_constant_estimate",
                        lambda p: riesz_ps.append(p) or riesz(p))
    verify.check_04_projector(1.0, 42)
    assert sorted(boyd_ps) == [2.0, 3.0] and sorted(riesz_ps) == [2.0, 3.0]


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_04_shared_estimate_is_at_least_a_separate_p15_run(seed):
    grid = default_grid(1.0)

    def apply(v):
        return project_band(SampledFunction(grid, v), 1.0).values

    shared = next(r.measured for r in verify.check_04_projector(1.0, seed)
                  if r.check_id == "04-projector-norm-p1.5")
    alone = boyd_lower_bound(apply, apply, grid.count, 1.5, weight=grid.step,
                             seed=seed)
    assert shared >= alone


def test_warnings_are_recorded_per_check(report):
    names = [fn.__name__ for fn in verify.ALL_CHECKS]
    keys = [(w["check"], w["category"], w["message"])
            for w in report["meta"]["warnings"]]
    assert len(keys) == len(set(keys))  # deduplicated within a check
    for w in report["meta"]["warnings"]:
        assert w["check"] in names and w["message"] and w["count"] >= 1
    # the bounded-symbol pipeline's short truncations warn about their tails
    assert any(w["check"] == "check_10_bounded_symbol" and "tail ratio" in w["message"]
               for w in report["meta"]["warnings"])
