"""Nuclear-sum cost of weak factorization as the band margin shrinks.

A target on band 2b factorizes through atom pairs on band a only when b < a;
the pair weights come from a triangle deconvolution whose denominator
vanishes at b = a, so the nuclear sum must blow up as the margin a - b
closes.  This script fixes the atom band and sweeps b, reporting pair
counts, residuals, and the nuclear sum.

    python3 scripts/factorization_margin.py --band 1
"""
import argparse

from pwlab.factorize import weak_factorize
from pwlab.grid import SampledFunction, lp_norm
from pwlab.pwspace import default_grid, project_band, sinc_kernel

B_SWEEP = [0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.975]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--band", type=float, default=1.0)
    ap.add_argument("--p", type=float, default=2.0)
    args = ap.parse_args()

    a = args.band
    grid = default_grid(a)
    print(f"{'b':>6} {'pairs':>6} {'nuclear':>10} {'|h|_1':>8} "
          f"{'sup resid':>10} {'L1 resid':>10}")
    for b in (a * s for s in B_SWEEP):
        k = sinc_kernel(b, 0.0, grid)
        h = project_band(SampledFunction(grid, k.values ** 2), 2.0 * b)
        F = weak_factorize(h, a, args.p)
        print(f"{b:6.3f} {len(F):6d} {F.nuclear_sum:10.4f} "
              f"{lp_norm(h.fun, 1.0):8.4f} {F.residual_sup:10.2e} "
              f"{F.residual_l1:10.2e}")
    print(f"\natom band a = {a}; the triangle denominator 1 - |xi|/(2a) "
          "vanishes at |xi| = 2a,\nso weights (and the nuclear sum) grow "
          "without bound as b -> a.")


if __name__ == "__main__":
    main()
