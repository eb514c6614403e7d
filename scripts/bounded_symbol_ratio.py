"""Measured sup-norm inflation of the bounded-symbol construction.

For a symbol phi the construction returns a bounded psi generating the same
Toeplitz operator.  Theory promises ||psi||_inf <= c (p + 1/(p-1)) ||T_phi||
with an unquantified universal c; this script tabulates the measured ratio
and the implied c across symbol shapes and p values, so the constant can be
watched instead of trusted.

    python3 scripts/bounded_symbol_ratio.py --truncation 256
"""
import argparse
import warnings

from pwlab.nehari import bounded_symbol
from pwlab.pwspace import default_grid
from pwlab.symbols import bump_spectrum_symbol, gaussian_symbol

SYMBOLS = [
    ("gauss-narrow", lambda: gaussian_symbol(amp=1.0, width=0.5)),
    ("gauss-wide", lambda: gaussian_symbol(amp=1.0, width=4.0)),
    ("gauss-shifted", lambda: gaussian_symbol(amp=0.7, width=2.0, shift=1.5)),
    ("bump-hermitian", lambda: bump_spectrum_symbol(0.05, 1.9, seed=7,
                                                    hermitian=True)),
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--band", type=float, default=1.0)
    ap.add_argument("--truncation", type=int, default=256)
    args = ap.parse_args()

    grid = default_grid(args.band)
    print(f"{'symbol':>15} {'p':>4} {'|T|':>8} {'|psi|_inf':>10} "
          f"{'residual':>10} {'ratio':>8} {'c_meas':>8}")
    for name, make in SYMBOLS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = bounded_symbol(make(), args.band, M=args.truncation, grid=grid)
        for p in (1.5, 2.0, 3.0):       # one construction, certified per p
            cert = res.certificate(p)
            print(f"{name:>15} {p:4.1f} {cert['t_norm']:8.4f} "
                  f"{res.sup_norm:10.4f} {cert['operator_residual']:10.2e} "
                  f"{cert['ratio']:8.4f} {cert['c_meas']:8.4f}")


if __name__ == "__main__":
    main()
