"""Reference implementations that only the tests read.  pytest puts this
directory on sys.path, so a test module imports them as `from reference
import ...`."""
import numpy as np

from pwlab.commutator import _omega_kernel
from pwlab.grid import (SampledFunction, _require_same_grid, fft_spectrum,
                        inverse_spectrum)


def inner(f: SampledFunction, g: SampledFunction) -> complex:
    """L2 pairing <f, g> = step * sum f conj(g)."""
    _require_same_grid(f, g)
    return complex(f.grid.step * np.sum(f.values * np.conj(g.values)))


def lattice_omega_adjoint(f: SampledFunction) -> SampledFunction:
    """The exact adjoint of `commutator.lattice_omega_apply`: the spectrum
    correlated against the same Blaschke column."""
    spec = fft_spectrum(f)
    n = f.grid.count
    out = np.convolve(spec.values, _omega_kernel(n, f.grid.freq_step)[::-1])[n - 1:]
    return inverse_spectrum(SampledFunction(spec.grid, out), start=f.grid.start)
