"""Reference implementations that only the tests read.  pytest puts this
directory on sys.path, so a test module imports them as `from reference
import ...`."""
import numpy as np

from pwlab.grid import SampledFunction, _require_same_grid


def inner(f: SampledFunction, g: SampledFunction) -> complex:
    """L2 pairing <f, g> = step * sum f conj(g)."""
    _require_same_grid(f, g)
    return complex(f.grid.step * np.sum(f.values * np.conj(g.values)))
