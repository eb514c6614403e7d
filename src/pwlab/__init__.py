"""pwlab: a numerical laboratory for Toeplitz operators on band-limited
(Paley-Wiener) function spaces.

Layers, bottom up: `grid` (sampled functions and FFT spectra on uniform
lattices), `pwspace` (band projections, reproducing kernels, p-norm
machinery), `symbols` (symbol specifications), `toeplitz` (operator
application and Nyquist-basis matrices), `split` (three-part spectral
splitting and central-symbol recovery), `nehari` (minimal Hankel completions
and the bounded-symbol pipeline), `commutator` (the Toeplitz characterization
test, operator series, and symbol recovery), `factorize` (constructive weak
factorization and the duality pairing), `verify` (the identity suite), and
`cli` (the command-line surface).
"""

__version__ = "0.1.0"
