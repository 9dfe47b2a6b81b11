"""cohspace: reproducing-kernel coherent spaces made computable.

The package turns a kernel function K(z, z') on a label set into working
numerics: Gram-matrix quantum spaces, quantized symmetries, exact coherent
dynamics and their variational (semiquantal) projection, chaos diagnostics,
implicitly defined spectra, and expectation dynamics over Lie *-algebras.

Layout:

- kernels     kernel catalog, Gram/PSD checks, point maps
- causal      lattice sections and the normalization/causality conditions
- qspace      finite quantum spaces from Gram factorizations
- reps        spin monomial representation, exact propagation
- quantize    map/generator quantization on a quantum space
- integrate   embedded Dormand-Prince 8(5,3) pair with deterministic stats
- dynamics    linear coherent flows, exact
- tdvp        variational (Dirac-Frenkel) flows in holomorphic charts
- chaos       kicked semiquantal systems and Lyapunov estimates
- spectra     implicit spectral models lambda_n(E) = m(E) xi_n(E) - k(E)
- liealg      Lie *-algebras, states, expectation evolution
- cli         deterministic command-line front end
"""

# Submodules are imported on demand (import cohspace.kernels etc.).  The
# package root stays numpy-free so the CLI can pin BLAS thread pools via
# environment variables before any numeric library loads.

__version__ = "0.1.0"
