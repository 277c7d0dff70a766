"""Numerical toolkit for spherical cone metrics.

Modules:

- ``angles``: admissible-angle regions (conic Euler characteristic,
  Troyanov and lattice-distance criteria, subcritical and coaxial tests,
  splitting data validation).
- ``factorization``: the weighted factorization map between split cone-point
  positions and polynomial coefficients, its inverse branches, ray
  expansions, and the two-point blowup chart.
- ``spectrum``: closed-form and numeric spectra of conic Laplacians on
  footballs, and the spectral-flow crossing report.
- ``liouville``: constant-curvature Liouville solvers on the disk, the
  football, and the sphere, the spectrum of Delta_g near 2, the eigenvalue-2
  obstruction fiber, projected solves, and indicial-expansion fits.
- ``pairing``: the obstruction pairing between eigenfunctions at 2 and
  splitting directions, its kernel, case classification, and the
  vanishing certificate of the splitting factor's rho-derivatives.
- ``cli``: the ``conemetric`` command-line front-end.
- ``acceptance``: the end-to-end verification suite behind
  ``conemetric verify``.
"""

import os as _os

# Cap numeric worker threads before the array libraries spin up their pools.
_threads = _os.environ.get("CONEMETRIC_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from . import angles, factorization, liouville, pairing, spectrum

__version__ = "0.1.0"

__all__ = [
    "angles",
    "factorization",
    "liouville",
    "pairing",
    "spectrum",
    "__version__",
]
