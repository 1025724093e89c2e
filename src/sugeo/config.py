"""Run configuration: dimension caps and tolerances.

The qubit-count cap exists because everything here is dense: the tangent
space has dimension 4^n (minus one in SU mode), and the coordinate change
is a filter on 2^n x 2^n matrices (its 4^n x 4^n matrix is built only by
the reference power series coords.bch_E_series and the test oracles).
n = 3 is comfortable, n = 4 is the hard ceiling for the algebra layer.
None of the tolerances below is a finite-difference step: the geodesic
layer's derivatives are exact.
"""

from __future__ import annotations

import os

from .errors import InvalidConfig

# Hard ceiling for dense Pauli-basis work (255 tangent dimensions at n=4).
PAULI_N_MAX = 4

# Default cap for lattice enumeration and other exponential-cost paths.
DEFAULT_N_CAP = 3

# Shooting per unit time (1000 steps, off-axis unit y0, step penalty k = 4 on
# weights >= 2), one BLAS thread, 2-core Xeon VM, ranges over the load of the
# shared host: n = 3 Fq 0.26-0.34 s, n = 3 FpDelta (delta = 2e-3) 0.7-1.3 s,
# n = 4 FpDelta (delta = 5e-4) 2.5-3.4 s.
SHOOT_N_CAP = 4

DEFAULT_TOLERANCES = {
    "unitarity": 1e-10,
    "branch_cut": 1e-8,
    "eig_cluster": 1e-8,
}


def env_n_cap(default: int = DEFAULT_N_CAP) -> int:
    """Resolve the enumeration cap, honoring the SUGEO_N_CAP env var."""
    raw = os.environ.get("SUGEO_N_CAP")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise InvalidConfig(f"SUGEO_N_CAP={raw!r} is not an integer") from None
    return max(1, min(value, PAULI_N_MAX))

