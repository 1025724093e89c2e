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

# Shooting per unit time (1000 steps) at n = 3, one BLAS thread, 2-core Xeon:
# F2/Fq ~0.3 s (no norm solve), FpDelta ~2.7 s (a Hessian and a 63 x 63 eigh
# per evaluation); Fq at n = 4 ~2 s, which needs n_cap=4 or SUGEO_N_CAP.
SHOOT_N_CAP = 3

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

