"""Run configuration: dimension caps and tolerances.

The qubit-count cap exists because everything here is dense: the tangent
space has dimension 4^n (minus one in SU mode) and the coordinate-change
superoperator is 4^n x 4^n.  n = 3 is comfortable, n = 4 is the hard
ceiling for the algebra layer.
"""

from __future__ import annotations

import os

from .errors import InvalidConfig

# Hard ceiling for dense Pauli-basis work (255 tangent dimensions at n=4).
PAULI_N_MAX = 4

# Default cap for lattice enumeration and other exponential-cost paths.
DEFAULT_N_CAP = 3

# Geodesic shooting is Gamma-contraction-per-step; n=2 (d=15) by default,
# n=3 permitted by passing n_cap=3 explicitly.
SHOOT_N_CAP = 2

DEFAULT_TOLERANCES = {
    "unitarity": 1e-10,
    "branch_cut": 1e-8,
    "eig_cluster": 1e-8,
    "pinv_cutoff": 1e-10,
    "fd_step_x": 1e-5,
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

