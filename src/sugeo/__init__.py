"""Right-invariant Finsler metrics on SU(2^n)/U(2^n) and their geodesics."""

from .bounds import Circuit, Gate, IsometryMap, circuit_to_curve, isometry_check
from .coords import (
    UnitaryOperator,
    change_coords_backward,
    change_coords_forward,
    pauli_log,
    unitary_from_coords,
)
from .errors import SugeoError
from .geodesic import (
    Curve,
    curve_length,
    el_residual,
    pauli_geodesic,
    pauli_geodesic_curve,
    shoot_geodesic,
)
from .lattice import DiagonalUnitary, coverage_bound, cvp_minimal_pauli_geodesic
from .metrics import (
    F1,
    F1DELTA,
    F2,
    FP,
    FPDELTA,
    FQ,
    MetricSpec,
    PenaltyFunction,
    norm,
)
from .pauli import SU, U, PauliVector, pauli_strings, stabilizer_span

__version__ = "0.1.0"
