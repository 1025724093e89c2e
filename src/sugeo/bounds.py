"""Circuit-length upper bounds on distance, and the isometry catalogue.

If every Hamiltonian generating a gate of the universal set has norm at
most 1 (the metric is "G-bounding"), then a circuit of m gates yields a
smooth curve from I to its product of length at most m, hence
d_F(I, U) <= m.  The curve follows the piecewise gate controls scaled by
m and multiplied by a regularizer r(t) vanishing at the segment joints,
so the control is smooth and each segment contributes exactly
alpha_j * F(sigma_j) <= 1.

The isometry section checks which conjugation-type maps preserve which
norms: Pauli conjugation and complex conjugation preserve all families
(signed permutations of coefficients), Clifford conjugation preserves the
weight-blind families (permutations of the Pauli basis), local-unitary
conjugation preserves weights but mixes coefficients orthogonally (F2 and
Fq survive), and arbitrary unitary conjugation leaves only F2.

Each check is one batched pass: the gate norms of a circuit, and the
random samples of an isometry or sign-flip check, go through one
norms_batch call per metric.  random_unitary draws the conjugating
unitaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, NotGBounding
from .metrics import F1, F1DELTA, F2, FP, FPDELTA, FQ, MetricSpec, norms_batch
from .pauli import (
    SU,
    PauliVector,
    algebra,
    basis_dimension,
    check_traceless,
    coefficients,
    matrix_of,
    pauli_matrix,
    string_index,
    validate_string,
    weight,
)

# ---------------------------------------------------------------------------
# gates and circuits


@dataclass(frozen=True)
class Gate:
    """exp(-i alpha sigma) acting on the listed qubits (one letter each)."""

    pauli: str
    alpha: float
    qubits: tuple

    def __post_init__(self):
        validate_string(self.pauli)
        if not math.isfinite(self.alpha):
            raise NonFiniteInput(f"gate alpha {self.alpha} is not finite")
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if len(self.pauli) != len(self.qubits):
            raise DimensionMismatch("one Pauli letter per acted-on qubit")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("repeated qubit in gate")


@dataclass(frozen=True)
class GateSet:
    """The exactly-universal set exp(-i alpha sigma), wt(sigma) <= 2, alpha in [0,1]."""

    max_weight: int = 2
    alpha_max: float = 1.0

    def validate(self, gate: Gate):
        if weight(gate.pauli) > self.max_weight or weight(gate.pauli) == 0:
            raise ValueError(f"gate weight {weight(gate.pauli)} outside the gate set")
        if not 0.0 <= gate.alpha <= self.alpha_max:
            raise ValueError(f"gate alpha {gate.alpha} outside [0, {self.alpha_max}]")


@dataclass
class Circuit:
    n: int
    gates: list

    def full_string(self, gate: Gate) -> str:
        letters = ["I"] * self.n
        for q, c in zip(gate.qubits, gate.pauli):
            if not 0 <= q < self.n:
                raise DimensionMismatch(f"qubit {q} outside 0..{self.n - 1}")
            letters[q] = c
        return "".join(letters)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "gates": [
                {"pauli": g.pauli, "alpha": float(g.alpha), "qubits": list(g.qubits)}
                for g in self.gates
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Circuit":
        gates = [
            Gate(g["pauli"], float(g["alpha"]), tuple(g["qubits"]))
            for g in obj["gates"]
        ]
        return cls(int(obj["n"]), gates)


def gate_unitary(circuit: Circuit, gate: Gate) -> np.ndarray:
    """exp(-i alpha sigma) = cos(alpha) I - i sin(alpha) sigma (sigma^2 = I)."""
    sigma = pauli_matrix(circuit.full_string(gate))
    dim = 2**circuit.n
    return np.cos(gate.alpha) * np.eye(dim) - 1j * np.sin(gate.alpha) * sigma


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Product U_m ... U_1 (gate 1 applied first)."""
    dim = 2**circuit.n
    U = np.eye(dim, dtype=complex)
    for g in circuit.gates:
        U = gate_unitary(circuit, g) @ U
    return U


# ---------------------------------------------------------------------------
# circuit-to-curve construction

_SAMPLES_PER_SEGMENT = 250


def regularizer(m: int):
    """r(t) = 1 - cos(2 pi m t): zero at multiples of 1/m, segment integrals 1/m."""
    if m < 1:
        raise ValueError("m must be >= 1")

    def r(t):
        return 1.0 - np.cos(2 * np.pi * m * t)

    return r


@dataclass
class CircuitTrajectory:
    """Schrodinger trajectory of the regularized circuit controls on [0, 1]."""

    circuit: Circuit
    spec: MetricSpec
    ts: np.ndarray
    unitaries: np.ndarray
    speeds: np.ndarray
    length: float
    endpoint_error: float

    @property
    def gate_count(self) -> int:
        return len(self.circuit.gates)

    @property
    def bound_holds(self) -> bool:
        return self.length <= self.gate_count + 1e-6


def circuit_to_curve(circuit: Circuit, spec: MetricSpec) -> CircuitTrajectory:
    """The trajectory of dV/dt = -i r(t) m alpha_j sigma_j V, in closed form.

    sigma_j^2 = I, so on segment j (t in [j/m, (j+1)/m], 0-based) the curve is
    V(t) = (cos theta I - i sin theta sigma_j) V_j with V_j the product of the
    first j gates and theta(t) = alpha_j (m t - j - sin(2 pi m t) / (2 pi)).
    The speed is r(t) m alpha_j F(sigma_j) and the length is exactly
    sum_j alpha_j F(sigma_j), which never exceeds the gate count for a
    G-bounding metric.  Every gate Hamiltonian is checked against the metric
    at entry, all gate norms in one norms_batch call (G-bounding is a
    property of the penalties, not of the spec label); the error raised is
    that of the first gate that is malformed or over the bound, as when each
    gate was checked in turn.  Each segment is sampled at
    _SAMPLES_PER_SEGMENT points.
    """
    gate_set = GateSet()
    m = len(circuit.gates)
    dim = 2**circuit.n
    eye = np.eye(dim, dtype=complex)
    if m == 0:
        ts = np.array([0.0, 1.0])
        return CircuitTrajectory(
            circuit, spec, ts, np.array([eye, eye]), np.zeros(2), 0.0, 0.0
        )

    strings, invalid = [], None
    for g in circuit.gates:
        try:
            gate_set.validate(g)
            strings.append(circuit.full_string(g))
        except (ValueError, DimensionMismatch) as err:
            invalid = err
            break
    # the gates before the first malformed one are bounded first, so the
    # error raised is that of the first gate at fault, malformed or over
    idx = string_index(circuit.n, spec.mode)
    hamiltonians = np.zeros((len(strings), basis_dimension(circuit.n, spec.mode)))
    hamiltonians[np.arange(len(strings)), [idx[s] for s in strings]] = [
        g.alpha for g in circuit.gates[: len(strings)]
    ]
    gate_norms = norms_batch(spec, hamiltonians)
    for g, s, gate_norm in zip(circuit.gates, strings, gate_norms):
        if gate_norm > 1.0 + 1e-12:
            raise NotGBounding(
                f"gate Hamiltonian {g.alpha:.3g}*{s} has norm {gate_norm:.6f} > 1"
            )
    if invalid is not None:
        raise invalid

    k = _SAMPLES_PER_SEGMENT
    ts = np.arange(m * k + 1) / (m * k)
    r = regularizer(m)(ts)
    V = eye
    unitaries = [V[None]]
    speeds = [np.zeros(1)]
    for j, (g, s, gate_norm) in enumerate(zip(circuit.gates, strings, gate_norms)):
        seg = slice(j * k + 1, (j + 1) * k + 1)
        theta = g.alpha * (m * ts[seg] - j - np.sin(2 * np.pi * m * ts[seg]) / (2 * np.pi))
        sigma_V = pauli_matrix(s) @ V
        unitaries.append(
            np.cos(theta)[:, None, None] * V - 1j * np.sin(theta)[:, None, None] * sigma_V
        )
        speeds.append(r[seg] * m * gate_norm)
        V = gate_unitary(circuit, g) @ V

    unitaries = np.concatenate(unitaries)
    endpoint_error = float(np.max(np.abs(unitaries[-1] - V)))
    return CircuitTrajectory(
        circuit, spec, ts, unitaries, np.concatenate(speeds), float(sum(gate_norms)),
        endpoint_error,
    )


# ---------------------------------------------------------------------------
# isometries


_APPLICABLE = {
    "pauli": (F1, F2, FP, FQ, F1DELTA, FPDELTA),
    "complex_conjugation": (F1, F2, FP, FQ, F1DELTA, FPDELTA),
    "clifford": (F1, F1DELTA, F2),
    "local_unitary": (F2, FQ),
    "unitary": (F2,),
}


@dataclass
class IsometryMap:
    """Pushforward H -> h(H) for one of the conjugation-type global maps."""

    kind: str
    operator: np.ndarray = None
    pauli: str = None

    def __post_init__(self):
        if self.kind not in _APPLICABLE:
            raise ValueError(f"unknown isometry kind {self.kind!r}")
        if self.kind == "pauli":
            if self.pauli is None:
                raise ValueError("pauli kind needs a Pauli string")
        elif self.kind != "complex_conjugation":
            if self.operator is None:
                raise ValueError(f"{self.kind} kind needs a unitary operator")
            self.operator = np.asarray(self.operator, dtype=complex)

    def applicable(self, spec: MetricSpec) -> bool:
        return spec.family in _APPLICABLE[self.kind]

    def push(self, H: np.ndarray) -> np.ndarray:
        H = matrix_of(H)
        if self.kind == "pauli":
            sigma = pauli_matrix(self.pauli)
            return sigma @ H @ sigma
        if self.kind == "complex_conjugation":
            return -H.conj()
        return self.operator @ H @ self.operator.conj().T


@dataclass
class IsometryCheckResult:
    max_deviation: float
    applicable: bool
    counterexample: PauliVector = None


def isometry_check(
    iso: IsometryMap, spec: MetricSpec, samples: int = 200, n: int = 2,
    seed: int = 20260822,
) -> IsometryCheckResult:
    """Max |F(h(H)) - F(H)| over random Hamiltonians, all pushed in one batch.

    Applicable pairs per the catalogue must come out < 1e-10; for pairs
    declared inapplicable, the first Hamiltonian with deviation > 1e-6 is
    kept as the counterexample.  The samples are the rows of one
    standard_normal((samples, 4^n - 1)) draw.  A pushed Hamiltonian with a
    trace (a non-unitary operator) raises NonTracelessInSUMode.
    """
    ys = np.random.default_rng(seed).standard_normal((samples, basis_dimension(n, SU)))
    pushed = iso.push(algebra(ys, n, SU))
    check_traceless(pushed)
    pushed = coefficients(pushed, n, SU)
    dev = np.abs(norms_batch(spec, pushed) - norms_batch(spec, ys))
    broken = np.flatnonzero(dev > 1e-6)
    counterexample = PauliVector(n, SU, ys[broken[0]]) if broken.size else None
    return IsometryCheckResult(float(dev.max(initial=0.0)), iso.applicable(spec), counterexample)


def pauli_symmetric_check(spec: MetricSpec, samples: int = 50, n: int = 2,
                          seed: int = 20260822) -> bool:
    """Norm invariance under random sign flips of the coefficients, in one batch."""
    rng = np.random.default_rng(seed)
    shape = (samples, basis_dimension(n, spec.mode))
    ys = rng.standard_normal(shape)
    flipped = rng.choice([-1.0, 1.0], size=shape) * ys
    F = norms_batch(spec, ys)
    return bool(np.all(np.abs(norms_batch(spec, flipped) - F) <= 1e-12 * np.maximum(1.0, F)))


# ---------------------------------------------------------------------------
# named Clifford operators (for isometry checks)


def cnot_matrix() -> np.ndarray:
    """CNOT, control qubit 0 (most significant bit), target qubit 1."""
    return np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )


def hadamard_matrix() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def s_matrix() -> np.ndarray:
    return np.diag([1.0, 1.0j])


def swap_matrix() -> np.ndarray:
    return np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )


def local_unitary(factors) -> np.ndarray:
    """Tensor product of single-qubit unitaries, qubit 0 leftmost."""
    W = np.array([[1.0 + 0j]])
    for f in factors:
        W = np.kron(W, np.asarray(f, dtype=complex))
    return W


def random_unitary(rng, dim: int) -> np.ndarray:
    """Haar-random dim x dim unitary via QR of a complex Gaussian (phases of R fixed)."""
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(A)
    return Q @ np.diag(np.exp(-1j * np.angle(np.diag(R))))
