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
norms_batch call per metric, and every sample of a circuit's curve comes
from one batched product against the circuit's prefix products.
random_unitary draws the conjugating unitaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coords import UnitaryOperator
from .errors import DimensionMismatch, NonFiniteInput, NotGBounding
from .metrics import F1, F1DELTA, F2, FP, FPDELTA, FQ, MetricSpec, norms_batch
from .pauli import (
    SU,
    PauliVector,
    algebra,
    basis_dimension,
    check_bytes,
    check_n,
    check_traceless,
    coefficients,
    json_int,
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
            Gate(g["pauli"], float(g["alpha"]), tuple(json_int(q, "qubit") for q in g["qubits"]))
            for g in obj["gates"]
        ]
        return cls(json_int(obj["n"], "n"), gates)


def _prefix_products(circuit: Circuit, strings: list) -> np.ndarray:
    """pairs[j] = (V_j, W_j): V_j the product of the first j gates, W_j = -i sigma_j V_j.

    sigma_j^2 = I, so V_{j+1} = cos(alpha_j) V_j + sin(alpha_j) W_j: one
    matrix product per gate.  pairs has m + 1 rows; its last W is zero.
    """
    dim = 2**circuit.n
    pairs = np.zeros((len(strings) + 1, 2, dim, dim), dtype=complex)
    pairs[0, 0] = np.eye(dim)
    for j, (g, s) in enumerate(zip(circuit.gates, strings)):
        V, W = pairs[j]
        np.matmul(pauli_matrix(s), V, out=W)
        W *= -1j
        pairs[j + 1, 0] = np.cos(g.alpha) * V + np.sin(g.alpha) * W
    return pairs


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Product U_m ... U_1 (gate 1 applied first); n is checked first."""
    check_n(circuit.n)
    return _prefix_products(circuit, [circuit.full_string(g) for g in circuit.gates])[-1, 0]


# ---------------------------------------------------------------------------
# circuit-to-curve construction

_SAMPLES_PER_SEGMENT = 250
# The exactly-universal gate set: exp(-i alpha sigma), 1 <= wt(sigma) <= 2, alpha in [0, 1].
_MAX_GATE_WEIGHT = 2
_ALPHA_MAX = 1.0


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
    def stats(self) -> dict:
        return {"gates": self.gate_count, "samples": len(self.ts),
                "stack_bytes": self.unitaries.nbytes}

    @property
    def bound_holds(self) -> bool:
        return self.length <= self.gate_count + 1e-6


@lru_cache(maxsize=256)
def _unit_norms(spec: MetricSpec, n: int) -> np.ndarray:
    """F(sigma) of every unit string, one norms_batch call per (spec, n), cached read-only."""
    out = norms_batch(spec, np.eye(basis_dimension(n, spec.mode)))
    out.setflags(write=False)
    return out


def circuit_to_curve(circuit: Circuit, spec: MetricSpec) -> CircuitTrajectory:
    """The trajectory of dV/dt = -i r(t) m alpha_j sigma_j V, in closed form.

    sigma_j^2 = I, so on segment j (t in [j/m, (j+1)/m], 0-based) the curve is
    V(t) = cos theta V_j + sin theta W_j, with V_j the product of the first j
    gates, W_j = -i sigma_j V_j and theta(t) = alpha_j (m t - j - sin(2 pi m t)
    / (2 pi)).  The speed is r(t) m alpha_j F(sigma_j) and the length is
    exactly sum_j alpha_j F(sigma_j), which never exceeds the gate count for
    a G-bounding metric.  n is checked first, then each gate in turn: its
    weight, its alpha, its string and its norm alpha F(sigma) <= 1, with
    F(sigma) read from the norms of the 4^n unit strings, computed once per
    (spec, n) (G-bounding is a property of the penalties, not of the spec
    label); the first gate at fault raises.

    Cost: one matrix product per gate (_prefix_products), then one batched
    product of every (cos theta, sin theta) pair against its (V_j, W_j),
    written straight into the stack of _SAMPLES_PER_SEGMENT samples a
    segment, so the peak memory is about the stack, (250 m + 1) 4^n complex
    numbers.  Working range: n <= 4 and a stack within pauli.MAX_BYTES
    (67108, 16777, 4194 and 1048 gates at n = 1..4); a longer circuit raises
    StepLimitExceeded after the gate checks and before the stack is allocated.
    """
    check_n(circuit.n)
    m = len(circuit.gates)
    dim = 2**circuit.n
    if m == 0:
        ts = np.array([0.0, 1.0])
        return CircuitTrajectory(
            circuit, spec, ts, np.array([np.eye(dim, dtype=complex)] * 2), np.zeros(2), 0.0, 0.0
        )

    # F is 1-homogeneous, so a gate's norm is alpha F(sigma): every string is normed once
    unit_norms = _unit_norms(spec, circuit.n)
    idx = string_index(circuit.n, spec.mode)
    strings, gate_norms = [], np.empty(m)
    for j, g in enumerate(circuit.gates):
        if not 1 <= weight(g.pauli) <= _MAX_GATE_WEIGHT:
            raise ValueError(f"gate weight {weight(g.pauli)} outside the gate set")
        if not 0.0 <= g.alpha <= _ALPHA_MAX:
            raise ValueError(f"gate alpha {g.alpha} outside [0, {_ALPHA_MAX}]")
        strings.append(circuit.full_string(g))
        gate_norms[j] = g.alpha * unit_norms[idx[strings[-1]]]
        if gate_norms[j] > 1.0 + 1e-12:
            raise NotGBounding(
                f"gate Hamiltonian {g.alpha:.3g}*{strings[-1]} has norm {gate_norms[j]:.6f} > 1"
            )
    alphas = np.array([g.alpha for g in circuit.gates])

    k = _SAMPLES_PER_SEGMENT
    # the sample stack; ts and the (cos, sin) pairs, then the speeds' temporaries, add 24 B a sample
    check_bytes((m * k + 1) * dim * dim * 16, f"the sample stack of {m} gates at n={circuit.n}")

    ts = np.arange(m * k + 1) / (m * k)
    T = ts[1:].reshape(m, k)
    theta = alphas[:, None] * (
        m * T - np.arange(m)[:, None] - np.sin(2 * np.pi * m * T) / (2 * np.pi)
    )
    theta = np.stack((np.cos(theta), np.sin(theta)), axis=-1)  # as (cos, sin) pairs

    pairs = _prefix_products(circuit, strings)
    unitaries = np.empty((m * k + 1, dim, dim), dtype=complex)
    unitaries[0] = pairs[0, 0]
    # sample i of segment j is cos theta_ji V_j + sin theta_ji W_j: one real
    # product on the interleaved (re, im) views gives both parts at once
    np.matmul(
        theta,
        pairs[:-1].view(float).reshape(m, 2, 2 * dim * dim),
        out=unitaries[1:].view(float).reshape(m, k, 2 * dim * dim),
    )
    del theta  # before the speeds are made, so that the peak is about the stack
    speeds = regularizer(m)(ts)
    speeds *= m
    segment_speeds = speeds[1:].reshape(m, k)
    segment_speeds *= gate_norms[:, None]
    endpoint_error = float(np.max(np.abs(unitaries[-1] - pairs[-1, 0])))
    return CircuitTrajectory(
        circuit, spec, ts, unitaries, speeds, float(sum(gate_norms)), endpoint_error
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
    """Pushforward H -> h(H) for one of the conjugation-type global maps (operator: unitary)."""

    kind: str
    operator: np.ndarray = None
    pauli: str = None

    def __post_init__(self):
        if self.kind not in _APPLICABLE:
            raise ValueError(f"unknown isometry kind {self.kind!r}")
        if self.kind == "pauli":
            if not self.pauli:
                raise ValueError("pauli kind needs a Pauli string")
        elif self.kind != "complex_conjugation":
            if self.operator is None:
                raise ValueError(f"{self.kind} kind needs a unitary operator")
            self.operator = UnitaryOperator(len(self.operator).bit_length() - 1, self.operator).matrix

    def applicable(self, spec: MetricSpec) -> bool:
        return spec.family in _APPLICABLE[self.kind]

    def push(self, H: np.ndarray) -> np.ndarray:
        H = matrix_of(H)
        if self.kind == "complex_conjugation":
            return -H.conj()
        size = 2 ** len(self.pauli) if self.kind == "pauli" else len(self.operator)
        if size != H.shape[-1]:  # checked before a Pauli string's matrix is built
            raise DimensionMismatch(f"the {self.kind} map acts on dimension {size}, H on {H.shape[-1]}")
        W = pauli_matrix(self.pauli) if self.kind == "pauli" else self.operator
        return W @ H @ W.conj().T


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
    trace raises NonTracelessInSUMode.  n is checked (by basis_dimension)
    before the draw; a map whose size is not 2^n raises DimensionMismatch.
    Working range: n <= 4 and 1 <= samples (else ValueError), with samples
    (8 (4^n - 1) + 48 4^n) bytes within pauli.MAX_BYTES (else StepLimitExceeded
    before the draw): 4971026, 1209168, 300263 and 74940 samples at n = 1..4.
    """
    d = basis_dimension(n, SU)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    # per sample: the draw, its matrix H, W H and the pushed W H W^+
    check_bytes(samples * (8 * d + 3 * 16 * 4**n), f"{samples} isometry samples at n={n}")
    ys = np.random.default_rng(seed).standard_normal((samples, d))
    pushed = iso.push(algebra(ys, n, SU))
    check_traceless(pushed)
    pushed = coefficients(pushed, n, SU)
    dev = np.abs(norms_batch(spec, pushed) - norms_batch(spec, ys))
    broken = np.flatnonzero(dev > 1e-6)
    counterexample = PauliVector(n, SU, ys[broken[0]]) if broken.size else None
    return IsometryCheckResult(float(dev.max(initial=0.0)), iso.applicable(spec), counterexample)


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
