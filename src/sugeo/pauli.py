"""Generalized Pauli basis for su(2^n) / u(2^n).

Pauli strings are plain Python strings over the alphabet {I, X, Y, Z},
one letter per qubit, leftmost letter = qubit 0 = first tensor factor.
The canonical basis order is lexicographic with I < X < Y < Z (plain
string comparison does this already), which puts the identity string
first in U mode.  Basis normalization: tr(sigma sigma') = 2^n delta.

Two basis modes exist:

  SU — identity string excluded, dimension 4^n - 1 (traceless algebra)
  U  — identity string included, dimension 4^n

`PauliVector` is a real coefficient vector over this basis in canonical
order.  It is used for Hamiltonian coefficients, Pauli coordinates of a
unitary, and tangent-vector coordinates alike.

`algebra` (coefficients -> matrices) and `coefficients` (matrices ->
coefficients) are the only conversions between the two: they act on
stacks, and `to_matrix`/`project_to_pauli` call them on a batch of one.
`check_traceless` is the SU-mode trace check of a stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .config import PAULI_N_MAX
from .errors import (
    DimensionLimit,
    DimensionMismatch,
    NonFiniteInput,
    NonTracelessInSUMode,
    NotCommuting,
    NotIndependent,
)

SU = "SU"
U = "U"

LETTERS = "IXYZ"

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# F2 x F2 encoding of the letters: product-up-to-phase is coordinatewise XOR.
_F2 = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_F2_INV = {v: k for k, v in _F2.items()}


def check_n(n: int):
    if not 1 <= n <= PAULI_N_MAX:
        raise DimensionLimit(f"n={n} outside supported range 1..{PAULI_N_MAX}")


def validate_string(s: str) -> str:
    if not s or any(c not in LETTERS for c in s):
        raise ValueError(f"not a Pauli string: {s!r}")
    return s


def weight(s: str) -> int:
    """Hamming weight: number of non-identity letters."""
    return sum(1 for c in s if c != "I")


@lru_cache(maxsize=None)
def pauli_strings(n: int, mode: str = SU) -> tuple:
    """All Pauli strings on n qubits in canonical order (identity dropped in SU mode)."""
    check_n(n)
    labels = ["".join(p) for p in product(LETTERS, repeat=n)]
    labels.sort()
    if mode == SU:
        labels.remove("I" * n)
    elif mode != U:
        raise ValueError(f"unknown basis mode {mode!r}")
    return tuple(labels)


@lru_cache(maxsize=None)
def string_index(n: int, mode: str = SU) -> dict:
    return {s: i for i, s in enumerate(pauli_strings(n, mode))}


def basis_dimension(n: int, mode: str = SU) -> int:
    return 4**n - 1 if mode == SU else 4**n


def qubits_of_dimension(d: int, mode: str = SU) -> int:
    """The qubit count n with basis_dimension(n, mode) == d."""
    for n in range(1, 8):
        if basis_dimension(n, mode) == d:
            return n
    raise DimensionMismatch(f"vector length {d} matches no qubit count in mode {mode}")


@lru_cache(maxsize=None)
def pauli_matrix(s: str) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a Pauli string (Hermitian, unitary)."""
    validate_string(s)
    m = _SINGLE[s[0]]
    for c in s[1:]:
        m = np.kron(m, _SINGLE[c])
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def basis_stack(n: int, mode: str = SU) -> np.ndarray:
    """Stacked basis matrices, shape (dim, 2^n, 2^n), canonical order."""
    stack = np.stack([pauli_matrix(s) for s in pauli_strings(n, mode)])
    stack.setflags(write=False)
    return stack


@lru_cache(maxsize=None)
def weights_array(n: int, mode: str = SU) -> np.ndarray:
    w = np.array([weight(s) for s in pauli_strings(n, mode)])
    w.setflags(write=False)
    return w


@dataclass
class PauliVector:
    """Real coefficient vector over the Pauli basis in canonical order."""

    n: int
    mode: str
    entries: np.ndarray

    def __post_init__(self):
        check_n(self.n)
        self.entries = np.asarray(self.entries, dtype=float)
        if self.entries.shape != (basis_dimension(self.n, self.mode),):
            raise DimensionMismatch(
                f"expected {basis_dimension(self.n, self.mode)} entries for "
                f"n={self.n} mode={self.mode}, got shape {self.entries.shape}"
            )
        if not np.all(np.isfinite(self.entries)):
            raise NonFiniteInput("Pauli coefficients include NaN or infinity")

    @classmethod
    def zero(cls, n: int, mode: str = SU) -> "PauliVector":
        return cls(n, mode, np.zeros(basis_dimension(n, mode)))

    @classmethod
    def from_terms(cls, n: int, terms: dict, mode: str = SU) -> "PauliVector":
        """Build from {pauli string: coefficient}; unmentioned strings are zero."""
        v = np.zeros(basis_dimension(n, mode))
        idx = string_index(n, mode)
        for s, value in terms.items():
            validate_string(s)
            if len(s) != n:
                raise DimensionMismatch(f"string {s!r} is not on {n} qubits")
            if s not in idx:
                raise DimensionMismatch(f"string {s!r} not in mode {mode}")
            v[idx[s]] = value
        return cls(n, mode, v)

    def __getitem__(self, s: str) -> float:
        return float(self.entries[string_index(self.n, self.mode)[s]])

    def terms(self, cutoff: float = 0.0) -> dict:
        labels = pauli_strings(self.n, self.mode)
        return {
            s: float(v)
            for s, v in zip(labels, self.entries)
            if abs(v) > cutoff or (cutoff == 0.0 and v != 0.0)
        }

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "entries": [
                {"pauli": s, "value": float(v)}
                for s, v in zip(pauli_strings(self.n, self.mode), self.entries)
                if v != 0.0
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PauliVector":
        terms = {e["pauli"]: float(e["value"]) for e in obj.get("entries", [])}
        return cls.from_terms(int(obj["n"]), terms, obj.get("mode", SU))


@dataclass
class HermitianOperator:
    """Dense Hermitian 2^n x 2^n matrix."""

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        check_n(self.n)
        self.matrix = np.asarray(self.matrix, dtype=complex)
        dim = 2**self.n
        if self.matrix.shape != (dim, dim):
            raise DimensionMismatch(f"expected {dim}x{dim} matrix")
        if np.max(np.abs(self.matrix - self.matrix.conj().T)) > 1e-12 * max(
            1.0, np.max(np.abs(self.matrix))
        ):
            raise ValueError("matrix is not Hermitian within tolerance")


def matrix_of(H) -> np.ndarray:
    """Accept HermitianOperator/UnitaryOperator or a raw ndarray."""
    return np.asarray(getattr(H, "matrix", H), dtype=complex)


def qubit_count(matrix: np.ndarray) -> int:
    dim = matrix.shape[0]
    n = int(round(np.log2(dim)))
    if matrix.shape != (dim, dim) or 2**n != dim:
        raise DimensionMismatch(f"matrix shape {matrix.shape} is not 2^n x 2^n")
    return n


@lru_cache(maxsize=None)
def _dual_basis(n: int, mode: str) -> np.ndarray:
    """conj(sigma_s)[i, j] / 2^n as a (4^n, dim) matrix: flat(A) @ it is tr(sigma_s A) / 2^n."""
    dual = np.ascontiguousarray(basis_stack(n, mode).reshape(-1, 4**n).conj().T) / 2**n
    dual.setflags(write=False)
    return dual


def algebra(rows: np.ndarray, n: int, mode: str) -> np.ndarray:
    """sum_s rows[:, s] sigma_s, one matrix per row of an (m, dim) array."""
    return (rows @ basis_stack(n, mode).reshape(-1, 4**n)).reshape(len(rows), 2**n, 2**n)


def coefficients(mats: np.ndarray, n: int, mode: str) -> np.ndarray:
    """Re tr(sigma_s A) / 2^n for each matrix A of an (m, 2^n, 2^n) stack."""
    return (mats.reshape(len(mats), -1) @ _dual_basis(n, mode)).real


def check_traceless(mats: np.ndarray) -> None:
    """Raise NonTracelessInSUMode unless each matrix of a (m, 2^n, 2^n) stack is traceless.

    The tolerance is 1e-10 per matrix entry scale.  SU-mode coefficients
    silently drop the trace part, so an SU projection checks this first.
    """
    traces = np.trace(mats, axis1=-2, axis2=-1)
    bad = np.flatnonzero(np.abs(traces) > 1e-10 * mats.shape[-1])
    if bad.size:
        raise NonTracelessInSUMode(f"trace {traces[bad[0]]:.3e} in SU mode")


def project_to_pauli(H, mode: str = SU) -> PauliVector:
    """Coefficient extraction entries[sigma] = tr(H sigma)/2^n.

    In SU mode the input must be traceless (check_traceless); the trace
    part would be silently lost otherwise.
    """
    M = matrix_of(H)[None]
    n = qubit_count(M[0])
    if mode == SU:
        check_traceless(M)
    return PauliVector(n, mode, coefficients(M, n, mode)[0])


def to_matrix(v: PauliVector) -> np.ndarray:
    """Sum_sigma v[sigma] sigma as a dense Hermitian matrix."""
    return algebra(v.entries[None, :], v.n, v.mode)[0]


def commutes(a: str, b: str) -> bool:
    """True iff the two Pauli strings commute as matrices.

    Symbolic rule: they anticommute iff the number of positions where both
    letters are non-identity and different is odd.
    """
    validate_string(a)
    validate_string(b)
    if len(a) != len(b):
        raise DimensionMismatch("strings on different qubit counts")
    clashes = sum(1 for x, y in zip(a, b) if x != "I" and y != "I" and x != y)
    return clashes % 2 == 0


def string_product(a: str, b: str) -> str:
    """Product of two Pauli strings with the overall phase discarded."""
    return "".join(
        _F2_INV[(_F2[x][0] ^ _F2[y][0], _F2[x][1] ^ _F2[y][1])] for x, y in zip(a, b)
    )


@dataclass
class StabilizerSubgroup:
    """Abelian subgroup generated by independent commuting Pauli strings (signs ignored)."""

    generators: tuple
    elements: tuple = field(default=())

    @property
    def n(self) -> int:
        return len(self.generators[0])


def stabilizer_span(generators) -> StabilizerSubgroup:
    """All 2^k products of the generators, letter patterns only.

    Raises NotCommuting if any generator pair anticommutes, NotIndependent
    if some generator is a product of the previous ones (up to sign).
    """
    gens = tuple(validate_string(g) for g in generators)
    if not gens:
        raise ValueError("need at least one generator")
    n = len(gens[0])
    for g in gens:
        if len(g) != n:
            raise DimensionMismatch("generators on different qubit counts")
    for i, g in enumerate(gens):
        for h in gens[i + 1 :]:
            if not commutes(g, h):
                raise NotCommuting(f"{g} and {h} anticommute")
    elements = {"I" * n}
    for g in gens:
        if g in elements:
            raise NotIndependent(f"{g} is generated by the previous generators")
        elements |= {string_product(e, g) for e in elements}
    return StabilizerSubgroup(gens, tuple(sorted(elements)))
