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
`check_traceless` is the SU-mode trace check of a stack, `entries_of`
the one input check of a coefficient vector, and `json_int` the one reader of
an integer JSON field.

Everything here is dense: the tangent space has dimension 4^n (minus one
in SU mode), and the coordinate change is a filter on 2^n x 2^n matrices.
n = 3 is comfortable, and n = 4 (255 tangent dimensions) is the hard
ceiling, PAULI_N_MAX, that check_n enforces for every layer.  basis_dimension and
qubits_of_dimension call it, so nothing they size is allocated past the cap.  check_bytes holds
what a call allocates for a size its caller picks (steps, samples, gates) to one budget, MAX_BYTES.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import (
    DimensionLimit,
    DimensionMismatch,
    NonFiniteInput,
    NonTracelessInSUMode,
    NotCommuting,
    NotIndependent,
    StepLimitExceeded,
)

SU = "SU"
U = "U"

PAULI_N_MAX = 4
MAX_BYTES = 2**30  # 1 GiB: a workstation's memory holds it, and n = 4 still gets 25k shot steps

LETTERS = "IXYZ"

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def check_n(n: int):
    if not 1 <= n <= PAULI_N_MAX:
        raise DimensionLimit(f"n={n} outside supported range 1..{PAULI_N_MAX}")


def check_bytes(nbytes: int, what: str):
    """StepLimitExceeded if `what` would take more than MAX_BYTES (read at each call)."""
    if nbytes > MAX_BYTES:
        raise StepLimitExceeded(f"{what} would take {nbytes} B, over the {MAX_BYTES} B budget")


def validate_string(s: str) -> str:
    if not s or any(c not in LETTERS for c in s):
        raise ValueError(f"not a Pauli string: {s!r}")
    return s


def json_int(value, what: str) -> int:
    """An integer field read from JSON: ValueError for a float (1.9, 2.0), a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


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
    """4^n - 1 (SU) or 4^n (U); DimensionLimit (check_n) before anything is sized by it."""
    check_n(n)
    return 4**n - 1 if mode == SU else 4**n


def qubits_of_dimension(d: int, mode: str = SU) -> int:
    """The qubit count n with basis_dimension(n, mode) == d, which checks n."""
    full = int(d) + 1 if mode == SU else int(d)
    n = (full.bit_length() - 1) // 2
    if n < 1 or full != 4**n:
        raise DimensionMismatch(f"vector length {d} matches no qubit count in mode {mode}")
    check_n(n)
    return n


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
        d = basis_dimension(self.n, self.mode)
        self.entries = np.asarray(self.entries, dtype=float)
        if self.entries.shape != (d,):
            raise DimensionMismatch(
                f"expected {d} entries for n={self.n} mode={self.mode}, got shape {self.entries.shape}"
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

    def terms(self) -> dict:
        labels = pauli_strings(self.n, self.mode)
        return {s: float(v) for s, v in zip(labels, self.entries) if v != 0.0}

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
        return cls.from_terms(json_int(obj["n"], "n"), terms, obj.get("mode", SU))


def entries_of(v, mode: str) -> np.ndarray:
    """Coefficients of a PauliVector in `mode` (finite when built) or of a raw vector, checked finite."""
    if isinstance(v, PauliVector):
        if v.mode != mode:
            raise DimensionMismatch(f"vector mode {v.mode} vs spec mode {mode}")
        return v.entries
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise NonFiniteInput("vector has NaN or infinite entries")
    return v


def matrix_of(H) -> np.ndarray:
    """The .matrix of an operator object (a UnitaryOperator, say), else the array itself."""
    return np.asarray(getattr(H, "matrix", H), dtype=complex)


def qubit_count(matrix: np.ndarray) -> int:
    dim = matrix.shape[0]
    if matrix.shape != (dim, dim) or dim < 1 or dim & (dim - 1):
        raise DimensionMismatch(f"matrix shape {matrix.shape} is not 2^n x 2^n")
    return dim.bit_length() - 1


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


@lru_cache(maxsize=None)
def _structure_constants(n: int, mode: str) -> tuple:
    """(c, a, b, f) over the anticommuting ordered pairs: -i[sigma_a, sigma_b] = f sigma_c, f = +-2.

    A U-mode index is its string in base 4 (I, X, Y, Z = 0, 1, 2, 3), and
    letters multiply by XOR of these digits (XOR of their (x, z) bits,
    relabelled), so sigma_a sigma_b = i^k sigma_(a XOR b) with k summed over
    the letters.  The pair anticommutes iff k is odd; then f = -2i i^k = 4 - 2k.
    """
    # i^k in sigma_l sigma_r for the letters l, r = I, X, Y, Z: XY = iZ, YZ = iX, ZX = iY
    phase = np.array([[0, 0, 0, 0], [0, 0, 1, 3], [0, 3, 0, 1], [0, 1, 3, 0]])
    idx = np.arange(4**n)
    k = sum(phase[np.ix_(d, d)] for d in (idx >> 2 * q & 3 for q in range(n))) % 4
    a, b = np.nonzero(k % 2)
    offset = 1 if mode == SU else 0  # the identity, index 0 in U mode, never occurs
    table = ((a ^ b) - offset, a - offset, b - offset, 4.0 - 2.0 * k[a, b])
    for t in table:
        t.setflags(write=False)
    return table


def bracket(a: np.ndarray, b: np.ndarray, n: int, mode: str) -> np.ndarray:
    """Coefficients of -i[a.sigma, b.sigma], from the structure constants (no matrices)."""
    c, ia, ib, f = _structure_constants(n, mode)
    return np.bincount(c, weights=f * a[ia] * b[ib], minlength=basis_dimension(n, mode))


def check_traceless(mats: np.ndarray) -> None:
    """Raise NonTracelessInSUMode unless each matrix of a (m, 2^n, 2^n) stack is traceless.

    The tolerance is 1e-10 per matrix entry scale.  SU-mode coefficients
    silently drop the trace part, so an SU projection checks this first.
    """
    traces = np.trace(mats, axis1=-2, axis2=-1)
    bad = np.abs(traces) > 1e-10 * mats.shape[-1]
    if bad.any():
        raise NonTracelessInSUMode(f"trace {traces[bad][0]:.3e} in SU mode")


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
    """Product of two Pauli strings with the overall phase discarded.

    Letters multiply by XOR of their digits I, X, Y, Z = 0, 1, 2, 3, as in
    _structure_constants.
    """
    return "".join(LETTERS[LETTERS.index(x) ^ LETTERS.index(y)] for x, y in zip(a, b))


@dataclass
class StabilizerSubgroup:
    """Abelian subgroup generated by independent commuting Pauli strings (signs ignored).

    The constructor checks the generators and builds `elements`, all 2^k products, letter
    patterns only: ValueError without a generator, DimensionMismatch (commutes) if two differ
    in length, NotCommuting if a pair anticommutes, NotIndependent if some generator is a
    product of the previous ones (up to sign).  Given `elements` must lie in that span
    (ValueError otherwise); a subset only makes pauli_geodesic refuse more coefficients.
    """

    generators: tuple
    elements: tuple = ()

    def __post_init__(self):
        self.generators = gens = tuple(validate_string(g) for g in self.generators)
        if not gens:
            raise ValueError("need at least one generator")
        for i, g in enumerate(gens):
            for h in gens[i + 1 :]:
                if not commutes(g, h):
                    raise NotCommuting(f"{g} and {h} anticommute")
        elements = {"I" * len(gens[0])}
        for g in gens:
            if g in elements:
                raise NotIndependent(f"{g} is generated by the previous generators")
            elements |= {string_product(e, g) for e in elements}
        if not set(self.elements) <= elements:
            raise ValueError(f"elements outside the span of {gens}")
        self.elements = tuple(self.elements) or tuple(sorted(elements))

    @property
    def n(self) -> int:
        return len(self.generators[0])


def stabilizer_span(generators) -> StabilizerSubgroup:
    """The subgroup the generators span, checked (StabilizerSubgroup)."""
    return StabilizerSubgroup(generators)
