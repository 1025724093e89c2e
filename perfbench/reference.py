"""Independent reference values the benchmark checks sugeo's outputs against.

Everything here is built from numpy and the paper's closed forms alone and
never calls sugeo, so a fault in the library cannot hide inside its own
check.  Conventions follow the library's documented ones: Pauli strings are
ordered lexicographically with I < X < Y < Z, SU mode drops the identity
string, the leftmost letter is qubit 0 = the most significant bit, and
unitaries are exp(-i x.sigma).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

TWO_PI = 2 * np.pi

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class CheckFailed(Exception):
    """An output of the library disagrees with its reference value."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def require_close(observed: float, expected: float, what: str, rel: float = 1e-9):
    tol = rel * max(1.0, abs(expected))
    require(
        abs(observed - expected) <= tol,
        f"{what}: observed {observed!r}, expected {expected!r} (tolerance {tol:.1e})",
    )


# ---------------------------------------------------------------------------
# Pauli algebra


def pauli_labels(n: int, mode: str) -> list:
    labels = sorted("".join(p) for p in itertools.product("IXYZ", repeat=n))
    return labels[1:] if mode == "SU" else labels


def pauli_weight(label: str) -> int:
    return sum(c != "I" for c in label)


def pauli_string_matrix(label: str) -> np.ndarray:
    m = np.array([[1.0 + 0j]])
    for c in label:
        m = np.kron(m, _SINGLE[c])
    return m


def hamiltonian(n: int, mode: str, coeffs: np.ndarray) -> np.ndarray:
    return sum(c * pauli_string_matrix(s) for s, c in zip(pauli_labels(n, mode), coeffs))


_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_BITS_LETTER = {v: k for k, v in _LETTER_BITS.items()}


def string_product(a: str, b: str) -> str:
    """Product of two Pauli strings, overall phase dropped."""
    out = []
    for x, y in zip(a, b):
        bx, by = _LETTER_BITS[x], _LETTER_BITS[y]
        out.append(_BITS_LETTER[(bx[0] ^ by[0], bx[1] ^ by[1])])
    return "".join(out)


def group_elements(generators) -> list:
    """All products of the generators (letter patterns), identity included."""
    elements = {"I" * len(generators[0])}
    for g in generators:
        elements |= {string_product(e, g) for e in elements}
    return sorted(elements)


def expm_hermitian(H: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H) for Hermitian H, by its eigendecomposition."""
    lam, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * t * lam)) @ V.conj().T


def step_penalty(j: int, k: float, cutoff: int) -> float:
    return 1.0 if j <= cutoff else k


# ---------------------------------------------------------------------------
# diagonal unitaries and the phase-lattice CVP


@lru_cache(maxsize=None)
def walsh_hadamard(n: int) -> np.ndarray:
    """W[s, z] = (-1)^popcount(s & z); the Pauli coefficients of diag(v) are W v / 2^n."""
    d = 2**n
    return np.array(
        [[(-1) ** bin(s & z).count("1") for z in range(d)] for s in range(d)], dtype=float
    )


def diagonal_weights(family: str, n: int, mode: str, k: float = 1.0, cutoff: int = 2):
    """(kind, w_s) over the 2^n Z-type strings; bit s of the index marks a Z."""
    quadratic = family in ("F2", "Fq")
    penalized = family in ("Fp", "Fq")
    w = np.array(
        [step_penalty(bin(s).count("1"), k, cutoff) if penalized else 1.0 for s in range(2**n)]
    )
    if mode == "SU":
        w[0] = 0.0  # the identity coefficient is not part of an SU Hamiltonian
    return ("quadratic" if quadratic else "taxicab"), w


def diagonal_value(kind: str, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """F(diag(v)) for one phase vector or for each row of a stack of them."""
    v = np.asarray(v, dtype=float)
    d = v.shape[-1]
    y = v @ walsh_hadamard(int(round(math.log2(d)))).T / d
    if kind == "taxicab":
        return np.abs(y) @ w
    return np.sqrt(y**2 @ w)


def reduce_phases(theta: np.ndarray) -> np.ndarray:
    """Each phase shifted by a multiple of 2*pi into (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(theta, dtype=float), TWO_PI)


@lru_cache(maxsize=None)
def _box(d: int, radius: int):
    m = np.array(list(itertools.product(range(-radius, radius + 1), repeat=d)))
    return m, m.sum(axis=1)


def brute_force_cvp(kind: str, w: np.ndarray, h: np.ndarray, radius: int, su_sum=None) -> float:
    """min F(diag(h - 2*pi*m)) over every integer m in [-radius, radius]^(2^n).

    su_sum, when given, restricts to sum(m) = su_sum (traceless Hamiltonians).
    """
    m, sums = _box(len(h), radius)
    if su_sum is not None:
        m = m[sums == su_sum]
    return float(np.min(diagonal_value(kind, w, h[None, :] - TWO_PI * m)))


def and_oracle_length(n: int, k: float) -> float:
    """Minimal Fp length (step penalty k on weights > 2) of diag(1, ..., 1, -1)."""
    return math.pi * (k - (2 + n + n * n) / 2 ** (n + 1) * (k - 1.0))


def f2_cvp_closed_form(theta: np.ndarray) -> float:
    """F2 in U mode: the Hadamard basis is orthogonal, so each phase reduces alone."""
    h = reduce_phases(theta)
    return float(np.linalg.norm(h) / math.sqrt(len(h)))


def f2_coverage_fraction(n: int, r: float) -> float:
    """Share of the phase cell within F2 distance r of the lattice (U mode).

    Exact while r is below the packing radius pi/sqrt(2^n), where the balls
    around the lattice points do not overlap: ball volume in phase space
    (2^(n d/2) times its volume in Pauli coordinates) over (2*pi)^d.
    """
    d = 2**n
    if r > math.pi / math.sqrt(d):
        raise ValueError("formula holds only below the packing radius")
    log_ball = 0.5 * d * math.log(math.pi) + d * math.log(r) - math.lgamma(d / 2 + 1)
    return math.exp(0.5 * n * d * math.log(2.0) + log_ball - d * math.log(TWO_PI))


def f1_coverage_fraction_n1(r: float) -> float:
    """At n = 1, F1(diag(h)) = max(|h0|, |h1|): the ball is a square of side 2r."""
    if r > math.pi:
        raise ValueError("formula holds only for r <= pi")
    return (r / math.pi) ** 2


# ---------------------------------------------------------------------------
# circuits


def gate_product(n: int, gates) -> np.ndarray:
    """U_m ... U_1 with U_j = cos(alpha_j) I - i sin(alpha_j) sigma_j."""
    U = np.eye(2**n, dtype=complex)
    for label, alpha in gates:
        sigma = pauli_string_matrix(label)
        U = (math.cos(alpha) * np.eye(2**n) - 1j * math.sin(alpha) * sigma) @ U
    return U


def unit_string_norm(family: str, weight: int, k: float, cutoff: int) -> float:
    """F of a single Pauli string with coefficient 1."""
    p = step_penalty(weight, k, cutoff) if family in ("Fp", "Fq") else 1.0
    return math.sqrt(p) if family == "Fq" else p
