"""Pauli coordinates and the change between natural tangent coordinates.

A unitary near the identity is written U = exp(-i x.sigma) with real Pauli
coordinates x^sigma (principal branch, eigenphases in (-pi, pi)).  A tangent
vector at U has two natural coordinate descriptions:

  natural Pauli coordinates   y  — d/dt of the coordinates x(t)
  natural adapted coordinates yt — coefficients of the Hamiltonian H with
                                   dU/dt = -i H U

They are related linearly by a superoperator E_X acting on the algebra,

    yt.sigma = E_X(y.sigma),   X = x.sigma,
    E_X = sum_{j>=0} (-i ad_X)^j / (j+1)!,

the derivative-of-exponential map.  Vectorized (column-stacking vec, so that
vec(ABC) = (C^T kron A) vec(B)):

    vec(ad_X)        = I kron X - X* kron I            (X Hermitian)
    vec(exp(-i ad_X)) = U* kron U
    vec(E_X)  = vecP + i (U* kron U - I) pinv(I kron X - X* kron I) (I - vecP)
    vec(E_X)^-1 = vecP - i (I kron X - X* kron I) pinv(U* kron U - I) (I - vecP)

where vecP projects onto ker(ad_X) (the commutant of X), on which E_X is the
identity.  The signs follow from the power series: vec(E_X) = f(-iA) with
f(s) = (e^s - 1)/s and A = vec(ad_X), so the non-kernel part is
(U* kron U - I) (-iA)^+ = +i (U* kron U - I) A^+.

The production route (apply_bch) diagonalizes X = V L V^T* and applies E_X
as an entrywise filter in the eigenbasis; the pinv and series routes above
stay as test oracles:

    E_X(Z) = V (Phi o (V^+ Z V)) V^+,   Phi_ab = phi(l_a - l_b),
    phi(s) = (e^{-is} - 1)/(-is),  phi(0) = 1  (entire function).

The pinv and filter routes cluster eigenvalues within 1e-8 (relative) and
treat clustered pairs as exact kernel directions.  E_-X is the transpose of
E_X (Phi^T = conj(Phi)) and bch_x_gradient differentiates tr(G E_X(Z)) in X,
so no caller needs the matrix M(x) of E_X (change_matrices, a test oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import (
    BranchCut,
    DimensionMismatch,
    OutsidePatch,
    ResonantSpectrum,
)
from .pauli import (
    SU,
    PauliVector,
    algebra,
    basis_stack,
    check_n,
    matrix_of,
    project_to_pauli,
    qubit_count,
    to_matrix,
)

_CLUSTER_TOL = DEFAULT_TOLERANCES["eig_cluster"]
_PINV_CUTOFF = DEFAULT_TOLERANCES["pinv_cutoff"]
_BRANCH_TOL = DEFAULT_TOLERANCES["branch_cut"]


# ---------------------------------------------------------------------------
# vectorization


def vec(A: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(A).reshape(-1, order="F")

def unvec(v: np.ndarray, m: int, n: int) -> np.ndarray:
    v = np.asarray(v)
    if v.size != m * n:
        raise DimensionMismatch(f"cannot unvec length {v.size} into {m}x{n}")
    return v.reshape((m, n), order="F")


@dataclass
class UnitaryOperator:
    n: int
    matrix: np.ndarray

    def __post_init__(self):
        check_n(self.n)
        self.matrix = np.asarray(self.matrix, dtype=complex)
        dim = 2**self.n
        if self.matrix.shape != (dim, dim):
            raise DimensionMismatch(f"expected {dim}x{dim} matrix")
        err = np.max(np.abs(self.matrix @ self.matrix.conj().T - np.eye(dim)))
        if err > DEFAULT_TOLERANCES["unitarity"]:
            raise ValueError(f"matrix is not unitary (deviation {err:.2e})")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "matrix": [[[z.real, z.imag] for z in row] for row in self.matrix],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "UnitaryOperator":
        m = np.array([[complex(re, im) for re, im in row] for row in obj["matrix"]])
        return cls(int(obj["n"]), m)


@dataclass
class Superoperator:
    """Linear map on 2^n x 2^n matrices, stored in vectorized (4^n x 4^n) form."""

    vec_matrix: np.ndarray

    def __call__(self, Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z, dtype=complex)
        d = Z.shape[0]
        return unvec(self.vec_matrix @ vec(Z), d, d)

    def compose(self, other: "Superoperator") -> "Superoperator":
        return Superoperator(self.vec_matrix @ other.vec_matrix)


# ---------------------------------------------------------------------------
# pinv and series routes (test oracles)


def _ad_vec(X: np.ndarray) -> np.ndarray:
    d = X.shape[0]
    eye = np.eye(d)
    return np.kron(eye, X) - np.kron(X.conj(), eye)


def _pinv_parts(X):
    """Eigenvalues, vec(ad_X), U* kron U - 1 and vecP for the pinv formulas.

    vecP projects onto the commutant of X: in the eigenbasis it keeps the
    entries of the pairs that _gap_data clusters, vec(P) = W diag(vec(mask)) W^+
    with W = V* kron V.
    """
    M = matrix_of(X)
    lam, V = np.linalg.eigh(M)
    U = V @ np.diag(np.exp(-1j * lam)) @ V.conj().T
    B = np.kron(U.conj(), U) - np.eye(M.shape[0] ** 2)
    W = np.kron(V.conj(), V)
    return lam, _ad_vec(M), B, (W * vec(_gap_data(lam)[1])) @ W.conj().T


def bch_E(X) -> Superoperator:
    """The map E_X = (exp(-i ad_X) - 1)/(-i ad_X), identity on ker(ad_X).

    Built from the vectorized pinv formula in the module docstring.
    """
    _, A, B, vecP = _pinv_parts(X)
    pinvA = np.linalg.pinv(A, rcond=_PINV_CUTOFF, hermitian=True)
    return Superoperator(vecP + 1j * B @ pinvA @ (np.eye(len(vecP)) - vecP))


def _resonance_check(lam: np.ndarray):
    gaps = lam[..., :, None] - lam[..., None, :]
    k = np.round(gaps / (2 * np.pi))
    resonant = (k != 0) & (np.abs(gaps - 2 * np.pi * k) < _CLUSTER_TOL)
    if np.any(resonant):
        raise ResonantSpectrum(
            "an eigenvalue gap of X is a nonzero multiple of 2*pi; "
            "exp(-i ad_X) - 1 is not invertible off the kernel"
        )


def bch_E_inverse(X) -> Superoperator:
    """Inverse of bch_E: vecP - i ad_X pinv(U* kron U - 1) off the kernel."""
    lam, A, B, vecP = _pinv_parts(X)
    _resonance_check(lam)
    pinvB = np.linalg.pinv(B, rcond=_PINV_CUTOFF)
    return Superoperator(vecP - 1j * A @ pinvB @ (np.eye(len(vecP)) - vecP))


def bch_E_series(X, terms: int = 30) -> Superoperator:
    """Truncated power series sum_j (-i ad_X)^j/(j+1)! — the test oracle.

    Trustworthy for ||ad_X|| <= 4 or so; the factorial decay puts the
    truncation error below machine precision there.
    """
    M = matrix_of(X)
    A = -1j * _ad_vec(M)
    out = np.zeros_like(A)
    term = np.eye(A.shape[0], dtype=complex)
    for j in range(terms):
        out = out + term / factorial(j + 1)
        term = term @ A
    return Superoperator(out)


# ---------------------------------------------------------------------------
# spectral filter route (the production path)


def _phi(gaps: np.ndarray, cluster_mask: np.ndarray) -> np.ndarray:
    """phi(s) = (e^{-is} - 1)/(-is) elementwise, exact 1 on clustered pairs."""
    s = np.where(cluster_mask, 1.0, gaps)  # avoid 0/0; value replaced below
    out = np.expm1(-1j * s) / (-1j * s)
    return np.where(cluster_mask, 1.0 + 0.0j, out)


def _dphi(gaps: np.ndarray) -> np.ndarray:
    """phi'(s) = (e^{-is} - phi(s))/s elementwise, its Taylor series near 0."""
    s = np.where(np.abs(gaps) < 1e-3, 1.0, gaps)
    out = (np.exp(-1j * s) - np.expm1(-1j * s) / (-1j * s)) / s
    series = -0.5j - gaps / 3.0 + 1j * gaps**2 / 8.0 + gaps**3 / 30.0 - 1j * gaps**4 / 144.0
    return np.where(np.abs(gaps) < 1e-3, series, out)


def bch_x_gradient(X: np.ndarray, Z: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Gamma with d/de tr(G E_{X+eS}(Z)) = tr(Gamma S) at e = 0, for all Hermitian S.

    The Daleckii-Krein derivative of E_X(Z) = sum_ab phi(l_a - l_b) P_a Z P_b
    (hats: eigenbasis of X): Gamma^_qp = sum_b T_pqb Z^_qb G^_bp +
    conj(T_pqb) G^_qb Z^_bp, T_pqb = (phi(l_p - l_b) - phi(l_q - l_b)) /
    (l_p - l_q), or phi'(l_p - l_b) where _gap_data clusters (p, q).
    X, Z and G may be stacks of matrices, shape (m, D, D), taken pairwise.
    """
    lam, V = np.linalg.eigh(X)
    gaps, mask = _gap_data(lam)
    Phi = _phi(gaps, mask)
    quotient = (Phi[..., :, None, :] - Phi[..., None, :, :]) / np.where(mask, 1.0, gaps)[..., None]
    T = np.where(mask[..., None], _dphi(gaps)[..., :, None, :], quotient)
    Vh = np.swapaxes(V.conj(), -1, -2)
    Zh, Gh = Vh @ Z @ V, Vh @ G @ V
    Gamma = np.einsum("...pqb,...qb,...bp->...qp", T, Zh, Gh)
    Gamma += np.einsum("...pqb,...qb,...bp->...qp", T.conj(), Gh, Zh)
    return V @ Gamma @ Vh


def _gap_data(lam: np.ndarray):
    gaps = lam[..., :, None] - lam[..., None, :]
    scale = np.maximum(1.0, np.max(np.abs(lam), axis=-1))
    mask = np.abs(gaps) <= _CLUSTER_TOL * scale[..., None, None]
    return gaps, mask


def apply_bch(X: np.ndarray, Z: np.ndarray, inverse: bool = False) -> np.ndarray:
    """E_X(Z) (or its inverse) via the eigenbasis filter; equals the pinv route.

    X and Z may also be stacks of matrices, shape (m, D, D), mapped pairwise.
    """
    lam, V = np.linalg.eigh(X)
    gaps, mask = _gap_data(lam)
    if inverse:
        _resonance_check(lam)
        Phi = 1.0 / _phi(gaps, mask)
    else:
        Phi = _phi(gaps, mask)
    Vh = np.swapaxes(V.conj(), -1, -2)
    return V @ (Phi * (Vh @ Z @ V)) @ Vh


def change_coords_forward(x: PauliVector, y_pauli: PauliVector) -> PauliVector:
    """Natural Pauli -> natural adapted coordinates: yt.sigma = E_{x.sigma}(y.sigma)."""
    if (x.n, x.mode) != (y_pauli.n, y_pauli.mode):
        raise DimensionMismatch("x and y on different bases")
    out = apply_bch(to_matrix(x), to_matrix(y_pauli))
    return project_to_pauli(out, x.mode)


def change_coords_backward(x: PauliVector, y_adapted: PauliVector) -> PauliVector:
    """Natural adapted -> natural Pauli coordinates (inverse of the forward map)."""
    if (x.n, x.mode) != (y_adapted.n, y_adapted.mode):
        raise DimensionMismatch("x and y on different bases")
    out = apply_bch(to_matrix(x), to_matrix(y_adapted), inverse=True)
    return project_to_pauli(out, x.mode)


def change_matrices(xs: np.ndarray, n: int, mode: str = SU) -> np.ndarray:
    """Batched change-of-coordinate matrices for a stack of base points.

    M[m, t, s] = tr(sigma_t E_{X_m}(sigma_s)) / 2^n with X_m = xs[m].sigma.
    A test oracle and cache warm-up only: the library applies E_X to the
    one vector it needs with apply_bch and never forms M.
    """
    stack = basis_stack(n, mode)
    lam, V = np.linalg.eigh(algebra(xs, n, mode))
    gaps, mask = _gap_data(lam)
    Phi = _phi(gaps, mask)
    # T1[m, t, a, b] = (V^+ sigma_t V)[a, b]
    T1 = np.einsum("mpa,tpq,mqb->mtab", V.conj(), stack, V, optimize=True)
    M = np.einsum("mtab,mba,msba->mts", T1, Phi, T1, optimize=True) / 2**n
    return M.real


# ---------------------------------------------------------------------------
# closed form on SU(2)


def _sinc(z: float) -> float:
    return float(np.sinc(z / np.pi))


def _z_cot_z(z: float) -> float:
    if abs(z) < 1e-4:
        return 1.0 - z**2 / 3.0 - z**4 / 45.0
    return z / np.tan(z)


def _split(x: np.ndarray, v: np.ndarray):
    r = np.linalg.norm(x)
    if r == 0.0:
        return v, np.zeros(3), r
    xhat = x / r
    par = (v @ xhat) * xhat
    return par, v - par, r


def su2_pauli_to_adapted(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """yt = y_par + sinc(2r) y_perp + sinc(r)^2 x cross y_perp, r = |x| < pi."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    par, perp, r = _split(x, y)
    if r >= np.pi:
        raise OutsidePatch(f"|x| = {r:.6f} >= pi")
    return par + _sinc(2 * r) * perp + _sinc(r) ** 2 * np.cross(x, perp)


def su2_adapted_to_pauli(x: np.ndarray, yt: np.ndarray) -> np.ndarray:
    """y = yt_par + r cot(r) yt_perp + yt cross x, r = |x| < pi."""
    x = np.asarray(x, dtype=float)
    yt = np.asarray(yt, dtype=float)
    par, perp, r = _split(x, yt)
    if r >= np.pi:
        raise OutsidePatch(f"|x| = {r:.6f} >= pi")
    return par + _z_cot_z(r) * perp + np.cross(yt, x)


def su2_change_coords(x, v, inverse: bool = False) -> np.ndarray:
    """Single-qubit closed form; forward maps adapted -> Pauli coordinates.

    With inverse=True maps Pauli -> adapted (the E_X direction), matching
    change_coords_forward at n = 1.
    """
    if inverse:
        return su2_pauli_to_adapted(x, v)
    return su2_adapted_to_pauli(x, v)


def solve_cross_equation(A, B) -> np.ndarray:
    """Unique solution of X + X cross A = B:  X = (B + A (A.B) + A cross B)/(1+|A|^2)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return (B + A * (A @ B) + np.cross(A, B)) / (1.0 + A @ A)


# ---------------------------------------------------------------------------
# the Pauli chart


def pauli_log(U, mode: str = SU) -> PauliVector:
    """Coordinates x with exp(-i x.sigma) = U, principal eigenphases in (-pi, pi).

    Undefined when U has an eigenvalue at -1 (the chart's branch cut).
    """
    M = matrix_of(U)
    n = qubit_count(M)
    lam, V = _unitary_eig(M)
    phases = np.angle(lam)
    if np.min(np.pi - np.abs(phases)) < _BRANCH_TOL:
        raise BranchCut("an eigenvalue of U lies within tolerance of -1")
    H = V @ np.diag(-phases) @ V.conj().T
    H = 0.5 * (H + H.conj().T)
    return project_to_pauli(H, mode)


def _unitary_eig(M: np.ndarray):
    """Eigendecomposition of a unitary with orthonormal eigenvectors (via Schur)."""
    from scipy.linalg import schur

    T, Z = schur(M, output="complex")
    return np.diag(T).copy(), Z


def unitary_from_coords(x: PauliVector) -> np.ndarray:
    """exp(-i x.sigma) as a dense matrix (eigendecomposition, exact unitarity)."""
    H = to_matrix(x)
    lam, V = np.linalg.eigh(H)
    return V @ np.diag(np.exp(-1j * lam)) @ V.conj().T
