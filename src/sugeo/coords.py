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

The production route (apply_bch) diagonalizes X = V L V^+ and applies E_X
as an entrywise filter in the eigenbasis; the pinv and series routes above
stay as test oracles:

    E_X(Z) = V (Phi o (V^+ Z V)) V^+,   Phi_ab = phi(l_a - l_b),
    phi(s) = (e^{-is} - 1)/(-is),  phi(0) = 1  (entire function).

The pinv and filter routes cluster eigenvalues within 1e-8 (relative) and
treat clustered pairs as exact kernel directions.

One eigendecomposition (_Eigenbasis) serves the filter, its transpose E_-X
(filter Phi^T = conj(Phi), no second eigh) and bch_x_gradient, the
Daleckii-Krein derivative of tr(G E_X(Z)) in X written as matrix products
in the eigenbasis, with phi' taken from Phi.  geodesic.f_squared_gradients
reads both gradients of F^2 from one, so no caller needs the matrix M(x)
of E_X (change_matrices, a test oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import (
    BranchCut,
    DimensionMismatch,
    NoConvergence,
    NonFiniteInput,
    OutsidePatch,
    ResonantSpectrum,
)
from .pauli import (
    SU,
    PauliVector,
    algebra,
    basis_stack,
    check_n,
    check_traceless,
    coefficients,
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
    """Eigenvalue gaps, vec(ad_X), U* kron U - 1 and vecP for the pinv formulas.

    vecP projects onto the commutant of X: in the eigenbasis it keeps the
    entries of the pairs that _gap_data clusters, vec(P) = W diag(vec(mask)) W^+
    with W = V* kron V.
    """
    M = matrix_of(X)
    lam, V = np.linalg.eigh(M)
    U = V @ np.diag(np.exp(-1j * lam)) @ V.conj().T
    B = np.kron(U.conj(), U) - np.eye(M.shape[0] ** 2)
    W = np.kron(V.conj(), V)
    gaps, mask = _gap_data(lam)
    return gaps, _ad_vec(M), B, (W * vec(mask)) @ W.conj().T


def bch_E(X) -> Superoperator:
    """The map E_X = (exp(-i ad_X) - 1)/(-i ad_X), identity on ker(ad_X).

    Built from the vectorized pinv formula in the module docstring.
    """
    _, A, B, vecP = _pinv_parts(X)
    pinvA = np.linalg.pinv(A, rcond=_PINV_CUTOFF, hermitian=True)
    return Superoperator(vecP + 1j * B @ pinvA @ (np.eye(len(vecP)) - vecP))


def _resonance_check(gaps: np.ndarray):
    k = np.round(gaps / (2 * np.pi))
    resonant = (k != 0) & (np.abs(gaps - 2 * np.pi * k) < _CLUSTER_TOL)
    if np.any(resonant):
        raise ResonantSpectrum(
            "an eigenvalue gap of X is a nonzero multiple of 2*pi; "
            "exp(-i ad_X) - 1 is not invertible off the kernel"
        )


def bch_E_inverse(X) -> Superoperator:
    """Inverse of bch_E: vecP - i ad_X pinv(U* kron U - 1) off the kernel."""
    gaps, A, B, vecP = _pinv_parts(X)
    _resonance_check(gaps)
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


def _dphi(gaps: np.ndarray, Phi: np.ndarray) -> np.ndarray:
    """phi'(s) = (1 - (1 + is) phi(s))/s from Phi = phi(gaps), its Taylor series near 0."""
    small = np.abs(gaps) < 1e-3
    s = np.where(small, 1.0, gaps)
    g2 = gaps * gaps  # -i/2 - s/3 + i s^2/8 + s^3/30 - i s^4/144, without slow float powers
    series = gaps * (g2 / 30.0 - 1.0 / 3.0) + 1j * (g2 * (0.125 - g2 / 144.0) - 0.5)
    return np.where(small, series, (1.0 - (1.0 + 1j * s) * Phi) / s)


def _gap_data(lam: np.ndarray):
    gaps = lam[..., :, None] - lam[..., None, :]
    scale = np.maximum(1.0, np.max(np.abs(lam), axis=-1))
    mask = np.abs(gaps) <= _CLUSTER_TOL * scale[..., None, None]
    return gaps, mask


class _Eigenbasis:
    """X = V diag(l) V^+ for a Hermitian stack: V, V^+, gaps l_a - l_b, cluster mask, Phi.

    A hat is a matrix in this basis (hat and unhat change to and from it).
    """

    def __init__(self, X: np.ndarray):
        lam, self.V = np.linalg.eigh(X)
        self.Vh = np.swapaxes(self.V.conj(), -1, -2)
        self.gaps, self.mask = _gap_data(lam)
        self.Phi = _phi(self.gaps, self.mask)

    def hat(self, Z: np.ndarray) -> np.ndarray:
        return self.Vh @ Z @ self.V

    def unhat(self, Zh: np.ndarray) -> np.ndarray:
        return self.V @ Zh @ self.Vh

    def x_gradient(self, Zh, Gh, A, B) -> np.ndarray:
        """Gamma^ of bch_x_gradient, given A = Phi o Z^ and B = conj(Phi) o G^."""
        quotient = (Zh @ B - B @ Zh + Gh @ A - A @ Gh) / np.where(self.mask, 1.0, -self.gaps)
        dPhiT = np.swapaxes(_dphi(self.gaps, self.Phi), -1, -2)
        clustered = Zh @ (dPhiT * Gh) + Gh @ (dPhiT.conj() * Zh)
        return np.where(self.mask, clustered, quotient)


def bch_x_gradient(X: np.ndarray, Z: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Gamma with d/de tr(G E_{X+eS}(Z)) = tr(Gamma S) at e = 0, for all Hermitian S.

    The Daleckii-Krein derivative of E_X(Z) = sum_ab phi(l_a - l_b) P_a Z P_b,
    from the one eigendecomposition of X (hats: its eigenbasis).  The sum
    over b of T_pqb = (phi(l_p - l_b) - phi(l_q - l_b)) / (l_p - l_q) is,
    since Phi^T = conj(Phi), a sum of matrix products with A = Phi o Z^ and
    B = conj(Phi) o G^ (no (m, D, D, D) tensor):

        Gamma^_qp = [Z^ B - B Z^ + G^ A - A G^]_qp / (l_p - l_q),
        Gamma^_qp = [Z^ (phi'^T o G^) + G^ (conj(phi')^T o Z^)]_qp  (clustered p, q),

    with phi'(s) = (1 - (1 + is) phi(s))/s read from Phi (Taylor series
    below |s| = 1e-3).  X, Z and G may be stacks (m, D, D), taken pairwise.
    """
    E = _Eigenbasis(X)
    Zh, Gh = E.hat(Z), E.hat(G)
    return E.unhat(E.x_gradient(Zh, Gh, E.Phi * Zh, E.Phi.conj() * Gh))


def apply_bch(X: np.ndarray, Z: np.ndarray, inverse: bool = False) -> np.ndarray:
    """E_X(Z) (or its inverse) via the eigenbasis filter; equals the pinv route.

    X and Z may also be stacks of matrices, shape (m, D, D), mapped pairwise.
    """
    E = _Eigenbasis(X)
    if inverse:
        _resonance_check(E.gaps)
        return E.unhat(E.hat(Z) / E.Phi)
    return E.unhat(E.Phi * E.hat(Z))


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
    E = _Eigenbasis(algebra(xs, n, mode))
    # T1[m, t, a, b] = (V^+ sigma_t V)[a, b]
    T1 = np.einsum("mpa,tpq,mqb->mtab", E.V.conj(), stack, E.V, optimize=True)
    M = np.einsum("mtab,mba,msba->mts", T1, E.Phi, T1, optimize=True) / 2**n
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
    return PauliVector(qubit_count(matrix_of(U)), mode, _pauli_log_phase(U, mode)[0])


def _pauli_log_phase(U, mode: str):
    """The entries of pauli_log(U, mode) and max |eigenphase of U|, which is max |eig(x.sigma)|.

    The Schur vectors of a unitary (one LAPACK zgees call) are orthonormal
    eigenvectors.  In SU mode check_traceless checks that the phases sum to zero.
    """
    from scipy.linalg.lapack import zgees

    M = matrix_of(U)
    n = qubit_count(M)
    if not np.isfinite(M).all():
        raise NonFiniteInput("unitary includes NaN or infinity")
    _, _, w, V, _, info = zgees(lambda w: 0, M)  # no reordering
    if info:
        raise NoConvergence(f"the Schur QR iteration did not converge (LAPACK info {info})")
    phases = np.angle(w)
    top = float(np.abs(phases).max())
    if np.pi - top < _BRANCH_TOL:
        raise BranchCut("an eigenvalue of U lies within tolerance of -1")
    H = ((V * -phases) @ V.conj().T)[None]
    if mode == SU:
        check_traceless(H)
    return coefficients(H, n, mode)[0], top


def unitary_from_coords(x: PauliVector) -> np.ndarray:
    """exp(-i x.sigma) as a dense matrix (eigendecomposition, exact unitarity)."""
    lam, V = np.linalg.eigh(to_matrix(x))
    return (V * np.exp(-1j * lam)) @ V.conj().T
