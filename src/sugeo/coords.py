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

the derivative-of-exponential map.  The library has one implementation
of it, the filter of _Eigenbasis: X = V L V^+ and

    E_X(Z) = V (Phi o (V^+ Z V)) V^+,   Phi_ab = phi(l_a - l_b),
    phi(s) = (e^{-is} - 1)/(-is) = (sin s - 2i sin^2(s/2))/s,  phi(0) = 1,

an entire function that _phi evaluates in real sines, with eigenvalues
clustered within 1e-8 (relative) treated as exactly equal, so E_X is the
identity on the commutant of X.  apply_bch applies it to matrices,
change_coords to rows of coefficients (a V shared by the stack: one
rotated Pauli basis), and change_matrices forms M(x), the matrix of E_X
in Pauli coordinates, by filtering every basis matrix.  bch_E_series is
the power series above as a 4^n x 4^n matrix, the paper's definition
that the filter is checked against.

One eigendecomposition (_Eigenbasis) serves the filter, its transpose E_-X
(filter Phi^T = conj(Phi), no second eigh) and its x_gradient, the
Daleckii-Krein derivative of tr(G E_X(Z)) in X written as matrix products
in the eigenbasis, with phi' taken from Phi.  geodesic.f_squared_gradients
reads both gradients of F^2 from one, so no library path forms M(x).
Every Hermitian eigensolve goes through _eigh, which turns LAPACK's
failure to converge into NoConvergence.

The chart, pauli_log, inverts exp(-i x.sigma) on principal eigenphases
in (-pi, pi).  U = V diag(e^{i phases}) V^+ is read from the Hermitian
Cayley transform V diag(tan(phases/2)) V^+ of a whole stack by one solve
and one eigh (_cayley_phases), well conditioned away from the cut: a
shot's chart (geodesic's _chart_curve) stays _REANCHOR_MARGIN from it,
and pauli_log first turns U to put -1 mid-gap (_log_spectrum).  (-phases,
V) is the spectrum of x.sigma; _log_rows reads x from such spectra (in SU
mode x.sigma must be traceless, checked by pauli.check_traceless, the one
trace rule).  The same spectra build an _Eigenbasis, so the chart gets x
and y = E_x^-1(h) from one pass, and the curve keeps them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

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
    json_int,
    matrix_of,
    qubit_count,
)

# None of these is a finite-difference step: the geodesic layer's derivatives are exact.
_UNITARITY_TOL = 1e-10  # max |U U^+ - I| entry that UnitaryOperator accepts
_BRANCH_TOL = 1e-8  # an eigenphase within this of pi raises BranchCut
_CLUSTER_TOL = 1e-8  # eigenvalues this close (relative) count as equal in the filter
_SERIES_TERMS = 30


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
        if not np.isfinite(self.matrix).all():
            raise NonFiniteInput("unitary includes NaN or infinity")
        err = np.max(np.abs(self.matrix @ self.matrix.conj().T - np.eye(dim)))
        if err > _UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary (deviation {err:.2e})")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "matrix": [[[z.real, z.imag] for z in row] for row in self.matrix],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "UnitaryOperator":
        m = np.array([[complex(re, im) for re, im in row] for row in obj["matrix"]])
        return cls(json_int(obj["n"], "n"), m)


# ---------------------------------------------------------------------------
# the defining power series (reference)


def _ad_vec(X: np.ndarray) -> np.ndarray:
    """vec(ad_X) = I kron X - X^T kron I for column-stacking vec (X Hermitian: X^T = X*)."""
    d = X.shape[0]
    eye = np.eye(d)
    return np.kron(eye, X) - np.kron(X.conj(), eye)


def bch_E_series(X) -> np.ndarray:
    """The 4^n x 4^n matrix S of E_X from its power series, sum_j (-i ad_X)^j/(j+1)!.

    vec(E_X(Z)) = S vec(Z) with column-stacking vec, summed to 30 terms:
    the reference the filter is checked against.  Trustworthy for
    ||ad_X|| <= 4 or so; the factorial decay puts the truncation error
    below machine precision there.
    """
    A = -1j * _ad_vec(matrix_of(X))
    out = np.zeros_like(A)
    term = np.eye(A.shape[0], dtype=complex)
    for j in range(_SERIES_TERMS):
        out = out + term / factorial(j + 1)
        term = term @ A
    return out


# ---------------------------------------------------------------------------
# the spectral filter (the one implementation of E_X)


def _resonance_check(gaps: np.ndarray):
    k = np.round(gaps / (2 * np.pi))
    resonant = (k != 0) & (np.abs(gaps - 2 * np.pi * k) < _CLUSTER_TOL)
    if np.any(resonant):
        raise ResonantSpectrum(
            "an eigenvalue gap of X is a nonzero multiple of 2*pi; "
            "exp(-i ad_X) - 1 is not invertible off the kernel"
        )


def _phi(gaps: np.ndarray, cluster_mask: np.ndarray) -> np.ndarray:
    """phi(s) = sin(s)/s - 2i sin^2(s/2)/s elementwise, exact 1 on clustered pairs."""
    s = np.where(cluster_mask, 1.0, gaps)  # avoid 0/0; value replaced below
    out = (np.sin(s) - 2j * np.sin(0.5 * s) ** 2) / s
    out[cluster_mask] = 1.0
    return out


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


def _eigh(X: np.ndarray):
    """np.linalg.eigh of a Hermitian stack; a LinAlgError becomes NoConvergence."""
    try:
        return np.linalg.eigh(X)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"the Hermitian eigensolver did not converge: {exc}") from exc


class _Eigenbasis:
    """X = V diag(l) V^+ from the spectrum (l, V) of a Hermitian stack: V^+, gaps, mask, Phi.

    A hat is a matrix in this basis (hat and unhat; hat_rows and unhat_rows for coefficient rows).
    A V shared by the stack (stride 0, np.broadcast_to) is one V0: rows then take one GEMM each
    against B^_s = V0^+ sigma_s V0, as tr(sigma_s V0 Z^ V0^+) = tr(B^_s Z^), no product a sample.
    """

    def __init__(self, lam: np.ndarray, V: np.ndarray):
        self.V, self.shared, self.rotated = V, V.strides[0] == 0, None
        self.Vh = np.swapaxes((V[:1] if self.shared else V).conj(), -1, -2)
        self.gaps, self.mask = _gap_data(lam)
        self.Phi = _phi(self.gaps, self.mask)

    def hat(self, Z: np.ndarray) -> np.ndarray:
        return self.Vh @ Z @ self.V

    def unhat(self, Zh: np.ndarray) -> np.ndarray:
        return self.V @ Zh @ self.Vh

    def _rotated(self, n: int, mode: str) -> np.ndarray:
        """B^_s = V0^+ sigma_s V0 of a shared V0 as a (d, 4^n) matrix: d products, formed once."""
        if self.rotated is None:
            self.rotated = (self.Vh @ basis_stack(n, mode) @ self.V[:1]).reshape(-1, 4**n)
        return self.rotated

    def hat_rows(self, rows: np.ndarray, n: int, mode: str) -> np.ndarray:
        """The hat of each rows[i].sigma; rows @ B^, one GEMM, for a shared V0."""
        if self.shared:
            return (rows @ self._rotated(n, mode)).reshape(len(rows), 2**n, 2**n)
        return self.hat(algebra(rows, n, mode))

    def unhat_rows(self, Zh: np.ndarray, n: int, mode: str) -> np.ndarray:
        """The coefficient rows of each unhat(Z^); Re flat(Z^) @ conj(B^)^T / 2^n for a shared V0."""
        if self.shared:
            return (Zh.reshape(len(Zh), -1) @ self._rotated(n, mode).conj().T).real / 2**n
        return coefficients(self.unhat(Zh), n, mode)

    def apply(self, Z: np.ndarray, inverse: bool = False) -> np.ndarray:
        """E_X(Z), or E_X^-1(Z) (ResonantSpectrum if a gap is a nonzero multiple of 2 pi)."""
        if inverse:
            _resonance_check(self.gaps)
        return self.unhat(self.hat(Z) / self.Phi if inverse else self.Phi * self.hat(Z))

    def apply_rows(self, rows: np.ndarray, n: int, mode: str, inverse: bool = False) -> np.ndarray:
        """apply on rows of coefficients, through hat_rows and unhat_rows."""
        if inverse:
            _resonance_check(self.gaps)
        Zh = self.hat_rows(rows, n, mode)
        return self.unhat_rows(Zh / self.Phi if inverse else self.Phi * Zh, n, mode)

    def x_gradient(self, Zh, Gh, A, B) -> np.ndarray:
        """Gamma^ with d/de tr(G E_{X+eS}(Z)) = tr(Gamma S) at e = 0, for all Hermitian S.

        The Daleckii-Krein derivative of E_X(Z) = sum_ab phi(l_a - l_b) P_a Z P_b.
        The sum over b of T_pqb = (phi(l_p - l_b) - phi(l_q - l_b)) / (l_p - l_q)
        is, since Phi^T = conj(Phi), a sum of matrix products with A = Phi o Z^
        and B = conj(Phi) o G^ (no (m, D, D, D) tensor):

            Gamma^_qp = [C - C^+]_qp / (l_p - l_q),   C = Z^ B + G^ A,
            Gamma^_qp = [Z^ (phi'^T o G^) + G^ (conj(phi')^T o Z^)]_qp  (clustered p, q),

        with phi'(s) = (1 - (1 + is) phi(s))/s read from Phi (Taylor series below |s| = 1e-3).
        Z and G must be Hermitian: then A and B are, C^+ = B Z^ + A G^, and the diagonal is
        2 Re sum_b phi'(l_p - l_b) Z^_pb conj(G^_pb).  The products run only where a cluster is
        off-diagonal.
        """
        C = Zh @ B + Gh @ A
        out = (C - np.swapaxes(C.conj(), -1, -2)) / np.where(self.mask, 1.0, -self.gaps)
        dPhi, i = _dphi(self.gaps, self.Phi), np.arange(out.shape[-1])
        out[..., i, i] = 2.0 * (dPhi * Zh * Gh.conj()).sum(-1).real
        rows = self.mask.sum((-2, -1)) > len(i)  # the stack's matrices with an off-diagonal cluster
        z, g, dPhiT = Zh[rows], Gh[rows], np.swapaxes(dPhi[rows], -1, -2)
        out[rows] = np.where(self.mask[rows], z @ (dPhiT * g) + g @ (dPhiT.conj() * z), out[rows])
        return out


def apply_bch(X: np.ndarray, Z: np.ndarray, inverse: bool = False) -> np.ndarray:
    """E_X(Z) (or its inverse) via the eigenbasis filter.

    X and Z may also be stacks of matrices, shape (m, D, D), mapped pairwise.
    """
    return _Eigenbasis(*_eigh(X)).apply(Z, inverse)


def change_coords(xs: np.ndarray, ys: np.ndarray, n: int, mode: str, inverse: bool = False):
    """Rows E_x(y), or E_x^-1(y) with inverse=True, for each row pair of two (m, d) arrays."""
    return _Eigenbasis(*_eigh(algebra(xs, n, mode))).apply_rows(ys, n, mode, inverse)


def _change_one(x: PauliVector, y: PauliVector, inverse: bool) -> PauliVector:
    if (x.n, x.mode) != (y.n, y.mode):
        raise DimensionMismatch("x and y on different bases")
    entries = change_coords(x.entries[None], y.entries[None], x.n, x.mode, inverse)[0]
    return PauliVector(x.n, x.mode, entries)


def change_coords_forward(x: PauliVector, y_pauli: PauliVector) -> PauliVector:
    """Natural Pauli -> natural adapted coordinates: yt.sigma = E_{x.sigma}(y.sigma)."""
    return _change_one(x, y_pauli, inverse=False)


def change_coords_backward(x: PauliVector, y_adapted: PauliVector) -> PauliVector:
    """Natural adapted -> natural Pauli coordinates (inverse of the forward map)."""
    return _change_one(x, y_adapted, inverse=True)


def change_matrices(xs: np.ndarray, n: int, mode: str = SU) -> np.ndarray:
    """Batched change-of-coordinate matrices for a stack of base points.

    M[m, t, s] = tr(sigma_t E_{X_m}(sigma_s)) / 2^n with X_m = xs[m].sigma:
    the filter applied to every basis matrix.  The test oracles and
    perfbench's cache warm-up call it; the library applies E_X to the one
    vector it needs with change_coords and never forms M.
    """
    stack = basis_stack(n, mode)[:, None]  # (d, 1, D, D) against the m eigenbases
    cols = _Eigenbasis(*_eigh(algebra(xs, n, mode))).apply(stack).reshape(-1, 2**n, 2**n)
    return coefficients(cols, n, mode).reshape(len(stack), len(xs), -1).transpose(1, 2, 0)


# ---------------------------------------------------------------------------
# closed form on SU(2)


def _sinc(z: float) -> float:
    return float(np.sinc(z / np.pi))


def _z_cot_z(z: float) -> float:
    if abs(z) < 1e-4:
        return 1.0 - z**2 / 3.0 - z**4 / 45.0
    return z / np.tan(z)


def _split(x: np.ndarray, v: np.ndarray):
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    r = np.linalg.norm(x)
    if r >= np.pi:
        raise OutsidePatch(f"|x| = {r:.6f} >= pi")
    if r == 0.0:
        return v, np.zeros(3), r
    xhat = x / r
    par = (v @ xhat) * xhat
    return par, v - par, r


def su2_pauli_to_adapted(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """yt = y_par + sinc(2r) y_perp + sinc(r)^2 x cross y_perp, r = |x| < pi."""
    par, perp, r = _split(x, y)
    return par + _sinc(2 * r) * perp + _sinc(r) ** 2 * np.cross(x, perp)


def su2_adapted_to_pauli(x: np.ndarray, yt: np.ndarray) -> np.ndarray:
    """y = yt_par + r cot(r) yt_perp + yt cross x, r = |x| < pi."""
    par, perp, r = _split(x, yt)
    return par + _z_cot_z(r) * perp + np.cross(yt, x)


# ---------------------------------------------------------------------------
# the Pauli chart


def pauli_log(U, mode: str = SU) -> PauliVector:
    """Coordinates x with exp(-i x.sigma) = U, principal eigenphases in (-pi, pi).

    Undefined when U has an eigenvalue at -1 (the chart's branch cut).
    """
    M = matrix_of(U)
    n = qubit_count(M)
    if not np.isfinite(M).all():
        raise NonFiniteInput("unitary includes NaN or infinity")
    return PauliVector(n, mode, _log_rows(*_log_spectrum(M), n, mode)[0])


def _cayley_phases(M: np.ndarray):
    """(phases, V), phases ascending, with M = V diag(e^{i phases}) V^+ for each unitary of a stack.

    K = i (I + M)^-1 (I - M) = V diag(tan(phases/2)) V^+ by one solve, made Hermitian, and its
    spectrum kappa by one _eigh: phases = 2 arctan(kappa), accurate while cos(phases/2) is not
    small.  A singular I + M raises BranchCut.
    """
    eye = np.eye(M.shape[-1])
    try:
        K = 1j * np.linalg.solve(eye + M, eye - M)
    except np.linalg.LinAlgError as exc:
        raise BranchCut("an eigenvalue of U lies at -1") from exc
    kappa, V = _eigh(0.5 * (K + np.swapaxes(K.conj(), -1, -2)))
    return 2.0 * np.arctan(kappa), V


def _log_spectrum(M: np.ndarray):
    """The spectrum (lam, V) of the principal i log M, as stacks of one.

    M is turned by e^{i theta} (theta from np.linalg.eigvals) to put -1 mid-way in the widest
    gap of its spectrum, _cayley_phases runs there, and the phases are turned back into [-pi, pi).
    """
    try:
        w = np.sort(np.angle(np.linalg.eigvals(M)))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"the eigenvalue solver did not converge: {exc}") from exc
    gaps = np.diff(w, append=w[0] + 2.0 * np.pi)
    theta = np.pi - (w + 0.5 * gaps)[np.argmax(gaps)]  # -1 to the middle of the widest gap
    phases, V = _cayley_phases(np.exp(1j * theta) * M[None])
    phases = (phases - theta + np.pi) % (2.0 * np.pi) - np.pi
    if np.pi - float(np.max(np.abs(phases))) < _BRANCH_TOL:
        raise BranchCut("an eigenvalue of U lies within tolerance of -1")
    return -phases, V


def _log_rows(lam: np.ndarray, V: np.ndarray, n: int, mode: str) -> np.ndarray:
    """Coefficients of X = V diag(lam) V^+ per row of a spectrum stack (SU: check_traceless)."""
    X = (V * lam[:, None, :]) @ np.swapaxes(V.conj(), -1, -2)
    if mode == SU:
        check_traceless(X)
    return coefficients(X, n, mode)


def _exp_spectrum(lam: np.ndarray, V: np.ndarray) -> np.ndarray:
    """exp(-i X) for each X = V diag(lam) V^+ of a spectrum stack (a shared V: one GEMM)."""
    W = V * np.exp(-1j * lam)[:, None, :]
    if V.strides[0] == 0:  # one V shared by the stack, slow in @: W as one (m D, D) matrix
        return (W.reshape(-1, W.shape[-1]) @ V[0].conj().T).reshape(W.shape)
    return W @ np.swapaxes(V.conj(), -1, -2)


def unitary_from_coords(x: PauliVector) -> np.ndarray:
    """exp(-i x.sigma) as a dense matrix, by one eigh (else NoConvergence)."""
    return _exp_spectrum(*_eigh(algebra(x.entries[None], x.n, x.mode)))[0]
