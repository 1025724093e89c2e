import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sugeo.coords import (
    UnitaryOperator,
    _cayley_phases,
    apply_bch,
    bch_E_series,
    change_coords_backward,
    change_coords_forward,
    change_matrices,
    pauli_log,
    su2_adapted_to_pauli,
    su2_pauli_to_adapted,
    unitary_from_coords,
)
from sugeo.errors import BranchCut, NonFiniteInput, NonTracelessInSUMode, OutsidePatch, ResonantSpectrum
from sugeo.pauli import (
    SU,
    U,
    PauliVector,
    algebra,
    basis_stack,
    coefficients,
    pauli_matrix,
    pauli_strings,
    to_matrix,
)

from oracles import bch_x_gradient, change_matrix, pinv_E, pinv_E_inverse


def _random_hermitian(rng, dim, scale=1.0):
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    H = 0.5 * (A + A.conj().T)
    return H * scale / np.linalg.norm(H, 2)


def _apply(S, Z):
    """unvec(S vec(Z)) for a 4^n x 4^n matrix S, column-stacking vec."""
    return (S @ Z.reshape(-1, order="F")).reshape(Z.shape, order="F")


def _filter_matrix(X, inverse=False):
    """The 4^n x 4^n matrix of apply_bch(X, .): one batched call on the matrix units."""
    dim = len(X)
    units = np.eye(dim * dim).reshape(-1, dim, dim).transpose(0, 2, 1)  # unvec of e_k
    return apply_bch(X, units, inverse=inverse).transpose(0, 2, 1).reshape(dim * dim, -1).T


def test_series_is_the_bch_expansion():
    """E_X(Z) = Z - (i/2)[X,Z] - (1/6)[X,[X,Z]] + O(X^3)."""
    rng = np.random.default_rng(2)
    X = _random_hermitian(rng, 4, scale=1e-3)
    Z = _random_hermitian(rng, 4)
    got = apply_bch(X, Z)
    c1 = X @ Z - Z @ X
    c2 = X @ c1 - c1 @ X
    expected = Z - 0.5j * c1 - c2 / 6.0
    assert np.max(np.abs(got - expected)) < 1e-9


def test_derivative_oracle():
    """i d/dh exp(-i(X+hV)) exp(iX) at h=0 equals E_X(V)."""
    rng = np.random.default_rng(4)
    X = _random_hermitian(rng, 4, scale=0.9)
    V = _random_hermitian(rng, 4)
    h = 1e-6

    def expm(H):
        lam, W = np.linalg.eigh(H)
        return W @ np.diag(np.exp(-1j * lam)) @ W.conj().T

    fd = 1j * (expm(X + h * V) - expm(X - h * V)) / (2 * h) @ expm(X).conj().T
    assert np.max(np.abs(fd - apply_bch(X, V))) < 1e-7


def test_pinv_route_matches_series():
    rng = np.random.default_rng(6)
    for dim in (2, 4):
        X = _random_hermitian(rng, dim, scale=0.8)
        dev = np.max(np.abs(pinv_E(X) - bch_E_series(X)))
        assert dev < 1e-10


def test_spectral_route_matches_superoperator():
    rng = np.random.default_rng(8)
    X = _random_hermitian(rng, 4, scale=1.5)
    Z = _random_hermitian(rng, 4)
    via_super = _apply(pinv_E(X), Z)
    assert np.max(np.abs(apply_bch(X, Z) - via_super)) < 1e-10
    via_super_inv = _apply(pinv_E_inverse(X), Z)
    assert np.max(np.abs(apply_bch(X, Z, inverse=True) - via_super_inv)) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_filter_matches_series(n):
    """apply_bch is the series matrix, and apply_bch(inverse=True) its matrix inverse (||X|| <= 1.5)."""
    rng = np.random.default_rng(30 + n)
    for scale in (0.3, 1.0, 1.5):
        X = _random_hermitian(rng, 2**n, scale=scale)
        S = bch_E_series(X)
        assert np.max(np.abs(_filter_matrix(X) - S)) < 1e-12
        assert np.max(np.abs(_filter_matrix(X, inverse=True) - np.linalg.inv(S))) < 1e-10


@pytest.mark.parametrize("mode", [SU, U])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_change_matrices_columns_are_the_filter_and_the_series(n, mode):
    """Column s of M(x) is coefficients(E_X(sigma_s)), and M(x) is the series in the Pauli basis."""
    rng = np.random.default_rng(40 + n)
    xs = rng.standard_normal((3, 4**n - (mode == SU))) * 0.5 / n
    stack = basis_stack(n, mode)
    vecs = stack.transpose(0, 2, 1).reshape(len(stack), -1).T  # vec(sigma_s) as columns
    for x, M in zip(xs, change_matrices(xs, n, mode)):
        X = algebra(x[None], n, mode)[0]
        assert np.max(np.abs(M - coefficients(apply_bch(X, stack), n, mode).T)) < 1e-14
        series = (vecs.conj().T @ bch_E_series(X) @ vecs).real / 2**n
        assert np.max(np.abs(M - series)) < 1e-12


def test_inverse_inverts():
    rng = np.random.default_rng(10)
    X = _random_hermitian(rng, 4, scale=1.2)
    Z = _random_hermitian(rng, 4)
    back = apply_bch(X, apply_bch(X, Z), inverse=True)
    assert np.max(np.abs(back - Z)) < 1e-10
    comp = pinv_E_inverse(X) @ pinv_E(X)
    assert np.max(np.abs(comp - np.eye(16))) < 1e-9


def test_commuting_directions_are_fixed():
    X = to_matrix(PauliVector.from_terms(1, {"Z": 0.7}))
    assert np.max(np.abs(apply_bch(X, X) - X)) < 1e-12


def test_resonance_detection():
    X = to_matrix(PauliVector.from_terms(1, {"Z": np.pi}))  # eigengap exactly 2*pi
    with pytest.raises(ResonantSpectrum):
        apply_bch(X, pauli_matrix("X"), inverse=True)
    with pytest.raises(ResonantSpectrum):
        pinv_E_inverse(X)


def test_change_matrix_identity_at_origin():
    assert np.allclose(change_matrix(np.zeros(3), 1), np.eye(3))
    assert np.allclose(change_matrix(np.zeros(15), 2), np.eye(15))


def test_change_matrices_batch_consistent():
    rng = np.random.default_rng(12)
    xs = rng.standard_normal((5, 15)) * 0.3
    batch = change_matrices(xs, 2)
    for i in range(5):
        assert np.allclose(batch[i], change_matrix(xs[i], 2), atol=1e-12)


def test_coordinate_change_roundtrip():
    rng = np.random.default_rng(14)
    x = PauliVector(2, SU, rng.standard_normal(15) * 0.2)
    y = PauliVector(2, SU, rng.standard_normal(15))
    yt = change_coords_forward(x, y)
    back = change_coords_backward(x, yt)
    assert np.max(np.abs(back.entries - y.entries)) < 1e-10


def test_su2_closed_forms_match_vectorized():
    rng = np.random.default_rng(16)
    for _ in range(50):
        u = rng.standard_normal(3)
        x = u / np.linalg.norm(u) * rng.uniform(0.0, np.pi - 0.1)
        y = rng.standard_normal(3)
        yt = su2_pauli_to_adapted(x, y)
        ref = change_coords_forward(PauliVector(1, SU, x), PauliVector(1, SU, y))
        assert np.max(np.abs(yt - ref.entries)) < 1e-10
        assert np.max(np.abs(su2_adapted_to_pauli(x, yt) - y)) < 1e-10


def test_su2_outside_patch():
    x = np.array([np.pi, 0.0, 0.0])
    with pytest.raises(OutsidePatch):
        su2_pauli_to_adapted(x, np.ones(3))


def test_pauli_log_roundtrip():
    rng = np.random.default_rng(20)
    x = PauliVector(2, SU, rng.standard_normal(15) * 0.15)
    Uop = unitary_from_coords(x)
    back = pauli_log(Uop, SU)
    assert np.max(np.abs(back.entries - x.entries)) < 1e-9
    assert np.max(np.abs(unitary_from_coords(back) - Uop)) < 1e-9


def test_pauli_log_branch_cut():
    with pytest.raises(BranchCut):
        pauli_log(np.diag([-1.0 + 0j, 1.0]), SU)


def test_a_cayley_pass_with_an_eigenvalue_at_minus_one_is_a_branch_cut():
    """One solve serves the whole stack, so a member with I + M singular fails the pass."""
    with pytest.raises(BranchCut):
        _cayley_phases(np.array([np.eye(2), np.diag([-1.0, 1.0])], dtype=complex))
    phases, V = _cayley_phases(np.array([np.diag(np.exp([0.5j, -2.0j]))]))
    assert np.allclose(phases, [[-2.0, 0.5]], atol=1e-15) and np.allclose(np.abs(V), [[[0, 1], [1, 0]]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pauli_log_rejects_non_finite(bad):
    Uop = np.eye(4, dtype=complex)
    Uop[1, 2] = bad
    with pytest.raises(NonFiniteInput):
        pauli_log(Uop, SU)


def test_pauli_log_u_mode_takes_global_phase():
    Uop = np.exp(-0.3j) * np.eye(2)
    x = pauli_log(Uop, U)
    assert x["I"] == pytest.approx(0.3)
    assert abs(x["X"]) < 1e-12


def test_pauli_log_su_mode_rejects_a_global_phase():
    """In SU mode the eigenphases must sum to 0 within 1e-10 x 2^n; tr(x.sigma) is minus their sum."""
    with pytest.raises(NonTracelessInSUMode, match="trace 6.000e-01"):
        pauli_log(np.exp(-0.3j) * np.eye(2), SU)
    phases = np.array([0.4, -0.1, -0.3, 1e-12])  # sums to 1e-12, inside the tolerance
    x = pauli_log(np.diag(np.exp(-1j * phases)), SU)
    assert np.allclose(unitary_from_coords(x), np.diag(np.exp(-1j * (phases - phases.mean()))), atol=1e-12)


def test_unitary_operator_validation():
    UnitaryOperator(1, np.eye(2))
    with pytest.raises(ValueError):
        UnitaryOperator(1, np.array([[1.0, 0.0], [0.0, 2.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("cls", [UnitaryOperator])
def test_operators_reject_non_finite(cls, bad):
    with pytest.raises(NonFiniteInput):
        cls(1, [[bad, 0.0], [0.0, 1.0]])


def test_unitary_operator_json_roundtrip():
    rng = np.random.default_rng(22)
    x = PauliVector(1, SU, rng.standard_normal(3) * 0.4)
    op = UnitaryOperator(1, unitary_from_coords(x))
    again = UnitaryOperator.from_json(op.to_json())
    assert np.max(np.abs(again.matrix - op.matrix)) < 1e-15


def _unitary_from_seed(seed, dim):
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    levels=st.lists(st.sampled_from([-1.4, -0.7, 0.0, 0.3, 1.1]), min_size=8, max_size=8),
    jitter=st.lists(st.floats(-0.2, 0.2), min_size=8, max_size=8),
    exact_ties=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_inverse_filter_inverts_with_degenerate_spectra(n, levels, jitter, exact_ties, seed):
    """apply_bch(X, apply_bch(X, Z), inverse=True) == Z; repeated eigenvalues included."""
    dim = 2**n
    lam = np.array(levels[:dim]) + (0.0 if exact_ties else np.array(jitter[:dim]))
    V = _unitary_from_seed(seed, dim)
    X = (V * lam) @ V.conj().T
    Z = _random_hermitian(np.random.default_rng(seed + 1), dim)
    back = apply_bch(X, apply_bch(X, Z), inverse=True)
    assert np.max(np.abs(back - Z)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    raw=st.lists(st.floats(-1.0, 1.0), min_size=63, max_size=63),
    diagonal=st.booleans(),
)
def test_change_matrix_transpose_is_change_matrix_at_minus_x(n, raw, diagonal):
    """M(x)^T = M(-x): the transpose of E_X under the trace pairing is E_-X."""
    x = np.array(raw[: 4**n - 1])
    if diagonal:  # only I/Z strings: commuting terms, a degenerate spectrum
        x *= [set(s) <= {"I", "Z"} for s in pauli_strings(n, SU)]
    M, M_minus = change_matrices(np.array([x, -x]), n)
    assert np.max(np.abs(M.T - M_minus)) < 1e-12


def _rotated(levels, seed=5):
    V = _unitary_from_seed(seed, len(levels))
    return (V * np.array(levels)) @ V.conj().T


# X = 0, stabilizer-supported X with exactly repeated eigenvalues, a pair
# split just inside (5e-9) and just outside (2e-8) the 1e-8 cluster
# tolerance, and a clustered pair 0.9e-3 or 1.1e-3 from a third eigenvalue,
# either side of the |s| = 1e-3 switch between phi' and its Taylor series
BCH_X_GRADIENT_POINTS = {
    "zero-n1": np.zeros((2, 2)),
    "zero-n2": np.zeros((4, 4)),
    "zero-n3": np.zeros((8, 8)),
    "stabilizer-n2": to_matrix(PauliVector.from_terms(2, {"XX": 0.5, "YY": 0.5})),
    "stabilizer-n3": to_matrix(PauliVector.from_terms(3, {"XXI": 0.5, "YYI": 0.5, "IIZ": 0.3})),
    "inside-n1": _rotated([0.3, 0.3 + 5e-9]),
    "outside-n1": _rotated([0.3, 0.3 + 2e-8]),
    "inside-n2": _rotated([0.3, 0.3 + 5e-9, -0.2, 0.9]),
    "outside-n2": _rotated([0.3, 0.3 + 2e-8, -0.2, 0.9]),
    "inside-n3": _rotated([0.3, 0.3 + 5e-9, -0.2, 0.9, 0.0, -0.6, 1.2, 0.5]),
    "outside-n3": _rotated([0.3, 0.3 + 2e-8, -0.2, 0.9, 0.0, -0.6, 1.2, 0.5]),
    "series-n2": _rotated([0.2, 0.2, 0.2 + 0.9e-3, -0.5]),
    "formula-n2": _rotated([0.2, 0.2, 0.2 + 1.1e-3, -0.5]),
    "series-n3": _rotated([0.2, 0.2, 0.2 + 0.9e-3, -0.5, 0.7, 0.7, -0.1, 0.4]),
    "formula-n3": _rotated([0.2, 0.2, 0.2 + 1.1e-3, -0.5, 0.7, 0.7, -0.1, 0.4]),
}


@pytest.mark.parametrize("name", sorted(BCH_X_GRADIENT_POINTS))
def test_bch_x_gradient_matches_central_difference(name):
    """tr(Gamma S) = d/de tr(G E_{X+eS}(Z)) at e = 0, by central differences of apply_bch."""
    X = BCH_X_GRADIENT_POINTS[name]
    dim = len(X)
    rng = np.random.default_rng(dim)
    Z, G = _random_hermitian(rng, dim), _random_hermitian(rng, dim)
    Gamma = bch_x_gradient(X, Z, G)
    eps = 1e-5
    for _ in range(3):
        S = _random_hermitian(rng, dim)
        fd = (np.trace(G @ apply_bch(X + eps * S, Z)) - np.trace(G @ apply_bch(X - eps * S, Z))) / (2 * eps)
        # the divided difference over the 2e-8 gap loses about 1e-16/2e-8
        assert abs(np.trace(Gamma @ S) - fd) < 1e-7


def test_bch_x_gradient_on_a_stack_with_clustered_rows():
    """x_gradient on one stack mixing X with off-diagonal clusters (0.3 ZI, 0, XX + YY) and
    generic X: only those rows take the clustered matrix products, every row matches central
    differences of apply_bch, and each row equals x_gradient at that X alone."""
    rng = np.random.default_rng(23)
    X = np.array([
        _random_hermitian(rng, 4),
        to_matrix(PauliVector.from_terms(2, {"ZI": 0.3})),
        _random_hermitian(rng, 4, scale=2.0),
        np.zeros((4, 4)),
        to_matrix(PauliVector.from_terms(2, {"XX": 0.5, "YY": 0.5})),
    ])
    Z = np.array([_random_hermitian(rng, 4) for _ in X])
    G = np.array([_random_hermitian(rng, 4) for _ in X])
    Gamma = bch_x_gradient(X, Z, G)
    eps = 1e-5
    for k in range(len(X)):
        assert np.max(np.abs(Gamma[k] - bch_x_gradient(X[k], Z[k], G[k]))) < 1e-14
        for _ in range(3):
            S = _random_hermitian(rng, 4)
            fd = (np.trace(G[k] @ apply_bch(X[k] + eps * S, Z[k]))
                  - np.trace(G[k] @ apply_bch(X[k] - eps * S, Z[k]))) / (2 * eps)
            assert abs(np.trace(Gamma[k] @ S) - fd) < 1e-8


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("gap", [0.2, 1e-2, 1e-4, 1e-7])
def test_pauli_log_is_accurate_up_to_the_cut(n, gap):
    """x with one eigenvalue at +-(pi - gap), against pauli_log of exp(-i x.sigma): the
    turned Cayley log keeps its digits up to the cut (measured at most 6e-14)."""
    rng = np.random.default_rng(n)
    for sign in (1.0, -1.0):
        Q, R = np.linalg.qr(rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n)))
        lam = rng.uniform(-2.5, 2.5, 2**n)
        lam[0] = sign * (np.pi - gap)
        x = coefficients(((Q * lam) @ Q.conj().T)[None], n, U)[0]
        Uop = (Q * np.exp(-1j * lam)) @ Q.conj().T
        assert np.max(np.abs(pauli_log(Uop, U).entries - x)) < 1e-12
