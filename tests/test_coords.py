import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sugeo.coords import (
    Superoperator,
    UnitaryOperator,
    apply_bch,
    bch_E,
    bch_E_inverse,
    bch_E_series,
    change_coords_backward,
    change_coords_forward,
    change_matrices,
    pauli_log,
    solve_cross_equation,
    su2_adapted_to_pauli,
    su2_change_coords,
    su2_pauli_to_adapted,
    unitary_from_coords,
    vec,
    unvec,
)
from sugeo.errors import BranchCut, OutsidePatch, ResonantSpectrum
from sugeo.pauli import SU, U, PauliVector, pauli_matrix, pauli_strings, to_matrix

from oracles import change_matrix


def _random_hermitian(rng, dim, scale=1.0):
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    H = 0.5 * (A + A.conj().T)
    return H * scale / np.linalg.norm(H, 2)


def test_vec_unvec_roundtrip():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    v = vec(M)
    # column-major stacking
    assert np.allclose(v, [1.0, 3.0, 2.0, 4.0])
    assert np.allclose(unvec(v, 2, 2), M)


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
        dev = np.max(np.abs(bch_E(X).vec_matrix - bch_E_series(X).vec_matrix))
        assert dev < 1e-10


def test_spectral_route_matches_superoperator():
    rng = np.random.default_rng(8)
    X = _random_hermitian(rng, 4, scale=1.5)
    Z = _random_hermitian(rng, 4)
    via_super = unvec(bch_E(X).vec_matrix @ vec(Z), 4, 4)
    assert np.max(np.abs(apply_bch(X, Z) - via_super)) < 1e-10
    via_super_inv = unvec(bch_E_inverse(X).vec_matrix @ vec(Z), 4, 4)
    assert np.max(np.abs(apply_bch(X, Z, inverse=True) - via_super_inv)) < 1e-10


def test_inverse_inverts():
    rng = np.random.default_rng(10)
    X = _random_hermitian(rng, 4, scale=1.2)
    Z = _random_hermitian(rng, 4)
    back = apply_bch(X, apply_bch(X, Z), inverse=True)
    assert np.max(np.abs(back - Z)) < 1e-10
    comp = bch_E_inverse(X).compose(bch_E(X))
    assert np.max(np.abs(comp.vec_matrix - np.eye(16))) < 1e-9


def test_commuting_directions_are_fixed():
    X = to_matrix(PauliVector.from_terms(1, {"Z": 0.7}))
    assert np.max(np.abs(apply_bch(X, X) - X)) < 1e-12


def test_resonance_detection():
    X = to_matrix(PauliVector.from_terms(1, {"Z": np.pi}))  # eigengap exactly 2*pi
    with pytest.raises(ResonantSpectrum):
        apply_bch(X, pauli_matrix("X"), inverse=True)
    with pytest.raises(ResonantSpectrum):
        bch_E_inverse(X)


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


def test_su2_change_coords_directions():
    x = np.array([0.4, -0.1, 0.8])
    v = np.array([0.3, 0.9, -0.5])
    assert np.allclose(su2_change_coords(x, v, inverse=True), su2_pauli_to_adapted(x, v))
    assert np.allclose(su2_change_coords(x, v), su2_adapted_to_pauli(x, v))


def test_su2_outside_patch():
    x = np.array([np.pi, 0.0, 0.0])
    with pytest.raises(OutsidePatch):
        su2_pauli_to_adapted(x, np.ones(3))


def test_solve_cross_equation():
    rng = np.random.default_rng(18)
    A = rng.standard_normal(3)
    B = rng.standard_normal(3)
    X = solve_cross_equation(A, B)
    assert np.allclose(X + np.cross(X, A), B, atol=1e-12)


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


def test_pauli_log_u_mode_takes_global_phase():
    Uop = np.exp(-0.3j) * np.eye(2)
    x = pauli_log(Uop, U)
    assert x["I"] == pytest.approx(0.3)
    assert abs(x["X"]) < 1e-12


def test_unitary_operator_validation():
    UnitaryOperator(1, np.eye(2))
    with pytest.raises(ValueError):
        UnitaryOperator(1, np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_unitary_operator_json_roundtrip():
    rng = np.random.default_rng(22)
    x = PauliVector(1, SU, rng.standard_normal(3) * 0.4)
    op = UnitaryOperator(1, unitary_from_coords(x))
    again = UnitaryOperator.from_json(op.to_json())
    assert np.max(np.abs(again.matrix - op.matrix)) < 1e-15


def test_superoperator_identity():
    s = Superoperator(np.eye(4, dtype=complex))
    Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    assert np.allclose(s(Z), Z)


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
