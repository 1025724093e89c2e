import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sugeo.errors import (
    DimensionLimit,
    DimensionMismatch,
    NonFiniteInput,
    NonTracelessInSUMode,
    NotCommuting,
    NotIndependent,
)
from sugeo.pauli import (
    SU,
    U,
    PauliVector,
    StabilizerSubgroup,
    algebra,
    basis_dimension,
    basis_stack,
    bracket,
    check_n,
    coefficients,
    commutes,
    pauli_matrix,
    pauli_strings,
    project_to_pauli,
    qubit_count,
    qubits_of_dimension,
    stabilizer_span,
    string_index,
    string_product,
    to_matrix,
    weight,
    weights_array,
)


def test_single_qubit_strings():
    assert pauli_strings(1, SU) == ("X", "Y", "Z")
    assert pauli_strings(1, U) == ("I", "X", "Y", "Z")


def test_two_qubit_basis_order():
    su = pauli_strings(2, SU)
    full = pauli_strings(2, U)
    assert len(su) == 15 and len(full) == 16
    assert "II" not in su
    assert full[0] == "II"
    assert list(full) == sorted(full)  # lexicographic, I < X < Y < Z
    assert basis_dimension(2, SU) == 15
    assert basis_dimension(3, U) == 64


def test_weight():
    assert weight("II") == 0
    assert weight("IXZY") == 3
    assert list(weights_array(1, U)) == [0, 1, 1, 1]


def test_qubit_zero_is_leftmost_factor():
    X = pauli_matrix("X")
    I2 = np.eye(2)
    assert np.allclose(pauli_matrix("XI"), np.kron(X, I2))
    assert np.allclose(pauli_matrix("IX"), np.kron(I2, X))


def test_pauli_matrix_values():
    assert np.allclose(pauli_matrix("Y"), [[0, -1j], [1j, 0]])
    zz = pauli_matrix("ZZ")
    assert np.allclose(zz, np.diag([1, -1, -1, 1]))


def test_trace_orthogonality():
    """tr(sigma sigma') = 2^n delta over the full n=2 basis."""
    stack = basis_stack(2, U)
    gram = np.einsum("aij,bji->ab", stack, stack).real
    assert np.allclose(gram, 4.0 * np.eye(16))


def test_projection_roundtrip():
    rng = np.random.default_rng(7)
    for mode in (SU, U):
        v = PauliVector(2, mode, rng.standard_normal(basis_dimension(2, mode)))
        w = project_to_pauli(to_matrix(v), mode)
        assert np.allclose(w.entries, v.entries, atol=1e-13)


def test_su_projection_rejects_trace():
    with pytest.raises(NonTracelessInSUMode):
        project_to_pauli(np.eye(4, dtype=complex), SU)


def test_commutes():
    assert commutes("XI", "IX")
    assert not commutes("XI", "ZI")
    assert commutes("XX", "ZZ")  # two clashing positions, even
    assert not commutes("XXX", "ZZZ")


def test_string_product():
    assert string_product("XI", "ZI") == "YI"
    assert string_product("XZ", "ZX") == "YY"
    assert string_product("XY", "XY") == "II"
    for a in "IXYZ":
        for b in "IXYZ":
            c = string_product(a, b)
            # sigma_a sigma_b = phase * sigma_c: the overlap tr(sigma_c^+ sigma_a sigma_b)/2 has modulus 1
            overlap = np.trace(pauli_matrix(c).conj().T @ pauli_matrix(a) @ pauli_matrix(b)) / 2
            assert abs(abs(overlap) - 1.0) < 1e-12, (a, b, c)


def test_stabilizer_span():
    S = stabilizer_span(("ZI", "IZ"))
    assert S.elements == ("II", "IZ", "ZI", "ZZ")
    assert S.n == 2


def test_stabilizer_span_rejects_anticommuting():
    with pytest.raises(NotCommuting):
        stabilizer_span(("XI", "ZI"))


def test_stabilizer_span_rejects_dependent():
    with pytest.raises(NotIndependent):
        stabilizer_span(("ZI", "IZ", "ZZ"))


def test_a_subgroup_built_by_hand_is_checked():
    """The constructor makes stabilizer_span's checks and builds the elements itself: ZI and XI
    were accepted with the elements of ZI and ZZ, and pauli_geodesic then exponentiated
    0.3 ZZ + 0.2 XI, which is no Pauli geodesic (ZZ and XI anticommute)."""
    assert StabilizerSubgroup(("ZI", "IZ")).elements == ("II", "IZ", "ZI", "ZZ")
    assert StabilizerSubgroup(("ZI", "IZ")) == stabilizer_span(["ZI", "IZ"])
    with pytest.raises(NotCommuting):
        StabilizerSubgroup(("ZI", "XI"), ("II", "XI", "ZI", "ZZ"))
    with pytest.raises(ValueError):
        StabilizerSubgroup(("ZI", "IZ"), ("II", "XI", "ZI", "ZZ"))
    assert StabilizerSubgroup(("ZI", "IZ"), ("II", "ZI")).elements == ("II", "ZI")
    for gens, error in (((), ValueError), (("ZI", "Z"), DimensionMismatch), (("ZI", "IQ"), ValueError),
                        (("ZI", "IZ", "ZZ"), NotIndependent)):
        with pytest.raises(error):
            StabilizerSubgroup(gens)


def test_pauli_vector_json_roundtrip():
    v = PauliVector.from_terms(2, {"XY": 1.5, "ZI": -0.25})
    w = PauliVector.from_json(v.to_json())
    assert w.n == 2 and w.mode == SU
    assert np.allclose(w.entries, v.entries)
    assert v["XY"] == 1.5 and v["ZZ"] == 0.0
    assert v.terms() == {"XY": 1.5, "ZI": -0.25}


def test_from_terms_validation():
    with pytest.raises(DimensionMismatch):
        PauliVector.from_terms(2, {"X": 1.0})
    with pytest.raises(DimensionMismatch):
        PauliVector.from_terms(2, {"II": 1.0}, SU)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pauli_vector_rejects_non_finite(bad):
    with pytest.raises(NonFiniteInput):
        PauliVector(1, SU, [0.0, bad, 1.0])
    with pytest.raises(NonFiniteInput):
        PauliVector.from_terms(2, {"XY": bad})


def test_qubits_of_dimension_inverts_basis_dimension():
    for mode in (SU, U):
        for n in range(1, 5):
            assert qubits_of_dimension(basis_dimension(n, mode), mode) == n
    with pytest.raises(DimensionMismatch):
        qubits_of_dimension(14, SU)
    with pytest.raises(DimensionMismatch):
        qubits_of_dimension(15, U)


def test_qubit_cap():
    check_n(4)
    with pytest.raises(DimensionLimit):
        check_n(5)
    with pytest.raises(DimensionLimit):
        pauli_strings(0, SU)


def test_string_index_matches_order():
    idx = string_index(2, SU)
    strings = pauli_strings(2, SU)
    for i, s in enumerate(strings):
        assert idx[s] == i


def test_qubit_count():
    for n in range(5):
        assert qubit_count(np.eye(2**n)) == n
    for shape in [(3, 3), (6, 6), (0, 0), (2, 4)]:
        with pytest.raises(DimensionMismatch, match=r"is not 2\^n x 2\^n"):
            qubit_count(np.zeros(shape))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), mode=st.sampled_from([SU, U]), data=st.data())
def test_bracket_is_the_projected_commutator(n, mode, data):
    d = basis_dimension(n, mode)
    entries = st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d).map(np.array)
    a, b = data.draw(entries), data.draw(entries)
    A, B = algebra(np.array([a, b]), n, mode)
    ab = bracket(a, b, n, mode)
    assert np.max(np.abs(ab - coefficients(-1j * (A @ B - B @ A)[None], n, mode)[0])) < 1e-12
    assert np.max(np.abs(ab + bracket(b, a, n, mode))) < 1e-12


@settings(max_examples=30, deadline=None)
@given(raw=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
def test_su2_bracket_is_twice_the_cross_product(raw):
    a, b = np.array(raw[:3]), np.array(raw[3:])
    assert np.max(np.abs(bracket(a, b, 1, SU) - 2 * np.cross(a, b))) < 1e-12

