import numpy as np
import pytest

from sugeo.bounds import (
    Circuit,
    Gate,
    GateSet,
    IsometryMap,
    circuit_to_curve,
    circuit_unitary,
    cnot_matrix,
    gate_unitary,
    hadamard_matrix,
    isometry_check,
    local_unitary,
    pauli_symmetric_check,
    random_unitary,
    regularizer,
    s_matrix,
    swap_matrix,
)
from sugeo.errors import DimensionMismatch, NonTracelessInSUMode, NotGBounding
from sugeo.metrics import F1, F1DELTA, F2, FP, FPDELTA, FQ, MetricSpec, PenaltyFunction, norm
from sugeo.pauli import SU, PauliVector, project_to_pauli, string_index, to_matrix

PEN1 = PenaltyFunction(kind="step", k=4.0, low_weight_cutoff=1)
F1_SPEC = MetricSpec(family=F1)
F2_SPEC = MetricSpec(family=F2)


def test_gate_unitary_closed_form():
    c = Circuit(2, [])
    g = Gate("ZZ", 0.3, (0, 1))
    expected = np.diag(np.exp(-1j * 0.3 * np.array([1.0, -1.0, -1.0, 1.0])))
    assert np.max(np.abs(gate_unitary(c, g) - expected)) < 1e-14


def test_circuit_unitary_applies_first_gate_first():
    c = Circuit(1, [Gate("X", 0.4, (0,)), Gate("Z", 0.2, (0,))])
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    ux = np.cos(0.4) * np.eye(2) - 1j * np.sin(0.4) * sx
    uz = np.cos(0.2) * np.eye(2) - 1j * np.sin(0.2) * sz
    assert np.max(np.abs(circuit_unitary(c) - uz @ ux)) < 1e-14


def test_gate_validation():
    with pytest.raises(DimensionMismatch):
        Gate("XX", 0.5, (0,))
    with pytest.raises(ValueError):
        Gate("XX", 0.5, (0, 0))
    gs = GateSet()
    with pytest.raises(ValueError):
        gs.validate(Gate("XXX", 0.5, (0, 1, 2)))
    with pytest.raises(ValueError):
        gs.validate(Gate("X", 1.5, (0,)))
    with pytest.raises(ValueError):
        gs.validate(Gate("I", 0.5, (0,)))


def test_full_string_places_letters_by_qubit():
    c = Circuit(2, [])
    assert c.full_string(Gate("XZ", 0.1, (1, 0))) == "ZX"
    with pytest.raises(DimensionMismatch):
        c.full_string(Gate("X", 0.1, (5,)))


def test_circuit_json_roundtrip():
    c = Circuit(2, [Gate("ZZ", 0.3, (0, 1)), Gate("X", 0.7, (1,))])
    again = Circuit.from_json(c.to_json())
    assert np.max(np.abs(circuit_unitary(again) - circuit_unitary(c))) < 1e-14


def test_regularizer_validates():
    r = regularizer(3)
    assert r(0.0) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        regularizer(0)


def test_empty_circuit_curve():
    traj = circuit_to_curve(Circuit(2, []), F2_SPEC)
    assert traj.length == 0.0
    assert traj.endpoint_error == 0.0
    assert traj.gate_count == 0
    assert traj.bound_holds


def test_penalized_two_qubit_gate_rejected():
    spec = MetricSpec(family=FP, penalty=PEN1)
    c = Circuit(2, [Gate("ZZ", 0.5, (0, 1))])
    with pytest.raises(NotGBounding):
        circuit_to_curve(c, spec)


def test_first_gate_at_fault_names_the_error():
    spec = MetricSpec(family=FP, penalty=PEN1)
    over, out_of_range, too_wide = (
        Gate("ZZ", 0.5, (0, 1)), Gate("X", 0.1, (5,)), Gate("XXX", 0.1, (0, 1, 2)))
    with pytest.raises(NotGBounding):
        circuit_to_curve(Circuit(2, [over, out_of_range]), spec)
    with pytest.raises(NotGBounding):
        circuit_to_curve(Circuit(2, [Gate("X", 0.1, (0,)), over, too_wide]), spec)
    with pytest.raises(DimensionMismatch):
        circuit_to_curve(Circuit(2, [out_of_range, over]), spec)
    with pytest.raises(ValueError, match="weight"):
        circuit_to_curve(Circuit(2, [too_wide, over]), spec)


def test_taxicab_length_is_total_rotation():
    c = Circuit(
        2,
        [Gate("ZZ", 0.3, (0, 1)), Gate("X", 0.5, (0,)), Gate("Y", 0.2, (1,))],
    )
    traj = circuit_to_curve(c, F1_SPEC)
    assert traj.length == pytest.approx(1.0, abs=1e-6)
    assert traj.endpoint_error < 1e-8
    assert traj.bound_holds
    for i in (0, len(traj.ts) // 2, len(traj.ts) - 1):
        V = traj.unitaries[i]
        assert np.max(np.abs(V @ V.conj().T - np.eye(4))) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("spec", [
    F1_SPEC,
    F2_SPEC,
    MetricSpec(family=FP, penalty=PenaltyFunction(kind="step", k=4.0)),
    MetricSpec(family=FQ, penalty=PenaltyFunction(kind="step", k=4.0)),
], ids=lambda spec: spec.family)
def test_closed_form_trajectory(n, spec):
    """Length sum alpha_j F(sigma_j), the circuit product at t = 1, unitary samples."""
    rng = np.random.default_rng(10 * n)
    gates = []
    for _ in range(6):
        qubits = tuple(int(q) for q in rng.choice(n, size=int(rng.integers(1, 3)), replace=False))
        letters = "".join("XYZ"[j] for j in rng.integers(3, size=len(qubits)))
        gates.append(Gate(letters, float(rng.uniform(0.05, 1.0)), qubits))
    c = Circuit(n, gates)
    traj = circuit_to_curve(c, spec)
    d = 4**n - 1
    expected = 0.0
    for g in gates:
        e = np.zeros(d)
        e[string_index(n, SU)[c.full_string(g)]] = 1.0
        expected += g.alpha * norm(spec, e)
    assert traj.length == pytest.approx(expected, abs=1e-12)
    # r(t) spans whole periods per segment, so the trapezoid rule is exact
    assert np.trapezoid(traj.speeds, traj.ts) == pytest.approx(expected, abs=1e-12)
    assert traj.endpoint_error < 1e-12
    assert np.max(np.abs(traj.unitaries[-1] - circuit_unitary(c))) < 1e-12
    eye = np.eye(2**n)
    products = np.einsum("kij,klj->kil", traj.unitaries, traj.unitaries.conj())
    assert np.max(np.abs(products - eye)) < 1e-12
    assert len(traj.ts) == len(traj.unitaries) == len(traj.speeds)


def test_all_families_are_pauli_symmetric():
    specs = [
        F1_SPEC,
        F2_SPEC,
        MetricSpec(family=FP, penalty=PEN1),
        MetricSpec(family=FQ, penalty=PEN1),
        MetricSpec(family=F1DELTA, delta=1e-3),
        MetricSpec(family=FPDELTA, penalty=PEN1, delta=1e-3),
    ]
    for spec in specs:
        assert pauli_symmetric_check(spec, samples=20)


def test_named_cliffords():
    assert np.allclose(cnot_matrix() @ cnot_matrix(), np.eye(4))
    assert np.allclose(swap_matrix() @ swap_matrix(), np.eye(4))
    assert np.allclose(hadamard_matrix() @ hadamard_matrix(), np.eye(2))
    assert np.allclose(np.linalg.matrix_power(s_matrix(), 4), np.eye(2))
    A, B = hadamard_matrix(), s_matrix()
    assert np.allclose(local_unitary([A, B]), np.kron(A, B))


def test_random_su2_is_unitary():
    rng = np.random.default_rng(11)
    W = random_unitary(rng, 2)
    assert np.max(np.abs(W @ W.conj().T - np.eye(2))) < 1e-12


def test_isometry_map_validation():
    with pytest.raises(ValueError):
        IsometryMap(kind="antipodal")
    with pytest.raises(ValueError):
        IsometryMap(kind="pauli")
    with pytest.raises(ValueError):
        IsometryMap(kind="clifford")


def test_isometry_check_rejects_a_pushed_trace():
    # IsometryMap does not check unitarity; M H M^dag then has a trace,
    # which SU coefficients would drop
    iso = IsometryMap(kind="unitary", operator=np.diag([2.0, 1.0, 1.0, 1.0]))
    with pytest.raises(NonTracelessInSUMode):
        isometry_check(iso, F2_SPEC, samples=5)


def test_pauli_conjugation_preserves_every_family():
    iso = IsometryMap(kind="pauli", pauli="XY")
    res = isometry_check(iso, F1_SPEC, samples=50)
    assert res.applicable
    assert res.max_deviation < 1e-10
    assert res.counterexample is None


def test_cnot_breaks_weighted_quadratic():
    iso = IsometryMap(kind="clifford", operator=cnot_matrix())
    spec = MetricSpec(family=FQ, penalty=PEN1)
    res = isometry_check(iso, spec, samples=50)
    assert not res.applicable
    assert res.max_deviation > 1e-6
    assert res.counterexample is not None


@pytest.mark.parametrize("iso, spec", [
    (IsometryMap(kind="complex_conjugation"), MetricSpec(family=FPDELTA, penalty=PEN1, delta=1e-3)),
    (IsometryMap(kind="clifford", operator=cnot_matrix()), MetricSpec(family=FQ, penalty=PEN1)),
], ids=["preserves", "breaks"])
def test_isometry_check_equals_a_loop_of_scalar_calls(iso, spec):
    """One batched pass: standard_normal((m, d)) gives the rows of m draws of standard_normal(d)."""
    res = isometry_check(iso, spec, samples=40, seed=5)
    rng = np.random.default_rng(5)
    worst, counterexample = 0.0, None
    for _ in range(40):
        y = PauliVector(2, SU, rng.standard_normal(15))
        dev = abs(norm(spec, project_to_pauli(iso.push(to_matrix(y)), SU)) - norm(spec, y))
        worst = max(worst, dev)
        if dev > 1e-6 and counterexample is None:
            counterexample = y
    assert res.max_deviation == pytest.approx(worst, rel=0.0, abs=1e-15)
    if counterexample is None:
        assert res.counterexample is None and worst < 1e-10
    else:
        assert np.array_equal(res.counterexample.entries, counterexample.entries)


def test_conjugation_is_an_isometry_of_f2():
    iso = IsometryMap(kind="complex_conjugation")
    res = isometry_check(iso, F2_SPEC, samples=50)
    assert res.applicable
    assert res.max_deviation < 1e-10
