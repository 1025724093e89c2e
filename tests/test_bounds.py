import tracemalloc

import numpy as np
import pytest
from oracles import gate_unitary, segment_curve

from sugeo import bounds, pauli
from sugeo.bounds import (
    Circuit,
    Gate,
    IsometryMap,
    circuit_to_curve,
    circuit_unitary,
    cnot_matrix,
    hadamard_matrix,
    isometry_check,
    local_unitary,
    random_unitary,
    regularizer,
    s_matrix,
    swap_matrix,
)
from sugeo.errors import (
    DimensionLimit, DimensionMismatch, NotGBounding, StepLimitExceeded,
)
from sugeo.metrics import (
    F1, F1DELTA, F2, FP, FPDELTA, FQ, MetricSpec, PenaltyFunction, norm, norms_batch,
)
from sugeo.pauli import SU, PauliVector, basis_dimension, project_to_pauli, string_index, to_matrix

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
    # the gate set: 1 <= weight <= 2, alpha in [0, 1]
    for gate in (Gate("XXX", 0.5, (0, 1, 2)), Gate("X", 1.5, (0,)), Gate("X", -0.1, (0,)),
                 Gate("I", 0.5, (0,))):
        with pytest.raises(ValueError):
            circuit_to_curve(Circuit(3, [gate]), F2_SPEC)
    assert circuit_to_curve(Circuit(3, [Gate("XY", 1.0, (0, 2))]), F2_SPEC).bound_holds


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


def random_circuit(n, m, seed):
    """m gates of weight 1 or 2 (1 at n = 1) with alpha in [0.05, 1]."""
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(m):
        size = int(rng.integers(1, min(n, 2) + 1))
        qubits = tuple(int(q) for q in rng.choice(n, size=size, replace=False))
        letters = "".join("XYZ"[j] for j in rng.integers(3, size=size))
        gates.append(Gate(letters, float(rng.uniform(0.05, 1.0)), qubits))
    return Circuit(n, gates)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("spec", [
    F1_SPEC,
    F2_SPEC,
    MetricSpec(family=FP, penalty=PenaltyFunction(kind="step", k=4.0)),
    MetricSpec(family=FQ, penalty=PenaltyFunction(kind="step", k=4.0)),
], ids=lambda spec: spec.family)
def test_batched_curve_matches_the_per_segment_formula(n, spec):
    c = random_circuit(n, 5, 7 * n)
    traj = circuit_to_curve(c, spec)
    ts, unitaries, speeds, length = segment_curve(c, spec)
    assert np.array_equal(traj.ts, ts)
    assert np.max(np.abs(traj.unitaries - unitaries)) < 1e-14
    assert np.array_equal(traj.speeds, speeds)
    assert traj.length == length


@pytest.mark.parametrize("n", [1, 2, 3])
def test_joint_samples_are_the_prefix_circuits(n):
    c = random_circuit(n, 6, 11 * n)
    traj = circuit_to_curve(c, F2_SPEC)
    k = (len(traj.ts) - 1) // len(c.gates)
    for j in range(len(c.gates) + 1):
        prefix = circuit_unitary(Circuit(n, c.gates[:j]))
        assert np.max(np.abs(traj.unitaries[j * k] - prefix)) < 1e-14
    assert traj.endpoint_error == np.max(np.abs(traj.unitaries[-1] - circuit_unitary(c)))


@pytest.mark.parametrize("n", [3, 4])
def test_curve_peak_memory_is_about_the_stack(n):
    c = random_circuit(n, 8, n)
    tracemalloc.start()
    try:
        traj = circuit_to_curve(c, F2_SPEC)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * traj.unitaries.nbytes


def test_trajectory_stats():
    traj = circuit_to_curve(random_circuit(2, 3, 0), F2_SPEC)
    assert traj.stats == {"gates": 3, "samples": len(traj.ts), "stack_bytes": traj.unitaries.nbytes}
    assert traj.stats["samples"] == 3 * 250 + 1
    assert circuit_to_curve(Circuit(2, []), F2_SPEC).stats == {
        "gates": 0, "samples": 2, "stack_bytes": 2 * 16 * 16}


@pytest.mark.parametrize("n", [-1, 0, 5, 9, 30])
def test_circuits_check_the_qubit_range(n):
    gate = Gate("X", 0.5, (0,))
    for gates in ([], [gate]):
        with pytest.raises(DimensionLimit):
            circuit_to_curve(Circuit(n, gates), F2_SPEC)
        with pytest.raises(DimensionLimit):
            circuit_unitary(Circuit(n, gates))


def test_sample_stack_cap_refuses_before_it_allocates():
    per_gate = 250 * 4**4 * 16
    m = (pauli.MAX_BYTES - 4**4 * 16) // per_gate + 1  # one gate over the budget at n = 4
    c = Circuit(4, [Gate("Z", 0.5, (0,))] * m)
    tracemalloc.start()
    try:
        with pytest.raises(StepLimitExceeded):
            circuit_to_curve(c, F2_SPEC)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the gate norms take a few MB; the refused stack would take over 1 GiB
    assert m == 1049 and peak < pauli.MAX_BYTES / 100
    # the first gate at fault is still the one named
    with pytest.raises(ValueError, match="weight"):
        circuit_to_curve(Circuit(4, [*c.gates, Gate("XXX", 0.1, (0, 1, 2))]), F2_SPEC)


def test_gate_norms_take_no_row_per_gate():
    """10^4 gates at n = 4 are refused with a peak under 5 MB: each distinct string is normed
    once, where a (gates, 255) matrix of gate Hamiltonians alone would take 20 MB."""
    gates = [Gate("XZ", 0.5, (0, 3)), Gate("Z", 0.25, (1,)), Gate("YY", 0.75, (1, 2))] * 3334
    c = Circuit(4, gates)
    tracemalloc.start()
    try:
        with pytest.raises(StepLimitExceeded):
            circuit_to_curve(c, MetricSpec(family=FQ, penalty=PenaltyFunction(kind="step", k=4.0)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_sample_stack_cap_edge(monkeypatch):
    c = random_circuit(2, 3, 1)
    monkeypatch.setattr(pauli, "MAX_BYTES", (3 * 250 + 1) * 16 * 16)
    assert circuit_to_curve(c, F2_SPEC).stats["stack_bytes"] == pauli.MAX_BYTES
    with pytest.raises(StepLimitExceeded):
        circuit_to_curve(Circuit(2, [*c.gates, Gate("X", 0.1, (0,))]), F2_SPEC)


def pauli_symmetric_check(spec, samples=50, n=2, seed=20260822):
    """Norm invariance under random sign flips of the coefficients, in one batch."""
    rng = np.random.default_rng(seed)
    shape = (samples, basis_dimension(n, spec.mode))
    ys = rng.standard_normal(shape)
    flipped = rng.choice([-1.0, 1.0], size=shape) * ys
    F = norms_batch(spec, ys)
    return bool(np.all(np.abs(norms_batch(spec, flipped) - F) <= 1e-12 * np.maximum(1.0, F)))


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


def test_isometry_map_rejects_a_non_unitary_operator():
    """The operator passes UnitaryOperator, so M H M^+ never gains a trace (which SU
    coefficients would drop) and 2 I is not reported as an applicable F2 isometry."""
    for operator in (np.diag([2.0, 1.0, 1.0, 1.0]), 2.0 * np.eye(4)):
        with pytest.raises(ValueError, match="not unitary"):
            IsometryMap(kind="unitary", operator=operator)
    with pytest.raises(DimensionMismatch):
        IsometryMap(kind="clifford", operator=np.ones(4))
    with pytest.raises(DimensionMismatch):
        IsometryMap(kind="unitary", operator=np.eye(3))


@pytest.mark.parametrize("iso", [
    IsometryMap(kind="pauli", pauli="XYZ"),
    IsometryMap(kind="unitary", operator=np.eye(8)),
    IsometryMap(kind="clifford", operator=np.eye(2)),
], ids=["pauli-3", "unitary-8", "clifford-2"])
def test_isometry_check_rejects_a_map_of_another_size(iso):
    """A map whose size is not 2^n raised numpy's matmul ValueError; now DimensionMismatch."""
    with pytest.raises(DimensionMismatch):
        isometry_check(iso, F2_SPEC, samples=5, n=2)
    with pytest.raises(DimensionMismatch):
        iso.push(np.eye(4))


def test_a_long_pauli_string_is_refused_before_its_matrix_is_built(monkeypatch):
    monkeypatch.setattr(bounds, "pauli_matrix", lambda s: pytest.fail(f"built a {len(s)}-letter matrix"))
    with pytest.raises(DimensionMismatch):
        isometry_check(IsometryMap(kind="pauli", pauli="X" * 40), F2_SPEC, samples=5, n=2)


def test_unit_norms_are_computed_once_per_spec_and_n(monkeypatch):
    """circuit_to_curve norms the 4^n unit strings once per (spec, n), read-only; the
    lengths are the same bits as with a fresh norms_batch."""
    calls = []
    batch = bounds.norms_batch
    monkeypatch.setattr(bounds, "norms_batch", lambda spec, rows: calls.append(len(rows)) or batch(spec, rows))
    spec = MetricSpec(FPDELTA, penalty=PEN1, delta=1.2345e-4)  # a spec no other test caches
    circuit = Circuit(4, [Gate("XZ", 0.2, (0, 2)), Gate("Y", 0.5, (3,))])
    first = circuit_to_curve(circuit, spec)
    second = circuit_to_curve(circuit, spec)
    assert calls == [255]
    assert first.length == second.length == 0.2 * norm(spec, np.eye(255)[string_index(4, SU)["XIZI"]]) + 0.5 * norm(
        spec, np.eye(255)[string_index(4, SU)["IIIY"]])
    assert not bounds._unit_norms(spec, 4).flags.writeable


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
