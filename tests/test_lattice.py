import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from sugeo.errors import (
    DimensionLimit,
    NonFiniteInput,
    NonTracelessInSUMode,
    WindowTooSmall,
)
from sugeo.lattice import (
    CvpResult,
    DiagonalUnitary,
    PhaseLattice,
    coverage_bound,
    cvp_minimal_pauli_geodesic,
    diagonal_to_pauli,
    monte_carlo_coverage,
    reduce_phases,
    unit_ball_volume,
)
from sugeo.metrics import F1, F2, FP, FQ, MetricSpec, PenaltyFunction
from sugeo.pauli import SU, U, to_matrix

F1_U = MetricSpec(family=F1, mode=U)
F2_U = MetricSpec(family=F2, mode=U)


def test_reduce_phases_range():
    theta = np.array([3 * np.pi, -np.pi, 0.5, 2 * np.pi, -0.25])
    out = reduce_phases(theta)
    assert np.allclose(out, [np.pi, np.pi, 0.5, 0.0, -0.25])
    assert np.all(out > -np.pi)
    assert np.all(out <= np.pi)


def test_diagonal_to_pauli_reconstructs():
    rng = np.random.default_rng(7)
    h = rng.standard_normal(4)
    v = diagonal_to_pauli(h)
    assert v.mode == U
    assert np.max(np.abs(to_matrix(v) - np.diag(h))) < 1e-12


def test_cvp_identity():
    res = cvp_minimal_pauli_geodesic(F1_U, DiagonalUnitary(1, np.zeros(2)))
    assert res.value == pytest.approx(0.0, abs=1e-14)
    assert res.certified
    assert np.all(res.minimizer == 0)


def test_cvp_single_qubit_phase_flip():
    res = cvp_minimal_pauli_geodesic(F1_U, np.array([0.0, np.pi]))
    assert res.value == pytest.approx(np.pi, abs=1e-12)
    assert res.certified
    d = np.diag(res.geodesic_hamiltonian.matrix)
    assert np.max(np.abs(np.exp(-1j * d) - np.exp(-1j * np.array([0.0, np.pi])))) < 1e-12


def test_cvp_su_mode():
    theta = np.array([np.pi, np.pi])
    spec = MetricSpec(family=F2, mode=SU)
    res = cvp_minimal_pauli_geodesic(spec, theta)
    assert res.value == pytest.approx(np.pi, abs=1e-12)
    d = np.diag(res.geodesic_hamiltonian.matrix)
    assert np.sum(d) == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(np.exp(-1j * d) - np.exp(-1j * theta))) < 1e-12


def test_cvp_su_mode_rejects_bad_trace():
    spec = MetricSpec(family=F2, mode=SU)
    with pytest.raises(NonTracelessInSUMode):
        cvp_minimal_pauli_geodesic(spec, np.array([0.0, np.pi]))


def test_cvp_matches_brute_force():
    rng = np.random.default_rng(9)
    Wt = hadamard(4).astype(float)
    grid = np.array(np.meshgrid(*([range(-4, 5)] * 4), indexing="ij")).reshape(4, -1).T
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi, 4)
        res = cvp_minimal_pauli_geodesic(F1_U, theta)
        v = reduce_phases(theta)[None, :] - 2 * np.pi * grid
        brute = np.min(np.sum(np.abs(v @ Wt / 4), axis=1))
        assert res.value == pytest.approx(brute, abs=1e-10)
        assert res.certified


def test_cvp_dimension_cap():
    with pytest.raises(DimensionLimit):
        cvp_minimal_pauli_geodesic(F1_U, np.zeros(16))


def test_cvp_certifies_table_penalty():
    # window enumeration could not certify this; the sphere decoder proves it
    pen = PenaltyFunction(kind="table", values=(1.0, 200.0))
    spec = MetricSpec(family=FQ, penalty=pen, mode=U)
    theta = np.array([0.0, np.pi])
    res = cvp_minimal_pauli_geodesic(spec, theta, require_certified=True)
    assert res.certified
    assert res.window_used == int(np.max(np.abs(res.minimizer)))
    assert res.value == pytest.approx(0.5 * np.pi * math.sqrt(201.0), rel=1e-12)


def test_cvp_node_budget_exhausted():
    # the weighted-l1 bound is loose at k = 100: the search runs out of nodes
    # and returns its zero-shift incumbent, which is the closed-form optimum
    n, k = 3, 100.0
    spec = MetricSpec(family=FP, penalty=PenaltyFunction(kind="step", k=k), mode=U)
    theta = np.zeros(2**n)
    theta[-1] = np.pi
    res = cvp_minimal_pauli_geodesic(spec, theta)
    assert not res.certified
    assert np.all(res.minimizer == 0)
    assert res.window_used == 0
    expected = np.pi * (k - (2 + n + n * n) / 2 ** (n + 1) * (k - 1.0))
    assert res.value == pytest.approx(expected, rel=1e-12)
    with pytest.raises(WindowTooSmall):
        cvp_minimal_pauli_geodesic(spec, theta, require_certified=True)


def _diag_value(kind, w, h, m):
    """F(diag(h - 2 pi m)) for each row of m, straight from the definition."""
    d = len(h)
    y = (h[None, :] - 2 * np.pi * m) @ hadamard(d).T / d
    if kind == "taxicab":
        return np.abs(y) @ w
    return np.sqrt(y**2 @ w)


CVP_CASES = [
    (F1, None),
    (FP, 1.5),
    (FP, 4.0),
    (F2, None),
    (FQ, 4.0),
    (FQ, 200.0),
]


@settings(max_examples=150, deadline=None)
@given(
    n=st.sampled_from([1, 2]),
    case=st.sampled_from(CVP_CASES),
    mode=st.sampled_from([U, SU]),
    cutoff=st.sampled_from([0, 1]),
    raw=st.lists(st.floats(-np.pi, np.pi), min_size=4, max_size=4),
)
def test_cvp_exact_against_brute_force(n, case, mode, cutoff, raw):
    family, k = case
    d = 2**n
    theta = np.array(raw[:d])
    if mode == SU:
        theta[-1] = -np.sum(theta[:-1])
    pen = None if k is None else PenaltyFunction(kind="step", k=k, low_weight_cutoff=cutoff)
    spec = MetricSpec(family=family, penalty=pen, mode=mode)
    res = cvp_minimal_pauli_geodesic(spec, theta)
    assert res.certified

    kind = "quadratic" if family in (F2, FQ) else "taxicab"
    w = np.array([1.0 if pen is None else pen.weight_value(bin(s).count("1")) for s in range(d)])
    h = reduce_phases(theta)
    zero = np.zeros(d, dtype=int)
    if mode == SU:
        w[0] = 0.0
        su_sum = int(round(np.sum(h) / (2 * np.pi)))
        assert int(np.sum(res.minimizer)) == su_sum
        zero[-1] = su_sum  # the zero shift, moved onto the trace-zero slice
    radius = res.window_used + 1
    box = np.array(list(itertools.product(range(-radius, radius + 1), repeat=d)))
    if mode == SU:
        box = box[box.sum(axis=1) == su_sum]
    brute = float(np.min(_diag_value(kind, w, h, box)))
    assert res.value == pytest.approx(brute, rel=1e-9, abs=1e-12)
    assert res.value <= _diag_value(kind, w, h, zero[None, :])[0] + 1e-12
    assert res.value == pytest.approx(
        _diag_value(kind, w, h, res.minimizer[None, :])[0], rel=1e-12, abs=1e-12
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cvp_rejects_non_finite_phases(bad):
    with pytest.raises(NonFiniteInput):
        DiagonalUnitary(1, np.array([bad, 0.0]))
    with pytest.raises(NonFiniteInput):
        cvp_minimal_pauli_geodesic(F1_U, np.array([bad, 0.0]))


def test_unit_ball_volumes_closed_form():
    assert unit_ball_volume(F1_U, 0.7, 1) == pytest.approx(2 * 0.7**2)
    assert unit_ball_volume(F2_U, 0.7, 1) == pytest.approx(np.pi * 0.7**2)
    pen = PenaltyFunction(kind="step", k=9.0, low_weight_cutoff=0)
    spec = MetricSpec(family=FQ, penalty=pen, mode=U)
    assert unit_ball_volume(spec, 0.7, 1) == pytest.approx(np.pi * 0.7**2 / 9.0)
    assert unit_ball_volume(F1_U, 0.0, 1) == 0.0


def test_coverage_bound_inverts_volume():
    pen = PenaltyFunction(kind="step", k=5.0, low_weight_cutoff=1)
    specs = [F1_U, F2_U, MetricSpec(family=FQ, penalty=pen, mode=U)]
    for spec in specs:
        for n in (1, 2):
            f = 0.37
            r = coverage_bound(spec, f, n)
            det = math.exp(PhaseLattice(spec.mode, n).log_det())
            assert unit_ball_volume(spec, r, n) == pytest.approx(f * det, rel=1e-12)
    with pytest.raises(ValueError):
        coverage_bound(F2_U, 0.0, 1)


def test_phase_lattice_determinant():
    for n in (1, 2, 3):
        L = PhaseLattice(U, n)
        sign, logdet = np.linalg.slogdet(L.basis_matrix())
        assert abs(logdet - L.log_det()) < 1e-12


def test_monte_carlo_single_qubit_taxicab():
    frac = monte_carlo_coverage(F1_U, np.pi / 2, 1, samples=3000)
    assert abs(frac - 0.25) < 0.04


def test_monte_carlo_restricted():
    with pytest.raises(DimensionLimit):
        monte_carlo_coverage(F1_U, 1.0, 3)


def test_diagonal_unitary_json_roundtrip():
    d = DiagonalUnitary(2, np.array([0.1, -0.2, 0.3, -0.4]))
    again = DiagonalUnitary.from_json(d.to_json())
    assert again.n == 2
    assert np.allclose(again.phases, d.phases)
