"""Reproduction suite: the headline numerical claims, re-checked from scratch.

Each run_* function recomputes one group of invariants and reports rows of
(criterion, expected, observed, passed).  The CLI `reproduce` subcommand renders
the rows as CSV; the tests assert that every row passes and match the CSV with
tests/data/reproduce.csv.

All randomness uses numpy's default PCG64 generator with the fixed seed
20260822, and no row prints wall time, so reruns produce identical rows on a
given platform.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass

import numpy as np

from .bounds import (
    Circuit,
    Gate,
    IsometryMap,
    circuit_to_curve,
    cnot_matrix,
    isometry_check,
    local_unitary,
    random_unitary,
)
from .coords import (
    apply_bch,
    bch_E_series,
    change_coords_backward,
    change_coords_forward,
    pauli_log,
    su2_adapted_to_pauli,
    su2_pauli_to_adapted,
)
from .geodesic import (
    additive_triple_check,
    curve_length,
    el_residual,
    pauli_geodesic,
    pauli_geodesic_curve,
    shoot_geodesic,
    tensor_product_curve,
)
from .lattice import (
    DiagonalUnitary,
    coverage_bound,
    cvp_minimal_pauli_geodesic,
    lattice_log_det,
    monte_carlo_coverage,
    unit_ball_volume,
)
from .metrics import (
    F1,
    F1DELTA,
    F2,
    FP,
    FPDELTA,
    FQ,
    MetricSpec,
    PenaltyFunction,
    euler_identities_check,
    hessian,
    norm,
    norms_batch,
    penalty_vector,
)
from .pauli import SU, U, PauliVector, basis_dimension, stabilizer_span, to_matrix

_SEED = 20260822


@dataclass
class CheckRow:
    criterion: str
    expected: str
    observed: str
    passed: bool


def _row(criterion, expected, observed, passed) -> CheckRow:
    return CheckRow(criterion, expected, observed, bool(passed))


# ---------------------------------------------------------------------------
# 1. CVP value for the AND phase oracle


def run_and_cvp():
    """Minimal diagonal geodesic through the AND phase oracle vs the closed form.

    The oracle puts phase pi on |1...1>; under Fp with a step penalty of
    strength k the minimal length is pi*(k - (2+n+n^2)/2^(n+1) * (k-1)).
    An n = 3 solve must take under 60 s; the time is not printed.
    """
    rows = []
    for n in (2, 3):
        for k in (4.0, 16.0, 100.0):
            spec = MetricSpec(FP, penalty=PenaltyFunction(kind="step", k=k), mode=U)
            theta = np.zeros(2**n)
            theta[-1] = np.pi
            t0 = time.perf_counter()
            res = cvp_minimal_pauli_geodesic(spec, DiagonalUnitary(n, theta))
            elapsed = time.perf_counter() - t0
            expected = np.pi * (k - (2 + n + n * n) / 2 ** (n + 1) * (k - 1.0))
            rel = abs(res.value - expected) / abs(expected)
            ok = rel < 1e-9 and res.certified and (n < 3 or elapsed < 60.0)
            rows.append(
                _row(
                    f"and-cvp n={n} k={k:g}",
                    f"{expected:.12g}",
                    f"{res.value:.12g} (w={res.window_used}, certified={res.certified})",
                    ok,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# 2. a geodesic that closes only after winding


def run_long_geodesic():
    """exp(-i(pi/2 ZZ + 2pi/M ZI)t) first reproduces exp(-i pi/2 ZZ) at t = M."""
    rows = []
    S = stabilizer_span(("ZI", "IZ"))
    target = pauli_geodesic(S, PauliVector.from_terms(2, {"ZZ": np.pi / 2}), 1.0).matrix
    for M in (5, 9):
        coeffs = PauliVector.from_terms(2, {"ZZ": np.pi / 2, "ZI": 2 * np.pi / M})
        dists = [
            float(np.max(np.abs(pauli_geodesic(S, coeffs, float(t)).matrix - target)))
            for t in range(1, M + 1)
        ]
        hit, miss = dists[-1], min(dists[:-1])
        rows.append(_row(f"long-geodesic M={M} t=M", "< 1e-08", f"{hit:.3g}", hit < 1e-8))
        rows.append(_row(f"long-geodesic M={M} t<M", "> 0.01", f"{miss:.3g}", miss > 1e-2))
    return rows


# ---------------------------------------------------------------------------
# 3. Euler-Lagrange residuals of one-parameter subgroups

_STABILIZER_PAIRS = (
    ("ZI", "IZ"),
    ("XI", "IX"),
    ("YI", "IY"),
    ("XX", "ZZ"),
    ("XX", "YY"),
    ("XZ", "ZX"),
)


def run_stabilizer_el():
    """Stabilizer-supported exponentials solve the geodesic equation; generic ones don't."""
    rng = np.random.default_rng(_SEED)
    pen = PenaltyFunction(kind="step", k=4.0, low_weight_cutoff=1)
    specs = {
        "FpDelta": MetricSpec(FPDELTA, penalty=pen, delta=1e-4),
        "Fq": MetricSpec(FQ, penalty=pen),
    }
    worst = dict.fromkeys(specs, 0.0)
    for i in range(10):
        S = stabilizer_span(_STABILIZER_PAIRS[i % len(_STABILIZER_PAIRS)])
        support = [s for s in S.elements if s != "II"]
        c = rng.standard_normal(len(support))
        c *= 1.2 / np.sum(np.abs(c))
        coeffs = PauliVector.from_terms(2, dict(zip(support, c)))
        for name, spec in specs.items():
            curve = pauli_geodesic_curve(spec, coeffs, 1.0, num_samples=801)
            worst[name] = max(worst[name], el_residual(spec, curve))
    rows = [_row(f"stabilizer-el {name}", "< 0.0001", f"{v:.3g}", v < 1e-4)
            for name, v in worst.items()]
    spec_neg = MetricSpec(FQ, penalty=PenaltyFunction(kind="step", k=100.0, low_weight_cutoff=1))
    coeffs = PauliVector.from_terms(2, {"XI": 0.9, "ZZ": 0.7, "IY": 0.4})
    resid = el_residual(spec_neg, pauli_geodesic_curve(spec_neg, coeffs, 1.0, num_samples=801))
    rows.append(_row("stabilizer-el generic Fq k=100", "> 0.01", f"{resid:.3g}", resid > 1e-2))
    return rows


# ---------------------------------------------------------------------------
# 4. shooting under F2 from the origin


def run_f2_shoot():
    """F2 shooting from the identity stays a straight line at constant speed."""
    spec = MetricSpec(F2)
    rng = np.random.default_rng(_SEED)
    y0 = rng.standard_normal(15)
    y0 *= 2.0 / np.sum(np.abs(y0))
    curve = shoot_geodesic(spec, np.zeros(15), y0, 1.0)
    end_err = float(np.max(np.abs(curve.xs[-1] - y0)))
    drift = float(np.max(np.abs(curve.speeds - norm(spec, y0))))
    return [
        _row("f2-shoot endpoint", "< 1e-06", f"{end_err:.3g}", end_err < 1e-6),
        _row("f2-shoot speed-drift", "< 1e-06", f"{drift:.3g}", drift < 1e-6),
    ]


# ---------------------------------------------------------------------------
# 5. circuits as curves: length never exceeds the gate count


def run_circuit_bound():
    """Regularized circuit trajectories end on the circuit and have length <= m."""
    rng = np.random.default_rng(_SEED)
    specs = (
        MetricSpec(F1),
        MetricSpec(F2),
        MetricSpec(FP, penalty=PenaltyFunction(kind="step", k=4.0)),
        MetricSpec(FQ, penalty=PenaltyFunction(kind="step", k=4.0)),
    )
    letters = "XYZ"
    worst_end, worst_excess, all_hold = 0.0, -math.inf, True
    for _ in range(50):
        m = int(rng.integers(1, 9))
        gates = []
        for _ in range(m):
            if rng.random() < 0.5:
                p = letters[rng.integers(0, 3)]
                qs = (int(rng.integers(0, 2)),)
            else:
                p = letters[rng.integers(0, 3)] + letters[rng.integers(0, 3)]
                qs = (0, 1)
            gates.append(Gate(p, float(rng.uniform(0.05, 1.0)), qs))
        circuit = Circuit(2, gates)
        for spec in specs:
            traj = circuit_to_curve(circuit, spec)
            worst_end = max(worst_end, traj.endpoint_error)
            worst_excess = max(worst_excess, traj.length - traj.gate_count)
            all_hold = all_hold and traj.bound_holds
    return [
        _row("circuit-bound endpoint", "< 1e-08", f"{worst_end:.3g}", worst_end < 1e-8),
        _row(
            "circuit-bound length<=gates",
            "excess <= 1e-06",
            f"{worst_excess:.3g}",
            worst_excess <= 1e-6 and all_hold,
        ),
    ]


# ---------------------------------------------------------------------------
# 6. coordinate-change cross-validation


def run_coord_crosscheck():
    """Single-qubit closed forms against the filter; the filter against the power series."""
    rng = np.random.default_rng(_SEED)
    worst_fwd = worst_bwd = 0.0
    for _ in range(1000):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        x = u * rng.uniform(0.0, np.pi - 0.1)
        y = rng.standard_normal(3)
        xv = PauliVector(1, SU, x)
        yt = su2_pauli_to_adapted(x, y)
        yt_vec = change_coords_forward(xv, PauliVector(1, SU, y)).entries
        worst_fwd = max(worst_fwd, float(np.max(np.abs(yt - yt_vec))))
        back = su2_adapted_to_pauli(x, yt)
        back_vec = change_coords_backward(xv, PauliVector(1, SU, yt)).entries
        worst_bwd = max(
            worst_bwd,
            float(np.max(np.abs(back - y))),
            float(np.max(np.abs(back_vec - y))),
        )
    worst_series = 0.0
    for _ in range(40):
        dim = 2 ** int(rng.integers(1, 3))
        A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        X = 0.5 * (A + A.conj().T)
        X *= rng.uniform(0.2, 1.0) / np.linalg.norm(X, 2)
        # the columns of the identity and of the series matrix, unvec'd (column stacking)
        units = np.eye(dim * dim).reshape(-1, dim, dim).transpose(0, 2, 1)
        series = bch_E_series(X).T.reshape(-1, dim, dim).transpose(0, 2, 1)
        worst_series = max(worst_series, float(np.max(np.abs(apply_bch(X, units) - series))))
    return [
        _row("coord su2-vs-vec forward", "< 1e-10", f"{worst_fwd:.3g}", worst_fwd < 1e-10),
        _row("coord su2-vs-vec backward", "< 1e-10", f"{worst_bwd:.3g}", worst_bwd < 1e-10),
        _row("coord filter-vs-series", "< 1e-10", f"{worst_series:.3g}", worst_series < 1e-10),
    ]


# ---------------------------------------------------------------------------
# 7. smoothed norms: sandwich, Hessian, Euler identities


def _fd_hessian(spec, y, h):
    d = len(y)
    Ih = h * np.eye(d)
    plus = Ih[:, None, :] + Ih[None, :, :]
    minus = Ih[:, None, :] - Ih[None, :, :]
    rows = np.concatenate(
        [
            (y + plus).reshape(-1, d),
            (y + minus).reshape(-1, d),
            (y - minus).reshape(-1, d),
            (y - plus).reshape(-1, d),
        ]
    )
    q = (norms_batch(spec, rows) ** 2).reshape(4, d, d)
    return (q[0] - q[1] - q[2] + q[3]) / (4.0 * h * h) / 2.0


def run_smoothing():
    """Sandwich bounds, Hessian positivity + finite differences, Euler identities."""
    rng = np.random.default_rng(_SEED)
    pen = PenaltyFunction(kind="step", k=4.0, low_weight_cutoff=1)
    cases = []
    for n in (1, 2):
        d = basis_dimension(n, SU)
        P = float(penalty_vector(MetricSpec(FP, penalty=pen), n).sum())
        cases.append((n, MetricSpec(F1DELTA, delta=1e-4 / d), MetricSpec(F1), float(d)))
        cases.append(
            (n, MetricSpec(FPDELTA, penalty=pen, delta=1e-4 / P), MetricSpec(FP, penalty=pen), P)
        )
    sandwich_bad = 0
    min_eig = math.inf
    worst_fd = worst_euler = 0.0
    for n, sm, plain, P in cases:
        d = basis_dimension(n, SU)
        delta = sm.delta
        for _ in range(250):
            y = rng.standard_normal(d) * rng.uniform(0.5, 2.0)
            lo = norm(plain, y)
            hi = lo / (1.0 - P * delta)
            v = norm(sm, y)
            if not (lo - 1e-10 * lo <= v <= hi + 1e-10 * lo):
                sandwich_bad += 1
        for _ in range(30):
            y = rng.standard_normal(d)
            y += 0.3 * np.sign(y)
            H = hessian(sm, y)
            min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(H))))
            H_fd = _fd_hessian(sm, y, 1e-3 * np.linalg.norm(y))
            worst_fd = max(
                worst_fd, float(np.max(np.abs(H - H_fd)) / np.max(np.abs(H)))
            )
        for _ in range(50):
            y = rng.standard_normal(d)
            y += 0.3 * np.sign(y)
            y /= np.linalg.norm(y)
            worst_euler = max(worst_euler, *euler_identities_check(sm, y))
    return [
        _row("smoothing sandwich", "0 violations / 1000", str(sandwich_bad), sandwich_bad == 0),
        _row("smoothing hessian-pd", "> 0", f"{min_eig:.3g}", min_eig > 0.0),
        _row("smoothing hessian-fd", "< 1e-05 rel", f"{worst_fd:.3g}", worst_fd < 1e-5),
        _row("smoothing euler", "< 1e-05", f"{worst_euler:.3g}", worst_euler < 1e-5),
    ]


# ---------------------------------------------------------------------------
# 8. isometry catalogue


def run_isometry():
    """Catalogued conjugation maps preserve the norms; the excluded pairs fail."""
    rng = np.random.default_rng(_SEED)
    pen = PenaltyFunction(kind="step", k=4.0, low_weight_cutoff=1)
    p_sum = float(penalty_vector(MetricSpec(FP, penalty=pen), 2).sum())
    specs = {
        F1: MetricSpec(F1),
        F2: MetricSpec(F2),
        FP: MetricSpec(FP, penalty=pen),
        FQ: MetricSpec(FQ, penalty=pen),
        F1DELTA: MetricSpec(F1DELTA, delta=1e-4 / 15),
        FPDELTA: MetricSpec(FPDELTA, penalty=pen, delta=1e-4 / p_sum),
    }
    isos = {
        "pauli": IsometryMap("pauli", pauli="XY"),
        "complex_conjugation": IsometryMap("complex_conjugation"),
        "clifford": IsometryMap("clifford", operator=cnot_matrix()),
        "local_unitary": IsometryMap(
            "local_unitary",
            operator=local_unitary([random_unitary(rng, 2), random_unitary(rng, 2)]),
        ),
        "unitary": IsometryMap("unitary", operator=random_unitary(rng, 4)),
    }
    worst = 0.0
    pairs = 0
    for iso in isos.values():
        for spec in specs.values():
            if not iso.applicable(spec):
                continue
            res = isometry_check(iso, spec)
            worst = max(worst, res.max_deviation)
            pairs += 1
    rows = [_row(f"isometry catalogue ({pairs} pairs)", "< 1e-10", f"{worst:.3g}", worst < 1e-10)]
    for name, iso, family in (("cnot-Fq", "clifford", FQ), ("unitary-F1", "unitary", F1)):
        res = isometry_check(isos[iso], specs[family])
        broken = res.max_deviation > 1e-6 and not res.applicable and res.counterexample is not None
        rows.append(_row(f"isometry {name} breaks", "> 1e-06 + counterexample",
                         f"{res.max_deviation:.3g}", broken))
    return rows


# ---------------------------------------------------------------------------
# 9. volumes and coverage


def run_volume():
    """F2 coverage radius against Stirling brackets; Monte Carlo coverage at n=1 and n=3.

    At n=3 (claim (c)) the balls of radius r about the lattice points cover at most
    V_F(r)/det L of the cell, so the sampled fraction may exceed that only by 3 standard errors.
    """
    rows = []
    base = math.sqrt(2 * math.pi / math.e)
    spec2 = MetricSpec(F2, mode=U)
    for n in (1, 2, 3):
        d = 2**n
        r = coverage_bound(spec2, 1.0, n)
        stir = base * (math.pi * d) ** (1.0 / (2 * d))
        lo = stir * math.exp(1.0 / ((6 * d + 1) * d))
        hi = stir * math.exp(1.0 / (6 * d * d))
        ok = base < r and lo * (1 - 1e-12) <= r <= hi * (1 + 1e-12)
        rows.append(_row(f"volume stirling n={n}", f"[{lo:.9g}, {hi:.9g}]", f"{r:.9g}", ok))
    det1 = math.exp(lattice_log_det(1))
    mc_cases = (
        ("F1 r=pi/2", MetricSpec(F1, mode=U), np.pi / 2, 0.25),
        ("F2 r=1.5", MetricSpec(F2, mode=U), 1.5, 1.5**2 / (2 * np.pi)),
    )
    for name, spec, r, f_exact in mc_cases:
        fhat = monte_carlo_coverage(spec, r, 1, samples=10000, seed=_SEED)
        se = math.sqrt(max(fhat * (1 - fhat), 1e-12) / 10000)
        V = unit_ball_volume(spec, r, 1)
        ok = abs(fhat - f_exact) <= 3 * se + 1e-9 and fhat * det1 <= V * (
            1 + 3 * se / max(fhat, 1e-12)
        )
        rows.append(
            _row(f"volume mc {name}", f"{f_exact:.6g} +- 3 stderr", f"{fhat:.6g}", ok)
        )
    ratio = unit_ball_volume(spec2, 1.5, 3) / math.exp(lattice_log_det(3))
    fhat = monte_carlo_coverage(spec2, 1.5, 3, samples=10000, seed=_SEED)
    ok = fhat <= ratio + 3 * math.sqrt(ratio * (1 - ratio) / 10000)
    rows.append(_row("volume mc F2 n=3 r=1.5", f"<= {ratio:.6g} + 3 stderr", f"{fhat:.6g}", ok))
    return rows


# ---------------------------------------------------------------------------
# 10. the F2 length convention


def run_f2_length():
    """F2 length of exp(-iHt), t in [0,1], equals sqrt(tr(H^2)/2^n)."""
    spec = MetricSpec(F2)
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for _ in range(20):
        y = rng.standard_normal(15)
        y *= 2.0 / np.sum(np.abs(y))
        coeffs = PauliVector(2, SU, y)
        H = to_matrix(coeffs)
        expected = math.sqrt(float(np.trace(H @ H).real) / 4.0)
        got = curve_length(spec, pauli_geodesic_curve(spec, coeffs, 1.0, num_samples=401))
        worst = max(worst, abs(got - expected))
    # pauli_log's eigenphases lie in (-pi, pi), so F2, their root mean square, is below pi
    spec_u, rng = MetricSpec(F2, mode=U), np.random.default_rng(_SEED)
    worst_clamp = max(norm(spec_u, pauli_log(random_unitary(rng, 4), U)) for _ in range(20))
    return [
        _row("f2-length vs trace", "< 1e-08", f"{worst:.3g}", worst < 1e-8),
        _row(
            "f2-length clamped <= pi",
            "<= 3.14159",
            f"{worst_clamp:.6g}",
            worst_clamp <= np.pi + 1e-12,
        ),
    ]


# ---------------------------------------------------------------------------
# 11. direct sums


def run_direct_sum():
    """Fq additivity across a tensor split, and products of factor geodesics."""
    pen = PenaltyFunction(kind="step", k=3.0, low_weight_cutoff=1)
    spec_a = MetricSpec(FQ, penalty=pen)
    spec_b = MetricSpec(FQ, penalty=pen)
    spec_ab = MetricSpec(FQ, penalty=pen)
    ident = additive_triple_check(spec_a, spec_b, spec_ab)
    rng = np.random.default_rng(_SEED)
    ya = rng.standard_normal(3)
    ya *= 0.7 / np.linalg.norm(ya)
    yb = rng.standard_normal(3)
    yb *= 0.7 / np.linalg.norm(yb)
    ca = shoot_geodesic(spec_a, np.zeros(3), ya, 0.5, steps=400)
    cb = shoot_geodesic(spec_b, np.zeros(3), yb, 0.5, steps=400)
    prod = el_residual(spec_ab, tensor_product_curve(ca, cb, spec_ab))
    return [
        _row("direct-sum additivity", "< 1e-10", f"{ident:.3g}", ident < 1e-10),
        _row("direct-sum product-geodesic", "< 0.0001", f"{prod:.3g}", prod < 1e-4),
    ]


# ---------------------------------------------------------------------------
# the full suite


SUITES = {
    "and-cvp": run_and_cvp,
    "long-geodesic": run_long_geodesic,
    "stabilizer-el": run_stabilizer_el,
    "f2-shoot": run_f2_shoot,
    "circuit-bound": run_circuit_bound,
    "coord-crosscheck": run_coord_crosscheck,
    "smoothing": run_smoothing,
    "isometry": run_isometry,
    "volume": run_volume,
    "f2-length": run_f2_length,
    "direct-sum": run_direct_sum,
}


def run_all(names=None):
    rows = []
    for name in names or SUITES:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        rows.extend(SUITES[name]())
    return rows


def to_csv(rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["criterion", "expected", "observed", "pass"])
    for r in rows:
        writer.writerow([r.criterion, r.expected, r.observed, str(r.passed).lower()])
    return out.getvalue()
