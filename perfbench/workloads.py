"""The four benchmark workloads: inputs made from the seed, the calls, the checks.

A workload is a list of operations.  Each operation is one call into sugeo's
public API on inputs generated here; its check compares the output with an
independent reference value (reference.py) or with a property the paper
proves.  Operations fall into two tiers, timed apart: "small" holds many
cheap n <= 2 instances and "large" a few expensive n = 3 ones, so a change
that speeds up one tier at the cost of the other shows.

Library functions are looked up through their module at call time
(``lattice.cvp_minimal_pauli_geodesic``), so the tracer can wrap them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import reference as ref
from reference import TWO_PI, require, require_close
from sugeo import bounds, geodesic, lattice, metrics, pauli

SMALL = "small"
LARGE = "large"
WORKLOADS = ("cvp", "shoot", "residual", "circuit")
# Small-tier passes per round.  A cvp round is one ~20 s pass over its two
# n = 3 solves, so its small tier runs four times, between and around them,
# and small_s is the median of four passes spread over the round rather
# than a single two-second sample.
SMALL_PASSES = {"cvp": 4}


def _never_fails(out) -> Optional[str]:
    return None


@dataclass
class Op:
    """One timed library call plus the check of its output (not timed)."""

    tier: str
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    # reason the operation counts as failed although it returned, or None
    failure: Callable[[object], Optional[str]] = _never_fails


def _spec(family, mode="SU", k=1.0, cutoff=2, delta=None):
    penalty = None
    if family in ("Fp", "Fq", "FpDelta"):
        penalty = metrics.PenaltyFunction(kind="step", k=k, low_weight_cutoff=cutoff)
    return metrics.MetricSpec(family, penalty=penalty, delta=delta, mode=mode)


def _unit(rng, d, scale=1.0):
    v = rng.standard_normal(d)
    return v * (scale / np.linalg.norm(v))


def _off_axis_unit(rng, d):
    """Unit vector whose coefficients all have size 0.5 to 1 before scaling.

    The smoothed norms are stiff where a coefficient crosses 0 (the kink of
    |y|, rounded off at scale delta): there fixed-step RK4 drifts in F by up
    to 5e-2 over 20 steps.  Keeping every coefficient off the axis keeps the
    shots inside the integrator's working range.
    """
    v = rng.choice([-1.0, 1.0], size=d) * rng.uniform(0.5, 1.0, size=d)
    return v / np.linalg.norm(v)


def _stabilizer_coeffs(rng, generators, total=1.2):
    """Coefficients on the non-identity group elements with sum |c| = total.

    sum |c| bounds the largest eigenvalue of the Hamiltonian, so a curve of
    unit time stays inside the Pauli chart (|eigenphase| < pi).
    """
    support = ref.group_elements(generators)[1:]
    c = rng.standard_normal(len(support))
    return dict(zip(support, c * (total / np.sum(np.abs(c)))))


def _terms_vector(n, mode, terms):
    labels = ref.pauli_labels(n, mode)
    v = np.zeros(len(labels))
    for s, c in terms.items():
        v[labels.index(s)] = c
    return v


# ---------------------------------------------------------------------------
# cvp: lattice.cvp_minimal_pauli_geodesic and monte_carlo_coverage

# (family, k, cutoff) of the random n <= 2 instances.  Fp uses k = 1.5: with
# k = 4 on weight-2 strings, 1.5% (U) to 33% (SU) of random n = 2 solves end
# certified=False, a failure whose count depends on the seed.
CVP_FAMILIES = (("F1", 1.0, 2), ("Fp", 1.5, 1), ("F2", 1.0, 2), ("Fq", 4.0, 1))
# Fixed sampling seed: a 3-standard-error test on seed-dependent samples
# would reject a correct estimate on 0.3% of seeds.
COVERAGE_SEED = 20260822


def _cvp_op(tier, name, family, mode, k, cutoff, theta, closed_form=None, brute_force=True):
    n = int(round(math.log2(len(theta))))
    spec = _spec(family, mode, k, cutoff)
    kind, w = ref.diagonal_weights(family, n, mode, k, cutoff)
    h = ref.reduce_phases(theta)
    su_sum = int(round(h.sum() / TWO_PI)) if mode == "SU" else None

    def call():
        return lattice.cvp_minimal_pauli_geodesic(spec, theta)

    def check(res):
        m = np.asarray(res.minimizer)
        at_m = float(ref.diagonal_value(kind, w, h - TWO_PI * m))
        require_close(res.value, at_m, "value against F at the returned minimizer")
        if su_sum is not None:
            require(int(m.sum()) == su_sum, f"minimizer sum {m.sum()} != {su_sum} in SU mode")
        if closed_form is not None:
            require_close(res.value, closed_form, "value against the closed form")
        if brute_force:
            radius = res.window_used + 1
            best = ref.brute_force_cvp(kind, w, h, radius, su_sum)
            require_close(res.value, best, f"value against the brute-force minimum (box {radius})")

    def failure(res):
        if res.certified:
            return None
        return (
            f"certified=False: window doubling stops at {res.window_used} and the "
            f"certificate 2*pi*w*min(w_s)/2^n is too weak at n = {n}"
        )

    return Op(tier, name, call, check, failure)


def _coverage_op(name, family, n, r, exact, samples):
    spec = _spec(family, "U")

    def call():
        return lattice.monte_carlo_coverage(spec, r, n, samples=samples, seed=COVERAGE_SEED)

    def check(fraction):
        se = math.sqrt(exact * (1.0 - exact) / samples)
        require(
            abs(fraction - exact) <= 3.0 * se,
            f"coverage {fraction!r} is more than 3 standard errors ({se:.3g}) from {exact!r}",
        )

    return Op(SMALL, name, call, check)


def build_cvp(rng, quick=False) -> list:
    per_case = 3 if quick else 500
    ops = []
    for n in (1, 2):
        for mode in ("U", "SU"):
            for family, k, cutoff in CVP_FAMILIES:
                for i in range(per_case):
                    theta = rng.uniform(-np.pi, np.pi, 2**n)
                    if mode == "SU":
                        theta[-1] = -np.sum(theta[:-1])
                    name = f"{family} {mode} n={n} #{i}"
                    ops.append(_cvp_op(SMALL, name, family, mode, k, cutoff, theta))
    for n in (2, 3):
        theta = np.zeros(2**n)
        theta[-1] = np.pi
        ops.append(
            _cvp_op(
                SMALL if n == 2 else LARGE,
                f"AND oracle n={n} Fp k=4",
                "Fp", "U", 4.0, 2, theta,
                closed_form=ref.and_oracle_length(n, 4.0),
                brute_force=n == 2,
            )
        )
    samples = 2000 if quick else 20000
    ops.append(_coverage_op("coverage n=1 F1 r=pi/2", "F1", 1, np.pi / 2,
                            ref.f1_coverage_fraction_n1(np.pi / 2), samples))
    ops.append(_coverage_op("coverage n=1 F2 r=1.5", "F2", 1, 1.5,
                            ref.f2_coverage_fraction(1, 1.5), samples))
    ops.append(_coverage_op("coverage n=2 F2 r=1.5", "F2", 2, 1.5,
                            ref.f2_coverage_fraction(2, 1.5), samples))
    if not quick:
        # Drawn until window 2 cannot certify it (value >= pi/2), so that
        # every seed pays for the same window-4 pass over 9^8 candidates.
        while True:
            theta = rng.uniform(-np.pi, np.pi, 8)
            value = ref.f2_cvp_closed_form(theta)
            if value > 1.6:
                break
        ops.append(_cvp_op(LARGE, "random n=3 F2 U", "F2", "U", 1.0, 2, theta,
                           closed_form=value, brute_force=False))
    return ops


# ---------------------------------------------------------------------------
# shoot: geodesic.shoot_geodesic

PEN_K, PEN_CUTOFF = 4.0, 1  # step penalty on strings of weight >= 2
STABILIZERS_N2 = (("ZI", "IZ"), ("XI", "IX"), ("YI", "IY"), ("XX", "ZZ"), ("XX", "YY"), ("XZ", "ZX"))
STABILIZERS_N3 = (
    ("ZII", "IZI", "IIZ"),
    ("XII", "IXI", "IIX"),
    ("XXI", "ZZI", "IIY"),
    ("XZI", "ZXI", "IIX"),
    ("ZZZ", "XXI", "IXX"),
)


def _shoot_op(tier, name, spec, y0, t_end, steps, drift_tol, n_cap=None,
              end_unitary=None, min_segments=1, straight=False):
    def call():
        return geodesic.shoot_geodesic(spec, np.zeros(len(y0)), y0, t_end, steps=steps, n_cap=n_cap)

    def check(curve):
        require(len(curve.ts) == steps + 1, f"{len(curve.ts)} samples for {steps} steps")
        speeds = np.asarray(curve.speeds)
        drift = float(np.max(np.abs(speeds - speeds[0])) / speeds[0])
        require(drift < drift_tol, f"F drifts by {drift:.3g} along the shot (tolerance {drift_tol:g})")
        segments = len(curve.segments)
        require(segments >= min_segments, f"{segments} chart segments, expected >= {min_segments}")
        if straight:
            require(segments == 1, f"{segments} chart segments on a straight line inside the chart")
            dev = float(np.max(np.abs(np.asarray(curve.xs) - np.outer(curve.ts, y0))))
            require(dev < 1e-8, f"path leaves the line x = y0 t by {dev:.3g}")
        if end_unitary is not None:
            end = curve.unitary_at(len(curve.ts) - 1)
            dev = float(np.max(np.abs(end - end_unitary)))
            require(dev < 1e-8, f"end unitary is {dev:.3g} from exp(-i t y0.sigma)")

    return Op(tier, name, call, check)


def build_shoot(rng, quick=False) -> list:
    fq = _spec("Fq", k=PEN_K, cutoff=PEN_CUTOFF)
    fp_delta = _spec("FpDelta", k=PEN_K, cutoff=PEN_CUTOFF, delta=1e-2)
    ops = []
    # n = 1: every weight is unpenalized, so Fq is bi-invariant and the
    # geodesic is exp(-i t y0.sigma).  |y0| = 3 over t = 2.5 crosses the
    # re-anchoring threshold pi - 0.2 twice.
    y0 = _unit(rng, 3, 3.0)
    t_end = 2.5
    ops.append(_shoot_op(
        SMALL, "n=1 Fq re-anchoring", fq, y0, t_end, 250, 1e-8,
        end_unitary=ref.expm_hermitian(ref.hamiltonian(1, "SU", y0), t_end),
        min_segments=3,
    ))
    steps = 10 if quick else 40
    for i in range(1 if quick else 2):
        ops.append(_shoot_op(SMALL, f"n=2 Fq #{i}", fq, _off_axis_unit(rng, 15), 0.01 * steps, steps,
                             1e-8))
    steps = 5 if quick else 20
    for i in range(1 if quick else 3):
        ops.append(_shoot_op(SMALL, f"n=2 FpDelta #{i}", fp_delta, _off_axis_unit(rng, 15),
                             0.005 * steps, steps, 1e-6))
    generators = STABILIZERS_N2[rng.integers(len(STABILIZERS_N2))]
    y0 = _terms_vector(2, "SU", _stabilizer_coeffs(rng, generators))
    steps = 5 if quick else 20
    ops.append(_shoot_op(SMALL, f"n=2 Fq stabilizer {'/'.join(generators)}", fq, y0,
                         0.0125 * steps, steps, 1e-8, straight=True))
    steps = 2 if quick else 10
    ops.append(_shoot_op(LARGE, "n=3 Fq", fq, _off_axis_unit(rng, 63), 0.004 * steps, steps, 1e-8, n_cap=3))
    return ops


# ---------------------------------------------------------------------------
# residual: geodesic.el_residual on pauli_geodesic_curve samples

GEODESIC_RESIDUAL = 1e-4  # stabilizer-supported exponentials solve the geodesic equation
GENERIC_RESIDUAL = 1e-2  # the generic penalized exponential does not


def _residual_op(tier, name, spec, n, terms, samples, generators=None):
    def call():
        span = pauli.stabilizer_span(generators) if generators else None
        vec = pauli.PauliVector.from_terms(n, terms, spec.mode)
        curve = geodesic.pauli_geodesic_curve(spec, vec, 1.0, num_samples=samples)
        return span, geodesic.el_residual(spec, curve)

    def check(out):
        span, residual = out
        if generators:
            expected = ref.group_elements(generators)
            require(sorted(span.elements) == expected, f"span {span.elements} != {expected}")
            require(residual < GEODESIC_RESIDUAL,
                    f"residual {residual:.3g} >= {GEODESIC_RESIDUAL:g} on a stabilizer geodesic")
        else:
            require(residual > GENERIC_RESIDUAL,
                    f"residual {residual:.3g} <= {GENERIC_RESIDUAL:g} on a generic exponential")

    return Op(tier, name, call, check)


def build_residual(rng, quick=False) -> list:
    fq = _spec("Fq", k=PEN_K, cutoff=PEN_CUTOFF)
    fp_delta = _spec("FpDelta", k=PEN_K, cutoff=PEN_CUTOFF, delta=1e-4)
    samples = 101 if quick else 801
    ops = []
    for i in range(1 if quick else 3):
        generators = STABILIZERS_N2[rng.integers(len(STABILIZERS_N2))]
        terms = _stabilizer_coeffs(rng, generators)
        label = "/".join(generators)
        ops.append(_residual_op(SMALL, f"n=2 Fq {label} #{i}", fq, 2, terms, samples, generators))
        ops.append(_residual_op(SMALL, f"n=2 FpDelta {label} #{i}", fp_delta, 2, terms, samples,
                                generators))
    generic = _spec("Fq", k=100.0, cutoff=PEN_CUTOFF)
    ops.append(_residual_op(SMALL, "n=2 generic Fq k=100", generic, 2,
                            {"XI": 0.9, "ZZ": 0.7, "IY": 0.4}, samples))
    generators = STABILIZERS_N3[rng.integers(len(STABILIZERS_N3))]
    ops.append(_residual_op(LARGE, f"n=3 Fq {'/'.join(generators)}", fq, 3,
                            _stabilizer_coeffs(rng, generators), 11 if quick else 101, generators))
    return ops


# ---------------------------------------------------------------------------
# circuit: bounds.circuit_to_curve and isometry_check

# (family, k, cutoff): weights <= 2 unpenalized, so every gate is G-bounded.
CIRCUIT_SPECS = (("F1", 1.0, 2), ("F2", 1.0, 2), ("Fp", 4.0, 2), ("Fq", 4.0, 2))
# The catalogue the paper gives: which conjugations preserve which families.
ISOMETRY_FAMILIES = {
    "pauli": ("F1", "F2", "Fp", "Fq", "F1Delta", "FpDelta"),
    "complex_conjugation": ("F1", "F2", "Fp", "Fq", "F1Delta", "FpDelta"),
    "clifford": ("F1", "F1Delta", "F2"),
    "local_unitary": ("F2", "Fq"),
    "unitary": ("F2",),
}


def _random_circuit(rng, n, m):
    gates = []
    for _ in range(m):
        alpha = float(rng.uniform(0.05, 1.0))
        if rng.random() < 0.5:
            gates.append(bounds.Gate("XYZ"[rng.integers(3)], alpha, (int(rng.integers(n)),)))
        else:
            qubits = tuple(int(q) for q in rng.choice(n, size=2, replace=False))
            letters = "".join("XYZ"[j] for j in rng.integers(3, size=2))
            gates.append(bounds.Gate(letters, alpha, qubits))
    return bounds.Circuit(n, gates)


def _full_label(n, gate):
    letters = ["I"] * n
    for q, c in zip(gate.qubits, gate.pauli):
        letters[q] = c
    return "".join(letters)


def _circuit_op(tier, name, circuit, family, k, cutoff):
    spec = _spec(family, k=k, cutoff=cutoff)
    n, m = circuit.n, len(circuit.gates)
    labels = [(_full_label(n, g), g.alpha) for g in circuit.gates]
    product = ref.gate_product(n, labels)
    length = sum(
        alpha * ref.unit_string_norm(family, ref.pauli_weight(s), k, cutoff) for s, alpha in labels
    )

    def call():
        return bounds.circuit_to_curve(circuit, spec)

    def check(traj):
        dev = float(np.max(np.abs(traj.unitaries[-1] - product)))
        require(dev < 1e-8, f"endpoint is {dev:.3g} from the gate product")
        require_close(traj.length, length, "length against sum alpha_j F(sigma_j)")
        require(traj.length <= m + 1e-9, f"length {traj.length!r} exceeds the gate count {m}")

    return Op(tier, name, call, check)


def _random_unitary(rng, dim):
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(A)
    return Q * np.exp(-1j * np.angle(np.diag(R)))


def _isometry_op(name, iso, family, spec, seed, preserving):
    def call():
        return bounds.isometry_check(iso, spec, seed=seed)

    def check(res):
        require(res.applicable == preserving, f"applicable={res.applicable}, catalogue says {preserving}")
        if preserving:
            require(res.max_deviation < 1e-10, f"isometry deviates by {res.max_deviation:.3g}")
        else:
            require(res.max_deviation > 1e-6 and res.counterexample is not None,
                    f"no counterexample (deviation {res.max_deviation:.3g})")

    return Op(SMALL, name, call, check)


def _isometry_ops(rng) -> list:
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    isos = {
        "pauli": bounds.IsometryMap("pauli", pauli="XYZ"[rng.integers(3)] + "XYZ"[rng.integers(3)]),
        "complex_conjugation": bounds.IsometryMap("complex_conjugation"),
        "clifford": bounds.IsometryMap("clifford", operator=cnot),
        "local_unitary": bounds.IsometryMap(
            "local_unitary", operator=np.kron(_random_unitary(rng, 2), _random_unitary(rng, 2))
        ),
        "unitary": bounds.IsometryMap("unitary", operator=_random_unitary(rng, 4)),
    }
    p_sum = sum(ref.step_penalty(ref.pauli_weight(s), PEN_K, PEN_CUTOFF)
                for s in ref.pauli_labels(2, "SU"))
    specs = {
        "F1": _spec("F1"),
        "F2": _spec("F2"),
        "Fp": _spec("Fp", k=PEN_K, cutoff=PEN_CUTOFF),
        "Fq": _spec("Fq", k=PEN_K, cutoff=PEN_CUTOFF),
        "F1Delta": _spec("F1Delta", delta=1e-4 / 15),
        "FpDelta": _spec("FpDelta", k=PEN_K, cutoff=PEN_CUTOFF, delta=1e-4 / p_sum),
    }
    ops = []
    for kind, iso in isos.items():
        for family in ISOMETRY_FAMILIES[kind]:
            ops.append(_isometry_op(f"isometry {kind} {family}", iso, family, specs[family],
                                    int(rng.integers(2**31)), True))
    for kind, family in (("clifford", "Fq"), ("unitary", "F1")):
        ops.append(_isometry_op(f"isometry {kind} {family} breaks", isos[kind], family,
                                specs[family], int(rng.integers(2**31)), False))
    return ops


def build_circuit(rng, quick=False) -> list:
    ops = []
    # circuit i has 1 + (i mod 8) gates, so the gate total does not depend on
    # the seed; every circuit runs under all four specs (3 in 4 inputs repeat
    # a circuit already seen under another spec).
    for n, tier, count in ((2, SMALL, 2 if quick else 12), (3, LARGE, 1 if quick else 8)):
        for i in range(count):
            circuit = _random_circuit(rng, n, 1 + i % 8)
            for family, k, cutoff in CIRCUIT_SPECS:
                ops.append(_circuit_op(tier, f"n={n} circuit #{i} {family}", circuit, family, k, cutoff))
    ops.extend(_isometry_ops(rng))
    return ops


BUILDERS = {
    "cvp": build_cvp,
    "shoot": build_shoot,
    "residual": build_residual,
    "circuit": build_circuit,
}


def build(workload: str, seed: int, quick: bool = False) -> list:
    """The workload's operations, generated from the seed alone."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return BUILDERS[workload](rng, quick)
