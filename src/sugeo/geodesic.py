"""Geodesics of right-invariant metrics, shot in the Lie algebra.

A curve with dU/dt = -i H(t) U has length integral F(H(t)) dt, H = h.sigma
in natural adapted coordinates.  Right-invariance makes the geodesic
equation an ODE for H alone, the Euler-Arnold equation

    Hess_N(H) dH/dt = proj(-i[H, P]),   P = sum_s p_s sigma_s,  p = grad(F^2)/2 at H,

with Hess_N = (1/2) d^2 F^2 and proj the Pauli coefficients.  Since F^2/2
is 2-homogeneous, p = Hess_N(H) h (Euler), so each evaluation solves the
norm once, in its hessian call.  shoot_geodesic advances H by RK4 and U by
the 4th-order Magnus step U <- exp(Omega) U, Omega taken at the Gauss
points of each step's cubic Hermite interpolant of H, so U stays unitary.
It starts at H0 = E_x0(y0), U0 = exp(-i x0.sigma).

Curves are returned in Pauli coordinates, U = exp(-i x.sigma) A, with
h = E_x(y) given by coords.apply_bch (the filter; y = E_x^-1(h) by its
inverse).  The chart only covers eigenphases in (-pi, pi): once one reaches
pi - _REANCHOR_MARGIN, A becomes the current U and x restarts at 0, so a
Curve consists of chart segments, each with its own anchor.  el_residual
checks the Euler-Lagrange equations of F(x, y) = N(E_x(y)) in the chart,
with exact gradients, independently of the shooting.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import SHOOT_N_CAP, env_n_cap
from .coords import UnitaryOperator, apply_bch, bch_x_gradient, pauli_log, unitary_from_coords
# perfbench's test_tracer_self_time_and_patching asserts this binding
from .coords import change_matrices  # noqa: F401
from .errors import (
    DimensionLimit,
    DimensionMismatch,
    InconsistentPenalties,
    OutsidePatch,
    SingularHessian,
    StepLimitExceeded,
    TooFewSamples,
    UnsupportedCoefficient,
    ZeroVector,
)
from .metrics import MetricSpec, grad_f_squared, hessian, norm, norms_batch
from .pauli import (
    PauliVector,
    StabilizerSubgroup,
    algebra,
    basis_dimension,
    coefficients,
    string_index,
    pauli_strings,
    qubits_of_dimension,
    to_matrix,
)

_MIN_G_EIG = 1e-10
# A chart is left once an eigenphase of x.sigma comes this close to pi.
_REANCHOR_MARGIN = 0.2


@dataclass
class Curve:
    """Sampled curve in Pauli coordinates, possibly split into chart segments.

    segments[i] is the index of the first sample of chart i; anchors[i] is
    the unitary U_i with the curve given by exp(-i x(t).sigma) U_i on that
    segment.  x/y samples are chart-local.
    """

    spec: MetricSpec
    n: int
    mode: str
    ts: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    speeds: np.ndarray
    segments: list = field(default_factory=lambda: [0])
    anchors: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.anchors:
            self.anchors = [np.eye(2**self.n, dtype=complex)]

    def segment_bounds(self) -> list:
        stops = list(self.segments[1:]) + [len(self.ts)]
        return list(zip(self.segments, stops))

    def unitary_at(self, i: int) -> np.ndarray:
        seg = bisect_right(self.segments, i) - 1
        return unitary_from_coords(PauliVector(self.n, self.mode, self.xs[i])) @ self.anchors[seg]

    def to_json(self) -> dict:
        samples = []
        for i in range(len(self.ts)):
            samples.append(
                {
                    "t": float(self.ts[i]),
                    "x": PauliVector(self.n, self.mode, self.xs[i]).to_json(),
                    "y": PauliVector(self.n, self.mode, self.ys[i]).to_json(),
                    "speed": float(self.speeds[i]),
                }
            )
        return {
            "metric": self.spec.to_json(),
            "samples": samples,
            "segments": [int(s) for s in self.segments],
            "anchors": [
                [[[z.real, z.imag] for z in row] for row in A] for A in self.anchors
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Curve":
        spec = MetricSpec.from_json(obj["metric"])
        samples = obj["samples"]
        x0 = PauliVector.from_json(samples[0]["x"])
        n, mode = x0.n, x0.mode
        k = len(samples)
        d = basis_dimension(n, mode)
        ts = np.zeros(k)
        xs = np.zeros((k, d))
        ys = np.zeros((k, d))
        speeds = np.zeros(k)
        for i, s in enumerate(samples):
            ts[i] = s["t"]
            xs[i] = PauliVector.from_json(s["x"]).entries
            ys[i] = PauliVector.from_json(s["y"]).entries
            speeds[i] = s.get("speed", 0.0)
        segments = [int(s) for s in obj.get("segments", [0])]
        anchors = [
            np.array([[complex(re, im) for re, im in row] for row in A])
            for A in obj.get("anchors", [])
        ]
        return cls(spec, n, mode, ts, xs, ys, speeds, segments, anchors)


# ---------------------------------------------------------------------------
# small shared helpers


def _entries_of(v) -> np.ndarray:
    if isinstance(v, PauliVector):
        return np.asarray(v.entries, dtype=float)
    return np.asarray(v, dtype=float)


def _max_eigphase(x: np.ndarray, n: int, mode: str) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(algebra(x[None, :], n, mode)[0]))))


def _adapted(xs: np.ndarray, ys: np.ndarray, n: int, mode: str) -> np.ndarray:
    """Rows h = E_x(y) of natural adapted coordinates, one per row pair (x, y)."""
    return coefficients(apply_bch(algebra(xs, n, mode), algebra(ys, n, mode)), n, mode)


# ---------------------------------------------------------------------------
# metric pullback


def metric_in_pauli_coords(spec: MetricSpec, x, y) -> float:
    """F(x, y) = N(E_x(y)); equals norm(spec, y) at x = 0."""
    xe, ye = _entries_of(x), _entries_of(y)
    if xe.shape != ye.shape:
        raise DimensionMismatch("x and y have different dimensions")
    n = qubits_of_dimension(len(xe), spec.mode)
    return norm(spec, _adapted(xe[None, :], ye[None, :], n, spec.mode)[0])


# ---------------------------------------------------------------------------
# shooting

# Cubic Hermite weights of (H_n, dt k_n, H_n+1, dt k_n+1) at the two Gauss
# points c = 1/2 -+ sqrt(3)/6 of the 4th-order Magnus step.
_HERMITE = np.array([
    [(1 + 2 * c) * (1 - c) ** 2, c * (1 - c) ** 2, c**2 * (3 - 2 * c), c**2 * (c - 1)]
    for c in (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
])


def shoot_geodesic(
    spec: MetricSpec,
    x0,
    y0,
    t_end: float,
    steps: int = None,
    n_cap: int = None,
    max_segments: int = 64,
) -> Curve:
    """Integrate the geodesic from (x0, y0) for time t_end.

    Fixed-step RK4 on the Euler-Arnold equation, default 1000 steps per unit
    time, one sample per step; more than max_segments charts raise
    StepLimitExceeded.  curve.stats holds the step and segment counts, the
    smallest Hessian eigenvalue seen and the largest relative drift of F.

    Working range: the step must resolve the curvature of the norm, which
    for the smoothed families grows like 1/delta where a coefficient of H
    passes near 0.  FpDelta with delta = 1e-3 and a generic unit y0 at n = 2
    lies outside it (500 to 8000 steps per unit stop, 32000 still drift by
    23% in F).  An evaluation raises SingularHessian when the Hessian's
    smallest eigenvalue is below 1e-10 or when F(H)^2 = p . H, conserved
    along the geodesic, has left [F0^2/2, 2 F0^2].
    """
    xe, ye = _entries_of(x0).copy(), _entries_of(y0).copy()
    n = qubits_of_dimension(len(xe), spec.mode)
    cap = n_cap if n_cap is not None else env_n_cap(default=SHOOT_N_CAP)
    if n > cap:
        raise DimensionLimit(
            f"shooting at n={n} exceeds cap {cap}; raise it via n_cap= or SUGEO_N_CAP"
        )
    if steps is None:
        steps = max(1, int(round(1000 * t_end)))
    if not np.any(ye):
        raise ZeroVector("y0 must be nonzero")
    dt = t_end / steps
    mode = spec.mode
    dim = 2**n
    min_eig = np.inf

    def f(h):
        """dH/dt = Hess_N(H)^-1 proj(-i[H, P]) with P the momentum at H."""
        nonlocal min_eig
        G = hessian(spec, h)
        w, V = np.linalg.eigh(G)
        min_eig = min(min_eig, w[0])
        if w[0] < _MIN_G_EIG:
            raise SingularHessian(f"min eigenvalue of the norm Hessian is {w[0]:.3e}")
        # F^2/2 is 2-homogeneous, so its gradient is G h (Euler), and
        # h . G h = F(H)^2, which the geodesic conserves
        p = G @ h
        if not 0.5 <= (p @ h) / energy <= 2.0:
            raise SingularHessian(
                f"F(H)^2 = {p @ h:.6g} left [F0^2/2, 2 F0^2] (F0^2 = {energy:.6g}); "
                "the step is too long for the curvature of the norm"
            )
        H, P = algebra(np.array([h, p]), n, mode)
        # proj(-i[H, P])_s = 2 Im tr(sigma_s H P) / dim = Re tr(sigma_s (-2i H P)) / dim
        r = coefficients(-2j * (H @ P)[None], n, mode)[0]
        return V @ ((V.T @ r) / w)

    h = _adapted(xe[None, :], ye[None, :], n, mode)[0]
    energy = norm(spec, h) ** 2
    U = unitary_from_coords(PauliVector(n, mode, xe))
    hs = np.empty((steps + 1, len(h)))
    xs = np.empty_like(hs)
    hs[0], xs[0] = h, xe
    segments = [0]
    anchors = [np.eye(dim, dtype=complex)]
    k = f(h)
    for i in range(1, steps + 1):
        k2 = f(h + 0.5 * dt * k)
        k3 = f(h + 0.5 * dt * k2)
        k4 = f(h + dt * k3)
        h_next = h + (dt / 6.0) * (k + 2 * k2 + 2 * k3 + k4)
        k_next = f(h_next)
        H1, H2 = algebra(_HERMITE @ np.array([h, dt * k, h_next, dt * k_next]), n, mode)
        B = H2 @ H1
        K = 0.5 * dt * (H1 + H2) - 1j * (np.sqrt(3.0) / 12.0) * dt**2 * (B - B.conj().T)
        lam, V = np.linalg.eigh(K)
        U = (V * np.exp(-1j * lam)) @ V.conj().T @ U
        h, k = h_next, k_next
        x = pauli_log(U @ anchors[-1].conj().T, mode).entries
        if _max_eigphase(x, n, mode) >= np.pi - _REANCHOR_MARGIN:
            if len(segments) == max_segments:
                raise StepLimitExceeded(
                    f"more than {max_segments} chart re-anchorings; "
                    "the curve is too long for this sampling"
                )
            anchors.append(U)
            segments.append(i)
            x = np.zeros_like(x)
        hs[i], xs[i] = h, x

    ys = coefficients(apply_bch(algebra(xs, n, mode), algebra(hs, n, mode), inverse=True), n, mode)
    speeds = norms_batch(spec, hs)
    stats = {
        "steps": steps,
        "segments": len(segments),
        "min_hessian_eig": float(min_eig),
        "speed_drift": float(np.max(np.abs(speeds - speeds[0])) / speeds[0]),
    }
    ts = dt * np.arange(steps + 1)
    return Curve(spec, n, mode, ts, xs, ys, speeds, segments, anchors, stats)


# ---------------------------------------------------------------------------
# Euler-Lagrange residual


def f_squared_gradients(spec: MetricSpec, xs: np.ndarray, ys: np.ndarray) -> tuple:
    """Exact (dF^2/dx, dF^2/dy) of F(x, y) = N(E_x(y)) at each row pair of two (m, d) arrays.

    With h = E_x(y) and G = grad N^2(h).sigma: dF^2/dy = E_-x(G), since the
    transpose of E_x is E_-x, and dF^2/dx_j = Re tr(Gamma sigma_j) / 2^n
    with Gamma = coords.bch_x_gradient(X, Y, G).
    """
    mode = spec.mode
    n = qubits_of_dimension(xs.shape[1], mode)
    X, Y = algebra(xs, n, mode), algebra(ys, n, mode)
    G = algebra(grad_f_squared(spec, coefficients(apply_bch(X, Y), n, mode)), n, mode)
    return coefficients(bch_x_gradient(X, Y, G), n, mode), coefficients(apply_bch(-X, G), n, mode)


def el_residual(spec: MetricSpec, curve: Curve) -> float:
    """Max residual of d/dt(dF^2/dy^j) = dF^2/dx^j along the curve, F(x, y) = N(E_x(y)).

    Both gradients are exact (f_squared_gradients); only the time
    derivative is a finite difference, np.gradient over the samples.
    Normalized by max |dF^2/dx| + 1; evaluated on the interior samples of
    each chart segment with at least 5 samples.  Raises TooFewSamples when
    no segment has that many.
    """
    bounds = [(a, b) for a, b in curve.segment_bounds() if b - a >= 5]
    if not bounds:
        raise TooFewSamples(f"no chart segment of {len(curve.ts)} samples has 5 or more")
    worst = 0.0
    rhs_scale = 0.0
    for a, b in bounds:
        rhs, lhs = f_squared_gradients(spec, curve.xs[a:b], curve.ys[a:b])
        res = np.abs(np.gradient(lhs, curve.ts[a:b], axis=0) - rhs)[1:-1]
        worst = max(worst, float(res.max()))
        rhs_scale = max(rhs_scale, float(np.abs(rhs).max()))
    return worst / (rhs_scale + 1.0)


# ---------------------------------------------------------------------------
# Pauli geodesics


def pauli_geodesic(S: StabilizerSubgroup, coeffs: PauliVector, t: float):
    """exp(-i H0 t) with H0 supported on the stabilizer subgroup S.

    Such curves are geodesics of every Pauli-symmetric metric; they are
    straight lines through the origin in Pauli coordinates.
    """
    elements = set(S.elements)
    for s, v in coeffs.terms().items():
        if abs(v) > 1e-12 and s not in elements:
            raise UnsupportedCoefficient(f"coefficient on {s} is outside the subgroup")
    H0 = to_matrix(coeffs)
    lam, V = np.linalg.eigh(H0)
    U = V @ np.diag(np.exp(-1j * lam * t)) @ V.conj().T
    return UnitaryOperator(coeffs.n, U)


def pauli_geodesic_curve(
    spec: MetricSpec, coeffs: PauliVector, t_end: float, num_samples: int = 201
) -> Curve:
    """The straight line x(t) = h0 t as a sampled Curve (for residual checks).

    x = t h0 commutes with y = h0, so E_x(y) = h0 and every speed is exactly
    F(h0).  Must stay inside the coordinate patch: max |eig(H0)| * t_end < pi.
    """
    if coeffs.mode != spec.mode:
        raise DimensionMismatch("coefficient mode does not match the metric spec")
    h0 = np.asarray(coeffs.entries, dtype=float)
    lam = np.linalg.eigvalsh(to_matrix(coeffs))
    if float(np.max(np.abs(lam))) * t_end >= np.pi:
        raise OutsidePatch("exp(-i H0 t) leaves the coordinate patch before t_end")
    n, mode = coeffs.n, spec.mode
    ts = np.linspace(0.0, t_end, num_samples)
    xs = np.outer(ts, h0)
    ys = np.tile(h0, (num_samples, 1))
    speeds = np.full(num_samples, norm(spec, h0))
    return Curve(spec, n, mode, ts, xs, ys, speeds)


def curve_length(spec: MetricSpec, curve: Curve) -> float:
    """Composite-Simpson quadrature of the speed over each chart segment."""
    from scipy.integrate import simpson

    total = 0.0
    for a, b in curve.segment_bounds():
        if b - a < 2:
            continue
        total += float(simpson(curve.speeds[a:b], x=curve.ts[a:b]))
    return total


# ---------------------------------------------------------------------------
# direct sums / additive triples


@lru_cache(maxsize=None)
def _embed_indices(n_from: int, n_total: int, offset: int, mode: str) -> np.ndarray:
    idx = string_index(n_total, mode)
    pad_l = "I" * offset
    pad_r = "I" * (n_total - offset - n_from)
    return np.array([idx[pad_l + s + pad_r] for s in pauli_strings(n_from, mode)])


def embed_pauli_vector(v: PauliVector, n_total: int, offset: int) -> PauliVector:
    """Pad strings with identities: qubits [offset, offset + v.n) carry v."""
    out = np.zeros(basis_dimension(n_total, v.mode))
    out[_embed_indices(v.n, n_total, offset, v.mode)] = v.entries
    return PauliVector(n_total, v.mode, out)


def _weight_fn(spec: MetricSpec, j: int) -> float:
    if spec.penalty is None:
        return 1.0
    return spec.penalty.weight_value(j)


def tensor_product_curve(curve_a: Curve, curve_b: Curve, spec_ab: MetricSpec) -> Curve:
    """Samples of W(t) = U_A(t) (x) U_B(t) as a curve on the product group.

    Requires matching sample times; the product must stay inside the Pauli
    patch (eigenphases of W away from pi).
    """
    if curve_a.mode != curve_b.mode or curve_a.mode != spec_ab.mode:
        raise DimensionMismatch("curves and product spec must share the basis mode")
    if len(curve_a.ts) != len(curve_b.ts) or not np.allclose(curve_a.ts, curve_b.ts):
        raise DimensionMismatch("curves must be sampled at the same times")
    na, nb = curve_a.n, curve_b.n
    n = na + nb
    mode = spec_ab.mode
    k = len(curve_a.ts)
    d = basis_dimension(n, mode)

    hs = np.zeros((k, d))
    hs[:, _embed_indices(na, n, 0, mode)] += _adapted(curve_a.xs, curve_a.ys, na, mode)
    hs[:, _embed_indices(nb, n, na, mode)] += _adapted(curve_b.xs, curve_b.ys, nb, mode)
    xs = np.array([
        pauli_log(np.kron(curve_a.unitary_at(i), curve_b.unitary_at(i)), mode).entries
        for i in range(k)
    ])
    ys = coefficients(apply_bch(algebra(xs, n, mode), algebra(hs, n, mode), inverse=True), n, mode)
    speeds = norms_batch(spec_ab, hs)
    return Curve(spec_ab, n, mode, curve_a.ts.copy(), xs, ys, speeds)


def additive_triple_check(
    spec_a: MetricSpec,
    spec_b: MetricSpec,
    spec_ab: MetricSpec,
    curve_a: Curve = None,
    curve_b: Curve = None,
    n_a: int = 1,
    n_b: int = 1,
    num_samples: int = 20,
    rng=None,
) -> float:
    """Residual of F_AB^2(H_A + H_B) = F_A^2(H_A) + F_B^2(H_B) on samples.

    When factor curves are supplied, additionally checks that their tensor
    product satisfies the product metric's geodesic equation, and the larger
    of the two residuals is returned.  Penalties must agree on shared
    weights (1..n_a with A, 1..n_b with B); a mismatch raises
    InconsistentPenalties.
    """
    if curve_a is not None:
        n_a = curve_a.n
    if curve_b is not None:
        n_b = curve_b.n
    for j in range(0, n_a + 1):
        if abs(_weight_fn(spec_a, j) - _weight_fn(spec_ab, j)) > 1e-12:
            raise InconsistentPenalties(f"A/AB penalty mismatch at weight {j}")
    for j in range(0, n_b + 1):
        if abs(_weight_fn(spec_b, j) - _weight_fn(spec_ab, j)) > 1e-12:
            raise InconsistentPenalties(f"B/AB penalty mismatch at weight {j}")
    if rng is None:
        rng = np.random.default_rng(20260822)
    n = n_a + n_b
    mode = spec_ab.mode
    da = basis_dimension(n_a, mode)
    db = basis_dimension(n_b, mode)
    worst = 0.0
    for _ in range(num_samples):
        ya = rng.standard_normal(da)
        yb = rng.standard_normal(db)
        emb = (
            embed_pauli_vector(PauliVector(n_a, mode, ya), n, 0).entries
            + embed_pauli_vector(PauliVector(n_b, mode, yb), n, n_a).entries
        )
        lhs = norm(spec_ab, emb) ** 2
        rhs = norm(spec_a, ya) ** 2 + norm(spec_b, yb) ** 2
        worst = max(worst, abs(lhs - rhs))
    if curve_a is not None and curve_b is not None:
        product = tensor_product_curve(curve_a, curve_b, spec_ab)
        worst = max(worst, el_residual(spec_ab, product))
    return worst
