"""Geodesics of right-invariant metrics, computed in Pauli coordinates.

The metric pulled back to the Pauli chart is F(x, y) = N(M(x) y), where N is
the Minkowski norm in adapted coordinates and M(x) the linear
change-of-coordinates matrix at base point x.  The fundamental tensor is

    g_jk(x, y) = (1/2) d^2 F^2 / dy^j dy^k = M(x)^T H_N(M(x) y) M(x),

with H_N the norm Hessian.  The geodesic equation in second-order form,

    d^2 x^j/dt^2 + Gamma^j_kl (dx^k/dt)(dx^l/dt) = 0,
    Gamma^j_kl = (g^jm / 2)(g_mk,l + g_ml,k - g_kl,m),

is integrated with fixed-step RK4, the x-derivatives of g taken by central
finite differences (M(x) is the only x-dependence).  The contraction
Gamma^j_kl y^k y^l is assembled directly as g^{-1} c with

    c_m = sum_l y^l (d_l g y)_m - (1/2) y^T (d_m g) y,

avoiding the full rank-3 array inside the integrator.

Pauli coordinates only cover unitaries whose eigenphases avoid pi.  When an
eigenphase of the current point approaches the cut, the integration
re-anchors: the accumulated unitary is absorbed into an anchor factor and
the chart restarts at x = 0 (right-invariance makes the metric functions
identical in the new chart; the adapted tangent carries over unchanged).
A Curve therefore consists of chart segments, each with its own anchor.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.integrate import simpson

from .config import DEFAULT_TOLERANCES, SHOOT_N_CAP, env_n_cap
from .coords import change_matrices, pauli_log
from .errors import (
    DimensionLimit,
    DimensionMismatch,
    InconsistentPenalties,
    OutsidePatch,
    SingularHessian,
    StepLimitExceeded,
    UnsupportedCoefficient,
)
from .metrics import (
    F1,
    F2,
    MetricSpec,
    grad_f_squared,
    hessian,
    norm,
    norms_batch,
)
from .pauli import (
    SU,
    PauliVector,
    StabilizerSubgroup,
    basis_dimension,
    basis_stack,
    string_index,
    pauli_strings,
    qubits_of_dimension,
)

_HX = DEFAULT_TOLERANCES["fd_step_x"]
_MIN_G_EIG = 1e-10
_CHUNK = 2048


@dataclass
class ChristoffelField:
    """Gamma^j_{kl} at one point, indexed [j, k, l]; symmetric in (k, l)."""

    gammas: np.ndarray


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

    def __post_init__(self):
        if not self.anchors:
            self.anchors = [np.eye(2**self.n, dtype=complex)]

    def segment_bounds(self) -> list:
        stops = list(self.segments[1:]) + [len(self.ts)]
        return list(zip(self.segments, stops))

    def unitary_at(self, i: int) -> np.ndarray:
        seg = bisect_right(self.segments, i) - 1
        return _expm_entries(self.xs[i], self.n, self.mode) @ self.anchors[seg]

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


def _expm_entries(x: np.ndarray, n: int, mode: str) -> np.ndarray:
    H = np.einsum("k,kij->ij", x, basis_stack(n, mode))
    lam, V = np.linalg.eigh(H)
    return V @ np.diag(np.exp(-1j * lam)) @ V.conj().T


def _max_eigphase(x: np.ndarray, n: int, mode: str) -> float:
    H = np.einsum("k,kij->ij", x, basis_stack(n, mode))
    return float(np.max(np.abs(np.linalg.eigvalsh(H))))


def _speeds_for(spec: MetricSpec, curve_xs, curve_ys, n: int, mode: str) -> np.ndarray:
    Ms = change_matrices(curve_xs, n, mode)
    u = np.einsum("kts,ks->kt", Ms, curve_ys)
    return norms_batch(spec, u)


# ---------------------------------------------------------------------------
# metric pullback and Christoffel symbols


def metric_in_pauli_coords(spec: MetricSpec, x, y) -> float:
    """F(x, y) = N(M(x) y); equals norm(spec, y) at x = 0."""
    xe, ye = _entries_of(x), _entries_of(y)
    if xe.shape != ye.shape:
        raise DimensionMismatch("x and y have different dimensions")
    n = qubits_of_dimension(len(xe), spec.mode)
    M = change_matrices(xe[None, :], n, spec.mode)[0]
    return norm(spec, M @ ye)


def _gram(spec: MetricSpec, M: np.ndarray, y: np.ndarray) -> np.ndarray:
    return M.T @ hessian(spec, M @ y) @ M


def _g_and_dg(spec: MetricSpec, x: np.ndarray, y: np.ndarray, n: int, h: float = _HX):
    """g(x, y) and its x-derivatives dg[l] = dg/dx^l by central differences."""
    d = len(x)
    xs = np.tile(x, (2 * d + 1, 1))
    for l in range(d):
        xs[1 + 2 * l, l] += h
        xs[2 + 2 * l, l] -= h
    Ms = change_matrices(xs, n, spec.mode)
    g0 = _gram(spec, Ms[0], y)
    dg = np.empty((d, d, d))
    for l in range(d):
        dg[l] = (_gram(spec, Ms[1 + 2 * l], y) - _gram(spec, Ms[2 + 2 * l], y)) / (2 * h)
    return g0, dg


def _check_g(g: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvalsh(g)
    if w[0] < _MIN_G_EIG:
        raise SingularHessian(f"min eigenvalue of g is {w[0]:.3e}")
    return w


def christoffel(spec: MetricSpec, x, y) -> ChristoffelField:
    """Gamma^j_{kl} = (g^jm/2)(g_mk,l + g_ml,k - g_kl,m) at (x, y)."""
    xe, ye = _entries_of(x), _entries_of(y)
    n = qubits_of_dimension(len(xe), spec.mode)
    g, dg = _g_and_dg(spec, xe, ye, n)
    _check_g(g)
    ginv = np.linalg.inv(g)
    # T[m,k,l] = g_mk,l + g_ml,k - g_kl,m   (dg[l,m,k] = g_mk,l)
    T = np.einsum("lmk->mkl", dg) + np.einsum("kml->mkl", dg) - dg
    return ChristoffelField(0.5 * np.einsum("jm,mkl->jkl", ginv, T))


def _accel(spec: MetricSpec, x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """-Gamma^j_{kl} y^k y^l via the contracted form (see module docstring)."""
    g, dg = _g_and_dg(spec, x, y, n)
    _check_g(g)
    c = np.einsum("l,lmk,k->m", y, dg, y) - 0.5 * np.einsum("mkl,k,l->m", dg, y, y)
    return -np.linalg.solve(g, c)


# ---------------------------------------------------------------------------
# shooting


def shoot_geodesic(
    spec: MetricSpec,
    x0,
    y0,
    t_end: float,
    steps: int = None,
    n_cap: int = None,
    reanchor_margin: float = 0.2,
    max_segments: int = 64,
) -> Curve:
    """Integrate the geodesic equation from (x0, y0) for time t_end.

    Fixed-step RK4, default 1000 steps per unit time.  Emits one sample per
    step; re-anchors the chart when an eigenphase reaches pi - margin.
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
        raise ValueError("y0 must be nonzero")
    dt = t_end / steps
    mode = spec.mode

    ts = [0.0]
    xs = [xe.copy()]
    ys = [ye.copy()]
    segments = [0]
    anchors = [np.eye(2**n, dtype=complex)]

    def f(state):
        x, y = state
        return np.array([y, _accel(spec, x, y, n)])

    state = np.array([xe, ye])
    for step in range(steps):
        k1 = f(state)
        k2 = f(state + 0.5 * dt * k1)
        k3 = f(state + 0.5 * dt * k2)
        k4 = f(state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = (step + 1) * dt
        x, y = state
        if _max_eigphase(x, n, mode) >= np.pi - reanchor_margin:
            M = change_matrices(x[None, :], n, mode)[0]
            anchors.append(_expm_entries(x, n, mode) @ anchors[-1])
            x = np.zeros_like(x)
            y = M @ y
            state = np.array([x, y])
            segments.append(len(ts))
            if len(segments) > max_segments:
                raise StepLimitExceeded(
                    f"more than {max_segments} chart re-anchorings; "
                    "the curve is too long for this sampling"
                )
        ts.append(t)
        xs.append(x.copy())
        ys.append(y.copy())

    ts = np.array(ts)
    xs = np.array(xs)
    ys = np.array(ys)
    speeds = np.empty(len(ts))
    curve = Curve(spec, n, mode, ts, xs, ys, speeds, segments, anchors)
    for a, b in curve.segment_bounds():
        speeds[a:b] = _speeds_for(spec, xs[a:b], ys[a:b], n, mode)
    return curve


# ---------------------------------------------------------------------------
# Euler-Lagrange residual


def el_residual(spec: MetricSpec, curve: Curve) -> float:
    """Max residual of d/dt(dF^2/dy^j) = dF^2/dx^j along the curve.

    The y-gradient is analytic (M^T grad N^2), its time derivative and the
    x-gradient are finite differences.  Normalized by max |dF^2/dx| + 1;
    evaluated on interior samples of each chart segment.
    """
    n, mode, d = curve.n, curve.mode, curve.xs.shape[1]
    worst = 0.0
    rhs_scale = 0.0
    h = _HX
    for a, b in curve.segment_bounds():
        if b - a < 5:
            continue
        xs, ys, ts = curve.xs[a:b], curve.ys[a:b], curve.ts[a:b]
        k = b - a
        Ms = change_matrices(xs, n, mode)
        u = np.einsum("kts,ks->kt", Ms, ys)
        lhs = np.empty((k, d))
        for i in range(k):
            lhs[i] = Ms[i].T @ grad_f_squared(spec, u[i])
        dlhs = np.gradient(lhs, ts, axis=0)

        pert = np.repeat(xs[:, None, :], 2 * d, axis=1)
        for l in range(d):
            pert[:, 2 * l, l] += h
            pert[:, 2 * l + 1, l] -= h
        flat = pert.reshape(-1, d)
        ys_rep = np.repeat(ys, 2 * d, axis=0)
        vals = np.empty(len(flat))
        for c0 in range(0, len(flat), _CHUNK):
            c1 = min(c0 + _CHUNK, len(flat))
            Mf = change_matrices(flat[c0:c1], n, mode)
            uf = np.einsum("kts,ks->kt", Mf, ys_rep[c0:c1])
            vals[c0:c1] = norms_batch(spec, uf) ** 2
        vals = vals.reshape(k, d, 2)
        rhs = (vals[:, :, 0] - vals[:, :, 1]) / (2 * h)

        res = np.abs(dlhs - rhs)[1:-1]
        if res.size:
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
    from .coords import UnitaryOperator

    elements = set(S.elements)
    for s, v in coeffs.terms().items():
        if abs(v) > 1e-12 and s not in elements:
            raise UnsupportedCoefficient(f"coefficient on {s} is outside the subgroup")
    from .pauli import to_matrix

    H0 = to_matrix(coeffs)
    lam, V = np.linalg.eigh(H0)
    U = V @ np.diag(np.exp(-1j * lam * t)) @ V.conj().T
    return UnitaryOperator(coeffs.n, U)


def pauli_geodesic_curve(
    spec: MetricSpec, coeffs: PauliVector, t_end: float, num_samples: int = 201
) -> Curve:
    """The straight line x(t) = h0 t as a sampled Curve (for residual checks).

    Must stay inside the coordinate patch: max |eig(H0)| * t_end < pi.
    """
    if coeffs.mode != spec.mode:
        raise DimensionMismatch("coefficient mode does not match the metric spec")
    from .pauli import to_matrix

    h0 = np.asarray(coeffs.entries, dtype=float)
    lam = np.linalg.eigvalsh(to_matrix(coeffs))
    if float(np.max(np.abs(lam))) * t_end >= np.pi:
        raise OutsidePatch("exp(-i H0 t) leaves the coordinate patch before t_end")
    n, mode = coeffs.n, spec.mode
    ts = np.linspace(0.0, t_end, num_samples)
    xs = np.outer(ts, h0)
    ys = np.tile(h0, (num_samples, 1))
    speeds = _speeds_for(spec, xs, ys, n, mode)
    return Curve(spec, n, mode, ts, xs, ys, speeds)


def curve_length(spec: MetricSpec, curve: Curve) -> float:
    """Composite-Simpson quadrature of the speed over each chart segment."""
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

    Ma = change_matrices(curve_a.xs, na, mode)
    Mb = change_matrices(curve_b.xs, nb, mode)
    ua = np.einsum("kts,ks->kt", Ma, curve_a.ys)
    ub = np.einsum("kts,ks->kt", Mb, curve_b.ys)

    xs = np.empty((k, d))
    ys = np.empty((k, d))
    from .coords import change_coords_backward

    for i in range(k):
        W = np.kron(curve_a.unitary_at(i), curve_b.unitary_at(i))
        x_ab = pauli_log(W, mode)
        h_ab = embed_pauli_vector(PauliVector(na, mode, ua[i]), n, 0).entries
        h_ab = h_ab + embed_pauli_vector(PauliVector(nb, mode, ub[i]), n, na).entries
        y_ab = change_coords_backward(x_ab, PauliVector(n, mode, h_ab))
        xs[i] = x_ab.entries
        ys[i] = y_ab.entries
    speeds = _speeds_for(spec_ab, xs, ys, n, mode)
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
