"""Geodesics of right-invariant metrics, shot in the Lie algebra.

A curve with dU/dt = -i H(t) U has length integral F(H(t)) dt, H = h.sigma
in natural adapted coordinates.  Right-invariance makes the geodesic
equation an ODE for H alone, the Euler-Arnold equation

    Hess_N(H) dH/dt = proj(-i[H, P]),   P = sum_s p_s sigma_s,  p = grad(F^2)/2 at H,

with Hess_N = (1/2) d^2 F^2 and proj the Pauli coefficients.  Since F^2/2
is 2-homogeneous, p = Hess_N(H) h (Euler).  Under F2/Fq, Hess_N = diag(q), so
the right side is a fixed quadratic form in h (_euclidean_field); it is zero
under F2, whose geodesics are exp(-i t H0) U0 (the bi-invariant case).  A
smoothed family solves the norm once per evaluation (metrics.hessian_parts);
its Hess_N is diagonal plus rank 2, so the solve and the eigenvalue check cost
O(d), and its bracket is pauli.bracket.  shoot_geodesic first runs RK4 on H
alone from H0 = E_x0(y0), then rebuilds U from U0 = exp(-i x0.sigma) by the
4th-order Magnus step U <- exp(-i K) U, K = dt/2 (H1 + H2) - i sqrt(3)/12 dt^2
[H2, H1] at the Gauss points of each step's cubic Hermite interpolant of H
(K as stacked matrices, exponentiated by stacked eighs, so U stays unitary).

Curves are returned in Pauli coordinates, U = exp(-i x.sigma) A, with
h = E_x(y) (the filter of coords; y = E_x^-1(h) by its inverse).  The
chart only covers eigenphases in (-pi, pi): once one reaches
pi - _REANCHOR_MARGIN, A becomes the current U and x restarts at 0, so a
Curve consists of chart segments, each with its own anchor (_chart_curve,
for shots and tensor products alike, in stacked Cayley passes).
Every Curve carries the spectrum (lam, V) of its xs, and every exponential
(coords._exp_spectrum) and gradient here reads it (a Pauli geodesic's V0,
stored once: one basis rotation).  el_residual checks the Euler-Lagrange
equations of F(x, y) = N(E_x(y)) in the chart, with exact gradients,
from the samples: it never reads the shot's H or its equation.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .coords import UnitaryOperator, _Eigenbasis, _cayley_phases, _eigh, _exp_spectrum
from .coords import _log_rows, _log_spectrum, unitary_from_coords
# perfbench wraps coords.change_matrices, and its test_tracer_self_time_and_patching
# asserts that the wrapper replaces this binding too
from .coords import change_matrices  # noqa: F401
from .errors import (
    DimensionLimit,
    DimensionMismatch,
    InconsistentPenalties,
    NonFiniteInput,
    NotSmoothMetric,
    OutsidePatch,
    SingularHessian,
    TooFewSamples,
    UnsupportedCoefficient,
    UnsupportedSpec,
    ZeroVector,
)
from .metrics import (
    EUCLIDEAN,
    F1,
    FP,
    MetricSpec,
    grad_f_squared,
    hessian_parts,
    norm,
    norms_batch,
    penalty_vector,
)
from .pauli import (
    SU,
    PauliVector,
    StabilizerSubgroup,
    _structure_constants,
    algebra,
    basis_dimension,
    bracket,
    check_bytes,
    entries_of,
    json_int,
    string_index,
    pauli_strings,
    qubits_of_dimension,
)

_MIN_G_EIG = 1e-10
# A chart is left once an eigenphase of x.sigma comes this close to pi.
_REANCHOR_MARGIN = 0.2
_ROWS = 256  # steps whose Magnus commutators are formed at once: bounds the temporaries


@dataclass
class Curve:
    """Sampled curve in Pauli coordinates, possibly split into chart segments.

    segments[i] is the index of the first sample of chart i; anchors[i] is the unitary U_i with
    the curve given by exp(-i x(t).sigma) U_i on that segment.  x/y samples are chart-local.
    mode is spec.mode and n is read from the width of xs, so neither can disagree with the metric.
    spectrum = (lam, V), xs[i].sigma = V[i] diag(lam[i]) V[i]^+, serves every exponential and
    gradient of the curve: the constructor's, else (from_json, by hand) one stacked eigh of xs
    in __post_init__.  It is never serialised.  __post_init__ checks every curve, however built:
    finite ts, xs, ys and speeds (NonFiniteInput); one x, y, speed, lam and V (broadcast or
    not) a time, of one qubit count (DimensionMismatch); ts strictly monotone either way, or all
    equal, V of unit columns, and segments that start at 0 and ascend below the sample count, one
    anchor each (ValueError); and anchors that UnitaryOperator accepts.
    """

    spec: MetricSpec
    ts: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    speeds: np.ndarray
    segments: list = field(default_factory=lambda: [0])
    anchors: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    spectrum: tuple = field(default=None, repr=False, compare=False)
    n: int = field(init=False)
    mode: str = field(init=False)

    def __post_init__(self):
        if not all(np.isfinite(a).all() for a in (self.ts, self.xs, self.ys, self.speeds)):
            raise NonFiniteInput("a curve's times, coordinates or speeds include NaN or infinity")
        if self.ys.shape != self.xs.shape or not self.ts.shape == self.speeds.shape == self.xs.shape[:1]:
            raise DimensionMismatch("a curve needs one x, one y and one speed at each time")
        steps = np.diff(self.ts)
        if not (np.all(steps > 0) or np.all(steps < 0) or not steps.any()):
            raise ValueError("sample times must be strictly monotone, or all equal")
        self.mode = self.spec.mode
        self.n = qubits_of_dimension(self.xs.shape[1], self.mode)
        if not self.anchors:
            self.anchors = [np.eye(2**self.n, dtype=complex)]
        starts = self.segments
        ascending = starts[:1] == [0] and np.all(np.diff(starts) > 0) and starts[-1] < len(self.ts)
        if not ascending or len(self.anchors) != len(starts):
            raise ValueError(f"segments {starts} must ascend from 0 below {len(self.ts)}, one anchor each")
        self.anchors = [UnitaryOperator(self.n, A).matrix for A in self.anchors]
        self.spectrum = self.spectrum or _eigh(algebra(self.xs, self.n, self.mode))
        lam, V = self.spectrum
        if np.shape(lam) != (len(self.ts), 2**self.n) or np.shape(V) != np.shape(lam) + (2**self.n,):
            raise DimensionMismatch("a curve's spectrum needs a lam of 2^n and a 2^n x 2^n V a sample")
        W = V[:1] if V.strides[0] == 0 else V  # a V shared by the samples is one matrix
        if np.abs(sum(np.einsum("mij,mij->mj", p, p) for p in (W.real, W.imag)) - 1.0).max() > 1e-10:
            raise ValueError("the spectrum's V has a column that is not a unit vector")

    def segment_bounds(self) -> list:
        stops = list(self.segments[1:]) + [len(self.ts)]
        return list(zip(self.segments, stops))

    def unitary_at(self, i: int) -> np.ndarray:
        i = range(len(self.ts))[i]  # a negative index counts from the end
        U = _exp_spectrum(*(s[i:i + 1] for s in self.spectrum))[0]
        return U @ self.anchors[bisect_right(self.segments, i) - 1]

    def unitaries(self) -> np.ndarray:
        """Every sample's exp(-i x.sigma) A: one stacked exponential, one anchor product a segment."""
        Us = _exp_spectrum(*self.spectrum)
        for (a, b), A in zip(self.segment_bounds(), self.anchors):
            Us[a:b] = Us[a:b] @ A
        return Us

    def to_json(self) -> dict:
        def vector(row):
            return PauliVector(self.n, self.mode, row).to_json()

        samples = [
            {"t": float(t), "x": vector(x), "y": vector(y), "speed": float(v)}
            for t, x, y, v in zip(self.ts, self.xs, self.ys, self.speeds)
        ]
        return {
            "metric": self.spec.to_json(),
            "samples": samples,
            "segments": [int(s) for s in self.segments],
            "anchors": [UnitaryOperator(self.n, A).to_json() for A in self.anchors],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Curve":
        spec = MetricSpec.from_json(obj["metric"])
        samples = obj["samples"]
        if not samples:
            raise ValueError("a curve needs at least one sample")
        ts = np.array([s["t"] for s in samples], dtype=float)
        xs = np.array([entries_of(PauliVector.from_json(s["x"]), spec.mode) for s in samples])
        ys = np.array([entries_of(PauliVector.from_json(s["y"]), spec.mode) for s in samples])
        speeds = np.array([s["speed"] for s in samples], dtype=float)
        segments = [json_int(s, "segment") for s in obj.get("segments", [0])]
        anchors = [UnitaryOperator.from_json(A).matrix for A in obj.get("anchors", [])]
        return cls(spec, ts, xs, ys, speeds, segments, anchors)


# ---------------------------------------------------------------------------
# shooting


@lru_cache(maxsize=256)
def _euclidean_field(spec: MetricSpec, n: int) -> tuple:
    """(c, a, b, g) with q^-1 proj(-i[H, q h]) = bincount(c, g h_a h_b) under F2/Fq.

    f_ab = -f_ba, so the pairs (a, b) and (b, a) of the structure constants add up to
    f_ab (q_b - q_a) h_a h_b: a < b with q_a != q_b is kept, g = f_ab (q_b - q_a) / q_c.
    """
    q = penalty_vector(spec, n)
    c, a, b, f = _structure_constants(n, spec.mode)
    keep = (a < b) & (q[a] != q[b])
    return c[keep], a[keep], b[keep], f[keep] * (q[b] - q[a])[keep] / q[c[keep]]


# Cubic Hermite weights of (H_n, dt k_n, H_n+1, dt k_n+1) at the two Gauss
# points c = 1/2 -+ sqrt(3)/6 of the 4th-order Magnus step.
_HERMITE = np.array([
    [(1 + 2 * c) * (1 - c) ** 2, c * (1 - c) ** 2, c**2 * (3 - 2 * c), c**2 * (c - 1)]
    for c in (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
])


def shoot_geodesic(spec: MetricSpec, x0, y0, t_end: float, steps: int = None,
                   n_cap: int = None) -> Curve:
    """Integrate the geodesic from (x0, y0) for time t_end, one sample per step.

    Two phases.  RK4 on the Euler-Arnold equation for H alone, default 1000
    steps per unit time (of |t_end|), stores H and k = dH/dt, with no
    exponential and no chart log.  The reconstruction builds each step's
    Magnus exponent from (H_i, k_i, H_i+1, k_i+1), exponentiates them by
    stacked eighs (_magnus_steps), forms U_i+1 = E_i U_i and recovers x with
    _chart_curve.  curve.stats holds the step and segment counts, the
    smallest Hessian eigenvalue seen and the largest relative drift of F.

    Cost per step: four right-hand sides.  Under F2/Fq each is one bincount
    over the table, with no bracket and no solve (0, 36, 270 and 1512 terms
    at n = 1..4 for a step penalty above weight 1).  Under the smoothed
    families each is one bracket, one implicit norm solve (a few Newton
    steps), a Woodbury solve with Hess_N and an inertia count, all O(d) but
    the bracket (metrics.HessianParts).  The reconstruction adds a share of
    one stacked pass of matrix commutators and of the eigh stack, a matrix
    product and the chart's Cayley passes (cProfile of a 1-unit n = 3 Fq
    shot, 0.14 s under the profiler: RK4 0.07 s, Magnus 0.03 s, chart
    0.04 s, of which Cayley 0.02 s).  A 1-unit shot (1000 steps, one BLAS
    thread, 2-core Xeon) takes 0.12 to 0.14 s under Fq and 0.85 to 0.99 s
    under FpDelta (delta = 2e-3) at n = 3, 0.46 to 0.48 s and 1.9 to 2.8 s
    (delta = 5e-4) at n = 4.  Memory: about ten D x D complex matrices a
    step (tracemalloc: 1.05 to 1.1 times the model that check_bytes gets).

    Working range: n <= 4 (pauli.PAULI_N_MAX; n_cap= lowers it for one
    call), a smooth family (NotSmoothMetric at entry for F1 and Fp),
    steps >= 1, given or default (else ValueError), with (steps + 1) 160 4^n bytes
    within pauli.MAX_BYTES (else StepLimitExceeded at entry, before any allocation):
    1677720, 419429, 104856 and 26213 steps at n = 1..4, a finite t_end
    and dt^2 (else NonFiniteInput), and a step that resolves the norm's
    curvature, which for the smoothed families grows like 1/delta where a
    coefficient of H nears 0 (FpDelta, delta = 1e-3, a generic unit y0 at
    n = 2: 500 to 8000 steps per unit stop, 32000 drift by 23% in F).  SingularHessian:
    the Hessian's smallest eigenvalue is below 1e-10, or F(H)^2 = p . H,
    conserved, left [F0^2/2, 2 F0^2].  Failures come in phase order, each
    at its first sample: SingularHessian (RK4), NoConvergence (the eigh
    stack), then BranchCut (a pass with I + U A^-1 exactly singular) or NoConvergence (the
    chart, by whole passes, so a row past a pass's anchor may fail it), then
    NonTracelessInSUMode (its stacked read); of two faults the earlier phase's is reported.
    Every eigensolver failure is NoConvergence, x0's at entry (H0, U0, x's row 0) included.
    """
    if spec.family in (F1, FP):
        raise NotSmoothMetric(f"{spec.family} has no smooth square, so no geodesic equation")
    xe, ye = entries_of(x0, spec.mode).copy(), entries_of(y0, spec.mode).copy()
    n = qubits_of_dimension(len(xe), spec.mode)
    if n_cap is not None and n > n_cap:
        raise DimensionLimit(f"shooting at n={n} exceeds n_cap={n_cap}")
    if not math.isfinite(t_end):
        raise NonFiniteInput(f"t_end={t_end} is not finite")
    if steps is None:  # int() overflows past |t_end| = 1.8e305; 10^18 steps are over the budget
        steps = max(1, int(round(min(1000 * abs(t_end), 1e18))))
    if steps < 1:
        raise ValueError(f"steps={steps} must be at least 1")
    # per sample, in D x D complex matrices: U and the chart's V; H, k and x (a half each); and
    # the stacked pass that reads y: the H stack, V^+, Phi, the gaps (a half) and three products
    check_bytes((steps + 1) * 10 * 16 * 4**n, f"a {steps}-step shot at n={n}")
    if not np.any(ye):
        raise ZeroVector("y0 must be nonzero")
    dt = t_end / steps
    if not math.isfinite(dt * dt):
        raise NonFiniteInput(f"the step t_end/steps = {dt:.3g} overflows when squared")
    mode = spec.mode
    # F2/Fq: Hess_N is the constant diag(q), q >= 1, so p = q h and no evaluation solves
    q = penalty_vector(spec, n) if spec.family in EUCLIDEAN else None
    min_eig = np.inf if q is None else float(q.min())
    if q is not None:
        c, a, b, g = _euclidean_field(spec, n)

    def f(h):
        """dH/dt = Hess_N(H)^-1 proj(-i[H, P]) with P the momentum at H."""
        nonlocal min_eig
        if q is None:
            G = hessian_parts(spec, h)
            min_eig = G.min_eig(min_eig)
            if min_eig < _MIN_G_EIG:
                raise SingularHessian(f"min eigenvalue of the norm Hessian is {min_eig:.3e}")
            p = G.N * G.U[:, 0] / G.D
        else:
            p = q * h
        # F^2/2 is 2-homogeneous, so the momentum is Hess_N(H) h (Euler), and
        # h . p = F(H)^2, which the geodesic conserves
        if not 0.5 <= (p @ h) / energy <= 2.0:
            raise SingularHessian(f"F(H)^2 = {p @ h:.6g} left [F0^2/2, 2 F0^2] (F0^2 = "
                                  f"{energy:.6g}); the step is too long for the norm's curvature")
        if q is None:
            return G.solve(bracket(h, p, n, mode))
        return np.bincount(c, weights=g * h[a] * h[b], minlength=len(h))

    lam0, V0 = _eigh(algebra(xe[None], n, mode))  # x0's one eigensolve: H0, U0 and chart row 0
    h = _Eigenbasis(lam0, V0).apply_rows(ye[None], n, mode)[0]
    energy = norm(spec, h) ** 2
    hs = np.empty((steps + 1, len(h)))
    ks = np.empty_like(hs)
    hs[0], ks[0] = h, f(h)
    half, sixth = 0.5 * dt, dt / 6.0
    for i in range(steps):
        h, k = hs[i], ks[i]
        k2 = f(h + half * k)
        k3 = f(h + half * k2)
        k4 = f(h + dt * k3)
        hs[i + 1] = h + sixth * (k + 2 * k2 + 2 * k3 + k4)
        ks[i + 1] = f(hs[i + 1])

    Us = np.empty((steps + 1, 2**n, 2**n), dtype=complex)
    Us[0] = _exp_spectrum(lam0, V0)[0]
    _magnus_steps(hs, ks, dt, n, mode, Us[1:])
    for i in range(1, steps + 1):
        Us[i] = Us[i] @ Us[i - 1]
    curve = _chart_curve(spec, dt * np.arange(steps + 1), hs, Us, (xe, lam0, V0))
    v = curve.speeds
    curve.stats = {"steps": steps, "segments": len(curve.segments),
                   "min_hessian_eig": float(min_eig),
                   "speed_drift": float(np.max(np.abs(v - v[0])) / v[0])}
    return curve


def _magnus_steps(hs: np.ndarray, ks: np.ndarray, dt: float, n: int, mode: str, out: np.ndarray):
    """out[i] = exp(-i K_i), K_i = dt/2 (H1 + H2) - i sqrt(3)/12 dt^2 (H2 H1 - H1 H2), H1 and H2
    at the Gauss points of step i's cubic Hermite interpolant.  K is formed as matrices and
    exponentiated by one eigh, _ROWS steps at a time, which bounds the temporaries."""
    gauss = (_HERMITE * [1.0, dt, 1.0, dt]) @ np.stack([hs[:-1], ks[:-1], hs[1:], ks[1:]], axis=1)
    weight = (np.sqrt(3.0) / 12.0) * dt**2
    for s in range(0, len(gauss), _ROWS):
        g1, g2 = gauss[s:s + _ROWS, 0], gauss[s:s + _ROWS, 1]
        H1, H2 = algebra(g1, n, mode), algebra(g2, n, mode)
        K = algebra(0.5 * dt * (g1 + g2), n, mode) - 1j * weight * (H2 @ H1 - H1 @ H2)
        out[s:s + _ROWS] = _exp_spectrum(*_eigh(K))


def _chart_curve(spec: MetricSpec, ts: np.ndarray, hs: np.ndarray, Us: np.ndarray, row0: tuple) -> Curve:
    """The Curve of the samples U_i = Us[i], H_i = hs[i].sigma at times ts.

    row0 = (x0, lam0, V0): x0 charts Us[0], with x0.sigma = V0 diag(lam0) V0^+ (stacks of one).
    Each _cayley_phases pass of U_i A^-1 (A the anchor) gives the spectra (-phases, V) of
    x_i.sigma up to the first whose top phase reaches pi - _REANCHOR_MARGIN: it becomes the
    anchor, spectrum (0, I), and the next pass starts after it.  The first pass takes _ROWS
    rows, each later one min(_ROWS, twice the rows the last one advanced, its anchor counted),
    so at most 2 (samples - 1) + _ROWS rows are charted, however many charts the curve needs.
    One stacked pass reads x and y = E_x^-1(h), and the curve keeps them.
    """
    mode = spec.mode
    n = qubits_of_dimension(hs.shape[1], mode)
    lam = np.zeros((len(ts), 2**n))
    Vs = np.tile(np.eye(2**n, dtype=complex), (len(ts), 1, 1))
    lam[:1], Vs[:1] = row0[1:]
    segments, anchors = [0], [np.eye(2**n, dtype=complex)]
    i, rows = 1, _ROWS
    while i < len(ts):
        start = i
        phases, V = _cayley_phases(Us[i:i + rows] @ anchors[-1].conj().T)
        top = np.maximum(-phases[:, 0], phases[:, -1])  # phases ascend
        keep = int(np.append(top >= np.pi - _REANCHOR_MARGIN, True).argmax())  # the first far row
        lam[i:i + keep], Vs[i:i + keep] = -phases[:keep], V[:keep]
        i += keep
        if keep < len(top):  # sample i becomes the anchor
            anchors.append(Us[i].copy())  # a view would keep the whole stack alive
            segments.append(i)
            i += 1
        rows = min(_ROWS, 2 * (i - start))  # twice what this pass advanced, its anchor counted
    xs = _log_rows(lam, Vs, n, mode)
    xs[0] = row0[0]
    ys = _Eigenbasis(lam, Vs).apply_rows(hs, n, mode, inverse=True)
    return Curve(spec, ts, xs, ys, norms_batch(spec, hs), segments, anchors, spectrum=(lam, Vs))


# ---------------------------------------------------------------------------
# Euler-Lagrange residual


def f_squared_gradients(spec: MetricSpec, ys: np.ndarray, spectrum: tuple) -> tuple:
    """Exact (dF^2/dx, dF^2/dy) of F(x, y) = N(E_x(y)) at each row of an (m, d) array ys.

    spectrum = (lam, V) gives each row's x, x.sigma = V diag(lam) V^+ (a Curve's, or _eigh of
    the X stack).  With h = E_x(y) and G = grad N^2(h).sigma: dF^2/dy = E_-x(G) (E_x^T = E_-x,
    the filter conj(Phi)) and dF^2/dx_j = Re tr(Gamma sigma_j) / 2^n (_Eigenbasis.x_gradient), all
    from one eigenbasis; a shared V (a Pauli geodesic) changes basis by no per-sample product.
    """
    mode = spec.mode
    n = qubits_of_dimension(ys.shape[1], mode)
    E = _Eigenbasis(*spectrum)
    Yh = E.hat_rows(ys, n, mode)
    A = E.Phi * Yh
    Gh = E.hat_rows(grad_f_squared(spec, E.unhat_rows(A, n, mode)), n, mode)
    B = E.Phi.conj() * Gh
    return E.unhat_rows(E.x_gradient(Yh, Gh, A, B), n, mode), E.unhat_rows(B, n, mode)


def el_residual(spec: MetricSpec, curve: Curve) -> float:
    """Max residual of d/dt(dF^2/dy^j) = dF^2/dx^j along the curve, F(x, y) = N(E_x(y)).

    Both gradients are exact (f_squared_gradients); only the time
    derivative is a finite difference, np.gradient over the samples.  The gradients read the
    curve's spectrum: no eigensolve.  Normalized by max |dF^2/dx| + 1; evaluated on the interior
    samples of each chart segment with at least 5 samples.  Raises TooFewSamples when no segment
    has that many, and ValueError for a curve of zero duration, which has no time derivative.
    """
    bounds = [(a, b) for a, b in curve.segment_bounds() if b - a >= 5]
    if not bounds:
        raise TooFewSamples(f"no chart segment of {len(curve.ts)} samples has 5 or more")
    if curve.ts[0] == curve.ts[-1]:
        raise ValueError("the curve has zero duration: no time derivative to check")
    worst = rhs_scale = 0.0
    for a, b in bounds:
        rhs, lhs = f_squared_gradients(spec, curve.ys[a:b], tuple(s[a:b] for s in curve.spectrum))
        res = np.abs(np.gradient(lhs, curve.ts[a:b], axis=0) - rhs)[1:-1]
        worst = max(worst, float(res.max()))
        rhs_scale = max(rhs_scale, float(np.abs(rhs).max()))
    return worst / (rhs_scale + 1.0)


# ---------------------------------------------------------------------------
# Pauli geodesics


def pauli_geodesic(S: StabilizerSubgroup, coeffs: PauliVector, t: float):
    """exp(-i H0 t) with H0 supported on the stabilizer subgroup S.

    Such curves are geodesics of every Pauli-symmetric metric; they are
    straight lines through the origin in Pauli coordinates.  t must be finite.
    """
    if not math.isfinite(t):
        raise NonFiniteInput(f"t={t} is not finite")
    elements = set(S.elements)
    for s, v in coeffs.terms().items():
        if abs(v) > 1e-12 and s not in elements:
            raise UnsupportedCoefficient(f"coefficient on {s} is outside the subgroup")
    U = unitary_from_coords(PauliVector(coeffs.n, coeffs.mode, t * coeffs.entries))
    return UnitaryOperator(coeffs.n, U)


def pauli_geodesic_curve(
    spec: MetricSpec, coeffs: PauliVector, t_end: float, num_samples: int = 201
) -> Curve:
    """The straight line x(t) = h0 t as a sampled Curve (for residual checks).

    x = t h0 commutes with y = h0, so E_x(y) = h0 and every speed is exactly
    F(h0).  Must stay inside the coordinate patch: max |eig(H0)| * |t_end| < pi.
    One eigh, H0 = V0 diag(lam0) V0^+, gives every sample's spectrum (t lam0, V0), V0 broadcast
    (stride 0, read as shared).  t_end must be finite (else NonFiniteInput) and num_samples at
    least 2 (else ValueError), with num_samples (16 4^n + 8 2^n + 16) bytes within MAX_BYTES
    (else StepLimitExceeded): 11184810, 3532045, 972592 and 253240 samples at n = 1..4.
    """
    if not math.isfinite(t_end):
        raise NonFiniteInput(f"t_end={t_end} is not finite")
    if num_samples < 2:
        raise ValueError(f"num_samples={num_samples} must be at least 2")
    if coeffs.mode != spec.mode:
        raise DimensionMismatch("coefficient mode does not match the metric spec")
    h0 = np.asarray(coeffs.entries, dtype=float)
    n, mode = coeffs.n, spec.mode
    # per sample: xs and ys (d <= 4^n floats each), lam, ts and speeds; V0 is one matrix for all
    check_bytes(num_samples * (16 * 4**n + 8 * 2**n + 16), f"{num_samples} curve samples at n={n}")
    lam0, V0 = _eigh(algebra(h0[None], n, mode))
    if float(np.max(np.abs(lam0))) * abs(t_end) >= np.pi:
        raise OutsidePatch("exp(-i H0 t) leaves the coordinate patch before t_end")
    ts = np.linspace(0.0, t_end, num_samples)
    V = np.broadcast_to(V0, (num_samples, 2**n, 2**n))  # one V0 for all: a shared _Eigenbasis
    return Curve(spec, ts, np.outer(ts, h0), np.tile(h0, (num_samples, 1)),
                 np.full(num_samples, norm(spec, h0)), spectrum=(np.outer(ts, lam0[0]), V))


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson's rule as scipy.integrate.simpson computes it: a parabola through each
    pair of intervals of any widths, Cartwright's correction for a last odd interval and the
    trapezoid for two points; a ratio over a zero width counts 0, as there."""
    def ratio(a, b):
        return np.divide(a, b, out=np.zeros(np.shape(b)), where=b != 0)

    if len(y) == 2:
        return 0.5 * (x[1] - x[0]) * (y[0] + y[1])
    h = np.diff(x)
    stop = len(h) - len(h) % 2
    h0, h1 = h[0:stop:2], h[1:stop:2]
    s = h0 + h1
    total = np.sum(s / 6.0 * (y[0:stop:2] * (2.0 - ratio(h1, h0)) + y[1:stop:2] * s * ratio(s, h0 * h1)
                              + y[2:stop + 1:2] * (2.0 - ratio(h0, h1))))
    if stop < len(h):
        a, b = h[-2], h[-1]
        total += (ratio(2 * b * b + 3 * a * b, 6 * (a + b)) * y[-1]
                  + ratio(b * b + 3 * a * b, 6 * a) * y[-2] - ratio(b**3, 6 * a * (a + b)) * y[-3])
    return float(total)


def curve_length(spec: MetricSpec, curve: Curve) -> float:
    """|Composite-Simpson quadrature| of the speed over every sample (_simpson): the speed F(H)
    does not depend on the chart, and a backward curve has the length of its forward run."""
    return abs(float(_simpson(curve.speeds, curve.ts)))


# ---------------------------------------------------------------------------
# direct sums / additive triples


@lru_cache(maxsize=None)
def _embed_indices(n_from: int, n_total: int, offset: int, mode: str) -> np.ndarray:
    """Product-basis index of each n_from-qubit string padded with identities onto
    qubits [offset, offset + n_from) of n_total."""
    idx, pad = string_index(n_total, mode), "I" * (n_total - offset - n_from)
    return np.array([idx["I" * offset + s + pad] for s in pauli_strings(n_from, mode)])


def tensor_product_curve(curve_a: Curve, curve_b: Curve, spec_ab: MetricSpec) -> Curve:
    """Samples of W(t) = U_A(t) (x) U_B(t) as a curve on the product group.

    Requires exactly the same sample times.  Each factor's E_x(y) and unitaries() come from its spectrum
    (no eigensolve), W is their broadcast Kronecker product, and W_0 is charted as pauli_log does.
    The chart is followed as in a shot (_chart_curve): W re-anchors wherever an eigenphase nears pi.
    Working range: n = n_A + n_B <= 4 (DimensionLimit) and m 160 4^n bytes within MAX_BYTES
    (StepLimitExceeded), both checked before any allocation: m <= 419430, 104857, 26214 at n = 2..4.
    """
    if curve_a.mode != curve_b.mode or curve_a.mode != spec_ab.mode:
        raise DimensionMismatch("curves and product spec must share the basis mode")
    na, mode, m = curve_a.n, spec_ab.mode, len(curve_a.ts)
    n = na + curve_b.n
    d = basis_dimension(n, mode)
    # per sample, in D x D complex matrices, as in a shot's chart: W and V; hs, xs and ys (a half
    # each); and the stacked pass that reads y (H, V^+, Phi, the gaps and three products)
    check_bytes(m * 160 * 4**n, f"a product of {m} samples at n={n}")
    if not np.array_equal(curve_a.ts, curve_b.ts):
        raise DimensionMismatch("curves must be sampled at exactly the same times")
    hs = np.zeros((m, d))
    for c, offset in ((curve_a, 0), (curve_b, na)):  # +=: in U mode both identities land on I
        hs[:, _embed_indices(c.n, n, offset, mode)] += _Eigenbasis(*c.spectrum).apply_rows(c.ys, c.n, mode)
    A, B = curve_a.unitaries(), curve_b.unitaries()
    Ws = (A[:, :, None, :, None] * B[:, None, :, None, :]).reshape(m, 2**n, 2**n)
    row0 = _log_spectrum(Ws[0])  # W_0's chart, as pauli_log reads it
    return _chart_curve(spec_ab, curve_a.ts.copy(), hs, Ws, (_log_rows(*row0, n, mode)[0], *row0))


def additive_triple_check(spec_a: MetricSpec, spec_b: MetricSpec, spec_ab: MetricSpec) -> float:
    """Largest |F_AB^2(H_A + H_B) - (F_A^2(H_A) + F_B^2(H_B))| over 50 random samples.

    H_A acts on the first qubit and H_B on the second, with 50 standard normal
    draws (seed 20260822) of the pair.  Every string of a factor must weigh
    the same there as its embedding does in the product
    (metrics.penalty_vector); a mismatch raises InconsistentPenalties.  The
    three specs must share the basis mode, and it must be SU: in U mode both
    factors' identity strings embed onto the product's identity, so F_AB^2
    picks up a cross term and the check cannot pass; U mode raises
    UnsupportedSpec.
    """
    mode = spec_ab.mode
    if spec_a.mode != mode or spec_b.mode != mode:
        raise DimensionMismatch("factor and product specs must share the basis mode")
    if mode != SU:
        raise UnsupportedSpec("the additive triple check is SU mode only")
    p_ab = penalty_vector(spec_ab, 2)
    blocks = []
    for name, spec, offset in (("A", spec_a, 0), ("B", spec_b, 1)):
        idx = _embed_indices(1, 2, offset, mode)
        if np.any(np.abs(penalty_vector(spec, 1) - p_ab[idx]) > 1e-12):
            raise InconsistentPenalties(f"{name}/AB penalty mismatch at weight 1")
        blocks.append(idx)
    y = np.random.default_rng(20260822).standard_normal((50, 6))
    emb = np.zeros((50, 15))
    emb[:, np.concatenate(blocks)] = y  # SU mode: the two blocks are disjoint
    split = norms_batch(spec_a, y[:, :3]) ** 2 + norms_batch(spec_b, y[:, 3:]) ** 2
    gap = norms_batch(spec_ab, emb) ** 2 - split
    return float(np.abs(gap).max())
