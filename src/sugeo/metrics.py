"""Norms on the Pauli coefficient space defining right-invariant metrics.

Families:

  F1      sum of |y^sigma|                      (taxicab; not smooth)
  F2      sqrt of sum of (y^sigma)^2            (Euclidean / bi-invariant)
  Fp      weighted taxicab, weights p(wt sigma) (not smooth)
  Fq      weighted Euclidean, weights q(wt sigma)
  F1Delta smoothed F1 via the implicit indicatrix construction
  FpDelta smoothed Fp, likewise

The smoothed families use g(y) = sum_sigma p_sigma sqrt(Delta^2 + y_sigma^2)
and define N(y) as the unique positive solution of g(y/N) = 1.  That N is a
strongly convex Minkowski norm provided Delta < 1/P with P = sum_sigma
p_sigma, and satisfies the sandwich N_p(y) <= N(y) <= N_p(y)/(1 - P*Delta)
where N_p is the exact weighted taxicab norm.  One Newton loop solves for
N (see _implicit_norms).

Every family has one implementation of each operation, and it works on
stacks: norms_batch on the rows of an (m, dim) array, grad_f_squared and
hessian on a vector or on each row of a stack.  A single vector is a
batch of one (norm is norms_batch on one row), so a row gives the same
bits alone or in a batch.  grad_f_squared and hessian share one implicit
solve per call, and by Euler's theorem for the 2-homogeneous F^2/2 the
Hessian applied to y is the momentum grad(F^2)/2.  A smoothed Hessian is
diagonal plus rank 2; hessian_parts holds that form, and its solve and
eigenvalue methods cost O(d) where the dense matrix costs O(d^2) to build
and O(d^3) to factor.  The plain families
rescale by max|y_j| only when the direct sum under- or overflows.
Non-finite coefficients, and finite ones whose norm overflows, raise
NonFiniteInput in every family.

Note F2 here is a genuine norm (square root included).  Expressions like
tr(H^2)/2^n elsewhere are its square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    DeltaTooLarge,
    DimensionMismatch,
    NoConvergence,
    NonFiniteInput,
    NotSmoothMetric,
    UnsupportedSpec,
    ZeroVector,
)
from .pauli import SU, U, entries_of, json_int, qubits_of_dimension, weights_array

F1 = "F1"
F2 = "F2"
FP = "Fp"
FQ = "Fq"
F1DELTA = "F1Delta"
FPDELTA = "FpDelta"

FAMILIES = (F1, F2, FP, FQ, F1DELTA, FPDELTA)
SMOOTHED = (F1DELTA, FPDELTA)
EUCLIDEAN = (F2, FQ)  # sqrt(sum p y^2); the others are taxicab, sum p |y|, or its smoothing
NEEDS_PENALTY = (FP, FQ, FPDELTA)

_IMPLICIT_TOL = 1e-12
# Sweeps up to P*delta = 1 - 1e-6 needed at most 6 Newton evaluations.
_NEWTON_CAP = 50
# Safeguarded Newton for the Hessian's smallest eigenvalue (HessianParts.min_eig).
_EIG_CAP = 100


@dataclass(frozen=True)
class PenaltyFunction:
    """Weight-dependent penalty p(j) >= 1.

    kind "step": p(j) = 1 for j <= low_weight_cutoff, else k.
    kind "table": p(j) = values[j], explicit per weight 0..n.
    """

    kind: str = "step"
    k: float = 1.0
    low_weight_cutoff: int = 2
    values: Optional[tuple] = None

    def __post_init__(self):
        if self.kind == "step":
            if not math.isfinite(self.k):
                raise NonFiniteInput(f"step penalty k={self.k} is not finite")
            if self.k < 1.0:
                raise ValueError(f"step penalty k={self.k} < 1")
        elif self.kind == "table":
            if self.values and not all(math.isfinite(v) for v in self.values):
                raise NonFiniteInput(f"table penalty values {self.values} are not all finite")
            if not self.values or any(v < 1.0 for v in self.values):
                raise ValueError("table penalty needs values, all >= 1")
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        else:
            raise ValueError(f"unknown penalty kind {self.kind!r}")

    def weight_value(self, j: int) -> float:
        if self.kind == "step":
            return 1.0 if j <= self.low_weight_cutoff else float(self.k)
        if j >= len(self.values):
            raise DimensionMismatch(
                f"table penalty has {len(self.values)} entries, weight {j} requested"
            )
        return self.values[j]

    def to_json(self) -> dict:
        if self.kind == "step":
            out = {"kind": "step", "k": float(self.k)}
            if self.low_weight_cutoff != 2:
                out["low_weight_cutoff"] = self.low_weight_cutoff
            return out
        return {"kind": "table", "values": list(self.values)}

    @classmethod
    def from_json(cls, obj: dict) -> "PenaltyFunction":
        if obj["kind"] == "step":
            return cls(
                kind="step",
                k=float(obj["k"]),
                low_weight_cutoff=json_int(obj.get("low_weight_cutoff", 2), "low_weight_cutoff"),
            )
        return cls(kind="table", values=tuple(obj["values"]))


@dataclass(frozen=True)
class MetricSpec:
    """One metric family plus its parameters."""

    family: str
    penalty: Optional[PenaltyFunction] = None
    delta: Optional[float] = None
    mode: str = SU

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedSpec(f"unknown metric family {self.family!r}")
        if self.mode not in (U, SU):
            raise UnsupportedSpec(f"mode must be {U!r} or {SU!r}, got {self.mode!r}")
        if self.family in NEEDS_PENALTY and self.penalty is None:
            raise UnsupportedSpec(f"{self.family} requires a penalty function")
        if self.delta is not None and not math.isfinite(self.delta):
            raise NonFiniteInput(f"delta={self.delta} is not finite")
        if self.family in SMOOTHED:
            if self.delta is None or self.delta <= 0:
                raise UnsupportedSpec(f"{self.family} requires delta > 0")

    def to_json(self) -> dict:
        out = {"family": self.family, "mode": self.mode}
        if self.penalty is not None:
            out["penalty"] = self.penalty.to_json()
        if self.delta is not None:
            out["delta"] = float(self.delta)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "MetricSpec":
        penalty = None
        if "penalty" in obj and obj["penalty"] is not None:
            penalty = PenaltyFunction.from_json(obj["penalty"])
        delta = obj.get("delta")
        return cls(
            family=obj["family"],
            penalty=penalty,
            delta=None if delta is None else float(delta),
            mode=obj.get("mode", SU),
        )


# ---------------------------------------------------------------------------
# penalty vectors over the basis


@lru_cache(maxsize=256)
def penalty_vector(spec: MetricSpec, n: int) -> np.ndarray:
    """p(wt sigma) over the basis in canonical order (ones for F1/F1Delta/F2).

    Cached per (spec, n) and returned read-only.
    """
    w = weights_array(n, spec.mode)
    if spec.family not in NEEDS_PENALTY:
        p = np.ones(len(w))
    else:
        p = np.array([spec.penalty.weight_value(int(j)) for j in w])
    p.setflags(write=False)
    return p


# ---------------------------------------------------------------------------
# norm evaluation


def _no_overflow(out: np.ndarray, what: str = "norm") -> np.ndarray:
    """Pass an array of finite values through; one that overflowed raises."""
    if not np.isfinite(out).all():
        raise NonFiniteInput(f"the {what} overflows the float range")
    return out


def norm(spec: MetricSpec, y) -> float:
    """F(y) for any family: norms_batch on a batch of one."""
    return float(norms_batch(spec, entries_of(y, spec.mode)[None, :])[0])


def _plain_norms(spec: MetricSpec, p: np.ndarray, v: np.ndarray):
    """F1/Fp/F2/Fq of each row of a matrix, as computed directly (a row sum per row)."""
    if spec.family in EUCLIDEAN:
        return np.sqrt((p * v**2).sum(axis=-1))
    return (p * np.abs(v)).sum(axis=-1)


def _rescaled_norms(spec: MetricSpec, p: np.ndarray, v: np.ndarray):
    """_plain_norms of rows scaled to max|y_j| = 1, for sums that under- or overflowed."""
    scale = np.abs(v).max(axis=-1, keepdims=True)
    scale[scale == 0.0] = 1.0
    return scale[..., 0] * _plain_norms(spec, p, v / scale)


def implicit_norm(spec: MetricSpec, y) -> float:
    """The smoothed norm N(y) of one vector: the implicit solver on a batch of one."""
    if spec.family not in SMOOTHED:
        raise UnsupportedSpec(f"implicit_norm is for {SMOOTHED}, not {spec.family}")
    return norm(spec, y)


@lru_cache(maxsize=256)
def _implicit_plan(spec: MetricSpec, dim: int) -> tuple:
    """(p, P = sum p, delta^2) of a smoothed spec on dim coefficients, cached per (spec, dim)."""
    p = penalty_vector(spec, qubits_of_dimension(dim, spec.mode))
    return p, float(np.sum(p)), spec.delta**2


def _implicit_norms(spec: MetricSpec, rows: np.ndarray) -> np.ndarray:
    """Solve g(y/N) = 1 for N on each finite row y, g(u) = sum p_j sqrt(delta^2 + u_j^2).

    Newton runs on s = 1/N.  g(s y) is convex and increasing in s, and by
    Minkowski's inequality g(s y) >= sqrt((P delta)^2 + (s N_p(y))^2), with
    N_p the weighted taxicab norm.  So Newton started at
    s = sqrt(1 - (P delta)^2) / N_p is at or above the root and decreases
    monotonically to it: no bracket is needed, and N_p < N holds exactly.
    The loop works on u = s y, with y rescaled first to max|y_j| = 1, and
    updates s <- s (1 - (g - 1) / sum_j p_j u_j^2 / sqrt(delta^2 + u_j^2)),
    which neither overflows nor underflows.  A converged row is left alone,
    so each row gets the same result as a batch of one.  Raises NoConvergence
    if a row still has |g - 1| >= 1e-12 after _NEWTON_CAP steps.
    """
    p, P, delta2 = _implicit_plan(spec, rows.shape[1])
    delta = spec.delta
    if P * delta >= 1.0:
        raise DeltaTooLarge(f"P*delta = {P * delta:.4g} >= 1 (P={P}, delta={delta})")
    a = np.abs(rows)
    scale = a.max(axis=1, keepdims=True)
    live = scale[:, 0] > 0.0
    out = np.zeros(len(rows))
    if not live.all():
        a, scale = a[live], scale[live]
    a /= scale
    n_p = (p * a).sum(axis=1, keepdims=True)
    a /= n_p
    s = np.full(n_p.shape, math.sqrt(1.0 - (P * delta) ** 2))
    for _ in range(_NEWTON_CAP):
        u2 = (a * s) ** 2
        root = np.sqrt(u2 + delta2)
        excess = (p * root).sum(axis=1, keepdims=True) - 1.0
        miss = np.abs(excess) >= _IMPLICIT_TOL
        if not miss.any():
            with np.errstate(over="ignore"):  # an overflow is _no_overflow's to report
                out[live] = (scale * n_p / s)[:, 0]
            return out
        step = excess / (p * u2 / root).sum(axis=1, keepdims=True)
        s = np.where(miss, s * (1.0 - step), s)
    raise NoConvergence(
        f"implicit norm: {int(miss.sum())} of {len(rows)} rows missed |g - 1| < "
        f"{_IMPLICIT_TOL:g} after {_NEWTON_CAP} Newton steps"
    )


def norms_batch(spec: MetricSpec, rows: np.ndarray) -> np.ndarray:
    """norm() over the rows of an (m, dim) array in one vectorized pass.

    Each row gives exactly what norm() gives for it: the smoothed families
    run the same Newton loop on all rows at once.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if not np.isfinite(rows).all():
        raise NonFiniteInput("rows have NaN or infinite entries")
    if spec.family in SMOOTHED:
        return _no_overflow(_implicit_norms(spec, rows))
    p = penalty_vector(spec, qubits_of_dimension(rows.shape[1], spec.mode))
    # a direct sum that under- or overflows is redone rescaled, and a norm
    # that overflows even then is _no_overflow's to report: no warnings
    with np.errstate(over="ignore", under="ignore"):
        out = _plain_norms(spec, p, rows)
        redo = (out == 0.0) | ~np.isfinite(out)
        if redo.any():
            out[redo] = _rescaled_norms(spec, p, rows[redo])
    return _no_overflow(out)


def _solved_point(spec: MetricSpec, v: np.ndarray) -> tuple:
    """(p, N, u = v/N) of a smoothed spec at a vector or at each row of a stack.

    N has shape v.shape[:-1] + (1,); this is the one implicit solve behind
    grad_f_squared and hessian.  Raises ZeroVector if a row is 0.
    """
    p = _implicit_plan(spec, v.shape[-1])[0]
    N = _implicit_norms(spec, v.reshape(-1, len(p)))
    if not 0.0 < np.minimum.reduce(N) <= np.maximum.reduce(N) < math.inf:
        _no_overflow(N)  # an infinite norm raises NonFiniteInput; otherwise a row is 0
        raise ZeroVector("F^2 has no derivative at y = 0")
    N = N.reshape(*v.shape[:-1], 1)
    return p, N, v / N


def grad_f_squared(spec: MetricSpec, y) -> np.ndarray:
    """Analytic gradient of F^2 at a vector, or at each row of an (m, dim) array."""
    if spec.family in (F1, FP):
        raise NotSmoothMetric(f"{spec.family} has no smooth gradient")
    v = entries_of(y, spec.mode)
    with np.errstate(over="ignore"):  # an overflow is _no_overflow's to report
        if spec.family in EUCLIDEAN:
            grad = 2.0 * penalty_vector(spec, qubits_of_dimension(v.shape[-1], spec.mode)) * v
        else:
            p, N, u = _solved_point(spec, v)
            gamma = p * u / np.sqrt(spec.delta**2 + u**2)
            # grad N = gamma / (gamma . u), so grad N^2 = 2 N gamma / (gamma . u)
            grad = 2.0 * N * gamma / (gamma[..., None, :] @ u[..., None])[..., 0]
    return _no_overflow(grad, "gradient of F^2")


def _positive_eigenvalues(a: float, b: float, c: float) -> int:
    """How many eigenvalues of [[a, b], [b, c]] are positive."""
    det = a * c - b * b
    if det < 0.0:
        return 1
    return 2 * (a + c > 0.0) if det > 0.0 else int(a + c > 0.0)


class HessianParts(NamedTuple):
    """H = diag(lam) + U C U^T, a smoothed norm's Hessian at a vector or at each row of a stack.

    N is the norm (shape (..., 1)) and D = gamma . u (shape (..., 1)), so the
    momentum grad(F^2)/2 = H y is N gamma / D with gamma = U[..., 0]; lam has
    shape (..., d), U (..., d, 2) and Cinv = C^-1 (..., 2, 2).  The methods
    work on a single vector and cost O(d) each:

    solve(r)        H^-1 r by Woodbury, with the 2 x 2 capacitance
                    K = C^-1 + U^T diag(lam)^-1 U;
    count_below(x)  #{eigenvalues of H < x} = #{j : lam_j < x} + #{positive
                    eigenvalues of M(x)} - 1, M(x) = C^-1 + U^T (diag(lam) - x)^-1 U
                    (Haynsworth inertia additivity; C^-1 has one positive and
                    one negative eigenvalue); at a pole x = lam_j, the limit
                    of M from below;
    min_eig(bound)  the smallest eigenvalue of H if it is below bound, else
                    bound.  It lies in (0, lam_(2)], and at most one eigenvalue
                    lies below lam_(1) (interlacing).  On a pole-free interval
                    the eigenvalues of M rise with x (dM/dx = U^T (diag(lam) - x)^-2 U
                    is PSD); the one that crosses 0 there is found by safeguarded
                    Newton: the lower one below lam_(1), the upper one above.
    """

    N: np.ndarray
    D: np.ndarray
    lam: np.ndarray
    U: np.ndarray
    Cinv: np.ndarray

    def solve(self, r: np.ndarray) -> np.ndarray:
        (a, b, c), W = self._secular(self.lam)  # the capacitance is M(0)
        z = r / self.lam
        t0, t1 = (z @ self.U).tolist()
        det = a * c - b * b
        return z - W @ np.array([(c * t0 - b * t1) / det, (a * t1 - b * t0) / det])

    def _secular(self, z: np.ndarray) -> tuple:
        """((a, b, c), W) with M(x) = [[a, b], [b, c]] and W = (diag(lam) - x)^-1 U, z = lam - x."""
        W = self.U / z[:, None]
        (a, b), (_, c) = (self.Cinv + self.U.T @ W).tolist()
        return (a, b, c), W

    def count_below(self, x: float) -> int:
        z = self.lam - x
        if z.all():
            (a, b, c), _ = self._secular(z)
            positive = _positive_eigenvalues(a, b, c)
        else:
            positive = self._pole(z)[0]
        return int(np.count_nonzero(z < 0.0)) + positive - 1

    def _pole(self, z: np.ndarray) -> tuple:
        """At a pole x (z = lam - x has zeros): (the positive eigenvalues of M as the
        limit from below, the number of eigenvalues of H at x itself).

        Near x, M = B + t V^T V, V the rows of U at lam_j = x, B regular, t -> +inf:
        V of rank 2 sends both eigenvalues up, rank 1 one of them while the other
        tends to e.B e, e normal to V; rank 0 (all rows vanish) is no pole.  Each
        missing rank, and a limit e.B e = 0, leaves an eigenvalue of H at x.
        """
        at = z == 0.0
        rest = ~at
        V = self.U[at]
        (a, b), (_, c) = (self.Cinv + self.U[rest].T @ (self.U[rest] / z[rest, None])).tolist()
        (g0, g1), (_, g2) = (V.T @ V).tolist()
        if g0 * g2 - g1 * g1 > 1e-12 * (g0 + g2) ** 2:
            return 2, len(V) - 2
        if g0 + g2 > 0.0:
            e0, e1 = (-g1, g0) if g0 >= g2 else (-g2, g1)
            limit = a * e0 * e0 + 2 * b * e0 * e1 + c * e1 * e1
            return 1 + (limit > 0.0), len(V) - 1 + (limit == 0.0)
        return _positive_eigenvalues(a, b, c), len(V)

    def _branch(self, x: float, upper: bool) -> tuple:
        """The upper or lower eigenvalue of M(x) and its derivative in x."""
        (a, b, c), W = self._secular(self.lam - x)
        mean, radius, det = 0.5 * (a + c), math.hypot(0.5 * (a - c), b), a * c - b * b
        if upper:  # det / (mean - radius) avoids the cancellation in mean + radius < 0
            mu = mean + radius if mean >= 0.0 else det / (mean - radius)
        else:
            mu = mean - radius if mean <= 0.0 else det / (mean + radius)
        # unit eigenvector (v0, v1) of mu, and mu' = v^T U^T (diag(lam) - x)^-2 U v
        v0, v1 = (b, mu - a) if abs(mu - a) >= abs(mu - c) else (mu - c, b)
        scale = math.hypot(v0, v1)
        if scale == 0.0:  # M(x) is a multiple of the identity
            v0, v1, scale = 1.0, 0.0, 1.0
        w = W @ np.array([v0 / scale, v1 / scale])
        return mu, float(w @ w)

    def min_eig(self, bound: float = math.inf) -> float:
        if bound < math.inf and self.count_below(bound) == 0:
            return bound
        first, second = np.partition(self.lam, 1)[:2].tolist()
        # lam > 0, so no eigenvalue is below -||U C U^T|| >= -||C||_F ||U||_F^2
        # (a rounded H may not be positive definite)
        (a, b), (_, c) = self.Cinv.tolist()
        lo = -2.0 * math.hypot(a, b, b, c) / abs(a * c - b * b) * float(np.sum(self.U**2))
        hi, upper = min(bound, first), False
        if bound >= first:  # which side of the pole lam_(1) is the eigenvalue on?
            positive, at = self._pole(self.lam - first)
            if positive < 2:  # none below lam_(1)
                if at:  # lam_(1) is one
                    return first
                lo, hi, upper = first, min(bound, second), True
        # Newton from hi, unless hi is a pole
        x = hi if first != hi < second else 0.5 * (max(lo, 0.0) + hi)
        if x in (first, second):  # lam_(1) and lam_(2) are adjacent floats, and it lies between
            return x
        last = before = hi - lo
        for _ in range(_EIG_CAP):
            mu, slope = self._branch(x, upper)
            if mu == 0.0:
                return x
            lo, hi = (x, hi) if mu < 0.0 else (lo, x)
            step = mu / slope if slope > 0.0 else math.inf
            if abs(step) <= 1e-12 * abs(x):  # Newton converges quadratically: done
                return x - step
            # bisect where Newton leaves the bracket or halves no step (an inflection)
            if not lo < x - step < hi or abs(step) > 0.5 * abs(before):
                step = x - 0.5 * (lo + hi)
            before, last = last, step
            x -= step
            if hi - lo <= 4e-16 * abs(x):
                break
        return x


def hessian_parts(spec: MetricSpec, y) -> HessianParts:
    """The Hessian of a smoothed norm as diag + rank 2, at a vector or at each row of a stack.

    One implicit norm solve.  Writing u = y/N,
    gamma_j = p_j u_j / sqrt(delta^2 + u_j^2),
    Gamma_j = p_j delta^2 / (delta^2 + u_j^2)^(3/2), D = sum_j gamma_j u_j and
    S2 = sum_j Gamma_j u_j^2:

        N_{,l}  = gamma_l / D
        N N_{,lk} = Gamma_l delta_lk / D - (Gamma_l u_l gamma_k + gamma_l Gamma_k u_k) / D^2
                  + gamma_l gamma_k S2 / D^3
        H_{lk}  = N N_{,lk} + N_{,l} N_{,k}

    that is H = diag(lam) + U C U^T with lam = Gamma / D, U = [gamma, Gamma u]
    and C = [[(S2 + D) / D^3, -1 / D^2], [-1 / D^2, 0]], whose inverse is
    C^-1 = [[0, -D^2], [-D^2, -(S2 + D) D]].  Every part depends on u alone,
    so no finite y overflows them.
    """
    if spec.family not in SMOOTHED:
        raise UnsupportedSpec(f"hessian_parts is for {SMOOTHED}, not {spec.family}")
    p, N, u = _solved_point(spec, entries_of(y, spec.mode))
    U = np.empty(u.shape + (2,))
    gamma, Gu = U[..., 0], U[..., 1]
    u2 = u * u
    root2 = u2 + spec.delta**2
    root = np.sqrt(root2)
    np.divide(p * u, root, out=gamma)
    Gamma = p * spec.delta**2 / (root * root2)
    np.multiply(Gamma, u, out=Gu)
    D = np.add.reduce(gamma * u, axis=-1)
    S2 = np.add.reduce(Gu * u, axis=-1)
    Cinv = np.zeros(u.shape[:-1] + (2, 2))
    Cinv[..., 0, 1] = Cinv[..., 1, 0] = -D * D
    Cinv[..., 1, 1] = -(S2 + D) * D
    D = D[..., None]
    return HessianParts(N, D, Gamma / D, U, Cinv)


def hessian(spec: MetricSpec, y) -> np.ndarray:
    """H = (1/2) d^2(F^2)/dy dy at a vector, or at each row of an (m, dim) array.

    Strictly positive definite for the smooth specs.  F2 -> identity;
    Fq -> diag(q).  For the smoothed families H is diagonal plus rank 2,

        H = diag(Gamma / D) + U C U^T,   U = [gamma, Gamma u],
        C = [[(S2 + D) / D^3, -1 / D^2], [-1 / D^2, 0]],

    (notation and derivation in hessian_parts, which holds the formula);
    this assembles the dense matrix from those parts.  H is homogeneous of
    degree 0, and H y = grad(F^2)/2 (Euler's theorem).
    """
    if spec.family in (F1, FP):
        raise NotSmoothMetric(f"{spec.family} is not twice differentiable off the axes")
    v = entries_of(y, spec.mode)
    if spec.family in EUCLIDEAN:
        if not np.any(v, axis=-1).all():
            raise ZeroVector("hessian requested at y = 0")
        p = penalty_vector(spec, qubits_of_dimension(v.shape[-1], spec.mode))
        return np.broadcast_to(np.diag(p), v.shape + p.shape).copy()
    parts = hessian_parts(spec, v)
    C = np.linalg.inv(parts.Cinv)
    H = parts.lam[..., :, None] * np.eye(v.shape[-1])
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):  # elementwise, so a row is the same alone or stacked
        H += C[..., i, j, None, None] * parts.U[..., :, i, None] * parts.U[..., None, :, j]
    return H


# ---------------------------------------------------------------------------
# Euler homogeneity diagnostics


def euler_identities_check(spec: MetricSpec, y) -> tuple:
    """Residuals of the three Euler identities for the 2-homogeneous F^2.

    r1 = |grad(F^2) . y - 2 F^2|            (analytic gradient)
    r2 = |y^T d^2(F^2) y - 2 F^2|           (analytic Hessian, d^2 = 2H)
    r3 = max_{k,l} |sum_j d^3_{jkl}(F^2) y_j|  (third derivative by central
         finite differences of H, step 1e-4 * |y|)

    All three vanish for a positively homogeneous norm; residuals materially
    above the finite-difference floor indicate a broken Hessian or solver.
    """
    v = entries_of(y, spec.mode)
    F2sq = norm(spec, v) ** 2
    r1 = abs(float(grad_f_squared(spec, v) @ v) - 2.0 * F2sq)
    h = 1e-4 * float(np.linalg.norm(v))
    step = h * np.eye(len(v))
    H = hessian(spec, np.vstack([v, v + step, v - step]))
    r2 = abs(2.0 * float(v @ H[0] @ v) - 2.0 * F2sq)
    dH = (H[1 : len(v) + 1] - H[len(v) + 1 :]) / h  # dH[l] = 2 dH/dy_l
    r3 = float(np.max(np.abs(v @ dH)))
    return r1, r2, r3
