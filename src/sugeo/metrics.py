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
Hessian applied to y is the momentum grad(F^2)/2.  The plain families
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
from typing import Optional

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
from .pauli import SU, U, PauliVector, qubits_of_dimension, weights_array

F1 = "F1"
F2 = "F2"
FP = "Fp"
FQ = "Fq"
F1DELTA = "F1Delta"
FPDELTA = "FpDelta"

FAMILIES = (F1, F2, FP, FQ, F1DELTA, FPDELTA)
SMOOTHED = (F1DELTA, FPDELTA)
NEEDS_PENALTY = (FP, FQ, FPDELTA)

_IMPLICIT_TOL = 1e-12
# Sweeps up to P*delta = 1 - 1e-6 needed at most 6 Newton evaluations.
_NEWTON_CAP = 50


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
                low_weight_cutoff=int(obj.get("low_weight_cutoff", 2)),
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


@lru_cache(maxsize=None)
def penalty_vector(spec: MetricSpec, n: int) -> np.ndarray:
    """p(wt sigma) over the basis in canonical order (ones for F1/F1Delta/F2).

    Cached per (spec, n) and returned read-only.
    """
    w = weights_array(n, spec.mode)
    if spec.family in (F1, F2, F1DELTA) or spec.penalty is None:
        p = np.ones(len(w))
    else:
        p = np.array([spec.penalty.weight_value(int(j)) for j in w])
    p.setflags(write=False)
    return p


def _entries(spec: MetricSpec, y) -> np.ndarray:
    if isinstance(y, PauliVector):
        if y.mode != spec.mode:
            raise DimensionMismatch(f"vector mode {y.mode} vs spec mode {spec.mode}")
        return y.entries
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise NonFiniteInput("vector has NaN or infinite entries")
    return y


# ---------------------------------------------------------------------------
# norm evaluation


def _no_overflow(out: np.ndarray, what: str = "norm") -> np.ndarray:
    """Pass an array of finite values through; one that overflowed raises."""
    if not np.isfinite(out).all():
        raise NonFiniteInput(f"the {what} overflows the float range")
    return out


def norm(spec: MetricSpec, y) -> float:
    """F(y) for any family: norms_batch on a batch of one."""
    return float(norms_batch(spec, _entries(spec, y)[None, :])[0])


def _plain_norms(spec: MetricSpec, p: np.ndarray, v: np.ndarray):
    """F1/Fp/F2/Fq of each row of a matrix, as computed directly (a row sum per row)."""
    if spec.family in (F1, FP):
        return (p * np.abs(v)).sum(axis=-1)
    return np.sqrt((p * v**2).sum(axis=-1))


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
    p = penalty_vector(spec, qubits_of_dimension(rows.shape[1], spec.mode))
    P = float(np.sum(p))
    delta = spec.delta
    if P * delta >= 1.0:
        raise DeltaTooLarge(f"P*delta = {P * delta:.4g} >= 1 (P={P}, delta={delta})")
    a = np.abs(rows)
    scale = a.max(axis=1)
    out = np.zeros(len(rows))
    live = np.flatnonzero(scale > 0.0)
    a = a[live] / scale[live, None]
    n_p = (p * a).sum(axis=1)
    a /= n_p[:, None]
    s = np.full(len(live), math.sqrt(1.0 - (P * delta) ** 2))
    for _ in range(_NEWTON_CAP):
        u = a * s[:, None]
        root = np.sqrt(delta**2 + u**2)
        excess = (p * root).sum(axis=1) - 1.0
        miss = np.abs(excess) >= _IMPLICIT_TOL
        if not miss.any():
            with np.errstate(over="ignore"):  # an overflow is _no_overflow's to report
                out[live] = scale[live] * n_p / s
            return out
        s *= np.where(miss, 1.0 - excess / (p * u**2 / root).sum(axis=1), 1.0)
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
    p = penalty_vector(spec, qubits_of_dimension(v.shape[-1], spec.mode))
    N = _implicit_norms(spec, v.reshape(-1, len(p))).reshape(*v.shape[:-1], 1)
    if not 0.0 < N.min() <= N.max() < math.inf:
        _no_overflow(N)  # an infinite norm raises NonFiniteInput; otherwise a row is 0
        raise ZeroVector("F^2 has no derivative at y = 0")
    return p, N, v / N


def grad_f_squared(spec: MetricSpec, y) -> np.ndarray:
    """Analytic gradient of F^2 at a vector, or at each row of an (m, dim) array."""
    if spec.family in (F1, FP):
        raise NotSmoothMetric(f"{spec.family} has no smooth gradient")
    v = _entries(spec, y)
    with np.errstate(over="ignore"):  # an overflow is _no_overflow's to report
        if spec.family in (F2, FQ):
            grad = 2.0 * penalty_vector(spec, qubits_of_dimension(v.shape[-1], spec.mode)) * v
        else:
            p, N, u = _solved_point(spec, v)
            gamma = p * u / np.sqrt(spec.delta**2 + u**2)
            # grad N = gamma / (gamma . u), so grad N^2 = 2 N gamma / (gamma . u)
            grad = 2.0 * N * gamma / (gamma[..., None, :] @ u[..., None])[..., 0]
    return _no_overflow(grad, "gradient of F^2")


def hessian(spec: MetricSpec, y) -> np.ndarray:
    """H = (1/2) d^2(F^2)/dy dy at a vector, or at each row of an (m, dim) array.

    Strictly positive definite for the smooth specs.  F2 -> identity;
    Fq -> diag(q).  For the smoothed families, writing u = y/N,
    gamma_j = p_j u_j / sqrt(delta^2 + u_j^2) and
    Gamma_jj = p_j delta^2 / (delta^2 + u_j^2)^(3/2):

        N_{,l}  = gamma_l / D                      with D = sum_j gamma_j u_j
        N N_{,lk} = Gamma_ll delta_lk / D
                  - (Gu_l gamma_k + gamma_l Gu_k) / D^2
                  + gamma_l gamma_k S2 / D^3       with Gu = Gamma*u,
                                                        S2 = sum Gamma_jj u_j^2
        H_{lk}  = N N_{,lk} + N_{,l} N_{,k}

    H is homogeneous of degree 0, and every term above depends on u alone,
    so no finite y overflows it.  H y = grad(F^2)/2 (Euler's theorem).
    """
    if spec.family in (F1, FP):
        raise NotSmoothMetric(f"{spec.family} is not twice differentiable off the axes")
    v = _entries(spec, y)
    if spec.family in (F2, FQ):
        if not np.any(v, axis=-1).all():
            raise ZeroVector("hessian requested at y = 0")
        p = penalty_vector(spec, qubits_of_dimension(v.shape[-1], spec.mode))
        return np.broadcast_to(np.diag(p), v.shape + p.shape).copy()
    p, _, u = _solved_point(spec, v)
    root = np.sqrt(spec.delta**2 + u**2)
    gamma = p * u / root
    Gamma = p * spec.delta**2 / root**3
    col, row = gamma[..., :, None], gamma[..., None, :]
    Gu = (Gamma * u)[..., :, None]
    D = row @ u[..., None]
    S2 = Gamma[..., None, :] @ (u**2)[..., None]
    H = Gamma[..., :, None] * np.eye(len(p)) / D
    H -= (Gu * row + col * Gu.swapaxes(-1, -2)) / D**2
    H += col * row * (S2 + D) / D**3
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
    v = _entries(spec, y)
    F2sq = norm(spec, v) ** 2
    r1 = abs(float(grad_f_squared(spec, v) @ v) - 2.0 * F2sq)
    h = 1e-4 * float(np.linalg.norm(v))
    step = h * np.eye(len(v))
    H = hessian(spec, np.vstack([v, v + step, v - step]))
    r2 = abs(2.0 * float(v @ H[0] @ v) - 2.0 * F2sq)
    dH = (H[1 : len(v) + 1] - H[len(v) + 1 :]) / h  # dH[l] = 2 dH/dy_l
    r3 = float(np.max(np.abs(v @ dH)))
    return r1, r2, r3


def metric_equivalence_constants(spec_a: MetricSpec, spec_b: MetricSpec, samples) -> tuple:
    """Empirical (min, max) of norm_b/norm_a over sample vectors.

    `samples` is an array of shape (m, dim) of nonzero vectors; both specs
    must share the basis mode.
    """
    if spec_a.mode != spec_b.mode:
        raise DimensionMismatch("specs on different basis modes")
    a = norms_batch(spec_a, samples)
    if not a.all():
        raise ZeroVector("sample with zero norm")
    ratios = norms_batch(spec_b, samples) / a
    return float(np.min(ratios)), float(np.max(ratios))
