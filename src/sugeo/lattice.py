"""Diagonal unitaries, the 2*pi phase lattice, and minimal Pauli geodesics.

A diagonal unitary U = sum_z e^{-i theta_z} |z><z| is reached by the
diagonal Hamiltonians diag(theta) + 2*pi*diag(m), m integer.  Each such
Hamiltonian generates a Pauli geodesic (diagonal Z-type strings commute),
so the minimal Pauli geodesic length through U is the closest-vector
problem

    min_m F(diag(h) - 2*pi*diag(m))

over the integer lattice, with h the phases reduced to (-pi, pi].  The
Pauli coefficients of a diagonal vector v are its scaled Walsh-Hadamard
transform (W v)/2^n, where W[s, z] = (-1)^{popcount(s & z)}; bit s marks
the Z positions (leftmost letter = most significant bit).

The CVP is solved exactly by a Schnorr-Euchner sphere decoder (Fincke &
Pohst 1985; Agrell, Eriksson, Vardy & Zeger, IEEE Trans. IT 48, 2002): a
depth-first search over integer m, pruned by the quadratic lower bound
F(v) >= sqrt(Q(v)), Q(v) = sum_s c_s y_s^2 with y = W v / 2^n.  For the
quadratic families c_s = w_s and the bound is F itself; for the taxicab
families c_s = w_s^2, since a weighted l1 norm dominates the weighted l2
norm.  In SU mode the identity weight is 0, and the search runs over the
first 2^n - 1 coordinates with the last fixed by sum(m) = sum(h)/2pi.
Every leaf that survives the bound is scored with the exact F.  The
search starts from the zero shift, so the result is never worse than it,
and stops after a fixed node budget: a finished search is exact
(certified=True); one that runs out returns its best point uncertified.
`window_used` is max|m_z| of the returned minimizer; `stats` counts nodes
and leaves.  To keep the fixed cost of a solve small, all that depends on
(spec, n) is one cached plan; leaves are scored in Python floats from
y = W h/2^n, less m_z times the scaled Walsh row z per nonzero m_z; and the
result keeps the diagonal h - 2*pi*m, building the Hamiltonian when read.

The smoothed families are evaluated through their Delta -> 0 limits (F1Delta
as F1, FpDelta as Fp): the objective needs no smoothness and the limit is
the quantity of interest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULT_N_CAP, env_n_cap
from .errors import (
    DimensionLimit,
    DimensionMismatch,
    NonFiniteInput,
    NonTracelessInSUMode,
    UnsupportedSpec,
    WindowTooSmall,
)
from .metrics import F1, F1DELTA, F2, FP, FPDELTA, FQ, MetricSpec
from .pauli import SU, U, PauliVector, HermitianOperator, basis_dimension, string_index


@dataclass
class DiagonalUnitary:
    """U = sum_z exp(-i theta_z) |z><z|; phases in radians, length 2^n."""

    n: int
    phases: np.ndarray

    def __post_init__(self):
        self.phases = np.asarray(self.phases, dtype=float)
        if self.phases.shape != (2**self.n,):
            raise DimensionMismatch(f"expected {2**self.n} phases")
        if not np.all(np.isfinite(self.phases)):
            raise NonFiniteInput("phases must be finite")

    def to_json(self) -> dict:
        return {"n": self.n, "theta": [float(t) for t in self.phases]}

    @classmethod
    def from_json(cls, obj: dict) -> "DiagonalUnitary":
        return cls(int(obj["n"]), np.array(obj["theta"], dtype=float))


@dataclass
class PhaseLattice:
    """The lattice 2*pi * diag(m); SU mode restricts to trace zero."""

    mode: str
    n: int

    def basis_matrix(self) -> np.ndarray:
        """Columns = Pauli coefficients of the U-mode basis 2*pi |z><z|."""
        return 2 * np.pi * _walsh(2**self.n) / 2**self.n

    def log_det(self) -> float:
        d = 2**self.n
        return d * (math.log(2 * np.pi) - 0.5 * self.n * math.log(2.0))


@dataclass
class CvpResult:
    minimizer: np.ndarray
    value: float
    certified: bool
    window_used: int
    diagonal: np.ndarray  # h - 2*pi*m, mean removed in SU mode
    stats: dict  # nodes visited, leaves scored, node budget

    @property
    def geodesic_hamiltonian(self) -> HermitianOperator:
        n = len(self.diagonal).bit_length() - 1
        return HermitianOperator(n, np.diag(self.diagonal.astype(complex)))


def reduce_phases(theta: np.ndarray) -> np.ndarray:
    """Shift each phase by a multiple of 2*pi into (-pi, pi]."""
    theta = np.asarray(theta, dtype=float)
    return np.pi - np.mod(np.pi - theta, 2 * np.pi)


@lru_cache(maxsize=None)
def _z_index_map(n: int) -> np.ndarray:
    """Basis index of the Z-type string whose Z positions are the bits of s."""
    idx = string_index(n, U)
    labels = (format(s, f"0{n}b").replace("0", "I").replace("1", "Z") for s in range(2**n))
    return np.array([idx[label] for label in labels])


@lru_cache(maxsize=None)
def _walsh(dim: int) -> np.ndarray:
    """W[s, z] = (-1)^{popcount(s & z)} as a read-only float matrix (Sylvester doubling)."""
    W = np.ones((1, 1))
    while len(W) < dim:
        W = np.block([[W, W], [W, -W]])
    W.flags.writeable = False
    return W


def diagonal_to_pauli(h: np.ndarray) -> PauliVector:
    """U-mode Pauli coefficients of diag(h): the Walsh-Hadamard transform /2^n."""
    h = np.asarray(h, dtype=float)
    dim = len(h)
    n = int(round(math.log2(dim)))
    if 2**n != dim:
        raise DimensionMismatch(f"phase vector length {dim} is not a power of two")
    y = _walsh(dim) @ h / dim
    entries = np.zeros(basis_dimension(n, U))
    entries[_z_index_map(n)] = y
    return PauliVector(n, U, entries)


# ---------------------------------------------------------------------------
# the CVP solver


@lru_cache(maxsize=256)
def _diag_weights(spec: MetricSpec, n: int):
    """(kind, per-coordinate weights w_s over the 2^n diagonal strings), read-only."""
    if spec.family in (F1, F1DELTA, F2):
        weights = np.ones(2**n)
    elif spec.family in (FP, FPDELTA, FQ):
        weights = np.array([spec.penalty.weight_value(bin(s).count("1")) for s in range(2**n)])
    else:
        raise UnsupportedSpec(f"no CVP objective for family {spec.family}")
    weights.flags.writeable = False
    return ("quadratic" if spec.family in (F2, FQ) else "taxicab"), weights


# Node budget of the sphere-decoding search.  The search visits 650k-750k
# nodes/s (CPython 3.11, one core of a 2-core Xeon VM), so one that runs out
# stops after 1.3-1.6 s.
_NODE_BUDGET = 1_000_000


def cvp_minimal_pauli_geodesic(spec: MetricSpec, U_diag,
                               require_certified: bool = False) -> CvpResult:
    """Minimize F(diag(h) - 2*pi*diag(m)) over integer m by sphere decoding.

    SU mode adds the constraint sum(m) = sum(h)/2pi, fixing the trace of the
    Hamiltonian to zero.  The search is exact unless it runs out of its node
    budget; then the best m found is returned with certified=False (or
    WindowTooSmall is raised if require_certified).  `window_used` reports
    max|m_z| of the returned minimizer.
    """
    if not isinstance(U_diag, DiagonalUnitary):
        theta = np.asarray(U_diag, dtype=float)
        U_diag = DiagonalUnitary(int(round(math.log2(len(theta)))), theta)
    n = U_diag.n
    cap = min(env_n_cap(default=DEFAULT_N_CAP), 3)
    if not 1 <= n <= cap:
        raise DimensionLimit(f"CVP search needs 1 <= n <= {cap}, got n={n}")
    h = reduce_phases(U_diag.phases)
    su_sum = None
    if spec.mode == SU:
        total = sum(h.tolist()) / (2 * math.pi)
        su_sum = round(total)
        if abs(total - su_sum) > 1e-9:
            raise NonTracelessInSUMode(
                "phase sum is not a multiple of 2*pi; U is not special unitary"
            )

    m, value, certified, stats = _sphere_decode(_cvp_plan(spec, n), h, su_sum)
    if require_certified and not certified:
        raise WindowTooSmall(
            f"search stopped after {_NODE_BUDGET} nodes without proving optimality "
            f"(incumbent {value:.6g})"
        )
    window = max(map(abs, m))
    m = np.array(m)
    v = h - 2 * np.pi * m
    if su_sum is not None:
        v = v - np.sum(v) / 2**n
    return CvpResult(m, value, certified, window, diagonal=v, stats=stats)


@lru_cache(maxsize=256)
def _cvp_plan(spec: MetricSpec, n: int) -> tuple:
    """(kind, w, q, r, rows) of (spec, n) as Python lists, for _sphere_decode.

    w are the weights, with w_0 = 0 in SU mode; rows[z] = 2*pi/2^n W[z].
    q = R_ii^2 and r = R_ij/R_ii come from the upper Cholesky factor R of the
    pruning form A = W^T diag(c) W / 4^n, c = w (quadratic) or w^2 (taxicab),
    so that F(h - 2*pi*m) >= 2*pi*sqrt((t - m)^T A (t - m)) with t = h/2pi.
    In SU mode A is singular along the all-ones vector; it is replaced by
    B^T A B, B = [I; -1^T], the form in the first d - 1 coordinates of m.
    """
    kind, w = _diag_weights(spec, n)
    if spec.mode == SU:
        w = np.concatenate([[0.0], w[1:]])  # identity coefficient is projected out
    c = w if kind == "quadratic" else w**2
    dim = 2**n
    W = _walsh(dim)
    A = W.T @ (c[:, None] * W) / dim**2
    if spec.mode == SU:
        B = np.vstack([np.eye(dim - 1), -np.ones(dim - 1)])
        A = B.T @ A @ B
    R = np.linalg.cholesky(A).T
    diag = np.diag(R)
    r = (R / diag[:, None]).tolist()
    return kind, w.tolist(), (diag**2).tolist(), r, (2 * np.pi / dim * W).tolist()


def _sphere_decode(plan: tuple, h: np.ndarray, su_sum):
    """Schnorr-Euchner depth-first search for argmin_m F(h - 2*pi*m).

    Levels run from the last coordinate to the first; each level visits
    integers in zig-zag order around its projected centre, so the partial
    distance never decreases along a level and the first prune ends it.
    Returns (m over all 2^n coordinates, F at m, certified, stats);
    certified is False if the node budget ran out.
    """
    dim = len(h)
    kind, weights, q, r, rows = plan
    y_h = (_walsh(dim) @ h / dim).tolist()
    a = [x / (2 * math.pi) for x in h.tolist()]
    if su_sum is not None:
        # A kills the all-ones vector, so removing the mean leaves Q unchanged
        # and puts t in the range of B even when sum(h)/2pi is off by rounding
        a[-1] -= su_sum
        mean = sum(a) / dim
        a = [x - mean for x in a[:-1]]
    depth = len(a)

    def full(mr):
        return mr if su_sum is None else mr + [su_sum - sum(mr)]

    def value_at(mr):
        y = y_h
        for z, mz in enumerate(full(mr)):
            if mz:
                y = [ys - mz * rs for ys, rs in zip(y, rows[z])]
        if kind == "taxicab":
            return sum([w * abs(ys) for w, ys in zip(weights, y)])
        return math.sqrt(sum([w * ys * ys for w, ys in zip(weights, y)]))

    # seed with the zero shift (m = su_sum e_{d-1} in SU mode, m = 0 otherwise)
    best_m = [0] * depth
    best = value_at(best_m)
    bound = (best / (2 * math.pi)) ** 2

    m = [0] * depth
    centre = [0.0] * depth
    step = [0] * depth
    dist = [0.0] * (depth + 1)

    def enter(i):
        ri, s = r[i], 0.0
        for j in range(i + 1, depth):
            s += ri[j] * (a[j] - m[j])
        ci = centre[i] = a[i] + s
        m[i] = round(ci)
        step[i] = 1 if ci >= m[i] else -1

    i = depth - 1
    enter(i)
    leaves, certified = 0, False
    for nodes in range(1, _NODE_BUDGET + 1):
        diff = centre[i] - m[i]
        d_i = dist[i + 1] + q[i] * diff * diff
        if d_i < bound:
            if i > 0:
                dist[i] = d_i
                i -= 1
                enter(i)
                continue
            leaves += 1
            value = value_at(m)
            if value < best:
                best, best_m = value, m.copy()
                bound = (best / (2 * math.pi)) ** 2
        else:
            i += 1
            if i == depth:
                certified = True
                break
        m[i] += step[i]
        step[i] = -step[i] - (1 if step[i] > 0 else -1)
    stats = {"nodes": nodes, "leaves": leaves, "budget": _NODE_BUDGET}
    return full(best_m), best, certified, stats


# ---------------------------------------------------------------------------
# volume bounds


def _log_q_product(spec: MetricSpec, n: int) -> float:
    _, weights = _diag_weights(spec, n)
    return float(np.sum(np.log(weights)))


def unit_ball_volume(spec: MetricSpec, r: float, n: int) -> float:
    """Volume of {F <= r} in the 2^n-dimensional diagonal subspace.

    Closed forms: (2r)^d/d! for F1 (the Delta -> 0 limit of F1Delta),
    (sqrt(pi) r)^d/(d/2)! for F2, and the F2 volume scaled by
    prod_sigma 1/q(wt sigma) for Fq.  Evaluated in log space.
    """
    d = 2**n
    if r <= 0:
        return 0.0
    if spec.family in (F1, F1DELTA):
        return math.exp(d * math.log(2 * r) - math.lgamma(d + 1))
    if spec.family == F2:
        return math.exp(d * math.log(math.sqrt(math.pi) * r) - math.lgamma(d / 2 + 1))
    if spec.family == FQ:
        return math.exp(
            d * math.log(math.sqrt(math.pi) * r)
            - math.lgamma(d / 2 + 1)
            - _log_q_product(spec, n)
        )
    raise UnsupportedSpec(f"no volume formula for family {spec.family}")


def coverage_bound(spec: MetricSpec, f_fraction: float, n: int) -> float:
    """Smallest r with V_F(r) >= f * det(M), M the lattice basis matrix.

    If a fraction f of the fundamental cell is within distance r of the
    lattice, the ball volume must be at least f times the cell volume;
    inverting gives a lower bound on the covering radius scale.
    """
    if not 0.0 < f_fraction <= 1.0:
        raise ValueError("f_fraction must be in (0, 1]")
    d = 2**n
    log_rhs = math.log(f_fraction) + PhaseLattice(spec.mode, n).log_det()
    if spec.family in (F1, F1DELTA):
        return 0.5 * math.exp((log_rhs + math.lgamma(d + 1)) / d)
    if spec.family == F2:
        return math.exp((log_rhs + math.lgamma(d / 2 + 1)) / d) / math.sqrt(math.pi)
    if spec.family == FQ:
        return math.exp(
            (log_rhs + math.lgamma(d / 2 + 1) + _log_q_product(spec, n)) / d
        ) / math.sqrt(math.pi)
    raise UnsupportedSpec(f"no volume formula for family {spec.family}")


# monte_carlo_coverage sweeps the (2w+1)^{2^n} lattice offsets with max|m_z| <= w.
_COVERAGE_WINDOW = 1


def monte_carlo_coverage(
    spec: MetricSpec, r: float, n: int, samples: int = 10000, seed: int = 20260822
) -> float:
    """Fraction of the fundamental cell within CVP distance r of the lattice.

    Uniform phases in [-pi, pi)^{2^n}; the CVP is solved for all samples at
    once by sweeping every lattice offset with max|m_z| <= _COVERAGE_WINDOW.
    """
    if n > 2:
        raise DimensionLimit("Monte Carlo coverage is restricted to n <= 2")
    dim = 2**n
    kind, weights = _diag_weights(spec, n)
    rng = np.random.default_rng(seed)
    h = rng.uniform(-np.pi, np.pi, size=(samples, dim))
    Wt = _walsh(dim)
    best = np.full(samples, np.inf)
    base = 2 * _COVERAGE_WINDOW + 1
    for flat in range(base**dim):
        m = np.array(np.unravel_index(flat, (base,) * dim)) - _COVERAGE_WINDOW
        v = h - 2 * np.pi * m[None, :]
        y = v @ Wt / dim
        vals = np.abs(y) @ weights if kind == "taxicab" else np.sqrt(y**2 @ weights)
        np.minimum(best, vals, out=best)
    return float(np.mean(best <= r))
