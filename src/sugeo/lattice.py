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

The CVP is solved exactly by coset decoding.  With d = 2^n and
tau = W h/2pi, the Pauli coefficients are y = (2*pi/d)(tau - v) for v in the
phase lattice L = W Z^d, and every objective here is separable in y: a
weighted sum of |y_s| (F1, Fp) or of y_s^2 (F2, Fq).  Since W W = d I, L
contains d Z^d, so L is the union of the d^{d/2} cosets c + d Z^d (2, 16
and 4096 at n = 1, 2, 3; cf. the (u | u+v) structure of Barnes-Wall
lattices, Forney, IEEE Trans. IT 34, 1988).  Within one coset each
coordinate v_s = c_s + d t_s rounds to tau_s on its own, so scoring every
coset's rounding and taking the best is the exact minimum: every result
is certified.  The minimizer is m = W v/d.  In SU mode the constraint
sum(m) = sum(h)/2pi fixes v_0 = sum(m), whose weight is 0: only the
cosets with c_0 = sum(h)/2pi mod d are scored, and v_0 is set to the sum.
The coset table, W/2pi and W/d are cached per (spec, n).  On a 2-core Xeon
a solve takes about 25 us at n = 1, 2 and, at n = 3, about 0.5 ms in U
mode (4096 cosets) and 40 us in SU mode (512).
`window_used` is max|m_z| of the returned minimizer, `stats` counts the
cosets scored, and the Hamiltonian is built from the diagonal h - 2*pi*m
when read.  The volume and coverage functions are U mode only; the
unit-ball volume has a closed form for every family (a weighted
cross-polytope or ellipsoid).

The smoothed families are evaluated through their Delta -> 0 limits (F1Delta
as F1, FpDelta as Fp): the objective needs no smoothness and the limit is
the quantity of interest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionLimit,
    DimensionMismatch,
    NonFiniteInput,
    NonTracelessInSUMode,
    UnsupportedSpec,
)
from .metrics import EUCLIDEAN, MetricSpec, penalty_vector
from .pauli import SU, U, PauliVector, basis_dimension, check_bytes, json_int, string_index

# The coset decoder scores d^{d/2} cosets (4096 at n = 3); at n = 4 it would be 16^8.
CVP_N_MAX = 3


@dataclass
class DiagonalUnitary:
    """U = sum_z exp(-i theta_z) |z><z|; phases in radians, length 2^n."""

    n: int
    phases: np.ndarray

    def __post_init__(self):
        self.phases, n = _phase_vector(self.phases)
        if n != self.n:
            raise DimensionMismatch(f"expected {2**self.n} phases")

    def to_json(self) -> dict:
        return {"n": self.n, "theta": [float(t) for t in self.phases]}

    @classmethod
    def from_json(cls, obj: dict) -> "DiagonalUnitary":
        return cls(json_int(obj["n"], "n"), np.array(obj["theta"], dtype=float))


@dataclass
class CvpResult:
    minimizer: np.ndarray
    value: float
    certified: bool
    window_used: int
    diagonal: np.ndarray  # h - 2*pi*m, mean removed in SU mode
    stats: dict  # {"cosets": number of cosets scored}


def reduce_phases(theta: np.ndarray) -> np.ndarray:
    """Shift each phase by a multiple of 2*pi into (-pi, pi]."""
    return np.pi - np.mod(np.subtract(np.pi, theta), 2 * np.pi)


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


def _phase_vector(theta) -> tuple[np.ndarray, int]:
    """(theta as a finite float vector, n); DimensionMismatch unless its length is 2^n."""
    theta = np.asarray(theta, dtype=float)
    dim = theta.size
    if theta.ndim != 1 or dim == 0 or dim & (dim - 1):
        raise DimensionMismatch(
            f"phase vector must be 1-D with a power-of-two length, got shape {theta.shape}"
        )
    if not np.isfinite(theta).all():
        raise NonFiniteInput("phases must be finite")
    return theta, dim.bit_length() - 1


def diagonal_to_pauli(h: np.ndarray) -> PauliVector:
    """U-mode Pauli coefficients of diag(h): the Walsh-Hadamard transform /2^n."""
    h, n = _phase_vector(h)
    entries = np.zeros(basis_dimension(n, U))  # DimensionLimit before the Walsh matrix is built
    entries[_z_index_map(n)] = _walsh(len(h)) @ h / len(h)
    return PauliVector(n, U, entries)


# ---------------------------------------------------------------------------
# the CVP solver


@lru_cache(maxsize=256)
def _diag_weights(spec: MetricSpec, n: int):
    """(taxicab, weights w_s over the 2^n diagonal strings, read-only); taxicab: sum w|y|.

    w_s is the metric's penalty_vector entry of the Z-type string s (U mode).
    """
    weights = penalty_vector(replace(spec, mode=U), n)[_z_index_map(n)]
    weights.flags.writeable = False
    return spec.family not in EUCLIDEAN, weights


def cvp_minimal_pauli_geodesic(spec: MetricSpec, U_diag) -> CvpResult:
    """Minimize F(diag(h) - 2*pi*diag(m)) over integer m by coset decoding.

    SU mode adds the constraint sum(m) = sum(h)/2pi, fixing the trace of the
    Hamiltonian to zero.  The minimum is exact, so `certified` is always
    True; `window_used` reports max|m_z| of the returned minimizer.
    """
    if isinstance(U_diag, DiagonalUnitary):
        theta, n = U_diag.phases, U_diag.n  # validated when it was built
    else:
        theta, n = _phase_vector(U_diag)
    if not 1 <= n <= CVP_N_MAX:
        raise DimensionLimit(f"CVP needs 1 <= n <= {CVP_N_MAX}, got n={n}")
    taxicab, w, to_tau, to_m, cosets = _cvp_plan(spec, n)
    dim = len(w)
    h = reduce_phases(theta)
    tau = to_tau @ h
    su_sum = None
    if spec.mode == SU:
        total = float(tau[0])  # sum(h)/2pi
        su_sum = round(total)
        if abs(total - su_sum) > 1e-9:
            raise NonTracelessInSUMode(
                "phase sum is not a multiple of 2*pi; U is not special unitary"
            )
        cosets = cosets[su_sum % dim]

    R = tau - cosets
    scores = _round_and_score(R, taxicab, w)
    best = scores.argmin()
    score = scores[best]
    value = 2 * math.pi / dim * (float(score) if taxicab else math.sqrt(score))
    v = tau - R[best]
    if su_sum is not None:
        v[0] = su_sum
    m = (to_m @ v).round().astype(int)
    diagonal = h - 2 * np.pi * m
    if su_sum is not None:
        diagonal -= diagonal.sum() / dim
    return CvpResult(m, value, True, max(map(abs, m.tolist())), diagonal=diagonal,
                     stats={"cosets": len(cosets)})


def _round_and_score(R: np.ndarray, taxicab: bool, w: np.ndarray) -> np.ndarray:
    """Round each row of R = tau - c in place to its coset's nearest point; score it.

    Subtracting d*round(R/d) moves each coordinate of v = c + d t to the
    nearest to tau.  The score is sum_s w_s |R_s| (taxicab) or sum_s w_s R_s^2.
    """
    dim = R.shape[-1]
    R -= dim * (R / dim).round()
    return abs(R) @ w if taxicab else (R * R) @ w


@lru_cache(maxsize=None)
def _coset_table(n: int) -> np.ndarray:
    """Representatives, entries in [0, d), of the d^{d/2} cosets of d Z^d in W Z^d.

    The representatives are the sums of multiples of the columns of W mod d
    (d = 2^n), accumulated one column at a time.  Rows are ordered by c_0,
    and c_0 = sum(m) mod d takes each value equally often, so the rows with
    c_0 = r form the r-th of d equal blocks.
    """
    dim = 2**n
    columns = (_walsh(dim).T % dim).astype(np.uint8)  # bytes keep the build's peak memory low
    row = np.dtype((np.void, dim))  # one row as one sortable item, for np.unique
    table = np.zeros((1, dim), dtype=np.uint8)
    for col in columns:
        multiples = (table[:, None, :] + np.arange(dim, dtype=np.uint8)[:, None] * col) % dim
        table = np.unique(multiples.reshape(-1, dim).view(row)).view(np.uint8).reshape(-1, dim)
    table = table[np.argsort(table[:, 0], kind="stable")].astype(float)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=256)
def _cvp_plan(spec: MetricSpec, n: int) -> tuple:
    """(taxicab, w, W/2pi, W/d, cosets) of (spec, n) for cvp_minimal_pauli_geodesic.

    w are the weights, with w_0 = 0 in SU mode.  cosets is the coset table;
    in SU mode it is grouped by c_0, so that cosets[r] holds those with c_0 = r.
    """
    taxicab, w = _diag_weights(spec, n)
    W, cosets = _walsh(2**n), _coset_table(n)
    if spec.mode == SU:
        w = np.concatenate([[0.0], w[1:]])  # identity coefficient is projected out
        cosets = cosets.reshape(len(W), -1, len(W))
    return taxicab, w, W / (2 * math.pi), W / len(W), cosets


# ---------------------------------------------------------------------------
# volume bounds


def _require_u_mode(spec: MetricSpec):
    if spec.mode == SU:
        raise UnsupportedSpec("volumes and coverage are U mode only: the SU lattice has rank d - 1")


def _log_unit_volume(spec: MetricSpec, n: int) -> float:
    """log V_F(1), the volume of {F <= 1} in the 2^n-dimensional diagonal subspace.

    Closed forms, with w_s the diagonal weights: 2^d/d! prod_s 1/w_s for a
    taxicab ball {sum_s w_s |y_s| <= 1} (a smoothed norm through its
    Delta -> 0 limit), and sqrt(pi)^d/(d/2)! prod_s 1/sqrt(w_s) for an
    ellipsoid {sum_s w_s y_s^2 <= 1}: scaling y_s by 1/w_s (by 1/sqrt(w_s))
    maps the unweighted ball onto the weighted one.  U mode only.
    """
    _require_u_mode(spec)
    d = 2**n
    taxicab, w = _diag_weights(spec, n)
    log_w = float(np.sum(np.log(w)))
    if taxicab:
        return d * math.log(2) - math.lgamma(d + 1) - log_w
    return d * math.log(math.sqrt(math.pi)) - math.lgamma(d / 2 + 1) - 0.5 * log_w


def lattice_log_det(n: int) -> float:
    """log |det| of the U-mode phase lattice in Pauli coordinates, basis 2*pi W/2^n.

    W W = d I, so |det W| = d^{d/2} and the determinant is (2 pi)^d d^{-d/2}.
    """
    d = 2**n
    return d * (math.log(2 * math.pi) - 0.5 * n * math.log(2.0))


def unit_ball_volume(spec: MetricSpec, r: float, n: int) -> float:
    """Volume of {F <= r} in the diagonal subspace: V(r) = r^d V_F(1), in log space (finite r)."""
    log_v1 = _log_unit_volume(spec, n)
    if not math.isfinite(r):
        raise NonFiniteInput(f"r={r} is not finite")
    try:
        return math.exp(2**n * math.log(r) + log_v1) if r > 0 else 0.0
    except OverflowError:
        raise NonFiniteInput(f"the volume of the radius-{r:g} ball overflows the float range") from None


def coverage_bound(spec: MetricSpec, f_fraction: float, n: int) -> float:
    """Smallest r with V_F(r) >= f * det(M), M the lattice basis matrix.

    If a fraction f of the fundamental cell is within distance r of the
    lattice, the ball volume must be at least f times the cell volume;
    inverting V(r) = r^d V_F(1) gives a lower bound on the covering radius
    scale, r = exp((log f + log det M - log V_F(1))/d).  U mode only.
    """
    log_v1 = _log_unit_volume(spec, n)
    if not 0.0 < f_fraction <= 1.0:
        raise ValueError("f_fraction must be in (0, 1]")
    log_rhs = math.log(f_fraction) + lattice_log_det(n)
    return math.exp((log_rhs - log_v1) / 2**n)


def monte_carlo_coverage(
    spec: MetricSpec, r: float, n: int, samples: int = 10000, seed: int = 20260822
) -> float:
    """Fraction of the fundamental cell within CVP distance r of the lattice.

    Uniform phases in [-pi, pi)^{2^n} (U mode only); the CVP of every sample
    is solved exactly by coset decoding, one coset at a time over the batch.
    Working range: 1 <= n <= CVP_N_MAX = 3 (else DimensionLimit) and 1 <= samples, with samples
    (32 2^n + 8) bytes within pauli.MAX_BYTES (else StepLimitExceeded): 14913080, 7895160 and
    4067203 samples at n = 1..3.  Cost: one rounding pass over the batch per coset, 2, 16 and 4096
    cosets at n = 1..3; 10000 samples at n = 3 take about 2.7 s (one BLAS thread, 2-core Xeon).
    """
    _require_u_mode(spec)
    if not math.isfinite(r):
        raise NonFiniteInput(f"r={r} is not finite")
    if not 1 <= n <= CVP_N_MAX:
        raise DimensionLimit(f"Monte Carlo coverage needs 1 <= n <= {CVP_N_MAX}, got n={n}")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    dim = 2**n
    # per sample: tau, R and two temporaries of a coset's rounding (dim floats each), and best
    check_bytes(samples * 8 * (4 * dim + 1), f"{samples} coverage samples at n={n}")
    taxicab, weights = _diag_weights(spec, n)
    rng = np.random.default_rng(seed)
    tau = rng.uniform(-np.pi, np.pi, size=(samples, dim)) @ _walsh(dim) / (2 * np.pi)
    best = np.full(samples, np.inf)
    R = np.empty_like(tau)
    for c in _coset_table(n):
        np.subtract(tau, c, out=R)
        np.minimum(best, _round_and_score(R, taxicab, weights), out=best)
    distance = 2 * np.pi / dim * (best if taxicab else np.sqrt(best))
    return float(np.mean(distance <= r))
