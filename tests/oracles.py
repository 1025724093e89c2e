"""Reference routes kept only to check the library's exact ones.

pinv_E and pinv_E_inverse are the matrices of E_X and E_X^-1 from the
vectorized pseudo-inverse formulas.  With column-stacking vec, so that
vec(ABC) = (C^T kron A) vec(B):

    vec(ad_X)         = I kron X - X* kron I            (X Hermitian)
    vec(exp(-i ad_X)) = U* kron U,   U = exp(-iX)
    vec(E_X)    = vecP + i (U* kron U - I) pinv(I kron X - X* kron I) (I - vecP)
    vec(E_X)^-1 = vecP - i (I kron X - X* kron I) pinv(U* kron U - I) (I - vecP)

where vecP projects onto ker(ad_X) (the commutant of X), on which E_X is
the identity.  The signs follow from the power series: vec(E_X) = f(-iA)
with f(s) = (e^s - 1)/s and A = vec(ad_X), so the non-kernel part is
(U* kron U - I) (-iA)^+ = +i (U* kron U - I) A^+.  Eigenvalues are
clustered as in the library's filter.

metric_in_pauli_coords is F(x, y) = N(E_x(y)) for one pair, gate_unitary
the closed-form exp(-i alpha sigma) of one gate, and bch_x_gradient the
x-gradient of tr(G E_X(Z)) at one X stack; no library code calls them.
change_matrix builds M(x), the d x d matrix of E_X in Pauli coordinates,
and fd_el_residual is the Euler-Lagrange residual with M(x) formed at
every sample and the x-gradient taken by central differences over 2d
perturbed base points.  Both are slow; the library never forms M(x).
geodesic_hamiltonian is diag(h - 2 pi m) of a CVP result as a Hermitian operator.
flat_cvp and flat_coverage solve the n = 3 CVP over every row of the flat
coset table, 4096 rows of width 8, without the library's split of each row
into (u | u+v) halves.
fq_closed_form is the Fq geodesic of a step penalty above weight 1 in closed form.
matrix_shoot is shoot_geodesic with every commutator a matrix product
and every Hessian from metrics.hessian.  segment_curve is circuit_to_curve
built one segment at a time, each sample as (cos theta I - i sin theta
sigma_j) V_j, with V_j from the product of gate_unitary matrices.
"""

import numpy as np

from sugeo.bounds import _SAMPLES_PER_SEGMENT, regularizer
from sugeo.coords import (
    _Eigenbasis, _ad_vec, _eigh, _gap_data, _resonance_check, change_coords, change_matrices, pauli_log,
)
from sugeo.errors import DimensionMismatch
from sugeo.geodesic import _HERMITE
from sugeo.lattice import _coset_table, _cvp_plan, _diag_weights, _walsh, reduce_phases
from sugeo.metrics import FQ, grad_f_squared, hessian, norm, norms_batch
from sugeo.pauli import (
    SU, algebra, basis_dimension, coefficients, entries_of, pauli_matrix,
    qubits_of_dimension, string_index, weights_array,
)

_CHUNK = 2048
_PINV_CUTOFF = 1e-10


def _pinv_parts(X):
    """Eigenvalue gaps, vec(ad_X), U* kron U - 1 and vecP for the pinv formulas.

    vecP keeps the entries of the pairs that _gap_data clusters in the
    eigenbasis: vec(P) = W diag(vec(mask)) W^+ with W = V* kron V.
    """
    lam, V = np.linalg.eigh(X)
    U = V @ np.diag(np.exp(-1j * lam)) @ V.conj().T
    B = np.kron(U.conj(), U) - np.eye(X.shape[0] ** 2)
    W = np.kron(V.conj(), V)
    gaps, mask = _gap_data(lam)
    return gaps, _ad_vec(X), B, (W * mask.reshape(-1, order="F")) @ W.conj().T


def pinv_E(X):
    """vec(E_X) as a 4^n x 4^n matrix, from the pinv formula."""
    _, A, B, vecP = _pinv_parts(X)
    pinvA = np.linalg.pinv(A, rcond=_PINV_CUTOFF, hermitian=True)
    return vecP + 1j * B @ pinvA @ (np.eye(len(vecP)) - vecP)


def pinv_E_inverse(X):
    """vec(E_X)^-1 as a 4^n x 4^n matrix; ResonantSpectrum on a gap at a nonzero multiple of 2 pi."""
    gaps, A, B, vecP = _pinv_parts(X)
    _resonance_check(gaps)
    pinvB = np.linalg.pinv(B, rcond=_PINV_CUTOFF)
    return vecP - 1j * A @ pinvB @ (np.eye(len(vecP)) - vecP)


def bch_x_gradient(X, Z, G):
    """Gamma with d/de tr(G E_{X+eS}(Z)) = tr(Gamma S) at e = 0: _Eigenbasis.x_gradient at X alone."""
    E = _Eigenbasis(*_eigh(X))
    Zh, Gh = E.hat(Z), E.hat(G)
    return E.unhat(E.x_gradient(Zh, Gh, E.Phi * Zh, E.Phi.conj() * Gh))


def change_matrix(x_entries, n, mode=SU):
    """M(x) with yt = M y in basis coordinates (real d x d)."""
    return change_matrices(np.asarray(x_entries, dtype=float)[None, :], n, mode)[0]


def fd_el_residual(spec, curve, h=1e-5):
    """el_residual with M(x) formed explicitly and the x-gradient by central differences."""
    n, mode, d = curve.n, curve.mode, curve.xs.shape[1]
    worst = 0.0
    rhs_scale = 0.0
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


def metric_in_pauli_coords(spec, x, y):
    """F(x, y) = N(E_x(y)); equals norm(spec, y) at x = 0."""
    xe, ye = entries_of(x, spec.mode), entries_of(y, spec.mode)
    if xe.shape != ye.shape:
        raise DimensionMismatch("x and y have different dimensions")
    n = qubits_of_dimension(len(xe), spec.mode)
    return norm(spec, change_coords(xe[None, :], ye[None, :], n, spec.mode)[0])


def fd_f_squared_gradients(spec, x, y, h):
    """Central differences of metric_in_pauli_coords(spec, x, y)**2 in x and in y."""
    def f2(xv, yv):
        return metric_in_pauli_coords(spec, xv, yv) ** 2

    d = len(x)
    gx, gy = np.empty(d), np.empty(d)
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        gx[j] = (f2(x + e, y) - f2(x - e, y)) / (2 * h)
        gy[j] = (f2(x, y + e) - f2(x, y - e)) / (2 * h)
    return gx, gy


def matrix_shoot(spec, y0, t_end, steps):
    """(xs, ys, speeds) of shoot_geodesic from x0 = 0, on one chart, with matrix commutators.

    RK4 on Hess_N(H) dH/dt = Re proj(-2i H P), P = Hess_N(H) h, and the
    Magnus exponent K = dt/2 (H1 + H2) - i sqrt(3)/12 dt^2 (B - B^+),
    B = H2 H1, as 2^n x 2^n matrices.  The curve must not reach the chart edge.
    """
    mode = spec.mode
    n = qubits_of_dimension(len(y0), mode)
    dt = t_end / steps

    def f(h):
        G = hessian(spec, h)
        w, V = np.linalg.eigh(G)
        H, P = algebra(np.array([h, G @ h]), n, mode)
        r = coefficients(-2j * (H @ P)[None], n, mode)[0]
        return V @ ((V.T @ r) / w)

    h = np.array(y0, dtype=float)
    U = np.eye(2**n, dtype=complex)
    hs, xs = [h], [np.zeros_like(h)]
    k = f(h)
    for _ in range(steps):
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
        hs.append(h)
        xs.append(pauli_log(U, mode).entries)
    hs, xs = np.array(hs), np.array(xs)
    assert np.max(np.abs(np.linalg.eigvalsh(algebra(xs, n, mode)))) < np.pi - 0.2
    ys = change_coords(xs, hs, n, mode, inverse=True)
    return xs, ys, norms_batch(spec, hs)


def _exp_minus_i(H, ts):
    """exp(-i t H) for each t in ts, H Hermitian, from one eigh."""
    lam, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * np.multiply.outer(ts, lam))[:, None, :]) @ V.conj().T


def fq_closed_form(spec, x0, y0, ts):
    """(U(t), h(t)) at each t of ts for the Fq geodesic from (x0, y0), step penalty with cutoff 1.

    The strings of weight <= 1 (with I in U mode) span a subalgebra k and the rest span m, with
    [k, m] in m.  With q = 1 on k and kappa on m, the momentum is p = h_k + kappa h_m, and
    [h, p] = (kappa - 1)[h_k, h_m] lies in m: h_k stays constant and h_m turns under it.  With
    c = 1 - 1/kappa and H0 = E_x0(y0) = H_k + H_m,

        U(t) = exp(-i c t H_k) exp(-i t ((1 - c) H_k + H_m)) U0,   U0 = exp(-i x0.sigma),
        h(t) = h_k + Ad_{exp(-i c t H_k)} h_m.
    """
    penalty, mode = spec.penalty, spec.mode
    assert spec.family == FQ and penalty.kind == "step" and penalty.low_weight_cutoff == 1
    n = qubits_of_dimension(len(y0), mode)
    x0 = np.asarray(x0, dtype=float)
    h0 = change_coords(x0[None], np.asarray(y0, dtype=float)[None], n, mode)[0]
    hk = np.where(weights_array(n, mode) <= 1, h0, 0.0)
    Hk, Hm, X0 = algebra(np.array([hk, h0 - hk, x0]), n, mode)
    c = 1.0 - 1.0 / penalty.k
    turn = _exp_minus_i(Hk, c * np.asarray(ts, dtype=float))
    Us = turn @ _exp_minus_i((1.0 - c) * Hk + Hm, ts) @ _exp_minus_i(X0, [1.0])[0]
    hs = hk + coefficients(turn @ Hm @ turn.conj().transpose(0, 2, 1), n, mode)
    return Us, hs


def geodesic_hamiltonian(res):
    """The CvpResult's minimal geodesic Hamiltonian, diag(res.diagonal), as a Hermitian matrix."""
    return np.diag(res.diagonal.astype(complex))


def _flat_round(R, w, taxicab):
    """(R rounded to its cosets' nearest points mod 8, the scores) of the rows R = tau - c."""
    R = R - 8 * np.round(R / 8)
    return R, (np.abs(R) @ w if taxicab else (R * R) @ w)


def flat_cvp(spec, theta):
    """(value, minimizer) of the n = 3 CVP, scored over the whole rows of _coset_table(3)."""
    taxicab, w, to_tau, to_m, _ = _cvp_plan(spec, 3)
    h = reduce_phases(np.asarray(theta, dtype=float))
    tau, cosets = to_tau @ h, _coset_table(3)
    if spec.mode == SU:
        tau[0] = round(float(tau[0]))
        cosets = cosets[cosets[:, 0] == tau[0] % 8]
    R, scores = _flat_round(tau - cosets, w, taxicab)
    best = scores.argmin()
    value = np.pi / 4 * (scores[best] if taxicab else np.sqrt(scores[best]))
    return value, (to_m @ (tau - R[best])).round().astype(int)


def flat_coverage(spec, r, samples, seed):
    """monte_carlo_coverage(spec, r, 3, samples, seed), one whole row of _coset_table(3) at a time."""
    taxicab, w = _diag_weights(spec, 3)
    phases = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=(samples, 8))
    tau = phases @ _walsh(8) / (2 * np.pi)
    best = np.full(samples, np.inf)
    for c in _coset_table(3):
        best = np.minimum(best, _flat_round(tau - c, w, taxicab)[1])
    return float(np.mean(np.pi / 4 * (best if taxicab else np.sqrt(best)) <= r))


def gate_unitary(circuit, gate):
    """exp(-i alpha sigma) = cos(alpha) I - i sin(alpha) sigma (sigma^2 = I)."""
    sigma = pauli_matrix(circuit.full_string(gate))
    return np.cos(gate.alpha) * np.eye(2**circuit.n) - 1j * np.sin(gate.alpha) * sigma


def segment_curve(circuit, spec):
    """(ts, unitaries, speeds, length) of circuit_to_curve, one segment at a time."""
    m, dim = len(circuit.gates), 2**circuit.n
    strings = [circuit.full_string(g) for g in circuit.gates]
    idx = string_index(circuit.n, spec.mode)
    hamiltonians = np.zeros((m, basis_dimension(circuit.n, spec.mode)))
    hamiltonians[np.arange(m), [idx[s] for s in strings]] = [g.alpha for g in circuit.gates]
    gate_norms = norms_batch(spec, hamiltonians)
    k = _SAMPLES_PER_SEGMENT
    ts = np.arange(m * k + 1) / (m * k)
    r = regularizer(m)(ts)
    V = np.eye(dim, dtype=complex)
    unitaries, speeds = [V[None]], [np.zeros(1)]
    for j, (g, s, gate_norm) in enumerate(zip(circuit.gates, strings, gate_norms)):
        seg = slice(j * k + 1, (j + 1) * k + 1)
        theta = g.alpha * (m * ts[seg] - j - np.sin(2 * np.pi * m * ts[seg]) / (2 * np.pi))
        sigma_V = pauli_matrix(s) @ V
        unitaries.append(
            np.cos(theta)[:, None, None] * V - 1j * np.sin(theta)[:, None, None] * sigma_V
        )
        speeds.append(r[seg] * m * gate_norm)
        V = gate_unitary(circuit, g) @ V
    return ts, np.concatenate(unitaries), np.concatenate(speeds), float(sum(gate_norms))
