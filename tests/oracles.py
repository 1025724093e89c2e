"""Reference routes kept only to check the library's exact ones.

change_matrix builds M(x), the d x d matrix of E_X in Pauli coordinates,
and fd_el_residual is the Euler-Lagrange residual with M(x) formed at
every sample and the x-gradient taken by central differences over 2d
perturbed base points.  Both are slow; the library never forms M(x).
"""

import numpy as np

from sugeo.coords import change_matrices
from sugeo.geodesic import metric_in_pauli_coords
from sugeo.metrics import grad_f_squared, norms_batch
from sugeo.pauli import SU

_CHUNK = 2048


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
