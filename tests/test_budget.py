"""The byte budget pauli.MAX_BYTES and the six entry points that check it.

Each entry point whose allocation grows with a size its caller picks (shot steps, circuit
gates, isometry, coverage, Pauli geodesic and tensor product samples) calls pauli.check_bytes
once, at entry, with a bytes model of its own.  SITES restates each model, so the tests pin it:
the call checks exactly that many bytes; one unit over the real budget is refused before
anything is allocated; a budget of exactly one call's model admits that call and refuses one
unit more; and the tracemalloc peak of a call is within 1.5x of its model either way at each n.
A site's inputs that are not its own allocation (the factor curves of a tensor product) are
built by SETUP before the tracemalloc window opens.
"""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from sugeo import bounds, geodesic, lattice, pauli
from sugeo.bounds import Circuit, Gate, IsometryMap, circuit_to_curve, isometry_check, random_unitary
from sugeo.errors import StepLimitExceeded
from sugeo.geodesic import Curve, pauli_geodesic_curve, shoot_geodesic, tensor_product_curve
from sugeo.lattice import monte_carlo_coverage
from sugeo.metrics import F1, F2, FQ, MetricSpec, PenaltyFunction
from sugeo.pauli import PauliVector, check_bytes

FQ_SPEC = MetricSpec(FQ, penalty=PenaltyFunction(kind="step", k=4.0, low_weight_cutoff=1))
F2_SPEC = MetricSpec(F2)


def _shoot(steps, n):
    y0 = np.linspace(0.5, 1.0, 4**n - 1)
    return shoot_geodesic(FQ_SPEC, np.zeros(4**n - 1), y0 / np.linalg.norm(y0), 0.1, steps=steps)


def _circuit(m, n):
    return circuit_to_curve(Circuit(n, [Gate("X", 0.5, (n - 1,))] * m), F2_SPEC)


def _isometry(samples, n):
    iso = IsometryMap("unitary", operator=random_unitary(np.random.default_rng(n), 2**n))
    return isometry_check(iso, F2_SPEC, samples=samples, n=n)


def _coverage(samples, n):
    return monte_carlo_coverage(MetricSpec(F1, mode="U"), 0.5, n, samples=samples)


def _pauli_geodesic(samples, n):
    coeffs = PauliVector.from_terms(n, {"Z" + "I" * (n - 1): 0.3, "I" * (n - 1) + "X": 0.2})
    return pauli_geodesic_curve(FQ_SPEC, coeffs, 1.0, num_samples=samples)


@lru_cache(maxsize=1)
def _factors(samples, n):
    """Curves at x = 0 on n // 2 and n - n // 2 qubits, built by hand with their spectrum given."""
    def factor(k):
        d, D = 4**k - 1, 2**k
        ys = np.tile(np.linspace(0.5, 1.0, d), (samples, 1))
        eye = np.broadcast_to(np.eye(D, dtype=complex), (samples, D, D))
        return Curve(FQ_SPEC, np.linspace(0.0, 1.0, samples), np.zeros((samples, d)), ys,
                     np.ones(samples), spectrum=(np.zeros((samples, D)), eye))

    return factor(n // 2), factor(n - n // 2)


def _tensor(samples, n):
    return tensor_product_curve(*_factors(samples, n), FQ_SPEC)


# site: (call(size, n), bytes model(size, n), qubit counts, size for the peak at each n)
SITES = {
    "shoot": (_shoot, lambda steps, n: (steps + 1) * 160 * 4**n, (1, 2, 3, 4),
              {1: 2000, 2: 1000, 3: 500, 4: 200}),
    "circuit": (_circuit, lambda m, n: (250 * m + 1) * 16 * 4**n, (1, 2, 3, 4),
                {1: 32, 2: 16, 3: 8, 4: 4}),
    "isometry": (_isometry, lambda s, n: s * (8 * (4**n - 1) + 48 * 4**n), (1, 2, 3, 4),
                 {1: 4000, 2: 2000, 3: 500, 4: 200}),
    # tau, R and two rounding temporaries (R is a half-row 2^(n-1) wide at n = 3), and 4 vectors
    "coverage": (_coverage, lambda s, n: s * 8 * (2**n + 3 * 2 ** min(n, 2) + 4), (1, 2, 3),
                 {1: 20000, 2: 10000, 3: 2000}),
    "pauli_geodesic": (_pauli_geodesic, lambda s, n: s * (16 * 4**n + 8 * 2**n + 16), (1, 2, 3, 4),
                       {1: 4000, 2: 2000, 3: 500, 4: 200}),
    "tensor": (_tensor, lambda s, n: s * 160 * 4**n, (2, 3, 4), {2: 2000, 3: 1000, 4: 400}),
}
SETUP = {"tensor": _factors}  # site: setup(size, n), run before the tracemalloc window
CASES = [(site, n) for site, (_, _, ns, _) in SITES.items() for n in ns]
IDS = [f"{site}-n{n}" for site, n in CASES]


def _peak(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_check_bytes_reads_the_budget_at_each_call(monkeypatch):
    check_bytes(pauli.MAX_BYTES, "a call at the budget")
    with pytest.raises(StepLimitExceeded, match=rf"one more would take {pauli.MAX_BYTES + 1} B, "
                                                rf"over the {pauli.MAX_BYTES} B budget"):
        check_bytes(pauli.MAX_BYTES + 1, "one more")
    monkeypatch.setattr(pauli, "MAX_BYTES", 100)
    check_bytes(100, "a call at the lowered budget")
    with pytest.raises(StepLimitExceeded, match="over the 100 B budget"):
        check_bytes(101, "one more")


@pytest.mark.parametrize("site, n", CASES, ids=IDS)
def test_one_unit_over_the_budget_is_refused_before_allocating(site, n):
    call, model, _, _ = SITES[site]
    call(2, n)  # fill the module caches first
    per_unit, fixed = model(1, n) - model(0, n), model(0, n)
    over = (pauli.MAX_BYTES - fixed) // per_unit + 1
    assert model(over - 1, n) <= pauli.MAX_BYTES < model(over, n)
    SETUP.get(site, lambda size, n: None)(over, n)
    tracemalloc.start()
    try:
        with pytest.raises(StepLimitExceeded, match=f"would take {model(over, n)} B"):
            call(over, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < pauli.MAX_BYTES / 100


@pytest.mark.parametrize("site, n", CASES, ids=IDS)
def test_a_budget_of_one_call_admits_it_and_refuses_one_unit_more(monkeypatch, site, n):
    """Each call checks its model once; the last admitted size is the budget's edge."""
    call, model, _, _ = SITES[site]
    checked = []
    for module in (bounds, geodesic, lattice):
        monkeypatch.setattr(module, "check_bytes", lambda nbytes, what: checked.append(nbytes)
                            or check_bytes(nbytes, what))
    monkeypatch.setattr(pauli, "MAX_BYTES", model(5, n))
    call(5, n)
    assert checked == [model(5, n)]
    with pytest.raises(StepLimitExceeded):
        call(6, n)


@pytest.mark.parametrize("site, n", CASES, ids=IDS)
def test_peak_memory_is_within_one_and_a_half_times_the_model(site, n):
    call, model, _, sizes = SITES[site]
    call(2, n)  # fill the module caches first
    size = sizes[n]
    SETUP.get(site, lambda size, n: None)(size, n)
    assert model(size, n) / 1.5 <= _peak(call, size, n) <= 1.5 * model(size, n)
