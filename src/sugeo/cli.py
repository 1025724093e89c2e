"""Command-line surface: JSON in, JSON out, CSV for the reproduce suite.

Each _cmd_* returns its result (reproduce: CSV text and exit status); dispatch
alone writes it through _emit and maps errors to exit codes: 0 success, 1 domain
error (the error class name is printed verbatim; MemoryError counts as one), 2
usage error, which includes an input file that is not JSON or whose JSON has the
wrong shape (an integer field holding 1.5 or true, say).  Output goes to stdout
unless --out is given; JSON keys are sorted and the CSV carries no wall time, so
fixed-input runs are bit-reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import acceptance
from .bounds import (
    Circuit,
    IsometryMap,
    circuit_to_curve,
    cnot_matrix,
    hadamard_matrix,
    isometry_check,
    s_matrix,
    swap_matrix,
)
from .coords import UnitaryOperator, change_coords_backward, change_coords_forward
from .errors import NonFiniteInput, SugeoError
from .geodesic import Curve, el_residual, pauli_geodesic, shoot_geodesic
from .lattice import DiagonalUnitary, coverage_bound, cvp_minimal_pauli_geodesic
from .metrics import MetricSpec, grad_f_squared, norm
from .pauli import PauliVector, check_n, stabilizer_span


def _load(path):
    with open(path) as f:
        obj = json.load(f)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return obj


def _emit(result, out_path):
    text = result
    if not isinstance(result, str):
        try:
            text = json.dumps(result, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as e:
            raise NonFiniteInput(f"result is not finite: {e}") from None
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cmd_metric_eval(args):
    spec = MetricSpec.from_json(_load(args.metric))
    y = PauliVector.from_json(_load(args.vector))
    out = {"value": float(norm(spec, y))}
    if args.gradient:
        out["gradient"] = [float(g) for g in grad_f_squared(spec, y)]
    return out


def _cmd_coordchange(args):
    obj = _load(args.input)
    x = PauliVector.from_json(obj["x"])
    y = PauliVector.from_json(obj["y"])
    direction = obj.get("direction", "forward")
    if direction == "forward":
        return change_coords_forward(x, y).to_json()
    if direction == "backward":
        return change_coords_backward(x, y).to_json()
    raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")


def _cmd_geodesic_shoot(args):
    spec = MetricSpec.from_json(_load(args.metric))
    x0 = PauliVector.from_json(_load(args.x0))
    y0 = PauliVector.from_json(_load(args.y0))
    curve = shoot_geodesic(spec, x0, y0, args.t, steps=args.steps, n_cap=args.n_cap)
    return curve.to_json()


def _cmd_geodesic_residual(args):
    curve = Curve.from_json(_load(args.curve))
    return {"residual": float(el_residual(curve.spec, curve))}


def _cmd_pauli_geodesic(args):
    gens = tuple(s for s in args.generators.split(",") if s)
    S = stabilizer_span(gens)
    coeffs = PauliVector.from_json(_load(args.coeffs))
    out = pauli_geodesic(S, coeffs, args.t).to_json()
    if args.metric:
        spec = MetricSpec.from_json(_load(args.metric))
        out["length"] = float(args.t * norm(spec, coeffs))
    return out


def _cmd_cvp_min(args):
    spec = MetricSpec.from_json(_load(args.metric))
    diag = DiagonalUnitary.from_json(_load(args.phases))
    res = cvp_minimal_pauli_geodesic(spec, diag)
    m = [int(v) for v in res.minimizer]
    return {"value": float(res.value), "m": m, "certified": bool(res.certified)}


def _cmd_volume_bound(args):
    spec = MetricSpec.from_json(_load(args.metric))
    return {"r_lower": float(coverage_bound(spec, args.f, args.n))}


def _cmd_lower_bound(args):
    circuit = Circuit.from_json(_load(args.circuit))
    spec = MetricSpec.from_json(_load(args.metric))
    traj = circuit_to_curve(circuit, spec)
    return {
        "length": float(traj.length),
        "gate_count": traj.gate_count,
        "bound_holds": bool(traj.bound_holds),
    }


def _named_gate(name, n):
    if name in ("cnot", "swap"):
        if n != 2:
            raise ValueError(f"--gate {name} needs --n 2")
        return cnot_matrix() if name == "cnot" else swap_matrix()
    single = {"hadamard": hadamard_matrix, "s": s_matrix}[name]()
    return np.kron(single, np.eye(2 ** (n - 1)))


def _cmd_isometry_check(args):
    spec = MetricSpec.from_json(_load(args.metric))
    check_n(args.n)  # before any operator of size 2^n is built
    op = None
    if args.kind not in ("pauli", "complex_conjugation"):  # only the other kinds read an operator
        if args.gate:
            op = _named_gate(args.gate, args.n)
        elif args.operator:
            op = UnitaryOperator.from_json(_load(args.operator)).matrix
    iso = IsometryMap(args.kind, operator=op, pauli=args.pauli)
    res = isometry_check(iso, spec, samples=args.samples, n=args.n, seed=args.seed)
    return {
        "max_deviation": float(res.max_deviation),
        "applicable": bool(res.applicable),
        "counterexample": (
            None if res.counterexample is None else res.counterexample.to_json()
        ),
    }


def _cmd_reproduce(args):
    rows = acceptance.run_all(args.suite or None)
    return acceptance.to_csv(rows), 0 if all(r.passed for r in rows) else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sugeo",
        description="Finsler geometry on SU(2^n): norms, geodesics, lattice and circuit bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", help="write the result here instead of stdout")
        p.set_defaults(func=func)
        return p

    p = add("metric-eval", _cmd_metric_eval, "evaluate a Finsler norm on a Pauli vector")
    p.add_argument("--metric", required=True, help="MetricSpec JSON file")
    p.add_argument("--vector", required=True, help="PauliVector JSON file")
    p.add_argument(
        "--gradient", action="store_true", help="also emit the squared-norm gradient"
    )

    p = add("coordchange", _cmd_coordchange, "apply the BCH change of coordinates")
    p.add_argument(
        "--input",
        required=True,
        help='JSON file {"x": PauliVector, "y": PauliVector, "direction": "forward"|"backward"}',
    )

    p = add("geodesic-shoot", _cmd_geodesic_shoot, "integrate the geodesic equation")
    p.add_argument("--metric", required=True)
    p.add_argument("--x0", required=True, help="initial position, PauliVector JSON")
    p.add_argument("--y0", required=True, help="initial velocity, PauliVector JSON")
    p.add_argument("--t", type=float, default=1.0, help="integration time")
    p.add_argument("--steps", type=int, default=None, help="RK4 steps (default 1000/unit)")
    p.add_argument("--n-cap", type=int, default=None, help="lower the qubit cap (n <= 4) for this run")

    p = add("geodesic-residual", _cmd_geodesic_residual, "Euler-Lagrange residual of a curve")
    p.add_argument("--curve", required=True, help="Curve JSON file")

    p = add("pauli-geodesic", _cmd_pauli_geodesic, "exp(-i H0 t) on a stabilizer subgroup")
    p.add_argument("--generators", required=True, help="comma-separated Pauli strings")
    p.add_argument("--coeffs", required=True, help="PauliVector JSON file")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--metric", help="if given, also emit the curve length t*F(coeffs)")

    p = add("cvp-min", _cmd_cvp_min, "minimal Pauli geodesic of a diagonal unitary")
    p.add_argument("--metric", required=True)
    p.add_argument("--phases", required=True, help='JSON file {"n": int, "theta": [floats]}')

    p = add("volume-bound", _cmd_volume_bound, "coverage lower bound on the geodesic radius")
    p.add_argument("--metric", required=True)
    p.add_argument("--f", type=float, default=1.0, help="covered fraction of the cell")
    p.add_argument("--n", type=int, required=True)

    p = add("lower-bound", _cmd_lower_bound, "circuit-to-curve length bound")
    p.add_argument("--circuit", required=True, help="Circuit JSON file")
    p.add_argument("--metric", required=True)

    p = add("isometry-check", _cmd_isometry_check, "test a global isometry against a metric")
    p.add_argument(
        "--kind",
        required=True,
        choices=["pauli", "complex_conjugation", "clifford", "local_unitary", "unitary"],
    )
    p.add_argument("--gate", choices=["cnot", "swap", "hadamard", "s"])
    p.add_argument("--operator", help="UnitaryOperator JSON file")
    p.add_argument("--pauli", help="Pauli string for --kind pauli")
    p.add_argument("--metric", required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=20260822)

    p = add("reproduce", _cmd_reproduce, "run the acceptance suite, emit CSV")
    p.add_argument(
        "--suite",
        action="append",
        choices=sorted(acceptance.SUITES),
        help="run only this suite (repeatable); default: all",
    )
    return parser


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else int(e.code)
    try:
        result = args.func(args)
        result, code = result if isinstance(result, tuple) else (result, 0)
        _emit(result, args.out)
        return code
    except (SugeoError, np.linalg.LinAlgError, MemoryError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except (KeyError, ValueError, TypeError, AttributeError, OSError) as e:  # bad input files
        print(f"usage error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
