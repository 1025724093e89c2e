"""Command-line surface: JSON in, JSON out, CSV for the reproduce suite.

Exit codes: 0 success, 1 domain error (the error class name is printed
verbatim; a failed allocation, MemoryError, counts as one), 2 usage
error, which includes an input file that is not JSON or whose JSON has
the wrong shape.  Output goes to stdout unless --out is given; JSON is
emitted with sorted keys so fixed-seed runs are bit-reproducible.
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


def _emit(obj, out_path):
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
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
    _emit(out, args.out)
    return 0


def _cmd_coordchange(args):
    obj = _load(args.input)
    x = PauliVector.from_json(obj["x"])
    y = PauliVector.from_json(obj["y"])
    direction = obj.get("direction", "forward")
    if direction == "forward":
        res = change_coords_forward(x, y)
    elif direction == "backward":
        res = change_coords_backward(x, y)
    else:
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    _emit(res.to_json(), args.out)
    return 0


def _cmd_geodesic_shoot(args):
    spec = MetricSpec.from_json(_load(args.metric))
    x0 = PauliVector.from_json(_load(args.x0))
    y0 = PauliVector.from_json(_load(args.y0))
    curve = shoot_geodesic(spec, x0, y0, args.t, steps=args.steps, n_cap=args.n_cap)
    _emit(curve.to_json(), args.out)
    return 0


def _cmd_geodesic_residual(args):
    curve = Curve.from_json(_load(args.curve))
    _emit({"residual": float(el_residual(curve.spec, curve))}, args.out)
    return 0


def _cmd_pauli_geodesic(args):
    gens = tuple(s for s in args.generators.split(",") if s)
    S = stabilizer_span(gens)
    coeffs = PauliVector.from_json(_load(args.coeffs))
    out = pauli_geodesic(S, coeffs, args.t).to_json()
    if args.metric:
        spec = MetricSpec.from_json(_load(args.metric))
        out["length"] = float(args.t * norm(spec, coeffs))
    _emit(out, args.out)
    return 0


def _cmd_cvp_min(args):
    spec = MetricSpec.from_json(_load(args.metric))
    diag = DiagonalUnitary.from_json(_load(args.phases))
    res = cvp_minimal_pauli_geodesic(spec, diag)
    m = [int(v) for v in res.minimizer]
    _emit({"value": float(res.value), "m": m, "certified": bool(res.certified)}, args.out)
    return 0


def _cmd_volume_bound(args):
    spec = MetricSpec.from_json(_load(args.metric))
    _emit({"r_lower": float(coverage_bound(spec, args.f, args.n))}, args.out)
    return 0


def _cmd_lower_bound(args):
    circuit = Circuit.from_json(_load(args.circuit))
    spec = MetricSpec.from_json(_load(args.metric))
    traj = circuit_to_curve(circuit, spec)
    _emit(
        {
            "length": float(traj.length),
            "gate_count": traj.gate_count,
            "bound_holds": bool(traj.bound_holds),
        },
        args.out,
    )
    return 0


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
    if args.kind == "pauli":
        if not args.pauli:
            raise ValueError("--kind pauli needs --pauli STRING")
        iso = IsometryMap("pauli", pauli=args.pauli)
    elif args.kind == "complex_conjugation":
        iso = IsometryMap("complex_conjugation")
    else:
        if args.gate:
            op = _named_gate(args.gate, args.n)
        elif args.operator:
            op = UnitaryOperator.from_json(_load(args.operator)).matrix
        else:
            raise ValueError(f"--kind {args.kind} needs --gate or --operator")
        iso = IsometryMap(args.kind, operator=op)
    res = isometry_check(iso, spec, samples=args.samples, n=args.n, seed=args.seed)
    _emit(
        {
            "max_deviation": float(res.max_deviation),
            "applicable": bool(res.applicable),
            "counterexample": (
                None if res.counterexample is None else res.counterexample.to_json()
            ),
        },
        args.out,
    )
    return 0


def _cmd_reproduce(args):
    rows = acceptance.run_all(args.suite or None)
    text = acceptance.to_csv(rows)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(r.passed for r in rows) else 1


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
        return args.func(args)
    except SugeoError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except (np.linalg.LinAlgError, MemoryError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except (KeyError, ValueError, TypeError, AttributeError, OSError) as e:  # bad input files
        print(f"usage error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
