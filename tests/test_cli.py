import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sugeo import pauli
from sugeo.cli import dispatch
from sugeo.lattice import coverage_bound
from sugeo.metrics import F2, MetricSpec
from sugeo.pauli import U, PauliVector


def run(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def f1_metric(tmp_path):
    return write_json(tmp_path, "f1.json", {"family": "F1"})


@pytest.fixture
def f2_metric(tmp_path):
    return write_json(tmp_path, "f2.json", {"family": "F2"})


def test_metric_eval(capsys, tmp_path, f1_metric):
    vec = write_json(
        tmp_path,
        "v.json",
        PauliVector.from_terms(2, {"XI": 1.0, "ZZ": 2.0}).to_json(),
    )
    code, out, _ = run(capsys, ["metric-eval", "--metric", f1_metric, "--vector", vec])
    assert code == 0
    assert json.loads(out) == {"value": 3.0}


def test_metric_eval_gradient(capsys, tmp_path, f2_metric):
    v = PauliVector.from_terms(1, {"X": 0.6, "Z": 0.8})
    vec = write_json(tmp_path, "v.json", v.to_json())
    code, out, _ = run(
        capsys, ["metric-eval", "--metric", f2_metric, "--vector", vec, "--gradient"]
    )
    assert code == 0
    obj = json.loads(out)
    assert np.allclose(obj["gradient"], 2.0 * v.entries)


def test_out_flag_writes_file(capsys, tmp_path, f1_metric):
    vec = write_json(tmp_path, "v.json", PauliVector.from_terms(1, {"X": 1.0}).to_json())
    dest = tmp_path / "result.json"
    code, out, _ = run(
        capsys,
        ["metric-eval", "--metric", f1_metric, "--vector", vec, "--out", str(dest)],
    )
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text()) == {"value": 1.0}


def test_unknown_flag_is_usage_error(capsys, f1_metric):
    code, _, _ = run(capsys, ["metric-eval", "--nope", f1_metric])
    assert code == 2


def test_no_command_is_usage_error(capsys):
    code, _, _ = run(capsys, [])
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert "metric-eval" in out


def test_domain_error_prints_class_name(capsys, tmp_path):
    metric = write_json(tmp_path, "bad.json", {"family": "F1Delta", "delta": 0.5})
    vec = write_json(tmp_path, "v.json", PauliVector.from_terms(1, {"X": 1.0}).to_json())
    code, _, err = run(capsys, ["metric-eval", "--metric", metric, "--vector", vec])
    assert code == 1
    assert "DeltaTooLarge" in err


def test_missing_file_is_usage_error(capsys, tmp_path, f1_metric):
    code, _, err = run(
        capsys, ["metric-eval", "--metric", f1_metric, "--vector", str(tmp_path / "no.json")]
    )
    assert code == 2
    assert "usage error" in err


def test_coordchange_roundtrip(capsys, tmp_path):
    rng = np.random.default_rng(13)
    x = PauliVector(1, "SU", rng.standard_normal(3) * 0.3)
    y = PauliVector(1, "SU", rng.standard_normal(3))
    inp = write_json(
        tmp_path, "in.json", {"x": x.to_json(), "y": y.to_json(), "direction": "forward"}
    )
    code, out, _ = run(capsys, ["coordchange", "--input", inp])
    assert code == 0
    forward = json.loads(out)
    back_in = write_json(
        tmp_path, "back.json", {"x": x.to_json(), "y": forward, "direction": "backward"}
    )
    code, out, _ = run(capsys, ["coordchange", "--input", back_in])
    assert code == 0
    restored = PauliVector.from_json(json.loads(out))
    assert np.max(np.abs(restored.entries - y.entries)) < 1e-10


def test_coordchange_bad_direction(capsys, tmp_path):
    x = PauliVector.from_terms(1, {"X": 0.1})
    inp = write_json(
        tmp_path, "in.json", {"x": x.to_json(), "y": x.to_json(), "direction": "sideways"}
    )
    code, _, err = run(capsys, ["coordchange", "--input", inp])
    assert code == 2
    assert "usage error" in err


def test_shoot_then_residual(capsys, tmp_path, f2_metric):
    x0 = write_json(tmp_path, "x0.json", PauliVector(1, "SU", np.zeros(3)).to_json())
    y0 = write_json(tmp_path, "y0.json", PauliVector.from_terms(1, {"X": 0.5}).to_json())
    curve_path = str(tmp_path / "curve.json")
    code, out, _ = run(
        capsys,
        [
            "geodesic-shoot", "--metric", f2_metric, "--x0", x0, "--y0", y0,
            "--t", "0.5", "--steps", "50", "--out", curve_path,
        ],
    )
    assert code == 0
    code, out, _ = run(capsys, ["geodesic-residual", "--curve", curve_path])
    assert code == 0
    assert json.loads(out)["residual"] < 1e-6


def test_residual_of_too_short_curve_is_a_domain_error(capsys, tmp_path, f2_metric):
    x0 = write_json(tmp_path, "x0.json", PauliVector(1, "SU", np.zeros(3)).to_json())
    y0 = write_json(tmp_path, "y0.json", PauliVector.from_terms(1, {"X": 0.5}).to_json())
    curve_path = str(tmp_path / "curve.json")
    code, _, _ = run(
        capsys,
        [
            "geodesic-shoot", "--metric", f2_metric, "--x0", x0, "--y0", y0,
            "--t", "0.3", "--steps", "3", "--out", curve_path,
        ],
    )
    assert code == 0 and len(json.loads(open(curve_path).read())["samples"]) == 4
    code, out, err = run(capsys, ["geodesic-residual", "--curve", curve_path])
    assert code == 1 and out == ""
    assert "TooFewSamples" in err


def test_shoot_with_zero_velocity_is_a_domain_error(capsys, tmp_path, f2_metric):
    x0 = write_json(tmp_path, "x0.json", PauliVector(1, "SU", np.zeros(3)).to_json())
    code, out, err = run(
        capsys,
        ["geodesic-shoot", "--metric", f2_metric, "--x0", x0, "--y0", x0, "--t", "0.3"],
    )
    assert code == 1 and out == ""
    assert "ZeroVector" in err


@pytest.mark.parametrize("metric", [{"family": "F1"}, {"family": "Fp", "penalty": {"kind": "step", "k": 4.0}}])
def test_shoot_under_a_non_smooth_family_is_a_domain_error(capsys, tmp_path, metric):
    spec = write_json(tmp_path, "m.json", metric)
    x0 = write_json(tmp_path, "x0.json", PauliVector(1, "SU", np.zeros(3)).to_json())
    y0 = write_json(tmp_path, "y0.json", PauliVector.from_terms(1, {"X": 0.5}).to_json())
    code, out, err = run(capsys, ["geodesic-shoot", "--metric", spec, "--x0", x0, "--y0", y0, "--t", "0.3"])
    assert code == 1 and out == ""
    assert "NotSmoothMetric" in err


def test_shoot_output_is_bit_reproducible(capsys, tmp_path, f2_metric):
    x0 = write_json(tmp_path, "x0.json", PauliVector(1, "SU", np.zeros(3)).to_json())
    y0 = write_json(tmp_path, "y0.json", PauliVector.from_terms(1, {"Y": 0.4}).to_json())
    outs = []
    for name in ("a.json", "b.json"):
        dest = tmp_path / name
        code, _, _ = run(
            capsys,
            [
                "geodesic-shoot", "--metric", f2_metric, "--x0", x0, "--y0", y0,
                "--t", "0.3", "--steps", "30", "--out", str(dest),
            ],
        )
        assert code == 0
        outs.append(dest.read_bytes())
    assert outs[0] == outs[1]


def test_pauli_geodesic_cli(capsys, tmp_path, f1_metric):
    coeffs = write_json(
        tmp_path, "c.json", PauliVector.from_terms(2, {"ZZ": 0.3}).to_json()
    )
    code, out, _ = run(
        capsys,
        [
            "pauli-geodesic", "--generators", "ZI,IZ", "--coeffs", coeffs,
            "--t", "0.8", "--metric", f1_metric,
        ],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["length"] == pytest.approx(0.8 * 0.3)
    assert obj["n"] == 2


def test_cvp_min_and_gate(capsys, tmp_path):
    metric = write_json(
        tmp_path,
        "fp.json",
        {"family": "Fp", "penalty": {"kind": "step", "k": 4.0}, "mode": "U"},
    )
    phases = write_json(
        tmp_path, "ph.json", {"n": 2, "theta": [0.0, 0.0, 0.0, float(np.pi)]}
    )
    code, out, _ = run(capsys, ["cvp-min", "--metric", metric, "--phases", phases])
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(np.pi, rel=1e-12)
    assert obj["certified"] is True


def test_cvp_min_rejects_non_finite(capsys, tmp_path):
    metric = write_json(tmp_path, "f1u.json", {"family": "F1", "mode": "U"})
    phases = write_json(tmp_path, "ph.json", {"n": 1, "theta": [float("nan"), 0.0]})
    code, out, err = run(capsys, ["cvp-min", "--metric", metric, "--phases", phases])
    assert code == 1
    assert out == ""
    assert "NonFiniteInput" in err
    bad_k = write_json(
        tmp_path, "fp.json", {"family": "Fp", "penalty": {"kind": "step", "k": float("inf")}}
    )
    good = write_json(tmp_path, "ok.json", {"n": 1, "theta": [0.0, 0.0]})
    code, _, err = run(capsys, ["cvp-min", "--metric", bad_k, "--phases", good])
    assert code == 1
    assert "NonFiniteInput" in err


@pytest.mark.parametrize("metric", [
    {"family": "F2"},
    {"family": "F1Delta", "delta": 1e-3},
], ids=["F2", "F1Delta"])
def test_metric_eval_rejects_non_finite(capsys, tmp_path, metric):
    spec = write_json(tmp_path, "m.json", metric)
    vec = write_json(
        tmp_path,
        "v.json",
        {"n": 1, "mode": "SU", "entries": [{"pauli": "X", "value": float("nan")}]},
    )
    code, out, err = run(capsys, ["metric-eval", "--metric", spec, "--vector", vec])
    assert code == 1
    assert out == ""
    assert "NonFiniteInput" in err


def test_pauli_geodesic_rejects_nan_time(capsys, tmp_path):
    coeffs = write_json(tmp_path, "z.json", PauliVector.from_terms(1, {"Z": 0.5}).to_json())
    code, out, err = run(
        capsys, ["pauli-geodesic", "--generators", "Z", "--coeffs", coeffs, "--t", "nan"]
    )
    assert code == 1
    assert out == ""
    assert "NonFiniteInput" in err


def test_pauli_geodesic_rejects_a_qubit_count_mismatch(capsys, tmp_path):
    # a 2-qubit subgroup against 1-qubit coefficients is a size fault, not an outside coefficient
    coeffs = write_json(tmp_path, "x.json", PauliVector.from_terms(1, {"X": 0.5}).to_json())
    code, out, err = run(capsys, ["pauli-geodesic", "--generators", "ZI,IZ", "--coeffs", coeffs])
    assert (code, out) == (1, "")
    assert err.startswith("DimensionMismatch")


def test_volume_bound_cli(capsys, tmp_path):
    metric = write_json(tmp_path, "f2u.json", {"family": "F2", "mode": "U"})
    code, out, _ = run(
        capsys, ["volume-bound", "--metric", metric, "--f", "1.0", "--n", "1"]
    )
    assert code == 0
    expected = coverage_bound(MetricSpec(family=F2, mode=U), 1.0, 1)
    assert json.loads(out)["r_lower"] == pytest.approx(expected, rel=1e-12)


def test_volume_bound_rejects_su_metric(capsys, tmp_path):
    metric = write_json(tmp_path, "f2su.json", {"family": "F2", "mode": "SU"})
    code, out, err = run(
        capsys, ["volume-bound", "--metric", metric, "--f", "1.0", "--n", "1"]
    )
    assert code == 1
    assert out == ""
    assert "UnsupportedSpec" in err


def test_lower_bound_cli(capsys, tmp_path, f1_metric):
    circuit = write_json(
        tmp_path,
        "circ.json",
        {
            "n": 2,
            "gates": [
                {"pauli": "ZZ", "alpha": 0.3, "qubits": [0, 1]},
                {"pauli": "X", "alpha": 0.5, "qubits": [0]},
            ],
        },
    )
    code, out, _ = run(capsys, ["lower-bound", "--circuit", circuit, "--metric", f1_metric])
    assert code == 0
    obj = json.loads(out)
    assert obj["gate_count"] == 2
    assert obj["length"] == pytest.approx(0.8, abs=1e-6)
    assert obj["bound_holds"] is True


def test_lower_bound_rejects_nan_alpha(capsys, tmp_path, f1_metric):
    circuit = write_json(
        tmp_path, "circ.json", {"n": 1, "gates": [{"pauli": "X", "alpha": float("nan"), "qubits": [0]}]}
    )
    code, out, err = run(capsys, ["lower-bound", "--circuit", circuit, "--metric", f1_metric])
    assert code == 1
    assert out == ""
    assert "NonFiniteInput" in err


@pytest.mark.parametrize("n, gates", [
    (30, []),
    (-1, []),
    (0, []),
    (9, [{"pauli": "X", "alpha": 0.5, "qubits": [0]}]),
])
def test_lower_bound_checks_the_qubit_range(capsys, tmp_path, f1_metric, n, gates):
    circuit = write_json(tmp_path, "circ.json", {"n": n, "gates": gates})
    code, out, err = run(capsys, ["lower-bound", "--circuit", circuit, "--metric", f1_metric])
    assert (code, out) == (1, "")
    assert err.startswith("DimensionLimit")


def test_isometry_check_cli(capsys, tmp_path, f1_metric):
    fq = write_json(
        tmp_path,
        "fq.json",
        {"family": "Fq", "penalty": {"kind": "step", "k": 4.0, "low_weight_cutoff": 1}},
    )
    code, out, _ = run(
        capsys,
        ["isometry-check", "--kind", "clifford", "--gate", "cnot", "--metric", fq,
         "--samples", "40"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["applicable"] is False
    assert obj["counterexample"] is not None
    assert obj["max_deviation"] > 1e-6

    code, out, _ = run(
        capsys,
        ["isometry-check", "--kind", "pauli", "--pauli", "XY", "--metric", f1_metric,
         "--samples", "40"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["applicable"] is True
    assert obj["counterexample"] is None
    assert obj["max_deviation"] < 1e-10


@pytest.mark.parametrize("n", ["1", "2"])
def test_isometry_check_rejects_a_bad_pauli_string(capsys, f1_metric, n):
    # checked when the map is built, before any size comparison
    argv = ["isometry-check", "--kind", "pauli", "--pauli", "Q", "--n", n, "--metric", f1_metric]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "not a Pauli string" in err


def test_isometry_check_needs_an_operator(capsys, f1_metric):
    code, _, err = run(
        capsys, ["isometry-check", "--kind", "clifford", "--metric", f1_metric]
    )
    assert code == 2
    assert "usage error" in err


def test_reproduce_one_suite(capsys):
    code, out, _ = run(capsys, ["reproduce", "--suite", "f2-length"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "criterion,expected,observed,pass"
    assert len(lines) > 1
    assert all(line.endswith(",true") for line in lines[1:])


def test_reproduce_rejects_unknown_suite(capsys):
    code, _, _ = run(capsys, ["reproduce", "--suite", "not-a-suite"])
    assert code == 2


_VEC = {"n": 1, "mode": "SU", "entries": [{"pauli": "X", "value": 0.5}]}
# each command with a valid JSON file per flag, and the extra flags it needs
_GOOD_FILES = {
    "metric-eval": ({"--metric": {"family": "F2"}, "--vector": _VEC}, []),
    "coordchange": ({"--input": {"x": _VEC, "y": _VEC}}, []),
    "geodesic-shoot": ({"--metric": {"family": "F2"}, "--x0": _VEC, "--y0": _VEC}, ["--steps", "2"]),
    "geodesic-residual": ({"--curve": {}}, []),
    "cvp-min": ({"--metric": {"family": "F2"}, "--phases": {"n": 1, "theta": [0.1, -0.1]}}, []),
    "lower-bound": (
        {
            "--circuit": {"n": 1, "gates": [{"pauli": "X", "alpha": 0.5, "qubits": [0]}]},
            "--metric": {"family": "F2"},
        },
        [],
    ),
    "isometry-check": (
        {
            "--metric": {"family": "F2"},
            "--operator": {"n": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
        },
        ["--kind", "unitary", "--n", "1", "--samples", "2"],
    ),
}
_TARGETS = [
    ("metric-eval", "--metric"),
    ("metric-eval", "--vector"),
    ("coordchange", "--input"),
    ("geodesic-shoot", "--y0"),
    ("geodesic-residual", "--curve"),
    ("cvp-min", "--phases"),
    ("lower-bound", "--circuit"),
    ("isometry-check", "--operator"),
]
_NESTED = [
    ("metric-eval", "--vector", {"n": 1, "entries": "XY"}),
    ("metric-eval", "--vector", {"n": 1, "entries": [{"pauli": "X", "value": None}]}),
    ("metric-eval", "--vector", {"n": 1, "entries": [{"pauli": 5, "value": 1.0}]}),
    ("coordchange", "--input", {"x": {"n": 1, "entries": "XY"}, "y": _VEC}),
    ("coordchange", "--input", {"x": _VEC, "y": {"n": 1, "entries": [{"pauli": "X", "value": None}]}}),
    ("geodesic-shoot", "--x0", {"n": 1, "entries": [{"pauli": 5, "value": 1.0}]}),
    ("lower-bound", "--circuit", {"n": 1, "gates": [3]}),
    ("metric-eval", "--metric", {"family": "Fq", "penalty": [1]}),
    ("cvp-min", "--metric", {"family": "Fq", "penalty": [1]}),
    # integer fields holding a float or a bool, which int() rounded down (true to 1) and ran
    ("cvp-min", "--phases", {"n": 1.9, "theta": [0.1, -0.1]}),
    ("lower-bound", "--circuit", {"n": 2.7, "gates": [{"pauli": "X", "alpha": 0.5, "qubits": [0]}]}),
    ("lower-bound", "--circuit", {"n": 2, "gates": [{"pauli": "X", "alpha": 0.5, "qubits": [True]}]}),
    ("metric-eval", "--vector", {**_VEC, "n": 1.5}),
    ("metric-eval", "--vector", {**_VEC, "n": True}),
    ("metric-eval", "--metric", {"family": "Fq", "penalty": {"kind": "step", "k": 4.0, "low_weight_cutoff": 1.0}}),
    ("isometry-check", "--operator", {"n": 1.0, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}),
]


def _run_with(capsys, tmp_path, command, flag, payload):
    files, extra = _GOOD_FILES[command]
    argv = [command, *extra]
    for f, good in files.items():
        argv += [f, write_json(tmp_path, f.strip("-") + ".json", payload if f == flag else good)]
    return run(capsys, argv)


# test_shoot_then_residual runs geodesic-residual on a curve that geodesic-shoot wrote
@pytest.mark.parametrize("command", sorted(set(_GOOD_FILES) - {"geodesic-residual"}))
def test_good_files_run(capsys, tmp_path, command):
    """The valid files that the tests below spoil one at a time."""
    code, _, err = _run_with(capsys, tmp_path, command, None, None)
    assert code == 0, err


@pytest.mark.parametrize("payload", [[1, 2], 3, "text", None], ids=["list", "number", "string", "null"])
@pytest.mark.parametrize("command,flag", _TARGETS)
def test_json_that_is_not_an_object_is_usage_error(capsys, tmp_path, command, flag, payload):
    code, out, err = _run_with(capsys, tmp_path, command, flag, payload)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ")


@pytest.mark.parametrize("command,flag,payload", _NESTED)
def test_json_of_the_wrong_nested_shape_is_usage_error(capsys, tmp_path, command, flag, payload):
    code, out, err = _run_with(capsys, tmp_path, command, flag, payload)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ")


def test_curve_segments_must_be_json_integers(capsys, tmp_path):
    from sugeo.geodesic import shoot_geodesic

    curve = shoot_geodesic(MetricSpec(family=F2), np.zeros(3), np.array([0.1, 0.0, 0.2]), 0.01, steps=4).to_json()
    for segments, expected in (([0], 0), ([0.0], 2), ([False], 2)):
        path = write_json(tmp_path, "curve.json", {**curve, "segments": segments})
        code, out, err = run(capsys, ["geodesic-residual", "--curve", path])
        assert code == expected, (segments, err)


_KEYS = st.sampled_from(["x", "y", "direction", "n", "mode", "entries", "pauli", "value"])
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 5)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["X", "Z", "XY", "SU", "U", "forward", "backward"])
    | st.text(max_size=3)
)
_JSON = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS | st.text(max_size=2), inner, max_size=4),
    max_leaves=16,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=_JSON)
def test_coordchange_never_raises_on_arbitrary_json(capsys, tmp_path, payload):
    code, _, _ = run(capsys, ["coordchange", "--input", write_json(tmp_path, "in.json", payload)])
    assert code in (0, 1, 2)


def _shoot_argv(tmp_path, *extra):
    metric = write_json(tmp_path, "fq.json", {"family": "Fq", "penalty": {"kind": "step", "k": 4.0}})
    x0 = write_json(tmp_path, "x0.json", PauliVector.zero(2).to_json())
    y0 = write_json(tmp_path, "y0.json", PauliVector.from_terms(2, {"XI": 0.4, "ZZ": -0.3}).to_json())
    return ["geodesic-shoot", "--metric", metric, "--x0", x0, "--y0", y0, *extra]


def test_shoot_backwards_takes_the_default_step_count(capsys, tmp_path):
    code, out, err = run(capsys, _shoot_argv(tmp_path, "--t", "-0.05"))
    assert code == 0, err
    default = json.loads(out)
    code, out, _ = run(capsys, _shoot_argv(tmp_path, "--t", "-0.05", "--steps", "50"))
    assert code == 0 and json.loads(out) == default
    assert len(default["samples"]) == 51 and default["samples"][-1]["t"] == pytest.approx(-0.05)


@pytest.mark.parametrize("extra, code, error", [
    (["--steps", "0"], 2, "usage error"),
    (["--steps", "-1"], 2, "usage error"),
    (["--t", "1e300", "--steps", "10"], 1, "NonFiniteInput"),
    (["--t", "inf"], 1, "NonFiniteInput"),
    (["--t=-inf", "--steps", "5"], 1, "NonFiniteInput"),
    (["--t", "nan", "--steps", "3"], 1, "NonFiniteInput"),
    (["--t", "1e300"], 1, "StepLimitExceeded"),
    (["--t", "1e12"], 1, "StepLimitExceeded"),
    (["--t=-1e306"], 1, "StepLimitExceeded"),
    (["--steps", str(pauli.MAX_BYTES // 2560)], 1, "StepLimitExceeded"),  # one step over the budget at n = 2
])
def test_shoot_rejects_bad_time_arguments(capsys, tmp_path, extra, code, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run(capsys, _shoot_argv(tmp_path, *extra))
    assert (got, out) == (code, "")
    assert err.startswith(error)


@pytest.mark.parametrize("t", ["inf", "-inf"])
def test_pauli_geodesic_rejects_infinite_time(capsys, tmp_path, t):
    # --t=VALUE: argparse would read a bare "-inf" as an option
    coeffs = write_json(tmp_path, "z.json", PauliVector.from_terms(1, {"Z": 0.5}).to_json())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, ["pauli-geodesic", "--generators", "Z", "--coeffs", coeffs, f"--t={t}"]
        )
    assert (code, out) == (1, "")
    assert err.startswith("NonFiniteInput")


@pytest.mark.parametrize("extra, error", [
    (["--n", "20"], "DimensionLimit"),
    (["--n", "20", "--kind", "clifford", "--gate", "hadamard"], "DimensionLimit"),
    (["--samples", "100000000000000"], "StepLimitExceeded"),
])
def test_isometry_check_refuses_before_it_allocates(capsys, f1_metric, extra, error):
    argv = ["isometry-check", "--kind", "complex_conjugation", "--metric", f1_metric, *extra]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith(error)


# ---------------------------------------------------------------------------
# argv fuzz: every subcommand, bounded numbers; exit 0, 1 or 2, never a traceback

_SPECS = [
    {"family": "F1"},
    {"family": "F2", "mode": "U"},
    {"family": "Fq", "penalty": {"kind": "step", "k": 4.0, "low_weight_cutoff": 1}},
    {"family": "FpDelta", "penalty": {"kind": "table", "values": [1, 2, 3]}, "delta": 1e-2},
]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    from sugeo.geodesic import shoot_geodesic

    root = tmp_path_factory.mktemp("fuzz")

    def put(name, obj):
        path = root / name
        path.write_text(json.dumps(obj))
        return str(path)

    v1 = PauliVector.from_terms(1, {"Z": 0.5, "X": 0.1})
    v2 = PauliVector.from_terms(2, {"ZZ": 0.3, "XI": -0.2})
    curve = shoot_geodesic(MetricSpec(family=F2), v1.zero(1), v1, 0.01, steps=8)
    z1, z2 = put("z1.json", PauliVector.zero(1).to_json()), put("z2.json", PauliVector.zero(2).to_json())
    return {
        "metric": [put(f"m{i}.json", s) for i, s in enumerate(_SPECS)],
        "vector": [put("v1.json", v1.to_json()), put("v2.json", v2.to_json()), z1,
                   put("u1.json", PauliVector.from_terms(1, {"I": 0.2, "Z": 0.1}, mode=U).to_json())],
        "input": [put("cc.json", {"x": v1.to_json(), "y": v1.to_json()}),
                  put("cc2.json", {"x": v2.to_json(), "y": v2.to_json(), "direction": "backward"})],
        "curve": [put("curve.json", curve.to_json())],
        "phases": [put("p1.json", {"n": 1, "theta": [0.4, -0.4]}),
                   put("p2.json", {"n": 2, "theta": [0.1, 2.0, -3.0, 0.9]})],
        "x0": {1: z1, 2: z2},
        "circuit": [put("c.json", {"n": 2, "gates": [{"pauli": "ZZ", "alpha": 0.3, "qubits": [0, 1]},
                                                     {"pauli": "X", "alpha": 0.9, "qubits": [1]}]})],
    }


_N = st.integers(-2, 6).map(str)
_STEPS = st.integers(-2, 60).map(str)
_T = (st.floats(-0.06, 0.06) | st.sampled_from([np.nan, np.inf, -np.inf])).map(repr)
_SAMPLES = st.integers(-2, 50).map(str)


def _fuzz_argv(draw, files):
    def pick(key):
        return draw(st.sampled_from(files[key]))

    def maybe(flag, values):  # one word, so that argparse reads "-1e-05" as a value
        return [f"{flag}={draw(values)}"] if draw(st.booleans()) else []

    command = draw(st.sampled_from([
        "metric-eval", "coordchange", "geodesic-shoot", "geodesic-residual", "pauli-geodesic",
        "cvp-min", "volume-bound", "lower-bound", "isometry-check", "reproduce",
    ]))
    if command == "metric-eval":
        return [command, "--metric", pick("metric"), "--vector", pick("vector"),
                *(["--gradient"] if draw(st.booleans()) else [])]
    if command == "coordchange":
        return [command, "--input", pick("input")]
    if command == "geodesic-shoot":
        y0 = pick("vector")
        x0 = files["x0"][2 if y0.endswith("v2.json") else 1]
        return [command, "--metric", pick("metric"), "--x0", x0, "--y0", y0,
                *maybe("--t", _T), *maybe("--steps", _STEPS), *maybe("--n-cap", _N)]
    if command == "geodesic-residual":
        return [command, "--curve", pick("curve")]
    if command == "pauli-geodesic":
        gens = draw(st.sampled_from(["Z", "X,Z", "ZI,IZ", "ZZ,XX", "Q", ""]))
        return [command, "--generators", gens, "--coeffs", pick("vector"), *maybe("--t", _T),
                *maybe("--metric", st.sampled_from(files["metric"]))]
    if command == "cvp-min":
        return [command, "--metric", pick("metric"), "--phases", pick("phases")]
    if command == "volume-bound":
        f = (st.floats(-0.5, 1.5) | st.sampled_from([np.nan, np.inf])).map(repr)
        return [command, "--metric", pick("metric"), "--n", draw(_N), *maybe("--f", f)]
    if command == "lower-bound":
        return [command, "--circuit", pick("circuit"), "--metric", pick("metric")]
    if command == "isometry-check":
        kind = draw(st.sampled_from(["pauli", "complex_conjugation", "clifford", "local_unitary", "unitary"]))
        return [command, "--kind", kind, "--metric", pick("metric"), *maybe("--n", _N),
                *maybe("--samples", _SAMPLES), *maybe("--gate", st.sampled_from(["cnot", "hadamard", "s"])),
                *maybe("--pauli", st.sampled_from(["X", "XY", "ZZZ"])),
                *maybe("--seed", st.integers(-2, 5).map(str))]
    return [command, "--suite", draw(st.sampled_from(["and-cvp", "isometry", "volume", "nope"]))]


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_argv_fuzz(capsys, fuzz_files, data):
    argv = _fuzz_argv(data.draw, fuzz_files)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err, (argv, err)
