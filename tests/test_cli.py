import json

import numpy as np
import pytest

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


def test_volume_bound_cli(capsys, tmp_path):
    metric = write_json(tmp_path, "f2u.json", {"family": "F2", "mode": "U"})
    code, out, _ = run(
        capsys, ["volume-bound", "--metric", metric, "--f", "1.0", "--n", "1"]
    )
    assert code == 0
    expected = coverage_bound(MetricSpec(family=F2, mode=U), 1.0, 1)
    assert json.loads(out)["r_lower"] == pytest.approx(expected, rel=1e-12)


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
