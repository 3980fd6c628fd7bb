import hashlib
import json
import math
import os
import subprocess
import sys
import time

import pytest

import torusforge
import torusforge.cli
import torusforge.torus
from torusforge import averaging
from torusforge.averaging import melnikov_pair, to_standard_form
from torusforge.cli import (
    EXIT_ERROR, EXIT_NOT_APPLICABLE, EXIT_OK, MAX_GRID, MAX_LIFT_SAMPLES, MAX_PERIODS,
    main,
)
from torusforge.criteria import PerturbationFamily, validate_hopf_zero
from torusforge.fieldexpr import MAX_NESTING
from torusforge.flow import ThetaReturnMap

from oracles import f2_quadrature

EXAMPLE_DOC = {
    "system": {"P": "0", "Q": "y*z", "R": "-x^2 + x*y + z^2"},
    "perturbation": {"simple": True},
    "interval": [-1.0, 1.0],
    "parameters": {"mu": 0.05, "eps": 0.05},
}


def _write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_analyze_example(tmp_path):
    doc = _write_doc(tmp_path, EXAMPLE_DOC)
    out = tmp_path / "out"
    assert main(["analyze", "--input", doc, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "analyze.json").read_text())
    assert report["criteria"]["omega"] == 2.0
    assert abs(report["criteria"]["ell1"] + 48.0) <= 1e-9
    assert report["criteria"]["applicable"] is True
    assert report["meta"]["tool"] == "torusforge"
    assert len(report["meta"]["input_sha256"]) == 64


def test_analyze_deterministic_bytes(tmp_path):
    doc = _write_doc(tmp_path, EXAMPLE_DOC)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["analyze", "--input", doc, "--out", str(out_a), "--seed", "0"])
    main(["analyze", "--input", doc, "--out", str(out_b), "--seed", "0"])
    assert (out_a / "analyze.json").read_bytes() == (out_b / "analyze.json").read_bytes()


def test_threads_variable_is_ignored(tmp_path, monkeypatch):
    monkeypatch.setenv("TORUSFORGE_THREADS", "abc")
    doc = _write_doc(tmp_path, EXAMPLE_DOC)
    assert main(["analyze", "--input", doc, "--out", str(tmp_path / "out")]) == EXIT_OK
    run = json.loads((tmp_path / "out" / "analyze.json").read_text())["meta"]["run"]
    assert "threads" not in run and "format" not in run


def test_format_flag_rejected(tmp_path, capsys):
    doc = _write_doc(tmp_path, EXAMPLE_DOC)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--input", doc, "--out", str(tmp_path), "--format", "csv"])
    assert exc.value.code == EXIT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UsageError" and "--format" in err["message"]
    assert not (tmp_path / "analyze.json").exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_exponent_form_negative_values_parse(tmp_path):
    doc = _write_doc(tmp_path, EXAMPLE_DOC)
    out = tmp_path / "out"
    assert main(["analyze", "--input", doc, "--out", str(out),
                 "--mu", "-5.55e-17", "--eps", "-1e-3"]) == EXIT_OK
    run = json.loads((out / "analyze.json").read_text())["meta"]["run"]
    assert run["mu"] == -5.55e-17 and run["eps"] == -1e-3


def test_analyze_linear_term_error(tmp_path):
    doc = _write_doc(tmp_path, {
        "system": {"P": "x", "Q": "y*z", "R": "z^2"},
        "perturbation": {"simple": True},
    })
    out = tmp_path / "out"
    assert main(["analyze", "--input", doc, "--out", str(out)]) == EXIT_ERROR
    err = json.loads((out / "analyze_error.json").read_text())
    assert err["error"] == "LinearTermPresent"


def test_analyze_not_applicable(tmp_path):
    doc = _write_doc(tmp_path, {
        "system": {"P": "x*z", "Q": "y*z", "R": "x^2 + y^2"},
        "perturbation": {"simple": True},
    })
    out = tmp_path / "out"
    assert main(["analyze", "--input", doc, "--out", str(out)]) == EXIT_NOT_APPLICABLE
    report = json.loads((out / "analyze.json").read_text())
    assert report["criteria"]["applicable"] is False
    assert "NondegeneracyFailed" in report["criteria"]["reasons"]


def test_melnikov_csv(tmp_path):
    doc = _write_doc(tmp_path, EXAMPLE_DOC)
    out = tmp_path / "out"
    assert main(["melnikov", "--input", doc, "--out", str(out),
                 "--grid", "4", "--mu", "0.0"]) == EXIT_OK
    lines = (out / "melnikov.csv").read_text().splitlines()
    assert lines[0] == "r,w,f1_1,f1_2,f2_1,f2_2"
    assert len(lines) == 1 + 16


def test_melnikov_f2_is_exact(tmp_path):
    """The report's f2 is the exact closed form, bit for bit, and the
    independent quadrature of the standard form agrees with it."""
    doc = _write_doc(tmp_path, EXAMPLE_DOC)
    out = tmp_path / "out"
    assert main(["melnikov", "--input", doc, "--out", str(out),
                 "--grid", "3", "--mu", "0.0"]) == EXIT_OK
    rows = [[float(v) for v in line.split(",")]
            for line in (out / "melnikov.csv").read_text().splitlines()[1:]]
    assert len(rows) == 9
    system = EXAMPLE_DOC["system"]
    mel = melnikov_pair(to_standard_form(
        validate_hopf_zero(system["P"], system["Q"], system["R"]),
        PerturbationFamily.simple(beta=1)))
    for r, w, _, _, f2_1, f2_2 in rows:
        assert [f2_1, f2_2] == mel.f2_closed((r, w), 0.0).tolist()
        q = f2_quadrature(mel, (r, w), 0.0)
        assert max(abs(f2_1 - q[0]), abs(f2_2 - q[1])) <= 1e-12


@pytest.mark.parametrize("grid", ["0", "-3", str(MAX_GRID + 1)])
def test_melnikov_grid_out_of_range(tmp_path, capsys, grid):
    doc = _write_doc(tmp_path, EXAMPLE_DOC)
    with pytest.raises(SystemExit) as exc:
        main(["melnikov", "--input", doc, "--out", str(tmp_path), "--grid", grid])
    assert exc.value.code == EXIT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UsageError" and "--grid" in err["message"]
    assert not (tmp_path / "melnikov.csv").exists()


def test_simulate(tmp_path):
    doc = dict(EXAMPLE_DOC)
    doc["periods"] = 3
    path = _write_doc(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["simulate", "--input", path, "--out", str(out)]) == EXIT_OK
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x,y,z"
    assert len(lines) > 10


@pytest.mark.parametrize("periods", [1e12, MAX_PERIODS + 1, math.inf,
                                     math.nan, 0, -5])
def test_simulate_periods_out_of_range(tmp_path, capsys, periods):
    """A document cannot ask for an unbounded integration: periods outside
    (0, MAX_PERIODS] end in a typed error before any step is taken."""
    path = _write_doc(tmp_path, dict(EXAMPLE_DOC, periods=periods))
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["simulate", "--input", path, "--out", str(out)]) == EXIT_ERROR
    assert time.perf_counter() - start < 5.0
    assert json.loads(capsys.readouterr().err)["error"] == "OutOfRange"
    err = json.loads((out / "simulate_error.json").read_text())
    assert err["error"] == "OutOfRange" and "periods" in err["message"]
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("command, flags, parameters, report", [
    ("certify", ["--eps=nan"], {"mu": 0.05, "eps": 0.05}, "certificate.json"),
    ("certify", ["--mu=inf"], {"mu": 0.05, "eps": 0.05}, "certificate.json"),
    ("certify", [], {"mu": math.nan, "eps": 0.05}, "certificate.json"),
    ("simulate", ["--eps=-inf"], {"mu": 0.05, "eps": 0.05}, "trajectory.csv"),
    ("simulate", [], {"mu": 0.05, "eps": 10 ** 400}, "trajectory.csv"),
])
def test_non_finite_parameter_rejected(tmp_path, capsys, command, flags, parameters,
                                       report):
    """NaN or inf mu or eps, from a flag or from the document (json reads
    NaN, and an integer past the float range), is an OutOfRange error before
    any work, not a solver failure downstream."""
    path = _write_doc(tmp_path, dict(EXAMPLE_DOC, parameters=parameters, periods=1))
    out = tmp_path / "out"
    assert main([command, "--input", path, "--out", str(out)] + flags) == EXIT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "OutOfRange" and "finite" in err["message"]
    assert not (out / report).exists()


def test_certify_no_torus_solves_one_point(tmp_path, monkeypatch):
    """certify far on the no-torus side: verdict no_torus, no curve.csv, the
    Neimark-Sacker point at the requested eps is solved exactly once, no
    degree-3 jet is made (Newton and the secant read only Pi and D Pi), and
    one probe runs, backward: xi attracts in forward time there."""
    calls, jets, probes = [], [], []
    solve, jet3 = torusforge.cli.unit_circle_point, ThetaReturnMap.jet3
    probe = torusforge.torus._probe

    def counted(*args, **kwargs):
        calls.append(args[3])
        return solve(*args, **kwargs)

    def counted_jet3(*args):
        jets.append(args[1:])
        return jet3(*args)

    def counted_probe(tmap, x0, mu, eps, reverse, cfg):
        probes.append(reverse)
        return probe(tmap, x0, mu, eps, reverse, cfg)

    monkeypatch.setattr(torusforge.cli, "unit_circle_point", counted)
    monkeypatch.setattr(ThetaReturnMap, "jet3", counted_jet3)
    monkeypatch.setattr(torusforge.torus, "_probe", counted_probe)
    doc = _write_doc(tmp_path, EXAMPLE_DOC)
    out = tmp_path / "out"
    rc = main(["certify", "--input", doc, "--mu=-0.2", "--eps=0.02", "--out", str(out)])
    assert rc == EXIT_OK
    cert = json.loads((out / "certificate.json").read_text())["certificate"]
    assert cert["verdict"] == "no_torus"
    assert (cert["mu"], cert["eps"]) == (-0.2, 0.02)
    assert not (out / "curve.csv").exists()
    assert calls == [0.02]
    assert jets == []
    assert probes == [True]


def test_branch_solves_five_points_and_makes_three_jet3(tmp_path, monkeypatch):
    """branch solves each rung of its one ladder once (5 unit_circle_point
    calls at 5 distinct eps) and makes a degree-3 jet only where its tensors
    are read: 3 jet3 calls, at the xi, mu and eps of the three largest rungs
    (the Lyapunov slices), and none elsewhere."""
    points, jets = [], []
    solve, jet3 = averaging.unit_circle_point, ThetaReturnMap.jet3

    def counted_solve(*args, **kwargs):
        points.append(solve(*args, **kwargs))
        return points[-1]

    def counted_jet3(tmap, x0, mu, eps):
        jets.append((tuple(x0), mu, eps))
        return jet3(tmap, x0, mu, eps)

    monkeypatch.setattr(averaging, "unit_circle_point", counted_solve)
    monkeypatch.setattr(ThetaReturnMap, "jet3", counted_jet3)
    doc = _write_doc(tmp_path, EXAMPLE_DOC)
    assert main(["branch", "--input", doc, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(points) == 5
    assert len({p.eps for p in points}) == 5
    largest = sorted(points, key=lambda p: p.eps, reverse=True)[:3]
    assert sorted(jets) == sorted((tuple(p.xi), p.mu, p.eps) for p in largest)


def test_lift_command(tmp_path):
    doc = _write_doc(tmp_path, {
        "system": {"P": "2 + x + 1/2*z + x^2", "Q": "1 - y + 2*z + y^2",
                   "R": "3 + x + z^2"},
        "ball": {"center": [0, 0, 0], "radius": 1.0},
    })
    out = tmp_path / "out"
    assert main(["lift", "--input", doc, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "lift.json").read_text())
    assert report["lift"]["char_poly_ok"] is True
    assert report["lift"]["A_limit"] == report["lift"]["A_limit_printed"]
    assert report["criteria"]["applicable"] is True
    text = (out / "lifted_system.txt").read_text()
    assert "P = " in text and "X1 = " in text
    # the bytes of both reports as the polynomial route of Omega wrote them
    assert _sha256(out / "lift.json") == LIFT_JSON_SHA256
    assert _sha256(out / "lifted_system.txt") == LIFTED_SYSTEM_SHA256


LIFT_JSON_SHA256 = "3feb953748712f8235e869661e09fb7d1cf45bc63bce38b000af45fc1b77c1b9"
LIFTED_SYSTEM_SHA256 = "03bf9484e693ab0f3acf0a9b26c67e5fa7926aee586630cbb421f516e32af943"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_missing_input_is_error(tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(tmp_path / "nope.json"),
                 "--out", str(out)]) == EXIT_ERROR


LIFT_SYSTEM = {"P": "2 + x + 1/2*z + x^2", "Q": "1 - y + 2*z + y^2",
               "R": "3 + x + z^2"}
NUMBER_P = {"system": {"P": 5, "Q": "0", "R": "-x^2"}}


@pytest.mark.parametrize("command, doc", [
    ("analyze", NUMBER_P),
    ("lift", NUMBER_P),
    ("analyze", dict(EXAMPLE_DOC, interval=[1])),
    ("analyze", dict(EXAMPLE_DOC, perturbation=[1])),
    ("lift", {"system": LIFT_SYSTEM, "ball": {"radius": 1}}),
    ("analyze", ["x"]),
    ("lift", ["x"]),
])
def test_malformed_document_is_typed_error(tmp_path, capsys, command, doc):
    """A document of the wrong shape ends in a typed error, not a traceback."""
    path = _write_doc(tmp_path, doc)
    assert main([command, "--input", path, "--out", str(tmp_path / "out")]) == EXIT_ERROR
    assert "error" in json.loads(capsys.readouterr().err.splitlines()[-1])


@pytest.mark.parametrize("lift, error", [
    ({"L_values": ["1/0", "2", "4"]}, "DocumentError"),
    ({"delta_values": ["1/4", "1/0", "1/16"]}, "DocumentError"),
    ({"L_values": ["one", "2", "4"]}, "DocumentError"),
    ({"L_values": ["1e999999999", "2", "4"]}, "DocumentError"),
    ({"L_values": [math.nan, "2", "4"]}, "DocumentError"),
    ({"delta_values": ["1/4", "1/16", "1/16"]}, "LiftError"),
    ({"L_values": ["1", "2"]}, "LiftError"),
    ({"L_values": [1, 1.0, "2/2", "2"]}, "LiftError"),
    ({"delta_values": ["1/4", "1/16", "1/8"]}, "LiftError"),
    ({"delta_values": ["0", "1/4", "1/16"]}, "LiftError"),
    ({"delta_values": ["-1/4", "1/4", "1/16"]}, "LiftError"),
    ({"L_values": [str(k + 1) for k in range(MAX_LIFT_SAMPLES + 1)]}, "OutOfRange"),
    ({"delta_values": [f"1/{(k + 2) ** 2}" for k in range(MAX_LIFT_SAMPLES + 1)]},
     "OutOfRange"),
])
def test_bad_lift_grid_is_typed_error(tmp_path, capsys, monkeypatch, lift, error):
    """A lift grid value that is no rational, a grid of fewer than three
    distinct values or of more than MAX_LIFT_SAMPLES, or a delta that is no
    positive rational square ends in a typed error JSON and exit 1 before
    any lift work: "1/0" and repeated values ended in a ZeroDivisionError
    traceback, two values in an untyped ValueError."""
    def no_lift_work(*args, **kwargs):
        raise AssertionError("lift work started")
    monkeypatch.setattr(torusforge.cli, "find_separating_plane", no_lift_work)
    monkeypatch.setattr(torusforge.cli, "tune_lift_parameters", no_lift_work)
    path = _write_doc(tmp_path, {"system": LIFT_SYSTEM, "lift": lift})
    out = tmp_path / "out"
    assert main(["lift", "--input", path, "--out", str(out)]) == EXIT_ERROR
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == error
    assert json.loads((out / "lift_error.json").read_text())["error"] == error
    assert not (out / "lift.json").exists()


@pytest.mark.parametrize("ball, error", [
    ({"center": [0, 0, 0], "radius": 1e200}, "NoSeparatingXFound"),
    ({"center": [0, 0, 0], "radius": 1e300}, "NoSeparatingXFound"),
    ({"center": [0, 0, 0], "radius": 1.7e308}, "NoSeparatingXFound"),
    ({"center": [0, 0, 0], "radius": math.inf}, "OutOfRange"),
    ({"center": [0, 0, 0], "radius": 10 ** 400}, "OutOfRange"),
    ({"center": [0, 0, 0], "radius": math.nan}, "OutOfRange"),
    ({"center": [0, 0, 0], "radius": -1}, "OutOfRange"),
    ({"center": [0, 0, 0], "radius": 0}, "OutOfRange"),
    ({"center": [math.inf, 0, 0], "radius": 1}, "OutOfRange"),
    ({"center": [0, math.nan, 0], "radius": 1}, "OutOfRange"),
    ({"center": [0, 0, 0], "radius": 1e50}, "FloatRangeExceeded"),
    ({"center": [0, 0, 0], "radius": 1e100}, "FloatRangeExceeded"),
])
def test_bad_ball_is_typed_error(tmp_path, capsys, ball, error):
    """A ball whose center is not finite, or whose radius is not finite and
    > 0, is an OutOfRange error; a radius so large that the field, or x
    itself, overflows a float at every scanned x finds no separating x, and
    one that finds a plane so far out that the tuned system's criteria
    overflow a float is a FloatRangeExceeded.  Each ends in a typed
    error JSON and exit 1: a radius of 1e200, 1e300 or inf ended in an
    OverflowError traceback, NaN in an untyped ValueError, a center at
    inf or a radius of -1 in exit 0, a radius of 1e100 in an OverflowError
    traceback under the criteria and one of 1e50 in exit 0 with
    "ell1": -Infinity in lift.json, which is not JSON."""
    path = _write_doc(tmp_path, {"system": LIFT_SYSTEM, "ball": ball})
    out = tmp_path / "out"
    assert main(["lift", "--input", path, "--out", str(out)]) == EXIT_ERROR
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == error
    assert json.loads((out / "lift_error.json").read_text())["error"] == error
    assert not (out / "lift.json").exists()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_report_with_non_finite_number_is_not_written(tmp_path, value):
    """write_report refuses NaN and infinities, which JSON cannot hold, with
    a NonFiniteReport (a ValueError, so main maps it to a typed error JSON
    and exit 1), before the file is opened."""
    path = tmp_path / "report.json"
    with pytest.raises(torusforge.cli.NonFiniteReport, match="report.json"):
        torusforge.cli.write_report(str(path), {"ell1": value, "ok": 1.0})
    assert not path.exists()


def test_lift_grid_at_the_cap_runs(tmp_path):
    """A grid of MAX_LIFT_SAMPLES values is within the cap."""
    values = [str(k + 1) for k in range(MAX_LIFT_SAMPLES)]
    path = _write_doc(tmp_path, {"system": LIFT_SYSTEM, "lift": {"L_values": values}})
    assert main(["lift", "--input", path, "--out", str(tmp_path / "out")]) == EXIT_OK


def test_repeated_lift_grid_values_are_read_once(tmp_path):
    """Repeated values in a grid with three distinct ones give the report of
    the distinct grid."""
    reports = []
    for deltas in (["1/4", "1/16", "1/16", "1/64"], ["1/4", "1/16", "1/64"]):
        path = _write_doc(tmp_path, {"system": LIFT_SYSTEM,
                                     "lift": {"delta_values": deltas}})
        out = tmp_path / f"out{len(deltas)}"
        assert main(["lift", "--input", path, "--out", str(out)]) == EXIT_OK
        reports.append(json.loads((out / "lift.json").read_text())["lift"])
    assert reports[0] == reports[1]


def test_bad_tolerance_rejected(tmp_path, capsys):
    doc = _write_doc(tmp_path, dict(EXAMPLE_DOC, tolerances={"atol": -1}))
    assert main(["simulate", "--input", doc, "--out", str(tmp_path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ValueError"
    err = json.loads((tmp_path / "simulate_error.json").read_text())
    assert err["error"] == "ValueError" and "positive" in err["message"]


@pytest.mark.parametrize("tolerances", [{"atol": math.nan}, {"atol": math.inf},
                                        {"rtol": math.nan}, {"rtol": math.inf}])
def test_non_finite_tolerance_rejected(tmp_path, capsys, tolerances):
    """NaN and inf tolerances are refused up front: NaN ended in a step-size
    underflow at t = 0 and inf integrated with no error control."""
    doc = _write_doc(tmp_path, dict(EXAMPLE_DOC, tolerances=tolerances))
    assert main(["simulate", "--input", doc, "--out", str(tmp_path)]) == EXIT_ERROR
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    err = json.loads((tmp_path / "simulate_error.json").read_text())
    assert err["error"] == "ValueError" and "finite" in err["message"]
    assert not (tmp_path / "trajectory.csv").exists()


def test_nested_power_fails_fast(tmp_path):
    """A short document whose expansion explodes is refused before it is
    multiplied out: ((x+y+z+1)^12)^2 took a minute to fail before."""
    for P in ("((x+y+z+1)^12)^2", "((x^12)^12)^12"):
        doc = _write_doc(tmp_path, dict(EXAMPLE_DOC, system={"P": P, "Q": "y*z", "R": "z^2"}))
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main(["analyze", "--input", doc, "--out", str(out)]) == EXIT_ERROR
        assert time.perf_counter() - start < 5.0
        err = json.loads((out / "analyze_error.json").read_text())
        assert err["error"] == "ExpressionTooLarge"


@pytest.mark.parametrize("P", ["(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x"])
def test_deep_nesting_is_syntax_error(tmp_path, capsys, P):
    """3000 nested parentheses or unary minuses end in a typed error at the
    first level past MAX_NESTING, not in a RecursionError."""
    doc = _write_doc(tmp_path, dict(EXAMPLE_DOC, system={"P": P, "Q": "y*z", "R": "z^2"}))
    out = tmp_path / "out"
    assert main(["analyze", "--input", doc, "--out", str(out)]) == EXIT_ERROR
    assert json.loads(capsys.readouterr().err)["error"] == "FieldSyntaxError"
    err = json.loads((out / "analyze_error.json").read_text())
    assert err["error"] == "FieldSyntaxError"
    assert f"offset {MAX_NESTING}" in err["message"]


def test_invalid_schema(tmp_path):
    doc = _write_doc(tmp_path, {"perturbation": {"simple": True}})
    assert main(["analyze", "--input", doc, "--out", str(tmp_path)]) == EXIT_ERROR


def _run_fresh(args, timeout=60):
    """Run `python -c/-m ...` in a fresh interpreter on this package."""
    src = os.path.dirname(os.path.dirname(torusforge.__file__))
    return subprocess.run([sys.executable] + args, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=timeout)


def test_cli_import_loads_no_scipy():
    """scipy is a test dependency only: a fresh interpreter that imports the
    CLI loads no scipy module."""
    proc = _run_fresh(["-c", "import sys, torusforge.cli; print(sorted("
                       "m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_simulate_nan_start_fails_fast(tmp_path):
    """At x = y = 1e200 the example field is inf - inf = NaN, so the first
    step size is NaN: the run ends in a typed StepSizeUnderflow instead of a
    step-size loop that never ends."""
    doc = _write_doc(tmp_path, dict(EXAMPLE_DOC, initial_state=[1e200, 1e200, 0.0],
                                    periods=1))
    proc = _run_fresh(["-m", "torusforge.cli", "simulate", "--input", doc,
                       "--out", str(tmp_path / "out")])
    assert proc.returncode == EXIT_ERROR
    assert json.loads(proc.stderr.splitlines()[-1])["error"] == "StepSizeUnderflow"
