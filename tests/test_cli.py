import ast
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import torusforge
import torusforge.cli
import torusforge.flow
import torusforge.lift
import torusforge.nsbranch
import torusforge.torus
from torusforge import averaging
from torusforge.averaging import melnikov_pair, to_standard_form
from torusforge.cli import (
    EXIT_ERROR, EXIT_NOT_APPLICABLE, EXIT_OK, MAX_GRID, MAX_PERIODS,
    linspace, main, write_csv,
)
from torusforge.criteria import PerturbationFamily, validate_hopf_zero
from torusforge.fieldexpr import MAX_NESTING
from torusforge.flow import MapJet, ThetaReturnMap

from oracles import f2_quadrature
from test_averaging import _benchmark_inputs

EXAMPLE_DOC = {
    "system": {"P": "0", "Q": "y*z", "R": "-x^2 + x*y + z^2"},
    "perturbation": {"simple": True},
    "interval": [-1.0, 1.0],
    "parameters": {"mu": 0.05, "eps": 0.05},
}
LIFT_SYSTEM = {"P": "2 + x + 1/2*z + x^2", "Q": "1 - y + 2*z + y^2",
               "R": "3 + x + z^2"}


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


def test_lift_deterministic_bytes(tmp_path, capsys):
    """A lift is a function of its document: `--seed` is a UsageError, two
    lifts of one document write the same bytes, and lift.json records the
    command and the input alone."""
    doc = _write_doc(tmp_path, {"system": LIFT_SYSTEM})
    with pytest.raises(SystemExit) as exc:
        main(["lift", "--input", doc, "--out", str(tmp_path / "seeded"), "--seed", "1"])
    assert exc.value.code == EXIT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UsageError" and "--seed" in err["message"]
    assert not (tmp_path / "seeded").exists()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["lift", "--input", doc, "--out", str(out)]) == EXIT_OK
    for name in ("lift.json", "lifted_system.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    run = json.loads((out_a / "lift.json").read_text())["meta"]["run"]
    assert run == {"command": "lift", "input": "doc.json"}


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


# not applicable (NondegeneracyFailed): branch and certify write their report at once
NOT_APPLICABLE_DOC = dict(EXAMPLE_DOC, system={"P": "x*z", "Q": "y*z", "R": "x^2 + y^2"})


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    """Every `main` call parses with the one parser of the process, and the
    flags of one call do not reach the next, across a usage error too."""
    assert torusforge.cli.build_parser() is torusforge.cli.build_parser()
    doc = _write_doc(tmp_path, NOT_APPLICABLE_DOC)
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["certify", "--input", doc, "--out", str(first), "--mu", "0.25",
                 "--eps", "-1e-3"]) == EXIT_NOT_APPLICABLE
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--input", doc, "--mu", "abc"])
    assert exc.value.code == EXIT_ERROR
    assert json.loads(capsys.readouterr().err)["error"] == "UsageError"
    assert main(["certify", "--input", doc, "--out", str(second)]) == EXIT_NOT_APPLICABLE
    runs = [json.loads((out / "certificate.json").read_text())["meta"]["run"]
            for out in (first, second)]
    common = {"command": "certify", "input": "doc.json"}
    assert runs[0] == {**common, "mu": 0.25, "eps": -1e-3}
    assert runs[1] == {**common, "mu": None, "eps": None}


def test_exponent_form_negative_values_parse(tmp_path):
    doc = _write_doc(tmp_path, NOT_APPLICABLE_DOC)
    out = tmp_path / "out"
    assert main(["certify", "--input", doc, "--out", str(out),
                 "--mu", "-5.55e-17", "--eps", "-1e-3"]) == EXIT_NOT_APPLICABLE
    run = json.loads((out / "certificate.json").read_text())["meta"]["run"]
    assert run["mu"] == -5.55e-17 and run["eps"] == -1e-3


# a value of each optional flag of the CLI
FLAG_VALUES = {"mu": ["0.1"], "eps": ["0.1"], "grid": ["3"]}
# a document on which each command writes its JSON report at once, and the
# report's name; melnikov and simulate write only CSV
REPORTS = {
    "analyze": (EXAMPLE_DOC, "analyze.json"),
    "branch": (NOT_APPLICABLE_DOC, "branch.json"),
    "certify": (NOT_APPLICABLE_DOC, "certificate.json"),
    "lift": ({"system": LIFT_SYSTEM}, "lift.json"),
}


@pytest.mark.parametrize("command", list(torusforge.cli.COMMANDS))
def test_each_command_takes_only_its_options(tmp_path, capsys, command):
    """A flag the command does not read is a UsageError (exit 1, no report);
    the report's meta.run holds the command, the input and exactly the
    command's options; README's option table is COMMANDS."""
    options = torusforge.cli.COMMANDS[command][1]
    assert set(FLAG_VALUES) == set(torusforge.cli._OPTIONS)
    doc, report = REPORTS.get(command, (EXAMPLE_DOC, None))
    path = _write_doc(tmp_path, doc)
    out = tmp_path / "out"
    for flag in set(FLAG_VALUES) - set(options):
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", path, "--out", str(out), f"--{flag}",
                  *FLAG_VALUES[flag]])
        assert exc.value.code == EXIT_ERROR
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UsageError" and f"--{flag}" in err["message"]
        assert not out.exists()
    if report is not None:
        assert main([command, "--input", path, "--out", str(out)]) in (
            EXIT_OK, EXIT_NOT_APPLICABLE)
        run = json.loads((out / report).read_text())["meta"]["run"]
        assert list(run) == sorted(["command", "input", *options])
        assert (run["command"], run["input"]) == (command, "doc.json")
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = dict(re.findall(r"^\| `(\w+)` +\| ((?:`--\w+`(?:, `--\w+`)*)?) *\|$", readme,
                            re.MULTILINE))
    assert table[command] == ", ".join(f"`--{o}`" for o in options)
    assert set(table) == set(torusforge.cli.COMMANDS)


@pytest.mark.parametrize("command", list(torusforge.cli.COMMANDS))
def test_simple_flag_is_usage_error(tmp_path, capsys, command):
    """The document alone picks the perturbation family: --simple is a
    UsageError on every command and writes nothing, and the commands take
    6 (command, flag) pairs in all (lift takes none: no --seed)."""
    assert sum(len(options) for _, options in torusforge.cli.COMMANDS.values()) == 6
    path = _write_doc(tmp_path, EXAMPLE_DOC)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", path, "--out", str(out), "--simple"])
    assert exc.value.code == EXIT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UsageError" and "--simple" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("command, key, value, named", [
    ("analyze", "perturbation", {"u": "mu*x"}, "'u'"),
    ("analyze", "perturbation", {"simple": True, "U": "mu*x + eps*y"}, "'U', 'simple'"),
    ("analyze", "perturbation", {"simple": False}, "'simple'"),
    ("analyze", "perturbation", {"simple": 1}, "'simple'"),
    ("analyze", "perturbation", {}, "[]"),
    ("simulate", "tolerances", {"atl": 1e-3}, "'atl'"),
    ("simulate", "parameters", {"epsilon": 0.05}, "'epsilon'"),
    ("lift", "ball", {"center": [0, 0, 0], "radius": 1.0, "radii": 2.0}, "'radii'"),
    ("lift", "lift", {"L_values": ["1", "2", "4"]}, "['lift']"),
])
def test_document_object_of_wrong_keys_is_typed_error(tmp_path, capsys, monkeypatch,
                                                      command, key, value, named):
    """A perturbation other than {"simple": true} or some of U, V, W, and a
    key that `parameters`, `tolerances` or `ball` does not know, is a
    DocumentError naming the document's keys, before any work: simulate
    ran at the default tolerances with "atl", and {"u": ...} or
    {"simple": true, "U": ...} read as another family.  `lift` takes no
    grid, so a "lift" object is an unknown top-level key."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started")
    monkeypatch.setattr(torusforge.cli, "validate_hopf_zero", no_work)
    monkeypatch.setattr(torusforge.cli, "as_poly", no_work)
    doc = {"system": LIFT_SYSTEM} if command == "lift" else EXAMPLE_DOC
    path = _write_doc(tmp_path, {**doc, key: value})
    out = tmp_path / "out"
    assert main([command, "--input", path, "--out", str(out)]) == EXIT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DocumentError"
    shape = f"{key} must be" if key in torusforge.cli._SHAPES else "unknown document keys"
    assert err["message"].startswith(shape) and named in err["message"]
    assert json.loads((out / f"{command}_error.json").read_text()) == err
    assert os.listdir(out) == [f"{command}_error.json"]


def test_simple_family_without_beta_is_degenerate_sum(tmp_path, capsys):
    """A system with R200 + R020 = 0 has no beta, so the simple family (here
    an absent perturbation) ends analyze in the DegenerateSum of
    `HopfZeroSystem.beta`."""
    path = _write_doc(tmp_path, {"system": {"P": "x*z", "Q": "y*z", "R": "x^2 - y^2 + z^2"}})
    out = tmp_path / "out"
    assert main(["analyze", "--input", path, "--out", str(out)]) == EXIT_ERROR
    assert json.loads(capsys.readouterr().err)["error"] == "DegenerateSum"
    assert os.listdir(out) == ["analyze_error.json"]


def test_explicit_family_matches_simple_family(tmp_path):
    """On the worked example (beta = +1) the explicit family
    {"W": "mu*z + eps"} is the simple family, as is an absent perturbation:
    the same criteria block in analyze.json and the same bytes of
    melnikov.csv and trajectory.csv."""
    outputs = []
    for name, perturbation in (("simple", {"simple": True}), ("absent", None),
                               ("explicit", {"W": "mu*z + eps"})):
        doc = {k: v for k, v in EXAMPLE_DOC.items() if k != "perturbation"}
        if perturbation is not None:
            doc["perturbation"] = perturbation
        path = _write_doc(tmp_path, dict(doc, periods=3), name=f"{name}.json")
        out = tmp_path / name
        for command in ("analyze", "melnikov", "simulate"):
            assert main([command, "--input", path, "--out", str(out)]) == EXIT_OK
        outputs.append((json.loads((out / "analyze.json").read_text())["criteria"],
                        (out / "melnikov.csv").read_bytes(),
                        (out / "trajectory.csv").read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_unknown_document_key_is_typed_error(tmp_path, capsys):
    """A top-level key the document shape does not know, a typo such as
    "period" for "periods", is a DocumentError naming it, before any work:
    simulate ran 50 periods at the default tolerances on this document."""
    path = _write_doc(tmp_path, dict(EXAMPLE_DOC, period=1, tolerance={"atol": 1e-3}))
    out = tmp_path / "out"
    assert main(["simulate", "--input", path, "--out", str(out)]) == EXIT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DocumentError"
    assert "'period'" in err["message"] and "'tolerance'" in err["message"]
    assert json.loads((out / "simulate_error.json").read_text()) == err
    assert not (out / "trajectory.csv").exists()


def test_unknown_system_key_is_typed_error(tmp_path, capsys, monkeypatch):
    """A key in "system" other than P, Q and R is a DocumentError naming it,
    before any work: a "W" there ran the simple family."""
    def no_work(*args):
        raise AssertionError("work started")
    monkeypatch.setattr(torusforge.cli, "validate_hopf_zero", no_work)
    system = dict(EXAMPLE_DOC["system"], W="mu*z + eps")
    path = _write_doc(tmp_path, {"system": system})
    out = tmp_path / "out"
    assert main(["analyze", "--input", path, "--out", str(out)]) == EXIT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DocumentError"
    assert err["message"].startswith("system must be") and "'W'" in err["message"]
    assert os.listdir(out) == ["analyze_error.json"]


# W on the worked example, the root of eta, and the least |slope| there
# beside the simple family's: two simple roots 2/1000 apart, a simple root
# of slope pi 1e-11, a root at exactly -1/10, and roots at +-10^-300
@pytest.mark.parametrize("W, roots, alpha_d", [
    ("mu^2*z - 1/1000000*z + eps", [-0.001, 0.001], -0.002 * math.pi),
    ("1/100000000000*mu*z + eps", [0.0], math.pi * 1e-11),
    ("mu^2*z - 1/100*z + eps", [-0.1, 0.1], -0.2 * math.pi),
    (f"mu^2*z - 1/1{'0' * 600}*z + eps", [-1e-300, 1e-300], -2e-300 * math.pi),
])
def test_analyze_finds_the_exact_roots_of_eta(tmp_path, W, roots, alpha_d):
    """eta's roots are isolated exactly and correctly rounded; mu0 is the
    lowest of the equally steep ones, and alpha_d is pi eta_num'(mu0) / d,
    nonzero however small."""
    doc = _write_doc(tmp_path, dict(EXAMPLE_DOC, perturbation={"W": W}))
    out = tmp_path / "out"
    assert main(["analyze", "--input", doc, "--out", str(out)]) == EXIT_OK
    crit = json.loads((out / "analyze.json").read_text())["criteria"]["perturbation"]
    assert [r for r, _ in crit["roots"]] == roots and crit["mu0"] == roots[0]
    assert crit["alpha_d"] == pytest.approx(alpha_d, rel=1e-15)


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


@pytest.mark.parametrize("k, command, flags, extra, output", [
    (1000, "melnikov", [], {}, "melnikov.csv"),
    (10 ** 6, "simulate", ["--mu=0.0", "--eps=0.01"], {"periods": 1}, "trajectory.csv"),
])
def test_averaged_equilibrium_in_scaled_units(tmp_path, k, command, flags, extra, output):
    """The worked example with (x, y, z) k times smaller: every nonlinear
    coefficient and the eps term of W times k.  The averaged equilibrium is
    the criteria's closed form, read with no residual bound in the units of
    (x, y, z), so the commands that start from it still run."""
    doc = _write_doc(tmp_path, {
        "system": {"P": "0", "Q": f"{k}*y*z", "R": f"{k}*(-x^2 + x*y + z^2)"},
        "perturbation": {"W": f"mu*z + {k}*eps"}, **extra})
    out = tmp_path / "out"
    assert main([command, "--input", doc, "--out", str(out), *flags]) == EXIT_OK
    assert (out / output).stat().st_size > 0


@pytest.mark.parametrize("doc", [
    dict(EXAMPLE_DOC, interval=[-3, 3]),
    {"system": {"P": "0", "Q": "1/10*y*z", "R": "1/10*(-x^2 + x*y + z^2)"},
     "perturbation": {"W": "mu*z + 1/10*eps"}},
], ids=["interval-3", "units-10"])
def test_branch_hopf_is_local_and_unit_free(tmp_path, doc):
    """H is an exact identity at mu0: neither a criterion interval that
    reaches where the averaged pair turns real (|mu| > 2 on the worked
    example) nor units of (x, y, z) 10 times smaller change it."""
    path = _write_doc(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["branch", "--input", path, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "branch.json").read_text())
    assert report["criteria"]["perturbation"]["mu0"] == 0.0
    assert report["criteria"]["omega"] > 0       # H
    assert set(report["hypotheses"]["details"]) == {"omega0", "l12"}
    assert report["hypotheses"]["details"]["omega0"] > 0


# Omega = -12: the averaged equilibrium is a saddle
NEGATIVE_OMEGA_SYSTEM = {"P": "x*z - 1/2*x^2", "Q": "2*y*z + x*y",
                         "R": "3/2*x^2 + 1/2*y^2 - z^2 + x*z"}


@pytest.mark.parametrize("command, flags, output, rows", [
    ("melnikov", ["--mu=0.0"], "melnikov.csv", 21 * 21),
    ("simulate", ["--mu=0.0", "--eps=0.01"], "trajectory.csv", 25),
])
def test_commands_read_only_the_equilibrium_point(tmp_path, command, flags, output, rows):
    """melnikov and simulate read only the point (r, w) of the averaged
    equilibrium, so they run where Omega < 0 leaves it no complex pair."""
    assert validate_hopf_zero(*NEGATIVE_OMEGA_SYSTEM.values()).omega == -12
    doc = _write_doc(tmp_path, {"system": NEGATIVE_OMEGA_SYSTEM, "periods": 1})
    out = tmp_path / "out"
    assert main([command, "--input", doc, "--out", str(out), *flags]) == EXIT_OK
    assert len((out / output).read_text().splitlines()) == 1 + rows


def test_melnikov_evaluates_one_grid_row_per_call(tmp_path, monkeypatch):
    """melnikov --grid 21 evaluates f1 and f2 once per grid point, on the
    point's two floats, in row order, and nowhere else (the averaged
    equilibrium is the criteria's closed form and evaluates no f1), and
    writes the golden bytes, those of one numpy call per grid row on the
    array of w."""
    calls = {"f1": [], "f2_closed": []}
    for name in calls:
        def counted(self, x, mu, _name=name, _original=getattr(averaging.MelnikovPair, name)):
            calls[_name].append(tuple(map(type, x)))
            return _original(self, x, mu)
        monkeypatch.setattr(averaging.MelnikovPair, name, counted)
    doc = _write_doc(tmp_path, EXAMPLE_DOC)
    out = tmp_path / "out"
    assert main(["melnikov", "--input", doc, "--out", str(out),
                 "--mu", "0.0", "--grid", "21"]) == EXIT_OK
    assert calls == {"f1": [(float, float)] * 21 ** 2, "f2_closed": [(float, float)] * 21 ** 2}
    assert _sha256(out / "melnikov.csv") == MELNIKOV_CSV_SHA256


# melnikov.csv of the worked example at --mu 0.0 --grid 21
MELNIKOV_CSV_SHA256 = "49505537863cd36cf1b9b66c542271fbf359733877aff34d3c249acfad979840"


@pytest.mark.parametrize("floats", [2, 3])
def test_write_csv_bytes_match_csv_module(tmp_path, floats):
    """write_csv writes the bytes of csv.writer on the same rows: an int
    column, as in curve.csv, then floats, signed zero, the smallest
    subnormal, large exponents and 1/3 included."""
    import csv
    values = [-0.0, 5e-324, 1e300, -1e300, 0.1, -2.5e-17, 1.0 / 3.0]
    header = ["n", *"xyz"[:floats]]
    rows = [[i, *(values[(i + j) % len(values)] for j in range(floats))]
            for i in range(len(values))]
    write_csv(str(tmp_path / "out.csv"), header, rows)
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    ref = (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "out.csv").read_bytes() == ref
    assert all(v in ref for v in (b"-0.0", b"5e-324", b"-1e+300", b"\r\n6,"))


@pytest.mark.parametrize("command, flags", [
    ("melnikov", ["--mu=0.0"]),
    ("simulate", ["--mu=0.0", "--eps=0.01"]),
])
def test_coefficient_past_float_range_is_typed_error(tmp_path, capsys, command, flags):
    """A coefficient past the float range (10^400, written out) ends
    melnikov and simulate in a typed FloatRangeExceeded, as it ends analyze,
    not in an OverflowError traceback."""
    system = {"P": "0", "Q": "y*z", "R": "1" + "0" * 400 + "*x^2 + y^2 - z^2"}
    doc = _write_doc(tmp_path, dict(EXAMPLE_DOC, system=system, periods=1))
    out = tmp_path / "out"
    assert main([command, "--input", doc, "--out", str(out), *flags]) == EXIT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FloatRangeExceeded"
    assert json.loads((out / f"{command}_error.json").read_text()) == err


def test_perturbation_coefficient_past_float_range_is_typed_error(tmp_path, capsys):
    """A perturbation coefficient past the float range ends analyze in a
    typed FloatRangeExceeded, not in an OverflowError traceback from the
    family's compiled criteria ingredients."""
    perturbation = {"U": "1" + "0" * 400 + "*mu*x", "V": "0", "W": "mu*z + eps"}
    doc = _write_doc(tmp_path, dict(EXAMPLE_DOC, perturbation=perturbation))
    out = tmp_path / "out"
    assert main(["analyze", "--input", doc, "--out", str(out)]) == EXIT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FloatRangeExceeded"
    assert json.loads((out / "analyze_error.json").read_text()) == err


_TINY_400 = "1/1" + "0" * 400            # 10^-400: 0.0 as a float
_TINY_200 = "1/1" + "0" * 200            # 10^-200: its square is 0.0 as a float
_TINY_60 = "1/1" + "0" * 60              # 10^-60
_UNDERFLOW_SYSTEMS = {
    "S": {"P": "x*z", "Q": "y*z", "R": f"-{_TINY_400}*x^2 + z^2"},
    "d": {"P": f"{_TINY_400}*x*z", "Q": "0", "R": "-x^2 + x*y + z^2"},
    "Sdd": {"P": f"{_TINY_200}*x*z", "Q": "0", "R": f"-{_TINY_200}*x^2 + z^2"},
    # the worked example times 10^-60: ell1 is nonzero, its float -0.0
    "ell1": {"P": "0", "Q": f"{_TINY_60}*y*z",
             "R": f"-{_TINY_60}*x^2 + {_TINY_60}*x*y + {_TINY_60}*z^2"},
}
_ALL_COMMANDS = [("analyze", []), ("melnikov", ["--mu=0.0"]),
                 ("simulate", ["--mu=0.0", "--eps=0.01"]), ("branch", []),
                 ("certify", ["--mu=0.05", "--eps=0.05"])]


@pytest.mark.parametrize("divisor, command, flags", [
    *(("S", c, f) for c, f in _ALL_COMMANDS),
    ("d", "melnikov", ["--mu=0.0"]), ("d", "simulate", ["--mu=0.0", "--eps=0.01"]),
    *(("Sdd", c, f) for c, f in _ALL_COMMANDS if c in ("analyze", "branch", "certify")),
    *(("ell1", c, f) for c, f in _ALL_COMMANDS if c in ("analyze", "branch", "certify")),
])
def test_divisor_underflow_is_typed_error(tmp_path, capsys, divisor, command, flags):
    """A criteria divisor that is nonzero but rounds to 0.0 as a float (S,
    d or S d^2 of `perturbation_functions`) ends each command that divides
    by it in a typed FloatRangeExceeded, not in a ZeroDivisionError
    traceback.  So does a nonzero exact ell1 whose float is 0.0 in each
    command that reads the criteria, not applicable: true with a signless
    ell1 or a ComplexPairLost that names the wrong cause."""
    system = _UNDERFLOW_SYSTEMS[divisor]
    doc = _write_doc(tmp_path, dict(EXAMPLE_DOC, system=system, periods=1))
    out = tmp_path / "out"
    assert main([command, "--input", doc, "--out", str(out), *flags]) == EXIT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FloatRangeExceeded"
    assert json.loads((out / f"{command}_error.json").read_text()) == err


@pytest.mark.parametrize("command, flags", [(c, f) for c, f in _ALL_COMMANDS
                                            if c in ("melnikov", "simulate")])
def test_commands_that_never_divide_by_s_d2_still_run(tmp_path, command, flags):
    """Only Gamma_printed divides by S d^2, so melnikov and simulate, which
    never call it, run on a system whose S d^2 rounds to 0.0."""
    doc = _write_doc(tmp_path, dict(EXAMPLE_DOC, system=_UNDERFLOW_SYSTEMS["Sdd"],
                                    periods=1))
    out = tmp_path / "out"
    assert main([command, "--input", doc, "--out", str(out), *flags]) == EXIT_OK
    assert not (out / f"{command}_error.json").exists()


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
        assert (f2_1, f2_2) == mel.f2_closed((r, w), 0.0)
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
    assert _sha256(out / "trajectory.csv") == SIMULATE_TRAJECTORY_SHA256


# trajectory.csv of simulate on the worked example over 3 periods
SIMULATE_TRAJECTORY_SHA256 = "f20b9247ccaa9e6ea88a20c5bd2dc48adec32c31c5549f62c25fd22fe98bbb3c"


def test_simulate_builds_f1_only(tmp_path, monkeypatch):
    """simulate seeds x0 at the averaged equilibrium, the criteria's closed
    form: one set of eps slices, for the field, and no f2."""
    counts = {"eps_graded_slices": 0, "_averaged_product": 0}
    for name in counts:
        def counted(*args, _name=name, _original=getattr(averaging, name)):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(averaging, name, counted)
    monkeypatch.setattr(torusforge.flow, "eps_graded_slices", averaging.eps_graded_slices)
    doc = dict(EXAMPLE_DOC)
    doc["periods"] = 3
    out = tmp_path / "out"
    assert main(["simulate", "--input", _write_doc(tmp_path, doc), "--out", str(out)]) == EXIT_OK
    assert counts == {"eps_graded_slices": 1, "_averaged_product": 0}
    assert _sha256(out / "trajectory.csv") == SIMULATE_TRAJECTORY_SHA256


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


@pytest.mark.parametrize("command, key, value, error, message", [
    ("simulate", "initial_state", [10 ** 400, 0, 0], "OutOfRange", "got [inf, 0.0, 0.0]"),
    ("simulate", "periods", 10 ** 400, "OutOfRange", "got inf"),
    ("simulate", "tolerances", {"atol": 10 ** 400}, "ValueError", "positive and finite"),
    ("analyze", "interval", [-1, 10 ** 400], "OutOfRange", "got [-1.0, inf]"),
    ("simulate", "initial_state", [math.nan, 0, 0], "OutOfRange", "got [nan, 0.0, 0.0]"),
    ("simulate", "initial_state", [0, math.inf, 0], "OutOfRange", "got [0.0, inf, 0.0]"),
    ("analyze", "interval", [math.nan, 1.0], "OutOfRange", "got [nan, 1.0]"),
    ("analyze", "interval", [-1.0, math.inf], "OutOfRange", "got [-1.0, inf]"),
    ("simulate", "initial_state", [0, -10 ** 400, 0], "OutOfRange", "got [0.0, -inf, 0.0]"),
    ("simulate", "periods", -10 ** 400, "OutOfRange", "got -inf"),
    ("analyze", "interval", [-10 ** 400, 1], "OutOfRange", "got [-inf, 1.0]"),
    ("certify", "parameters", {"mu": -10 ** 400, "eps": 0.05}, "OutOfRange", "got -inf"),
], ids=["initial_state-1e400", "periods-1e400", "tolerances-1e400", "interval-1e400",
        "initial_state-nan", "initial_state-inf", "interval-nan", "interval-inf",
        "initial_state--1e400", "periods--1e400", "interval--1e400", "parameters--1e400"])
def test_document_number_past_float_range_is_typed_error(tmp_path, capsys, command,
                                                        key, value, error, message):
    """An integer past the float range (10^400 or -10^400) in initial_state,
    periods, tolerances, interval or parameters, and NaN or inf in
    initial_state or interval, is a typed error before any work: not an
    OverflowError traceback, nor a StepSizeUnderflow from a NaN start or an
    empty interval from a NaN end.  The message names the value as read, an
    infinity of the integer's sign."""
    doc = _write_doc(tmp_path, {**EXAMPLE_DOC, "periods": 1, key: value})
    out = tmp_path / "out"
    assert main([command, "--input", doc, "--out", str(out)]) == EXIT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error and message in err["message"]
    assert os.listdir(out) == [f"{command}_error.json"]
    assert json.loads((out / f"{command}_error.json").read_text()) == err


def _spy_removals(monkeypatch) -> list:
    """(basename, line count) of each file os.remove removes from here on."""
    removed = []

    def remove(path, _remove=os.remove):
        removed.append((os.path.basename(path), len(Path(path).read_text().splitlines())))
        _remove(path)

    monkeypatch.setattr(os, "remove", remove)
    return removed


def test_simulate_past_the_step_budget_is_typed_error(tmp_path, capsys, monkeypatch):
    """simulate's integration makes at most flow.MAX_STEPS step attempts:
    with the cap at 100, the worked example's 50 periods (about 1150 steps)
    end in exit 1 with a typed StepBudgetExceeded naming the cap, on stderr
    and in simulate_error.json, and no trajectory.csv: the rows streamed
    into it before the error are removed with it."""
    monkeypatch.setattr(torusforge.flow, "MAX_STEPS", 100)
    removed = _spy_removals(monkeypatch)
    doc = _write_doc(tmp_path, EXAMPLE_DOC)
    out = tmp_path / "out"
    assert main(["simulate", "--input", doc, "--out", str(out),
                 "--mu=0.05", "--eps=0.05"]) == EXIT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "StepBudgetExceeded" and "MAX_STEPS = 100" in err["message"]
    assert os.listdir(out) == ["simulate_error.json"]
    assert json.loads((out / "simulate_error.json").read_text()) == err
    [(name, lines)] = removed
    assert name == "trajectory.csv" and lines > 50


def test_simulate_turning_non_finite_mid_run_is_typed_error(tmp_path, capsys, monkeypatch):
    """z' is the constant 10^307 on the z axis: from z = 10^308 the state
    overflows to inf near t = 8 of 63, in an accepted step whose stages stay
    finite.  simulate exits 1 with a typed NonFiniteState naming that time,
    on stderr and in simulate_error.json, and removes the trajectory.csv
    whose rows it streamed before."""
    removed = _spy_removals(monkeypatch)
    doc = _write_doc(tmp_path, {"system": {"P": "0", "Q": "0", "R": "x^2"},
                                "perturbation": {"W": f"{10 ** 307}*eps"},
                                "initial_state": [0.0, 0.0, 1e308], "periods": 10})
    out = tmp_path / "out"
    assert main(["simulate", "--input", doc, "--out", str(out),
                 "--mu=0.0", "--eps=1.0"]) == EXIT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NonFiniteState" and "non-finite state at t = " in err["message"]
    assert os.listdir(out) == ["simulate_error.json"]
    assert json.loads((out / "simulate_error.json").read_text()) == err
    [(name, lines)] = removed
    assert name == "trajectory.csv" and lines > 2      # the header and rows


def _simulate_peak(tmp_path, periods: int) -> int:
    """The tracemalloc peak, in bytes, of one in-process simulate of the
    worked example at (0.05, 0.05) over `periods` periods."""
    doc = _write_doc(tmp_path, {**EXAMPLE_DOC, "periods": periods})
    tracemalloc.start()
    try:
        assert main(["simulate", "--input", doc, "--out", str(tmp_path / "out")]) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_streams_its_steps(tmp_path):
    """simulate keeps no step: its peak memory does not grow with the run.
    At 400 periods (about 9 200 accepted steps, some 1.7 MB if they were
    kept) it peaks within 256 KB of its peak at 20 periods."""
    _simulate_peak(tmp_path, 1)     # the generated code and first-use caches
    short, long = _simulate_peak(tmp_path, 20), _simulate_peak(tmp_path, 400)
    assert long - short <= 256 * 1024, (short, long)


def test_certify_at_eps_zero_is_degenerate_parameter(tmp_path, capsys):
    """At eps = 0 the return map is the identity: certify ends in
    DegenerateParameter from the Neimark-Sacker solve, before any transport,
    not in a secant that cannot converge."""
    doc = _write_doc(tmp_path, EXAMPLE_DOC)
    out = tmp_path / "out"
    args = ["certify", "--input", doc, "--out", str(out), "--mu=0.05", "--eps=0"]
    assert main(args) == EXIT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DegenerateParameter" and "eps = 0" in err["message"]
    assert os.listdir(out) == ["certify_error.json"]
    assert json.loads((out / "certify_error.json").read_text()) == err


def test_certify_singular_newton_step_is_typed_error(tmp_path, capsys, monkeypatch):
    """A D Pi equal to the identity at the certifier's tolerances makes its
    fixed-point Newton step singular: certify exits 1 with a typed
    FixedPointNotFound, on stderr and in certify_error.json, not a traceback.
    The Neimark-Sacker point, at the return map's own tolerances, is solved
    as usual."""
    jet1 = ThetaReturnMap.jet1

    def identity_jet1(tmap, x, mu, eps):
        if tmap.cfg != torusforge.torus.CERTIFY_INTEGRATOR:
            return jet1(tmap, x, mu, eps)
        return MapJet(value=(x[0] + 1e-3, x[1]), A=((1.0, 0.0), (0.0, 1.0)))

    monkeypatch.setattr(ThetaReturnMap, "jet1", identity_jet1)
    doc = _write_doc(tmp_path, EXAMPLE_DOC)
    out = tmp_path / "out"
    args = ["certify", "--input", doc, "--out", str(out), "--mu=-0.2", "--eps=0.02"]
    assert main(args) == EXIT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FixedPointNotFound" and "singular" in err["message"]
    assert os.listdir(out) == ["certify_error.json"]
    assert json.loads((out / "certify_error.json").read_text()) == err


def test_certify_no_torus_solves_one_point(tmp_path, monkeypatch):
    """certify far on the no-torus side: verdict no_torus, no curve.csv, the
    Neimark-Sacker point at the requested eps is solved exactly once, no
    degree-3 jet is made (Newton and the secant read only Pi and D Pi), and
    one probe runs, backward: xi attracts in forward time there.  The probe
    is the one orbit of returns made (`ThetaReturnMap.orbit`)."""
    calls, jets, probes = [], [], []
    solve, jet3 = torusforge.nsbranch.unit_circle_point, ThetaReturnMap.jet3
    orbit = ThetaReturnMap.orbit

    def counted(*args, **kwargs):
        calls.append(args[2])
        return solve(*args, **kwargs)

    def counted_jet3(*args):
        jets.append(args[1:])
        return jet3(*args)

    def counted_orbit(tmap, x0, mu, eps, reverse=False):
        probes.append(reverse)
        return orbit(tmap, x0, mu, eps, reverse)

    monkeypatch.setattr(torusforge.nsbranch, "unit_circle_point", counted)
    monkeypatch.setattr(ThetaReturnMap, "jet3", counted_jet3)
    monkeypatch.setattr(ThetaReturnMap, "orbit", counted_orbit)
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
    solve, jet3 = torusforge.nsbranch.unit_circle_point, ThetaReturnMap.jet3

    def counted_solve(*args, **kwargs):
        points.append(solve(*args, **kwargs))
        return points[-1]

    def counted_jet3(tmap, x0, mu, eps):
        jets.append((tuple(x0), mu, eps))
        return jet3(tmap, x0, mu, eps)

    monkeypatch.setattr(torusforge.nsbranch, "unit_circle_point", counted_solve)
    monkeypatch.setattr(ThetaReturnMap, "jet3", counted_jet3)
    doc = _write_doc(tmp_path, EXAMPLE_DOC)
    assert main(["branch", "--input", doc, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(points) == 5
    assert len({p.eps for p in points}) == 5
    largest = sorted(points, key=lambda p: p.eps, reverse=True)[:3]
    assert sorted(jets) == sorted((tuple(p.xi), p.mu, p.eps) for p in largest)
    assert _sha256(tmp_path / "out" / "branch.json") == BRANCH_JSON_SHA256


# branch.json of branch on the worked example
BRANCH_JSON_SHA256 = "d8478e944640ab7942d5037dfb374537715607970822b89892b0008b25cef0ef"


# certificate.json of certify --mu=-0.2 --eps=0.02 on the worked example
NO_TORUS_CERTIFICATE_SHA256 = "ae515563c50181e261c0f66bd29e9261850aa9a293dbd82e906f3230543becb3"


def test_no_torus_certificate_bytes(tmp_path):
    """The no-torus certificate byte for byte: its returns and jet1
    transports run on the generated right-hand sides, one call per stage,
    and the probe on floats.  Its note names the probe's direction, the one
    in which the fixed point repels: backward, as det D Pi(xi) < 1 there."""
    doc = _write_doc(tmp_path, EXAMPLE_DOC)
    out = tmp_path / "out"
    assert main(["certify", "--input", doc, "--mu=-0.2", "--eps=0.02",
                 "--out", str(out)]) == EXIT_OK
    assert _sha256(out / "certificate.json") == NO_TORUS_CERTIFICATE_SHA256
    cert = json.loads((out / "certificate.json").read_text())["certificate"]
    system = validate_hopf_zero(*EXAMPLE_DOC["system"].values())
    tmap = ThetaReturnMap(system, PerturbationFamily.simple(system.beta),
                          torusforge.torus.CERTIFY_INTEGRATOR)
    (a, b), (c, d) = tmap.jet1(cert["fixed_point"], -0.2, 0.02).A
    assert a * d - b * c < 1.0
    assert cert["observed_stability"] is None
    assert cert["notes"][-1] == ("the probe orbit escapes in reversed time, in which "
                                 "the fixed point repels; no invariant curve")


def test_no_torus_certify_counted_work(tmp_path, monkeypatch):
    """The work of `certify --mu=-0.2 --eps=0.02`, counted off `flow.dop853`:
    integrations by state size (2 floats a return, 6 a jet1 transport) and
    RHS evaluations from each run's StopIteration.value.  The secant starts
    at the exact slope and each fixed-point Newton at the nearest solved
    fixed point: 12 jet1 transports (15 from cold starts).  The 150 probe
    returns run as one warm orbit: with the transports, 37 243 RHS
    evaluations (40 590 from cold starts)."""
    runs, nfev = {}, [0]
    dop853 = torusforge.flow.dop853

    def counted(rhs, t0, t_end, y0, *args):
        runs[len(y0)] = runs.get(len(y0), 0) + 1
        value = yield from dop853(rhs, t0, t_end, y0, *args)
        nfev[0] += value[0]
        return value

    monkeypatch.setattr(torusforge.flow, "dop853", counted)
    doc = _write_doc(tmp_path, EXAMPLE_DOC)
    assert main(["certify", "--input", doc, "--mu=-0.2", "--eps=0.02",
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    assert runs == {6: 12, 2: 150}
    assert nfev[0] == 37243


@pytest.mark.parametrize("command, flags, report", [
    ("certify", ["--mu=-0.2", "--eps=0.02"], "certificate.json"),
    ("branch", [], "branch.json"),
    ("simulate", [], "trajectory.csv"),
])
def test_one_melnikov_pair_per_command(tmp_path, monkeypatch, command, flags, report):
    """The criteria read ell_1 off the jets and build no Melnikov pair, and
    branch reads hypothesis H off the criteria report (`Omega > 0`), so it
    builds neither a standard form nor a pair.  certify and simulate seed at
    the criteria's closed form (certify through the return map's own
    `averaged_equilibrium`) and build neither; each field reads the one set
    of eps slices."""
    counts = {"to_standard_form": 0, "melnikov_pair": 0, "eps_graded_slices": 0}
    for name in counts:
        def counted(*args, _name=name, _original=getattr(averaging, name)):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(averaging, name, counted)
    # the return map's field reads the exact eps slices in flow
    monkeypatch.setattr(torusforge.flow, "eps_graded_slices", averaging.eps_graded_slices)
    doc = _write_doc(tmp_path, EXAMPLE_DOC)
    out = tmp_path / "out"
    assert main([command, "--input", doc, "--out", str(out), *flags]) == EXIT_OK
    assert (out / report).exists()
    assert counts == {"to_standard_form": 0, "melnikov_pair": 0, "eps_graded_slices": 1}


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
    # the exact lift has ell1 = 0; Y adds 1/1000000 z^3 to its R, and its
    # ell1 is -24 S^3 d c = 24 c S^2 Omega, exactly
    crit = report["criteria"]
    assert Fraction(crit["ell1_exact"]) == (24 * Fraction(1, 10 ** 6)
                                            * Fraction(crit["quadratic_sum"]) ** 2
                                            * Fraction(crit["omega_exact"]))
    assert report["plane"]["point"] == [str(2 ** 20), "0", "0"]
    text = (out / "lifted_system.txt").read_text()
    assert "P = " in text and "X1 = " in text
    # the bytes of both reports as the polynomial route of Omega wrote them
    assert _sha256(out / "lift.json") == LIFT_JSON_SHA256
    assert _sha256(out / "lifted_system.txt") == LIFTED_SYSTEM_SHA256


LIFT_JSON_SHA256 = "b6f45c3a8d6d8cb16eb9468fa1261735cc07fbf5bc0715e4f60f7f2b6a589774"
LIFTED_SYSTEM_SHA256 = "cbeb39185599dd6c8397eaa479cf785afa1477adc1e99efe2f2d4e5dae07b885"

# (lift.json, lifted_system.txt) of the `fields` workload's lift seeds at
# seed 0, each of whose kept systems adds 1/1000000 z^3
JITTERED_LIFT_SHA256 = (
    ("bb896d9b2eed78d4b17ac2919c1af07adb029a59f0fd417b4dda250c7f5cb945",
     "158b8f3378b13b3bb3fdb6a48967384ab0afc354e97df3d8cb4fa145647c6946"),
    ("54057c6dc78f155e8c257e4bc905ee2b572815d229688afcaaf2a5427b8383d3",
     "5d3d2c7826751fb4b5e6263dc308ac1446743166cb95204093c1f3d610d0ec70"),
    ("9b27d10686ec05afebfde06c21e3c051dc3eea09c6b6050fe51c6b4178a09419",
     "b9fd17e9b54df1d4bf3950944782b2ae2d4c53cc382936b2d9a4adcd66548aa7"),
    ("fb0c82298267adb39f01e3d0b54743a269e6f56ab63728ee3ae0be49740bcca0",
     "b09ac16585a16e2cb6fc8c80e8c85c16e61c036f79fa13a247eda11b118977c9"),
)


@pytest.mark.parametrize("index", range(len(JITTERED_LIFT_SHA256)))
def test_jittered_lift_bytes(tmp_path, index):
    """Every exact lift has ell1 = 0 and its kept system adds the z^3 term
    (see `test_lift`); the benchmark's lift seeds pin the bytes of that path
    next to the README demo's `test_lift_command`."""
    doc = _benchmark_inputs().write_inputs("fields", 0, str(tmp_path)).lift[index]
    out = tmp_path / "out"
    assert main(["lift", "--input", doc.path, "--out", str(out)]) == EXIT_OK
    assert ((_sha256(out / "lift.json"), _sha256(out / "lifted_system.txt"))
            == JITTERED_LIFT_SHA256[index])


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_missing_input_is_error(tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(tmp_path / "nope.json"),
                 "--out", str(out)]) == EXIT_ERROR


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
    ({"center": [0, 0, 0], "radius": 1e75}, "FloatRangeExceeded"),
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
    "ell1": -Infinity in lift.json, which is not JSON.  Since ell_1 is
    exact, 1e50 lifts (`test_far_ball_lifts_with_exact_ell1`); at 1e75 and
    1e100 the perturbation criteria's S d^2 passes the largest double."""
    path = _write_doc(tmp_path, {"system": LIFT_SYSTEM, "ball": ball})
    out = tmp_path / "out"
    assert main(["lift", "--input", path, "--out", str(out)]) == EXIT_ERROR
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == error
    assert json.loads((out / "lift_error.json").read_text())["error"] == error
    assert not (out / "lift.json").exists()


def test_far_ball_lifts_with_exact_ell1(tmp_path):
    """A plane 1e50 out gives a tuned system with Omega near 8.8e112: the
    float eps-series overflowed there, the exact ell_1, 24 c S^2 Omega (near
    8.4e108), does not."""
    path = _write_doc(tmp_path, {"system": LIFT_SYSTEM,
                                 "ball": {"center": [0, 0, 0], "radius": 1e50}})
    out = tmp_path / "out"
    assert main(["lift", "--input", path, "--out", str(out)]) == EXIT_OK
    crit = json.loads((out / "lift.json").read_text())["criteria"]
    assert crit["applicable"] is True and 1e108 < crit["ell1"] < 1e109
    assert crit["ell1"] == float(Fraction(crit["ell1_exact"]))


def test_lift_coefficient_past_float_range_is_typed_error(tmp_path, capsys):
    """A seed whose X1 has a coefficient past the float range on the
    x1-axis overflows a float at every scanned x: the error names that
    cause, FloatRangeExceeded, not the scan (NoSeparatingXFound)."""
    system = {"P": "1" + "0" * 400 + "*x + x^2", "Q": "1 + y + y^2", "R": "1 + z"}
    path = _write_doc(tmp_path, {"system": system})
    out = tmp_path / "out"
    assert main(["lift", "--input", path, "--out", str(out)]) == EXIT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FloatRangeExceeded" and "x1-axis" in err["message"]
    assert json.loads((out / "lift_error.json").read_text()) == err
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


def test_report_floats_are_shortest_repr(tmp_path):
    """A report writes each float, numpy's included, as its shortest
    round-trip repr."""
    path = tmp_path / "report.json"
    torusforge.cli.write_report(str(path), {"a": 0.1, "b": 1 / 3, "c": np.float64(0.1)})
    assert path.read_text() == '{\n "a": 0.1,\n "b": 0.3333333333333333,\n "c": 0.1\n}\n'


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


# runs in a fresh interpreter: import the CLI, then run analyze, a no-torus
# certify, simulate, melnikov, lift and branch; after each step, whether
# "numpy" is in sys.modules and which torusforge modules have executed (a
# module bound lazily is a plain module only once its code has run; its
# attributes are not read, as a read would run it)
_FOOTPRINT = """
import json, sys, types
import torusforge.cli
doc, sim, lift, out = sys.argv[1:]

def seen_after(step, rc):
    executed = sorted(name.split(".")[1] for name, module in list(sys.modules.items())
                      if name.startswith("torusforge.") and type(module) is types.ModuleType)
    return [step, rc, "numpy" in sys.modules, executed]

steps = [("analyze", doc), ("certify", doc, "--mu=-0.2", "--eps=0.02"), ("simulate", sim),
         ("branch", doc), ("melnikov", doc, "--grid", "4"), ("lift", lift)]
seen = [seen_after("import", None)]
for command, path, *flags in steps:
    rc = torusforge.cli.main([command, "--input", path, "--out", f"{out}/{command}", *flags])
    seen.append(seen_after(command, rc))
print(json.dumps(seen))
"""


def test_each_command_runs_its_layers_without_numpy(tmp_path):
    """A fresh `import torusforge.cli` executes only `cli`, `criteria`,
    `fieldexpr` and `univariate`, and loads no numpy; each command then
    executes only the layers it runs.  analyze adds none.  A certify far on
    the no-torus side adds the return map (`flow`, `nsbranch`, `torus`) but
    neither `averaging` nor `lift`: its fixed point, branch point and probe
    are Python floats, and it writes the bytes of
    NO_TORUS_CERTIFICATE_SHA256.  simulate adds nothing more, and neither
    does branch: its ladder fits are exact, its normalization and
    contractions Python floats, and it reads the theorem's hypotheses off
    the criteria report, so it executes no `averaging`, and it writes the
    bytes of BRANCH_JSON_SHA256.  melnikov then adds `averaging` and lift
    adds `lift`.  No step loads numpy."""
    doc = _write_doc(tmp_path, EXAMPLE_DOC)
    sim = _write_doc(tmp_path, dict(EXAMPLE_DOC, periods=3), name="sim.json")
    lift = _write_doc(tmp_path, {"system": LIFT_SYSTEM}, name="lift.json")
    out = tmp_path / "out"
    proc = _run_fresh(["-c", _FOOTPRINT, doc, sim, lift, str(out)], timeout=120)
    assert proc.returncode == 0, proc.stderr
    base = ["cli", "criteria", "fieldexpr", "univariate"]
    return_map = sorted(base + ["flow", "nsbranch", "torus"])
    with_averaging = sorted(return_map + ["averaging"])
    everything = sorted(with_averaging + ["lift"])
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        ["import", None, False, base], ["analyze", EXIT_OK, False, base],
        ["certify", EXIT_OK, False, return_map], ["simulate", EXIT_OK, False, return_map],
        ["branch", EXIT_OK, False, return_map], ["melnikov", EXIT_OK, False, with_averaging],
        ["lift", EXIT_OK, False, everything]]
    assert _sha256(out / "certify" / "certificate.json") == NO_TORUS_CERTIFICATE_SHA256
    assert _sha256(out / "branch" / "branch.json") == BRANCH_JSON_SHA256


def test_only_torus_imports_numpy():
    """Of the package's modules only `torus`, whose Fourier fit is one QR of
    a 2048-row design, imports numpy; every other module runs on the exact
    layer and Python floats."""
    importers = set()
    for path in Path(torusforge.cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] == "numpy" for m in modules):
                importers.add(path.name)
    assert importers == {"torus.py"}


# span pairs for `linspace`: any finite pair, pairs across 0, and spans of a
# few subnormal spacings, whose step (b - a) / (n - 1) rounds to 0
_SPANS = st.one_of(
    st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)),
    st.tuples(st.floats(-1e3, 0.0), st.floats(0.0, 1e3)),
    st.tuples(st.integers(-8, 8), st.integers(-8, 8)).map(
        lambda k: (k[0] * 5e-324, k[1] * 5e-324)),
)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 200), _SPANS)
@example(1, (-0.5, 2.0))
@example(200, (-1.0, 1.0))
@example(5, (0.0, 5e-324))
@example(3, (-5e-324, 0.0))
def test_linspace_is_numpys_bit_for_bit(n, span):
    """melnikov's grid is numpy.linspace's, bit for bit, as Python floats."""
    a, b = span
    values = linspace(a, b, n)
    assert all(type(v) is float for v in values)
    assert np.array(values).tobytes() == np.linspace(a, b, n).tobytes()


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


def test_simulate_infinite_start_is_typed_error(tmp_path, capsys):
    """At x = 1e160 the example field's x^2 overflows to inf, so the first
    step-size guess is 0: the run ends in a typed StepSizeUnderflow, not in a
    ZeroDivisionError traceback."""
    doc = _write_doc(tmp_path, dict(EXAMPLE_DOC, initial_state=[1e160, 0.0, 0.0],
                                    periods=1))
    out = tmp_path / "out"
    assert main(["simulate", "--input", doc, "--out", str(out)]) == EXIT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "StepSizeUnderflow"
    assert json.loads((out / "simulate_error.json").read_text()) == err
