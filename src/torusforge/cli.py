"""Command-line driver.

    torusforge <command> --input FILE [--out DIR] [options]

Each command takes only the options it reads (`COMMANDS`); any other flag
is a UsageError before any work:

    analyze
    melnikov   --mu F, --grid N
    branch
    simulate   --mu F, --eps F
    certify    --mu F, --eps F
    lift

The input document is one self-contained JSON experiment; only "system" is
required, and a key not shown here, at the top or inside an object, is a
DocumentError.  "perturbation" is absent or {"simple": true} (the family
(0, 0, mu*z + beta*eps)), or some of "U", "V", "W" (a missing one is "0"):

    {
      "system": {"P": "...", "Q": "...", "R": "..."},
      "perturbation": {"simple": true}  |  {"U": "...", "V": "...", "W": "..."},
      "interval": [lo, hi],
      "parameters": {"mu": 0.05, "eps": 0.05},
      "tolerances": {"atol": 1e-12, "rtol": 1e-10},
      "ball": {"center": [0, 0, 0], "radius": 1.0},
      "periods": 50,
      "initial_state": [x, y, z]
    }

`--grid` lies in [1, MAX_GRID] and `periods` (simulate) in (0, MAX_PERIODS],
so no input asks for unbounded work; `lift` takes no grid, it reads its
(L*, delta*) off the closed form of Omega (`lift.tune_lift_parameters`).
The `ball` center is finite and its radius finite and > 0; any other value
is an OutOfRange error before any lift work.

Every JSON report embeds the SHA-256 of the input document and the tool
version; each float is written as its shortest round-trip repr and keys are
sorted, so identical runs produce byte-identical output.  A report's
`meta.run` holds the command, the input's basename and the value of each
option the command takes.
A report that would hold NaN or an infinity, which are not JSON, is not
written: the run ends in a NonFiniteReport error.
Exit codes: 0 success, 2 criteria-not-applicable, 1 error.

The averaged equilibrium is the criteria's closed form, read by `melnikov`
and `simulate` and, as its Newton seed, by the return map of `branch` and
`certify` (`ThetaReturnMap.averaged_equilibrium`); only `melnikov` (its
grid) builds a Melnikov pair.  `branch` reads the theorem's hypotheses off
the criteria report (`criteria.hypotheses`).

Each command loads only the layers it runs.  Importing this module runs
`criteria`, `fieldexpr` and `univariate`, which every command reads; the
other layers are bound lazily (`_deferred`) and run on a command's first
use: `averaging` for `melnikov` alone, `flow` for `simulate`,
`branch` and `certify`, `lift` for `lift`, and the return map's solves and
fits (`nsbranch`, `torus`) for `branch` and `certify`.  Only a `certify`
whose probe settles on a curve loads numpy, for the analysis of the sampled
curve; every other command, `branch` and a `certify` that finds no torus
among them, runs on the exact layer and Python floats.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.util
import json
import math
import os
import re
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import List, Tuple

from . import __version__
from .criteria import (
    CriteriaError, CriteriaReport, HopfZeroSystem, PerturbationFamily,
    closed_form_equilibrium, criteria_report, hypotheses, perturbation_functions,
    validate_hopf_zero,
)
from .fieldexpr import FieldExprError, as_poly, format_poly


def _deferred(name: str):
    """This package's submodule `name`, bound now and run on its first
    attribute access (`importlib.util.LazyLoader`).  It is in sys.modules
    and on the package from here on, as an imported module is, so a lookup
    by name (a monkeypatch, a tracer) reaches the module the commands call:
    they read each name off the module at call time, never bind it here."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# the layers past the criteria: each runs on the first name a command reads
# from it, so a command compiles and runs only the layers it calls
averaging = _deferred("averaging")
flow = _deferred("flow")
lift = _deferred("lift")
nsbranch = _deferred("nsbranch")
torus = _deferred("torus")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_APPLICABLE = 2

MAX_GRID = 200          # melnikov writes grid^2 rows
MAX_PERIODS = 1000      # bounds simulate's work and CSV rows (23 025 at the cap on the example)


class UsageError(ValueError):
    """The command line does not parse."""


class OutOfRange(ValueError):
    """A document value lies outside its documented range."""


class DocumentError(ValueError):
    """The input document does not have the documented shape."""


class NonFiniteReport(ValueError):
    """A report would hold NaN or an infinity, which JSON cannot hold."""


def _wrap_floats(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _wrap_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_wrap_floats(v) for v in obj]
    return obj


def write_report(path: str, payload: dict):
    # each float is written as float.__repr__ writes it, the shortest string
    # that reads back to the same double; allow_nan=False refuses NaN and
    # inf, which are not JSON, before the file is opened
    try:
        text = json.dumps(_wrap_floats(payload), sort_keys=True, indent=1,
                          allow_nan=False)
    except ValueError as exc:
        raise NonFiniteReport(f"{os.path.basename(path)}: {exc}") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


def write_csv(path: str, header, rows):
    """Write the CSV `path`: the names of `header`, then one line per row of
    Python ints and floats.  Each value is its repr, values are joined by ","
    and lines end in "\\r\\n", the bytes csv.writer writes on the same rows.
    Every CSV artifact is written here, row by row as `rows` yields them;
    if `rows` raises, the file is removed and the error goes on."""
    fh = open(path, "w", newline="")
    try:
        with fh:
            fh.write(",".join(header) + "\r\n")
            fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)
    except BaseException:
        os.remove(path)
        raise


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(n: int):
    return lambda v: isinstance(v, list) and len(v) == n and all(map(_number, v))


def _object(keys: tuple, values: str, check):
    return (lambda v: isinstance(v, dict) and set(v) <= set(keys)
            and all(map(check, v.values())), f"an object of {values} under {keys}")


# the shape of each key, as (check, description); the expressions in
# "system" and "perturbation" are checked when they are parsed
_SHAPES = {
    "system": _object(("P", "Q", "R"), "expressions", lambda v: True),
    "perturbation": (lambda v: v == {"simple": True} and v["simple"] is True
                     or isinstance(v, dict) and bool(v) and set(v) <= {"U", "V", "W"},
                     '{"simple": true} or an object of "U", "V" and/or "W"'),
    "interval": (_numbers(2), "[lo, hi]"),
    "parameters": _object(("mu", "eps"), "numbers", lambda v: v is None or _number(v)),
    "tolerances": _object(("atol", "rtol"), "numbers", _number),
    "ball": (lambda v: isinstance(v, dict) and set(v) == {"center", "radius"}
             and _numbers(3)(v["center"]) and _number(v["radius"]),
             '{"center": [x, y, z], "radius": r}'),
    "periods": (_number, "a number"),
    "initial_state": (_numbers(3), "[x, y, z]"),
}


def _document(args) -> dict:
    with open(args.input, "rb") as fh:
        raw = fh.read()
    doc = json.loads(raw.decode("utf-8"))
    if not isinstance(doc, dict):
        raise DocumentError("input document must be a JSON object")
    unknown = set(doc) - set(_SHAPES)
    if unknown:
        raise DocumentError(f"unknown document keys {sorted(unknown)}")
    if not isinstance(doc.get("system"), dict):
        raise CriteriaError("input document must define system {P, Q, R}")
    for comp in ("P", "Q", "R"):
        if comp not in doc["system"]:
            raise CriteriaError(f"system is missing component {comp}")
    for key, (check, shape) in _SHAPES.items():
        if key in doc and not check(doc[key]):
            got = f", got keys {sorted(doc[key])}" if isinstance(doc[key], dict) else ""
            raise DocumentError(f"{key} must be {shape}{got}")
    doc["_sha256"] = hashlib.sha256(raw).hexdigest()
    return doc


def _meta(args, doc: dict) -> dict:
    run = {"command": args.command, "input": os.path.basename(args.input)}
    run.update((name, getattr(args, name)) for name in COMMANDS[args.command][1])
    return {"tool": "torusforge", "version": __version__,
            "input_sha256": doc["_sha256"], "run": run}


def _load(args) -> Tuple[dict, HopfZeroSystem, PerturbationFamily]:
    """The input document, its system and its perturbation family."""
    doc = _document(args)
    sys_ = validate_hopf_zero(*(doc["system"][c] for c in "PQR"))
    pert = doc.get("perturbation", {"simple": True})
    if "simple" in pert:
        return doc, sys_, PerturbationFamily.simple(sys_.beta)
    return doc, sys_, PerturbationFamily.from_expressions(*(pert.get(c, "0") for c in "UVW"))


def _not_applicable(args, doc: dict, rep: CriteriaReport,
                    name: str, skipped: str) -> int:
    """Write the criteria-not-applicable report `name`."""
    payload = {"meta": _meta(args, doc), "criteria": rep.to_dict(),
               "error": f"criteria not applicable; {skipped} skipped"}
    write_report(os.path.join(args.out, name), payload)
    return EXIT_NOT_APPLICABLE


def _interval(doc):
    return _finite("interval", doc.get("interval", [-1.0, 1.0]))


def _integrator(doc) -> flow.IntegratorConfig:
    tols = doc.get("tolerances", {})
    return flow.IntegratorConfig(**{k: _float(tols[k]) for k in ("atol", "rtol") if k in tols})


def _float(value) -> float:
    """A JSON number as a float; an infinity of its sign for an integer past
    the float range."""
    try:
        return float(value)
    except OverflowError:
        return -math.inf if value < 0 else math.inf


def _finite(name, values) -> tuple:
    """JSON numbers as floats; NaN, inf or an integer past the float range is
    an OutOfRange error before any work, not a misleading error downstream."""
    values = tuple(map(_float, values))
    if not all(map(math.isfinite, values)):
        raise OutOfRange(f"{name} must be finite, got {list(values)}")
    return values


def _param(doc, args, name):
    """The flag `name` ("mu" or "eps"), or else the document's
    `parameters.<name>`, None where neither gives it.  NaN and inf are
    refused before any work: downstream they end in misleading solver
    errors."""
    value = getattr(args, name)
    if value is None:
        value = doc.get("parameters", {}).get(name)
    if value is not None:
        value = _float(value)
        if not math.isfinite(value):
            raise OutOfRange(f"{name} must be finite, got {value}")
    return value


def _ball(doc) -> lift.Ball:
    """The document's `ball`, the unit ball by default.  A center coordinate
    that is not finite, or a radius that is not finite and > 0, is refused
    before any lift work: the scan overflows on the one and runs over
    x <= 0 on the other."""
    ball_doc = doc.get("ball", {"center": [0.0, 0.0, 0.0], "radius": 1.0})
    center = _finite("ball center", ball_doc["center"])
    radius = _float(ball_doc["radius"])
    if not (math.isfinite(radius) and radius > 0):
        raise OutOfRange(f"ball radius must be finite and > 0, got {radius}")
    return lift.Ball(center, radius)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    doc, sys_, fam = _load(args)
    rep = criteria_report(sys_, fam, _interval(doc))
    payload = {"meta": _meta(args, doc), "criteria": rep.to_dict()}
    write_report(os.path.join(args.out, "analyze.json"), payload)
    return EXIT_OK if rep.applicable else EXIT_NOT_APPLICABLE


def cmd_melnikov(args) -> int:
    doc, sys_, fam = _load(args)
    mu = _param(doc, args, "mu")
    mu = 0.0 if mu is None else mu
    mel = averaging.melnikov_pair(averaging.to_standard_form(sys_, fam))
    r0, w0 = closed_form_equilibrium(perturbation_functions(sys_, fam), mu)
    n = args.grid
    w_values = linspace(w0 - 1.0, w0 + 1.0, n)
    rows = ([r, w, *mel.f1((r, w), mu), *mel.f2_closed((r, w), mu)]
            for r in linspace(0.5 * r0, 1.5 * r0, n) for w in w_values)
    write_csv(os.path.join(args.out, "melnikov.csv"),
              ("r", "w", "f1_1", "f1_2", "f2_1", "f2_2"), rows)
    return EXIT_OK


def linspace(a: float, b: float, n: int) -> List[float]:
    """n evenly spaced floats from a to b, the values of numpy.linspace(a, b,
    n) bit for bit, as its float arithmetic makes them: i * s + a with s =
    (b - a) / (n - 1), or (i / (n - 1)) * (b - a) + a where s rounds to 0,
    and b itself last; 0.0 * (b - a) + a alone for n = 1."""
    span = b - a
    if n == 1:
        return [0.0 * span + a]
    step = span / (n - 1)
    if step == 0:
        values = [i / (n - 1) * span + a for i in range(n)]
    else:
        values = [i * step + a for i in range(n)]
    values[-1] = b
    return values


def cmd_branch(args) -> int:
    doc, sys_, fam = _load(args)
    rep = criteria_report(sys_, fam, _interval(doc))
    if not rep.applicable:
        return _not_applicable(args, doc, rep, "branch.json", "branch")
    tmap = flow.ThetaReturnMap(sys_, fam, nsbranch.RETURN_MAP_INTEGRATOR)
    mu0 = rep.perturbation.mu0
    branch = nsbranch.branch_continuation(tmap, mu0, rep.perturbation.alpha_d)
    slices = nsbranch.lyapunov_slices(tmap, branch)
    jordan = nsbranch.jordan_expansion(branch)
    xi1 = nsbranch.xi_slice(tmap, mu0)
    payload = {
        "meta": _meta(args, doc),
        "criteria": rep.to_dict(),
        "branch": branch.to_dict(),
        "hypotheses": hypotheses(rep),
        "xi_slice_at_mu0": xi1,
        "lyapunov": {"l11": slices.l11, "l12": slices.l12,
                     "samples": [list(v) for v in slices.values]},
        "jordan": {"A1": jordan.A1, "A2": jordan.A2,
                   "m21_1": jordan.m21_1, "m22_1": jordan.m22_1},
    }
    if branch.xi_slices_closed is not None:
        payload["closed_forms"] = asdict(branch.xi_slices_closed)   # Fractions as text
    write_report(os.path.join(args.out, "branch.json"), payload)
    return EXIT_OK


def cmd_simulate(args) -> int:
    doc, sys_, fam = _load(args)
    mu, eps = _param(doc, args, "mu"), _param(doc, args, "eps")
    if mu is None or eps is None:
        raise CriteriaError("simulate requires both mu and eps")
    periods = _float(doc.get("periods", 50))
    if not 0 < periods <= MAX_PERIODS:      # also refuses nan
        raise OutOfRange(f"periods must lie in (0, {MAX_PERIODS}], got {periods}")
    cfg = _integrator(doc)
    x0 = _finite("initial_state", doc["initial_state"]) if "initial_state" in doc else None
    rescaled = flow.RescaledField(sys_, fam)
    field = rescaled.rhs("field", mu, eps)
    if x0 is None:
        # the averaged equilibrium is the criteria's closed form: no standard
        # form or Melnikov pair is built here
        r, w = closed_form_equilibrium(perturbation_functions(sys_, fam), mu)
        x0 = [r + 0.05, 0.0, w]
    steps = flow.integrate(field, x0, (0.0, periods * 2 * math.pi), cfg)
    write_csv(os.path.join(args.out, "trajectory.csv"), ("t", "x", "y", "z"),
              ([t, *y] for t, y in steps))
    return EXIT_OK


def cmd_certify(args) -> int:
    doc, sys_, fam = _load(args)
    mu, eps = _param(doc, args, "mu"), _param(doc, args, "eps")
    if mu is None or eps is None:
        raise CriteriaError("certify requires both mu and eps")
    rep = criteria_report(sys_, fam, _interval(doc))
    if not rep.applicable:
        return _not_applicable(args, doc, rep, "certificate.json", "certification")
    tmap = flow.ThetaReturnMap(sys_, fam, nsbranch.RETURN_MAP_INTEGRATOR)
    point = nsbranch.unit_circle_point(tmap, rep.perturbation.mu0, eps, rep.perturbation.alpha_d)
    cert = torus.certify_torus(tmap, mu, point, rep.base.l12)
    payload = {"meta": _meta(args, doc), "criteria": rep.to_dict(),
               "certificate": cert.to_dict()}
    write_report(os.path.join(args.out, "certificate.json"), payload)
    if cert.curve_points is not None:
        write_csv(os.path.join(args.out, "curve.csv"), ("n", "r", "w"),
                  ([i, *p] for i, p in enumerate(cert.curve_points.tolist())))
    return EXIT_OK


def cmd_lift(args) -> int:
    doc = _document(args)
    seed_field = tuple(as_poly(doc["system"][c]) for c in "PQR")
    plane = lift.find_separating_plane(seed_field, _ball(doc))
    translated = lift.translate_to_origin(plane.field, plane.point)
    tuning = lift.tune_lift_parameters(translated)
    fam = tuning.family
    payload = {
        "meta": _meta(args, doc),
        "plane": {
            "point": [str(v) for v in plane.point],
            "coefficients": [str(v) for v in plane.coefficients],
            "distance_to_ball": plane.plane_distance,
            "jitter": plane.jitter_magnitude,
        },
        "lift": {
            "L_star": str(tuning.L_star), "delta_star": str(tuning.delta_star),
            "degree": fam.degree,
            "char_poly_ok": fam.char_poly_ok,
            "A_coeffs": [str(c) for c in tuning.A_coeffs],
            "A_limit": str(tuning.A_limit),
            "A_limit_printed": str(tuning.A_limit_printed),
        },
        "criteria": tuning.report.to_dict(),
    }
    write_report(os.path.join(args.out, "lift.json"), payload)
    sys_y = tuning.tuned_system
    lines = ["# normalized Hopf-Zero system Y (linear part (-y, x, 0))",
             *(f"{c} = {format_poly(p)}" for c, p in zip("PQR", (sys_y.P, sys_y.Q, sys_y.R))),
             "# lifted field X_{L*, delta*}",
             *(f"X{i} = {format_poly(p)}" for i, p in enumerate(fam.lifted, start=1))]
    with open(os.path.join(args.out, "lifted_system.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK if tuning.report.applicable else EXIT_NOT_APPLICABLE


def _grid(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 1 <= n <= MAX_GRID:
        raise argparse.ArgumentTypeError(f"must lie in [1, {MAX_GRID}], got {n}")
    return n


# the optional flags, as add_argument keywords
_OPTIONS = {
    "mu": {"type": float, "default": None, "help": "mu in place of the document's"},
    "eps": {"type": float, "default": None, "help": "eps in place of the document's"},
    "grid": {"type": _grid, "default": 21, "help": f"grid points per axis, 1 to {MAX_GRID}"},
}

# each command's function and the options it reads: its parser takes
# --input, --out and these, and refuses any other flag
COMMANDS = {
    "analyze": (cmd_analyze, ()),
    "melnikov": (cmd_melnikov, ("mu", "grid")),
    "branch": (cmd_branch, ()),
    "simulate": (cmd_simulate, ("mu", "eps")),
    "certify": (cmd_certify, ("mu", "eps")),
    "lift": (cmd_lift, ()),
}


class _Parser(argparse.ArgumentParser):
    """argparse with typed usage errors: its own exit status 2 would read as
    EXIT_NOT_APPLICABLE."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # any '-<digit>' or '-.<digit>' token is a value, as in Python 3.13+
        # argparse, so `--mu -5.55e-17` parses
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process from COMMANDS: a
    subparser per command, itself a _Parser.  Parsing keeps no state in it,
    each call returns a new namespace."""
    parser = _Parser(
        prog="torusforge",
        description="Torus bifurcation analysis for perturbed Hopf-Zero "
                    "polynomial vector fields")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in COMMANDS.items():
        sub = commands.add_parser(name)
        sub.add_argument("--input", required=True, help="experiment JSON document")
        sub.add_argument("--out", default=".", help="output directory")
        for option in options:
            sub.add_argument(f"--{option}", **_OPTIONS[option])
    return parser


def _error_json(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}


def main(argv=None) -> int:
    """Run one command; a usage error prints its typed error JSON on stderr
    and raises SystemExit(EXIT_ERROR), as argparse exits on one."""
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(json.dumps(_error_json(exc)), file=sys.stderr)
        raise SystemExit(EXIT_ERROR) from None
    os.makedirs(args.out, exist_ok=True)
    try:
        return COMMANDS[args.command][0](args)
    except (CriteriaError, FieldExprError, ValueError, RuntimeError, OSError) as exc:
        err = _error_json(exc)
        path = os.path.join(args.out, f"{args.command}_error.json")
        try:
            write_report(path, err)
        except OSError:
            pass
        print(json.dumps(err), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
