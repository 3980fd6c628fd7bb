"""Command-line driver.

    torusforge <analyze|melnikov|branch|simulate|certify|lift> --input FILE
               [--mu F] [--eps F] [--grid N] [--seed N]
               [--out DIR] [--simple]

The input document is one self-contained JSON experiment:

    {
      "system": {"P": "...", "Q": "...", "R": "..."},
      "perturbation": {"U": "...", "V": "...", "W": "..."}  |  {"simple": true},
      "interval": [lo, hi],
      "parameters": {"mu": 0.05, "eps": 0.05},
      "tolerances": {"atol": 1e-12, "rtol": 1e-10},
      "ball": {"center": [0, 0, 0], "radius": 1.0},
      "lift": {"L_values": ["1", "2", "4"], "delta_values": ["1/4", "1/16", "1/64"]},
      "periods": 50
    }

`--grid` lies in [1, MAX_GRID], `periods` (simulate) in (0, MAX_PERIODS]
and each `lift` grid holds at most MAX_LIFT_SAMPLES values, so no input asks
for unbounded work.  The `ball` center is finite and its radius finite and
> 0; any other value is an OutOfRange error before any lift work.

Every JSON report embeds the SHA-256 of the input document and the tool
version; floats are serialized with 17 significant digits and keys are
sorted, so identical runs (including --seed) produce byte-identical output.
A report that would hold NaN or an infinity, which are not JSON, is not
written: the run ends in a NonFiniteReport error.
Exit codes: 0 success, 2 criteria-not-applicable, 1 error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from . import __version__
from .averaging import (
    averaged_equilibrium, branch_continuation, hypothesis_check,
    jordan_expansion, lyapunov_slices, melnikov_pair, to_standard_form,
    unit_circle_point, xi_slice,
)
from .criteria import (
    CriteriaError, CriteriaReport, HopfZeroSystem, PerturbationFamily,
    criteria_report, validate_hopf_zero,
)
from .fieldexpr import FieldExprError, as_poly, format_poly
from .flow import IntegratorConfig, RescaledField, ThetaReturnMap, integrate
from .lift import (
    Ball, find_separating_plane, lift_samples, translate_to_origin, tune_lift_parameters,
)
from .torus import certify_torus

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_APPLICABLE = 2

MAX_GRID = 200          # melnikov writes grid^2 rows
MAX_PERIODS = 1000      # simulate keeps each accepted step (23 025 at the cap on the example)
MAX_LIFT_SAMPLES = 64   # lift samples Omega three times per L value


class UsageError(ValueError):
    """The command line does not parse."""


class OutOfRange(ValueError):
    """A document value lies outside its documented range."""


class DocumentError(ValueError):
    """The input document does not have the documented shape."""


class NonFiniteReport(ValueError):
    """A report would hold NaN or an infinity, which JSON cannot hold."""


@dataclass
class RunSpec:
    command: str
    input_path: str
    mu: Optional[float]
    eps: Optional[float]
    grid: int
    seed: int
    out_dir: str
    simple: bool = False

    def to_dict(self):
        return {"command": self.command, "input": os.path.basename(self.input_path),
                "mu": self.mu, "eps": self.eps, "grid": self.grid,
                "seed": self.seed, "simple": self.simple}


class _Float17(float):
    def __repr__(self):
        return format(float(self), ".17g")


def _wrap_floats(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, float):
        return _Float17(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _wrap_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_wrap_floats(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_wrap_floats(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return _Float17(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def write_report(path: str, payload: dict):
    # indent forces the pure-python encoder, which honors __repr__ of floats;
    # allow_nan=False refuses NaN and inf, which are not JSON, before the
    # file is opened
    try:
        text = json.dumps(_wrap_floats(payload), sort_keys=True, indent=1,
                          allow_nan=False)
    except ValueError as exc:
        raise NonFiniteReport(f"{os.path.basename(path)}: {exc}") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(n: int):
    return lambda v: isinstance(v, list) and len(v) == n and all(map(_number, v))


def _values(check):
    return lambda v: isinstance(v, dict) and all(map(check, v.values()))


# the shape of each optional key, as (check, description); the expressions in
# "system" and "perturbation" are checked when they are parsed
_SHAPES = {
    "perturbation": (lambda v: isinstance(v, dict), "an object"),
    "interval": (_numbers(2), "[lo, hi]"),
    "parameters": (_values(lambda v: v is None or _number(v)), "an object of numbers"),
    "tolerances": (_values(_number), "an object of numbers"),
    "ball": (lambda v: isinstance(v, dict) and _numbers(3)(v.get("center"))
             and _number(v.get("radius")), '{"center": [x, y, z], "radius": r}'),
    "lift": (_values(lambda v: isinstance(v, list)
                     and all(isinstance(e, str) or _number(e) for e in v)),
             "an object of lists of rationals"),
    "periods": (_number, "a number"),
    "initial_state": (_numbers(3), "[x, y, z]"),
}


def _document(spec: RunSpec) -> dict:
    with open(spec.input_path, "rb") as fh:
        raw = fh.read()
    doc = json.loads(raw.decode("utf-8"))
    if not isinstance(doc, dict):
        raise DocumentError("input document must be a JSON object")
    if not isinstance(doc.get("system"), dict):
        raise CriteriaError("input document must define system {P, Q, R}")
    for comp in ("P", "Q", "R"):
        if comp not in doc["system"]:
            raise CriteriaError(f"system is missing component {comp}")
    for key, (check, shape) in _SHAPES.items():
        if key in doc and not check(doc[key]):
            raise DocumentError(f"{key} must be {shape}")
    doc["_sha256"] = hashlib.sha256(raw).hexdigest()
    return doc


def _meta(spec: RunSpec, doc: dict) -> dict:
    return {"tool": "torusforge", "version": __version__,
            "input_sha256": doc["_sha256"], "run": spec.to_dict()}


def _load(spec: RunSpec) -> Tuple[dict, HopfZeroSystem, PerturbationFamily]:
    """The input document, its system and its perturbation family (the
    simple one under --simple)."""
    doc = _document(spec)
    sys_ = validate_hopf_zero(*(doc["system"][c] for c in "PQR"))
    pert = doc.get("perturbation", {"simple": True})
    if spec.simple or pert.get("simple"):
        if sys_.quadratic_sum == 0:
            raise CriteriaError("simple family undefined: R200 + R020 = 0")
        return doc, sys_, PerturbationFamily.simple(sys_.beta)
    return doc, sys_, PerturbationFamily.from_expressions(
        pert.get("U", "0"), pert.get("V", "0"), pert.get("W", "0"))


def _not_applicable(spec: RunSpec, doc: dict, rep: CriteriaReport,
                    name: str, skipped: str) -> int:
    """Write the criteria-not-applicable report `name`."""
    payload = {"meta": _meta(spec, doc), "criteria": rep.to_dict(),
               "error": f"criteria not applicable; {skipped} skipped"}
    write_report(os.path.join(spec.out_dir, name), payload)
    return EXIT_NOT_APPLICABLE


def _interval(doc):
    iv = doc.get("interval", [-1.0, 1.0])
    return (float(iv[0]), float(iv[1]))


def _integrator(doc) -> IntegratorConfig:
    tols = doc.get("tolerances", {})
    return IntegratorConfig(atol=float(tols.get("atol", 1e-12)),
                            rtol=float(tols.get("rtol", 1e-10)))


# a rational in text: an integer, a decimal or integer/integer; no exponent,
# which would let a short string such as "1e999999999" ask for a huge power
_RATIONAL = re.compile(r"\s*[+-]?(\d+/\d+|\d+\.?\d*|\.\d+)\s*")


def _rational(value) -> Optional[Fraction]:
    """A JSON number or a rational in text as a Fraction; None for any
    other text, a zero denominator, NaN or inf."""
    if not (_number(value) or _RATIONAL.fullmatch(value)):
        return None
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        return None


def _lift_samples(lift_doc: dict, key: str, squares: bool = False):
    """The grid `lift.<key>` as checked rationals, None when the document
    does not give it: more than MAX_LIFT_SAMPLES values is an OutOfRange
    error, a value that is no rational (such as "1/0") a DocumentError, too
    few distinct values or a delta that is no positive rational square a
    LiftError, before any lift work."""
    if key not in lift_doc:
        return None
    if len(lift_doc[key]) > MAX_LIFT_SAMPLES:
        raise OutOfRange(f"lift.{key} holds at most {MAX_LIFT_SAMPLES} values, "
                         f"got {len(lift_doc[key])}")
    values = [_rational(v) for v in lift_doc[key]]
    if None in values:
        raise DocumentError(f"lift.{key} must be rationals with nonzero "
                            f"denominators, got {lift_doc[key]!r}")
    return lift_samples(key, values, squares)


def _float(value) -> float:
    """A JSON number as a float; inf for an integer past the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _params(doc, spec):
    """(mu, eps), each from its flag or else from the document's
    `parameters`, None where neither gives it.  NaN and inf are refused
    before any work: downstream they end in misleading solver errors."""
    pars = doc.get("parameters", {})
    out = []
    for name, flag in (("mu", spec.mu), ("eps", spec.eps)):
        value = flag if flag is not None else pars.get(name)
        if value is not None:
            value = _float(value)
            if not math.isfinite(value):
                raise OutOfRange(f"{name} must be finite, got {value}")
        out.append(value)
    return tuple(out)


def _ball(doc) -> Ball:
    """The document's `ball`, the unit ball by default.  A center coordinate
    that is not finite, or a radius that is not finite and > 0, is refused
    before any lift work: the scan overflows on the one and runs over
    x <= 0 on the other."""
    ball_doc = doc.get("ball", {"center": [0.0, 0.0, 0.0], "radius": 1.0})
    center = tuple(_float(v) for v in ball_doc["center"])
    radius = _float(ball_doc["radius"])
    if not all(map(math.isfinite, center)):
        raise OutOfRange(f"ball center must be finite, got {list(center)}")
    if not (math.isfinite(radius) and radius > 0):
        raise OutOfRange(f"ball radius must be finite and > 0, got {radius}")
    return Ball(center, radius)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_analyze(spec: RunSpec) -> int:
    doc, sys_, fam = _load(spec)
    rep = criteria_report(sys_, fam, _interval(doc))
    payload = {"meta": _meta(spec, doc), "criteria": rep.to_dict()}
    write_report(os.path.join(spec.out_dir, "analyze.json"), payload)
    return EXIT_OK if rep.applicable else EXIT_NOT_APPLICABLE


def cmd_melnikov(spec: RunSpec) -> int:
    doc, sys_, fam = _load(spec)
    mu, _ = _params(doc, spec)
    mu = 0.0 if mu is None else mu
    mel = melnikov_pair(to_standard_form(sys_, fam))
    eq = averaged_equilibrium(mel, mu)
    n = spec.grid
    rs = np.linspace(0.5 * eq.r, 1.5 * eq.r, n)
    ws = np.linspace(eq.w - 1.0, eq.w + 1.0, n)
    path = os.path.join(spec.out_dir, "melnikov.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "w", "f1_1", "f1_2", "f2_1", "f2_2"])
        for r in rs:
            for w in ws:
                f1 = mel.f1((r, w), mu)
                f2 = mel.f2_closed((r, w), mu)
                writer.writerow([repr(float(v))
                                 for v in (r, w, f1[0], f1[1], f2[0], f2[1])])
    return EXIT_OK


def cmd_branch(spec: RunSpec) -> int:
    doc, sys_, fam = _load(spec)
    rep = criteria_report(sys_, fam, _interval(doc))
    if not rep.applicable:
        return _not_applicable(spec, doc, rep, "branch.json", "branch")
    mel = melnikov_pair(to_standard_form(sys_, fam))
    tmap = ThetaReturnMap(sys_, fam, IntegratorConfig(atol=1e-13, rtol=1e-11))
    mu0 = rep.perturbation.mu0
    branch = branch_continuation(mel, tmap, mu0)
    slices = lyapunov_slices(tmap, branch)
    jordan = jordan_expansion(branch)
    xi1 = xi_slice(tmap, mel, mu0)
    hyp = hypothesis_check(mel, rep.perturbation, rep.base.lyapunov)
    payload = {
        "meta": _meta(spec, doc),
        "criteria": rep.to_dict(),
        "branch": branch.to_dict(),
        "hypotheses": hyp.to_dict(),
        "xi_slice_at_mu0": [float(v) for v in xi1],
        "lyapunov": {"l11": slices.l11, "l12": slices.l12,
                     "samples": [list(v) for v in slices.values]},
        "jordan": {"omega0": jordan.omega0, "zeta2": jordan.zeta2,
                   "A1": jordan.A1.tolist(), "A2": jordan.A2.tolist(),
                   "m21_1": jordan.m21_1, "m22_1": jordan.m22_1,
                   "rotation_residual": jordan.rotation_residual},
    }
    if branch.xi_slices_closed is not None:
        bc = branch.xi_slices_closed
        payload["closed_forms"] = {
            "mu1": str(bc.mu1), "xi2": str(bc.xi2),
            "xi1_const": str(bc.xi1_const), "xi1_slope": bc.xi1_slope,
            "m21_1": bc.m21_1, "m22_1": bc.m22_1,
        }
    write_report(os.path.join(spec.out_dir, "branch.json"), payload)
    return EXIT_OK


def cmd_simulate(spec: RunSpec) -> int:
    doc, sys_, fam = _load(spec)
    mu, eps = _params(doc, spec)
    if mu is None or eps is None:
        raise CriteriaError("simulate requires both mu and eps")
    periods = float(doc.get("periods", 50))
    if not 0 < periods <= MAX_PERIODS:      # also refuses nan
        raise OutOfRange(f"periods must lie in (0, {MAX_PERIODS}], got {periods}")
    cfg = _integrator(doc)
    field = RescaledField(sys_, fam).field3(mu, eps)
    x0 = doc.get("initial_state")
    if x0 is None:
        mel = melnikov_pair(to_standard_form(sys_, fam))
        eq = averaged_equilibrium(mel, mu)
        x0 = [eq.r + 0.05, 0.0, eq.w]
    traj = integrate(field, [float(v) for v in x0],
                     (0.0, periods * 2 * math.pi), cfg)
    traj.write_csv(os.path.join(spec.out_dir, "trajectory.csv"))
    return EXIT_OK


def cmd_certify(spec: RunSpec) -> int:
    doc, sys_, fam = _load(spec)
    mu, eps = _params(doc, spec)
    if mu is None or eps is None:
        raise CriteriaError("certify requires both mu and eps")
    rep = criteria_report(sys_, fam, _interval(doc))
    if not rep.applicable:
        return _not_applicable(spec, doc, rep, "certificate.json", "certification")
    mel = melnikov_pair(to_standard_form(sys_, fam))
    tmap = ThetaReturnMap(sys_, fam, IntegratorConfig(atol=1e-13, rtol=1e-11))
    point = unit_circle_point(tmap, mel, rep.perturbation.mu0, eps)
    cert = certify_torus(tmap, mu, point, mel, rep.base.lyapunov)
    payload = {"meta": _meta(spec, doc), "criteria": rep.to_dict(),
               "certificate": cert.to_dict()}
    write_report(os.path.join(spec.out_dir, "certificate.json"), payload)
    if cert.curve_points is not None:
        cert.write_curve_csv(os.path.join(spec.out_dir, "curve.csv"))
    return EXIT_OK


def cmd_lift(spec: RunSpec) -> int:
    doc = _document(spec)
    seed_field = tuple(as_poly(doc["system"][c]) for c in "PQR")
    lift_doc = doc.get("lift", {})
    L_values = _lift_samples(lift_doc, "L_values")
    delta_values = _lift_samples(lift_doc, "delta_values", squares=True)
    plane = find_separating_plane(seed_field, _ball(doc), seed=spec.seed)
    translated = translate_to_origin(plane.field, plane.point)
    tuning = tune_lift_parameters(translated, L_values, delta_values,
                                  seed=spec.seed)
    fam = tuning.family
    payload = {
        "meta": _meta(spec, doc),
        "plane": {
            "point": [str(v) for v in plane.point],
            "coefficients": [str(v) for v in plane.coefficients],
            "distance_to_ball": plane.plane_distance,
            "containment_residual": plane.containment_residual,
            "jitter": plane.jitter_magnitude,
        },
        "lift": {
            "L_star": str(tuning.L_star), "delta_star": str(tuning.delta_star),
            "degree": fam.degree,
            "char_poly_ok": fam.char_poly_ok,
            "linear_residual": fam.linear_residual,
            "A_coeffs": [str(c) for c in tuning.A_coeffs],
            "A_limit": str(tuning.A_limit),
            "A_limit_printed": str(tuning.A_limit_printed),
            "delta_linearity_residual": tuning.delta_linearity_residual,
            "ell1_jitter": tuning.ell1_jitter,
        },
        "criteria": tuning.report.to_dict(),
    }
    write_report(os.path.join(spec.out_dir, "lift.json"), payload)
    sys_y = tuning.tuned_system
    lines = [f"P = {format_poly(sys_y.P)}",
             f"Q = {format_poly(sys_y.Q)}",
             f"R = {format_poly(sys_y.R)}", ""]
    lifted_lines = [f"X{i} = {format_poly(p)}"
                    for i, p in enumerate(fam.lifted, start=1)]
    with open(os.path.join(spec.out_dir, "lifted_system.txt"), "w") as fh:
        fh.write("# normalized Hopf-Zero system Y (linear part (-y, x, 0))\n")
        fh.write("\n".join(lines))
        fh.write("# lifted field X_{L*, delta*}\n")
        fh.write("\n".join(lifted_lines) + "\n")
    return EXIT_OK if tuning.report.applicable else EXIT_NOT_APPLICABLE


COMMANDS = {
    "analyze": cmd_analyze,
    "melnikov": cmd_melnikov,
    "branch": cmd_branch,
    "simulate": cmd_simulate,
    "certify": cmd_certify,
    "lift": cmd_lift,
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


def _grid(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 1 <= n <= MAX_GRID:
        raise argparse.ArgumentTypeError(f"must lie in [1, {MAX_GRID}], got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="torusforge",
        description="Torus bifurcation analysis for perturbed Hopf-Zero "
                    "polynomial vector fields")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--input", required=True, help="experiment JSON document")
    parser.add_argument("--mu", type=float, default=None)
    parser.add_argument("--eps", type=float, default=None)
    parser.add_argument("--grid", type=_grid, default=21,
                        help=f"melnikov grid points per axis, 1 to {MAX_GRID}")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--simple", action="store_true",
                        help="force the degree-preserving family "
                             "(0, 0, mu*z + beta*eps) regardless of the document")
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
    spec = RunSpec(command=args.command, input_path=args.input, mu=args.mu,
                   eps=args.eps, grid=args.grid, seed=args.seed,
                   out_dir=args.out, simple=args.simple)
    os.makedirs(spec.out_dir, exist_ok=True)
    try:
        return COMMANDS[args.command](spec)
    except (CriteriaError, FieldExprError, ValueError, RuntimeError, OSError) as exc:
        err = _error_json(exc)
        path = os.path.join(spec.out_dir, f"{args.command}_error.json")
        try:
            write_report(path, err)
        except OSError:
            pass
        print(json.dumps(err), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
