"""Workload passes and the correctness gate of every operation.

An operation is one in-process call of `torusforge.cli.main`, so document
loading, parsing and report writing are part of it.  Operations run one at a
time from a single client (a closed loop).  A pass runs every document of
the workload once; its gates run after the timed call returns.
"""

from __future__ import annotations

import contextlib
import csv
import glob
import hashlib
import json
import math
import os
import shutil
import signal
import time
from collections import defaultdict
from dataclasses import dataclass

import inputs as gen


@dataclass
class Result:
    key: str          # stable name of the operation within a pass
    rc: object        # exit code, or the exception text when main raised
    out: str          # output directory


REFERENCE_S = 1e-3      # time of one reference loop at nominal speed
SAMPLE_PERIOD_S = 0.05


def reference_loop():
    acc = 0
    for i in range(10000):
        acc += i * i % 7
    return acc


class SpeedProbe:
    """Samples the speed of the CPU the operations run on.

    On a host shared with other tenants this CPU's speed was seen to swing
    by +-30% within seconds and to drift over minutes.  Every 50 ms a
    SIGALRM handler times a fixed pure-Python loop on the same thread, so
    the samples see the speed the operation saw.  `normalize` turns a wall
    time into seconds at nominal speed (the loop taking REFERENCE_S)."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        # the handler stays installed: a signal already raised when the timer
        # stops must not meet the default action, which ends the process
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def normalize(wall_s, samples):
    """Wall time minus the probe loops it contains, scaled to nominal speed
    by their mean."""
    if not samples:
        return wall_s
    return (wall_s - sum(samples)) * REFERENCE_S / (sum(samples) / len(samples))


class Runner:
    """Runs operations, books their wall time and outcome, and hashes the
    report files of every operation that passes its gate."""

    def __init__(self, main, out_root, probe: SpeedProbe = None):
        self.main = main
        self.out_root = out_root
        self.probe = probe
        self.times = defaultdict(list)       # command -> seconds per call
        self.op_seconds = 0.0                # sum of all timed calls
        self.attempted = 0
        self.failures = []                   # (key, reason)
        self.digests = {}                    # key -> sha256 of its reports

    def op(self, key, argv) -> Result:
        out = os.path.join(self.out_root, key)
        shutil.rmtree(out, ignore_errors=True)
        with self.probe or contextlib.nullcontext():
            start = time.perf_counter()
            try:
                rc = self.main(argv + ["--out", out])
            except Exception as exc:      # a traceback is a failed operation
                rc = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        self.times[argv[0]].append(elapsed)
        self.op_seconds += elapsed
        self.attempted += 1
        return Result(key, rc, out)

    def finish(self, res: Result, gate, *args):
        """Run the gate; record a failure or the digest of the reports."""
        try:
            problems = gate(res, *args)
        except Exception as exc:
            problems = [f"gate raised {type(exc).__name__}: {exc}"]
        if not problems:
            digest = report_digest(res.out)
            if self.digests.setdefault(res.key, digest) != digest:
                problems = ["report bytes differ from an earlier pass"]
        if problems:
            self.failures.append((res.key, "; ".join(problems)))
        return not problems


def report_digest(directory) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(directory, "*"))):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _load(res: Result, name):
    with open(os.path.join(res.out, name)) as fh:
        return json.load(fh)


def _exit(res: Result, allowed=(0,)):
    if res.rc in allowed:
        return []
    errors = glob.glob(os.path.join(res.out, "*_error.json"))
    detail = open(errors[0]).read().strip() if errors else ""
    return [f"exit {res.rc!r} {detail}".strip()]


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def gate_certify_notorus(res, doc, mu, eps):
    """No torus far on the no-torus side, and the reported fixed point is a
    fixed point of the return map (checked by one independent return)."""
    problems = _exit(res)
    if problems:
        return problems
    rep = _load(res, "certificate.json")
    cert = rep["certificate"]
    if cert["verdict"] != "no_torus":
        problems.append(f"verdict {cert['verdict']!r}, expected 'no_torus'")
    if cert["mu"] != mu or cert["eps"] != eps:
        problems.append("certificate (mu, eps) differ from the request")
    if os.path.exists(os.path.join(res.out, "curve.csv")):
        problems.append("curve.csv written without a torus")
    xi = cert["fixed_point"]
    if not _finite(*xi) or xi[0] <= 0:
        problems.append(f"fixed point {xi} not finite with r > 0")
        return problems
    from torusforge.criteria import PerturbationFamily, validate_hopf_zero
    from torusforge.flow import IntegratorConfig, ThetaReturnMap
    system = validate_hopf_zero(*_system(doc))
    fam = PerturbationFamily.simple(1 if system.quadratic_sum < 0 else -1)
    tmap = ThetaReturnMap(system, fam, IntegratorConfig(atol=1e-13, rtol=1e-11))
    drift = max(abs(a - b) for a, b in zip(tmap.point(xi, mu, eps), xi))
    if drift > 1e-8:
        problems.append(f"fixed point moves by {drift:.2e} in one return")
    return problems


def gate_certify_torus(res, doc, mu, eps):
    """Criterion 6 of the acceptance suite on the torus side."""
    problems = _exit(res)
    if problems:
        return problems
    cert = _load(res, "certificate.json")["certificate"]
    if cert["verdict"] != "torus_found":
        return [f"verdict {cert['verdict']!r}, expected 'torus_found'"]
    if cert["winding"] != 1:
        problems.append(f"winding {cert['winding']}")
    radius = cert["curve"]["mean_radius"]
    if not cert["fit_residual"] <= 1e-3 * radius:
        problems.append(f"fit residual {cert['fit_residual']} > 1e-3 * {radius}")
    target = abs(cert["theta_eps"]) / (2 * math.pi)
    rho = cert["rotation_number"]
    if rho is None or abs(abs(rho) - target) > 0.2 * target:
        problems.append(f"rotation {rho} not within 20% of {target}")
    return problems


def gate_branch(res, seed):
    problems = _exit(res)
    if problems:
        return problems
    rep = _load(res, "branch.json")
    br, lyap = rep["branch"], rep["lyapunov"]
    if abs(br["mu1_numeric"] - br["mu1_closed"]) > 1e-3:
        problems.append(f"mu1 {br['mu1_numeric']} vs closed {br['mu1_closed']}")
    if abs(lyap["l11"]) > 1e-5:
        problems.append(f"|l11| = {abs(lyap['l11'])} > 1e-5")
    if seed == 0:
        if abs(lyap["l12"] + 3 * math.pi / 4) > 1e-2:
            problems.append(f"l12 {lyap['l12']} not within 1e-2 of -3pi/4")
        two_pi = 2 * math.pi
        a1 = [[0.0, -two_pi], [two_pi, 0.0]]
        a2 = [[-2 * math.pi ** 2, 0.0], [0.0, -2 * math.pi ** 2]]
        for name, want in (("A1", a1), ("A2", a2)):
            got = rep["jordan"][name]
            err = max(abs(got[i][j] - want[i][j]) for i in range(2) for j in range(2))
            if err > 1e-6:
                problems.append(f"{name} off the criterion-4 value by {err:.2e}")
    return problems


def gate_analyze(res, doc):
    problems = _exit(res, (0, 2))
    if problems:
        return problems
    crit = _load(res, "analyze.json")["criteria"]
    if crit["omega_exact"] != str(doc.omega):
        problems.append(f"omega {crit['omega_exact']} != generator's {doc.omega}")
    if crit["applicable"] != (res.rc == 0):
        problems.append(f"applicable {crit['applicable']} with exit {res.rc}")
    return problems


def gate_melnikov(res, doc, mu0):
    """Every f2 on the grid matches the exact closed form to 1e-9, relative
    to the largest |f2| on the grid."""
    problems = _exit(res)
    if problems:
        return problems
    with open(os.path.join(res.out, "melnikov.csv")) as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["r", "w", "f1_1", "f1_2", "f2_1", "f2_2"]:
        return [f"header {rows[0]}"]
    if len(rows) != 1 + gen.MELNIKOV_GRID ** 2:
        return [f"{len(rows) - 1} grid rows"]
    from torusforge.averaging import melnikov_pair, to_standard_form
    from torusforge.criteria import PerturbationFamily, validate_hopf_zero
    system = validate_hopf_zero(*_system(doc))
    fam = PerturbationFamily.simple(1 if system.quadratic_sum < 0 else -1)
    mel = melnikov_pair(to_standard_form(system, fam))
    values = [[float(v) for v in row] for row in rows[1:]]
    closed = [mel.f2_closed((v[0], v[1]), mu0) for v in values]
    scale = max(max(abs(c[0]), abs(c[1])) for c in closed) or 1.0
    err = max(max(abs(v[4] - c[0]), abs(v[5] - c[1]))
              for v, c in zip(values, closed)) / scale
    if not err <= 1e-9:
        problems.append(f"f2 off its closed form by {err:.2e} (relative)")
    return problems


def gate_simulate(res):
    problems = _exit(res)
    if problems:
        return problems
    with open(os.path.join(res.out, "trajectory.csv")) as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["t", "x", "y", "z"] or len(rows) < 3:
        return ["trajectory header or length"]
    values = [float(v) for row in rows[1:] for v in row]
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite trajectory value")
    t_end = float(rows[-1][0])
    if abs(t_end - gen.FIELDS_PERIODS * 2 * math.pi) > 1e-9:
        problems.append(f"trajectory ends at t = {t_end}")
    return problems


def gate_lift(res):
    problems = _exit(res)
    if problems:
        return problems
    lift = _load(res, "lift.json")["lift"]
    if lift["char_poly_ok"] is not True:
        problems.append("char_poly_ok is false")
    if lift["A_limit"] != lift["A_limit_printed"]:
        problems.append(f"A_limit {lift['A_limit']} != printed {lift['A_limit_printed']}")
    return problems


def _system(doc):
    with open(doc.path) as fh:
        system = json.load(fh)["system"]
    return system["P"], system["Q"], system["R"]


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def certify_pass(params, gate):
    """One `certify` at (mu, eps) = params on the example field."""
    def run(s: Runner, inp: gen.Inputs, seed: int):
        mu, eps = params
        res = s.op("certify", ["certify", "--input", inp.example.path,
                               f"--mu={mu!r}", f"--eps={eps!r}"])
        s.finish(res, gate, inp.example, mu, eps)
    return run


def branch_pass(s: Runner, inp: gen.Inputs, seed: int):
    res = s.op("branch", ["branch", "--input", inp.example.path])
    s.finish(res, gate_branch, seed)


def fields_pass(s: Runner, inp: gen.Inputs, seed: int):
    for doc in inp.hopf:
        stem = doc.name[:-len(".json")]
        res = s.op(f"{stem}.analyze", ["analyze", "--input", doc.path])
        if not s.finish(res, gate_analyze, doc):
            continue
        # a field that is not applicable (exit 2, e.g. ell1 = 0) still has
        # its mu0, so every field costs the same three operations
        mu0 = _load(res, "analyze.json")["criteria"]["perturbation"]["mu0"]
        # "--mu=<v>": argparse reads "--mu -5.5e-17" as an unknown option
        res = s.op(f"{stem}.melnikov",
                   ["melnikov", "--input", doc.path, f"--mu={mu0!r}",
                    "--grid", str(gen.MELNIKOV_GRID)])
        s.finish(res, gate_melnikov, doc, mu0)
        res = s.op(f"{stem}.simulate",
                   ["simulate", "--input", doc.path, f"--mu={mu0!r}"])
        s.finish(res, gate_simulate)
    for doc in inp.lift:
        res = s.op(doc.name[:-len(".json")] + ".lift",
                   ["lift", "--input", doc.path])
        s.finish(res, gate_lift)


# name -> (pass, input set).  Only "certify-notorus" and "fields" are listed
# in BENCHMARK.json; one operation of the other two outlasts a benchmark run
# (see README.md), so they are run by hand.
WORKLOADS = {
    "certify-notorus": (certify_pass(gen.NOTORUS, gate_certify_notorus),
                        "example"),
    "fields": (fields_pass, "fields"),
    "certify-torus": (certify_pass(gen.TORUS, gate_certify_torus), "example"),
    "branch": (branch_pass, "example"),
}
