#!/usr/bin/env python3
"""Benchmark of the torusforge command line, end to end and per layer.

    python3 perfbench/run.py --workload fields --seed 3 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports the package from
`src/` and builds nothing.  It generates the workload's input documents from
the seed, then runs passes over them (one operation at a time, each an
in-process call of `torusforge.cli.main`) until `--seconds` have elapsed,
always finishing at least one pass.  Every operation is checked by its
gate after its timed call.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics when `--trace 0` and the per-layer metrics when `--trace 1`.

Work files go to `.perfbench/` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
# traced counts that must repeat exactly between runs of one seed
REPEATED_COUNTS = ("flow.returns", "flow.rhs_evals", "flow.jet3_calls",
                   "averaging.f2_points")

sys.path.insert(0, HERE)

import inputs as gen  # noqa: E402
from workloads import WORKLOADS, Runner, SpeedProbe, normalize  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", default=None,
                   help="import torusforge, write the inputs to DIR and exit "
                        "(one set-up sample)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def set_up(workload, seed, directory):
    """What every run pays before its first operation: import the package
    and write the generated documents."""
    sys.path.insert(0, SRC)
    import torusforge.cli  # noqa: F401
    return gen.write_inputs(WORKLOADS[workload][1], seed, directory)


def setup_seconds(args):
    """Median time, at nominal CPU speed, of fresh processes that only set
    up (interpreter start, package import, input generation).  Each child
    runs the speed probe and prints its samples."""
    times = []
    for i in range(SETUP_REPEATS):
        target = os.path.join(WORK, f"setup-{os.getpid()}-{i}")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--setup-only", target],
            capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
        shutil.rmtree(target, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError("set-up sample failed: " + proc.stderr[-2000:])
        times.append(normalize(wall, json.loads(proc.stdout)["probe_s"]))
    return statistics.median(times)


def code_digest():
    """Hash of the program and benchmark sources; stored results are only
    compared between runs of identical code."""
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)
                   + glob.glob(os.path.join(HERE, "*.py")))
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def provenance():
    """Where a result came from.  `repo.src_lines` is a non-gating count."""
    import numpy
    import scipy
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  timeout=10, capture_output=True, text=True)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except OSError:
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            src_lines += fh.read().count(b"\n")
    return {"git_commit": commit, "code_digest": code_digest(),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "repo.src_lines": src_lines}


def check_repeatable(key, record, problems):
    """Compare this run's report digests and traced counts with those of
    earlier runs of the same workload, seed and code; store new ones."""
    path = os.path.join(WORK, "state", f"{code_digest()}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    try:
        with open(path) as fh:
            state = json.load(fh)
    except (OSError, ValueError):
        state = {}
    seen = state.setdefault(key, {})
    for name, value in record.items():
        if name in seen and seen[name] != value:
            problems.append(f"{name} differs from an earlier run of this seed: "
                            f"{value} vs {seen[name]}")
        seen.setdefault(name, value)
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(state, fh, sort_keys=True, indent=1)
    os.replace(tmp, path)


def run_passes(args, runner, pass_fn, docs, tracer=None):
    """Closed loop: whole passes until --seconds have elapsed.  Returns the
    wall time of each pass (its operations only, not their gates), the same
    at nominal CPU speed (untraced runs), and the counts of each pass
    (traced runs)."""
    walls, normalized, counts = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        if tracer is not None:
            tracer.counts.clear()
        before = runner.op_seconds
        first = len(runner.probe.samples) if runner.probe else 0
        pass_fn(runner, docs, args.seed)
        walls.append(runner.op_seconds - before)
        if runner.probe:
            normalized.append(normalize(walls[-1], runner.probe.samples[first:]))
        if tracer is not None:
            counts.append(dict(tracer.counts))
    return walls, normalized, counts


def per_layer_metrics(tracer, walls, counts, overhead_s):
    summary = tracer.summary()
    total = sum(walls)

    def per_call_ms(name):
        n, t, _ = summary.get(name, (0, 0.0, 0.0))
        return 1e3 * t / n if n else 0.0

    def share(name, column=1):
        return 100.0 * summary.get(name, (0, 0.0, 0.0))[column] / total

    first = counts[0]
    m = {}

    def count(name, value):
        m[name] = (int(value), "count")

    # exact counts of one pass (every pass repeats them)
    for name in ("flow.returns", "flow.returns_single", "flow.rhs_evals"):
        count(name, first.get(name, 0))
    for name, span in (("flow.solve_ivp_calls", "flow.solve_ivp"),
                       ("flow.points_calls", "flow.points"),
                       ("flow.jet3_calls", "flow.jet3"),
                       ("flow.integrate_calls", "flow.integrate"),
                       ("averaging.f2_points", "averaging.f2_quadrature"),
                       ("averaging.first_lyapunov_quantity_calls",
                        "averaging.first_lyapunov_quantity"),
                       ("averaging.branch_continuation_calls",
                        "averaging.branch_continuation"),
                       ("criteria.criteria_report_calls", "criteria.criteria_report"),
                       ("fieldexpr.parse_field_calls", "fieldexpr.parse_field"),
                       ("torus.certify_torus_calls", "torus.certify_torus"),
                       ("torus.fit_fourier_curve_calls", "torus.fit_fourier_curve"),
                       ("lift.build_lift_family_calls", "lift.build_lift_family"),
                       ("cli.write_report_calls", "cli.write_report")):
        count(name, first.get(span, 0))

    # times of calls every workload makes
    solve = summary.get("flow.solve_ivp", (0, 0.0, 0.0))[1]
    nfev = sum(c.get("flow.rhs_evals", 0) for c in counts)
    m["flow.rhs_eval_us"] = (1e6 * solve / nfev if nfev else 0.0, "us")
    for name in ("criteria.criteria_report", "averaging.first_lyapunov_quantity",
                 "averaging.to_standard_form", "averaging.melnikov_pair",
                 "fieldexpr.parse_field", "cli.write_report"):
        m[f"{name}_ms"] = (per_call_ms(name), "ms")

    # shares of pass wall time: total time inside a span, or self time
    for name in ("flow.solve_ivp", "flow.points", "flow.jet3", "flow.integrate",
                 "averaging.f2_quadrature", "averaging.branch_continuation",
                 "averaging.lyapunov_slices", "averaging.jordan_expansion",
                 "torus.fit_fourier_curve", "lift.find_separating_plane",
                 "lift.tune_lift_parameters"):
        m[f"{name}_pct"] = (share(name), "%")
    m["torus.certify_torus_self_pct"] = (share("torus.certify_torus", 2), "%")
    layer_self = {}
    for name, (_, _, self_s) in summary.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s
    for layer in ("fieldexpr", "criteria", "averaging", "flow", "torus", "lift",
                  "cli"):
        m[f"{layer}.self_pct"] = (100.0 * layer_self.get(layer, 0.0) / total, "%")
    m["trace.overhead_pct"] = (100.0 * overhead_s / total, "%")
    return m


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "torusforge", "cli.py")):
        print(f"error: no torusforge sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        with SpeedProbe() as probe:
            set_up(args.workload, args.seed, args.setup_only)
        print(json.dumps({"probe_s": probe.samples}))
        return 0

    os.makedirs(WORK, exist_ok=True)
    setup_s = None if args.trace else setup_seconds(args)
    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    docs = set_up(args.workload, args.seed, os.path.join(run_dir, "inputs"))
    from torusforge.cli import main as cli_main

    tracer = None
    if args.trace:
        from tracer import Tracer, wrapper_cost_s
        tracer = Tracer()
        tracer.install()
        cli_main = tracer.span("cli.main", cli_main, root=True)
    pass_fn = WORKLOADS[args.workload][0]
    # the probe's interrupts would land inside traced spans, so a traced run
    # goes without it
    runner = Runner(cli_main, os.path.join(run_dir, "out"),
                      None if tracer else SpeedProbe())
    walls, normalized, counts = run_passes(args, runner, pass_fn, docs, tracer)

    if tracer is not None:
        overhead_s = tracer.wrapped_calls * wrapper_cost_s()
        tracer.write(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json"))
        metrics = per_layer_metrics(tracer, walls, counts, overhead_s)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"pass_s": (statistics.median(normalized), "s"),
                   "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (rss_kb / 1024.0, "MB")}

    problems = []
    if any(c != counts[0] for c in counts):
        problems.append("traced counts differ between passes of one run")
    record = {f"digest.{k}": v for k, v in runner.digests.items()}
    if tracer is not None:
        record.update({f"count.{k}": metrics[k][0] for k in REPEATED_COUNTS})
    check_repeatable(f"{args.workload}/{args.seed}", record, problems)
    for key, reason in runner.failures:
        print(f"FAILED {key}: {reason}", file=sys.stderr)
    for reason in problems:
        print(f"FAILED determinism: {reason}", file=sys.stderr)
    failed = len(runner.failures) + len(problems)
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"provenance": provenance(), "passes": len(walls),
                      "pass_wall_s": walls, "pass_normalized_s": normalized,
                      "op_median_s": {k: statistics.median(v)
                                      for k, v in runner.times.items()}},
                     sort_keys=True))
    result = {"correct": failed == 0,
              "attempted": runner.attempted + len(problems),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
