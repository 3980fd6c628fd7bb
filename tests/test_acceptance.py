"""Acceptance suite: every criterion at its stated tolerance, one printed
pass line each (run with -s to see them live)."""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from torusforge.averaging import (
    branch_continuation, first_lyapunov_quantity, jordan_expansion,
    lyapunov_coefficient_map, lyapunov_slices, melnikov_pair,
    normalized_map, printed_branch_constants, to_standard_form,
    unit_circle_point, xi_slice,
)
from torusforge.criteria import (
    PerturbationFamily, evaluate_base_criteria, validate_hopf_zero,
)
from torusforge.fieldexpr import Poly, jet_extract
from torusforge.flow import IntegratorConfig, ThetaReturnMap
from torusforge.lift import build_lift_family, tune_lift_parameters, _jitter_nonlinear
from torusforge.torus import CertifyConfig, _with_config, certify_torus

from oracles import f1_quadrature, jet_product

EXAMPLE = ("0", "y*z", "-x^2 + x*y + z^2")


def _announce(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{criterion} failed: {detail}"


@pytest.fixture(scope="module")
def example():
    sys = validate_hopf_zero(*EXAMPLE)
    fam = PerturbationFamily.simple(beta=1)
    mel = melnikov_pair(to_standard_form(sys, fam))
    tmap = ThetaReturnMap(sys, fam, IntegratorConfig(atol=1e-13, rtol=1e-11))
    return sys, fam, mel, tmap


def test_criterion_1_example_constants(example):
    sys, _, _, _ = example
    start = time.perf_counter()
    base = evaluate_base_criteria(sys)
    elapsed = time.perf_counter() - start
    ok = (base.omega == Fraction(2)
          and abs(base.ell1 - (-48.0)) <= 1e-9
          and elapsed < 1.0)
    _announce("criterion 1 (Omega = 2 exact, ell1 = -48 to 1e-9, < 1 s)", ok,
              f"omega={base.omega}, ell1={base.ell1}, {elapsed:.3f}s")


@pytest.fixture(scope="module")
def ns_branch(example):
    """The Neimark-Sacker ladder at mu0 = 0, solved once for criteria 2, 4
    and 5, and the time it took."""
    _, _, mel, tmap = example
    start = time.perf_counter()
    solved = branch_continuation(mel, tmap, 0.0)
    return solved, time.perf_counter() - start


def test_criterion_2_branch_slope(example, ns_branch):
    sys, _, mel, tmap = example
    branch, elapsed = ns_branch
    closed = printed_branch_constants(sys)
    xi1 = xi_slice(tmap, mel, 0.0)      # numeric (xi_1(0), xi_2(0)) slice
    slice_ok = (abs(xi1[0] - closed.xi1(0.0)) <= 1e-6
                and abs(xi1[1] - float(closed.xi2)) <= 1e-6)
    ok = (abs(branch.mu1_numeric - 0.75) <= 1e-3
          and closed.mu1 == Fraction(3, 4)
          and slice_ok and elapsed < 60.0)
    _announce("criterion 2 (mu(eps)/eps -> 0.75 to 1e-3; closed form exactly 3/4; < 1 min)",
              ok, f"mu1={branch.mu1_numeric!r}, closed={closed.mu1}, "
                  f"xi_slice={list(xi1)}, {elapsed:.1f}s")


def test_criterion_3_melnikov_orders(example):
    sys, fam, mel, _ = example
    tmap = ThetaReturnMap(sys, fam)             # spec default tolerances
    start = time.perf_counter()
    mu = 0.05
    grid = np.array([(r, w) for r in np.linspace(1.1, 1.7, 5)
                     for w in np.linspace(-0.3, 0.3, 5)])
    dev1, dev2 = [], []
    ladder = (1e-2, 5e-3, 2.5e-3)
    for eps in ladder:
        mapped = tmap.points(grid, mu, eps)
        d1 = d2 = 0.0
        for x, y in zip(grid, mapped):
            f1 = mel.f1(x, mu)
            f2 = mel.f2_closed(x, mu)
            d1 = max(d1, np.max(np.abs((y - x) / eps - f1)))
            d2 = max(d2, np.max(np.abs((y - x - eps * f1) / eps ** 2 - f2)))
        dev1.append(d1)
        dev2.append(d2)
    slopes1 = [math.log(dev1[i] / dev1[i + 1]) / math.log(2) for i in range(2)]
    slopes2 = [math.log(dev2[i] / dev2[i + 1]) / math.log(2) for i in range(2)]
    quad_ok = True
    for r, w, m in ((0.9, -0.2, 0.0), (1.4142, 0.0, 0.05), (1.8, 0.3, -0.1)):
        diff = np.max(np.abs(f1_quadrature(mel, (r, w), m) - mel.f1((r, w), m)))
        quad_ok = quad_ok and diff <= 1e-9
    elapsed = time.perf_counter() - start
    ok = (all(abs(s - 1) <= 0.25 for s in slopes1)
          and all(abs(s - 1) <= 0.25 for s in slopes2)
          and quad_ok and elapsed < 120.0)
    _announce("criterion 3 (Melnikov order checks; f1 closed = quadrature to 1e-9; < 2 min)",
              ok, f"slopes1={slopes1}, slopes2={slopes2}, {elapsed:.1f}s")


def test_criterion_4_normalization_match(ns_branch):
    je = jordan_expansion(ns_branch[0])
    two_pi = 2 * math.pi
    a1_err = float(np.max(np.abs(je.A1 - np.array([[0, -two_pi], [two_pi, 0]]))))
    a2_err = float(np.max(np.abs(je.A2 - np.diag([-2 * math.pi ** 2] * 2))))
    ok = a1_err <= 1e-6 and a2_err <= 1e-6
    _announce("criterion 4 (A1 entries +-2pi, A2 diagonal -2pi^2 to 1e-6 at eps = 1e-3)",
              ok, f"A1 err {a1_err:.2e}, A2 err {a2_err:.2e}")


def test_criterion_5_lyapunov_consistency(example, ns_branch):
    _, _, mel, tmap = example
    target = -3 * math.pi / 4
    details = []
    ok = True
    for eps in (0.02, 0.04):
        nm = normalized_map(unit_circle_point(tmap, mel, 0.0, eps))
        value = lyapunov_coefficient_map(tmap, nm) / eps ** 2
        details.append(f"eps={eps}: {value:.6f}")
        ok = ok and abs(value - target) <= 0.10 * abs(target) and value < 0
    slices = lyapunov_slices(tmap, ns_branch[0])     # ND-hypothesis slices
    ok = ok and abs(slices.l11) <= 1e-5 and abs(slices.l12 - target) <= 1e-2
    _announce("criterion 5 (ell1^eps/eps^2 within 10% of -3pi/4, sign mandatory)",
              ok, "; ".join(details) + f"; target {target:.6f}; "
                  f"slices l11={slices.l11:.2e}, l12={slices.l12:.6f}")


@pytest.fixture(scope="module")
def certification(example):
    sys, _, mel, tmap = example
    start = time.perf_counter()
    point = unit_circle_point(tmap, mel, 0.0, 0.05)
    res = first_lyapunov_quantity(sys)
    found = certify_torus(tmap, 0.05, point, mel, res)
    absent = certify_torus(tmap, 0.02, point, mel, res)
    return found, absent, time.perf_counter() - start


def test_criterion_6_torus_certification(certification):
    found, absent, elapsed = certification
    rho_target = abs(found.theta_eps) / (2 * math.pi)
    checks = {
        "verdict": found.verdict == "torus_found",
        "residual": found.fit_residual <= 1e-3 * found.curve.mean_radius,
        "winding": found.winding == 1,
        "rotation": abs(abs(found.rotation) - rho_target) <= 0.2 * rho_target,
        "no_torus_side": absent.verdict == "no_torus",
        "time": elapsed < 300.0,
    }
    ok = all(checks.values())
    _announce("criterion 6 (torus_found at (0.05, 0.05); no_torus at mu = 0.02; < 5 min)",
              ok, f"{checks}, rho={found.rotation}, target={rho_target:.4f}, "
                  f"{elapsed:.1f}s")


def test_criterion_6_certificate_invariants(example, certification):
    found, _, _ = certification
    product = found.kappa * found.kappa_reversed
    # the samples are one orbit: each is the return of the one before it
    tmap = _with_config(example[3], CertifyConfig().integrator)
    one_orbit = all(
        tmap.point(found.curve_points[i], 0.05, 0.05, reverse=found.reversed_time).tobytes()
        == found.curve_points[i + 1].tobytes()
        for i in (0, 1, 1000, len(found.curve_points) - 2))
    ok = (abs(product - 1.0) <= 0.10
          and found.encloses_fixed_point
          and found.rotation_uncertainty <= 1e-4
          and found.kappa < 1.0
          and one_orbit)
    _announce("criterion 6b (kappa_fwd*kappa_rev = 1 within 10%; curve encloses "
              "fixed point; rotation stable; samples are one orbit)",
              ok, f"kappa={found.kappa:.5f}, product={product:.4f}, "
                  f"unc={found.rotation_uncertainty:.2e}, one_orbit={one_orbit}")


def test_criterion_7_degree_lift_identities():
    start = time.perf_counter()
    rng = random.Random(2024)

    def mono(i, j, k):
        return (i, j, k, 0, 0)

    P = Poly({mono(0, 0, 0): Fraction(2), mono(1, 0, 0): Fraction(1),
              mono(0, 0, 1): Fraction(1, 2), mono(2, 0, 0): Fraction(1)})
    Qp = Poly({mono(0, 0, 0): Fraction(1), mono(0, 1, 0): Fraction(-1),
               mono(0, 0, 1): Fraction(2), mono(0, 2, 0): Fraction(1)})
    R = Poly({mono(0, 0, 0): Fraction(3), mono(1, 0, 0): Fraction(1),
              mono(0, 0, 2): Fraction(1)})
    seed_field = (P, Qp, R)

    fam = build_lift_family(seed_field, Fraction(rng.randint(1, 5)),
                            Fraction(rng.randint(1, 5), rng.randint(1, 5)))
    char_ok = fam.char_poly_ok
    fam0 = build_lift_family(seed_field, Fraction(3), Fraction(0))
    lin = Poly.variable("x").scale(fam0.a0) + Poly.variable("y").scale(fam0.b0)
    factor_ok = all(fam0.lifted[i] == lin * seed_field[i] for i in range(3))
    fam_sq = build_lift_family(seed_field, Fraction(1), Fraction(1, 4))
    conj_ok = fam_sq.linear_residual <= 1e-12
    tuning = tune_lift_parameters(seed_field, seed=1)
    limit_ok = abs(float(tuning.A_limit - tuning.A_limit_printed)) <= 1e-6
    elapsed = time.perf_counter() - start
    ok = char_ok and factor_ok and conj_ok and limit_ok and elapsed < 60.0
    _announce("criterion 7 (char poly exact; X_{L,0} factorization exact; "
              "linear part to 1e-12; A(L)/L^2 limit to 1e-6; < 1 min)",
              ok, f"A_limit={tuning.A_limit}, printed={tuning.A_limit_printed}, "
                  f"{elapsed:.1f}s")


def test_criterion_8_property_suites(tmp_path):
    # jet-arithmetic exactness on 100 random degree-3 fields
    rng = random.Random(8)

    def random_poly():
        p = Poly()
        for _ in range(rng.randint(1, 8)):
            i = rng.randint(0, 3)
            j = rng.randint(0, 3 - i)
            k = rng.randint(0, 3 - i - j)
            p = p + Poly({(i, j, k, 0, 0): Fraction(rng.randint(-6, 6),
                                                    rng.randint(1, 4))})
        return p

    jets_ok = True
    for _ in range(100):
        f, g = random_poly(), random_poly()
        jets_ok = jets_ok and jet_extract(f * g) == jet_product(jet_extract(f), jet_extract(g))

    # Omega rotation invariance
    base = validate_hopf_zero("x*z + x*y + z^2 + x^3", "3*y*z + y^2 + y^3",
                              "-2*x^2 + x*y + z^2 + z^3")
    omega0 = float(base.omega)
    X, Y = Poly.variable("x"), Poly.variable("y")
    rot_ok = True
    for _ in range(5):
        phi = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(phi), math.sin(phi)
        rot = {"x": X.scale(c) - Y.scale(s), "y": X.scale(s) + Y.scale(c)}
        Pr = base.P.substitute(rot)
        Qr = base.Q.substitute(rot)
        Rr = base.R.substitute(rot)
        jP = jet_extract(Pr.scale(c) + Qr.scale(s))
        jQ = jet_extract(Pr.scale(-s) + Qr.scale(c))
        jR = jet_extract(Rr)
        om = -(jP.get(1, 0, 1) + jQ.get(0, 1, 1)) * (jR.get(2, 0, 0) + jR.get(0, 2, 0))
        rot_ok = rot_ok and abs(float(om) - omega0) <= 1e-12

    # determinism: byte-identical reports for a fixed seed
    from torusforge.cli import main
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({
        "system": {"P": EXAMPLE[0], "Q": EXAMPLE[1], "R": EXAMPLE[2]},
        "perturbation": {"simple": True},
    }))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["analyze", "--input", str(doc), "--out", str(out_a), "--seed", "0"])
    main(["analyze", "--input", str(doc), "--out", str(out_b), "--seed", "0"])
    det_ok = (out_a / "analyze.json").read_bytes() == (out_b / "analyze.json").read_bytes()

    ok = jets_ok and rot_ok and det_ok
    _announce("criterion 8 (jet exactness x100; Omega rotation invariance 1e-12; "
              "deterministic reports)", ok,
              f"jets={jets_ok}, rotation={rot_ok}, determinism={det_ok}")


def test_lift_then_certify_demo():
    """End-to-end constructive demo behind the counting claim: lift a
    degree-2 seed to degree 3, tune the Hopf-Zero point, break the lift's
    structural ell1 = 0 by the documented jitter, and certify the new torus."""
    def mono(i, j, k):
        return (i, j, k, 0, 0)

    P = Poly({mono(0, 0, 0): Fraction(1), mono(0, 0, 1): Fraction(1, 2),
              mono(2, 0, 0): Fraction(1)})
    Qp = Poly({mono(0, 0, 0): Fraction(1), mono(0, 1, 0): Fraction(-1),
               mono(0, 0, 1): Fraction(1), mono(0, 2, 0): Fraction(-1)})
    R = Poly({mono(0, 0, 0): Fraction(2), mono(1, 0, 0): Fraction(1),
              mono(0, 0, 1): Fraction(-2)})
    fam_lift = build_lift_family((P, Qp, R), Fraction(1), Fraction(1, 4))
    assert fam_lift.char_poly_ok and fam_lift.degree == 3
    assert fam_lift.linear_residual == 0.0

    sysy = _jitter_nonlinear(fam_lift.system, random.Random(5), 1e-1)
    res = first_lyapunov_quantity(sysy)
    assert abs(res.ell1) > 1.0          # degeneracy broken

    S = float(sysy.quadratic_sum)
    r0 = 2 / math.sqrt(abs(S))
    pfam = PerturbationFamily.simple(1 if S < 0 else -1)
    mel = melnikov_pair(to_standard_form(sysy, pfam))
    tmap = ThetaReturnMap(sysy, pfam, IntegratorConfig(atol=1e-10, rtol=1e-8))
    eps = 0.05
    point = unit_circle_point(tmap, mel, 0.0, eps)
    mu_c = point.mu
    dmu = (0.45 * r0) ** 2 * eps * abs(res.l12) / math.pi
    mu_t = mu_c - dmu * (1 if res.ell1 > 0 else -1)
    assert (mu_t - mu_c) * res.ell1 < 0          # torus side

    cfg = CertifyConfig(transient=300, window=1024, probe_max=4000, probe_check=400,
                        integrator=IntegratorConfig(atol=1e-9, rtol=1e-7))
    cert = certify_torus(tmap, mu_t, point, mel, res, cfg=cfg)
    ok = (cert.verdict == "torus_found" and cert.winding == 1
          and cert.fit_residual <= 1e-3 * cert.curve.mean_radius)
    _announce("lift demo (degree-2 seed -> degree-3 lift -> certified new torus)",
              ok, f"verdict={cert.verdict}, residual={cert.fit_residual:.2e}, "
                  f"rho={cert.rotation}")
