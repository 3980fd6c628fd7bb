"""Acceptance suite: every criterion at its stated tolerance, one printed
pass line each (run with -s to see them live)."""

import hashlib
import itertools
import json
import math
import random
import re
import struct
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import torusforge.cli
import torusforge.torus
from torusforge.averaging import melnikov_pair, to_standard_form
from torusforge.criteria import (
    PerturbationFamily, criteria_report, evaluate_base_criteria, validate_hopf_zero,
)
from torusforge.fieldexpr import Poly, partial
from torusforge.flow import PERIOD, IntegratorConfig, ThetaReturnMap, dop853
from torusforge.lift import build_lift_family, tune_lift_parameters
from torusforge.nsbranch import (
    RETURN_MAP_INTEGRATOR, branch_continuation, jordan_expansion, lyapunov_coefficient_map,
    lyapunov_slices, printed_branch_constants, unit_circle_point, xi_slice,
)
from torusforge.cli import write_report
from torusforge.torus import CERTIFY_INTEGRATOR, _with_config, certify_torus

from oracles import (
    branch_xi1, f1_quadrature, fourier_fit_qr, jet_product, map_points, normal_contraction,
    raw_partials,
)
from test_averaging import _benchmark_inputs
from test_flow import WARM_RETURN_BOUND
from test_torus import _same_fit

EXAMPLE = ("0", "y*z", "-x^2 + x*y + z^2")


def _alpha_d(sys, fam):
    """The criteria report's alpha_d, which starts each secant on |lambda| = 1."""
    return criteria_report(sys, fam, (-1.0, 1.0)).perturbation.alpha_d


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
          and base.ell1_exact == Fraction(-48)
          and elapsed < 1.0)
    _announce("criterion 1 (Omega = 2 exact, ell1 = -48 to 1e-9, < 1 s)", ok,
              f"omega={base.omega}, ell1={base.ell1}, {elapsed:.3f}s")


@pytest.fixture(scope="module")
def ns_branch(example):
    """The Neimark-Sacker ladder at mu0 = 0, solved once for criteria 2, 4
    and 5, and the time it took."""
    sys, fam, _, tmap = example
    start = time.perf_counter()
    solved = branch_continuation(tmap, 0.0, _alpha_d(sys, fam))
    return solved, time.perf_counter() - start


def test_criterion_2_branch_slope(example, ns_branch):
    sys, _, _, tmap = example
    branch, elapsed = ns_branch
    closed = printed_branch_constants(sys)
    xi1 = xi_slice(tmap, 0.0)      # numeric (xi_1(0), xi_2(0)) slice
    slice_ok = (abs(xi1[0] - branch_xi1(closed, 0.0)) <= 1e-6
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
        mapped = map_points(tmap, grid, mu, eps)
        d1 = d2 = 0.0
        for x, y in zip(grid, mapped):
            f1 = np.array(mel.f1(x, mu))
            f2 = np.array(mel.f2_closed(x, mu))
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
    sys, fam, _, tmap = example
    target = -3 * math.pi / 4
    details = []
    ok = True
    for eps in (0.02, 0.04):
        point = unit_circle_point(tmap, 0.0, eps, _alpha_d(sys, fam))
        value = lyapunov_coefficient_map(tmap, point) / eps ** 2
        details.append(f"eps={eps}: {value:.6f}")
        ok = ok and abs(value - target) <= 0.10 * abs(target) and value < 0
    slices = lyapunov_slices(tmap, ns_branch[0])     # ND-hypothesis slices
    ok = ok and abs(slices.l11) <= 1e-5 and abs(slices.l12 - target) <= 1e-2
    _announce("criterion 5 (ell1^eps/eps^2 within 10% of -3pi/4, sign mandatory)",
              ok, "; ".join(details) + f"; target {target:.6f}; "
                  f"slices l11={slices.l11:.2e}, l12={slices.l12:.6f}")


@pytest.fixture(scope="module")
def certification(tmp_path_factory):
    """`certify --mu=0.05 --eps=0.05` on the worked example, with the
    certificate it made and its report; the same Neimark-Sacker point then
    certified at mu = 0.02; the time both took; and each return integration
    the first certify made, in order: its seed, its warm start h0 and the
    step h_next it proposed for the next."""
    out = tmp_path_factory.mktemp("certify")
    doc = out / "doc.json"
    doc.write_text(json.dumps({"system": dict(zip("PQR", EXAMPLE))}))
    made, returns = [], []

    def kept(*args):
        made.append((args, certify_torus(*args)))
        return made[-1][1]

    def recorded(rhs, t0, t_end, y0, atol, rtol, h0=None):
        nfev, h_next = yield from dop853(rhs, t0, t_end, y0, atol, rtol, h0)
        if len(y0) == 2:
            returns.append((tuple(y0), h0, h_next))
        return nfev, h_next

    start = time.perf_counter()
    with mock.patch.object(torusforge.torus, "certify_torus", kept), \
            mock.patch.object(torusforge.flow, "dop853", recorded):
        assert torusforge.cli.main(["certify", "--input", str(doc), "--out", str(out),
                                    "--mu=0.05", "--eps=0.05"]) == 0
    (tmap, _, point, l12), found = made[0]
    absent = certify_torus(tmap, 0.02, point, l12)
    report = json.loads((out / "certificate.json").read_text())
    return found, absent, time.perf_counter() - start, report, returns


def test_criterion_6_torus_certification(certification):
    found, absent, elapsed, _, _ = certification
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


@pytest.fixture(scope="module")
def kappa_pair(example, certification):
    """The oracle's log-slope normal contraction factors of the certified
    curve: in the probe's time direction, then in the other one."""
    found = certification[0]
    tmap = _with_config(example[3], CERTIFY_INTEGRATOR)
    reversed_time = found.observed_stability == "repelling"
    return tuple(normal_contraction(tmap, found.curve, 0.05, 0.05, reverse)
                 for reverse in (reversed_time, not reversed_time))


# the torus-side samples of the criterion-6 certification at (0.05, 0.05)
CURVE_POINTS_SHA256 = "11ad33aec921f7e4e2e221330a5f8beb24d30809cbe9ead37c4045a8258dc5bd"
# the same certificate, written by cli.write_report
FOUND_CERTIFICATE_SHA256 = "31621eb96efc7d4851ba1132e6d36a8a929d2234f6b9fd7eead9c73f626f6081"


def test_criterion_6_certificate_bytes(certification, tmp_path):
    """The torus-side certificate byte for byte: verdict, fit, rotation,
    normal exponent, winding and notes of the one sampled orbit, as made
    and as `certify` reports it from mu0 = 0.0, the exact root of eta."""
    found, _, _, report, _ = certification
    assert report["criteria"]["perturbation"]["mu0"] == 0.0
    for name, block in (("found", found.to_dict()), ("reported", report["certificate"])):
        write_report(tmp_path / name, block)
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == FOUND_CERTIFICATE_SHA256, name


def test_criterion_6_certificate_invariants(example, certification, kappa_pair):
    found, returns = certification[0], certification[4]
    kappa, kappa_reversed = kappa_pair
    product = kappa * kappa_reversed
    # the samples are one orbit: the returns certify made are one chain, each
    # started warm at the step the one before it proposed, and each sample
    # is the return of the one before it bit for bit, the integration from
    # it at its recorded warm start; a cold return of it agrees within
    # WARM_RETURN_BOUND
    tmap = _with_config(example[3], CERTIFY_INTEGRATOR)
    samples = found.curve_points
    warm = {y0: h0 for y0, h0, _ in returns}
    chained = all(h0 == h_next for (_, _, h_next), (_, h0, _) in zip(returns, returns[1:]))
    rhs = tmap.field.rhs("return", 0.05, 0.05)
    reverse = found.observed_stability == "repelling"
    exact, cold = True, 0.0
    for i in (0, 1, 1000, len(samples) - 2):
        x = samples[i]
        for _, y in dop853(rhs, 0.0, -PERIOD if reverse else PERIOD, x,
                           CERTIFY_INTEGRATOR.atol, CERTIFY_INTEGRATOR.rtol, warm[x]):
            pass
        exact = exact and struct.pack("2d", *y) == struct.pack("2d", *samples[i + 1])
        cold = max(cold, *(abs(a - b) for a, b in zip(
            tmap.point(x, 0.05, 0.05, reverse=reverse), samples[i + 1])))
    one_orbit = chained and exact and cold <= WARM_RETURN_BOUND
    ok = (abs(product - 1.0) <= 0.10
          and found.winding == 1
          and found.rotation_uncertainty <= 1e-4
          and kappa < 1.0
          and found.normally_hyperbolic is True
          and one_orbit)
    assert (hashlib.sha256(struct.pack(f"{2 * len(samples)}d",
                                       *itertools.chain.from_iterable(samples))).hexdigest()
            == CURVE_POINTS_SHA256)
    _announce("criterion 6b (kappa_fwd*kappa_rev = 1 within 10%; curve encloses "
              "fixed point; rotation stable; normally hyperbolic; samples are "
              "one orbit)",
              ok, f"kappa={kappa:.5f}, product={product:.4f}, "
                  f"unc={found.rotation_uncertainty:.2e}, "
                  f"lambda_n={found.normal_exponent:.4e} "
                  f"+- {found.normal_exponent_uncertainty:.1e}, one_orbit={one_orbit}, "
                  f"cold return {cold:.1e}")


def test_criterion_6_fit_matches_qr_oracle(certification):
    """The certified curve is the QR oracle's fit of the criterion-6
    samples, whose design has full rank: the same order, and coefficients
    and rms within 1e-12 of the mean radius (`_same_fit`)."""
    found = certification[0]
    assert _same_fit(found.curve, fourier_fit_qr(found.curve_points))


def test_normal_exponent_matches_kappa_pair(certification, kappa_pair):
    """lambda_n per forward return agrees within 10% with the mean of the
    oracle's two log-slope rates, log kappa and -log kappa_reversed, signed
    for the probe's time direction; and the curve attracts in forward time
    exactly when lambda_n < 0."""
    found = certification[0]
    kappa, kappa_reversed = kappa_pair
    sign = -1.0 if found.observed_stability == "repelling" else 1.0
    mean = sign * (math.log(kappa) - math.log(kappa_reversed)) / 2
    lam = found.normal_exponent
    assert abs(lam - mean) <= 0.10 * abs(mean), (lam, mean)
    assert (found.observed_stability == "attracting") == (lam < 0)


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
    a0, b0 = Qp.terms[mono(0, 0, 0)], -P.terms[mono(0, 0, 0)]      # (Q0, -P0)
    lin = Poly.variable("x").scale(a0) + Poly.variable("y").scale(b0)
    factor_ok = all(fam0.lifted[i] == lin * seed_field[i] for i in range(3))
    fam_sq = build_lift_family(seed_field, Fraction(1), Fraction(1, 4))
    conj_ok = fam_sq.system is not None     # the linear part is (-y, x, 0) exactly
    tuning = tune_lift_parameters(seed_field)
    limit_ok = abs(float(tuning.A_coeffs[2] - tuning.A_limit_printed)) <= 1e-6
    elapsed = time.perf_counter() - start
    ok = char_ok and factor_ok and conj_ok and limit_ok and elapsed < 60.0
    _announce("criterion 7 (char poly exact; X_{L,0} factorization exact; "
              "linear part exact; A(L)/L^2 limit to 1e-6; < 1 min)",
              ok, f"A_limit={tuning.A_coeffs[2]}, printed={tuning.A_limit_printed}, "
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
        jets_ok = jets_ok and raw_partials(f * g) == jet_product(raw_partials(f), raw_partials(g))

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
        Pn, Qn = Pr.scale(c) + Qr.scale(s), Pr.scale(-s) + Qr.scale(c)
        om = -(partial(Pn, 1, 0, 1) + partial(Qn, 0, 1, 1)) * (partial(Rr, 2, 0, 0)
                                                                + partial(Rr, 0, 2, 0))
        rot_ok = rot_ok and abs(float(om) - omega0) <= 1e-12

    # determinism: byte-identical reports of identical runs
    from torusforge.cli import main
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({
        "system": {"P": EXAMPLE[0], "Q": EXAMPLE[1], "R": EXAMPLE[2]},
        "perturbation": {"simple": True},
    }))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["analyze", "--input", str(doc), "--out", str(out_a)])
    main(["analyze", "--input", str(doc), "--out", str(out_b)])
    det_ok = (out_a / "analyze.json").read_bytes() == (out_b / "analyze.json").read_bytes()

    ok = jets_ok and rot_ok and det_ok
    _announce("criterion 8 (jet exactness x100; Omega rotation invariance 1e-12; "
              "deterministic reports)", ok,
              f"jets={jets_ok}, rotation={rot_ok}, determinism={det_ok}")


# the certifier shortened, at looser tolerances, for the lift demo and the
# drawn systems: it passes at its module values too, but its certify_torus
# then takes about five times as long
SHORT_CERTIFIER = (("TRANSIENT", 300), ("WINDOW", 1024), ("PROBE_MAX", 4000),
                   ("PROBE_CHECK", 400),
                   ("CERTIFY_INTEGRATOR", IntegratorConfig(atol=1e-9, rtol=1e-7)))
# the note of a located curve whose direction contradicts the standard rule
CONTRADICTION = "contradicts the standard rule"


@pytest.fixture(scope="module")
def lift_demos():
    """The lift demo for c = +1/10 and -1/10: the lift of one degree-2 seed
    at (L, delta) = (1, 1/4), its system Y with c z^3 added to R, Y's base
    criteria, the torus-side mu and the certificate there, by c."""
    def mono(i, j, k):
        return (i, j, k, 0, 0)

    P = Poly({mono(0, 0, 0): Fraction(1), mono(0, 0, 1): Fraction(1, 2),
              mono(2, 0, 0): Fraction(1)})
    Qp = Poly({mono(0, 0, 0): Fraction(1), mono(0, 1, 0): Fraction(-1),
               mono(0, 0, 1): Fraction(1), mono(0, 2, 0): Fraction(-1)})
    R = Poly({mono(0, 0, 0): Fraction(2), mono(1, 0, 0): Fraction(1),
              mono(0, 0, 1): Fraction(-2)})
    fam_lift = build_lift_family((P, Qp, R), Fraction(1), Fraction(1, 4))
    exact = fam_lift.system
    demos = {}
    with pytest.MonkeyPatch.context() as patch:
        for name, value in SHORT_CERTIFIER:
            patch.setattr(f"torusforge.torus.{name}", value)
        for c in (Fraction(1, 10), Fraction(-1, 10)):
            sysy = validate_hopf_zero(exact.P, exact.Q, exact.R + Poly({mono(0, 0, 3): c}))
            res = evaluate_base_criteria(sysy)
            S = float(exact.quadratic_sum)
            pfam = PerturbationFamily.simple(1 if S < 0 else -1)
            tmap = ThetaReturnMap(sysy, pfam, IntegratorConfig(atol=1e-10, rtol=1e-8))
            eps = 0.05
            point = unit_circle_point(tmap, 0.0, eps, _alpha_d(sysy, pfam))
            dmu = (0.45 * 2 / math.sqrt(abs(S))) ** 2 * eps * abs(res.l12) / math.pi
            mu_t = point.mu - dmu * (1 if res.ell1 > 0 else -1)
            demos[c] = (res, mu_t - point.mu, certify_torus(tmap, mu_t, point, res.l12))
    return fam_lift, demos


@pytest.mark.parametrize("c", [Fraction(1, 10), Fraction(-1, 10)],
                         ids=["ell1_positive", "ell1_negative"])
def test_lift_then_certify_demo(lift_demos, c):
    """End-to-end constructive demo behind the counting claim: lift a
    degree-2 seed to degree 3, tune the Hopf-Zero point, break the lift's
    structural ell1 = 0 by one term c z^3 in R, whose ell1 is -24 S^3 d c,
    and certify the new torus on both signs of ell1.  The curve attracts
    exactly where ell1 < 0 (the standard rule for a Neimark-Sacker point:
    Kuznetsov, Elements of Applied Bifurcation Theory, Thm 4.6).
    The certifier runs shortened (`SHORT_CERTIFIER`)."""
    fam_lift, demos = lift_demos
    assert fam_lift.char_poly_ok and fam_lift.degree == 3
    exact = fam_lift.system
    assert exact is not None          # the normalized linear part is (-y, x, 0) exactly
    assert exact.ell1_exact == 0
    res, dmu, cert = demos[c]
    S, d = exact.quadratic_sum, exact.divergence_pair
    assert res.ell1_exact == -24 * S ** 3 * d * c         # degeneracy broken
    assert abs(res.ell1) > 1.0
    assert dmu * res.ell1 < 0          # torus side
    ok = (cert.verdict == "torus_found" and cert.winding == 1
          and cert.fit_residual <= 1e-3 * cert.curve.mean_radius
          and cert.normally_hyperbolic is True
          and (cert.observed_stability == "attracting") == (cert.normal_exponent < 0)
          and (cert.observed_stability == "attracting") == (res.ell1 < 0)
          and not any(CONTRADICTION in note for note in cert.notes))
    _announce(f"lift demo, c = {c} (degree-2 seed -> degree-3 lift -> certified new "
              f"torus, attracting iff ell1 < 0)",
              ok, f"ell1={res.ell1}, verdict={cert.verdict}, "
                  f"residual={cert.fit_residual:.2e}, rho={cert.rotation}, "
                  f"lambda_n={cert.normal_exponent:.4e}, {cert.observed_stability}")


@pytest.fixture(scope="module")
def drawn_certificates(tmp_path_factory):
    """`certify` on the two Hopf-Zero fields of the `fields` workload's seed 1
    with ell1 > 0, at eps = 0.05 and eps/4 below the Neimark-Sacker point's
    mu, on the torus side, with the certifier shortened: the parsed
    certificate.json of each."""
    gen = _benchmark_inputs()
    out = tmp_path_factory.mktemp("drawn")
    reports = []
    with pytest.MonkeyPatch.context() as patch:
        for name, value in SHORT_CERTIFIER:
            patch.setattr(f"torusforge.torus.{name}", value)
        for i, doc in enumerate(gen.write_inputs("fields", 1, str(out / "docs")).hopf):
            sys = validate_hopf_zero(*(gen.expr(t) for t in gen.hopf_field(1, i)))
            fam = PerturbationFamily.simple(sys.beta)
            rep = criteria_report(sys, fam, (-1.0, 1.0))
            if rep.base.ell1 < 0:
                continue
            tmap = ThetaReturnMap(sys, fam, RETURN_MAP_INTEGRATOR)
            point = unit_circle_point(tmap, rep.perturbation.mu0, 0.05, rep.perturbation.alpha_d)
            target = out / doc.name
            assert torusforge.cli.main(["certify", "--input", doc.path, "--out", str(target),
                                        f"--mu={point.mu - 0.05 / 4!r}", "--eps=0.05"]) == 0
            reports.append(json.loads((target / "certificate.json").read_text()))
    return reports


def test_stability_follows_the_standard_rule(example, certification, lift_demos,
                                            drawn_certificates):
    """Every located curve attracts exactly where ell1 < 0 and repels where
    ell1 > 0, with no contradiction note: criterion 6 (ell1 = -48), both
    lift demos (ell1 = -+128.625) and the two drawn fields with ell1 > 0.
    A no_torus certificate's note names the direction its probe ran in,
    backward exactly where det D Pi(xi) < 1."""
    found, absent = certification[0], certification[1]
    curves = [(-48.0, found.to_dict())]
    curves += [(res.ell1, cert.to_dict()) for res, _, cert in lift_demos[1].values()]
    curves += [(rep["criteria"]["ell1"], rep["certificate"]) for rep in drawn_certificates]
    assert len(drawn_certificates) == 2
    assert all(ell1 > 0 for ell1, _ in curves[-2:])
    for ell1, cert in curves:
        assert cert["verdict"] == "torus_found"
        assert cert["observed_stability"] == ("attracting" if ell1 < 0 else "repelling")
        assert not any(CONTRADICTION in note for note in cert["notes"])
    tmap = _with_config(example[3], CERTIFY_INTEGRATOR)
    (a, b), (c, d) = tmap.jet1(absent.fixed_point, absent.mu, absent.eps).A
    direction = "reversed" if a * d - b * c < 1.0 else "forward"
    assert absent.observed_stability is None
    assert any(f"in {direction} time" in note for note in absent.notes), absent.notes


# ---------------------------------------------------------------------------
# every report leaf carries information
# ---------------------------------------------------------------------------

def report_leaves(report, path=""):
    """(path, value) of each leaf of a parsed report: each value that is not
    an object, a list counted as one leaf."""
    if not isinstance(report, dict):
        yield path, report
        return
    for key, value in report.items():
        yield from report_leaves(value, f"{path}.{key}" if path else key)


def _compared(value):
    """The key a leaf value is compared by, its type with it, so true is not
    1: a float to 12 significant digits, and as 0 within 1e-12 of it, so a
    leaf that reads only rounding takes one value."""
    if isinstance(value, float):
        value = 0.0 if abs(value) <= 1e-12 else float(f"{value:.12g}")
    elif isinstance(value, list):
        value = tuple(map(_compared, value))
    elif isinstance(value, dict):           # an entry of a list
        value = tuple(sorted((k, _compared(v)) for k, v in value.items()))
    return type(value).__name__, value


def _views(values):
    """(name, function) of what one leaf, whose values are `values`, can be
    repeated as: itself, whether it is present (not null), whether a number
    is nonzero, whether a list is empty, its length and entries, an exact
    rational's float, and whether a string is each of its values."""
    present = [v for v in values if v is not None]
    views = [("", lambda v: v), (" is not None", lambda v: v is not None)]
    if present and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in present):
        views.append((" != 0", lambda v: None if v is None else v != 0))
    if present and all(isinstance(v, list) for v in present):
        views.append((" is empty", lambda v: None if v is None else v == []))
        views.append((" length", lambda v: None if v is None else len(v)))
        for i in range(min(len(v) for v in present)):
            entry = (lambda v, i=i: None if v is None else v[i])
            views += [(f"[{i}]{name}", lambda v, f=f, e=entry: f(e(v)))
                      for name, f in _views([entry(v) for v in present])[2:]]
            views.append((f"[{i}]", entry))
    if present and all(isinstance(v, str) for v in present):
        if all(re.fullmatch(r"-?\d+(/\d+)?", v) for v in present):
            views.append((" as float", lambda v: None if v is None else float(Fraction(v))))
        views += [(f" == {s!r}", lambda v, s=s: v == s) for s in sorted(set(present))]
    return views


def audit_reports(reports, own):
    """Each leaf, of the blocks `own` of `reports` (parsed reports of one
    kind), that carries no information, with why: it takes one value other
    than null on every report (a value or null tells only whether it is
    null), or on every report that has both it equals another leaf of the
    same report, or a view of one (`_views`)."""
    leaves = [dict(report_leaves(r)) for r in reports]
    paths = sorted({p for report in leaves for p in report if p.split(".")[0] in own})
    found = {}
    for path in paths:
        values = {_compared(report[path]) for report in leaves if path in report}
        values.discard(_compared(None))
        if len(values) < 2:
            found[path] = f"{sorted(values) or 'null'} on every report"
            continue
        for other in sorted({p for report in leaves for p in report} - {path}):
            both = [r for r in leaves if path in r and other in r]
            if len(both) < 2:
                continue
            for name, view in _views([r[other] for r in both]):
                if all(_compared(r[path]) == _compared(view(r[other])) for r in both):
                    found[path] = f"= {other}{name} on all {len(both)} reports"
                    break
    return found


# documents the audit reads besides the worked example and the benchmark's,
# each for the leaves it moves: eta with two roots (mu0, roots), a family
# with U (the two Gammas), a Gamma >= 0 inside the interval, Omega < 0 with
# a nonzero transcribed ell1, and ell1 = 0 (applicable, reasons)
AUDIT_ANALYZE = (
    {"system": dict(zip("PQR", EXAMPLE)), "perturbation": {"W": "mu^2*z - 1/1000000*z + eps"}},
    {"system": dict(zip("PQR", EXAMPLE)), "perturbation": {"U": "1/2*x", "W": "mu*z + 3/8*eps"},
     "interval": [0.0, 1.2]},
    {"system": dict(zip("PQR", EXAMPLE)), "perturbation": {"W": "mu*z + eps - mu*eps"},
     "interval": [-1.0, 2.0]},
    {"system": {"P": "x*z + z^2", "Q": "y*z + y^2", "R": "x^2 + y^2 + z^2 + x*y"}},
    {"system": {"P": "x*z", "Q": "y*z", "R": "-x^2 - y^2"}},
)
README_LIFT = {"system": {"P": "2 + x + 1/2*z + x^2", "Q": "1 - y + 2*z + y^2",
                          "R": "3 + x + z^2"}, "ball": {"center": [0, 0, 0], "radius": 1.0}}
# the README seed with x^3 in P and Q: a degree-3 seed, lifted to degree 4
CUBIC_LIFT = {"system": {"P": "2 + x + 1/2*z + x^3", "Q": "1 - y + 2*z + y^2 + x^3",
                         "R": "3 + x + z^2"}}


@pytest.fixture(scope="module")
def audited_reports(tmp_path_factory, certification, lift_demos, drawn_certificates):
    """The parsed reports the audit reads, by file name: `analyze` on the
    worked example, the `fields` workload's seed-0 fields and AUDIT_ANALYZE;
    `branch` on the worked example and the first of those fields; `certify`
    far on the no-torus side of the worked example, with criterion 6's torus-side
    report and no-torus certificate, the lift demos' certificates and the
    drawn fields'; `lift` on the README seed, CUBIC_LIFT and the workload's
    seed-0 lift seeds.  A certificate made in process is its `certificate` block alone."""
    out = tmp_path_factory.mktemp("audit")
    inputs = _benchmark_inputs().write_inputs("fields", 0, str(out / "fields"))
    example = {"system": dict(zip("PQR", EXAMPLE))}

    def doc(content, name):
        path = out / name
        path.write_text(json.dumps(content))
        return str(path)

    runs = [("analyze", doc(example, "example.json"), []),
            ("branch", doc(example, "example.json"), []),
            ("branch", inputs.hopf[0].path, []),
            ("certify", doc(example, "example.json"), ["--mu=-0.2", "--eps=0.02"]),
            ("lift", doc(README_LIFT, "readme.json"), []),
            ("lift", doc(CUBIC_LIFT, "cubic.json"), [])]
    runs += [("analyze", doc(d, f"analyze{i}.json"), []) for i, d in enumerate(AUDIT_ANALYZE)]
    runs += [("analyze", d.path, []) for d in inputs.hopf]
    runs += [("lift", d.path, []) for d in inputs.lift]
    reports = {"analyze.json": [], "branch.json": [], "certificate.json": [], "lift.json": []}
    for i, (command, path, flags) in enumerate(runs):
        target = out / f"run{i}"
        assert torusforge.cli.main([command, "--input", path, "--out", str(target),
                                    *flags]) in (0, 2)
        name = "certificate.json" if command == "certify" else f"{command}.json"
        reports[name].append(json.loads((target / name).read_text()))
    found, absent, _, report, _ = certification
    reports["certificate.json"] += [report, {"certificate": absent.to_dict()}]
    reports["certificate.json"] += [{"certificate": cert.to_dict()}
                                    for _, _, cert in lift_demos[1].values()]
    reports["certificate.json"] += drawn_certificates
    return reports


def test_every_report_leaf_carries_information(audited_reports):
    """Over the audited reports (`audited_reports`), every leaf of each
    report kind takes at least two values other than null, and none equals
    another leaf of its report, or a view of one (`_views`), on every
    report that has both, unless AUDIT_ALLOWED gives the reason it stays.
    `meta` and `criteria`, which every report carries, are audited once
    each, over all of them."""
    every = [r for kind in audited_reports.values() for r in kind]
    kinds = {
        "meta": ([{"meta": r["meta"]} for r in every if "meta" in r], {"meta"}),
        "criteria": ([{"criteria": r["criteria"]} for r in every if "criteria" in r],
                     {"criteria"}),
        "branch": (audited_reports["branch.json"],
                   {"branch", "hypotheses", "xi_slice_at_mu0", "lyapunov", "jordan",
                    "closed_forms"}),
        "certificate": (audited_reports["certificate.json"], {"certificate"}),
        "lift": (audited_reports["lift.json"], {"plane", "lift"}),
    }
    unexplained = {}
    for kind, (reports, own) in kinds.items():
        for path, why in audit_reports(reports, own).items():
            if path not in AUDIT_ALLOWED:
                unexplained[path] = why
    assert not unexplained, "\n".join(f"{path} {why}" for path, why in unexplained.items())


# each leaf the audit finds that stays, with the reason it stays
AUDIT_ALLOWED = {
    "meta.tool": "the tool's name, in every report",
    "meta.version": "the package version: one per release",
    "criteria.applicable": "reasons is empty; the exit code and the fields analyze gate read it",
    "criteria.omega": "omega_exact as a float, beside the exact rational",
    "criteria.ell1": "ell1_exact as a float: the lift's runs to hundreds of digits",
    "criteria.perturbation.mu0": "roots[0][0], the theorem's mu0 by name, read by the fields pass",
    "criteria.perturbation.alpha_d": "roots[0][1], mu0's slope, the theorem's alpha_d by name",
    "branch.mu1_closed": "closed_forms.mu1 as a float, which the branch gate compares",
    "certificate.mu": "read by the certify gates; meta.run.mu is null where the document sets mu",
    "certificate.eps": "read by the certify gates; meta.run.eps is null where the document "
                       "sets eps",
    "certificate.curve.mean_radius": "curve.cos[0], which the certify-torus gate reads",
    "certificate.winding": "1 on every curve found here, null without one; the certify-torus "
                           "gate reads it",
    "certificate.normally_hyperbolic": "Fenichel's verdict, null at a lock where a curve winds "
                                       "(tests/test_torus.py)",
    "lift.A_limit": "A_coeffs[2], which the lift gate compares with A_limit_printed",
    "lift.A_limit_printed": "the source's printed limit, which the lift gate compares",
    "lift.char_poly_ok": "the exact characteristic polynomial, reported and read by the lift gate",
    "lift.delta_star": "the largest 4^-k with Omega(L*, 4^-k) > 0: k = 1 on every audited seed",
}
