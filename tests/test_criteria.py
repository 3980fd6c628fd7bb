import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torusforge.criteria import (
    ConstantTermPresent, DegenerateSum, GammaNonNegative, LinearTermPresent,
    PerturbationFamily, criteria_report, evaluate_base_criteria,
    evaluate_perturbation_criteria, perturbation_functions, validate_hopf_zero,
)
from torusforge.fieldexpr import Poly, jet_extract

EXAMPLE = ("0", "y*z", "-x^2 + x*y + z^2")


def test_validate_example():
    sys = validate_hopf_zero(*EXAMPLE)
    assert sys.omega == 2
    assert sys.quadratic_sum == -2


def test_validate_rejects_linear_term():
    with pytest.raises(LinearTermPresent) as exc:
        validate_hopf_zero("x", "y*z", "z^2")
    assert exc.value.component == "P"
    assert exc.value.variable == "x"


def test_validate_rejects_constant_term():
    with pytest.raises(ConstantTermPresent) as exc:
        validate_hopf_zero("0", "y*z", "1 + z^2")
    assert exc.value.coefficient == 1


def test_validate_rejects_parameters():
    with pytest.raises(Exception):
        validate_hopf_zero("mu*x^2", "y*z", "z^2")


def test_base_criteria_example():
    sys = validate_hopf_zero(*EXAMPLE)
    base = evaluate_base_criteria(sys)
    assert base.omega == 2
    assert base.beta == 1
    assert base.gamma_scale == pytest.approx(math.sqrt(2), abs=1e-15)
    assert base.ell1 == pytest.approx(-48.0, abs=1e-9)
    # the transcription of the closed formula is inconsistent with the
    # dynamics; it must be reported, not silently dropped
    assert base.ell1_transcribed == -16
    assert base.ell1_discrepancy == pytest.approx(32.0, abs=1e-9)
    assert any("transcribed" in n for n in base.notes)


def test_base_criteria_negative_omega():
    # raw partials: (P101 + Q011)(R200 + R020) = (1+1)(2+2) = 8, Omega = -8
    sys = validate_hopf_zero("x*z", "y*z", "x^2 + y^2")
    base = evaluate_base_criteria(sys)
    assert base.omega == -8
    assert not base.nondegenerate
    assert base.ell1 is None


def test_base_criteria_termwise_annihilation():
    # only P101, Q011, R200, R020 nonzero: every ell1 contribution vanishes
    sys = validate_hopf_zero("x*z", "2*y*z", "-x^2 - y^2")
    base = evaluate_base_criteria(sys)
    assert base.omega == 12
    assert base.ell1 == pytest.approx(0.0, abs=1e-9)


def test_degenerate_sum_raises():
    sys = validate_hopf_zero("x*z", "y*z", "x^2 - y^2")
    with pytest.raises(DegenerateSum):
        evaluate_base_criteria(sys)


def test_simple_family_criteria():
    sys = validate_hopf_zero(*EXAMPLE)
    fam = PerturbationFamily.simple(beta=1)
    crit = evaluate_perturbation_criteria(sys, fam, (-1.0, 1.0))
    # Gamma_criterion = 4 beta / S = -2, r_mu = sqrt(2)
    assert crit.gamma_criterion(0.0) == pytest.approx(-2.0, abs=1e-14)
    assert crit.gamma_criterion(0.37) == pytest.approx(-2.0, abs=1e-14)
    assert crit.mu0 == pytest.approx(0.0, abs=1e-10)
    assert crit.alpha_d == pytest.approx(math.pi, abs=1e-8)
    assert crit.gamma_discrepancy_max <= 1e-14   # sigma = 0: printed == operational


def test_general_family_criteria():
    # U = x/2, W = mu z + 3/8 eps on the example: mu0 = 1, w_mu = -1/2, r_mu = 1/2
    sys = validate_hopf_zero(*EXAMPLE)
    fam = PerturbationFamily.from_expressions("1/2*x", "0", "mu*z + 3/8*eps")
    crit = evaluate_perturbation_criteria(sys, fam, (0.0, 1.2))
    assert crit.mu0 == pytest.approx(1.0, abs=1e-10)
    assert crit.w_mu(crit.mu0) == pytest.approx(-0.5, abs=1e-14)
    assert crit.gamma_criterion(crit.mu0) == pytest.approx(-0.25, abs=1e-12)
    assert crit.alpha_d == pytest.approx(math.pi, abs=1e-8)
    # sigma != 0 exposes the printed-formula discrepancy; both are reported
    assert crit.gamma_discrepancy_max > 0.1


def test_gamma_nonnegative_family():
    sys = validate_hopf_zero(*EXAMPLE)
    fam = PerturbationFamily.from_expressions("0", "0", "mu*x^2")
    with pytest.raises(GammaNonNegative):
        evaluate_perturbation_criteria(sys, fam, (-1.0, 1.0))


def test_perturbation_precondition():
    with pytest.raises(Exception):
        # U_1(0,0,0; mu) = mu != 0 violates the standing assumption
        PerturbationFamily.from_expressions("mu", "0", "mu*z")


def test_criteria_report_applicable():
    sys = validate_hopf_zero(*EXAMPLE)
    fam = PerturbationFamily.simple(beta=1)
    rep = criteria_report(sys, fam, (-1.0, 1.0))
    assert rep.applicable
    d = rep.to_dict()
    assert d["omega"] == 2.0
    assert d["perturbation"]["mu0"] == pytest.approx(0.0, abs=1e-10)


def test_omega_rotation_invariance():
    """Omega is a planar divergence times a planar Laplacian: invariant under
    rotating (x, y) in (P, Q, R) while keeping the linear part."""
    from torusforge.fieldexpr import Poly

    rng = random.Random(3)
    base = validate_hopf_zero("x*z + x*y + z^2 + x^3",
                              "3*y*z + y^2 + y^3",
                              "-2*x^2 + x*y + z^2 + z^3")
    omega0 = float(base.omega)
    px, qx, rx = base.P, base.Q, base.R
    X, Y = Poly.variable("x"), Poly.variable("y")
    for _ in range(5):
        phi = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(phi), math.sin(phi)
        # conjugate by the rotation: substitute (x, y) -> (cx - sy, sx + cy)
        # in each component, then recombine (P', Q') = (cP + sQ, -sP + cQ)
        rot = {"x": X.scale(c) - Y.scale(s), "y": X.scale(s) + Y.scale(c)}
        Pr, Qr, Rr = px.substitute(rot), qx.substitute(rot), rx.substitute(rot)
        Pn = Pr.scale(c) + Qr.scale(s)
        Qn = Pr.scale(-s) + Qr.scale(c)
        jP, jQ, jR = jet_extract(Pn), jet_extract(Qn), jet_extract(Rr)
        omega_rot = -(jP.get(1, 0, 1) + jQ.get(0, 1, 1)) * (jR.get(2, 0, 0) + jR.get(0, 2, 0))
        assert abs(float(omega_rot) - omega0) <= 1e-12


def test_beta_sign_invariant():
    for exprs in [EXAMPLE, ("x*z", "0", "x^2 + y^2 + x*y + z^2")]:
        sys = validate_hopf_zero(*exprs)
        base = evaluate_base_criteria(sys)
        assert base.beta * float(sys.quadratic_sum) < 0


def test_no_root_in_interval():
    from torusforge.criteria import NoRootInInterval
    sys = validate_hopf_zero(*EXAMPLE)
    fam = PerturbationFamily.simple(beta=1)        # eta(mu) = pi mu
    with pytest.raises(NoRootInInterval):
        evaluate_perturbation_criteria(sys, fam, (1.0, 2.0))


def test_degenerate_transversality():
    from torusforge.criteria import DegenerateTransversality
    sys = validate_hopf_zero(*EXAMPLE)
    fam = PerturbationFamily.from_expressions("0", "0", "eps")   # eta == 0
    with pytest.raises(DegenerateTransversality):
        evaluate_perturbation_criteria(sys, fam, (-1.0, 1.0))


# d = P101 + Q011 > 0 on the example and < 0 on the second system
SYSTEMS = (EXAMPLE, ("1/2*x*z - 1/2*x*y", "-2*y*z", "-3/4*z^2 + 1/2*y^2 + x*y + 1/2*x^2"))

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=8)
in_mu = st.lists(rationals, min_size=0, max_size=3)      # mu-degree <= 2


def _terms(xyz, eps_power, coeffs):
    return {(*xyz, a, eps_power): c for a, c in enumerate(coeffs)}


@st.composite
def families(draw):
    """Admissible families whose criteria slices have mu-degree <= 2, plus
    terms the criteria do not read (higher degree, linear at order eps)."""
    U = _terms((1, 0, 0), 0, draw(in_mu))
    V = _terms((0, 1, 0), 0, draw(in_mu))
    W = {**_terms((0, 0, 1), 0, draw(in_mu)), **_terms((0, 0, 0), 1, draw(in_mu))}
    U[(0, 1, 0, 1, 0)] = draw(rationals)      # y*mu: in U_1, not in sigma
    V[(1, 1, 0, 0, 0)] = draw(rationals)
    W[(0, 0, 1, 0, 1)] = draw(rationals)      # z*eps: in W_2, not in w20
    return PerturbationFamily.from_expressions(Poly(U), Poly(V), Poly(W))


def _value_and_scale(p: Poly, xyz, eps_power, mu: Fraction):
    """The exact slice value at mu and the sum of its terms' magnitudes."""
    terms = [c * mu ** m[3] for m, c in p.terms.items()
             if m[:3] == xyz and m[4] == eps_power]
    return sum(terms, Fraction(0)), sum(map(abs, terms), Fraction(0))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SYSTEMS), families(), st.floats(-2.0, 2.0))
def test_compiled_criteria_match_exact(exprs, fam, mu):
    """w_mu, Gamma (both forms) and eta against exact Fraction evaluation,
    to 1e-13 of the size of the terms they sum."""
    sys = validate_hopf_zero(*exprs)
    gamma_op, gamma_pr, eta, w_mu = perturbation_functions(sys, fam)
    q = Fraction(mu)
    d, S, c = sys.divergence_pair, sys.quadratic_sum, sys.jR.get(0, 0, 2)
    su, su_ = _value_and_scale(fam.U, (1, 0, 0), 0, q)
    sv, sv_ = _value_and_scale(fam.V, (0, 1, 0), 0, q)
    s, s_ = su + sv, su_ + sv_
    w1z, w1z_ = _value_and_scale(fam.W, (0, 0, 1), 0, q)
    w20, w20_ = _value_and_scale(fam.W, (0, 0, 0), 1, q)
    w, w_ = -s / d, s_ / abs(d)
    expected = {
        w_mu: (w, w_),
        gamma_op: ((2 * c * w * w + 4 * w1z * w + 4 * w20) / S,
                   (2 * abs(c) * w_ * w_ + 4 * w1z_ * w_ + 4 * w20_) / abs(S)),
        gamma_pr: ((2 * c * s * s - w1z * s) / (S * d * d) + 4 * w20 / S,
                   (2 * abs(c) * s_ * s_ + w1z_ * s_) / abs(S * d * d) + 4 * w20_ / abs(S)),
        eta: (math.pi * float((d * w1z - c * s) / d),
              math.pi * (abs(d) * w1z_ + abs(c) * s_) / abs(d)),
    }
    for fn, (exact, scale) in expected.items():
        assert abs(fn(mu) - float(exact)) <= 1e-13 * float(scale), fn.__name__


@pytest.mark.parametrize("exprs", SYSTEMS)
def test_simple_family_w_mu_is_positive_zero(exprs):
    sys = validate_hopf_zero(*exprs)
    fam = PerturbationFamily.simple(1 if sys.quadratic_sum < 0 else -1)
    w_mu = perturbation_functions(sys, fam)[3]
    for mu in (-0.5, 0.0, 0.3):
        assert math.copysign(1.0, w_mu(mu)) == 1.0 and w_mu(mu) == 0.0
