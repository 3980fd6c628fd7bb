import inspect
import json
import math
import random
import textwrap
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from torusforge import criteria, univariate
from torusforge.averaging import PiPoly, melnikov_pair, to_standard_form
from torusforge.criteria import (
    ConstantTermPresent, CriteriaError, DegenerateSum, GammaNonNegative, LinearTermPresent,
    HopfZeroSystem, PerturbationFamily, criteria_report, evaluate_base_criteria,
    evaluate_perturbation_criteria, perturbation_functions, validate_hopf_zero,
)
from torusforge.fieldexpr import Poly, partial

from oracles import (
    ell1_nested_source, ell1_terms, ell1_transcribed, entry_values,
    first_lyapunov_quantity, fit_ell1, random_hopf_zero, spectrum_identity,
)

EXAMPLE = ("0", "y*z", "-x^2 + x*y + z^2")


def test_validate_example():
    sys = validate_hopf_zero(*EXAMPLE)
    assert sys.omega == 2
    assert sys.quadratic_sum == -2


def test_system_is_its_three_polynomials():
    """A system holds P, Q and R and nothing else: every invariant is read
    off them, once, and a frozen system keeps each read from going stale."""
    sys = validate_hopf_zero(*EXAMPLE)
    assert [f.name for f in fields(HopfZeroSystem)] == ["P", "Q", "R"]
    with pytest.raises(FrozenInstanceError):
        sys.R = Poly()
    assert sys.ell1_exact is sys.ell1_exact and sys.omega is sys.omega


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
    assert base.ell1_exact == Fraction(-48) and base.ell1 == -48.0
    assert base.l12 == -3 * math.pi / 4
    # the transcription of the closed formula is inconsistent with the
    # dynamics; it must be reported, not silently dropped
    assert base.ell1_transcribed == -16
    assert base.ell1_discrepancy == pytest.approx(32.0, abs=1e-9)
    assert base.ell1_discrepancy == 32.0
    assert any("transcribed" in n for n in base.notes)


def test_ell1_exact_worked_example():
    sys = validate_hopf_zero(*EXAMPLE)
    ell1 = sys.ell1_exact
    assert isinstance(ell1, Fraction) and ell1 == Fraction(-48)


def test_ell1_exact_equals_the_rounded_oracle_on_integer_systems():
    """On systems with integer coefficients every jet entry is an integer,
    so the form is an integer, and the eps-series of the averaged map must
    round to it.  The series' eps^1 slice l11 vanishes to rounding: it is 0
    for every system, which is why no report holds it."""
    rng = random.Random(7)
    for _ in range(60):
        sys = random_hopf_zero(rng)
        oracle = first_lyapunov_quantity(sys)
        ell1 = sys.ell1_exact
        assert ell1.denominator == 1
        assert ell1 == round(oracle.ell1)
        assert abs(oracle.ell1 - ell1) <= 1e-12 * max(1.0, abs(oracle.ell1))
        assert abs(oracle.l11) <= 1e-12 * max(1.0, abs(oracle.l12))


def test_ell1_exact_is_invariant_under_rotation_about_z():
    """Conjugating by the rotation with (cos, sin) = (3/5, 4/5) keeps the
    linear part (-y, x, 0), and with it Omega and ell_1, exactly."""
    c, s = Fraction(3, 5), Fraction(4, 5)
    X, Y = Poly.variable("x"), Poly.variable("y")
    rot = {"x": X.scale(c) - Y.scale(s), "y": X.scale(s) + Y.scale(c)}
    rng = random.Random(11)
    for sys in [validate_hopf_zero(*EXAMPLE)] + [random_hopf_zero(rng) for _ in range(3)]:
        P, Q, R = (p.substitute(rot) for p in (sys.P, sys.Q, sys.R))
        turned = validate_hopf_zero(P.scale(c) + Q.scale(s), P.scale(-s) + Q.scale(c), R)
        assert turned.omega == sys.omega
        assert turned.ell1_exact == sys.ell1_exact
        assert entry_values(turned) != entry_values(sys)


def test_ell1_refit_returns_the_coded_coefficients():
    """The exact fit of the eps-series on the transcription's 221 monomials
    (tests/oracles.py) is the polynomial `_ell1_repaired` expands to: 218
    nonzero coefficients, 82 of them different from the transcription's.
    Its return statement is the one the generator writes from the fit."""
    transcribed = ell1_terms(criteria._ell1_closed_form)
    assert len(transcribed) == 221
    fitted = fit_ell1(sorted(transcribed))
    assert fitted == ell1_terms(criteria._ell1_repaired)
    assert len(fitted) == 218
    assert sum(fitted.get(m, 0) != c for m, c in transcribed.items()) == 82
    assert (textwrap.indent(ell1_nested_source(fitted), "    ")
            in inspect.getsource(criteria._ell1_repaired))


_JET_INDICES = [(i, j, k) for i in range(4) for j in range(4) for k in range(4)
                if 2 <= i + j + k <= 3]
# a Poly whose raw partials are the drawn entries
_JETS = st.dictionaries(st.sampled_from(_JET_INDICES),
                        st.fractions(max_denominator=10 ** 6).filter(bool), max_size=12
                        ).map(lambda entries: Poly({
                            (*idx, 0, 0): v / math.prod(map(math.factorial, idx))
                            for idx, v in entries.items()}))


@settings(max_examples=100, deadline=None)
@given(_JETS, _JETS, _JETS)
def test_ell1_transcribed_on_integers_is_the_fraction_value(P, Q, R):
    """The closed form evaluated on the integer-scaled entries and divided by
    s^6 is the Fraction the same form gives on the entries themselves."""
    sys = HopfZeroSystem(P, Q, R)
    direct = criteria._ell1_closed_form(
        *(lambda i, j, k, p=p: partial(p, i, j, k) for p in (P, Q, R)))
    assert ell1_transcribed(sys) == direct
    assert isinstance(ell1_transcribed(sys), Fraction)


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
    assert base.ell1_exact == 0


def test_degenerate_sum_raises():
    sys = validate_hopf_zero("x*z", "y*z", "x^2 - y^2")
    with pytest.raises(DegenerateSum):
        evaluate_base_criteria(sys)


def test_simple_family_criteria():
    sys = validate_hopf_zero(*EXAMPLE)
    fam = PerturbationFamily.simple(beta=1)
    crit = evaluate_perturbation_criteria(sys, fam, (-1.0, 1.0))
    # Gamma_criterion = 4 beta / S = -2, r_mu = sqrt(2)
    gamma_op = perturbation_functions(sys, fam)[0]
    assert gamma_op(0.0) == pytest.approx(-2.0, abs=1e-14)
    assert gamma_op(0.37) == pytest.approx(-2.0, abs=1e-14)
    assert crit.gamma_at_mu0 == gamma_op(0.0)
    assert (crit.mu0, crit.alpha_d, crit.roots) == (0.0, math.pi, ((0.0, math.pi),))
    assert crit.gamma_discrepancy_max == 0.0     # sigma = 0: printed == operational
    assert crit.gamma_nonnegative == ()


def test_simple_family_is_frozen():
    """A simple family is frozen data: no field can be rebound, and its
    terms stay those of (0, 0, mu*z + beta*eps), whose ingredients are
    sigma = 0, w1z = mu and w20 = beta."""
    fam = PerturbationFamily.simple(1)
    assert PerturbationFamily.simple(beta=1) == fam != PerturbationFamily.simple(-1)
    assert PerturbationFamily.from_expressions("0", "0", "mu*z + eps") == fam
    for name in ("U", "V", "W"):
        with pytest.raises(FrozenInstanceError):
            setattr(fam, name, getattr(PerturbationFamily.simple(-1), name))
    assert fam.W == Poly({(0, 0, 1, 1, 0): Fraction(1), (0, 0, 0, 0, 1): Fraction(1)})
    assert not fam.U and not fam.V
    mu = Poly({(0, 0, 0, 1, 0): Fraction(1)})
    assert criteria._ingredients(fam) == (Poly(), mu, Poly({(0,) * 5: Fraction(1)}))


def test_general_family_criteria():
    # U = x/2, W = mu z + 3/8 eps on the example: mu0 = 1, w_mu = -1/2, r_mu = 1/2
    sys = validate_hopf_zero(*EXAMPLE)
    fam = PerturbationFamily.from_expressions("1/2*x", "0", "mu*z + 3/8*eps")
    crit = evaluate_perturbation_criteria(sys, fam, (0.0, 1.2))
    assert crit.mu0 == 1.0
    gamma_op, _, w_mu = perturbation_functions(sys, fam)
    assert w_mu(crit.mu0) == pytest.approx(-0.5, abs=1e-14)
    assert gamma_op(crit.mu0) == pytest.approx(-0.25, abs=1e-12)
    assert crit.gamma_at_mu0 == gamma_op(crit.mu0)
    assert crit.alpha_d == pytest.approx(math.pi, abs=1e-8)
    # sigma != 0 exposes the printed-formula discrepancy, 3/4 mu; both are
    # reported, and the largest on [0, 1.2] is at the float 1.2
    assert crit.gamma_discrepancy_max == float(Fraction(3, 4) * Fraction(1.2))


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


def test_ell1_zero_reads_the_exact_ell1():
    """Every nonlinear coefficient of the worked example times 1/1024 is an
    exact change of units, (x, y, z) -> 1024 (x, y, z): ell_1 becomes
    -48 / 1024^6, under the float bound 1e-12 that Ell1Zero once read, and
    the report stays applicable."""
    sys = validate_hopf_zero("0", "1/1024*y*z", "1/1024*(-x^2 + x*y + z^2)")
    rep = criteria_report(sys, PerturbationFamily.simple(beta=sys.beta), (-1.0, 1.0))
    assert rep.base.ell1_exact == Fraction(-3, 2 ** 56)
    assert rep.applicable and rep.reasons == ()


def test_ell1_zero_on_an_exact_zero():
    """P = x z, Q = y z, R = -x^2 - y^2 has Omega = 8 and ell_1 = 0 exactly:
    not applicable, for Ell1Zero alone."""
    sys = validate_hopf_zero("x*z", "y*z", "-x^2 - y^2")
    rep = criteria_report(sys, PerturbationFamily.simple(beta=sys.beta), (-1.0, 1.0))
    assert rep.base.omega == 8 and rep.base.ell1_exact == 0
    assert not rep.applicable and rep.reasons == ("Ell1Zero",)


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
        omega_rot = -(partial(Pn, 1, 0, 1) + partial(Qn, 0, 1, 1)) * (partial(Rr, 2, 0, 0)
                                                                       + partial(Rr, 0, 2, 0))
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
    """w_mu and Gamma (both forms) against exact Fraction evaluation, to
    1e-13 of the size of the terms they sum."""
    sys = validate_hopf_zero(*exprs)
    gamma_op, gamma_pr, w_mu = perturbation_functions(sys, fam)
    q = Fraction(mu)
    d, S, c = sys.divergence_pair, sys.quadratic_sum, partial(sys.R, 0, 0, 2)
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
    }
    for fn, (exact, scale) in expected.items():
        assert abs(fn(mu) - float(exact)) <= 1e-13 * float(scale), fn.__name__


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SYSTEMS), families(), st.floats(-2.0, 2.0))
def test_closed_form_equilibrium_is_the_root_of_f1(exprs, fam, mu):
    """(sqrt(-Gamma_op(mu)), w_mu(mu)), which `closed_form_equilibrium`
    returns as it is, is the root of f1: each f1 component vanishes there to a few
    ulps of the sum of its terms' magnitudes (under one ulp measured)."""
    sys = validate_hopf_zero(*exprs)
    gamma_op, _, w_mu = perturbation_functions(sys, fam)
    gamma = gamma_op(mu)
    assume(gamma < 0)
    r, w = math.sqrt(-gamma), w_mu(mu)
    mel = melnikov_pair(to_standard_form(sys, fam))
    for f, value in zip(mel.f1_exact, mel.f1((r, w), mu)):
        scale = sum(abs(float(c)) * r ** a * abs(w) ** b * abs(mu) ** m * math.pi ** k
                    for (a, b, m, k), c in f.terms.items())
        assert abs(value) <= 4 * math.ulp(1.0) * scale


# the worked example with R^(2,0,0) turned: d = 1, S = 2 and Omega = -2
NEGATIVE_OMEGA = ("0", "y*z", "x^2 + x*y + z^2")


@st.composite
def reporting_draws(draw):
    """A system with Omega > 0 or Omega < 0, a family of `families()` and an
    interval mu_r +- 1/64 on which the criteria report builds: the drawn
    family's z term at order eps^0 moves a root of eta to mu_r, a drawn
    rational in [-1, 1], and its eps term sets Gamma(mu_r) = -1.  Draws
    where mu_r is a multiple root or eta has another root in the interval
    are rejected."""
    exprs = draw(st.sampled_from(SYSTEMS + (NEGATIVE_OMEGA,)))
    sys = validate_hopf_zero(*exprs)
    fam = draw(families())
    mu_r = draw(st.fractions(-1, 1, max_denominator=8))
    lo, hi = mu_r - Fraction(1, 64), mu_r + Fraction(1, 64)
    d, S = sys.divergence_pair, sys.quadratic_sum
    # eta d / pi = d w1z - c sigma, so w1z + a moves it by d a
    eta = criteria._exact_criteria(sys, fam)[0] or [Fraction(0)]
    a = -univariate.value(eta, mu_r) / d
    eta[0] += d * a
    assume(univariate.value(univariate.derivative(eta), mu_r) != 0)
    assume(len(univariate.roots(eta, lo, hi)) == 1)
    W = fam.W + Poly({(0, 0, 1, 0, 0): a})
    # Gamma = ... + 4 w20 / S, so w20 + b moves it by 4 b / S
    gamma = criteria._exact_criteria(sys, PerturbationFamily(fam.U, fam.V, W))[1]
    W = W + Poly({(0, 0, 0, 0, 1): -S * (univariate.value(gamma, mu_r) + 1) / 4})
    return exprs, PerturbationFamily(fam.U, fam.V, W), mu_r, (float(lo), float(hi))


@settings(max_examples=60, deadline=None)
@given(reporting_draws())
def test_averaged_spectrum_identity(draw):
    """f1_r = pi r (sigma(mu) + d w) everywhere, and on the line
    w = w_mu(mu) = -sigma(mu)/d the exact f1 and its Jacobian J in (r, w)
    satisfy, as polynomials in (r, mu, pi): f1_r = 0,
    f1_w = (pi S / 2) (r^2 + Gamma), tr J = 2 eta and
    det J = pi^2 Omega r^2, with eta = pi (eta d / pi) / d and Gamma the
    criteria's exact polynomials.  So `criteria.hypotheses` reads H as
    Omega > 0 wherever the criteria report builds; every draw builds one,
    on systems with Omega > 0 and with Omega < 0."""
    exprs, fam, mu_r, interval = draw
    sys = validate_hopf_zero(*exprs)
    d = sys.divergence_pair
    eta, gamma, _ = criteria._exact_criteria(sys, fam)
    sigma = criteria._ingredients(fam)[0]
    on_line = {"w": PiPoly({(0, 0, m[3], 0): -c / d for m, c in sigma.terms.items()})}
    mel = melnikov_pair(to_standard_form(sys, fam))
    f_r, f_w = (f.substitute(on_line) for f in mel.f1_exact)
    (a, b), (c, e) = ([f.derivative(v).substitute(on_line) for v in ("r", "w")]
                      for f in mel.f1_exact)
    r, w, pi = (PiPoly.variable(v) for v in ("r", "w", "pi"))

    def in_mu(p):
        return PiPoly({(0, 0, i, 0): q for i, q in enumerate(p)})

    sigma_mu = PiPoly({(0, 0, m[3], 0): c for m, c in sigma.terms.items()})
    assert mel.f1_exact[0] == r * pi * (sigma_mu + w.scale(d))
    k = f_w.terms[(2, 0, 0, 1)]
    assert k == sys.quadratic_sum / 2
    assert f_r == PiPoly()
    assert f_w == (r * r + in_mu(gamma)) * pi.scale(k)
    assert a + e == in_mu(eta) * pi.scale(2 / d)
    assert a * e - b * c == r * r * pi * pi.scale(sys.omega)
    assert spectrum_identity(mel, sys, fam)
    rep = criteria_report(sys, fam, interval)
    assert rep.perturbation.mu0 == float(mu_r) and rep.perturbation.gamma_at_mu0 < 0
    assert (criteria.hypotheses(rep)["omega0"] is not None) == (sys.omega > 0)


@pytest.mark.parametrize("exprs", SYSTEMS)
def test_simple_family_w_mu_is_positive_zero(exprs):
    sys = validate_hopf_zero(*exprs)
    fam = PerturbationFamily.simple(1 if sys.quadratic_sum < 0 else -1)
    w_mu = perturbation_functions(sys, fam)[2]
    for mu in (-0.5, 0.0, 0.3):
        assert math.copysign(1.0, w_mu(mu)) == 1.0 and w_mu(mu) == 0.0


_TINY = Fraction(1, 10 ** 200)       # its square is 0.0 as a float
_HUGE = Fraction(10 ** 300)
_EXTREME = [
    # eta = 10^300 mu^3 has a triple root at 0
    pytest.param(EXAMPLE, ("0", "0", Poly({(0, 0, 1, 3, 0): _HUGE, (0, 0, 0, 0, 1): Fraction(1)})),
                 (-1e10, 1e10), "DegenerateTransversality", id="huge-cubic"),
    pytest.param(EXAMPLE, ("0", "0", "mu*z + eps"), (-1.7e308, 1.7e308), "report",
                 id="wide-interval"),
    # eta's root is 2 10^300, outside the interval
    pytest.param(EXAMPLE, (Poly({(1, 0, 0, 0, 0): _HUGE}), "0", "mu*z + eps"), (-1.0, 1.0),
                 "NoRootInInterval", id="huge-sigma"),
    # S d^2 is 0.0 as a float: Gamma = 2 > 0 ends the first before eta's
    # roots are sought, and Gamma_printed refuses the divisor in the second
    pytest.param((Poly({(1, 0, 1, 0, 0): _TINY}), "0", "x^2"), ("0", "0", "z + eps"),
                 (-1.0, 1.0), "GammaNonNegative", id="tiny-sdd-gamma"),
    pytest.param((Poly({(1, 0, 1, 0, 0): _TINY}), "0", "x^2"), ("0", "0", "mu*z - eps"),
                 (-1.0, 1.0), "FloatRangeExceeded", id="tiny-sdd"),
    # d is 0.0 as a float: refused before any criterion
    pytest.param((Poly({(1, 0, 1, 0, 0): _TINY * _TINY}), "0", "x^2"), ("0", "0", "mu*z - eps"),
                 (-1.0, 1.0), "FloatRangeExceeded", id="tiny-d"),
    # eta's roots are +-10^-300, refined down to the float exponent range
    pytest.param(EXAMPLE, ("0", "0", f"mu^2*z - 1/1{'0' * 600}*z + eps"), (-1.0, 1.0),
                 "report", id="roots-1e-300"),
]


@pytest.mark.parametrize("exprs, family, interval, outcome", _EXTREME)
def test_extreme_inputs_end_in_a_typed_error_or_a_finite_report(exprs, family, interval,
                                                                outcome):
    """Where a coefficient, a root or the interval reaches the float range,
    or a float divisor is 0.0, the criteria end in a typed error or in a
    report of finite floats, never in a traceback."""
    sys = validate_hopf_zero(*exprs)
    fam = PerturbationFamily.from_expressions(*family)
    try:
        report = criteria_report(sys, fam, interval).to_dict()
    except CriteriaError as exc:
        assert type(exc).__name__ == outcome, exc
    else:
        assert outcome == "report"
        json.dumps(report, allow_nan=False)
