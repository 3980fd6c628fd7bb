import math
from fractions import Fraction

import numpy as np
import pytest

from torusforge import averaging
from torusforge.averaging import (
    AveragingError, ComplexPairLost, averaged_equilibrium, eps_graded_slices,
    first_lyapunov_quantity, hypothesis_check, melnikov_pair,
    printed_branch_constants, to_standard_form,
)
from torusforge.criteria import (
    PerturbationFamily, evaluate_perturbation_criteria, validate_hopf_zero,
)
from torusforge.flow import ThetaReturnMap

from oracles import StandardForm, f1_quadrature, f2_quadrature

EXAMPLE = ("0", "y*z", "-x^2 + x*y + z^2")

# exact oracles from the independent symbolic pipeline (offline derivation):
# (P, Q, R, ell1, mu1, xi1(mu) slope pair, xi2, m21_1, m22_1)
SQ2 = math.sqrt(2.0)
PROBES = [
    (EXAMPLE, Fraction(-48), Fraction(3, 4), (0.0, -SQ2 / 8), Fraction(-3, 4),
     -3 * SQ2 / 4, 0.0),
    (("x*z", "0", "-1/2*x^2 - 1/2*y^2 + 2*x*y + 3*z^2"),
     Fraction(672), Fraction(-7, 2), (0.0, SQ2 / 4), Fraction(-1, 2), -SQ2 / 2, 0.0),
    (("x*z", "0", "-1/2*x^2 - 1/2*y^2 + x*y + 1/2*z^2"),
     Fraction(16), Fraction(-1, 2), (0.0, SQ2 / 8), Fraction(-1, 4), -SQ2 / 4, 0.0),
    (("x*z + x*y + 1/2*x^2 + z^2 + x^3",
      "3*y*z + y^2 + 1/3*x*y + y^3 + x^2*z",
      "-2*x^2 + x^2*y + x*y + z^2 + z^3 + y*z^2"),
     Fraction(11648, 3), Fraction(-19, 48), (-1.0, -43 / 192), Fraction(-67, 96),
     -67 / 48, -2.0),
    (("2*x*z + x^2*z + x*y^2", "2*y*z + y^3 + x*z^2",
      "-1/2*x^2 - 1/2*y^2 + x*y + 2*z^2 + x^2*z + z^3"),
     Fraction(1280), Fraction(-1), (0.0, -SQ2 / 4), Fraction(-1), -SQ2, 0.0),
    (("-x*z", "0", "1/2*x^2 + 1/2*y^2 + x*y + z^2 + 1/2*z^3"),
     Fraction(80), Fraction(-1, 4), (0.0, -SQ2 / 8), Fraction(-1, 4), -SQ2 / 4, 0.0),
]


def _example_pair():
    sys = validate_hopf_zero(*EXAMPLE)
    fam = PerturbationFamily.simple(beta=1)
    std = to_standard_form(sys, fam)
    return sys, fam, std, melnikov_pair(std)


def test_standard_form_slices_and_periodicity():
    sys, fam, std, mel = _example_pair()
    # no eps-free nonlinear terms survive the rescaling; the example is
    # exactly affine in eps, so only grades 0 and 1 appear (F2 then comes
    # entirely from the division by theta-dot)
    assert len(eps_graded_slices(sys, fam)) == 2
    samples = [(0.9, -0.3), (1.4, 0.2), (2.0, 0.5)]
    assert StandardForm(std).periodicity_residual(samples, mu=0.1) <= 1e-12


def test_f1_exact_closed_form():
    _, _, _, mel = _example_pair()
    # f1 = (pi r w, pi (2 mu w - r^2 + 2 w^2 + 2)), exact coefficients keyed
    # by the exponents of (r, w, mu, pi)
    assert mel.f1_exact[0].terms == {(1, 1, 0, 1): Fraction(1)}
    assert mel.f1_exact[1].terms == {
        (0, 1, 1, 1): Fraction(2), (2, 0, 0, 1): Fraction(-1),
        (0, 2, 0, 1): Fraction(2), (0, 0, 0, 1): Fraction(2)}


def test_f2_exact_closed_form():
    _, _, _, mel = _example_pair()
    assert mel.f2_exact[0].terms == {
        (1, 0, 0, 2): Fraction(1),
        (1, 1, 1, 2): Fraction(1),
        (1, 2, 0, 2): Fraction(3, 2),
        (3, 0, 0, 1): Fraction(3, 8), (3, 0, 0, 2): Fraction(-1, 2)}
    assert mel.f2_exact[1].terms == {
        (0, 0, 1, 2): Fraction(2),
        (0, 1, 0, 2): Fraction(4),
        (0, 1, 2, 2): Fraction(2),
        (0, 2, 1, 2): Fraction(6),
        (0, 3, 0, 2): Fraction(4),
        (2, 0, 1, 1): Fraction(1, 2), (2, 0, 1, 2): Fraction(-1),
        (2, 1, 0, 2): Fraction(-3)}


def test_f1_quadrature_matches_closed_form():
    _, _, _, mel = _example_pair()
    for r in (0.7, 1.0, 1.4142, 2.1):
        for w in (-0.4, 0.0, 0.3):
            for mu in (0.0, 0.05):
                q = f1_quadrature(mel, (r, w), mu)
                c = mel.f1((r, w), mu)
                assert np.max(np.abs(q - c)) <= 1e-9


def test_f2_quadrature_matches_exact():
    _, _, _, mel = _example_pair()
    for r, w, mu in [(0.8, -0.2, 0.0), (1.5, 0.4, 0.1), (2.0, 0.0, -0.05)]:
        q = f2_quadrature(mel, (r, w), mu)
        c = mel.f2_closed((r, w), mu)
        assert np.max(np.abs(q - c)) <= 1e-10


def test_f2_reduces_to_plain_average_when_f1_vanishes():
    # family with F1 = 0: no quadratic part, perturbation only at eps^2
    sys = validate_hopf_zero("x^2*y", "0", "x^2*z")    # cubic-only components
    fam = PerturbationFamily.from_expressions("0", "0", "eps*z^2")
    std = to_standard_form(sys, fam)
    mel = melnikov_pair(std)
    assert not mel.f1_exact[0].terms and not mel.f1_exact[1].terms
    x = (1.1, 0.2)
    direct = f2_quadrature(mel, x, 0.0)
    # with f1 = 0 the second Melnikov function is the plain average of F2
    plain = np.zeros(2)
    n = 400
    ts = np.linspace(0, 2 * math.pi, n, endpoint=False)
    sf = StandardForm(std)
    for t in ts:
        plain += sf.F2(t, x, 0.0) / n * (2 * math.pi)
    assert np.max(np.abs(direct - plain)) <= 1e-8


def test_zero_mean_integrand_gives_zero_f1():
    # P = z^2 feeds cos*z^2 into F1^1: zero mean in theta
    sys = validate_hopf_zero("z^2", "0", "-x^2 - y^2 + z^2")
    fam = PerturbationFamily.simple(beta=1)
    mel = melnikov_pair(to_standard_form(sys, fam))
    assert (0, 2, 0, 1) not in mel.f1_exact[0].terms  # no r^0 w^2 term survives


def test_equilibrium_example_mu0():
    _, _, _, mel = _example_pair()
    eq = averaged_equilibrium(mel, 0.0)
    assert eq.r == pytest.approx(math.sqrt(2), abs=1e-12)
    assert eq.w == 0
    assert eq.eigenvalues[0] == pytest.approx(2j * math.pi, abs=1e-10)
    assert eq.omega == pytest.approx(2 * math.pi, abs=1e-12)
    assert eq.residual <= 1e-10


def test_equilibrium_example_mu_positive():
    _, _, _, mel = _example_pair()
    eq = averaged_equilibrium(mel, 0.1)
    lam_expected = complex(0.1 * math.pi, math.pi * math.sqrt(8 - 0.01 * 2) / math.sqrt(2))
    assert eq.eigenvalues[0] == pytest.approx(lam_expected, abs=1e-10)


def test_complex_pair_lost_outside_window():
    _, _, _, mel = _example_pair()
    # |mu| >= 2 sqrt(Omega)/Gamma = 2 sqrt(2)/sqrt(2) = 2 loses the pair
    with pytest.raises(ComplexPairLost):
        averaged_equilibrium(mel, 2.5)


@pytest.mark.parametrize("exprs,ell1,mu1,xi1,xi2,m21,m22", PROBES)
def test_first_lyapunov_quantity_probes(exprs, ell1, mu1, xi1, xi2, m21, m22):
    sys = validate_hopf_zero(*exprs)
    res = first_lyapunov_quantity(sys)
    assert res.ell1 == pytest.approx(float(ell1), rel=1e-9, abs=1e-9)
    assert res.l11 == pytest.approx(0.0, abs=1e-9)
    assert res.mu1 == pytest.approx(float(mu1), rel=1e-9, abs=1e-12)
    assert res.zeta2 == pytest.approx(0.0, abs=1e-8)
    # M series entries double as the m21^1, m22^1 comparison
    assert res.M1[1, 0] == pytest.approx(m21, rel=1e-9, abs=1e-10)
    assert res.M1[1, 1] == pytest.approx(m22, rel=1e-9, abs=1e-10)
    # u1 stores the eps-slice of the fixed point at mu = 0
    assert res.u1[0] == pytest.approx(xi1[0], rel=1e-9, abs=1e-10)
    assert res.u1[1] == pytest.approx(float(xi2), rel=1e-9, abs=1e-10)


@pytest.mark.parametrize("exprs,ell1,mu1,xi1,xi2,m21,m22", PROBES)
def test_printed_branch_constants_probes(exprs, ell1, mu1, xi1, xi2, m21, m22):
    sys = validate_hopf_zero(*exprs)
    bc = printed_branch_constants(sys)
    assert bc.mu1 == mu1                   # exact rational
    assert bc.xi2 == xi2
    assert float(bc.xi1_const) == pytest.approx(xi1[0], abs=1e-12)
    assert bc.xi1_slope == pytest.approx(xi1[1], rel=1e-12, abs=1e-14)
    assert bc.m21_1 == pytest.approx(m21, rel=1e-12, abs=1e-14)
    assert bc.m22_1 == pytest.approx(m22, rel=1e-12, abs=1e-14)


def test_jordan_blocks_example():
    sys = validate_hopf_zero(*EXAMPLE)
    res = first_lyapunov_quantity(sys)
    two_pi = 2 * math.pi
    assert np.allclose(res.A1, [[0, -two_pi], [two_pi, 0]], atol=1e-10)
    assert np.allclose(res.A2, [[-2 * math.pi ** 2, 0], [0, -2 * math.pi ** 2]],
                       atol=1e-10)
    assert np.allclose(res.M0, [[1, 0], [0, -math.sqrt(2)]], atol=1e-12)
    assert res.l12 == pytest.approx(-3 * math.pi / 4, abs=1e-10)


def test_general_family_same_ell1():
    """ell_1 depends only on (P, Q, R): the general family probe must agree."""
    sys = validate_hopf_zero(*EXAMPLE)
    res = first_lyapunov_quantity(sys)
    assert res.ell1 == pytest.approx(-48.0, abs=1e-9)
    fam = PerturbationFamily.from_expressions("1/2*x", "0", "mu*z + 3/8*eps")
    crit = evaluate_perturbation_criteria(sys, fam, (0.0, 1.2))
    mel = melnikov_pair(to_standard_form(sys, fam))
    eq = averaged_equilibrium(mel, crit.mu0)
    assert eq.r == pytest.approx(0.5, abs=1e-10)
    assert eq.w == pytest.approx(-0.5, abs=1e-12)
    assert eq.omega == pytest.approx(math.pi * math.sqrt(2) * 0.5, abs=1e-10)


def test_hypothesis_check_example():
    sys, fam, std, mel = _example_pair()
    crit = evaluate_perturbation_criteria(sys, fam, (-1.0, 1.0))
    rep = hypothesis_check(mel, crit, first_lyapunov_quantity(sys))
    assert rep.hopf_ok and rep.transversality_ok and rep.nondegeneracy_ok
    assert rep.details["omega0"] == pytest.approx(2 * math.pi, abs=1e-10)
    assert rep.details["alpha_d"] == pytest.approx(math.pi, abs=1e-8)
    assert rep.details["j_star"] == 2
    assert rep.details["l12"] == pytest.approx(-3 * math.pi / 4, abs=1e-10)
    out = rep.to_dict()
    assert out == {"hopf_ok": True, "transversality_ok": True,
                   "nondegeneracy_ok": True, "details": rep.details}


def test_hypothesis_h_fails_for_negative_omega():
    sys = validate_hopf_zero("x*z", "y*z", "x^2 + y^2")   # Omega < 0
    fam = PerturbationFamily.simple(beta=-1)
    mel = melnikov_pair(to_standard_form(sys, fam))
    with pytest.raises((ComplexPairLost, AveragingError)):
        averaged_equilibrium(mel, 0.0)


def test_det_m_closed_form():
    """det M = -beta Gamma^2 / sqrt(Omega) at leading order."""
    for exprs in (EXAMPLE, ("x*z", "0", "-1/2*x^2 - 1/2*y^2 + 2*x*y + 3*z^2")):
        sys = validate_hopf_zero(*exprs)
        res = first_lyapunov_quantity(sys)
        S = float(sys.quadratic_sum)
        beta = -1 if S > 0 else 1
        expected = -beta * abs(S) / math.sqrt(float(sys.omega))
        assert np.linalg.det(res.M0) == pytest.approx(expected, rel=1e-12)


def test_unit_circle_point_makes_one_transport_per_newton_step(monkeypatch):
    """Each h(mu) of the secant on |lambda| = 1 makes one first-order
    transport (jet1) per Newton iteration (k iterations: k transports and
    k - 1 steps), none outside Newton, and no degree-3 jet: D Pi at the
    fixed point is the converged iteration's transport."""
    sys, fam, _, mel = _example_pair()
    tmap = ThetaReturnMap(sys, fam)
    counts = {"jet1": 0, "jet1_outside_newton": 0, "jet3": 0, "newton": 0, "steps": 0}
    inside = [False]
    jet1, jet3 = tmap.jet1, tmap.jet3
    newton, solve = averaging._newton_fixed_point, np.linalg.solve

    def counted_jet1(*args):
        counts["jet1"] += 1
        counts["jet1_outside_newton"] += not inside[0]
        return jet1(*args)

    def counted_jet3(*args):
        counts["jet3"] += 1
        return jet3(*args)

    def counted_newton(*args, **kwargs):
        counts["newton"] += 1
        inside[0] = True
        try:
            return newton(*args, **kwargs)
        finally:
            inside[0] = False

    def counted_solve(*args):
        counts["steps"] += 1
        return solve(*args)

    monkeypatch.setattr(tmap, "jet1", counted_jet1)
    monkeypatch.setattr(tmap, "jet3", counted_jet3)
    monkeypatch.setattr(averaging, "_newton_fixed_point", counted_newton)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    point = averaging.unit_circle_point(tmap, mel, 0.0, 1e-2)
    xi, lam, jet = point.xi, point.eigenvalue, point.jet
    assert counts["newton"] >= 3
    assert counts["jet3"] == 0
    assert counts["jet1_outside_newton"] == 0
    assert counts["jet1"] == counts["newton"] + counts["steps"]
    assert jet.B is None and jet.C is None
    assert abs(abs(lam) - 1.0) <= 1e-10
    assert np.max(np.abs(jet.value - xi)) <= 1e-10      # the jet is taken at xi


@pytest.mark.parametrize("lowest", [0, 1])
def test_ladder_fit_recovers_polynomial(lowest):
    """The one fit helper interpolates: sum_k c_k e^(lowest + k) sampled on
    any three consecutive rungs of the branch ladder gives c back to
    rounding, as floats for scalars and componentwise for arrays.  lowest = 0
    is the basis of mu1, the Jordan expansion and the xi slice, lowest = 1
    that of the Lyapunov slices."""
    ladder = averaging.BRANCH_LADDER
    coeffs = [0.75, -3 * math.pi / 4, 41.5]
    for start in range(len(ladder) - 2):
        rungs = ladder[start:start + 3]
        values = [sum(c * e ** (lowest + k) for k, c in enumerate(coeffs))
                  for e in rungs]
        fitted = averaging._ladder_fit(values, rungs, lowest)
        assert all(type(c) is float for c in fitted)
        assert fitted == pytest.approx(coeffs, rel=1e-9)
        arrays = [np.array([v, -2.0 * v]) for v in values]
        for got, c in zip(averaging._ladder_fit(arrays, rungs, lowest), coeffs):
            assert got.shape == (2,)
            assert got == pytest.approx([c, -2.0 * c], rel=1e-9)
