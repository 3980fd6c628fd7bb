import importlib.util
import math
import random
import sys as _sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusforge import averaging
from torusforge.averaging import (
    AveragingError, CFrac, ComplexPairLost, TrigPoly, averaged_equilibrium,
    eps_graded_slices, first_lyapunov_quantity, hypothesis_check, melnikov_pair,
    printed_branch_constants, to_standard_form,
)
from torusforge.criteria import (
    PerturbationFamily, evaluate_perturbation_criteria, validate_hopf_zero,
)
from torusforge.fieldexpr import as_poly
from torusforge.flow import ThetaReturnMap
from torusforge.lift import (
    Ball, find_separating_plane, translate_to_origin, tune_lift_parameters,
)

from oracles import (
    StandardForm, f1_quadrature, f2_quadrature, full_F2, melnikov_pair_full,
    trig_of_xyz_poly,
)

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


# ---------------------------------------------------------------------------
# sympy oracle of the exact layer: the standard form by differentiation of
# the cylindrical quotient in eps, both Melnikov functions by integration
# ---------------------------------------------------------------------------

def _sympy_linear_trig(sp, expr):
    """expr with every product and power of sines and cosines turned into a
    sum of sin(k theta) and cos(k theta) (sympy's TR8, to a fixed point)."""
    from sympy.simplify.fu import TR8
    expr = sp.expand(expr)
    while True:
        linear = sp.expand(TR8(expr))
        if linear == expr:
            return expr
        expr = linear


def _sympy_of(sp, p, symbols):
    """A Poly or PiPoly as a sympy expression in `symbols`."""
    return sp.Add(*[sp.Rational(c.numerator, c.denominator)
                    * sp.Mul(*[v ** e for v, e in zip(symbols, m)])
                    for m, c in p.terms.items()])


def _sympy_standard_form(sp, sys, fam, r, w, theta):
    """((F1_r, F2_r), (F1_w, F2_w)) of the rescaled field in the cylindrical
    coordinates x = r cos theta, y = r sin theta, z = w with theta as time:
    the eps and eps^2 Taylor coefficients of (r', w') / theta'."""
    x, y, z, mu, eps = sp.symbols("x y z mu eps")
    xyz = (x, y, z, mu, eps)
    comps = (-y + _sympy_of(sp, sys.P, xyz) + eps * _sympy_of(sp, fam.U, xyz),
             x + _sympy_of(sp, sys.Q, xyz) + eps * _sympy_of(sp, fam.V, xyz),
             _sympy_of(sp, sys.R, xyz) + eps * _sympy_of(sp, fam.W, xyz))
    cyl = {x: eps * r * sp.cos(theta), y: eps * r * sp.sin(theta), z: eps * w}
    X, Y, Z = (sp.expand(c.subs(cyl, simultaneous=True) / eps) for c in comps)
    rdot = sp.cos(theta) * X + sp.sin(theta) * Y
    thetadot = _sympy_linear_trig(sp, (sp.cos(theta) * Y - sp.sin(theta) * X) / r)
    out = []
    for num in (rdot, Z):
        dG = sp.diff(num / thetadot, eps)
        out.append((_sympy_linear_trig(sp, dG.subs(eps, 0)),
                    _sympy_linear_trig(sp, sp.diff(dG, eps).subs(eps, 0) / 2)))
    return tuple(out)


def _sympy_fourier(sp, expr, r, w, mu, theta):
    """{(kind, k, r exp, w exp, mu exp): Fraction} of a sum of terms
    c r^a w^b mu^c times 1, cos(k theta) or sin(k theta), k > 0."""
    out = {}
    for term in sp.Add.make_args(expr):
        coeff, rest = term.as_coeff_Mul()
        kind, k, mono = "1", 0, [0, 0, 0]
        for factor in sp.Mul.make_args(rest):
            base, e = factor.as_base_exp()
            if base in (r, w, mu):
                mono[(r, w, mu).index(base)] += int(e)
            elif isinstance(base, (sp.cos, sp.sin)) and e == 1:
                kind = "cos" if isinstance(base, sp.cos) else "sin"
                k = int(base.args[0] / theta)
                if k < 0:
                    k, coeff = -k, coeff if kind == "cos" else -coeff
            elif factor != 1:
                raise AssertionError(f"not a linear trig polynomial: {factor}")
        key = (kind, k, *mono)
        out[key] = out.get(key, 0) + coeff
    return {key: Fraction(int(c.p), int(c.q)) for key, c in out.items() if c != 0}


def _trig_fourier(F):
    """The same table of a t-free TrigPoly: u^m = cos(m theta) + i sin(m
    theta), and the imaginary parts cancel."""
    acc = {}
    for (m, a, b, c, t), z in F.terms.items():
        assert t == 0
        parts = ([("1", 0, z)] if m == 0 else
                 [("cos", abs(m), z), ("sin", abs(m), z * CFrac(0, 1 if m > 0 else -1))])
        for kind, k, v in parts:
            key = (kind, k, a, b, c)
            acc[key] = acc[key] + v if key in acc else v
    assert not any(v.im for v in acc.values())
    return {key: v.re for key, v in acc.items() if v}


def _random_hopf_zero(rng):
    """A small Hopf-Zero system with R200 + R020 != 0: two quadratic or cubic
    terms per component, small rational coefficients."""
    monomials = ["x^2", "x*y", "y^2", "x*z", "y*z", "z^2", "x^3", "y*z^2", "x*y*z"]
    while True:
        comps = [" + ".join(f"{rng.choice([-3, -2, -1, 1, 2, 3])}/{rng.randint(1, 3)}*{m}"
                            for m in rng.sample(monomials, 2)) for _ in range(3)]
        sys = validate_hopf_zero(*comps)
        if sys.quadratic_sum != 0:
            return sys


def test_exact_layer_matches_sympy():
    """On small random Hopf-Zero fields, with the simple family and with a
    family in mu and eps, to_standard_form's F1 and F2 (formed from its
    factors by the oracle's full_F2) agree coefficient for
    coefficient with sympy's differentiation of the cylindrical quotient and
    its trigonometric expansion, and melnikov_pair's f1_exact and f2_exact
    with sympy's integrate over [0, 2 pi] (f2 through the antiderivative of
    F1 from 0 to theta)."""
    sp = pytest.importorskip("sympy")
    r, w, mu, theta, s = sp.symbols("r w mu theta s")
    rng = random.Random(20261018)
    general = PerturbationFamily.from_expressions("mu*x + eps*y", "x*z",
                                                  "mu*z + 1/2*eps + eps*x^2")
    for trial in range(3):
        sys = _random_hopf_zero(rng)
        fam = PerturbationFamily.simple(sys.beta) if trial != 1 else general
        std = to_standard_form(sys, fam)
        mel = melnikov_pair(std)
        ref = _sympy_standard_form(sp, sys, fam, r, w, theta)
        for F1, F2, (F1_ref, F2_ref) in zip(std.F1, full_F2(std), ref):
            assert _trig_fourier(F1) == _sympy_fourier(sp, F1_ref, r, w, mu, theta)
            assert _trig_fourier(F2) == _sympy_fourier(sp, F2_ref, r, w, mu, theta)
        Phi = [sp.integrate(F1_ref.subs(theta, s), (s, 0, theta))
               for F1_ref, _ in ref]
        for i, (F1_ref, F2_ref) in enumerate(ref):
            integrand = _sympy_linear_trig(
                sp, F2_ref + sp.diff(F1_ref, r) * Phi[0] + sp.diff(F1_ref, w) * Phi[1])
            for exact, f in ((mel.f1_exact[i], F1_ref), (mel.f2_exact[i], integrand)):
                value = sp.expand(sp.integrate(f, (theta, 0, 2 * sp.pi)))
                mine = sp.expand(_sympy_of(sp, exact, (r, w, mu, sp.pi)))
                assert value.as_coefficients_dict() == mine.as_coefficients_dict()


# ---------------------------------------------------------------------------
# the frequency-matched products keep the full route's terms in its order:
# the float evaluators sum f1 and f2 in dict order
# ---------------------------------------------------------------------------

_SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=2)


def _trig_polys(ring, t_max):
    """TrigPolys with few, colliding exponents, so products cancel and
    re-insert terms; coefficients Fractions or CFracs."""
    coeff = _SMALL if ring is Fraction else st.builds(CFrac, _SMALL, _SMALL)
    mono = st.tuples(st.integers(-3, 3), st.integers(-1, 1), st.integers(0, 1),
                     st.integers(0, 1), st.integers(0, t_max))
    return st.dictionaries(mono, coeff, max_size=10).map(TrigPoly)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([Fraction, CFrac]).flatmap(
    lambda ring: st.tuples(_trig_polys(ring, 0), _trig_polys(ring, 1))))
def test_averaged_product_is_the_kept_part_of_the_full_product(pair):
    """For a t-free A and a B at most linear in t, _averaged_product gives
    the u^0 and t-linear terms of A * B, in A * B's order."""
    A, B = pair
    kept = [(m, v) for m, v in (A * B).terms.items() if m[0] == 0 or m[4]]
    assert list(averaging._averaged_product(A, B).terms.items()) == kept


def test_cos_sin_table_matches_repeated_products():
    """from_xyz_poly, which scales one cached cos^i sin^j expansion per
    term, gives the repeated products' terms in their order, with
    cancellation between monomials."""
    for expr in ("x^3 - 3*x*y^2 + y^3*z + 1/2*x^2*mu", "x^2 + y^2 - 2*x*y + x^4 - y^4",
                 "0", "7/3*z^2*mu"):
        p = as_poly(expr)
        assert (list(TrigPoly.from_xyz_poly(p).terms.items())
                == list(trig_of_xyz_poly(p).terms.items()))


def _benchmark_inputs():
    """perfbench/inputs.py, which generates the `fields` workload's fields."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = _sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ordered_pair_systems():
    """The worked example with the simple and a general family, the four
    Hopf-Zero fields of the `fields` workload at seeds 0-3, and the tuned
    systems of its four lift seeds at seed 0, each with the simple family
    (as analyze and lift use them)."""
    example = validate_hopf_zero(*EXAMPLE)
    yield example, PerturbationFamily.simple(example.beta)
    yield example, PerturbationFamily.from_expressions("mu*x + eps*y", "x*z",
                                                       "mu*z + 1/2*eps + eps*x^2")
    gen = _benchmark_inputs()
    for seed in range(4):
        for i in range(len(gen.HOPF_BASES)):
            sys = validate_hopf_zero(*(gen.expr(t) for t in gen.hopf_field(seed, i)))
            yield sys, PerturbationFamily.simple(sys.beta)
    for i in range(len(gen.LIFT_BASES)):
        seed_field = tuple(as_poly(gen.expr(t)) for t in gen.lift_seed_field(0, i))
        plane = find_separating_plane(seed_field, Ball((0.0, 0.0, 0.0), 1.0))
        tuned = tune_lift_parameters(translate_to_origin(plane.field, plane.point))
        yield tuned.tuned_system, PerturbationFamily.simple(tuned.tuned_system.beta)


def test_melnikov_pair_keeps_the_full_route_term_order():
    """f1_exact and f2_exact equal the full route's (every cos^i sin^j by
    repeated products, F2 formed, the whole integrand averaged) as ordered
    term lists, so the compiled evaluators sum the same floats in the same
    order."""
    count = 0
    for sys, fam in _ordered_pair_systems():
        mel = melnikov_pair(to_standard_form(sys, fam))
        f1, f2 = melnikov_pair_full(sys, fam)
        for mine, ref in zip(mel.f1_exact + mel.f2_exact, f1 + f2):
            assert list(mine.terms.items()) == list(ref.terms.items())
        count += 1
    assert count == 22


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
