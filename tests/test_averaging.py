import importlib.util
import math
import random
import sys as _sys
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from torusforge import averaging, nsbranch
from torusforge.averaging import (
    CFrac, TrigPoly, melnikov_pair, to_standard_form,
)
from torusforge.criteria import (
    AveragingError, FloatRangeExceeded, PerturbationFamily, closed_form_equilibrium,
    criteria_report, eps_graded_slices, evaluate_perturbation_criteria,
    hypotheses, perturbation_functions, validate_hopf_zero,
)
from torusforge.fieldexpr import as_poly
from torusforge.flow import IntegratorConfig, MapJet, ThetaReturnMap
from torusforge.nsbranch import printed_branch_constants
from torusforge.lift import (
    Ball, find_separating_plane, translate_to_origin, tune_lift_parameters,
)
from torusforge.torus import CERTIFY_INTEGRATOR

from oracles import (
    StandardForm, f1_jacobian, f1_quadrature, f2_quadrature, first_lyapunov_quantity,
    full_F2, ladder_fit_vander, lyapunov_coefficient_einsum, melnikov_pair_full,
    normalizing_matrix, spectrum_identity, standard_form_full, std_a1, std_D2, std_F1,
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


def _alpha_d(sys, fam):
    """The criteria report's alpha_d, which starts each secant on |lambda| = 1."""
    return criteria_report(sys, fam, (-1.0, 1.0)).perturbation.alpha_d


def _equilibrium(sys, fam, mu):
    """The averaged equilibrium of the system and family at mu: the
    criteria's closed form, the one route to it."""
    return closed_form_equilibrium(perturbation_functions(sys, fam), mu)


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


def _pair_with_empty_components():
    """The pair of `test_f2_reduces_to_plain_average_when_f1_vanishes`: both
    components of f1 have no terms."""
    sys = validate_hopf_zero("x^2*y", "0", "x^2*z")
    fam = PerturbationFamily.from_expressions("0", "0", "eps*z^2")
    return melnikov_pair(to_standard_form(sys, fam))


@pytest.mark.parametrize("pair", ["example", "empty f1"])
def test_grid_row_matches_scalar_calls(pair):
    """f1 and f2_closed at a point are a tuple of two Python floats, and a
    row of them is the compiled functions on the array of w, bit for bit
    (float64 rounds as Python floats do); a component with no terms, whose
    compiled function returns the scalar 0.0, is 0.0 at every point."""
    mel = _example_pair()[3] if pair == "example" else _pair_with_empty_components()
    if pair == "empty f1":
        assert not any(p.terms for p in mel.f1_exact)
    ws = np.linspace(-1.3, 0.7, 9)
    for r in (0.6, 1.0 / 3.0, 1.7):
        for mu in (0.0, 0.05, -0.2):
            for name, functions in (("f1", mel._f1_eval), ("f2_closed", mel._f2_eval)):
                points = [getattr(mel, name)((r, w), mu) for w in ws.tolist()]
                assert all(type(p) is tuple and len(p) == 2 for p in points)
                assert all(type(v) is float for p in points for v in p)
                row = np.array([np.broadcast_to(f(r, ws, mu), ws.shape) for f in functions])
                assert np.array(points).T.tobytes() == row.tobytes()


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
        for F1, F2, (F1_ref, F2_ref) in zip(std_F1(std), full_F2(std), ref):
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
    Hopf-Zero fields of the `fields` workload at seeds 0-3, and for its four
    lift seeds at seeds 0-3 both the exact lift's tuned system and the
    system the lift keeps (the exact lift plus a c z^3 term in R), each
    with the simple family (as analyze and lift use them)."""
    example = validate_hopf_zero(*EXAMPLE)
    yield example, PerturbationFamily.simple(example.beta)
    yield example, PerturbationFamily.from_expressions("mu*x + eps*y", "x*z",
                                                       "mu*z + 1/2*eps + eps*x^2")
    gen = _benchmark_inputs()
    for seed in range(4):
        for i in range(len(gen.HOPF_BASES)):
            sys = validate_hopf_zero(*(gen.expr(t) for t in gen.hopf_field(seed, i)))
            yield sys, PerturbationFamily.simple(sys.beta)
    for seed in range(4):
        for i in range(len(gen.LIFT_BASES)):
            seed_field = tuple(as_poly(gen.expr(t)) for t in gen.lift_seed_field(seed, i))
            plane = find_separating_plane(seed_field, Ball((0.0, 0.0, 0.0), 1.0))
            tuned = tune_lift_parameters(translate_to_origin(plane.field, plane.point))
            for sys in (tuned.family.system, tuned.tuned_system):
                yield sys, PerturbationFamily.simple(sys.beta)


def test_melnikov_pair_keeps_the_full_route_term_order():
    """f1_exact and f2_exact equal the full route's (every cos^i sin^j by
    repeated products, F2 formed, the whole integrand averaged) as ordered
    term lists, so the compiled evaluators sum the same floats in the same
    order; the standard form's F1, a1 and D2, kept on cleared denominators,
    give the full route's true factors in its order."""
    count = scaled = 0
    for sys, fam in _ordered_pair_systems():
        std = to_standard_form(sys, fam)
        mel = melnikov_pair(std)
        full = standard_form_full(sys, fam)
        f1, f2 = melnikov_pair_full(sys, fam)
        for mine, ref in zip(std_F1(std) + (std_a1(std),) + std_D2(std) + mel.f1_exact
                             + mel.f2_exact,
                             full.F1 + (full.a1,) + full.D2 + f1 + f2):
            assert list(mine.terms.items()) == list(ref.terms.items())
        count += 1
        scaled += std.scale > 1
    assert count == 50
    # all but the worked example with the simple family (s = 1) have
    # fractional slice coefficients, so they run on a nontrivial scale
    assert scaled == 49


def test_standard_form_scale_is_the_lcm_of_the_slice_denominators():
    """s is the lcm of the denominators of the eps^1 and eps^2 slices, and
    the kept factors are s F1, s a1 and s^2 D2."""
    sys = validate_hopf_zero("1/6*x*z - 3/4*x^2", "2/9*y*z", "-1/10*z^2 + 1/2*x^2 + x*y")
    fam = PerturbationFamily.from_expressions("0", "0", "mu*z + 1/7*eps")
    std = to_standard_form(sys, fam)
    assert std.scale == 2 * 2 * 3 * 3 * 5 * 7
    s = Fraction(std.scale)
    assert std._F1 == tuple(F.scale(s) for F in std_F1(std))
    assert std._a1 == std_a1(std).scale(s)
    assert std._D2 == tuple(D.scale(s * s) for D in std_D2(std))
    # what is left of a denominator is the cos and sin expansion's power of 2
    kept = [v.d for F in std._F1 + (std._a1,) + std._D2 for v in F.terms.values()]
    assert kept and all(d & (d - 1) == 0 for d in kept)
    assert any(v.d % 3 == 0 for F in std_F1(std) for v in F.terms.values())


def _eigenvalues(mel, x, mu):
    """The eigenvalues of the float f1 Jacobian at x, by decreasing
    imaginary part, then increasing real part."""
    return sorted(np.linalg.eigvals(f1_jacobian(mel, x, mu)), key=lambda z: (-z.imag, z.real))


def test_equilibrium_example_mu0():
    sys, fam, _, mel = _example_pair()
    r, w = _equilibrium(sys, fam, 0.0)
    assert r == pytest.approx(math.sqrt(2), abs=1e-12)
    assert w == 0
    assert np.max(np.abs(mel.f1((r, w), 0.0))) <= 1e-10
    # +-i pi sqrt(Omega) r0 = +-2 pi i
    lam = _eigenvalues(mel, (r, w), 0.0)
    assert lam[0] == pytest.approx(2j * math.pi, abs=1e-10)
    assert lam[1] == pytest.approx(-2j * math.pi, abs=1e-10)


def test_equilibrium_example_mu_positive():
    sys, fam, _, mel = _example_pair()
    r, w = _equilibrium(sys, fam, 0.1)
    # eta +- i sqrt(pi^2 Omega r^2 - eta^2), eta = pi mu
    lam_expected = complex(0.1 * math.pi, math.pi * math.sqrt(8 - 0.01 * 2) / math.sqrt(2))
    assert _eigenvalues(mel, (r, w), 0.1)[0] == pytest.approx(lam_expected, abs=1e-10)


def test_complex_pair_lost_outside_window():
    """|mu| >= 2 sqrt(Omega)/Gamma = 2 sqrt(2)/sqrt(2) = 2 loses the pair: at
    mu = 2.5 the averaged equilibrium is still the root of f1, and its
    eigenvalues are real, eta +- sqrt(eta^2 - pi^2 Omega r^2) = pi (2.5 +- 1.5)."""
    sys, fam, _, mel = _example_pair()
    r, w = _equilibrium(sys, fam, 2.5)
    assert r == pytest.approx(math.sqrt(2), abs=1e-12)
    assert np.max(np.abs(mel.f1((r, w), 2.5))) <= 1e-10
    lam = np.sort(np.linalg.eigvals(f1_jacobian(mel, (r, w), 2.5)))
    assert np.isrealobj(lam)
    assert lam == pytest.approx([math.pi, 4 * math.pi], abs=1e-10)


@pytest.mark.parametrize("exprs,ell1,mu1,xi1,xi2,m21,m22", PROBES)
def test_first_lyapunov_quantity_probes(exprs, ell1, mu1, xi1, xi2, m21, m22):
    sys = validate_hopf_zero(*exprs)
    res = first_lyapunov_quantity(sys)
    assert res.ell1 == pytest.approx(float(ell1), rel=1e-9, abs=1e-9)
    assert sys.ell1_exact == ell1       # the exact form
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
    r, w = _equilibrium(sys, fam, crit.mu0)
    assert r == pytest.approx(0.5, abs=1e-10)
    assert w == pytest.approx(-0.5, abs=1e-12)
    # +-i pi sqrt(Omega) r0 at mu0
    lam = _eigenvalues(mel, (r, w), crit.mu0)
    assert lam[0] == pytest.approx(1j * math.pi * math.sqrt(2) * 0.5, abs=1e-10)


def test_hypothesis_check_example():
    """branch's hypotheses block holds what H and ND give at mu0: omega0,
    the averaged pair +-i omega0, and the leading slice l12.  T, H and ND
    hold on every report that applies (`criteria.hypotheses`), so it holds
    no flag, and alpha_d stays in the criteria block alone."""
    sys, fam, std, mel = _example_pair()
    rep = criteria_report(sys, fam, (-1.0, 1.0))
    block = hypotheses(rep)
    assert list(block) == ["omega0", "l12"]
    assert block["omega0"] == pytest.approx(2 * math.pi, abs=1e-10)
    # the float eigensolve at mu0 sees the pair +-i omega0
    mu0 = rep.perturbation.mu0
    lam = _eigenvalues(mel, _equilibrium(sys, fam, mu0), mu0)
    assert lam[0] == pytest.approx(1j * block["omega0"], abs=1e-10)
    assert rep.perturbation.alpha_d == pytest.approx(math.pi, abs=1e-8)
    assert block["l12"] == rep.base.l12 == -3 * math.pi / 4
    assert rep.applicable


def test_hypothesis_h_fails_for_negative_omega():
    """Omega < 0: the identity still holds, det J = pi^2 Omega r^2 < 0, so
    the averaged equilibrium is a saddle, and H fails with no omega0."""
    sys = validate_hopf_zero("x*z", "y*z", "x^2 + y^2")   # Omega < 0
    assert sys.omega < 0
    fam = PerturbationFamily.simple(beta=-1)
    mel = melnikov_pair(to_standard_form(sys, fam))
    rep = criteria_report(sys, fam, (-1.0, 1.0))
    assert spectrum_identity(mel, sys, fam)
    assert not rep.base.nondegenerate and not rep.applicable
    assert hypotheses(rep)["omega0"] is None
    r, w = _equilibrium(sys, fam, rep.perturbation.mu0)
    lam = np.linalg.eigvals(f1_jacobian(mel, (r, w), rep.perturbation.mu0))
    assert np.isrealobj(lam) and lam.min() < 0 < lam.max()


@pytest.mark.parametrize("k", [Fraction(10 ** 6), Fraction(1, 1000)])
def test_hypothesis_h_holds_in_other_units(k):
    """The worked example with (x, y, z) k times smaller: every nonlinear
    coefficient and the eps term of W times k.  H is exact, so no bound in
    the units of (x, y, z) can decide it."""
    sys = validate_hopf_zero("0", f"{k}*y*z", f"{k}*(-x^2 + x*y + z^2)")
    fam = PerturbationFamily.from_expressions("0", "0", f"mu*z + {k}*eps")
    rep = criteria_report(sys, fam, (-1.0, 1.0))
    assert rep.base.nondegenerate
    assert hypotheses(rep)["omega0"] == pytest.approx(2 * math.pi * float(k), rel=1e-12)


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
    sys, fam, _, _ = _example_pair()
    tmap = ThetaReturnMap(sys, fam)
    counts = {"jet1": 0, "jet1_outside_newton": 0, "jet3": 0, "newton": 0, "steps": 0}
    inside = [False]
    jet1, jet3 = tmap.jet1, tmap.jet3
    newton, solve = nsbranch._newton_fixed_point, nsbranch._solve_2x2

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
    monkeypatch.setattr(nsbranch, "_newton_fixed_point", counted_newton)
    monkeypatch.setattr(nsbranch, "_solve_2x2", counted_solve)
    point = nsbranch.unit_circle_point(tmap, 0.0, 1e-2, _alpha_d(sys, fam))
    xi, lam, jet = point.xi, point.eigenvalue, point.jet
    assert counts["newton"] >= 3
    assert counts["jet3"] == 0
    assert counts["jet1_outside_newton"] == 0
    assert counts["jet1"] == counts["newton"] + counts["steps"]
    assert jet.B is None and jet.C is None
    assert abs(abs(lam) - 1.0) <= 1e-10
    assert np.max(np.abs(np.subtract(jet.value, xi))) <= 1e-10      # the jet is taken at xi


def _eps_half_secant(tmap, mu0, eps):
    """The secant on |lambda| = 1 from mu0 and mu0 + eps/2, each fixed-point
    Newton seeded at the fixed point solved before it: the fixed start the
    exact slope replaced.  Its crossing mu_c, and the h evaluations made."""
    seed, evaluations = None, 0

    def h(mu):
        nonlocal seed, evaluations
        seed, jet = nsbranch._newton_fixed_point(tmap, mu, eps, seed)
        evaluations += 1
        (a, b), (c, d) = jet.A
        return a * d - b * c - 1.0

    mu_a, mu_b = mu0, mu0 + 0.5 * eps
    ha, hb = h(mu_a), h(mu_b)
    for _ in range(nsbranch.UNIT_CIRCLE_MAX_ITER):
        if abs(hb) <= nsbranch.UNIT_CIRCLE_TOL:
            return mu_b, evaluations
        mu_a, ha, mu_b = mu_b, hb, mu_b - hb * (mu_b - mu_a) / (hb - ha)
        hb = h(mu_b)
    raise AssertionError("the eps/2 secant did not converge")


@pytest.mark.parametrize("eps", [0.01, 0.02])
@pytest.mark.parametrize("exprs", [EXAMPLE, *_benchmark_inputs().HOPF_BASES])
def test_secant_first_jump_is_the_exact_slope(monkeypatch, exprs, eps):
    """The secant's second point is mu0 - h(mu0) / (2 eps alpha_d), from
    h'(mu0) = 2 eps alpha_d + O(eps^2) with the criteria report's alpha_d:
    on the worked example and the four base fields of the `fields` workload
    it lies within 2% of the crossing's mu_c - mu0 (within 1.0% on every one
    measured), and the solve makes fewer h evaluations (fixed-point Newtons)
    than the start mu0 + eps/2 (`_eps_half_secant`; 3 to 5, against 4 to
    6), to the same mu_c up to what the fixed-point tolerance leaves in h:
    the two parted by at most 2.4e-10 (2.4e-8 eps), 4 times below the
    bound."""
    sys = validate_hopf_zero(*exprs)
    fam = PerturbationFamily.simple(sys.beta)
    crit = criteria_report(sys, fam, (-1.0, 1.0)).perturbation
    tmap = ThetaReturnMap(sys, fam, nsbranch.RETURN_MAP_INTEGRATOR)
    mu_half, evaluations_half = _eps_half_secant(tmap, crit.mu0, eps)
    newton, mus = nsbranch._newton_fixed_point, []

    def counted(tmap, mu, eps, seed=None):
        mus.append(mu)
        return newton(tmap, mu, eps, seed)

    monkeypatch.setattr(nsbranch, "_newton_fixed_point", counted)
    point = nsbranch.unit_circle_point(tmap, crit.mu0, eps, crit.alpha_d)
    assert mus[0] == crit.mu0
    assert abs((mus[1] - crit.mu0) - (point.mu - crit.mu0)) <= 0.02 * abs(point.mu - crit.mu0)
    assert len(mus) < evaluations_half
    assert abs(point.mu - mu_half) <= 1e-7 * eps


class _IdentityJetMap:
    """A synthetic return map that moves every point by (1e-3, 0) and whose
    D Pi is the identity: each Newton step (D Pi - I) s = -res is singular.
    Its tolerances are the certifier's, so `certify_torus` uses it as is;
    Newton starts at the worked example's averaged equilibrium."""

    cfg = CERTIFY_INTEGRATOR

    def averaged_equilibrium(self, mu):
        return math.sqrt(2.0), 0.0

    def jet1(self, x, mu, eps):
        return MapJet(value=(x[0] + 1e-3, x[1]), A=((1.0, 0.0), (0.0, 1.0)))


def test_singular_newton_step_is_newton_diverged():
    """A zero pivot in D Pi - I is a typed NewtonDiverged, not a
    ZeroDivisionError, which the command line would not catch."""
    with pytest.raises(nsbranch.NewtonDiverged, match="singular"):
        nsbranch._newton_fixed_point(_IdentityJetMap(), 0.05, 0.05)


@pytest.mark.parametrize("M", [((0.0, 0.0), (0.0, 0.0)), ((0.0, 1.0), (0.0, 2.0)),
                               ((1.0, 2.0), (2.0, 4.0)), ((-3.0, 1.5), (1.0, -0.5))])
def test_solve_2x2_zero_pivot_is_newton_diverged(M):
    """A zero first column, or a second pivot that is exactly 0 after
    elimination with either pivot row, raises NewtonDiverged."""
    with pytest.raises(nsbranch.NewtonDiverged, match="singular"):
        nsbranch._solve_2x2(M, (1.0, -1.0))


# a matrix or right-hand-side entry: 0, or of magnitude in [1e-3, 1e3], so no
# product underflows or overflows
_SOLVE_ENTRY = st.tuples(st.floats(1e-3, 1e3), st.sampled_from((-1.0, 0.0, 1.0))).map(
    lambda t: t[0] * t[1])


@settings(max_examples=400, deadline=None)
@given(st.tuples(*[_SOLVE_ENTRY] * 4), st.tuples(_SOLVE_ENTRY, _SOLVE_ENTRY), st.booleans())
def test_solve_2x2_matches_exact_solution(entries, rhs, pivot_second):
    """The written-out LU solve against the exact Fraction solution, with the
    pivot in either row: with kappa = |M| |M^-1| (infinity norm, exact), the
    relative error is at most 10 kappa 2^-52.  Partial pivoting at n = 2 has
    a backward error of at most gamma_6 |L||U| <= 9 * 2^-52 |M| (Higham,
    Accuracy and Stability of Numerical Algorithms, Thm 9.4, |l| <= 1), and
    kappa <= 2^40 keeps the first-order forward bound within 10."""
    a, b, c, d = entries
    assume(abs(a) != abs(c))
    if (abs(c) > abs(a)) != pivot_second:
        a, b, c, d = c, d, a, b
    fa, fb, fc, fd = (Fraction(v) for v in (a, b, c, d))
    det = fa * fd - fb * fc
    assume(det != 0)
    y0, y1 = (Fraction(v) for v in rhs)
    exact = ((fd * y0 - fb * y1) / det, (fa * y1 - fc * y0) / det)
    kappa = (max(abs(fa) + abs(fb), abs(fc) + abs(fd))
             * max(abs(fd) + abs(fb), abs(fc) + abs(fa)) / abs(det))
    assume(kappa <= 2 ** 40)
    got = nsbranch._solve_2x2(((a, b), (c, d)), rhs)
    err = max(abs(Fraction(g) - x) for g, x in zip(got, exact))
    assert err <= 10 * kappa * Fraction(1, 2 ** 52) * max(abs(x) for x in exact)


def test_log_det_is_twice_log_modulus_at_the_headline():
    """Past the headline Neimark-Sacker point (eps = 0.05, mu about 0.0375),
    at (mu, eps) = (0.05, 0.05), jet1's D Pi at the fixed point has
    log det D Pi = +3.930e-3, twice the log modulus of the complex pair of
    jet3's independent transport there: xi repels in forward time."""
    sys, fam, _, _ = _example_pair()
    tmap = ThetaReturnMap(sys, fam, IntegratorConfig(atol=1e-13, rtol=1e-11))
    point = nsbranch.unit_circle_point(tmap, 0.0, 0.05, _alpha_d(sys, fam))
    assert point.mu < 0.05
    xi, jet = nsbranch._newton_fixed_point(tmap, 0.05, point.eps)
    lam = np.linalg.eigvals(tmap.jet3(xi, 0.05, point.eps).A)
    log_det = math.log(np.linalg.det(jet.A))
    assert abs(lam[0].imag) > 0 and abs(lam[0]) == pytest.approx(abs(lam[1]), rel=1e-14)
    assert log_det == pytest.approx(2 * math.log(abs(lam[0])), abs=1e-9)
    assert log_det == pytest.approx(3.930e-3, abs=5e-7)


@pytest.mark.parametrize("lowest", [0, 1])
def test_ladder_fit_recovers_polynomial(lowest):
    """The one fit helper interpolates: sum_k c_k e^(lowest + k) sampled on
    any three consecutive rungs of the branch ladder gives c back to
    rounding, as floats for scalars and componentwise for arrays.  lowest = 0
    is the basis of mu1, the Jordan expansion and the xi slice, lowest = 1
    that of the Lyapunov slices."""
    ladder = nsbranch.BRANCH_LADDER
    coeffs = [0.75, -3 * math.pi / 4, 41.5]
    for start in range(len(ladder) - 2):
        rungs = ladder[start:start + 3]
        values = [sum(c * e ** (lowest + k) for k, c in enumerate(coeffs))
                  for e in rungs]
        fitted = nsbranch._ladder_fit(values, rungs, lowest)
        assert all(type(c) is float for c in fitted)
        assert fitted == pytest.approx(coeffs, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3))
@pytest.mark.parametrize("lowest", [0, 1])
@pytest.mark.parametrize("start", range(len(nsbranch.BRANCH_LADDER) - 2))
def test_ladder_fit_is_the_rounded_exact_solve(start, lowest, values):
    """On any 3-rung window of the ladder, each fitted coefficient is the
    float nearest the exact solution of the scaled Vandermonde system on the
    floats' rational values, as sympy solves it."""
    import sympy
    rungs = nsbranch.BRANCH_LADDER[start:start + 3]
    V = sympy.Matrix(3, 3, lambda i, k: sympy.Rational(rungs[i]) ** (lowest + k))
    exact = V.LUsolve(sympy.Matrix([sympy.Rational(v) for v in values]))
    want = [int(c.p) / int(c.q) for c in exact]     # int / int rounds correctly
    got = nsbranch._ladder_fit(values, rungs, lowest)
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ladder_fit_refuses_a_non_finite_value(bad):
    """A NaN or infinite value is an AveragingError naming the values, not
    Fraction's unnamed ValueError or its OverflowError."""
    with pytest.raises(AveragingError, match="non-finite"):
        nsbranch._ladder_fit([1.0, bad, 2.0], nsbranch.BRANCH_LADDER[:3], 1)


def test_ladder_fit_past_the_float_range_is_typed():
    """Finite values whose fitted coefficients overflow a float are a
    FloatRangeExceeded."""
    with pytest.raises(FloatRangeExceeded):
        nsbranch._ladder_fit([1e300, -1e300, 1e300], nsbranch.BRANCH_LADDER[-3:], 1)


@pytest.fixture(scope="module")
def example_ladder():
    """The worked example's return map and its Neimark-Sacker branch, one
    point on every rung of BRANCH_LADDER."""
    sys, fam = validate_hopf_zero(*EXAMPLE), PerturbationFamily.simple(beta=1)
    tmap = ThetaReturnMap(sys, fam, nsbranch.RETURN_MAP_INTEGRATOR)
    return tmap, nsbranch.branch_continuation(tmap, 0.0, _alpha_d(sys, fam))


def test_branch_compares_closed_forms_on_the_simple_family_alone(example_ladder, monkeypatch):
    """A family is simple where it equals (0, 0, mu*z + beta*eps) with the
    system's beta, however it was built: on the worked example's ladder
    (beta = 1), W = mu*z + eps written out gets the printed closed forms,
    mu1 = 3/4, and W = mu*z - eps, the family of beta = -1, gets none."""
    tmap, branch = example_ladder
    monkeypatch.setattr(nsbranch, "_ladder_points", lambda *args: list(branch.points))
    sys = tmap.system
    for W, mu1 in (("mu*z + eps", Fraction(3, 4)), ("mu*z - eps", None)):
        fam = PerturbationFamily.from_expressions("0", "0", W)
        got = nsbranch.branch_continuation(types.SimpleNamespace(system=sys, family=fam),
                                           0.0, math.pi)
        assert got.mu1_numeric == branch.mu1_numeric
        if mu1 is None:
            assert got.xi_slices_closed is None and "mu1_closed" not in got.to_dict()
        else:
            assert got.xi_slices_closed == branch.xi_slices_closed
            assert got.xi_slices_closed.mu1 == mu1


def test_branch_fits_match_the_vandermonde_solve(example_ladder):
    """mu1, the Lyapunov slices and the Jordan expansion's omega0 and zeta2
    of the worked example, fitted exactly and rounded once, agree with a
    LAPACK solve of the same Vandermonde systems to 1e-8 relative or 1e-13
    absolute."""
    tmap, branch = example_ladder
    middle, smallest = branch.points[1:4], branch.points[-3:]
    mu1 = ladder_fit_vander([p.mu / p.eps for p in middle], [p.eps for p in middle], 0)[0]
    slices = nsbranch.lyapunov_slices(tmap, branch)
    l11, l12, _ = ladder_fit_vander([v for _, v in slices.values],
                                    [e for e, _ in slices.values], 1)
    omega0, zeta2, _ = ladder_fit_vander([p.theta / p.eps for p in smallest],
                                         [p.eps for p in smallest], 0)
    je = nsbranch.jordan_expansion(branch)
    for got, want in ((branch.mu1_numeric, mu1), (slices.l11, l11), (slices.l12, l12),
                      (je.omega0, omega0), (je.zeta2, zeta2)):
        assert got == pytest.approx(want, rel=1e-8, abs=1e-13)


def test_normalized_map_matches_the_numpy_normalization(example_ladder):
    """On the worked example's five ladder points, the written-out Jordan
    normalization gives numpy's M to 1e-12 relative, and in that basis D Pi
    is the rotation by the point's theta, [[cos, -sin], [sin, cos]], to
    1e-12 of |DH|: the identity the normalization rests on."""
    _, branch = example_ladder
    for point in branch.points:
        M, DH = normalizing_matrix(point)
        assert np.allclose(nsbranch.normalized_map(point), M, rtol=1e-12, atol=0.0)
        c, s = math.cos(point.theta), math.sin(point.theta)
        assert np.max(np.abs(DH - [[c, -s], [s, c]])) <= 1e-12 * np.max(np.abs(DH))


def test_lyapunov_coefficient_matches_the_einsum_contraction(example_ladder):
    """On the worked example's five ladder points, the map Lyapunov
    coefficient contracted as Python complex numbers agrees with the einsum
    contraction in the basis M to 1e-12 relative."""
    tmap, branch = example_ladder
    for point in branch.points:
        want = lyapunov_coefficient_einsum(tmap.jet3(point.xi, point.mu, point.eps),
                                           normalizing_matrix(point)[0], point.theta)
        assert nsbranch.lyapunov_coefficient_map(tmap, point) == pytest.approx(want, rel=1e-12)
