import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import torusforge.fieldexpr
import torusforge.lift
from torusforge.fieldexpr import Poly, format_poly, parse_field
from torusforge.lift import (
    Ball, LiftError, NoPositiveOmegaFound, OriginJet, ZeroComponentAtP,
    _lift_omega, build_lift_family, find_separating_plane, omega_of_lift,
    origin_jet, printed_A_limit, translate_to_origin, tune_lift_parameters,
)

from oracles import omega_of_lift_family

SPEC_SEED = ("1 + x", "1/10*x + y", "0")


def _polys(exprs):
    return tuple(parse_field(e) for e in exprs)


def test_separating_plane_spec_example():
    plane = find_separating_plane(SPEC_SEED, Ball((0.0, 0.0, 0.0), 1.0))
    x_star = float(plane.point[0])
    # first half-step power of two past the arcsin(1/x) < arctan(...) threshold
    assert x_star == pytest.approx(2 ** 3.5, rel=1e-12)
    assert plane.plane_distance > 1.0
    assert plane.containment_residual <= 1e-12
    assert plane.jitter_magnitude == 0.0


def test_separating_plane_skips_singular_candidate():
    # field vanishing identically on the x-axis at the spec-example geometry
    # forces the x-scan to keep going (regular-point requirement)
    plane = find_separating_plane(
        ("(1 + x)*(1 - 1/100000000*x^2)", "1/10*x + y", "0"),
        Ball((0.0, 0.0, 0.0), 1.0))
    # x = 10000 is a root of f: it cannot be the accepted point
    assert float(plane.point[0]) != pytest.approx(1e4)
    assert plane.plane_distance > 1.0


def test_common_factor_triggers_jitter():
    plane = find_separating_plane(("1 + x + y", "2 + 2*x + 2*y", "z"),
                                  Ball((0.0, 0.0, 0.0), 1.0), seed=7)
    assert plane.jitter_magnitude > 0.0
    assert plane.plane_distance > 1.0


def test_build_lift_char_poly_exact():
    rng = random.Random(11)
    polys = _polys(("2 + x + 1/2*z + x^2", "1 - y + 2*z + y^2", "3 + x + z^2"))
    for _ in range(5):
        L = Q(rng.randint(1, 9), rng.randint(1, 4))
        delta = Q(rng.randint(1, 9), rng.randint(1, 9))
        fam = build_lift_family(polys, L, delta)
        assert fam.char_poly_ok            # -lambda^3 - delta lambda, exact
        assert fam.degree == 3             # degree m+1 for the degree-2 seed


def test_delta_zero_factorization():
    polys = _polys(("2 + x + 1/2*z + x^2", "1 - y + 2*z + y^2", "3 + x + z^2"))
    fam = build_lift_family(polys, Q(3), Q(0))
    lin = Poly.variable("x").scale(fam.a0) + Poly.variable("y").scale(fam.b0)
    for i in range(3):
        assert fam.lifted[i] == lin * polys[i]
    # on the degenerate plane a0 x + b0 y = 0 the lift vanishes identically:
    # substitute x = -b0 t, y = a0 t and check the factor annihilates
    t = Poly.variable("mu")    # reuse a spare variable as the line parameter
    sub = {"x": t.scale(-fam.b0), "y": t.scale(fam.a0)}
    assert not (lin.substitute(sub)).terms


def test_normalized_linear_part_exact():
    polys = _polys(("2 + x + 1/2*z + x^2", "1 - y + 2*z + y^2", "3 + x + z^2"))
    fam = build_lift_family(polys, Q(1), Q(1, 4))    # delta a rational square
    assert fam.sqrt_delta == Q(1, 2)
    assert fam.linear_residual == 0.0                # conjugation is exact
    assert fam.system is not None
    assert fam.system.omega > 0


def test_zero_component_raises():
    polys = _polys(("x + x^2", "1 + y", "1 + z"))
    with pytest.raises(ZeroComponentAtP):
        build_lift_family(polys, Q(1), Q(1, 4))


def test_tuning_limit_matches_printed_formula():
    rng = random.Random(2024)
    for _ in range(3):
        def rc(lo=-3, hi=3):
            v = 0
            while v == 0:
                v = Q(rng.randint(lo, hi), rng.randint(1, 3))
            return v
        exprs = (f"{rc(1,3)} + {rc()}*x + {rc()}*z + {rc()}*x^2 + {rc()}*y*z",
                 f"{rc(1,3)} + {rc()}*y + {rc()}*z + {rc()}*y^2",
                 f"{rc(1,3)} + {rc()}*x + {rc()}*z^2")
        polys = _polys([e.replace("+ -", "- ") for e in exprs])
        try:
            tuning = tune_lift_parameters(polys, seed=3)
        except (NoPositiveOmegaFound, LiftError):
            continue
        assert tuning.A_limit == tuning.A_limit_printed      # exact rationals
        assert tuning.delta_linearity_residual <= 1e-9
        assert tuning.family.char_poly_ok
        assert tuning.family.linear_residual == 0.0
        assert abs(tuning.report.base.ell1) > 0


def test_tuning_degenerate_seed_raises():
    # P, Q independent of z: the printed A(L)/L^2 limit vanishes; constants
    # are chosen so A(L) <= 0 on the grid
    polys = _polys(("1 + x + x^2", "1 + y + y^2", "1 + z + z^2"))
    limit = printed_A_limit(origin_jet(polys))
    assert limit == 0
    with pytest.raises((NoPositiveOmegaFound, LiftError)):
        tune_lift_parameters(polys)


def test_lifted_system_grammar_roundtrip():
    polys = _polys(("2 + x + 1/2*z + x^2", "1 - y + 2*z + y^2", "3 + x + z^2"))
    fam = build_lift_family(polys, Q(1), Q(1, 4))
    for p in list(fam.lifted) + list(fam.normalized):
        text = format_poly(p)
        assert parse_field(text) == p


def test_translate_to_origin():
    polys = _polys(("1 + x", "1/10*x + y", "0"))
    shifted = translate_to_origin(polys, (Q(8), Q(0), Q(0)))
    assert shifted[0].eval(x=Q(0), y=Q(0), z=Q(0), mu=Q(0), eps=Q(0)) == 9
    assert shifted[1].eval(x=Q(0), y=Q(0), z=Q(0), mu=Q(0), eps=Q(0)) == Q(8, 10)


def test_tuning_never_parses(monkeypatch):
    """Lift works on Polys throughout: tuning a Poly seed parses no text."""
    calls = []

    def counting_parse(source):
        calls.append(source)
        return parse_field(source)
    monkeypatch.setattr(torusforge.fieldexpr, "parse_field", counting_parse)
    polys = tuple(parse_field(e)
                  for e in ("2 + x + 1/2*z + x^2", "1 - y + 2*z + y^2", "3 + x + z^2"))
    tuning = tune_lift_parameters(polys, seed=1)
    assert tuning.report.applicable
    assert calls == []


def test_omega_reads_only_the_seed_1_jet():
    """Omega of the normalized lift depends on the seed only through its
    part of degree <= 1, which is all the oracle lifts, and the closed form
    reads it off the seed's value and gradient at the point."""
    for exprs in (("2 + x + 1/2*z + x^2", "1 - y + 2*z + y^2", "3 + x + z^2"),
                  ("1 + x*z - 2*y + x^2*y", "-3 + z + y*z^2", "2 - x + 5*z + x*y*z")):
        polys = _polys(exprs)
        jet = origin_jet(polys)
        for L in (Q(1), Q(2), Q(-3, 2), Q(16)):
            for delta in (Q(1, 4), Q(1, 16), Q(9)):
                full = build_lift_family(polys, L, delta).system
                assert full is not None
                assert omega_of_lift_family(polys, L, delta) == full.omega
                assert omega_of_lift(jet, L, delta) == full.omega


_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)
_nonzero = _rationals.filter(bool)
_triples = st.tuples(_rationals, _rationals, _rationals)
_QUADRATIC = [(i, j, 2 - i - j, 0, 0) for i in range(3) for j in range(3 - i)]


@settings(max_examples=80, deadline=None)
@given(value=st.tuples(_nonzero, _nonzero, _rationals),
       gradient=st.tuples(_triples, _triples, _triples),
       quadratic=st.lists(st.tuples(st.integers(0, 2), st.sampled_from(_QUADRATIC),
                                    _nonzero), max_size=4),
       L=st.fractions(min_value=-20, max_value=20, max_denominator=8),
       sqrt_delta=st.fractions(min_value=Q(1, 8), max_value=4, max_denominator=8))
def test_omega_closed_form_equals_lift_family(value, gradient, quadratic, L, sqrt_delta):
    """For any seed with P(0), Q(0) != 0, the closed form is exactly Omega
    of the polynomial lift, at any rational L and square delta; origin_jet
    reads the value and gradient past the seed's quadratic terms."""
    terms = [{(0, 0, 0, 0, 0): v} for v in value]
    for comp, grad in zip(terms, gradient):
        comp.update({(1, 0, 0, 0, 0): grad[0], (0, 1, 0, 0, 0): grad[1],
                     (0, 0, 1, 0, 0): grad[2]})
    for idx, mono, c in quadratic:
        terms[idx][mono] = c
    seed = tuple(Poly({m: c for m, c in t.items() if c}) for t in terms)
    jet = origin_jet(seed)
    assert jet == OriginJet(value, gradient)
    delta = sqrt_delta * sqrt_delta
    assert omega_of_lift(jet, L, delta) == omega_of_lift_family(seed, L, delta)


def test_omega_closed_form_is_bidegree_4_2_with_printed_limit():
    """On a symbolic 1-jet Omega(L, delta) is a polynomial of degree at most
    4 in L and 2 in delta, and its L^2 delta^0 coefficient is the printed
    limit of A(L)/L^2."""
    sp = pytest.importorskip("sympy")
    P0, Q0 = sp.symbols("P0 Q0", nonzero=True)
    R0 = sp.Symbol("R0")
    grads = sp.symbols("Px Py Pz Qx Qy Qz Rx Ry Rz")
    L = sp.Symbol("L")
    sd = sp.Symbol("s", positive=True)                      # sqrt(delta)
    jet = OriginJet((P0, Q0, R0), (grads[0:3], grads[3:6], grads[6:9]))
    num, den = sp.fraction(sp.cancel(sp.together(_lift_omega(jet, L, sd ** 2, sd))))
    assert not den.has(L) and not den.has(sd)
    poly = sp.Poly(num, L, sd)
    assert poly.degree(L) <= 4 and poly.degree(sd) <= 4
    assert all(k % 2 == 0 for _, k in poly.monoms())        # a polynomial in delta
    assert sp.simplify(poly.coeff_monomial(L ** 2) / den - printed_A_limit(jet)) == 0


def test_omega_of_lift_refuses_what_the_lift_cannot_normalize():
    jet = origin_jet(_polys(("2 + x + 1/2*z", "1 - y + 2*z", "3 + x")))
    for delta in (Q(0), Q(-1, 4), Q(1, 2)):       # not a positive rational square
        with pytest.raises(LiftError, match="normalization failed"):
            omega_of_lift(jet, Q(1), delta)
    with pytest.raises(ZeroComponentAtP):
        omega_of_lift(origin_jet(_polys(("x + x^2", "1 + y", "1 + z"))), Q(1), Q(1, 4))
    with pytest.raises(LiftError, match="mu or eps"):
        origin_jet(_polys(("2 + mu*x", "1 - y", "3 + x")))


def test_tuning_samples_omega_without_building_lifts(monkeypatch):
    """Tuning builds one lift family per delta it tries at L*, not one per
    Omega sample: 21 samples on the default grid, one family built."""
    calls = []

    def counting_build(*args):
        calls.append(args[1:])
        return build_lift_family(*args)
    monkeypatch.setattr(torusforge.lift, "build_lift_family", counting_build)
    polys = _polys(("2 + x + 1/2*z + x^2", "1 - y + 2*z + y^2", "3 + x + z^2"))
    tuning = tune_lift_parameters(polys, seed=1)
    assert calls == [(tuning.L_star, tuning.delta_star)]
