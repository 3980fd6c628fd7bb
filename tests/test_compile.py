"""Property tests of the numeric boundary: `compile_terms` against exact
`Poly.eval` over Fractions."""

import cmath
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from torusforge.averaging import TrigPoly
from torusforge.fieldexpr import VARIABLES, Poly, compile_terms
from torusforge.flow import Jet2

from oracles import trig_evaluator

coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=8)
# exponents of (x, y, z, mu, eps), total degree <= 4 in (x, y, z)
monomials = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
                      st.integers(0, 2), st.just(0)).filter(lambda m: sum(m[:3]) <= 4)
polys = st.dictionaries(monomials, coefficients, max_size=6).map(Poly)
values = st.fractions(min_value=-2, max_value=2, max_denominator=16)
points = st.tuples(values, values, values, values)


def _compiled(p: Poly):
    return compile_terms({m: float(c) for m, c in p.terms.items()}, VARIABLES)


def _exact(p: Poly, point):
    x, y, z, mu = point
    return p.eval(x=x, y=y, z=z, mu=mu, eps=Fraction(0))


def _scale(p: Poly, point):
    """Sum of |terms| at the point: the size rounding errors scale with."""
    return 1.0 + float(Poly({m: abs(c) for m, c in p.terms.items()}).eval(
        **dict(zip(VARIABLES, [abs(v) for v in point] + [Fraction(0)]))))


@settings(max_examples=60, deadline=None)
@given(polys, points)
def test_float_matches_exact(p, point):
    value = _compiled(p)(*(float(v) for v in point), 0.0)
    assert abs(value - float(_exact(p, point))) <= 1e-13 * _scale(p, point)


@settings(max_examples=30, deadline=None)
@given(polys, st.lists(points, min_size=1, max_size=5))
def test_ndarray_matches_exact(p, pts):
    cols = [np.array([float(pt[i]) for pt in pts]) for i in range(4)]
    values = np.broadcast_to(_compiled(p)(*cols, 0.0), (len(pts),))
    for value, pt in zip(values, pts):
        assert abs(value - float(_exact(p, pt))) <= 1e-13 * _scale(p, pt)


@settings(max_examples=30, deadline=None)
@given(polys, points)
def test_jet_matches_exact_taylor_coefficients(p, point):
    """x and y as jet variables: the jet holds the exact Taylor coefficients
    d^a_x d^b_y p / (a! b!) through total degree 3."""
    x, y, z, mu = point
    jet = _compiled(p)(Jet2.variable(0, float(x)), Jet2.variable(1, float(y)),
                       float(z), float(mu), 0.0)
    coeffs = jet.coeffs if isinstance(jet, Jet2) else Jet2.constant(jet).coeffs
    exps = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
            (3, 0), (2, 1), (1, 2), (0, 3)]
    for value, (a, b) in zip(coeffs, exps):
        d = p
        for _ in range(a):
            d = d.derivative("x")
        for _ in range(b):
            d = d.derivative("y")
        expected = _exact(d, point) / (math.factorial(a) * math.factorial(b))
        assert abs(value - float(expected)) <= 1e-12 * _scale(p, point)


def test_negative_exponents_and_empty():
    f = compile_terms({(-2, 1): 3.0, (0, 0): -1.0}, ("r", "w"))
    assert f(2.0, 5.0) == 3.0 * 5.0 / 4.0 - 1.0
    assert compile_terms({}, ("r",))(np.arange(3.0)) == 0.0


@settings(max_examples=40, deadline=None)
@given(polys, st.floats(0.1, 3.0), st.floats(-math.pi, math.pi),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_trig_poly_matches_cylindrical_substitution(p, r, theta, w, mu):
    """Re f(e^{i theta}, r, w, mu) of TrigPoly.from_xyz_poly(p) equals p at
    (r cos theta, r sin theta, w)."""
    value = trig_evaluator(TrigPoly.from_xyz_poly(p))(cmath.exp(1j * theta), r, w, mu).real
    point = (Fraction(r * math.cos(theta)), Fraction(r * math.sin(theta)),
             Fraction(w), Fraction(mu))
    assert abs(value - float(_exact(p, point))) <= 1e-12 * _scale(p, point)


# several term maps in (r, w, mu): negative exponents and zero coefficients
# drawn, an empty map always among them
term_maps = st.dictionaries(
    st.tuples(st.integers(-3, 4), st.integers(-3, 4), st.integers(0, 3)),
    st.one_of(st.just(0.0), st.floats(-1e3, 1e3)), max_size=6)
nonzero = st.one_of(st.floats(0.1, 3.0), st.floats(-3.0, -0.1))


@settings(max_examples=80, deadline=None)
@given(st.lists(term_maps, max_size=4), st.integers(0, 4),
       st.tuples(nonzero, nonzero, nonzero))
def test_multi_map_matches_single_maps_bitwise(maps, empty_at, point):
    """One compiled function for several maps returns, for each map, the
    value of that map compiled alone, bit for bit."""
    maps.insert(min(empty_at, len(maps)), {})
    names = ("r", "w", "mu")
    together = compile_terms(maps, names)(*point)
    assert type(together) is tuple and len(together) == len(maps)
    for value, terms in zip(together, maps):
        alone = compile_terms(terms, names)(*point)
        assert np.float64(value).tobytes() == np.float64(alone).tobytes()
