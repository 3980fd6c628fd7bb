import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torusforge.averaging import TRIG_COS, CFrac, PiPoly, TrigPoly
from torusforge.fieldexpr import (
    MAX_DEGREE, MAX_NESTING, VARIABLES, ExpressionTooLarge, FieldExprError,
    FieldSyntaxError, Poly, UnknownIdentifierError, format_poly, parse_field, partial,
)
from torusforge.criteria import CriteriaError, validate_hopf_zero

from oracles import (
    FractionCFrac, UnboundSymbolError, degree_report, evaluate_field, jet_product,
    parse_field_reference, poly_eval, poly_to_float, raw_partials,
)


def test_parse_basic_degree():
    f = parse_field("x^2*y - 3/2*z^3")
    rep = degree_report(f)
    assert rep["xyz_total"] == 3
    assert rep["x"] == 2 and rep["z"] == 3
    assert rep["param_total"] == 0


def test_parse_example_system_param_degree():
    f = parse_field("-x^2 + x*y + z^2 + eps*mu*z + eps^2")
    rep = degree_report(f)
    assert rep["eps"] == 2
    assert rep["mu"] == 1
    # unary minus binds below '^': the x^2 coefficient must be -1
    assert f.terms[(2, 0, 0, 0, 0)] == -1


def test_syntax_error_offset():
    with pytest.raises(FieldSyntaxError) as exc:
        parse_field("x + @")
    assert exc.value.offset == 4
    assert exc.value.expected


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as exc:
        parse_field("x + foo*y")
    assert exc.value.name == "foo"
    assert exc.value.offset == 4


def test_power_cap():
    parse_field("x^12")
    with pytest.raises(FieldSyntaxError):
        parse_field("x^13")


def test_expansion_caps():
    assert len(parse_field("(x+y+z+1)^12").terms) == 455
    assert len(parse_field("(x+y+z+1)^6*(x+y+z+1)^6").terms) == 455
    assert parse_field("x^12*y^12").degree(VARIABLES) == MAX_DEGREE
    for source in ("x^12*y^12*z", "((x^12)^12)^12", "((x+y+z+1)^12)^2",
                   "(x+y+z+mu+eps+1)^12"):
        with pytest.raises(ExpressionTooLarge):
            parse_field(source)


def test_rational_and_decimal_literals_exact():
    assert parse_field("3/2").terms == {(0, 0, 0, 0, 0): Fraction(3, 2)}
    assert parse_field("0.125").terms == {(0, 0, 0, 0, 0): Fraction(1, 8)}


def test_evaluate_field():
    assert evaluate_field("x*y", (2, 3, 0)) == 6
    # example-system R at (1,1,1), mu=0, eps=0
    assert evaluate_field("-x^2 + x*y + z^2 + eps*mu*z + eps^2", (1, 1, 1)) == 1
    assert evaluate_field("eps^2", (0, 0, 0), (0, 0.05)) == pytest.approx(0.0025)
    with pytest.raises(UnboundSymbolError):
        poly_eval(parse_field("x + y"), x=1)


def test_jet_extract_single_monomial():
    p = parse_field("y*z")
    assert partial(p, 0, 1, 1) == 1
    assert all(val == 0 for idx, val in raw_partials(p).items() if idx != (0, 1, 1))


def test_jet_extract_second_partials():
    p = parse_field("-x^2 + x*y + z^2")
    assert partial(p, 2, 0, 0) == -2
    assert partial(p, 1, 1, 0) == 1
    assert partial(p, 0, 0, 2) == 2
    assert partial(p, 0, 2, 0) == 0 and type(partial(p, 0, 2, 0)) is Fraction


def test_jet_extract_refuses_parameters():
    """Systems are parameter-free: validate_hopf_zero refuses a component in
    mu or eps, so no partial of a system is a parametric one.  On a Poly in
    mu or eps, `partial` reads the coefficients at mu = eps = 0."""
    for source in ("mu*z + x*y", "x^2 + eps^2"):
        for k in range(3):
            components = ["0", "0", "0"]
            components[k] = source
            with pytest.raises(CriteriaError):
                validate_hopf_zero(*components)
    assert partial(parse_field("mu*z + x*y"), 0, 0, 1) == 0
    assert partial(parse_field("mu*z + x*y"), 1, 1, 0) == 1
    assert partial(parse_field("x^2 + eps^2"), 2, 0, 0) == 2


def _random_expr_text(rng, depth=0):
    choices = ["num", "var"]
    if depth < 4:
        choices += ["add", "sub", "mul", "pow", "neg", "paren"]
    kind = rng.choice(choices)
    if kind == "num":
        if rng.random() < 0.3:
            return f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"
        if rng.random() < 0.2:
            return f"{rng.randint(0, 9)}.{rng.randint(0, 99):02d}"
        return str(rng.randint(0, 12))
    if kind == "var":
        return rng.choice(["x", "y", "z", "mu", "eps"])
    if kind == "add":
        return f"{_random_expr_text(rng, depth + 1)} + {_random_expr_text(rng, depth + 1)}"
    if kind == "sub":
        return f"{_random_expr_text(rng, depth + 1)} - {_random_expr_text(rng, depth + 1)}"
    if kind == "mul":
        return f"{_random_expr_text(rng, depth + 1)}*{_random_expr_text(rng, depth + 1)}"
    if kind == "pow":
        return f"({_random_expr_text(rng, depth + 1)})^{rng.randint(0, 3)}"
    if kind == "neg":
        return f"-{_random_expr_text(rng, depth + 1)}"
    return f"({_random_expr_text(rng, depth + 1)})"


def _sympy_poly(sympy, text):
    """sympy's expansion of an expression of the grammar, as Poly terms.  A
    literal a/b binds tighter than '^' here (2/3^2 is 4/9), so each one is
    parenthesized before sympy reads the text."""
    text = re.sub(r"(\d+)/(\d+)", r"(\1/\2)", text)
    names = {v: sympy.Symbol(v) for v in VARIABLES}
    expanded = sympy.expand(sympy.sympify(text, locals=names, rational=True))
    coeffs = sympy.Poly(expanded, *names.values()).as_dict()
    return {m: Fraction(int(c.p), int(c.q)) for m, c in coeffs.items() if c}


def test_print_parse_roundtrip_corpus():
    """On a random corpus the parser agrees with sympy's expansion, and
    format_poly prints text that parses back to the same Poly."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20250811)
    for _ in range(150):
        text = _random_expr_text(rng)
        p = parse_field(text)
        assert p.terms == _sympy_poly(sympy, text), text
        printed = format_poly(p)
        assert parse_field(printed) == p, f"{text!r} -> {printed!r}"


def test_format_poly_roundtrip_at_the_caps():
    """1820 terms (within MAX_TERMS) print and parse back: the parser sums a
    flat sum in a loop, so its length is bounded by the caps alone."""
    p = parse_field("(x+y+z+mu+1)^12")
    assert len(p.terms) == 1820
    assert parse_field(format_poly(p)) == p


def test_nesting_cap():
    assert parse_field("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == parse_field("x")
    assert parse_field("-" * MAX_NESTING + "x") == parse_field("x")
    assert parse_field("-(" * (MAX_NESTING // 2) + "x" + ")" * (MAX_NESTING // 2)) \
        == parse_field("x")
    for source in ("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
                   "-" * (MAX_NESTING + 1) + "x"):
        with pytest.raises(FieldSyntaxError) as exc:
            parse_field(source)
        assert exc.value.offset == MAX_NESTING


# ---------------------------------------------------------------------------
# the one-pass parser against the reference parser, one Poly per factor
# ---------------------------------------------------------------------------

_NUMBERS = st.one_of(
    st.integers(0, 40).map(str),
    st.tuples(st.integers(0, 9), st.integers(0, 999)).map(lambda t: f"{t[0]}.{t[1]}"),
    st.integers(0, 99).map(lambda n: f".{n}"),
    st.integers(0, 9).map(lambda n: f"{n}."),
    st.tuples(st.integers(0, 30), st.integers(1, 30)).map(lambda t: f"{t[0]}/{t[1]}"),
)
_ATOMS = st.one_of(_NUMBERS, st.sampled_from(VARIABLES))


def _expressions():
    """Expression text: sums, products, powers, unary minus and parentheses
    over numbers and variables; (A) - (A) and A*x - x*A cancel."""
    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from([" + ", " - ", "+", "-"]), inner).map("".join),
            st.tuples(inner, inner).map(lambda t: f"{t[0]}*{t[1]}"),
            st.tuples(inner, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(_ATOMS, st.integers(0, 4)).map(lambda t: f"{t[0]}^{t[1]}"),
            inner.map(lambda e: f"-{e}"),
            inner.map(lambda e: f"({e})"),
            inner.map(lambda e: f"({e}) - ({e})"),
            st.tuples(inner, st.sampled_from(VARIABLES)).map(
                lambda t: f"{t[0]}*{t[1]} - {t[1]}*({t[0]})"),
        )
    return st.recursive(_ATOMS, extend, max_leaves=12)


# tokens of malformed text: valid pieces, stray characters, unknown and
# non-ASCII names, Unicode spaces and decimal digits, exponents at the cap
_SOUP = st.lists(st.sampled_from(
    ["x", "y", "mu", "eps", "foo", "_a1", "\u03bc", "\u00e9t\u00e9", "1", "0", "2.5", ".5",
     "7.", "\u0663", "12", "13", "/", "/0", ".", "^", "*", "+", "-", "(", ")", " ",
     "\u00a0", "\t", "@", "\u00bd", "#", "^12", "^13", "^-1", "^2.0"]),
    max_size=14).map("".join)

# products and sums around the degree and term caps, with zero factors
_OVERSIZED = st.lists(st.sampled_from(
    ["x^12", "y^7", "z^5", "mu^12", "(x+y+z+1)^6", "(x+mu+eps+1)^12", "(x+y)^12",
     "(x+y+z+mu+eps+1)^4", "0", "(x-x)", "-(y+1)^3", "2/3", "eps"]),
    min_size=1, max_size=5).flatmap(
    lambda parts: st.lists(st.sampled_from(["*", " + ", " - "]), min_size=len(parts) - 1,
                           max_size=len(parts) - 1).map(
        lambda ops: parts[0] + "".join(o + p for o, p in zip(ops, parts[1:]))))


def _outcome(parse, source):
    """The ordered terms of the parse, or the error's type, text and offset."""
    try:
        return list(parse(source).terms.items())
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


@settings(max_examples=300, deadline=None)
@given(_expressions())
def test_parser_matches_reference_on_expressions(source):
    """The same terms, in the same order, as multiplying factor by factor."""
    assert _outcome(parse_field, source) == _outcome(parse_field_reference, source)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_SOUP, _OVERSIZED, _expressions().map(lambda e: e + " * x^12 * y^12")))
def test_parser_matches_reference_on_malformed_and_oversized_input(source):
    """The same exception type, message and offset, or the same terms."""
    assert _outcome(parse_field, source) == _outcome(parse_field_reference, source)


def test_parser_refuses_non_decimal_digits():
    """A digit `int` cannot read, such as a superscript, is an unexpected
    character; the reference parser took it into a number and failed in
    `int` with a bare ValueError."""
    for source, offset in (("2\u00b2", 1), ("x + \u00b2", 4), (".\u00b2", 0)):
        with pytest.raises(FieldSyntaxError) as exc:
            parse_field(source)
        assert exc.value.offset == offset
        assert "unexpected character" in str(exc.value)
        with pytest.raises(ValueError) as ref:
            parse_field_reference(source)
        assert not isinstance(ref.value, FieldExprError)


# exact polynomials in (x, y, z, mu, eps): at most 5 terms, each exponent at
# most 2, so a product of three stays small
coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=12)
monomials = st.tuples(*[st.integers(0, 2)] * 5)
polys = st.dictionaries(monomials, coefficients, max_size=5).map(Poly)


@settings(max_examples=100, deadline=None)
@given(polys)
def test_poly_print_parse_roundtrip(p):
    text = format_poly(p)
    assert parse_field(text) == p, text


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_poly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Poly() == a and a * Poly.constant(1) == a and not a - a


# TrigPolys over (u, r, w, mu, t) with Gaussian-rational coefficients and
# negative u and r exponents, and PiPolys over (r, w, mu, pi)
trig_monomials = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 2),
                           st.integers(0, 2), st.integers(0, 1))
trig_polys = st.dictionaries(trig_monomials, st.builds(CFrac, coefficients, coefficients),
                             max_size=5).map(TrigPoly)
pi_polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 4), coefficients,
                           max_size=5).map(PiPoly)


def _triples(polys_, one):
    return st.tuples(polys_, polys_, polys_, st.just(one))


@settings(max_examples=60, deadline=None)
@given(st.one_of(_triples(trig_polys, CFrac(1)), _triples(pi_polys, Fraction(1))))
def test_poly_subclass_ring_laws(abc):
    a, b, c, one = abc
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    zero = type(a)()
    assert a + zero == a and a * type(a).constant(one) == a and not a - a
    assert not a * zero and type(a - b) is type(a)


@settings(max_examples=30, deadline=None)
@given(trig_polys, pi_polys)
def test_poly_classes_never_compare_equal(t, p):
    assert TrigPoly(t.terms) != Poly(t.terms) and Poly(t.terms) != TrigPoly(t.terms)
    assert PiPoly(p.terms) != Poly(p.terms)
    assert TrigPoly() != Poly() != PiPoly()


# Gaussian rationals against the Fraction-pair reference
cfracs = st.builds(CFrac, coefficients, coefficients)
ints = st.integers(-30, 30)


def _as_reference(z: CFrac) -> FractionCFrac:
    return FractionCFrac(z.re, z.im)


def _assert_matches(got, want: FractionCFrac):
    """got is the CFrac of want's value, in lowest terms with d > 0."""
    assert type(got) is CFrac
    assert (got.re, got.im) == (want.re, want.im)
    assert got.d > 0 and math.gcd(got.a, got.b, got.d) == 1
    same = CFrac(want.re, want.im)
    assert got == same and hash(got) == hash(same)


@settings(max_examples=300, deadline=None)
@given(cfracs, st.one_of(cfracs, coefficients, ints))
def test_cfrac_matches_fraction_pair_reference(x, y):
    """+, -, * and / by a CFrac, a Fraction or an int agree with the
    Fraction-pair reference; a scalar is added as the real CFrac it is."""
    rx = _as_reference(x)
    ry = _as_reference(y) if isinstance(y, CFrac) else y
    ry_complex = ry if isinstance(y, CFrac) else FractionCFrac(y)
    _assert_matches(x + y, rx + ry_complex)
    _assert_matches(x - y, rx - ry_complex)
    _assert_matches(x * y, rx * ry)
    _assert_matches(-x, -rx)
    assert bool(x) == bool(rx) and complex(x) == complex(rx)
    if y:
        _assert_matches(x / y, rx / ry)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


def test_cfrac_division_by_zero_raises():
    for zero in (CFrac(), CFrac(0, 0), Fraction(0), 0):
        with pytest.raises(ZeroDivisionError):
            CFrac(1, 2) / zero
    with pytest.raises(ZeroDivisionError):
        CFrac() / CFrac()


@settings(max_examples=60, deadline=None)
@given(trig_polys, trig_polys)
def test_equal_trig_polys_hash_equal(a, b):
    """TrigPolys are hashable, and equal ones built by different routes hash
    equal: their CFrac coefficients are in lowest terms."""
    again = (a + b) - b
    assert again == a and hash(again) == hash(a)
    scaled = a.scale(CFrac(2, 0)).scale(Fraction(1, 2))
    assert scaled == a and hash(scaled) == hash(a)
    assert hash(TRIG_COS) == hash(TrigPoly(dict(reversed(TRIG_COS.terms.items()))))


# substitution: Fraction Polys over (x, y, z, mu, eps) with exponents up to
# 3, so terms share powers; bindings for some of x, y, z
sub_polys = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 5), coefficients,
                            max_size=6).map(Poly)
binding_polys = st.dictionaries(st.tuples(*[st.integers(0, 1)] * 5), coefficients,
                                max_size=3).map(Poly)
points = st.fixed_dictionaries({v: st.fractions(min_value=-3, max_value=3,
                                                max_denominator=5) for v in VARIABLES})


@settings(max_examples=100, deadline=None)
@given(sub_polys, st.dictionaries(st.sampled_from(("x", "y", "z")), binding_polys),
       points)
def test_substitute_agrees_with_evaluation(p, bindings, point):
    """p.substitute(b) at a point equals p at the bindings' values there; an
    unbound variable keeps its own value."""
    values = {v: poly_eval(bindings[v], **point) if v in bindings else point[v]
              for v in VARIABLES}
    assert poly_eval(p.substitute(bindings), **point) == poly_eval(p, **values)


def _random_poly3(rng) -> Poly:
    p = Poly()
    for _ in range(rng.randint(1, 8)):
        j = rng.randint(0, 3)
        k = rng.randint(0, 3 - j)
        l = rng.randint(0, 3 - j - k)
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        p = p + Poly({(j, k, l, 0, 0): coeff})
    return p


def test_jet_product_exactness_random():
    """jet(f*g) equals the degree-3 truncated product of jet(f) and jet(g)."""
    rng = random.Random(42)
    for _ in range(100):
        f, g = _random_poly3(rng), _random_poly3(rng)
        left = raw_partials(f * g)
        right = jet_product(raw_partials(f), raw_partials(g))
        assert left == right


def test_jet_agrees_with_finite_differences():
    rng = random.Random(7)
    for _ in range(5):
        p = poly_to_float(_random_poly3(rng))

        def ev(px, py, pz):
            return poly_eval(p, x=px, y=py, z=pz)

        h = 1e-2
        # central second difference for (1,1,0)
        fd = (ev(h, h, 0) - ev(h, -h, 0) - ev(-h, h, 0) + ev(-h, -h, 0)) / (4 * h * h)
        exact = float(partial(p, 1, 1, 0))
        assert fd == pytest.approx(exact, rel=1e-6, abs=1e-6)
