"""The exact root isolator against sympy's real roots."""

from collections import Counter
from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from torusforge.univariate import gcd, roots, sign_at, simple_and_multiple, squarefree

X = sympy.Symbol("x")
small = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def _monic(draw, degree: int) -> sympy.Poly:
    """A monic factor of degree <= `degree` with small rational coefficients,
    which may add irrational or repeated roots."""
    lower = draw(st.lists(small, max_size=degree))
    return sympy.Poly([1, *reversed(lower)], X, domain="QQ")


@st.composite
def polynomials(draw):
    """A rational polynomial of degree <= 6: a product of (x - r)^k over drawn
    rational roots, repeats included, times a monic factor; and an interval
    [lo, hi] whose ends are often roots."""
    roots = draw(st.lists(st.tuples(small, st.integers(1, 3)), max_size=3)
                 .filter(lambda rs: sum(k for _, k in rs) <= 6))
    p = sympy.Poly(draw(small.filter(bool)), X, domain="QQ")
    for r, k in roots:
        p *= sympy.Poly(X - sympy.Rational(r.numerator, r.denominator), X) ** k
    p *= _monic(draw, 6 - p.degree())
    ends = [r for r, _ in roots] + draw(st.lists(small, min_size=2, max_size=2))
    lo, hi = sorted(draw(st.lists(st.sampled_from(ends), min_size=2, max_size=2)))
    return p, lo, hi if hi > lo else lo + 1


def _dense(p: sympy.Poly):
    return [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]


def _rounded(root) -> float:
    """A sympy real root correctly rounded: exact for a rational root, else
    through 60 digits, far from the ties between two floats."""
    exact = root if root.is_Rational else sympy.Rational(root.evalf(60))
    return float(Fraction(int(exact.p), int(exact.q)))


def _roots(p, lo, hi):
    return [float(sum(cell) / 2) for cell in roots(p, lo, hi)]


def _in(p, lo, hi):
    return [r for r in sympy.real_roots(p) if lo <= r <= hi]


@settings(max_examples=80, deadline=None)
@given(polynomials())
def test_isolated_roots_match_sympy(case):
    """The distinct real roots in [lo, hi], split into simple and multiple
    ones, correctly rounded: those of sympy's `real_roots`."""
    p, lo, hi = case
    multiplicity = Counter(_in(p, lo, hi))
    expected = [sorted(_rounded(r) for r, m in multiplicity.items() if (m > 1) == repeated)
                for repeated in (False, True)]
    dense = _dense(p)
    simple, multiple = simple_and_multiple(dense)
    assert _roots(simple, lo, hi) == expected[0]
    assert _roots(multiple, lo, hi) == expected[1]
    assert _roots(squarefree(dense), lo, hi) == sorted(expected[0] + expected[1])


@settings(max_examples=40, deadline=None)
@given(polynomials(), st.booleans(), st.data())
def test_sign_at_a_root(case, shared, data):
    """The sign of f at each isolated root of p: 0 where they share it, else
    that of f at sympy's root to 60 digits."""
    p, lo, hi = case
    q = squarefree(_dense(p))
    exact = sorted(set(_in(p, lo, hi)))
    f = _monic(data.draw, 3)
    if exact and shared:
        f *= sympy.Poly(sympy.minimal_polynomial(exact[0], X), X, domain="QQ")
    cells = roots(q, lo, hi)
    assert len(cells) == len(exact)
    for root, cell in zip(exact, cells):
        at = f.as_expr().subs(X, root).evalf(60)
        want = 0 if abs(at) < 1e-30 else int(sympy.sign(at))
        assert sign_at(_dense(f), q, cell) == want


def test_ties_and_the_float_range():
    """A root halfway between two floats is met exactly and rounds to even;
    roots at +-10^-300 and at 3 2^-1076, below the least subnormal, are
    refined to their floats."""
    one = Fraction(1)
    tie = 1 + Fraction(1, 2 ** 53)                  # between 1 and 1 + 2^-52
    assert _roots([-tie, one], Fraction(0), Fraction(2)) == [1.0]
    assert _roots([-tie, one], Fraction(1, 3), Fraction(5, 3)) == [1.0]
    tiny = Fraction(1, 10 ** 300)
    assert _roots([-tiny * tiny, 0 * one, one], -one, one) == [-1e-300, 1e-300]
    sub = Fraction(3, 2 ** 1076)
    assert _roots([-sub, one], -one, one) == [float(sub)] == [5e-324]


def test_gcd():
    x2m1 = [Fraction(-1), Fraction(0), Fraction(1)]
    assert gcd(x2m1, [Fraction(3), Fraction(3)]) == [1, 1]      # x + 1
    assert gcd(x2m1, [Fraction(2)]) == [1]
    assert gcd([], [Fraction(0)]) == []
