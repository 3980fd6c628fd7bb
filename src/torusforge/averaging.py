"""Second-order averaging machinery for the rescaled Hopf-Zero family.

The rescaled cylindrical system  dr/dtheta = eps F1 + eps^2 F2 + O(eps^3)
is represented exactly, as `TrigPoly`s: `fieldexpr.Poly`s over
(u, r, w, mu, t) with Gaussian-rational (`CFrac`) coefficients, where
u = e^{i theta} carries the angular dependence in the complex Fourier basis,
r may have negative exponents and t = theta appears only in the
antiderivative of F1.  A `CFrac` is one integer triple (a, b, d) with value
(a + b i) / d, so the hot products and sums of the reduction are Python int
arithmetic with one gcd per result.  Both Melnikov functions then come out
as `PiPoly`s, Polys over (r, w, mu, pi) with rational coefficients.

The reduction runs on cleared denominators.  `to_standard_form` scales the
eps slice of grade g by s^g, s the lcm of the denominators of the slice
coefficients (the substitution eps -> s eps), and keeps s on the
`StandardFormSystem`; `melnikov_pair` divides f1 by s and `f2_exact` divides
f2 by s^2, once each.  Between those two points every denominator is
small (powers of 2 from cos and sin, the frequencies m from the
antiderivative), so each gcd starts from it instead of from two numerators
of hundreds of bits.
Every TrigPoly on the route is homogeneous of one grade (F1, a1, Phi: s^1;
D2 and the products: s^2), so a sum is zero exactly where the true sum is:
every term is dropped, kept and placed as on true values, and the order of
the terms does not change.

The 2 pi average keeps only the u^0 terms of an integrand and its t-linear
terms: int_0^{2 pi} A B dtheta = 2 pi sum_m A_m B_{-m}, and
int_0^{2 pi} t u^m dtheta = 2 pi / (i m) for m != 0.  So
f2 = int (F2 + DF1 . int_0^theta F1) is built from frequency-matched
products alone (`_averaged_product`), and F2 = D2 - F1 a1 is never formed
here: the standard form keeps its factors F1, a1 and the grade-2 drift D2,
and the full F2 is an oracle of the tests.  The order of the terms is part
of the output: `PiPoly.evaluator` sums the terms of f1 and f2 in dict order,
so the reports' floats depend on it.  The restricted products therefore
visit their pairs in the order of the full `Poly.__mul__`, with its
delete-on-zero rule, and leave each kept term where the full product would.

This module is the Melnikov layer, run only by `melnikov`, the one command
that builds a Melnikov pair.  What the other commands share with it lives
in `criteria`: the exact eps slices it reduces (`eps_graded_slices`), the
closed-form equilibrium, `AveragingError` and the theorem's hypotheses,
which `branch` reads off the criteria report (`criteria.hypotheses`), so
`flow`, `nsbranch`, `torus` and `branch` never load it.
`MelnikovPair.f1` and `f2_closed` give a tuple of Python floats at one
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, Tuple

from .criteria import (
    AveragingError, HopfZeroSystem, PerturbationFamily, eps_graded_slices, float_range,
)
from .fieldexpr import Poly, compile_terms


# ---------------------------------------------------------------------------
# exact scalars: Gaussian rationals
# ---------------------------------------------------------------------------

def _cfrac(a: int, b: int, d: int) -> "CFrac":
    """The CFrac (a + b i) / d for d > 0, reduced by one gcd.  The
    denominator goes first: on cleared denominators it is small, so the gcd
    takes one big-by-small remainder per part, or none once it reaches 1."""
    g = math.gcd(d, a, b)
    z = object.__new__(CFrac)
    if g == 1:
        z.a, z.b, z.d = a, b, d
    else:
        z.a, z.b, z.d = a // g, b // g, d // g
    return z


def _scalar(q) -> Tuple[int, int]:
    """(numerator, denominator) of an int or Fraction scalar."""
    if isinstance(q, int):
        return q, 1
    return q.numerator, q.denominator


class CFrac:
    """Gaussian rational (a + b i) / d, stored as three Python ints with
    d > 0 and gcd(a, b, d) == 1, so equal values have equal fields.

    `+`, `-`, `*` and `/` take another CFrac or an int or Fraction scalar;
    each forms the integer products of the result over one denominator and
    reduces it by one 3-argument gcd (Henrici, JACM 3, 1956; Knuth, TAOCP
    vol. 2, 4.5.1).  The parts are read as Fractions through `re` and `im`.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        a, b = re.numerator * im.denominator, im.numerator * re.denominator
        d = re.denominator * im.denominator
        g = math.gcd(d, a, b)
        self.a, self.b, self.d = a // g, b // g, d // g

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other):
        if isinstance(other, CFrac):
            d1, d2 = self.d, other.d
            if d1 == d2:
                return _cfrac(self.a + other.a, self.b + other.b, d1)
            return _cfrac(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2)
        n, m = _scalar(other)
        return _cfrac(self.a * m + n * self.d, self.b * m, self.d * m)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, CFrac):
            a1, b1, a2, b2 = self.a, self.b, other.a, other.b
            return _cfrac(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)
        n, m = _scalar(other)
        return _cfrac(self.a * n, self.b * n, self.d * m)

    def __truediv__(self, other):
        if isinstance(other, CFrac):
            # (a1 + b1 i)/d1 * d2/(a2 + b2 i) = (a1 + b1 i)(a2 - b2 i) d2 / (d1 |a2 + b2 i|^2)
            a1, b1, a2, b2 = self.a, self.b, other.a, other.b
            n = a2 * a2 + b2 * b2
            if not n:
                raise ZeroDivisionError("CFrac division by zero")
            d2 = other.d
            return _cfrac((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self.d * n)
        n, m = _scalar(other)
        if not n:
            raise ZeroDivisionError("CFrac division by zero")
        if n < 0:
            n, m = -n, -m
        return _cfrac(self.a * m, self.b * m, self.d * n)

    def __neg__(self):
        z = object.__new__(CFrac)
        z.a, z.b, z.d = -self.a, -self.b, self.d
        return z

    def __eq__(self, other):
        return (isinstance(other, CFrac) and self.a == other.a and self.b == other.b
                and self.d == other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return bool(self.a or self.b)

    def __complex__(self):
        return complex(self.re, self.im)

    def __repr__(self):
        return f"CFrac({self.re}, {self.im})"


# ---------------------------------------------------------------------------
# trig polynomials: sums of coeff * u^m r^a w^b mu^c t^n, u = e^{i theta},
# t = theta; the integrals in (r, w, mu) with coefficients in Q[pi]
# ---------------------------------------------------------------------------

class TrigPoly(Poly):
    """Poly over (u, r, w, mu, t) with CFrac coefficients, u = e^{i theta}
    and t = theta; u and r may have negative exponents.  The standard form
    is t-free, and its antiderivative is linear in t."""

    NAMES = ("u", "r", "w", "mu", "t")
    __slots__ = ()

    @classmethod
    def from_xyz_poly(cls, poly: Poly) -> "TrigPoly":
        """Substitute x = r cos(theta), y = r sin(theta), z = w into a Poly
        over (x, y, z, mu); exact in the e^{i m theta} basis.  Each term
        scales the cached expansion of its cos^i sin^j (`_cos_sin_power`), so
        the terms come in the order of one product with cos or sin per
        power."""
        out: dict = {}
        for (i, j, k, a, b), coeff in poly.terms.items():
            if b != 0:
                raise ValueError("eps must be sliced away before cylindrical substitution")
            for m, v in _cos_sin_power(i, j):
                _add_or_drop(out, (m, i + j, k, a, 0), v * coeff)
        return cls._of(out)


_HALF = Fraction(1, 2)
TRIG_COS = TrigPoly({(1, 0, 0, 0, 0): CFrac(_HALF), (-1, 0, 0, 0, 0): CFrac(_HALF)})
TRIG_SIN = TrigPoly({(1, 0, 0, 0, 0): CFrac(0, -_HALF), (-1, 0, 0, 0, 0): CFrac(0, _HALF)})
_R_INV = TrigPoly({(0, -1, 0, 0, 0): CFrac(1)})

# (i, j) -> the (m, coefficient) terms of cos^i sin^j in powers u^m, in the
# order of the products 1 * cos * ... * cos * sin * ... * sin; filled on use,
# one entry per (i, j), and i + j is at most fieldexpr.MAX_DEGREE
_COS_SIN_POWERS: Dict[Tuple[int, int], Tuple[Tuple[int, CFrac], ...]] = {}


def _cos_sin_power(i: int, j: int) -> Tuple[Tuple[int, CFrac], ...]:
    terms = _COS_SIN_POWERS.get((i, j))
    if terms is None:
        p = TrigPoly.constant(CFrac(1))
        for factor in (TRIG_COS,) * i + (TRIG_SIN,) * j:
            p = p * factor
        terms = _COS_SIN_POWERS[(i, j)] = tuple((m[0], v) for m, v in p.terms.items())
    return terms


def _add_or_drop(out: dict, mono, value) -> None:
    """out[mono] += value for a nonzero value, the term dropped when the sum
    is zero and re-inserted at the end if it comes back: the rule of
    `Poly.__add__` and `Poly.__mul__`, on which the order of terms depends."""
    prev = out.get(mono)
    if prev is not None:
        value = prev + value
    if value:
        out[mono] = value
    else:
        del out[mono]


def _accumulate(out: dict, key, value) -> None:
    prev = out.get(key)
    out[key] = value if prev is None else prev + value


def _over_im(v: CFrac, m: int) -> CFrac:
    """v / (i m) for m != 0: (a + b i) / (i m d) = (b - a i) / (m d)."""
    if m > 0:
        return _cfrac(v.b, -v.a, v.d * m)
    return _cfrac(-v.b, v.a, -v.d * m)


def antiderivative(F: TrigPoly) -> TrigPoly:
    """Integral from 0 to theta of a t-free F, exact: linear in t."""
    out: dict = {}
    for (m, a, b, c, _), v in F.terms.items():
        if m == 0:
            _accumulate(out, (0, a, b, c, 1), v)
        else:
            inv = _over_im(v, m)
            _accumulate(out, (m, a, b, c, 0), inv)
            _accumulate(out, (0, a, b, c, 0), -inv)
    return TrigPoly(out)


class PiPoly(Poly):
    """Poly over (r, w, mu, pi) with Fraction coefficients: the Melnikov
    functions."""

    NAMES = ("r", "w", "mu", "pi")
    __slots__ = ()

    def evaluator(self) -> Callable:
        """Compiled (r, w, mu) -> value, the powers of pi folded into float
        coefficients once."""
        folded: dict = {}
        with float_range():
            for (a, b, c, d), q in self.terms.items():
                _accumulate(folded, (a, b, c), float(q) * math.pi ** d)
        return compile_terms(folded, ("r", "w", "mu"))


def _integrate_2pi(F: TrigPoly, divisor: int) -> PiPoly:
    """Integral of F over theta in [0, 2 pi], divided by `divisor`, exact,
    for F at most linear in t: u^0 integrates to 2 pi, t u^0 to 2 pi^2,
    t u^m to 2 pi / (i m) and u^m to 0 (m != 0).  The sums stay CFracs
    until the end: the imaginary parts of the t u^m terms must cancel
    pairwise."""
    out: dict = {}
    for (m, a, b, c, n), v in F.terms.items():
        if m == 0:
            if v.b:
                raise AveragingError("non-real mean in angular integral")
            _accumulate(out, (a, b, c, 1 + n), v)
        elif n:
            _accumulate(out, (a, b, c, 1), _over_im(v, m))
    if any(v.b for v in out.values()):
        raise AveragingError("theta-linear integral has nonzero imaginary part")
    return PiPoly({key: Fraction(2 * v.a, v.d * divisor) for key, v in out.items()})


# ---------------------------------------------------------------------------
# standard form
# ---------------------------------------------------------------------------

@dataclass
class StandardFormSystem:
    """theta-periodic standard form dr/dtheta = eps F1 + eps^2 F2 + eps^3 Ftilde,
    kept as the factors of F2 = D2 - F1 a1: F1, the eps slice a1 of
    theta-dot and the grade-2 drift D2.  `melnikov_pair` reads F2 only
    through its mean, so F2 itself is not formed.

    The factors are kept on cleared denominators, as the standard form of
    eps -> s eps with s = `scale`: `_F1` and `_a1` are s F1 and s a1, `_D2`
    is s^2 D2."""
    scale: int
    _F1: Tuple[TrigPoly, TrigPoly] = field(repr=False)
    _a1: TrigPoly = field(repr=False)
    _D2: Tuple[TrigPoly, TrigPoly] = field(repr=False)


def to_standard_form(sys: HopfZeroSystem, fam: PerturbationFamily) -> StandardFormSystem:
    """Cylindrical reduction with theta as time, expanded through eps^2.

    With theta-dot = 1 + eps a1 + eps^2 a2 the series division gives
    F1 = (rdot1, wdot1) and F2 = D2 - F1 a1 with D2 = (rdot2, wdot2); the
    system keeps F1, a1 and D2, on cleared denominators: slice g is scaled
    by s^g, s the lcm of the denominators of slices 1 and 2.
    """
    slices = eps_graded_slices(sys, fam)
    grades = [slices[g] if len(slices) > g else (Poly(), Poly(), Poly()) for g in (1, 2)]
    s = math.lcm(*(c.denominator for grade in grades for p in grade for c in p.terms.values()))
    T1, T2 = ([TrigPoly.from_xyz_poly(_cleared(p, s ** g)) for p in grade]
              for g, grade in enumerate(grades, start=1))

    rdot1 = TRIG_COS * T1[0] + TRIG_SIN * T1[1]
    a1 = (TRIG_COS * T1[1] - TRIG_SIN * T1[0]) * _R_INV
    wdot1 = T1[2]
    rdot2 = TRIG_COS * T2[0] + TRIG_SIN * T2[1]
    wdot2 = T2[2]
    return StandardFormSystem(scale=s, _F1=(rdot1, wdot1), _a1=a1, _D2=(rdot2, wdot2))


def _cleared(p: Poly, factor: int) -> Poly:
    """p times an integer `factor` that every denominator of p divides, with
    int coefficients."""
    return Poly._of({m: c.numerator * (factor // c.denominator) for m, c in p.terms.items()})


# ---------------------------------------------------------------------------
# Melnikov functions
# ---------------------------------------------------------------------------

@dataclass
class MelnikovPair:
    """f1 and f2 as exact PiPolys over (r, w, mu, pi); `f1` and `f2_closed`
    evaluate them.  The tests cross-check both against quadrature of the
    standard form."""
    std: StandardFormSystem
    f1_exact: Tuple[PiPoly, PiPoly]

    @cached_property
    def f2_exact(self) -> Tuple[PiPoly, PiPoly]:
        """f2 = int_0^{2 pi} (F2 + DF1 . Phi) with Phi = int_0^theta F1 and
        F2 = D2 - F1 a1, exact, built on first use: a caller that reads f1
        alone never builds it.

        Only the terms the average keeps are formed: the mean of D2, and the
        frequency-matched parts of F1 a1 and DF1 . Phi (`_averaged_product`).
        The integrand's kept terms come in the order of the full expression
        D2 - F1 a1 + dF1/dr Phi_r + dF1/dw Phi_w, so f2_exact's terms, and
        the floats its evaluator sums in that order, are those of the full
        route.  On the standard form's cleared denominators every term of
        the integrand carries s^2, divided out once."""
        std = self.std
        Phi = tuple(antiderivative(F) for F in std._F1)
        return tuple(_integrate_2pi(_mean_part(D2) - _averaged_product(F1, std._a1)
                                    + _averaged_product(F1.derivative("r"), Phi[0])
                                    + _averaged_product(F1.derivative("w"), Phi[1]),
                                    std.scale ** 2)
                     for F1, D2 in zip(std._F1, std._D2))

    # compiled on first use: only melnikov's grid evaluates f1 and f2
    @cached_property
    def _f1_eval(self):
        return tuple(p.evaluator() for p in self.f1_exact)

    @cached_property
    def _f2_eval(self):
        return tuple(p.evaluator() for p in self.f2_exact)

    def f1(self, x, mu) -> Tuple[float, float]:
        """(f1_1, f1_2) at the point x = (r, w)."""
        r, w = x
        return tuple(f(r, w, mu) for f in self._f1_eval)

    def f2_closed(self, x, mu) -> Tuple[float, float]:
        """(f2_1, f2_2) at the point x = (r, w)."""
        r, w = x
        return tuple(f(r, w, mu) for f in self._f2_eval)


def _averaged_product(A: TrigPoly, B: TrigPoly) -> TrigPoly:
    """The terms of A * B that `_integrate_2pi` reads, for a t-free A and a
    B at most linear in t: the u^0 terms and the t-linear ones.

    A term u^m of A meets only the terms u^-m of B and B's t-linear terms
    (int A B = 2 pi sum_m A_m B_-m; int t u^m = 2 pi / (i m)), listed once
    per m.  The pairs are visited in the order of `Poly.__mul__`, with its
    delete-on-zero rule, so the kept terms and their order are those of the
    full product."""
    partners: Dict[int, list] = {}
    out: dict = {}
    for (u, a, b, c, _), v1 in A.terms.items():
        row = partners.get(u)
        if row is None:
            row = partners[u] = [(m2, v2) for m2, v2 in B.terms.items()
                                 if m2[0] == -u or m2[4]]
        for (u2, a2, b2, c2, t2), v2 in row:
            _add_or_drop(out, (u + u2, a + a2, b + b2, c + c2, t2), v1 * v2)
    return TrigPoly._of(out)


def _mean_part(F: TrigPoly) -> TrigPoly:
    """The u^0 terms of a t-free F, in F's order."""
    return TrigPoly._of({m: v for m, v in F.terms.items() if m[0] == 0})


def melnikov_pair(std: StandardFormSystem) -> MelnikovPair:
    """f1 = int_0^{2 pi} F1, exact, and f2 (`MelnikovPair.f2_exact`) on
    first use.  The standard form's F1 is s times the true one; f1 is
    divided by s once."""
    return MelnikovPair(std=std, f1_exact=tuple(_integrate_2pi(F, std.scale)
                                                for F in std._F1))
