"""Second-order averaging machinery for the rescaled Hopf-Zero family.

The rescaled cylindrical system  dr/dtheta = eps F1 + eps^2 F2 + O(eps^3)
is represented exactly, as `TrigPoly`s: `fieldexpr.Poly`s over
(u, r, w, mu, t) with Gaussian-rational (`CFrac`) coefficients, where
u = e^{i theta} carries the angular dependence in the complex Fourier basis,
r may have negative exponents and t = theta appears only in the
antiderivative of F1.  A `CFrac` is one integer triple (a, b, d) with value
(a + b i) / d, so the hot products and sums of the reduction are Python int
arithmetic with one gcd per result.  Both Melnikov functions then come out
as `PiPoly`s, Polys over (r, w, mu, pi) with rational coefficients, and the
first Lyapunov quantity is obtained from them by a short complex series
computation.

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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .criteria import HopfZeroSystem, PerturbationFamily, perturbation_functions
from .fieldexpr import Poly, compile_terms

PERIOD = 2.0 * math.pi
EQUILIBRIUM_RESIDUAL = 1e-12
STRONG_RESONANCE_TOL = 1e-8
HYPOTHESIS_SAMPLES = 33                  # mu samples of the averaged path
# the factor-2 eps ladder of the Neimark-Sacker branch, solved once; each fit
# reads three consecutive rungs: the Lyapunov slices the largest three, mu1
# the middle three, the Jordan expansion and the fixed-point slice the
# smallest three
BRANCH_LADDER = (1.6e-2, 8e-3, 4e-3, 2e-3, 1e-3)


class AveragingError(ValueError):
    pass


class NewtonDiverged(AveragingError):
    pass


class ComplexPairLost(AveragingError):
    """Hypothesis H fails: the averaged Jacobian has a real spectrum."""


class StrongResonance(AveragingError):
    pass


# ---------------------------------------------------------------------------
# exact scalars: Gaussian rationals
# ---------------------------------------------------------------------------

def _cfrac(a: int, b: int, d: int) -> "CFrac":
    """The CFrac (a + b i) / d for d > 0, reduced by one gcd."""
    g = math.gcd(a, b, d)
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
        g = math.gcd(a, b, d)
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
        for (a, b, c, d), q in self.terms.items():
            _accumulate(folded, (a, b, c), float(q) * math.pi ** d)
        return compile_terms(folded, ("r", "w", "mu"))


def _integrate_2pi(F: TrigPoly) -> PiPoly:
    """Integral of F over theta in [0, 2 pi], exact, for F at most linear
    in t: u^0 integrates to 2 pi, t u^0 to 2 pi^2, t u^m to 2 pi / (i m)
    and u^m to 0 (m != 0).  The sums stay CFracs until the end: the
    imaginary parts of the t u^m terms must cancel pairwise."""
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
    return PiPoly({key: Fraction(2 * v.a, v.d) for key, v in out.items()})


# ---------------------------------------------------------------------------
# standard form
# ---------------------------------------------------------------------------

@dataclass
class StandardFormSystem:
    """theta-periodic standard form dr/dtheta = eps F1 + eps^2 F2 + eps^3 Ftilde,
    kept as the factors of F2 = D2 - F1 a1: F1, the eps slice a1 of
    theta-dot and the grade-2 drift D2.  `melnikov_pair` reads F2 only
    through its mean, so F2 itself is not formed."""
    F1: Tuple[TrigPoly, TrigPoly]
    a1: TrigPoly
    D2: Tuple[TrigPoly, TrigPoly]
    system: HopfZeroSystem
    family: PerturbationFamily


def eps_graded_slices(sys: HopfZeroSystem, fam: PerturbationFamily
                      ) -> Tuple[Tuple[Poly, Poly, Poly], ...]:
    """Exact eps-power slices of the rescaled field (x,y,z) -> eps (x,y,z).

    Slice 0 is the linear part (-y, x, 0); slice m >= 1 collects the
    homogeneous contributions of total grade m (polynomials in x, y, z, mu).
    """
    x, y = Poly.variable("x"), Poly.variable("y")
    eps = Poly.variable("eps")
    comps = [(-y) + sys.P + eps * fam.U,
             x + sys.Q + eps * fam.V,
             sys.R + eps * fam.W]
    max_grade = 0
    graded: List[Dict[int, Poly]] = []
    for comp in comps:
        # (i, j, k) and the grade fix the eps power, so each key of a
        # grade comes from one term
        grades: Dict[int, dict] = {}
        for (i, j, k, a, b), coeff in comp.terms.items():
            g = i + j + k + b - 1
            if g < 0:
                raise AveragingError("rescaled field has an eps^(-1) term")
            grades.setdefault(g, {})[(i, j, k, a, 0)] = coeff
            max_grade = max(max_grade, g)
        graded.append({g: Poly(terms) for g, terms in grades.items()})
    lin = (Poly({(0, 1, 0, 0, 0): Fraction(-1)}), Poly({(1, 0, 0, 0, 0): Fraction(1)}), Poly())
    for comp_grades, expected in zip(graded, lin):
        if comp_grades.get(0, Poly()) != expected:
            raise AveragingError("grade-0 part of the rescaled field is not (-y, x, 0)")
    return tuple(
        (graded[0].get(m, Poly()), graded[1].get(m, Poly()), graded[2].get(m, Poly()))
        for m in range(max_grade + 1))


def to_standard_form(sys: HopfZeroSystem, fam: PerturbationFamily) -> StandardFormSystem:
    """Cylindrical reduction with theta as time, expanded through eps^2.

    With theta-dot = 1 + eps a1 + eps^2 a2 the series division gives
    F1 = (rdot1, wdot1) and F2 = D2 - F1 a1 with D2 = (rdot2, wdot2); the
    system keeps F1, a1 and D2.
    """
    slices = eps_graded_slices(sys, fam)
    T1 = [TrigPoly.from_xyz_poly(p) for p in slices[1]] if len(slices) > 1 else \
        [TrigPoly() for _ in range(3)]
    T2 = [TrigPoly.from_xyz_poly(p) for p in slices[2]] if len(slices) > 2 else \
        [TrigPoly() for _ in range(3)]

    rdot1 = TRIG_COS * T1[0] + TRIG_SIN * T1[1]
    a1 = (TRIG_COS * T1[1] - TRIG_SIN * T1[0]) * _R_INV
    wdot1 = T1[2]
    rdot2 = TRIG_COS * T2[0] + TRIG_SIN * T2[1]
    wdot2 = T2[2]
    return StandardFormSystem(F1=(rdot1, wdot1), a1=a1, D2=(rdot2, wdot2),
                              system=sys, family=fam)


# ---------------------------------------------------------------------------
# Melnikov functions
# ---------------------------------------------------------------------------

@dataclass
class MelnikovPair:
    """f1 and f2 as exact PiPolys over (r, w, mu, pi); `f1`, `f1_jacobian`
    and `f2_closed` evaluate them.  The tests cross-check both against
    quadrature of the standard form."""
    std: StandardFormSystem
    f1_exact: Tuple[PiPoly, PiPoly]
    f2_exact: Tuple[PiPoly, PiPoly]

    # compiled on first use: first_lyapunov_quantity needs f1 and f2 only
    @cached_property
    def _f1_eval(self):
        return tuple(p.evaluator() for p in self.f1_exact)

    @cached_property
    def _df1_eval(self):
        return tuple(tuple(p.derivative(v).evaluator() for v in ("r", "w"))
                     for p in self.f1_exact)

    @cached_property
    def _f2_eval(self):
        return tuple(p.evaluator() for p in self.f2_exact)

    # Gamma and w_mu of the family, built once for averaged_equilibrium
    @cached_property
    def _perturbation_functions(self):
        return perturbation_functions(self.std.system, self.std.family)

    def f1(self, x, mu) -> np.ndarray:
        r, w = x
        return np.array([f(r, w, mu) for f in self._f1_eval])

    def f1_jacobian(self, x, mu) -> np.ndarray:
        r, w = x
        return np.array([[f(r, w, mu) for f in row] for row in self._df1_eval])

    def f2_closed(self, x, mu) -> np.ndarray:
        r, w = x
        return np.array([f(r, w, mu) for f in self._f2_eval])


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
    """f1 = int_0^{2 pi} F1 and f2 = int_0^{2 pi} (F2 + DF1 . Phi) with
    Phi = int_0^theta F1 and F2 = D2 - F1 a1, exact.

    Only the terms the average keeps are formed: the mean of D2, and the
    frequency-matched parts of F1 a1 and DF1 . Phi (`_averaged_product`).
    The integrand's kept terms come in the order of the full expression
    D2 - F1 a1 + dF1/dr Phi_r + dF1/dw Phi_w, so f2_exact's terms, and the
    floats its evaluator sums in that order, are those of the full route.
    """
    f1 = tuple(_integrate_2pi(F) for F in std.F1)
    Phi = tuple(antiderivative(F) for F in std.F1)
    f2 = tuple(_integrate_2pi(_mean_part(D2) - _averaged_product(F1, std.a1)
                              + _averaged_product(F1.derivative("r"), Phi[0])
                              + _averaged_product(F1.derivative("w"), Phi[1]))
               for F1, D2 in zip(std.F1, std.D2))
    return MelnikovPair(std=std, f1_exact=f1, f2_exact=f2)


# ---------------------------------------------------------------------------
# averaged equilibrium and hypotheses
# ---------------------------------------------------------------------------

@dataclass
class AveragedEquilibrium:
    mu: float
    r: float
    w: float
    jacobian: np.ndarray
    eigenvalues: Tuple[complex, complex]
    eta: float
    zeta: float
    omega: float            # pi sqrt(Omega) r_mu
    residual: float


def averaged_equilibrium(mel: MelnikovPair, mu: float) -> AveragedEquilibrium:
    gamma_op, _, _, w_mu = mel._perturbation_functions
    gamma = gamma_op(mu)
    if gamma >= 0:
        raise AveragingError(f"Gamma_criterion({mu}) = {gamma} >= 0; no equilibrium radius")
    w = w_mu(mu)
    r = math.sqrt(-gamma)

    # Newton polish on f1^2(., w)
    f1_2, df = mel._f1_eval[1], mel._df1_eval[1][0]
    for _ in range(60):
        val = f1_2(r, w, mu)
        if abs(val) <= EQUILIBRIUM_RESIDUAL:
            break
        slope = df(r, w, mu)
        if slope == 0 or not math.isfinite(slope):
            raise NewtonDiverged("flat slope in radius Newton")
        r -= val / slope
        if not (0 < r < 1e6):
            raise NewtonDiverged(f"radius iterate escaped: {r}")
    else:
        raise NewtonDiverged("radius Newton did not reach residual tolerance")

    residual = float(np.max(np.abs(mel.f1((r, w), mu))))
    J = mel.f1_jacobian((r, w), mu)
    eta = 0.5 * (J[0, 0] + J[1, 1])
    det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    disc = eta * eta - det
    if disc >= 0:
        raise ComplexPairLost(f"eta^2 - pi^2 Omega r^2 = {disc} >= 0 at mu={mu}")
    zeta = math.sqrt(-disc)
    lam = (complex(eta, zeta), complex(eta, -zeta))
    numeric = sorted(np.linalg.eigvals(J), key=lambda z: -z.imag)
    if max(abs(numeric[0] - lam[0]), abs(numeric[1] - lam[1])) > 1e-9 * max(1.0, abs(lam[0])):
        raise AveragingError("closed-form eigenvalues disagree with direct eigensolve")
    omega = math.pi * math.sqrt(float(mel.std.system.omega)) * r
    return AveragedEquilibrium(mu=mu, r=r, w=w, jacobian=J, eigenvalues=lam,
                               eta=eta, zeta=zeta, omega=omega, residual=residual)


@dataclass
class HypothesisReport:
    hopf_ok: bool
    transversality_ok: bool
    nondegeneracy_ok: bool
    details: dict

    def to_dict(self) -> dict:
        return {"hopf_ok": self.hopf_ok,
                "transversality_ok": self.transversality_ok,
                "nondegeneracy_ok": self.nondegeneracy_ok,
                "details": self.details}


def hypothesis_check(mel: MelnikovPair, crit, lyapunov: Ell1Result) -> HypothesisReport:
    """H, T, ND against the averaged path over the criterion interval; ND
    reads l11, l12 off `lyapunov` (the eps and eps^2 slices of the map
    Lyapunov coefficient, from `first_lyapunov_quantity`).
    """
    details: dict = {}

    lo, hi = crit.interval
    n = HYPOTHESIS_SAMPLES
    mus = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    max_res = 0.0
    complex_ok = True
    for m in mus:
        if crit.gamma_criterion(m) >= 0:
            continue
        try:
            eq = averaged_equilibrium(mel, m)
        except ComplexPairLost:
            complex_ok = False
            continue
        max_res = max(max_res, eq.residual)
    eq0 = averaged_equilibrium(mel, crit.mu0)
    details["max_path_residual"] = max_res
    details["eta_at_mu0"] = eq0.eta
    details["omega0"] = eq0.omega
    details["zeta_at_mu0"] = eq0.zeta
    hopf_ok = (complex_ok and max_res <= 1e-10 and abs(eq0.eta) <= 1e-9
               and eq0.zeta > 0 and abs(eq0.zeta - eq0.omega) <= 1e-8 * max(1.0, eq0.omega))

    details["alpha_d"] = crit.alpha_d
    transversality_ok = abs(crit.alpha_d) > 1e-10

    l11, l12 = lyapunov.l11, lyapunov.l12
    details["l11"] = l11
    details["l12"] = l12
    j_star = 1 if abs(l11) > 1e-10 else (2 if abs(l12) > 1e-10 else None)
    details["j_star"] = j_star
    nondegeneracy_ok = j_star is not None

    return HypothesisReport(hopf_ok=hopf_ok, transversality_ok=transversality_ok,
                            nondegeneracy_ok=nondegeneracy_ok, details=details)


# ---------------------------------------------------------------------------
# first Lyapunov quantity via the exact pipeline
# ---------------------------------------------------------------------------

@dataclass
class Ell1Result:
    ell1: float
    l11: float
    l12: float
    mu1: float
    omega0: float
    u1: np.ndarray          # first-order fixed point slice at mu0 = 0
    M0: np.ndarray
    M1: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    zeta2: float


def first_lyapunov_quantity(sys: HopfZeroSystem) -> Ell1Result:
    """ell_1 of the Hopf-Zero system, depending only on (P, Q, R).

    Computed by running the degree-preserving family (0, 0, mu z + beta eps)
    through exact second-order averaging and reading the eps^2 slice of the
    map Lyapunov coefficient at the bifurcation curve:
    ell_1^eps = (pi eps^2 / 16 Omega^2) ell_1 + O(eps^3).
    """
    fam = PerturbationFamily.simple(sys.beta)
    S = sys.quadratic_sum
    Omega = float(sys.omega)
    if Omega <= 0:
        raise AveragingError("Omega <= 0: no Hopf pair, ell1 undefined")
    std = to_standard_form(sys, fam)
    mel = melnikov_pair(std)

    gamma_scale = math.sqrt(abs(float(S)))
    r0 = 2.0 / gamma_scale
    omega0 = math.pi * math.sqrt(Omega) * r0

    # derivative tensors at (r, w, mu) = (r0, 0, 0), read off the compiled f1,
    # f2 evaluated on degree-3 jets in (r, w), and in (r, mu), (w, mu) for the
    # mixed mu slices
    from .flow import Jet2, MapJet, _as_jet      # flow imports this module

    def jet(evaluators, r, w, mu) -> MapJet:
        return MapJet.from_jets(*(_as_jet(f(r, w, mu)) for f in evaluators))

    R, W, MU = Jet2.variable(0, r0), Jet2.variable(1, 0.0), Jet2.variable(1, 0.0)
    f1_rw = jet(mel._f1_eval, R, W, 0.0)
    f2_rw = jet(mel._f2_eval, R, W, 0.0)
    f1_rmu = jet(mel._f1_eval, R, 0.0, MU)
    f1_wmu = jet(mel._f1_eval, r0, Jet2.variable(0, 0.0), MU)
    f2_0, Df1, Df2 = f2_rw.value, f1_rw.A, f2_rw.A
    DmuDf1 = np.stack([f1_rmu.B[:, 0, 1], f1_wmu.B[:, 0, 1]], axis=1)
    D2f1, D2f2, D3f2 = f1_rw.B, f2_rw.B, f2_rw.C

    # fixed point slice and eigen data
    u1 = -np.linalg.solve(Df1, f2_0)
    lam1 = 1j * omega0
    v = np.array([Df1[0, 1], lam1 - Df1[0, 0]])
    l = np.array([Df1[1, 0], lam1 - Df1[0, 0]])
    lv = l @ v

    C2_base = np.einsum('ijk,k->ij', D2f1, u1) + Df2
    lam2a = (l @ (DmuDf1 @ v)) / lv
    lam2b = (l @ (C2_base @ v)) / lv
    # |lambda|^2 = 1 at eps^2:  2 Re lam2 + omega0^2 = 0
    mu1 = -(2.0 * lam2b.real + omega0 ** 2) / (2.0 * lam2a.real)
    lam2 = lam2a * mu1 + lam2b
    C2 = mu1 * DmuDf1 + C2_base

    # M(eps) from the eigenvector with first component i
    n1 = -1j * (Df1[0, 0] - lam1)
    n2 = -1j * (C2[0, 0] - lam2)
    d1, d2 = Df1[0, 1], C2[0, 1]
    v2_0 = n1 / d1
    v2_1 = (n2 - v2_0 * d2) / d1
    M0 = np.array([[1.0, 0.0], [v2_0.imag, v2_0.real]])
    M1 = np.array([[0.0, 0.0], [v2_1.imag, v2_1.real]])
    M0inv = np.linalg.inv(M0)
    Minv1 = -M0inv @ M1 @ M0inv

    # Pi tensors at xi(eps): B = eps B1 + eps^2 B2, C = eps^2 C2t.
    # f1 has degree <= 2 in (r, w) and its Hessian is mu-free, so the eps^2
    # slice of the Hessian along the branch is D2f2 alone.
    B1 = D2f1
    B2 = D2f2
    C2t = D3f2

    def bil(T, a, b):
        return np.einsum('ijk,j,k->i', T, a, b)

    def tril(T, a, b, c):
        return np.einsum('ijkl,j,k,l->i', T, a, b, c)

    p = np.array([1.0, -1.0j]) / math.sqrt(2.0)
    pb = p.conjugate()

    def inner(u_, v_):
        return np.vdot(u_, v_)

    def g_series(a, b):
        g1 = inner(p, M0inv @ bil(B1, M0 @ a, M0 @ b))
        g2 = inner(p, Minv1 @ bil(B1, M0 @ a, M0 @ b)
                   + M0inv @ (bil(B1, M1 @ a, M0 @ b) + bil(B1, M0 @ a, M1 @ b))
                   + M0inv @ bil(B2, M0 @ a, M0 @ b))
        return g1, g2

    g20_1, g20_2 = g_series(p, p)
    g11_1, g11_2 = g_series(p, pb)
    g02_1, g02_2 = g_series(pb, pb)
    g21_2 = inner(p, M0inv @ tril(C2t, M0 @ p, M0 @ p, M0 @ pb))

    # Lyapunov formula expanded in eps (lam = 1 + eps lam1 + eps^2 lam2):
    # Fac = (1 - 2 lam) lam^{-2} / (2 (1 - lam)) = Fm1/eps + F0 + O(eps),
    # with N = (1 - 2 lam) lam^{-2} / 2 = N0 + eps N1 and 1 - lam = -eps lam1 - ...
    a0, a1c = -1.0, -2.0 * lam1            # (1 - 2 lam) series
    b0, b1 = 1.0, -2.0 * lam1              # lam^{-2} series
    N0 = 0.5 * a0 * b0
    N1 = 0.5 * (a0 * b1 + a1c * b0)
    Fm1 = -N0 / lam1
    F0 = -(N1 / lam1 - N0 * lam2 / lam1 ** 2)

    q2 = g20_1 * g11_1
    q3 = g20_1 * g11_2 + g20_2 * g11_1

    term1_e2 = 0.5 * g21_2.real
    term2_e1 = -(Fm1 * q2).real
    term2_e2 = -(Fm1 * q3 + F0 * q2).real
    term3_e2 = -0.5 * abs(g11_1) ** 2
    term4_e2 = -0.25 * abs(g02_1) ** 2

    l11 = term2_e1
    l12 = term1_e2 + term2_e2 + term3_e2 + term4_e2
    ell1 = 16.0 * Omega ** 2 * l12 / math.pi

    # Jordan-form expansion data: A1/A2 from lam series (a = Re lam, b = Im lam)
    A1 = np.array([[lam1.real, -lam1.imag], [lam1.imag, lam1.real]])
    A2 = np.array([[lam2.real, -lam2.imag], [lam2.imag, lam2.real]])
    return Ell1Result(ell1=ell1, l11=l11, l12=l12, mu1=mu1, omega0=omega0,
                      u1=u1, M0=M0, M1=M1, A1=A1, A2=A2, zeta2=lam2.imag)


# ---------------------------------------------------------------------------
# printed simple-case branch constants (verified closed forms)
# ---------------------------------------------------------------------------

@dataclass
class BranchConstants:
    mu1: Fraction
    xi2: Fraction
    xi1_const: Fraction
    xi1_slope: float
    m21_1: float
    m22_1: float

    def xi1(self, mu: float) -> float:
        return float(self.xi1_const) + self.xi1_slope * mu


def printed_branch_constants(sys: HopfZeroSystem) -> BranchConstants:
    """Closed forms for xi1(mu), xi2, mu1, m21^1, m22^1 of the simple family.

    mu1 and xi2 involve only even powers of the radius scale and are exact
    rationals; xi1's slope and the M1 entries carry odd powers and are floats.
    """
    P, Q, R = sys.jP.get, sys.jQ.get, sys.jR.get
    beta = sys.beta
    Om = sys.omega
    G2 = abs(sys.quadratic_sum)     # Gamma^2, exact
    gamma = math.sqrt(float(G2))

    core = (-R(0, 2, 0) * (P(0, 1, 1) + Q(1, 0, 1))
            + P(0, 2, 0) * (P(1, 1, 0) + Q(0, 2, 0))
            - Q(2, 0, 0) * (P(2, 0, 0) + Q(1, 1, 0))
            - 2 * P(1, 0, 1) * R(1, 1, 0)
            + P(1, 2, 0) + P(1, 1, 0) * P(2, 0, 0) + P(3, 0, 0)
            + Q(0, 3, 0) - Q(0, 2, 0) * Q(1, 1, 0) + Q(2, 1, 0))
    core2 = core + R(0, 2, 0) * (P(0, 1, 1) + Q(1, 0, 1))   # without the -R020 term

    mu1 = -(beta ** 3 * G2 ** 3 * R(0, 0, 2) * (P(0, 1, 1) + Q(1, 0, 1))
            + beta ** 2 * G2 ** 2 * (Om * (P(0, 1, 1) + Q(1, 0, 1))
                                     - 2 * R(0, 0, 2) * core)
            + 2 * beta * G2 * Om * (R(0, 2, 0) * (P(0, 1, 1) + Q(1, 0, 1))
                                    - Q(2, 0, 0) * (P(2, 0, 0) + Q(1, 1, 0) + 2 * R(1, 0, 1))
                                    + P(0, 2, 0) * (P(1, 1, 0) + Q(0, 2, 0))
                                    - R(1, 1, 0) * (R(0, 0, 2) - 2 * P(1, 0, 1))
                                    + 2 * (P(0, 2, 0) + P(2, 0, 0)) * R(0, 1, 1)
                                    + P(1, 2, 0) + P(1, 1, 0) * P(2, 0, 0) + P(3, 0, 0)
                                    - Q(0, 2, 0) * (Q(1, 1, 0) + 2 * R(1, 0, 1))
                                    + Q(0, 3, 0) + Q(2, 1, 0)
                                    + 2 * R(0, 2, 1) + 2 * R(2, 0, 1))
            - 2 * Om ** 2 * R(1, 1, 0)) / (4 * beta * G2 ** 2 * Om)

    xi2 = (G2 * beta * ((P(0, 1, 1) + Q(1, 0, 1)) * (2 * R(0, 2, 0) + beta * G2)
                        - 2 * core2)
           - 6 * Om * R(1, 1, 0)) / (4 * G2 * Om)

    xi1_const = (-2 * beta * (4 * Om * (2 * (P(1, 1, 0) + Q(0, 2, 0)) + Q(2, 0, 0)))
                 ) / (12 * beta * G2 * Om)          # Gamma cancels: Gamma/Gamma^3 = 1/G2
    xi1_slope = float(3 * beta ** 2 * G2 ** 2 * (P(0, 1, 1) + Q(1, 0, 1))
                      - 6 * beta * G2 * core - 6 * Om * R(1, 1, 0)) \
        / (12 * beta * float(G2) * gamma * float(Om))

    m21 = -float(beta ** 2 * G2 ** 2 * P(0, 1, 1) + 2 * beta * G2 * P(0, 2, 0) * P(1, 1, 0)
                 + 2 * beta * G2 * P(1, 2, 0) + 2 * beta * G2 * P(1, 1, 0) * P(2, 0, 0)
                 + 2 * beta * G2 * P(3, 0, 0) + 2 * beta * G2 * P(0, 2, 0) * Q(0, 2, 0)
                 - 2 * beta * G2 * P(2, 0, 0) * Q(2, 0, 0)
                 - 2 * beta * G2 * P(0, 1, 1) * R(0, 2, 0)
                 - 4 * beta * G2 * P(1, 0, 1) * R(1, 1, 0)
                 + beta ** 2 * G2 ** 2 * Q(1, 0, 1) + 2 * beta * G2 * Q(0, 3, 0)
                 - 2 * beta * G2 * Q(0, 2, 0) * Q(1, 1, 0)
                 - 2 * beta * G2 * Q(1, 1, 0) * Q(2, 0, 0)
                 + 2 * beta * G2 * Q(2, 1, 0)
                 - 2 * beta * G2 * Q(1, 0, 1) * R(0, 2, 0)
                 + 6 * Om * R(1, 1, 0)) / (4 * gamma * float(Om))
    m22 = (2 * beta * gamma / (3 * math.sqrt(float(Om)))) * \
        float(-2 * P(1, 1, 0) - 2 * Q(0, 2, 0) - Q(2, 0, 0) + 3 * R(0, 1, 1))

    return BranchConstants(mu1=mu1, xi2=xi2, xi1_const=xi1_const,
                           xi1_slope=xi1_slope, m21_1=m21, m22_1=m22)


# ---------------------------------------------------------------------------
# Neimark-Sacker branch continuation on the numeric return map
# ---------------------------------------------------------------------------

class UnitCircleCrossingNotFound(AveragingError):
    pass


@dataclass
class BranchPoint:
    """One Neimark-Sacker point: the unit-circle crossing at one eps."""
    eps: float
    mu: float                  # on the unit-circle curve
    xi: np.ndarray             # fixed point of the return map
    eigenvalue: complex        # lambda(mu(eps), eps), |lambda| = 1
    theta: float               # arg lambda
    jet: "MapJet"              # value and Jacobian of the map at xi (jet1)


@dataclass
class NSBranch:
    points: Tuple[BranchPoint, ...]      # one per rung of BRANCH_LADDER
    mu0: float
    mu1_numeric: float
    xi_slices_closed: Optional["BranchConstants"]

    def to_dict(self) -> dict:
        out = {
            "mu0": self.mu0,
            "mu1_numeric": self.mu1_numeric,
            "ladder": [p.eps for p in self.points],
            "points": [{"eps": p.eps, "mu": p.mu,
                        "xi": [float(v) for v in p.xi],
                        "lambda": [p.eigenvalue.real, p.eigenvalue.imag],
                        "theta": p.theta} for p in self.points],
        }
        if self.xi_slices_closed is not None:
            mu1 = self.xi_slices_closed.mu1
            out["mu1_closed"] = float(mu1)
            out["mu1_closed_exact"] = str(mu1)
        return out


def _complex_eigenvalue(A: np.ndarray) -> complex:
    m = 0.5 * (A[0, 0] + A[1, 1])
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    disc = det - m * m
    if disc <= 0:
        raise ComplexPairLost(f"return-map eigenvalues real (disc={disc})")
    return complex(m, math.sqrt(disc))


def _newton_fixed_point(tmap, mel: MelnikovPair, mu: float, eps: float,
                        seed: Optional[np.ndarray] = None,
                        tol: float = 1e-10, max_iter: int = 25):
    """Fixed point xi of the return map by Newton on Pi(x) - x, seeded at the
    averaged equilibrium; returns (xi, Pi and D Pi at xi), so callers that
    need D Pi(xi) reuse the last iteration's first-order transport (jet1)."""
    if seed is None:
        eq = averaged_equilibrium(mel, mu)
        x = np.array([eq.r, eq.w])
    else:
        x = np.asarray(seed, dtype=float).copy()
    if eps == 0.0:
        return x, tmap.jet1(x, mu, eps)
    for _ in range(max_iter):
        jet = tmap.jet1(x, mu, eps)
        res = jet.value - x
        if float(np.max(np.abs(res))) <= tol:
            return x, jet
        step = np.linalg.solve(jet.A - np.eye(2), -res)
        x = x + step
        if not np.all(np.isfinite(x)):
            raise NewtonDiverged("fixed-point Newton produced non-finite iterate")
    if float(np.max(np.abs(res))) <= 10 * tol:
        return x, tmap.jet1(x, mu, eps)
    raise NewtonDiverged(f"fixed-point Newton stalled, residual {np.max(np.abs(res))}")


def unit_circle_point(tmap, mel, mu0: float, eps: float,
                      mu_guess: Optional[float] = None,
                      tol: float = 1e-12, max_iter: int = 40) -> BranchPoint:
    """Solve det(D Pi(xi(mu, eps))) = 1 for mu by the secant method.

    For a complex pair, |lambda|^2 = det, so this is the unit-circle
    condition; the pair property is verified at the solution.  The secant
    starts at mu0 (or `mu_guess`); the returned point carries Pi and D Pi at
    xi, so nothing downstream solves the same point again.
    """
    last_xi = [None]

    def h(mu):
        xi, jet = _newton_fixed_point(tmap, mel, mu, eps, seed=last_xi[0])
        last_xi[0] = xi
        A = jet.A
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        return det - 1.0, xi, jet

    mu_a = mu0 if mu_guess is None else mu_guess
    mu_b = mu_a + 0.5 * eps if mu_guess is None else mu_a + 0.1 * eps
    ha, _, _ = h(mu_a)
    hb, xi_b, jet_b = h(mu_b)
    for _ in range(max_iter):
        if hb == ha:
            break
        mu_new = mu_b - hb * (mu_b - mu_a) / (hb - ha)
        mu_a, ha = mu_b, hb
        mu_b = mu_new
        hb, xi_b, jet_b = h(mu_b)
        if abs(hb) <= tol:
            lam = _complex_eigenvalue(jet_b.A)
            return BranchPoint(eps=eps, mu=mu_b, xi=xi_b, eigenvalue=lam,
                               theta=math.atan2(lam.imag, lam.real), jet=jet_b)
    raise UnitCircleCrossingNotFound(
        f"secant on |lambda|=1 did not converge at eps={eps} (residual {hb})")


def _ladder_points(tmap, mel, mu0: float,
                   eps_ladder: Sequence[float]) -> List[BranchPoint]:
    """unit_circle_point on each rung of a factor-2 ladder; the secant of a
    rung starts from the previous rung's mu - mu0 halved."""
    points = []
    mu_guess = None
    for eps in eps_ladder:
        points.append(unit_circle_point(tmap, mel, mu0, eps, mu_guess))
        mu_guess = mu0 + (points[-1].mu - mu0) / 2.0
    return points


def _ladder_fit(values: Sequence, ladder: Sequence[float], lowest: int) -> list:
    """The coefficients c_k of v(e) = sum_k c_k e^(lowest + k), one per rung,
    interpolated through the values at the ladder's eps; componentwise on
    arrays."""
    n = len(values)
    e = np.asarray(ladder, dtype=float)
    vals = np.stack([np.asarray(v, dtype=float) for v in values])
    shape = vals.shape[1:]
    V = np.vander(e, n, increasing=True) * (e ** lowest)[:, None]
    coeffs = np.linalg.solve(V, vals.reshape(n, -1))
    return [c.reshape(shape) if shape else float(c[0]) for c in coeffs]


def xi_slice(tmap, mel: MelnikovPair, mu: float) -> np.ndarray:
    """First-order slice xi_1(mu), xi_2(mu) of the fixed-point branch, fitted
    to (xi(mu, eps) - x_mu)/eps on the three smallest rungs of BRANCH_LADDER
    (fixed points at this mu, not on the Neimark-Sacker curve)."""
    eq = averaged_equilibrium(mel, mu)
    x_mu = np.array([eq.r, eq.w])
    ladder = BRANCH_LADDER[-3:]
    vals = [(_newton_fixed_point(tmap, mel, mu, e)[0] - x_mu) / e for e in ladder]
    return _ladder_fit(vals, ladder, 0)[0]


def branch_continuation(mel: MelnikovPair, tmap, mu0: float) -> NSBranch:
    """Solve the Neimark-Sacker curve mu(eps) once, on every rung of
    BRANCH_LADDER; mu1 is fitted to mu(eps)/eps on the middle three rungs
    and, in the degree-preserving simple case, compared with the printed
    closed form."""
    points = tuple(_ladder_points(tmap, mel, mu0, BRANCH_LADDER))
    middle = points[1:4]
    mu1_numeric = _ladder_fit([(p.mu - mu0) / p.eps for p in middle],
                              [p.eps for p in middle], 0)[0]
    xi_closed = None
    if mel.std.family.simple_case:
        xi_closed = printed_branch_constants(mel.std.system)
    return NSBranch(points=points, mu0=mu0, mu1_numeric=mu1_numeric,
                    xi_slices_closed=xi_closed)


# ---------------------------------------------------------------------------
# Jordan normalization of the return map at the bifurcation point
# ---------------------------------------------------------------------------

@dataclass
class NormalizedMap:
    point: BranchPoint
    M: np.ndarray
    rotation_residual: float


def normalized_map(point: BranchPoint) -> NormalizedMap:
    """Eigenvector-based change of basis M at a Neimark-Sacker point (first
    component of the complex eigenvector scaled to i, reproducing the
    M0 + eps M1 normalization), read off the point's own D Pi: no transport."""
    A, lam = point.jet.A, point.eigenvalue       # lam is an eigenvalue of this A
    v2 = -1j * (A[0, 0] - lam) / A[0, 1]
    M = np.array([[1.0, 0.0], [v2.imag, v2.real]])
    if abs(float(np.linalg.det(M))) < 1e-12:
        raise AveragingError(f"normalizing matrix singular at eps={point.eps}")
    DH = np.linalg.inv(M) @ A @ M
    rot_res = max(abs(DH[0, 0] - DH[1, 1]), abs(DH[0, 1] + DH[1, 0]))
    return NormalizedMap(point=point, M=M, rotation_residual=float(rot_res))


def lyapunov_coefficient_map(tmap, nm: NormalizedMap) -> float:
    """The map Lyapunov coefficient, evaluated verbatim with p = (1,-i)/sqrt2
    and <u, v> = conj(u)^T v on the degree-2 and degree-3 tensors of the
    map's jet3 at the point's xi, in the basis M; requires
    e^{ik theta} != 1 for k = 1..4."""
    point = nm.point
    theta = point.theta
    for k in range(1, 5):
        if abs(cmath.exp(1j * k * theta) - 1.0) < STRONG_RESONANCE_TOL:
            raise StrongResonance(f"e^(i {k} theta) = 1 within {STRONG_RESONANCE_TOL}")
    jet = tmap.jet3(point.xi, point.mu, point.eps)
    M = nm.M
    M_inv = np.linalg.inv(M)
    B = np.einsum('ia,ajk,jb,kc->ibc', M_inv, jet.B, M, M)
    C = np.einsum('ia,ajkl,jb,kc,ld->ibcd', M_inv, jet.C, M, M, M)
    p = np.array([1.0, -1.0j]) / math.sqrt(2.0)
    pb = p.conjugate()

    def bil(a, b):
        return np.einsum('ijk,j,k->i', B, a, b)

    def tril(a, b, c):
        return np.einsum('ijkl,j,k,l->i', C, a, b, c)

    g20 = np.vdot(p, bil(p, p))
    g11 = np.vdot(p, bil(p, pb))
    g02 = np.vdot(p, bil(pb, pb))
    g21 = np.vdot(p, tril(p, p, pb))
    e_it = cmath.exp(1j * theta)
    term1 = (cmath.exp(-1j * theta) * g21 / 2.0).real
    term2 = -(((1.0 - 2.0 * e_it) * cmath.exp(-2j * theta)
               / (2.0 * (1.0 - e_it))) * g20 * g11).real
    term3 = -0.5 * abs(g11) ** 2
    term4 = -0.25 * abs(g02) ** 2
    return term1 + term2 + term3 + term4


@dataclass
class LyapunovSlices:
    l11: float
    l12: float
    values: Tuple[Tuple[float, float], ...]     # (eps, ell1_eps)


def lyapunov_slices(tmap, branch: NSBranch) -> LyapunovSlices:
    """eps- and eps^2-slices of ell_1^eps, fitted to
    ell_1^eps = e l11 + e^2 l12 + e^3 l13 on the branch's three largest
    rungs: one jet3 per rung."""
    vals = tuple((p.eps, lyapunov_coefficient_map(tmap, normalized_map(p)))
                 for p in branch.points[:3])
    l11, l12, _ = _ladder_fit([v for _, v in vals], [e for e, _ in vals], 1)
    return LyapunovSlices(l11=l11, l12=l12, values=vals)


@dataclass
class JordanExpansion:
    omega0: float
    zeta2: float
    A1: np.ndarray
    A2: np.ndarray
    m21_1: float
    m22_1: float
    rotation_residual: float


def jordan_expansion(branch: NSBranch) -> JordanExpansion:
    """eps-expansion Id + eps A1 + eps^2 A2 of the normalized linearization,
    on the branch's three smallest rungs.

    On the solved curve |lambda| = 1, the normalized DH is the rotation by
    theta_eps, so A1/A2 are recovered from the theta_eps ladder:
    theta = omega0 eps + zeta2 eps^2 + O(eps^3), A1 = [[0, -omega0],
    [omega0, 0]], A2 = [[-omega0^2/2, -zeta2], [zeta2, -omega0^2/2]]; the
    eta slices vanish identically on the curve (up to the unit-circle solve
    tolerance). M1 entries come from the same ladder.
    """
    nms = [normalized_map(p) for p in branch.points[-3:]]
    ladder = [nm.point.eps for nm in nms]
    omega0, zeta2, _ = _ladder_fit([nm.point.theta / nm.point.eps for nm in nms], ladder, 0)
    # M[1,1] = m22_0 + eps m22_1 + ..., with M0 = [[1,0],[0, m22_0]]
    _, m22_1, _ = _ladder_fit([nm.M[1, 1] for nm in nms], ladder, 0)
    m21_1 = _ladder_fit([nm.M[1, 0] / nm.point.eps for nm in nms], ladder, 0)[0]
    rot_res = max(nm.rotation_residual for nm in nms)
    A1 = np.array([[0.0, -omega0], [omega0, 0.0]])
    A2 = np.array([[-0.5 * omega0 ** 2, -zeta2], [zeta2, -0.5 * omega0 ** 2]])
    return JordanExpansion(omega0=omega0, zeta2=zeta2, A1=A1, A2=A2,
                           m21_1=m21_1, m22_1=m22_1, rotation_residual=rot_res)
