"""Hopf-Zero normal position and the explicit torus-bifurcation criteria.

Quantities handled here are exact rationals wherever the inputs are.  The
perturbation criteria are decided on exact polynomials in mu: the roots of
eta, correctly rounded, and the sign of Gamma at mu_0 (`univariate`).  A
family's ingredients become floats in `perturbation_functions`, through
`compile_terms`: the reported values of Gamma, and Gamma and w_mu for the
averaged equilibrium, whose closed form they are.  A `HopfZeroSystem` is
its three polynomials: Omega, S, d and the first Lyapunov quantity ell_1
are read off their raw partials at the origin (`fieldexpr.partial`), each
once per system and kept.  ell_1 is a closed form with integer
coefficients in the quadratic and cubic partials
(`HopfZeroSystem.ell1_exact`), exact like Omega.  The closed formula
transcribed from the source text is evaluated and reported next to it, but
it is inconsistent with the worked example and with the dynamics (see
`_ell1_closed_form`); the repaired form is the one used.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

from .fieldexpr import Poly, as_poly, compile_terms, partial
from .univariate import Dense, derivative, roots, sign_at, simple_and_multiple, value


class CriteriaError(ValueError):
    pass


class FloatRangeExceeded(CriteriaError):
    """A quantity overflows a float: an exact coefficient too large to
    convert, or a float product past the largest double."""


class ConstantTermPresent(CriteriaError):
    def __init__(self, component: str, coefficient):
        super().__init__(f"{component} has constant term {coefficient}")
        self.component = component
        self.coefficient = coefficient


class LinearTermPresent(CriteriaError):
    def __init__(self, component: str, variable: str, coefficient):
        super().__init__(f"{component} has linear term {coefficient}*{variable}")
        self.component = component
        self.variable = variable
        self.coefficient = coefficient


class DegenerateSum(CriteriaError):
    pass


class InvalidPerturbation(CriteriaError):
    pass


class NoRootInInterval(CriteriaError):
    pass


class DegenerateTransversality(CriteriaError):
    pass


class GammaNonNegative(CriteriaError):
    pass


class AveragingError(ValueError):
    """The averaged system has no point where one is read: the rescaled
    field is not of the documented form, or no averaged equilibrium exists."""


# ---------------------------------------------------------------------------
# validated system and perturbation family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HopfZeroSystem:
    """Unperturbed field (P, Q, R) on top of the linear part (-y, x, 0).

    The invariants are read off the polynomials' raw partials at the origin
    (`partial`), each on first use and then kept: the system is frozen and
    nothing changes a `Poly` in place, so a kept value never goes stale."""
    P: Poly
    Q: Poly
    R: Poly

    @cached_property
    def quadratic_sum(self) -> Fraction:
        """R^(2,0,0) + R^(0,2,0)."""
        return partial(self.R, 2, 0, 0) + partial(self.R, 0, 2, 0)

    @property
    def beta(self) -> int:
        """The sign of eps in the simple family (0, 0, mu*z + beta*eps):
        opposite to R^(2,0,0) + R^(0,2,0)."""
        S = self.quadratic_sum
        if S == 0:
            raise DegenerateSum("R^(2,0,0) + R^(0,2,0) = 0; beta undefined")
        return -1 if S > 0 else 1

    @cached_property
    def divergence_pair(self) -> Fraction:
        """P^(1,0,1) + Q^(0,1,1)."""
        return partial(self.P, 1, 0, 1) + partial(self.Q, 0, 1, 1)

    @cached_property
    def omega(self) -> Fraction:
        return -self.divergence_pair * self.quadratic_sum

    @cached_property
    def scaled_entries(self) -> tuple:
        """(s, P, Q, R): s the lcm of the denominators of the quadratic and
        cubic partials, and (i, j, k) -> the partial times s^(i + j + k - 1),
        an int (0 where the component has none).

        Both ell_1 forms are homogeneous of weight 6 when the entry (i, j, k)
        has weight i + j + k - 1 (the rescaling eps -> s eps), so they are
        evaluated on these integers and the sum divided by s^6 once."""
        entries = [[(m[:3], partial(p, *m[:3])) for m in p.terms if 2 <= sum(m[:3]) <= 3]
                   for p in (self.P, self.Q, self.R)]
        s = math.lcm(*(v.denominator for jet in entries for _, v in jet))
        tables = [{idx: v.numerator * (s ** (sum(idx) - 1) // v.denominator)
                   for idx, v in jet} for jet in entries]
        return (s, *((lambda i, j, k, t=t: t.get((i, j, k), 0)) for t in tables))

    @cached_property
    def ell1_exact(self) -> Fraction:
        """ell_1 of the system, exactly: the repaired closed form
        `_ell1_repaired`."""
        return _on_scaled(_ell1_repaired, self.scaled_entries)


def validate_hopf_zero(P, Q, R) -> HopfZeroSystem:
    """Check that P, Q, R are polynomial in (x, y, z) with no constant or
    linear terms."""
    polys = [as_poly(e) for e in (P, Q, R)]
    for name, p in zip("PQR", polys):
        bad = [v for v in p.free_variables() if v in ("mu", "eps")]
        if bad:
            raise CriteriaError(f"{name} must not depend on parameters (found {bad[0]})")
        for mono, coeff in p.terms.items():
            total = mono[0] + mono[1] + mono[2]
            if total == 0:
                raise ConstantTermPresent(name, coeff)
            if total == 1:
                var = ("x", "y", "z")[mono.index(1)]
                raise LinearTermPresent(name, var, coeff)
    return HopfZeroSystem(*polys)


@dataclass(frozen=True)
class PerturbationFamily:
    """(U, V, W) in (x, y, z, mu, eps), whose criteria ingredients are the
    polynomials in mu (`_ingredients`)

        sigma(mu) = U_1^(1,0,0)(mu) + V_1^(0,1,0)(mu)
        w1z(mu)   = W_1^(0,0,1)(mu)
        w20(mu)   = W_2(0,0,0; mu)

    where slice i (1-based) is the coefficient of eps^(i-1) in a component,
    so the perturbed field eps*U contributes U_i at order eps^i.

    A family is frozen data: no field can be rebound, and nothing changes
    the terms of a `Poly` in place, so a family never changes after it is
    built.
    """
    U: Poly
    V: Poly
    W: Poly
    simple_case: bool = False

    def __post_init__(self):
        for name, p in zip("UVW", (self.U, self.V, self.W)):
            origin = _in_mu(p, (0, 0, 0), 0)
            if origin:
                raise InvalidPerturbation(
                    f"{name}_1(0,0,0; mu) = {origin!r} must vanish identically")

    @classmethod
    def from_expressions(cls, U, V, W) -> "PerturbationFamily":
        return cls(as_poly(U), as_poly(V), as_poly(W))

    @classmethod
    def simple(cls, beta: int) -> "PerturbationFamily":
        """The degree-preserving family (U, V, W) = (0, 0, mu*z + beta*eps)."""
        W = Poly({(0, 0, 1, 1, 0): Fraction(1), (0, 0, 0, 0, 1): Fraction(beta)})
        return cls(Poly(), Poly(), W, simple_case=True)


def _ingredients(fam: PerturbationFamily) -> Tuple[Poly, Poly, Poly]:
    """sigma, w1z and w20 of the family, exact polynomials in mu."""
    return (_in_mu(fam.U, (1, 0, 0), 0) + _in_mu(fam.V, (0, 1, 0), 0),
            _in_mu(fam.W, (0, 0, 1), 0), _in_mu(fam.W, (0, 0, 0), 1))


def _in_mu(p: Poly, xyz: Tuple[int, int, int], eps_power: int) -> Poly:
    """The coefficient of x^i y^j z^k eps^eps_power in p, a polynomial in mu."""
    return Poly({(0, 0, 0, m[3], 0): c for m, c in p.terms.items()
                 if m[:3] == xyz and m[4] == eps_power})


def _compiled_in_mu(p: Poly) -> Callable[[float], float]:
    """p, a polynomial in mu, compiled on float coefficients; a coefficient
    past the float range is a FloatRangeExceeded error."""
    with float_range():
        terms = {(m[3],): float(c) for m, c in p.terms.items()}
    return compile_terms(terms, ("mu",))


def eps_graded_slices(sys: HopfZeroSystem, fam: PerturbationFamily
                      ) -> Tuple[Tuple[Poly, Poly, Poly], ...]:
    """Exact eps-power slices of the rescaled field (x,y,z) -> eps (x,y,z).

    Slice 0 is the linear part (-y, x, 0); slice m >= 1 collects the
    homogeneous contributions of total grade m (polynomials in x, y, z, mu).
    The return map's field folds them into floats, and the averaging reduces
    them to the standard form.
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


# ---------------------------------------------------------------------------
# base criteria: Omega, beta, Gamma scale, ell_1
# ---------------------------------------------------------------------------

@dataclass
class BaseCriteria:
    omega: Fraction
    beta: int
    gamma_scale: float
    quadratic_sum: Fraction
    nondegenerate: bool
    ell1_exact: Optional[Fraction]
    ell1: Optional[float]
    l12: Optional[float]                    # eps^2 slice: pi ell_1 / (16 Omega^2)
    ell1_transcribed: Fraction
    ell1_discrepancy: Optional[float]
    notes: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "omega": float(self.omega),
            "omega_exact": str(self.omega),
            "beta": self.beta,
            "gamma_scale": self.gamma_scale,
            "quadratic_sum": str(self.quadratic_sum),
            "ell1": self.ell1,
            "ell1_exact": None if self.ell1_exact is None else str(self.ell1_exact),
            "ell1_transcribed": float(self.ell1_transcribed),
            "ell1_discrepancy": self.ell1_discrepancy,
            "notes": list(self.notes),
        }


def evaluate_base_criteria(sys: HopfZeroSystem) -> BaseCriteria:
    """Omega, beta, the Gamma scale and ell_1, with the leading slice of the
    map Lyapunov coefficient it gives, l12 = pi ell_1 / (16 Omega^2): the eps
    slice is 0 for every system.  A nonzero ell_1 whose float or l12 is 0.0,
    with no sign, is a FloatRangeExceeded."""
    beta = sys.beta
    S = sys.quadratic_sum
    omega = sys.omega
    gamma_scale = math.sqrt(abs(S))
    transcribed = _on_scaled(_ell1_closed_form, sys.scaled_entries)

    notes: List[str] = []
    exact = ell1 = l12 = discrepancy = None
    if omega > 0:
        exact = sys.ell1_exact
        ell1 = float(exact)
        l12 = math.pi * float(exact / (16 * omega ** 2))
        if exact != 0 and 0.0 in (ell1, l12):
            raise FloatRangeExceeded(f"nonzero ell1 rounds to ell1 = {ell1!r}, l12 = {l12!r}")
        discrepancy = float(abs(exact - transcribed))
        if exact != transcribed:
            notes.append("transcribed closed-form ell1 disagrees with the "
                         "repaired closed form; the repaired value is used")
    else:
        notes.append("NondegeneracyFailed: Omega <= 0, ell1 not evaluated")

    return BaseCriteria(
        omega=omega, beta=beta, gamma_scale=gamma_scale, quadratic_sum=S,
        nondegenerate=omega > 0, ell1_exact=exact, ell1=ell1, l12=l12,
        ell1_transcribed=transcribed, ell1_discrepancy=discrepancy, notes=tuple(notes),
    )


def _on_scaled(form: Callable, scaled: tuple) -> Fraction:
    s, P, Q, R = scaled
    return Fraction(form(P, Q, R), s ** 6)


def _ell1_repaired(P: Callable, Q: Callable, R: Callable):
    """ell_1 of the jet entries P(i, j, k), Q(i, j, k), R(i, j, k),
    quadratic and cubic ones only, over any commutative ring.

    On the transcription's 221 monomials, the integer coefficients fitted
    exactly to the eps-series of the averaged map (`fit_ell1` in
    tests/oracles.py): 218 are nonzero, and 82 differ from the
    transcription's.  Written in S = R(2, 0, 0) + R(0, 2, 0) and
    D = P(1, 0, 1) + Q(0, 1, 1), where Omega = -D S, the polynomial has 49
    terms and the factor S^2; the return statement nests them as
    `ell1_nested_source` there generates it.
    """
    S = R(2, 0, 0) + R(0, 2, 0)
    D = P(1, 0, 1) + Q(0, 1, 1)
    return S * S * (
        R(0, 0, 2) * (
            D * (
                2 * P(2, 0, 0) * (P(1, 1, 0) - Q(2, 0, 0) + 2 * R(0, 1, 1))
                + 2 * P(0, 2, 0) * (P(1, 1, 0) + Q(0, 2, 0) + 2 * R(0, 1, 1))
                - 2 * R(1, 1, 0) * (D - 2 * P(1, 0, 1) + R(0, 0, 2))
                + S * (P(0, 1, 1) + Q(1, 0, 1))
                - 2 * Q(2, 0, 0) * (Q(1, 1, 0) + 2 * R(1, 0, 1))
                - 2 * Q(0, 2, 0) * (Q(1, 1, 0) + 2 * R(1, 0, 1))
                - 2 * R(2, 0, 0) * (P(0, 1, 1) + Q(1, 0, 1))
                + 2 * P(3, 0, 0)
                + 2 * P(1, 2, 0)
                + 2 * Q(2, 1, 0)
                + 2 * Q(0, 3, 0)
                + 4 * R(2, 0, 1)
                + 4 * R(0, 2, 1)
            )
            - R(0, 0, 2) * (
                -S * (P(0, 1, 1) + Q(1, 0, 1))
                + 2 * P(2, 0, 0) * (P(1, 1, 0) - Q(2, 0, 0))
                + 2 * P(0, 2, 0) * (P(1, 1, 0) + Q(0, 2, 0))
                - 2 * Q(1, 1, 0) * (Q(2, 0, 0) + Q(0, 2, 0))
                + 2 * R(2, 0, 0) * (P(0, 1, 1) + Q(1, 0, 1))
                - 4 * P(1, 0, 1) * R(1, 1, 0)
                + 2 * P(3, 0, 0)
                + 2 * P(1, 2, 0)
                + 2 * Q(2, 1, 0)
                + 2 * Q(0, 3, 0)
            )
            + 4 * S * (
                P(0, 0, 2) * (P(1, 1, 0) + Q(0, 2, 0) - 2 * R(0, 1, 1))
                - Q(0, 0, 2) * (P(2, 0, 0) + Q(1, 1, 0) - 2 * R(1, 0, 1))
                + P(1, 0, 2)
                + Q(0, 1, 2)
            )
        )
        - 4 * S * D * (
            3 * P(0, 0, 2) * R(0, 1, 1)
            - 3 * Q(0, 0, 2) * R(1, 0, 1)
            + R(0, 0, 3)
        )
    )


def _ell1_closed_form(P: Callable, Q: Callable, R: Callable):
    """The transcribed ell_1 of the jet entries P(i, j, k), Q(i, j, k),
    R(i, j, k), quadratic and cubic ones only, over any commutative ring:
    three outer groups, exactly as transcribed.

    On the worked example this evaluates to -16 while the dynamics (and
    `HopfZeroSystem.ell1_exact`) give -48; the transcription is kept
    verbatim for auditability and `evaluate_base_criteria` reports the
    discrepancy.
    """
    S = R(0, 2, 0) + R(2, 0, 0)
    omega = -(P(1, 0, 1) + Q(0, 1, 1)) * S

    group1 = -omega * S * (
        R(0, 0, 2) * (
            (R(0, 2, 0) - R(2, 0, 0)) * (P(0, 1, 1) + Q(1, 0, 1))
            + 2 * (-Q(2, 0, 0) * (P(2, 0, 0) + Q(1, 1, 0) + 2 * R(1, 0, 1))
                   + 2 * P(1, 0, 1) * R(1, 1, 0)
                   + P(1, 2, 0) + P(1, 1, 0) * P(2, 0, 0) + P(3, 0, 0)
                   - Q(0, 2, 0) * (Q(1, 1, 0) + 2 * R(1, 0, 1))
                   + Q(0, 3, 0) + Q(2, 1, 0)
                   + 2 * R(0, 2, 1) + 2 * R(2, 0, 1))
            + 2 * P(0, 2, 0) * (P(1, 1, 0) + Q(0, 2, 0))
            + 4 * (P(0, 2, 0) + P(2, 0, 0)) * R(0, 1, 1)
        )
        - 4 * S * (3 * P(0, 0, 2) * R(0, 1, 1)
                   - 3 * Q(0, 0, 2) * R(1, 0, 1) + R(0, 0, 3))
        - 2 * R(1, 1, 0) * R(0, 0, 2) ** 2
    )

    group2 = R(0, 0, 2) * S ** 2 * (
        4 * S * (P(0, 0, 2) * (2 * R(0, 1, 1) - P(1, 1, 0) - Q(0, 2, 0))
                 + Q(0, 0, 2) * (P(2, 0, 0) + Q(1, 1, 0) - 2 * R(1, 0, 1))
                 - P(1, 0, 2) - Q(0, 1, 2))
        + R(0, 0, 2) * (
            (R(2, 0, 0) - R(0, 2, 0)) * (P(0, 1, 1) + Q(1, 0, 1))
            + 2 * (-Q(2, 0, 0) * (P(2, 0, 0) + Q(1, 1, 0))
                   - 2 * P(1, 0, 1) * R(1, 1, 0)
                   + P(1, 2, 0) + P(1, 1, 0) * P(2, 0, 0) + P(3, 0, 0)
                   + Q(0, 3, 0) - Q(0, 2, 0) * Q(1, 1, 0) + Q(2, 1, 0))
            + 2 * P(0, 2, 0) * (P(1, 1, 0) + Q(0, 2, 0))
        )
    )

    group3 = 2 * omega ** 2 * R(0, 0, 2) * R(1, 1, 0)
    return group1 + group2 + group3


# ---------------------------------------------------------------------------
# perturbation criteria: Gamma(mu), eta(mu), mu_0, alpha_d
# ---------------------------------------------------------------------------

@dataclass
class PerturbationCriteria:
    mu0: float
    alpha_d: float
    roots: Tuple[Tuple[float, float], ...]          # (root, alpha_d), steepest first
    gamma_at_mu0: float                             # operational: -r_mu^2
    gamma_printed_at_mu0: float                     # verbatim ratio form
    gamma_nonnegative: Tuple[Tuple[float, float], ...]
    gamma_discrepancy_max: float
    interval: Tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "mu0": self.mu0,
            "alpha_d": self.alpha_d,
            "roots": [list(r) for r in self.roots],
            "gamma_at_mu0": self.gamma_at_mu0,
            "gamma_printed_at_mu0": self.gamma_printed_at_mu0,
            "gamma_discrepancy_max": self.gamma_discrepancy_max,
            "gamma_nonnegative": [list(s) for s in self.gamma_nonnegative],
            "interval": list(self.interval),
        }


def perturbation_functions(sys: HopfZeroSystem, fam: PerturbationFamily):
    """Float callables of mu (Gamma_operational, Gamma_printed, w_mu) built
    on the family's ingredients, compiled here; the exact constants of the
    system are converted once, under `float_range`.  (sqrt(-Gamma_op), w_mu)
    is the root of f1, the averaged equilibrium.  Each callable divides
    by d = P^(1,0,1) + Q^(0,1,1) or S = R^(2,0,0) + R^(0,2,0), and
    Gamma_printed by S d^2: one that rounds to 0.0 is a FloatRangeExceeded
    error, so they divide only by nonzero floats."""
    if sys.divergence_pair == 0:
        raise CriteriaError("P^(1,0,1) + Q^(0,1,1) = 0; criteria undefined")
    if sys.quadratic_sum == 0:
        raise DegenerateSum("R^(2,0,0) + R^(0,2,0) = 0")
    with float_range():
        d, S = float(sys.divergence_pair), float(sys.quadratic_sum)
        Sdd = float(sys.quadratic_sum * sys.divergence_pair ** 2)
        c = float(partial(sys.R, 0, 0, 2))
    if d == 0.0 or S == 0.0:
        raise FloatRangeExceeded(f"a divisor rounds to 0.0 as a float: d = {d!r}, "
                                 f"S = {S!r}")
    sigma, w1z, w20 = map(_compiled_in_mu, _ingredients(fam))

    def w_mu(mu):
        # 0.0 - keeps a vanishing sigma at +0.0 whatever the sign of d
        return 0.0 - sigma(mu) / d

    def gamma_operational(mu):
        # -r_mu^2 with r_mu^2 the root of f1^2(., w_mu) = 0
        w = w_mu(mu)
        return (2 * c * w * w + 4 * w1z(mu) * w + 4 * w20(mu)) / S

    def gamma_printed(mu):
        if Sdd == 0.0:
            raise FloatRangeExceeded("S d^2 rounds to 0.0 as a float")
        s = sigma(mu)
        return (2 * c * s * s - w1z(mu) * s) / Sdd + 4 * w20(mu) / S

    return gamma_operational, gamma_printed, w_mu


def closed_form_equilibrium(functions, mu: float) -> Tuple[float, float]:
    """The root (r, w) = (sqrt(-Gamma_op(mu)), w_mu(mu)) of f1, from the
    closed form `functions` = `perturbation_functions(system, family)`, with
    no Melnikov pair: a Gamma_op(mu) >= 0 leaves no radius, an
    AveragingError."""
    gamma_op, _, w_mu = functions
    return _equilibrium_radius(gamma_op(mu), mu), w_mu(mu)


def _equilibrium_radius(gamma: float, mu: float) -> float:
    """sqrt(-gamma) for gamma = Gamma_op(mu); a gamma >= 0 leaves no radius,
    an AveragingError."""
    if gamma >= 0:
        raise AveragingError(f"Gamma_criterion({mu}) = {gamma} >= 0; no equilibrium radius")
    return math.sqrt(-gamma)


def evaluate_perturbation_criteria(
        sys: HopfZeroSystem, fam: PerturbationFamily,
        interval: Tuple[float, float]) -> PerturbationCriteria:
    """The criteria on [lo, hi], decided on exact polynomials in mu: the
    distinct real roots of eta there, correctly rounded, with alpha_d
    exactly 0.0 at a multiple one; mu0, the steepest simple root (the
    lowest of equally steep ones); and the sign of Gamma at mu0, 0 where
    Gamma and eta share it."""
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    if not lo < hi:
        raise CriteriaError(f"empty interval {interval!r}")
    gamma_op, gamma_pr, _ = perturbation_functions(sys, fam)
    eta, gamma, disc = _exact_criteria(sys, fam)
    nonnegative = _nonnegative(gamma, lo, hi)
    if nonnegative == ((float(lo), float(hi)),):
        raise GammaNonNegative("Gamma_criterion(mu) >= 0 on the whole interval")
    if not eta:
        raise DegenerateTransversality("eta vanishes identically")
    simple, multiple = simple_and_multiple(eta)

    def root(cell, slope=derivative(eta)):
        x = sum(cell) / 2           # rounds as the root does
        return float(x), math.pi * float(value(slope, x) / sys.divergence_pair), cell

    steep = sorted(map(root, roots(simple, lo, hi)), key=lambda t: (-abs(t[1]), t[0]))
    flat = [(float(sum(cell) / 2), 0.0) for cell in roots(multiple, lo, hi)]
    if not steep:
        error, what = (DegenerateTransversality, "no simple root") if flat else (
            NoRootInInterval, "no root")
        raise error(f"eta has {what} in [{float(lo)}, {float(hi)}]")
    mu0, alpha_d, cell = steep[0]
    if alpha_d == 0.0:
        raise FloatRangeExceeded(f"eta'(mu0) is nonzero but rounds to 0.0 at mu0 = {mu0!r}")
    if sign_at(gamma, simple, cell) >= 0:
        raise GammaNonNegative(f"Gamma_criterion(mu0) >= 0 at mu0 = {mu0!r}")
    # |Gamma_op - Gamma_printed| is largest at an end or a root of its slope
    ends = [lo, hi] + [sum(cell) / 2 for cell in (roots(derivative(disc), lo, hi)
                                                  if len(disc) > 1 else ())]
    return PerturbationCriteria(
        mu0=mu0, alpha_d=alpha_d, roots=tuple(t[:2] for t in steep) + tuple(flat),
        gamma_at_mu0=gamma_op(mu0), gamma_printed_at_mu0=gamma_pr(mu0),
        gamma_nonnegative=nonnegative,
        gamma_discrepancy_max=float(max(abs(value(disc, x)) for x in ends)),
        interval=(float(lo), float(hi)),
    )


def _exact_criteria(sys: HopfZeroSystem, fam: PerturbationFamily) -> Tuple[Dense, ...]:
    """eta d / pi = d w1z - c sigma, Gamma_criterion and Gamma_criterion -
    Gamma_printed as dense polynomials in mu, with w_mu = -sigma / d and
    c = R^(0,0,2), as `perturbation_functions` builds them on floats."""
    sigma, w1z, w20 = _ingredients(fam)
    d, S, c = sys.divergence_pair, sys.quadratic_sum, partial(sys.R, 0, 0, 2)
    cross = w1z * sigma
    polys = (w1z.scale(d) - sigma.scale(c),
             (sigma * sigma).scale(2 * c / (d * d * S)) + cross.scale(-4 / (d * S))
             + w20.scale(4 / S),
             cross.scale((1 - 4 * d) / (S * d * d)))
    return tuple([p.terms.get((0, 0, 0, k, 0), Fraction(0))
                  for k in range(p.degree(("mu",)) + 1)] if p else [] for p in polys)


def _nonnegative(gamma: Dense, lo: Fraction, hi: Fraction) -> Tuple[Tuple[float, float], ...]:
    """The sub-intervals of [lo, hi] where the polynomial gamma >= 0, as float
    pairs: its roots there and each span between two of them, or an end,
    where it is positive.  A span within one float adds nothing to them."""
    if not gamma:
        return ((float(lo), float(hi)),)
    cells = roots(gamma, lo, hi)
    ends = [lo, *(x for cell in cells for x in cell), hi]
    spans = [(float(sum(cell) / 2),) * 2 for cell in cells]
    spans += [(float(b), float(a)) for b, a in zip(ends[::2], ends[1::2])
              if float(b) < float(a) and value(gamma, (a + b) / 2) > 0]
    merged: List[Tuple[float, float]] = []
    for start, stop in sorted(spans):      # the stops ascend with the starts
        if merged and start <= merged[-1][1]:
            start = merged.pop()[0]
        merged.append((start, stop))
    return tuple(merged)


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

@dataclass
class CriteriaReport:
    base: BaseCriteria
    perturbation: PerturbationCriteria
    applicable: bool
    reasons: Tuple[str, ...]

    def to_dict(self) -> dict:
        out = {"applicable": self.applicable, "reasons": list(self.reasons)}
        out.update(self.base.to_dict())
        out["perturbation"] = self.perturbation.to_dict()
        return out


@contextmanager
def float_range():
    """Where quantities become floats: an OverflowError, as converting an
    exact value past the float range raises it, is a FloatRangeExceeded."""
    try:
        yield
    except OverflowError as exc:
        raise FloatRangeExceeded(f"a value overflows the float range: {exc}") from None


def criteria_report(sys: HopfZeroSystem, fam: PerturbationFamily,
                    interval: Tuple[float, float] = (-1.0, 1.0)) -> CriteriaReport:
    """Run the full applicability checklist for Theorem-style torus bifurcation.

    Non-fatal failures are collected as reason codes; structural errors
    (degenerate quadratic sum, missing eta root, ...) raise, and floats are
    made under `float_range`.  Ell1Zero reads the exact ell_1: a bound on
    its float would depend on the units of (x, y, z)."""
    with float_range():
        base = evaluate_base_criteria(sys)
        pert = evaluate_perturbation_criteria(sys, fam, interval)
    reasons: List[str] = []
    if not base.nondegenerate:
        reasons.append("NondegeneracyFailed")
    if base.ell1_exact == 0:
        reasons.append("Ell1Zero")
    applicable = base.nondegenerate and base.ell1_exact != 0
    return CriteriaReport(base=base, perturbation=pert,
                          applicable=applicable,
                          reasons=tuple(dict.fromkeys(reasons)))


def hypotheses(rep: CriteriaReport) -> dict:
    """The theorem's hypotheses H, T and ND at mu0, read off the report: the
    `hypotheses` block of `branch.json`, which holds the two values they
    give, omega0 and l12.

    H is the local Hopf condition, a pair +-i omega0 with omega0 > 0 at the
    averaged equilibrium at mu0.  For every system and polynomial family
    the exact first-order Melnikov function f1 has a fixed form, with
    d = P^(1,0,1) + Q^(0,1,1), S = R^(2,0,0) + R^(0,2,0) and Omega = -d S:
    f1_r = pi r (sigma(mu) + d w) everywhere, and on the line
    w = w_mu = -sigma / d, f1_w = (pi S / 2)(r^2 + Gamma_op(mu)), where its
    Jacobian in (r, w) is [[0, pi d r], [pi S r, 2 eta]], so tr J = 2 eta
    and det J = pi^2 Omega r^2 (tests/test_criteria.py asserts it on the
    exact f1).  At the equilibrium (sqrt(-Gamma_op), w_mu) the averaged
    eigenvalues are eta +- i sqrt(pi^2 Omega r^2 - eta^2): at the root mu0
    of eta, +-i pi sqrt(Omega) r0.  So H is exactly Omega > 0, and
    omega0 = pi sqrt(Omega) sqrt(-Gamma_op(mu0)) comes from values the
    report holds; omega0 is None where Omega <= 0, and a Gamma_op(mu0) >= 0
    leaves no radius, an AveragingError.

    T is the exact simplicity of mu0: a report exists only where eta has a
    simple root, with alpha_d != 0 (`DegenerateTransversality` otherwise).
    ND reads the slices of the map Lyapunov coefficient: its eps slice is 0
    for every system, so the leading one is l12, pi ell_1 / (16 Omega^2)
    (`BaseCriteria.l12`, None where Omega <= 0), nonzero exactly where
    ell_1 is, the report's Ell1Zero.  So every report that applies meets
    all three, and `branch` runs only on one.
    """
    omega, crit = rep.base.omega, rep.perturbation
    r0 = _equilibrium_radius(crit.gamma_at_mu0, crit.mu0)
    omega0 = math.pi * math.sqrt(float(omega)) * r0 if omega > 0 else None
    return {"details": {"omega0": omega0, "l12": rep.base.l12}}
