"""Hopf-Zero normal position and the explicit torus-bifurcation criteria.

Quantities handled here are exact rationals wherever the inputs are; the
perturbation criteria become floats once, through `compile_terms`.  The first Lyapunov quantity
ell_1 is delegated to the averaging pipeline (see `averaging`); the closed
formula transcribed from the source text is also evaluated and reported, but
it is inconsistent with the worked example and with the dynamics (see
`ell1_transcribed`), so the pipeline value is authoritative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

import numpy as np

from .fieldexpr import Jet3, Poly, as_poly, compile_terms, jet_extract

if TYPE_CHECKING:
    from .averaging import Ell1Result

ETA_ROOT_TOL = 1e-12
ETA_SCAN_POINTS = 512
TRANSVERSALITY_TOL = 1e-10


class CriteriaError(ValueError):
    pass


class FloatRangeExceeded(CriteriaError):
    """A quantity of the criteria overflows a float: an exact coefficient
    too large to convert, or a float product past the largest double."""


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


# ---------------------------------------------------------------------------
# validated system and perturbation family
# ---------------------------------------------------------------------------

@dataclass
class HopfZeroSystem:
    """Unperturbed field (P, Q, R) on top of the linear part (-y, x, 0)."""
    P: Poly
    Q: Poly
    R: Poly
    jP: Jet3 = field(repr=False, default=None)
    jQ: Jet3 = field(repr=False, default=None)
    jR: Jet3 = field(repr=False, default=None)

    @property
    def quadratic_sum(self) -> Fraction:
        """R^(2,0,0) + R^(0,2,0)."""
        return self.jR.get(2, 0, 0) + self.jR.get(0, 2, 0)

    @property
    def beta(self) -> int:
        """The sign of eps in the simple family (0, 0, mu*z + beta*eps):
        opposite to R^(2,0,0) + R^(0,2,0)."""
        S = self.quadratic_sum
        if S == 0:
            raise DegenerateSum("R^(2,0,0) + R^(0,2,0) = 0; beta undefined")
        return -1 if S > 0 else 1

    @property
    def divergence_pair(self) -> Fraction:
        """P^(1,0,1) + Q^(0,1,1)."""
        return self.jP.get(1, 0, 1) + self.jQ.get(0, 1, 1)

    @property
    def omega(self) -> Fraction:
        return -self.divergence_pair * self.quadratic_sum


def validate_hopf_zero(P, Q, R) -> HopfZeroSystem:
    """Check that P, Q, R are polynomial in (x, y, z) with no constant or
    linear terms, and attach exact jets."""
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
    jets = [jet_extract(p) for p in polys]
    return HopfZeroSystem(*polys, *jets)


@dataclass
class PerturbationFamily:
    """(U, V, W) in (x, y, z, mu, eps) and the three criteria ingredients,
    compiled once as functions of mu:

        sigma(mu) = U_1^(1,0,0)(mu) + V_1^(0,1,0)(mu)
        w1z(mu)   = W_1^(0,0,1)(mu)
        w20(mu)   = W_2(0,0,0; mu)

    where slice i (1-based) is the coefficient of eps^(i-1) in a component,
    so the perturbed field eps*U contributes U_i at order eps^i.
    """
    U: Poly
    V: Poly
    W: Poly
    simple_case: bool = False
    sigma: Callable[[float], float] = field(init=False, repr=False, compare=False)
    w1z: Callable[[float], float] = field(init=False, repr=False, compare=False)
    w20: Callable[[float], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, p in zip("UVW", (self.U, self.V, self.W)):
            origin = _in_mu(p, (0, 0, 0), 0)
            if origin:
                raise InvalidPerturbation(
                    f"{name}_1(0,0,0; mu) = {origin!r} must vanish identically")
        self.sigma = _compiled_in_mu(_in_mu(self.U, (1, 0, 0), 0)
                                     + _in_mu(self.V, (0, 1, 0), 0))
        self.w1z = _compiled_in_mu(_in_mu(self.W, (0, 0, 1), 0))
        self.w20 = _compiled_in_mu(_in_mu(self.W, (0, 0, 0), 1))

    @classmethod
    def from_expressions(cls, U, V, W, simple_case: bool = False) -> "PerturbationFamily":
        return cls(as_poly(U), as_poly(V), as_poly(W), simple_case=simple_case)

    @classmethod
    def simple(cls, beta: int) -> "PerturbationFamily":
        """The degree-preserving family (U, V, W) = (0, 0, mu*z + beta*eps)."""
        W = Poly({(0, 0, 1, 1, 0): Fraction(1), (0, 0, 0, 0, 1): Fraction(beta)})
        return cls(Poly(), Poly(), W, simple_case=True)


def _in_mu(p: Poly, xyz: Tuple[int, int, int], eps_power: int) -> Poly:
    """The coefficient of x^i y^j z^k eps^eps_power in p, a polynomial in mu."""
    return Poly({(0, 0, 0, m[3], 0): c for m, c in p.terms.items()
                 if m[:3] == xyz and m[4] == eps_power})


def _compiled_in_mu(p: Poly) -> Callable[[float], float]:
    return compile_terms({(m[3],): float(c) for m, c in p.terms.items()}, ("mu",))


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
    ell1: Optional[float]
    ell1_order1: Optional[float]            # eps^1 slice of ell_1^eps (expected 0)
    ell1_transcribed: Fraction
    ell1_discrepancy: Optional[float]
    notes: Tuple[str, ...] = ()
    # the full first_lyapunov_quantity result, passed on (not serialized)
    lyapunov: Optional[Ell1Result] = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "omega": float(self.omega),
            "omega_exact": str(self.omega),
            "beta": self.beta,
            "gamma_scale": self.gamma_scale,
            "quadratic_sum": str(self.quadratic_sum),
            "nondegenerate": self.nondegenerate,
            "ell1": self.ell1,
            "ell1_order1": self.ell1_order1,
            "ell1_transcribed": float(self.ell1_transcribed),
            "ell1_discrepancy": self.ell1_discrepancy,
            "notes": list(self.notes),
        }


def evaluate_base_criteria(sys: HopfZeroSystem) -> BaseCriteria:
    beta = sys.beta
    S = sys.quadratic_sum
    omega = sys.omega
    gamma_scale = math.sqrt(abs(S))
    transcribed = ell1_transcribed(sys.jP, sys.jQ, sys.jR)

    notes: List[str] = []
    ell1 = l11 = res = None
    discrepancy = None
    if omega > 0:
        from .averaging import first_lyapunov_quantity
        res = first_lyapunov_quantity(sys)
        ell1, l11 = float(res.ell1), float(res.l11)
        discrepancy = float(abs(ell1 - float(transcribed)))
        if discrepancy > 1e-6 * max(1.0, abs(ell1)):
            notes.append(
                "transcribed closed-form ell1 disagrees with the averaging "
                "pipeline; pipeline value is authoritative")
    else:
        notes.append("NondegeneracyFailed: Omega <= 0, ell1 not evaluated")

    return BaseCriteria(
        omega=omega, beta=beta, gamma_scale=gamma_scale, quadratic_sum=S,
        nondegenerate=omega > 0, ell1=ell1, ell1_order1=l11,
        ell1_transcribed=transcribed, ell1_discrepancy=discrepancy,
        notes=tuple(notes), lyapunov=res,
    )


def ell1_transcribed(jP: Jet3, jQ: Jet3, jR: Jet3) -> Fraction:
    """The closed-form ell_1 exactly as transcribed, three outer groups.

    On the worked example this evaluates to -16 while the dynamics (and the
    independent averaging pipeline) give -48; the transcription is kept
    verbatim for auditability and the discrepancy is reported upstream.
    """
    P, Q, R = jP.get, jQ.get, jR.get
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
    gamma_criterion: Callable[[float], float]       # operational: -r_mu^2
    gamma_printed: Callable[[float], float]         # verbatim ratio form
    eta: Callable[[float], float]
    w_mu: Callable[[float], float]
    mu0: float
    alpha_d: float
    roots: Tuple[Tuple[float, float], ...]          # (mu0, alpha_d) per root
    gamma_flagged: Tuple[float, ...]                # grid mus with Gamma >= 0
    gamma_discrepancy_max: float
    interval: Tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "mu0": self.mu0,
            "alpha_d": self.alpha_d,
            "roots": [list(r) for r in self.roots],
            "gamma_at_mu0": self.gamma_criterion(self.mu0),
            "gamma_printed_at_mu0": self.gamma_printed(self.mu0),
            "gamma_discrepancy_max": self.gamma_discrepancy_max,
            "gamma_flagged_count": len(self.gamma_flagged),
            "interval": list(self.interval),
        }


def perturbation_functions(sys: HopfZeroSystem, fam: PerturbationFamily):
    """Float callables of mu (Gamma_operational, Gamma_printed, eta, w_mu)
    built on the family's compiled ingredients; the exact constants of the
    system are converted once."""
    if sys.divergence_pair == 0:
        raise CriteriaError("P^(1,0,1) + Q^(0,1,1) = 0; criteria undefined")
    if sys.quadratic_sum == 0:
        raise DegenerateSum("R^(2,0,0) + R^(0,2,0) = 0")
    d, S = float(sys.divergence_pair), float(sys.quadratic_sum)
    Sdd = float(sys.quadratic_sum * sys.divergence_pair ** 2)
    c = float(sys.jR.get(0, 0, 2))
    sigma, w1z, w20 = fam.sigma, fam.w1z, fam.w20

    def w_mu(mu):
        # 0.0 - keeps a vanishing sigma at +0.0 whatever the sign of d
        return 0.0 - sigma(mu) / d

    def gamma_operational(mu):
        # -r_mu^2 with r_mu^2 the root of f1^2(., w_mu) = 0
        w = w_mu(mu)
        return (2 * c * w * w + 4 * w1z(mu) * w + 4 * w20(mu)) / S

    def gamma_printed(mu):
        s = sigma(mu)
        return (2 * c * s * s - w1z(mu) * s) / Sdd + 4 * w20(mu) / S

    def eta(mu):
        return math.pi * (d * w1z(mu) - c * sigma(mu)) / d

    return gamma_operational, gamma_printed, eta, w_mu


def evaluate_perturbation_criteria(
        sys: HopfZeroSystem, fam: PerturbationFamily,
        interval: Tuple[float, float]) -> PerturbationCriteria:
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise CriteriaError(f"empty interval {interval!r}")
    gamma_op, gamma_pr, eta, w_mu = perturbation_functions(sys, fam)

    grid = [lo + (hi - lo) * i / (ETA_SCAN_POINTS - 1) for i in range(ETA_SCAN_POINTS)]
    gamma_vals = [gamma_op(m) for m in grid]
    flagged = tuple(m for m, g in zip(grid, gamma_vals) if g >= 0)
    if len(flagged) == len(grid):
        raise GammaNonNegative("Gamma_criterion(mu) >= 0 on the whole interval")
    disc = max(abs(g - gamma_pr(m)) for m, g in zip(grid, gamma_vals))

    eta_vals = [eta(m) for m in grid]
    roots: List[Tuple[float, float]] = []
    for i in range(len(grid) - 1):
        a, b, fa, fb = grid[i], grid[i + 1], eta_vals[i], eta_vals[i + 1]
        root = None
        if fa == 0.0:
            root = a
        elif fa * fb < 0:
            root = _bisect(eta, a, b, fa, fb)
        if root is not None and not any(abs(root - r) <= 1e-9 * max(1, abs(root))
                                        for r, _ in roots):
            roots.append((root, _central_slope(eta, root)))
    if eta_vals[-1] == 0.0 and not any(abs(grid[-1] - r) <= 1e-9 for r, _ in roots):
        roots.append((grid[-1], _central_slope(eta, grid[-1])))
    if not roots:
        raise NoRootInInterval(f"eta has no root in [{lo}, {hi}]")

    roots.sort(key=lambda t: -abs(t[1]))
    mu0, alpha_d = roots[0]
    if abs(alpha_d) < TRANSVERSALITY_TOL:
        raise DegenerateTransversality(f"|eta'(mu0)| = {abs(alpha_d)} < {TRANSVERSALITY_TOL}")
    if gamma_op(mu0) >= 0:
        raise GammaNonNegative(f"Gamma_criterion(mu0) = {gamma_op(mu0)} >= 0")

    return PerturbationCriteria(
        gamma_criterion=gamma_op, gamma_printed=gamma_pr, eta=eta, w_mu=w_mu,
        mu0=mu0, alpha_d=alpha_d, roots=tuple(roots), gamma_flagged=flagged,
        gamma_discrepancy_max=disc, interval=(lo, hi),
    )


def _bisect(f, a, b, fa, fb, tol=ETA_ROOT_TOL, max_iter=200):
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        fm = f(m)
        if abs(fm) <= tol:
            return m
        if fa * fm < 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _central_slope(f, x0, scale=1e-6):
    h = scale * max(1.0, abs(x0))
    return (f(x0 + h) - f(x0 - h)) / (2 * h)


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

@dataclass
class CriteriaReport:
    base: BaseCriteria
    perturbation: Optional[PerturbationCriteria]
    applicable: bool
    reasons: Tuple[str, ...]

    def to_dict(self) -> dict:
        out = {"applicable": self.applicable, "reasons": list(self.reasons)}
        out.update(self.base.to_dict())
        if self.perturbation is not None:
            out["perturbation"] = self.perturbation.to_dict()
        return out


def criteria_report(sys: HopfZeroSystem, fam: Optional[PerturbationFamily],
                    interval: Tuple[float, float] = (-1.0, 1.0)) -> CriteriaReport:
    """Run the full applicability checklist for Theorem-style torus bifurcation.

    Non-fatal failures are collected as reason codes; structural errors
    (degenerate quadratic sum, missing eta root, ...) raise.  Here exact
    quantities become floats: an overflow on the way, in a conversion or in
    numpy (raised, not carried on as inf), is a FloatRangeExceeded.
    """
    try:
        with np.errstate(over="raise"):
            base = evaluate_base_criteria(sys)
            pert = None
            if fam is not None:
                pert = evaluate_perturbation_criteria(sys, fam, interval)
    except (OverflowError, FloatingPointError) as exc:
        raise FloatRangeExceeded(f"criteria overflow the float range: {exc}") from None
    reasons: List[str] = []
    if not base.nondegenerate:
        reasons.append("NondegeneracyFailed")
    if base.ell1 is not None and abs(base.ell1) < 1e-12:
        reasons.append("Ell1Zero")
    applicable = bool(base.nondegenerate and pert is not None
                      and base.ell1 is not None and abs(base.ell1) >= 1e-12)
    return CriteriaReport(base=base, perturbation=pert,
                          applicable=applicable,
                          reasons=tuple(dict.fromkeys(reasons)))
