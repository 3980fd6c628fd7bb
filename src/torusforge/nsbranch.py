"""The Neimark-Sacker branch of the numeric return map and its Jordan
normalization.

On each eps of the factor-2 ladder `BRANCH_LADDER`, `unit_circle_point`
solves det D Pi(xi(mu, eps)) = 1 for mu by a secant, each step a
fixed-point Newton on Pi(x) - x: the first seeded at the map's own averaged
equilibrium (`ThetaReturnMap.averaged_equilibrium`, the criteria's closed
form), the later ones at the fixed points already solved.  The secant's
first jump is the exact slope's, h'(mu0) = 2 eps alpha_d to O(eps^2), with
alpha_d the criteria report's, which `certify` and `branch` pass on.  The
branch's mu1, the fixed-point slice xi_1 and the eps slices of the map
Lyapunov coefficient and of the normalized linearization are fitted to
three consecutive rungs (`_ladder_fit`).  `lyapunov_coefficient_map`
contracts the degree-2 and degree-3 tensors of the map's `jet3` in the
eigenvector basis of D Pi.

The return map's jets (`flow.MapJet`) hold Python floats, and this module
reads them as they are: the Newton (its 2x2 step `_solve_2x2`), the secant,
the Jordan normalization and the tensor contractions run on Python floats
and complex numbers, and each ladder fit is exact, rounded once.

The simple family's printed branch constants and the return map's
tolerances live here, with their readers; the seed's closed form and
`AveragingError` are the criteria's, so no Melnikov layer is loaded.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .criteria import AveragingError, HopfZeroSystem, PerturbationFamily, float_range
from .fieldexpr import partial
from .flow import IntegratorConfig, MapJet

FIXED_POINT_TOL = 1e-10                  # max |Pi(xi) - xi| of the fixed-point Newton
FIXED_POINT_MAX_ITER = 25
UNIT_CIRCLE_TOL = 1e-12                  # |det D Pi - 1| of the secant on |lambda| = 1
UNIT_CIRCLE_MAX_ITER = 40
STRONG_RESONANCE_TOL = 1e-8
# the factor-2 eps ladder of the Neimark-Sacker branch, solved once; each fit
# reads three consecutive rungs: the Lyapunov slices the largest three, mu1
# the middle three, the Jordan expansion and the fixed-point slice the
# smallest three
BRANCH_LADDER = (1.6e-2, 8e-3, 4e-3, 2e-3, 1e-3)
# the return map's tolerances in branch, and in certify's Neimark-Sacker
# point; the certifier's own returns run at torus.CERTIFY_INTEGRATOR
RETURN_MAP_INTEGRATOR = IntegratorConfig(atol=1e-13, rtol=1e-11)


class NewtonDiverged(AveragingError):
    pass


class ComplexPairLost(AveragingError):
    """The Jacobian of the return map has a real spectrum."""


class StrongResonance(AveragingError):
    pass


class UnitCircleCrossingNotFound(AveragingError):
    pass


class DegenerateParameter(AveragingError):
    pass


@dataclass
class BranchPoint:
    """One Neimark-Sacker point: the unit-circle crossing at one eps."""
    eps: float
    mu: float                  # on the unit-circle curve
    xi: Tuple[float, float]    # fixed point of the return map
    eigenvalue: complex        # lambda(mu(eps), eps), |lambda| = 1
    jet: MapJet                # value and Jacobian of the map at xi (jet1)

    @property
    def theta(self) -> float:
        """arg lambda."""
        return math.atan2(self.eigenvalue.imag, self.eigenvalue.real)


@dataclass
class BranchConstants:
    """The printed closed forms of the simple family's branch
    (`printed_branch_constants`), the cross-check of the ladder fits."""
    mu1: Fraction
    xi2: Fraction
    xi1_const: Fraction
    xi1_slope: float
    m21_1: float
    m22_1: float


@dataclass
class NSBranch:
    points: Tuple[BranchPoint, ...]      # one per rung of BRANCH_LADDER
    mu1_numeric: float
    xi_slices_closed: Optional[BranchConstants]

    def to_dict(self) -> dict:
        out = {
            "mu1_numeric": self.mu1_numeric,
            "points": [{"eps": p.eps, "mu": p.mu,
                        "xi": [float(v) for v in p.xi],
                        "lambda": [p.eigenvalue.real, p.eigenvalue.imag],
                        "theta": p.theta} for p in self.points],
        }
        if self.xi_slices_closed is not None:
            out["mu1_closed"] = float(self.xi_slices_closed.mu1)
        return out


def _complex_eigenvalue(A) -> complex:
    (a, b), (c, d) = A
    m = 0.5 * (a + d)
    disc = (a * d - b * c) - m * m
    if disc <= 0:
        raise ComplexPairLost(f"return-map eigenvalues real (disc={disc})")
    return complex(m, math.sqrt(disc))


def _solve_2x2(M, rhs) -> Tuple[float, float]:
    """x with M x = rhs, for M a 2x2 matrix of floats as nested pairs: LU
    with partial pivoting, written out.  It is the Newton step's solve, so
    an exact zero pivot, a singular step, is NewtonDiverged."""
    (a, b), (c, d) = M
    y0, y1 = rhs
    if abs(c) > abs(a):                   # the larger first-column entry pivots
        (a, b, y0), (c, d, y1) = (c, d, y1), (a, b, y0)
    m = c / a if a != 0.0 else 0.0        # a = 0 only when the column is 0
    u = d - m * b
    if a == 0.0 or u == 0.0:
        raise NewtonDiverged("fixed-point Newton step singular: zero pivot")
    x1 = (y1 - m * y0) / u
    return (y0 - b * x1) / a, x1


def _newton_fixed_point(tmap, mu: float, eps: float,
                        seed: Optional[Sequence[float]] = None):
    """Fixed point xi of the return map, a pair of floats, by Newton on
    Pi(x) - x, seeded at `seed` or else at the map's averaged equilibrium;
    returns (xi, Pi and D Pi at xi), so callers that need D Pi(xi) reuse the
    last iteration's first-order transport (jet1)."""
    r, w = tmap.averaged_equilibrium(mu) if seed is None else seed
    for _ in range(FIXED_POINT_MAX_ITER):
        jet = tmap.jet1((r, w), mu, eps)
        res = (jet.value[0] - r, jet.value[1] - w)
        if abs(res[0]) <= FIXED_POINT_TOL and abs(res[1]) <= FIXED_POINT_TOL:
            return (r, w), jet
        (a, b), (c, d) = jet.A
        dr, dw = _solve_2x2(((a - 1.0, b), (c, d - 1.0)), (-res[0], -res[1]))
        r, w = r + dr, w + dw
        if not (math.isfinite(r) and math.isfinite(w)):
            raise NewtonDiverged("fixed-point Newton produced non-finite iterate")
    err = max(abs(res[0]), abs(res[1]))
    if err <= 10 * FIXED_POINT_TOL:
        return (r, w), tmap.jet1((r, w), mu, eps)
    raise NewtonDiverged(f"fixed-point Newton stalled, residual {err}")


def unit_circle_point(tmap, mu0: float, eps: float, alpha_d: float,
                      mu_guess: Optional[float] = None) -> BranchPoint:
    """Solve h(mu) = det(D Pi(xi(mu, eps))) - 1 = 0 for mu by the secant
    method.

    For a complex pair, |lambda|^2 = det, so this is the unit-circle
    condition; the pair property is verified at the solution.  The secant
    starts at mu_a = mu0 (or `mu_guess`).  Its second point is where the
    exact slope puts the root: D Pi = I + eps Df1 + O(eps^2) and tr Df1 =
    2 eta (the identity behind `criteria.hypotheses`), so h'(mu0) =
    2 eps alpha_d + O(eps^2), with alpha_d the criteria report's, and mu_b =
    mu_a - h(mu_a) / (2 eps alpha_d).  The first fixed-point Newton starts
    at the map's averaged equilibrium, the second at the first fixed point,
    and each later one at the linear extrapolation in mu of the last two.
    The returned point carries Pi and D Pi at xi, so nothing downstream
    solves the same point again.  At eps = 0 the return map is the identity
    and has no crossing: a DegenerateParameter error before any transport.
    """
    if eps == 0.0:
        raise DegenerateParameter("eps = 0: bifurcation parameter degenerate")
    solved = []             # (mu, xi) of the fixed points solved so far

    def h(mu):
        seed = solved[-1][1] if solved else None
        if len(solved) > 1:
            (m0, (r0, w0)), (m1, (r1, w1)) = solved[-2:]
            s = (mu - m1) / (m1 - m0)
            seed = (r1 + s * (r1 - r0), w1 + s * (w1 - w0))
        xi, jet = _newton_fixed_point(tmap, mu, eps, seed=seed)
        solved.append((mu, xi))
        (a, b), (c, d) = jet.A
        return a * d - b * c - 1.0, xi, jet

    mu_a = mu0 if mu_guess is None else mu_guess
    ha, xi, jet = h(mu_a)
    mu_b = mu_a - ha / (2.0 * eps * alpha_d)
    for _ in range(UNIT_CIRCLE_MAX_ITER):
        if abs(ha) <= UNIT_CIRCLE_TOL:      # (mu_a, ha, xi, jet): the last point solved
            return BranchPoint(eps=eps, mu=mu_a, xi=xi,
                               eigenvalue=_complex_eigenvalue(jet.A), jet=jet)
        hb, xi, jet = h(mu_b)
        if hb == ha:
            break
        mu_a, ha, mu_b = mu_b, hb, mu_b - hb * (mu_b - mu_a) / (hb - ha)
    raise UnitCircleCrossingNotFound(
        f"secant on |lambda|=1 did not converge at eps={eps} (residual {ha})")


def _ladder_points(tmap, mu0: float, alpha_d: float,
                   eps_ladder: Sequence[float]) -> List[BranchPoint]:
    """unit_circle_point on each rung of a factor-2 ladder; the secant of a
    rung starts from the previous rung's mu - mu0 halved."""
    points = []
    mu_guess = None
    for eps in eps_ladder:
        points.append(unit_circle_point(tmap, mu0, eps, alpha_d, mu_guess))
        mu_guess = mu0 + (points[-1].mu - mu0) / 2.0
    return points


def _ladder_fit(values: Sequence[float], ladder: Sequence[float], lowest: int) -> List[float]:
    """The coefficients c_k of v(e) = sum_k c_k e^(lowest + k), one per rung,
    interpolated through the values at the ladder's eps: solved exactly on
    the floats' rational values, in Lagrange form, and each rounded once.  A
    non-finite value is an AveragingError, a coefficient past the float range
    a FloatRangeExceeded."""
    if not all(map(math.isfinite, values)):
        raise AveragingError(f"ladder fit of non-finite values {list(values)}")
    rungs = [Fraction(e) for e in ladder]
    coeffs = [Fraction(0)] * len(rungs)
    for j, (ej, v) in enumerate(zip(rungs, values)):
        # v_j / e_j^lowest times rung j's Lagrange basis, low degree first
        basis = [Fraction(v) / ej ** lowest]
        for m, em in enumerate(rungs):
            if m != j:
                basis = [(a - em * b) / (ej - em) for a, b in zip([0, *basis], [*basis, 0])]
        coeffs = [c + b for c, b in zip(coeffs, basis)]
    with float_range():
        return [float(c) for c in coeffs]


def xi_slice(tmap, mu: float) -> Tuple[float, float]:
    """First-order slice xi_1(mu), xi_2(mu) of the fixed-point branch, fitted
    to (xi(mu, eps) - x_mu)/eps on the three smallest rungs of BRANCH_LADDER
    (fixed points at this mu, not on the Neimark-Sacker curve)."""
    x_mu = tmap.averaged_equilibrium(mu)
    ladder = BRANCH_LADDER[-3:]
    xis = [_newton_fixed_point(tmap, mu, e)[0] for e in ladder]
    return tuple(_ladder_fit([(xi[i] - x_mu[i]) / e for xi, e in zip(xis, ladder)],
                             ladder, 0)[0] for i in range(2))


def branch_continuation(tmap, mu0: float, alpha_d: float) -> NSBranch:
    """Solve the Neimark-Sacker curve mu(eps) once, on every rung of
    BRANCH_LADDER, each secant started at the exact slope of alpha_d, the
    criteria report's; mu1 is fitted to mu(eps)/eps on the middle three
    rungs and, where the map's family is the degree-preserving simple one
    of its system (equal to `PerturbationFamily.simple(system.beta)`),
    compared with the printed closed form of the map's system."""
    points = tuple(_ladder_points(tmap, mu0, alpha_d, BRANCH_LADDER))
    middle = points[1:4]
    mu1_numeric = _ladder_fit([(p.mu - mu0) / p.eps for p in middle],
                              [p.eps for p in middle], 0)[0]
    xi_closed = None
    if tmap.family == PerturbationFamily.simple(tmap.system.beta):
        xi_closed = printed_branch_constants(tmap.system)
    return NSBranch(points=points, mu1_numeric=mu1_numeric, xi_slices_closed=xi_closed)


def printed_branch_constants(sys: HopfZeroSystem) -> BranchConstants:
    """Closed forms for xi1(mu), xi2, mu1, m21^1, m22^1 of the simple family.

    mu1 and xi2 involve only even powers of the radius scale and are exact
    rationals; xi1's slope and the M1 entries carry odd powers and are floats.
    """
    P, Q, R = (lambda i, j, k, p=p: partial(p, i, j, k) for p in (sys.P, sys.Q, sys.R))
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
# Jordan normalization of the return map at the bifurcation point
# ---------------------------------------------------------------------------

def normalized_map(point: BranchPoint) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    """Eigenvector-based change of basis M at a Neimark-Sacker point (first
    component of the complex eigenvector scaled to i, reproducing the
    M0 + eps M1 normalization), read off the point's own D Pi: no transport.
    In the basis M = ((1, 0), (m21, m22)), det M = m22, D Pi is the rotation
    by theta exactly (the tests check M^-1 D Pi M to rounding)."""
    (a, b), _ = point.jet.A
    lam = point.eigenvalue                  # an eigenvalue of this D Pi
    m21, m22 = (lam.real - a) / b, -lam.imag / b     # v2 = -i (a - lam) / b
    if abs(m22) < 1e-12:
        raise AveragingError(f"normalizing matrix singular at eps={point.eps}")
    return ((1.0, 0.0), (m21, m22))


def _contract(T, vectors):
    """The multilinear form T (nested tuples), index k against vectors[k]."""
    if not vectors:
        return T
    return sum(v * _contract(t, vectors[1:]) for v, t in zip(vectors[0], T))


def lyapunov_coefficient_map(tmap, point: BranchPoint) -> float:
    """The map Lyapunov coefficient, evaluated verbatim with p = (1,-i)/sqrt2
    and <u, v> = conj(u)^T v on the degree-2 and degree-3 tensors of the
    map's jet3 at the point's xi, in the basis M of `normalized_map`:
    <p, M^-1 B(M u, M v)> is B(M u, M v) read against s = M^-T conj(p), so
    the tensors are contracted with q = M p, conj(q) and s as they are.
    Requires e^{ik theta} != 1 for k = 1..4."""
    _, (m21, m22) = normalized_map(point)
    theta = point.theta
    for k in range(1, 5):
        if abs(cmath.exp(1j * k * theta) - 1.0) < STRONG_RESONANCE_TOL:
            raise StrongResonance(f"e^(i {k} theta) = 1 within {STRONG_RESONANCE_TOL}")
    jet = tmap.jet3(point.xi, point.mu, point.eps)
    p0, p1 = 1.0 / math.sqrt(2.0), -1j / math.sqrt(2.0)
    q = (p0, m21 * p0 + m22 * p1)
    qb = (q[0].conjugate(), q[1].conjugate())
    s = (p0 - m21 / m22 * p1.conjugate(), p1.conjugate() / m22)
    g20 = _contract(jet.B, (s, q, q))
    g11 = _contract(jet.B, (s, q, qb))
    g02 = _contract(jet.B, (s, qb, qb))
    g21 = _contract(jet.C, (s, q, q, qb))
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
    vals = tuple((p.eps, lyapunov_coefficient_map(tmap, p))
                 for p in branch.points[:3])
    l11, l12, _ = _ladder_fit([v for _, v in vals], [e for e, _ in vals], 1)
    return LyapunovSlices(l11=l11, l12=l12, values=vals)


@dataclass
class JordanExpansion:
    omega0: float
    zeta2: float
    m21_1: float
    m22_1: float

    @property
    def A1(self) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        return ((0.0, -self.omega0), (self.omega0, 0.0))

    @property
    def A2(self) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        diagonal = -0.5 * self.omega0 ** 2
        return ((diagonal, -self.zeta2), (self.zeta2, diagonal))


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
    points = branch.points[-3:]
    ladder = [p.eps for p in points]
    omega0, zeta2, _ = _ladder_fit([p.theta / p.eps for p in points], ladder, 0)
    # rows M[1] = (m21, m22), m22 = m22_0 + eps m22_1 + ..., with M0 = [[1,0],[0, m22_0]]
    rows = [normalized_map(p)[1] for p in points]
    _, m22_1, _ = _ladder_fit([m22 for _, m22 in rows], ladder, 0)
    m21_1 = _ladder_fit([m21 / e for (m21, _), e in zip(rows, ladder)], ladder, 0)[0]
    return JordanExpansion(omega0=omega0, zeta2=zeta2, m21_1=m21_1, m22_1=m22_1)
