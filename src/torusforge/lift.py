"""Degree lift: from a degree-m seed field to a degree-(m+1) family whose
origin is a tunable Hopf-Zero point.

Pipeline: find a vertical separating plane through a far-out regular point
of the seed field (jittered from `random.Random(0)` only when its plane
restriction is degenerate), translate that point to the origin, assemble
the two-parameter lifted family, verify its exact spectral identities, and
conjugate to normal position for the criteria machinery.  The exact lift has
ell_1 = 0; the kept system Y adds one term c z^3 to R, c = `ELL1_TERM`, whose
ell_1 is the closed form -24 S^3 d c (`tune_lift_parameters`).  The output
is a function of the document alone.

All lift algebra is exact: L is a power of two and delta a power 4^-k, a
rational square, so the Jordanizing change of variables (which carries
sqrt(delta)) stays inside the rationals and the lifted system can
round-trip through the expression grammar.

Omega of the normalized lift is a polynomial of degree 4 in L and 2 in
delta with 8 nonzero coefficients, read once from the seed's value and
gradient at the point (the `OriginJet`, `omega_coefficients`).  Tuning
reads (L*, delta*) off them; only that one family is built as a whole
`Poly` system, and its Omega must equal the closed form's.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .criteria import (
    CriteriaReport, FloatRangeExceeded, HopfZeroSystem, PerturbationFamily,
    criteria_report, validate_hopf_zero,
)
from .fieldexpr import Poly, as_poly
from .univariate import gcd

MAX_JITTER_ATTEMPTS = 100     # rational jitters tried for a separating plane
# the lines x = t and y = t the common-factor check restricts to
COMMON_FACTOR_LINES = (Fraction(3, 7), Fraction(-5, 11), Fraction(9, 4), Fraction(-13, 8))
_CONSTANT = (0, 0, 0, 0, 0)
_UNIT_MONOMIALS = ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))   # x, y, z
_Z3 = (0, 0, 3, 0, 0)
ELL1_TERM = Fraction(1, 10 ** 6)   # c of the c z^3 that Y adds to R: ell_1 = -24 S^3 d c


class LiftError(ValueError):
    pass


class PerturbationBudgetExceeded(LiftError):
    pass


class NoSeparatingXFound(LiftError):
    pass


class ZeroComponentAtP(LiftError):
    pass


class NoPositiveOmegaFound(LiftError):
    pass


@dataclass(frozen=True)
class Ball:
    center: Tuple[float, float, float]
    radius: float


@dataclass
class SeparatingPlane:
    point: Tuple[Fraction, Fraction, Fraction]
    coefficients: Tuple[Fraction, Fraction, Fraction]   # (a0, b0, 0) of the plane
    plane_distance: float                               # dist(plane, ball center)
    field: Tuple[Poly, Poly, Poly]                      # possibly jittered seed
    jitter_magnitude: float


# ---------------------------------------------------------------------------
# separating plane (constructive lemma)
# ---------------------------------------------------------------------------

def _poly_on_plane(p: Poly) -> Dict[Tuple[int, int], Fraction]:
    """Restrict to x3 = 0: bivariate coefficient table in (x1, x2); a Poly's
    monomials are distinct and its coefficients nonzero, so none cancels."""
    return {(i, j): c for (i, j, k, a, b), c in p.terms.items() if not (k or a or b)}


def _restrict_univariate(table, var: int, value: Fraction) -> List[Fraction]:
    """Substitute x_var = value; return dense coefficients in the other one."""
    deg = max((k[1 - var] for k in table), default=0)
    out = [Fraction(0)] * (deg + 1)
    for (i, j), c in table.items():
        fixed, free = (i, j) if var == 0 else (j, i)
        out[free] += c * value ** fixed
    return out


def _have_common_factor(f, g) -> bool:
    """Probabilistic-but-seeded check: f, g share a nonconstant factor iff
    their restrictions to several lines keep a nontrivial gcd."""
    if not f or not g:
        return True
    if all(i == 0 and j == 0 for (i, j) in f) or all(i == 0 and j == 0 for (i, j) in g):
        return False
    for var in (0, 1):
        if all(len(gcd(_restrict_univariate(f, var, t),
                           _restrict_univariate(g, var, t))) > 1
               for t in COMMON_FACTOR_LINES):
            return True
    return False


def _field_degree(polys: Sequence[Poly]) -> int:
    return max(p.degree(("x", "y", "z")) for p in polys)


def _jitter_field(polys, rng: random.Random, magnitude: float, m: int):
    """Rational jitter of all (x1, x2)-plane-visible coefficients plus the
    x1^m leading terms of the first two components."""
    scale = 10 ** 9
    out = []
    for idx, p in enumerate(polys):
        q = Poly(dict(p.terms))
        if idx < 2:
            bump = Fraction(round(rng.uniform(0.5, 1.5) * magnitude * scale), scale)
            q = q + Poly({(m, 0, 0, 0, 0): bump})
        for mono in list(q.terms):
            if mono[2] == 0 and mono[0] + mono[1] <= m:
                bump = Fraction(round(rng.uniform(-1, 1) * magnitude * scale), scale)
                q = q + Poly({mono: bump})
        out.append(q)
    return tuple(out)


def find_separating_plane(field, ball: Ball) -> SeparatingPlane:
    """Regular point p far on the x1-axis whose field line stays clear of the
    ball, plus the vertical plane through it.

    Scans x = radius * 2^(k/2), k = 1, 2, ..., for as long as x is a finite
    float, accepting the first x where the line angle exceeds both
    ball-tangent angles: far out the line's slope tends to g_m/f_m, the
    ratio of the x1^m coefficients, while the ball's angle falls as
    radius/x, so a slope of 1e-7 clears it near x = 1e7 radius.  An x where
    X1 vanishes (p must be regular) or where the field overflows a float is
    no candidate.  No x is a NoSeparatingXFound, or a FloatRangeExceeded
    when X1 or X2 has a coefficient past the float range on the x1-axis.
    When f = X1(x1,x2,0) and g = X2(x1,x2,0) share a factor or a leading
    coefficient vanishes, a rational jitter drawn from `random.Random(0)`
    is applied (magnitude ladder 1e-6, 1e-5, 1e-4).
    """
    polys = tuple(as_poly(c) for c in field)
    rng = random.Random(0)
    m = _field_degree(polys)
    jitter_used = 0.0

    attempt = 0
    while True:
        f = _poly_on_plane(polys[0])
        g = _poly_on_plane(polys[1])
        # dense x1-axis coefficients: f(x1, 0) and g(x1, 0), x1^m last
        f_axis = _restrict_univariate(f, 1, Fraction(0))
        g_axis = _restrict_univariate(g, 1, Fraction(0))
        if (len(f_axis) > m and f_axis[m] and len(g_axis) > m and g_axis[m]
                and not _have_common_factor(f, g)):
            break
        attempt += 1
        if attempt > MAX_JITTER_ATTEMPTS:
            raise PerturbationBudgetExceeded(
                f"no admissible jitter within {MAX_JITTER_ATTEMPTS} attempts")
        magnitude = (1e-6, 1e-5, 1e-4)[min(2, attempt // 34)]
        jitter_used = magnitude
        polys = _jitter_field(polys, rng, magnitude, m)

    bx, by = float(ball.center[0]), float(ball.center[1])
    rho = float(ball.radius)

    for k in range(1, 2048):                  # 2.0 ** (k / 2) overflows from k = 2048
        x = rho * 2.0 ** (k / 2.0)
        if not math.isfinite(x):
            break
        px = Fraction(x).limit_denominator(10 ** 12)
        fx, gx = _horner(f_axis, px), _horner(g_axis, px)
        if fx == 0:
            continue
        try:
            fxf, gxf = float(fx), float(gx)
        except OverflowError:
            continue                          # the field overflows a float here
        dist = math.hypot(x - bx, -by)
        if dist <= rho:
            continue
        alpha = math.asin(min(1.0, rho / dist))
        base = math.atan2(by - 0.0, bx - x)
        theta_p = _line_angle(base + alpha)
        theta_m = _line_angle(base - alpha)
        phi = _line_angle(math.atan2(gxf, fxf))
        if abs(phi) > max(abs(theta_p), abs(theta_m)):
            plane_dist = abs(gxf * (bx - float(px)) - fxf * by) / math.hypot(gxf, fxf)
            if plane_dist <= rho:
                continue
            # the normal (a0, b0) = (gx, -fx) is orthogonal to the field
            # vector (fx, gx, .): the plane contains it exactly
            return SeparatingPlane(
                point=(px, Fraction(0), Fraction(0)), coefficients=(gx, -fx, Fraction(0)),
                plane_distance=plane_dist, field=polys, jitter_magnitude=jitter_used)
    if any(abs(c) > sys.float_info.max for c in (*f_axis, *g_axis)):
        raise FloatRangeExceeded("X1 or X2 has a coefficient past the float range on "
                                 "the x1-axis; the scan found no separating x")
    raise NoSeparatingXFound("scan x = radius * 2^(k/2), k = 1, 2, ... exhausted "
                             "while x is a finite float")


def _line_angle(angle: float) -> float:
    """Angle of an undirected line with the x1-axis, in (-pi/2, pi/2]."""
    a = math.fmod(angle, math.pi)
    if a > math.pi / 2:
        a -= math.pi
    elif a <= -math.pi / 2:
        a += math.pi
    return a


def translate_to_origin(polys: Sequence[Poly], point) -> Tuple[Poly, ...]:
    """Shift coordinates so the given point becomes the origin."""
    px, py, pz = point
    sub = {"x": Poly.variable("x") + Poly.constant(px),
           "y": Poly.variable("y") + Poly.constant(py),
           "z": Poly.variable("z") + Poly.constant(pz)}
    return tuple(p.substitute(sub) for p in polys)


# ---------------------------------------------------------------------------
# the lifted two-parameter family
# ---------------------------------------------------------------------------

@dataclass
class LiftFamily:
    L: Fraction
    delta: Fraction
    lifted: Tuple[Poly, Poly, Poly]           # X_{L, delta}, degree m+1
    a0: Fraction
    b0: Fraction
    char_poly_ok: bool
    sqrt_delta: Optional[Fraction]            # None unless delta is a rational square
    normalized: Optional[Tuple[Poly, Poly, Poly]]   # Y_{L,delta} (linear part removed)
    system: Optional[HopfZeroSystem]              # None unless that part is (-y, x, 0)

    @property
    def degree(self) -> int:
        return _field_degree(self.lifted)


def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def build_lift_family(seed_field, L, delta) -> LiftFamily:
    """Assemble X_{L, delta} and conjugate its linear part to (-y, x, 0).

    The characteristic polynomial of the Jacobian at the origin must equal
    -lambda^3 - delta lambda with exact rational coefficients.  The
    normalization runs only when delta is a rational square, so it is exact;
    for any other delta `normalized` and `system` are None, and so is
    `system` where the normalized constant and linear part is not exactly
    (-y, x, 0).
    """
    polys = tuple(as_poly(c) for c in seed_field)
    L, delta = Fraction(L), Fraction(delta)
    P0, Q0, R0 = (p.terms.get(_CONSTANT, Fraction(0)) for p in polys)
    if P0 == 0 or Q0 == 0:
        raise ZeroComponentAtP(f"P(0) = {P0}, Q(0) = {Q0}; both must be nonzero")
    a0, b0 = Q0, -P0
    a1 = L / P0
    b2 = -L / Q0
    a2 = (1 + 2 * P0 * Q0 * L + L * L * delta) / (P0 * P0 * Q0)

    X = Poly.variable("x")
    Y = Poly.variable("y")
    lins = (X.scale(a0 + delta * a1) + Y.scale(b0),
            X.scale(a0 + delta * a2) + Y.scale(b0 + delta * b2),
            X.scale(a0) + Y.scale(b0))
    lifted = tuple(lin * p for lin, p in zip(lins, polys))

    # the Jacobian at the origin: the coefficients of x, y and z
    J = [[p.terms.get(mono, 0) for mono in _UNIT_MONOMIALS] for p in lifted]
    # char poly -l^3 + t l^2 - s l + d with t = trace, s = 2nd invariant, d = det
    t = J[0][0] + J[1][1] + J[2][2]
    s = (J[0][0] * J[1][1] - J[0][1] * J[1][0]
         + J[0][0] * J[2][2] - J[0][2] * J[2][0]
         + J[1][1] * J[2][2] - J[1][2] * J[2][1])
    d = (J[0][0] * (J[1][1] * J[2][2] - J[1][2] * J[2][1])
         - J[0][1] * (J[1][0] * J[2][2] - J[1][2] * J[2][0])
         + J[0][2] * (J[1][0] * J[2][1] - J[1][1] * J[2][0]))
    char_ok = (t == 0 and s == delta and d == 0)

    sqrt_delta = _rational_sqrt(delta)
    normalized = None
    system = None
    if sqrt_delta:                # delta > 0 and a rational square
        sd = sqrt_delta
        M = [[Fraction(1), Fraction(0), Fraction(0)],
             [(L * delta + P0 * Q0) / (P0 * P0), sd / (P0 * P0), Fraction(0)],
             [R0 / P0, -L * sd * R0 / P0, Fraction(1)]]
        Minv = _inv3(M)
        sub = {"x": _row_poly(M, 0), "y": _row_poly(M, 1), "z": _row_poly(M, 2)}
        composed = [lin.substitute(sub) * p.substitute(sub) for lin, p in zip(lins, polys)]
        normalized_full = []
        for i in range(3):
            comp = Poly()
            for j in range(3):
                comp = comp + composed[j].scale(Minv[i][j])
            normalized_full.append(comp.scale(1 / sd))
        lin_expected = (Poly({(0, 1, 0, 0, 0): Fraction(-1)}),
                        Poly({(1, 0, 0, 0, 0): Fraction(1)}), Poly())
        # the constant and linear part must be (-y, x, 0) exactly
        offsets = [Poly({m: c for m, c in comp.terms.items() if sum(m[:3]) <= 1}) - expect
                   for comp, expect in zip(normalized_full, lin_expected)]
        normalized = tuple(Poly({m: c for m, c in comp.terms.items() if sum(m[:3]) > 1})
                           for comp in normalized_full)
        if not any(offsets):
            system = validate_hopf_zero(*normalized)
    return LiftFamily(L=L, delta=delta, lifted=lifted, a0=a0, b0=b0,
                      char_poly_ok=char_ok, sqrt_delta=sqrt_delta,
                      normalized=normalized, system=system)


def _row_poly(M, i) -> Poly:
    return (Poly.variable("x").scale(M[i][0]) + Poly.variable("y").scale(M[i][1])
            + Poly.variable("z").scale(M[i][2]))


def _inv3(M):
    a, b, c = M[0]
    d, e, f = M[1]
    g, h, i = M[2]
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if det == 0:
        raise LiftError("singular normalizing matrix")
    adj = [[e * i - f * h, c * h - b * i, b * f - c * e],
           [f * g - d * i, a * i - c * g, c * d - a * f],
           [d * h - e * g, b * g - a * h, a * e - b * d]]
    return [[adj[r][s] / det for s in range(3)] for r in range(3)]


# ---------------------------------------------------------------------------
# parameter tuning
# ---------------------------------------------------------------------------

@dataclass
class LiftTuning:
    L_star: Fraction
    delta_star: Fraction
    family: LiftFamily
    report: CriteriaReport
    tuned_system: HopfZeroSystem          # Y: the exact lift plus ELL1_TERM z^3 in R
    A_coeffs: Tuple[Fraction, Fraction, Fraction]    # A(L) = A0 + A1 L + A2 L^2
    A_limit: Fraction                                # A2 (the L^2 coefficient)
    A_limit_printed: Fraction


class OriginJet(NamedTuple):
    """The seed (P, Q, R) at the origin: all that Omega of its lift reads."""
    value: Tuple[Fraction, Fraction, Fraction]                  # P0, Q0, R0
    gradient: Tuple[Tuple[Fraction, Fraction, Fraction], ...]   # (d/dx, d/dy, d/dz) of each


def origin_jet(seed_field) -> OriginJet:
    """Value and (x, y, z) gradient of each seed component at the origin: its
    constant and linear coefficients.  A seed that depends on mu or eps is a
    LiftError: its lift could not be a Hopf-Zero system."""
    polys = tuple(as_poly(c) for c in seed_field)
    if any(m[3] or m[4] for p in polys for m in p.terms):
        raise LiftError("the seed field must not depend on mu or eps")
    return OriginJet(
        tuple(p.terms.get(_CONSTANT, Fraction(0)) for p in polys),
        tuple(tuple(p.terms.get(m, Fraction(0)) for m in _UNIT_MONOMIALS)
              for p in polys))


def omega_coefficients(jet: OriginJet) -> Tuple[Tuple[Fraction, ...], ...]:
    """Omega(L, delta) = sum_j delta^j sum_i rows[j][i] L^i of the normalized
    lift, from the seed's value and gradient at the point (`origin_jet`).
    With K = P0 Qz - Pz Q0, M = P0 Ry - Py R0 and
    N_k = P0^2 Q0 Rx - P0^2 Qx R0 - P0 Qz R0^2 + Pz Q0 R0^2 + k Q0^2 M,

      P0^5 Q0^2 Omega = 2 P0^3 Q0^2 R0^2 K^2 L^2 - 2 P0^2 Q0 K N_1 L - 2 P0 Q0^2 K M
        + delta (4 P0^2 Q0 R0^2 K^2 L^3 - 2 P0 K N_2 L^2 - 2 Q0 K M L)
        + delta^2 (2 P0 R0^2 K^2 L^4 - 2 Q0 K M L^3),

    the normalization of `build_lift_family` on the seed's 1-jet.  Row 0 is
    A(L), its L^2 coefficient `printed_A_limit`.  Runs on symbols too."""
    (P0, Q0, R0), ((_, Py, Pz), (Qx, _, Qz), (Rx, Ry, _)) = jet
    if P0 == 0 or Q0 == 0:
        raise ZeroComponentAtP(f"P(0) = {P0}, Q(0) = {Q0}; both must be nonzero")
    K = P0 * Qz - Pz * Q0
    KM = K * (P0 * Ry - Py * R0)
    N = P0 * P0 * (Q0 * Rx - Qx * R0) - K * R0 * R0
    G = 2 * R0 * R0 * K * K
    D = P0 ** 5 * Q0 * Q0
    rows = ((-2 * P0 * Q0 * Q0 * KM, -2 * P0 * P0 * Q0 * (K * N + Q0 * Q0 * KM),
             P0 ** 3 * Q0 * Q0 * G),
            (0, -2 * Q0 * KM, -2 * P0 * (K * N + 2 * Q0 * Q0 * KM), 2 * P0 * P0 * Q0 * G),
            (0, 0, 0, -2 * Q0 * KM, P0 * G))
    return tuple(tuple(c / D for c in row) for row in rows)


def _horner(coefficients: Sequence[Fraction], t: Fraction) -> Fraction:
    value = Fraction(0)
    for c in reversed(coefficients):
        value = value * t + c
    return value


def printed_A_limit(jet: OriginJet) -> Fraction:
    """The stated limit of A(L)/L^2 for the translated seed field, read from
    its `origin_jet`."""
    (P0, Q0, R0), ((_, _, Pz), (_, _, Qz), _) = jet
    return 2 * R0 * R0 * (Q0 * Pz - P0 * Qz) ** 2 / (P0 * P0)


def _least_exponent(positive, k: int) -> int:
    """The least j >= k with positive(j), for a predicate that holds for
    some j and, once it holds, holds for every larger j.  It tries k, then
    2k, 4k, ... (1, 2, 4, ... for k = 0) until one holds, then bisects the
    last gap: about 2 log2(j) calls in all."""
    if positive(k):
        return k
    lo, hi = k, max(2 * k, 1)                 # positive(lo) is false
    while not positive(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if positive(mid) else (mid, hi)
    return hi


def tune_lift_parameters(seed_field) -> LiftTuning:
    """Read (L*, delta*) off the closed form of Omega(L, delta), build that
    one family, add `ELL1_TERM` z^3 to R, and run the criteria on that
    system Y.

    L* is the least 2^k (k >= 0) with A(L*) = Omega(L*, 0) > 0, and delta*
    the largest 4^-k (k >= 1) with Omega(L*, delta*) > 0; each exponent is
    found by doubling, then bisection (`_least_exponent`), in a number of
    Horner evaluations logarithmic in it.  Both searches end:
      * A(L) = A0 + A1 L + A2 L^2 with A2 = `printed_A_limit` >= 0, so once
        A(1) <= 0 a power of two with A > 0 exists iff A2 > 0 or A1 > 0,
        and past the first such power A stays positive (a convex A that
        has risen from A(1) <= 0 keeps rising).  Otherwise, the K = 0 seed
        among them (every coefficient of Omega is 0), no L >= 1 works: a
        NoPositiveOmegaFound.
      * Omega(L*, delta) is a quadratic in delta that is A(L*) > 0 at
        delta = 0, so it is positive for every small enough delta, and once
        Omega(L*, 1/4) <= 0 its one root in (0, 1/4] splits the powers
        4^-k into those that fail and, past them, those that hold.

    The coefficients of Omega are read once (`omega_coefficients`); the
    built family's Omega must equal the closed form's.

    The exact lift's ell_1 is 0 by construction: each lifted component is
    lin_i(x, y) times a seed component, so the field vanishes on the line
    x = y = 0, the kernel of its linear part and hence the normalized z
    axis.  Every pure-z partial is then 0, and in `_ell1_repaired`, written
    S^2 (R(0,0,2) (...) - 4 S D (3 P(0,0,2) R(0,1,1) - 3 Q(0,0,2) R(1,0,1)
    + R(0,0,3))), only the R(0,0,3) term survives a term c z^3 added to R,
    whose raw partial R(0,0,3) is 6 c:

        ell_1(Y) = -4 S^3 D (6 c) = -24 S^3 d c = 24 c S^2 Omega,

    with d = D = P(1,0,1) + Q(0,1,1) and Omega = -d S.  The term moves
    none of S, d, Omega or beta, and this ell_1 is nonzero where Omega > 0.
    It is the paper's "small perturbation, if necessary", and Y's ell_1
    must equal it exactly; the report reads the ell_1 that Y holds."""
    polys = tuple(as_poly(c) for c in seed_field)
    jet = origin_jet(polys)
    rows = omega_coefficients(jet)
    A = rows[0]
    if A[2] <= 0 and A[1] <= 0 and sum(A) <= 0:       # sum(A) = A(1)
        raise NoPositiveOmegaFound(f"A(L) = {A[0]} + {A[1]} L + {A[2]} L^2 "
                                   f"is <= 0 for every L >= 1")
    L_star = Fraction(2) ** _least_exponent(lambda k: _horner(A, Fraction(2) ** k) > 0, 0)
    # Omega(L*, delta) as a polynomial in delta; its constant term is A(L*)
    omega_star = [_horner(row, L_star) for row in rows]
    delta_star = Fraction(1, 4) ** _least_exponent(
        lambda k: _horner(omega_star, Fraction(1, 4) ** k) > 0, 1)

    fam = build_lift_family(polys, L_star, delta_star)
    omega = _horner(omega_star, delta_star)
    built = fam.system.omega if fam.system else None     # None: no exact normalization
    if built != omega:
        raise LiftError(f"closed-form Omega {omega} differs from Omega {built} "
                        f"of the lift at L={L_star}, delta={delta_star}")

    exact = fam.system
    sys_y = replace(exact, R=exact.R + Poly({_Z3: ELL1_TERM}))
    ell1 = -24 * exact.quadratic_sum ** 3 * exact.divergence_pair * ELL1_TERM
    if sys_y.ell1_exact != ell1:
        raise LiftError(f"closed-form ell_1 {ell1} differs from ell_1 {sys_y.ell1_exact} "
                        f"of the lift plus {ELL1_TERM} z^3")
    report = criteria_report(sys_y, PerturbationFamily.simple(sys_y.beta))
    return LiftTuning(L_star=L_star, delta_star=delta_star, family=fam,
                      report=report, tuned_system=sys_y,
                      A_coeffs=A, A_limit=A[2],
                      A_limit_printed=printed_A_limit(jet))
