"""Degree lift: from a degree-m seed field to a degree-(m+1) family whose
origin is a tunable Hopf-Zero point.

Pipeline: find a vertical separating plane through a far-out regular point
of the (jittered) seed field, translate that point to the origin, assemble
the two-parameter lifted family, verify its exact spectral identities, and
conjugate to normal position for the criteria machinery.

All lift algebra is exact: (L, delta) are rationals and the tuning grid
uses perfect-square deltas so the Jordanizing change of variables (which
carries sqrt(delta)) stays inside the rationals and the lifted system can
round-trip through the expression grammar.

Tuning samples Omega of the normalized lift on a grid of (L, delta).  Each
sample is read from the seed's value and gradient at the point (the
`OriginJet`) by 3x3 rational algebra; only the tuned (L*, delta*) is built
as a whole `Poly` system.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .criteria import (
    CriteriaReport, HopfZeroSystem, PerturbationFamily, criteria_report,
    validate_hopf_zero,
)
from .fieldexpr import Poly, as_poly

MAX_JITTER_ATTEMPTS = 100     # rational jitters tried for a separating plane
_CONSTANT = (0, 0, 0, 0, 0)
_UNIT_MONOMIALS = ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))   # x, y, z


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
    direction: Tuple[Fraction, Fraction, Fraction]      # field vector at the point
    plane_distance: float                               # dist(plane, ball center)
    containment_residual: float
    field: Tuple[Poly, Poly, Poly]                      # possibly jittered seed
    jitter_magnitude: float


# ---------------------------------------------------------------------------
# separating plane (constructive lemma)
# ---------------------------------------------------------------------------

def _poly_on_plane(p: Poly) -> Dict[Tuple[int, int], Fraction]:
    """Restrict to x3 = 0: bivariate coefficient table in (x1, x2)."""
    out: Dict[Tuple[int, int], Fraction] = {}
    for mono, c in p.terms.items():
        i, j, k, a, b = mono
        if k == 0 and a == 0 and b == 0:
            out[(i, j)] = out.get((i, j), Fraction(0)) + c
    return {k_: v for k_, v in out.items() if v}


def _leading_at_10(table: Dict[Tuple[int, int], Fraction], m: int) -> Fraction:
    """Value of the degree-m homogeneous part at (1, 0) (= the x1^m coeff)."""
    return table.get((m, 0), Fraction(0))


def _eval_biv(table, x1, x2):
    return sum(c * x1 ** i * x2 ** j for (i, j), c in table.items())


def _univariate_gcd_degree(a: List[Fraction], b: List[Fraction]) -> int:
    """Degree of gcd of two univariate rational polynomials (Euclid)."""
    def strip(p):
        while p and p[-1] == 0:
            p.pop()
        return p
    a, b = strip(list(a)), strip(list(b))
    while b:
        if len(a) < len(b):
            a, b = b, a
            continue
        lead = a[-1] / b[-1]
        shift = len(a) - len(b)
        a = strip([ai - lead * (b[i - shift] if 0 <= i - shift < len(b) else 0)
                   for i, ai in enumerate(a)])
        a, b = b, a
    return max(len(a) - 1, 0)


def _restrict_univariate(table, var: int, value: Fraction) -> List[Fraction]:
    """Substitute x_var = value; return dense coefficients in the other one."""
    deg = max((k[1 - var] for k in table), default=0)
    out = [Fraction(0)] * (deg + 1)
    for (i, j), c in table.items():
        fixed, free = (i, j) if var == 0 else (j, i)
        out[free] += c * value ** fixed
    return out


def _have_common_factor(f, g, trials: int = 4) -> bool:
    """Probabilistic-but-seeded check: f, g share a nonconstant factor iff
    their restrictions to several lines keep a nontrivial gcd."""
    if not f or not g:
        return True
    if all(i == 0 and j == 0 for (i, j) in f) or all(i == 0 and j == 0 for (i, j) in g):
        return False
    samples = [Fraction(3, 7), Fraction(-5, 11), Fraction(9, 4), Fraction(-13, 8)]
    for var in (0, 1):
        if all(_univariate_gcd_degree(_restrict_univariate(f, var, t),
                                      _restrict_univariate(g, var, t)) > 0
               for t in samples[:trials]):
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


def find_separating_plane(field, ball: Ball, seed: int = 0) -> SeparatingPlane:
    """Regular point p far on the x1-axis whose field line stays clear of the
    ball, plus the vertical plane through it.

    Scans x = radius * 2^(k/2), k = 1..40, accepting the first x where the
    line angle exceeds both ball-tangent angles.  When f = X1(x1,x2,0) and
    g = X2(x1,x2,0) share a factor or a leading coefficient vanishes, a
    seeded rational jitter is applied (magnitude ladder 1e-6, 1e-5, 1e-4).
    """
    polys = tuple(as_poly(c) for c in field)
    rng = random.Random(seed)
    m = _field_degree(polys)
    jitter_used = 0.0

    attempt = 0
    while attempt <= MAX_JITTER_ATTEMPTS:
        f = _poly_on_plane(polys[0])
        g = _poly_on_plane(polys[1])
        ok = (not _have_common_factor(f, g)
              and _leading_at_10(f, m) != 0 and _leading_at_10(g, m) != 0)
        if ok:
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

    for k in range(1, 41):
        x = float(ball.radius) * 2.0 ** (k / 2.0)
        fx = _eval_biv(f, Fraction(x).limit_denominator(10 ** 12), Fraction(0))
        gx = _eval_biv(g, Fraction(x).limit_denominator(10 ** 12), Fraction(0))
        if fx == 0:
            continue
        dist = math.hypot(x - bx, -by)
        if dist <= rho:
            continue
        alpha = math.asin(min(1.0, rho / dist))
        base = math.atan2(by - 0.0, bx - x)
        theta_p = _line_angle(base + alpha)
        theta_m = _line_angle(base - alpha)
        phi = math.atan2(float(gx), float(fx))
        phi = _line_angle(phi)
        if abs(phi) > max(abs(theta_p), abs(theta_m)):
            px = Fraction(x).limit_denominator(10 ** 12)
            p = (px, Fraction(0), Fraction(0))
            direction = tuple(_eval_at(polys[i], p) for i in range(3))
            if all(d == 0 for d in direction):
                continue                      # singular point: keep scanning
            a0, b0 = Fraction(gx), Fraction(-fx)
            plane_dist = abs(float(a0) * (bx - float(px)) + float(b0) * by) \
                / math.hypot(float(a0), float(b0))
            if plane_dist <= rho:
                continue
            resid = abs(float(a0 * direction[0] + b0 * direction[1])) / \
                max(1.0, math.hypot(float(a0), float(b0)))
            return SeparatingPlane(
                point=p, coefficients=(a0, b0, Fraction(0)),
                direction=direction, plane_distance=plane_dist,
                containment_residual=resid, field=polys,
                jitter_magnitude=jitter_used)
    raise NoSeparatingXFound("scan x = radius * 2^(k/2), k = 1..40 exhausted")


def _line_angle(angle: float) -> float:
    """Angle of an undirected line with the x1-axis, in (-pi/2, pi/2]."""
    a = math.fmod(angle, math.pi)
    if a > math.pi / 2:
        a -= math.pi
    elif a <= -math.pi / 2:
        a += math.pi
    return a


def _eval_at(p: Poly, point) -> Fraction:
    return p.eval(x=point[0], y=point[1], z=point[2], mu=Fraction(0), eps=Fraction(0))


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
    linear_residual: float
    system: Optional[HopfZeroSystem]

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
    for any other delta `normalized` and `system` are None.
    """
    polys = tuple(as_poly(c) for c in seed_field)
    L, delta = Fraction(L), Fraction(delta)
    P0 = _eval_at(polys[0], (0, 0, 0))
    Q0 = _eval_at(polys[1], (0, 0, 0))
    if P0 == 0 or Q0 == 0:
        raise ZeroComponentAtP(f"P(0) = {P0}, Q(0) = {Q0}; both must be nonzero")
    a0, b0 = Q0, -P0
    a1 = L / P0
    b2 = -L / Q0
    a2 = (1 + 2 * P0 * Q0 * L + L * L * delta) / (P0 * P0 * Q0)

    X = Poly.variable("x")
    Y = Poly.variable("y")
    lin1 = X.scale(a0 + delta * a1) + Y.scale(b0)
    lin2 = X.scale(a0 + delta * a2) + Y.scale(b0 + delta * b2)
    lin3 = X.scale(a0) + Y.scale(b0)
    lifted = (lin1 * polys[0], lin2 * polys[1], lin3 * polys[2])

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
    residual = math.inf
    if sqrt_delta:                # delta > 0 and a rational square
        sd = sqrt_delta
        R0 = _eval_at(polys[2], (0, 0, 0))
        M = [[Fraction(1), Fraction(0), Fraction(0)],
             [(L * delta + P0 * Q0) / (P0 * P0), sd / (P0 * P0), Fraction(0)],
             [R0 / P0, -L * sd * R0 / P0, Fraction(1)]]
        Minv = _inv3(M)
        sub = {"x": _row_poly(M, 0), "y": _row_poly(M, 1), "z": _row_poly(M, 2)}
        composed = [p.substitute(sub) for p in lifted]
        normalized_full = []
        for i in range(3):
            comp = Poly()
            for j in range(3):
                comp = comp + composed[j].scale(Minv[i][j])
            normalized_full.append(comp.scale(1 / sd))
        lin_expected = (Poly({(0, 1, 0, 0, 0): Fraction(-1)}),
                        Poly({(1, 0, 0, 0, 0): Fraction(1)}), Poly())
        residual = 0.0
        nonlinear = []
        for comp, expect in zip(normalized_full, lin_expected):
            stripped = {}
            for mono, c in comp.terms.items():
                total = mono[0] + mono[1] + mono[2]
                if total <= 1:
                    want = expect.terms.get(mono, Fraction(0))
                    residual = max(residual, abs(float(c - want)))
                else:
                    stripped[mono] = c
            nonlinear.append(Poly(stripped))
        normalized = tuple(nonlinear)
        if residual <= 1e-12:
            system = validate_hopf_zero(*normalized)
    return LiftFamily(L=L, delta=delta, lifted=lifted, a0=a0, b0=b0,
                      char_poly_ok=char_ok, sqrt_delta=sqrt_delta,
                      normalized=normalized, linear_residual=residual,
                      system=system)


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
    tuned_system: HopfZeroSystem          # jittered when the exact lift has ell1 = 0
    ell1_jitter: float
    A_coeffs: Tuple[Fraction, Fraction, Fraction]    # A(L) = A0 + A1 L + A2 L^2
    A_limit: Fraction                                # A2 (the L^2 coefficient)
    A_limit_printed: Fraction
    delta_linearity_residual: float


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


def omega_of_lift(jet: OriginJet, L, delta) -> Fraction:
    """Omega of the normalized lift X_{L, delta}, read from the seed's value
    and gradient at the point (`origin_jet`) with no polynomial work.

    The order-2 part of lifted component i is lin_i(x) (grad_i . x).  Under
    x = M u its Hessian is H_i = a_i b_i^T + b_i a_i^T with a_i = M^T lin_i
    and b_i = M^T grad_i, and the normalized Hessians are
    (1/sqrt(delta)) sum_j Minv[i][j] H_j, so
    Omega = -(H_P[x,z] + H_Q[y,z]) (H_R[x,x] + H_R[y,y]) is a few rational
    products.  Equal to Omega of `build_lift_family(seed, L, delta).system`
    for every delta that is a positive rational square."""
    P0, Q0, _ = jet.value
    if P0 == 0 or Q0 == 0:
        raise ZeroComponentAtP(f"P(0) = {P0}, Q(0) = {Q0}; both must be nonzero")
    L, delta = Fraction(L), Fraction(delta)
    sqrt_delta = _rational_sqrt(delta)
    if not sqrt_delta:
        raise LiftError(f"normalization failed at L={L}, delta={delta}")
    return _lift_omega(jet, L, delta, sqrt_delta)


def _lift_omega(jet, L, delta, sd):
    """omega_of_lift on checked arguments, sd = sqrt(delta); plain field
    arithmetic, so it also runs on symbols."""
    (P0, Q0, R0), grads = jet
    # M = [[1, 0, 0], [m10, m11, 0], [m20, m21, 1]] of build_lift_family and
    # the rows (n10, n11, 0), (n20, n21, 1) of its inverse; row 0 is (1, 0, 0)
    m10 = (L * delta + P0 * Q0) / (P0 * P0)
    m11 = sd / (P0 * P0)
    m20 = R0 / P0
    m21 = -L * sd * R0 / P0
    n10, n11, n21 = -m10 / m11, 1 / m11, -m21 / m11
    n20 = -m20 - m10 * n21
    # the (x, y) coefficients of lin_1, lin_2, lin_3 (their z coefficient is 0)
    lins = ((Q0 + delta * L / P0, -P0),
            (Q0 + delta * (1 + 2 * P0 * Q0 * L + L * L * delta) / (P0 * P0 * Q0),
             -P0 - delta * L / Q0),
            (Q0, -P0))
    a = [(lx + m10 * ly, m11 * ly) for lx, ly in lins]             # M^T lin_i
    b = [(gx + m10 * gy + m20 * gz, m11 * gy + m21 * gz)            # M^T grad_i
         for gx, gy, gz in grads]                                  # (z entry: gz)
    # H_i[x,z] = a_i[x] gz_i, H_i[y,z] = a_i[y] gz_i and, as a_i[z] = 0,
    # H_i[x,x] + H_i[y,y] = 2 (a_i[x] b_i[x] + a_i[y] b_i[y])
    gz = [g[2] for g in grads]
    divergence_pair = (a[0][0] * gz[0] + n10 * a[0][1] * gz[0]
                       + n11 * a[1][1] * gz[1]) / sd
    traces = [ax * bx + ay * by for (ax, ay), (bx, by) in zip(a, b)]
    quadratic_sum = 2 * (n20 * traces[0] + n21 * traces[1] + traces[2]) / sd
    return -divergence_pair * quadratic_sum


def printed_A_limit(jet: OriginJet) -> Fraction:
    """The stated limit of A(L)/L^2 for the translated seed field, read from
    its `origin_jet`."""
    (P0, Q0, R0), ((_, _, Pz), (_, _, Qz), _) = jet
    return 2 * R0 * R0 * (Q0 * Pz - P0 * Qz) ** 2 / (P0 * P0)


def lift_samples(name: str, values: Sequence, squares: bool = False) -> List[Fraction]:
    """The distinct rationals of the tuning grid `name`, in their first order.

    Each exact fit reads three samples, so a grid needs at least three
    distinct values; with `squares` (the delta grid) every sample must be a
    positive rational square, so that the normalization stays exact.
    Raises LiftError otherwise."""
    samples = list(dict.fromkeys(Fraction(v) for v in values))
    if len(samples) < 3:
        raise LiftError(f"{name} needs at least three distinct values, got {len(samples)}")
    if squares:
        for dv in samples:
            if dv <= 0 or _rational_sqrt(dv) is None:
                raise LiftError(f"delta sample {dv} is not a positive rational square")
    return samples


def tune_lift_parameters(seed_field,
                         L_values: Optional[Sequence[Fraction]] = None,
                         delta_values: Optional[Sequence[Fraction]] = None,
                         seed: int = 0) -> LiftTuning:
    """Recover A(L), B(L, delta) by exact interpolation of Omega(L, delta)
    on square-delta samples, pick the smallest grid L with A(L) > 0 and the
    largest admissible delta, and run the criteria on the tuned system.

    The seed's value and gradient at the point are read once; every Omega
    sample comes from them (`omega_of_lift`), and only the tuned family is
    built as a `Poly` system."""
    polys = tuple(as_poly(c) for c in seed_field)
    jet = origin_jet(polys)
    L_values = lift_samples("L_values", [Fraction(2) ** k for k in range(0, 7)]
                            if L_values is None else L_values)
    delta_values = lift_samples("delta_values", [Fraction(1, 4 ** k) for k in range(1, 7)]
                                if delta_values is None else delta_values, squares=True)

    # Omega(L, delta) is quadratic in delta (A + delta*B, B linear in delta):
    # three small square deltas give the exact delta-expansion at each L
    probe_deltas = sorted(delta_values)[:3]
    omega_samples: Dict[Tuple[Fraction, Fraction], Fraction] = {}
    A_of_L: Dict[Fraction, Fraction] = {}
    for Lv in L_values:
        vals = []
        for dv in probe_deltas:
            om = omega_of_lift(jet, Lv, dv)
            omega_samples[(Fraction(Lv), Fraction(dv))] = om
            vals.append((Fraction(dv), om))
        A_of_L[Fraction(Lv)] = _quadratic_coeffs(vals)[0]

    # A(L) is quadratic in L: interpolate exactly from three samples and
    # verify the rest of the grid reproduces it
    Ls = sorted(A_of_L)
    (c0, c1, c2) = _quadratic_coeffs([(l, A_of_L[l]) for l in Ls[:3]])
    for l in Ls[3:]:
        if c0 + c1 * l + c2 * l * l != A_of_L[l]:
            raise LiftError("A(L) is not quadratic on the sample grid")

    L_star = next((l for l in Ls if A_of_L[l] > 0), None)
    if L_star is None:
        raise NoPositiveOmegaFound("A(L) <= 0 on the whole L grid")

    report = None
    family = None
    delta_star = None
    tuned_system = None
    jitter_mag = 0.0
    for dv in sorted(delta_values, reverse=True):
        fam = build_lift_family(polys, L_star, dv)
        if fam.system is None or fam.system.omega <= 0:
            continue
        if fam.system.quadratic_sum == 0:
            continue
        sys_y = fam.system
        pf = PerturbationFamily.simple(sys_y.beta)
        rep = criteria_report(sys_y, pf)
        # the exact lift has ell_1 = 0 identically (verified symbolically on
        # probe seeds): realize the "small perturbation, if necessary" by a
        # seeded rational jitter of the nonlinear jets of the normalized
        # system, which preserves the Hopf-Zero form and the degree
        zero_tol = 1e-8 * (1.0 + float(sys_y.omega) ** 2)
        rng = random.Random(seed)
        if rep.base.ell1 is not None and abs(rep.base.ell1) <= zero_tol:
            for mag in (1e-6, 1e-5, 1e-4):
                cand = _jitter_nonlinear(sys_y, rng, mag)
                cand_rep = criteria_report(cand, PerturbationFamily.simple(cand.beta))
                cand_tol = 1e-8 * (1.0 + float(cand.omega) ** 2)
                if (cand_rep.base.ell1 is not None
                        and abs(cand_rep.base.ell1) > 100 * cand_tol):
                    sys_y, rep, jitter_mag = cand, cand_rep, mag
                    break
        delta_star, family, report, tuned_system = Fraction(dv), fam, rep, sys_y
        break
    if delta_star is None:
        raise NoPositiveOmegaFound("no delta in range keeps Omega > 0 with "
                                   "applicable criteria")

    # linearity of (Omega - A)/delta in delta at L_star
    checks = []
    for dv in probe_deltas:
        om = omega_samples[(L_star, dv)]
        checks.append((float(dv), float((om - A_of_L[L_star]) / dv)))
    slope = (checks[1][1] - checks[0][1]) / (checks[1][0] - checks[0][0])
    pred = checks[0][1] + slope * (checks[2][0] - checks[0][0])
    lin_residual = abs(pred - checks[2][1])

    return LiftTuning(L_star=L_star, delta_star=delta_star, family=family,
                      report=report, tuned_system=tuned_system,
                      ell1_jitter=jitter_mag,
                      A_coeffs=(c0, c1, c2), A_limit=c2,
                      A_limit_printed=printed_A_limit(jet),
                      delta_linearity_residual=lin_residual)


def _quadratic_coeffs(samples: Sequence[Tuple[Fraction, Fraction]]):
    (x1, y1), (x2, y2), (x3, y3) = samples
    # exact Lagrange, collected into monomial coefficients
    d1 = (x1 - x2) * (x1 - x3)
    d2 = (x2 - x1) * (x2 - x3)
    d3 = (x3 - x1) * (x3 - x2)
    c2 = y1 / d1 + y2 / d2 + y3 / d3
    c1 = (-y1 * (x2 + x3) / d1 - y2 * (x1 + x3) / d2 - y3 * (x1 + x2) / d3)
    c0 = (y1 * x2 * x3 / d1 + y2 * x1 * x3 / d2 + y3 * x1 * x2 / d3)
    return c0, c1, c2


def _jitter_nonlinear(sys_y: HopfZeroSystem, rng: random.Random,
                      magnitude: float) -> HopfZeroSystem:
    """Seeded rational jitter of the quadratic and cubic coefficients."""
    scale = 10 ** 9
    out = []
    for p in (sys_y.P, sys_y.Q, sys_y.R):
        q = Poly(dict(p.terms))
        for i in range(4):
            for j in range(4 - i):
                for k in range(4 - i - j):
                    if 2 <= i + j + k <= 3:
                        bump = Fraction(round(rng.uniform(-1, 1) * magnitude * scale),
                                        scale)
                        if bump:
                            q = q + Poly({(i, j, k, 0, 0): bump})
        out.append(q)
    return validate_hopf_zero(*out)
