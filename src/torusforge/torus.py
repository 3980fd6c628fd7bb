"""Certification of the bifurcated invariant torus by direct iteration.

The torus of the 3D flow meets the angular section in a closed invariant
curve of the return map.  Certification follows one orbit onto that curve,
fits the radius of its iterates about their centroid with a Fourier series
in the angle, measures on the same iterates the rotation number and the
normal Lyapunov exponent, both as weighted Birkhoff averages, and issues a
verdict.  The fit is one Cholesky factorization of the order-FOURIER_ORDER
design's Gram matrix, read off the samples' power sums, which gives the
residual of every lower order too; the order kept is the smallest one whose
rms is within FOURIER_TOLERANCE of the full order's.

Near the bifurcation the multipliers are 1 + O(eps^2), so raw transients
are long; a probe phase first iterates the seed xi + (amp, 0) until the
orbit statistics settle or it escapes.  The settled probe orbit then goes
on for TRANSIENT (500) more returns, and its next WINDOW (2048) iterates
are the certificate's samples.  Probe, transient and window are one warm
orbit (`ThetaReturnMap.orbit`): each return starts at the step the return
before it proposed last, so a sample is a pure function of the one before
it and that step, and agrees with a cold return of it to the integration
tolerance, not bit for bit.  An escape, before or after the probe settles,
or a probe settled on the fixed point xi, is no_torus.

Stability direction: the Neimark-Sacker curve has the opposite stability to
xi, so the probe runs backward if and only if det D Pi(xi) = |lambda|^2 < 1,
the direction in which xi repels; `observed_stability` records it, and a
no_torus note names it.  The rule the certificate checks it against is the
standard one: the curve attracts if and only if ell_1 < 0, a supercritical
bifurcation (Kuznetsov, Elements of Applied Bifurcation Theory, Thm 4.6),
and a note is added only where a located curve contradicts it.  The source
text, as transcribed here, states the opposite: the torus is "attracting for
positive leading Lyapunov slice and repelling for negative".  Every
certificate measured, for both signs of ell_1, follows the standard rule, so
the source's statement is taken to use another sign or time convention for
the slice; which one is unverified, since only the abstract of the source
is at hand.

The fixed point xi is the fixed-point Newton of `nsbranch`, seeded at the
Neimark-Sacker point's fixed point, which that point's own Newtons reached
from the map's averaged equilibrium (`ThetaReturnMap.averaged_equilibrium`,
the criteria's closed form), so certification reads no Melnikov pair.  The
fixed point, the probe, the orbit it goes on to and the samples are pairs of
Python floats, and the Fourier fit, the rotation number, the normal exponent
and the winding number run on them as they are: no numpy.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Tuple

from .criteria import AveragingError
from .flow import FlowError, IntegratorConfig
from .nsbranch import BranchPoint, _newton_fixed_point

NORMAL_SAMPLES = 512    # with 256 the worked example's lambda_n is 5 sigma from 0
SIGMA_MULTIPLE = 10     # the halves' difference underestimates the error
# the largest lock period looked for: with no cap every rho is near some
# rational, and longer locks fill tongues too narrow to be hit by chance
LOCK_DENOMINATOR = 64
FOURIER_ORDER = 32      # the order of the one design the curve is fitted in
FOURIER_TOLERANCE = 0.10  # the order kept is the lowest within this of the full rms
RESIDUAL_FACTOR = 1e-3  # torus_found needs rms <= factor * mean radius
PROBE_CHECK = 500       # the probe checks its statistics every PROBE_CHECK returns
PROBE_MAX = 6000        # and makes at most PROBE_MAX
TRANSIENT = 500         # returns of the settled probe orbit before the samples
WINDOW = 2048           # the samples: iterates of the one sampled orbit
ESCAPE_BOUND = 50.0     # an iterate with |r| or |w| beyond this has escaped
# the tolerances of the certifier's returns and jet1 transports
CERTIFY_INTEGRATOR = IntegratorConfig(atol=1e-11, rtol=1e-9)


class TorusError(RuntimeError):
    pass


class FixedPointNotFound(TorusError):
    pass


class NonMonotoneLift(TorusError):
    pass


@dataclass
class FourierCurve:
    center: Tuple[float, float]
    cos_coeffs: List[float]           # a_0 .. a_K
    sin_coeffs: List[float]           # b_1 .. b_K
    rms_residual: float

    @property
    def mean_radius(self) -> float:
        return self.cos_coeffs[0]


def _complex_sum(values) -> complex:
    return complex(math.fsum([v.real for v in values]), math.fsum([v.imag for v in values]))


def fit_fourier_curve(points: List[Tuple[float, float]]) -> FourierCurve:
    """Least-squares radius(angle) fit about the samples' centroid.

    The design [1, cos a, sin a, ..., cos Na, sin Na], N = FOURIER_ORDER, is
    never formed.  Its Gram matrix is Toeplitz plus Hankel in the power sums
    P_m = sum_j e^{i m a_j}, m <= 2N, so one pass over the samples builds it
    and the right-hand side b.  The leading blocks of its Cholesky factor L
    are the nested orders' factors, so with z = L^-1 b the first p columns
    leave the full order's squared residual, computed directly, plus
    sum_{j >= p} z_j^2.  The order is the smallest K >= 2 whose rms is
    within FOURIER_TOLERANCE of the full order's, and its coefficients solve
    the leading (2K+1)-block of L^T.  Samples that determine fewer than 2N +
    1 columns, a period-q orbit with q <= 2N + 1, end the factorization at
    the first pivot within rounding, and the columns before it end the full
    order."""
    n = len(points)
    cr = math.fsum([r for r, _ in points]) / n
    cw = math.fsum([w for _, w in points]) / n
    rad, unit = [], []                          # |rel| and e^{i a} = rel / |rel|
    for r, w in points:
        x, y = r - cr, w - cw
        rad.append(math.hypot(x, y))
        unit.append(complex(x / rad[-1], y / rad[-1]) if rad[-1] else 1 + 0j)  # atan2(0, 0) = 0
    P, R = [complex(n)], [complex(math.fsum(rad))]   # R_k = sum_j rad_j e^{i k a_j}
    power = unit
    for m in range(1, 2 * FOURIER_ORDER + 1):
        P.append(_complex_sum(power))
        if m <= FOURIER_ORDER:
            R.append(_complex_sum([r * v for r, v in zip(rad, power)]))
        power = [v * u for v, u in zip(power, unit)]

    def gram(j, sine_j, k, sine_k):
        # sum_j of (sin if sine_j else cos)(j a) times (sin if sine_k else cos)(k a)
        plus = P[j + k]
        minus = P[j - k] if j >= k else P[k - j].conjugate()
        if sine_j == sine_k:
            return 0.5 * (minus.real - plus.real if sine_j else minus.real + plus.real)
        return 0.5 * ((plus + minus).imag if sine_j else (plus - minus).imag)

    columns = [(0, False)] + [(k, s) for k in range(1, FOURIER_ORDER + 1) for s in (False, True)]
    b = [R[k].imag if s else R[k].real for k, s in columns]
    # A pivot is the squared distance of its column from the span of the
    # columns before it.  Each e^{i m a} is a running product, off by about
    # sqrt(m) roundings, so the Gram entries, sums over n samples, round at
    # about sqrt(2N) u n; the rows of L below a pivot d are divided by
    # sqrt(d), so each later pivot is uncertain by about sqrt(2N) u n^2 /
    # d_min, d_min the smallest pivot so far.  The first pivot within that
    # bound is rounding: its column lies in the span of the ones before it,
    # as on a period-q orbit, q <= 2N + 1, and the factorization stops there.
    rounding = math.sqrt(2 * FOURIER_ORDER) * math.ulp(1.0) * n * n
    L, z, smallest = [], [], float(n)
    for i, (k, s) in enumerate(columns):
        row = []
        for j in range(i):
            row.append((gram(k, s, *columns[j])
                        - math.fsum([x * y for x, y in zip(row, L[j])])) / L[j][j])
        pivot = gram(k, s, k, s) - math.fsum([x * x for x in row])
        if not pivot > rounding / smallest:
            break
        smallest = min(smallest, pivot)
        row.append(math.sqrt(pivot))
        L.append(row)
        z.append((b[i] - math.fsum([x * y for x, y in zip(row, z)])) / row[i])

    def solve(p):
        c = [0.0] * p
        for i in reversed(range(p)):
            c[i] = (z[i] - math.fsum([L[j][i] * c[j] for j in range(i + 1, p)])) / L[i][i]
        return c

    # the p columns the samples determine end the full order; where p is
    # even the last of them is a cosine, and its sine, which lies in their
    # span, gets the coefficient 0
    p = len(L)
    top = p // 2
    coef = solve(p) + [0.0] * (2 * top + 1 - p)
    fit = [0j] * n                              # the full order's sum_k (a_k - i b_k) e^{i k a}
    for k in range(top, 0, -1):
        d = complex(coef[2 * k - 1], -coef[2 * k])
        fit = [(f + d) * u for f, u in zip(fit, unit)]
    full = math.fsum([(r - coef[0] - f.real) ** 2 for r, f in zip(rad, fit)])
    rms = [math.sqrt((full + math.fsum([v * v for v in z[min(2 * K + 1, p):]])) / n)
           for K in range(top + 1)]            # rms[K]: the order-K fit's
    K = next(K for K in range(min(2, top), top + 1)
             if rms[K] <= (1.0 + FOURIER_TOLERANCE) * rms[top])
    c = coef if K == top else solve(2 * K + 1)
    return FourierCurve(center=(cr, cw), cos_coeffs=[c[0]] + c[1::2],
                        sin_coeffs=c[2::2], rms_residual=rms[K])


def _wrapped(turn: float) -> float:
    """An angle increment taken into [-pi, pi]."""
    if turn < -math.pi:
        return turn + 2 * math.pi
    return turn - 2 * math.pi if turn > math.pi else turn


def rotation_number(points: List[Tuple[float, float]], center: Tuple[float, float]
                    ) -> Tuple[float, float]:
    """Rotation number (revolutions per return) of consecutive iterates on a
    closed curve about `center`, Birkhoff-weighted, with an uncertainty
    estimate.

    Raises NonMonotoneLift when the samples are not a radial graph over the
    angle about the center (the lift is then ill-defined).
    """
    if len(points) < 256:
        raise TorusError(f"need >= 256 consecutive iterates, got {len(points)}")
    cr, cw = center
    ang = [math.atan2(w - cw, r - cr) for r, w in points]
    rad = [math.hypot(r - cr, w - cw) for r, w in points]

    sorted_rad = [rad[i] for i in sorted(range(len(ang)), key=ang.__getitem__)]
    jumps = [abs(b - a) for a, b in zip(sorted_rad, sorted_rad[1:])]
    if max(jumps) > 0.5 * math.fsum(sorted_rad) / len(sorted_rad):
        raise NonMonotoneLift("samples are not a radial graph over the angle")

    return birkhoff_average([_wrapped(b - a) / (2 * math.pi) for a, b in zip(ang, ang[1:])])


def birkhoff_average(values: List[float]) -> Tuple[float, float]:
    """Weighted Birkhoff average of a sequence along one orbit, and its
    uncertainty, the difference of the averages over the two halves.  The
    weights exp(-1/(t(1-t))) converge faster than any power of the length on
    a quasiperiodic orbit (Das, Sander, Saiki & Yorke, Nonlinearity 30, 2017)."""

    def weighted(v):
        w = [math.exp(-1.0 / (t * (1.0 - t))) for t in ((i + 0.5) / len(v) for i in range(len(v)))]
        return math.fsum([a * b for a, b in zip(w, v)]) / math.fsum(w)

    half = len(values) // 2
    return weighted(values), abs(weighted(values[:half]) - weighted(values[half:]))


def normal_exponent(tmap, samples: List[Tuple[float, float]], mu: float, eps: float
                    ) -> Tuple[Optional[float], Optional[float]]:
    """(lambda_n, sigma_n) per forward return of the curve through `samples`,
    the `birkhoff_average` of log |det D Pi| over the first NORMAL_SAMPLES:
    the sum of both exponents, which is the normal one where an irrational
    rotation makes the tangential one 0.  Negative attracts.  The forward
    jet1 serves either probe direction, one warm transport after another
    (`jet1_along`); (None, None) when a jet1 fails."""
    logdet = []
    try:
        for jet in tmap.jet1_along(samples[:NORMAL_SAMPLES], mu, eps):
            (a, b), (c, d) = jet.A
            logdet.append(math.log(abs(a * d - b * c)))
    except FlowError:
        return None, None
    return birkhoff_average(logdet)


def normal_hyperbolicity(rho: Optional[float], rho_unc: Optional[float],
                         lam: Optional[float], lam_unc: Optional[float]
                         ) -> Tuple[Optional[bool], Optional[str]]:
    """(verdict, note): Fenichel's rate condition against a tangential rate
    of 0.  None, with the reason, when the exponent is missing or the rate is
    not known to be 0: no rho, or rho within SIGMA_MULTIPLE uncertainties of
    a rational of denominator at most LOCK_DENOMINATOR (a lock)."""
    if lam is None:
        return None, "jet1 failed on the samples: no normal exponent"
    if rho is None:
        return None, "no rotation number: normal hyperbolicity not judged"
    # no average is known better than the rounding of its terms
    rho_unc, lam_unc = (max(u, math.ulp(1.0)) for u in (rho_unc, lam_unc))
    lock = Fraction(rho).limit_denominator(LOCK_DENOMINATOR)
    if abs(rho - float(lock)) <= SIGMA_MULTIPLE * rho_unc:
        return None, (f"rotation number not told from {lock}, where the "
                      "tangential rate is unknown: normal hyperbolicity not judged")
    return abs(lam) >= SIGMA_MULTIPLE * lam_unc, None


def winding_number(curve_points: List[Tuple[float, float]], about: Tuple[float, float]) -> int:
    """Winding of the angle-ordered curve polygon about a point."""
    n = len(curve_points)
    cr = math.fsum([r for r, _ in curve_points]) / n
    cw = math.fsum([w for _, w in curve_points]) / n
    centred = [math.atan2(w - cw, r - cr) for r, w in curve_points]
    xr, xw = about
    ang = [math.atan2(w - xw, r - xr) for r, w in curve_points]
    a = [ang[i] for i in sorted(range(n), key=centred.__getitem__)]
    return round(math.fsum([_wrapped(y - x) for x, y in zip(a, a[1:] + a[:1])]) / (2 * math.pi))


@dataclass
class TorusCertificate:
    mu: float
    eps: float
    verdict: str                              # torus_found | no_torus | inconclusive
    fixed_point: Tuple[float, float]
    theta_eps: float
    notes: Tuple[str, ...] = ()
    # known only once an invariant curve was located
    observed_stability: Optional[str] = None  # attracting | repelling (forward time)
    curve: Optional[FourierCurve] = None
    curve_points: Optional[List[Tuple[float, float]]] = None
    fit_residual: Optional[float] = None
    rotation: Optional[float] = None
    rotation_uncertainty: Optional[float] = None
    normal_exponent: Optional[float] = None   # per forward return
    normal_exponent_uncertainty: Optional[float] = None
    normally_hyperbolic: Optional[bool] = None
    winding: Optional[int] = None

    def to_dict(self) -> dict:
        out = {
            "mu": self.mu, "eps": self.eps, "verdict": self.verdict,
            "observed_stability": self.observed_stability,
            "fit_residual": self.fit_residual,
            "rotation_number": self.rotation,
            "rotation_uncertainty": self.rotation_uncertainty,
            "normal_exponent": self.normal_exponent,
            "normal_exponent_uncertainty": self.normal_exponent_uncertainty,
            "normally_hyperbolic": self.normally_hyperbolic,
            "winding": self.winding,
            "fixed_point": list(self.fixed_point),
            "theta_eps": self.theta_eps,
            "notes": list(self.notes),
        }
        if self.curve is not None:
            out["curve"] = {
                "center": list(self.curve.center),
                "cos": list(self.curve.cos_coeffs),
                "sin": list(self.curve.sin_coeffs),
                "mean_radius": self.curve.mean_radius,
            }
        return out


def _iterate(orbit: Iterator[Tuple[float, float]], n: int
             ) -> Optional[List[Tuple[float, float]]]:
    """The next n iterates of an orbit (`ThetaReturnMap.orbit`), each a pair
    of floats; None when the orbit escapes on the way: a non-finite iterate,
    one beyond ESCAPE_BOUND, one with r <= 1e-3, or a failed integration."""
    out = []
    try:
        for r, w in itertools.islice(orbit, n):
            # NaN fails every comparison, so it escapes too
            if not (abs(r) <= ESCAPE_BOUND and abs(w) <= ESCAPE_BOUND and r > 1e-3):
                return None
            out.append((r, w))
    except FlowError:
        # integration breakdown (e.g. the r -> 0 coordinate singularity):
        # the orbit left the map's domain
        return None
    return out


def _probe(orbit: Iterator[Tuple[float, float]]) -> Optional[List[Tuple[float, float]]]:
    """Iterate one orbit until its statistics settle: the last PROBE_CHECK
    iterates, pairs of floats, or None when the orbit escapes.  After
    PROBE_MAX returns the last ones are returned unsettled; the fit quality
    decides.  The orbit goes on from where the probe leaves it."""
    prev_stats = None
    for _ in range(PROBE_MAX // PROBE_CHECK):
        tail = _iterate(orbit, PROBE_CHECK)
        if tail is None:
            return None
        n = len(tail)
        cr, cw = math.fsum(r for r, _ in tail) / n, math.fsum(w for _, w in tail) / n
        rad = [math.hypot(r - cr, w - cw) for r, w in tail]
        stats = (cr, cw, math.fsum(rad) / n, max(rad))
        if prev_stats is not None:
            scale = max(abs(v) for v in stats) + 1e-12
            drift = max(abs(a - b) for a, b in zip(stats, prev_stats)) / scale
            if drift < 5e-3:
                return tail
        prev_stats = stats
    return tail


def _collapse_check(tail, fixed_point, seed_radius: float) -> bool:
    """Whether the probe's tail, pairs of floats, has settled onto the fixed
    point: its mean distance from it is below 5% of the seed's."""
    xr, xw = fixed_point
    mean = math.fsum(math.hypot(r - xr, w - xw) for r, w in tail) / len(tail)
    return mean < 0.05 * seed_radius


def certify_torus(tmap, mu: float, point: BranchPoint, l12: float) -> TorusCertificate:
    """Locate and certify the invariant closed curve of the return map at
    (mu, point.eps); see the module docstring for the protocol.  `point` is
    the Neimark-Sacker point at that eps != 0 (`unit_circle_point`): its xi
    seeds the fixed-point Newton, its mu sets the seed amplitude and its
    theta is reported.  `l12` is the map's system's eps^2 Lyapunov slice
    pi ell_1 / (16 Omega^2) (`BaseCriteria.l12`), nonzero with the sign of
    ell_1; the eps slice is 0."""
    eps = point.eps
    tmap = _with_config(tmap, CERTIFY_INTEGRATOR)

    try:
        xi, jet = _newton_fixed_point(tmap, mu, eps, point.xi)
    except (FlowError, AveragingError) as exc:
        raise FixedPointNotFound(str(exc)) from exc

    # seed amplitude from the normal-form scaling sqrt(alpha_d dmu / (eps |l12|))
    dmu = mu - point.mu
    if abs(l12) > 1e-12 and dmu * l12 < 0:
        amp = math.sqrt(abs(math.pi * dmu / (eps * l12)))
    else:
        amp = 0.1
    amp = min(max(amp, 1e-3), 2.0)

    notes = []
    if dmu * l12 >= 0:
        notes.append("parameters on the no-torus side of the bifurcation curve")

    # the curve attracts in the time direction in which xi repels
    (a, b), (c, d) = jet.A
    reverse = bool(a * d - b * c < 1.0)
    direction = "reversed" if reverse else "forward"

    def no_torus(note):
        notes.append(note)
        return TorusCertificate(
            mu=mu, eps=eps, verdict="no_torus", fixed_point=xi,
            theta_eps=point.theta, notes=tuple(notes))

    orbit = tmap.orbit((xi[0] + amp, xi[1]), mu, eps, reverse)
    tail = _probe(orbit)
    if tail is None:
        return no_torus(f"the probe orbit escapes in {direction} time, in which "
                        "the fixed point repels; no invariant curve")
    if _collapse_check(tail, xi, amp):
        return no_torus(f"the probe orbit settles onto the fixed point in "
                        f"{direction} time; no invariant curve")

    # the probe orbit goes on: a transient, then the window of samples
    iterates = _iterate(orbit, TRANSIENT + WINDOW)
    if iterates is None:
        return no_torus(f"the probe orbit escapes in {direction} time after it "
                        "settled; no invariant curve")
    samples = iterates[TRANSIENT:]

    curve = fit_fourier_curve(samples)
    residual = curve.rms_residual
    try:
        rho, rho_unc = rotation_number(samples, curve.center)
    except NonMonotoneLift:
        rho, rho_unc = None, None
        notes.append("rotation lift non-monotone on the fitted samples")

    lam, lam_unc = normal_exponent(tmap, samples, mu, eps)
    nh, why = normal_hyperbolicity(rho, rho_unc, lam, lam_unc)
    if why is not None:
        notes.append(why)
    wind = winding_number(samples, xi)

    found = (residual <= RESIDUAL_FACTOR * curve.mean_radius
             and abs(wind) == 1)
    # the standard rule: the curve attracts, found forward, iff ell_1 < 0
    if reverse != (l12 > 0):
        notes.append("observed stability contradicts the standard rule, "
                     "attracting if and only if ell1 < 0; recorded as observed")
    return TorusCertificate(
        mu=mu, eps=eps,
        verdict="torus_found" if found else "inconclusive",
        observed_stability="repelling" if reverse else "attracting",
        curve=curve, curve_points=samples, fit_residual=residual,
        rotation=rho, rotation_uncertainty=rho_unc,
        normal_exponent=lam, normal_exponent_uncertainty=lam_unc,
        normally_hyperbolic=nh, winding=wind, fixed_point=xi,
        theta_eps=point.theta, notes=tuple(notes))


def _with_config(tmap, integrator: IntegratorConfig):
    """`tmap` at other tolerances, sharing its RescaledField (the exact
    slices and the compiled field)."""
    if tmap.cfg == integrator:
        return tmap
    other = copy.copy(tmap)
    other.cfg = integrator
    return other
