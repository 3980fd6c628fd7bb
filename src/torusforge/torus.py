"""Certification of the bifurcated invariant torus by direct iteration.

The torus of the 3D flow meets the angular section in a closed invariant
curve of the return map.  Certification locates that curve by iteration,
fits it with an adaptive Fourier series in the angle about its centroid,
measures the rotation number (Birkhoff-weighted) and a normal contraction
factor, and issues a verdict.

Near the bifurcation the multipliers are 1 + O(eps^2), so raw transients
are far longer than the certification window; a probe phase first iterates
the seed xi + (amp, 0) until the orbit statistics settle or it escapes, the
32-seed ring is then planted on the located curve, and the prescribed
discard/window protocol runs from there.  An escape (of the probe or the
ring), or a probe settled on the fixed point xi, is no_torus.

Stability direction: the Neimark-Sacker curve has the opposite stability to
xi, so the probe runs backward if and only if det D Pi(xi) = |lambda|^2 < 1,
the direction in which xi repels.  The source text states the torus is
attracting for positive leading Lyapunov slice and repelling for negative,
opposite to the usual convention; the direction it implies is recorded next
to the observed one, and a mismatch is flagged, not corrected away.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .averaging import (
    AveragingError, BranchPoint, Ell1Result, MelnikovPair, _newton_fixed_point,
)
from .flow import FlowError, IntegratorConfig

KAPPA_RETURNS = 48      # returns of the probe ring behind the kappa fit


class TorusError(RuntimeError):
    pass


class FixedPointNotFound(TorusError):
    pass


class NonMonotoneLift(TorusError):
    pass


class DegenerateParameter(TorusError):
    pass


@dataclass(frozen=True)
class CertifyConfig:
    seeds: int = 32
    transient: int = 500
    window: int = 2048
    probe_max: int = 6000
    probe_check: int = 500
    fourier_max_order: int = 32
    fourier_improvement: float = 0.10
    escape_bound: float = 50.0
    kappa_probes: int = 16
    kappa_offset: float = 1e-3        # relative to mean curve radius
    residual_factor: float = 1e-3     # torus_found needs rms <= factor * radius
    hyperbolicity_margin: float = 0.05
    integrator: IntegratorConfig = field(
        default_factory=lambda: IntegratorConfig(atol=1e-11, rtol=1e-9))


@dataclass
class FourierCurve:
    center: np.ndarray
    cos_coeffs: np.ndarray            # a_0 .. a_K
    sin_coeffs: np.ndarray            # b_1 .. b_K
    rms_residual: float

    @property
    def order(self) -> int:
        return len(self.sin_coeffs)

    def radius(self, angle):
        angle = np.asarray(angle, dtype=float)
        out = np.full_like(angle, self.cos_coeffs[0])
        for k in range(1, self.order + 1):
            out = out + self.cos_coeffs[k] * np.cos(k * angle) \
                + self.sin_coeffs[k - 1] * np.sin(k * angle)
        return out

    def point(self, angle):
        r = self.radius(angle)
        return self.center + np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1)

    @property
    def mean_radius(self) -> float:
        return float(self.cos_coeffs[0])

    def distance(self, points: np.ndarray) -> np.ndarray:
        rel = np.atleast_2d(points) - self.center
        ang = np.arctan2(rel[:, 1], rel[:, 0])
        return np.abs(np.linalg.norm(rel, axis=1) - self.radius(ang))


def _fit_about(points: np.ndarray, center: np.ndarray, max_order: int,
               improvement: float) -> FourierCurve:
    rel = points - center
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    rad = np.linalg.norm(rel, axis=1)
    best = None
    prev_rms = None
    for K in range(2, max_order + 1):
        A = np.ones((len(ang), 2 * K + 1))
        for k in range(1, K + 1):
            A[:, 2 * k - 1] = np.cos(k * ang)
            A[:, 2 * k] = np.sin(k * ang)
        coef, *_ = np.linalg.lstsq(A, rad, rcond=None)
        rms = float(np.sqrt(np.mean((rad - A @ coef) ** 2)))
        best = FourierCurve(center=center.copy(),
                            cos_coeffs=np.concatenate([[coef[0]], coef[1::2]]),
                            sin_coeffs=coef[2::2], rms_residual=rms)
        if prev_rms is not None and rms > (1.0 - improvement) * prev_rms:
            break
        prev_rms = rms
    return best


def fit_fourier_curve(points: np.ndarray, max_order: int = 32,
                      improvement: float = 0.10) -> FourierCurve:
    """Adaptive-order least-squares radius(angle) fit.

    The fit order grows until the rms improvement drops below the given
    fraction.  Starting from the point centroid, the center is refined by
    absorbing the first radial harmonic (exact center recovery for true
    circles); for genuinely eccentric curves the first harmonic is real
    geometry, so the refined fit is kept only when it actually reduces the
    residual and keeps the center well inside the curve."""
    points = np.asarray(points, dtype=float)
    center = points.mean(axis=0)
    best = _fit_about(points, center, max_order, improvement)
    c = center.copy()
    for _ in range(4):
        cand = _fit_about(points, c, max_order, improvement)
        if cand.rms_residual < best.rms_residual:
            best = cand
        if cand.order < 1:
            break
        shift = np.array([cand.cos_coeffs[1], cand.sin_coeffs[0]])
        if np.linalg.norm(shift) <= 1e-12 * max(1.0, cand.mean_radius):
            break
        c_new = c + shift
        rel = points - c_new
        if np.min(np.linalg.norm(rel, axis=1)) < 0.3 * cand.mean_radius:
            break
        c = c_new
    return best


def rotation_number(points: np.ndarray, center: Optional[np.ndarray] = None
                    ) -> Tuple[float, float]:
    """Rotation number (revolutions per return) of consecutive iterates on a
    closed curve, Birkhoff-weighted, with an uncertainty estimate.

    Raises NonMonotoneLift when the samples are not a radial graph over the
    angle about the center (the lift is then ill-defined).
    """
    points = np.asarray(points, dtype=float)
    if len(points) < 256:
        raise TorusError(f"need >= 256 consecutive iterates, got {len(points)}")
    if center is None:
        center = points.mean(axis=0)
    rel = points - center
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    rad = np.linalg.norm(rel, axis=1)

    order = np.argsort(ang)
    sorted_rad = rad[order]
    jumps = np.abs(np.diff(sorted_rad))
    if np.max(jumps) > 0.5 * np.mean(sorted_rad):
        raise NonMonotoneLift("samples are not a radial graph over the angle")

    inc = np.diff(ang)
    inc = np.where(inc < -np.pi, inc + 2 * np.pi,
                   np.where(inc > np.pi, inc - 2 * np.pi, inc))
    n = len(inc)
    t = (np.arange(n) + 0.5) / n
    weights = np.exp(-1.0 / (t * (1.0 - t)))
    weights /= weights.sum()
    rho = float(np.sum(weights * inc) / (2 * np.pi))
    half = n // 2
    rho_a = float(np.mean(inc[:half]) / (2 * np.pi))
    rho_b = float(np.mean(inc[half:]) / (2 * np.pi))
    return rho, abs(rho_a - rho_b)


def winding_number(curve_points: np.ndarray, about: np.ndarray) -> int:
    """Winding of the angle-ordered curve polygon about a point."""
    rel = np.asarray(curve_points, dtype=float) - np.asarray(about, dtype=float)
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    order = np.argsort(np.arctan2((curve_points - curve_points.mean(axis=0))[:, 1],
                                  (curve_points - curve_points.mean(axis=0))[:, 0]))
    a = ang[order]
    inc = np.diff(np.concatenate([a, a[:1]]))
    inc = np.where(inc < -np.pi, inc + 2 * np.pi,
                   np.where(inc > np.pi, inc - 2 * np.pi, inc))
    return int(round(float(np.sum(inc)) / (2 * np.pi)))


@dataclass
class TorusCertificate:
    mu: float
    eps: float
    verdict: str                              # torus_found | no_torus | inconclusive
    reversed_time: bool                       # direction used for convergence
    paper_reversed_time: bool                 # direction the stability claim implies
    stability_mismatch: bool
    fixed_point: np.ndarray
    theta_eps: float
    notes: Tuple[str, ...] = ()
    # known only once an invariant curve was located
    observed_stability: Optional[str] = None  # attracting | repelling (forward time)
    curve: Optional[FourierCurve] = None
    curve_points: Optional[np.ndarray] = None
    fit_residual: Optional[float] = None
    rotation: Optional[float] = None
    rotation_uncertainty: Optional[float] = None
    kappa: Optional[float] = None
    kappa_reversed: Optional[float] = None
    normally_hyperbolic: Optional[bool] = None
    winding: Optional[int] = None
    encloses_fixed_point: Optional[bool] = None

    def to_dict(self) -> dict:
        out = {
            "mu": self.mu, "eps": self.eps, "verdict": self.verdict,
            "reversed_time": self.reversed_time,
            "paper_reversed_time": self.paper_reversed_time,
            "stability_mismatch": self.stability_mismatch,
            "observed_stability": self.observed_stability,
            "fit_residual": self.fit_residual,
            "rotation_number": self.rotation,
            "rotation_uncertainty": self.rotation_uncertainty,
            "kappa": self.kappa, "kappa_reversed": self.kappa_reversed,
            "normally_hyperbolic": self.normally_hyperbolic,
            "winding": self.winding,
            "encloses_fixed_point": self.encloses_fixed_point,
            "fixed_point": [float(v) for v in self.fixed_point],
            "theta_eps": self.theta_eps,
            "notes": list(self.notes),
        }
        if self.curve is not None:
            out["curve"] = {
                "center": [float(v) for v in self.curve.center],
                "cos": [float(v) for v in self.curve.cos_coeffs],
                "sin": [float(v) for v in self.curve.sin_coeffs],
                "order": self.curve.order,
                "mean_radius": self.curve.mean_radius,
            }
        return out

    def write_curve_csv(self, path):
        import csv
        if self.curve_points is None:
            raise TorusError("no curve samples to write")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "r", "w"])
            for i, (r, w) in enumerate(self.curve_points):
                writer.writerow([i, repr(float(r)), repr(float(w))])


def _probe(tmap, x0, mu, eps, reverse, cfg: CertifyConfig):
    """Iterate one seed until the orbit statistics settle or the orbit escapes.

    Returns (status, tail) with status in {'curve', 'escape'}; tail holds
    the last probe_check iterates (None on escape).
    """
    x = np.asarray(x0, dtype=float).copy()
    tail = np.zeros((cfg.probe_check, 2))
    prev_stats = None
    steps = 0
    while steps < cfg.probe_max:
        for i in range(cfg.probe_check):
            try:
                x = tmap.point(x, mu, eps, reverse=reverse)
            except FlowError:
                # integration breakdown (e.g. the r -> 0 coordinate
                # singularity): the orbit left the map's domain
                return "escape", None
            if (not np.all(np.isfinite(x)) or np.max(np.abs(x)) > cfg.escape_bound
                    or x[0] <= 1e-3):
                return "escape", None
            tail[i] = x
        steps += cfg.probe_check
        center = tail.mean(axis=0)
        rad = np.linalg.norm(tail - center, axis=1)
        stats = (center[0], center[1], rad.mean(), rad.max())
        if prev_stats is not None:
            scale = max(abs(v) for v in stats) + 1e-12
            drift = max(abs(a - b) for a, b in zip(stats, prev_stats)) / scale
            if drift < 5e-3:
                return "curve", tail.copy()
        prev_stats = stats
    return "curve", tail.copy()       # best effort; fit quality will decide


def _collapse_check(tail: np.ndarray, fixed_point: np.ndarray, seed_radius: float) -> bool:
    d = np.linalg.norm(tail - fixed_point, axis=1)
    return bool(d.mean() < 0.05 * seed_radius)


def certify_torus(tmap, mu: float, point: BranchPoint, mel: MelnikovPair,
                  lyapunov: Ell1Result, cfg: Optional[CertifyConfig] = None
                  ) -> TorusCertificate:
    """Locate and certify the invariant closed curve of the return map at
    (mu, point.eps); see the module docstring for the protocol.  `point` is
    the Neimark-Sacker point at that eps (`unit_circle_point`): its mu sets
    the seed amplitude and its theta is reported.  `lyapunov` is
    `first_lyapunov_quantity` of the map's system (`criteria_report` keeps
    it as `base.lyapunov`)."""
    cfg = cfg or CertifyConfig()
    eps = point.eps
    if eps == 0.0:
        raise DegenerateParameter("eps = 0: bifurcation parameter degenerate")
    tmap = _with_config(tmap, cfg.integrator)

    try:
        xi, jet = _newton_fixed_point(tmap, mel, mu, eps)
    except (FlowError, AveragingError, np.linalg.LinAlgError) as exc:
        raise FixedPointNotFound(str(exc)) from exc

    # seed amplitude from the normal-form scaling sqrt(alpha_d dmu / (eps |l12|))
    dmu = mu - point.mu
    if abs(lyapunov.l12) > 1e-12 and dmu * lyapunov.ell1 < 0:
        amp = math.sqrt(abs(math.pi * dmu / (eps * lyapunov.l12)))
    else:
        amp = 0.1
    amp = float(np.clip(amp, 1e-3, 2.0))

    paper_reversed = (lyapunov.l12 < 0 if abs(lyapunov.l11) <= 1e-10 else lyapunov.l11 < 0)
    notes = []
    if dmu * lyapunov.ell1 >= 0:
        notes.append("parameters on the no-torus side of the bifurcation curve")

    # the curve attracts in the time direction in which xi repels
    A = jet.A
    reverse = bool(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0] < 1.0)
    direction = "reversed" if reverse else "forward"

    def no_torus(note):
        notes.append(note)
        return TorusCertificate(
            mu=mu, eps=eps, verdict="no_torus",
            reversed_time=False, paper_reversed_time=paper_reversed,
            stability_mismatch=False, fixed_point=xi,
            theta_eps=point.theta, notes=tuple(notes))

    status, tail = _probe(tmap, xi + np.array([amp, 0.0]), mu, eps, reverse, cfg)
    if status == "escape":
        return no_torus(f"the probe orbit escapes in {direction} time, in which "
                        "the fixed point repels; no invariant curve")
    if _collapse_check(tail, xi, amp):
        return no_torus(f"the probe orbit settles onto the fixed point in "
                        f"{direction} time; no invariant curve")

    # ring of seeds on the located curve, then the discard/window protocol
    probe_curve = fit_fourier_curve(tail, cfg.fourier_max_order,
                                    cfg.fourier_improvement)
    angles = np.linspace(0.0, 2 * np.pi, cfg.seeds, endpoint=False)
    X = probe_curve.point(angles)
    try:
        for _ in range(cfg.transient):
            X = tmap.points(X, mu, eps, reverse=reverse)
            if not np.all(np.isfinite(X)) or np.max(np.abs(X)) > cfg.escape_bound:
                raise FlowError("ring escaped during transient")
    except FlowError:
        return no_torus(f"the seed ring on the probe curve escapes in {direction} "
                        "time during the transient; no invariant curve")
    n_per_seed = cfg.window // cfg.seeds
    cloud = np.zeros((cfg.seeds * n_per_seed, 2))
    lead_orbit = np.zeros((cfg.window, 2))
    x_lead = X[0].copy()
    for i in range(n_per_seed):
        X = tmap.points(X, mu, eps, reverse=reverse)
        cloud[i * cfg.seeds:(i + 1) * cfg.seeds] = X
    for i in range(cfg.window):
        x_lead = tmap.point(x_lead, mu, eps, reverse=reverse)
        lead_orbit[i] = x_lead

    curve = fit_fourier_curve(cloud, cfg.fourier_max_order,
                              cfg.fourier_improvement)
    residual = curve.rms_residual
    try:
        rho, rho_unc = rotation_number(lead_orbit, curve.center)
    except NonMonotoneLift:
        rho, rho_unc = None, None
        notes.append("rotation lift non-monotone on the fitted samples")

    kappa_fwd = _normal_contraction(tmap, curve, mu, eps, reverse, cfg)
    kappa_rev = _normal_contraction(tmap, curve, mu, eps, not reverse, cfg)
    wind = winding_number(cloud, xi)

    found = (residual <= cfg.residual_factor * curve.mean_radius
             and abs(wind) == 1)
    nh = kappa_fwd is not None and abs(kappa_fwd - 1.0) >= cfg.hyperbolicity_margin
    mismatch = reverse != paper_reversed
    if mismatch:
        notes.append("observed stability direction contradicts the stated "
                     "attracting/repelling rule; recorded as observed")
    return TorusCertificate(
        mu=mu, eps=eps,
        verdict="torus_found" if found else "inconclusive",
        reversed_time=reverse, paper_reversed_time=paper_reversed,
        stability_mismatch=mismatch,
        observed_stability="repelling" if reverse else "attracting",
        curve=curve, curve_points=cloud, fit_residual=residual,
        rotation=rho, rotation_uncertainty=rho_unc,
        kappa=kappa_fwd, kappa_reversed=kappa_rev,
        normally_hyperbolic=nh, winding=wind,
        encloses_fixed_point=wind != 0, fixed_point=xi,
        theta_eps=point.theta, notes=tuple(notes))


def _normal_contraction(tmap, curve: FourierCurve, mu, eps, reverse,
                        cfg: CertifyConfig) -> Optional[float]:
    """Asymptotic per-return normal contraction factor.

    A single return advances a probe a twentieth of a circuit, where the
    local normal rate can differ wildly from the Floquet average, so the
    factor is taken from the log-slope of the probe-ring distance to the
    curve over many returns (window limited to distances that are above the
    fit noise and still in the linear regime)."""
    angles = np.linspace(0.0, 2 * np.pi, cfg.kappa_probes, endpoint=False)
    on = curve.point(angles)
    normals = on - curve.center
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    delta = cfg.kappa_offset * curve.mean_radius
    X = on + delta * normals
    floor = max(20.0 * curve.rms_residual, 1e-9 * curve.mean_radius)
    cap = 0.05 * curve.mean_radius
    logs = []
    steps = []
    for k in range(1, KAPPA_RETURNS + 1):
        try:
            X = tmap.points(X, mu, eps, reverse=reverse)
        except FlowError:
            break
        if not np.all(np.isfinite(X)) or np.max(np.abs(X)) > cfg.escape_bound:
            break
        d = curve.distance(X)
        d = d[np.isfinite(d) & (d > 0)]
        if len(d) == 0:
            break
        mean_log = float(np.mean(np.log(d)))
        geo = math.exp(mean_log)
        if geo < floor or geo > cap:
            break
        logs.append(mean_log)
        steps.append(k)
    if len(steps) < 6:
        return None
    slope = np.polyfit(steps, logs, 1)[0]
    return float(math.exp(slope))


def _with_config(tmap, integrator: IntegratorConfig):
    """`tmap` at other tolerances, sharing its RescaledField (the exact
    slices and the compiled field)."""
    if tmap.cfg == integrator:
        return tmap
    other = copy.copy(tmap)
    other.cfg = integrator
    return other
