import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from torusforge.criteria import PerturbationFamily, validate_hopf_zero
from torusforge.flow import IntegratorConfig, JetTransportUnstable, MapJet, ThetaReturnMap
from torusforge.nsbranch import BranchPoint
from torusforge.torus import (
    CERTIFY_INTEGRATOR, FOURIER_ORDER, FOURIER_TOLERANCE, FixedPointNotFound,
    NonMonotoneLift, TorusError,
    _collapse_check, _probe, _with_config, certify_torus, fit_fourier_curve,
    normal_exponent, normal_hyperbolicity, rotation_number, winding_number,
)

from oracles import fourier_fit_lstsq, fourier_fit_qr, normal_contraction
from test_averaging import _IdentityJetMap


def _circle_samples(n=512, rho=0.3, center=(1.0, -0.5), wobble=0.0, harmonic=3,
                    seed=0):
    rng = np.random.default_rng(seed)
    ang = rng.uniform(0, 2 * np.pi, n)
    r = rho * (1.0 + wobble * np.cos(harmonic * ang))
    pts = np.stack([center[0] + r * np.cos(ang), center[1] + r * np.sin(ang)], axis=1)
    return pts


def test_rigid_rotation_rotation_number():
    a = 0.37
    n = 512
    ang = a * np.arange(n)
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    rho, unc = rotation_number(pts, center=np.zeros(2))
    assert abs(rho - a / (2 * np.pi)) <= 1e-12
    assert unc <= 1e-12


def test_rotation_number_needs_enough_samples():
    pts = np.zeros((100, 2))
    with pytest.raises(TorusError):
        rotation_number(pts, pts.mean(axis=0))


def test_non_monotone_lift_on_cloud():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(512, 2))
    with pytest.raises(NonMonotoneLift):
        rotation_number(pts, center=np.zeros(2))


@pytest.mark.parametrize("harmonic", [3, 5])
def test_fourier_fit_recovers_wobbly_circle(harmonic):
    """The fit is about the samples' centroid, 0.02 off the circle's center,
    so the radius has every harmonic.  An order rule that stopped at the
    first small improvement stopped at order 3 on the harmonic-5 wobble,
    with an rms of 2e-2."""
    pts = _circle_samples(wobble=0.1, harmonic=harmonic)
    curve = fit_fourier_curve(pts)
    assert curve.rms_residual <= {3: 1e-10, 5: 1e-8}[harmonic]
    assert abs(curve.mean_radius - 0.3) <= 1e-3
    assert curve.center == (math.fsum(pts[:, 0]) / len(pts), math.fsum(pts[:, 1]) / len(pts))


def test_winding_number():
    pts = _circle_samples()
    assert winding_number(pts, np.array([1.0, -0.5])) in (-1, 1)
    assert winding_number(pts, np.array([5.0, 5.0])) == 0


class _SyntheticMap:
    """Polar normal form about a center: radius relaxes to rho0 at rate kappa
    per return, angle advances by a fixed rotation.  Its tolerances are the
    certifier's, so `certify_torus` iterates the map itself, through the
    return map's interface: `orbit` and `jet1_along` call `point` and `jet1`
    once per return."""

    cfg = CERTIFY_INTEGRATOR

    def __init__(self, center=(1.0, -0.5), rho0=0.3, kappa=0.9, rot=0.31):
        self.center = np.asarray(center, dtype=float)
        self.rho0 = rho0
        self.kappa = kappa
        self.rot = rot

    def points(self, X, mu, eps, reverse=False):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        rel = X - self.center
        r = np.linalg.norm(rel, axis=1)
        a = np.arctan2(rel[:, 1], rel[:, 0])
        if not reverse:
            r = self.rho0 + self.kappa * (r - self.rho0)
            a = a + self.rot
        else:
            r = self.rho0 + (r - self.rho0) / self.kappa
            a = a - self.rot
        return self.center + np.stack([r * np.cos(a), r * np.sin(a)], axis=1)

    def point(self, x, mu, eps, reverse=False):
        return self.points(np.asarray(x)[None, :], mu, eps, reverse)[0]

    def orbit(self, x, mu, eps, reverse=False):
        while True:
            x = self.point(x, mu, eps, reverse)
            yield x

    def jet1(self, x, mu, eps):
        """Value and Jacobian of the forward map: diag(kappa, 1) in polar
        coordinates (r, a), carried to the plane by d(x, y)/d(r, a)."""
        y = self.point(x, mu, eps)

        def polar_frame(p):
            rel = p - self.center
            r = np.linalg.norm(rel)
            c, s = rel / r
            return np.array([[c, -r * s], [s, r * c]])

        A = polar_frame(y) @ np.diag([self.kappa, 1.0]) @ np.linalg.inv(polar_frame(x))
        return MapJet(value=y, A=A)

    def jet1_along(self, points, mu, eps):
        for x in points:
            yield self.jet1(x, mu, eps)

    def iterates(self, x, n):
        """The first n returns of x's forward orbit, an (n, 2) array."""
        return np.array(list(itertools.islice(self.orbit(x, 0.0, 0.1), n)))


def test_probe_settles_on_synthetic_circle():
    tmap = _SyntheticMap()
    tail = _probe(tmap.orbit(tmap.center + [0.5, 0.0], 0.0, 0.1, False))
    curve = fit_fourier_curve(tail)
    # the settle test fires while a tiny transient remains in the tail
    assert abs(curve.mean_radius - tmap.rho0) <= 1e-4


def test_settled_contraction_is_a_collapse():
    tmap = _SyntheticMap(rho0=0.0, kappa=0.9)   # pure contraction to the center
    tail = _probe(tmap.orbit(tmap.center + [0.5, 0.0], 0.0, 0.1, False))
    # the probe settles on the center; certify_torus reads that as no_torus
    assert _collapse_check(tail, tmap.center, 0.5)


def test_probe_detects_escape():
    tmap = _SyntheticMap(rho0=0.3, kappa=0.9)
    # reversed dynamics repel from the circle toward infinity
    assert _probe(tmap.orbit(tmap.center + [0.6, 0.0], 0.0, 0.1, True)) is None


def test_probe_returns_unsettled_tail_after_probe_max():
    """An orbit that relaxes too slowly to settle in the probe: it makes
    exactly 6000 returns (PROBE_MAX) and returns the last 500 (PROBE_CHECK)
    iterates of the orbit, for the fit quality to judge."""
    tmap = _SyntheticMap(kappa=0.9999)
    x0 = tmap.center + [1.0, 0.0]
    returns = []
    point = tmap.point
    tmap.point = lambda x, *args, **kwargs: returns.append(1) or point(x, *args, **kwargs)
    tail = _probe(tmap.orbit(x0, 0.0, 0.1, False))
    assert len(returns) == 6000
    reference = _SyntheticMap(kappa=0.9999).iterates(x0, 6000)[-500:]
    assert np.array(tail).tobytes() == reference.tobytes()


# the linear map that makes the synthetic map's circle an ellipse
_SHEAR = np.array([[1.3, 0.2], [0.0, 0.8]])
_SHEAR_INV = np.linalg.inv(_SHEAR)


def _eccentric_orbit():
    """The synthetic map's orbit, started 1e-6 off its circle, seen through
    _SHEAR: the fit's order is where the ellipse's harmonics meet the
    transient, far above rounding."""
    tmap = _SyntheticMap()
    orbit = tmap.iterates(tmap.center + [tmap.rho0 + 1e-6, 0.0], 512)
    return tmap.center + (orbit - tmap.center) @ _SHEAR.T


def _period_orbit(q, n=2048):
    """n samples of a period-q orbit: the q points of the synthetic map's
    circle at the angles 2 pi j / q, seen through _SHEAR, in turn."""
    tmap = _SyntheticMap()
    ang = 2 * np.pi * np.arange(q) / q
    ring = tmap.rho0 * np.stack([np.cos(ang), np.sin(ang)], axis=1) @ _SHEAR.T
    return tmap.center + ring[np.arange(n) % q]


class _EllipticMap(_SyntheticMap):
    """The synthetic map seen through _SHEAR: its invariant curve is an
    ellipse, on which a rotation by 2 pi p / q makes period-q orbits."""

    def _inner(self, X):
        return self.center + (np.asarray(X, dtype=float) - self.center) @ _SHEAR_INV.T

    def points(self, X, mu, eps, reverse=False):
        inner = super().points(self._inner(np.atleast_2d(X)), mu, eps, reverse)
        return self.center + (inner - self.center) @ _SHEAR.T

    def jet1(self, x, mu, eps):
        jet = super().jet1(self._inner(x), mu, eps)
        return MapJet(value=self.point(x, mu, eps),
                      A=_SHEAR @ jet.A @ _SHEAR_INV)


@pytest.mark.parametrize("samples", ["harmonic-5 circle", "eccentric orbit"])
def test_fourier_fit_matches_lstsq_oracle(samples):
    """The order is the smallest K >= 2 whose rms, by one lstsq per order, is
    within FOURIER_TOLERANCE of the full order's, and the coefficients and
    rms at that order are the lstsq fit's."""
    pts = (_circle_samples(wobble=0.1, harmonic=5) if samples == "harmonic-5 circle"
           else _eccentric_orbit())
    center = pts.mean(axis=0)
    fits = {K: fourier_fit_lstsq(pts, center, K) for K in range(2, FOURIER_ORDER + 1)}
    full = fits[FOURIER_ORDER][2]
    curve = fit_fourier_curve(pts)
    order = len(curve.sin_coeffs)
    assert order == min(K for K, (_, _, rms) in fits.items()
                        if rms <= (1.0 + FOURIER_TOLERANCE) * full)
    cos, sin, rms = fits[order]
    tol = 1e-12 * curve.mean_radius
    assert np.max(np.abs(curve.cos_coeffs - cos)) <= tol
    assert np.max(np.abs(curve.sin_coeffs - sin)) <= tol
    assert abs(curve.rms_residual - rms) <= tol


def _same_fit(curve, oracle):
    """Whether a fit and the QR oracle's agree: the same order, and
    coefficients and rms within 1e-12 of the mean radius."""
    tol = 1e-12 * curve.mean_radius
    return (len(curve.sin_coeffs) == len(oracle.sin_coeffs)
            and np.max(np.abs(np.subtract(curve.cos_coeffs, oracle.cos_coeffs))) <= tol
            and np.max(np.abs(np.subtract(curve.sin_coeffs, oracle.sin_coeffs)), initial=0.0) <= tol
            and abs(curve.rms_residual - oracle.rms_residual) <= tol)


# a period-q orbit's design has rank q, deficient for q <= 2 FOURIER_ORDER + 1
_FIT_SAMPLES = {"harmonic-3 circle": lambda: _circle_samples(wobble=0.1, harmonic=3),
                "harmonic-5 circle": lambda: _circle_samples(wobble=0.1, harmonic=5),
                "eccentric orbit": _eccentric_orbit}
_FIT_SAMPLES.update({f"period {q}": functools.partial(_period_orbit, q) for q in (7, 40, 64, 80)})


@pytest.mark.parametrize("samples", _FIT_SAMPLES)
def test_fourier_fit_matches_qr_oracle(samples):
    """The fit of the samples as pairs of floats against the QR of the whole
    design (`fourier_fit_qr`).  Where the design has full rank they agree
    (`_same_fit`).  Where it is rank-deficient, a period-q orbit with q <=
    2 FOURIER_ORDER + 1, both interpolate the q points: the rms is at the
    rounding floor, which for the fit's normal equations is the square of
    the design's condition number times the rounding unit.  At q = 64 that
    floor is 2.4e-12 of the mean radius, and the QR's 2e-15."""
    pts = _FIT_SAMPLES[samples]()
    curve = fit_fourier_curve(pts.tolist())
    oracle = fourier_fit_qr(pts)
    if len(set(map(tuple, pts.tolist()))) > 2 * FOURIER_ORDER + 1:
        assert _same_fit(curve, oracle)
    else:
        assert curve.rms_residual <= 1e-11 * curve.mean_radius
        assert oracle.rms_residual <= 1e-11 * curve.mean_radius


@pytest.mark.parametrize("q", [7, 40, 64])
def test_certify_period_orbit_matches_qr_oracle(monkeypatch, q):
    """certify_torus on the elliptic synthetic map at rotation 1/q, whose
    samples are a period-q orbit and make the design rank-deficient: the fit
    raises nothing, and the certificate's verdict and notes are those the
    QR oracle's fit gives."""
    cert = _certify_synthetic(monkeypatch, _EllipticMap(rot=2 * math.pi / q))
    monkeypatch.setattr("torusforge.torus.fit_fourier_curve", fourier_fit_qr)
    oracle = _certify_synthetic(monkeypatch, _EllipticMap(rot=2 * math.pi / q))
    assert cert.verdict == oracle.verdict == "torus_found"
    assert cert.notes == oracle.notes
    assert cert.fit_residual <= 1e-11 * cert.curve.mean_radius


def test_normal_contraction_on_synthetic_map():
    tmap = _SyntheticMap(kappa=0.9)
    pts = _circle_samples(rho=tmap.rho0, center=tmap.center, seed=3)
    curve = fit_fourier_curve(pts)
    k_fwd = normal_contraction(tmap, curve, 0.0, 0.1, False)
    k_rev = normal_contraction(tmap, curve, 0.0, 0.1, True)
    assert k_fwd == pytest.approx(0.9, rel=1e-3)
    assert k_rev == pytest.approx(1.0 / 0.9, rel=1e-3)
    assert k_fwd * k_rev == pytest.approx(1.0, rel=1e-2)


def test_normal_exponent_on_synthetic_circle():
    """On the invariant circle log |det D Pi| is log kappa at every sample,
    and with an irrational rotation the circle is normally hyperbolic."""
    tmap = _SyntheticMap(kappa=0.9)
    samples = tmap.iterates(tmap.center + [tmap.rho0, 0.0], 1024)
    lam, lam_unc = normal_exponent(tmap, samples, 0.0, 0.1)
    assert abs(lam - math.log(0.9)) <= 1e-12
    assert lam_unc <= 1e-12
    rho, rho_unc = rotation_number(samples, tmap.center)
    assert normal_hyperbolicity(rho, rho_unc, lam, lam_unc) == (True, None)
    verdict, note = normal_hyperbolicity(None, None, lam, lam_unc)
    assert verdict is None and "rotation" in note


@pytest.mark.parametrize("lock", [Fraction(1, 5), Fraction(3, 8)])
def test_lock_is_not_judged(lock):
    """A rational rotation: the tangential rate of a lock is not known, so
    the verdict is None with a note, however large the normal exponent.  At
    3/8 rho is 1 ulp off the rational with a halves' difference of 0, which
    the rounding floor of the uncertainty covers."""
    tmap = _SyntheticMap(kappa=0.9, rot=2 * math.pi * float(lock))
    samples = tmap.iterates(tmap.center + [tmap.rho0, 0.0], 1024)
    rho, rho_unc = rotation_number(samples, tmap.center)
    lam, lam_unc = normal_exponent(tmap, samples, 0.0, 0.1)
    verdict, note = normal_hyperbolicity(rho, rho_unc, lam, lam_unc)
    assert verdict is None and str(lock) in note


def test_failed_jet1_gives_no_exponent():
    class _Unstable(_SyntheticMap):
        def jet1(self, x, mu, eps):
            raise JetTransportUnstable("non-finite jet")

    tmap = _Unstable()
    samples = tmap.iterates(tmap.center + [tmap.rho0, 0.0], 512)
    lam, lam_unc = normal_exponent(tmap, samples, 0.0, 0.1)
    assert (lam, lam_unc) == (None, None)
    rho, rho_unc = rotation_number(samples, tmap.center)
    verdict, note = normal_hyperbolicity(rho, rho_unc, lam, lam_unc)
    assert verdict is None and "jet1" in note


def test_rotation_number_doubling_stability():
    tmap = _SyntheticMap(rot=0.31 * 2 * math.pi * 0.05 / 0.31)  # irrationalish
    x = tmap.center + np.array([tmap.rho0, 0.0])
    orbits = {}
    for n in (512, 1024):
        orbits[n], _ = rotation_number(tmap.iterates(x, n), tmap.center)
    assert abs(orbits[512] - orbits[1024]) <= 1e-4


def _certify_synthetic(monkeypatch, tmap):
    """certify_torus on a synthetic map whose fixed point is its center, with
    D Pi = diag(1.5, 1) there, so the probe runs forward; mu on the
    Neimark-Sacker point gives the default seed amplitude 0.1."""
    jet = MapJet(value=tmap.center, A=np.diag([1.5, 1.0]))
    monkeypatch.setattr("torusforge.torus._newton_fixed_point",
                        lambda *args: (tmap.center, jet))
    point = BranchPoint(eps=0.1, mu=0.0, xi=tmap.center, eigenvalue=1j, jet=jet)
    return certify_torus(tmap, 0.0, point, 1.0)


def test_certify_probe_settled_on_fixed_point_is_no_torus(monkeypatch):
    cert = _certify_synthetic(monkeypatch, _SyntheticMap(rho0=0.0, kappa=0.9))
    assert cert.verdict == "no_torus" and cert.curve is None
    assert ("the probe orbit settles onto the fixed point in forward time; "
            "no invariant curve") in cert.notes


def test_certify_orbit_escaping_after_the_probe_is_no_torus(monkeypatch):
    """The orbit settles in the probe and leaves for infinity on the next
    return, the transient's first."""
    class _Leaves(_SyntheticMap):
        returns, probed = 0, None       # returns made, and those of the probe

        def point(self, x, mu, eps, reverse=False):
            self.returns += 1
            if self.probed is not None:
                return np.array([math.inf, 0.0])
            return super().point(x, mu, eps, reverse)

    def probe(orbit):
        tail = _probe(orbit)
        assert tail is not None
        tmap.probed = tmap.returns
        return tail

    monkeypatch.setattr("torusforge.torus._probe", probe)
    tmap = _Leaves()
    cert = _certify_synthetic(monkeypatch, tmap)
    assert cert.verdict == "no_torus" and tmap.returns == tmap.probed + 1
    assert ("the probe orbit escapes in forward time after it settled; "
            "no invariant curve") in cert.notes


def test_certify_two_circle_orbit_has_no_rotation_number(monkeypatch):
    """An orbit that swaps the radii 0.1 and 0.3 about the center at each
    return lies on two circles, which no radius-over-angle graph is: the
    lift is non-monotone, so there is no rotation number and normal
    hyperbolicity is not judged."""
    class _TwoCircles(_SyntheticMap):
        def points(self, X, mu, eps, reverse=False):
            rel = np.atleast_2d(np.asarray(X, dtype=float)) - self.center
            r = 0.03 / np.linalg.norm(rel, axis=1)
            a = np.arctan2(rel[:, 1], rel[:, 0]) + (-self.rot if reverse else self.rot)
            return self.center + np.stack([r * np.cos(a), r * np.sin(a)], axis=1)

    cert = _certify_synthetic(monkeypatch, _TwoCircles())
    assert cert.rotation is None and cert.normally_hyperbolic is None
    assert "rotation lift non-monotone on the fitted samples" in cert.notes
    assert "no rotation number: normal hyperbolicity not judged" in cert.notes


def test_certify_lock_is_not_judged(monkeypatch):
    """A synthetic circle at rotation 1/61: the certificate finds the curve
    and leaves normal hyperbolicity unjudged, with the lock in its note.
    The curve attracts while the l12 it is given, 1.0, is positive: a note
    records that the standard rule, attracting iff ell1 < 0, is
    contradicted."""
    cert = _certify_synthetic(monkeypatch, _SyntheticMap(kappa=0.9, rot=2 * math.pi / 61))
    assert cert.verdict == "torus_found" and cert.normally_hyperbolic is None
    assert any(note.startswith("rotation number not told from 1/61")
               for note in cert.notes)
    assert cert.observed_stability == "attracting"
    assert cert.notes[-1] == ("observed stability contradicts the standard rule, "
                              "attracting if and only if ell1 < 0; recorded as observed")


def test_certify_singular_newton_step_is_fixed_point_not_found():
    """A map whose D Pi is the identity makes the certifier's Newton step
    singular: certify_torus raises FixedPointNotFound, whose message says so."""
    jet = MapJet(value=(1.0, 0.0), A=((1.0, 0.0), (0.0, 1.0)))
    point = BranchPoint(eps=0.05, mu=0.0375, xi=(1.0, 0.0), eigenvalue=1j, jet=jet)
    with pytest.raises(FixedPointNotFound, match="singular"):
        certify_torus(_IdentityJetMap(), 0.05, point, -0.1)


def test_certify_tolerances_share_the_compiled_field():
    """The map certify_torus iterates at its own tolerances shares the
    caller's RescaledField (slices and compiled field), and returns the same
    point as a map built from scratch at those tolerances, bit for bit."""
    sys = validate_hopf_zero("0", "y*z", "-x^2 + x*y + z^2")
    fam = PerturbationFamily.simple(sys.beta)
    tmap = ThetaReturnMap(sys, fam, IntegratorConfig(atol=1e-13, rtol=1e-11))
    other = _with_config(tmap, CERTIFY_INTEGRATOR)
    assert other.field is tmap.field and other.cfg == CERTIFY_INTEGRATOR
    assert tmap.cfg == IntegratorConfig(atol=1e-13, rtol=1e-11)
    assert _with_config(tmap, tmap.cfg) is tmap
    x0 = np.array([1.4, 0.1])
    fresh = ThetaReturnMap(sys, fam, CERTIFY_INTEGRATOR).point(x0, -0.2, 0.02)
    assert np.array(other.point(x0, -0.2, 0.02)).tobytes() == np.array(fresh).tobytes()
