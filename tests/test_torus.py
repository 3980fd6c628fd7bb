import math

import numpy as np
import pytest

from torusforge.criteria import PerturbationFamily, validate_hopf_zero
from torusforge.flow import IntegratorConfig, ThetaReturnMap
from torusforge.torus import (
    CertifyConfig, NonMonotoneLift, TorusError, _normal_contraction, _probe,
    _with_config, fit_fourier_curve, rotation_number, winding_number,
)


def _circle_samples(n=512, rho=0.3, center=(1.0, -0.5), wobble=0.0, seed=0):
    rng = np.random.default_rng(seed)
    ang = rng.uniform(0, 2 * np.pi, n)
    r = rho * (1.0 + wobble * np.cos(3 * ang))
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
        rotation_number(pts)


def test_non_monotone_lift_on_cloud():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(512, 2))
    with pytest.raises(NonMonotoneLift):
        rotation_number(pts, center=np.zeros(2))


def test_fourier_fit_recovers_wobbly_circle():
    pts = _circle_samples(wobble=0.1)
    curve = fit_fourier_curve(pts)
    assert curve.rms_residual <= 1e-10
    assert abs(curve.mean_radius - 0.3) <= 1e-3
    assert np.max(np.abs(curve.center - [1.0, -0.5])) <= 1e-3


def test_winding_number():
    pts = _circle_samples()
    assert winding_number(pts, np.array([1.0, -0.5])) in (-1, 1)
    assert winding_number(pts, np.array([5.0, 5.0])) == 0


class _SyntheticMap:
    """Polar normal form about a center: radius relaxes to rho0 at rate kappa
    per return, angle advances by a fixed rotation."""

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


def test_probe_settles_on_synthetic_circle():
    tmap = _SyntheticMap()
    cfg = CertifyConfig(probe_check=400, probe_max=4000)
    status, tail = _probe(tmap, tmap.center + [0.5, 0.0], 0.0, 0.1, False, cfg)
    assert status == "curve"
    curve = fit_fourier_curve(tail)
    # the settle test fires while a tiny transient remains in the tail
    assert abs(curve.mean_radius - tmap.rho0) <= 1e-4


def test_probe_detects_collapse():
    tmap = _SyntheticMap(rho0=0.0, kappa=0.9)   # pure contraction to the center
    cfg = CertifyConfig(probe_check=400, probe_max=4000)
    status, tail = _probe(tmap, tmap.center + [0.5, 0.0], 0.0, 0.1, False, cfg)
    assert status == "collapse"


def test_probe_detects_escape():
    tmap = _SyntheticMap(rho0=0.3, kappa=0.9)
    cfg = CertifyConfig(probe_check=400, probe_max=4000, escape_bound=10.0)
    # reversed dynamics repel from the circle toward infinity
    status, _ = _probe(tmap, tmap.center + [0.6, 0.0], 0.0, 0.1, True, cfg)
    assert status == "escape"


def test_normal_contraction_on_synthetic_map():
    tmap = _SyntheticMap(kappa=0.9)
    pts = _circle_samples(rho=tmap.rho0, center=tmap.center, seed=3)
    curve = fit_fourier_curve(pts)
    cfg = CertifyConfig()
    k_fwd = _normal_contraction(tmap, curve, 0.0, 0.1, False, cfg)
    k_rev = _normal_contraction(tmap, curve, 0.0, 0.1, True, cfg)
    assert k_fwd == pytest.approx(0.9, rel=1e-3)
    assert k_rev == pytest.approx(1.0 / 0.9, rel=1e-3)
    assert k_fwd * k_rev == pytest.approx(1.0, rel=1e-2)


def test_rotation_number_doubling_stability():
    tmap = _SyntheticMap(rot=0.31 * 2 * math.pi * 0.05 / 0.31)  # irrationalish
    x = tmap.center + np.array([tmap.rho0, 0.0])
    orbits = {}
    for n in (512, 1024):
        pts = np.zeros((n, 2))
        xi = x.copy()
        for i in range(n):
            xi = tmap.point(xi, 0.0, 0.1)
            pts[i] = xi
        orbits[n], _ = rotation_number(pts, tmap.center)
    assert abs(orbits[512] - orbits[1024]) <= 1e-4


def test_certify_tolerances_share_the_compiled_field():
    """The map certify_torus iterates at its own tolerances shares the
    caller's RescaledField (slices and compiled field), and returns the same
    point as a map built from scratch at those tolerances, bit for bit."""
    sys = validate_hopf_zero("0", "y*z", "-x^2 + x*y + z^2")
    fam = PerturbationFamily.simple(sys.beta)
    tmap = ThetaReturnMap(sys, fam, IntegratorConfig(atol=1e-13, rtol=1e-11))
    cfg = CertifyConfig().integrator
    other = _with_config(tmap, cfg)
    assert other.field is tmap.field and other.cfg == cfg
    assert tmap.cfg == IntegratorConfig(atol=1e-13, rtol=1e-11)
    assert _with_config(tmap, tmap.cfg) is tmap
    x0 = np.array([1.4, 0.1])
    fresh = ThetaReturnMap(sys, fam, cfg).point(x0, -0.2, 0.02)
    assert other.point(x0, -0.2, 0.02).tobytes() == fresh.tobytes()
