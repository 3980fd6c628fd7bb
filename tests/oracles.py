"""Reference routes that only the tests use.

Each one computes a quantity of the package by an independent method: a
plane-section return with event location and dense output, the variational
equation, finite differences, complex-step differentiation and plain
Gauss-Legendre quadrature of the standard form, whose F2 `full_F2` forms
from the factors the package keeps.  `melnikov_pair_full` is the exact
layer's full route: it expands every cos^i sin^j by repeated products, forms
F2 and averages the whole f2 integrand, the reference for the terms and the
term order of `melnikov_pair`, which forms only what the average keeps.
The integrations here stay on scipy's `solve_ivp`, so they also check the
package's own Dormand-Prince stepper; `dop853_loop` is that stepper with one
list comprehension per stage, the bitwise oracle of its generated step.  `omega_of_lift_family`
reads Omega of a degree lift off the whole normalized `Poly` system, the
reference for the closed form `lift.omega_of_lift`.  `normal_contraction`
measures the normal rate of an invariant curve by following a ring of
probes off it, the reference for `torus.normal_exponent`, and
`fourier_fit_lstsq` solves one least-squares problem per Fourier order, the
reference for `torus.fit_fourier_curve`.  The last section holds
small helpers only the tests call, and `FractionCFrac`, the Fraction-pair
Gaussian rational that checks `averaging.CFrac`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.integrate import solve_ivp

from torusforge.averaging import (
    PERIOD, TRIG_COS, TRIG_SIN, _R_INV, AveragingError, CFrac, MelnikovPair, PiPoly,
    StandardFormSystem, TrigPoly, eps_graded_slices,
)
from torusforge.criteria import HopfZeroSystem, PerturbationFamily
from torusforge.fieldexpr import VARIABLES, Jet3, Poly, as_poly, compile_terms
from torusforge import flow
from torusforge.flow import (
    _A, _B, _C, _E3, _E5, _ERROR_EXPONENT, _MAX_FACTOR, _MIN_FACTOR, _SAFETY,
    FlowError, IntegratorConfig, MapJet, RescaledField, StepSizeUnderflow,
    ThetaReturnMap,
)
from torusforge.lift import LiftError, build_lift_family

EVENT_RESIDUAL = 1e-12
TANGENCY_SPEED = 1e-8
DEFAULT_HORIZON_PERIODS = 10
QUADRATURE_TOL = 1e-11


class NoReturnWithinHorizon(FlowError):
    pass


class TangencyDetected(FlowError):
    pass


class QuadratureNotConverged(AveragingError):
    pass


# ---------------------------------------------------------------------------
# the plane section y = 0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlaneSection:
    """y = 0 crossed with ydot > 0."""
    coordinate: int = 1
    direction: float = 1.0


@dataclass
class SectionEvent:
    time: float
    state: np.ndarray
    residual: float


def poincare_return(field: Callable, section: PlaneSection, x0,
                    cfg: Optional[IntegratorConfig] = None,
                    horizon: float = DEFAULT_HORIZON_PERIODS * PERIOD):
    """Next crossing of the plane section in the prescribed direction.

    The event time from the integrator is polished by Newton on the dense
    output until |coordinate| <= 1e-12 (bisection-style fallback on stall).
    """
    cfg = cfg or IntegratorConfig()
    k = section.coordinate

    def event(t, state):
        return state[k]

    event.terminal = True
    event.direction = section.direction

    x0 = np.asarray(x0, dtype=float)
    # leave the section before arming the event: start is on the section
    f0 = np.asarray(field(0.0, x0), dtype=float)
    if abs(f0[k]) < TANGENCY_SPEED:
        raise TangencyDetected(f"transversal speed {f0[k]} at start")
    t_lift = 1e-6
    lift = solve_ivp(field, (0.0, t_lift), x0, method="RK45", rtol=cfg.rtol,
                     atol=cfg.atol, dense_output=False)
    x_lift = lift.y[:, -1]

    sol = solve_ivp(field, (t_lift, horizon), x_lift, method="RK45", rtol=cfg.rtol,
                    atol=cfg.atol, dense_output=True, events=[event])
    if sol.status == -1:
        raise StepSizeUnderflow(sol.message)
    t_events = sol.t_events[0]
    if len(t_events) == 0:
        raise NoReturnWithinHorizon(f"no section return within t <= {horizon}")
    t_hit = float(t_events[0])

    # Newton refinement on the dense interpolant, kept inside a local window
    dense = sol.sol
    window = (max(sol.t[0], t_hit - 1e-3), min(sol.t[-1], t_hit + 1e-3))
    for _ in range(60):
        state = dense(t_hit)
        res = state[k]
        if abs(res) <= EVENT_RESIDUAL:
            break
        speed = np.asarray(field(t_hit, state), dtype=float)[k]
        if abs(speed) < TANGENCY_SPEED:
            raise TangencyDetected(f"transversal speed {speed} at event")
        t_new = t_hit - res / speed
        if not (window[0] <= t_new <= window[1]):
            # bisection-style fallback toward the crossing side
            t_new = 0.5 * (t_hit + (window[1] if res * speed < 0 else window[0]))
        t_hit = t_new
    state = np.asarray(dense(t_hit), dtype=float)
    speed = np.asarray(field(t_hit, state), dtype=float)[k]
    if abs(speed) < TANGENCY_SPEED:
        raise TangencyDetected(f"transversal speed {speed} at event")
    event_rec = SectionEvent(time=t_hit, state=state, residual=abs(float(state[k])))
    return state, t_hit, event_rec


# ---------------------------------------------------------------------------
# the Dormand-Prince stepper, one comprehension per stage
# ---------------------------------------------------------------------------

def _comb(weights, values) -> float:
    """sum_j w_j v_j over the nonzero weights, added left to right from the
    first product (no 0.0 start, which would turn a -0.0 into 0.0)."""
    products = [w * v for w, v in zip(weights, values) if w]
    total = products[0]
    for p in products[1:]:
        total = total + p
    return total


def dop853_loop(rhs: Callable, t0: float, t_end: float, y0, atol: float,
                rtol: float) -> Tuple[list, list, int]:
    """`flow.dop853` with each stage a list comprehension over the
    components, read off the tableau tuples in a loop: the oracle of the
    generated straight-line step, which must return the same times, states
    and RHS count bit for bit."""
    y = list(y0)
    f = rhs(t0, y)
    ts, ys = [t0], [y]
    if t_end == t0:
        return ts, ys, 1
    direction = 1.0 if t_end > t0 else -1.0
    h_abs = flow._initial_step(rhs, t0, y, f, t_end, direction, atol, rtol)
    nfev = 2
    t = t0
    while direction * (t - t_end) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise StepSizeUnderflow(
                    f"required step size is below {min_step:.3g} at t = {t}")
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)

            K = [f]
            for c, row in zip(_C[1:], _A[1:]):
                K.append(rhs(t + c * h, [v + _comb(row, ks) * h
                                         for v, ks in zip(y, zip(*K))]))
            y_new = [v + h * _comb(_B, ks) for v, ks in zip(y, zip(*K))]
            f_new = rhs(t + h, y_new)
            nfev += 12

            scale = [atol + max(abs(v), abs(vn)) * rtol for v, vn in zip(y, y_new)]
            err5 = [_comb(_E5, ks) / s for ks, s in zip(zip(*K), scale)]
            err3 = [_comb(_E3, ks) / s for ks, s in zip(zip(*K), scale)]
            e5 = e3 = 0.0
            for a, b in zip(err5, err3):
                e5, e3 = e5 + a * a, e3 + b * b
            error_norm = (0.0 if e5 == 0
                          else abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * len(y)))
            if error_norm < 1:
                factor = (_MAX_FACTOR if error_norm == 0
                          else min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT))
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
    return ts, ys, nfev


# ---------------------------------------------------------------------------
# derivatives of the field and of the return map
# ---------------------------------------------------------------------------

def cylindrical_jacobian(field: RescaledField, theta, r, w, mu, eps) -> np.ndarray:
    """(2, 2) Jacobian of (dr/dtheta, dw/dtheta) in (r, w) by complex-step
    differentiation, Im f(v + ih) / h: exact to rounding for this rational
    field (no difference is taken) and independent of jet transport."""
    cyl = field.bind(mu, eps).cylindrical
    h = 1e-30
    cols = [cyl(theta, r + 1j * h, w), cyl(theta, r, w + 1j * h)]
    return np.array(cols).imag.T / h


def jet1_complex_step(tmap: ThetaReturnMap, x0, mu, eps) -> MapJet:
    """Value and Jacobian of the return map by the six-float transport of
    `ThetaReturnMap.jet1` on the same stepper and tolerances, with the
    field's derivative along each Jacobian column taken by a complex step:
    the imaginary part of `cylindrical` at (r, w) + i h column, h = 1e-30,
    exact to rounding (no difference is taken) and independent of the
    exact partials `jet1` reads."""
    cyl, h = tmap.field.bind(mu, eps).cylindrical, 1e-30

    def rhs(theta, state):
        r, r1, r2, w, w1, w2 = state
        dr1, dw1 = cyl(theta, complex(r, h * r1), complex(w, h * w1))
        dr2, dw2 = cyl(theta, complex(r, h * r2), complex(w, h * w2))
        return (dr1.real, dr1.imag / h, dr2.imag / h,
                dw1.real, dw1.imag / h, dw2.imag / h)

    state0 = [float(x0[0]), 1.0, 0.0, float(x0[1]), 0.0, 1.0]
    r, r1, r2, w, w1, w2 = flow.dop853(rhs, 0.0, PERIOD, state0,
                                       tmap.cfg.atol, tmap.cfg.rtol)[1][-1]
    return MapJet(value=np.array([r, w]), A=np.array([[r1, r2], [w1, w2]]))


def variational_jacobian(field: Callable, dfield: Callable, x0, t_span,
                         cfg: Optional[IntegratorConfig] = None) -> np.ndarray:
    """Monodromy of the first variational equation (oracle for jet Jacobians).

    `dfield(t, state)` must return the (n, n) Jacobian of the field.
    """
    cfg = cfg or IntegratorConfig()
    x0 = np.asarray(x0, dtype=float)
    n = x0.size

    def rhs(t, stacked):
        state = stacked[:n]
        M = stacked[n:].reshape(n, n)
        return np.concatenate([np.asarray(field(t, state), dtype=float),
                               (np.asarray(dfield(t, state)) @ M).ravel()])

    state0 = np.concatenate([x0, np.eye(n).ravel()])
    sol = solve_ivp(rhs, t_span, state0, method="RK45", rtol=cfg.rtol, atol=cfg.atol)
    if sol.status != 0:
        raise FlowError(f"variational integration failed: {sol.message}")
    return sol.y[n:, -1].reshape(n, n)


def fd_map_jet(map_fn: Callable, x0: np.ndarray, scale: float = 1.0,
               noise: float = 1e-12) -> MapJet:
    """Degree-3 jet by central finite differences.

    The Jacobian uses the classical step h = eps_mach^(1/4) * scale; the
    second- and third-derivative stencils divide the map noise by h^2 and
    h^3, so their steps are balanced against `noise` (the map's absolute
    accuracy, i.e. the integrator atol) instead: h2 ~ noise^(1/4),
    h3 ~ noise^(1/5).  With the classical step the third differences of a
    1e-12-accurate map would be pure noise.
    """
    h1 = (np.finfo(float).eps) ** 0.25 * scale
    h2 = max(h1, noise ** 0.25 * scale)
    h3 = max(h2, noise ** 0.2 * scale)
    e = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]

    def f(p):
        return np.asarray(map_fn(p), dtype=float)

    value = f(x0)
    A = np.zeros((2, 2))
    for j in range(2):
        A[:, j] = (f(x0 + h1 * e[j]) - f(x0 - h1 * e[j])) / (2 * h1)
    B = np.zeros((2, 2, 2))
    for j in range(2):
        B[:, j, j] = (f(x0 + h2 * e[j]) - 2 * value + f(x0 - h2 * e[j])) / h2 ** 2
    mixed = (f(x0 + h2 * (e[0] + e[1])) - f(x0 + h2 * (e[0] - e[1]))
             - f(x0 - h2 * (e[0] - e[1])) + f(x0 - h2 * (e[0] + e[1]))) / (4 * h2 ** 2)
    B[:, 0, 1] = B[:, 1, 0] = mixed
    C = np.zeros((2, 2, 2, 2))
    for j in range(2):
        third = (f(x0 + 2 * h3 * e[j]) - 2 * f(x0 + h3 * e[j])
                 + 2 * f(x0 - h3 * e[j]) - f(x0 - 2 * h3 * e[j])) / (2 * h3 ** 3)
        idx = tuple([j] * 3)
        C[(slice(None),) + idx] = third
    # mixed thirds d^2_j d_k via difference of Hessians
    for j in range(2):
        for k in range(2):
            if j == k:
                continue
            hess_p = (f(x0 + h3 * e[k] + h3 * e[j]) - 2 * f(x0 + h3 * e[k])
                      + f(x0 + h3 * e[k] - h3 * e[j])) / h3 ** 2
            hess_m = (f(x0 - h3 * e[k] + h3 * e[j]) - 2 * f(x0 - h3 * e[k])
                      + f(x0 - h3 * e[k] - h3 * e[j])) / h3 ** 2
            mixed3 = (hess_p - hess_m) / (2 * h3)
            for perm in {(j, j, k), (j, k, j), (k, j, j)}:
                C[(slice(None),) + perm] = mixed3
    return MapJet(value=value, A=A, B=B, C=C)


def jet3_fd(tmap: ThetaReturnMap, x0, mu: float, eps: float,
            scale: float = 1.0) -> MapJet:
    """The degree-3 jet of the theta-return map by central finite differences,
    step h = eps_mach^(1/4) * scale."""
    return fd_map_jet(lambda p: tmap.point(p, mu, eps), np.asarray(x0, float), scale)


# ---------------------------------------------------------------------------
# the standard form evaluated numerically, and both Melnikov functions by
# quadrature of it
# ---------------------------------------------------------------------------

def trig_evaluator(p: TrigPoly) -> Callable:
    """Compiled f(u, r, w, mu) of a t-free TrigPoly, u = e^{i theta}; the
    value of a real trig polynomial is the real part."""
    if any(m[4] for m in p.terms):
        raise ValueError("trig_evaluator needs a TrigPoly free of t")
    return compile_terms({m[:4]: complex(c) for m, c in p.terms.items()},
                         ("u", "r", "w", "mu"))


class StandardForm:
    """F1, F2 and dF1/d(r, w) of a StandardFormSystem at (theta, (r, w), mu),
    compiled once per instance; F2 is `full_F2`'s."""

    def __init__(self, std: StandardFormSystem):
        self.std = std
        self._f1 = tuple(trig_evaluator(t) for t in std.F1)
        self._f2 = tuple(trig_evaluator(t) for t in full_F2(std))
        self._df1 = tuple(tuple(trig_evaluator(t.derivative(v)) for v in ("r", "w"))
                          for t in std.F1)

    @staticmethod
    def _eval(evaluators, theta, x, mu):
        """Re f(e^{i theta}, r, w, mu) for each evaluator; theta is a scalar."""
        u = cmath.exp(1j * theta)
        r, w = x
        return np.array([f(u, r, w, mu).real for f in evaluators])

    def F1(self, theta, x, mu):
        return self._eval(self._f1, theta, x, mu)

    def F2(self, theta, x, mu):
        return self._eval(self._f2, theta, x, mu)

    def DF1(self, theta, x, mu):
        return np.stack([self._eval(row, theta, x, mu) for row in self._df1])

    def periodicity_residual(self, samples: Sequence[Tuple[float, float]],
                             mu) -> float:
        res = 0.0
        for (r, w) in samples:
            a = self.F1(0.0, (r, w), mu) - self.F1(PERIOD, (r, w), mu)
            b = self.F2(0.0, (r, w), mu) - self.F2(PERIOD, (r, w), mu)
            res = max(res, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
        return res


def full_F2(std: StandardFormSystem) -> Tuple[TrigPoly, TrigPoly]:
    """F2 = D2 - F1 a1 of a standard form, every product formed in full (the
    package keeps only the factors and averages their frequency-matched
    parts)."""
    return tuple(D2 - F1 * std.a1 for F1, D2 in zip(std.F1, std.D2))


def f1_quadrature(mel: MelnikovPair, x, mu, tol=QUADRATURE_TOL,
                  max_panels=4096) -> np.ndarray:
    """f1(x) = int_0^T F1(t, x) dt by 12-point Gauss-Legendre panels, doubled
    until two panel counts agree to `tol` (the cross-check of the closed form
    `MelnikovPair.f1`)."""
    sf = StandardForm(mel.std)
    nodes, weights = np.polynomial.legendre.leggauss(12)
    prev = None
    n_panels = 8
    while n_panels <= max_panels:
        total = np.zeros(2)
        edges = np.linspace(0.0, PERIOD, n_panels + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            ts = mid + half * nodes
            vals = np.stack([sf.F1(t, x, mu) for t in ts])
            total += half * (weights[:, None] * vals).sum(axis=0)
        if prev is not None and np.max(np.abs(total - prev)) <= tol:
            return total
        prev = total
        n_panels *= 2
    raise QuadratureNotConverged(f"f1 quadrature not converged at tol={tol}")


def f2_quadrature(mel: MelnikovPair, x, mu, tol=QUADRATURE_TOL,
                  max_panels=2048) -> np.ndarray:
    """f2(z) = int_0^T (F2(t,z) + dF1/dx(t,z) . int_0^t F1(s,z) ds) dt, inner
    antiderivative by cumulative Gauss-Legendre panels, doubled until two
    panel counts agree to `tol` (the cross-check of `MelnikovPair.f2_closed`)."""
    sf = StandardForm(mel.std)
    prev = None
    n_panels = 8
    while n_panels <= max_panels:
        result = _f2_fixed_panels(sf, x, mu, n_panels)
        if prev is not None and np.max(np.abs(result - prev)) <= tol:
            return result
        prev = result
        n_panels *= 2
    raise QuadratureNotConverged(f"f2 quadrature not converged at tol={tol}")


def _f2_fixed_panels(sf: StandardForm, x, mu, n_panels, n_gauss=12):
    nodes, weights = np.polynomial.legendre.leggauss(n_gauss)
    edges = np.linspace(0.0, PERIOD, n_panels + 1)
    total = np.zeros(2)
    cumulative = np.zeros(2)      # int_0^{panel start} F1
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        ts = mid + half * nodes
        order = np.argsort(ts)
        inner = np.zeros((len(ts), 2))
        for t_index in order:
            t = ts[t_index]
            # partial integral over [a, t] with its own Gauss rule
            pm, ph = 0.5 * (a + t), 0.5 * (t - a)
            pvals = np.stack([sf.F1(pm + ph * s, x, mu) for s in nodes])
            inner[t_index] = cumulative + ph * (weights[:, None] * pvals).sum(axis=0)
        outer = np.zeros((len(ts), 2))
        for idx, t in enumerate(ts):
            outer[idx] = sf.F2(t, x, mu) + sf.DF1(t, x, mu) @ inner[idx]
        total += half * (weights[:, None] * outer).sum(axis=0)
        # advance the cumulative integral by the full panel
        pvals = np.stack([sf.F1(mid + half * s, x, mu) for s in nodes])
        cumulative += half * (weights[:, None] * pvals).sum(axis=0)
    return total


# ---------------------------------------------------------------------------
# the full route of the exact layer: each cos^i sin^j expanded by repeated
# products, F2 formed in full and the whole f2 integrand averaged; the
# reference for the terms, and the term order, of `to_standard_form` and
# `melnikov_pair`, which form only the terms that the 2 pi average keeps
# ---------------------------------------------------------------------------

def trig_of_xyz_poly(poly: Poly) -> TrigPoly:
    """x = r cos theta, y = r sin theta, z = w substituted into a Poly over
    (x, y, z, mu), one product with cos or sin per power (the reference of
    `TrigPoly.from_xyz_poly` and its cached cos^i sin^j table)."""
    out = TrigPoly()
    for (i, j, k, a, b), coeff in poly.terms.items():
        assert b == 0
        term = TrigPoly({(0, i + j, k, a, 0): CFrac(coeff)})
        for _ in range(i):
            term = term * TRIG_COS
        for _ in range(j):
            term = term * TRIG_SIN
        out = out + term
    return out


def standard_form_full(sys: HopfZeroSystem, fam: PerturbationFamily
                       ) -> Tuple[Tuple[TrigPoly, TrigPoly], Tuple[TrigPoly, TrigPoly]]:
    """(F1, F2) of the standard form, F2 = (rdot2 - rdot1 a1, wdot2 - wdot1 a1)
    formed in full."""
    slices = eps_graded_slices(sys, fam)
    T1, T2 = ([trig_of_xyz_poly(p) for p in slices[g]] if len(slices) > g
              else [TrigPoly() for _ in range(3)] for g in (1, 2))
    rdot1 = TRIG_COS * T1[0] + TRIG_SIN * T1[1]
    a1 = (TRIG_COS * T1[1] - TRIG_SIN * T1[0]) * _R_INV
    wdot1 = T1[2]
    rdot2 = TRIG_COS * T2[0] + TRIG_SIN * T2[1]
    wdot2 = T2[2]
    return (rdot1, wdot1), (rdot2 - rdot1 * a1, wdot2 - wdot1 * a1)


def _accumulate(out: dict, key, value) -> None:
    prev = out.get(key)
    out[key] = value if prev is None else prev + value


def antiderivative_full(F: TrigPoly) -> TrigPoly:
    """Integral from 0 to theta of a t-free F, by CFrac division."""
    out: dict = {}
    for (m, a, b, c, _), v in F.terms.items():
        if m == 0:
            _accumulate(out, (0, a, b, c, 1), v)
        else:
            inv = v / CFrac(0, m)
            _accumulate(out, (m, a, b, c, 0), inv)
            _accumulate(out, (0, a, b, c, 0), -inv)
    return TrigPoly(out)


def integrate_2pi_full(F: TrigPoly) -> PiPoly:
    """Integral over [0, 2 pi] of F at most linear in t, summed as
    Fractions term by term."""
    out: dict = {}
    imag: dict = {}
    for (m, a, b, c, n), v in F.terms.items():
        if m == 0:
            assert not v.im
            _accumulate(out, (a, b, c, 1 + n), 2 * v.re)
        elif n:
            val = v / CFrac(0, m)
            _accumulate(out, (a, b, c, 1), 2 * val.re)
            _accumulate(imag, (a, b, c), val.im)
    assert not any(imag.values())
    return PiPoly(out)


def melnikov_pair_full(sys: HopfZeroSystem, fam: PerturbationFamily
                       ) -> Tuple[Tuple[PiPoly, PiPoly], Tuple[PiPoly, PiPoly]]:
    """(f1, f2) by the 2 pi average of F1 and of the whole integrand
    F2 + dF1/dr Phi_r + dF1/dw Phi_w, Phi = int_0^theta F1."""
    F1s, F2s = standard_form_full(sys, fam)
    f1 = tuple(integrate_2pi_full(F) for F in F1s)
    Phi = tuple(antiderivative_full(F) for F in F1s)
    f2 = tuple(integrate_2pi_full(F2 + F1.derivative("r") * Phi[0]
                                  + F1.derivative("w") * Phi[1])
               for F1, F2 in zip(F1s, F2s))
    return f1, f2


# ---------------------------------------------------------------------------
# Omega of a degree lift, from the lifted polynomial system
# ---------------------------------------------------------------------------

def omega_of_lift_family(seed_field, L, delta) -> Fraction:
    """Omega of the normalized lift X_{L, delta}, built as polynomials.

    Omega reads only the quadratic part of the normalized lift: lin_i times
    the part of seed_i of degree <= 1 in (x, y, z), conjugated by an M that
    depends only on the seed at the origin.  So this lifts the seed's 1-jet
    with `build_lift_family` and reads Omega off its validated system."""
    jet1 = tuple(Poly({m: c for m, c in as_poly(p).terms.items()
                       if m[0] + m[1] + m[2] <= 1}) for p in seed_field)
    fam = build_lift_family(jet1, L, delta)
    if fam.system is None:
        raise LiftError(f"normalization failed at L={L}, delta={delta}")
    return fam.system.omega


# ---------------------------------------------------------------------------
# the Fourier fit of an invariant curve, one least-squares problem per order
# ---------------------------------------------------------------------------

def fourier_fit_lstsq(points, center, order) -> Tuple[np.ndarray, np.ndarray, float]:
    """(cos_coeffs, sin_coeffs, rms) of the order-`order` least-squares fit of
    the radius about `center` against the polar angle, by its own `lstsq`:
    the reference for `torus.fit_fourier_curve`, which reads every order off
    one QR."""
    rel = np.asarray(points, dtype=float) - center
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    rad = np.linalg.norm(rel, axis=1)
    A = np.ones((len(ang), 2 * order + 1))
    for k in range(1, order + 1):
        A[:, 2 * k - 1] = np.cos(k * ang)
        A[:, 2 * k] = np.sin(k * ang)
    coef, *_ = np.linalg.lstsq(A, rad, rcond=None)
    rms = float(np.sqrt(np.mean((rad - A @ coef) ** 2)))
    return np.concatenate([[coef[0]], coef[1::2]]), coef[2::2], rms


# ---------------------------------------------------------------------------
# the normal contraction of an invariant curve, from a ring of probes
# ---------------------------------------------------------------------------

def curve_radius(curve, angle):
    """The radius of a `torus.FourierCurve` at each polar angle about its center."""
    angle = np.asarray(angle, dtype=float)
    out = np.full_like(angle, curve.cos_coeffs[0])
    for k in range(1, curve.order + 1):
        out = out + curve.cos_coeffs[k] * np.cos(k * angle) \
            + curve.sin_coeffs[k - 1] * np.sin(k * angle)
    return out


def curve_point(curve, angle) -> np.ndarray:
    """The point of a `torus.FourierCurve` at each polar angle about its center."""
    r = curve_radius(curve, angle)
    return curve.center + np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1)


def curve_distance(curve, points) -> np.ndarray:
    """Radial distance of each point to a `torus.FourierCurve`."""
    rel = np.atleast_2d(points) - curve.center
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    return np.abs(np.linalg.norm(rel, axis=1) - curve_radius(curve, ang))


def normal_contraction(tmap, curve, mu, eps, reverse, probes=16, offset=1e-3,
                       returns=48, escape_bound=50.0) -> Optional[float]:
    """Asymptotic per-return normal contraction factor kappa of the curve,
    in the direction `reverse` selects.

    A single return advances a probe a twentieth of a circuit, where the
    local normal rate can differ wildly from the Floquet average, so the
    factor is taken from the log-slope of the probe-ring distance to the
    curve over many returns (window limited to distances that are above the
    fit noise and still in the linear regime).  The ring starts `offset`
    mean radii outside the curve.  None with fewer than 6 returns in the
    window."""
    angles = np.linspace(0.0, 2 * np.pi, probes, endpoint=False)
    on = curve_point(curve, angles)
    normals = on - curve.center
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    X = on + offset * curve.mean_radius * normals
    floor = max(20.0 * curve.rms_residual, 1e-9 * curve.mean_radius)
    cap = 0.05 * curve.mean_radius
    logs = []
    steps = []
    for k in range(1, returns + 1):
        try:
            X = tmap.points(X, mu, eps, reverse=reverse)
        except FlowError:
            break
        if not np.all(np.isfinite(X)) or np.max(np.abs(X)) > escape_bound:
            break
        d = curve_distance(curve, X)
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


# ---------------------------------------------------------------------------
# helpers only the tests call
# ---------------------------------------------------------------------------

def jet_apply(jet: MapJet, h) -> np.ndarray:
    """The map jet's degree-3 Taylor polynomial at the offset h."""
    h = np.asarray(h, dtype=float)
    return (jet.value + jet.A @ h
            + 0.5 * np.einsum('ijk,j,k->i', jet.B, h, h)
            + np.einsum('ijkl,j,k,l->i', jet.C, h, h, h) / 6.0)


def jet_max_asymmetry(jet: MapJet) -> float:
    """Largest difference between entries of B and C that symmetry makes equal."""
    b = max(float(np.max(np.abs(jet.B[:, 0, 1] - jet.B[:, 1, 0]))), 0.0)
    c = 0.0
    for comp in range(2):
        for p in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
            c = max(c, abs(jet.C[comp][p] - jet.C[comp][(0, 0, 1)]))
        for p in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            c = max(c, abs(jet.C[comp][p] - jet.C[comp][(0, 1, 1)]))
    return max(b, c)


def poly_to_float(p: Poly) -> Poly:
    """The same polynomial with float coefficients."""
    return Poly({m: float(c) for m, c in p.terms.items()})


def degree_report(f: Union[str, Poly]) -> Dict[str, int]:
    """Degree in each variable, total degree in (x, y, z) and in (mu, eps)."""
    p = as_poly(f)
    rep = {v: p.degree((v,)) for v in VARIABLES}
    rep["xyz_total"] = p.degree(("x", "y", "z"))
    rep["param_total"] = p.degree(("mu", "eps"))
    return rep


def evaluate_field(f: Union[str, Poly], point, params=(0, 0)):
    """Evaluate at (x, y, z) with parameters (mu, eps); exact for exact input."""
    px, py, pz = point
    pmu, peps = params
    return as_poly(f).eval(x=px, y=py, z=pz, mu=pmu, eps=peps)


def jet_product(a: Jet3, b: Jet3) -> Jet3:
    """Degree-3 truncated product of two jets (Leibniz on Taylor
    coefficients), the product jet_extract(f * g) must equal."""
    def factorial3(idx):
        return math.prod(math.factorial(n) for n in idx)

    out = {}
    for i1, v1 in a.items():
        for i2, v2 in b.items():
            idx = tuple(p + q for p, q in zip(i1, i2))
            if sum(idx) <= 3:
                out[idx] = (out.get(idx, 0)
                            + v1 / factorial3(i1) * (v2 / factorial3(i2)))
    return Jet3({idx: c * factorial3(idx) for idx, c in out.items()})


class FractionCFrac:
    """Gaussian rational as a pair of Fractions: the representation
    `averaging.CFrac` had before it moved to one integer triple, kept as the
    reference for its arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return FractionCFrac(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return FractionCFrac(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if isinstance(other, FractionCFrac):
            return FractionCFrac(self.re * other.re - self.im * other.im,
                                 self.re * other.im + self.im * other.re)
        return FractionCFrac(self.re * other, self.im * other)

    def __truediv__(self, other):
        if isinstance(other, FractionCFrac):
            n = other.re * other.re + other.im * other.im
            return FractionCFrac((self.re * other.re + self.im * other.im) / n,
                                 (self.im * other.re - self.re * other.im) / n)
        return FractionCFrac(self.re / other, self.im / other)

    def __neg__(self):
        return FractionCFrac(-self.re, -self.im)

    def __eq__(self, other):
        return (isinstance(other, FractionCFrac) and self.re == other.re
                and self.im == other.im)

    def __bool__(self):
        return bool(self.re or self.im)

    def __complex__(self):
        return complex(self.re, self.im)
