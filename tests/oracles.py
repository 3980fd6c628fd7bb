"""Reference routes that only the tests use.

Each one computes a quantity of the package by an independent method: a
plane-section return with event location and dense output, the variational
equation, finite differences, complex-step differentiation and plain
Gauss-Legendre quadrature of the standard form, whose F2 `full_F2` forms
from the factors the package keeps, and the float Jacobian of f1
(`f1_jacobian`), whose eigenvalues check the averaged spectrum that
`spectrum_identity` checks exactly.
`melnikov_pair_full` is the exact layer's full route: it expands every
cos^i sin^j by repeated products, forms F2 and averages the whole f2
integrand, the reference for the terms and the term order of
`melnikov_pair`, which forms only what the average keeps;
`standard_form_full` keeps the true factors F1, a1 and D2 that
`to_standard_form` holds on cleared denominators, and `std_F1`, `std_a1`
and `std_D2` divide a standard form's own factors back to them.
The integrations here stay on scipy's `solve_ivp`, so they also check the
package's own Dormand-Prince stepper; `dop853_loop` is that stepper with one
list comprehension per stage, the bitwise oracle of its generated step, on
the same right-hand sides rhs(t, *y), and `run_steps` drains either
generator into its steps and its return value.  `map_points` maps an array of seeds
one return each.  `first_lyapunov_quantity` reads ell_1 off the eps-series
of the averaged map in floats, the oracle of `HopfZeroSystem.ell1_exact`:
`fit_ell1` fits the closed form's integer coefficients to it, and
`ell1_nested_source` writes the nested form the package evaluates.
`omega_of_lift_family` reads Omega of a degree lift off
the whole normalized `Poly` system, and `lift_omega` derives it from the
lift's normalization matrix, on symbols too: the references for the
closed form `lift.omega_coefficients`, which `omega_of_lift` evaluates.  `normal_contraction` measures the
normal rate of an invariant curve by following a ring of probes off it,
the reference for `torus.normal_exponent`, and `fourier_fit_lstsq` solves one least-squares
problem per Fourier order and `fourier_fit_qr` every order from one QR of
the design, the references for `torus.fit_fourier_curve`, which reads every
order off the Cholesky factor of the design's Gram matrix.
`ladder_fit_vander`, `normalizing_matrix` and `lyapunov_coefficient_einsum`
are the Neimark-Sacker layer's fits, Jordan normalization and tensor
contractions on numpy arrays (a LAPACK solve, inv(M) @ A @ M, einsum): the
references for `nsbranch`, which reads the same jets as Python floats.
`ReferenceParser` reads an expression on tokens of a character loop and
multiplies one Poly per factor, the reference for the terms, their order and
the errors of `fieldexpr.parse_field`.  The last section holds small helpers
only the tests call (`branch_xi1` evaluates the printed xi1(mu), `poly_eval`
evaluates a `Poly` exactly, `ell1_transcribed` evaluates the transcribed
closed form of ell_1, `raw_partials` tabulates a Poly's partials up to
order 3 and `jet_product` multiplies two such tables by Leibniz), and `FractionCFrac`, the Fraction-pair Gaussian
rational that checks `averaging.CFrac`.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence, Tuple, Union
from unittest import mock

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate._ivp import common as scipy_common, rk as scipy_rk

from torusforge.averaging import (
    TRIG_COS, TRIG_SIN, _R_INV, CFrac, MelnikovPair, PiPoly, StandardFormSystem, TrigPoly,
    melnikov_pair, to_standard_form,
)
from torusforge.criteria import (
    AveragingError, HopfZeroSystem, PerturbationFamily, _ell1_closed_form, _exact_criteria,
    _ingredients, _on_scaled, eps_graded_slices, validate_hopf_zero,
)
from torusforge.fieldexpr import (
    MAX_NESTING, MAX_POWER, VARIABLES, FieldExprError, FieldSyntaxError, Poly,
    UnknownIdentifierError, _check_size, as_poly, compile_terms, partial,
)
from torusforge import flow, univariate
from torusforge.flow import (
    _A, _B, _C, _E3, _E5, _ERROR_EXPONENT, _MAX_FACTOR, _MIN_FACTOR, _SAFETY, PERIOD,
    FlowError, IntegratorConfig, Jet2, MapJet, RescaledField, StepSizeUnderflow,
    ThetaReturnMap,
)
from torusforge.lift import (
    LiftError, NoPositiveOmegaFound, OriginJet, _inv3, _rational_sqrt, _row_poly,
    build_lift_family, omega_coefficients, origin_jet,
)
from torusforge.nsbranch import BranchConstants
from torusforge.torus import FOURIER_ORDER, FOURIER_TOLERANCE, FourierCurve

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
    """Next crossing of the plane section in the prescribed direction, of
    the flow of field(t, x, y, z).

    The event time from the integrator is polished by Newton on the dense
    output until |coordinate| <= 1e-12 (bisection-style fallback on stall).
    """
    cfg = cfg or IntegratorConfig()
    k = section.coordinate

    def vector(t, state):
        return field(t, *state)

    def event(t, state):
        return state[k]

    event.terminal = True
    event.direction = section.direction

    x0 = np.asarray(x0, dtype=float)
    # leave the section before arming the event: start is on the section
    f0 = np.asarray(vector(0.0, x0), dtype=float)
    if abs(f0[k]) < TANGENCY_SPEED:
        raise TangencyDetected(f"transversal speed {f0[k]} at start")
    t_lift = 1e-6
    lift = solve_ivp(vector, (0.0, t_lift), x0, method="RK45", rtol=cfg.rtol,
                     atol=cfg.atol, dense_output=False)
    x_lift = lift.y[:, -1]

    sol = solve_ivp(vector, (t_lift, horizon), x_lift, method="RK45", rtol=cfg.rtol,
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
        speed = np.asarray(vector(t_hit, state), dtype=float)[k]
        if abs(speed) < TANGENCY_SPEED:
            raise TangencyDetected(f"transversal speed {speed} at event")
        t_new = t_hit - res / speed
        if not (window[0] <= t_new <= window[1]):
            # bisection-style fallback toward the crossing side
            t_new = 0.5 * (t_hit + (window[1] if res * speed < 0 else window[0]))
        t_hit = t_new
    state = np.asarray(dense(t_hit), dtype=float)
    speed = np.asarray(vector(t_hit, state), dtype=float)[k]
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


def _comprehension_step(rhs: Callable, t: float, h: float, y: list, f, atol: float,
                        rtol: float):
    """One DOP853 step with each stage a list comprehension over the
    components, read off the tableau tuples in a loop: (y_new, f_new,
    error_norm), as `flow._dp_step`'s generated step returns them."""
    K = [f]
    for c, row in zip(_C[1:], _A[1:]):
        K.append(rhs(t + c * h, *[v + _comb(row, ks) * h for v, ks in zip(y, zip(*K))]))
    y_new = [v + h * _comb(_B, ks) for v, ks in zip(y, zip(*K))]
    f_new = rhs(t + h, *y_new)
    scale = [atol + max(abs(v), abs(vn)) * rtol for v, vn in zip(y, y_new)]
    err5 = [_comb(_E5, ks) / s for ks, s in zip(zip(*K), scale)]
    err3 = [_comb(_E3, ks) / s for ks, s in zip(zip(*K), scale)]
    e5 = e3 = 0.0
    for a, b in zip(err5, err3):
        e5, e3 = e5 + a * a, e3 + b * b
    return y_new, f_new, (0.0 if e5 == 0
                          else abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * len(y)))


def run_steps(steps) -> Tuple[list, list, object]:
    """The times and states a step generator (`flow.dop853`,
    `flow.integrate`) yields, drained to its end, and its return value (the
    StopIteration.value: dop853's RHS count and h_next, None for integrate).  An error
    of the run is raised here, at the step it stops on."""
    ts, ys = [], []
    while True:
        try:
            t, y = next(steps)
        except StopIteration as stop:
            return ts, ys, stop.value
        ts.append(t)
        ys.append(y)


def dop853_loop(rhs: Callable, t0: float, t_end: float, y0, atol: float,
                rtol: float, h0=None) -> Tuple[list, list, tuple]:
    """`flow.dop853` with each step taken by `_comprehension_step`: the
    oracle of the generated straight-line step, which must return the same
    times, states, RHS count and h_next bit for bit, cold or from the warm
    start h0."""
    y = list(y0)
    f = rhs(t0, *y)
    ts, ys = [t0], [y]
    if t_end == t0:
        return ts, ys, (1, None)
    direction = 1.0 if t_end > t0 else -1.0
    if h0 is None:
        h_abs, nfev = flow._initial_step(rhs, t0, y, f, t_end, direction, atol, rtol), 2
    else:
        h_abs, nfev = h0, 1
    h_next = None
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
                t_new, h_next = t_end, h_abs
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, error_norm = _comprehension_step(rhs, t, h, y, f, atol, rtol)
            nfev += 12
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
    return ts, ys, (nfev, h_next)


def scipy_controlled_dop853(rhs: Callable, t_end: float, y0, atol: float, rtol: float):
    """solve_ivp's DOP853 from t = 0 to t_end, its controller unchanged (the
    initial step selection, the accept/reject loop and the RHS count), with
    each step taken by `_comprehension_step`, which sums the stages and the
    error estimate in `flow._dp_step`'s order, and its RMS norm taken by
    math.hypot, as `flow._rms` takes it.  scipy's own step sums by numpy's
    dot and its norm is numpy's, which round differently: the initial step
    then differs by a few ulps, and where an error norm sits near a
    decision, the step sequences part.  Returns solve_ivp's result."""
    norms = []

    def step(fun, t, y, f, h, A, B, C, K):
        def stage(ts, *ys):
            return fun(ts, np.array(ys)).tolist()     # counted in scipy's nfev
        y_new, f_new, norm = _comprehension_step(stage, t, h, y.tolist(), f.tolist(),
                                                 atol, rtol)
        norms.append(norm)
        return np.array(y_new), np.array(f_new)

    class TableauOrder(DOP853):
        def _estimate_error_norm(self, K, h, scale):
            return norms[-1]

    with mock.patch.object(scipy_rk, "rk_step", step), \
            mock.patch.object(scipy_common, "norm", lambda x: math.hypot(*x) / x.size ** 0.5):
        return solve_ivp(lambda t, s: np.array(rhs(t, *s.tolist())), (0.0, t_end),
                         np.array(y0, dtype=float), method=TableauOrder, atol=atol, rtol=rtol)


def map_points(tmap, X0, mu: float, eps: float, reverse: bool = False) -> np.ndarray:
    """Each (r, w) row of X0 through one return of `tmap`, one
    `ThetaReturnMap.point` per row, as an (n, 2) array."""
    return np.array([tmap.point(x, mu, eps, reverse=reverse)
                     for x in np.atleast_2d(np.asarray(X0, dtype=float)).tolist()])


# ---------------------------------------------------------------------------
# derivatives of the field and of the return map
# ---------------------------------------------------------------------------

def cylindrical_jacobian(field: RescaledField, theta, r, w, mu, eps) -> np.ndarray:
    """(2, 2) Jacobian of (dr/dtheta, dw/dtheta) in (r, w) by complex-step
    differentiation, Im f(v + ih) / h: exact to rounding for this rational
    field (no difference is taken) and independent of jet transport."""
    cyl = field.rhs("return", mu, eps)
    h = 1e-30
    cols = [cyl(theta, r + 1j * h, w), cyl(theta, r, w + 1j * h)]
    return np.array(cols).imag.T / h


def jet1_complex_step(tmap: ThetaReturnMap, x0, mu, eps) -> MapJet:
    """Value and Jacobian of the return map by the six-float transport of
    `ThetaReturnMap.jet1`, replayed on jet1's own accepted steps, with the
    field's derivative along each Jacobian column taken by a complex step:
    the imaginary part of the "return" right-hand side at (r, w) + i h
    column, h = 1e-30, exact to rounding (no difference is taken) and
    independent of the exact partials `jet1` reads.  The step times are those `flow.dop853`
    accepts on the "jet1" right-hand side; each step of the replay is one
    `_comprehension_step` of fixed size, so the two routes differ only in
    the rounding of the right-hand side and of the stage sums, not in the
    step-size control that rounding could otherwise tip."""
    cyl, h = tmap.field.rhs("return", mu, eps), 1e-30

    def rhs(theta, r, r1, r2, w, w1, w2):
        dr1, dw1 = cyl(theta, complex(r, h * r1), complex(w, h * w1))
        dr2, dw2 = cyl(theta, complex(r, h * r2), complex(w, h * w2))
        return (dr1.real, dr1.imag / h, dr2.imag / h,
                dw1.real, dw1.imag / h, dw2.imag / h)

    state = [float(x0[0]), 1.0, 0.0, float(x0[1]), 0.0, 1.0]
    ts = run_steps(flow.dop853(tmap.field.rhs("jet1", mu, eps), 0.0, PERIOD, state,
                               tmap.cfg.atol, tmap.cfg.rtol))[0]
    f = rhs(ts[0], *state)
    for t, t_next in zip(ts, ts[1:]):
        state, f, _ = _comprehension_step(rhs, t, t_next - t, state, f,
                                          tmap.cfg.atol, tmap.cfg.rtol)
    r, r1, r2, w, w1, w2 = state
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
    return fd_map_jet(lambda p: np.array(tmap.point(p, mu, eps)), np.asarray(x0, float), scale)


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
        self._f1 = tuple(trig_evaluator(t) for t in std_F1(std))
        self._f2 = tuple(trig_evaluator(t) for t in full_F2(std))
        self._df1 = tuple(tuple(trig_evaluator(t.derivative(v)) for v in ("r", "w"))
                          for t in std_F1(std))

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


def std_F1(std: StandardFormSystem) -> Tuple[TrigPoly, TrigPoly]:
    """The true F1 of a standard form, which keeps s F1 (s = `std.scale`)."""
    return tuple(F.scale(Fraction(1, std.scale)) for F in std._F1)


def std_a1(std: StandardFormSystem) -> TrigPoly:
    """The true a1 of a standard form, which keeps s a1."""
    return std._a1.scale(Fraction(1, std.scale))


def std_D2(std: StandardFormSystem) -> Tuple[TrigPoly, TrigPoly]:
    """The true D2 of a standard form, which keeps s^2 D2."""
    return tuple(D.scale(Fraction(1, std.scale ** 2)) for D in std._D2)


def full_F2(std: StandardFormSystem) -> Tuple[TrigPoly, TrigPoly]:
    """F2 = D2 - F1 a1 of a standard form, every product formed in full (the
    package keeps only the factors and averages their frequency-matched
    parts)."""
    return tuple(D2 - F1 * std_a1(std) for F1, D2 in zip(std_F1(std), std_D2(std)))


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


def f1_jacobian(mel: MelnikovPair, x, mu) -> np.ndarray:
    """The float Jacobian of f1 in (r, w) at x = (r, w): its exact partials,
    each compiled and evaluated.  Its `np.linalg.eigvals` are the float
    check of the averaged spectrum that `criteria.hypotheses` reads off an
    exact identity (`spectrum_identity`)."""
    r, w = x
    return np.array([[p.derivative(v).evaluator()(r, w, mu) for v in ("r", "w")]
                     for p in mel.f1_exact])


def spectrum_identity(mel: MelnikovPair, sys: HopfZeroSystem,
                      fam: PerturbationFamily) -> bool:
    """Whether the exact f1 of `mel`, the pair of `sys` and `fam`, and its
    Jacobian J satisfy, on the line w = w_mu(mu) = -sigma(mu) / d and as
    PiPolys in (r, mu, pi),

        f1_r = 0,  f1_w = k (r^2 + Gamma(mu)),  tr J = 2 eta(mu),
        det J = pi^2 Omega r^2,

    for a constant k, where eta = pi e(mu) / d, and e = eta d / pi and Gamma
    are the criteria's exact polynomials in mu (`criteria._exact_criteria`).
    Every term of f1 carries pi once, so k is the coefficient of r^2 pi in
    f1_w.  The identity by which `criteria.hypotheses` reads H as
    Omega > 0."""
    d = sys.divergence_pair
    eta, gamma, _ = _exact_criteria(sys, fam)
    sigma = _ingredients(fam)[0]
    on_line = {"w": PiPoly({(0, 0, m[3], 0): -c / d for m, c in sigma.terms.items()})}
    f_r, f_w = (f.substitute(on_line) for f in mel.f1_exact)
    (a, b), (c, e) = ([f.derivative(v).substitute(on_line) for v in ("r", "w")]
                      for f in mel.f1_exact)

    def pi_poly(p):
        return PiPoly({(0, 0, k, 1): q for k, q in enumerate(p)})

    k = f_w.terms.get((2, 0, 0, 1), 0)
    return (not f_r and f_w == (pi_poly(gamma) + PiPoly({(2, 0, 0, 1): Fraction(1)})).scale(k)
            and a + e == pi_poly(eta).scale(2 / d)
            and a * e - b * c == PiPoly({(2, 0, 0, 2): sys.omega}))


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


@dataclass
class FullStandardForm:
    """The factors F1, a1 and D2 of the standard form, with true (not
    cleared) denominators, and F2 = D2 - F1 a1 formed in full."""
    F1: Tuple[TrigPoly, TrigPoly]
    a1: TrigPoly
    D2: Tuple[TrigPoly, TrigPoly]
    F2: Tuple[TrigPoly, TrigPoly]


def standard_form_full(sys: HopfZeroSystem, fam: PerturbationFamily) -> FullStandardForm:
    """The standard form from the eps slices as they are,
    F2 = (rdot2 - rdot1 a1, wdot2 - wdot1 a1) formed in full."""
    slices = eps_graded_slices(sys, fam)
    T1, T2 = ([trig_of_xyz_poly(p) for p in slices[g]] if len(slices) > g
              else [TrigPoly() for _ in range(3)] for g in (1, 2))
    rdot1 = TRIG_COS * T1[0] + TRIG_SIN * T1[1]
    a1 = (TRIG_COS * T1[1] - TRIG_SIN * T1[0]) * _R_INV
    wdot1 = T1[2]
    rdot2 = TRIG_COS * T2[0] + TRIG_SIN * T2[1]
    wdot2 = T2[2]
    return FullStandardForm(F1=(rdot1, wdot1), a1=a1, D2=(rdot2, wdot2),
                            F2=(rdot2 - rdot1 * a1, wdot2 - wdot1 * a1))


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
    full = standard_form_full(sys, fam)
    F1s, F2s = full.F1, full.F2
    f1 = tuple(integrate_2pi_full(F) for F in F1s)
    Phi = tuple(antiderivative_full(F) for F in F1s)
    f2 = tuple(integrate_2pi_full(F2 + F1.derivative("r") * Phi[0]
                                  + F1.derivative("w") * Phi[1])
               for F1, F2 in zip(F1s, F2s))
    return f1, f2


# ---------------------------------------------------------------------------
# ell_1: the eps-series of the averaged map, and the fit and generation of
# its closed form
# ---------------------------------------------------------------------------

@dataclass
class Ell1Result:
    ell1: float
    l11: float
    l12: float
    mu1: float
    omega0: float
    u1: np.ndarray          # first-order fixed point slice at mu0 = 0
    M0: np.ndarray
    M1: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    zeta2: float


def first_lyapunov_quantity(sys: HopfZeroSystem) -> Ell1Result:
    """ell_1 of the Hopf-Zero system, depending only on (P, Q, R), by floats.

    Computed by running the degree-preserving family (0, 0, mu z + beta eps)
    through exact second-order averaging and reading the eps^2 slice of the
    map Lyapunov coefficient at the bifurcation curve:
    ell_1^eps = (pi eps^2 / 16 Omega^2) ell_1 + O(eps^3).  The oracle of
    `HopfZeroSystem.ell1_exact`, which it fits (`fit_ell1`).
    """
    fam = PerturbationFamily.simple(sys.beta)
    S = sys.quadratic_sum
    Omega = float(sys.omega)
    if Omega <= 0:
        raise AveragingError("Omega <= 0: no Hopf pair, ell1 undefined")
    mel = melnikov_pair(to_standard_form(sys, fam))

    gamma_scale = math.sqrt(abs(float(S)))
    r0 = 2.0 / gamma_scale
    omega0 = math.pi * math.sqrt(Omega) * r0

    # derivative tensors at (r, w, mu) = (r0, 0, 0), read off the compiled f1,
    # f2 evaluated on degree-3 jets in (r, w), and in (r, mu), (w, mu) for the
    # mixed mu slices
    def jet(evaluators, r, w, mu) -> MapJet:
        j = MapJet.from_jets(*(v if isinstance(v, Jet2) else Jet2.constant(v)
                               for v in (f(r, w, mu) for f in evaluators)))
        return MapJet(*map(np.array, (j.value, j.A, j.B, j.C)))

    R, W, MU = Jet2.variable(0, r0), Jet2.variable(1, 0.0), Jet2.variable(1, 0.0)
    f1_rw = jet(mel._f1_eval, R, W, 0.0)
    f2_rw = jet(mel._f2_eval, R, W, 0.0)
    f1_rmu = jet(mel._f1_eval, R, 0.0, MU)
    f1_wmu = jet(mel._f1_eval, r0, Jet2.variable(0, 0.0), MU)
    f2_0, Df1, Df2 = f2_rw.value, f1_rw.A, f2_rw.A
    DmuDf1 = np.stack([f1_rmu.B[:, 0, 1], f1_wmu.B[:, 0, 1]], axis=1)
    D2f1, D2f2, D3f2 = f1_rw.B, f2_rw.B, f2_rw.C

    # fixed point slice and eigen data
    u1 = -np.linalg.solve(Df1, f2_0)
    lam1 = 1j * omega0
    v = np.array([Df1[0, 1], lam1 - Df1[0, 0]])
    l = np.array([Df1[1, 0], lam1 - Df1[0, 0]])
    lv = l @ v

    C2_base = np.einsum('ijk,k->ij', D2f1, u1) + Df2
    lam2a = (l @ (DmuDf1 @ v)) / lv
    lam2b = (l @ (C2_base @ v)) / lv
    # |lambda|^2 = 1 at eps^2:  2 Re lam2 + omega0^2 = 0
    mu1 = -(2.0 * lam2b.real + omega0 ** 2) / (2.0 * lam2a.real)
    lam2 = lam2a * mu1 + lam2b
    C2 = mu1 * DmuDf1 + C2_base

    # M(eps) from the eigenvector with first component i
    n1 = -1j * (Df1[0, 0] - lam1)
    n2 = -1j * (C2[0, 0] - lam2)
    d1, d2 = Df1[0, 1], C2[0, 1]
    v2_0 = n1 / d1
    v2_1 = (n2 - v2_0 * d2) / d1
    M0 = np.array([[1.0, 0.0], [v2_0.imag, v2_0.real]])
    M1 = np.array([[0.0, 0.0], [v2_1.imag, v2_1.real]])
    M0inv = np.linalg.inv(M0)
    Minv1 = -M0inv @ M1 @ M0inv

    # Pi tensors at xi(eps): B = eps B1 + eps^2 B2, C = eps^2 C2t.
    # f1 has degree <= 2 in (r, w) and its Hessian is mu-free, so the eps^2
    # slice of the Hessian along the branch is D2f2 alone.
    B1 = D2f1
    B2 = D2f2
    C2t = D3f2

    def bil(T, a, b):
        return np.einsum('ijk,j,k->i', T, a, b)

    def tril(T, a, b, c):
        return np.einsum('ijkl,j,k,l->i', T, a, b, c)

    p = np.array([1.0, -1.0j]) / math.sqrt(2.0)
    pb = p.conjugate()

    def inner(u_, v_):
        return np.vdot(u_, v_)

    def g_series(a, b):
        g1 = inner(p, M0inv @ bil(B1, M0 @ a, M0 @ b))
        g2 = inner(p, Minv1 @ bil(B1, M0 @ a, M0 @ b)
                   + M0inv @ (bil(B1, M1 @ a, M0 @ b) + bil(B1, M0 @ a, M1 @ b))
                   + M0inv @ bil(B2, M0 @ a, M0 @ b))
        return g1, g2

    g20_1, g20_2 = g_series(p, p)
    g11_1, g11_2 = g_series(p, pb)
    g02_1, g02_2 = g_series(pb, pb)
    g21_2 = inner(p, M0inv @ tril(C2t, M0 @ p, M0 @ p, M0 @ pb))

    # Lyapunov formula expanded in eps (lam = 1 + eps lam1 + eps^2 lam2):
    # Fac = (1 - 2 lam) lam^{-2} / (2 (1 - lam)) = Fm1/eps + F0 + O(eps),
    # with N = (1 - 2 lam) lam^{-2} / 2 = N0 + eps N1 and 1 - lam = -eps lam1 - ...
    a0, a1c = -1.0, -2.0 * lam1            # (1 - 2 lam) series
    b0, b1 = 1.0, -2.0 * lam1              # lam^{-2} series
    N0 = 0.5 * a0 * b0
    N1 = 0.5 * (a0 * b1 + a1c * b0)
    Fm1 = -N0 / lam1
    F0 = -(N1 / lam1 - N0 * lam2 / lam1 ** 2)

    q2 = g20_1 * g11_1
    q3 = g20_1 * g11_2 + g20_2 * g11_1

    term1_e2 = 0.5 * g21_2.real
    term2_e1 = -(Fm1 * q2).real
    term2_e2 = -(Fm1 * q3 + F0 * q2).real
    term3_e2 = -0.5 * abs(g11_1) ** 2
    term4_e2 = -0.25 * abs(g02_1) ** 2

    l11 = term2_e1
    l12 = term1_e2 + term2_e2 + term3_e2 + term4_e2
    ell1 = 16.0 * Omega ** 2 * l12 / math.pi

    # Jordan-form expansion data: A1/A2 from lam series (a = Re lam, b = Im lam)
    A1 = np.array([[lam1.real, -lam1.imag], [lam1.imag, lam1.real]])
    A2 = np.array([[lam2.real, -lam2.imag], [lam2.imag, lam2.real]])
    return Ell1Result(ell1=ell1, l11=l11, l12=l12, mu1=mu1, omega0=omega0,
                      u1=u1, M0=M0, M1=M1, A1=A1, A2=A2, zeta2=lam2.imag)


# the quadratic and cubic jet indices (i, j, k); an ell_1 form is a
# polynomial in the 48 entries P(i, j, k), Q(i, j, k), R(i, j, k)
ELL1_INDICES = tuple((i, j, d - i - j) for d in (2, 3)
                     for i in range(d, -1, -1) for j in range(d - i, -1, -1))
ELL1_ENTRIES = tuple((c, idx) for c in "PQR" for idx in ELL1_INDICES)


def ell1_symbols():
    """The sympy symbols P200, ..., R003 of ELL1_ENTRIES, in that order."""
    import sympy
    return [sympy.Symbol(f"{c}{i}{j}{k}") for c, (i, j, k) in ELL1_ENTRIES]


def ell1_terms(form: Callable) -> Dict[Tuple[int, ...], int]:
    """An ell_1 form of callables P(i, j, k), Q(i, j, k), R(i, j, k), over
    any commutative ring, expanded on symbols: exponent tuple over
    ELL1_ENTRIES -> integer coefficient."""
    import sympy
    symbols = ell1_symbols()
    table = dict(zip(ELL1_ENTRIES, symbols))
    entry = {c: (lambda i, j, k, c=c: table.get((c, (i, j, k)), 0)) for c in "PQR"}
    poly = sympy.Poly(sympy.expand(form(entry["P"], entry["Q"], entry["R"])), *symbols)
    return {m: int(c) for m, c in zip(poly.monoms(), poly.coeffs())}


def random_hopf_zero(rng, bound: int = 3) -> HopfZeroSystem:
    """A Hopf-Zero system with Omega > 0 whose every quadratic and cubic
    coefficient is an integer in [-bound, bound], drawn from rng; where the
    draw has Omega < 0, the signs of the x^2 and y^2 terms of R are turned."""
    while True:
        P, Q, R = [{(*idx, 0, 0): Fraction(v) for idx in ELL1_INDICES
                    if (v := rng.randint(-bound, bound))} for _ in "PQR"]
        sys = validate_hopf_zero(Poly(P), Poly(Q), Poly(R))
        if sys.omega < 0:
            for m in ((2, 0, 0, 0, 0), (0, 2, 0, 0, 0)):
                if m in R:
                    R[m] = -R[m]
            sys = validate_hopf_zero(Poly(P), Poly(Q), Poly(R))
        if sys.omega > 0:
            return sys


def entry_values(sys: HopfZeroSystem) -> list:
    """The raw partials ELL1_ENTRIES of a system, in that order."""
    return [partial(getattr(sys, c), *idx) for c, idx in ELL1_ENTRIES]


def fit_ell1(support, systems: int = 256, seed: int = 1) -> Dict[Tuple[int, ...], int]:
    """The integer polynomial on `support` (exponent tuples over
    ELL1_ENTRIES) that `first_lyapunov_quantity` is, fitted exactly.

    On random systems with integer coefficients every entry is an integer,
    and the oracle's ell_1 is an integer to float precision.  The least
    squares solution over `systems` of them is rounded, and the rounded
    coefficients must reproduce every rounded ell_1 exactly, in integer
    arithmetic, on a design of full rank: then they are the polynomial on
    that support.  With coefficients in [-3, 3] an entry is at most 18 in
    size, so a monomial (degree <= 6) fits an int64; the check runs on
    Python ints."""
    rng = random.Random(seed)
    entries, values = [], []
    for _ in range(systems):
        sys = random_hopf_zero(rng)
        entries.append([int(v) for v in entry_values(sys)])
        values.append(first_lyapunov_quantity(sys).ell1)
    exponents = np.array(support, dtype=np.int64)
    design = np.prod(np.array(entries, dtype=np.int64)[:, None, :] ** exponents[None],
                     axis=2)
    if np.linalg.matrix_rank(design.astype(float)) != len(support):
        raise AssertionError("the fit's design is rank deficient")
    solution = np.linalg.lstsq(design.astype(float), np.array(values), rcond=None)[0]
    coeffs = [round(c) for c in solution]
    for row, value in zip(design.tolist(), values):
        if sum(c * x for c, x in zip(coeffs, row)) != round(value):
            raise AssertionError("the rounded fit misses a sample")
    return {m: c for m, c in zip(support, coeffs) if c}


def ell1_nested_source(terms: Dict[Tuple[int, ...], int], width: int = 88) -> str:
    """The `return` statement of an ell_1 form over the locals S and D, as
    `criteria._ell1_form` writes it.

    The polynomial is rewritten in S = R(2, 0, 0) + R(0, 2, 0) and
    D = P(1, 0, 1) + Q(0, 1, 1), which take the places of R(0, 2, 0) and
    Q(0, 1, 1) (218 terms become 49), then nested greedily: the variable in
    the most terms is factored out of them, each sum's integer content is
    factored out, and the result is wrapped to `width` columns."""
    import sympy
    symbols = ell1_symbols()
    by_name = {str(s): s for s in symbols}
    S, D = sympy.symbols("S D")
    poly = sum(c * sympy.prod([s ** e for s, e in zip(symbols, m)])
               for m, c in terms.items())
    poly = sympy.expand(poly.subs({by_name["R020"]: S - by_name["R200"],
                                   by_name["Q011"]: D - by_name["P101"]}))
    gens = [S, D] + [s for s in symbols if s.name not in ("R020", "Q011")]
    names = ["S", "D"] + [f"{s.name[0]}({s.name[1]}, {s.name[2]}, {s.name[3]})"
                          for s in gens[2:]]
    poly = sympy.Poly(poly, *gens)
    lines = _wrap(_nest({m: int(c) for m, c in zip(poly.monoms(), poly.coeffs())}),
                  names, width - 4)
    if len(lines) > 1 and not lines[0].endswith("("):
        lines = ["("] + ["    " + line for line in lines] + [")"]
    return "\n".join(["return " + lines[0]] + lines[1:])


def _nest(terms):
    """(content, [(variable, subtree)], constant) of an integer polynomial:
    its content factored out, then greedy Horner on what is left."""
    content = 0
    for c in terms.values():
        content = math.gcd(content, c)
    if 2 * sum(c < 0 for c in terms.values()) > len(terms):
        content = -content
    rest = {m: c // content for m, c in terms.items()}
    constant = rest.pop(tuple([0] * len(next(iter(terms)))), 0)
    groups = []
    while rest:
        counts = {}
        for m in rest:
            for v, e in enumerate(m):
                if e:
                    counts[v] = counts.get(v, 0) + 1
        v = max(counts, key=lambda v: (counts[v], -v))
        inner = {m[:v] + (m[v] - 1,) + m[v + 1:]: c for m, c in rest.items() if m[v]}
        rest = {m: c for m, c in rest.items() if not m[v]}
        groups.append((v, _nest(inner)))
    return content, groups, constant


def _joined(items) -> str:
    """One line of signed summands (negative, text)."""
    return "".join((("-" if neg else "") + text) if i == 0
                   else f" {'-' if neg else '+'} {text}"
                   for i, (neg, text) in enumerate(items))


def _scaled(content: int, text: str, summands: int) -> str:
    if abs(content) != 1:
        text = f"{abs(content)} * ({text})" if summands > 1 else f"{abs(content)} * {text}"
    return ("-" if content < 0 else "") + (f"({text})" if content < 0 and summands > 1
                                            else text)


def _term(v, sub, names):
    """(negative, factor, inner tree or None, single) of a group v * sub."""
    k, groups, constant = sub
    factor = names[v] if abs(k) == 1 else f"{abs(k)} * {names[v]}"
    if not groups:
        return k < 0, factor, None, True
    return k < 0, factor, (1, groups, constant), len(groups) == 1 and not constant


def _flat(tree, names) -> str:
    """A `_nest` tree on one line."""
    content, groups, constant = tree
    items = []
    for v, sub in groups:
        neg, factor, inner, single = _term(v, sub, names)
        text = factor
        if inner is not None:
            text += f" * {_flat(inner, names)}" if single else f" * ({_flat(inner, names)})"
        items.append((neg, text))
    if constant:
        items.append((constant < 0, str(abs(constant))))
    return _scaled(content, _joined(items), len(items))


def _wrap(tree, names, width) -> list:
    """The lines of a `_nest` tree, indented relative to the first: one line
    where it fits in `width` columns, else one summand per line, each too
    long parenthesized factor opened on its own lines."""
    flat = _flat(tree, names)
    if len(flat) <= width:
        return [flat]
    content, groups, constant = tree
    lines = []
    for i, (v, sub) in enumerate(groups):
        neg, factor, inner, single = _term(v, sub, names)
        sign = ("-" if neg else "") if i == 0 else ("- " if neg else "+ ")
        text = factor if inner is None else (
            f"{factor} * {_flat(inner, names)}" if single
            else f"{factor} * ({_flat(inner, names)})")
        if len(sign + text) <= width:
            lines.append(sign + text)
        elif single:
            sub_lines = _wrap(inner, names, width - len(sign + factor) - 3)
            lines += [f"{sign}{factor} * {sub_lines[0]}"] + sub_lines[1:]
        else:
            lines += ([f"{sign}{factor} * ("]
                      + ["    " + line for line in _wrap(inner, names, width - 4)] + [")"])
    if constant:
        lines.append(("- " if constant < 0 else "+ ") + str(abs(constant)))
    if content != 1:
        head = ("-" if content < 0 else "") + (f"{abs(content)} * " if abs(content) != 1 else "")
        lines = [head + "("] + ["    " + line for line in lines] + [")"]
    return lines


# ---------------------------------------------------------------------------
# Omega of a degree lift, from the lifted polynomial system or its normalization
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


def lift_normalized_whole(seed_field, L, delta) -> Tuple[Poly, ...]:
    """The terms of degree > 1 of the normalized lift X_{L, delta}, as
    `build_lift_family` gives them, with M substituted into each whole
    lifted product lin_i * seed_i (`LiftFamily.lifted`), where the lift
    substitutes it into lin_i and seed_i apart.  delta is a positive
    rational square."""
    fam = build_lift_family(seed_field, L, delta)
    P0, Q0, R0 = (as_poly(p).terms.get((0,) * 5, Fraction(0)) for p in seed_field)
    L, delta, sd = fam.L, fam.delta, _rational_sqrt(fam.delta)
    M = [[Fraction(1), Fraction(0), Fraction(0)],
         [(L * delta + P0 * Q0) / (P0 * P0), sd / (P0 * P0), Fraction(0)],
         [R0 / P0, -L * sd * R0 / P0, Fraction(1)]]
    Minv = _inv3(M)
    sub = {v: _row_poly(M, i) for i, v in enumerate("xyz")}
    composed = [p.substitute(sub) for p in fam.lifted]
    normalized = [sum((composed[j].scale(Minv[i][j]) for j in range(3)), Poly()).scale(1 / sd)
                  for i in range(3)]
    return tuple(Poly({m: c for m, c in p.terms.items() if sum(m[:3]) > 1}) for p in normalized)


def omega_of_lift(jet: OriginJet, L, delta) -> Fraction:
    """Omega of `build_lift_family(seed, L, delta).system` from
    `omega_coefficients`; a delta that is no positive rational square, which
    the lift cannot normalize, is a LiftError."""
    rows = omega_coefficients(jet)
    L, delta = Fraction(L), Fraction(delta)
    if not _rational_sqrt(delta):
        raise LiftError(f"normalization failed at L={L}, delta={delta}")
    return univariate.value([univariate.value(row, L) for row in rows], delta)


# the reference grids: L = 2^k, k = 0..6, and delta = 4^-k, k = 1..6
LIFT_L_GRID = tuple(Fraction(2) ** k for k in range(0, 7))
LIFT_DELTA_GRID = tuple(Fraction(1, 4 ** k) for k in range(1, 7))


def grid_lift_parameters(polys, L_values, delta_values) -> Tuple[Fraction, Fraction]:
    """(L*, delta*) as a grid search picks them: the least grid L with
    A(L) > 0, then the largest grid delta, a rational square, at which the
    family built at (L*, delta) has a validated system with Omega > 0; a
    NoPositiveOmegaFound where no grid value works.  It builds a family per
    delta it tries and reads Omega off the built system, where
    `lift.tune_lift_parameters` searches the powers 2^k and 4^-k on the
    closed form of Omega and builds one."""
    A = omega_coefficients(origin_jet(polys))[0]
    L_star = next((L for L in sorted(L_values) if univariate.value(A, L) > 0), None)
    if L_star is None:
        raise NoPositiveOmegaFound("A(L) <= 0 on the whole L grid")
    for delta in sorted(delta_values, reverse=True):
        system = build_lift_family(polys, L_star, delta).system
        if system is not None and system.omega > 0:
            return L_star, delta
    raise NoPositiveOmegaFound("no delta on the grid keeps Omega > 0")


def lift_omega(jet, L, delta, sd):
    """Omega of the normalized lift from the normalization matrix of
    `build_lift_family`, sd = sqrt(delta): the derivation that
    `lift.omega_coefficients` collects into coefficients.  Plain field
    arithmetic, so it also runs on symbols.

    The order-2 part of lifted component i is lin_i(x) (grad_i . x).  Under
    x = M u its Hessian is H_i = a_i b_i^T + b_i a_i^T with a_i = M^T lin_i
    and b_i = M^T grad_i, and the normalized Hessians are
    (1/sqrt(delta)) sum_j Minv[i][j] H_j, so
    Omega = -(H_P[x,z] + H_Q[y,z]) (H_R[x,x] + H_R[y,y]) is a few products."""
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


# ---------------------------------------------------------------------------
# the Fourier fit of an invariant curve: one least-squares problem per
# order, and every order from one QR
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


def fourier_fit_qr(points) -> FourierCurve:
    """Least-squares radius(angle) fit about the samples' centroid.

    One QR of the design [1, cos a, sin a, ..., cos Na, sin Na], N =
    FOURIER_ORDER, gives every nested order's residual: with z = Q^T rad,
    the first p columns leave |rad - Q z|^2 + sum_{j >= p} z_j^2.  The order
    is the smallest K >= 2 whose rms is within FOURIER_TOLERANCE of order
    N's, and its coefficients solve the leading (2K+1)-block of R."""
    points = np.asarray(points, dtype=float)
    center = points.mean(axis=0)
    rel = points - center
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    rad = np.linalg.norm(rel, axis=1)
    harmonics = np.outer(ang, np.arange(1, FOURIER_ORDER + 1))
    A = np.ones((len(ang), 2 * FOURIER_ORDER + 1))
    A[:, 1::2] = np.cos(harmonics)
    A[:, 2::2] = np.sin(harmonics)
    Q, R = np.linalg.qr(A)
    z = Q.T @ rad
    # the squared residual of the first p columns, p = 0 .. 2 * FOURIER_ORDER + 1
    sq = np.append(np.cumsum(z[::-1] ** 2)[::-1], 0.0) + np.sum((rad - Q @ z) ** 2)
    rms = np.sqrt(sq[1::2] / len(rad))          # rms[K]: the order-K fit's
    K = 2 + int(np.argmax(rms[2:] <= (1.0 + FOURIER_TOLERANCE) * rms[-1]))
    p = 2 * K + 1
    coef = np.linalg.solve(R[:p, :p], z[:p])
    return FourierCurve(center=center,
                        cos_coeffs=np.concatenate([[coef[0]], coef[1::2]]),
                        sin_coeffs=coef[2::2], rms_residual=float(rms[K]))


# ---------------------------------------------------------------------------
# the normal contraction of an invariant curve, from a ring of probes
# ---------------------------------------------------------------------------

def curve_radius(curve, angle):
    """The radius of a `torus.FourierCurve` at each polar angle about its center."""
    angle = np.asarray(angle, dtype=float)
    out = np.full_like(angle, curve.cos_coeffs[0])
    for k in range(1, len(curve.sin_coeffs) + 1):
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
            X = map_points(tmap, X, mu, eps, reverse=reverse)
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
# the expression parser on tokens of a character loop, one Poly per factor:
# the reference for the terms, their order and the errors of
# `fieldexpr.parse_field`, which reads each term into one monomial
# ---------------------------------------------------------------------------

_OPS = set("+-*^()/")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num', 'ident', or the operator character
    text: str
    start: int
    end: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == '.' and i + 1 < n and source[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == '.' and not seen_dot)):
                if source[j] == '.':
                    seen_dot = True
                j += 1
            tokens.append(_Token('num', source[i:j], i, j))
            i = j
            continue
        if ch.isalpha() or ch == '_':
            j = i
            while j < n and (source[j].isalnum() or source[j] == '_'):
                j += 1
            tokens.append(_Token('ident', source[i:j], i, j))
            i = j
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, i, i + 1))
            i += 1
            continue
        raise FieldSyntaxError(f"unexpected character {ch!r}", i,
                               ("number", "identifier", "+", "-", "*", "^", "(", ")"))
    return tokens


class ReferenceParser:
    """Recursive descent that expands as it goes: each rule returns the Poly
    of what it read, and a term multiplies its factors' Polys one by one from
    the left.  Products and powers are checked against the caps before they
    are formed, sums right after."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise FieldSyntaxError("unexpected end of input", len(self.source))
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            off = tok.start if tok else len(self.source)
            raise FieldSyntaxError("unexpected token", off, (kind,))
        return self.advance()

    def nest(self, tok: _Token) -> None:
        """Enter one '(' or unary '-'; the depth cap keeps the recursion
        far from Python's own limit."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise FieldSyntaxError(f"nesting deeper than {MAX_NESTING}", tok.start)

    def parse(self) -> Poly:
        poly = self.expr()
        tok = self.peek()
        if tok is not None:
            raise FieldSyntaxError(f"trailing input {tok.text!r}", tok.start,
                                   ("+", "-", "*", "^", "end of input"))
        return poly

    def expr(self) -> Poly:
        poly = self.term()
        # a sum's degree is at most its largest operand's
        degree = poly.degree(VARIABLES)
        while (tok := self.peek()) is not None and tok.kind in ('+', '-'):
            self.advance()
            rhs = self.term()
            poly = poly + rhs if tok.kind == '+' else poly - rhs
            degree = max(degree, rhs.degree(VARIABLES))
            _check_size(degree, len(poly.terms), len(VARIABLES))
        return poly

    def term(self) -> Poly:
        poly = self.factor()
        while (tok := self.peek()) is not None and tok.kind == '*':
            self.advance()
            rhs = self.factor()
            if poly and rhs:
                nvars = len(set(poly.free_variables()) | set(rhs.free_variables()))
                _check_size(poly.degree(VARIABLES) + rhs.degree(VARIABLES),
                            len(poly.terms) * len(rhs.terms), nvars)
            poly = poly * rhs
        return poly

    def factor(self) -> Poly:
        tok = self.peek()
        if tok is not None and tok.kind == '-':
            self.advance()
            self.nest(tok)
            poly = -self.factor()
            self.depth -= 1
            return poly
        poly = self.base()
        if (tok := self.peek()) is not None and tok.kind == '^':
            self.advance()
            etok = self.expect('num')
            if not etok.text.isdigit():
                raise FieldSyntaxError("exponent must be a nonnegative integer",
                                       etok.start, ("unsigned integer",))
            exponent = int(etok.text)
            if exponent > MAX_POWER:
                raise FieldSyntaxError(f"exponent {exponent} exceeds maximum {MAX_POWER}",
                                       etok.start)
            if poly and exponent:
                # a term of poly^e is a product of e poly terms: at most
                # C(e + t - 1, e) distinct terms for t terms of poly
                _check_size(poly.degree(VARIABLES) * exponent,
                            math.comb(exponent + len(poly.terms) - 1, exponent),
                            len(poly.free_variables()))
            poly = poly.power(exponent)
        return poly

    def base(self) -> Poly:
        tok = self.peek()
        if tok is None:
            raise FieldSyntaxError("unexpected end of input", len(self.source),
                                   ("number", "identifier", "("))
        if tok.kind == '(':
            self.advance()
            self.nest(tok)
            poly = self.expr()
            self.expect(')')
            self.depth -= 1
            return poly
        if tok.kind == 'num':
            self.advance()
            value = _number_value(tok)
            # rational literal: integer '/' integer
            nxt = self.peek()
            if (tok.text.isdigit() and nxt is not None and nxt.kind == '/'):
                self.advance()
                den = self.expect('num')
                if not den.text.isdigit():
                    raise FieldSyntaxError("denominator must be an integer", den.start,
                                           ("unsigned integer",))
                if int(den.text) == 0:
                    raise FieldSyntaxError("zero denominator", den.start)
                value = Fraction(int(tok.text), int(den.text))
            return Poly.constant(value)
        if tok.kind == 'ident':
            self.advance()
            if tok.text not in VARIABLES:
                raise UnknownIdentifierError(tok.text, tok.start)
            return Poly.variable(tok.text)
        raise FieldSyntaxError(f"unexpected token {tok.text!r}", tok.start,
                               ("number", "identifier", "(", "-"))


def _number_value(tok: _Token) -> Fraction:
    if '.' in tok.text:
        intpart, fracpart = tok.text.split('.')
        num = int(intpart + fracpart) if intpart + fracpart else 0
        return Fraction(num, 10 ** len(fracpart))
    return Fraction(int(tok.text))


def parse_field_reference(source: str) -> Poly:
    """`fieldexpr.parse_field` by `ReferenceParser`."""
    return ReferenceParser(source).parse()


# ---------------------------------------------------------------------------
# the Neimark-Sacker layer on numpy arrays: a Vandermonde solve, inv(M) A M
# and einsum contractions
# ---------------------------------------------------------------------------

def ladder_fit_vander(values: Sequence, ladder: Sequence[float], lowest: int) -> list:
    """The coefficients c_k of v(e) = sum_k c_k e^(lowest + k) through the
    values at the ladder's eps, by one LAPACK solve of the scaled Vandermonde
    system, componentwise on arrays: the reference for `nsbranch._ladder_fit`,
    which solves the same system exactly."""
    n = len(values)
    e = np.asarray(ladder, dtype=float)
    vals = np.stack([np.asarray(v, dtype=float) for v in values])
    shape = vals.shape[1:]
    V = np.vander(e, n, increasing=True) * (e ** lowest)[:, None]
    coeffs = np.linalg.solve(V, vals.reshape(n, -1))
    return [c.reshape(shape) if shape else float(c[0]) for c in coeffs]


def normalizing_matrix(point) -> Tuple[np.ndarray, np.ndarray]:
    """M = [[1, 0], [Im v2, Re v2]] of the eigenvector (1, v2) scaled to i, from
    the point's D Pi, and DH = inv(M) @ D Pi @ M: the reference for
    `nsbranch.normalized_map`, which writes DH out."""
    A, lam = np.array(point.jet.A), point.eigenvalue
    v2 = -1j * (A[0, 0] - lam) / A[0, 1]
    M = np.array([[1.0, 0.0], [v2.imag, v2.real]])
    return M, np.linalg.inv(M) @ A @ M


def lyapunov_coefficient_einsum(jet: MapJet, M, theta: float) -> float:
    """The map Lyapunov coefficient from the degree-2 and degree-3 tensors of
    `jet` transformed to the basis M by einsum, then read with p = (1,-i)/sqrt2
    and numpy's vdot: the reference for `nsbranch.lyapunov_coefficient_map`,
    which contracts the tensors as they are with M p and M^-T conj(p)."""
    M = np.asarray(M, dtype=float)
    M_inv = np.linalg.inv(M)
    B = np.einsum('ia,ajk,jb,kc->ibc', M_inv, np.array(jet.B), M, M)
    C = np.einsum('ia,ajkl,jb,kc,ld->ibcd', M_inv, np.array(jet.C), M, M, M)
    p = np.array([1.0, -1.0j]) / math.sqrt(2.0)
    pb = p.conjugate()
    g20 = np.vdot(p, np.einsum('ijk,j,k->i', B, p, p))
    g11 = np.vdot(p, np.einsum('ijk,j,k->i', B, p, pb))
    g02 = np.vdot(p, np.einsum('ijk,j,k->i', B, pb, pb))
    g21 = np.vdot(p, np.einsum('ijkl,j,k,l->i', C, p, p, pb))
    e_it = cmath.exp(1j * theta)
    term1 = (cmath.exp(-1j * theta) * g21 / 2.0).real
    term2 = -(((1.0 - 2.0 * e_it) * cmath.exp(-2j * theta)
               / (2.0 * (1.0 - e_it))) * g20 * g11).real
    return float(term1 + term2 - 0.5 * abs(g11) ** 2 - 0.25 * abs(g02) ** 2)


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
    B, C = np.asarray(jet.B), np.asarray(jet.C)
    b = max(float(np.max(np.abs(B[:, 0, 1] - B[:, 1, 0]))), 0.0)
    c = 0.0
    for comp in range(2):
        for p in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
            c = max(c, abs(C[comp][p] - C[comp][(0, 0, 1)]))
        for p in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            c = max(c, abs(C[comp][p] - C[comp][(0, 1, 1)]))
    return max(b, c)


def branch_xi1(constants: BranchConstants, mu: float) -> float:
    """The printed closed form xi1(mu) of `printed_branch_constants`."""
    return float(constants.xi1_const) + constants.xi1_slope * mu


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


class UnboundSymbolError(FieldExprError):
    def __init__(self, name: str):
        super().__init__(f"symbol '{name}' is unbound")
        self.name = name


def poly_eval(p: Poly, **env):
    """p at the values `env` binds to its names, over any commutative ring:
    values must support + and * (so exponents must be nonnegative).

    Fraction coefficients multiply ring values directly, so Fraction values
    give the exact value; the package evaluates in floats through
    `compile_terms`.  A free variable `env` leaves unbound is an
    UnboundSymbolError.
    """
    missing = [v for v in p.free_variables() if v not in env]
    if missing:
        raise UnboundSymbolError(missing[0])
    total = None
    for m, c in p.terms.items():
        term = c
        for name, e in zip(p.NAMES, m):
            for _ in range(e):
                term = term * env[name]
        total = term if total is None else total + term
    return 0 if total is None else total


def evaluate_field(f: Union[str, Poly], point, params=(0, 0)):
    """Evaluate at (x, y, z) with parameters (mu, eps); exact for exact input."""
    px, py, pz = point
    pmu, peps = params
    return poly_eval(as_poly(f), x=px, y=py, z=pz, mu=pmu, eps=peps)


def ell1_transcribed(sys: HopfZeroSystem) -> Fraction:
    """The closed-form ell_1 exactly as transcribed, `criteria._ell1_closed_form`,
    on the system's integer-scaled entries and divided by s^6, as
    `evaluate_base_criteria` evaluates it."""
    return _on_scaled(_ell1_closed_form, sys.scaled_entries)


JET_INDICES = tuple((i, j, k) for i in range(4) for j in range(4 - i) for k in range(4 - i - j))


def raw_partials(p: Poly) -> Dict[Tuple[int, int, int], Fraction]:
    """(i, j, k) -> the raw partial p^(i,j,k) at the origin, for every
    i + j + k <= 3 (`fieldexpr.partial`)."""
    return {idx: partial(p, *idx) for idx in JET_INDICES}


def jet_product(a: Dict[Tuple[int, int, int], Fraction],
                b: Dict[Tuple[int, int, int], Fraction]) -> Dict[Tuple[int, int, int], Fraction]:
    """Degree-3 truncated product of two tables of raw partials (Leibniz on
    Taylor coefficients), the table raw_partials(f * g) must equal."""
    def factorial3(idx):
        return math.prod(math.factorial(n) for n in idx)

    out = {idx: Fraction(0) for idx in JET_INDICES}
    for i1, v1 in a.items():
        for i2, v2 in b.items():
            idx = tuple(p + q for p, q in zip(i1, i2))
            if sum(idx) <= 3:
                out[idx] += v1 / factorial3(i1) * (v2 / factorial3(i2)) * factorial3(idx)
    return out


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
