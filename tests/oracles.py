"""Reference routes that only the tests use.

Each one computes a quantity of the package by an independent method: a
plane-section return with event location and dense output, the variational
equation, finite differences, complex-step differentiation and plain
Gauss-Legendre quadrature.  The integrations here stay on scipy's
`solve_ivp`, so they also check the package's own Dormand-Prince stepper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp

from torusforge.averaging import (
    PERIOD, QUADRATURE_TOL, MelnikovPair, QuadratureNotConverged,
)
from torusforge.flow import (
    FlowError, IntegratorConfig, MapJet, RescaledField, StepSizeUnderflow,
    ThetaReturnMap,
)

EVENT_RESIDUAL = 1e-12
TANGENCY_SPEED = 1e-8
DEFAULT_HORIZON_PERIODS = 10


class NoReturnWithinHorizon(FlowError):
    pass


class TangencyDetected(FlowError):
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
# the first Melnikov function by quadrature
# ---------------------------------------------------------------------------

def f1_quadrature(mel: MelnikovPair, x, mu, tol=QUADRATURE_TOL,
                  max_panels=4096) -> np.ndarray:
    """f1(x) = int_0^T F1(t, x) dt by 12-point Gauss-Legendre panels, doubled
    until two panel counts agree to `tol` (the cross-check of the closed form
    `MelnikovPair.f1`)."""
    nodes, weights = np.polynomial.legendre.leggauss(12)
    prev = None
    n_panels = 8
    while n_panels <= max_panels:
        total = np.zeros(2)
        edges = np.linspace(0.0, PERIOD, n_panels + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            ts = mid + half * nodes
            vals = np.stack([mel.std.eval_F1(t, x, mu) for t in ts])
            total += half * (weights[:, None] * vals).sum(axis=0)
        if prev is not None and np.max(np.abs(total - prev)) <= tol:
            return total
        prev = total
        n_panels *= 2
    raise QuadratureNotConverged(f"f1 quadrature not converged at tol={tol}")
