"""Numeric integration of the full systems and Poincare return maps.

Two section styles are supported, matching the two presentations of the
dynamics: the plane y = 0 with ydot > 0 for the full 3D (rescaled) system,
and the angular return theta: 0 -> 2 pi for the cylindrical standard-form
variables (r, w), where theta plays the role of time and the return map
needs no event detection.

The degree-3 jet of the theta-return map is obtained by transporting a
truncated two-variable Taylor polynomial through the flow (the coefficient
ODE), with central finite differences as a cross-checking fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from .averaging import PERIOD, compile_terms, eps_graded_slices
from .criteria import HopfZeroSystem, PerturbationFamily

EVENT_RESIDUAL = 1e-12
TANGENCY_SPEED = 1e-8
DEFAULT_HORIZON_PERIODS = 10


class FlowError(RuntimeError):
    pass


class StepSizeUnderflow(FlowError):
    pass


class NonFiniteState(FlowError):
    pass


class NoReturnWithinHorizon(FlowError):
    pass


class TangencyDetected(FlowError):
    pass


class JetTransportUnstable(FlowError):
    pass


@dataclass(frozen=True)
class IntegratorConfig:
    """Embedded Runge-Kutta 5(4) settings."""
    atol: float = 1e-12
    rtol: float = 1e-10
    max_step: float = math.inf
    dense_output: bool = True

    def __post_init__(self):
        if self.atol <= 0 or self.rtol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class Trajectory:
    t: np.ndarray
    states: np.ndarray            # shape (n, dim)
    sol: object                   # dense-output interpolant (or None)
    config: IntegratorConfig

    def write_csv(self, path, header=("t", "x", "y", "z")):
        import csv
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for ti, row in zip(self.t, self.states):
                writer.writerow([repr(float(ti))] + [repr(float(v)) for v in row])


def integrate(field: Callable, state0, t_span, cfg: Optional[IntegratorConfig] = None,
              events=None) -> Trajectory:
    cfg = cfg or IntegratorConfig()
    sol = solve_ivp(field, t_span, np.asarray(state0, dtype=float), method="RK45",
                    rtol=cfg.rtol, atol=cfg.atol, max_step=cfg.max_step,
                    dense_output=cfg.dense_output, events=events)
    if sol.status == -1:
        raise StepSizeUnderflow(sol.message)
    if not np.all(np.isfinite(sol.y)):
        raise NonFiniteState("integration produced non-finite state")
    traj = Trajectory(t=sol.t, states=sol.y.T, sol=sol.sol, config=cfg)
    traj._events = (sol.t_events, sol.y_events)
    return traj


# ---------------------------------------------------------------------------
# the rescaled field, bound to (mu, eps)
# ---------------------------------------------------------------------------

class BoundField:
    """The rescaled field at one (mu, eps): one compiled float polynomial in
    (x, y, z) per component, so an RHS evaluation does no parameter work."""

    __slots__ = ("fx", "fy", "fz")

    def __init__(self, fx: Callable, fy: Callable, fz: Callable):
        self.fx, self.fy, self.fz = fx, fy, fz

    def __call__(self, x, y, z):
        return [self.fx(x, y, z), self.fy(x, y, z), self.fz(x, y, z)]

    def cylindrical(self, theta, r, w):
        """(dr/dtheta, dw/dtheta) at a scalar theta; r, w may be numpy
        arrays, complex numbers or jets."""
        cs, sn = math.cos(theta), math.sin(theta)
        xd, yd, zd = self(r * cs, r * sn, w)
        rdot = cs * xd + sn * yd
        thetadot = (cs * yd - sn * xd) / r
        return rdot / thetadot, zd / thetadot


class RescaledField:
    """The rescaled perturbed field as an exact polynomial in eps:
    (x, y, z) -> eps (x, y, z) applied to (-y + P + eps U, x + Q + eps V,
    R + eps W), divided by eps.  The exact eps-graded slices are kept;
    `bind` folds one (mu, eps) into them."""

    def __init__(self, sys: HopfZeroSystem, fam: PerturbationFamily):
        self.system = sys
        self.family = fam
        self.slices = eps_graded_slices(sys, fam)
        self._bound = None            # ((mu, eps), BoundField) of the last pair

    def bind(self, mu: float, eps: float) -> BoundField:
        """The field at (mu, eps), compiled once per pair; the last pair is
        kept, so the calls of one integration share one compile."""
        if self._bound is None or self._bound[0] != (mu, eps):
            m, e = float(mu), float(eps)
            comps = []
            for i in range(3):
                terms: Dict[Tuple[int, int, int], float] = {}
                for grade, s in enumerate(self.slices):
                    for (a, b, c, d, _), q in s[i].terms.items():
                        key = (a, b, c)
                        terms[key] = terms.get(key, 0.0) + float(q) * m ** d * e ** grade
                comps.append(compile_terms(terms, ("x", "y", "z")))
            self._bound = ((mu, eps), BoundField(*comps))
        return self._bound[1]

    def field3(self, mu: float, eps: float) -> Callable:
        """f(t, state) for solve_ivp on the full rescaled 3D system."""
        f = self.bind(mu, eps)

        def rhs(t, state):
            return f(*state)
        return rhs

    def cylindrical(self, theta, r, w, mu, eps):
        """(dr/dtheta, dw/dtheta) at (mu, eps); see BoundField.cylindrical."""
        return self.bind(mu, eps).cylindrical(theta, r, w)

    def cylindrical_jacobian(self, theta, r, w, mu, eps) -> np.ndarray:
        """(2, 2) Jacobian of (dr/dtheta, dw/dtheta) in (r, w) by complex-step
        differentiation, Im f(v + ih) / h: exact to rounding for this rational
        field (no difference is taken) and independent of jet transport."""
        cyl = self.bind(mu, eps).cylindrical
        h = 1e-30
        cols = [cyl(theta, r + 1j * h, w), cyl(theta, r, w + 1j * h)]
        return np.array(cols).imag.T / h


# ---------------------------------------------------------------------------
# sections and return maps
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
    speed0 = f0[k] * section.direction
    if abs(f0[k]) < TANGENCY_SPEED:
        raise TangencyDetected(f"transversal speed {f0[k]} at start")
    t_lift = 1e-6
    lift = solve_ivp(field, (0.0, t_lift), x0, method="RK45", rtol=cfg.rtol,
                     atol=cfg.atol, dense_output=False)
    x_lift = lift.y[:, -1]

    traj = integrate(field, x_lift, (t_lift, horizon), cfg, events=[event])
    t_events = traj._events[0][0]
    if len(t_events) == 0:
        raise NoReturnWithinHorizon(f"no section return within t <= {horizon}")
    t_hit = float(t_events[0])

    # Newton refinement on the dense interpolant, kept inside a local window
    sol = traj.sol
    window = (max(traj.t[0], t_hit - 1e-3), min(traj.t[-1], t_hit + 1e-3))
    for _ in range(60):
        state = sol(t_hit)
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
    state = np.asarray(sol(t_hit), dtype=float)
    speed = np.asarray(field(t_hit, state), dtype=float)[k]
    if abs(speed) < TANGENCY_SPEED:
        raise TangencyDetected(f"transversal speed {speed} at event")
    event_rec = SectionEvent(time=t_hit, state=state, residual=abs(float(state[k])))
    return state, t_hit, event_rec


class ThetaReturnMap:
    """theta: 0 -> 2 pi return map of the rescaled cylindrical system."""

    def __init__(self, sys: HopfZeroSystem, fam: PerturbationFamily,
                 cfg: Optional[IntegratorConfig] = None):
        self.field = RescaledField(sys, fam)
        self.cfg = cfg or IntegratorConfig()

    def points(self, X0: np.ndarray, mu: float, eps: float,
               reverse: bool = False) -> np.ndarray:
        """Map a batch of (r, w) points through one return (|X0| independent
        trajectories integrated as one stacked system).

        A single seed is evaluated on Python floats: the compiled field uses
        only +, * and /, so the result is bit-identical to length-1 arrays
        without their per-call numpy overhead.  A zero division or a
        non-finite field value raises NonFiniteState; RK45 would otherwise
        shrink its step on NaN forever."""
        X0 = np.atleast_2d(np.asarray(X0, dtype=float))
        n = X0.shape[0]
        state0 = np.concatenate([X0[:, 0], X0[:, 1]])
        span = (0.0, -PERIOD) if reverse else (0.0, PERIOD)
        cyl = self.field.bind(mu, eps).cylindrical

        if n == 1:
            def rhs(theta, state):
                try:
                    dr, dw = cyl(theta, float(state[0]), float(state[1]))
                except ZeroDivisionError as exc:
                    raise NonFiniteState(f"return-map field singular at theta={theta}") from exc
                if not (math.isfinite(dr) and math.isfinite(dw)):
                    raise NonFiniteState(f"return-map field non-finite at theta={theta}")
                return np.array([dr, dw])
        else:
            def rhs(theta, state):
                dr, dw = cyl(theta, state[:n], state[n:])
                out = np.concatenate([dr, dw])
                if not np.isfinite(out).all():
                    raise NonFiniteState(f"return-map field non-finite at theta={theta}")
                return out

        cfg = self.cfg
        sol = solve_ivp(rhs, span, state0, method="RK45",
                        rtol=cfg.rtol, atol=cfg.atol, dense_output=False)
        if sol.status != 0:
            raise FlowError(f"return-map integration failed: {sol.message}")
        if not np.all(np.isfinite(sol.y[:, -1])):
            raise NonFiniteState("return map produced non-finite state")
        out = np.stack([sol.y[:n, -1], sol.y[n:, -1]], axis=1)
        return out

    def point(self, x0, mu: float, eps: float, reverse: bool = False) -> np.ndarray:
        return self.points(np.asarray(x0, dtype=float)[None, :], mu, eps, reverse)[0]

    def jet3(self, x0, mu: float, eps: float) -> "MapJet":
        """Degree-3 jet by transporting the truncated Taylor expansion of the
        solution with respect to the initial condition."""
        r0, w0 = float(x0[0]), float(x0[1])
        R = Jet2.variable(0, r0)
        W = Jet2.variable(1, w0)
        state0 = np.concatenate([R.coeffs, W.coeffs])
        cyl = self.field.bind(mu, eps).cylindrical

        def rhs(theta, state):
            try:
                dr, dw = cyl(theta, Jet2(state[:10]), Jet2(state[10:]))
            except ZeroDivisionError as exc:
                raise JetTransportUnstable(f"jet field singular at theta={theta}") from exc
            out = np.concatenate([_as_jet(dr).coeffs, _as_jet(dw).coeffs])
            if not np.isfinite(out).all():
                raise JetTransportUnstable(f"jet field non-finite at theta={theta}")
            return out

        cfg = self.cfg
        sol = solve_ivp(rhs, (0.0, PERIOD), state0, method="RK45",
                        rtol=cfg.rtol, atol=cfg.atol)
        if sol.status != 0 or not np.all(np.isfinite(sol.y[:, -1])):
            raise JetTransportUnstable("jet transport integration failed")
        return MapJet.from_jets(Jet2(sol.y[:10, -1]), Jet2(sol.y[10:, -1]))

    def jet3_fd(self, x0, mu: float, eps: float, scale: float = 1.0) -> "MapJet":
        """Central finite-difference fallback, step h = eps_mach^(1/4) * scale."""
        return fd_map_jet(lambda p: self.point(p, mu, eps), np.asarray(x0, float), scale)


# ---------------------------------------------------------------------------
# degree-3 jets in two variables
# ---------------------------------------------------------------------------

_JET_EXPS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
             (3, 0), (2, 1), (1, 2), (0, 3)]
_JET_INDEX = {e: i for i, e in enumerate(_JET_EXPS)}


class Jet2:
    """Truncated degree-3 Taylor polynomial in two displacement variables."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)

    @classmethod
    def constant(cls, value: float) -> "Jet2":
        c = np.zeros(10)
        c[0] = value
        return cls(c)

    @classmethod
    def variable(cls, which: int, base: float) -> "Jet2":
        c = np.zeros(10)
        c[0] = base
        c[1 + which] = 1.0
        return cls(c)

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.coeffs + other.coeffs)
        c = self.coeffs.copy()
        c[0] += float(other)
        return Jet2(c)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet2) else -float(other))

    def __rsub__(self, other):
        return (-self) + float(other)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            # Truncated Cauchy product over _JET_EXPS, written out: each
            # coefficient sums its products from 0.0 in (i, j) order, the
            # order of accumulating them into np.zeros(10).
            a0, a1, a2, a3, a4, a5, a6, a7, a8, a9 = self.coeffs.tolist()
            b0, b1, b2, b3, b4, b5, b6, b7, b8, b9 = other.coeffs.tolist()
            return Jet2([
                0.0 + a0 * b0,
                0.0 + a0 * b1 + a1 * b0,
                0.0 + a0 * b2 + a2 * b0,
                0.0 + a0 * b3 + a1 * b1 + a3 * b0,
                0.0 + a0 * b4 + a1 * b2 + a2 * b1 + a4 * b0,
                0.0 + a0 * b5 + a2 * b2 + a5 * b0,
                0.0 + a0 * b6 + a1 * b3 + a3 * b1 + a6 * b0,
                0.0 + a0 * b7 + a1 * b4 + a2 * b3 + a3 * b2 + a4 * b1 + a7 * b0,
                0.0 + a0 * b8 + a1 * b5 + a2 * b4 + a4 * b2 + a5 * b1 + a8 * b0,
                0.0 + a0 * b9 + a2 * b5 + a5 * b2 + a9 * b0,
            ])
        return Jet2(self.coeffs * float(other))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = Jet2.constant(1.0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def reciprocal(self) -> "Jet2":
        b0 = self.coeffs[0]
        if b0 == 0:
            raise ZeroDivisionError("jet reciprocal with zero constant term")
        q = Jet2(self.coeffs / b0)
        q.coeffs[0] = 0.0
        q2 = q * q
        return (Jet2.constant(1.0) - q + q2 - q2 * q) * (1.0 / b0)

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other.reciprocal()
        return Jet2(self.coeffs / float(other))

    def __rtruediv__(self, other):
        return self.reciprocal() * float(other)


def _as_jet(value) -> Jet2:
    return value if isinstance(value, Jet2) else Jet2.constant(float(value))


@dataclass
class MapJet:
    """Value, Jacobian, and symmetric multilinear coefficients of a planar
    map to total degree 3:  F(x0 + h) = value + A h + B(h,h)/2 + C(h,h,h)/6."""
    value: np.ndarray
    A: np.ndarray
    B: np.ndarray                  # (2, 2, 2), symmetric in the last two slots
    C: np.ndarray                  # (2, 2, 2, 2), symmetric in the last three

    @classmethod
    def from_jets(cls, R: Jet2, W: Jet2) -> "MapJet":
        value = np.array([R.coeffs[0], W.coeffs[0]])
        A = np.zeros((2, 2))
        B = np.zeros((2, 2, 2))
        C = np.zeros((2, 2, 2, 2))
        for comp, jet in enumerate((R, W)):
            c = jet.coeffs
            A[comp, 0], A[comp, 1] = c[1], c[2]
            B[comp, 0, 0] = 2 * c[_JET_INDEX[(2, 0)]]
            B[comp, 1, 1] = 2 * c[_JET_INDEX[(0, 2)]]
            B[comp, 0, 1] = B[comp, 1, 0] = c[_JET_INDEX[(1, 1)]]
            C[comp, 0, 0, 0] = 6 * c[_JET_INDEX[(3, 0)]]
            C[comp, 1, 1, 1] = 6 * c[_JET_INDEX[(0, 3)]]
            for perm_val, exp in ((2 * c[_JET_INDEX[(2, 1)]], (0, 0, 1)),
                                  (2 * c[_JET_INDEX[(1, 2)]], (0, 1, 1))):
                a, b, d = exp
                for idx in {(a, b, d), (a, d, b), (b, a, d), (b, d, a),
                            (d, a, b), (d, b, a)}:
                    C[comp][idx] = perm_val
        return cls(value=value, A=A, B=B, C=C)

    def apply(self, h: np.ndarray) -> np.ndarray:
        h = np.asarray(h, dtype=float)
        return (self.value + self.A @ h
                + 0.5 * np.einsum('ijk,j,k->i', self.B, h, h)
                + np.einsum('ijkl,j,k,l->i', self.C, h, h, h) / 6.0)

    def max_asymmetry(self) -> float:
        b = max(float(np.max(np.abs(self.B[:, 0, 1] - self.B[:, 1, 0]))), 0.0)
        c = 0.0
        for comp in range(2):
            for p in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
                c = max(c, abs(self.C[comp][p] - self.C[comp][(0, 0, 1)]))
            for p in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
                c = max(c, abs(self.C[comp][p] - self.C[comp][(0, 1, 1)]))
        return max(b, c)


def fd_map_jet(map_fn: Callable, x0: np.ndarray, scale: float = 1.0,
               noise: float = 1e-12) -> MapJet:
    """Degree-3 jet by central finite differences (fallback route).

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
