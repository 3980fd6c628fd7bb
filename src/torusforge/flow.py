"""Numeric integration of the rescaled system and its theta-return map.

Every integration runs on `dopri45`, one Dormand-Prince 5(4) stepper with
scipy RK45's tableau and step control, on a state of Python floats: plain
trajectories of the full 3D (rescaled) system, and the angular return
theta: 0 -> 2 pi of the cylindrical standard-form variables (r, w), where
theta plays the role of time and the return map needs no event detection.
Each seed of a return is its own integration.  The step itself is
straight-line code, generated once per state size.  For each bound
(mu, eps), `BoundField` builds each right-hand side on first use: the 3D
field of `simulate` is generated as one straight-line function, and one
return of the map and the first variational equation of `jet1` are
closures over one compiled polynomial function each (the field, or the
field and its nine partials).

Derivatives of the theta-return map come from transporting them through
the flow with the same stepper.  `jet1`, the value and Jacobian that Newton
and the secant on |lambda| = 1 read, carries six floats in real arithmetic,
from the field's nine partials: the eps-graded slices are differentiated
exactly, then (mu, eps) is folded in.  `jet3`, the degree-3 jet the
Jordan normalization reads, carries a truncated two-variable Taylor
polynomial (the coefficient ODE, 20 floats) through
`BoundField.cylindrical` on Jet2 values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .averaging import PERIOD, eps_graded_slices
from .criteria import HopfZeroSystem, PerturbationFamily
from .fieldexpr import Poly, compile_terms, define, terms_source


class FlowError(RuntimeError):
    pass


class StepSizeUnderflow(FlowError):
    pass


class NonFiniteState(FlowError):
    pass


class JetTransportUnstable(FlowError):
    pass


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances of the embedded Runge-Kutta 5(4) pair."""
    atol: float = 1e-12
    rtol: float = 1e-10

    def __post_init__(self):
        # NaN fails both comparisons; inf would switch the error control off
        if not (0 < self.atol < math.inf and 0 < self.rtol < math.inf):
            raise ValueError("tolerances must be positive and finite")


@dataclass
class Trajectory:
    t: np.ndarray                 # the accepted step times
    states: np.ndarray            # shape (n, dim)

    def write_csv(self, path):
        """One row per accepted step: t, then x, y(, z) of the state, each
        float as its repr and each line ended by "\\r\\n", the bytes the csv
        module writes; rows are formatted as they are written."""
        names = ["t", *"xyz"[:self.states.shape[1]]]
        row = (",".join(["{!r}"] * len(names)) + "\r\n").format
        with open(path, "w", newline="") as fh:
            fh.write(",".join(names) + "\r\n")
            fh.writelines(map(row, self.t.tolist(), *self.states.T.tolist()))


def integrate(field: Callable, state0, t_span,
              cfg: Optional[IntegratorConfig] = None) -> Trajectory:
    """The accepted steps of state' = field(t, state) over t_span; the state
    is a list of Python floats."""
    cfg = cfg or IntegratorConfig()
    ts, ys, _ = dopri45(field, float(t_span[0]), float(t_span[1]),
                        [float(v) for v in state0], cfg.atol, cfg.rtol)
    states = np.array(ys)
    if not np.all(np.isfinite(states)):
        raise NonFiniteState("integration produced non-finite state")
    return Trajectory(t=np.array(ts), states=states)


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4)
# ---------------------------------------------------------------------------

# The tableau of scipy's RK45 (Dormand & Prince, J. Comput. Appl. Math. 6,
# 1980); the zero weights of the second stage are left out.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                                -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                                17253 / 339200, -22 / 525, 1 / 40)
# step control of Hairer-Norsett-Wanner, Sec. II.4, as in RK45
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERROR_EXPONENT = 0.9, 0.2, 10.0, -1 / 5


def _rms(values) -> float:
    return math.hypot(*values) / len(values) ** 0.5


def _initial_step(rhs, t0, y0, f0, t_end, direction, atol, rtol) -> float:
    """scipy's select_initial_step (one RHS evaluation)."""
    interval = abs(t_end - t0)
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = rhs(t0 + h0 * direction, [v + h0 * direction * fv for v, fv in zip(y0, f0)])
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval)


# the stages s = 2..6: the node c_s h and the weights a_sj (each name ends in j)
_STAGES = (("_C2 * h", "A21"), ("_C3 * h", "A31 A32"), ("_C4 * h", "A41 A42 A43"),
           ("_C5 * h", "A51 A52 A53 A54"), ("h", "A61 A62 A63 A64 A65"))


@functools.lru_cache(maxsize=None)
def _dp_step(n: int) -> Callable:
    """One Dormand-Prince step for a state of n floats, as straight-line
    code generated once per n:
    step(rhs, t, h, y, k1, atol, rtol) -> (y_new, rhs(t + h, y_new),
    error_norm).  Each component is written out with its stage sums in
    tableau order, so it rounds as a loop over the components does."""
    def each(template: str) -> str:         # '#' stands for the component
        return ", ".join(template.replace("#", str(i)) for i in range(n))

    def comb(weights: str) -> str:          # sum_j w_j k_j of one component
        return " + ".join(f"_{w} * _k{w[-1]}_#" for w in weights.split())

    lines = [f"{each('_y#')}, = y", f"{each('_k1_#')}, = k1"]
    for s, (c, weights) in enumerate(_STAGES, start=2):
        lines.append(f"{each(f'_k{s}_#')}, = rhs(t + {c}, "
                     f"[{each(f'_y# + ({comb(weights)}) * h')}])")
    b = comb("B1 B3 B4 B5 B6")
    err = f"({comb('E1 E3 E4 E5 E6 E7')}) * h / (atol + max(abs(_y#), abs(_n#)) * rtol)"
    lines += [f"{each('_n#')}, = y_new = [{each(f'_y# + h * ({b})')}]",
              "f_new = rhs(t + h, y_new)",
              f"{each('_k7_#')}, = f_new",
              f"return y_new, f_new, _rms([{each(err)}])"]
    # the tableau and _rms are read by name from this module's globals
    return define("step", "rhs, t, h, y, k1, atol, rtol", lines, dict(globals()))


def dopri45(rhs: Callable, t0: float, t_end: float, y0, atol: float,
            rtol: float) -> Tuple[list, list, int]:
    """The accepted steps of y' = rhs(t, y) from (t0, y0) to t_end: their
    times and states, from t0 to t_end, and the number of RHS evaluations.

    The state is a list of Python floats, and `rhs(t, y)` returns a
    sequence of floats of the same length.  Tableau and step control are
    those of scipy's RK45 (initial step, RMS error norm over the components
    with scale atol + max(|y|, |y_new|) rtol, safety 0.9, factors clamped to
    [0.2, 10] and to at most 1 after a rejection, the last step clipped to
    t_end), so it takes the steps scipy's RK45 takes on the same state,
    without numpy's per-call cost on a small float state.  Each step is
    `_dp_step`'s straight-line code for the state's size.  Raises
    StepSizeUnderflow where RK45 fails with a step below the float spacing,
    and on a NaN step size.
    """
    y = list(y0)
    step = _dp_step(len(y))
    f = rhs(t0, y)
    ts, ys = [t0], [y]
    if t_end == t0:
        return ts, ys, 1
    direction = 1.0 if t_end > t0 else -1.0
    h_abs = _initial_step(rhs, t0, y, f, t_end, direction, atol, rtol)
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
            y_new, f_new, error_norm = step(rhs, t, h, y, f, atol, rtol)
            nfev += 6
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
# the rescaled field, bound to (mu, eps)
# ---------------------------------------------------------------------------

def _fold(graded, mu: float, eps: float) -> List[Dict[Tuple[int, int, int], float]]:
    """Float terms in (x, y, z) of each component of eps-graded exact
    slices at (mu, eps): the terms of grade g are scaled by mu^d eps^g and
    summed into their (x, y, z) key, in slice and term order."""
    comps = []
    for i in range(len(graded[0])):
        terms: Dict[Tuple[int, int, int], float] = {}
        for grade, s in enumerate(graded):
            for (a, b, c, d, _), q in s[i].terms.items():
                key = (a, b, c)
                terms[key] = terms.get(key, 0.0) + float(q) * mu ** d * eps ** grade
        comps.append(terms)
    return comps


class BoundField:
    """The rescaled field at one (mu, eps) as float terms in (x, y, z), and
    the right-hand sides built from them, each on first use: the 3D field
    for `integrate`, one return of the map and its first variational
    equation.  No RHS evaluation does parameter work."""

    def __init__(self, slices: Tuple[Tuple[Poly, Poly, Poly], ...], mu: float, eps: float):
        self.slices, self.mu, self.eps = slices, mu, eps

    @functools.cached_property
    def terms(self) -> List[Dict[Tuple[int, int, int], float]]:
        """(x', y', z') as float terms."""
        return _fold(self.slices, self.mu, self.eps)

    @functools.cached_property
    def partial_terms(self) -> List[Dict[Tuple[int, int, int], float]]:
        """The nine partials d(x')/dx, d(x')/dy, ..., d(z')/dz as float
        terms: each slice is differentiated exactly, then folded."""
        partials = [tuple(p.derivative(v) for p in s for v in "xyz") for s in self.slices]
        return _fold(partials, self.mu, self.eps)

    @functools.cached_property
    def f(self) -> Callable:
        """(x, y, z) -> (x', y', z')."""
        return compile_terms(self.terms, "xyz")

    @functools.cached_property
    def rhs3(self) -> Callable:
        """rhs(t, (x, y, z)) -> (x', y', z') of the full rescaled system:
        the code of `f` with the state unpacked in its head."""
        lines, results, namespace = terms_source(self.terms, "xyz")
        return define("rhs", "t, state",
                      ["x, y, z = state", *lines, f"return {', '.join(results)}"], namespace)

    def cylindrical(self, theta, r, w):
        """(dr/dtheta, dw/dtheta) at a scalar theta; r, w may be numpy
        arrays, complex numbers or jets.  `return_rhs` and `jet1_rhs` repeat
        this quotient on floats, bit for bit (the tests compare them)."""
        cs, sn = math.cos(theta), math.sin(theta)
        xd, yd, zd = self.f(r * cs, r * sn, w)
        rdot = cs * xd + sn * yd
        # one reciprocal of thetadot serves both components; the division by
        # r stays, so the axis r = 0 raises (or gives inf) instead of a zero
        thetadot = (cs * yd - sn * xd) / r
        inv = 1.0 / thetadot
        return rdot * inv, zd * inv

    @functools.cached_property
    def return_rhs(self) -> Callable:
        """rhs(theta, (r, w)) -> (dr/dtheta, dw/dtheta) on floats.  A zero
        division or a non-finite value raises NonFiniteState; the step
        control would otherwise shrink its step on NaN until it underflows."""
        f = self.f

        def rhs(theta, state):
            r, w = state
            cs, sn = math.cos(theta), math.sin(theta)
            xd, yd, zd = f(r * cs, r * sn, w)
            try:
                inv = 1.0 / ((cs * yd - sn * xd) / r)
            except ZeroDivisionError as exc:
                raise NonFiniteState(f"return-map field singular at theta={theta}") from exc
            dr, dw = (cs * xd + sn * yd) * inv, zd * inv
            if not (math.isfinite(dr) and math.isfinite(dw)):
                raise NonFiniteState(f"return-map field non-finite at theta={theta}")
            return dr, dw
        return rhs

    @functools.cached_property
    def jet1_rhs(self) -> Callable:
        """rhs(theta, (r, r1, r2, w, w1, w2)): the return's RHS and its
        Jacobian applied to the columns (r1, w1) and (r2, w2), in real
        arithmetic from the field and its nine exact partials (one compiled
        function, shared powers).  A zero division or a non-finite value
        raises JetTransportUnstable.

        With rdot, thetadot = (cs y' - sn x') / r and z' as functions of
        (r, w), d/dr = cs d/dx + sn d/dy and d/dw = d/dz, so d(thetadot)/dr
        is (cs dy'/dr - sn dx'/dr - thetadot) / r, and each component
        q / thetadot has the derivative (dq - (q / thetadot) d(thetadot)) /
        thetadot."""
        fj, isfinite = compile_terms(self.terms + self.partial_terms, "xyz"), math.isfinite

        def rhs(theta, state):
            r, r1, r2, w, w1, w2 = state
            cs, sn = math.cos(theta), math.sin(theta)
            X, Y, Z, Xx, Xy, Xz, Yx, Yy, Yz, Zx, Zy, Zz = fj(r * cs, r * sn, w)
            try:
                thetadot = (cs * Y - sn * X) / r
                inv = 1.0 / thetadot
            except ZeroDivisionError as exc:
                raise JetTransportUnstable(f"jet field singular at theta={theta}") from exc
            dr, dw = (cs * X + sn * Y) * inv, Z * inv
            xr, yr = cs * Xx + sn * Xy, cs * Yx + sn * Yy
            t_r, t_w = (cs * yr - sn * xr - thetadot) / r, (cs * Yz - sn * Xz) / r
            dr_r = (cs * xr + sn * yr - dr * t_r) * inv
            dr_w = (cs * Xz + sn * Yz - dr * t_w) * inv
            dw_r = (cs * Zx + sn * Zy - dw * t_r) * inv
            dw_w = (Zz - dw * t_w) * inv
            dr1, dr2 = dr_r * r1 + dr_w * w1, dr_r * r2 + dr_w * w2
            dw1, dw2 = dw_r * r1 + dw_w * w1, dw_r * r2 + dw_w * w2
            if not (isfinite(dr) and isfinite(dr1) and isfinite(dr2)
                    and isfinite(dw) and isfinite(dw1) and isfinite(dw2)):
                raise JetTransportUnstable(f"jet field non-finite at theta={theta}")
            return dr, dr1, dr2, dw, dw1, dw2
        return rhs


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
        """The field at (mu, eps); the last pair is kept, so the calls of one
        integration share its kernels."""
        if self._bound is None or self._bound[0] != (mu, eps):
            self._bound = ((mu, eps), BoundField(self.slices, float(mu), float(eps)))
        return self._bound[1]

    def field3(self, mu: float, eps: float) -> Callable:
        """f(t, state) for `integrate` on the full rescaled 3D system."""
        return self.bind(mu, eps).rhs3


# ---------------------------------------------------------------------------
# the theta-return map
# ---------------------------------------------------------------------------

class ThetaReturnMap:
    """theta: 0 -> 2 pi return map of the rescaled cylindrical system."""

    def __init__(self, sys: HopfZeroSystem, fam: PerturbationFamily,
                 cfg: Optional[IntegratorConfig] = None):
        self.field = RescaledField(sys, fam)
        self.cfg = cfg or IntegratorConfig()

    def points(self, X0: np.ndarray, mu: float, eps: float,
               reverse: bool = False) -> np.ndarray:
        """Map each (r, w) row through one return, one `dopri45`
        integration on Python floats per row, on the generated
        `BoundField.return_rhs`; a singular or non-finite field raises
        NonFiniteState."""
        t_end = -PERIOD if reverse else PERIOD
        rhs = self.field.bind(mu, eps).return_rhs
        rows = np.atleast_2d(np.asarray(X0, dtype=float)).tolist()
        Y = np.array([dopri45(rhs, 0.0, t_end, y0, self.cfg.atol, self.cfg.rtol)[1][-1]
                      for y0 in rows])
        if not np.isfinite(Y).all():
            raise NonFiniteState("return map produced non-finite state")
        return Y

    def point(self, x0, mu: float, eps: float, reverse: bool = False) -> np.ndarray:
        return self.points(np.asarray(x0, dtype=float)[None, :], mu, eps, reverse)[0]

    def jet1(self, x0, mu: float, eps: float) -> "MapJet":
        """Value and Jacobian of the return map (a MapJet without B and C):
        the six floats (r, dr/dr0, dr/dw0, w, dw/dr0, dw/dw0) integrated by
        `dopri45` on the generated `BoundField.jet1_rhs`, which
        differentiates the field exactly in real arithmetic."""
        r, r1, r2, w, w1, w2 = self._transport(self.field.bind(mu, eps).jet1_rhs,
                                               [float(x0[0]), 1.0, 0.0,
                                                float(x0[1]), 0.0, 1.0])
        return MapJet(value=np.array([r, w]), A=np.array([[r1, r2], [w1, w2]]))

    def jet3(self, x0, mu: float, eps: float) -> "MapJet":
        """Degree-3 jet by transporting the truncated Taylor expansion of the
        solution with respect to the initial condition: the 20 coefficients
        of (r, w) integrated by `dopri45`."""
        cyl = self.field.bind(mu, eps).cylindrical

        def rhs(theta, state):
            try:
                dr, dw = cyl(theta, _jet(tuple(state[:10])), _jet(tuple(state[10:])))
            except ZeroDivisionError as exc:
                raise JetTransportUnstable(f"jet field singular at theta={theta}") from exc
            out = _as_jet(dr).coeffs + _as_jet(dw).coeffs
            if not all(map(math.isfinite, out)):
                raise JetTransportUnstable(f"jet field non-finite at theta={theta}")
            return out

        state0 = Jet2.variable(0, float(x0[0])).coeffs + Jet2.variable(1, float(x0[1])).coeffs
        y = self._transport(rhs, list(state0))
        return MapJet.from_jets(_jet(tuple(y[:10])), _jet(tuple(y[10:])))

    def _transport(self, rhs: Callable, state0: list) -> list:
        """The state of a derivative transport after one return.  `rhs`
        raises JetTransportUnstable where the field is singular or
        non-finite; a failed integration is JetTransportUnstable too."""
        try:
            _, ys, _ = dopri45(rhs, 0.0, PERIOD, state0, self.cfg.atol, self.cfg.rtol)
        except StepSizeUnderflow as exc:
            raise JetTransportUnstable(f"jet transport integration failed: {exc}") from exc
        if not all(map(math.isfinite, ys[-1])):
            raise JetTransportUnstable("jet transport integration failed")
        return ys[-1]


# ---------------------------------------------------------------------------
# degree-3 jets in two variables
# ---------------------------------------------------------------------------

_JET_EXPS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
             (3, 0), (2, 1), (1, 2), (0, 3)]
_JET_INDEX = {e: i for i, e in enumerate(_JET_EXPS)}


class Jet2:
    """Truncated degree-3 Taylor polynomial in two displacement variables:
    its ten coefficients over _JET_EXPS, a tuple of Python floats.  Every
    operation is written out on the unpacked coefficients (no numpy)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(map(float, coeffs))

    @classmethod
    def constant(cls, value: float) -> "Jet2":
        return _jet((float(value),) + (0.0,) * 9)

    @classmethod
    def variable(cls, which: int, base: float) -> "Jet2":
        c = [float(base)] + [0.0] * 9
        c[1 + which] = 1.0
        return _jet(tuple(c))

    def __add__(self, other):
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9 = self.coeffs
        if isinstance(other, Jet2):
            b0, b1, b2, b3, b4, b5, b6, b7, b8, b9 = other.coeffs
            return _jet((a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4,
                         a5 + b5, a6 + b6, a7 + b7, a8 + b8, a9 + b9))
        return _jet((a0 + float(other), a1, a2, a3, a4, a5, a6, a7, a8, a9))

    __radd__ = __add__

    def __neg__(self):
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9 = self.coeffs
        return _jet((-a0, -a1, -a2, -a3, -a4, -a5, -a6, -a7, -a8, -a9))

    def __sub__(self, other):
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9 = self.coeffs
        if isinstance(other, Jet2):
            b0, b1, b2, b3, b4, b5, b6, b7, b8, b9 = other.coeffs
            return _jet((a0 - b0, a1 - b1, a2 - b2, a3 - b3, a4 - b4,
                         a5 - b5, a6 - b6, a7 - b7, a8 - b8, a9 - b9))
        return _jet((a0 - float(other), a1, a2, a3, a4, a5, a6, a7, a8, a9))

    def __rsub__(self, other):
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9 = self.coeffs
        return _jet((float(other) - a0, -a1, -a2, -a3, -a4, -a5, -a6, -a7, -a8, -a9))

    def __mul__(self, other):
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9 = self.coeffs
        if isinstance(other, Jet2):
            # Truncated Cauchy product over _JET_EXPS, written out: each
            # coefficient sums its products from 0.0 in (i, j) order, the
            # order of accumulating them into zeros.
            b0, b1, b2, b3, b4, b5, b6, b7, b8, b9 = other.coeffs
            return _jet((
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
            ))
        b = float(other)
        return _jet((a0 * b, a1 * b, a2 * b, a3 * b, a4 * b,
                     a5 * b, a6 * b, a7 * b, a8 * b, a9 * b))

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet2":
        b0, b1, b2, b3, b4, b5, b6, b7, b8, b9 = self.coeffs
        if b0 == 0:
            raise ZeroDivisionError("jet reciprocal with zero constant term")
        q = _jet((0.0, b1 / b0, b2 / b0, b3 / b0, b4 / b0,
                  b5 / b0, b6 / b0, b7 / b0, b8 / b0, b9 / b0))
        q2 = q * q
        return (Jet2.constant(1.0) - q + q2 - q2 * q) * (1.0 / b0)

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other.reciprocal()
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9 = self.coeffs
        b = float(other)
        return _jet((a0 / b, a1 / b, a2 / b, a3 / b, a4 / b,
                     a5 / b, a6 / b, a7 / b, a8 / b, a9 / b))

    def __rtruediv__(self, other):
        return self.reciprocal() * float(other)


_new_jet = object.__new__


def _jet(coeffs: tuple) -> Jet2:
    """A Jet2 on a tuple of ten Python floats, taken as it is."""
    jet = _new_jet(Jet2)
    jet.coeffs = coeffs
    return jet


def _as_jet(value) -> Jet2:
    return value if isinstance(value, Jet2) else Jet2.constant(float(value))


@dataclass
class MapJet:
    """Value, Jacobian, and symmetric multilinear coefficients of a planar
    map to total degree 3:  F(x0 + h) = value + A h + B(h,h)/2 + C(h,h,h)/6."""
    value: np.ndarray
    A: np.ndarray
    B: Optional[np.ndarray] = None   # (2, 2, 2), symmetric in the last two slots
    C: Optional[np.ndarray] = None   # (2, 2, 2, 2), symmetric in the last three

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
