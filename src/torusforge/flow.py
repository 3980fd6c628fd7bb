"""Numeric integration of the rescaled system and its theta-return map.

Every integration runs on `dop853`, one Dormand-Prince 8(5,3) stepper with
scipy DOP853's tableau, error norm and step control, on a state of Python
floats.  It yields each accepted step and keeps none: `integrate` streams
plain trajectories of the full 3D (rescaled) system, and the angular return
theta: 0 -> 2 pi of the cylindrical standard-form variables (r, w), where
theta plays the role of time and needs no event detection, drains it to
its last state.  The step is straight-line code, generated once per state
size, and each of its 12 stages is one call rhs(t, y0, ..., y{n-1}) on
positional floats.  No integration makes more than MAX_STEPS step
attempts, past which it is a StepBudgetExceeded error.

An integration starts cold, at scipy's initial-step selection, or warm, at
a step h0 it is given: the step the controller of a nearby integration
proposed when its last step was clipped to t_end, which `dop853` returns.
`ThetaReturnMap.orbit` chains the returns of one seed that way, and
`ThetaReturnMap.jet1_along` the transports at a sequence of points, so
after the first no integration pays the initial-step selection or the
short first step it picks.  `point` and `jet1` are the first of such a
chain: cold, a pure function of the seed.

`RescaledField.rhs(name, mu, eps)` generates each right-hand side of
`_RHS` on first use at (mu, eps), one straight-line function: the terms of
the slices `_RHS` names for it, folded and written out, then the
statements that make the derivative of them.  The 3D field of `simulate`
returns the terms of the field; one return of the map and the first
variational equation of `jet1` write out the drift (the field less its
rotation (-y, x, 0)), or the drift and its nine partials, at
(r cos theta, r sin theta, w), followed by the cylindrical quotient.

Derivatives of the theta-return map come from transporting them through
the flow with the same stepper.  `jet1`, the value and Jacobian that Newton
and the secant on |lambda| = 1 read, carries six floats in real arithmetic,
from the drift's nine partials: the eps-graded slices are differentiated
exactly, then (mu, eps) is folded in.  `jet3`, the degree-3 jet the
Jordan normalization reads, carries a truncated two-variable Taylor
polynomial (the coefficient ODE, 20 floats) through the return's own
right-hand side, `rhs("return", mu, eps)`, on Jet2 values.  A jet of the
map (`MapJet`) holds nested tuples of Python floats: this module imports no
numpy, and `nsbranch` solves, normalizes and contracts on the jets as they
are.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Generator, Iterator, List, Optional, Tuple

from .criteria import (
    HopfZeroSystem, PerturbationFamily, closed_form_equilibrium, eps_graded_slices, float_range,
    perturbation_functions,
)
from .fieldexpr import Poly, define, terms_source

PERIOD = 2.0 * math.pi      # one return: theta from 0 to 2 pi


class FlowError(RuntimeError):
    pass


class StepSizeUnderflow(FlowError):
    pass


class NonFiniteState(FlowError):
    pass


class JetTransportUnstable(FlowError):
    pass


class StepBudgetExceeded(FlowError):
    """An integration needs more than MAX_STEPS step attempts."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances of the embedded Runge-Kutta 8(5,3) pair."""
    atol: float = 1e-12
    rtol: float = 1e-10

    def __post_init__(self):
        # NaN fails both comparisons; inf would switch the error control off
        if not (0 < self.atol < math.inf and 0 < self.rtol < math.inf):
            raise ValueError("tolerances must be positive and finite")


def integrate(field: Callable, state0, t_span, cfg: Optional[IntegratorConfig] = None):
    """The accepted steps (t, state) of state' = field(t, *state) over
    t_span, yielded as `dop853` takes them: Python floats, from t_span[0] to
    t_span[1].  A non-finite state is a NonFiniteState error at that step."""
    cfg = cfg or IntegratorConfig()
    for t, y in dop853(field, float(t_span[0]), float(t_span[1]),
                       [float(v) for v in state0], cfg.atol, cfg.rtol):
        if not all(map(math.isfinite, y)):
            raise NonFiniteState(f"integration produced non-finite state at t = {t}")
        yield t, y


# ---------------------------------------------------------------------------
# Dormand-Prince 8(5,3)
# ---------------------------------------------------------------------------

# The tableau of scipy's DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
# Sec. II.10), the doubles of scipy/integrate/_ivp/dop853_coefficients.py:
# the nodes C, row s of A (a_s0 .. a_s,s-1), the weights B, and the error
# weights E5 and E3 of the stages (their weight on rhs(t + h, *y_new) is 0).
_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571, 1.0)
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
)
_B = (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
      -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
      0.04471061572777259)
_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
       1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
       -0.022355307863886294)
_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
       -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
       0.02265179219836082)
# step control of Hairer-Norsett-Wanner, Sec. II.4, as in scipy's solvers;
# the error estimate is of order 7, so the step scales with error^(-1/8)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERROR_EXPONENT = 0.9, 0.2, 10.0, -1 / 8
# the step attempts one integration may make, as NMAX in Hairer's dop853.f:
# 2.6 times the 387 267 (279 598 accepted) of simulate's 50 periods on the
# worked example with -10^6 (x^2 + y^2) z added to R, at (0.05, 0.05), and
# 40 times the worked example's 25 255 at cli.MAX_PERIODS; a return of the
# map makes about 40.  It bounds the work of any input and a trajectory's rows.
MAX_STEPS = 1_000_000


def _rms(values) -> float:
    return math.hypot(*values) / len(values) ** 0.5


def _initial_step(rhs, t0, y0, f0, t_end, direction, atol, rtol) -> float:
    """scipy's select_initial_step for an error estimate of order 7 (one
    RHS evaluation).  A first guess of 0, which an infinite derivative at
    t0 gives, is a StepSizeUnderflow."""
    interval = abs(t_end - t0)
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    if h0 == 0:
        raise StepSizeUnderflow(f"initial step size is 0 at t = {t0}")
    f1 = rhs(t0 + h0 * direction, *[v + h0 * direction * fv for v, fv in zip(y0, f0)])
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    return min(100 * h0, h1, interval)


@functools.lru_cache(maxsize=None)
def _dp_step(n: int) -> Callable:
    """One DOP853 step for a state of n floats, as straight-line code
    generated once per n: step(f, t, h, y, k0, atol, rtol) -> (y_new,
    f(t + h, *y_new), error_norm).  Each stage is one call f(t, y0, ...,
    y{n-1}) of the right-hand side on positional floats.  Each component
    is written out with its stage sums in tableau order, zero weights left
    out and the tableau inlined as literals, so it rounds as a loop over
    the components does.  The error norm is scipy's: |h| |err5|^2 /
    sqrt((|err5|^2 + 0.01 |err3|^2) n) over the components of err5 and
    err3 divided by atol + max(|y|, |y_new|) rtol."""
    def each(template: str) -> List[str]:   # '#' stands for the component
        return [template.replace("#", str(i)) for i in range(n)]

    def row(template: str) -> str:
        return ", ".join(each(template))

    def comb(weights) -> str:               # sum_j w_j k_j of one component
        return " + ".join(f"{w!r} * _k{j}_#" for j, w in enumerate(weights) if w)

    lines = [f"{row('_y#')}, = y", f"{row('_k0_#')}, = k0"]
    for s in range(1, len(_C)):
        lines.append(f"{row(f'_k{s}_#')}, = f(t + {_C[s]!r} * h, "
                     f"{row(f'_y# + ({comb(_A[s])}) * h')})")
    lines += [f"{row('_n#')}, = y_new = [{row(f'_y# + h * ({comb(_B)})')}]",
              f"f_new = f(t + h, {row('_n#')})"]
    for i in range(n):
        lines += [f"_a, _b = abs(_y{i}), abs(_n{i})",
                  "_s = atol + (_b if _b > _a else _a) * rtol",   # max(_a, _b)
                  f"_e5_{i} = ({comb(_E5)}) / _s".replace("#", str(i)),
                  f"_e3_{i} = ({comb(_E3)}) / _s".replace("#", str(i))]
    lines += [f"e5 = {' + '.join(f'_e5_{i} * _e5_{i}' for i in range(n))}",
              f"e3 = {' + '.join(f'_e3_{i} * _e3_{i}' for i in range(n))}",
              f"return y_new, f_new, (0.0 if e5 == 0 else "
              f"abs(h) * e5 / sqrt((e5 + 0.01 * e3) * {n}))"]
    return define("step", "f, t, h, y, k0, atol, rtol", lines, {"sqrt": math.sqrt})


def dop853(rhs: Callable, t0: float, t_end: float, y0, atol: float, rtol: float,
           h0: Optional[float] = None
           ) -> Generator[Tuple[float, list], None, Tuple[int, Optional[float]]]:
    """The accepted steps (t, y) of y' = rhs(t, *y) from (t0, y0) to t_end,
    yielded as they are taken and not kept; the generator returns (nfev,
    h_next) (its StopIteration.value): the number of RHS evaluations, and the
    step the controller proposed where the last step was clipped to t_end
    (None where no step was clipped).

    The state is a list of Python floats, and `rhs(t, y0, ..., y{n-1})`
    returns a sequence of n floats.  Tableau, error norm and step control
    are those of scipy's DOP853 (initial step, safety 0.9, factors clamped
    to [0.2, 10] and to at most 1 after a rejection, exponent -1/8, the
    last step clipped to t_end), without numpy's per-call cost on a small
    float state.  Each step is `_dp_step`'s straight-line code for the
    state's size and costs 12 RHS evaluations.  Its sums and norms round as
    Python floats in tableau order, not as numpy's dot and norm: it takes
    the steps scipy's controller takes on steps that round this way, and
    `solve_ivp(method="DOP853")` may part from it where an error norm sits
    at rounding level at a decision (the end states then differ by about
    1e-14).
    Raises StepSizeUnderflow where DOP853 fails with a step below the float
    spacing, on a NaN step size and on an initial step of 0, and
    StepBudgetExceeded before a step attempt past MAX_STEPS.

    A warm start h0, the h_next of an integration of a nearby problem (the
    previous return of the same orbit), is the first step proposal in place
    of `_initial_step` and its RHS evaluation.  Without one the steps are
    the cold start's; h_next is recorded only where the last step is
    clipped, so the step loop does no warm bookkeeping.
    """
    y = list(y0)
    step = _dp_step(len(y))
    f = rhs(t0, *y)
    yield t0, y
    direction = 1.0 if t_end > t0 else -1.0
    t, nfev, h_abs, h_next = t0, 1, h0, None
    if t_end != t0 and h0 is None:      # a zero span takes no step
        h_abs = _initial_step(rhs, t0, y, f, t_end, direction, atol, rtol)
        nfev = 2
    while direction * (t - t_end) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise StepSizeUnderflow(
                    f"required step size is below {min_step:.3g} at t = {t}")
            if nfev > 12 * MAX_STEPS:       # nfev = 2 (1 warm) + 12 (attempts made)
                raise StepBudgetExceeded(
                    f"MAX_STEPS = {MAX_STEPS} step attempts made by t = {t} of {t_end}")
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0:
                t_new, h_next = t_end, h_abs
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, error_norm = step(rhs, t, h, y, f, atol, rtol)
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
        yield t, y
    return nfev, h_next


# ---------------------------------------------------------------------------
# the rescaled field, bound to (mu, eps)
# ---------------------------------------------------------------------------

def _fold(graded, mu: float, eps: float) -> List[Dict[Tuple[int, int, int], float]]:
    """Float terms in (x, y, z) of each component of eps-graded exact
    slices at (mu, eps): the terms of grade g are scaled by mu^d eps^g and
    summed into their (x, y, z) key, in slice and term order.  A value past
    the float range is a FloatRangeExceeded error."""
    comps = []
    with float_range():
        for i in range(len(graded[0])):
            terms: Dict[Tuple[int, int, int], float] = {}
            for grade, s in enumerate(graded):
                for (a, b, c, d, _), q in s[i].terms.items():
                    key = (a, b, c)
                    terms[key] = terms.get(key, 0.0) + float(q) * mu ** d * eps ** grade
            comps.append(terms)
    return comps


# The right-hand sides `RescaledField.rhs` generates: the slice attributes
# of the field it folds into float terms in (x, y, z), then the statements
# around the `terms_source` lines of those terms: the parameters, the
# statements that bind x, y and z, the names the maps' values are bound to,
# and the statements that make and return the derivative from them.
#
# "field": (x', y', z') of the 3D field, from its terms.
# "return": (dr/dtheta, dw/dtheta) of (r, w), from the drift (X, Y, Z);
# `jet3` runs it on Jet2 values, which carry its +, -, * and / to the
# truncated Taylor coefficients in the order floats take them.
# "jet1": the same and its Jacobian applied to the columns (r1, w1) and
# (r2, w2), from the drift and its nine partials.  With rdot = cs X + sn Y,
# thetadot = 1 + q, q = (cs Y - sn X) / r and Z as functions of (r, w),
# d/dr = cs d/dx + sn d/dy and d/dw = d/dz, so d(thetadot)/dr is
# (cs dY/dr - sn dX/dr - q) / r, and each component p / thetadot has the
# derivative (dp - (p / thetadot) d(thetadot)) / thetadot.
#
# In the two cylindrical quotients a zero division or a non-finite value
# raises (NonFiniteState for the return, JetTransportUnstable for jet1): the
# step control would otherwise shrink its step on NaN until it underflows.
# 0.0 * v is 0.0 or -0.0 for a finite v and NaN for an infinite or NaN one:
# jet1 tests its six values in one product, through which NaN carries, and
# the return compares 0.0 * dr with 0.0 * dw, which on Jet2 values (jet3)
# compares ten scaled coefficients and holds when every one is finite.
_CYLINDER = ["cs, sn = cos(theta), sin(theta)", "x, y, z = r * cs, r * sn, w"]
_RHS = {
    "field": (("slices",), "t, x, y, z", [], "dx, dy, dz", ["return dx, dy, dz"]),
    "return": (("drift_slices",), "theta, r, w", _CYLINDER, "X, Y, Z", [
        "try:",
        "    inv = 1.0 / (1.0 + (cs * Y - sn * X) / r)",
        "except ZeroDivisionError as exc:",
        "    raise NonFiniteState(f'return-map field singular at theta={theta}') from exc",
        "dr, dw = (cs * X + sn * Y) * inv, Z * inv",
        "if not 0.0 * dr == 0.0 * dw:",
        "    raise NonFiniteState(f'return-map field non-finite at theta={theta}')",
        "return dr, dw",
    ]),
    "jet1": (("drift_slices", "partial_slices"), "theta, r, r1, r2, w, w1, w2",
             _CYLINDER, "X, Y, Z, Xx, Xy, Xz, Yx, Yy, Yz, Zx, Zy, Zz", [
        "try:",
        "    q = (cs * Y - sn * X) / r",
        "    inv = 1.0 / (1.0 + q)",
        "except ZeroDivisionError as exc:",
        "    raise JetTransportUnstable(f'jet field singular at theta={theta}') from exc",
        "dr, dw = (cs * X + sn * Y) * inv, Z * inv",
        "xr, yr = cs * Xx + sn * Xy, cs * Yx + sn * Yy",
        "t_r, t_w = (cs * yr - sn * xr - q) / r, (cs * Yz - sn * Xz) / r",
        "dr_r = (cs * xr + sn * yr - dr * t_r) * inv",
        "dr_w = (cs * Xz + sn * Yz - dr * t_w) * inv",
        "dw_r = (cs * Zx + sn * Zy - dw * t_r) * inv",
        "dw_w = (Zz - dw * t_w) * inv",
        "dr1, dr2 = dr_r * r1 + dr_w * w1, dr_r * r2 + dr_w * w2",
        "dw1, dw2 = dw_r * r1 + dw_w * w1, dw_r * r2 + dw_w * w2",
        "if not 0.0 * dr * dr1 * dr2 * dw * dw1 * dw2 == 0.0:",
        "    raise JetTransportUnstable(f'jet field non-finite at theta={theta}')",
        "return dr, dr1, dr2, dw, dw1, dw2",
    ]),
}


def _generate_rhs(name: str, maps) -> Callable:
    """The right-hand side `name` of `_RHS` over the float terms `maps`, as
    one straight-line function."""
    _, params, head, values, tail = _RHS[name]
    lines, results, namespace = terms_source(maps, "xyz")
    namespace.update(cos=math.cos, sin=math.sin,
                     NonFiniteState=NonFiniteState, JetTransportUnstable=JetTransportUnstable)
    return define("rhs", params, [*head, *lines, f"{values} = {', '.join(results)}", *tail],
                  namespace)


class RescaledField:
    """The rescaled perturbed field as an exact polynomial in eps:
    (x, y, z) -> eps (x, y, z) applied to (-y + P + eps U, x + Q + eps V,
    R + eps W), divided by eps.  The exact eps-graded slices are kept, and
    those of the drift (the field less its rotation (-y, x, 0)) and of its
    partials; `rhs` folds one (mu, eps) into them.

    The cylindrical right-hand sides fold only the drift, the slices of
    grade >= 1: the rotation of slice 0 contributes 0 to dr/dt and 1 to
    dtheta/dt exactly, so they use rdot = cs X + sn Y and thetadot = 1 +
    (cs Y - sn X) / r, and at eps = 0 the return is the identity to the
    last bit."""

    def __init__(self, sys: HopfZeroSystem, fam: PerturbationFamily):
        self.slices = eps_graded_slices(sys, fam)
        self.drift_slices = ((Poly(), Poly(), Poly()),) + self.slices[1:]
        self._rhs = (None, {})      # the last (mu, eps) and its right-hand sides

    @functools.cached_property
    def partial_slices(self) -> List[Tuple[Poly, ...]]:
        """The nine exact partials dX/dx, ..., dZ/dz of each drift slice,
        derived once per field, as they do not depend on (mu, eps)."""
        return [tuple(p.derivative(v) for p in s for v in "xyz") for s in self.drift_slices]

    def rhs(self, name: str, mu: float, eps: float) -> Callable:
        """The right-hand side `name` of `_RHS` at (mu, eps), generated on
        first use over the folded slices `_RHS` names for it.  Only the last
        pair's right-hand sides are kept, so the calls of one integration
        share them, and no RHS evaluation does parameter work."""
        pair, made = self._rhs
        if pair != (mu, eps):
            made = {}
            self._rhs = ((mu, eps), made)
        if name not in made:
            made[name] = _generate_rhs(name, [
                terms for attr in _RHS[name][0]
                for terms in _fold(getattr(self, attr), float(mu), float(eps))])
        return made[name]


# ---------------------------------------------------------------------------
# the theta-return map
# ---------------------------------------------------------------------------

class ThetaReturnMap:
    """theta: 0 -> 2 pi return map of the rescaled cylindrical system.  It
    keeps the system and family it is built from, so it gives its own
    Newton seed (`averaged_equilibrium`)."""

    def __init__(self, sys: HopfZeroSystem, fam: PerturbationFamily,
                 cfg: Optional[IntegratorConfig] = None):
        self.system, self.family = sys, fam
        self.field = RescaledField(sys, fam)
        self.cfg = cfg or IntegratorConfig()

    @functools.cached_property
    def _perturbation_functions(self):
        return perturbation_functions(self.system, self.family)

    def averaged_equilibrium(self, mu: float) -> Tuple[float, float]:
        """The fixed-point Newton's seed (r, w) at mu: the criteria's closed
        form (`closed_form_equilibrium`), its functions compiled once per map."""
        return closed_form_equilibrium(self._perturbation_functions, mu)

    def orbit(self, x0, mu: float, eps: float, reverse: bool = False
              ) -> Iterator[Tuple[float, float]]:
        """The returns Pi(x0), Pi^2(x0), ... of the seed x0, any 2-sequence,
        each (r, w) a pair of Python floats, without end: one `dop853`
        integration per return on the field's "return" right-hand side.
        The first starts cold; each later one starts warm, at the h_next of
        the return before it.  A singular or non-finite field raises
        NonFiniteState."""
        rhs, t_end = self.field.rhs("return", mu, eps), -PERIOD if reverse else PERIOD
        y, h0 = [float(x0[0]), float(x0[1])], None
        while True:
            y, (_, h0) = _drain(dop853(rhs, 0.0, t_end, y, self.cfg.atol, self.cfg.rtol, h0))
            r, w = y
            if not (math.isfinite(r) and math.isfinite(w)):
                raise NonFiniteState("return map produced non-finite state")
            yield r, w

    def point(self, x0, mu: float, eps: float, reverse: bool = False
              ) -> Tuple[float, float]:
        """(r, w) after one return of the seed x0: the first of its `orbit`,
        a cold integration, so a pure function of x0."""
        return next(self.orbit(x0, mu, eps, reverse))

    def jet1_along(self, points, mu: float, eps: float) -> Iterator["MapJet"]:
        """Value and Jacobian of the return map (a MapJet without B and C)
        at each of `points` in turn: the six floats (r, dr/dr0, dr/dw0, w,
        dw/dr0, dw/dw0) integrated by `dop853` on the field's "jet1"
        right-hand side, which differentiates the drift exactly in real
        arithmetic.  The first transport starts cold; each later one starts
        warm, at the h_next of the one before it."""
        rhs, h0 = self.field.rhs("jet1", mu, eps), None
        for x in points:
            (r, r1, r2, w, w1, w2), h0 = self._transport(
                rhs, [float(x[0]), 1.0, 0.0, float(x[1]), 0.0, 1.0], h0)
            yield MapJet(value=(r, w), A=((r1, r2), (w1, w2)))

    def jet1(self, x0, mu: float, eps: float) -> "MapJet":
        """The value and Jacobian of the return map at x0 (`jet1_along`),
        from a cold transport, so a pure function of x0."""
        return next(self.jet1_along((x0,), mu, eps))

    def jet3(self, x0, mu: float, eps: float) -> "MapJet":
        """Degree-3 jet by transporting the truncated Taylor expansion of the
        solution with respect to the initial condition: the 20 coefficients
        of (r, w) integrated by `dop853` on the field's "return" right-hand
        side, called on Jet2 values.  Its NonFiniteState on the axis or a
        non-finite field is JetTransportUnstable here."""
        field = self.field.rhs("return", mu, eps)

        def rhs(theta, *state):
            try:
                dr, dw = field(theta, _jet(state[:10]), _jet(state[10:]))
            except NonFiniteState as exc:
                raise JetTransportUnstable(str(exc)) from exc
            return dr.coeffs + dw.coeffs

        state0 = Jet2.variable(0, float(x0[0])).coeffs + Jet2.variable(1, float(x0[1])).coeffs
        y, _ = self._transport(rhs, list(state0))
        return MapJet.from_jets(_jet(tuple(y[:10])), _jet(tuple(y[10:])))

    def _transport(self, rhs: Callable, state0: list, h0: Optional[float] = None
                   ) -> Tuple[list, Optional[float]]:
        """The state of a derivative transport after one return, and its
        h_next; h0 is `dop853`'s warm start.  `rhs` raises
        JetTransportUnstable where the field is singular or non-finite; a
        failed integration is JetTransportUnstable too."""
        try:
            y, (_, h_next) = _drain(dop853(rhs, 0.0, PERIOD, state0,
                                           self.cfg.atol, self.cfg.rtol, h0))
        except StepSizeUnderflow as exc:
            raise JetTransportUnstable(f"jet transport integration failed: {exc}") from exc
        if not all(map(math.isfinite, y)):
            raise JetTransportUnstable("jet transport integration failed")
        return y, h_next


def _drain(steps) -> tuple:
    """The last state a `dop853` run yields, and the run's return value."""
    while True:
        try:
            _, y = next(steps)
        except StopIteration as stop:
            return y, stop.value


# ---------------------------------------------------------------------------
# degree-3 jets in two variables
# ---------------------------------------------------------------------------

_JET_EXPS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
             (3, 0), (2, 1), (1, 2), (0, 3)]


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

    def __eq__(self, other):
        """Equal coefficients, each compared as floats compare (NaN equals
        nothing); a number is the constant jet."""
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9 = self.coeffs
        b0, b1, b2, b3, b4, b5, b6, b7, b8, b9 = (
            other.coeffs if isinstance(other, Jet2) else (float(other),) + (0.0,) * 9)
        return (a0 == b0 and a1 == b1 and a2 == b2 and a3 == b3 and a4 == b4
                and a5 == b5 and a6 == b6 and a7 == b7 and a8 == b8 and a9 == b9)

    __hash__ = None

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


@dataclass
class MapJet:
    """Value, Jacobian, and symmetric multilinear coefficients of a planar
    map to total degree 3:  F(x0 + h) = value + A h + B(h,h)/2 + C(h,h,h)/6,
    each a tuple of Python floats nested to its shape (A[i][j] is
    dF_i/dx_j)."""
    value: tuple
    A: tuple
    B: Optional[tuple] = None   # (2, 2, 2), symmetric in the last two slots
    C: Optional[tuple] = None   # (2, 2, 2, 2), symmetric in the last three

    @classmethod
    def from_jets(cls, R: Jet2, W: Jet2) -> "MapJet":
        """The jet of the map whose components have the Taylor polynomials R
        and W: the coefficient of exponents (i, j) in _JET_EXPS times i! j!
        is the partial derivative of that order, the entry of A (degree 1),
        B (2) or C (3) at each slot order."""
        comps = (R.coeffs, W.coeffs)
        return cls(value=tuple(c[0] for c in comps),
                   A=tuple((c[1], c[2]) for c in comps),
                   B=tuple(((2 * c[3], c[4]), (c[4], 2 * c[5])) for c in comps),
                   C=tuple((((6 * c[6], 2 * c[7]), (2 * c[7], 2 * c[8])),
                            ((2 * c[7], 2 * c[8]), (2 * c[8], 6 * c[9]))) for c in comps))
