import itertools
import math
import re
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from torusforge import flow
from torusforge.averaging import melnikov_pair, to_standard_form
from torusforge.criteria import PerturbationFamily, validate_hopf_zero
from torusforge.fieldexpr import compile_terms
from torusforge.flow import (
    _JET_EXPS, PERIOD, IntegratorConfig, Jet2, JetTransportUnstable, MapJet,
    NonFiniteState, RescaledField, StepBudgetExceeded, StepSizeUnderflow, ThetaReturnMap,
    _A, _B, _C, _E3, _E5, _dp_step, _fold, dop853, integrate,
)
from torusforge.torus import CERTIFY_INTEGRATOR

from oracles import (
    NoReturnWithinHorizon, PlaneSection, TangencyDetected, cylindrical_jacobian,
    dop853_loop, jet1_complex_step, jet3_fd, jet_apply, jet_max_asymmetry,
    map_points, poincare_return, run_steps, scipy_controlled_dop853, variational_jacobian,
)

EXAMPLE = ("0", "y*z", "-x^2 + x*y + z^2")
_JET_INDEX = {e: i for i, e in enumerate(_JET_EXPS)}


def _setup(atol=1e-12, rtol=1e-10):
    sys = validate_hopf_zero(*EXAMPLE)
    fam = PerturbationFamily.simple(beta=1)
    return sys, fam, ThetaReturnMap(sys, fam, IntegratorConfig(atol=atol, rtol=rtol))


def test_harmonic_rotation_period():
    _, ys, _ = run_steps(integrate(lambda t, x, y: [-y, x], [1.0, 0.0], (0.0, 2 * math.pi)))
    assert np.max(np.abs(np.array(ys[-1]) - [1.0, 0.0])) <= 1e-10


def test_invariant_plane_z_conserved():
    def field(t, x, y, z):
        return [-y + z * 0.0, x, 0.0]
    _, ys, _ = run_steps(integrate(field, [1.0, 0.0, 0.37], (0.0, 20.0)))
    assert np.max(np.abs(np.array(ys)[:, 2] - 0.37)) <= 1e-12


def test_integrator_order_eight():
    """The step control of an order-8 pair with an order-7 error estimate
    keeps the local error ~ h^8 at the tolerance, so the step count grows
    like tol^(-1/8) on a smooth problem; the end error stays within 100 tol."""
    def field(t, x, y):
        return [-y + 0.1 * x * y, x - 0.05 * x ** 2]

    tols = [1e-6, 1e-8, 1e-10, 1e-12]
    ref = np.array(run_steps(integrate(field, [1.0, 0.2], (0.0, 20.0),
                                       IntegratorConfig(atol=1e-14, rtol=1e-14)))[1][-1])
    counts = []
    for tol in tols:
        ts, ys, _ = run_steps(integrate(field, [1.0, 0.2], (0.0, 20.0),
                                        IntegratorConfig(atol=tol, rtol=tol)))
        counts.append(len(ts) - 1)
        assert np.max(np.abs(np.array(ys[-1]) - ref)) <= 100 * tol
    slopes = [math.log(counts[i + 1] / counts[i]) / math.log(tols[i] / tols[i + 1])
              for i in range(len(tols) - 1)]
    assert all(abs(s - 1 / 8) <= 0.03 for s in slopes), (counts, slopes)


def test_theta_return_identity_at_eps_zero():
    _, _, tmap = _setup()
    x0 = np.array([1.3, -0.2])
    assert np.max(np.abs(tmap.point(x0, 0.1, 0.0) - x0)) == 0.0


def test_jet1_identity_at_eps_zero():
    """At eps = 0 the drift vanishes and the rotation is not integrated, so
    jet1 returns the point and the identity Jacobian to the last bit."""
    _, _, tmap = _setup()
    x0 = np.array([1.3, -0.2])
    jet = tmap.jet1(x0, 0.1, 0.0)
    assert np.array(jet.value).tobytes() == x0.tobytes()
    assert np.array(jet.A).tobytes() == np.eye(2).tobytes()


def test_plane_section_circular_orbit():
    sys, fam, _ = _setup()
    field = RescaledField(sys, fam).rhs("field", 0.0, 0.0)
    x1, t1, event = poincare_return(field, PlaneSection(), [1.0, 0.0, 0.0])
    assert np.max(np.abs(x1 - [1.0, 0.0, 0.0])) <= 1e-10
    assert abs(t1 - 2 * math.pi) <= 1e-10
    assert event.residual <= 1e-12


def test_first_order_melnikov_oracle():
    sys, fam, tmap = _setup()
    mel = melnikov_pair(to_standard_form(sys, fam))
    mu = 0.05
    grid = np.array([(r, w) for r in np.linspace(1.1, 1.7, 5)
                     for w in np.linspace(-0.3, 0.3, 5)])
    devs = []
    eps_ladder = (1e-2, 5e-3, 2.5e-3)
    for eps in eps_ladder:
        mapped = map_points(tmap, grid, mu, eps)
        dev = max(np.max(np.abs((mapped[i] - grid[i]) / eps - mel.f1(grid[i], mu)))
                  for i in range(len(grid)))
        devs.append(dev)
    slopes = [math.log(devs[i] / devs[i + 1]) / math.log(2.0) for i in range(2)]
    assert all(abs(s - 1.0) <= 0.25 for s in slopes), (devs, slopes)


def test_jet_identity_at_eps_zero():
    _, _, tmap = _setup()
    jet = tmap.jet3(np.array([1.2, 0.1]), 0.05, 0.0)
    assert np.allclose(jet.A, np.eye(2), atol=1e-12)
    assert np.max(np.abs(jet.B)) <= 1e-12
    assert np.max(np.abs(jet.C)) <= 1e-12


def test_jet_jacobian_vs_variational_monodromy():
    sys, fam, tmap = _setup()
    field = tmap.field
    mu, eps = 0.05, 0.02
    x0 = np.array([1.4, 0.0])
    jet = tmap.jet3(x0, mu, eps)

    cyl = field.rhs("return", mu, eps)

    def rhs(theta, state):
        return np.array(cyl(theta, state[0], state[1]))

    def drhs(theta, state):
        return cylindrical_jacobian(field, theta, state[0], state[1], mu, eps)

    M = variational_jacobian(rhs, drhs, x0, (0.0, 2 * math.pi),
                             IntegratorConfig(atol=1e-13, rtol=1e-12))
    assert np.max(np.abs(M - jet.A)) <= 1e-9


def test_jet_vs_finite_differences():
    _, _, tmap = _setup()
    mu, eps = 0.03, 0.02
    x0 = np.array([1.35, -0.05])
    jt = tmap.jet3(x0, mu, eps)
    fd = jet3_fd(tmap, x0, mu, eps)
    # integrator noise ~1e-12 in the map amplifies by 1/h^2 and 1/h^3 in the
    # difference stencils (h = eps_mach^(1/4))
    assert np.max(np.abs(jt.A - fd.A)) <= 1e-6
    assert np.max(np.abs(jt.B - fd.B)) <= 1e-4
    assert np.max(np.abs(jt.C - fd.C)) <= 5e-3
    assert jet_max_asymmetry(jt) == 0.0
    assert jet_max_asymmetry(fd) == 0.0


def test_jet_apply_predicts_map():
    _, _, tmap = _setup()
    mu, eps = 0.05, 0.02
    x0 = np.array([1.4, 0.0])
    jet = tmap.jet3(x0, mu, eps)
    h = np.array([3e-3, -2e-3])
    predicted = jet_apply(jet, h)
    actual = tmap.point(x0 + h, mu, eps)
    assert np.max(np.abs(predicted - actual)) <= 1e-11


def test_reversibility():
    sys, fam, tmap = _setup()
    x0 = np.array([1.4, 0.1])
    mu, eps = 0.05, 0.05
    fwd = tmap.point(x0, mu, eps)
    back = tmap.point(fwd, mu, eps, reverse=True)
    assert np.max(np.abs(back - x0)) <= 1e-8


def test_determinism_bit_identical():
    _, _, tmap = _setup()
    a = tmap.point(np.array([1.3, 0.2]), 0.05, 0.01)
    b = tmap.point(np.array([1.3, 0.2]), 0.05, 0.01)
    assert np.array(a).tobytes() == np.array(b).tobytes()


# A warm return and a cold one of the same point agree to the integration
# tolerance, not bit for bit.  At the certifier's tolerances (rtol 1e-9) on
# the 500 forward returns of test_warm_orbit_agrees_with_cold_returns, the
# largest one-return difference measured 8.5e-10, and the warm orbit parted
# from 500 cold returns by at most 5.7e-9: the phase of the orbit drifts
# along the curve, which neither contracts nor expands it.
WARM_RETURN_BOUND = 1e-8        # 11.7 times the measured 8.5e-10
WARM_ORBIT_BOUND = 5e-8         # 8.8 times the measured 5.7e-9


def test_warm_orbit_agrees_with_cold_returns():
    """500 returns at (0.05, 0.05) from the headline probe's seed, xi +
    (sqrt(1/3), 0) rounded to (1.99, -0.0375), at the certifier's
    tolerances: the orbit's first return is `point`'s bit for bit (it starts
    cold), each later one agrees with a cold return of the orbit's previous
    point within WARM_RETURN_BOUND, and the orbit agrees with 500 cold
    `point` returns from the same seed within WARM_ORBIT_BOUND.  `point`
    stays a pure function of its seed while the orbit runs."""
    sys, fam, _ = _setup()
    tmap = ThetaReturnMap(sys, fam, CERTIFY_INTEGRATOR)
    seed = (1.99, -0.0375)
    first = tmap.point(seed, 0.05, 0.05)
    orbit = tmap.orbit(seed, 0.05, 0.05)
    assert next(orbit) == first
    prev = cold = first
    one_return = apart = 0.0
    for _ in range(499):
        warm = next(orbit)
        step = tmap.point(prev, 0.05, 0.05)
        cold = tmap.point(cold, 0.05, 0.05)
        one_return = max(one_return, *(abs(a - b) for a, b in zip(warm, step)))
        apart = max(apart, *(abs(a - b) for a, b in zip(warm, cold)))
        prev = warm
    assert tmap.point(seed, 0.05, 0.05) == first
    assert one_return <= WARM_RETURN_BOUND, one_return
    assert apart <= WARM_ORBIT_BOUND, apart


def test_warm_jet1_agrees_with_cold_jet1():
    """`jet1_along` transports one point after another, each warm from the
    last: its first jet is `jet1`'s bit for bit and the later ones agree
    with a cold `jet1` at each point to the integration tolerance.  On these
    32 points of the orbit above the values differed by at most 2.2e-11 and
    the Jacobians by 4.2e-11, 24 times below the bound on A."""
    sys, fam, _ = _setup()
    tmap = ThetaReturnMap(sys, fam, CERTIFY_INTEGRATOR)
    points = list(itertools.islice(tmap.orbit((1.99, -0.0375), 0.05, 0.05), 32))
    jets = list(tmap.jet1_along(points, 0.05, 0.05))
    assert len(jets) == 32 and jets[0] == tmap.jet1(points[0], 0.05, 0.05)
    for x, jet in zip(points, jets):
        cold = tmap.jet1(x, 0.05, 0.05)
        assert max(abs(a - b) for a, b in zip(jet.value, cold.value)) <= WARM_RETURN_BOUND
        assert np.max(np.abs(np.subtract(jet.A, cold.A))) <= 1e-9


def test_integrate_returns_python_floats():
    """`integrate` gives the accepted steps as `dop853` does: Python floats,
    from t0 to t_end."""
    ts, ys, _ = run_steps(integrate(lambda t, x, y: [-y, x], [1.0, 0.0], (0.0, 1.0)))
    assert len(ts) == len(ys) > 2 and ts[0] == 0.0 and ts[-1] == 1.0
    assert all(type(v) is float for v in ts + [v for y in ys for v in y])


def test_integrate_stops_at_the_first_non_finite_state():
    """x' = 10^307 from x = 10^308 overflows to inf in an accepted step whose
    stages stay finite, and dop853 goes on stepping on inf.  `integrate`
    yields the finite steps before that one and raises NonFiniteState, with
    its time, at it."""
    def rhs(t, x):
        return (1e307,)

    ts, ys, _ = run_steps(dop853(rhs, 0.0, 100.0, [1e308], 1e-12, 1e-10))
    first = next(i for i, y in enumerate(ys) if not math.isfinite(y[0]))
    assert 1 < first < len(ys) - 1
    seen = []
    with pytest.raises(NonFiniteState, match=f"non-finite state at t = {ts[first]}$"):
        for step in integrate(rhs, [1e308], (0.0, 100.0)):
            seen.append(step)
    assert seen == list(zip(ts, ys))[:first]


def test_jet2_arithmetic():
    a = Jet2.variable(0, 2.0)
    b = Jet2.variable(1, 3.0)
    prod = (a + b) * (a - b)
    direct = a * a - b * b
    assert np.allclose(prod.coeffs, direct.coeffs, atol=1e-14)
    inv = (1.0 + a * b).reciprocal()
    check = inv * (1.0 + a * b)
    expected = Jet2.constant(1.0)
    # truncation: product is 1 up to degree-3 terms
    assert abs(check.coeffs[0] - 1.0) <= 1e-14
    assert np.max(np.abs(check.coeffs[1:6])) <= 1e-13


def test_jet2_equality():
    """Jets compare by their ten coefficients as floats do, a number as the
    constant jet; so 0.0 * jet == 0.0 holds exactly when every coefficient
    is finite.  Jets are not hashable."""
    a = Jet2.variable(0, 2.0)
    assert a == Jet2((2.0, 1.0) + (0.0,) * 8) and a != Jet2.variable(1, 2.0)
    assert Jet2.constant(3.0) == 3.0 and a != 2.0
    assert 0.0 * a == 0.0
    for bad in (math.inf, -math.inf, math.nan):
        jet = Jet2((1.0,) * 9 + (bad,))
        assert not 0.0 * jet == 0.0
        assert not 0.0 * a * jet == 0.0
    nan = Jet2((math.nan,) + (0.0,) * 9)
    assert nan != nan
    with pytest.raises(TypeError):
        hash(a)


def test_jet3_on_field_without_y_drift():
    """With Q = 0 and the simple family the drift's Y has no terms, so the
    return's cs * Y - sn * X is a float less a jet: jet3 runs through it and
    agrees with jet1 to the integration tolerance."""
    sys = validate_hopf_zero("x*z", "0", "-x^2 + x*y + z^2")
    tmap = ThetaReturnMap(sys, PerturbationFamily.simple(beta=1),
                          IntegratorConfig(atol=1e-13, rtol=1e-11))
    drift = _fold(tmap.field.drift_slices, 0.05, 0.02)
    assert compile_terms(drift[1], "xyz")(1.0, 0.5, 0.1) == 0.0
    j1, j3 = tmap.jet1([1.2, 0.1], 0.05, 0.02), tmap.jet3([1.2, 0.1], 0.05, 0.02)
    assert np.max(np.abs(np.subtract(j1.value, j3.value))) <= 1e-11
    assert np.max(np.abs(np.subtract(j1.A, j3.A))) <= 1e-11


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(atol=0.0)


def test_no_return_within_horizon():
    def field(t, x, y, z):
        return [0.0, 1.0, 0.0]       # y increases forever after the start

    with pytest.raises(NoReturnWithinHorizon):
        poincare_return(field, PlaneSection(), [0.5, 0.0, 0.0], horizon=20.0)


def test_tangency_detected():
    def field(t, x, y, z):
        return [1.0, 0.0, 0.0]       # no transversal speed at the section

    with pytest.raises(TangencyDetected):
        poincare_return(field, PlaneSection(), [0.5, 0.0, 0.0])


# ---------------------------------------------------------------------------
# scalar hot paths: oracles and bit-identity
# ---------------------------------------------------------------------------

_MUL_TABLE = [(i, j, _JET_INDEX[(a1 + a2, b1 + b2)])
              for i, (a1, b1) in enumerate(_JET_EXPS)
              for j, (a2, b2) in enumerate(_JET_EXPS)
              if (a1 + a2, b1 + b2) in _JET_INDEX]


def _jet_mul_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product by accumulating the exponent table into zeros (the
    oracle of the straight-line Jet2.__mul__)."""
    out = np.zeros(10)
    for i, j, k in _MUL_TABLE:
        out[k] += a[i] * b[j]
    return out


# all-moderate jets make the summation order visible in the rounding; mixed
# jets cover -0.0, inf, nan and the full float range
_special = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
_jet_coeffs = st.one_of(
    st.lists(st.floats(-10.0, 10.0), min_size=10, max_size=10),
    st.lists(st.one_of(st.floats(-10.0, 10.0), _special,
                       st.floats(allow_nan=True, allow_infinity=True)),
             min_size=10, max_size=10))


@settings(max_examples=300, deadline=None)
@given(_jet_coeffs, _jet_coeffs)
def test_jet_product_matches_table_loop_bitwise(a, b):
    assert len(_MUL_TABLE) == 35
    a, b = np.array(a), np.array(b)
    with np.errstate(all="ignore"):
        expected = _jet_mul_loop(a, b)
    got = np.array((Jet2(a) * Jet2(b)).coeffs)
    # IEEE 754 fixes no sign or payload for a NaN result, and compiled C may
    # commute an addition, so a NaN is compared as NaN; every other
    # coefficient, -0.0 and inf included, bit for bit
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()


def _length1_rhs(cyl):
    """The batch right-hand side on length-1 arrays (the oracle of the
    single-seed float path)."""
    def rhs(theta, state):
        dr, dw = cyl(theta, state[:1], state[1:])
        return np.concatenate([np.atleast_1d(dr), np.atleast_1d(dw)])
    return rhs


@settings(max_examples=200, deadline=None)
@given(st.floats(-10.0, 10.0), st.floats(0.01, 3.0), st.floats(-3.0, 3.0))
def test_single_seed_field_matches_length1_arrays_bitwise(theta, r, w):
    sys, fam = validate_hopf_zero(*EXAMPLE), PerturbationFamily.simple(beta=1)
    cyl = RescaledField(sys, fam).rhs("return", -0.2, 0.02)
    dr, dw = cyl(theta, r, w)
    assert type(dr) is float and type(dw) is float
    ref = _length1_rhs(cyl)(theta, np.array([r, w]))
    assert np.array([dr, dw]).tobytes() == ref.tobytes()


@contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("reverse", [False, True])
def test_return_map_at_r_zero_raises_flow_error(reverse):
    """The field is singular on the axis r = 0: the return ends in a typed
    FlowError instead of an endless step-size loop on NaN, and a batch
    prints no numpy warning on the way."""
    _, _, tmap = _setup()
    with _time_limit(20):
        with pytest.raises(NonFiniteState):
            tmap.point([0.0, 5.0], -0.2, 0.02, reverse=reverse)
        with pytest.raises(NonFiniteState):
            map_points(tmap, [[0.0, 5.0], [1.0, 0.0]], -0.2, 0.02, reverse=reverse)


def test_jet_transport_at_r_zero_raises():
    _, _, tmap = _setup()
    with _time_limit(20):
        with pytest.raises(JetTransportUnstable):
            tmap.jet3([0.0, 5.0], -0.2, 0.02)
        with pytest.raises(JetTransportUnstable):
            tmap.jet1([0.0, 5.0], -0.2, 0.02)


def test_cylindrical_field_on_axis_raises():
    """On the axis r = 0 the angular speed (cs*yd - sn*xd)/r is a division by
    zero.  With P(0, 0, z) = z^2 != 0 the numerator is nonzero there, so the
    rewriting r / (cs*yd - sn*xd) would return zeros instead of raising.  The
    return's right-hand side raises NonFiniteState there on floats and on
    jets, and jet3, which runs it on jets, JetTransportUnstable; so does jet3
    off the axis at w = 1e200, where the drift's z^2 overflows."""
    sys = validate_hopf_zero("z^2", "y*z", "-x^2 + x*y + z^2")
    tmap = ThetaReturnMap(sys, PerturbationFamily.simple(beta=1))
    rhs = tmap.field.rhs("return", -0.2, 0.02)
    with pytest.raises(NonFiniteState, match="singular"):
        rhs(1.0, 0.0, 0.5)
    with pytest.raises(NonFiniteState, match="singular"):
        rhs(1.0, Jet2.variable(0, 0.0), Jet2.variable(1, 0.5))
    with pytest.raises(NonFiniteState, match="non-finite"):
        rhs(1.0, Jet2.variable(0, 1.0), Jet2.variable(1, 1e200))
    with _time_limit(20):
        with pytest.raises(JetTransportUnstable, match="singular") as info:
            tmap.jet3([0.0, 0.5], -0.2, 0.02)
        assert isinstance(info.value.__cause__, NonFiniteState)
        with pytest.raises(JetTransportUnstable, match="non-finite"):
            tmap.jet3([1.0, 1e200], -0.2, 0.02)


# ---------------------------------------------------------------------------
# the Dormand-Prince stepper against solve_ivp's DOP853
# ---------------------------------------------------------------------------

TOLERANCES = [(1e-11, 1e-9), (1e-13, 1e-11)]      # certify_torus; branch and jet3


def _assert_takes_dop853_steps(rhs, t_end, y0, atol, rtol):
    """dop853 against solve_ivp's DOP853 on the same float RHS.  Against
    scipy's controller driven by steps that sum in `_dp_step`'s order
    (`scipy_controlled_dop853`): the same RHS evaluation count (the same
    accepted and rejected steps) and the same end state bit for bit.
    Against scipy's own steps: the same end state up to the order of the
    stage sums, which can also flip an accept/reject decision whose error
    norm sits at their rounding level.  Returns the dop853 state."""
    _, ys, (nfev, _) = run_steps(dop853(rhs, 0.0, t_end, y0, atol, rtol))
    y = ys[-1]
    ctl = scipy_controlled_dop853(rhs, t_end, y0, atol, rtol)
    assert ctl.status == 0
    assert nfev == ctl.nfev
    assert np.array(y).tobytes() == ctl.y[:, -1].tobytes()
    ref = solve_ivp(lambda t, s: np.array(rhs(t, *s.tolist())), (0.0, t_end),
                    np.array(y0), method="DOP853", atol=atol, rtol=rtol)
    assert ref.status == 0
    assert np.max(np.abs(np.array(y) - ref.y[:, -1])) <= 1e-13
    return y


def test_tableau_is_scipys_dop853_bitwise():
    """C, A, B, E5 and E3 are the doubles of scipy's DOP853 tableau, and its
    error weights on rhs(t + h, *y_new), which the step leaves out, are 0."""
    from scipy.integrate._ivp import dop853_coefficients as ref
    n = ref.N_STAGES
    A = np.array([row + (0.0,) * (n - len(row)) for row in _A])
    assert np.array(_C).tobytes() == ref.C[:n].tobytes()
    assert A.tobytes() == ref.A[:n, :n].tobytes()
    assert np.array(_B).tobytes() == ref.B.tobytes()
    assert np.array(_E5).tobytes() == ref.E5[:n].tobytes() and ref.E5[n] == 0.0
    assert np.array(_E3).tobytes() == ref.E3[:n].tobytes() and ref.E3[n] == 0.0


_pairs = st.sampled_from([(-0.2, 0.02), (0.05, 0.05), (0.02, 0.05)])


@pytest.mark.parametrize("atol, rtol", TOLERANCES)
@pytest.mark.parametrize("reverse", [False, True])
@settings(max_examples=15, deadline=None)
@given(st.floats(0.3, 2.0), st.floats(-0.6, 0.6), _pairs)
# forward at (1e-13, 1e-11), dop853 takes 518 and 470 RHS evaluations and
# scipy's own steps 506 and 458: at the same initial step their first error
# norms, 1.6468e-8 and scipy's 1.6433e-8, already differ in the stage sums
@example(r=1.578125, w=0.0, pair=(0.02, 0.05))
@example(r=1.9419367547041644, w=0.0, pair=(0.02, 0.05))
def test_single_seed_return_matches_solve_ivp(reverse, atol, rtol, r, w, pair):
    _, _, tmap = _setup(atol=atol, rtol=rtol)
    cyl = tmap.field.rhs("return", *pair)
    y = _assert_takes_dop853_steps(cyl, -PERIOD if reverse else PERIOD, [r, w], atol, rtol)
    got = tmap.point([r, w], *pair, reverse=reverse)
    assert np.array(got).tobytes() == np.array(y).tobytes()
    # several rows map as the rows do one by one
    X0 = np.array([[r, w], [0.8 * r + 0.2, -w], [1.3, 0.1]])
    each = [tmap.point(x, *pair, reverse=reverse) for x in X0]
    assert map_points(tmap, X0, *pair, reverse=reverse).tobytes() == np.array(each).tobytes()


@pytest.mark.parametrize("atol, rtol", [(1e-12, 1e-10)] + TOLERANCES)
def test_integrate_matches_solve_ivp(atol, rtol):
    """`integrate` against solve_ivp's DOP853 on the rescaled example field over
    five periods (an orbit spiralling slowly towards the averaged
    equilibrium, not chaotic): the same number of accepted steps and the end
    state within 1e-13.  The step times themselves drift apart by up to 9e-8:
    the stage sums round differently (numpy's dot against Python floats),
    and the step control amplifies the difference in the error norm."""
    sys, fam, _ = _setup()
    field = RescaledField(sys, fam).rhs("field", -0.2, 0.02)
    x0, span = [1.2, 0.0, 0.1], (0.0, 5 * PERIOD)
    ts, ys, _ = run_steps(integrate(field, x0, span, IntegratorConfig(atol=atol, rtol=rtol)))
    ref = solve_ivp(lambda t, s: field(t, *s), span, np.array(x0), method="DOP853",
                    atol=atol, rtol=rtol)
    assert ref.status == 0
    assert len(ts) == len(ref.t) and ts[-1] == span[1]
    assert np.max(np.abs(np.array(ys[-1]) - ref.y[:, -1])) <= 1e-13


@pytest.mark.parametrize("atol, rtol", TOLERANCES)
@settings(max_examples=3, deadline=None)
@given(st.floats(0.5, 1.8), st.floats(-0.4, 0.4), _pairs)
def test_jet_transport_matches_solve_ivp(atol, rtol, r, w, pair):
    _, _, tmap = _setup(atol=atol, rtol=rtol)
    field = tmap.field.rhs("return", *pair)

    def rhs(theta, *state):
        dr, dw = field(theta, Jet2(state[:10]), Jet2(state[10:]))
        return dr.coeffs + dw.coeffs

    state0 = Jet2.variable(0, r).coeffs + Jet2.variable(1, w).coeffs
    y = _assert_takes_dop853_steps(rhs, PERIOD, list(state0), atol, rtol)
    got = tmap.jet3([r, w], *pair)
    expected = MapJet.from_jets(Jet2(y[:10]), Jet2(y[10:]))
    for name in ("value", "A", "B", "C"):
        assert np.array(getattr(got, name)).tobytes() == np.array(getattr(expected, name)).tobytes()


@settings(max_examples=8, deadline=None)
@given(st.floats(0.5, 1.8), st.floats(-0.4, 0.4), _pairs)
def test_jet1_matches_jet3_and_finite_differences(r, w, pair):
    """The first-order transport (six floats, exact field derivatives in
    real arithmetic) gives the value and Jacobian of jet3's 20-float transport
    and of central differences of the return map, at the tolerances of
    branch and certify's secant.  The two transports take different steps,
    so they agree to the integration's relative tolerance, not to rounding:
    over 30 random points jet1's A was within 5.7e-13 of jet1 at atol 1e-16,
    rtol 3e-14 and jet3's within 1.1e-13."""
    atol, rtol = 1e-13, 1e-11
    _, _, tmap = _setup(atol=atol, rtol=rtol)
    j1, j3 = tmap.jet1([r, w], *pair), tmap.jet3([r, w], *pair)
    assert j1.B is None and j1.C is None
    assert np.max(np.abs(np.subtract(j1.value, j3.value))) <= rtol
    assert np.max(np.abs(np.subtract(j1.A, j3.A))) <= rtol
    fd = jet3_fd(tmap, [r, w], *pair)
    assert np.max(np.abs(j1.value - fd.value)) <= rtol
    assert np.max(np.abs(j1.A - fd.A)) <= 1e-6


@pytest.mark.parametrize("atol, rtol", TOLERANCES)
@settings(max_examples=6, deadline=None)
@given(st.floats(0.5, 1.8), st.floats(-0.4, 0.4), _pairs)
# with its own step control the oracle once took other steps here, off by
# 1.2e-12 in A at atol 1e-11
@example(0.5381467343448577, -0.36165778965041895, (0.05, 0.05))
def test_jet1_matches_complex_step_transport(atol, rtol, r, w, pair):
    """jet1's real-arithmetic kernel against the same transport
    with complex-step field derivatives (tests/oracles.py), replayed on
    jet1's accepted steps: the two RHS differ only in rounding, so value and
    Jacobian agree far below the integration tolerance."""
    _, _, tmap = _setup(atol=atol, rtol=rtol)
    got, ref = tmap.jet1([r, w], *pair), jet1_complex_step(tmap, [r, w], *pair)
    assert np.max(np.abs(got.value - ref.value)) <= 1e-13
    assert np.max(np.abs(got.A - ref.A)) <= 1e-12


@pytest.mark.parametrize("pair", [(-0.2, 0.02), (0.05, 0.05), (0.02, 0.05)])
@pytest.mark.parametrize("atol, rtol", TOLERANCES)
@settings(max_examples=2, deadline=None)
@given(st.floats(0.5, 1.8), st.floats(-0.4, 0.4))
def test_return_and_jet1_within_rtol_of_tight_reference(atol, rtol, pair, r, w):
    """One return and one jet1 at the tolerances of certify and branch lie
    within rtol of solve_ivp's DOP853 on the same right-hand side at atol
    1e-16, rtol 3e-14 (scipy raises an rtol below 2.2e-14 to that value)."""
    _, _, tmap = _setup(atol=atol, rtol=rtol)
    def reference(rhs, y0):
        sol = solve_ivp(lambda t, s: np.array(rhs(t, *s.tolist())), (0.0, PERIOD),
                        np.array(y0), method="DOP853", atol=1e-16, rtol=3e-14)
        assert sol.status == 0
        return sol.y[:, -1]

    ref = reference(tmap.field.rhs("return", *pair), [r, w])
    assert np.max(np.abs(tmap.point([r, w], *pair) - ref)) <= rtol
    ref = reference(tmap.field.rhs("jet1", *pair), [r, 1.0, 0.0, w, 0.0, 1.0])
    jet = tmap.jet1([r, w], *pair)
    got = np.array([jet.value[0], *jet.A[0], jet.value[1], *jet.A[1]])
    assert np.max(np.abs(got - ref)) <= rtol


def _compiled(maps):
    """The components' term maps at one (x, y, z), each compiled alone."""
    components = [compile_terms(terms, "xyz") for terms in maps]
    return lambda x, y, z: tuple(f(x, y, z) for f in components)


# a field with cubic terms in every component and a family with spatial
# terms, so that all nine partials have terms beyond the linear part
RICH = ("x*z - 1/2*y^3", "y*z + x^2*y", "-x^2 + x*y + z^2 + 2*x*z^2")
RICH_FAMILY = ("mu*x + x*z", "mu*y - y^2", "mu*z + eps + x*y*z")


@settings(max_examples=40, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), _pairs)
def test_compiled_partials_match_complex_step(x, y, z, pair):
    """The nine partials of the folded drift (the field less its rotation),
    differentiated exactly before (mu, eps) is folded in, equal complex-step
    derivatives of the compiled drift at the point, to rounding."""
    for system, family in ((EXAMPLE, None), (RICH, RICH_FAMILY)):
        fam = (PerturbationFamily.simple(beta=1) if family is None
               else PerturbationFamily.from_expressions(*family))
        field = RescaledField(validate_hopf_zero(*system), fam)
        partials = _compiled(_fold(field.partial_slices, *pair))(x, y, z)
        drift = _compiled(_fold(field.drift_slices, *pair))
        h = 1e-30
        for j in range(3):
            point = [complex(x), complex(y), complex(z)]
            point[j] += 1j * h
            column = [v.imag / h for v in drift(*point)]
            for i in range(3):
                assert abs(partials[3 * i + j] - column[i]) <= 1e-13 * (1 + abs(column[i]))


@settings(max_examples=100, deadline=None)
@given(st.floats(-10.0, 10.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
       st.floats(-2.0, 2.0), _pairs)
def test_generated_field_kernels_match_compiled_field_bitwise(t, x, y, z, pair):
    """`simulate`'s generated 3D right-hand side is the compiled field bit
    for bit, and the value part of jet1's is the return's on floats: the two
    write the cylindrical quotient out and must stay in step.  The same
    field at another (mu, eps) runs the same compiled code."""
    fam = PerturbationFamily.from_expressions(*RICH_FAMILY)
    field = RescaledField(validate_hopf_zero(*RICH), fam)
    compiled = _compiled(_fold(field.slices, *pair))
    assert (np.array(field.rhs("field", *pair)(t, x, y, z)).tobytes()
            == np.array(compiled(x, y, z)).tobytes())
    r, w = abs(x) + 0.1, z
    want = np.array(field.rhs("return", *pair)(t, r, w)).tobytes()
    dr, _, _, dw, _, _ = field.rhs("jet1", *pair)(t, r, 1.0, 0.0, w, 0.0, 1.0)
    assert np.array([dr, dw]).tobytes() == want
    other = RescaledField(validate_hopf_zero(*RICH), fam)
    for name in ("field", "return", "jet1"):
        assert other.rhs(name, 0.3, 0.07).__code__ is field.rhs(name, *pair).__code__


def test_vanishing_angular_speed_raises_typed_errors():
    """With Q = -x*z the rescaled y' is x (1 - eps z), so at theta = 0 and
    w = 1/eps the angular speed is exactly zero with r = 1: the return ends
    in NonFiniteState and the transports in JetTransportUnstable, with no
    other exception on the way."""
    sys = validate_hopf_zero("0", "-x*z", "-x^2 + x*y + z^2")
    tmap = ThetaReturnMap(sys, PerturbationFamily.simple(beta=1))
    mu, eps = 0.1, 0.5
    assert compile_terms(_fold(tmap.field.slices, mu, eps)[1], "xyz")(1.0, 0.0, 2.0) == 0.0
    with _time_limit(20):
        with pytest.raises(NonFiniteState):
            tmap.point([1.0, 2.0], mu, eps)
        with pytest.raises(NonFiniteState):
            tmap.point([1.0, 2.0], mu, eps, reverse=True)
        with pytest.raises(JetTransportUnstable):
            tmap.jet1([1.0, 2.0], mu, eps)
        with pytest.raises(JetTransportUnstable):
            tmap.jet3([1.0, 2.0], mu, eps)


@pytest.mark.parametrize("atol, rtol", TOLERANCES)
@pytest.mark.parametrize("t_end", [2 * math.pi, -2 * math.pi])
def test_stepper_exponential(t_end, atol, rtol):
    ts, ys, (nfev, _) = run_steps(dop853(lambda t, y: [y], 0.0, t_end, [1.0], atol, rtol))
    y = ys[-1]
    assert ts[0] == 0.0 and ts[-1] == t_end and len(ts) == len(ys)
    assert abs(y[0] - math.exp(t_end)) <= 10 * rtol * math.exp(t_end)
    assert nfev == 2 + 12 * (len(ts) - 1)  # no rejected step on this problem


@pytest.mark.parametrize("atol, rtol", TOLERANCES)
@pytest.mark.parametrize("t_end", [2 * math.pi, -2 * math.pi])
def test_stepper_harmonic_oscillator(t_end, atol, rtol):
    y = run_steps(dop853(lambda t, x, y: [-y, x], 0.0, t_end, [1.0, 0.0], atol, rtol))[1][-1]
    assert max(abs(y[0] - 1.0), abs(y[1])) <= 10 * rtol


def test_stepper_blow_up_raises_step_size_underflow():
    """y' = y^2 from y(0) = 1 blows up at t = 1: the step shrinks to the
    float spacing and the stepper stops, as solve_ivp does with status -1."""
    with _time_limit(20):
        with pytest.raises(StepSizeUnderflow):
            run_steps(dop853(lambda t, y: [y * y], 0.0, 2 * math.pi, [1.0], 1e-11, 1e-9))


def test_step_budget_is_max_steps_attempts(monkeypatch):
    """An integration makes at most MAX_STEPS step attempts: the harmonic
    rotation over one period makes k attempts, 2 + 12 k RHS evaluations.
    With the cap at k it runs as before; at k - 1 it makes k - 1 attempts
    and raises StepBudgetExceeded, which names the cap."""
    calls = [0]

    def rhs(t, x, y):
        calls[0] += 1
        return -y, x

    ts, ys, (nfev, h_next) = run_steps(dop853(rhs, 0.0, 2 * math.pi, [1.0, 0.0], 1e-12, 1e-10))
    k = (nfev - 2) // 12
    assert nfev == 2 + 12 * k and k > 10
    monkeypatch.setattr(flow, "MAX_STEPS", k)
    assert run_steps(dop853(rhs, 0.0, 2 * math.pi, [1.0, 0.0], 1e-12, 1e-10)) == (
        ts, ys, (nfev, h_next))
    monkeypatch.setattr(flow, "MAX_STEPS", k - 1)
    calls[0] = 0
    with pytest.raises(StepBudgetExceeded, match=f"MAX_STEPS = {k - 1} step attempts"):
        run_steps(dop853(rhs, 0.0, 2 * math.pi, [1.0, 0.0], 1e-12, 1e-10))
    assert calls[0] == 2 + 12 * (k - 1)


def test_stepper_zero_span():
    steps = dop853(lambda t, y: [1.0], 0.5, 0.5, [2.0], 1e-12, 1e-10)
    assert run_steps(steps) == ([0.5], [[2.0]], (1, None))


@pytest.mark.parametrize("t_end", [2 * math.pi, -2 * math.pi, 0.0])
def test_stepper_end_state_alone_is_the_last_step(t_end):
    """Drained to its end by a for loop that keeps only the current step,
    as a return and a jet transport drain it, dop853 takes the same steps:
    the last one is the last of all its steps, time and state bit for bit,
    after the same RHS count."""
    calls = [0]

    def rhs(t, x, y):
        calls[0] += 1
        return -y + 0.1 * x * y, x - 0.2 * x * x

    ts, ys, (nfev, _) = run_steps(dop853(rhs, 0.0, t_end, [1.0, 0.0], 1e-12, 1e-10))
    assert len(ts) > 1 or t_end == 0.0
    assert calls[0] == nfev
    calls[0] = 0
    for t, y in dop853(rhs, 0.0, t_end, [1.0, 0.0], 1e-12, 1e-10):
        pass
    assert np.array([t, *y]).tobytes() == np.array([ts[-1], *ys[-1]]).tobytes()
    assert calls[0] == nfev


def _stepper_problem(kind, r, w, pair):
    """(rhs, y0) of one state size: 1, 2 (a forced pendulum), 3 (the
    rescaled field), 6 and 20 (the degree-3 jet transport: the generated
    return right-hand side on Jet2 values), and the generated return (2) and
    jet1 (6) right-hand sides on floats."""
    field = RescaledField(validate_hopf_zero(*EXAMPLE), PerturbationFamily.simple(beta=1))
    if kind == 1:
        return (lambda t, y: [w * math.cos(t) - r * math.sin(y)]), [w]
    if kind == 2:
        return (lambda t, x, v: [v, 0.3 * math.cos(t) - math.sin(x) - 0.1 * v]), [r, w]
    if kind == 3:
        return field.rhs("field", *pair), [r, 0.0, w]
    if kind == "return":
        return field.rhs("return", *pair), [r, w]
    if kind == "jet1":
        return field.rhs("jet1", *pair), [r, 1.0, 0.0, w, 0.0, 1.0]
    if kind == 6:
        def rhs(t, *s):
            return [s[(i + 1) % 6] - s[i - 1] + 0.2 * math.sin(s[i] * s[i - 3])
                    + 0.1 * math.sin(t + i) for i in range(6)]
        return rhs, [r, w, r * w, -r, 0.5, -w]

    cyl = field.rhs("return", *pair)

    def rhs(t, *s):
        dr, dw = cyl(t, Jet2(s[:10]), Jet2(s[10:]))
        return dr.coeffs + dw.coeffs
    return rhs, list(Jet2.variable(0, r).coeffs + Jet2.variable(1, w).coeffs)


@pytest.mark.parametrize("atol, rtol", TOLERANCES)
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("kind", [1, 2, 3, 6, 20, "return", "jet1"])
@settings(max_examples=4, deadline=None)
@given(st.floats(0.5, 1.8), st.floats(-0.4, 0.4), _pairs)
def test_generated_step_matches_comprehension_stepper(kind, reverse, atol, rtol,
                                                      r, w, pair):
    """The generated straight-line step takes the steps of the stepper with
    one list comprehension per stage (tests/oracles.py): the same accepted
    times, the same states bit for bit, the same RHS count and the same
    h_next, from a cold start and from a warm one at the cold run's h_next."""
    rhs, y0 = _stepper_problem(kind, r, w, pair)
    t_end = -PERIOD if reverse else PERIOD
    h0 = None
    for _ in ("cold", "warm"):
        ts, ys, (nfev, h_next) = run_steps(dop853(rhs, 0.0, t_end, y0, atol, rtol, h0))
        ts_ref, ys_ref, ref = dop853_loop(rhs, 0.0, t_end, y0, atol, rtol, h0)
        assert (nfev, h_next) == ref and ts == ts_ref
        assert len(ys) == len(ys_ref)
        for y, y_ref in zip(ys, ys_ref):
            assert np.array(y).tobytes() == np.array(y_ref).tobytes()
        h0 = h_next
    assert h0 is not None


def test_fused_kernels_raise_on_the_axis():
    """With P = z^2 the angular speed divides a nonzero numerator by r = 0 on
    the axis.  A return from it raises NonFiniteState and jet1
    JetTransportUnstable, with the messages of the quotient's own raise;
    the step driving the generated right-hand sides raises them as well
    where a stage lands on the axis, and where the drift is not finite."""
    sys = validate_hopf_zero("z^2", "y*z", "-x^2 + x*y + z^2")
    tmap = ThetaReturnMap(sys, PerturbationFamily.simple(beta=1))
    cyl, jet1 = (tmap.field.rhs(name, -0.2, 0.02) for name in ("return", "jet1"))
    with pytest.raises(NonFiniteState, match=r"^return-map field singular at theta=0\.0$"):
        tmap.point([0.0, 0.5], -0.2, 0.02)
    with pytest.raises(JetTransportUnstable, match=r"^jet field singular at theta=0\.0$"):
        tmap.jet1([0.0, 0.5], -0.2, 0.02)
    # one step from t = 1 with k0 = 0: its first stage is at the state, on
    # the axis, or off it at w = 1e200, where the drift's z^2 overflows
    theta = 1.0 + _C[1] * 0.1
    cases = (
        (cyl, [0.0, 0.5], NonFiniteState, "return-map field singular"),
        (jet1, [0.0, 1.0, 0.0, 0.5, 0.0, 1.0],
         JetTransportUnstable, "jet field singular"),
        (cyl, [1.0, 1e200], NonFiniteState, "return-map field non-finite"),
        (jet1, [1.0, 1.0, 0.0, 1e200, 0.0, 1.0],
         JetTransportUnstable, "jet field non-finite"),
    )
    for rhs, y, error, message in cases:
        n = len(y)
        with pytest.raises(error, match=f"^{re.escape(f'{message} at theta={theta}')}$"):
            _dp_step(n)(rhs, 1.0, 0.1, y, [0.0] * n, 1e-11, 1e-9)


def test_warm_start_takes_its_first_step_and_the_same_budget(monkeypatch):
    """A warm start h0 replaces `_initial_step` and its RHS evaluation: the
    first step is h0 (accepted here), k attempts cost 1 + 12 k evaluations,
    and MAX_STEPS caps the attempts as it caps a cold start's."""
    calls = [0]

    def rhs(t, x, y):
        calls[0] += 1
        return -y, x

    _, _, (_, h0) = run_steps(dop853(rhs, 0.0, 2 * math.pi, [1.0, 0.0], 1e-12, 1e-10))
    assert 0.0 < h0 < 2 * math.pi
    ts, ys, (nfev, h_next) = run_steps(
        dop853(rhs, 0.0, 2 * math.pi, [1.0, 0.0], 1e-12, 1e-10, h0))
    assert ts[1] == h0
    k = (nfev - 1) // 12
    assert nfev == 1 + 12 * k and k > 10
    monkeypatch.setattr(flow, "MAX_STEPS", k)
    assert run_steps(dop853(rhs, 0.0, 2 * math.pi, [1.0, 0.0], 1e-12, 1e-10, h0)) == (
        ts, ys, (nfev, h_next))
    monkeypatch.setattr(flow, "MAX_STEPS", k - 1)
    calls[0] = 0
    with pytest.raises(StepBudgetExceeded, match=f"MAX_STEPS = {k - 1} step attempts"):
        run_steps(dop853(rhs, 0.0, 2 * math.pi, [1.0, 0.0], 1e-12, 1e-10, h0))
    assert calls[0] == 1 + 12 * (k - 1)
