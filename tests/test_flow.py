import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from torusforge.averaging import PERIOD, melnikov_pair, to_standard_form
from torusforge.criteria import PerturbationFamily, validate_hopf_zero
from torusforge.fieldexpr import compile_terms
from torusforge.flow import (
    _JET_EXPS, _JET_INDEX, IntegratorConfig, Jet2, JetTransportUnstable, MapJet,
    NonFiniteState, RescaledField, StepSizeUnderflow, ThetaReturnMap, Trajectory,
    dopri45, integrate,
)

from oracles import (
    NoReturnWithinHorizon, PlaneSection, TangencyDetected, cylindrical_jacobian,
    dopri45_loop, jet1_complex_step, jet3_fd, jet_apply, jet_max_asymmetry,
    poincare_return, variational_jacobian,
)

EXAMPLE = ("0", "y*z", "-x^2 + x*y + z^2")


def _setup(atol=1e-12, rtol=1e-10):
    sys = validate_hopf_zero(*EXAMPLE)
    fam = PerturbationFamily.simple(beta=1)
    return sys, fam, ThetaReturnMap(sys, fam, IntegratorConfig(atol=atol, rtol=rtol))


def test_harmonic_rotation_period():
    traj = integrate(lambda t, s: [-s[1], s[0]], [1.0, 0.0], (0.0, 2 * math.pi))
    assert np.max(np.abs(traj.states[-1] - [1.0, 0.0])) <= 1e-10


def test_invariant_plane_z_conserved():
    def field(t, s):
        return [-s[1] + s[2] * 0.0, s[0], 0.0]
    traj = integrate(field, [1.0, 0.0, 0.37], (0.0, 20.0))
    assert np.max(np.abs(traj.states[:, 2] - 0.37)) <= 1e-12


def test_integrator_order_five():
    """The step control of an order-5 pair with an order-4 error estimate
    keeps the local error ~ h^5 at the tolerance, so the step count grows
    like tol^(-1/5) on a smooth problem; the end error stays within 100 tol."""
    def field(t, s):
        return [-s[1] + 0.1 * s[0] * s[1], s[0] - 0.05 * s[0] ** 2]

    tols = [1e-6, 1e-8, 1e-10, 1e-12]
    ref = integrate(field, [1.0, 0.2], (0.0, 20.0),
                    IntegratorConfig(atol=1e-14, rtol=1e-14)).states[-1]
    counts = []
    for tol in tols:
        traj = integrate(field, [1.0, 0.2], (0.0, 20.0), IntegratorConfig(atol=tol, rtol=tol))
        counts.append(len(traj.t) - 1)
        assert np.max(np.abs(traj.states[-1] - ref)) <= 100 * tol
    slopes = [math.log(counts[i + 1] / counts[i]) / math.log(tols[i] / tols[i + 1])
              for i in range(len(tols) - 1)]
    assert all(abs(s - 0.2) <= 0.03 for s in slopes), (counts, slopes)


def test_theta_return_identity_at_eps_zero():
    _, _, tmap = _setup()
    x0 = np.array([1.3, -0.2])
    assert np.max(np.abs(tmap.point(x0, 0.1, 0.0) - x0)) == 0.0


def test_plane_section_circular_orbit():
    sys, fam, _ = _setup()
    field = RescaledField(sys, fam).field3(0.0, 0.0)
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
        mapped = tmap.points(grid, mu, eps)
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

    cyl = field.bind(mu, eps).cylindrical

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
    assert a.tobytes() == b.tobytes()


def test_trajectory_csv(tmp_path):
    traj = integrate(lambda t, s: [-s[1], s[0]], [1.0, 0.0], (0.0, 1.0))
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,y"
    assert len(lines) == len(traj.t) + 1


@pytest.mark.parametrize("dim", [2, 3])
def test_trajectory_csv_bytes_match_csv_module(tmp_path, dim):
    """write_csv writes the bytes of csv.writer on the same rows, signed
    zero, the smallest subnormal and large exponents included."""
    import csv
    values = [-0.0, 5e-324, 1e300, -1e300, 0.1, -2.5e-17, 1.0 / 3.0]
    t = np.array([0.0, 5e-324, 0.1, 1.0 / 3.0, 1e300])
    states = np.array([[values[(i + j) % len(values)] for j in range(dim)]
                       for i in range(len(t))])
    path = tmp_path / "traj.csv"
    Trajectory(t=t, states=states).write_csv(path)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", *"xyz"[:dim]])
        writer.writerows([ti, *row] for ti, row in zip(t.tolist(), states.tolist()))
    assert path.read_bytes() == ref.read_bytes()
    assert b"-0.0" in ref.read_bytes() and b"5e-324" in ref.read_bytes()


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


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(atol=0.0)


def test_no_return_within_horizon():
    def field(t, s):
        return [0.0, 1.0, 0.0]       # y increases forever after the start

    with pytest.raises(NoReturnWithinHorizon):
        poincare_return(field, PlaneSection(), [0.5, 0.0, 0.0], horizon=20.0)


def test_tangency_detected():
    def field(t, s):
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
    cyl = RescaledField(sys, fam).bind(-0.2, 0.02).cylindrical
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
    FlowError instead of an endless RK45 step-size loop on NaN, and a batch
    prints no numpy warning on the way."""
    _, _, tmap = _setup()
    with _time_limit(20):
        with pytest.raises(NonFiniteState):
            tmap.point([0.0, 5.0], -0.2, 0.02, reverse=reverse)
        with pytest.raises(NonFiniteState):
            tmap.points([[0.0, 5.0], [1.0, 0.0]], -0.2, 0.02, reverse=reverse)


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
    rewriting r / (cs*yd - sn*xd) would return zeros instead of raising."""
    sys = validate_hopf_zero("z^2", "y*z", "-x^2 + x*y + z^2")
    cyl = RescaledField(sys, PerturbationFamily.simple(beta=1)).bind(-0.2, 0.02).cylindrical
    with pytest.raises(ZeroDivisionError):
        cyl(1.0, 0.0, 0.5)
    with pytest.raises(ZeroDivisionError):
        cyl(1.0, Jet2.variable(0, 0.0), Jet2.variable(1, 0.5))


# ---------------------------------------------------------------------------
# the Dormand-Prince stepper against solve_ivp's RK45
# ---------------------------------------------------------------------------

TOLERANCES = [(1e-11, 1e-9), (1e-13, 1e-11)]      # certify_torus; branch and jet3


def _assert_takes_rk45_steps(rhs, t_end, y0, atol, rtol):
    """dopri45 against solve_ivp's RK45 on the same float RHS: the same RHS
    evaluation count (the same accepted and rejected steps) and the same end
    state up to the order of the stage sums.  Returns the dopri45 state."""
    _, ys, nfev = dopri45(rhs, 0.0, t_end, y0, atol, rtol)
    y = ys[-1]
    ref = solve_ivp(lambda t, s: np.array(rhs(t, s.tolist())), (0.0, t_end),
                    np.array(y0), method="RK45", atol=atol, rtol=rtol)
    assert ref.status == 0
    assert nfev == ref.nfev
    assert np.max(np.abs(np.array(y) - ref.y[:, -1])) <= 1e-13
    return y


_pairs = st.sampled_from([(-0.2, 0.02), (0.05, 0.05), (0.02, 0.05)])


@pytest.mark.parametrize("atol, rtol", TOLERANCES)
@pytest.mark.parametrize("reverse", [False, True])
@settings(max_examples=15, deadline=None)
@given(st.floats(0.3, 2.0), st.floats(-0.6, 0.6), _pairs)
def test_single_seed_return_matches_solve_ivp(reverse, atol, rtol, r, w, pair):
    _, _, tmap = _setup(atol=atol, rtol=rtol)
    cyl = tmap.field.bind(*pair).cylindrical
    y = _assert_takes_rk45_steps(lambda t, s: cyl(t, s[0], s[1]),
                                 -PERIOD if reverse else PERIOD, [r, w], atol, rtol)
    got = tmap.point([r, w], *pair, reverse=reverse)
    assert got.tobytes() == np.array(y).tobytes()
    # several rows map as the rows do one by one
    X0 = np.array([[r, w], [0.8 * r + 0.2, -w], [1.3, 0.1]])
    each = [tmap.point(x, *pair, reverse=reverse) for x in X0]
    assert tmap.points(X0, *pair, reverse=reverse).tobytes() == np.array(each).tobytes()


@pytest.mark.parametrize("atol, rtol", [(1e-12, 1e-10)] + TOLERANCES)
def test_integrate_matches_solve_ivp(atol, rtol):
    """`integrate` against solve_ivp's RK45 on the rescaled example field over
    five periods (an orbit spiralling slowly towards the averaged
    equilibrium, not chaotic): the same number of accepted steps and the end
    state within 1e-13.  The step times themselves drift apart by up to 3e-5:
    the first step is so short that its error estimate is dominated by
    rounding, and the stage sums round differently (numpy's dot against
    Python floats)."""
    sys, fam, _ = _setup()
    field = RescaledField(sys, fam).field3(-0.2, 0.02)
    x0, span = [1.2, 0.0, 0.1], (0.0, 5 * PERIOD)
    traj = integrate(field, x0, span, IntegratorConfig(atol=atol, rtol=rtol))
    ref = solve_ivp(field, span, np.array(x0), method="RK45", atol=atol, rtol=rtol)
    assert ref.status == 0
    assert len(traj.t) == len(ref.t) and traj.t[-1] == span[1]
    assert np.max(np.abs(traj.states[-1] - ref.y[:, -1])) <= 1e-13


@pytest.mark.parametrize("atol, rtol", TOLERANCES)
@settings(max_examples=3, deadline=None)
@given(st.floats(0.5, 1.8), st.floats(-0.4, 0.4), _pairs)
def test_jet_transport_matches_solve_ivp(atol, rtol, r, w, pair):
    _, _, tmap = _setup(atol=atol, rtol=rtol)
    cyl = tmap.field.bind(*pair).cylindrical

    def rhs(theta, state):
        dr, dw = cyl(theta, Jet2(state[:10]), Jet2(state[10:]))
        return dr.coeffs + dw.coeffs

    state0 = Jet2.variable(0, r).coeffs + Jet2.variable(1, w).coeffs
    y = _assert_takes_rk45_steps(rhs, PERIOD, list(state0), atol, rtol)
    got = tmap.jet3([r, w], *pair)
    expected = MapJet.from_jets(Jet2(y[:10]), Jet2(y[10:]))
    for name in ("value", "A", "B", "C"):
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()


@settings(max_examples=8, deadline=None)
@given(st.floats(0.5, 1.8), st.floats(-0.4, 0.4), _pairs)
def test_jet1_matches_jet3_and_finite_differences(r, w, pair):
    """The first-order transport (six floats, exact field derivatives in
    real arithmetic) gives the value and Jacobian of jet3's 20-float transport
    and of central differences of the return map, at the tolerances of
    branch and certify's secant.  The two transports take different steps,
    so they agree to the integration's relative tolerance, not to rounding:
    over 30 random points jet1's A was within 1.3e-12 of a 1e-15-tolerance
    reference and jet3's within 2.7e-13."""
    atol, rtol = 1e-13, 1e-11
    _, _, tmap = _setup(atol=atol, rtol=rtol)
    j1, j3 = tmap.jet1([r, w], *pair), tmap.jet3([r, w], *pair)
    assert j1.B is None and j1.C is None
    assert np.max(np.abs(j1.value - j3.value)) <= rtol
    assert np.max(np.abs(j1.A - j3.A)) <= rtol
    fd = jet3_fd(tmap, [r, w], *pair)
    assert np.max(np.abs(j1.value - fd.value)) <= rtol
    assert np.max(np.abs(j1.A - fd.A)) <= 1e-6


@pytest.mark.parametrize("atol, rtol", TOLERANCES)
@settings(max_examples=6, deadline=None)
@given(st.floats(0.5, 1.8), st.floats(-0.4, 0.4), _pairs)
def test_jet1_matches_complex_step_transport(atol, rtol, r, w, pair):
    """jet1's real-arithmetic kernel against the same transport
    with complex-step field derivatives (tests/oracles.py): the two RHS
    differ only in rounding, so value and Jacobian agree far below the
    integration tolerance."""
    _, _, tmap = _setup(atol=atol, rtol=rtol)
    got, ref = tmap.jet1([r, w], *pair), jet1_complex_step(tmap, [r, w], *pair)
    assert np.max(np.abs(got.value - ref.value)) <= 1e-13
    assert np.max(np.abs(got.A - ref.A)) <= 1e-12


# a field with cubic terms in every component and a family with spatial
# terms, so that all nine partials have terms beyond the linear part
RICH = ("x*z - 1/2*y^3", "y*z + x^2*y", "-x^2 + x*y + z^2 + 2*x*z^2")
RICH_FAMILY = ("mu*x + x*z", "mu*y - y^2", "mu*z + eps + x*y*z")


@settings(max_examples=40, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), _pairs)
def test_compiled_partials_match_complex_step(x, y, z, pair):
    """The nine partials of the bound field, differentiated exactly before
    (mu, eps) is folded in, equal complex-step derivatives of the compiled
    field at the point, to rounding."""
    for system, family in ((EXAMPLE, None), (RICH, RICH_FAMILY)):
        fam = (PerturbationFamily.simple(beta=1) if family is None
               else PerturbationFamily.from_expressions(*family))
        bound = RescaledField(validate_hopf_zero(*system), fam).bind(*pair)
        partials = compile_terms(bound.partial_terms, "xyz")(x, y, z)
        h = 1e-30
        for j in range(3):
            point = [complex(x), complex(y), complex(z)]
            point[j] += 1j * h
            column = [v.imag / h for v in bound.f(*point)]
            for i in range(3):
                assert abs(partials[3 * i + j] - column[i]) <= 1e-13 * (1 + abs(column[i]))


@settings(max_examples=100, deadline=None)
@given(st.floats(-10.0, 10.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
       st.floats(-2.0, 2.0), _pairs)
def test_generated_field_kernels_match_compiled_field_bitwise(t, x, y, z, pair):
    """`simulate`'s generated 3D right-hand side is the compiled field bit
    for bit, and the return's and the value part of jet1's are `cylindrical`
    on floats: the three write its quotient out and must stay in step."""
    fam = PerturbationFamily.from_expressions(*RICH_FAMILY)
    bound = RescaledField(validate_hopf_zero(*RICH), fam).bind(*pair)
    assert np.array(bound.rhs3(t, [x, y, z])).tobytes() == np.array(bound.f(x, y, z)).tobytes()
    r, w = abs(x) + 0.1, z
    want = np.array(bound.cylindrical(t, r, w)).tobytes()
    assert np.array(bound.return_rhs(t, [r, w])).tobytes() == want
    dr, _, _, dw, _, _ = bound.jet1_rhs(t, [r, 1.0, 0.0, w, 0.0, 1.0])
    assert np.array([dr, dw]).tobytes() == want


def test_vanishing_angular_speed_raises_typed_errors():
    """With Q = -x*z the rescaled y' is x (1 - eps z), so at theta = 0 and
    w = 1/eps the angular speed is exactly zero with r = 1: the return ends
    in NonFiniteState and the transports in JetTransportUnstable, with no
    other exception on the way."""
    sys = validate_hopf_zero("0", "-x*z", "-x^2 + x*y + z^2")
    tmap = ThetaReturnMap(sys, PerturbationFamily.simple(beta=1))
    mu, eps = 0.1, 0.5
    assert tmap.field.bind(mu, eps).f(1.0, 0.0, 2.0)[1] == 0.0
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
    ts, ys, nfev = dopri45(lambda t, s: [s[0]], 0.0, t_end, [1.0], atol, rtol)
    y = ys[-1]
    assert ts[0] == 0.0 and ts[-1] == t_end and len(ts) == len(ys)
    assert abs(y[0] - math.exp(t_end)) <= 10 * rtol * math.exp(t_end)
    assert nfev == 2 + 6 * (len(ts) - 1) # no rejected step on this problem


@pytest.mark.parametrize("atol, rtol", TOLERANCES)
@pytest.mark.parametrize("t_end", [2 * math.pi, -2 * math.pi])
def test_stepper_harmonic_oscillator(t_end, atol, rtol):
    y = dopri45(lambda t, s: [-s[1], s[0]], 0.0, t_end, [1.0, 0.0], atol, rtol)[1][-1]
    assert max(abs(y[0] - 1.0), abs(y[1])) <= 10 * rtol


def test_stepper_blow_up_raises_step_size_underflow():
    """y' = y^2 from y(0) = 1 blows up at t = 1: the step shrinks to the
    float spacing and the stepper stops, as solve_ivp does with status -1."""
    with _time_limit(20):
        with pytest.raises(StepSizeUnderflow):
            dopri45(lambda t, s: [s[0] * s[0]], 0.0, 2 * math.pi, [1.0], 1e-11, 1e-9)


def test_stepper_zero_span():
    assert dopri45(lambda t, s: [1.0], 0.5, 0.5, [2.0], 1e-12, 1e-10) == ([0.5], [[2.0]], 1)


def _stepper_problem(kind, r, w, pair):
    """(rhs, y0) of one state size: 1, 2 (the return map), 3 (the rescaled
    field), 6 and 20 (the degree-3 jet transport)."""
    field = RescaledField(validate_hopf_zero(*EXAMPLE), PerturbationFamily.simple(beta=1))
    cyl = field.bind(*pair).cylindrical
    if kind == 1:
        return (lambda t, s: [w * math.cos(t) - r * math.sin(s[0])]), [w]
    if kind == 2:
        return (lambda t, s: cyl(t, s[0], s[1])), [r, w]
    if kind == 3:
        return field.field3(*pair), [r, 0.0, w]
    if kind == 6:
        def rhs(t, s):
            return [s[(i + 1) % 6] - s[i - 1] + 0.2 * math.sin(s[i] * s[i - 3])
                    + 0.1 * math.sin(t + i) for i in range(6)]
        return rhs, [r, w, r * w, -r, 0.5, -w]

    def rhs(t, s):
        dr, dw = cyl(t, Jet2(s[:10]), Jet2(s[10:]))
        return dr.coeffs + dw.coeffs
    return rhs, list(Jet2.variable(0, r).coeffs + Jet2.variable(1, w).coeffs)


@pytest.mark.parametrize("atol, rtol", TOLERANCES)
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("kind", [1, 2, 3, 6, 20])
@settings(max_examples=4, deadline=None)
@given(st.floats(0.5, 1.8), st.floats(-0.4, 0.4), _pairs)
def test_generated_step_matches_comprehension_stepper(kind, reverse, atol, rtol,
                                                      r, w, pair):
    """The generated straight-line step takes the steps of the stepper with
    one list comprehension per stage (tests/oracles.py): the same accepted
    times, the same states bit for bit and the same RHS count."""
    rhs, y0 = _stepper_problem(kind, r, w, pair)
    t_end = -PERIOD if reverse else PERIOD
    ts, ys, nfev = dopri45(rhs, 0.0, t_end, y0, atol, rtol)
    ts_ref, ys_ref, nfev_ref = dopri45_loop(rhs, 0.0, t_end, y0, atol, rtol)
    assert nfev == nfev_ref and ts == ts_ref
    assert len(ys) == len(ys_ref)
    for y, y_ref in zip(ys, ys_ref):
        assert np.array(y).tobytes() == np.array(y_ref).tobytes()
