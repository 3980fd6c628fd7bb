import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from torusforge.averaging import PERIOD, melnikov_pair, to_standard_form
from torusforge.criteria import PerturbationFamily, validate_hopf_zero
from torusforge.flow import (
    _JET_EXPS, _JET_INDEX, IntegratorConfig, Jet2, JetTransportUnstable,
    NonFiniteState, PlaneSection, RescaledField, ThetaReturnMap,
    integrate, poincare_return, variational_jacobian,
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
    """Self-convergence of the embedded RK pair on a smooth problem."""
    def field(t, s):
        return [-s[1] + 0.1 * s[0] * s[1], s[0] - 0.05 * s[0] ** 2]

    errs = []
    steps = [1e-1, 5e-2, 2.5e-2]
    ref = integrate(field, [1.0, 0.2], (0.0, 2.0),
                    IntegratorConfig(atol=1e-14, rtol=1e-13)).states[-1]
    for h in steps:
        cfg = IntegratorConfig(atol=1e30, rtol=1e30, max_step=h)
        val = integrate(field, [1.0, 0.2], (0.0, 2.0), cfg).states[-1]
        errs.append(np.max(np.abs(val - ref)))
    slopes = [math.log(errs[i] / errs[i + 1]) / math.log(steps[i] / steps[i + 1])
              for i in range(2)]
    assert all(abs(s - 5.0) <= 0.5 for s in slopes), slopes


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

    def rhs(theta, state):
        dr, dw = field.cylindrical(theta, state[0], state[1], mu, eps)
        return np.array([dr, dw])

    def drhs(theta, state):
        return field.cylindrical_jacobian(theta, state[0], state[1], mu, eps)

    M = variational_jacobian(rhs, drhs, x0, (0.0, 2 * math.pi),
                             IntegratorConfig(atol=1e-13, rtol=1e-12))
    assert np.max(np.abs(M - jet.A)) <= 1e-9


def test_jet_vs_finite_differences():
    _, _, tmap = _setup()
    mu, eps = 0.03, 0.02
    x0 = np.array([1.35, -0.05])
    jt = tmap.jet3(x0, mu, eps)
    fd = tmap.jet3_fd(x0, mu, eps)
    # integrator noise ~1e-12 in the map amplifies by 1/h^2 and 1/h^3 in the
    # difference stencils (h = eps_mach^(1/4))
    assert np.max(np.abs(jt.A - fd.A)) <= 1e-6
    assert np.max(np.abs(jt.B - fd.B)) <= 1e-4
    assert np.max(np.abs(jt.C - fd.C)) <= 5e-3
    assert jt.max_asymmetry() == 0.0
    assert fd.max_asymmetry() == 0.0


def test_jet_apply_predicts_map():
    _, _, tmap = _setup()
    mu, eps = 0.05, 0.02
    x0 = np.array([1.4, 0.0])
    jet = tmap.jet3(x0, mu, eps)
    h = np.array([3e-3, -2e-3])
    predicted = jet.apply(h)
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
    traj.write_csv(path, header=("t", "x", "y"))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,y"
    assert len(lines) == len(traj.t) + 1


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
    from torusforge.flow import NoReturnWithinHorizon

    def field(t, s):
        return [0.0, 1.0, 0.0]       # y increases forever after the start

    with pytest.raises(NoReturnWithinHorizon):
        poincare_return(field, PlaneSection(), [0.5, 0.0, 0.0], horizon=20.0)


def test_tangency_detected():
    from torusforge.flow import TangencyDetected

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
    got = (Jet2(a) * Jet2(b)).coeffs
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


@pytest.mark.parametrize("reverse", [False, True])
def test_single_seed_return_matches_length1_arrays_bitwise(reverse):
    _, _, tmap = _setup(atol=1e-13, rtol=1e-11)
    x0, mu, eps = np.array([1.1, 0.3]), -0.2, 0.02
    ref = solve_ivp(_length1_rhs(tmap.field.bind(mu, eps).cylindrical),
                    (0.0, -PERIOD if reverse else PERIOD), x0, method="RK45",
                    rtol=tmap.cfg.rtol, atol=tmap.cfg.atol, dense_output=False)
    assert tmap.point(x0, mu, eps, reverse=reverse).tobytes() == ref.y[:, -1].tobytes()


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


@pytest.mark.parametrize("reverse", [False, True])
def test_return_map_at_r_zero_raises_flow_error(reverse):
    """The field is singular on the axis r = 0: the return ends in a typed
    FlowError instead of an endless RK45 step-size loop on NaN."""
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
