import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import torusforge.criteria
import torusforge.fieldexpr
import torusforge.lift
from torusforge.fieldexpr import Poly, format_poly, parse_field, partial
from torusforge.criteria import FloatRangeExceeded
from torusforge.lift import (
    Ball, LiftError, NoPositiveOmegaFound, OriginJet, ZeroComponentAtP,
    build_lift_family, find_separating_plane, omega_coefficients,
    origin_jet, printed_A_limit, translate_to_origin, tune_lift_parameters,
)

from oracles import (
    LIFT_DELTA_GRID, LIFT_L_GRID, grid_lift_parameters, lift_normalized_whole, lift_omega,
    omega_of_lift, omega_of_lift_family, poly_eval,
)
from test_averaging import _benchmark_inputs

SPEC_SEED = ("1 + x", "1/10*x + y", "0")


def _polys(exprs):
    return tuple(parse_field(e) for e in exprs)


def test_separating_plane_spec_example():
    plane = find_separating_plane(SPEC_SEED, Ball((0.0, 0.0, 0.0), 1.0))
    x_star = float(plane.point[0])
    # first half-step power of two past the arcsin(1/x) < arctan(...) threshold
    assert x_star == pytest.approx(2 ** 3.5, rel=1e-12)
    assert plane.plane_distance > 1.0
    # the field vector (fx, gx, .) at the point lies in the plane, exactly
    px = plane.point[0]
    fx, gx = (poly_eval(p, x=px, y=Q(0), z=Q(0), mu=Q(0), eps=Q(0))
              for p in _polys(SPEC_SEED)[:2])
    a0, b0, c0 = plane.coefficients
    assert (a0, b0, c0) == (gx, -fx, 0) and a0 * fx + b0 * gx == 0
    assert plane.jitter_magnitude == 0.0


def test_separating_plane_skips_singular_candidate():
    # field vanishing identically on the x-axis at the spec-example geometry
    # forces the x-scan to keep going (regular-point requirement)
    plane = find_separating_plane(
        ("(1 + x)*(1 - 1/100000000*x^2)", "1/10*x + y", "0"),
        Ball((0.0, 0.0, 0.0), 1.0))
    # x = 10000 is a root of f: it cannot be the accepted point
    assert float(plane.point[0]) != pytest.approx(1e4)
    assert plane.plane_distance > 1.0
    # g has no x^3 term, so the seed is jittered first, and the scan accepts
    # x = 2^3.5 as for the spec seed (1e4 is no candidate); the plane is pinned
    assert plane.point == (Q(7632611706039, 674633936938), Q(0), Q(0))
    assert plane.coefficients == (
        Q(2675132805497861212973710372098318024956523,
          2361898337365079712965180902517274400000000),
        Q(-3781479825713753376198338663704994134853753161,
          307046783857460362685473517327245672000000000),
        Q(0))
    assert plane.jitter_magnitude == 1e-06
    # X1 = x - 4 vanishes at the candidate x = 2 * 2^(2/2) = 4, whose
    # vertical plane would pass the distance test: the scan goes on to 4 sqrt(2)
    plane = find_separating_plane(("x - 4", "1/100*x + y + 1", "0"),
                                  Ball((0.0, 0.0, 0.0), 2.0))
    assert plane.point == (Q(4037670577591, 713766061403), Q(0), Q(0))
    assert plane.coefficients == (Q(75414276717891, 71376606140300),
                                  Q(-1182606331979, 713766061403), Q(0))
    assert plane.jitter_magnitude == 0.0


def test_common_factor_triggers_jitter():
    """The jitter is drawn from `random.Random(0)`, so the plane is a
    function of the field and the ball."""
    plane = find_separating_plane(("1 + x + y", "2 + 2*x + 2*y", "z"),
                                  Ball((0.0, 0.0, 0.0), 1.0))
    assert plane.jitter_magnitude > 0.0
    assert plane.plane_distance > 1.0
    assert plane.point == (Q(898735282112, 635501812473), Q(0), Q(0))
    assert plane.coefficients == (Q(511412581254611014163, 105916968745500000000),
                                  Q(-383559621876311134697, 158875453118250000000),
                                  Q(0))
    assert plane.jitter_magnitude == 1e-06


def test_shallow_far_line_finds_a_plane_past_two_to_the_20():
    """Far out on the x1-axis the field line's slope tends to g_2/f_2 =
    2^-22, below the ball's angle asin(2^-20) at x = 2^20, where a scan
    that stopped at k = 40 ended in NoSeparatingXFound: the scan runs on
    while x is a finite float and accepts x = 2^22.5."""
    plane = find_separating_plane(("1 + x^2", "1/4194304*x^2 + y", "0"),
                                  Ball((0.0, 0.0, 0.0), 1.0))
    assert plane.point == (Q(6369051672525773, 1073741824), Q(0), Q(0))
    assert float(plane.point[0]) == pytest.approx(2 ** 22.5, rel=1e-12)
    assert plane.plane_distance > 1.0 and plane.jitter_magnitude == 0.0


def test_build_lift_char_poly_exact():
    rng = random.Random(11)
    polys = _polys(("2 + x + 1/2*z + x^2", "1 - y + 2*z + y^2", "3 + x + z^2"))
    for _ in range(5):
        L = Q(rng.randint(1, 9), rng.randint(1, 4))
        delta = Q(rng.randint(1, 9), rng.randint(1, 9))
        fam = build_lift_family(polys, L, delta)
        assert fam.char_poly_ok            # -lambda^3 - delta lambda, exact
        assert fam.degree == 3             # degree m+1 for the degree-2 seed


def test_delta_zero_factorization():
    polys = _polys(("2 + x + 1/2*z + x^2", "1 - y + 2*z + y^2", "3 + x + z^2"))
    fam = build_lift_family(polys, Q(3), Q(0))
    lin = Poly.variable("x").scale(fam.a0) + Poly.variable("y").scale(fam.b0)
    for i in range(3):
        assert fam.lifted[i] == lin * polys[i]
    # on the degenerate plane a0 x + b0 y = 0 the lift vanishes identically:
    # substitute x = -b0 t, y = a0 t and check the factor annihilates
    t = Poly.variable("mu")    # reuse a spare variable as the line parameter
    sub = {"x": t.scale(-fam.b0), "y": t.scale(fam.a0)}
    assert not (lin.substitute(sub)).terms


def test_normalized_linear_part_exact():
    polys = _polys(("2 + x + 1/2*z + x^2", "1 - y + 2*z + y^2", "3 + x + z^2"))
    fam = build_lift_family(polys, Q(1), Q(1, 4))    # delta a rational square
    assert fam.sqrt_delta == Q(1, 2)
    assert fam.system is not None                    # conjugation is exact
    assert fam.system.omega > 0


def test_zero_component_raises():
    polys = _polys(("x + x^2", "1 + y", "1 + z"))
    with pytest.raises(ZeroComponentAtP):
        build_lift_family(polys, Q(1), Q(1, 4))


def test_tuning_limit_matches_printed_formula():
    """On three drawn seeds, each one that tunes passes every closed-form
    cross-check.  A draw is skipped only on NoPositiveOmegaFound (no power
    of two gives A(L) > 0), not on any LiftError: the cross-checks raise
    LiftError subclasses, which must fail the test.  At least one draw
    tunes."""
    rng = random.Random(2024)
    tuned = 0
    for _ in range(3):
        def rc(lo=-3, hi=3):
            v = 0
            while v == 0:
                v = Q(rng.randint(lo, hi), rng.randint(1, 3))
            return v
        exprs = (f"{rc(1,3)} + {rc()}*x + {rc()}*z + {rc()}*x^2 + {rc()}*y*z",
                 f"{rc(1,3)} + {rc()}*y + {rc()}*z + {rc()}*y^2",
                 f"{rc(1,3)} + {rc()}*x + {rc()}*z^2")
        polys = _polys([e.replace("+ -", "- ") for e in exprs])
        try:
            tuning = tune_lift_parameters(polys)
        except NoPositiveOmegaFound:
            continue
        tuned += 1
        assert tuning.A_limit == tuning.A_limit_printed      # exact rationals
        # Omega(L*, delta) is its quadratic rows' value, exactly, on squares
        rows = omega_coefficients(origin_jet(polys))
        for delta in (Q(1, 4 ** 6), Q(1, 4 ** 5), Q(1, 4 ** 4)):
            quadratic = sum(sum(c * tuning.L_star ** i for i, c in enumerate(row)) * delta ** j
                            for j, row in enumerate(rows))
            assert build_lift_family(polys, tuning.L_star, delta).system.omega == quadratic
        assert tuning.family.char_poly_ok
        assert tuning.family.system is not None     # the linear part is exact
        assert abs(tuning.report.base.ell1) > 0
    assert tuned >= 1


def test_tuning_degenerate_seed_raises():
    # P, Q independent of z: K = P0 Qz - Pz Q0 = 0, and every coefficient of
    # Omega carries a factor K, so Omega(L, delta) = 0 for every L and delta
    # and no power of two gives A(L) > 0
    polys = _polys(("1 + x + x^2", "1 + y + y^2", "1 + z + z^2"))
    jet = origin_jet(polys)
    assert printed_A_limit(jet) == 0
    assert all(c == 0 for row in omega_coefficients(jet) for c in row)
    with pytest.raises(NoPositiveOmegaFound):
        tune_lift_parameters(polys)


def test_lifted_system_grammar_roundtrip():
    polys = _polys(("2 + x + 1/2*z + x^2", "1 - y + 2*z + y^2", "3 + x + z^2"))
    fam = build_lift_family(polys, Q(1), Q(1, 4))
    for p in list(fam.lifted) + list(fam.normalized):
        text = format_poly(p)
        assert parse_field(text) == p


def test_translate_to_origin():
    polys = _polys(("1 + x", "1/10*x + y", "0"))
    shifted = translate_to_origin(polys, (Q(8), Q(0), Q(0)))
    assert poly_eval(shifted[0], x=Q(0), y=Q(0), z=Q(0), mu=Q(0), eps=Q(0)) == 9
    assert poly_eval(shifted[1], x=Q(0), y=Q(0), z=Q(0), mu=Q(0), eps=Q(0)) == Q(8, 10)


def test_tuning_never_parses(monkeypatch):
    """Lift works on Polys throughout: tuning a Poly seed parses no text."""
    calls = []

    def counting_parse(source):
        calls.append(source)
        return parse_field(source)
    monkeypatch.setattr(torusforge.fieldexpr, "parse_field", counting_parse)
    polys = tuple(parse_field(e)
                  for e in ("2 + x + 1/2*z + x^2", "1 - y + 2*z + y^2", "3 + x + z^2"))
    tuning = tune_lift_parameters(polys)
    assert tuning.report.applicable
    assert calls == []


def test_omega_reads_only_the_seed_1_jet():
    """Omega of the normalized lift depends on the seed only through its
    part of degree <= 1, which is all the oracle lifts, and the closed form
    reads it off the seed's value and gradient at the point."""
    for exprs in (("2 + x + 1/2*z + x^2", "1 - y + 2*z + y^2", "3 + x + z^2"),
                  ("1 + x*z - 2*y + x^2*y", "-3 + z + y*z^2", "2 - x + 5*z + x*y*z")):
        polys = _polys(exprs)
        jet = origin_jet(polys)
        for L in (Q(1), Q(2), Q(-3, 2), Q(16)):
            for delta in (Q(1, 4), Q(1, 16), Q(9)):
                full = build_lift_family(polys, L, delta).system
                assert full is not None
                assert omega_of_lift_family(polys, L, delta) == full.omega
                assert omega_of_lift(jet, L, delta) == full.omega


_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)
_nonzero = _rationals.filter(bool)
_triples = st.tuples(_rationals, _rationals, _rationals)
_QUADRATIC = [(i, j, 2 - i - j, 0, 0) for i in range(3) for j in range(3 - i)]


@settings(max_examples=80, deadline=None)
@given(value=st.tuples(_nonzero, _nonzero, _rationals),
       gradient=st.tuples(_triples, _triples, _triples),
       quadratic=st.lists(st.tuples(st.integers(0, 2), st.sampled_from(_QUADRATIC),
                                    _nonzero), max_size=4),
       L=st.fractions(min_value=-20, max_value=20, max_denominator=8),
       sqrt_delta=st.fractions(min_value=Q(1, 8), max_value=4, max_denominator=8))
def test_omega_closed_form_equals_lift_family(value, gradient, quadratic, L, sqrt_delta):
    """For any seed with P(0), Q(0) != 0, the closed form is exactly Omega
    of the polynomial lift, at any rational L and square delta; origin_jet
    reads the value and gradient past the seed's quadratic terms."""
    terms = [{(0, 0, 0, 0, 0): v} for v in value]
    for comp, grad in zip(terms, gradient):
        comp.update({(1, 0, 0, 0, 0): grad[0], (0, 1, 0, 0, 0): grad[1],
                     (0, 0, 1, 0, 0): grad[2]})
    for idx, mono, c in quadratic:
        terms[idx][mono] = c
    seed = tuple(Poly({m: c for m, c in t.items() if c}) for t in terms)
    jet = origin_jet(seed)
    assert jet == OriginJet(value, gradient)
    delta = sqrt_delta * sqrt_delta
    assert omega_of_lift(jet, L, delta) == omega_of_lift_family(seed, L, delta)


_SEED_MONOMIALS = [(i, j, k, 0, 0) for i in range(4) for j in range(4 - i)
                   for k in range(4 - i - j)]


@settings(max_examples=40, deadline=None)
@given(value=st.tuples(_nonzero, _nonzero, _rationals),
       terms=st.lists(st.tuples(st.integers(0, 2), st.sampled_from(_SEED_MONOMIALS[1:]),
                                _nonzero), max_size=8),
       L=st.fractions(min_value=-20, max_value=20, max_denominator=8),
       sqrt_delta=st.fractions(min_value=Q(1, 8), max_value=4, max_denominator=8))
def test_lift_composes_each_factor_as_the_whole_product(value, terms, L, sqrt_delta):
    """The lift substitutes its normalizing M into lin_i and seed_i apart
    and multiplies: the normalized system is the Poly that substituting M
    into each whole product lin_i * seed_i gives (tests/oracles.py), on
    seeds of degree up to 3."""
    comps = [{(0, 0, 0, 0, 0): v} for v in value]
    for idx, mono, c in terms:
        comps[idx][mono] = c
    seed = tuple(Poly({m: c for m, c in t.items() if c}) for t in comps)
    fam = build_lift_family(seed, L, sqrt_delta * sqrt_delta)
    whole = lift_normalized_whole(seed, L, sqrt_delta * sqrt_delta)
    assert fam.normalized == whole


def test_omega_closed_form_is_bidegree_4_2_with_printed_limit():
    """On a symbolic 1-jet the reference Omega(L, delta) of the lift's
    normalization is a polynomial of degree 4 in L and 2 in delta with the
    8 monomials of `omega_coefficients` and no other, each coefficient equal
    to its entry, and its L^2 delta^0 coefficient is the printed limit of
    A(L)/L^2."""
    sp = pytest.importorskip("sympy")
    P0, Q0 = sp.symbols("P0 Q0", nonzero=True)
    R0 = sp.Symbol("R0")
    grads = sp.symbols("Px Py Pz Qx Qy Qz Rx Ry Rz")
    L = sp.Symbol("L")
    sd = sp.Symbol("s", positive=True)                      # sqrt(delta)
    jet = OriginJet((P0, Q0, R0), (grads[0:3], grads[3:6], grads[6:9]))
    num, den = sp.fraction(sp.cancel(sp.together(lift_omega(jet, L, sd ** 2, sd))))
    assert not den.has(L) and not den.has(sd)
    terms = sp.Poly(num, L, sd).terms()
    assert all(k % 2 == 0 for (_, k), _ in terms)           # a polynomial in delta
    reference = {(i, k // 2): c / den for (i, k), c in terms}
    closed = {(i, j): c for j, row in enumerate(omega_coefficients(jet))
              for i, c in enumerate(row) if c != 0}
    assert sorted(reference) == sorted(closed) == [
        (0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 1), (3, 2), (4, 2)]
    for key, c in closed.items():
        assert sp.simplify(reference[key] - c) == 0, key
    assert sp.simplify(closed[(2, 0)] - printed_A_limit(jet)) == 0


def test_omega_of_lift_refuses_what_the_lift_cannot_normalize():
    jet = origin_jet(_polys(("2 + x + 1/2*z", "1 - y + 2*z", "3 + x")))
    for delta in (Q(0), Q(-1, 4), Q(1, 2)):       # not a positive rational square
        with pytest.raises(LiftError, match="normalization failed"):
            omega_of_lift(jet, Q(1), delta)
    with pytest.raises(ZeroComponentAtP):
        omega_of_lift(origin_jet(_polys(("x + x^2", "1 + y", "1 + z"))), Q(1), Q(1, 4))
    with pytest.raises(LiftError, match="mu or eps"):
        origin_jet(_polys(("2 + mu*x", "1 - y", "3 + x")))


def test_tuning_samples_omega_without_building_lifts(monkeypatch):
    """Tuning builds one lift family, at (L*, delta*): A(L) and the delta
    probes come from the coefficients of Omega."""
    calls = []

    def counting_build(*args):
        calls.append(args[1:])
        return build_lift_family(*args)
    monkeypatch.setattr(torusforge.lift, "build_lift_family", counting_build)
    polys = _polys(("2 + x + 1/2*z + x^2", "1 - y + 2*z + y^2", "3 + x + z^2"))
    tuning = tune_lift_parameters(polys)
    assert calls == [(tuning.L_star, tuning.delta_star)]


LIFT_SEED = ("2 + x + 1/2*z + x^2", "1 - y + 2*z + y^2", "3 + x + z^2")


@pytest.mark.parametrize("row, column", [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2),
                                         (1, 3), (2, 3), (2, 4)])
def test_corrupted_omega_coefficient_trips_the_lift_check(monkeypatch, row, column):
    """Tuning compares the closed form at (L*, delta*) with Omega of the
    family it builds there, so a wrong coefficient of Omega is a LiftError."""
    exact = torusforge.lift.omega_coefficients

    def corrupted(jet):
        rows = [list(r) for r in exact(jet)]
        rows[row][column] += Q(1, 10 ** 30)
        return tuple(map(tuple, rows))
    monkeypatch.setattr(torusforge.lift, "omega_coefficients", corrupted)
    with pytest.raises(LiftError, match="closed-form Omega"):
        tune_lift_parameters(_polys(LIFT_SEED))


def _translated(exprs):
    """The seed field moved to its separating plane's point, as `lift` does."""
    plane = find_separating_plane(_polys(exprs), Ball((0.0, 0.0, 0.0), 1.0))
    return translate_to_origin(plane.field, plane.point)


_GEN = _benchmark_inputs()


def _assert_kept_system_is_the_exact_lift_plus_z3(tuning):
    """Y is the exact lift plus ELL1_TERM z^3 in R: the exact lift's field
    vanishes on the normalized z axis, so its pure-z partials and ell_1 are
    0, and Y's ell_1 is -24 S^3 d c, while Omega, S, d, beta, mu0 and the
    whole perturbation block are the exact lift's."""
    c = torusforge.lift.ELL1_TERM
    lift, kept = tuning.family.system, tuning.tuned_system
    for p in (lift.P, lift.Q, lift.R):
        assert partial(p, 0, 0, 2) == 0 and partial(p, 0, 0, 3) == 0
    assert lift.ell1_exact == 0
    assert (kept.P, kept.Q) == (lift.P, lift.Q)
    assert kept.R - lift.R == Poly({(0, 0, 3, 0, 0): c})
    S, d = lift.quadratic_sum, lift.divergence_pair
    assert kept.ell1_exact == -24 * S ** 3 * d * c == 24 * c * S * S * lift.omega != 0
    assert tuning.report.base.ell1_exact == kept.ell1_exact and tuning.report.applicable
    assert ((kept.omega, kept.quadratic_sum, kept.divergence_pair, kept.beta)
            == (lift.omega, S, d, lift.beta))
    exact_report = torusforge.criteria.criteria_report(
        lift, torusforge.criteria.PerturbationFamily.simple(lift.beta))
    assert tuning.report.perturbation.mu0 == exact_report.perturbation.mu0
    assert tuning.report.perturbation.to_dict() == exact_report.perturbation.to_dict()


@pytest.mark.parametrize("exprs", [LIFT_SEED] + list(_GEN.LIFT_BASES))
def test_exact_lift_has_ell1_zero(exprs):
    """The exact lift's ell_1 is 0 and the kept system's is -24 S^3 d c, on
    the README demo seed and the benchmark's four lift bases."""
    _assert_kept_system_is_the_exact_lift_plus_z3(tune_lift_parameters(_translated(exprs)))


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10 ** 6), index=st.integers(0, len(_GEN.LIFT_BASES) - 1))
def test_kept_ell1_is_the_z3_closed_form_on_drawn_seeds(seed, index):
    """On the benchmark's lift seed fields at drawn seeds."""
    exprs = [_GEN.expr(t) for t in _GEN.lift_seed_field(seed, index)]
    _assert_kept_system_is_the_exact_lift_plus_z3(tune_lift_parameters(_translated(exprs)))


def test_nonzero_linear_offset_is_a_lift_error(monkeypatch):
    """A normalized lift whose constant and linear part is (-y, x, 0) off by
    an exact 10^-40, through one entry of M^-1, has no Hopf-Zero system, and
    tuning it is a LiftError, not a lift."""
    inv3 = torusforge.lift._inv3

    def off(M):
        Minv = inv3(M)
        Minv[0][0] += Q(1, 10 ** 40)
        return Minv

    monkeypatch.setattr(torusforge.lift, "_inv3", off)
    polys = _translated(LIFT_SEED)
    assert build_lift_family(polys, Q(1), Q(1, 4)).system is None
    with pytest.raises(LiftError, match="closed-form Omega"):
        tune_lift_parameters(polys)


def test_kept_ell1_mismatch_is_a_lift_error(monkeypatch):
    """Y's ell_1 is checked against its closed form, as Omega is: a wrong
    form of ell_1 is a LiftError."""
    exact = torusforge.criteria._ell1_repaired
    monkeypatch.setattr(torusforge.criteria, "_ell1_repaired",
                        lambda P, Q, R: exact(P, Q, R) + 1)
    with pytest.raises(LiftError, match="closed-form ell_1"):
        tune_lift_parameters(_translated(LIFT_SEED))


@pytest.mark.parametrize("exprs", [
    LIFT_SEED,                                # the README demo
    # lift seed 0 of the benchmark's `fields` workload at seed 0
    [_GEN.expr(t) for t in _GEN.lift_seed_field(0, 0)],
])
def test_one_criteria_report_per_lift(monkeypatch, exprs):
    """A lift evaluates the ell_1 form once, for the system it keeps, and
    builds one criteria report for it, which reads the ell_1 that system
    already holds: the exact lift's ell_1 is 0 by construction and is
    never evaluated."""
    counts = {"criteria_report": 0, "_ell1_repaired": 0}

    def counted(module, name):
        original = getattr(module, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, call)
    counted(torusforge.lift, "criteria_report")
    counted(torusforge.criteria, "_ell1_repaired")
    tuning = tune_lift_parameters(_translated(exprs))
    assert counts == {"criteria_report": 1, "_ell1_repaired": 1}
    kept = tuning.tuned_system
    assert tuning.report.base.ell1_exact == kept.ell1_exact != 0


def _small_R0_seed(R0):
    """The README seed at the origin with R = R0 + x + y + z^2: A(L)/L^2
    tends to a limit proportional to R0^2, so A turns positive only at an L
    near 1/R0."""
    return _polys(("2 + x + 1/2*z + x^2", "1 - y + 2*z + y^2", f"{R0} + x + y + z^2"))


@pytest.mark.parametrize("R0, k", [("1/10", 7), ("1/100", 14)])
def test_small_R0_seed_lifts_past_two_to_the_6(monkeypatch, R0, k):
    """A(2^j) <= 0 up to j = k - 1, so a search that stopped at L = 2^6
    ended in NoPositiveOmegaFound; the closed form finds L* = 2^k and
    delta* = 1/4, builds that one family, and its report is applicable."""
    calls = []

    def counting_build(*args):
        calls.append(args[1:])
        return build_lift_family(*args)
    monkeypatch.setattr(torusforge.lift, "build_lift_family", counting_build)
    polys = _small_R0_seed(R0)
    with pytest.raises(NoPositiveOmegaFound):
        grid_lift_parameters(polys, LIFT_L_GRID, LIFT_DELTA_GRID)
    calls.clear()
    tuning = tune_lift_parameters(polys)
    assert (tuning.L_star, tuning.delta_star) == (Q(2) ** k, Q(1, 4))
    assert calls == [(Q(2) ** k, Q(1, 4))]
    assert tuning.report.applicable and tuning.family.char_poly_ok


def test_far_first_positive_power_takes_logarithmically_many_evaluations(monkeypatch):
    """With R0 = 1/10^100, A(2^j) first turns positive at j = 665: doubling
    j to 1024 and bisecting the last gap evaluates A 21 times (one search by
    powers would take 666), then once more to read Omega(L*, delta).  The
    family at L* = 2^665 is exact, and its criteria end in the typed
    FloatRangeExceeded."""
    polys = _small_R0_seed("1/1" + "0" * 100)
    A = omega_coefficients(origin_jet(polys))[0]
    assert torusforge.lift._horner(A, Q(2) ** 664) <= 0 < torusforge.lift._horner(A, Q(2) ** 665)
    at = []
    exact = torusforge.lift._horner

    def counting_horner(coefficients, t):
        if tuple(coefficients) == A:
            at.append(t)
        return exact(coefficients, t)
    monkeypatch.setattr(torusforge.lift, "_horner", counting_horner)
    with pytest.raises(FloatRangeExceeded):
        tune_lift_parameters(polys)
    assert len(at) == 22 and max(at) == Q(2) ** 1024 and at[-1] == Q(2) ** 665


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), index=st.integers(0, len(_GEN.LIFT_BASES) - 1),
       j=st.integers(0, 4))
def test_closed_form_choice_equals_the_grid_choice(seed, index, j):
    """On the benchmark's lift seed fields at the origin, with R0 scaled by
    1/10^j: wherever the grids L = 2^0..2^6, delta = 4^-1..4^-6 find
    (L*, delta*), the closed-form search finds the same; where they find
    none, its choice lies past them."""
    terms = _GEN.lift_seed_field(seed, index)
    R = dict(terms[2])
    R[(0, 0, 0)] /= 10 ** j
    polys = _polys([_GEN.expr(t) for t in (terms[0], terms[1], R)])
    tuning = tune_lift_parameters(polys)
    try:
        expected = grid_lift_parameters(polys, LIFT_L_GRID, LIFT_DELTA_GRID)
    except NoPositiveOmegaFound:
        assert tuning.L_star > LIFT_L_GRID[-1] or tuning.delta_star < LIFT_DELTA_GRID[-1]
    else:
        assert (tuning.L_star, tuning.delta_star) == expected
