"""Tests of the contraction norms and the graded cycle quadrature.

The references share no code with the quadrature: closed forms of full
matchings, a plain Monte Carlo estimate of the cycle integral built from
the cross-integral closed form, mesh refinement, and default-mesh values
of the earlier quadrature, which took distances to the singular points
as differences of absolute coordinates.  The public enumeration and
condition-(iii) functions are checked against counts and closed-form
targets, and `ContractionSpec` against inputs that are not integers.  The three face-1 trends
(`constant_face_ratio` and conditions (ii) and (iii)) share one path
loop, `domain.face1_trend`; one test checks that each of them refuses a
face-2 path and a non-path before reading it.
"""
import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import rosenblatt.contractions as rc
from rosenblatt import (
    BoundaryPath, DivergentIntegralError, Face, GammaVector, InvalidInputError, QuadratureError, SizeError,
    constant_face_ratio, normalizing_constant_sq,
)
from rosenblatt.kernel import MAX_ORDER

from helpers import cycle_mc_oracle, indicator_norm_quadrature

Q2 = (-0.7, -0.65)
Q3 = (-0.7, -0.65, -0.6)
Q3_SPREAD = (-0.9, -0.55, -0.53)


def spec(gamma, indices, images):
    return rc.ContractionSpec(len(gamma), len(gamma), indices, images)


def rel_err(x, y):
    return abs(x - y) / abs(y)


def log_beta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def pairing_weight(gamma, perm):
    return math.exp(sum(log_beta(gamma[i] + 1.0, -gamma[i] - gamma[s] - 1.0) for i, s in enumerate(perm)))


def cross_factor(g1, g2):
    """Closed form of int (s1-x)_+^g1 (s2-x)_+^g2 dx, vectorized."""
    p = g1 + g2 + 1.0
    up, down = math.exp(log_beta(1.0 + g1, -p)), math.exp(log_beta(1.0 + g2, -p))
    return lambda s1, s2: np.where(s2 > s1, up, down) * np.abs(s2 - s1) ** p


PINNED_NORMS = [
    (Q2, (1,), (1,), 0.1223365833137404),
    (Q2, (1,), (2,), 0.11907453290437373),
    (Q3, (1,), (2,), 0.0032857558039831513),
    (Q3, (1, 2), (1, 2), 0.005004829514641906),
]


class TestPinnedValues:
    @pytest.mark.parametrize("gamma, indices, images, want", PINNED_NORMS)
    def test_contraction_norm(self, gamma, indices, images, want):
        assert rel_err(rc.contraction_norm_sq(gamma, spec(gamma, indices, images)), want) <= 1e-12

    def test_face1_trend_point(self):
        path = BoundaryPath(Face.FIRST_EXPONENT_TO_HALF, GammaVector((-0.65,)), (0.05,))
        got = rc.ncl_condition_ii_trend(path, rc.ContractionSpec(2, 2, (1,), (2,))).values()[0]
        assert rel_err(got, 115.00143509547985) <= 1e-12

    @pytest.mark.parametrize("gamma, a, b, want", [
        # re-pinned with the z-pieces cut at 1 - b = 0.4 as well; cut at
        # b - a alone it read 4.2e-6 high (see the nested-quad test)
        (Q2, 0.2, 0.6, 0.21905819275989835),
        ((-0.6, -0.7), -0.5, 1.5, 0.5286249840882691),  # window wider than [0, 1]
    ])
    def test_indicator_norm(self, gamma, a, b, want):
        assert rel_err(rc.condition_i_indicator_norm(gamma, a, b), want) <= 1e-12

    def test_repeated_calls_bit_identical(self):
        pf = rc.phi_factors(Q3, spec(Q3, (1,), (2,)))
        assert rc.phi_cycle_integral(pf) == rc.phi_cycle_integral(pf)

    def test_contraction_norm_finer_mesh(self):
        # mesh_scale 1.5 has 224 z-nodes per segment, so its blocks hold
        # 73 cells, and the last block of 168^2 cells holds 46
        got = rc.contraction_norm_sq(Q2, spec(Q2, (1,), (2,)), mesh_scale=1.5)
        assert rel_err(got, 0.11907453446047866) <= 1e-12

    def test_concurrent_calls_bit_identical(self):
        # every tensor sum allocates its own scratch, so calls running on
        # two threads at once give the serial values bit for bit
        cases = [(Q2, (1,), (2,)), ((-0.6, -0.7), (1,), (1,)), (Q3, (1,), (2,)), (Q3_SPREAD, (1,), (3,))]
        serial = [rc.contraction_norm_sq(g, spec(g, i, j)) for g, i, j in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(rc.contraction_norm_sq, g, spec(g, i, j)) for g, i, j in cases]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


def full_matching_cycle(gamma, sigma):
    """<f, f o sigma> / A^2 = (P_sigma + P_sigma^-1) / ((a+1)(a+2)), squared,
    with P_sigma = prod_i B(g_i+1, -g_i-g_sigma(i)-1) and a = 2 sum(g) + q."""
    q = len(gamma)
    inverse = tuple(sigma.index(j) for j in range(q))
    a = 2.0 * sum(gamma) + q
    inner = (pairing_weight(gamma, sigma) + pairing_weight(gamma, inverse)) / ((a + 1.0) * (a + 2.0))
    return inner * inner


def full_spec(gamma, sigma):
    q = len(gamma)
    return spec(gamma, tuple(range(1, q + 1)), tuple(s + 1 for s in sigma))


@pytest.mark.parametrize("gamma, sigma", [(Q2, (1, 0)), (Q2, (0, 1)), (Q3, (1, 2, 0))])
def test_full_matching_closed_form(gamma, sigma):
    want = full_matching_cycle(gamma, sigma)
    s = full_spec(gamma, sigma)
    assert rel_err(rc.phi_cycle_integral(rc.phi_factors(gamma, s)), want) <= 1e-12
    amp_sq = normalizing_constant_sq(gamma)
    assert rel_err(rc.contraction_norm_sq(gamma, s), amp_sq * amp_sq * want) <= 1e-12


def test_divergence_named_before_the_domain():
    # (-0.9, -0.9) lies outside the region, and the full matching's alpha1 =
    # 2 (g1 + g2) + 2 = -1.6 diverges: the divergence is what gets reported
    with pytest.raises(DivergentIntegralError) as exc:
        rc.contraction_norm_sq((-0.9, -0.9), full_spec(Q2, (1, 0)))
    assert exc.value.exponents == {"alpha1": pytest.approx(-1.6)}


def test_condition_ii_full_matching_closed_form():
    # (1, 2) -> (2, 1) matches slot 1 with slot 2 at every point of the path
    path = BoundaryPath(Face.FIRST_EXPONENT_TO_HALF, GammaVector((-0.65,)), (0.1, 0.01))
    values = rc.ncl_condition_ii_trend(path, full_spec(Q2, (1, 0))).values()
    for eps, got in zip(path.epsilons, values):
        g = (-0.5 - eps, -0.65)
        scale = -1.0 - 2.0 * g[0]
        assert rel_err(got, scale * scale * full_matching_cycle(g, (1, 0))) <= 1e-12


@pytest.mark.parametrize("gamma", [Q2, Q3])
def test_empty_matching_closed_form(gamma):
    """With no matched pair the cycle integral is ||f||^4 / A^4, and
    ||f||^2 = A^2 2 P_id / ((a+1)(a+2)) with a = 2 sum(g) + q."""
    q = len(gamma)
    pf = rc.phi_factors(gamma, spec(gamma, (), ()))
    a = 2.0 * sum(gamma) + q
    norm_sq = 2.0 * pairing_weight(gamma, tuple(range(q))) / ((a + 1.0) * (a + 2.0))
    assert rel_err(rc.phi_cycle_integral(pf), norm_sq * norm_sq) <= 1e-12


@pytest.mark.parametrize("gamma, indices, images", [
    (Q2, (1,), (1,)),
    (Q2, (1,), (2,)),
    (Q3_SPREAD, (1,), (3,)),
])
def test_exploit_symmetry_agrees(gamma, indices, images):
    pf = rc.phi_factors(gamma, spec(gamma, indices, images))
    both = rc.phi_cycle_integral(pf, exploit_symmetry=False)
    assert rel_err(both, rc.phi_cycle_integral(pf)) <= 1e-12


@pytest.mark.parametrize("gamma, indices, images", [(Q2, (1,), (2,)), (Q3, (1,), (2,))])
def test_refinement_converges(gamma, indices, images):
    s = spec(gamma, indices, images)
    scales = (1.0, 1.5, 2.0, 3.0)
    values = [rc.contraction_norm_sq(gamma, s, mesh_scale=m) for m in scales]
    assert all(math.isfinite(v) for v in values)
    assert all(rel_err(v, values[0]) <= 1e-5 for v in values)
    # the distance to the finest value shrinks with every refinement
    gaps = [abs(v - values[-1]) for v in values[:-1]]
    assert gaps == sorted(gaps, reverse=True)


def test_monte_carlo_oracle():
    # slot 1 of one kernel matched with slot 2 of the other: the unmatched
    # slots are 2 in the first factor and 1 in the second
    g = Q2
    phi1 = cross_factor(g[0], g[1])
    phi2, phi3 = cross_factor(g[1], g[1]), cross_factor(g[0], g[0])
    pairs = [(0, 1, phi1), (2, 3, phi1), (0, 2, phi2), (1, 3, phi3)]
    estimate, se = cycle_mc_oracle(g, pairs, 2_000_000, seed=5)
    got = rc.phi_cycle_integral(rc.phi_factors(g, spec(g, (1,), (2,))))
    assert abs(got - estimate) <= 4.0 * se


def test_nonfinite_cycle_raises(monkeypatch):
    pf = rc.phi_factors(Q2, spec(Q2, (1,), (2,)))
    monkeypatch.setattr(rc, "_segment", lambda *args, **kwargs: math.nan)
    with pytest.raises(QuadratureError):
        rc.phi_cycle_integral(pf)


@pytest.mark.parametrize("gamma, a, b", [
    (Q2, 0.2, 0.6),  # kinks of the correlation at z = 0.4 and 0.8
    (Q3, 0.1, 0.3),  # at z = 0.2, 0.7 and 0.9
    ((-0.6, -0.7), -0.3, 0.4),  # T(0) != 0: at z = 0.4 (b) and 0.6
    ((-0.75, -0.6), 0.3, 1.4),  # a window past 1: at z = 0.7 only
])
def test_indicator_norm_against_nested_quad(gamma, a, b):
    # every kink of the correlation must end a z-piece, since the graded
    # rule refines only piece ends; cut at b - a alone, these read 4.2e-6
    # to 4.0e-5 off the oracle at mesh_scale 1, 2 and 3 alike, and the
    # third one 1.1e-5 off without its cut at z = b
    assert rel_err(rc.condition_i_indicator_norm(gamma, a, b), indicator_norm_quadrature(gamma, a, b)) <= 1e-8


def test_nonfinite_indicator_raises(monkeypatch):
    def nan_weights(*args):
        x, xc, w = rule(*args)
        return x, xc, np.full_like(w, math.nan)

    rule = rc.graded_rule
    monkeypatch.setattr(rc, "graded_rule", nan_weights)
    with pytest.raises(QuadratureError):
        rc.condition_i_indicator_norm(Q2, 0.2, 0.6)


def test_enumerate_contractions():
    for q, m in itertools.product((1, 2, 3), repeat=2):
        for r in range(min(q, m) + 1):
            specs = rc.enumerate_contractions(q, m, r)
            want = math.comb(q, r) * math.comb(m, r) * math.factorial(r)
            assert len(specs) == want == len(set(specs))
            assert all(s.q == q and s.m == m and s.r == r for s in specs)
    assert [len(rc.enumerate_contractions(3, 3, r)) for r in range(4)] == [1, 9, 18, 6]
    (empty,) = rc.enumerate_contractions(2, 3, 0)
    assert empty.indices == () and empty.images == ()
    with pytest.raises(SizeError):
        rc.enumerate_contractions(MAX_ORDER + 1, 1, 0)


def test_condition_iii_limit_approaches_target():
    # slot 1 adjoined to (2)->(2) makes a full matching at every point, and
    # the reduced target is the unit-normalized order-1 norm: closed forms only
    path = BoundaryPath(Face.FIRST_EXPONENT_TO_HALF, GammaVector((-0.65,)), (0.1, 0.01, 0.001))
    table = rc.ncl_condition_iii_limit(path, spec((-0.7, -0.65), (2,), (2,)))
    assert table.target == pytest.approx(1.0, abs=1e-12)
    gaps = table.gaps()
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.1
    with pytest.raises(InvalidInputError):
        rc.ncl_condition_iii_limit(path, spec((-0.7, -0.65), (1,), (2,)))


FACE1 = BoundaryPath(Face.FIRST_EXPONENT_TO_HALF, GammaVector((-0.65,)), (0.05,))
FACE2 = BoundaryPath(Face.SUM_TO_CRITICAL, GammaVector(Q2), (0.05,))
TRENDS = {
    "constant_face_ratio": constant_face_ratio,
    "condition_ii": lambda path: rc.ncl_condition_ii_trend(path, spec(Q2, (1,), (2,))),
    "condition_iii": lambda path: rc.ncl_condition_iii_limit(path, spec(Q2, (2,), (2,))),
}


@pytest.mark.parametrize("call, path, match", [
    *(pytest.param(call, path, "first-exponent BoundaryPath", id=f"{name}-{kind}")
      for name, call in TRENDS.items() for kind, path in (("face2_path", FACE2), ("not_a_path", Q2))),
    pytest.param(lambda path: rc.ncl_condition_ii_trend(path, spec(Q2, (2,), (2,))), FACE1,
                 "slot 1 must be matched", id="condition_ii-slot_1_unmatched"),
    pytest.param(lambda path: rc.ncl_condition_ii_trend(path, spec(Q2, (1,), (1,))), FACE1,
                 "slot 1 paired with itself", id="condition_ii-slot_1_to_itself"),
    pytest.param(lambda path: rc.ncl_condition_iii_limit(path, spec(Q3, (2,), (2,))), FACE1,
                 "path gives order 2", id="condition_iii-order_mismatch"),
    pytest.param(lambda path: rc.ncl_condition_iii_limit(path, rc.ContractionSpec(1, 1, (), ())), FACE1,
                 "path gives order 2", id="condition_iii-order_one_spec"),
])
def test_face1_trends_reject_bad_input(call, path, match):
    # a tuple has no .base, so the non-path case shows that the path is
    # checked before anything reads it
    with pytest.raises(InvalidInputError, match=match):
        call(path)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: rc.ContractionSpec(2.7, 2, (1,), (2,)), id="float_order"),
    pytest.param(lambda: rc.ContractionSpec(2, 2, (1.9,), (2,)), id="float_slot"),
    pytest.param(lambda: rc.ContractionSpec(2, 2, ("1",), (2,)), id="str_slot"),
    pytest.param(lambda: rc.ContractionSpec(2, 2, (True,), (2,)), id="bool_slot"),
    pytest.param(lambda: rc.ContractionSpec(2, True, (1,), (1,)), id="bool_order"),
    pytest.param(lambda: rc.enumerate_contractions(2.9, 2, 1), id="enumerate_float_order"),
    pytest.param(lambda: rc.enumerate_contractions(2, 2, 1.5), id="enumerate_float_r"),
])
def test_non_integers_rejected(call):
    with pytest.raises(InvalidInputError, match="must be an integer"):
        call()


def test_numpy_integers_accepted():
    s = rc.ContractionSpec(np.int64(2), 2, (np.int32(2),), (1,))
    assert s == rc.ContractionSpec(2, 2, (2,), (1,))
    assert type(s.q) is int and type(s.indices[0]) is int
    assert len(rc.enumerate_contractions(np.int64(2), 2, np.int8(1))) == 4


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: rc.ContractionSpec(0, 2, (), ()), InvalidInputError, "orders must be positive, got q=0, m=2",
                 id="spec_order_zero"),
    pytest.param(lambda: rc.ContractionSpec(2, 2, (1, 2), (1,)), InvalidInputError, "2 matched slots against 1 images",
                 id="spec_length_mismatch"),
    pytest.param(lambda: rc.ContractionSpec(2, 2, (1, 1), (1, 2)), InvalidInputError,
                 r"repeated first-kernel slot in \(1, 1\)", id="spec_repeated_slot"),
    pytest.param(lambda: rc.ContractionSpec(2, 2, (1, 2), (2, 2)), InvalidInputError,
                 r"not one-to-one: repeated image in \(2, 2\)", id="spec_repeated_image"),
    pytest.param(lambda: rc.ContractionSpec(2, 3, (3,), (1,)), InvalidInputError, r"slot out of range 1\.\.2 in \(3,\)",
                 id="spec_slot_out_of_range"),
    pytest.param(lambda: rc.ContractionSpec(2, 3, (1,), (0,)), InvalidInputError,
                 r"image out of range 1\.\.3 in \(0,\)", id="spec_image_out_of_range"),
    pytest.param(lambda: rc.enumerate_contractions(2, 0, 0), InvalidInputError, "orders must be positive, got q=2, m=0",
                 id="enumerate_order_zero"),
    pytest.param(lambda: rc.enumerate_contractions(2, 3, 3), InvalidInputError, r"r=3 not in 0\.\.min\(2,3\)",
                 id="enumerate_r_too_large"),
    pytest.param(lambda: rc.enumerate_contractions(2, 3, -1), InvalidInputError, r"r=-1 not in 0\.\.min\(2,3\)",
                 id="enumerate_r_negative"),
    pytest.param(lambda: rc.phi_factors((-0.7, -0.45), spec(Q2, (1,), (2,))), InvalidInputError,
                 r"exponent -0\.45 at slot 2 outside \(-1, -1/2\)", id="exponent_outside"),
    pytest.param(lambda: rc.phi_factors(Q2, ((1,), (2,))), InvalidInputError, "spec must be a ContractionSpec",
                 id="phi_spec_not_a_spec"),
    pytest.param(lambda: rc.phi_factors(Q2, rc.ContractionSpec(2, 3, (1,), (2,))), InvalidInputError,
                 "needs q == m == len\\(gamma\\); got q=2, m=3, len=2", id="phi_orders_differ"),
    pytest.param(lambda: rc.phi_factors(Q3, spec(Q2, (1,), (2,))), InvalidInputError,
                 "needs q == m == len\\(gamma\\); got q=2, m=2, len=3", id="phi_length_differs"),
    *(pytest.param(lambda s=s: rc.contraction_norm_sq(Q2, spec(Q2, (1,), (2,)), mesh_scale=s), InvalidInputError,
                   f"mesh_scale must be positive, got {s}", id=f"mesh_scale_{s}") for s in (0.0, -1.5, math.inf)),
    pytest.param(lambda: rc.condition_i_indicator_norm((-0.7,), 0.2, 0.6), InvalidInputError,
                 "need order at least 2", id="indicator_order_one"),
    pytest.param(lambda: rc.condition_i_indicator_norm(Q2, 0.6, 0.2), InvalidInputError,
                 r"window needs a < b, got \[0\.6, 0\.2\]", id="indicator_reversed_window"),
    pytest.param(lambda: rc.condition_i_indicator_norm(Q2, 0.2, math.inf), InvalidInputError,
                 r"window needs a < b, got \[0\.2, inf\]", id="indicator_infinite_window"),
    pytest.param(lambda: rc.condition_i_indicator_norm((-0.7, -0.8, -0.75), 0.2, 0.6), DivergentIntegralError,
                 "tail exponent -1.1 at or below -1", id="indicator_divergent_tail"),
])
def test_named_errors(call, error, match):
    """Each malformed or out-of-domain input raises its own error class,
    with a message that names what is wrong."""
    with pytest.raises(error, match=match):
        call()
