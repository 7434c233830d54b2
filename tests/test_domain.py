import math

import numpy as np
import pytest

import rosenblatt.contractions as rc
from rosenblatt import (
    BoundaryPath,
    Face,
    GammaVector,
    InvalidInputError,
    KernelSpec,
    PathInfeasibleError,
    TrendTable,
    path_points,
    required_window,
    tail_fraction,
    validate,
)


class TestGammaVector:
    def test_basics(self):
        g = GammaVector((-0.6, -0.7))
        assert g.q == 2
        assert g.gamma_bar == pytest.approx(-1.3)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            GammaVector(())

    def test_numbers_of_any_real_type(self):
        g = GammaVector([np.float32(-0.75), -0.7, np.float64(-0.6)])
        assert g.entries == (-0.75, -0.7, -0.6)
        assert all(type(v) is float for v in g.entries)
        assert GammaVector(g) == g


BAD_EXPONENTS = [("a", -0.6), ("x",), None, -0.7, (True, -0.6), (-0.6, None), ((-0.6, -0.7),)]


@pytest.mark.parametrize("call", [
    pytest.param(GammaVector, id="GammaVector"),
    pytest.param(lambda g: tail_fraction(g, 3.0), id="tail_fraction"),
    pytest.param(KernelSpec, id="KernelSpec"),
    pytest.param(lambda g: rc.contraction_norm_sq(g, rc.ContractionSpec(1, 1, (1,), (1,))), id="contraction_norm_sq"),
    pytest.param(lambda g: rc.condition_i_indicator_norm(g, 0.2, 0.6), id="condition_i_indicator_norm"),
])
@pytest.mark.parametrize("bad", BAD_EXPONENTS, ids=repr)
def test_exponent_input_has_one_parser(call, bad):
    """Every entry point reads exponents through GammaVector, which takes
    only an iterable of real, non-bool numbers."""
    with pytest.raises(InvalidInputError, match="nonempty iterable of real numbers"):
        call(bad)


def _cycle_factors():
    return rc.phi_factors((-0.7, -0.65), rc.ContractionSpec(2, 2, (1,), (2,)))


Q2 = GammaVector((-0.7, -0.65))


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: rc.condition_i_indicator_norm(Q2, None, 0.6), "a must be a real number", id="window_none"),
    pytest.param(lambda: rc.condition_i_indicator_norm(Q2, "a", 0.6), "a must be a real number", id="window_str"),
    pytest.param(lambda: rc.condition_i_indicator_norm(Q2, False, True), "a must be a real number", id="window_bool"),
    pytest.param(lambda: rc.condition_i_indicator_norm(Q2, 0.2, True), "b must be a real number", id="window_end_bool"),
    pytest.param(lambda: rc.phi_cycle_integral(_cycle_factors(), mesh_scale=None), "mesh_scale must be a real number",
                 id="mesh_scale_none"),
    pytest.param(lambda: rc.phi_cycle_integral(_cycle_factors(), mesh_scale=True), "mesh_scale must be a real number",
                 id="mesh_scale_bool"),
    pytest.param(lambda: rc.contraction_norm_sq(Q2, rc.ContractionSpec(2, 2, (1,), (2,)), mesh_scale="2"),
                 "mesh_scale must be a real number", id="norm_mesh_scale_str"),
    pytest.param(lambda: BoundaryPath(Face.SUM_TO_CRITICAL, Q2, (0.1, "x")), "epsilon must be a real number",
                 id="epsilon_str"),
    pytest.param(lambda: BoundaryPath(Face.SUM_TO_CRITICAL, Q2, (2.0, True)), "epsilon must be a real number",
                 id="epsilon_bool"),
    pytest.param(lambda: BoundaryPath(Face.SUM_TO_CRITICAL, Q2, 0.1), "epsilons must be an iterable",
                 id="epsilons_scalar"),
    pytest.param(lambda: BoundaryPath(Face.SUM_TO_CRITICAL, Q2, (0.1,), floor_epsilon="x"),
                 "floor_epsilon must be a real number", id="floor_epsilon_str"),
    pytest.param(lambda: tail_fraction((-0.7,), None), "window must be a real number", id="tail_window_none"),
    pytest.param(lambda: tail_fraction((-0.7,), True), "window must be a real number", id="tail_window_bool"),
    pytest.param(lambda: tail_fraction((-0.7,), 3.0, horizon=None), "horizon must be a real number",
                 id="tail_horizon_none"),
    pytest.param(lambda: required_window((-0.7,), "x"), "tolerance must be a real number", id="tolerance_str"),
    pytest.param(lambda: required_window((-0.7,), 1e-3, horizon=True), "horizon must be a real number",
                 id="window_horizon_bool"),
    pytest.param(lambda: BoundaryPath("first-exponent-to-half", GammaVector((-0.65,)), (0.1,)),
                 "face must be a Face member", id="face_str"),
    pytest.param(lambda: BoundaryPath(None, Q2, (0.1,)), "face must be a Face member", id="face_none"),
    pytest.param(lambda: rc.ContractionSpec(2, 2, 1, 2), "slot must be an iterable of integers", id="bare_slot"),
    pytest.param(lambda: rc.ContractionSpec(2, 2, (1,), 2), "image must be an iterable of integers", id="bare_image"),
])
def test_scalar_and_slot_input_has_one_parser(call, match):
    """Real scalars go through one check, which takes only real, non-bool
    numbers; slot arguments must be iterables."""
    with pytest.raises(InvalidInputError, match=match):
        call()


def test_real_scalars_of_any_type():
    path = BoundaryPath(Face.SUM_TO_CRITICAL, Q2, (np.float32(0.25), 0.1), floor_epsilon=np.float64(0.1))
    assert path.epsilons == (0.25, 0.1) and path.floor_epsilon == 0.1
    assert all(type(e) is float for e in path.epsilons + (path.floor_epsilon,))
    want = rc.condition_i_indicator_norm(Q2, 0.0, 1.0)
    assert rc.condition_i_indicator_norm(Q2, np.int64(0), np.float32(1.0)) == want
    with pytest.raises(InvalidInputError, match="strictly positive"):
        BoundaryPath(Face.SUM_TO_CRITICAL, Q2, (math.nan,))


class TestValidate:
    def test_inside_example(self):
        rep = validate(GammaVector((-0.6, -0.6)))
        assert rep.inside
        assert rep.violations == ()
        assert rep.face2_distance == pytest.approx(0.3)
        assert rep.face1_distance == pytest.approx(0.1)

    def test_boundary_value_excluded(self):
        rep = validate(GammaVector((-0.5, -0.7)))
        assert not rep.inside
        assert any("gamma_1" in v for v in rep.violations)

    def test_sum_constraint(self):
        rep = validate(GammaVector((-0.9, -0.9)))
        assert not rep.inside
        assert any("sum" in v for v in rep.violations)

    def test_nonfinite_rejected(self):
        for bad in [float("nan"), float("inf"), -float("inf")]:
            with pytest.raises(InvalidInputError):
                validate(GammaVector((bad, -0.7)))

    def test_membership_interval_in_first_coordinate(self):
        # for a fixed admissible tail the inside set in gamma_1 is exactly
        # the open interval (max(-1, crit - tail_sum), -1/2)
        rng = np.random.default_rng(23)
        for _ in range(30):
            q = int(rng.integers(2, 5))
            tail = tuple(rng.uniform(-0.99, -0.51, size=q - 1))
            crit = -(q + 1) / 2.0
            lo = max(-1.0, crit - sum(tail))
            hi = -0.5
            if lo >= hi - 1e-6:
                continue
            delta = min(1e-7, (hi - lo) / 10)
            inside_pts = [lo + delta, (lo + hi) / 2, hi - delta]
            for g1 in inside_pts:
                assert validate(GammaVector((g1,) + tail)).inside
            for g1 in [lo - delta, hi + delta, hi]:
                assert not validate(GammaVector((g1,) + tail)).inside


class TestPaths:
    def test_face1_point(self):
        path = BoundaryPath(Face.FIRST_EXPONENT_TO_HALF, GammaVector((-0.7,)), (0.05,))
        (vec,) = path_points(path)
        assert vec.entries == (-0.55, -0.7)
        assert validate(vec).face1_distance == pytest.approx(0.05)

    def test_face1_infeasible(self):
        path = BoundaryPath(Face.FIRST_EXPONENT_TO_HALF, GammaVector((-0.7,)), (0.6,))
        with pytest.raises(PathInfeasibleError) as exc:
            path_points(path)
        assert exc.value.epsilon == 0.6

    def test_face2_symmetric_fixed_point(self):
        path = BoundaryPath(Face.SUM_TO_CRITICAL, GammaVector((-0.7, -0.7)), (0.1,))
        (vec,) = path_points(path)
        assert vec.entries[0] == pytest.approx(-0.7, abs=1e-15)
        assert vec.entries[1] == pytest.approx(-0.7, abs=1e-15)

    def test_face2_symmetric_moves_down(self):
        path = BoundaryPath(Face.SUM_TO_CRITICAL, GammaVector((-0.7, -0.7)), (0.1, 0.02))
        vecs = path_points(path)
        assert vecs[1].entries[0] == pytest.approx(-0.74, abs=1e-12)
        assert vecs[1].entries[1] == pytest.approx(-0.74, abs=1e-12)
        assert vecs[1].gamma_bar == pytest.approx(-1.48, abs=1e-12)

    def test_face2_asymmetric_proportional_split(self):
        base = GammaVector((-0.6, -0.8))
        path = BoundaryPath(Face.SUM_TO_CRITICAL, base, (0.02,), floor_epsilon=0.05)
        (vec,) = path_points(path)
        # move = -1.48 - (-1.4) = -0.08 split by downward slack 0.35 : 0.15
        assert vec.gamma_bar == pytest.approx(-1.48, abs=1e-12)
        assert vec.entries[0] == pytest.approx(-0.6 - 0.08 * 0.35 / 0.5, abs=1e-12)
        assert vec.entries[1] == pytest.approx(-0.8 - 0.08 * 0.15 / 0.5, abs=1e-12)
        assert all(g > -0.95 for g in vec.entries)

    def test_face2_floor_infeasible(self):
        base = GammaVector((-0.55, -0.55))
        path = BoundaryPath(Face.SUM_TO_CRITICAL, base, (0.01,), floor_epsilon=0.4)
        with pytest.raises(PathInfeasibleError):
            path_points(path)

    @pytest.mark.parametrize("base, eps, floor_epsilon, move", [
        pytest.param((-0.9, -0.5), 0.2, 0.05, r"0\.0999", id="up_with_a_slot_at_minus_half"),
        pytest.param((-0.51, -0.9), 0.05, 0.1, r"-0\.0399", id="down_with_a_slot_at_the_floor"),
    ])
    def test_face2_without_slack(self, base, eps, floor_epsilon, move):
        # a slot with no room in the direction of the move would take a
        # zero share of it, so the point is refused with the move named
        path = BoundaryPath(Face.SUM_TO_CRITICAL, GammaVector(base), (eps,), floor_epsilon=floor_epsilon)
        with pytest.raises(PathInfeasibleError, match=f"epsilon={eps}: no slack to move the sum by {move}") as info:
            path_points(path)
        assert info.value.epsilon == eps

    def test_epsilon_validation(self):
        base = GammaVector((-0.7,))
        with pytest.raises(InvalidInputError):
            BoundaryPath(Face.FIRST_EXPONENT_TO_HALF, base, ())
        with pytest.raises(InvalidInputError):
            BoundaryPath(Face.FIRST_EXPONENT_TO_HALF, base, (0.1, 0.1))
        with pytest.raises(InvalidInputError):
            BoundaryPath(Face.FIRST_EXPONENT_TO_HALF, base, (0.1, -0.2))
        with pytest.raises(InvalidInputError):
            BoundaryPath(Face.FIRST_EXPONENT_TO_HALF, base, (0.1,), floor_epsilon=0.0)

    def test_every_emitted_point_validates(self):
        rng = np.random.default_rng(29)
        emitted = 0
        while emitted < 40:
            q = int(rng.integers(2, 4))
            face = Face.FIRST_EXPONENT_TO_HALF if rng.random() < 0.5 else Face.SUM_TO_CRITICAL
            eps = sorted(rng.uniform(1e-4, 0.2, size=3), reverse=True)
            if face is Face.FIRST_EXPONENT_TO_HALF:
                base = GammaVector(tuple(rng.uniform(-0.85, -0.55, size=q - 1)))
            else:
                base = GammaVector(tuple(rng.uniform(-0.85, -0.6, size=q)))
            path = BoundaryPath(face, base, tuple(eps))
            try:
                vecs = path_points(path)
            except PathInfeasibleError:
                continue
            for e, v in zip(eps, vecs):
                rep = validate(v)
                assert rep.inside
                dist = rep.face1_distance if face is Face.FIRST_EXPONENT_TO_HALF else rep.face2_distance
                assert dist == pytest.approx(e, rel=1e-9)
                emitted += 1


class TestTrendTable:
    ROWS = ((0.1, 3.0), (0.01, 1.5), (0.001, -0.5))

    def test_values_and_gaps(self):
        assert TrendTable(self.ROWS, 2.0).values() == [3.0, 1.5, -0.5]
        # relative to a nonzero target, absolute against a zero one
        assert TrendTable(self.ROWS, 2.0).gaps() == [0.5, 0.25, 1.25]
        assert TrendTable(self.ROWS, -2.0).gaps() == [2.5, 1.75, 0.75]
        assert TrendTable(self.ROWS, 0.0).gaps() == [3.0, 1.5, 0.5]
