"""Smoke run of the public API on the runtime dependencies alone.

    PYTHONPATH=src python tests/floor_smoke.py

It calls each sampler route and each contraction regime once, through
the names in `rosenblatt.__all__` and `rosenblatt.contractions.__all__`
only, and asserts public invariants: finite values, same-seed draws
bit-identical, a batch's second moment equal to discrete_second_moment,
and one pinned cycle-quadrature value.  Run in an environment holding
only pyproject.toml's dependencies, at numpy's declared floor too, it
shows every numpy call path working there and no test-only module
(scipy, mpmath, pytest) imported at runtime.  The invariants themselves
are Tier-1's; this script only runs the paths.
"""
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import rosenblatt as rb
import rosenblatt.contractions as rc


def draw(kernel, grid, interval=None, *, label):
    """Two same-seed draws, bit-identical and finite, whose second moment
    is discrete_second_moment's."""
    first, again = (rb.sample_chaos(kernel, grid, 300, 5, interval=interval, return_brownian=True)
                    for _ in range(2))
    assert np.array_equal(first.values, again.values) and np.array_equal(first.brownian, again.brownian)
    assert np.isfinite(first.values).all() and np.isfinite(first.brownian).all(), label
    assert first.second_moment == rb.discrete_second_moment(kernel, grid, interval), label
    print(label, kernel.gamma.entries, interval, first.values[:2], first.second_moment)
    return first


def default(gamma, horizon=1.0):
    kernel = rb.KernelSpec(gamma, horizon=horizon)
    return kernel, rb.build_grid(kernel)


def norm(gamma, indices, images):
    return rc.contraction_norm_sq(gamma, rc.ContractionSpec(len(gamma), len(gamma), indices, images))


def main():
    print("numpy", np.version.version)

    # the sampler's routes: the q=1 fold; q=2 through M (whole interval) and
    # through the table (a late sub-interval, equal exponents); q=3 and q=4
    draw(*default((-0.8,)), label="q=1 fold")
    whole = draw(*default((-0.7, -0.65)), label="q=2 M")
    draw(*default((-0.7, -0.65)), (0.75, 1.0), label="q=2 table")
    draw(*default((-0.6, -0.6)), label="q=2 equal exponents")
    draw(*default((-0.7, -0.65, -0.6)), label="q=3")
    q4 = rb.KernelSpec((-0.6, -0.6, -0.6, -0.6))
    draw(q4, rb.build_grid(q4, cells=28), label="q=4")

    # a degenerate interval has no s-node: its values are 0 and its Brownian
    # value is B(t), read from the same noise as the whole interval's
    kernel = rb.KernelSpec((-0.7, -0.65))
    grid = rb.build_grid(kernel, cells=28)
    point = draw(kernel, grid, (0.5, 0.5), label="degenerate")
    assert not point.values.any() and point.second_moment == 0.0
    assert np.array_equal(point.brownian, draw(kernel, grid, label="28 cells").brownian)

    # at t = 2 on 18 cells, (0.3, 1.7) cuts two end panels and builds the
    # whole ones between by lag
    kernel = rb.KernelSpec((-0.7, -0.65), horizon=2.0)
    draw(kernel, rb.GridSpec(2.0, 18), (0.3, 1.7), label="t=2 lag rows")

    # face 1: at g1 = -0.5001 the far field holds nearly all of the variance
    face1 = rb.BoundaryPath(rb.Face.FIRST_EXPONENT_TO_HALF, rb.GammaVector((-0.65,)), (1e-4,))
    m2 = rb.discrete_second_moment(*default(rb.path_points(face1)[0]))
    assert m2 > 0.999, m2
    print("face 1", m2)

    # t^(2H) below float64's normal range raises; at t = 17 the default grid
    # is the unit one scaled, so m2 scales as t^(2H), H = 0.65 here
    try:
        rb.discrete_second_moment(*default((-0.7, -0.65), horizon=1e-300))
    except rb.DomainError as err:
        print("t = 1e-300:", err)
    else:
        raise AssertionError("no DomainError at t = 1e-300")
    unit, scaled = (rb.discrete_second_moment(*default((-0.7, -0.65), horizon=t)) for t in (1.0, 17.0))
    assert abs(scaled / 17.0 ** (2.0 * 0.65) - unit) <= 1e-12 * unit, (unit, scaled)
    print("self-similar m2", unit, scaled)

    # every contraction regime: empty (r=0) and full (r=q) matchings in closed
    # form, the cycle quadrature at q=2 and q=3, on two threads against serial
    cases = [((-0.7, -0.65), (), ()), ((-0.7, -0.65), (1, 2), (2, 1)), ((-0.7, -0.65), (1,), (2,)),
             ((-0.6, -0.7), (1,), (1,)), ((-0.7, -0.65, -0.6), (1,), (2,)), ((-0.9, -0.55, -0.53), (1,), (3,))]
    serial = [norm(*case) for case in cases]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = [f.result(timeout=120) for f in [pool.submit(norm, *case) for case in cases]]
    assert threaded == serial and np.isfinite(serial).all(), (threaded, serial)
    print("contraction norms, threads bit-identical", serial)
    fine = rc.contraction_norm_sq((-0.7, -0.65), rc.ContractionSpec(2, 2, (1,), (2,)), mesh_scale=1.5)
    assert abs(fine - 0.11907453446047866) <= 1e-12 * 0.11907453446047866, fine
    print("mesh_scale 1.5", fine)

    # the indicator norm and the face-1 trends
    indicator = rc.condition_i_indicator_norm((-0.7, -0.65), 0.2, 0.6)
    path = rb.BoundaryPath(rb.Face.FIRST_EXPONENT_TO_HALF, rb.GammaVector((-0.65,)), (0.05, 0.01))
    trends = [rc.ncl_condition_ii_trend(path, rc.ContractionSpec(2, 2, (1,), (2,))),
              rc.ncl_condition_iii_limit(path, rc.ContractionSpec(2, 2, (2,), (2,))),
              rb.constant_face_ratio(path)]
    assert np.isfinite([indicator] + [v for table in trends for v in table.values()]).all()
    print("indicator", indicator, "trends", [table.values() for table in trends])

    # a batch written and read back
    with tempfile.TemporaryDirectory() as scratch:
        rb.save_npz(whole, Path(scratch) / "batch.npz")
        loaded = rb.load_npz(Path(scratch) / "batch.npz")
    assert np.array_equal(loaded["values"], whole.values) and np.array_equal(loaded["brownian"], whole.brownian)
    assert loaded["hash"] == whole.content_hash()

    test_only = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath", "pytest"))
    assert not test_only, test_only
    print("done")


if __name__ == "__main__":
    main()
