"""Tests of the benchmark's own arithmetic: the tail-percentile rule, self
time from nested spans, and failure counting.

    python3 -m pytest -q perfbench
"""
import json
import sys
import time
import types
from pathlib import Path

import pytest

import run
import stats
import tracing


def test_tail_is_the_eleventh_largest_at_its_nearest_rank_percentile():
    value, pct, n = stats.tail_latency(range(100, 0, -1))
    assert (value, pct, n) == (90.0, 90.0, 100)
    value, pct, n = stats.tail_latency([5.0] * 3 + [1.0] * 8)
    assert (value, n) == (1.0, 11)
    assert pct == pytest.approx(100.0 / 11)


def test_tail_leaves_exactly_ten_samples_beyond_it():
    xs = [0.1 * k for k in range(37)]
    value, pct, n = stats.tail_latency(xs)
    assert sum(x > value for x in xs) == stats.MIN_BEYOND
    assert pct == pytest.approx(100.0 * 27 / 37) and n == 37


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail_latency([1.0] * 10)


def test_self_time_subtracts_child_coverage():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("d", 2.0, 3.0, 1),
        ("c", 5.0, 6.0, 0),
        ("b", 7.0, 9.0, 0),
    ]
    totals = stats.layer_totals(spans)
    assert totals["a"] == {"self_s": 4.0, "calls": 1}
    assert totals["b"] == {"self_s": 4.0, "calls": 2}
    assert totals["c"]["self_s"] == totals["d"]["self_s"] == 1.0


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0.0, 10.0, -1), ("x", 1.0, 5.0, 0), ("y", 3.0, 12.0, 0)]
    assert stats.layer_totals(spans)["p"]["self_s"] == 1.0


def test_failed_ratio():
    assert stats.failed_ratio(0, 5) == 0.0
    assert stats.failed_ratio(2, 8) == 0.25
    for failed, attempted in ((0, 0), (3, 2), (-1, 2)):
        with pytest.raises(ValueError):
            stats.failed_ratio(failed, attempted)


class _Error(Exception):
    pass


class _Toy:
    """Operations return their index; odd values fail their check, every
    fourth operation raises; the run-wide check always passes."""

    def __init__(self):
        self.calls = 0
        self.prepared = False

    def _call(self, k):
        self.calls += 1
        if k % 4 == 3:
            raise _Error(f"op {k}")
        return k

    def cycle(self, index):
        return [types.SimpleNamespace(label=str(k), call=lambda k=k: self._call(k), realizations=1)
                for k in range(4 * index, 4 * index + 4)]

    def prepare(self):
        self.prepared = True

    def check(self, op, result):
        return "odd" if result % 2 else None

    def final_checks(self, done):
        return [] if all(r % 2 == 0 for _, r in done) else ["odd result passed"]


def test_errors_and_failed_checks_count_against_attempts_without_retry():
    toy = _Toy()
    records, cycles, _ = run.timed_loop(toy, _Error, 0.0, 12, lambda: run.REF_NOMINAL_S)
    assert cycles == 3 and len(records) == 12 and toy.calls == 12
    flags, messages, run_failures = run.evaluate(toy, records, _Error)
    assert toy.prepared and run_failures == []
    # per cycle: 0 passes, 1 fails its check, 2 passes, 3 raises
    assert flags == [True, False, True, False] * 3
    assert stats.failed_ratio(flags.count(False), len(records)) == 0.5
    assert sum("_Error" in m for m in messages) == 3


def test_timed_loop_runs_whole_cycles_until_enough_operations():
    records, cycles, refs = run.timed_loop(_Toy(), _Error, 0.0, 9, lambda: run.REF_NOMINAL_S)
    assert len(records) == len(refs) == 12 and cycles == 3


def test_timed_loop_budget_is_busy_time_at_nominal_speed():
    # a machine twice as slow as nominal halves every busy second
    toy = _Toy()
    toy.cycle = lambda index: [types.SimpleNamespace(label="sleep", call=lambda: time.sleep(0.01), realizations=1)]
    records, cycles, refs = run.timed_loop(toy, _Error, 0.05, 1, lambda: 2 * run.REF_NOMINAL_S)
    busy = [lat for _, _, lat in records]
    assert stats.scaled_latencies(busy, refs, run.REF_NOMINAL_S) == [0.5 * lat for lat in busy]
    assert 0.5 * sum(busy[:-1]) < 0.05 <= 0.5 * sum(busy)


def test_latency_is_scaled_by_the_reference_times_near_it():
    w = stats.REF_WINDOW
    latencies = [1.0] * (4 * w)
    refs = [1.0] * (2 * w) + [2.0] * (2 * w)  # the machine halves its speed midway
    scaled = stats.scaled_latencies(latencies, refs, nominal=1.0)
    assert scaled[0] == 1.0 and scaled[-1] == 0.5
    assert scaled[w - 1] == 1.0 and scaled[3 * w] == 0.5
    with pytest.raises(ValueError):
        stats.scaled_latencies(latencies, refs[1:], nominal=1.0)


@pytest.fixture
def toy_package():
    pkg = types.ModuleType("toypkg")
    layer = types.ModuleType("toypkg.layer")
    user = types.ModuleType("toypkg.user")
    exec(
        "def inner(x):\n    return x + 1\n"
        "def outer(x):\n    return inner(x) + inner(x)\n"
        "def _private(x):\n    return x\n",
        layer.__dict__,
    )
    user.inner = layer.inner
    modules = {"toypkg": pkg, "toypkg.layer": layer, "toypkg.user": user}
    sys.modules.update(modules)
    yield layer, user
    for name in modules:
        sys.modules.pop(name)


def test_tracer_wraps_by_name_everywhere_and_restores(toy_package):
    layer, user = toy_package
    originals = (layer.inner, layer.outer, user.inner)
    tracer = tracing.Tracer(counters={"layer.inner": lambda r: {"inner.results": r}})
    tracer.install("toypkg", ["layer"])
    try:
        assert tracer.wrapped == {"layer.inner", "layer.outer"}
        assert layer.outer(1) == 4
        assert user.inner(5) == 6
    finally:
        tracer.remove()
    assert (layer.inner, layer.outer, user.inner) == originals
    names = [(n, p) for n, _, _, p in tracer.span_tuples()]
    assert names == [("layer.outer", -1), ("layer.inner", 0), ("layer.inner", 0), ("layer.inner", -1)]
    totals = stats.layer_totals(tracer.span_tuples())
    assert totals["layer.inner"]["calls"] == 3
    outer = tracer.spans[0]
    assert totals["layer.outer"]["self_s"] <= outer[2] - outer[1]
    assert tracer.counts["inner.results"] == 2 + 2 + 6
    layer.outer(1)
    assert len(tracer.spans) == 4


def test_metric_lists_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
