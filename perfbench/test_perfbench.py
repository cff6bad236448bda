"""Quick tests of the benchmark's own arithmetic.

    python3 -m pytest -q perfbench
"""

import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import suite  # noqa: E402
import tracer  # noqa: E402
from workloads import mismatches  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 6] > b [2, 4]; root > c [7, 9]
    starts = [0.0, 1.0, 2.0, 7.0]
    ends = [10.0, 6.0, 4.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert tracer.self_times(starts, ends, parents) == [3.0, 3.0, 2.0, 2.0]


def test_step_durations_run_from_newton_start_to_next():
    names = ["harness.simulate", "solver.newton", "solver.linear_solve",
             "solver.newton", "solver.newton"]
    starts = [0.0, 1.0, 1.5, 3.0, 6.0]
    ends = [10.0, 2.5, 2.0, 5.0, 8.0]
    parents = [-1, 0, 1, 0, 0]
    assert tracer.step_durations(names, starts, ends, parents) == [2.0, 3.0,
                                                                   4.0]


@pytest.mark.parametrize("q, expected", [(0, 1.0), (50, 2.5), (99, 3.97),
                                          (100, 4.0)])
def test_percentile_interpolates_like_numpy(q, expected):
    assert tracer.percentile([4.0, 1.0, 3.0, 2.0], q) == pytest.approx(expected)


def test_percentile_of_nothing_is_zero():
    assert tracer.percentile([], 99) == 0.0


def test_tracer_reports_every_layer_with_zero_for_silent_wrappers():
    # newton [0, 10] > linear_solve [1, 6] > lu_factor [2, 3], [3.5, 5]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 3.5, 5.0, 6.0, 10.0])
    t = tracer.Tracer(clock=lambda: next(ticks))
    factor = t.wrap("solver.lu_factor", lambda: None)
    solve = t.wrap("solver.linear_solve", lambda: (factor(), factor()))
    t.wrap("solver.newton", solve)()
    m = t.layer_metrics(wall_s=20.0)
    assert m["solver.newton_self_s"] == 5.0
    assert m["solver.linear_solve_self_s"] == 2.5
    assert m["solver.lu_factor_s"] == 2.5
    assert m["solver.factorizations"] == 2
    assert m["solver.lu_factor_ms_p50"] == 1250.0
    assert m["trace.coverage"] == 0.5
    assert m["scheme.residual_calls"] == 0
    assert m["harness.errors_s"] == 0.0
    assert m["harness.steps"] == 0
    names = set(tracer.SPAN_METRICS.values()) | set(tracer.COUNTERS)
    assert names <= set(m)


def test_spec_lists_exactly_the_reported_layer_metrics():
    t = tracer.Tracer()
    reported = set(t.layer_metrics(wall_s=1.0)) | {"trace.overhead"}
    assert {m["name"] for m in suite.SPEC["per_layer"]} == reported


def test_quartile_spread_matches_statistics_quantiles():
    values = [9.0, 10.0, 10.5, 11.0, 12.0, 10.2, 9.8, 10.1, 10.4, 30.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert suite.quartiles(values) == (q1, med, q3)
    assert suite.spread(values) == pytest.approx((q3 - q1) / med)
    assert suite.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_worsening_respects_direction():
    assert suite.worsening({"better": "lower"}, 10.0, 11.0) == pytest.approx(0.1)
    assert suite.worsening({"better": "higher"}, 10.0, 11.0) == pytest.approx(-0.1)


def test_mismatches_compare_floats_relatively_and_the_rest_exactly():
    ref = {"erru": [0.5, None], "newton_max": [5], "ok": True}
    assert mismatches(ref, {"erru": [0.5 * (1 + 1e-12), None],
                            "newton_max": [5], "ok": True}) == []
    assert len(mismatches(ref, {"erru": [0.5 * (1 + 1e-6), None],
                                "newton_max": [6], "ok": True})) == 2
    assert mismatches(ref, {"erru": [0.5], "newton_max": [5], "ok": True})
