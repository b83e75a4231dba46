"""Tests of the benchmark's own logic: generators, tail rule, span arithmetic.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
import pytest

import benchenv

benchenv.use_source_tree()

import gen  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from msinv.frame import load_survey, validate  # noqa: E402


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _survey(seed, scale, subset):
    return gen.survey_tables(np.random.default_rng([seed, 0]), scale, subset)


@pytest.fixture(scope="module")
def subset():
    return gen.make_subset_module()


def test_generators_are_deterministic_per_seed(subset):
    assert _survey(7, 1.0, subset) == _survey(7, 1.0, subset)
    assert _survey(7, 1.0, subset) != _survey(8, 1.0, subset)
    for shape in gen.MICRO_SHAPES:
        a = gen.micro_population(np.random.default_rng(3), shape)
        assert a == gen.micro_population(np.random.default_rng(3), shape)
        assert a != gen.micro_population(np.random.default_rng(4), shape)
    assert (gen.plan_scenario(np.random.default_rng(3))
            == gen.plan_scenario(np.random.default_rng(3)))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("scale", [0.5, 4.0])
def test_generated_surveys_cover_the_subset_structure(tmp_path, subset, seed, scale):
    paths = gen.write_survey(tmp_path, _survey(seed, scale, subset))
    frame = load_survey(paths["passes"], paths["frame"], paths["strata"])
    diag = validate(frame)
    assert any(c.is_well for c in frame.components.values())
    assert diag.zero_detection_strata
    assert diag.single_day_components
    assert set(frame.passes_per_day.values()) == {1, 2, 3, 4, 5}


def test_survey_sizes_span_half_to_four_times_the_subset():
    scales = gen.survey_scales(12)
    assert scales[0] == pytest.approx(0.5) and scales[-1] == pytest.approx(4.0)
    assert scales == sorted(scales)


# ---------------------------------------------------------------------------
# Tail percentile
# ---------------------------------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail_percentile(range(1, 101)) == (90, 90.0, 10)
    assert run.tail_percentile(range(1, 1001)) == (990, 99.0, 10)
    assert run.tail_percentile(list(range(20, 0, -1))) == (10, 50.0, 10)


def test_tail_falls_back_to_the_maximum_below_twenty_samples():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail_percentile(range(19)) == (18, 100.0, 0)
    with pytest.raises(ValueError):
        run.tail_percentile([])


def test_speed_adjustment_uses_the_probes_around_each_request():
    probes = [(0.0, 0.002), (1.0, 0.004), (3.0, 0.006)]
    requests = [(0.5, 0.9), (1.5, 2.5)]
    ref = run.PROBE_REF_S
    assert run.speed_adjusted(requests, probes) == pytest.approx(
        [0.4 * ref / 0.003, 1.0 * ref / 0.005])


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def _span(id_, name, start, end, parent=None, cpu=None):
    return tracing.Span(id_, name, start, end, end - start if cpu is None else cpu, parent, 0)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        _span(0, "p", 0.0, 10.0),
        _span(1, "a", 1.0, 3.0, parent=0),
        _span(2, "b", 2.0, 5.0, parent=0),   # overlaps a, as from another thread
        _span(3, "c", 8.0, 12.0, parent=0),  # outlives its parent
        _span(4, "g", 1.5, 2.5, parent=1),   # grandchild: only a loses it
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({0: 10.0 - 4.0 - 2.0, 1: 1.0, 2: 3.0, 3: 4.0, 4: 1.0})


def test_span_totals_busy_self_wait_and_calls():
    spans = [
        _span(0, "p", 0.0, 10.0, cpu=6.0),
        _span(1, "x", 1.0, 3.0, parent=0, cpu=2.0),
        _span(2, "x", 2.0, 5.0, parent=0, cpu=1.0),
    ]
    totals = tracing.span_totals(spans)
    assert totals["x"]["s"] == pytest.approx(4.0)        # union, not 5
    assert totals["x"]["self_s"] == pytest.approx(5.0)
    assert totals["x"]["wait_s"] == pytest.approx(2.0)
    assert totals["x"]["calls"] == 2
    assert totals["p"]["self_s"] == pytest.approx(6.0)
    assert totals["p"]["wait_s"] == pytest.approx(4.0)


def test_calls_under_follows_the_parent_chain():
    spans = [
        _span(0, "run_mc", 0.0, 10.0),
        _span(1, "mid", 1.0, 9.0, parent=0),
        _span(2, "prep", 2.0, 3.0, parent=1),
        _span(3, "prep", 11.0, 12.0),
    ]
    assert tracing.calls_under(spans, "prep", "run_mc") == 1


def test_tracer_patches_callers_and_restores_them(tmp_path):
    from msinv import cli, estimators, measurement

    originals = (cli.main, measurement.estimate_survey, estimators.estimate_survey)
    tracer = tracing.Tracer()
    tracer.request = 5
    tracer.install()
    try:
        workloads.run_cli(["estimate", "--packaged", "--out-dir", str(tmp_path)])
    finally:
        tracer.remove()
    assert (cli.main, measurement.estimate_survey, estimators.estimate_survey) == originals
    by_id = {s.id: s for s in tracer.spans}
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "frame.load_survey", "measurement.bias_corrected_inventory",
            "estimators.total_inventory", "estimators.estimate_survey",
            "reporting.write_report_json"} <= names
    (root,) = [s for s in tracer.spans if s.parent is None]
    assert root.name == "cli.main"
    for s in tracer.spans:
        assert s.request == 5
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
    assert tracer.counts["frame.passes_loaded"] == 847
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, 1)
    assert metrics["estimators.total_inventory.s"] > 0
    assert metrics["cli.main.self_s"] > 0


def test_tracer_counts_survive_concurrent_threads():
    tracer = tracing.Tracer()
    traced = tracer.wrap("f", lambda: 1, lambda args, kwargs, result: {"n": result})
    calls, threads = 2000, 4
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: [traced() for _ in range(calls)])
                   for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(w.is_alive() for w in workers)
    assert tracer.counts["n"] == calls * threads
    assert len(tracer.spans) == calls * threads
    assert len({s.id for s in tracer.spans}) == calls * threads


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what the runner prints
# ---------------------------------------------------------------------------


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layer = tracing.layer_metrics([], {}, 1)
    layer.update({"trace.overhead_frac": 0.0, "failed_frac": 0.0})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: run._layer_unit(k) for k in layer}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
