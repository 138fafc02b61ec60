"""Tests of the benchmark harness itself (not of the program).

Run with ``python -m pytest perfbench/tests`` from the repository root;
``-m slow`` adds the cross-check of every committed reference.
"""

import dataclasses
import json

import pytest

from perfbench import harness, references, run, tracing
from perfbench.workloads import WORKLOADS, sample_indices

from repro.marketplace.challenge import RatingChallenge
from repro.types import RatingStream

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: Input sizes small enough for a smoke run of every workload.
TINY = {"headline": 3, "region_search": 1, "online_replay": 1, "cache_replay": 3}


def tiny_run(name, trace=False, seed=7):
    return run.run_workload(name, seed, 0.0, trace, size=TINY[name], min_ops=1)


# --------------------------------------------------------------------- #
# Percentile rule
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (19, None), (20, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert harness.highest_percentile(n) == expected


def test_samples_beyond_counts_whole_samples():
    assert harness.samples_beyond(100, 90) == 10
    assert harness.samples_beyond(99, 90) == 9
    assert harness.samples_beyond(1000, 99) == 10


def test_closed_loop_reaches_the_op_floor():
    calls = []

    def one_op_pass(stats):
        calls.append(1)
        stats.record(0.0, 0.001)
        return harness.PassResult(["d"], "d")

    stats = harness.run_closed_loop(one_op_pass, seconds=0.0, min_ops=7)
    assert stats.ops == 7 == len(calls) == len(stats.passes)
    assert stats.op_seconds() == [0.001] * 7


# --------------------------------------------------------------------- #
# Host-speed scaling
# --------------------------------------------------------------------- #


def _speed(samples):
    """A ``HostSpeed`` filled with ``(mid time, cost)`` samples."""
    speed = harness.HostSpeed()
    speed.spans.extend((mid - cost / 2, mid + cost / 2) for mid, cost in samples)
    return speed


def test_scaled_time_divides_out_a_slower_host():
    ref = harness.REFERENCE_SECONDS
    fast = _speed([(t * 0.05, ref) for t in range(200)])
    slow = _speed([(t * 0.05, 2 * ref) for t in range(200)])
    # The same work takes twice as long on the slow host: 0.2 s vs 0.4 s.
    assert fast.scaled(3.0, 3.2) == pytest.approx(0.2)
    assert slow.scaled(3.0, 3.4) == pytest.approx(0.2)


def test_scaled_time_follows_a_speed_change():
    ref = harness.REFERENCE_SECONDS
    # Full speed for 10 s, then half speed.
    speed = _speed([(t * 0.05, ref if t * 0.05 < 10 else 2 * ref) for t in range(400)])
    assert speed.scaled(2.0, 3.0) == pytest.approx(1.0)
    assert speed.scaled(15.0, 16.0) == pytest.approx(0.5)
    # A long interval is scaled piecewise across the change.
    assert speed.scaled(5.0, 15.0) == pytest.approx(5.0 + 2.5, rel=0.05)


def test_scaled_between_leaves_out_the_samples_themselves():
    ref = harness.REFERENCE_SECONDS
    speed = _speed([(1.0 + t * 0.1, ref) for t in range(10)])
    assert speed.scaled_between(0.9, 2.1) == pytest.approx(1.2 - 10 * ref)


def test_loop_stats_report_reference_seconds_with_a_speed():
    ref = harness.REFERENCE_SECONDS
    stats = harness.LoopStats(speed=_speed([(t * 0.05, 2 * ref) for t in range(100)]))
    stats.record(1.0, 1.2)
    stats.record(1.3, 1.4, op=0, group="P")
    stats.pass_spans.append((1.0, 1.4))
    stats.pass_ops.append(1)
    assert stats.op_seconds() == [pytest.approx(0.15)]
    assert stats.group_seconds() == {"P": [pytest.approx(0.05)]}
    # The pass holds seven whole samples (1.05 ... 1.35 s), left out.
    assert stats.pass_seconds() == [pytest.approx(0.2 - 7 * ref)]
    assert stats.ops_per_second() == pytest.approx(1 / (0.2 - 7 * ref))


# --------------------------------------------------------------------- #
# Self time
# --------------------------------------------------------------------- #


def test_self_time_subtracts_the_union_of_children():
    #      0 [0, 10)  children 1 [1, 4) and 3 [5, 8)
    #      1 [1, 4)   child 2 [2, 3)
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 8.0]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent) == [4.0, 2.0, 1.0, 3.0]


def test_self_time_counts_overlapping_children_once():
    assert tracing.self_times([0.0, 1.0, 2.0], [10.0, 5.0, 6.0], [-1, 0, 0]) == [
        5.0, 4.0, 4.0,
    ]


def _synthetic(tracer, spans):
    """Fill a tracer with ``(name, start, end, parent, nested)`` rows."""
    ids = {name: i for i, name in enumerate(tracing.SPAN_NAMES)}
    for name, start, end, parent, nested in spans:
        tracer.name_id.append(ids[name])
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.op_id.append(0)
        tracer.nested.append(nested)


def test_span_totals_with_same_layer_and_same_name_nesting():
    between = "types.RatingStream.between"
    subset = "types.RatingStream.subset"
    tracer = tracing.Tracer(lambda: 0)
    _synthetic(tracer, [
        (between, 0.0, 4.0, -1, 0),   # between -> subset -> subset (re-entry)
        (subset, 1.0, 3.0, 0, 0),
        (subset, 1.5, 2.5, 1, 1),
    ])
    totals = tracing.span_totals(tracer)
    assert totals[between] == {"calls": 1, "busy_s": 4.0, "self_s": 2.0}
    # busy time counts the outer subset only; self time splits the two.
    assert totals[subset] == {"calls": 2, "busy_s": 2.0, "self_s": 2.0}


def test_wrapped_between_nests_subset_with_op_ids():
    stream = RatingStream("p", [0.0, 1.0, 2.0, 3.0], [1, 2, 3, 4], ["a", "b", "c", "d"])
    ops = []
    tracer = tracing.Tracer(lambda: len(ops))
    original = RatingStream.__dict__["between"]
    with tracer.active():
        assert len(stream.between(1.0, 3.0)) == 2
        ops.append(1)
        stream.subset([True, False, True, False])
    assert RatingStream.__dict__["between"] is original
    names = [tracing.SPAN_NAMES[i] for i in tracer.name_id]
    assert names == [
        "types.RatingStream.between", "types.RatingStream.subset", "types.RatingStream.subset",
    ]
    assert list(tracer.parent) == [-1, 0, -1]
    assert list(tracer.op_id) == [0, 0, 1]
    totals = tracing.span_totals(tracer)
    between = totals["types.RatingStream.between"]
    inner = tracer.end[1] - tracer.start[1]
    assert between["self_s"] == pytest.approx(between["busy_s"] - inner)


def test_classmethod_and_property_boundaries_are_restored():
    from repro.exec.tasks import EvalTask

    raw_from = RatingStream.__dict__["from_ratings"]
    raw_fp = EvalTask.__dict__["fingerprint"]
    tracer = tracing.Tracer(lambda: 0)
    with tracer.active():
        assert isinstance(RatingStream.__dict__["from_ratings"], classmethod)
        assert isinstance(EvalTask.__dict__["fingerprint"], property)
        assert len(RatingStream.from_ratings("p", [])) == 0
    assert RatingStream.__dict__["from_ratings"] is raw_from
    assert EvalTask.__dict__["fingerprint"] is raw_fp
    assert [tracing.SPAN_NAMES[i] for i in tracer.name_id] == ["types.RatingStream.from_ratings"]


# --------------------------------------------------------------------- #
# Digests and correctness checks
# --------------------------------------------------------------------- #


def test_digest_sees_one_ulp():
    import numpy as np

    x = 0.1
    assert harness.digest_floats("a", x) == harness.digest_floats("a", x)
    assert harness.digest_floats("a", x) != harness.digest_floats("a", np.nextafter(x, 1.0))
    assert harness.digest_floats("a", x) != harness.digest_floats("b", x)


def test_digest_stable_across_two_in_process_runs():
    first = tiny_run("headline")
    second = tiny_run("headline")
    assert first["correct"] and second["correct"]
    assert first["info"]["digest"] == second["info"]["digest"]
    assert first["info"]["max_mp"] == second["info"]["max_mp"]


def test_sample_indices_cover_both_ends():
    assert sample_indices(60, 4) == [0, 20, 39, 59]
    assert sample_indices(1, 4) == [0]
    assert sample_indices(0, 4) == []


def _corrupt_first_evaluation(monkeypatch):
    """Make the first ``RatingChallenge.evaluate`` return a wrong total."""
    original = RatingChallenge.evaluate
    calls = []

    def evaluate(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        calls.append(1)
        if len(calls) == 1:
            result = dataclasses.replace(result, total=result.total + 1e-9)
        return result

    monkeypatch.setattr(RatingChallenge, "evaluate", evaluate)


def test_fail_frac_counts_an_injected_wrong_result(monkeypatch):
    _corrupt_first_evaluation(monkeypatch)
    result = run.run_workload("headline", 7, 0.0, False, size=3, min_ops=6)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["info"]["fail_frac"] == result["failed"] / result["attempted"] > 0


def test_wrong_result_fails_the_command(monkeypatch, capsys):
    _corrupt_first_evaluation(monkeypatch)
    monkeypatch.setattr(WORKLOADS["headline"], "size", 3)
    monkeypatch.setattr(harness, "MIN_OPS", 6)
    assert run.main(["--workload", "headline", "--seconds", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] >= 1


def test_reference_mismatch_fails_every_op(monkeypatch):
    wrong = {"seed": 7, "size": 3, "digest": "0" * 32, "max_mp": {}}
    monkeypatch.setattr(references, "lookup", lambda name, seed, size: wrong)
    result = tiny_run("headline")
    assert result["failed"] == result["attempted"] and not result["correct"]


def test_reference_lookup_only_for_its_seed_and_size():
    size = WORKLOADS["headline"].size
    assert references.lookup("headline", 2008, size) is not None
    assert references.lookup("headline", 7, size) is None
    assert references.lookup("headline", 2008, 3) is None


# --------------------------------------------------------------------- #
# Smoke runs and the metric contract
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke_run(name):
    result = tiny_run(name)
    assert result["correct"], result["notes"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(body["value"] > 0 for body in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_run_reports_every_layer_metric(name):
    result = tiny_run(name, trace=True)
    assert result["correct"], result["notes"]
    assert list(result["metrics"]) == tracing.per_layer_names()
    assert result["metrics"]["trace_overhead"]["value"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == tracing.per_layer_names()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_fast_references_match_the_program():
    from repro.experiments.context import ExperimentContext

    refs = references.load()
    context = ExperimentContext(seed=2008, population_size=refs["headline"]["size"])
    assert refs["headline"]["max_mp"]["SA"] == context.max_total_mp("SA")
    context = ExperimentContext(seed=2008, population_size=refs["cache_replay"]["size"])
    assert refs["cache_replay"]["max_mp"] == {"SA": context.max_total_mp("SA")}


@pytest.mark.parametrize("name", ["online_replay", "cache_replay"])
def test_committed_reference_is_a_fresh_first_pass(name, tmp_path):
    workload = WORKLOADS[name]
    state = workload.setup(2008, workload.size, tmp_path)
    try:
        first = workload.run_pass(state, harness.LoopStats())
    finally:
        workload.cleanup(state)
    assert references.entry(2008, workload.size, first) == references.load()[name]


@pytest.mark.slow
def test_every_reference_matches_the_program():
    from repro.experiments.context import ExperimentContext
    from repro.experiments.figures import run_region_search_figure

    refs = references.load()
    context = ExperimentContext(seed=2008, population_size=refs["headline"]["size"])
    assert refs["headline"]["max_mp"] == {
        scheme: context.max_total_mp(scheme) for scheme in ("P", "SA", "BF")
    }
    figure = run_region_search_figure(
        context, "P", probes_per_subarea=refs["region_search"]["size"]
    )
    assert refs["region_search"]["max_mp"] == {"P": figure.search.best_mp}
