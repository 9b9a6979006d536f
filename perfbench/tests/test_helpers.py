"""Unit tests for the benchmark's own helpers.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import ledger, run
from perfbench.loadgen import lateness, poisson_schedule, run_closed_loop, run_open_loop
from perfbench.oracle import check_response, check_sweep_pass
from perfbench.spans import Span, SpanStore, Window, covered, group_by_window, self_times, \
    solo_windows
from perfbench.stats import block_rates, highest_reportable, percentile, reportable, \
    samples_beyond

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Percentile selection
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([7.0], 99) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_tail_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 90) == 10
    assert reportable(100, 90)
    assert not reportable(99, 90)  # rank 90 of 99 leaves 9 beyond
    assert highest_reportable(100) == 90
    assert highest_reportable(1000) == 99
    assert highest_reportable(20) == 50
    assert highest_reportable(19) is None


def test_block_rates_span_consecutive_completions():
    done = [0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 3.1]
    # blocks 0.0->1.0, 1.0->2.5, 2.5->3.1; the first completion only opens a block
    assert block_rates(done, 2) == pytest.approx([2 / 1.0, 2 / 1.5, 2 / 0.6])
    assert block_rates(list(reversed(done)), 3) == pytest.approx([3 / 2.0, 3 / 1.1])
    assert block_rates([1.0, 2.0], 2) == []
    with pytest.raises(ValueError):
        block_rates(done, 0)


def test_sweep_figures_sum_per_cell_lower_quartiles():
    # four passes of two cells; the slow pass (host spell) does not move the figure
    cells = [[10.0, 20.0], [11.0, 21.0], [12.0, 22.0], [50.0, 90.0]]
    latency, p50, rate = run._sweep_figures(
        {"cell_ms": cells, "pass_ms": [sum(c) for c in cells]})
    assert latency == 10.0 + 20.0
    assert p50 == 32.0
    assert rate == pytest.approx(2 / 32.0 * 1000.0)  # p75 of the per-pass rates


# ----------------------------------------------------------------------
# Self-time subtraction
# ----------------------------------------------------------------------
def test_covered_merges_overlaps_and_clips():
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == pytest.approx(6.0)
    assert covered((0.0, 10.0), []) == 0.0
    assert covered((0.0, 10.0), [(-5.0, 20.0)]) == pytest.approx(10.0)


def test_self_time_subtracts_only_direct_children():
    spans = [
        Span(1, "parent", 0.0, 10.0),
        Span(2, "child", 1.0, 4.0, parent=1),
        Span(3, "child", 3.0, 6.0, parent=1),
        Span(4, "grandchild", 1.5, 2.0, parent=2),
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(5.0)  # 10 - union([1,4], [3,6]) = 10 - 5
    assert st[2] == pytest.approx(2.5)
    assert st[4] == pytest.approx(0.5)


def test_span_store_links_parents_per_thread():
    store = SpanStore()

    def inner():
        time.sleep(0.002)

    def outer():
        time.sleep(0.001)
        store.timed_call("inner", inner, (), {})

    store.timed_call("outer", outer, (), {}, request_id="req-1")
    other = threading.Thread(target=store.timed_call, args=("lonely", inner, (), {}))
    other.start()
    other.join(timeout=10)
    assert not other.is_alive()
    spans = {s.name: s for s in store.spans()}
    assert spans["inner"].parent == spans["outer"].sid
    assert spans["outer"].parent is None and spans["outer"].request_id == "req-1"
    assert spans["lonely"].parent is None
    st = self_times(store.spans())
    assert st[spans["outer"].sid] == pytest.approx(
        spans["outer"].duration - spans["inner"].duration)


def test_span_store_renames_from_result_and_round_trips(tmp_path):
    store = SpanStore()

    def tag(handle, _args, _kwargs, result):
        handle.name = "renamed"
        handle.request_id = result

    assert store.timed_call("call", lambda: "req-9", (), {}, on_result=tag) == "req-9"
    store.record("wire.model_bytes", 123)
    store.dump(tmp_path / "spans.json")
    from perfbench.spans import load_spans

    spans, values = load_spans(tmp_path / "spans.json")
    assert [(s.name, s.request_id) for s in spans] == [("renamed", "req-9")]
    assert values == {"wire.model_bytes": [123]}


def test_solo_windows_and_grouping():
    windows = [Window("a", 0.0, 1.0), Window("b", 2.0, 5.0), Window("c", 4.0, 6.0),
               Window("d", 7.0, 8.0), Window("long", 9.0, 20.0), Window("e", 10.0, 11.0)]
    assert [w.key for w in solo_windows(windows)] == ["a", "d"]
    spans = [Span(1, "x", 0.1, 0.4), Span(2, "x", 0.5, 0.6), Span(3, "x", 0.9, 1.5),
             Span(4, "y", 7.2, 7.9, parent=None)]
    grouped = group_by_window([Window("a", 0.0, 1.0), Window("d", 7.0, 8.0)], spans, ["x", "y"])
    assert grouped["a"]["x"] == pytest.approx(0.4)  # span 3 spills out of the window
    assert grouped["d"] == {"y": pytest.approx(0.7)}


# ----------------------------------------------------------------------
# Schedule lateness
# ----------------------------------------------------------------------
def test_lateness_is_never_negative():
    assert lateness(10.0, 9.5) == 0.0
    assert lateness(10.0, 10.25) == pytest.approx(0.25)


def test_poisson_schedule_is_seeded():
    a = poisson_schedule(50.0, 4.0, np.random.default_rng(7))
    b = poisson_schedule(50.0, 4.0, np.random.default_rng(7))
    c = poisson_schedule(50.0, 4.0, np.random.default_rng(8))
    assert a == b and a != c
    assert all(0.0 <= t < 4.0 for t in a) and a == sorted(a)
    assert 120 < len(a) < 280


def test_open_loop_times_latency_from_due_time():
    # One connection, 60 ms per request, three requests due 10 ms apart: the
    # second and third wait for the connection, and that wait is lateness.
    def slow(_item):
        time.sleep(0.06)
        return True

    outcomes = run_open_loop([0.0, 0.01, 0.02], ["a", "b", "c"], [slow])
    assert [o.index for o in outcomes] == [0, 1, 2]
    assert outcomes[0].lateness < 0.02
    assert outcomes[1].lateness == pytest.approx(0.05, abs=0.03)
    assert outcomes[2].lateness == pytest.approx(0.10, abs=0.04)
    for o in outcomes:
        assert o.latency >= o.lateness + 0.055


def test_closed_loop_uses_one_stream_per_sender():
    seen = {0: [], 1: []}

    def sender(k):
        def send(item):
            seen[k].append(item)
            time.sleep(0.001)
            return item % 2 == 0
        return send

    streams = [iter(range(0, 10**6, 2)), iter(range(1, 10**6, 2))]
    outcomes = run_closed_loop(streams, [sender(0), sender(1)], 0.05)
    assert seen[0] and seen[1]
    assert all(x % 2 == 0 for x in seen[0]) and all(x % 2 == 1 for x in seen[1])
    assert sum(o.ok for o in outcomes) == len(seen[0])


# ----------------------------------------------------------------------
# Verdict checker
# ----------------------------------------------------------------------
EXPECTED = {
    ("deploy-0", "k0"): {"matched_bits": 432, "total_bits": 432, "wer_percent": 100.0,
                         "owned": True},
    ("deploy-0", "k1"): {"matched_bits": 210, "total_bits": 432, "wer_percent": 48.61111111111111,
                         "owned": False},
}


def _decision(key_id, **overrides):
    decision = dict(EXPECTED[("deploy-0", key_id)], key_id=key_id, suspect_id="deploy-0",
                    false_claim_probability=0.5)
    decision.update(overrides)
    return decision


def test_verdict_checker_accepts_exact_decisions():
    response = {"decisions": [_decision("k0"), _decision("k1")]}
    assert check_response(response, EXPECTED, "deploy-0", ["k0", "k1"]) == []


@pytest.mark.parametrize("field,value", [("matched_bits", 431), ("total_bits", 431),
                                         ("wer_percent", 99.99), ("owned", False)])
def test_verdict_checker_flags_each_field(field, value):
    response = {"decisions": [_decision("k0", **{field: value})]}
    problems = check_response(response, EXPECTED, "deploy-0", ["k0"])
    assert len(problems) == 1 and field in problems[0]


def test_verdict_checker_flags_missing_and_extra_keys():
    assert check_response({"decisions": [_decision("k0")]}, EXPECTED, "deploy-0", ["k0", "k1"])
    assert check_response({"decisions": [_decision("k0"), _decision("k1")]}, EXPECTED,
                          "deploy-0", ["k0"])
    assert check_response({"error": "boom"}, EXPECTED, "deploy-0", ["k0"])


def test_sweep_check_digest_and_strength_zero():
    clean = SimpleNamespace(attack="overwrite", strength=0.0, owned=True, wer_percent=100.0)
    attacked = SimpleNamespace(attack="overwrite", strength=300.0, owned=False, wer_percent=40.0)
    assert check_sweep_pass("d1", None, [clean, attacked]) == []
    assert check_sweep_pass("d1", "d1", [clean, attacked]) == []
    assert check_sweep_pass("d2", "d1", [clean])
    broken = SimpleNamespace(attack="pruning", strength=0.0, owned=True, wer_percent=99.5)
    assert check_sweep_pass("d1", "d1", [broken])


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in ledger.PER_LAYER
    ]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
