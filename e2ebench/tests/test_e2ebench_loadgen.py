"""The open-loop generator and its latency statistics."""

import asyncio
import math
import time

import pytest

import loadgen
import serving


def run(coro):
    return asyncio.run(coro)


def requests(n, kind="topk"):
    return [loadgen.Request(kind, "/x", {"i": i}) for i in range(n)]


def test_latency_is_taken_from_the_intended_send_time():
    # One slot and a 60 ms stall on the first request: the requests due
    # behind it wait for the slot, and that wait is part of their latency.
    async def send(request):
        await asyncio.sleep(0.06 if request.body["i"] == 0 else 0.001)
        return 200, {}

    phase = run(loadgen.run_phase(send, requests(4), rate=200.0, max_inflight=1))
    by_index = sorted(phase.outcomes, key=lambda o: o.intended)
    for outcome in by_index:
        assert outcome.latency == pytest.approx(outcome.done - outcome.intended)
        assert outcome.sent >= outcome.intended
    # Request 1 was due 5 ms after request 0 but could only start once the
    # stall ended: its latency includes ~55 ms of waiting.
    assert by_index[1].sent - by_index[1].intended > 0.04
    assert by_index[1].latency > 0.04


def test_generator_lateness_is_reported():
    # Blocking the event loop makes the generator late for the next request.
    async def send(request):
        if request.body["i"] == 0:
            time.sleep(0.05)
        return 200, {}

    phase = run(loadgen.run_phase(send, requests(3), rate=100.0, max_inflight=2))
    lags = phase.gen_lag()
    assert len(lags) == 3
    assert lags[0] >= 0.0
    assert lags[-1] > 0.03


def test_inflight_connections_never_exceed_the_limit():
    active = 0
    peak = 0

    async def send(request):
        nonlocal active, peak
        active += 1
        peak = max(peak, active)
        await asyncio.sleep(0.02)
        active -= 1
        return 200, {}

    phase = run(loadgen.run_phase(send, requests(20), rate=1000.0, max_inflight=2))
    assert peak == 2
    assert phase.max_inflight_seen == 2
    assert len(phase.outcomes) == 20


def test_failures_and_timeouts_count_as_misses():
    async def send(request):
        i = request.body["i"]
        if i == 0:
            await asyncio.sleep(1.0)  # times out
        if i == 1:
            return 500, {}
        if i == 2:
            return 200, {"bad": True}
        return 200, {}

    reqs = requests(10)
    for request in reqs:
        request.check = lambda payload: "bad" not in payload
    phase = run(loadgen.run_phase(send, reqs, rate=1000.0, max_inflight=4, timeout=0.05))
    assert phase.failures() == 3
    latencies = phase.latencies()
    assert latencies[-3:] == [math.inf] * 3
    # A miss is slower than any limit: the 75th percentile reaches them.
    assert loadgen.percentile(latencies, 75.0) == math.inf
    assert math.isfinite(loadgen.percentile(latencies, 50.0))


def test_percentile_matches_linear_interpolation():
    values = sorted([4.0, 1.0, 3.0, 2.0])
    assert loadgen.percentile(values, 50.0) == 2.5
    assert loadgen.percentile(values, 0.0) == 1.0
    assert loadgen.percentile(values, 100.0) == 4.0


@pytest.mark.parametrize(
    "n, expected",
    [(10000, 99.9), (1000, 99.0), (999, 98.0), (500, 98.0), (200, 95.0), (20, 50.0), (19, None)],
)
def test_reported_percentile_has_ten_samples_beyond_it(n, expected):
    pct = loadgen.highest_percentile(n)
    assert pct == expected
    if pct is not None:
        assert round(n * (100 - pct) / 100, 9) >= loadgen.MIN_BEYOND


def test_summary_prints_the_sample_count_with_its_tail():
    summary = loadgen.summarize([i / 1000 for i in range(1000)])
    assert summary["n"] == 1000
    assert summary["tail_pct"] == 99.0
    assert summary["tail_ms"] == pytest.approx(989.01)
    assert "tail_pct" not in loadgen.summarize([0.001] * 5)


def test_nominal_phase_gives_p99_ten_samples_beyond():
    assert loadgen.samples_needed(99.0) == 1000
    traffic = serving.Traffic((100, 1000, 8), seed=3)
    reqs = traffic.requests_for_topk(serving.NOMINAL_TOPK)
    n_topk = sum(1 for r in reqs if r.kind == "topk")
    assert n_topk >= serving.NOMINAL_TOPK
    assert loadgen.highest_percentile(n_topk) >= 99.0
    assert sum(1 for r in reqs if r.kind == "predict") == len(reqs) // 10


def test_traffic_is_seeded():
    first = serving.Traffic((100, 1000, 8), seed=5).requests(50)
    again = serving.Traffic((100, 1000, 8), seed=5).requests(50)
    other = serving.Traffic((100, 1000, 8), seed=6).requests(50)
    assert [r.body for r in first] == [r.body for r in again]
    assert [r.body for r in first] != [r.body for r in other]
