"""Span recording, self times and the traced run's phase-sum check."""

import threading
import types

import pytest

import fits
import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    with tracer.span("outer"):
        clock.now += 1.0
        with tracer.span("inner"):
            clock.now += 2.0
            with tracer.span("leaf"):
                clock.now += 0.5
        clock.now += 0.25
        with tracer.span("inner"):
            clock.now += 1.0
    summary = tracer.summary()
    assert summary["outer"]["total_s"] == pytest.approx(4.75)
    assert summary["outer"]["self_s"] == pytest.approx(1.25)
    assert summary["inner"]["count"] == 2
    assert summary["inner"]["total_s"] == pytest.approx(3.5)
    assert summary["inner"]["self_s"] == pytest.approx(3.0)
    assert summary["leaf"]["self_s"] == pytest.approx(0.5)
    # Self times partition the root span.
    assert sum(s["self_s"] for s in summary.values()) == pytest.approx(4.75)


def test_patch_wraps_functions_methods_and_classmethods_then_restores():
    module = types.SimpleNamespace(double=lambda x: 2 * x)

    class Thing:
        def method(self, x):
            return x + 1

        @classmethod
        def build(cls, x):
            return cls, x

    original_double = module.double
    tracer = spans.Tracer()
    seen = []
    tracer.patch(module, "double", "m.double", lambda result, x: seen.append(result))
    tracer.patch(Thing, "method", "m.method")
    tracer.patch(Thing, "build", "m.build")
    assert module.double(3) == 6
    assert Thing().method(1) == 2
    assert Thing.build(5) == (Thing, 5)
    assert seen == [6]
    assert {name for name, *_ in tracer.spans} == {"m.double", "m.method", "m.build"}
    tracer.restore()
    assert module.double is original_double
    assert isinstance(Thing.__dict__["build"], classmethod)
    assert Thing.build(1) == (Thing, 1)


def test_after_hook_may_replace_the_result():
    module = types.SimpleNamespace(make=lambda: (lambda: "inner"))
    tracer = spans.Tracer()
    tracer.patch(module, "make", "plan", lambda result: (lambda: result() + "!"))
    assert module.make()() == "inner!"


def fake_report(fit_s, **self_times):
    summary = {name: {"count": 1, "total_s": t, "self_s": t} for name, t in self_times.items()}
    return {"summary": summary, "fit_s": fit_s}


def test_phase_sum_reconciles_with_the_traced_wall():
    report = fake_report(
        2.0,
        **{
            "tensor.load_text": 0.3,  # set-up: outside the fit wall
            "fit": 0.02,
            "core.update_factor_mode": 0.08,
            "kernels.contract": 1.2,
            "metrics.error_and_loss": 0.7,
        },
    )
    total, wall = fits.phase_sum(report)
    assert total == pytest.approx(2.0)
    assert fits.phase_check(report) == pytest.approx((0.0, 0.01))


def traced_report(tracer, clock):
    return {"summary": tracer.summary(), "fit_s": clock.now}


def test_phase_sum_holds_by_construction_for_spans_under_the_root():
    # Self times of spans nested under the fit root partition its wall,
    # so only the uncovered share (core.other_s) can exceed the tolerance.
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    with tracer.span("fit"):
        clock.now += 0.5
        with tracer.span("kernels.contract"):
            clock.now += 1.5
    gap, other = fits.phase_check(traced_report(tracer, clock))
    assert gap == pytest.approx(0.0)
    assert other == pytest.approx(0.25)
    assert other > fits.PHASE_SUM_TOLERANCE


def test_phase_sum_flags_spans_recorded_outside_the_fit_root():
    # A span from another thread has no parent under the root: its time
    # overlaps the root's and opens a gap between the phase sum and wall.
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def worker():
        with tracer.span("kernels.contract"):
            clock.now += 0.5

    with tracer.span("fit"):
        with tracer.span("core.update_factor_mode"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            clock.now += 0.01
    gap, other = fits.phase_check(traced_report(tracer, clock))
    assert gap == pytest.approx(0.5 / 0.51)
    assert gap > fits.PHASE_SUM_TOLERANCE
    assert other == pytest.approx(0.0)


def test_iteration_times_come_from_the_spans():
    import fitchild

    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    with tracer.span("fit"):
        for seconds in (1.0, 3.0):
            for _ in range(3):
                with tracer.span("core.update_factor_mode"):
                    clock.now += seconds / 4
            with tracer.span("metrics.error_and_loss"):
                clock.now += seconds / 4
    assert fitchild.iteration_times(tracer) == pytest.approx([1.0, 3.0])
