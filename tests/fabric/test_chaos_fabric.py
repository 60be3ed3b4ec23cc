"""Chaos suite: the three worker failure modes, injected at seeded points.

Each test runs a real chunked normal-equations sweep on the ``procpool``
backend with a fault injected into the worker pool — SIGKILL (abrupt
death), SIGSTOP (hung: heartbeats stop, process lingers) or a wedge
(heartbeats keep flowing, the task never finishes) — at a task ordinal
drawn from a seeded RNG, and asserts the recovered ``(B, c)`` stacks are
**byte-identical** to an undisturbed run.  Row/segment independence is
what makes this possible: re-dispatching a lost chunk to another worker
replays the exact same IEEE operation sequence.  The last test stops a
worker while a multi-MiB task frame is still buffered for it, proving the
supervisor's ``select`` write set cannot hide a stuck worker from the
heartbeat check.

Marked ``chaos`` (excluded from tier-1): these tests SIGKILL/SIGSTOP
child processes and take seconds of wall clock on heartbeat timeouts.
"""

import os
import signal

import numpy as np
import pytest

from repro.core.core_tensor import initialize_core, initialize_factors
from repro.core.row_update import build_mode_context
from repro.fabric import Task, TaskSupervisor
from repro.fabric.worker import (
    INJECT_AT_ENV,
    INJECT_KILL_ENV,
    INJECT_STOP_ENV,
    INJECT_WEDGE_ENV,
)
from repro.kernels import concatenated_segment_starts, segment_positions
from repro.kernels.backends import ProcpoolBackend, resolve_backend
from repro.metrics import Counters
from repro.resilience import BackoffPolicy

pytestmark = pytest.mark.chaos

FAST_BACKOFF = BackoffPolicy(base=0.01, cap=0.1, jitter="none")


def _mode_inputs(tensor, mode=0):
    context = build_mode_context(tensor, mode)
    positions = segment_positions(context.row_starts, context.row_counts)
    starts = concatenated_segment_starts(context.row_counts)
    return (
        context.sorted_indices[positions],
        context.sorted_values[positions],
        starts,
    )


@pytest.fixture()
def sweep(planted_small):
    """Inputs plus the undisturbed serial reference stacks."""
    tensor = planted_small.tensor
    factors = initialize_factors(
        tensor.shape, (3, 3, 3), np.random.default_rng(0)
    )
    core = initialize_core((3, 3, 3), np.random.default_rng(1))
    indices, values, starts = _mode_inputs(tensor)
    kernel = resolve_backend("numpy").make_normal_equations_kernel(
        factors, core, 0, indices.shape[0]
    )
    b_ref, c_ref = kernel(indices, values, starts)
    return factors, core, indices, values, starts, b_ref, c_ref


def _disturbed_run(sweep, counters, task_deadline=None, **supervisor_kwargs):
    """One procpool sweep on a freshly spawned (fault-primed) pool."""
    factors, core, indices, values, starts, b_ref, c_ref = sweep
    supervisor = TaskSupervisor(
        2,
        task_deadline=task_deadline,
        backoff=FAST_BACKOFF,
        counters=counters,
        name="chaos",
        **supervisor_kwargs,
    )
    backend = ProcpoolBackend(
        n_workers=2, min_chunk_entries=8, supervisor=supervisor
    )
    try:
        kernel = backend.make_normal_equations_kernel(
            factors, core, 0, indices.shape[0]
        )
        b_pp, c_pp = kernel(indices, values, starts)
    finally:
        supervisor.shutdown()
    assert b_pp.tobytes() == b_ref.tobytes()
    assert c_pp.tobytes() == c_ref.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sigkill_mid_sweep_is_byte_invisible(
    sweep, tmp_path, monkeypatch, seed
):
    """A worker SIGKILLed at a seeded-random task ordinal changes nothing."""
    fire_at = int(np.random.default_rng(seed).integers(1, 3))
    monkeypatch.setenv(INJECT_KILL_ENV, str(tmp_path / "kill"))
    monkeypatch.setenv(INJECT_AT_ENV, str(fire_at))
    counters = Counters()
    _disturbed_run(sweep, counters)
    assert counters.get("fabric.workers_died") >= 1
    assert counters.get("fabric.redispatches") >= 1


@pytest.mark.parametrize("seed", [3, 4])
def test_sigstop_mid_sweep_is_byte_invisible(
    sweep, tmp_path, monkeypatch, seed
):
    """A SIGSTOPped worker is recovered — by the straggler hedge (an idle
    worker duplicates the stuck chunk) or, failing that, by the missed
    heartbeats — with byte-identical output either way."""
    fire_at = int(np.random.default_rng(seed).integers(1, 3))
    monkeypatch.setenv(INJECT_STOP_ENV, str(tmp_path / "stop"))
    monkeypatch.setenv(INJECT_AT_ENV, str(fire_at))
    counters = Counters()
    _disturbed_run(
        sweep, counters, heartbeat_interval=0.1, hedge_after=0.2
    )
    recovered = (
        counters.get("fabric.hedges") + counters.get("fabric.workers_hung")
    )
    assert recovered >= 1


def test_sigstop_without_hedging_uses_hung_detection(
    sweep, tmp_path, monkeypatch
):
    """With hedging off, only the heartbeat silence can catch a SIGSTOP."""
    monkeypatch.setenv(INJECT_STOP_ENV, str(tmp_path / "stop"))
    counters = Counters()
    _disturbed_run(
        sweep, counters, heartbeat_interval=0.1, hedge=False
    )
    assert counters.get("fabric.workers_hung") >= 1
    assert counters.get("fabric.redispatches") >= 1


def test_wedged_task_is_caught_by_the_deadline(sweep, tmp_path, monkeypatch):
    """A wedge heartbeats forever; only the per-task deadline catches it."""
    monkeypatch.setenv(INJECT_WEDGE_ENV, str(tmp_path / "wedge"))
    counters = Counters()
    _disturbed_run(
        sweep, counters, task_deadline=1.0, hedge=False,
        heartbeat_interval=0.1,
    )
    assert counters.get("fabric.deadline_kills") >= 1
    assert counters.get("fabric.redispatches") >= 1


def test_sigstop_with_a_buffered_task_frame_is_caught_by_heartbeats(
    monkeypatch,
):
    """A worker stopped while a multi-MiB task frame still sits in its
    ``outbuf`` never turns writable, so the write set cannot keep it
    looking alive: the heartbeat budget kills it and the wave's results
    stay bitwise equal to an undisturbed run."""
    tasks = [
        Task(
            key=i,
            fn="tests.fabric.taskfns:double",
            payload=np.random.default_rng(i).standard_normal(1 << 19),
        )
        for i in range(4)
    ]  # 4 MiB per task frame, far beyond one 64 KiB pipe
    counters = Counters()
    with TaskSupervisor(
        2,
        heartbeat_interval=0.1,
        hedge=False,
        backoff=FAST_BACKOFF,
        counters=counters,
        name="chaos",
    ) as supervisor:
        assert supervisor.wait_ready(30.0)
        reference = supervisor.run_tasks(tasks)

        victim = supervisor.pool.live_handles()[0]
        buffered_at_death = []
        on_worker_gone = supervisor._on_worker_gone

        def recording(handle, killed, reason):
            if handle is victim:
                buffered_at_death.append((reason, len(handle.outbuf)))
            on_worker_gone(handle, killed=killed, reason=reason)

        monkeypatch.setattr(supervisor, "_on_worker_gone", recording)
        os.kill(victim.pid, signal.SIGSTOP)
        disturbed = supervisor.run_tasks(tasks)

    assert [r.tobytes() for r in disturbed] == [r.tobytes() for r in reference]
    assert counters.get("fabric.workers_hung") == 1
    assert counters.get("fabric.redispatches") >= 1
    reason, buffered = buffered_at_death[0]
    assert reason == "hung"
    assert buffered > 1 << 20
