"""Tier-1 tests for the task supervisor: dispatch, setups, failures.

These spawn real worker processes but keep them few and the work tiny,
so the suite stays inside the default run.  The violent fault-injection
scenarios (SIGKILL/SIGSTOP/wedge mid-sweep) live in
``test_chaos_fabric.py`` behind the ``chaos`` marker.
"""

import time

import numpy as np
import pytest

from repro.fabric import (
    PoisonedTaskError,
    Task,
    TaskRetryError,
    TaskSupervisor,
)
from repro.metrics import Counters
from repro.resilience import BackoffPolicy

TASKFNS = "tests.fabric.taskfns"

#: Fast backoff so failure tests spend milliseconds, not seconds.
FAST_BACKOFF = BackoffPolicy(base=0.01, cap=0.05, jitter="none")


@pytest.fixture(scope="module")
def supervisor():
    """One warm two-worker pool shared by the happy-path tests."""
    with TaskSupervisor(2, name="test-fabric") as sup:
        # Every worker said HELLO before the first wave, so a slow starter
        # cannot lose its first task to a hedge and skew later tests.
        assert sup.wait_ready(30.0)
        yield sup


def _tasks(fn, payloads):
    return [
        Task(key=i, fn=f"{TASKFNS}:{fn}", payload=p)
        for i, p in enumerate(payloads)
    ]


class TestDispatch:
    def test_results_in_submission_order(self, supervisor):
        results = supervisor.run_tasks(_tasks("double", [1, 2, 3, 4, 5]))
        assert results == [2, 4, 6, 8, 10]

    def test_numpy_payloads_roundtrip(self, supervisor):
        arrays = [np.arange(4, dtype=np.float64) * i for i in range(3)]
        results = supervisor.run_tasks(_tasks("echo", arrays))
        for sent, received in zip(arrays, results):
            np.testing.assert_array_equal(sent, received)

    def test_work_spreads_across_workers(self, supervisor):
        # Enough slow-ish tasks that both workers must participate.
        pids = supervisor.run_tasks(_tasks("pid", [5] * 8))
        assert len(set(pids)) == 2

    def test_empty_task_list(self, supervisor):
        assert supervisor.run_tasks([]) == []

    def test_supervisor_usable_after_many_rounds(self, supervisor):
        for round_no in range(3):
            assert supervisor.run_tasks(
                _tasks("double", [round_no])
            ) == [2 * round_no]


class TestSetups:
    def test_broadcast_setup_visible_to_tasks(self, supervisor):
        supervisor.broadcast_setup(
            "shared", f"{TASKFNS}:setup_store", {"answer": 41}
        )
        results = supervisor.run_tasks(_tasks("read_setup", ["shared"] * 2))
        assert results == [{"answer": 41}, {"answer": 41}]

    def test_wait_ready_reports_caught_up_pool(self, supervisor):
        supervisor.broadcast_setup(
            "shared2", f"{TASKFNS}:setup_store", {"answer": 42}
        )
        assert supervisor.wait_ready(30.0)
        assert supervisor.ready()

    def test_liveness_shape(self, supervisor):
        supervisor.wait_ready(30.0)
        report = supervisor.liveness()
        assert len(report) == 2
        for entry in report:
            assert entry["alive"] is True
            assert isinstance(entry["pid"], int)
            assert entry["setup_caught_up"] is True


class TestFailures:
    def test_deterministic_error_propagates_with_remote_traceback(self):
        with TaskSupervisor(1, backoff=FAST_BACKOFF) as sup:
            with pytest.raises(ValueError, match="boom payload") as excinfo:
                sup.run_tasks(_tasks("boom", ["boom payload"]))
            notes = getattr(excinfo.value, "__notes__", [])
            assert any("remote worker traceback" in n for n in notes)
            # The pool survives a task error: the next round still works.
            assert sup.run_tasks(_tasks("double", [21])) == [42]

    def test_error_does_not_consume_retry_budget(self):
        counters = Counters()
        with TaskSupervisor(
            1, backoff=FAST_BACKOFF, counters=counters
        ) as sup:
            with pytest.raises(ValueError):
                sup.run_tasks(_tasks("boom", ["x"]))
        assert counters.get("fabric.redispatches") == 0

    def test_poisoned_task_names_key_and_kills(self):
        counters = Counters()
        with TaskSupervisor(
            2,
            backoff=FAST_BACKOFF,
            poison_threshold=2,
            max_task_retries=5,
            counters=counters,
        ) as sup:
            with pytest.raises(PoisonedTaskError) as excinfo:
                sup.run_tasks(_tasks("die", [None]))
            assert excinfo.value.kills == 2
            assert excinfo.value.key[1] == 0  # (run_id, task.key)
        assert counters.get("fabric.workers_died") >= 2

    def test_retry_budget_exhaustion_raises_taskretryerror(self):
        # poison_threshold above max_task_retries so the retry budget is
        # what gives out; every attempt lands on the same dying task.
        with TaskSupervisor(
            1,
            backoff=FAST_BACKOFF,
            poison_threshold=99,
            max_task_retries=1,
        ) as sup:
            with pytest.raises(TaskRetryError) as excinfo:
                sup.run_tasks(_tasks("die", [None]))
            assert excinfo.value.keys  # names the unfinished task keys

    def test_worker_death_redispatches_and_completes(self, tmp_path):
        """One abrupt worker death mid-batch is invisible in the results."""
        import os

        from repro.fabric.worker import INJECT_KILL_ENV

        counters = Counters()
        old = os.environ.get(INJECT_KILL_ENV)
        os.environ[INJECT_KILL_ENV] = str(tmp_path / "kill-once")
        try:
            with TaskSupervisor(
                2, backoff=FAST_BACKOFF, counters=counters
            ) as sup:
                results = sup.run_tasks(_tasks("double", list(range(8))))
        finally:
            if old is None:
                del os.environ[INJECT_KILL_ENV]
            else:  # pragma: no cover - env hygiene
                os.environ[INJECT_KILL_ENV] = old
        assert results == [2 * i for i in range(8)]
        assert counters.get("fabric.workers_died") >= 1
        assert counters.get("fabric.redispatches") >= 1


class TestHedging:
    def test_hedged_duplicate_first_result_wins(self):
        """With one straggling task and an idle worker, a hedge fires and
        the answer is still exactly one result per task."""
        counters = Counters()
        with TaskSupervisor(
            2, hedge=True, hedge_after=0.05, counters=counters
        ) as sup:
            sup.wait_ready(30.0)
            # One slow task, nothing else: the second worker idles, the
            # hedge duplicates the straggler, first finisher wins.
            results = sup.run_tasks(_tasks("sleep_ms", [400]))
        assert results == [400]
        assert counters.get("fabric.hedges") >= 1

    def test_hedging_disabled_runs_single_copies(self):
        counters = Counters()
        with TaskSupervisor(
            2, hedge=False, counters=counters
        ) as sup:
            results = sup.run_tasks(_tasks("sleep_ms", [150]))
        assert results == [150]
        assert counters.get("fabric.hedges") == 0


class TestReadiness:
    def test_not_ready_before_hello(self):
        """An empty setup log must not count a starting worker as ready."""
        with TaskSupervisor(2, name="test-fabric-cold") as sup:
            handles = sup.pool.live_handles()
            assert not any(handle.hello_seen for handle in handles)
            assert not sup.pool.all_acked()
            assert sup.wait_ready(30.0)
            assert all(handle.hello_seen for handle in handles)

    def test_cold_pool_sends_no_work_before_hello(self):
        """Work waits for a worker that is up; none is duplicated onto an
        idle peer while a slow starter is still importing."""
        counters = Counters()
        with TaskSupervisor(
            2, hedge_after=0.1, counters=counters, name="test-fabric-cold"
        ) as sup:
            results = sup.run_tasks(_tasks("double", list(range(8))))
        assert results == [2 * i for i in range(8)]
        assert counters.get("fabric.hedges") == 0
        assert counters.get("fabric.tasks_dispatched") == 8


class TestEventLoop:
    """The parent sleeps in select; it neither spins nor stalls on writes."""

    def test_parent_sleeps_while_workers_compute(self, supervisor):
        tasks = _tasks("sleep_ms", [150] * 6)
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        results = supervisor.run_tasks(tasks, hedge=False)
        cpu = time.process_time() - cpu_start
        wall = time.perf_counter() - wall_start
        assert results == [150] * 6
        assert cpu < 0.10 * wall, (
            f"parent used {cpu:.3f}s of CPU in {wall:.3f}s of wall clock"
        )

    def test_large_setup_reaches_workers_without_stalling(self, supervisor):
        payload = np.arange(2 << 20, dtype=np.float64)  # 16 MiB
        start = time.perf_counter()
        supervisor.broadcast_setup(
            "large", f"{TASKFNS}:setup_store", payload, wait=True,
            timeout=30.0,
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"16 MiB setup took {elapsed:.2f}s"

    def test_large_payloads_roundtrip(self, supervisor):
        arrays = [
            np.random.default_rng(i).standard_normal(1 << 20)  # 8 MiB
            for i in range(4)
        ]
        results = supervisor.run_tasks(_tasks("echo", arrays))
        for sent, received in zip(arrays, results):
            assert np.array_equal(sent, received)
