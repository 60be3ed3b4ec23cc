"""The supervisor state machine: dispatch, detect, recover, hedge.

:class:`TaskSupervisor` drives a :class:`~repro.fabric.pool.WorkerPool`
through waves of tasks (:meth:`run_tasks`) while distinguishing the three
ways a worker can fail:

* **dead** — EOF on the worker's pipe or ``waitpid`` says it exited
  (SIGKILL, OOM-kill, crash).  Its unfinished task re-enters the queue
  after a decorrelated-jitter backoff delay and the slot respawns.
* **hung** — the worker missed :data:`~repro.fabric.pool.HEARTBEAT_MISSES`
  consecutive heartbeats (SIGSTOP, a wedged C extension: the heartbeat
  thread beats *through* long computations, so silence means stuck, not
  busy), or its task overran the per-task **deadline** while heartbeats
  still flowed (a wedged task in a healthy process).  Either way the
  supervisor SIGKILLs the process — the only safe recovery, since a
  stopped process may hold the task forever — and re-dispatches.
* **poisoned** — the same task killed ``poison_threshold`` workers.
  Re-dispatching would keep burning fresh workers, so the wave stops with
  :class:`PoisonedTaskError` naming the task.

Near the end of a wave, idle workers **hedge**: the slowest outstanding
task (oldest dispatch) is duplicated onto an idle worker and the first
result wins.  Results are recorded by task identity and returned in
submission order, and task functions are pure, so hedging — like every
recovery above — cannot change a single bit of the output; the chaos
suite asserts exactly that against undisturbed runs.

Exceptions *raised by* a task (an ``ERROR`` frame, as opposed to a death)
are deterministic bugs: they propagate immediately with the remote
traceback attached, never retried.

The loop is event-driven and never polls with a zero timeout.  Each step
sleeps in ``select`` until a worker pipe is **readable** (a result,
acknowledgement or heartbeat arrived), the stdin of a worker with
buffered output is **writable** (the next pipe-full of a large frame can
move on), or the **earliest timer** is due — a pending respawn or a
re-dispatch backoff gate — capped at 50 ms so heartbeat, deadline and
hedge checks keep their timing.  A task that only waits for a free
worker waits on the readable pipe its freeing ``RESULT`` arrives on, so
the parent sleeps while its workers compute.  Work is offered only to
workers that have said ``HELLO``: a task sent to a worker still starting
up would sit in its pipe while the hedge clock runs.
"""

from __future__ import annotations

import logging
import select
import time
from typing import Any, Dict, List, NamedTuple, Optional

from ..exceptions import ReproError
from ..metrics.timing import Counters
from ..resilience.retry import BackoffPolicy, Deadline
from .pool import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_SPAWN_GRACE,
    WorkerHandle,
    WorkerPool,
)
from .protocol import FrameKind, ProtocolError

logger = logging.getLogger(__name__)

#: Default extra re-dispatches a task gets after its first failed attempt.
DEFAULT_MAX_TASK_RETRIES = 3

#: Default worker kills by one task before it is declared poisoned.
DEFAULT_POISON_THRESHOLD = 3

#: Default seconds a task must have been running before it is hedged.
DEFAULT_HEDGE_AFTER = 0.2

#: Upper bound on one select() wait so time-based checks stay responsive.
_MAX_WAIT = 0.05


class FabricError(ReproError, RuntimeError):
    """Base class for supervisor-level failures."""


class TaskRetryError(FabricError):
    """A task exhausted its re-dispatch budget across worker failures."""

    def __init__(self, message: str, keys: List[Any]) -> None:
        super().__init__(message)
        self.keys = keys


class PoisonedTaskError(FabricError):
    """One task keeps killing fresh workers; re-dispatch was stopped."""

    def __init__(self, message: str, key: Any, kills: int) -> None:
        super().__init__(message)
        self.key = key
        self.kills = kills


class WorkerSetupError(FabricError):
    """A setup broadcast failed inside a worker (or never got applied)."""


class Task(NamedTuple):
    """One unit of work: an identity, a callable path, and its payload."""

    key: Any
    fn: str
    payload: Any


class _TaskState:
    __slots__ = (
        "task", "done", "result", "attempts", "kills", "running",
        "first_dispatch", "ready_at", "hedged",
    )

    def __init__(self, task: Task) -> None:
        self.task = task
        self.done = False
        self.result: Any = None
        self.attempts = 0  # failed dispatches consumed so far
        self.kills = 0  # workers this task's copies have taken down
        self.running: Dict[int, float] = {}  # worker_id -> dispatched at
        self.first_dispatch = 0.0
        self.ready_at = 0.0  # backoff gate before the next re-dispatch
        self.hedged = False


class TaskSupervisor:
    """Supervised execution of task waves over a respawning worker pool."""

    def __init__(
        self,
        n_workers: int,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        spawn_grace: float = DEFAULT_SPAWN_GRACE,
        task_deadline: Optional[float] = None,
        max_task_retries: int = DEFAULT_MAX_TASK_RETRIES,
        poison_threshold: int = DEFAULT_POISON_THRESHOLD,
        hedge: bool = True,
        hedge_after: float = DEFAULT_HEDGE_AFTER,
        backoff: Optional[BackoffPolicy] = None,
        counters: Optional[Counters] = None,
        name: str = "fabric",
    ) -> None:
        self.counters = counters if counters is not None else Counters()
        self.pool = WorkerPool(
            n_workers,
            heartbeat_interval=heartbeat_interval,
            spawn_grace=spawn_grace,
            backoff=backoff,
            counters=self.counters,
        )
        self.task_deadline = task_deadline
        self.max_task_retries = int(max_task_retries)
        self.poison_threshold = int(poison_threshold)
        self.hedge = bool(hedge)
        self.hedge_after = float(hedge_after)
        self.name = name
        self._redispatch_backoff = (
            backoff
            if backoff is not None
            else BackoffPolicy(base=0.02, cap=1.0)
        )
        self._run_id = 0
        self._states: Dict[Any, _TaskState] = {}
        self._queue: List[Any] = []
        self._deaths_since_progress = 0
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the initial workers (idempotent)."""
        if self._closed:
            raise FabricError(f"{self.name}: supervisor already shut down")
        self._started = True
        self.pool.spawn_missing()

    def shutdown(self) -> None:
        if not self._closed:
            self._closed = True
            self.pool.shutdown()

    def __enter__(self) -> "TaskSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Setup broadcasts and readiness
    # ------------------------------------------------------------------
    def broadcast_setup(
        self,
        key: str,
        fn: str,
        payload: Any,
        wait: bool = False,
        timeout: float = 60.0,
        replace_prefix: Optional[str] = None,
    ) -> int:
        """Replay-logged shared state for every present and future worker.

        With ``wait=True`` the call drives the event loop until every
        slot acknowledged the full setup log (raising
        :class:`WorkerSetupError` on timeout); otherwise readiness can be
        polled later via :meth:`ready`.
        """
        self.start()
        seq = self.pool.broadcast_setup(
            key, fn, payload, replace_prefix=replace_prefix
        )
        if wait and not self.wait_ready(timeout):
            raise WorkerSetupError(
                f"{self.name}: workers did not acknowledge setup "
                f"{key!r} within {timeout}s"
            )
        return seq

    def ready(self) -> bool:
        """True when every slot is live and has applied the setup log."""
        self.poll()
        return self.pool.all_acked()

    def wait_ready(self, timeout: float) -> bool:
        deadline = Deadline.after(timeout)
        while True:
            self.poll(deadline.clamp(_MAX_WAIT))
            if self.pool.all_acked():
                return True
            if deadline.expired:
                return False

    def poll(self, wait: float = 0.0) -> None:
        """One supervision step with no wave running: respawn, drain, check."""
        self.start()
        self._step(wait)

    def liveness(self) -> List[Dict[str, Any]]:
        """Per-worker liveness snapshot (drains frames first)."""
        self.poll()
        return self.pool.liveness()

    # ------------------------------------------------------------------
    # Task waves
    # ------------------------------------------------------------------
    def run_tasks(
        self,
        tasks: List[Task],
        deadline: Optional[float] = None,
        hedge: Optional[bool] = None,
    ) -> List[Any]:
        """Execute one wave of tasks and return results in task order.

        ``deadline`` (seconds, per task execution) overrides the
        supervisor default; ``hedge`` likewise.  Worker deaths and hangs
        are recovered transparently; deterministic task exceptions
        propagate; :class:`TaskRetryError` / :class:`PoisonedTaskError`
        report unrecoverable waves.
        """
        if not tasks:
            return []
        self.start()
        self._run_id += 1
        run = self._run_id
        hedge = self.hedge if hedge is None else bool(hedge)
        task_deadline = self.task_deadline if deadline is None else deadline

        states: Dict[Any, _TaskState] = {}
        order: List[Any] = []
        for task in tasks:
            key = (run, task.key)
            if key in states:
                raise ValueError(f"duplicate task key {task.key!r}")
            states[key] = _TaskState(task)
            order.append(key)
        self._states = states
        self._queue = list(order)
        pending = len(order)

        try:
            while pending:
                now = time.monotonic()
                self._dispatch(self._queue, states, now, hedge)
                self._step(
                    self._wait_for(self._queue, states, now), task_deadline
                )
                pending = sum(1 for key in order if not states[key].done)
            return [states[key].result for key in order]
        finally:
            self._states = {}
            self._queue = []

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _wait_for(
        self, queue: List[Any], states: Dict[Any, _TaskState], now: float
    ) -> float:
        """Seconds until the next timer that can change the dispatch.

        Only a pending respawn or a backoff gate still in the future
        shortens the wait.  A queued task that is merely waiting for a
        free worker must not: the ``RESULT`` that frees one arrives on a
        readable pipe, which wakes the ``select`` in :meth:`_step`.
        """
        wait = _MAX_WAIT
        respawn = self.pool.next_respawn_in(now)
        if respawn is not None:
            wait = min(wait, respawn)
        for key in queue:
            ready_at = states[key].ready_at
            if ready_at > now:
                wait = min(wait, ready_at - now)
        return max(0.0, wait)

    def _dispatch(
        self,
        queue: List[Any],
        states: Dict[Any, _TaskState],
        now: float,
        hedge: bool,
    ) -> None:
        # No work before HELLO: it would age in a starting worker's pipe
        # until an idle peer hedged it.
        idle = [
            handle
            for handle in self.pool.live_handles()
            if handle.hello_seen and handle.current_task is None
        ]
        for handle in idle:
            key = self._next_queued(queue, states, now)
            duplicate = False
            if key is None:
                if not hedge or queue:
                    continue
                key = self._hedge_candidate(states, now)
                if key is None:
                    continue
                duplicate = True
            state = states[key]
            if not handle.send(
                FrameKind.TASK, (key, state.task.fn, state.task.payload)
            ):
                if not duplicate:
                    queue.append(key)
                self._on_worker_gone(handle, killed=False, reason="pipe gone")
                continue
            handle.current_task = key
            handle.task_started_at = now
            state.running[handle.worker_id] = now
            if not state.first_dispatch:
                state.first_dispatch = now
            if duplicate:
                state.hedged = True
                self.counters.add("fabric.hedges")
                logger.debug(
                    "%s: hedging slowest task %r onto idle worker %d",
                    self.name, key, handle.worker_id,
                )
            self.counters.add("fabric.tasks_dispatched")

    def _next_queued(
        self, queue: List[Any], states: Dict[Any, _TaskState], now: float
    ) -> Optional[Any]:
        for position, key in enumerate(queue):
            if states[key].ready_at <= now:
                return queue.pop(position)
        return None

    def _hedge_candidate(
        self, states: Dict[Any, _TaskState], now: float
    ) -> Optional[Any]:
        best: Optional[Any] = None
        best_started = now
        for key, state in states.items():
            if state.done or state.hedged or len(state.running) != 1:
                continue
            started = next(iter(state.running.values()))
            if now - started < self.hedge_after:
                continue
            if started < best_started:
                best, best_started = key, started
        return best

    def _step(self, wait: float, task_deadline: Optional[float] = None) -> None:
        """One event-loop iteration: respawn, wait, write, read, time checks.

        Sleeps in ``select`` until a worker pipe is readable (a frame
        arrived), a worker's stdin with buffered output is writable (the
        next pipe-full of a large frame can move on), or ``wait`` — the
        earliest timer, capped at :data:`_MAX_WAIT` — runs out.
        """
        self.pool.spawn_missing(time.monotonic())
        readers: Dict[int, WorkerHandle] = {}
        writers: Dict[int, WorkerHandle] = {}
        for handle in list(self.pool.live_handles()):
            try:
                readers[handle.fileno()] = handle
                if handle.outbuf:
                    writers[handle.stdin_fileno()] = handle
            except (OSError, ValueError):  # pragma: no cover - defensive
                self._on_worker_gone(handle, killed=False, reason="pipe gone")
        readable: List[int] = []
        writable: List[int] = []
        if readers:
            try:
                readable, writable, _ = select.select(
                    list(readers), list(writers), [], wait
                )
            except OSError:  # a pipe vanished mid-select; next pass reaps it
                pass
        elif wait > 0:
            time.sleep(wait)
        for fd in writable:
            handle = writers[fd]
            if self._is_live(handle) and not handle.flush():
                self._on_worker_gone(handle, killed=False, reason="pipe gone")
        for fd in readable:
            handle = readers[fd]
            if self._is_live(handle):
                self._drain(handle)
        self._time_checks(task_deadline)

    def _is_live(self, handle: WorkerHandle) -> bool:
        """False once an earlier event in the same step retired ``handle``."""
        return self.pool.slots[handle.worker_id].handle is handle

    def _drain(self, handle: WorkerHandle) -> None:
        while True:
            data = handle.read_available()
            if data is None:
                return
            if data == b"":
                self._on_worker_gone(handle, killed=False, reason="EOF")
                return
            try:
                frames = handle.reader.feed(data)
            except ProtocolError as exc:
                logger.warning(
                    "%s: worker %d corrupted the protocol stream (%s); "
                    "killing it", self.name, handle.worker_id, exc,
                )
                self._on_worker_gone(
                    handle, killed=True, reason="protocol corruption"
                )
                return
            for frame in frames:
                self._on_frame(handle, frame.kind, frame.payload)

    def _on_frame(
        self, handle: WorkerHandle, kind: FrameKind, payload: Any
    ) -> None:
        handle.last_beat = time.monotonic()
        if kind is FrameKind.HELLO:
            handle.hello_seen = True
            handle.pid = int(payload["pid"])
        elif kind is FrameKind.HEARTBEAT:
            pass  # the timestamp update above is the whole point
        elif kind is FrameKind.SETUP_ACK:
            handle.acked_seq = max(handle.acked_seq, int(payload))
        elif kind is FrameKind.RESULT:
            key, result = payload
            if handle.current_task == key:
                handle.current_task = None
            state = self._states.get(key)
            if state is None:
                self.counters.add("fabric.stale_results")
                return
            state.running.pop(handle.worker_id, None)
            if state.done:
                self.counters.add("fabric.duplicates_ignored")
                return
            state.done = True
            state.result = result
            self.pool.note_success(handle)
            self._deaths_since_progress = 0
            self.counters.add("fabric.tasks_completed")
        elif kind is FrameKind.ERROR:
            key, exc, remote_tb = payload
            if key and isinstance(key, tuple) and key[0] == "__setup__":
                raise WorkerSetupError(
                    f"{self.name}: setup {key[2]!r} failed in worker "
                    f"{handle.worker_id}: {exc}\n{remote_tb}"
                ) from exc
            if handle.current_task == key:
                handle.current_task = None
            state = self._states.get(key)
            if state is None or state.done:
                self.counters.add("fabric.stale_results")
                return
            state.running.pop(handle.worker_id, None)
            # Deterministic failure: re-running a bug only repeats it.
            try:
                exc.add_note(f"remote worker traceback:\n{remote_tb}")
            except (AttributeError, TypeError):  # pragma: no cover
                pass
            raise exc

    def _time_checks(self, task_deadline: Optional[float]) -> None:
        now = time.monotonic()
        for handle in list(self.pool.live_handles()):
            silence = now - handle.last_beat
            budget = self.pool.heartbeat_timeout + (
                self.pool.spawn_grace if not handle.hello_seen else 0.0
            )
            if silence > budget:
                logger.warning(
                    "%s: worker %d (pid %s) missed heartbeats for %.2fs; "
                    "SIGKILL + re-dispatch",
                    self.name, handle.worker_id, handle.pid, silence,
                )
                self.counters.add("fabric.workers_hung")
                self._on_worker_gone(handle, killed=True, reason="hung")
                continue
            if (
                handle.current_task is not None
                and task_deadline is not None
                and now - handle.task_started_at > task_deadline
            ):
                logger.warning(
                    "%s: worker %d overran the %.2fs task deadline on %r; "
                    "SIGKILL + re-dispatch",
                    self.name, handle.worker_id, task_deadline,
                    handle.current_task,
                )
                self.counters.add("fabric.deadline_kills")
                self._on_worker_gone(handle, killed=True, reason="deadline")

    def _on_worker_gone(
        self, handle: WorkerHandle, killed: bool, reason: str
    ) -> None:
        key = handle.current_task
        handle.current_task = None
        self.pool.mark_dead(handle, killed=killed)
        self._deaths_since_progress += 1
        limit = self.pool.n_workers * (self.max_task_retries + 3) + 4
        if self._deaths_since_progress > limit:
            raise FabricError(
                f"{self.name}: {self._deaths_since_progress} consecutive "
                f"worker failures without a single completed task "
                f"(last: {reason}); the worker environment is broken"
            )
        if key is None:
            return
        state = self._states.get(key)
        if state is None:
            return  # a stale task from a finished wave died with the worker
        state.running.pop(handle.worker_id, None)
        if state.done:
            return
        state.kills += 1
        if state.kills >= self.poison_threshold:
            raise PoisonedTaskError(
                f"{self.name}: task {key!r} killed {state.kills} workers "
                f"(poison threshold {self.poison_threshold}); not "
                f"re-dispatching a poisoned task",
                key=key,
                kills=state.kills,
            )
        if state.running:
            return  # a hedged twin is still computing this task
        state.attempts += 1
        if state.attempts > self.max_task_retries:
            raise TaskRetryError(
                f"{self.name}: task {key!r} failed {state.attempts} times "
                f"(worker {reason}; max_task_retries="
                f"{self.max_task_retries})",
                keys=[key],
            )
        state.ready_at = time.monotonic() + self._redispatch_backoff.next_delay()
        self.counters.add("fabric.redispatches")
        self._queue.append(key)
        logger.warning(
            "%s: re-dispatching task %r after worker %s "
            "(attempt %d of %d)",
            self.name, key, reason, state.attempts + 1,
            self.max_task_retries + 1,
        )
