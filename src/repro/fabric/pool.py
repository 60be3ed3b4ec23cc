"""Worker process handles and the respawning pool under the supervisor.

:class:`WorkerHandle` wraps one spawned ``python -m repro.fabric.worker``
process: its pipes, an incremental :class:`~repro.fabric.protocol.FrameReader`
over its protocol channel, non-blocking buffered writes to its stdin, and
the liveness bookkeeping (last heartbeat, spawn grace, current task) the
supervisor's state machine reads.  Writes never block: a send writes
what the pipe takes at once and buffers the rest in ``outbuf``.  The
supervisor's ``select`` wakes when a worker pipe is readable, when the
stdin of a handle with buffered bytes is writable (the next pipe-full
moves on), at the earliest timer, or at its 50 ms cap.  It can never
deadlock against a worker that stopped reading — a SIGSTOPped worker's
stdin never turns writable, its buffered bytes simply wait until the
missed heartbeats get it killed.

:class:`WorkerPool` owns a fixed number of worker *slots*.  A slot whose
process died is respawned after a backoff delay with decorrelated jitter
(:class:`repro.resilience.retry.BackoffPolicy`), and every spawn replays
the pool's **setup log** — the ordered sequence of ``broadcast_setup``
calls — before the slot is offered work, so a replacement worker always
reaches the same state (model loaded, factors broadcast, updates applied)
as the peers it rejoins.  Pipe ordering guarantees a worker applies
setups before any task sent after them; ``SETUP_ACK`` frames additionally
report *how far* each worker has caught up, which is what readiness
checks (serving ``/health``) key on.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from ..metrics.timing import Counters
from ..resilience.retry import BackoffPolicy
from .protocol import HEARTBEAT_ENV, FrameKind, FrameReader, encode_frame

#: Default seconds between worker heartbeat frames.
DEFAULT_HEARTBEAT_INTERVAL = 0.25

#: A worker silent for this many intervals is declared hung.
HEARTBEAT_MISSES = 8

#: Grace period after a spawn before heartbeat silence counts: a fresh
#: interpreter pays python startup plus the numpy import before its first
#: beat.
DEFAULT_SPAWN_GRACE = 30.0


def worker_environment(heartbeat_interval: float) -> Dict[str, str]:
    """The spawned worker's environment: inherit, ensure importability.

    The parent may be running from a source tree via ``sys.path``
    manipulation (pytest, ``PYTHONPATH=src``); the child is a fresh
    interpreter, so the directory containing the ``repro`` package is
    prepended to its ``PYTHONPATH`` explicitly.
    """
    env = dict(os.environ)
    # __file__ is .../src/repro/fabric/pool.py; the import root is .../src.
    package_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    ))
    existing = env.get("PYTHONPATH", "")
    parts = [package_root] + ([existing] if existing else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    env[HEARTBEAT_ENV] = repr(float(heartbeat_interval))
    return env


class WorkerHandle:
    """One live worker process and its protocol state."""

    def __init__(self, worker_id: int, heartbeat_interval: float) -> None:
        self.worker_id = worker_id
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.fabric.worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,  # worker stderr (and stray prints) go to ours
            env=worker_environment(heartbeat_interval),
        )
        os.set_blocking(self.proc.stdout.fileno(), False)
        os.set_blocking(self.proc.stdin.fileno(), False)
        self.reader = FrameReader()
        self.outbuf = bytearray()
        self.spawned_at = time.monotonic()
        self.last_beat = self.spawned_at
        self.pid: Optional[int] = self.proc.pid
        self.hello_seen = False
        self.acked_seq = 0
        #: Key of the task currently dispatched to this worker, if any.
        self.current_task: Optional[Any] = None
        self.task_started_at: float = 0.0

    # ------------------------------------------------------------------
    def fileno(self) -> int:
        return self.proc.stdout.fileno()

    def stdin_fileno(self) -> int:
        return self.proc.stdin.fileno()

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def send(self, kind: FrameKind, payload: Any) -> bool:
        """Queue one frame for the worker; False if its pipe is gone."""
        try:
            self.outbuf.extend(encode_frame(kind, payload))
            return self.flush()
        except (BrokenPipeError, OSError, ValueError):
            return False

    def flush(self) -> bool:
        """Write as much buffered output as the pipe accepts right now."""
        while self.outbuf:
            try:
                written = os.write(self.stdin_fileno(), self.outbuf)
            except BlockingIOError:
                return True  # pipe full; the worker will drain it
            except (BrokenPipeError, OSError, ValueError):
                return False
            del self.outbuf[:written]
        return True

    def read_available(self) -> Optional[bytes]:
        """Bytes currently readable; ``b""`` on EOF, ``None`` when empty."""
        try:
            data = os.read(self.fileno(), 1 << 16)
        except BlockingIOError:
            return None
        except OSError:
            return b""
        return data

    def kill(self) -> None:
        """SIGKILL the process (works on stopped processes too) and reap it."""
        try:
            self.proc.kill()
        except OSError:
            pass
        self.close()

    def close(self) -> None:
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - defensive
            pass


class _Slot:
    """One worker position: live handle or a death awaiting respawn."""

    def __init__(self, worker_id: int, backoff: BackoffPolicy) -> None:
        self.worker_id = worker_id
        self.handle: Optional[WorkerHandle] = None
        self.backoff = backoff
        self.respawn_at = 0.0
        self.restarts = 0


class WorkerPool:
    """A fixed set of supervised worker slots with setup-log replay."""

    def __init__(
        self,
        n_workers: int,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        spawn_grace: float = DEFAULT_SPAWN_GRACE,
        backoff: Optional[BackoffPolicy] = None,
        counters: Optional[Counters] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = self.heartbeat_interval * HEARTBEAT_MISSES
        self.spawn_grace = float(spawn_grace)
        self.counters = counters if counters is not None else Counters()
        backoff = backoff if backoff is not None else BackoffPolicy()
        self.slots: List[_Slot] = [
            _Slot(
                i,
                BackoffPolicy(
                    base=backoff.base,
                    cap=backoff.cap,
                    multiplier=backoff.multiplier,
                    jitter=backoff.jitter,
                    seed=None if backoff.jitter == "none" else i,
                ),
            )
            for i in range(self.n_workers)
        ]
        self._setups: List[Tuple[int, str, str, Any]] = []
        self._seq = 0
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def latest_seq(self) -> int:
        """Sequence number of the newest setup broadcast."""
        return self._seq

    def live_handles(self) -> List[WorkerHandle]:
        return [slot.handle for slot in self.slots if slot.handle is not None]

    def spawn_missing(self, now: Optional[float] = None) -> List[WorkerHandle]:
        """Spawn every dead slot whose backoff delay has elapsed."""
        if self._closed:
            return []
        now = time.monotonic() if now is None else now
        spawned: List[WorkerHandle] = []
        for slot in self.slots:
            if slot.handle is not None or now < slot.respawn_at:
                continue
            handle = WorkerHandle(slot.worker_id, self.heartbeat_interval)
            for seq, key, fn_path, payload in self._setups:
                handle.send(FrameKind.SETUP, (seq, key, fn_path, payload))
            slot.handle = handle
            spawned.append(handle)
            self.counters.add("fabric.workers_spawned")
        return spawned

    def mark_dead(self, handle: WorkerHandle, killed: bool = False) -> None:
        """Retire a handle; its slot respawns after the backoff delay."""
        slot = self.slots[handle.worker_id]
        if slot.handle is not handle:  # pragma: no cover - defensive
            return
        handle.kill() if killed else handle.close()
        slot.handle = None
        slot.restarts += 1
        slot.respawn_at = time.monotonic() + slot.backoff.next_delay()
        self.counters.add("fabric.workers_killed" if killed
                          else "fabric.workers_died")

    def note_success(self, handle: WorkerHandle) -> None:
        """A healthy result arrived: reset the slot's backoff schedule."""
        self.slots[handle.worker_id].backoff.reset()

    def next_respawn_in(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds until the earliest pending respawn, if any."""
        now = time.monotonic() if now is None else now
        pending = [
            max(0.0, slot.respawn_at - now)
            for slot in self.slots
            if slot.handle is None
        ]
        return min(pending) if pending else None

    # ------------------------------------------------------------------
    def broadcast_setup(
        self,
        key: str,
        fn_path: str,
        payload: Any,
        replace_prefix: Optional[str] = None,
    ) -> int:
        """Append a setup to the replay log and send it to live workers.

        Returns the setup's sequence number; a worker whose
        ``acked_seq`` reaches it has applied this setup and everything
        before it.  Dead slots catch up automatically at respawn.

        ``replace_prefix`` compacts the replay log: earlier entries whose
        key starts with the prefix are dropped before this one is
        appended.  Per-sweep broadcasts (kernel state that a new sweep
        fully supersedes) use this so the log — and therefore respawn
        cost and supervisor memory — stays bounded over arbitrarily long
        fits, while ordered histories (model updates) leave it unset.
        """
        self._seq += 1
        record = (self._seq, key, fn_path, payload)
        if replace_prefix is not None:
            self._setups = [
                entry for entry in self._setups
                if not entry[1].startswith(replace_prefix)
            ]
        self._setups.append(record)
        for handle in self.live_handles():
            handle.send(FrameKind.SETUP, record)
        return self._seq

    def all_acked(self) -> bool:
        """Every slot is live, said ``HELLO`` and applied the setup log.

        ``HELLO`` matters when the log is empty: ``acked_seq`` 0 would
        otherwise count a worker that is still starting up as ready.
        """
        return all(
            slot.handle is not None
            and slot.handle.hello_seen
            and slot.handle.acked_seq >= self._seq
            for slot in self.slots
        )

    def liveness(self) -> List[Dict[str, Any]]:
        """JSON-ready per-slot liveness (``/health`` payload material)."""
        now = time.monotonic()
        report = []
        for slot in self.slots:
            handle = slot.handle
            report.append(
                {
                    "worker": slot.worker_id,
                    "alive": handle is not None and handle.alive,
                    "pid": handle.pid if handle is not None else None,
                    "restarts": slot.restarts,
                    "last_heartbeat_age_s": (
                        round(now - handle.last_beat, 3)
                        if handle is not None
                        else None
                    ),
                    "setup_caught_up": (
                        handle is not None and handle.acked_seq >= self._seq
                    ),
                }
            )
        return report

    def shutdown(self) -> None:
        """Politely stop every worker, then make sure they are gone."""
        self._closed = True
        for handle in self.live_handles():
            handle.send(FrameKind.SHUTDOWN, None)
        deadline = time.monotonic() + 2.0
        for slot in self.slots:
            handle = slot.handle
            if handle is None:
                continue
            while handle.alive and time.monotonic() < deadline:
                time.sleep(0.01)
            handle.kill()
            slot.handle = None
