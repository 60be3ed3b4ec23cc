"""Supervised process-pool backend: chunked sweeps on the execution fabric.

``procpool`` runs the fused normal-equations pass on worker *processes*
supervised by :class:`repro.fabric.TaskSupervisor` instead of threads.
Each sweep broadcasts the mode's factors and core to the pool once (a
``SETUP`` frame, compacted in the replay log so long fits stay bounded);
each entry block is then split at segment boundaries — the same
:func:`~repro.kernels.backends.threaded.chunk_boundaries` geometry as the
``threaded`` backend — and the chunks are dispatched as fabric tasks.
Chunk results are concatenated in chunk order, and every worker builds
its contractor from the same broadcast ``expected_entries``, so the
``(B, c)`` stacks are bitwise identical to the serial reference whatever
the chunking, worker count, or mid-sweep worker deaths.

Compared to ``threaded`` this pays pickling (factors per sweep, entry
slices per chunk) and worker start-up (a fresh interpreter plus the numpy
import, once per pool) to buy freedom from the GIL: on multicore hosts
where the per-segment ``reduceat`` bookkeeping between the GEMMs keeps
threads serialised, separate interpreters overlap fully.  The supervising
parent costs next to no CPU: it sleeps in ``select`` while the workers
compute, so it does not compete with them for a core.  It also inherits the
fabric's whole failure model — a worker SIGKILLed or hung mid-sweep is
respawned, the replay log restores its factors, and its chunk is
re-dispatched with no effect on the output.  With one effective worker
the backend degrades to the serial reference path and spawns nothing, so
single-CPU hosts (and CI) see neither process overhead nor a regression.

Worker count resolution: constructor override, else the
``REPRO_PROC_WORKERS`` environment variable, else the usable CPU count
(:func:`repro.metrics.environment.usable_cpus`, which honours
``taskset`` and cpuset limits).
"""

from __future__ import annotations

import atexit
import os
import threading
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from ..contraction import make_delta_contractor
from ..segments import normal_equations_sorted
from .base import KernelBackend, NormalEquationsKernel
from .threaded import chunk_boundaries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...fabric import TaskSupervisor

# repro.fabric is imported lazily (first use, never at module import):
# this module loads while the kernels package initialises, and the fabric
# pulls in repro.metrics, whose error helpers need the fully initialised
# tensor layer — an import cycle if resolved eagerly here.

#: Environment override for the worker-process count.
PROC_WORKERS_ENV = "REPRO_PROC_WORKERS"

#: Chunks smaller than this are not worth pickling across a process pipe
#: (4x the threaded backend's dispatch floor).
MIN_CHUNK_ENTRIES = 32_768

#: Chunks per worker: fewer than ``threaded`` uses — each dispatch ships
#: bytes, so balance is bought more cheaply by hedging than by fragments.
CHUNKS_PER_WORKER = 2

#: Generous per-chunk deadline; a healthy chunk finishes in milliseconds,
#: so only a truly wedged worker ever hits it.
TASK_DEADLINE_S = 300.0

_SUPERVISOR: Optional["TaskSupervisor"] = None
_SUPERVISOR_WORKERS = 0
_SUPERVISOR_LOCK = threading.Lock()


def default_workers() -> int:
    """Worker count: ``REPRO_PROC_WORKERS`` env override, else usable CPUs."""
    env = os.environ.get(PROC_WORKERS_ENV, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    from ...metrics.environment import usable_cpus  # lazy: import cycle

    return usable_cpus()


def shared_supervisor(n_workers: int) -> "TaskSupervisor":
    """The process-global fabric supervisor, regrown on bigger requests.

    Worker processes are expensive to spawn (interpreter + numpy import),
    so one supervised pool is kept for the process lifetime and shared by
    every ``procpool`` backend instance, exactly like the ``threaded``
    backend's thread pool.  A superseded smaller pool is shut down —
    unlike threads, orphan processes hold real memory.
    """
    from ...fabric import TaskSupervisor

    global _SUPERVISOR, _SUPERVISOR_WORKERS
    with _SUPERVISOR_LOCK:
        if _SUPERVISOR is None or _SUPERVISOR_WORKERS < n_workers:
            if _SUPERVISOR is not None:
                _SUPERVISOR.shutdown()
            _SUPERVISOR = TaskSupervisor(
                n_workers,
                task_deadline=TASK_DEADLINE_S,
                name="procpool",
            )
            _SUPERVISOR_WORKERS = n_workers
        return _SUPERVISOR


@atexit.register
def _shutdown_shared_supervisor() -> None:  # pragma: no cover - atexit
    global _SUPERVISOR
    with _SUPERVISOR_LOCK:
        if _SUPERVISOR is not None:
            _SUPERVISOR.shutdown()
            _SUPERVISOR = None


# ----------------------------------------------------------------------
# Worker-side callables (referenced by dotted path in fabric frames)
# ----------------------------------------------------------------------

def _setup_ne(context, payload):
    """Build this sweep's kernel from the broadcast factors, in-worker.

    Supersedes any previous sweep: older ``ne:`` setups and cache entries
    are dropped so worker memory stays bounded over long fits.  The
    contractor is built with the parent's ``expected_entries``, which
    pins the contraction plan — the precondition for chunk results being
    bitwise equal to the parent's serial reference.
    """
    for stale in [k for k in context.setups if str(k).startswith("ne:")]:
        del context.setups[stale]
    context.cache.clear()
    factors, core, mode, expected_entries = payload
    contractor = make_delta_contractor(factors, core, mode, expected_entries)

    def kernel(indices_block, values_block, starts):
        deltas = contractor(indices_block)
        return normal_equations_sorted(deltas, values_block, starts)

    return kernel


def _ne_chunk(context, payload):
    """Run one segment-aligned chunk through the sweep's kernel."""
    setup_key, indices_block, values_block, starts = payload
    kernel = context.setups[setup_key]
    return kernel(indices_block, values_block, starts)


# ----------------------------------------------------------------------

class ProcpoolBackend(KernelBackend):
    """Kernel backend dispatching segment-aligned chunks to fabric workers."""

    name = "procpool"

    #: Class-wide sweep counter: setup keys must be unique across instances
    #: because they all share one supervisor (and its one replay log).
    _sweep_counter = 0
    _sweep_lock = threading.Lock()

    def __init__(
        self,
        n_workers: Optional[int] = None,
        min_chunk_entries: int = MIN_CHUNK_ENTRIES,
        supervisor: Optional["TaskSupervisor"] = None,
    ) -> None:
        self._n_workers = None if n_workers is None else max(1, int(n_workers))
        self.min_chunk_entries = int(min_chunk_entries)
        self._supervisor = supervisor

    @property
    def n_workers(self) -> int:
        """Explicit worker count, else the current environment default."""
        if self._n_workers is not None:
            return self._n_workers
        return default_workers()

    def _get_supervisor(self) -> "TaskSupervisor":
        if self._supervisor is not None:
            return self._supervisor
        return shared_supervisor(self.n_workers)

    def _n_chunks(self, n_entries: int, n_segments: int) -> int:
        if self.n_workers <= 1:
            return 1
        by_size = n_entries // self.min_chunk_entries
        cap = max(self.n_workers * CHUNKS_PER_WORKER, 1)
        return max(1, min(by_size, cap, n_segments))

    # ------------------------------------------------------------------
    def make_normal_equations_kernel(
        self,
        factors: Sequence[np.ndarray],
        core: np.ndarray,
        mode: int,
        expected_entries: int,
    ) -> NormalEquationsKernel:
        if self.n_workers <= 1:
            # Nothing to overlap: serve the serial reference directly and
            # never spawn a process (the single-CPU / CI degradation).
            return super().make_normal_equations_kernel(
                factors, core, mode, expected_entries
            )
        from ...fabric import Task

        with ProcpoolBackend._sweep_lock:
            ProcpoolBackend._sweep_counter += 1
            setup_key = f"ne:{ProcpoolBackend._sweep_counter}"
        supervisor = self._get_supervisor()
        factors = [np.ascontiguousarray(f) for f in factors]
        supervisor.broadcast_setup(
            setup_key,
            "repro.kernels.backends.procpool:_setup_ne",
            (factors, np.asarray(core), mode, expected_entries),
            replace_prefix="ne:",
        )
        # Fallback for blocks below the dispatch floor (and a guarantee
        # that degradation can never change values).
        serial = super().make_normal_equations_kernel(
            factors, core, mode, expected_entries
        )

        def kernel(
            indices_block: np.ndarray,
            values_block: np.ndarray,
            starts: np.ndarray,
        ) -> Tuple[np.ndarray, np.ndarray]:
            n_entries = indices_block.shape[0]
            n_segments = starts.shape[0]
            n_chunks = self._n_chunks(n_entries, n_segments)
            if n_chunks <= 1:
                return serial(indices_block, values_block, starts)

            edges = chunk_boundaries(starts, n_entries, n_chunks)
            tasks = []
            for chunk in range(edges.shape[0] - 1):
                seg_lo, seg_hi = int(edges[chunk]), int(edges[chunk + 1])
                entry_lo = int(starts[seg_lo])
                entry_hi = (
                    int(starts[seg_hi]) if seg_hi < n_segments else n_entries
                )
                tasks.append(
                    Task(
                        key=chunk,
                        fn="repro.kernels.backends.procpool:_ne_chunk",
                        payload=(
                            setup_key,
                            indices_block[entry_lo:entry_hi],
                            values_block[entry_lo:entry_hi],
                            starts[seg_lo:seg_hi] - entry_lo,
                        ),
                    )
                )
            parts = supervisor.run_tasks(tasks)
            b_matrices = np.concatenate([part[0] for part in parts], axis=0)
            c_vectors = np.concatenate([part[1] for part in parts], axis=0)
            return b_matrices, c_vectors

        return kernel
