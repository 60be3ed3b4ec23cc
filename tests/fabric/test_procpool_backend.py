"""Tests for the ``procpool`` kernel backend on the execution fabric."""

import os

import numpy as np
import pytest

from repro.core import PTucker, PTuckerConfig
from repro.core.core_tensor import initialize_core, initialize_factors
from repro.core.row_update import build_mode_context
from repro.kernels.backends import (
    ProcpoolBackend,
    available_backends,
    resolve_backend,
)
from repro.kernels import concatenated_segment_starts, segment_positions


def _mode_inputs(tensor, mode):
    """Mode-sorted entry arrays + segment starts for one whole-mode block."""
    context = build_mode_context(tensor, mode)
    positions = segment_positions(context.row_starts, context.row_counts)
    starts = concatenated_segment_starts(context.row_counts)
    return (
        context.sorted_indices[positions],
        context.sorted_values[positions],
        starts,
    )


def _run_kernel(backend, tensor, factors, core, mode):
    indices, values, starts = _mode_inputs(tensor, mode)
    kernel = backend.make_normal_equations_kernel(
        factors, core, mode, indices.shape[0]
    )
    return kernel(indices, values, starts)


class TestRegistry:
    def test_procpool_is_registered(self):
        assert "procpool" in available_backends()

    def test_resolve_returns_procpool_backend(self):
        assert isinstance(resolve_backend("procpool"), ProcpoolBackend)

    def test_config_accepts_procpool_by_name(self):
        config = PTuckerConfig(
            ranks=(2, 2, 2), max_iterations=1, backend="procpool"
        )
        assert config.backend == "procpool"


class TestBitwise:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_chunked_stacks_match_serial_reference(self, planted_small, mode):
        """(B, c) stacks are bitwise equal to numpy whatever the chunking."""
        tensor = planted_small.tensor
        factors = initialize_factors(
            tensor.shape, (3, 3, 3), np.random.default_rng(0)
        )
        core = initialize_core((3, 3, 3), np.random.default_rng(1))

        reference = resolve_backend("numpy")
        # Tiny chunk floor so even the small test tensor really crosses
        # the process pipe in several chunks.
        procpool = ProcpoolBackend(n_workers=2, min_chunk_entries=8)

        b_ref, c_ref = _run_kernel(reference, tensor, factors, core, mode)
        b_pp, c_pp = _run_kernel(procpool, tensor, factors, core, mode)
        np.testing.assert_array_equal(b_pp, b_ref)
        np.testing.assert_array_equal(c_pp, c_ref)

    def test_single_worker_degrades_to_serial_without_spawning(
        self, planted_small
    ):
        tensor = planted_small.tensor
        factors = initialize_factors(
            tensor.shape, (3, 3, 3), np.random.default_rng(0)
        )
        core = initialize_core((3, 3, 3), np.random.default_rng(1))
        reference = resolve_backend("numpy")
        degraded = ProcpoolBackend(n_workers=1)
        assert degraded._supervisor is None  # nothing spawned for n=1
        b_ref, c_ref = _run_kernel(reference, tensor, factors, core, 0)
        b_d, c_d = _run_kernel(degraded, tensor, factors, core, 0)
        np.testing.assert_array_equal(b_d, b_ref)
        np.testing.assert_array_equal(c_d, c_ref)

    def test_full_fit_matches_numpy_backend(self, planted_small, monkeypatch):
        """An entire fit through ``backend="procpool"`` is bitwise equal to
        the numpy backend fit (worker processes are invisible)."""
        from repro.kernels.backends.procpool import PROC_WORKERS_ENV

        monkeypatch.setenv(PROC_WORKERS_ENV, "2")
        tensor = planted_small.tensor

        def fit(backend):
            config = PTuckerConfig(
                ranks=(3, 3, 3), max_iterations=2, seed=0, backend=backend
            )
            return PTucker(config).fit(tensor)

        reference = fit("numpy")
        result = fit("procpool")
        np.testing.assert_array_equal(result.core, reference.core)
        for ours, theirs in zip(result.factors, reference.factors):
            np.testing.assert_array_equal(ours, theirs)


class TestWorkerCountResolution:
    def test_env_override(self, monkeypatch):
        from repro.kernels.backends.procpool import PROC_WORKERS_ENV

        monkeypatch.setenv(PROC_WORKERS_ENV, "5")
        assert ProcpoolBackend().n_workers == 5

    def test_constructor_beats_env(self, monkeypatch):
        from repro.kernels.backends.procpool import PROC_WORKERS_ENV

        monkeypatch.setenv(PROC_WORKERS_ENV, "5")
        assert ProcpoolBackend(n_workers=3).n_workers == 3

    def test_garbage_env_falls_back_to_cpu_count(self, monkeypatch):
        from repro.kernels.backends.procpool import PROC_WORKERS_ENV
        from repro.metrics.environment import usable_cpus

        monkeypatch.setenv(PROC_WORKERS_ENV, "not-a-number")
        assert ProcpoolBackend().n_workers == usable_cpus()

    def test_cpu_affinity_of_one_degrades_without_spawning(
        self, monkeypatch, planted_small
    ):
        """Pinned to one CPU (``taskset -c 0``) the default is one worker,
        however many CPUs the host has, and no process is spawned."""
        from repro.kernels.backends import procpool

        def no_spawn(n_workers):
            raise AssertionError("procpool spawned workers on one CPU")

        monkeypatch.delenv(procpool.PROC_WORKERS_ENV, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(procpool, "shared_supervisor", no_spawn)
        backend = ProcpoolBackend()
        assert backend.n_workers == 1
        tensor = planted_small.tensor
        factors = initialize_factors(
            tensor.shape, (3, 3, 3), np.random.default_rng(0)
        )
        core = initialize_core((3, 3, 3), np.random.default_rng(1))
        b_ref, c_ref = _run_kernel(
            resolve_backend("numpy"), tensor, factors, core, 0
        )
        b_d, c_d = _run_kernel(backend, tensor, factors, core, 0)
        np.testing.assert_array_equal(b_d, b_ref)
        np.testing.assert_array_equal(c_d, c_ref)


@pytest.mark.slow
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="procpool-vs-threaded wall-clock needs at least 2 CPUs",
)
def test_procpool_beats_threaded_on_multicore():
    """On a multicore host the process pool overlaps where threads serialise.

    Skipped (never failed) on single-CPU hosts; the workload is sized so
    the GIL-bound segment bookkeeping dominates the threaded backend.
    """
    import time

    from repro.data import planted_tucker_tensor

    problem = planted_tucker_tensor(
        shape=(300, 300, 300),
        ranks=(8, 8, 8),
        nnz=400_000,
        noise_level=0.01,
        seed=0,
    )
    tensor = problem.tensor
    factors = initialize_factors(
        tensor.shape, (8, 8, 8), np.random.default_rng(0)
    )
    core = initialize_core((8, 8, 8), np.random.default_rng(1))

    def best_of(backend, repeats=3):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            _run_kernel(backend, tensor, factors, core, 0)
            times.append(time.perf_counter() - start)
        return min(times)

    workers = min(4, os.cpu_count() or 2)
    procpool = ProcpoolBackend(n_workers=workers)
    threaded = resolve_backend("threaded")
    _run_kernel(procpool, tensor, factors, core, 0)  # warm the pool
    t_proc = best_of(procpool)
    t_thread = best_of(threaded)
    assert t_proc < t_thread, (
        f"procpool {t_proc:.3f}s not faster than threaded {t_thread:.3f}s "
        f"on {os.cpu_count()} CPUs"
    )
