"""P-Tucker: row-wise ALS Tucker factorization for sparse tensors (Algorithm 2).

This is the paper's primary contribution.  Each ALS sweep updates every factor
matrix mode by mode with the row-wise rule of Eqs. (9)-(12), measures the
reconstruction error over the observed entries only (Eq. 5), and stops when
the error converges or the iteration cap is hit.  A final QR pass makes the
factors orthogonal and folds the R factors into the core (Eqs. 7-8).

The error needs no pass of its own: the last mode's update returns the
squared residual from the normal equations it already built
(:func:`~repro.core.row_update.update_factor_mode`).  A residual pass over
every entry (:func:`~repro.metrics.errors.error_and_loss`) runs only where
that value does not describe the whole tensor or is unreliable.

The memory-optimised default keeps only the per-row workspace (δ, B, c and the
inverse) as intermediate data — O(T·J²), Theorem 4 — which is what lets it
scale where the HOOI-style baselines run out of memory.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..exceptions import ShapeError
from ..metrics.errors import error_and_loss, regularization_penalty
from ..metrics.memory import MemoryTracker
from ..metrics.timing import IterationTimer
from ..parallel.scheduler import RowScheduler
from ..tensor.coo import SparseTensor
from .config import PTuckerConfig
from .core_tensor import initialize_core, initialize_factors, orthogonalize
from .result import TuckerResult
from .row_update import ModeContext, build_all_mode_contexts, update_factor_mode
from .trace import ConvergenceTrace, IterationRecord


class PTucker:
    """Memory-optimised P-Tucker solver (the paper's default variant).

    Parameters
    ----------
    config:
        Hyper-parameters; see :class:`~repro.core.config.PTuckerConfig`.

    Examples
    --------
    >>> from repro.data import planted_tucker_tensor
    >>> from repro.core import PTucker, PTuckerConfig
    >>> planted = planted_tucker_tensor((30, 30, 30), (3, 3, 3), 2000, seed=1)
    >>> result = PTucker(PTuckerConfig(ranks=(3, 3, 3), max_iterations=5)).fit(
    ...     planted.tensor)
    >>> result.trace.errors[0] >= result.trace.errors[-1]
    True
    """

    name = "P-Tucker"
    #: Optional fit features this solver supports: ``"checkpoint_dir"``,
    #: ``"shard_dir"`` and ``"fit_streaming"``.  :meth:`_check_features`
    #: enforces it before any store is built or any entry is read.
    _features = frozenset({"checkpoint_dir", "shard_dir", "fit_streaming"})

    def __init__(self, config: Optional[PTuckerConfig] = None) -> None:
        self.config = config if config is not None else PTuckerConfig()

    def _check_features(self, streaming: bool = False) -> None:
        """Raise :class:`ShapeError` for a requested feature this variant lacks.

        The one place that decides which variant supports what.  Sharded
        and streaming fits need the base solver, because the variants'
        per-entry state indexes the in-RAM entry order; ``checkpoint_dir``
        needs a resume that is bitwise-identical to an uninterrupted fit.
        """
        requested = {
            "checkpoint_dir": bool(self.config.checkpoint_dir),
            "shard_dir": bool(self.config.shard_dir),
            "fit_streaming": streaming,
        }
        missing = [
            name
            for name, wanted in requested.items()
            if wanted and name not in self._features
        ]
        if missing:
            raise ShapeError(
                f"{type(self).__name__} does not support {', '.join(missing)}; "
                "use the base P-Tucker solver"
            )

    # ------------------------------------------------------------------
    # Hooks overridden by the Cache, Approx and Sampled variants
    # ------------------------------------------------------------------
    def _prepare(
        self,
        tensor: SparseTensor,
        factors: List[np.ndarray],
        core: np.ndarray,
        memory: Optional[MemoryTracker],
    ) -> None:
        """Per-run initialisation hook (the cache variant builds Pres here)."""

    def _update_entries(
        self, tensor: SparseTensor, previous: Optional[SparseTensor]
    ) -> SparseTensor:
        """Entries the next iteration's factor updates read.

        ``previous`` is the last iteration's choice (None before the first
        one).  P-Tucker-Sampled draws its sample here; returning
        ``previous`` itself keeps its mode contexts.
        """
        return tensor

    def _delta_provider(self, tensor: SparseTensor, factors, core, mode: int):
        """Return a δ provider for :func:`update_factor_mode`, or None."""
        return None

    def _after_mode_update(
        self,
        tensor: SparseTensor,
        factors: List[np.ndarray],
        core: np.ndarray,
        mode: int,
        previous_factor: np.ndarray,
    ) -> None:
        """Hook called after one factor matrix is updated (cache refresh)."""

    def _after_iteration(
        self,
        tensor: SparseTensor,
        factors: List[np.ndarray],
        core: np.ndarray,
        iteration: int,
    ) -> np.ndarray:
        """Hook called at the end of an iteration; may return a modified core.

        P-Tucker-Approx truncates noisy core entries here (Algorithm 2
        lines 5-6).
        """
        return core

    # ------------------------------------------------------------------
    def fit_streaming(self, source) -> TuckerResult:
        """Fit from a chunked entry source without materialising the tensor.

        ``source`` is any reader implementing the entry-chunk protocol of
        :mod:`repro.tensor.io` (text file, ``.npz``, shard store, in-RAM
        tensor).  The entries are spilled into a shard store with the
        external-memory build (reading at most ``config.ingest_chunk_nnz``
        entries at a time — see
        :meth:`repro.shards.ShardStore.build_streaming`) and the fit is
        delegated to the out-of-core
        :class:`~repro.shards.executor.ShardedSweepExecutor`, so peak
        memory stays bounded by the chunk/block sizes from raw file to
        fitted model.  The store lands at ``config.shard_dir`` when set,
        otherwise in a temporary directory that is removed after the fit.
        """
        self._check_features(streaming=True)
        config = self.config
        from ..shards import ShardedSweepExecutor, ShardStore

        def fit_at(directory: str) -> TuckerResult:
            store = ShardStore.build_streaming(
                source,
                directory,
                shard_nnz=config.shard_nnz,
                chunk_nnz=config.ingest_chunk_nnz,
                index_dtype=config.index_dtype,
            )
            executor = ShardedSweepExecutor(
                store, backend=config.backend, block_size=config.block_size
            )
            return executor.fit(config)

        if config.shard_dir:
            return fit_at(config.shard_dir)
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-ingest-") as tmp_dir:
            return fit_at(tmp_dir)

    def fit(self, tensor: SparseTensor) -> TuckerResult:
        """Factorize ``tensor`` and return the fitted model.

        With ``config.shard_dir`` set, the sweeps run out of core: the
        tensor is sharded to (or reused from) that directory and the fit is
        delegated to :class:`~repro.shards.executor.ShardedSweepExecutor`,
        whose streamed updates are bitwise-equal to the in-core ones.
        """
        self._check_features()
        config = self.config
        if config.shard_dir:
            from ..shards import ShardedSweepExecutor, ShardStore

            store = ShardStore.for_tensor(
                tensor,
                config.shard_dir,
                shard_nnz=config.shard_nnz,
                index_dtype=config.index_dtype,
            )
            executor = ShardedSweepExecutor(
                store, backend=config.backend, block_size=config.block_size
            )
            return executor.fit(config)
        return self._fit_als(tensor)

    def _fit_als(self, tensor: Optional[SparseTensor], executor=None) -> TuckerResult:
        """The one ALS loop (Algorithm 2) behind every P-Tucker fit.

        It runs over ``tensor`` in RAM or, with ``executor`` (a
        :class:`~repro.shards.executor.ShardedSweepExecutor`), over its
        shard store.  Four things vary between the two: how one mode is
        updated and its row counts read (a :class:`ModeContext` in RAM, the
        store's ``mode_segmentation``), where the fallback residual pass
        reads its entries, the checkpoint digest inputs with the backend
        and block size (the executor's own out of core), and the variant
        hooks, which only the in-RAM path passes a tensor to.

        Each iteration's error and loss (Eqs. 5 and 6) come from the
        squared residual the last mode's update returns.  The residual
        pass runs instead when that update read only a sample of the
        entries (P-Tucker-Sampled below 1.0) or returned NaN (too little
        residual left for the identity to be exact enough, or a
        non-finite model).
        """
        config = self.config
        if executor is None:
            source, store = tensor, None
            backend, block_size = config.backend, config.block_size
        else:
            source = store = executor.store
            backend, block_size = executor.backend, executor.block_size
        order = len(source.shape)
        ranks = config.resolve_ranks(order)
        rng = np.random.default_rng(config.seed)

        factors = initialize_factors(source.shape, ranks, rng)
        core = initialize_core(ranks, rng)

        memory = (
            MemoryTracker(budget_bytes=config.memory_budget_bytes)
            if config.track_memory
            else None
        )
        scheduler = RowScheduler(
            n_threads=config.threads, scheduling=config.scheduling
        )
        entries: Optional[SparseTensor] = None
        contexts: List[Optional[ModeContext]] = [None] * order
        if store is None:
            entries = self._update_entries(tensor, None)
            contexts = build_all_mode_contexts(
                entries, index_dtype=config.index_dtype
            )
        trace = ConvergenceTrace()
        timer = IterationTimer()

        checkpoints = None
        digest = ""
        start_iteration = 1
        if config.checkpoint_dir:
            from ..resilience.checkpoint import (
                CheckpointManager,
                fit_state_digest,
                resume_state,
            )
            from ..shards.store import _tensor_digest

            checkpoints = CheckpointManager(
                config.checkpoint_dir,
                every=config.checkpoint_every,
                diff=config.checkpoint_diff,
            )
            digest = fit_state_digest(
                shape=source.shape,
                nnz=source.nnz,
                ranks=ranks,
                regularization=config.regularization,
                seed=config.seed,
                orthogonalize=config.orthogonalize,
                backend=backend,
                block_size=block_size,
                entries_sha256=(
                    _tensor_digest(tensor)
                    if store is None
                    else store.fingerprint.get("entries_sha256")
                ),
            )
            resumed = resume_state(checkpoints, config.resume, digest)
            if resumed is not None:
                # The RNG only seeds the *initial* factors, which the
                # checkpoint supersedes, so re-entering the deterministic
                # loop at iteration+1 continues bitwise-identically.
                factors = [
                    np.ascontiguousarray(f, dtype=np.float64)
                    for f in resumed.factors
                ]
                core = np.ascontiguousarray(resumed.core, dtype=np.float64)
                trace = resumed.trace
                start_iteration = resumed.iteration + 1

        self._prepare(tensor, factors, core, memory)

        for iteration in range(start_iteration, config.max_iterations + 1):
            if trace.converged:
                break  # a resumed checkpoint already recorded convergence
            with timer.iteration():
                if store is None and iteration > start_iteration:
                    chosen = self._update_entries(tensor, entries)
                    if chosen is not entries:
                        entries = chosen
                        contexts = build_all_mode_contexts(
                            entries, index_dtype=config.index_dtype
                        )
                for mode in range(order):
                    previous = factors[mode].copy()
                    squared = update_factor_mode(
                        entries,
                        factors,
                        core,
                        mode,
                        config.regularization,
                        context=contexts[mode],
                        block_size=block_size,
                        memory=memory,
                        delta_provider=self._delta_provider(
                            tensor, factors, core, mode
                        ),
                        backend=backend,
                        source=store,
                    )
                    scheduler.record_mode(
                        store.mode_segmentation(mode)[2]
                        if store is not None
                        else contexts[mode].row_counts
                    )
                    self._after_mode_update(tensor, factors, core, mode, previous)

                # The last update's squared residual yields both metrics
                # (Eqs. 5 and 6) when it covers every entry and is finite.
                if (store is not None or entries is tensor) and np.isfinite(
                    squared
                ):
                    error = float(np.sqrt(squared))
                    loss = squared + regularization_penalty(
                        factors, config.regularization
                    )
                elif store is None:
                    error, loss = error_and_loss(
                        tensor, core, factors, config.regularization
                    )
                else:
                    error, loss = executor.error_and_loss(
                        core, factors, config.regularization
                    )
                core = self._after_iteration(tensor, factors, core, iteration)

            trace.add(
                IterationRecord(
                    iteration=iteration,
                    reconstruction_error=error,
                    loss=loss,
                    seconds=timer.seconds[-1],
                    core_nnz=int(np.count_nonzero(core)),
                )
            )
            if (
                iteration >= config.min_iterations
                and trace.relative_change() < config.tolerance
            ):
                trace.converged = True
                trace.stop_reason = (
                    f"relative error change below tolerance {config.tolerance}"
                )
            elif iteration == config.max_iterations:
                trace.stop_reason = (
                    f"reached max_iterations={config.max_iterations}"
                )
            # Checkpoint after the stopping decision so a resumed fit knows
            # whether the trajectory already finished; the final iteration
            # is always saved regardless of the cadence.
            if checkpoints is not None and checkpoints.due(
                iteration,
                final=trace.converged or iteration == config.max_iterations,
            ):
                checkpoints.save(iteration, factors, core, trace, digest)
            if trace.converged:
                break

        if config.orthogonalize:
            factors, core = orthogonalize(factors, core)

        result = TuckerResult(
            core=core,
            factors=list(factors),
            trace=trace,
            memory=memory,
            algorithm=self.name,
        )
        result.scheduler = scheduler  # type: ignore[attr-defined]
        return result


def fit_ptucker(
    tensor: SparseTensor,
    ranks: Sequence[int],
    regularization: float = 0.01,
    max_iterations: int = 20,
    seed: Optional[int] = 0,
    **kwargs,
) -> TuckerResult:
    """Convenience wrapper: fit P-Tucker with keyword hyper-parameters."""
    config = PTuckerConfig(
        ranks=tuple(int(r) for r in ranks),
        regularization=regularization,
        max_iterations=max_iterations,
        seed=seed,
        **kwargs,
    )
    return PTucker(config).fit(tensor)
