"""Streaming sweeps over a shard store: out-of-core P-Tucker.

:class:`ShardedSweepExecutor` drives the row-wise update of
:mod:`repro.core.row_update` from a :class:`~repro.shards.store.ShardStore`
instead of an in-RAM :class:`~repro.core.row_update.ModeContext`: shards are
memory-mapped and streamed one ``block_size`` run of entries at a time, each
block's normal equations are computed by any registered kernel backend
(``numpy`` / ``threaded`` / ``numba`` / ``auto``), and the per-row partial
sums are merged into the factor matrix exactly as the in-core block loop
merges them.

Because the store's mode-sorted shards hold bit-identical data to the
in-core sorted arrays and the executor uses the same global block
boundaries, the streamed sweep performs the *same floating-point operations
in the same order* as ``update_factor_mode`` on the original tensor — the
updated factors are bitwise-equal, which the equivalence tests assert.  The
difference is the working set: instead of nnz-sized sorted index/value
copies per mode, only the current block (plus the factor matrices, core and
per-row ``(B, c)`` stacks) is resident.

:meth:`ShardedSweepExecutor.fit` runs P-Tucker's one ALS loop (Algorithm 2,
:meth:`repro.core.ptucker.PTucker.fit`) against the store — per-mode
streamed updates, the convergence metrics taken from the last mode's
normal equations, and the final orthogonalisation — without ever
materialising the tensor, so |Omega| is bounded by disk, not RAM.

The convergence metric follows the same bitwise contract: the last mode's
update reduces its squared residual over the same mode-sorted blocks in
RAM and on disk, so in-core and streamed fits report bitwise-equal errors
and stop at the same iteration on any entry order.  Only the fallback
residual pass (:meth:`ShardedSweepExecutor.error_and_loss`, run when a
near-exact fit leaves too little residual for the identity) reads the
store's canonical mode-0 order, whose last ulp can differ from an in-core
pass over a differently ordered tensor.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.config import DEFAULT_BLOCK_SIZE, PTuckerConfig
# The e2ebench tracer (e2ebench/fitchild.py) wraps this name on every traced fit.
from ..core.core_tensor import orthogonalize  # noqa: F401
from ..core.ptucker import PTucker
from ..core.result import TuckerResult
from ..core.row_update import update_factor_mode
from ..kernels.backends import BackendSpec
from ..metrics.errors import RECONSTRUCT_BLOCK_SIZE, error_and_loss_stream
from ..metrics.memory import MemoryTracker
from .store import ShardStore


class ShardedSweepExecutor:
    """Runs mode sweeps (and full fits) by streaming a shard store.

    Parameters
    ----------
    store:
        The shard store to stream from (see :class:`~repro.shards.store.ShardStore`).
    backend:
        Kernel execution strategy for each streamed block — any
        ``backend=`` spec accepted by
        :func:`~repro.kernels.backends.resolve_backend`.
    block_size:
        Entries materialised per streamed block — the streaming unit and
        the bitwise boundary.  Matching the in-core solver's
        ``block_size`` makes the sweep bitwise-equal to the in-core
        result; smaller values trade a little dispatch overhead for a
        smaller resident working set.  The contraction's cache footprint
        does not depend on it (the kernels tile each block internally).
    """

    def __init__(
        self,
        store: ShardStore,
        backend: BackendSpec = "numpy",
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        if block_size < 1:
            raise ValueError("block_size must be positive")
        self.store = store
        self.backend = backend
        self.block_size = int(block_size)

    # ------------------------------------------------------------------
    def update_factor_mode(
        self,
        factors: List[np.ndarray],
        core: np.ndarray,
        mode: int,
        regularization: float,
        memory: Optional[MemoryTracker] = None,
    ) -> float:
        """Update ``A^(mode)`` in place from the store's streamed shards.

        Returns the post-update squared residual over the whole store (or
        NaN), exactly as :func:`~repro.core.row_update.update_factor_mode`.
        """
        return update_factor_mode(
            None,
            factors,
            core,
            mode,
            regularization,
            block_size=self.block_size,
            memory=memory,
            backend=self.backend,
            source=self.store,
        )

    def sweep(
        self,
        factors: List[np.ndarray],
        core: np.ndarray,
        regularization: float,
        memory: Optional[MemoryTracker] = None,
    ) -> List[np.ndarray]:
        """One full ALS sweep: every mode updated once, in mode order."""
        for mode in range(self.store.order):
            self.update_factor_mode(factors, core, mode, regularization, memory)
        return factors

    def error_and_loss(
        self,
        core: np.ndarray,
        factors: List[np.ndarray],
        regularization: float,
    ) -> tuple:
        """Streamed reconstruction error (Eq. 5) and loss (Eq. 6).

        The fit's fallback residual pass (see :meth:`fit`).  Residuals
        are evaluated over the store's canonical entry order (the
        mode-0 sorted sequence) in the same
        :data:`~repro.metrics.errors.RECONSTRUCT_BLOCK_SIZE` chunks the
        in-core metric uses, so on a tensor stored in that order the values
        are bitwise-identical to
        :func:`repro.metrics.errors.error_and_loss`.
        """
        return error_and_loss_stream(
            self.store.iter_mode_blocks(0, RECONSTRUCT_BLOCK_SIZE),
            core,
            factors,
            regularization,
            expected_entries=self.store.nnz,
        )

    # ------------------------------------------------------------------
    def fit(self, config: Optional[PTuckerConfig] = None) -> TuckerResult:
        """Fit P-Tucker (Algorithm 2) against the store, out of core.

        Runs the one ALS loop of :class:`~repro.core.ptucker.PTucker`
        over the store — same seeded initialisation, per-mode row updates,
        error and loss from the last mode's update (a streamed residual pass,
        :meth:`error_and_loss`, only where that value is unreliable),
        the same convergence rule and the final QR orthogonalisation — with
        every entry access streamed from disk.  The executor's ``backend``
        and ``block_size`` govern the kernels and the checkpoint digest
        (``config.backend`` / ``config.block_size`` configure the in-core
        path and are not consulted here); every other hyper-parameter
        comes from ``config``.

        Before the first sweep the store's files get a cheap sanity check
        (:meth:`~repro.shards.store.ShardStore.verify_files` — headers and
        sizes only, no data reads), so a truncated or half-written store
        fails up front with a path-naming
        :class:`~repro.exceptions.DataFormatError` instead of hours into
        the fit.  ``config.checkpoint_dir`` / ``resume`` behave exactly as
        in the in-core fit: versioned crash-safe checkpoints, bitwise
        resume (see :mod:`repro.resilience.checkpoint`).
        """
        self.store.verify_files()
        return PTucker(config)._fit_als(None, executor=self)
