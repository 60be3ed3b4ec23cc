"""P-Tucker-Sampled: entry-sampling acceleration (the paper's future work).

The conclusion of the paper lists "applying sampling techniques on observable
entries to accelerate decompositions, while sacrificing little accuracy" as
future work.  This module implements that extension on top of the P-Tucker
row-wise update: each iteration draws a random subset of the observed entries
and updates the factor matrices from the subset only, while the
reconstruction error — and therefore the convergence decision — is still
measured on the full Ω.

Because the per-iteration cost of P-Tucker is dominated by the O(N²|Ω|Jᴺ)
δ computation, sampling a fraction ``s`` of the entries reduces the
factor-update cost by roughly ``1/s`` at the price of noisier updates.  The
ablation benchmark ``benchmarks/bench_ablation_sampling.py`` measures that
trade-off.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import ShapeError
from ..tensor.coo import SparseTensor
from .config import PTuckerConfig
from .ptucker import PTucker
from .result import TuckerResult


class PTuckerSampled(PTucker):
    """P-Tucker whose factor updates use a random sample of the observed entries.

    Parameters
    ----------
    config:
        Standard :class:`PTuckerConfig`.
    sample_fraction:
        Fraction of Ω used for the factor updates each iteration (0 < s <= 1).
        ``1.0`` makes the solver identical to plain P-Tucker.
    resample_each_iteration:
        Draw a fresh sample every iteration (default) or reuse one fixed
        sample for the whole run.
    """

    name = "P-Tucker-Sampled"

    def __init__(
        self,
        config: Optional[PTuckerConfig] = None,
        sample_fraction: float = 0.5,
        resample_each_iteration: bool = True,
    ) -> None:
        super().__init__(config)
        if not 0.0 < sample_fraction <= 1.0:
            raise ShapeError("sample_fraction must be in (0, 1]")
        self.sample_fraction = float(sample_fraction)
        self.resample_each_iteration = bool(resample_each_iteration)
        self._sample_rng: Optional[np.random.Generator] = None

    @property
    def _features(self) -> frozenset:
        # The sample RNG is not checkpointed, so only the unsampled solver
        # resumes bitwise; the sample indexes the in-RAM entry order.
        return frozenset({"checkpoint_dir"} if self.sample_fraction >= 1.0 else ())

    # ------------------------------------------------------------------
    def _draw_sample(self, tensor: SparseTensor) -> SparseTensor:
        """Random subset of the observed entries used for the next update pass."""
        assert self._sample_rng is not None
        n_keep = max(1, int(round(self.sample_fraction * tensor.nnz)))
        if n_keep >= tensor.nnz:
            return tensor
        rows = self._sample_rng.choice(tensor.nnz, size=n_keep, replace=False)
        return SparseTensor(tensor.indices[rows], tensor.values[rows], tensor.shape)

    def _update_entries(
        self, tensor: SparseTensor, previous: Optional[SparseTensor]
    ) -> SparseTensor:
        """Draw the first sample, then a fresh one per iteration or none."""
        if previous is None:
            seed = self.config.seed
            self._sample_rng = np.random.default_rng(None if seed is None else seed + 1)
        elif not self.resample_each_iteration:
            return previous
        return self._draw_sample(tensor)

    # ------------------------------------------------------------------
    def fit(self, tensor: SparseTensor) -> TuckerResult:
        """Factorize ``tensor``; updates use samples, errors use all of Ω."""
        result = super().fit(tensor)
        result.sample_fraction = self.sample_fraction  # type: ignore[attr-defined]
        return result
