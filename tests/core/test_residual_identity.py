"""The fit loop's error and loss come from the last mode's normal equations.

``update_factor_mode`` returns ``Σ x² − Σ_rows a·(2c − B a)``, the squared
residual of the model it leaves behind, and ``PTucker._fit_als`` records
it instead of re-contracting every entry.  The residual pass
(``repro.core.ptucker.error_and_loss`` in RAM,
``ShardedSweepExecutor.error_and_loss`` out of core) runs only where that
value does not cover the whole tensor or is unreliable.
"""

import numpy as np
import pytest

from repro.core import (
    PTucker,
    PTuckerCache,
    PTuckerConfig,
    PTuckerSampled,
)
from repro.core import ptucker as ptucker_module
from repro.core.core_tensor import initialize_core, initialize_factors
from repro.core.row_update import RESIDUAL_IDENTITY_FLOOR, update_factor_mode
from repro.data import planted_tucker_tensor
from repro.kernels.backends import resolve_backend
from repro.metrics.errors import reconstruction_error, regularized_loss
from repro.shards import ShardedSweepExecutor, ShardStore
from repro.tensor import SparseTensor


def _count_exact_passes(monkeypatch):
    """Record every residual pass the fit loop runs, in RAM and out of core."""
    calls = []

    def counting(original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append(result)
            return result

        return wrapper

    monkeypatch.setattr(
        ptucker_module,
        "error_and_loss",
        counting(ptucker_module.error_and_loss),
    )
    monkeypatch.setattr(
        ShardedSweepExecutor,
        "error_and_loss",
        counting(ShardedSweepExecutor.error_and_loss),
    )
    return calls


@pytest.fixture
def noisy():
    return planted_tucker_tensor(
        (24, 20, 16), (3, 3, 3), nnz=2000, noise_level=0.1, seed=5
    )


def _config(**updates):
    base = PTuckerConfig(
        ranks=(3, 3, 3),
        max_iterations=3,
        tolerance=0.0,
        seed=0,
        orthogonalize=False,
    )
    return base.with_updates(**updates)


def _fit(variant, tensor, tmp_path, monkeypatch):
    if variant == "base":
        return PTucker(_config()).fit(tensor)
    if variant == "cache":
        return PTuckerCache(_config()).fit(tensor)
    if variant == "sampled-1.0":
        return PTuckerSampled(_config(), sample_fraction=1.0).fit(tensor)
    if variant == "sharded":
        store = ShardStore.build(tensor, tmp_path / "store", shard_nnz=300)
        return ShardedSweepExecutor(store, block_size=700).fit(_config())
    assert variant == "threaded"
    monkeypatch.setenv("REPRO_KERNEL_THREADS", "2")
    monkeypatch.setattr(resolve_backend("threaded"), "min_chunk_entries", 8)
    return PTucker(_config(backend="threaded")).fit(tensor)


@pytest.mark.parametrize(
    "variant", ["base", "cache", "sampled-1.0", "sharded", "threaded"]
)
def test_trace_matches_exact_metrics_without_a_residual_pass(
    variant, noisy, tmp_path, monkeypatch
):
    calls = _count_exact_passes(monkeypatch)
    result = _fit(variant, noisy.tensor, tmp_path, monkeypatch)
    assert calls == []
    exact_error = reconstruction_error(noisy.tensor, result.core, result.factors)
    exact_loss = regularized_loss(
        noisy.tensor, result.core, result.factors, 0.01
    )
    assert result.trace.errors[-1] == pytest.approx(exact_error, rel=1e-9)
    assert result.trace.losses[-1] == pytest.approx(exact_loss, rel=1e-9)


def test_near_exact_fit_falls_back_to_the_residual_pass(monkeypatch):
    """A noise-free rank-1 fit drives the residual below the identity's
    floor; from there on the trace records the residual pass bit for bit."""
    planted = planted_tucker_tensor(
        (20, 20, 20), (1, 1, 1), nnz=2000, noise_level=0.0, seed=3
    )
    calls = _count_exact_passes(monkeypatch)
    config = PTuckerConfig(
        ranks=(1, 1, 1),
        max_iterations=8,
        tolerance=0.0,
        seed=0,
        regularization=0.0,
    )
    trace = PTucker(config).fit(planted.tensor).trace
    squared_values = float(np.sum(planted.tensor.values ** 2))
    below = [
        i
        for i, error in enumerate(trace.errors)
        if error * error < RESIDUAL_IDENTITY_FLOOR * squared_values
    ]
    # The first iterations take the identity; the fit then crosses the floor.
    assert 0 < len(below) < len(trace.errors) and below[0] > 0
    assert len(calls) == len(below)
    assert [trace.errors[i] for i in below] == [error for error, _ in calls]
    assert [trace.losses[i] for i in below] == [loss for _, loss in calls]


def test_sampled_below_one_runs_the_residual_pass_every_iteration(
    noisy, monkeypatch
):
    calls = _count_exact_passes(monkeypatch)
    result = PTuckerSampled(_config(), sample_fraction=0.4).fit(noisy.tensor)
    assert len(calls) == result.trace.n_iterations == 3
    assert result.trace.errors == [error for error, _ in calls]


@pytest.mark.parametrize("kernel", ["contracted", "kron"])
def test_update_returns_post_update_squared_residual(noisy, kernel):
    tensor = noisy.tensor
    factors = initialize_factors(
        tensor.shape, (3, 3, 3), np.random.default_rng(1)
    )
    core = initialize_core((3, 3, 3), np.random.default_rng(2))
    for mode in range(tensor.order):
        squared = update_factor_mode(
            tensor, factors, core, mode, 0.01, block_size=500, kernel=kernel
        )
        exact = reconstruction_error(tensor, core, factors)
        assert squared == pytest.approx(exact * exact, rel=1e-9)


def test_streamed_update_returns_the_same_residual_bits(noisy, tmp_path):
    """In RAM and on disk the identity reduces over the same sorted blocks."""
    order = np.random.default_rng(9).permutation(noisy.tensor.nnz)
    shuffled = SparseTensor(
        noisy.tensor.indices[order], noisy.tensor.values[order], noisy.tensor.shape
    )
    store = ShardStore.build(shuffled, tmp_path / "store", shard_nnz=300)
    factors = initialize_factors(
        shuffled.shape, (3, 3, 3), np.random.default_rng(1)
    )
    core = initialize_core((3, 3, 3), np.random.default_rng(2))
    streamed = [f.copy() for f in factors]
    for mode in range(shuffled.order):
        incore = update_factor_mode(
            shuffled, factors, core, mode, 0.01, block_size=700
        )
        on_disk = update_factor_mode(
            None, streamed, core, mode, 0.01, block_size=700, source=store
        )
        assert on_disk == incore


def test_update_returns_nan_below_the_floor():
    """An exactly representable tensor leaves no residual to trust."""
    planted = planted_tucker_tensor(
        (10, 9, 8), (1, 1, 1), nnz=300, noise_level=0.0, seed=1
    )
    factors = [f.copy() for f in planted.factors]
    squared = update_factor_mode(planted.tensor, factors, planted.core, 0, 0.0)
    assert np.isnan(squared)
