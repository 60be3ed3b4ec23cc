"""Row-tiled contraction is bitwise-identical to a single-tile contraction.

:meth:`repro.kernels.contraction._ContractionPlan.apply` walks every entry
block in row tiles of ``CONTRACT_TILE_BYTES`` of first-step intermediate.
Each test compares the tiled result (the module constant as shipped) with a
single-tile reference obtained by monkeypatching that constant to a huge
value, with ``array_equal`` — tiling must never move a bit.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.columns import IndexColumns
from repro.core import PTucker, PTuckerConfig
from repro.core.row_update import build_mode_context
from repro.data import planted_tucker_tensor
from repro.kernels import contraction as contraction_module
from repro.kernels.backends import NumpyBackend, ThreadedBackend

#: Tile budget large enough that every block in these tests is one tile.
SINGLE_TILE = 1 << 60

#: Dimensions at or below the plans' expected entry count precontract;
#: larger ones are contracted per entry.
EXPECTED_ENTRIES = 1_000
SMALL_DIM = 12
LARGE_DIM = 3_000

RAGGED_RANKS = {3: (3, 2, 4), 4: (2, 3, 2, 4), 5: (2, 3, 2, 3, 2)}

#: Plan kind -> per-mode dimensions for an order-N problem whose kept
#: mode is 0 (delta) or absent (value).
PLAN_KINDS = {
    "precontracted": lambda order: (SMALL_DIM,) * order,
    "mixed": lambda order: (SMALL_DIM,) * (order - 1) + (LARGE_DIM,),
    "gemm": lambda order: (LARGE_DIM,) * order,
}


def _problem(order, kind, seed=0):
    rng = np.random.default_rng(seed)
    ranks = RAGGED_RANKS[order]
    dims = PLAN_KINDS[kind](order)
    factors = [rng.uniform(-1.0, 1.0, size=(d, r)) for d, r in zip(dims, ranks)]
    core = rng.uniform(-1.0, 1.0, size=ranks)
    return dims, factors, core


def _indices(rng, dims, m):
    return np.stack([rng.integers(0, d, size=m) for d in dims], axis=1)


def _tile_rows(factors, core, mode, batch_invariant):
    plan = contraction_module._ContractionPlan(
        factors, core, mode, EXPECTED_ENTRIES, batch_invariant
    )
    return plan, max(1, contraction_module.CONTRACT_TILE_BYTES // (8 * plan.width))


def _make(factors, core, mode, batch_invariant):
    if mode is None:
        return contraction_module.make_value_contractor(
            factors, core, EXPECTED_ENTRIES, batch_invariant
        )
    return contraction_module.make_delta_contractor(
        factors, core, mode, EXPECTED_ENTRIES, batch_invariant
    )


@pytest.mark.parametrize("batch_invariant", [False, True])
@pytest.mark.parametrize("mode", [0, None], ids=["delta", "value"])
@pytest.mark.parametrize("kind", sorted(PLAN_KINDS))
@pytest.mark.parametrize("order", [3, 4, 5])
def test_tiled_equals_single_tile(order, kind, mode, batch_invariant, monkeypatch):
    dims, factors, core = _problem(order, kind)
    plan, tile = _tile_rows(factors, core, mode, batch_invariant)
    other = [k for k in range(order) if k != mode]
    if kind == "precontracted":
        assert sorted(plan.pre) == other and not plan.loop_modes
    elif kind == "mixed":
        assert plan.pre and plan.loop_modes == [order - 1]
    else:
        assert not plan.pre
    contract = _make(factors, core, mode, batch_invariant)
    rng = np.random.default_rng(order)
    # 3t+1 leaves a 1-row ragged tail tile.
    for m in (1, tile - 1, tile, tile + 1, 3 * tile + 1):
        indices = _indices(rng, dims, m)
        narrow = IndexColumns.from_matrix(indices, shape=dims)
        tiled = contract(indices)
        tiled_narrow = contract(narrow)
        monkeypatch.setattr(contraction_module, "CONTRACT_TILE_BYTES", SINGLE_TILE)
        reference = contract(indices)
        monkeypatch.undo()
        assert tiled.shape == reference.shape
        assert np.array_equal(tiled, reference), (m, tile)
        assert np.array_equal(tiled_narrow, reference), (m, tile)


@pytest.mark.parametrize("order", [3, 4, 5])
def test_every_kept_mode_of_a_mixed_plan(order, monkeypatch):
    """Kept modes other than 0 reorder the table axes; tiles still agree."""
    dims, factors, core = _problem(order, "mixed", seed=1)
    rng = np.random.default_rng(7)
    for mode in range(1, order):
        _, tile = _tile_rows(factors, core, mode, False)
        contract = _make(factors, core, mode, False)
        indices = _indices(rng, dims, 2 * tile + 3)
        tiled = contract(indices)
        monkeypatch.setattr(contraction_module, "CONTRACT_TILE_BYTES", SINGLE_TILE)
        reference = contract(indices)
        monkeypatch.undo()
        assert np.array_equal(tiled, reference), mode


def test_blas_first_plan_keeps_bits_at_an_odd_gemm_shape(monkeypatch):
    """A GEMM of inner size 5 over 625 columns is where BLAS microkernel
    edge rows round differently from interior rows; the plan must not let
    row tiles move those edges."""
    rng = np.random.default_rng(5)
    factors = [rng.uniform(-1.0, 1.0, size=(LARGE_DIM, 5)) for _ in range(5)]
    core = rng.uniform(-1.0, 1.0, size=(5,) * 5)
    contract = _make(factors, core, 0, False)
    indices = _indices(rng, (LARGE_DIM,) * 5, 3_001)
    tiled = contract(indices)
    monkeypatch.setattr(contraction_module, "CONTRACT_TILE_BYTES", SINGLE_TILE)
    assert np.array_equal(tiled, contract(indices))


def _normal_equations(backend, tensor, factors, core, mode):
    context = build_mode_context(tensor, mode)
    kernel = backend.make_normal_equations_kernel(factors, core, mode, tensor.nnz)
    return kernel(
        context.sorted_indices, context.sorted_values, context.row_starts
    )


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_threaded_backend_two_workers(mode, monkeypatch):
    planted = planted_tucker_tensor(
        (300, 400, 500), (4, 5, 3), 40_000, seed=3
    )
    tensor = planted.tensor
    factors = [np.asarray(f) for f in planted.factors]
    backend = ThreadedBackend(n_workers=2)
    b_tiled, c_tiled = _normal_equations(backend, tensor, factors, planted.core, mode)
    monkeypatch.setattr(contraction_module, "CONTRACT_TILE_BYTES", SINGLE_TILE)
    b_ref, c_ref = _normal_equations(backend, tensor, factors, planted.core, mode)
    assert np.array_equal(b_tiled, b_ref)
    assert np.array_equal(c_tiled, c_ref)


def _model_digest(result):
    digest = hashlib.sha256()
    for array in (result.core, *result.factors):
        array = np.ascontiguousarray(array, dtype=np.float64)
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def test_fits_in_core_sharded_and_procpool_share_one_digest(tmp_path, monkeypatch):
    """One seeded fit, four ways: the tiles are invisible in the model.

    The procpool workers are fresh interpreters running the shipped tile
    budget; 80k entries split into two chunks of ~40k rows each, far
    taller than one tile, so the workers tile too.
    """
    from repro.kernels.backends.procpool import PROC_WORKERS_ENV

    tensor = planted_tucker_tensor(
        (400, 400, 400), (10, 10, 10), 80_000, noise_level=0.1, seed=11
    ).tensor
    config = PTuckerConfig(ranks=(10,), max_iterations=2, seed=5, tolerance=0.0)

    tiled = _model_digest(PTucker(config).fit(tensor))
    sharded = _model_digest(
        PTucker(config.with_updates(shard_dir=str(tmp_path / "shards"))).fit(tensor)
    )
    monkeypatch.setenv(PROC_WORKERS_ENV, "2")
    procpool = _model_digest(
        PTucker(config.with_updates(backend="procpool")).fit(tensor)
    )
    monkeypatch.setattr(contraction_module, "CONTRACT_TILE_BYTES", SINGLE_TILE)
    single = _model_digest(PTucker(config).fit(tensor))
    assert tiled == single
    assert sharded == single
    assert procpool == single


def test_normal_equations_peak_memory_is_bounded():
    """A 200k-entry block at 2000^3, rank 10 stays far below the old peak.

    Untiled, the block's first-step ``(m, 100)`` intermediate alone is
    160 MB; tiled, the peak is the ``(m, 10)`` δ output plus ~1 MiB.
    """
    rng = np.random.default_rng(2024)
    dims, rank, m = (2000, 2000, 2000), 10, 200_000
    factors = [rng.uniform(0.0, 1.0, size=(d, rank)) for d in dims]
    core = rng.uniform(0.0, 1.0, size=(rank,) * 3)
    indices = _indices(rng, dims, m)
    indices = indices[np.argsort(indices[:, 0], kind="stable")]
    values = rng.uniform(0.0, 1.0, size=m)
    boundaries = np.flatnonzero(indices[1:, 0] != indices[:-1, 0]) + 1
    starts = np.concatenate(([0], boundaries))
    kernel = NumpyBackend().make_normal_equations_kernel(factors, core, 0, m)
    tracemalloc.start()
    try:
        b_matrices, c_vectors = kernel(indices, values, starts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert b_matrices.shape == (starts.shape[0], rank, rank)
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
