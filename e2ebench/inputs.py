"""Seeded benchmark inputs, generated outside every timed region and cached.

The program under test only ever sees the files written here: a planted
Tucker tensor as ``.tns`` text (``i_1 ... i_N value``, one-based) for the
fit workloads, and a synthetic model archive written with the program's own
``save_model`` for the serving workload.  The held-out test entries and the
query probes stay with the benchmark.

Inputs are keyed by (input kind, seed) under ``.e2ebench_cache/`` in the
checkout; ``meta.json`` is written last, so a half-written entry is never
reused.  Only the most recent :data:`CACHE_KEEP` entries per kind are kept.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import Dict, Tuple

import numpy as np

CACHE_DIR = ".e2ebench_cache"
CACHE_KEEP = 12

#: Planted tensors: uniform [0, 1) core and factors (the program's own
#: planted-tensor convention), values rescaled to unit standard deviation,
#: plus Gaussian noise of standard deviation ``noise``.
TENSORS: Dict[str, Dict[str, object]] = {
    "planted3": {
        "shape": (2000, 2000, 2000),
        "ranks": (10, 10, 10),
        "nnz": 300_000,
        "noise": 0.1,
        "test_fraction": 0.1,
    },
    "planted4": {
        "shape": (300, 300, 300, 300),
        "ranks": (4, 4, 4, 4),
        "nnz": 1_000_000,
        "noise": 0.1,
        "test_fraction": 0.1,
    },
}

#: The synthetic serving model (order 3, item mode 1).
MODEL = {"shape": (4096, 50_000, 8), "ranks": (8, 32, 4), "noise": 0.1}


def _rng(kind: str, seed: int) -> np.random.Generator:
    salt = sum(ord(c) * (i + 1) for i, c in enumerate(kind))
    return np.random.default_rng([int(seed), salt])


def _planted_values(
    core: np.ndarray, factors, indices: np.ndarray
) -> np.ndarray:
    """Tucker model values at ``indices`` (independent of the program).

    Contracts the core mode by mode against the gathered factor rows:
    ``(m, J_0) @ (J_0, J_1...)`` first, then one row-wise product per
    remaining mode.
    """
    out = np.empty(indices.shape[0], dtype=np.float64)
    ranks = core.shape
    for lo in range(0, indices.shape[0], 65_536):
        block = indices[lo : lo + 65_536]
        partial = factors[0][block[:, 0]] @ core.reshape(ranks[0], -1)
        for k in range(1, core.ndim):
            partial = partial.reshape(block.shape[0], ranks[k], -1)
            partial = np.einsum("mj,mjr->mr", factors[k][block[:, k]], partial)
        out[lo : lo + 65_536] = partial[:, 0]
    return out


def predict(core: np.ndarray, factors, indices: np.ndarray) -> np.ndarray:
    """Model values at ``indices``; the benchmark's own reference contraction."""
    return _planted_values(np.asarray(core), [np.asarray(f) for f in factors], indices)


def _distinct_indices(shape, nnz: int, rng: np.random.Generator) -> np.ndarray:
    """``nnz`` distinct uniform multi-indices, in random order."""
    strides = [int(np.prod(shape[k + 1 :], dtype=np.int64)) for k in range(len(shape))]
    linear = np.empty(0, dtype=np.int64)
    while linear.shape[0] < nnz:
        draw = sum(
            rng.integers(0, d, size=nnz + nnz // 64) * s
            for d, s in zip(shape, strides)
        )
        linear = np.sort(np.concatenate([linear, draw]))
        linear = linear[np.concatenate([[True], linear[1:] != linear[:-1]])]
    linear = rng.permutation(linear)[:nnz]
    return np.stack([(linear // s) % d for s, d in zip(strides, shape)], axis=1)


def write_tns(path: str, indices: np.ndarray, values: np.ndarray) -> None:
    """One-based ``i_1 ... i_N value`` text, six decimals per value."""
    columns = [(indices[:, k] + 1).tolist() for k in range(indices.shape[1])]
    formatted = [f"{v:.6f}" for v in values.tolist()]
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(" ".join(map(str, row)) for row in zip(*columns, formatted)))
        handle.write("\n")


def _make_tensor(kind: str, seed: int, directory: str) -> Dict[str, object]:
    spec = TENSORS[kind]
    shape, ranks = spec["shape"], spec["ranks"]
    rng = _rng(kind, seed)
    core = rng.uniform(0.0, 1.0, ranks)
    factors = [rng.uniform(0.0, 1.0, (d, r)) for d, r in zip(shape, ranks)]
    indices = _distinct_indices(shape, int(spec["nnz"]), rng)
    clean = _planted_values(core, factors, indices)
    clean /= np.std(clean)
    values = np.round(clean + rng.normal(0.0, float(spec["noise"]), clean.shape[0]), 6)
    n_test = int(round(float(spec["test_fraction"]) * indices.shape[0]))
    train = slice(n_test, None)
    write_tns(os.path.join(directory, "train.tns"), indices[train], values[train])
    np.savez(
        os.path.join(directory, "test.npz"),
        indices=indices[:n_test],
        values=values[:n_test],
    )
    return {
        "shape": list(shape),
        "ranks": list(ranks),
        "train_nnz": int(indices.shape[0] - n_test),
        "test_nnz": n_test,
        "noise": float(spec["noise"]),
        "signal_std": float(np.std(clean)),
    }


def _make_model(kind: str, seed: int, directory: str) -> Dict[str, object]:
    """A planted model plus a noisy observation of it, saved by the program.

    The served model is the planted one; ``heldout.npz`` holds noisy
    observations at random positions, so the RMSE of the served
    ``/predict`` answers against them is a held-out error like the fits'.
    """
    from repro.core.result import TuckerResult
    from repro.model_io import save_model

    shape, ranks = MODEL["shape"], MODEL["ranks"]
    rng = _rng(kind, seed)
    core = rng.standard_normal(ranks)
    factors = [rng.standard_normal((d, r)) / np.sqrt(r) for d, r in zip(shape, ranks)]
    save_model(
        TuckerResult(core=core, factors=factors, algorithm="P-Tucker"),
        os.path.join(directory, "model"),
    )
    indices = _distinct_indices(shape, 4096, rng)
    clean = _planted_values(core, factors, indices)
    values = clean + rng.normal(0.0, float(MODEL["noise"]), clean.shape[0])
    np.savez(os.path.join(directory, "heldout.npz"), indices=indices, values=values)
    return {
        "shape": list(shape),
        "ranks": list(ranks),
        "noise": float(MODEL["noise"]),
        "signal_std": float(np.std(clean)),
    }


def _prune(root: str, kind: str) -> None:
    entries = [
        os.path.join(root, name)
        for name in os.listdir(root)
        if name.startswith(kind + "-")
    ]
    entries.sort(key=os.path.getmtime)
    for stale in entries[:-CACHE_KEEP]:
        shutil.rmtree(stale, ignore_errors=True)


def ensure(kind: str, seed: int, root: str = CACHE_DIR) -> Tuple[str, Dict[str, object]]:
    """Directory and metadata of the (kind, seed) input, generating on a miss."""
    directory = os.path.join(root, f"{kind}-{int(seed)}")
    meta_path = os.path.join(directory, "meta.json")
    if os.path.exists(meta_path):
        os.utime(directory)
        with open(meta_path, "r", encoding="utf-8") as handle:
            return directory, json.load(handle)
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    start = time.perf_counter()
    maker = _make_model if kind == "model" else _make_tensor
    meta = maker(kind, seed, directory)
    meta["generate_s"] = time.perf_counter() - start
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle)
    _prune(root, kind)
    return directory, meta
