"""One cold fit in a fresh process: input file -> solver -> saved model.

Run as ``python fitchild.py '<json spec>'`` with the program's ``src`` on
``PYTHONPATH``.  The spec names the pipeline (``incore``: ``load_text`` ->
``PTucker.fit``; ``stream``: ``ShardStore.build_streaming`` ->
``ShardedSweepExecutor.fit`` with per-iteration checkpoints), the backend,
ranks, iteration count and output directory.  The last stdout line is a
JSON object with ``setup_s`` (input -> solver-ready structure), ``fit_s``
(solver call -> model on disk), the model path and peak RSS of this
process plus its live children (fabric workers).

With ``"trace": true`` the calls into each layer's public functions are
wrapped by :mod:`spans`; the report then also carries the per-span
summary and counts, and the raw spans are written to ``spans.json`` in
the output directory.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402

clock = time.perf_counter


def _hwm_kb(pid: int) -> int:
    """Peak RSS (VmHWM) of one live process, 0 when it is gone.

    Unlike ``ru_maxrss``, VmHWM starts afresh at ``exec``, so it does not
    inherit the forking parent's footprint.
    """
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_kb() -> int:
    """Peak RSS of this process plus its live children (fabric workers)."""
    task_root = f"/proc/{os.getpid()}/task"
    children = set()
    for tid in os.listdir(task_root):
        try:
            with open(os.path.join(task_root, tid, "children")) as handle:
                children.update(int(p) for p in handle.read().split())
        except OSError:
            continue
    return _hwm_kb(os.getpid()) + sum(_hwm_kb(pid) for pid in children)


def _block_nbytes(block) -> int:
    columns, values = block
    arrays = getattr(columns, "columns", (columns,))
    return int(sum(a.nbytes for a in arrays) + values.nbytes)


def install_fit_tracing(tracer: Tracer) -> dict:
    """Wrap every layer's public entry points the fits go through."""
    from repro import model_io
    from repro.core import ptucker
    from repro.fabric.pool import WorkerPool
    from repro.kernels.backends import base, procpool
    from repro.resilience.checkpoint import CheckpointManager
    from repro.shards import executor
    from repro.shards.store import ShardStore
    from repro.tensor import io as tensor_io

    captured: dict = {}

    def count_block(result, *args, **kwargs):
        tracer.count("shards.blocks_read")
        tracer.count("shards.bytes_read", _block_nbytes(result))

    def count_checkpoint(result, manager, iteration, *args, **kwargs):
        directory = manager.iter_dir(iteration)
        size = sum(
            os.path.getsize(os.path.join(directory, name))
            for name in os.listdir(directory)
        )
        tracer.count("resilience.checkpoint_mb", size / 1e6)

    def wrap_contractor(contractor, *args, **kwargs):
        def contract(indices_block):
            with tracer.span("kernels.contract"):
                deltas = contractor(indices_block)
            tracer.count("kernels.entries", deltas.shape[0])
            tracer.count("kernels.delta_mb", deltas.nbytes / 1e6)
            return deltas

        return contract

    def count_spawned(result, *args, **kwargs):
        tracer.count("fabric.workers_spawned", len(result))

    def keep_supervisor(result, *args, **kwargs):
        captured["supervisor"] = result

    tracer.patch(tensor_io, "load_text", "tensor.load_text")
    tracer.patch(ShardStore, "build_streaming", "shards.build_streaming")
    tracer.patch(ShardStore, "read_mode_block", "shards.read_block", count_block)
    tracer.patch(ptucker, "build_all_mode_contexts", "core.contexts")
    for module in (ptucker, executor):
        tracer.patch(module, "update_factor_mode", "core.update_factor_mode")
        tracer.patch(module, "orthogonalize", "core.orthogonalize")
    tracer.patch(base, "make_delta_contractor", "kernels.plan", wrap_contractor)
    tracer.patch(base.KernelBackend, "normal_equations_sorted", "kernels.normal_equations")
    tracer.patch(base.KernelBackend, "solve_rows", "kernels.solve")
    tracer.patch(ptucker, "error_and_loss", "metrics.error_and_loss")
    tracer.patch(executor.ShardedSweepExecutor, "error_and_loss", "metrics.error_and_loss")
    tracer.patch(CheckpointManager, "save", "resilience.checkpoint", count_checkpoint)
    tracer.patch(model_io, "save_model", "model_io.save")
    tracer.patch(procpool, "shared_supervisor", "fabric.spawn", keep_supervisor)
    tracer.patch(WorkerPool, "spawn_missing", "fabric.spawn", count_spawned)
    return captured


def iteration_times(tracer: Tracer) -> list:
    """Iteration walls from the spans: first mode update -> residual pass end."""
    times = []
    start = None
    for name, begin, end, parent in tracer.spans:
        if parent is not None and tracer.spans[parent][0] != "fit":
            continue
        if name == "core.update_factor_mode" and start is None:
            start = begin
        elif name == "metrics.error_and_loss" and start is not None:
            times.append(end - start)
            start = None
    return times


def run(spec: dict) -> dict:
    tracer = Tracer() if spec.get("trace") else None
    captured = install_fit_tracing(tracer) if tracer else {}

    from repro import model_io
    from repro.core.config import PTuckerConfig
    from repro.core.ptucker import PTucker
    from repro.shards.executor import ShardedSweepExecutor
    from repro.shards.store import ShardStore
    from repro.tensor import io as tensor_io

    out_dir = spec["out"]
    config = PTuckerConfig(
        ranks=tuple(spec["ranks"]),
        max_iterations=int(spec["iterations"]),
        tolerance=0.0,
        seed=int(spec["seed"]),
        backend=spec["backend"],
        checkpoint_dir=(
            os.path.join(out_dir, "checkpoints") if spec.get("checkpoint") else None
        ),
    )

    setup_start = clock()
    if spec["pipeline"] == "incore":
        tensor = tensor_io.load_text(spec["input"])
    else:
        store = ShardStore.build_streaming(
            tensor_io.open_entry_reader(spec["input"]),
            os.path.join(out_dir, "store"),
            shard_nnz=int(spec["shard_nnz"]),
            chunk_nnz=int(spec["chunk_nnz"]),
        )
    setup_s = clock() - setup_start
    if tracer:
        tracer.count("tensor.input_mb", os.path.getsize(spec["input"]) / 1e6)

    fit_start = clock()
    with tracer.span("fit") if tracer else contextlib.nullcontext():
        if spec["pipeline"] == "incore":
            result = PTucker(config).fit(tensor)
        else:
            result = ShardedSweepExecutor(store, backend=spec["backend"]).fit(config)
        model_path = model_io.save_model(result, os.path.join(out_dir, "model"))
    fit_s = clock() - fit_start

    rss_kb = peak_rss_kb()
    report = {
        "setup_s": setup_s,
        "fit_s": fit_s,
        "model": model_path,
        "iterations": len(result.trace.records),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    if tracer:
        tracer.restore()
        supervisor = captured.get("supervisor")
        report["fabric_counters"] = (
            supervisor.counters.snapshot() if supervisor is not None else {}
        )
        report["summary"] = tracer.summary()
        report["counts"] = dict(tracer.counts)
        times = iteration_times(tracer)
        report["iteration_s"] = statistics.median(times) if times else 0.0
        tracer.dump(os.path.join(out_dir, "spans.json"))
    return report


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
