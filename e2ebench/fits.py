"""The fit workloads: cold fits in fresh processes, checked and summarised.

Each fit runs :mod:`fitchild` in its own interpreter with the pinned
environment.  Fits repeat until the next one would overrun the measuring
window (at least :data:`MIN_FITS`); every metric is the median over the
run's fits.  After each fit the benchmark reloads the saved model through
the program's ``load_model`` and checks it: every array finite, held-out
RMSE within :data:`RMSE_BOUND` times the planted noise, and the content
digest equal to every other fit of the same commit, input and seed, on any
backend (``procpool`` promises bitwise equality with the serial path).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

import common
import inputs

#: ALS iterations per fit (``tolerance=0``, so every fit runs exactly these).
ITERATIONS = 2

#: Fits per run at least, whatever the window.
MIN_FITS = 3

#: test_rmse gate: held-out RMSE must stay below this multiple of the
#: planted noise standard deviation.
RMSE_BOUND = 2.0

#: Seconds one fit child may take before it counts as failed.
CHILD_TIMEOUT = 150.0

WORKLOADS: Dict[str, Dict[str, object]] = {
    "fit-incore": {"input": "planted3", "pipeline": "incore", "backend": "numpy"},
    "fit-stream": {
        "input": "planted4",
        "pipeline": "stream",
        "backend": "numpy",
        "shard_nnz": 100_000,
        "chunk_nnz": 200_000,
        "checkpoint": True,
    },
    "fit-procpool": {"input": "planted3", "pipeline": "incore", "backend": "procpool"},
}


def run_child(spec: Dict[str, object]) -> Tuple[Optional[dict], str]:
    """One fit in a fresh interpreter; ``(report, "")`` or ``(None, why)``."""
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(common.HERE, "fitchild.py"), json.dumps(spec)],
            env=common.pinned_env(),
            cwd=common.ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return None, f"fit timed out after {CHILD_TIMEOUT:.0f}s"
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-3:]
        return None, f"fit exited {done.returncode}: {' | '.join(tail)}"
    return json.loads(done.stdout.strip().splitlines()[-1]), ""


def model_digest(core: np.ndarray, factors: List[np.ndarray]) -> str:
    """The benchmark's own digest over shapes and float64 bytes."""
    digest = hashlib.sha256()
    for array in [core] + list(factors):
        array = np.ascontiguousarray(array, dtype=np.float64)
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def check_model(path: str, test, noise: float) -> Tuple[bool, str, float, str]:
    """Reload and check a saved model: ``(ok, digest, test_rmse, why)``."""
    from repro.model_io import load_model

    try:
        model = load_model(path)
    except Exception as exc:  # any load failure is a failed check
        return False, "", float("nan"), f"model does not reload: {exc}"
    arrays = [np.asarray(model.core)] + [np.asarray(f) for f in model.factors]
    if not all(np.isfinite(a).all() for a in arrays):
        return False, "", float("nan"), "model holds non-finite values"
    predicted = inputs.predict(model.core, model.factors, test["indices"])
    rmse = float(np.sqrt(np.mean((predicted - test["values"]) ** 2)))
    digest = model_digest(arrays[0], arrays[1:])
    if not rmse <= RMSE_BOUND * noise:
        return False, digest, rmse, f"test_rmse {rmse:.4f} > {RMSE_BOUND} x noise {noise}"
    return True, digest, rmse, ""


class FitRun:
    """All fits of one benchmark run of one fit workload."""

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.directory, self.meta = inputs.ensure(
            str(self.workload["input"]), seed, common.CACHE
        )
        with np.load(os.path.join(self.directory, "test.npz")) as data:
            self.test = {"indices": data["indices"], "values": data["values"]}
        self.digest_key = ":".join(
            [
                common.source_hash(),
                str(self.workload["pipeline"]),
                str(self.workload["input"]),
                str(seed),
                str(ITERATIONS),
            ]
        )
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def spec(self, trace: bool, backend: Optional[str] = None) -> Dict[str, object]:
        spec = dict(self.workload)
        spec.update(
            input=os.path.join(self.directory, "train.tns"),
            ranks=list(self.meta["ranks"]),
            iterations=ITERATIONS,
            seed=self.seed,
            trace=trace,
            out=common.fresh_dir("fit"),
        )
        if backend is not None:
            spec["backend"] = backend
        return spec

    def fit(self, trace: bool = False, backend: Optional[str] = None) -> Optional[dict]:
        """One checked fit; failures are counted and return ``None``."""
        self.attempted += 1
        report, why = run_child(self.spec(trace, backend))
        if report is not None:
            ok, digest, rmse, why = check_model(
                report["model"], self.test, float(self.meta["noise"])
            )
            report.update(digest=digest, test_rmse=rmse)
            if ok:
                why = self.check_digest(digest)
        if why:
            self.failed += 1
            self.problems.append(why)
            return None
        return report

    def check_digest(self, digest: str) -> str:
        """Equal to every earlier fit of this commit, input and seed."""
        recorded = common.recorded_digests().get(self.digest_key)
        if recorded is None:
            common.record_digest(self.digest_key, digest)
            return ""
        if recorded != digest:
            return f"model digest {digest[:12]} differs from the recorded {recorded[:12]}"
        return ""

    def ensure_reference(self) -> None:
        """Record the serial ``numpy`` digest before timing a parallel backend."""
        if self.workload["backend"] == "numpy":
            return
        if self.digest_key not in common.recorded_digests():
            self.fit(backend="numpy")

    # ------------------------------------------------------------------
    def measure(self, trace: bool) -> Tuple[List[dict], List[dict]]:
        """Untimed reference, then fits until the window is used up.

        Untraced runs time untraced fits only.  Traced runs alternate an
        untraced and a traced fit, so the tracing overhead is measured on
        the same inputs in the same run.
        """
        self.ensure_reference()
        plain: List[dict] = []
        traced: List[dict] = []
        start = common.clock()
        longest = 0.0
        while True:
            begun = common.clock()
            report = self.fit()
            if report is not None:
                plain.append(report)
            if trace:
                report = self.fit(trace=True)
                if report is not None:
                    traced.append(report)
            longest = max(longest, common.clock() - begun)
            elapsed = common.clock() - start
            enough = len(plain) >= MIN_FITS or trace
            if self.failed or (enough and elapsed + longest > self.seconds):
                break
        return plain, traced

    def end_to_end(self, plain: List[dict]) -> Dict[str, float]:
        fit_s = common.median(r["fit_s"] for r in plain)
        return {
            "setup_s": common.median(r["setup_s"] for r in plain),
            "latency_p50_ms": fit_s * 1e3,
            "test_rmse": common.median(r["test_rmse"] for r in plain),
            "peak_rss_mb": common.median(r["peak_rss_mb"] for r in plain),
        }


def layer_metrics(report: dict) -> Dict[str, float]:
    """Per-layer numbers of one traced fit."""
    summary = report["summary"]
    counts = report["counts"]
    fabric = report["fabric_counters"]

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    dispatched = fabric.get("fabric.tasks_dispatched", 0)
    completed = fabric.get("fabric.tasks_completed", 0)
    return {
        "tensor.load_text_s": self_s("tensor.load_text"),
        "tensor.input_mb": counts.get("tensor.input_mb", 0.0),
        "shards.build_streaming_s": self_s("shards.build_streaming"),
        "shards.read_block_s": self_s("shards.read_block"),
        "shards.blocks_read": counts.get("shards.blocks_read", 0.0),
        "shards.bytes_read": counts.get("shards.bytes_read", 0.0),
        "core.contexts_s": self_s("core.contexts"),
        "core.update_factor_mode_s": self_s("core.update_factor_mode"),
        "core.iteration_s": report["iteration_s"],
        "core.orthogonalize_s": self_s("core.orthogonalize"),
        "core.other_s": self_s("fit"),
        "kernels.plan_s": self_s("kernels.plan"),
        "kernels.contract_s": self_s("kernels.contract"),
        "kernels.entries": counts.get("kernels.entries", 0.0),
        "kernels.delta_mb": counts.get("kernels.delta_mb", 0.0),
        "kernels.normal_equations_s": self_s("kernels.normal_equations"),
        "kernels.solve_s": self_s("kernels.solve"),
        "metrics.error_and_loss_s": self_s("metrics.error_and_loss"),
        "resilience.checkpoint_s": self_s("resilience.checkpoint"),
        "resilience.checkpoint_mb": counts.get("resilience.checkpoint_mb", 0.0),
        "model_io.save_s": self_s("model_io.save"),
        "fabric.spawn_s": self_s("fabric.spawn"),
        "fabric.tasks_dispatched": float(dispatched),
        "fabric.tasks_completed": float(completed),
        "fabric.hedges": float(fabric.get("fabric.hedges", 0)),
        "fabric.redispatches": float(fabric.get("fabric.redispatches", 0)),
        "fabric.useful_ratio": completed / dispatched if dispatched else 0.0,
    }


#: Largest share of a traced fit's wall that the layer self times may miss,
#: and that may stay uncovered by any layer span (``core.other_s``).
PHASE_SUM_TOLERANCE = 0.05

#: Spans that run before the fit's root span (they are set-up, not fit).
SETUP_SPANS = ("tensor.load_text", "shards.build_streaming")


def phase_sum(report: dict) -> Tuple[float, float]:
    """Sum of the fit's per-layer self times (incl. the uncovered rest) and
    the fit wall measured around it independently."""
    total = sum(
        entry["self_s"]
        for name, entry in report["summary"].items()
        if name not in SETUP_SPANS
    )
    return total, report["fit_s"]


def phase_check(report: dict) -> Tuple[float, float]:
    """``(gap, uncovered)`` as shares of the traced fit wall: how far the
    phase sum is from the wall, and the part no layer span covers."""
    total, wall = phase_sum(report)
    uncovered = report["summary"].get("fit", {}).get("self_s", 0.0)
    return abs(total - wall) / wall, uncovered / wall
