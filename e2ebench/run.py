#!/usr/bin/env python3
"""End-to-end benchmark of the P-Tucker system: whole fits and HTTP serving.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload fit-incore --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json`` at the
checkout root.  The program is driven only from outside: fits run the
public pipeline in fresh child processes, serving runs the real
``python -m repro serve`` process.  Human-readable lines come first; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every check
passed.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

# Pin this process's BLAS threads (and drop stray REPRO_* knobs) before
# numpy is first imported.
for _name in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[_name]
os.environ.update(common.pinned_env())

WORKLOADS = ("fit-incore", "fit-stream", "fit-procpool", "serve-http")


def load_spec() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def fit_workload(name: str, seed: int, seconds: float, trace: bool):
    import fits

    run = fits.FitRun(name, seed, seconds)
    plain, traced = run.measure(trace)
    info = {
        "fits": len(plain),
        "fit_s": [round(r["fit_s"], 4) for r in plain],
        "test_rmse_bound": fits.RMSE_BOUND * float(run.meta["noise"]),
        "train_nnz": run.meta["train_nnz"],
        "iterations": fits.ITERATIONS,
    }
    if not trace:
        metrics = run.end_to_end(plain) if plain else {}
        return metrics, info, run
    per_fit = [fits.layer_metrics(r) for r in traced]
    metrics = {
        key: common.median(m[key] for m in per_fit) for key in (per_fit[0] if per_fit else {})
    }
    gaps = []
    for report in traced:
        gap, other = fits.phase_check(report)
        gaps.append(gap)
        if gap > fits.PHASE_SUM_TOLERANCE or other > fits.PHASE_SUM_TOLERANCE:
            run.failed += 1
            run.problems.append(
                f"phase sum off by {gap:.1%}, uncovered {other:.1%} of the traced wall"
            )
    if traced and plain:
        metrics["trace.overhead_s"] = common.median(r["fit_s"] for r in traced) - common.median(
            r["fit_s"] for r in plain
        )
        metrics["trace.phase_sum_gap"] = max(gaps)
    info["traced_fits"] = len(traced)
    return metrics, info, run


def serve_workload(seed: int, seconds: float, trace: bool):
    import serving

    run = serving.ServeRun(seed, seconds)
    if trace:
        return run.run_traced(), {}, run
    out = run.run()
    return out["metrics"], out["info"], run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(common.SRC, "repro", "__init__.py")):
        print(f"error: no program sources at {common.SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    sys.path.insert(0, common.SRC)
    os.makedirs(os.path.join(common.WORK, "tmp"), exist_ok=True)

    trace = bool(args.trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    try:
        if args.workload == "serve-http":
            measured, info, run = serve_workload(args.seed, args.seconds, trace)
        else:
            measured, info, run = fit_workload(args.workload, args.seed, args.seconds, trace)
    finally:
        common.remove_work()

    missing = [m["name"] for m in wanted if m["name"] not in measured and not trace]
    if missing:
        run.failed = max(run.failed, 1)
        run.problems.append(f"no measurement for {', '.join(missing)}")
    # Layers a workload does not exercise read 0 in the traced run.
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    attempted = max(run.attempted, run.failed, 1)
    correct = run.failed == 0

    common.log(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    common.log("environment " + json.dumps(common.environment(), sort_keys=True))
    for name, entry in metrics.items():
        common.log(f"  {name:<30} {entry['value']:.6g} {entry['unit']}")
    for name, value in info.items():
        common.log(f"  info {name}: {value}")
    common.log(f"  error_rate {run.failed / attempted:.6g} ({run.failed} of {attempted} failed)")
    for problem in run.problems:
        common.log(f"  FAILED CHECK: {problem}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
