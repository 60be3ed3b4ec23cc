"""The shared bench-environment snapshot every BENCH_*.json embeds."""

import json
import platform

import numpy as np

from repro.metrics import bench_environment, blas_thread_count


class TestBenchEnvironment:
    def test_required_keys_present(self):
        env = bench_environment()
        for key in (
            "python",
            "numpy",
            "machine",
            "cpu_count",
            "blas_threads",
            "single_cpu_caveat",
        ):
            assert key in env

    def test_values_reflect_this_runtime(self):
        env = bench_environment()
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert isinstance(env["single_cpu_caveat"], bool)

    def test_caveat_set_on_single_cpu(self, monkeypatch):
        import repro.metrics.environment as environment

        monkeypatch.setattr(environment.os, "cpu_count", lambda: 1)
        assert environment.bench_environment()["single_cpu_caveat"] is True

    def test_caveat_set_when_blas_pinned_to_one_thread(self, monkeypatch):
        import repro.metrics.environment as environment

        monkeypatch.setattr(environment.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(environment, "blas_thread_count", lambda: 1)
        assert environment.bench_environment()["single_cpu_caveat"] is True

    def test_caveat_clear_on_multicore(self, monkeypatch):
        import repro.metrics.environment as environment

        monkeypatch.setattr(environment.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(environment, "blas_thread_count", lambda: 8)
        assert environment.bench_environment()["single_cpu_caveat"] is False

    def test_snapshot_is_json_serialisable(self):
        json.dumps(bench_environment())


class TestBlasThreadCount:
    def test_reads_conventional_env_vars(self, monkeypatch):
        import repro.metrics.environment as environment

        # Force the env-var fallback regardless of threadpoolctl presence.
        monkeypatch.setitem(
            __import__("sys").modules, "threadpoolctl", None
        )
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert environment.blas_thread_count() == 3

    def test_committed_artifacts_embed_the_snapshot(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        for name in ("BENCH_kernels.json", "BENCH_serving.json"):
            artifact = root / name
            if not artifact.exists():
                continue
            payload = json.loads(artifact.read_text())
            env = payload["environment"]
            assert "single_cpu_caveat" in env
            assert "cpu_count" in env


class TestUsableCpus:
    def test_falls_back_to_cpu_count_then_one(self, monkeypatch):
        import repro.metrics.environment as environment

        monkeypatch.delattr(environment.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(environment.os, "cpu_count", lambda: 6)
        assert environment.usable_cpus() == 6
        monkeypatch.setattr(environment.os, "cpu_count", lambda: None)
        assert environment.usable_cpus() == 1
