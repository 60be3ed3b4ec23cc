"""The serve-http workload: the real ``repro serve`` process, hit over HTTP.

One run:

1. set-up, :data:`SETUP_REPEATS` times: spawn the server (``--port 0``)
   and poll ``/health`` until it answers 200; the last server stays up
   (the median start-up is ``setup_s``);
2. correctness probes (untimed): a seeded set of ``/topk`` and
   ``/predict`` answers must equal the in-process ``ServingModel``
   answers bit for bit, and ``/predict`` over held-out positions gives
   the served model's held-out RMSE;
3. an untimed warm-up at the nominal rate;
4. the nominal phase: :data:`NOMINAL_RATE` requests per second,
   open loop, about 90% ``/topk`` (k=10 on the item mode) and 10%
   ``/predict`` batches.  It gets what is left of ``--seconds`` after the
   other phases, but never so few requests that the top-K p99 has fewer
   than ten samples beyond it;
5. the rate ladder: fixed geometric rungs :data:`LADDER_STEP` apart,
   searched from :data:`LADDER_START`; a rung passes when no request
   fails, the top-K tail (p99, or the highest percentile that has ten
   samples beyond it at the rung's size) stays within
   :data:`TAIL_LIMIT_MS`, the backlog at the rung's end is no more than
   that limit, and completions keep up with the offered rate.  The
   completion rate on the highest passing rung is printed as
   ``sustained_rps``; it is not a gated metric, because on a small shared
   machine it moves by more than any allowed bound from run to run.  The
   ladder runs at most :data:`MAX_RUNGS` rungs and stops early rather than
   run past ``--seconds``.

The traffic shape is an assumption, not a measurement: users are drawn
Zipf with exponent :data:`ZIPF_EXPONENT`, every tenth request is a
``/predict`` batch of :data:`PREDICT_BATCH` positions.  The user skew sets
the server's projection-cache hit rate (about 60-70%), which in turn
moves the top-K latency.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import os
import signal
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

import common
import inputs
import loadgen

HOST = "127.0.0.1"
ITEM_MODE = 1
TOP_K = 10
PREDICT_BATCH = 16
ZIPF_EXPONENT = 1.2
#: Start-ups per run (about 0.5 s each); their median is ``setup_s``.
SETUP_REPEATS = 9
SETUP_TIMEOUT = 60.0
PROBE_TOPK = 64
HELDOUT_BATCH = 256

#: Well below the knee (250-400/s here), so queueing adds little to the
#: median and a slower machine phase is not amplified by a growing queue.
NOMINAL_RATE = 100.0
WARMUP_S = 1.5
#: Fewest top-K samples in the nominal phase: p99 then has >= 10 beyond.
NOMINAL_TOPK = loadgen.samples_needed(99.0)
#: Fewest requests of a traced nominal phase: the generator-lag p99 then
#: has >= 10 beyond (the traced run needs no client-side top-K p99).
TRACED_REQUESTS = loadgen.samples_needed(99.0)

LADDER_BASE = 100.0
#: First rung searched (about 200/s): a healthy server passes it.
LADDER_START = 15
LADDER_STEP = 1.05
LADDER_COARSE = 4
RUNG_S = 1.0
RUNG_GAP_S = 0.15
MAX_RUNGS = 6
#: The window the ladder reserves at the end of a run.
LADDER_S = MAX_RUNGS * (RUNG_S + RUNG_GAP_S)
#: Share of the offered rate a passing rung must complete.
KEEP_UP = 0.97
TAIL_LIMIT_MS = 50.0
REQUEST_TIMEOUT = 2.0


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------

def _topk_ok(payload) -> bool:
    items, scores = payload["items"], payload["scores"]
    return len(items) == TOP_K and all(a >= b for a, b in zip(scores, scores[1:]))


def _predict_ok(payload) -> bool:
    values = payload["values"]
    return len(values) == PREDICT_BATCH and all(math.isfinite(v) for v in values)


class Traffic:
    """Seeded request mix: every tenth request is a ``/predict`` batch."""

    def __init__(self, shape, seed: int) -> None:
        self.shape = shape
        self.rng = np.random.default_rng([seed, 11])

    def _user(self) -> int:
        return int(min(self.rng.zipf(ZIPF_EXPONENT), self.shape[0]) - 1)

    def topk_context(self) -> List[int]:
        return [self._user(), int(self.rng.integers(self.shape[2]))]

    def requests(self, n: int) -> List[loadgen.Request]:
        out = []
        for i in range(n):
            if i % 10 == 9:
                indices = [
                    [self._user(), int(self.rng.integers(self.shape[1])), int(self.rng.integers(self.shape[2]))]
                    for _ in range(PREDICT_BATCH)
                ]
                out.append(loadgen.Request("predict", "/predict", {"indices": indices}, _predict_ok))
            else:
                body = {"context": self.topk_context(), "mode": ITEM_MODE, "k": TOP_K}
                out.append(loadgen.Request("topk", "/topk", body, _topk_ok))
        return out

    def requests_for_topk(self, n_topk: int) -> List[loadgen.Request]:
        return self.requests(int(math.ceil(n_topk * 10 / 9)))


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------

class Server:
    """One server subprocess; output goes to files inside the work dir."""

    def __init__(self, argv: List[str], tag: str) -> None:
        self.argv = argv
        self.directory = common.fresh_dir("serve", tag)
        self.stdout_path = os.path.join(self.directory, "stdout.txt")
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Spawn and wait for ``/health`` 200; returns the seconds taken."""
        begun = common.clock()
        with open(self.stdout_path, "w") as out, open(
            os.path.join(self.directory, "stderr.txt"), "w"
        ) as err:
            self.proc = subprocess.Popen(
                self.argv,
                cwd=common.ROOT,
                env=common.pinned_env(),
                stdout=out,
                stderr=err,
                stdin=subprocess.DEVNULL,
            )
        while not self.port:
            self._check_alive(begun)
            with open(self.stdout_path) as handle:
                for line in handle:
                    if line.startswith("serving on http://"):
                        self.port = int(line.strip().rsplit(":", 1)[1])
            if not self.port:
                common.sleep(0.002)
        while True:
            self._check_alive(begun)
            try:
                status, _ = self.get("/health")
                if status == 200:
                    return common.clock() - begun
            except OSError:
                pass
            common.sleep(0.002)

    def _check_alive(self, begun: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"server exited with {self.proc.returncode} during start-up")
        if common.clock() - begun > SETUP_TIMEOUT:
            raise RuntimeError("server did not become healthy in time")

    def get(self, path: str) -> Tuple[int, object]:
        conn = http.client.HTTPConnection(HOST, self.port, timeout=5)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def serve_args(model_path: str) -> List[str]:
    """The ``repro`` CLI arguments of the server; both runs use them."""
    return ["serve", model_path, "--port", "0"]


def serve_argv(model_path: str) -> List[str]:
    return [sys.executable, "-m", "repro"] + serve_args(model_path)


def launcher_argv(model_path: str, summary_path: str) -> List[str]:
    launcher = os.path.join(common.HERE, "serve_launcher.py")
    return [sys.executable, launcher, summary_path] + serve_args(model_path)


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------

class ServeRun:
    """One benchmark run of serve-http."""

    def __init__(self, seed: int, seconds: float) -> None:
        from repro.serve import ServingModel

        #: The run, including loading its inputs, ends by this time.
        self.deadline = common.clock() + seconds
        self.seed = seed
        self.directory, self.meta = inputs.ensure("model", seed, common.CACHE)
        self.model_path = os.path.join(self.directory, "model.npz")
        with np.load(os.path.join(self.directory, "heldout.npz")) as data:
            self.heldout = {"indices": data["indices"], "values": data["values"]}
        self.reference = ServingModel.load(self.model_path, query_cache=0)
        self.traffic = Traffic(self.reference.shape, seed)
        self.max_inflight = common.nproc()
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.setup_s: List[float] = []

    def _count(self, phase: loadgen.Phase) -> None:
        self.attempted += len(phase.outcomes)
        self.failed += phase.failures()
        if phase.failures():
            self.problems.append(f"{phase.failures()} failed requests at {phase.rate:.0f}/s")
        if phase.max_inflight_seen > self.max_inflight:
            self.failed += 1
            self.problems.append("generator exceeded its in-flight limit")

    def _send(self, server: Server):
        def send(request: loadgen.Request):
            return loadgen.http_call(HOST, server.port, "POST", request.path, request.body)

        return send

    def start_servers(self, argv: List[str], repeats: int) -> Server:
        """Start ``repeats`` servers one after another; keep the last."""
        server = None
        for i in range(repeats):
            if server is not None:
                server.stop()
            server = Server(argv, f"s{i}")
            self.setup_s.append(server.start())
        return server

    # -- correctness -----------------------------------------------------
    async def probe(self, server: Server) -> float:
        """Bitwise probes against the in-process model; returns held-out RMSE."""
        contexts = [self.traffic.topk_context() for _ in range(PROBE_TOPK)]
        expected = self.reference.topk_batch(contexts, ITEM_MODE, TOP_K)
        for context, want in zip(contexts, expected):
            self.attempted += 1
            body = {"context": context, "mode": ITEM_MODE, "k": TOP_K}
            status, got = await loadgen.http_call(HOST, server.port, "POST", "/topk", body)
            want = {"items": [int(i) for i in want.items], "scores": [float(s) for s in want.scores]}
            if status != 200 or got != want:
                self.failed += 1
                self.problems.append(f"/topk answer for {context} differs from in-process")
        served = []
        indices = self.heldout["indices"]
        for lo in range(0, indices.shape[0], HELDOUT_BATCH):
            block = indices[lo : lo + HELDOUT_BATCH]
            self.attempted += 1
            status, got = await loadgen.http_call(
                HOST, server.port, "POST", "/predict", {"indices": block.tolist()}
            )
            want = [float(v) for v in self.reference.predict(block)]
            if status != 200 or got["values"] != want:
                self.failed += 1
                self.problems.append(f"/predict answers at offset {lo} differ from in-process")
                got = {"values": want}
            served.extend(got["values"])
        residual = np.asarray(served) - self.heldout["values"]
        return float(np.sqrt(np.mean(residual**2)))

    # -- load ------------------------------------------------------------
    async def phase(self, server: Server, rate: float, requests) -> loadgen.Phase:
        return await loadgen.run_phase(
            self._send(server), requests, rate, self.max_inflight, REQUEST_TIMEOUT
        )

    def left_s(self) -> float:
        """Seconds left until the run's deadline."""
        return self.deadline - common.clock()

    async def warm_and_nominal(self, server: Server, requests) -> loadgen.Phase:
        warm = await self.phase(
            server, NOMINAL_RATE, self.traffic.requests(int(NOMINAL_RATE * WARMUP_S))
        )
        self._count(warm)
        nominal = await self.phase(server, NOMINAL_RATE, requests)
        self._count(nominal)
        return nominal

    def nominal_requests(self) -> List[loadgen.Request]:
        """The untimed run's nominal phase: what is left of the window
        after the warm-up and the ladder, or enough for the p99."""
        budget_s = self.left_s() - WARMUP_S - LADDER_S
        n_topk = max(NOMINAL_TOPK, int(0.9 * NOMINAL_RATE * budget_s))
        return self.traffic.requests_for_topk(n_topk)

    def traced_requests(self, phases_left: int) -> List[loadgen.Request]:
        """An equal share of the window for each remaining traced phase."""
        budget_s = self.left_s() / phases_left - WARMUP_S
        return self.traffic.requests(max(TRACED_REQUESTS, int(NOMINAL_RATE * budget_s)))

    async def rung(self, server: Server, k: int) -> Tuple[bool, loadgen.Phase]:
        rate = LADDER_BASE * LADDER_STEP**k
        phase = await self.phase(server, rate, self.traffic.requests(int(rate * RUNG_S)))
        await asyncio.sleep(RUNG_GAP_S)
        topk = loadgen.summarize(phase.latencies("topk"))
        ok = (
            phase.failures() == 0
            and topk.get("tail_ms", math.inf) <= TAIL_LIMIT_MS
            and phase.end_queue_delay() * 1e3 <= TAIL_LIMIT_MS
            and achieved_rate(phase) >= KEEP_UP * rate
        )
        return ok, phase

    async def ladder(self, server: Server) -> Tuple[float, List[Tuple[float, bool, float]]]:
        """Highest passing rung: coarse steps up or down, then single rungs."""
        k = LADDER_START
        passed: Dict[int, loadgen.Phase] = {}
        lo: Optional[int] = None
        hi: Optional[int] = None
        history = []
        for _ in range(MAX_RUNGS):
            if self.left_s() < RUNG_S + RUNG_GAP_S:
                break
            ok, phase = await self.rung(server, k)
            history.append((phase.rate, ok, achieved_rate(phase)))
            if ok:
                passed[k] = phase
                lo = k if lo is None else max(lo, k)
            else:
                hi = k if hi is None else min(hi, k)
            if hi is None:
                k = lo + LADDER_COARSE
            elif lo is None:
                k = hi - LADDER_COARSE
                if k < 0:
                    break
            elif hi - lo <= 1:
                break
            else:
                k = lo + 1
        if lo is None:
            return 0.0, history
        return achieved_rate(passed[lo]), history

    # -- entry points ----------------------------------------------------
    def run(self) -> Dict[str, object]:
        server = self.start_servers(serve_argv(self.model_path), SETUP_REPEATS)
        try:

            async def drive():
                rmse = await self.probe(server)
                nominal = await self.warm_and_nominal(server, self.nominal_requests())
                sustained, history = await self.ladder(server)
                return rmse, nominal, sustained, history

            rmse, nominal, sustained, history = asyncio.run(drive())
            rss = server.peak_rss_mb()
            _, stats = server.get("/stats")
        finally:
            server.stop()
        topk = loadgen.summarize(nominal.latencies("topk"))
        return {
            "metrics": {
                "setup_s": common.median(self.setup_s),
                "latency_p50_ms": topk["p50_ms"],
                "test_rmse": rmse,
                "peak_rss_mb": rss,
            },
            "info": {
                "sustained_rps": sustained,
                "topk_ms": topk,
                "predict_ms": loadgen.summarize(nominal.latencies("predict")),
                "gen_lag_ms": loadgen.summarize(nominal.gen_lag()),
                "nominal_rate": NOMINAL_RATE,
                "ladder": [
                    f"{rate:.1f}/s {'pass' if ok else 'fail'} ({got:.1f}/s done)"
                    for rate, ok, got in history
                ],
                "server_cache_hit_rate": stats["query_cache"]["hit_rate"],
            },
        }

    def run_traced(self) -> Dict[str, object]:
        """Untraced then traced server, same warm-up and nominal rate."""
        plain = self.start_servers(serve_argv(self.model_path), 1)
        try:
            asyncio.run(self.probe(plain))
            untraced = asyncio.run(self.warm_and_nominal(plain, self.traced_requests(2)))
        finally:
            plain.stop()
        summary_path = os.path.join(common.fresh_dir("serve", "traced"), "summary.json")
        traced_server = self.start_servers(launcher_argv(self.model_path, summary_path), 1)
        try:
            traced = asyncio.run(self.warm_and_nominal(traced_server, self.traced_requests(1)))
            _, stats = traced_server.get("/stats")
        finally:
            traced_server.stop()
        with open(summary_path, "r", encoding="utf-8") as handle:
            summary = json.load(handle)

        def self_s(name: str) -> float:
            return summary.get(name, {}).get("self_s", 0.0)

        topk_traced = loadgen.percentile(traced.latencies("topk"), 50.0)
        topk_plain = loadgen.percentile(untraced.latencies("topk"), 50.0)
        return {
            "serve.topk_batch_s": self_s("serve.topk_batch"),
            "serve.predict_s": self_s("serve.predict"),
            "model_io.load_s": self_s("model_io.load"),
            "serve.batch_occupancy": float(stats["batcher"]["mean_occupancy"]),
            "serve.full_flushes": float(stats["batcher"]["full_flushes"]),
            "serve.cache_hit_ratio": float(stats["query_cache"]["hit_rate"]),
            "serve.server_topk_p50_ms": float(stats["latency"]["topk"]["p50_ms"]),
            "serve.server_topk_p99_ms": float(stats["latency"]["topk"]["p99_ms"]),
            "serve.gen_lag_ms": loadgen.percentile(traced.gen_lag(), 99.0) * 1e3,
            "trace.overhead_s": topk_traced - topk_plain,
        }


def achieved_rate(phase: loadgen.Phase) -> float:
    """Requests completed per second over the phase, as measured."""
    done = [o for o in phase.outcomes if o.ok]
    if len(done) < 2:
        return 0.0
    first = min(o.intended for o in phase.outcomes)
    last = max(o.done for o in done)
    return len(done) / (last - first)
