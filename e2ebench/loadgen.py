"""Open-loop HTTP load generator and the latency statistics it reports.

Requests are due on a fixed schedule (``start + i / rate``) whatever the
server does: an independent-users open loop.  At most ``max_inflight``
connections are open at once; a due request that finds every slot busy
waits in the generator's queue, and that wait counts in its latency,
because latency is always taken from the *intended* send time (so a stall
is charged to every request it delays, not hidden by a slower client).
Each request is one connection, since the server closes it after the reply.

Per request the generator records when it was due, when the generator
loop got to it (``ready``: lateness of the generator itself), when a
connection slot was free (``sent``) and when the reply was complete.
A non-200 reply, a reply that fails its check, or a timeout is a failure,
and a failure counts as an infinitely slow request in every percentile.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

#: Percentiles the reporting rule may choose from, highest first.
PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

#: Samples a reported percentile must have beyond it.
MIN_BEYOND = 10


@dataclass
class Request:
    kind: str
    path: str
    body: Any
    check: Optional[Callable[[Any], bool]] = None


@dataclass
class Outcome:
    kind: str
    intended: float
    ready: float
    sent: float
    done: float
    ok: bool

    @property
    def latency(self) -> float:
        """Seconds from the intended send time; ``inf`` for a failure."""
        return self.done - self.intended if self.ok else math.inf


@dataclass
class Phase:
    rate: float
    outcomes: List[Outcome] = field(default_factory=list)
    max_inflight_seen: int = 0

    def latencies(self, kind: Optional[str] = None) -> List[float]:
        return sorted(o.latency for o in self.outcomes if kind is None or o.kind == kind)

    def failures(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    def gen_lag(self) -> List[float]:
        return sorted(o.ready - o.intended for o in self.outcomes)

    def end_queue_delay(self, tail_fraction: float = 0.1) -> float:
        """Median slot wait of the last requests due: the backlog at the end."""
        due = sorted(self.outcomes, key=lambda o: o.intended)
        last = due[-max(1, int(len(due) * tail_fraction)) :]
        return percentile(sorted(o.sent - o.intended for o in last), 50.0)


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default) of sorted values.

    ``inf`` entries (failures) sort last and propagate into any percentile
    that reaches them.
    """
    if not sorted_values:
        return math.nan
    position = (len(sorted_values) - 1) * pct / 100.0
    lo = int(math.floor(position))
    hi = min(lo + 1, len(sorted_values) - 1)
    if sorted_values[lo] == sorted_values[hi]:
        return sorted_values[lo]
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (position - lo)


def highest_percentile(n: int, min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """Highest listed percentile with at least ``min_beyond`` samples beyond it."""
    for pct in PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= min_beyond - 1e-9:
            return pct
    return None


def summarize(sorted_latencies: Sequence[float]) -> dict:
    """Sample count, median and the highest reportable percentile (ms).

    The tail is the highest percentile of :data:`PERCENTILES` that has at
    least :data:`MIN_BEYOND` samples beyond it, so it is never read off a
    handful of samples; too few samples give no tail at all.
    """
    n = len(sorted_latencies)
    out = {"n": n, "p50_ms": percentile(sorted_latencies, 50.0) * 1e3}
    pct = highest_percentile(n)
    if pct is not None:
        out["tail_pct"] = pct
        out["tail_ms"] = percentile(sorted_latencies, pct) * 1e3
    return out


def samples_needed(pct: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count that lets ``pct`` be reported."""
    return int(math.ceil(100.0 * min_beyond / (100.0 - pct) - 1e-9))


async def http_call(
    host: str, port: int, method: str, path: str, body: Any = None, timeout: float = 5.0
) -> Tuple[int, Any]:
    """One request on a fresh connection; returns ``(status, decoded JSON)``."""

    async def exchange() -> Tuple[int, Any]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            payload = b"" if body is None else json.dumps(body).encode("utf-8")
            writer.write(
                (
                    f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
                ).encode("ascii")
                + payload
            )
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
        head, _, data = raw.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        return status, json.loads(data) if data.strip() else None

    return await asyncio.wait_for(exchange(), timeout)


async def run_phase(
    send: Callable[[Request], Any],
    requests: Sequence[Request],
    rate: float,
    max_inflight: int,
    timeout: float = 2.0,
    clock: Callable[[], float] = time.perf_counter,
) -> Phase:
    """Issue ``requests`` open-loop at ``rate`` per second.

    ``send(request)`` is a coroutine returning ``(status, payload)``.
    """
    phase = Phase(rate=rate)
    slots = asyncio.Semaphore(max_inflight)
    inflight = 0

    async def one(request: Request, intended: float, ready: float) -> None:
        nonlocal inflight
        async with slots:
            sent = clock()
            inflight += 1
            phase.max_inflight_seen = max(phase.max_inflight_seen, inflight)
            try:
                status, payload = await asyncio.wait_for(send(request), timeout)
                ok = status == 200 and (request.check is None or request.check(payload))
            except (asyncio.TimeoutError, OSError, ValueError, IndexError):
                ok = False
            finally:
                inflight -= 1
        phase.outcomes.append(Outcome(request.kind, intended, ready, sent, clock(), ok))

    tasks = []
    start = clock() + 0.005
    for i, request in enumerate(requests):
        intended = start + i / rate
        delay = intended - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(request, intended, clock())))
    await asyncio.gather(*tasks)
    return phase
