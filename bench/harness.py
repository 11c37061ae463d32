"""What every workload shares: run context, operation accounting, the oracle,
and the closed-loop wire client helpers."""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import IUPT, QueryEngine
from repro.service import ServiceClient, ServiceError, protocol

from . import stats
from .inputs import Read
from .speed import SpeedLog
from .trace import Tracer

REQUEST_TIMEOUT_SECONDS = 10.0


@dataclass
class RunContext:
    """One ``(workload, seed)`` run as the command line asked for it."""

    seed: int
    seconds: float
    trace: bool
    smoke: bool
    tracer: Tracer
    #: Calibration ticks taken between measured operations (see ``speed.py``).
    speed: SpeedLog = field(default_factory=SpeedLog)

    @property
    def rounds(self) -> int:
        """Fresh set-ups per run; the measured phase is split across them."""
        return 1 if self.smoke else 3

    def round_traced(self, index: int) -> bool:
        """In a traced run round 0 stays untraced: it is the overhead base."""
        return self.trace and (self.rounds == 1 or index > 0)


class SetupTimer:
    """Times one round's set-up, ticks at both ends and wherever ``mark`` is
    called between its steps (the ticks count as set-up time: ~2 ms each)."""

    def __init__(self, speed: SpeedLog):
        self._speed = speed
        speed.tick(2)
        self.began = time.perf_counter()

    def mark(self) -> None:
        self._speed.tick()

    def done(self) -> Tuple[float, float]:
        """``(raw seconds, tick-scaled seconds)`` from construction to now."""
        ended = time.perf_counter()
        self._speed.tick(2)
        raw = ended - self.began
        return raw, raw * self._speed.factor(self.began, ended)


class Ops:
    """Operations attempted and failed; any failure makes the run incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, message: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        if len(self.messages) < 8:
            self.messages.append(message)

    def check(self, passed: bool, message: str) -> bool:
        if passed:
            self.ok()
        else:
            self.fail(message)
        return passed


@dataclass
class Measurement:
    """What a workload hands back: metric values, sample counts, accounting."""

    ops: Ops
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Sample count behind each percentile / rate metric, printed beside it.
    samples: Dict[str, int] = field(default_factory=dict)
    #: Tail metrics with fewer than ten samples beyond them.
    unsupported_tails: List[str] = field(default_factory=list)
    #: Unscaled wall-clock twins of the scaled end-to-end timings.
    raw: Dict[str, float] = field(default_factory=dict)
    #: Per-segment raw and scaled values behind each scaled metric.
    segments: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)
    #: Measured-phase wall seconds (summed over rounds).
    phase_seconds: float = 0.0

    def setup(self, rounds: Sequence[Tuple[float, float]]) -> None:
        """Fill ``setup_s`` from each round's ``SetupTimer.done()``: the median."""
        self.raw["setup_s"] = stats.median([raw for raw, _scaled in rounds])
        self.end_to_end["setup_s"] = stats.median([scaled for _raw, scaled in rounds])

    def timing(
        self,
        name: str,
        table: Dict[str, float],
        segments: Sequence[Sequence[float]],
        factors: Sequence[Union[float, Sequence[float]]],
        within: Callable[[Sequence[float]], float],
        across: Callable[[Sequence[float]], float] = stats.median,
    ) -> None:
        """Fill the tick-scaled timing ``name`` in ``table``, its raw twin in ``raw``.

        ``segments`` are raw samples (ms) cut into pieces of the run and
        ``factors`` each piece's tick factor — one number, or one per sample.
        The metric is ``across`` (the median unless told otherwise) the
        segments of ``within`` each segment's scaled samples.  With the
        median across slices of the run, a burst that covers a tenth of the
        run inflates a pooled tail but moves the metric only once it covers
        half the slices.  The printed ``n`` is the sample count over all
        segments; the ``--out`` record keeps every segment's value.
        """
        kept = [
            (list(segment), list(factor) if isinstance(factor, Sequence) else [factor] * len(segment))
            for segment, factor in zip(segments, factors) if segment
        ]
        raw = [within(segment) for segment, _factor in kept]
        scaled = [within([v * f for v, f in zip(segment, factor)]) for segment, factor in kept]
        table[name] = across(scaled)
        self.raw[name] = across(raw)
        self.segments[name] = {"raw": raw, "scaled": scaled}
        self.samples[name] = sum(len(segment) for segment, _factor in kept)

    def latency(
        self,
        prefix: str,
        segments: Sequence[Sequence[float]],
        factors: Sequence[Union[float, Sequence[float]]],
    ) -> None:
        """Fill ``<prefix>_ms`` (gated: the p50) and ``client.<prefix>_p90_ms``."""
        self.timing(f"{prefix}_ms", self.end_to_end, segments, factors, stats.p50)
        self.p90(prefix, segments, factors)

    def p90(self, prefix: str, segments, factors) -> None:
        name = f"client.{prefix}_p90_ms"
        self.timing(name, self.per_layer, segments, factors, stats.p90)
        if not stats.tail_supported(self.samples[name], 90):
            self.unsupported_tails.append(name)

    def rate(self, name: str, counts: Sequence[float], seconds: Sequence[float],
             factors: Sequence[float]) -> None:
        """Fill ``client.<name>`` (1/s): median over segments of count / scaled seconds."""
        name = f"client.{name}"
        raw = [count / elapsed for count, elapsed in zip(counts, seconds)]
        self.per_layer[name] = stats.median([value / factor for value, factor in zip(raw, factors)])
        self.raw[name] = stats.median(raw)
        self.segments[name] = {"raw": raw, "factor": list(factors)}
        self.samples[name] = int(sum(counts))


# ----------------------------------------------------------------------
# The in-process oracle
# ----------------------------------------------------------------------
def run_read(engine: QueryEngine, iupt: IUPT, read: Read):
    """Answer one plan entry in process: a ``TkPLQResult`` or a flows dict."""
    fields = read.fields
    if read.op == "top_k":
        return engine.top_k(iupt, fields["q"], fields["k"], fields["start"], fields["end"])
    return engine.flows(iupt, fields["q"], fields["start"], fields["end"])


def to_wire(read: Read, result) -> object:
    """The wire form the service would send for ``result``."""
    if read.op == "top_k":
        return protocol.result_to_wire(result)
    return {"flows": protocol.flows_to_wire(result)}


class Oracle:
    """An in-process engine over the same records: the expected wire answers.

    Service and routed responses must equal ``protocol.result_to_wire`` of
    this engine's result bit for bit; answers are computed lazily and once
    per distinct read, always outside the timed phases.
    """

    def __init__(self, scenario, records: Sequence, shard_seconds: float):
        self.iupt = IUPT.sharded(shard_seconds=shard_seconds)
        self.iupt.ingest_batch(records)
        self.engine = QueryEngine(scenario.system.graph, scenario.system.matrix)
        self._answers: Dict[Tuple, object] = {}

    def answer(self, read: Read) -> object:
        key = (read.op, tuple(read.fields["q"]), read.fields["start"], read.fields["end"])
        if key not in self._answers:
            self._answers[key] = self._compute(read)
        return self._answers[key]

    def _compute(self, read: Read) -> object:
        return to_wire(read, run_read(self.engine, self.iupt, read))

    def standing_top_k(self, reads: Sequence[Read]) -> List[object]:
        """Final wire results of standing ``top_k`` windows over the full table."""
        continuous = self.engine.continuous(self.iupt)
        try:
            return [
                protocol.result_to_wire(
                    continuous.register_top_k(
                        r.fields["q"], r.fields["k"], r.fields["start"], r.fields["end"]
                    ).result
                )
                for r in reads
            ]
        finally:
            continuous.close()


# ----------------------------------------------------------------------
# Wire helpers
# ----------------------------------------------------------------------
async def timed_request(client: ServiceClient, op: str, fields: Dict[str, object]):
    """One request with the failure rules applied.

    Returns ``(response, error_text, began, ended)``; exactly one of
    ``response`` and ``error_text`` is ``None``.  An error frame, a shed
    request, a dead connection and a 10 s timeout are all failed operations.
    """
    began = time.perf_counter()
    try:
        response = await asyncio.wait_for(
            client.request(op, **fields), REQUEST_TIMEOUT_SECONDS
        )
        error = None
    except asyncio.TimeoutError:
        response, error = None, f"{op} timed out after {REQUEST_TIMEOUT_SECONDS:.0f}s"
    except ServiceError as failure:
        response, error = None, f"{op} error frame {failure.kind}: {failure}"
    except (ConnectionError, OSError) as failure:
        response, error = None, f"{op} connection failed: {failure}"
    return response, error, began, time.perf_counter()


async def ingest_frames(
    client: ServiceClient, batches: Sequence[list], ops: Ops, acks_ms: Optional[List[float]] = None
) -> None:
    """Send ``batches`` one at a time as binary ``ingest_batch`` frames."""
    for batch in batches:
        payload = {protocol.BIN_PAYLOAD: protocol.records_to_payload(batch)}
        response, error, began, ended = await timed_request(client, "ingest_batch", payload)
        if error is not None:
            ops.fail(error)
            continue
        if not ops.check(
            response.get("records_ingested") == len(batch),
            f"ack reported {response.get('records_ingested')} of {len(batch)} records",
        ):
            continue
        if acks_ms is not None:
            acks_ms.append((ended - began) * 1000.0)


ReadLog = List[Tuple[int, float, float, object, Optional[str]]]


async def logged_read(client: ServiceClient, index: int, read: Read, log: ReadLog) -> None:
    """Send one read and append ``(index, began, ended, response, error)``."""
    response, error, began, ended = await timed_request(client, read.op, read.fields)
    log.append((index, began, ended, response, error))


async def closed_loop(
    client: ServiceClient,
    plan: Sequence[Tuple[int, Read]],
    until: float,
    log: ReadLog,
    offset: int = 0,
) -> None:
    """Cycle ``plan`` on one connection until ``until`` (``perf_counter`` time).

    Each entry logged is ``(read index, began, ended, response, error)``; the
    next request is sent only after the previous one completed.
    """
    position = offset
    while time.perf_counter() < until:
        index, read = plan[position % len(plan)]
        position += 1
        await logged_read(client, index, read, log)


def settle_reads(
    log: ReadLog,
    expected: Dict[int, object],
    ops: Ops,
    label: str,
) -> List[Tuple[int, float, float]]:
    """Check logged reads against the oracle; return the good ones as
    ``(read index, began, ended)``."""
    good: List[Tuple[int, float, float]] = []
    for index, began, ended, response, error in log:
        if error is not None:
            ops.fail(f"{label}: {error}")
            continue
        if ops.check(
            response == expected[index],
            f"{label}: response to read {index} differs from the in-process oracle",
        ):
            good.append((index, began, ended))
    return good


def slice_by_time(
    reads: Sequence[Tuple[int, float, float]], began: float, ended: float, seconds: float
) -> List[Tuple[float, float, List[Tuple[int, float, float]]]]:
    """Cut ``reads`` into slices of about ``seconds`` by completion time:
    ``(slice began, slice ended, reads)`` per non-empty slice."""
    count = max(1, round((ended - began) / seconds))
    width = (ended - began) / count
    pieces: List[List[Tuple[int, float, float]]] = [[] for _ in range(count)]
    for read in reads:
        pieces[min(count - 1, max(0, int((read[2] - began) / width)))].append(read)
    return [
        (began + i * width, began + (i + 1) * width, piece)
        for i, piece in enumerate(pieces) if piece
    ]


def latencies_ms(reads: Sequence[Tuple[int, float, float]]) -> List[float]:
    return [(ended - began) * 1000.0 for _index, began, ended in reads]
