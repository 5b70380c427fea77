"""Isolated microbenchmarks of each layer's public functions (source M).

Each one times a single layer with the others absent, so a number here
moves only when that layer's code does.  A function a refactor removed
yields ``None`` and a warning, never a crash.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Optional

_clock = time.perf_counter


def _rate(work: Callable[[], int], seconds: float) -> float:
    """Units per second: call ``work`` (returns units done) for ``seconds``."""
    done, begun = 0, _clock()
    while True:
        done += work()
        elapsed = _clock() - begun
        if elapsed >= seconds:
            return done / elapsed


def _codec(frames: list[dict[str, Any]], encode: Callable, decoder: Callable, seconds: float):
    """(encode frames/s, decode frames/s, bytes per frame) of one codec."""
    blob = b"".join(encode(frame) for frame in frames)

    def encode_all() -> int:
        for frame in frames:
            encode(frame)
        return len(frames)

    def decode_all() -> int:
        return len(decoder().feed(blob))

    return _rate(encode_all, seconds), _rate(decode_all, seconds), len(blob) / len(frames)


def wire_json(frames, seconds):
    from repro.live.wire import FrameDecoder, encode_frame

    return _codec(frames, encode_frame, FrameDecoder, seconds)


def wire_bin(frames, seconds):
    from repro.live.wire_bin import BinFrameDecoder, encode_frame_bin

    return _codec(frames, encode_frame_bin, BinFrameDecoder, seconds)


def engine_sim(seconds: float) -> float:
    """Simulated 3-site central 3PC transactions per second, no I/O."""
    from repro.protocols import build
    from repro.runtime.decision import TerminationRule
    from repro.runtime.harness import CommitRun

    spec = build("3pc-central", 3)
    rule = TerminationRule(spec)

    def one() -> int:
        CommitRun(spec, rule=rule).execute()
        return 1

    return _rate(one, seconds)


def fsync_probe_ms(directory: Path, samples: int = 40) -> float:
    """Median write + fsync of 128 bytes in ``directory``."""
    path = directory / "fsync-probe"
    times = []
    with open(path, "wb") as handle:
        for _ in range(samples):
            begun = _clock()
            handle.write(b"x" * 128)
            handle.flush()
            os.fsync(handle.fileno())
            times.append((_clock() - begun) * 1e3)
    path.unlink()
    return statistics.median(times)


async def _dtlog_rate(directory: Path, batch: int, seconds: float) -> float:
    from repro.live.dtlog import SiteLogStore
    from repro.runtime.log import VoteRecord
    from repro.types import Vote

    store = SiteLogStore(directory / f"micro-b{batch}.dtlog")
    store.start_group_commit()
    record = VoteRecord(vote=Vote.YES, at=0.0)
    done, txn, begun = 0, 0, _clock()
    try:
        while _clock() - begun < seconds:
            for _ in range(batch):
                txn += 1
                lsn = store.append_record(txn, record, force=True)
            await store.wait_durable(lsn)
            done += batch
        return done / (_clock() - begun)
    finally:
        await store.stop_group_commit()
        store.close()


def dtlog_append_durable(directory: Path, batch: int, seconds: float) -> float:
    """Records/s through append → durable with ``batch`` records per wait."""
    return asyncio.run(_dtlog_rate(directory, batch, seconds))


async def _loopback_rate(frame: dict[str, Any], seconds: float) -> float:
    from repro.live.clock import TimeoutClock
    from repro.live.transport import Transport
    from repro.types import SiteId

    from trace import free_ports

    received = 0
    arrived = asyncio.Event()

    async def on_frame(src: Any, got: dict[str, Any]) -> None:
        nonlocal received
        received += 1
        arrived.set()

    async def no_client(first: Any, reader: Any, writer: Any) -> None:
        writer.close()

    ports = free_ports(2)
    ends = [
        Transport(
            site=SiteId(me), host="127.0.0.1", port=ports[me - 1],
            peers={SiteId(3 - me): ("127.0.0.1", ports[2 - me])},
            clock=TimeoutClock(), on_frame=on_frame, on_client=no_client,
            on_suspect=lambda peer: None, on_recover=lambda peer: None,
        )
        for me in (1, 2)
    ]
    try:
        for end in ends:
            await end.start()
        while not all(end.all_peers_seen() for end in ends):
            await asyncio.sleep(0.005)
        burst, sent, begun = 200, 0, _clock()
        while _clock() - begun < seconds:
            for _ in range(burst):
                ends[0].send(SiteId(2), frame)
            sent += burst
            while received < sent:
                arrived.clear()
                await arrived.wait()
        return sent / (_clock() - begun)
    finally:
        for end in ends:
            await end.stop()
        # Let the inbound handlers see EOF instead of being cancelled
        # (and logged) when the loop exits.
        await asyncio.sleep(0.05)


def transport_loopback(frame: dict[str, Any], seconds: float) -> float:
    """Frames/s between two ``Transport`` endpoints with a no-op handler."""
    return asyncio.run(_loopback_rate(frame, seconds))


def stitch_rate(data_dir: Path) -> float:
    from repro.live.stitch import stitch_data_dir

    begun = _clock()
    result = stitch_data_dir(data_dir)
    return len(result.trace) / (_clock() - begun)


def audit_rate(data_dir: Path) -> tuple[float, list[str]]:
    """Audited txns/s over ``data_dir``, and the violations found."""
    from repro.live.audit import audit_data_dir

    begun = _clock()
    report = audit_data_dir(data_dir)
    return report.txns / (_clock() - begun), list(report.violations)


def run(
    frames: list[dict[str, Any]], data_dir: Path, scratch: Path, seconds: float
) -> tuple[dict[str, Optional[float]], list[str], list[str]]:
    """Every source-M metric, warnings, and audit violations.

    ``frames`` are the peer frames captured in the traced run,
    ``data_dir`` a finished repeat's data directory, ``seconds``
    the time each timed loop runs.
    """
    warnings: list[str] = []

    def attempt(what: str, fn: Callable[[], Any], default: Any = None) -> Any:
        try:
            return fn()
        except Exception as error:  # noqa: BLE001 - a removed API must not break the gate
            warnings.append(f"microbenchmark {what} unavailable: {type(error).__name__}: {error}")
            return default

    def need_frames() -> list[dict[str, Any]]:
        if not frames:
            raise LookupError("the traced run captured no peer frames")
        return frames

    metrics: dict[str, Optional[float]] = {}
    for prefix, codec in (("wire", wire_json), ("wire_bin", wire_bin)):
        encode, decode, size = attempt(
            prefix, lambda codec=codec: codec(need_frames(), seconds), (None, None, None)
        )
        metrics[f"{prefix}.encode_frames_per_s"] = encode
        metrics[f"{prefix}.decode_frames_per_s"] = decode
        metrics[f"{prefix}.bytes_per_frame"] = size
    metrics["transport.loopback_frames_per_s"] = attempt(
        "transport loopback", lambda: transport_loopback(need_frames()[0], seconds)
    )
    metrics["engine.sim_txns_per_s"] = attempt("engine sim", lambda: engine_sim(seconds))
    metrics["dtlog.fsync_probe_ms"] = attempt("fsync probe", lambda: fsync_probe_ms(scratch))
    for batch in (1, 16):
        metrics[f"dtlog.append_durable_records_per_s.b{batch}"] = attempt(
            f"dtlog b{batch}", lambda batch=batch: dtlog_append_durable(scratch, batch, seconds)
        )
    metrics["stitch.events_per_s"] = attempt("stitch", lambda: stitch_rate(data_dir))
    metrics["audit.txns_per_s"], violations = attempt(
        "audit", lambda: audit_rate(data_dir), (None, [])
    )
    return metrics, warnings, violations
