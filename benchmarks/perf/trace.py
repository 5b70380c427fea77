"""The traced run: three ``LiveSite``s in this process, shims on each layer.

End-to-end metrics never come from here.  This is a separate, short run
of the same workload whose only job is to say *where* a transaction's
CPU goes: the benchmark wraps the public entry points of each layer,
records a span per call in memory, and reports each layer's self time
(its spans minus the spans they enclose) per transaction.  Everything —
three sites and the load generator — shares one thread, so wall time per
transaction is the sum of all layers' self times plus what no shim
covers (event loop, streams, kernel): ``inproc.unattributed_us_per_txn``.

Targets are looked up by name when the shims are installed.  One that a
refactor removed yields a warning and a missing metric, never a crash:
later changes to ``src/`` may not edit this directory.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import importlib
import inspect
import json
import socket
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional

from live import TRACE_CAP, drive, txn_id_base
from workloads import Workload

_clock = time.perf_counter


def _frame_txn(index: int) -> Callable[[tuple], Any]:
    """Transaction id of the frame dict at ``args[index]``."""

    def extract(args: tuple) -> Any:
        frame = args[index] if len(args) > index else None
        return frame.get("txn") if isinstance(frame, dict) else None

    return extract


def _arg(index: int) -> Callable[[tuple], Any]:
    return lambda args: args[index] if len(args) > index else None


#: (layer, module, qualified name, transaction-id extractor).  A layer
#: is the per-layer metric prefix its self time is reported under.
TARGETS: tuple[tuple[str, str, str, Optional[Callable[[tuple], Any]]], ...] = (
    ("node", "repro.live.node", "LiveSite._on_client", None),
    ("node", "repro.live.node", "LiveSite._on_peer_frame", _frame_txn(2)),
    ("node", "repro.live.node", "LiveSite._deliver_local", _arg(1)),
    ("node", "repro.live.node", "LiveSite._publish_durable", None),
    ("node", "repro.live.node", "LiveSite._on_fsync_batch", None),
    ("node", "repro.live.node", "LiveSite._metrics_timer_fired", None),
    ("node.trace", "repro.live.node", "LiveSite.trace", None),
    ("node.metrics_write", "repro.live.node", "LiveSite.write_metrics", None),
    ("transport.send", "repro.live.transport", "Transport.send", _frame_txn(2)),
    ("transport.io", "repro.live.transport", "Transport._accept", None),
    ("transport.io", "repro.live.transport", "Transport._peer_sender", None),
    ("transport.io", "repro.live.transport", "Transport._heartbeat_loop", None),
    ("transport.io", "repro.live.transport", "Transport._suspicion_loop", None),
    ("wire", "repro.live.wire", "encode_frame", _frame_txn(0)),
    ("wire", "repro.live.wire", "read_frame", None),
    ("wire", "repro.live.wire", "FrameDecoder.feed", None),
    ("wire_bin", "repro.live.wire_bin", "encode_frame_bin", _frame_txn(0)),
    ("wire_bin", "repro.live.wire_bin", "BinFrameDecoder.feed", None),
    ("engine", "repro.runtime.engine", "Engine.receive", None),
    ("engine", "repro.runtime.engine", "Engine.pump", None),
    ("dtlog", "repro.live.dtlog", "SiteLogStore.append_record", _arg(1)),
    ("dtlog", "repro.live.dtlog", "SiteLogStore.wait_durable", None),
    ("dtlog", "repro.live.dtlog", "SiteLogStore._flush_loop", None),
    ("metrics", "repro.metrics.registry", "MetricsRegistry.inc", None),
    ("metrics", "repro.metrics.registry", "MetricsRegistry.observe", None),
    ("metrics", "repro.metrics.registry", "MetricsRegistry.set_gauge", None),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))


class Tracer:
    """Span recorder plus the shims that feed it.

    A span is ``[name, layer, start, end, parent, txn]``; ``parent`` is
    the index of the enclosing span.  The process is single-threaded and
    a span covers one uninterrupted stretch of execution (a sync call,
    or one resumption of a coroutine), so one stack suffices.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.recording = False
        self.warnings: list[str] = []
        self.installed: set[str] = set()
        #: Seconds coroutines spent suspended, by span name.
        self.waits: dict[str, float] = {}
        #: Peer frames as handed to ``Transport.send``, heartbeats excluded.
        self.frames: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.waits.clear()
        self.frames.clear()

    def _enter(self, name: str, layer: str, txn: Any) -> list[Any]:
        stack = self._stack
        span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, txn]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = _clock()
        return span

    def _exit(self, span: list[Any]) -> float:
        span[3] = _clock()
        self._stack.pop()
        return span[3] - span[2]

    # -- shims ----------------------------------------------------------

    def _sync_shim(self, fn: Callable, name: str, layer: str, txn_of) -> Callable:
        # The hot path: tens of calls per transaction go through here,
        # so it is written flat, with no helper calls.
        tracer, spans, stack = self, self.spans, self._stack
        capture = self.frames if name == "Transport.send" else None

        @functools.wraps(fn)
        def shim(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return fn(*args, **kwargs)
            if capture is not None and len(args) > 2 and args[2].get("t") != "hb":
                capture.append(dict(args[2]))
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                    txn_of(args) if txn_of else None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = _clock()
                stack.pop()

        return shim

    def _async_shim(self, fn: Callable, name: str, layer: str, txn_of) -> Callable:
        tracer = self

        class Slices:
            """Awaitable that records one span per resumption of ``coro``."""

            def __init__(self, coro: Any, txn: Any) -> None:
                self.coro, self.txn = coro, txn

            def __await__(self):
                inner = self.coro.__await__()
                value, error = None, None
                began, running = _clock(), 0.0
                try:
                    while True:
                        span = tracer._enter(name, layer, self.txn) if tracer.recording else None
                        try:
                            if error is None:
                                yielded = inner.send(value)
                            else:
                                pending, error = error, None
                                yielded = inner.throw(pending)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            if span is not None:
                                running += tracer._exit(span)
                        try:
                            value = yield yielded
                        except BaseException as thrown:  # noqa: BLE001 - forwarded
                            value, error = None, thrown
                finally:
                    if tracer.recording:
                        waited = _clock() - began - running
                        tracer.waits[name] = tracer.waits.get(name, 0.0) + waited

        @functools.wraps(fn)
        async def shim(*args: Any, **kwargs: Any) -> Any:
            return await Slices(fn(*args, **kwargs), txn_of(args) if txn_of else None)

        return shim

    def install(self) -> None:
        """Wrap every target that still exists; warn about the rest."""
        for layer, module_name, qualname, txn_of in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner: Any = module
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as error:
                self.warnings.append(f"trace target {module_name}.{qualname} missing: {error}")
                continue
            make = self._async_shim if inspect.iscoroutinefunction(original) else self._sync_shim
            shim = make(original, qualname, layer, txn_of)
            if owner is module:
                # A module-level function: rebind it in every module
                # that imported it by name.
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("repro") and (
                        getattr(other, attr, None) is original
                    ):
                        self._patch(other, attr, original, shim)
            else:
                self._patch(owner, attr, original, shim)
            self.installed.add(qualname)

    def _patch(self, owner: Any, attr: str, original: Any, shim: Any) -> None:
        setattr(owner, attr, shim)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reporting ------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call counts by span name.

        A span's self time is its duration minus its children's, minus
        what the shims themselves cost: each child's shim spends
        ``outside`` seconds in its parent's span before and after its
        own, and ``inside`` seconds of its own span reading the clock.
        Without that correction a layer that makes many small calls into
        others (the node into trace and metrics) would be charged for
        the instrumentation.
        """
        outside, inside = shim_cost()
        below = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                below[parent] += end - start + outside
        seconds: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, _, start, end, _, _), children in zip(self.spans, below):
            own = max(0.0, end - start - children - inside)
            seconds[name] = seconds.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
        return seconds, calls

    def write(self, path: Path) -> None:
        """Write the spans out as JSONL, times relative to the first.

        A span with no transaction id of its own takes its parent's.
        """
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                name, layer, start, end, parent, txn = span
                if txn is None and parent >= 0:
                    txn = span[5] = self.spans[parent][5]
                out.write(
                    json.dumps(
                        {
                            "id": index, "name": name, "layer": layer,
                            "start_us": round((start - origin) * 1e6, 1),
                            "end_us": round((end - origin) * 1e6, 1),
                            "parent": parent if parent >= 0 else None, "txn": txn,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def shim_cost(calls: int = 20_000) -> tuple[float, float]:
    """Seconds one sync shim adds ``(outside, inside)`` its own span."""
    probe = Tracer()
    probe.recording = True
    leaf = probe._sync_shim(lambda: None, "leaf", "calibration", None)
    bare = _clock()
    for _ in range(calls):
        pass
    bare = _clock() - bare
    begun = _clock()
    for _ in range(calls):
        leaf()
    total = (_clock() - begun - bare) / calls
    inside = sum(end - start for _, _, start, end, _, _ in probe.spans) / calls
    return max(0.0, total - inside), inside


def free_ports(count: int) -> list[int]:
    """Reserve ``count`` currently-free loopback TCP ports."""
    sockets = [socket.socket() for _ in range(count)]
    try:
        for sock in sockets:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


async def _serve_inproc(
    wl: Workload, data_dir: Path, seed: int, txns: int, warmup: int,
    tracer: Optional[Tracer],
) -> tuple[float, int]:
    """Run ``wl`` closed-loop on three in-process sites; ``(wall_s, txns)``.

    Same ``LiveConfig`` values the cluster harness passes to ``repro
    serve``.  The open-loop workload is driven closed-loop over its four
    connections here: wall time per transaction needs a busy thread.
    """
    from repro.live.client import ClientSession
    from repro.live.cluster import ClusterConfig
    from repro.live.node import LiveConfig, LiveSite

    defaults = ClusterConfig(spec_name=wl.spec_name, data_dir=data_dir)
    ports = dict(zip((1, 2, 3), free_ports(3)))
    sites = [
        LiveSite(
            LiveConfig(
                site=site,
                spec_name=wl.spec_name,
                n_sites=3,
                port=ports[site],
                peers={p: (defaults.host, port) for p, port in ports.items() if p != site},
                data_dir=data_dir,
                host=defaults.host,
                hb_interval=defaults.hb_interval,
                suspect_after=defaults.suspect_after,
                requery_interval=defaults.requery_interval,
                max_inflight=defaults.max_inflight,
                vote=wl.vote3 if site == 3 else "yes",
                codec=wl.codec,
                presumption=wl.presumption,
                trace_max_entries=TRACE_CAP,
            )
        )
        for site in ports
    ]
    started: list[Any] = []
    try:
        for site in sites:
            await site.start()
            started.append(site)
        while not all(site.transport.all_peers_seen() for site in sites):
            await asyncio.sleep(0.01)
        client_ports = [
            ports[i % 3 + 1 if wl.rotate_gateways else 1] for i in range(wl.clients)
        ]
        base = txn_id_base(seed, 0)
        ids = iter(range(base, base + 1_000_000))

        async def settle(last_ids: list[int]) -> None:
            for port in ports.values():
                async with ClientSession(defaults.host, port) as session:
                    for txn_id in last_ids:
                        while (
                            await session.request({"t": "status", "txn": txn_id})
                        )["outcome"] not in ("commit", "abort"):
                            await asyncio.sleep(0.002)

        warm = await drive(defaults.host, client_ports, wl.outcome, ids, count=warmup)
        await settle(warm.last_ids)
        if tracer is not None:
            tracer.reset()
            tracer.recording = True
        begun = _clock()
        load = await drive(defaults.host, client_ports, wl.outcome, ids, count=txns)
        wall = _clock() - begun
        if tracer is not None:
            tracer.recording = False
        if load.failed:
            raise RuntimeError(f"in-process run failed {load.failed} txns: {load.errors[:3]}")
        return wall, load.completed
    finally:
        for site in started:
            await site.stop()
        # Let the inbound-connection handlers see EOF and finish; the
        # loop would otherwise cancel them at exit and log each one.
        await asyncio.sleep(0.05)


def _run_inproc(wl, data_dir, seed, txns, warmup, tracer) -> tuple[float, int]:
    """One in-process run under the ``run_site`` gc tuning."""
    thresholds = gc.get_threshold()
    gc.collect()
    gc.freeze()
    gc.set_threshold(50_000, 25, 25)
    try:
        return asyncio.run(_serve_inproc(wl, data_dir, seed, txns, warmup, tracer))
    finally:
        gc.set_threshold(*thresholds)
        gc.unfreeze()


def traced(
    wl: Workload, out_dir: Path, seed: int, txns: int, warmup: int
) -> tuple[dict[str, Optional[float]], list[dict[str, Any]], list[str]]:
    """The per-layer metrics of source T, the captured frames, warnings."""
    tracer = Tracer()
    tracer.install()
    try:
        wall, n = _run_inproc(wl, out_dir / "inproc-traced", seed, txns, warmup, tracer)
    finally:
        tracer.uninstall()
    plain_wall, plain_n = _run_inproc(wl, out_dir / "inproc-plain", seed, txns, warmup, None)
    tracer.write(out_dir / f"trace-{wl.name}.jsonl")

    seconds, calls = tracer.self_times()
    by_layer = dict.fromkeys(LAYERS, 0.0)
    present = set()
    for layer, _, qualname, _ in TARGETS:
        if qualname in tracer.installed:
            present.add(layer)
            by_layer[layer] += seconds.get(qualname, 0.0)

    def per_txn(layer: str) -> Optional[float]:
        return by_layer[layer] * 1e6 / n if layer in present else None

    def count(qualname: str) -> Optional[float]:
        return calls.get(qualname, 0) / n if qualname in tracer.installed else None

    metric_calls = [count(f"MetricsRegistry.{m}") for m in ("inc", "observe", "set_gauge")]
    wall_us = wall * 1e6 / n
    metrics: dict[str, Optional[float]] = {
        "node.self_us_per_txn": per_txn("node"),
        "node.trace.self_us_per_txn": per_txn("node.trace"),
        "node.trace.events_per_txn": count("LiveSite.trace"),
        "node.metrics_write.self_us_per_txn": per_txn("node.metrics_write"),
        "node.metrics_write.calls_per_txn": count("LiveSite.write_metrics"),
        "transport.send.self_us_per_txn": per_txn("transport.send"),
        "transport.io.self_us_per_txn": per_txn("transport.io"),
        "wire.self_us_per_txn": per_txn("wire"),
        "wire_bin.self_us_per_txn": per_txn("wire_bin"),
        "engine.self_us_per_txn": per_txn("engine"),
        "engine.receives_per_txn": count("Engine.receive"),
        "dtlog.self_us_per_txn": per_txn("dtlog"),
        "dtlog.durable_wait_us_per_txn": (
            tracer.waits.get("SiteLogStore.wait_durable", 0.0) * 1e6 / n
            if "SiteLogStore.wait_durable" in tracer.installed
            else None
        ),
        "metrics.self_us_per_txn": per_txn("metrics"),
        "metrics.calls_per_txn": (
            None if None in metric_calls else sum(metric_calls)
        ),
        "inproc.wall_us_per_txn": wall_us,
        "inproc.unattributed_us_per_txn": wall_us - sum(by_layer.values()) * 1e6 / n,
        "tracing.overhead_ratio": wall_us / (plain_wall * 1e6 / plain_n),
    }
    # The microbenchmarks replay the peer frames of the first 100
    # transactions of the traced window.
    first = set(list(dict.fromkeys(frame.get("txn") for frame in tracer.frames))[:100])
    frames = [frame for frame in tracer.frames if frame.get("txn") in first]
    return metrics, frames, tracer.warnings
