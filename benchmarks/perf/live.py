"""Load repeats and coordinator-kill trials on real ``repro serve`` processes.

Everything here goes through the public surface only —
:class:`ClusterHarness` / :class:`ClusterConfig`,
:class:`~repro.live.client.ClientSession`, ``audit_data_dir`` — plus
what can be read from outside a site: its metrics snapshot, its files'
sizes and ``/proc/<pid>/stat``.  No instrumentation is installed, so the
as-measured figures are what a user of the cluster would see on this
host.  The host is a shared one whose speed drifts by tens of percent
over minutes, so beside every load window a :class:`HostGauge` times a
fixed piece of work, and each ``nominal_*`` metric (and ``setup_s``) is
the as-measured figure restated at the gauge's nominal reading (see
:func:`repeat_end_to_end`).

A *repeat* is: fresh cluster and data dir → all ready (``setup_s``) →
warm-up, discarded → the measured load window → drain → stationarity
and exact-counter gates.  A *kill trial* is: fresh cluster → one
transaction whose coordinator is paused mid-broadcast and ``kill -9``-ed
(``termination_ms``) → the coordinator rejoins → atomicity audit.  The
two never share a cluster, so a load window always measures a cluster
no site of which has restarted.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import random
import socket
import threading
import time
from pathlib import Path
from typing import Any, Awaitable, Callable, Iterator, Optional

from repro.errors import LiveTimeoutError, TransportError
from repro.live.client import ClientSession
from repro.live.cluster import PAUSE_POINTS, ClusterConfig, ClusterHarness
from repro.types import SiteId

from stats import percentile
from workloads import Workload

#: Open-loop latency limit: an arrival slower than this, or failed,
#: counts as a miss in ``loadgen.slo_miss_ratio``.
SLO_MS = 50.0
#: Large enough that no site ever drops a trace entry in a repeat; the
#: default ring fills at about 8000 txns and the sites then stop
#: tracing, which raises throughput 15 % mid-run.
TRACE_CAP = 5_000_000
DECIDE_TIMEOUT_S = 10.0
#: The failure detector's patience under load.  This host stalls a whole
#: process for longer than the harness's 0.6 s now and then (about once
#: in 15 minutes of load); the sites then suspect each other, run the
#: termination protocol and abort a transaction no failure touched.  No
#: site fails in a load window, so the detector may as well wait; kill
#: trials keep the default, which is what ``termination_ms`` times.
LOAD_SUSPECT_AFTER_S = 5.0
#: The host gauge's reading, in CPU µs per unit of its work, at which a
#: ``nominal_*`` metric equals the as-measured one.  About what this
#: sandbox gives when its host is quiet; only the scale hangs on it.
NOMINAL_UNIT_US = 150.0
GAUGE_EVERY_S = 0.004
COORDINATOR = SiteId(1)
SURVIVORS = (SiteId(2), SiteId(3))
_DECIDED = ("commit", "abort")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class GateError(Exception):
    """A stationarity or correctness gate failed: the run is invalid."""


@dataclasses.dataclass
class Load:
    """What the load generator saw over one phase (client clock)."""

    latency_ms: list[float] = dataclasses.field(default_factory=list)
    late_ms: list[float] = dataclasses.field(default_factory=list)
    overhead_ms: list[float] = dataclasses.field(default_factory=list)
    stages: dict[str, list[float]] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    #: The load generator's own CPU over the phase.
    cpu_s: float = 0.0
    #: The host gauge's mean reading over the phase (0: not gauged).
    host_unit_us: float = 0.0
    #: Each connection's final transaction — the only ones that can
    #: still be in flight at a participant once every reply is in.
    last_ids: list[int] = dataclasses.field(default_factory=list)
    errors: list[str] = dataclasses.field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


@dataclasses.dataclass
class Setup:
    """First spawn → all ready markers, and the host gauge's reading meanwhile."""

    seconds: float
    host_unit_us: float

    def metrics(self) -> dict[str, float]:
        """``setup_s`` at the nominal host speed, beside the figure as measured."""
        return {
            "setup_s": self.seconds * NOMINAL_UNIT_US / self.host_unit_us,
            "setup_measured_s": self.seconds,
        }


@dataclasses.dataclass
class Repeat:
    """Everything measured from outside over one load repeat."""

    setup: Setup
    #: The warm-up and the window together.
    attempted: int
    failed: int
    errors: list[str]
    load: Load
    site_cpu_s: float
    #: Cluster-wide counter deltas over the load window.
    counters: dict[str, int]


@dataclasses.dataclass
class KillTrial:
    """One coordinator kill, timed from outside."""

    setup: Setup
    termination_ms: float
    rejoin_ms: float
    failed: int
    errors: list[str]
    suspect_after_s: float


def txn_id_base(seed: int, index: int) -> int:
    """A transaction-id range no other (seed, cluster index) pair shares."""
    return (seed % 100_000 + 1) * 100_000_000 + index * 1_000_000


def poisson_arrivals(seed: int, index: int, rate: float, seconds: float) -> list[float]:
    """Seeded Poisson arrival offsets in ``[0, seconds)`` at ``rate`` per second."""
    rng = random.Random(seed * 1000 + index)
    arrivals, at = [], rng.expovariate(rate)
    while at < seconds:
        arrivals.append(at)
        at += rng.expovariate(rate)
    return arrivals


class HostGauge:
    """How fast this host runs a fixed piece of work right now.

    One unit is a short Python loop plus four round trips of a
    reply-sized JSON message over a socket pair — bytecode, the JSON
    codec and socket system calls, the mix a site runs on — and its
    reading is the thread CPU time the unit took.  The work never
    changes and touches nothing of the system under test, so the mean
    reading over a window says how slow the *host* was over that window:
    across 56 runs of 15 s it moved in proportion (log-log slope
    0.97-1.02) to the sites' CPU per transaction, the median latency and
    the inverse throughput of an unchanged cluster.  The mean, not the
    median: the time lost in the slow units is the signal.
    """

    _MESSAGE = json.dumps(
        {"t": "decided", "txn": 123456789, "outcome": "commit", "elapsed_ms": 12.345,
         "stages": {"queue_ms": 0.1, "resolve_ms": 9.2, "durable_ms": 3.0}}
    ).encode()

    def __init__(self) -> None:
        self._near, self._far = socket.socketpair()
        self._cpu_s = 0.0
        self._units = 0

    def unit(self) -> None:
        """Do one unit of work and add its CPU time to the reading."""
        begun = time.thread_time()
        total = 0
        for i in range(300):
            total += i * i
        for _ in range(4):
            self._near.send(self._MESSAGE)
            got = self._far.recv(4096)
            json.loads(got)
            json.dumps({"k": total, "d": len(got)})
        self._cpu_s += time.thread_time() - begun
        self._units += 1

    def close(self) -> float:
        """Release the sockets; the mean reading in CPU µs per unit."""
        self._near.close()
        self._far.close()
        return self._cpu_s * 1e6 / max(1, self._units)


async def gauged(phase: Awaitable[Load]) -> Load:
    """Run a load phase with the host gauge beside it, a unit every few ms."""
    gauge = HostGauge()
    task = asyncio.ensure_future(phase)
    try:
        while not task.done():
            gauge.unit()
            await asyncio.sleep(GAUGE_EVERY_S)
        load = task.result()
    finally:
        task.cancel()
        reading = gauge.close()
    load.host_unit_us = reading
    return load


async def drive(
    host: str,
    ports: list[int],
    expected: str,
    ids: Iterator[int],
    *,
    count: Optional[int] = None,
    seconds: Optional[float] = None,
    arrivals: Optional[list[float]] = None,
) -> Load:
    """Run one load phase: one session per port, one request in flight each.

    Closed loop for ``count`` transactions or ``seconds``; open loop
    when ``arrivals`` (offsets from the phase start) is given — then an
    arrival goes to the first free session and is timed from when it
    was *due*, so waiting behind a stall counts.
    """
    load = Load()
    sessions = [ClientSession(host, port) for port in ports]
    issued = 0
    try:
        for session in sessions:
            await session.connect()
        start, cpu_start = time.perf_counter(), time.process_time()

        def claim() -> Optional[float]:
            """Take the next transaction; its due time, or None to stop."""
            nonlocal issued
            now = time.perf_counter()
            if arrivals is not None:
                if issued >= len(arrivals):
                    return None
                due = start + arrivals[issued]
            elif count is not None:
                if issued >= count:
                    return None
                due = now
            else:
                if now >= start + seconds:
                    return None
                due = now
            issued += 1
            return due

        async def worker(session: ClientSession) -> None:
            last = None
            while (due := claim()) is not None:
                txn_id = last = next(ids)
                claimed = time.perf_counter()
                if due > claimed:
                    await asyncio.sleep(due - claimed)
                load.attempted += 1
                sent = time.perf_counter()
                try:
                    reply = await session.begin_txn(txn_id, timeout=DECIDE_TIMEOUT_S)
                except (TransportError, LiveTimeoutError) as error:
                    load.failed += 1
                    load.errors.append(f"txn {txn_id}: {type(error).__name__}: {error}")
                    break
                done = time.perf_counter()
                if reply.get("outcome") != expected:
                    load.failed += 1
                    load.errors.append(
                        f"txn {txn_id}: {reply.get('outcome')!r}, expected {expected!r}"
                    )
                    continue
                load.latency_ms.append((done - due) * 1e3)
                # How late the generator itself ran: waiting for a free
                # session is the system's queue, and is in the latency.
                load.late_ms.append((sent - max(due, claimed)) * 1e3)
                load.overhead_ms.append((done - sent) * 1e3 - float(reply["elapsed_ms"]))
                for stage, value in (reply.get("stages") or {}).items():
                    load.stages.setdefault(stage, []).append(float(value))
            if last is not None:
                load.last_ids.append(last)

        await asyncio.gather(*(worker(session) for session in sessions))
        load.elapsed_s = time.perf_counter() - start
        load.cpu_s = time.process_time() - cpu_start
    finally:
        for session in sessions:
            await session.close()
    return load


def _cpu_seconds(pid: int) -> float:
    """utime + stime of one process, from ``/proc/<pid>/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _sites_cpu(harness: ClusterHarness) -> float:
    return sum(_cpu_seconds(p.pid) for p in harness.processes.values())


def _read_counters(harness: ClusterHarness) -> dict[str, int]:
    """Cluster-wide totals from the sites' snapshots and files."""
    totals = dict.fromkeys(
        (
            "forced_writes", "forced_writes_skipped", "fsync_calls",
            "frames_sent", "socket_writes", "proto_frames",
            "dtlog_bytes", "trace_bytes",
        ),
        0,
    )
    data_dir = harness.config.data_dir
    for site in harness.ports:
        snapshot = harness.site_metrics(site) or {}
        live = snapshot.get("live", {})
        for key in ("forced_writes", "forced_writes_skipped", "fsync_calls",
                    "frames_sent", "socket_writes"):
            totals[key] += int(live.get(key, 0))
        totals["proto_frames"] += sum(
            value
            for key, value in snapshot.get("counters", {}).items()
            if key.startswith("proto_frames_sent_total")
        )
        # The trace file is block-buffered by the site, so its size lags
        # by at most one buffer per site.
        totals["dtlog_bytes"] += (data_dir / f"site-{int(site)}.dtlog").stat().st_size
        totals["trace_bytes"] += (data_dir / f"site-{int(site)}.trace.jsonl").stat().st_size
    return totals


def drain(harness: ClusterHarness, last_ids: list[int], timeout: float = 5.0) -> None:
    """Wait until every site has finished every transaction begun so far.

    The gateway replies before the participants publish, so first poll
    each session's final transaction at every site (peer links are
    FIFO, so a site that decided those has processed everything older),
    then require the stationarity gate: no site reports a transaction in
    flight or a dropped trace entry.
    """
    deadline = time.monotonic() + timeout
    for site in harness.ports:
        for txn_id in last_ids:
            while True:
                view = harness.status(txn_id, site)
                if view is not None and view["outcome"] in _DECIDED:
                    break
                if time.monotonic() > deadline:
                    raise GateError(f"txn {txn_id} still undecided at site {site}: {view}")
                time.sleep(0.005)
    while True:
        lives = [(harness.site_metrics(site) or {}).get("live") for site in harness.ports]
        if all(live is not None and live.get("inflight_txns") == 0 for live in lives):
            break
        if time.monotonic() > deadline:
            raise GateError(f"sites did not quiesce: {lives}")
        time.sleep(0.005)
    dropped = {int(live["site"]): live["trace_dropped"] for live in lives}
    if any(dropped.values()):
        raise GateError(f"trace entries dropped (raise TRACE_CAP): {dropped}")


def _cluster(wl: Workload, data_dir: Path) -> ClusterConfig:
    return ClusterConfig(
        spec_name=wl.spec_name,
        data_dir=data_dir,
        codec=wl.codec,
        presumption=wl.presumption,
        trace_cap=TRACE_CAP,
    )


def _spawn_all(
    harness: ClusterHarness, wl: Workload, pause_after: Optional[str] = None
) -> Setup:
    """Spawn the three sites and wait until all are ready.

    A thread of this process takes the host gauge's reading meanwhile;
    the harness only polls for the ready markers.
    """
    gauge, ready = HostGauge(), threading.Event()

    def beside() -> None:
        while not ready.is_set():
            gauge.unit()
            ready.wait(GAUGE_EVERY_S)

    thread = threading.Thread(target=beside)
    spawned = time.monotonic()
    thread.start()
    try:
        harness.spawn(COORDINATOR, pause_after=pause_after)
        harness.spawn(SURVIVORS[0])
        harness.spawn(SURVIVORS[1], vote=wl.vote3)
        harness.wait_all_ready()
        seconds = time.monotonic() - spawned
    finally:
        ready.set()
        thread.join()
        reading = gauge.close()
    return Setup(seconds, reading)


def run_repeat(
    wl: Workload,
    data_dir: Path,
    seed: int,
    index: int,
    *,
    warmup: int,
    txns: int = 0,
    seconds: float = 0.0,
) -> Repeat:
    """One load repeat of ``wl`` on a fresh cluster, stopped on return.

    The first ``warmup`` transactions are discarded.  The window is
    ``txns`` transactions, or ``seconds`` when given (the open loop runs
    its schedule for ``txns / rate`` seconds).

    Raises:
        GateError: If the cluster did not quiesce, dropped trace
            entries, or an exact per-transaction counter is off.
    """
    config = _cluster(wl, data_dir)
    config.suspect_after = LOAD_SUSPECT_AFTER_S
    base = txn_id_base(seed, index)
    ids = iter(range(base, base + 1_000_000))
    with ClusterHarness(config) as harness:
        setup = _spawn_all(harness, wl)
        # Session i goes to gateway 1, 2, 3, 1.  Which gateway gets the
        # extra session changes the figures (a no-voting gateway replies
        # before the coordinator decides), so it is not seeded.
        sites = sorted(harness.ports)
        ports = [
            harness.ports[sites[i % len(sites) if wl.rotate_gateways else 0]]
            for i in range(wl.clients)
        ]
        warm = asyncio.run(drive(config.host, ports, wl.outcome, ids, count=warmup))
        drain(harness, warm.last_ids)
        if wl.open_rate is not None:
            schedule = poisson_arrivals(seed, index, wl.open_rate, seconds or txns / wl.open_rate)
            window: dict[str, Any] = {"arrivals": schedule}
        elif seconds:
            window = {"seconds": seconds}
        else:
            window = {"count": txns}
        before = _read_counters(harness)
        cpu_before = _sites_cpu(harness)
        load = asyncio.run(gauged(drive(config.host, ports, wl.outcome, ids, **window)))
        drain(harness, load.last_ids)
        site_cpu_s = _sites_cpu(harness) - cpu_before
        after = _read_counters(harness)
    if not load.completed:
        raise GateError(f"{wl.name}: no transaction completed: {load.errors[:3]}")
    counters = {key: after[key] - before[key] for key in after}
    if not load.failed:
        for key, per_txn in (
            ("proto_frames", wl.frames),
            ("forced_writes", wl.forced),
            ("forced_writes_skipped", wl.skipped),
        ):
            if counters[key] != per_txn * load.attempted:
                raise GateError(
                    f"{wl.name}: {key} = {counters[key]} over {load.attempted} "
                    f"txns, expected exactly {per_txn} per txn"
                )
    return Repeat(
        setup=setup,
        attempted=warm.attempted + load.attempted,
        failed=warm.failed + load.failed,
        errors=warm.errors + load.errors,
        load=load,
        site_cpu_s=site_cpu_s,
        counters=counters,
    )


def _poll(what: str, done: Callable[[], Any], since: float) -> Any:
    """Poll ``done()`` every 10 ms until it returns something truthy."""
    while True:
        result = done()
        if result:
            return result
        if time.monotonic() > since + DECIDE_TIMEOUT_S:
            raise GateError(f"timed out waiting for {what}")
        time.sleep(0.01)


def run_kill_trial(wl: Workload, data_dir: Path, seed: int, index: int) -> KillTrial:
    """``kill -9`` the paused coordinator of a fresh cluster; time the survivors.

    Termination runs from the SIGKILL until the termination protocol has
    given both survivors its verdict: *decided* (3PC commits from the
    prepared state; under presumed abort the yes-voter learns the abort
    from the no-voter) or *blocked* (plain 2PC — the paper's point).
    The coordinator is then respawned; rejoin runs from the respawn
    until it is ready again and every site that knows the transaction
    has decided it, which is also what unblocks the 2PC survivors.
    """
    config = _cluster(wl, data_dir)
    txn_id = txn_id_base(seed, index)
    with ClusterHarness(config) as harness:
        setup = _spawn_all(harness, wl, pause_after=f"{PAUSE_POINTS[wl.spec_name]}:2")
        harness.begin(txn_id, gateway=SURVIVORS[0], wait=False)
        harness.wait_paused(COORDINATOR)
        harness.kill(COORDINATOR)
        killed = time.monotonic()

        def survivors(settled: Callable[[dict[str, Any]], bool]) -> Any:
            views = [harness.status(txn_id, site) for site in SURVIVORS]
            return views if all(v is not None and settled(v) for v in views) else None

        _poll(
            f"a termination verdict on txn {txn_id}",
            lambda: survivors(lambda v: v["blocked"] or v["outcome"] in _DECIDED),
            killed,
        )
        termination_ms = (time.monotonic() - killed) * 1e3
        harness.spawn(COORDINATOR)
        respawned = time.monotonic()
        harness.wait_all_ready()
        views = _poll(
            f"the survivors to decide txn {txn_id}",
            lambda: survivors(lambda v: v["outcome"] in _DECIDED),
            respawned,
        )
        outcomes = [v["outcome"] for v in views]

        def coordinator_resolved() -> bool:
            # Under presumed abort a restarted coordinator has no record of
            # the transaction (that absence *is* the abort): "known" is false.
            view = harness.status(txn_id, COORDINATOR)
            return view is not None and (not view["known"] or view["outcome"] in _DECIDED)

        _poll(f"the restarted coordinator to resolve txn {txn_id}", coordinator_resolved, respawned)
        rejoin_ms = (time.monotonic() - respawned) * 1e3
        harness.audit_atomicity(txn_id)
    wrong = any(outcome != wl.kill_outcome for outcome in outcomes)
    return KillTrial(
        setup=setup,
        termination_ms=termination_ms,
        rejoin_ms=rejoin_ms,
        failed=int(wrong),
        errors=[f"txn {txn_id}: survivors decided {outcomes}, expected {wl.kill_outcome!r}"]
        if wrong
        else [],
        suspect_after_s=config.suspect_after,
    )


def repeat_end_to_end(rep: Repeat, open_loop: bool) -> dict[str, float]:
    """The end-to-end metrics one load repeat yields.

    Each as-measured figure comes with its ``nominal_`` twin: the same
    figure restated at the nominal host speed, i.e. a time divided, and
    a closed loop's rate multiplied, by ``slow`` — the host gauge's mean
    reading over the window relative to :data:`NOMINAL_UNIT_US`.  An
    open loop's rate is set by its schedule, not by the host, so there
    the twin is the figure itself.
    """
    load = rep.load
    slow = load.host_unit_us / NOMINAL_UNIT_US
    measured = {
        "commit_txns_per_s": load.completed / load.elapsed_s,
        "commit_p50_ms": percentile(load.latency_ms, 0.50),
        "commit_p95_ms": percentile(load.latency_ms, 0.95),
        "commit_p99_ms": percentile(load.latency_ms, 0.99),
        "site_cpu_us_per_txn": rep.site_cpu_s * 1e6 / load.completed,
    }
    nominal = {
        f"nominal_{name}": measured[name] / slow
        for name in ("commit_p50_ms", "commit_p95_ms", "site_cpu_us_per_txn")
    }
    return {
        **measured,
        **nominal,
        "nominal_commit_txns_per_s": measured["commit_txns_per_s"] * (1.0 if open_loop else slow),
        "host.unit_us": load.host_unit_us,
        "failed_txn_ratio": rep.failed / rep.attempted,
        **rep.setup.metrics(),
    }


def kill_end_to_end(trial: KillTrial) -> dict[str, float]:
    """The end-to-end metrics one kill trial yields."""
    return {
        "termination_ms": trial.termination_ms,
        "failed_txn_ratio": float(trial.failed),
        **trial.setup.metrics(),
    }


def repeat_counted(rep: Repeat) -> dict[str, Optional[float]]:
    """Per-layer metrics read from outside one load repeat (source C)."""
    load, c, n = rep.load, rep.counters, rep.load.completed
    misses = sum(ms > SLO_MS for ms in load.latency_ms) + load.failed
    metrics: dict[str, Optional[float]] = {
        "loadgen.cpu_us_per_txn": load.cpu_s * 1e6 / n,
        "loadgen.late_p99_ms": percentile(load.late_ms, 0.99),
        "loadgen.achieved_rate_per_s": n / load.elapsed_s,
        "loadgen.slo_miss_ratio": misses / load.attempted,
        "client.overhead_p50_ms": percentile(load.overhead_ms, 0.50),
        "node.trace.bytes_per_txn": c["trace_bytes"] / n,
        "transport.proto_frames_per_txn": c["proto_frames"] / n,
        "transport.frames_per_socket_write": c["frames_sent"] / max(1, c["socket_writes"]),
        "transport.socket_writes_per_txn": c["socket_writes"] / n,
        "dtlog.forced_writes_per_txn": c["forced_writes"] / n,
        "dtlog.skipped_forces_per_txn": c["forced_writes_skipped"] / n,
        "dtlog.fsyncs_per_txn": c["fsync_calls"] / n,
        "dtlog.records_per_fsync": c["forced_writes"] / max(1, c["fsync_calls"]),
        "dtlog.bytes_per_txn": c["dtlog_bytes"] / n,
    }
    for stage in ("queue", "resolve", "durable"):
        samples = load.stages.get(f"{stage}_ms")
        metrics[f"node.{stage}_p50_ms"] = percentile(samples, 0.50) if samples else None
    return metrics


def kill_counted(trial: KillTrial) -> dict[str, Optional[float]]:
    """Per-layer metrics of one kill trial (source C)."""
    return {
        "termination.over_detector_ms": trial.termination_ms - trial.suspect_after_s * 1e3,
        "recovery.rejoin_ms": trial.rejoin_ms,
    }
