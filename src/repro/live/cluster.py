"""The cluster harness: N real site processes, real crashes, one audit.

:class:`ClusterHarness` is the deployment counterpart of the simulator
harness: it spawns one ``repro serve`` subprocess per site on loopback,
waits for the mesh to form, drives transactions through a gateway, and
injects failures with actual POSIX signals — ``SIGKILL`` is delivered
to a process that has just flushed a broadcast, not to a model.

Determinism over wall clocks comes from *markers*, not sleeps: a site
configured with ``pause_after`` freezes at an exact protocol point and
writes ``site-N.paused``; the harness waits for the marker and only
then kills.  Readiness works the same way (``site-N.ready`` appears
once a site has heard from every peer), so no transaction starts while
the mesh could still misread slow startup as failure.

:func:`kill_coordinator_scenario` packages the paper's headline
experiment as one callable: run a transaction, ``kill -9`` the
coordinator mid-broadcast, watch the survivors — 3PC terminates
(commit), 2PC blocks until the coordinator's restarted incarnation
resolves it — then audit atomicity across every site's final outcome.

:meth:`ClusterHarness.bench` measures the healthy path as a
closed-loop benchmark: ``concurrency`` client workers each keep one
transaction in flight through a gateway, so N in-flight transactions
exercise the sites' group-commit DT logs and frame coalescing.  The
report carries client-observed latency percentiles plus the
amortization counters (``fsync_calls`` vs ``forced_writes``,
``socket_writes`` vs frames).  ``concurrency=1`` is the strictly
serial path the kill-scenario determinism relies on.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional

import repro
from repro.errors import (
    AtomicityViolationError,
    ClusterError,
    LiveTimeoutError,
)
from repro.live import client
from repro.live.chaos import ChaosPolicy, gray_link_policy
from repro.live.node import check_site_options
from repro.live.wire_bin import CODEC_JSON
from repro.types import Outcome, SiteId


@dataclasses.dataclass
class ClusterConfig:
    """Shape and timing of one live cluster.

    The default timing profile is tuned for loopback test runs: fast
    heartbeats and short suspicion so kill/recover scenarios finish in
    seconds.  Production-ish LAN deployments would scale these up
    together (suspicion must stay a few heartbeats wide).
    """

    spec_name: str
    data_dir: Path
    n_sites: int = 3
    host: str = "127.0.0.1"
    hb_interval: float = 0.1
    suspect_after: float = 0.6
    requery_interval: float = 0.3
    termination_mode: str = "standard"
    ready_timeout: float = 30.0
    decide_timeout: float = 30.0
    max_inflight: int = 64
    #: Optional chaos policy applied cluster-wide: serialized to
    #: ``data_dir/chaos.json`` at spawn time and passed to every site
    #: via ``repro serve --chaos`` (each site applies its own slice).
    chaos: Optional[ChaosPolicy] = None
    #: Wire codec for peer links (``"json"`` or ``"bin"``); every site
    #: gets ``repro serve --codec`` with it.  Mixed clusters are legal
    #: (negotiated per connection) but a harness spawns uniform ones.
    codec: str = CODEC_JSON
    #: Commit presumption, cluster-uniform (``none`` / ``abort`` /
    #: ``commit``); every site gets ``repro serve --presumption``.
    presumption: str = "none"
    #: Sites taking the read-only one-phase exit (cluster-uniform so
    #: every site builds the same spec); excluded from the benchmark's
    #: gateway rotation — a read-only site never hosts a client begin.
    ro_sites: tuple[SiteId, ...] = ()
    #: Event-loop implementation every site runs (``asyncio`` /
    #: ``uvloop``).
    loop: str = "asyncio"
    #: Per-site trace ring capacity override (``repro serve
    #: --trace-cap``); ``None`` keeps the serve default.
    trace_cap: Optional[int] = None

    def __post_init__(self) -> None:
        self.data_dir = Path(self.data_dir)
        if self.n_sites < 2:
            raise ClusterError("a live cluster needs at least 2 sites")
        # Config mistakes exit with EXIT_CONFIG (LiveConfigError), not
        # EXIT_TRANSPORT, and are the same mistakes a site would refuse.
        self.ro_sites = check_site_options(
            self.codec,
            self.presumption,
            self.loop,
            self.ro_sites,
            self.n_sites,
            self.trace_cap,
        )


def _free_ports(host: str, count: int) -> list[int]:
    """Reserve ``count`` currently-free TCP ports on ``host``."""
    sockets, ports = [], []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, 0))
            sockets.append(sock)
            ports.append(sock.getsockname()[1])
    finally:
        for sock in sockets:
            sock.close()
    return ports


class ClusterHarness:
    """Spawn, drive, crash, restart, and audit one live cluster."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.config.data_dir.mkdir(parents=True, exist_ok=True)
        self.ports: dict[SiteId, int] = {
            SiteId(i): port
            for i, port in enumerate(
                _free_ports(config.host, config.n_sites), start=1
            )
        }
        self.processes: dict[SiteId, subprocess.Popen] = {}
        self._log_files: list[Any] = []

    # ------------------------------------------------------------------
    # Context manager
    # ------------------------------------------------------------------

    def __enter__(self) -> "ClusterHarness":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Process control
    # ------------------------------------------------------------------

    def _marker(self, site: SiteId, suffix: str) -> Path:
        return self.config.data_dir / f"site-{site}.{suffix}"

    def _serve_argv(
        self, site: SiteId, pause_after: Optional[str], vote: str
    ) -> list[str]:
        peers = ",".join(
            f"{peer}={self.config.host}:{port}"
            for peer, port in sorted(self.ports.items())
            if peer != site
        )
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--site", str(int(site)),
            "--spec", self.config.spec_name,
            "--sites", str(self.config.n_sites),
            "--host", self.config.host,
            "--port", str(self.ports[site]),
            "--peers", peers,
            "--data-dir", str(self.config.data_dir),
            "--hb-interval", str(self.config.hb_interval),
            "--suspect-after", str(self.config.suspect_after),
            "--requery-interval", str(self.config.requery_interval),
            "--termination-mode", self.config.termination_mode,
            "--max-inflight", str(self.config.max_inflight),
            "--vote", vote,
            "--codec", self.config.codec,
            "--presumption", self.config.presumption,
            "--loop", self.config.loop,
        ]
        if self.config.ro_sites:
            argv += ["--ro", ",".join(str(int(s)) for s in self.config.ro_sites)]
        if self.config.trace_cap is not None:
            argv += ["--trace-cap", str(self.config.trace_cap)]
        if pause_after is not None:
            argv += ["--pause-after", pause_after]
        if self.config.chaos is not None:
            argv += ["--chaos", str(self._chaos_path())]
        return argv

    def _chaos_path(self) -> Path:
        return self.config.data_dir / "chaos.json"

    def spawn(
        self,
        site: SiteId,
        pause_after: Optional[str] = None,
        vote: str = "yes",
    ) -> subprocess.Popen:
        """Start (or restart) one site process.

        Stale ready/paused markers from a previous incarnation are
        removed first, so waiting on a marker always observes the new
        process, not history.
        """
        site = SiteId(int(site))
        if site in self.processes and self.processes[site].poll() is None:
            raise ClusterError(f"site {site} is already running")
        for suffix in ("ready", "paused"):
            self._marker(site, suffix).unlink(missing_ok=True)
        if self.config.chaos is not None:
            # (Re)write the shared policy so a site restarted after a
            # config change sees the current one; the file is the
            # run's replayable chaos record.
            self.config.chaos.save(self._chaos_path())
        env = dict(os.environ)
        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        log = open(self.config.data_dir / f"site-{site}.stdio.log", "a")
        self._log_files.append(log)
        process = subprocess.Popen(
            self._serve_argv(site, pause_after, vote),
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
        )
        self.processes[site] = process
        return process

    def start(self, pause_after: dict[SiteId, str] | None = None) -> None:
        """Spawn every site and wait for the full mesh to be ready."""
        pause_after = pause_after or {}
        for site in self.ports:
            self.spawn(site, pause_after=pause_after.get(site))
        self.wait_all_ready()

    def kill(self, site: SiteId, sig: int = signal.SIGKILL) -> None:
        """Deliver a real signal to one site process and reap it."""
        site = SiteId(int(site))
        process = self.processes.get(site)
        if process is None or process.poll() is not None:
            raise ClusterError(f"site {site} is not running")
        process.send_signal(sig)
        process.wait(timeout=10)

    def stop(self) -> None:
        """Tear everything down (idempotent; used by ``__exit__``)."""
        # Every site must know it is stopping before any of them closes
        # a socket: a site still serving takes a stopped peer's refused
        # dial for the crash it looks like and runs the termination
        # protocol, a racy tail on every trace.  So freeze them all,
        # and only once every thread of every site has stopped queue
        # SIGTERM: nobody is woken for it, and on SIGCONT the first
        # thread of a site to run again takes it before anything else.
        running = [p for p in self.processes.values() if p.poll() is None]
        for process in running:
            process.send_signal(signal.SIGSTOP)

        def frozen(process: subprocess.Popen) -> bool:
            if process.poll() is not None:
                return True
            flags = os.WSTOPPED | os.WNOHANG | os.WNOWAIT
            return os.waitid(os.P_PID, process.pid, flags) is not None

        frozen_by = time.monotonic() + 1
        while not all(map(frozen, running)) and time.monotonic() < frozen_by:
            time.sleep(0.0005)
        for sig in (signal.SIGTERM, signal.SIGCONT):
            for process in running:
                process.send_signal(sig)
        deadline = time.monotonic() + 5
        for process in self.processes.values():
            remaining = max(0.1, deadline - time.monotonic())
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck proc
                process.kill()
                process.wait(timeout=5)
        for log in self._log_files:
            if not log.closed:
                log.close()
        self._log_files.clear()

    # ------------------------------------------------------------------
    # Marker / status waiting
    # ------------------------------------------------------------------

    def wait_marker(self, path: Path, timeout: float, what: str) -> None:
        """Poll for a marker file; fail loudly with context."""
        deadline = time.monotonic() + timeout
        while not path.exists():
            if time.monotonic() > deadline:
                raise LiveTimeoutError(
                    f"{what}: marker {path.name} did not appear in {timeout:g}s"
                )
            self._check_processes()
            time.sleep(0.02)

    def wait_all_ready(self) -> None:
        """Wait for every running site's ready marker."""
        for site in self.processes:
            if self.processes[site].poll() is None:
                self.wait_marker(
                    self._marker(site, "ready"),
                    self.config.ready_timeout,
                    f"site {site} ready",
                )

    def wait_paused(self, site: SiteId, timeout: float = 30.0) -> None:
        """Wait until a pause-instrumented site has frozen and flushed."""
        self.wait_marker(
            self._marker(SiteId(int(site)), "paused"), timeout, f"site {site} paused"
        )

    def _check_processes(self) -> None:
        """Fail fast if a site died when it was not supposed to."""
        for site, process in self.processes.items():
            code = process.poll()
            if code not in (None, 0, -signal.SIGKILL, -signal.SIGTERM):
                raise ClusterError(
                    f"site {site} exited unexpectedly with code {code} "
                    f"(see site-{site}.stdio.log)"
                )

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------

    def begin(
        self,
        txn_id: int,
        gateway: SiteId = SiteId(1),
        wait: bool = True,
        timeout: Optional[float] = None,
    ) -> dict[str, Any]:
        """Start one transaction through a gateway site."""
        timeout = timeout if timeout is not None else self.config.decide_timeout
        return asyncio.run(
            client.begin_txn(
                self.config.host,
                self.ports[SiteId(int(gateway))],
                txn_id,
                wait=wait,
                timeout=timeout,
            )
        )

    def begin_many(
        self,
        txn_ids: list[int],
        gateway: SiteId = SiteId(1),
        wait: bool = True,
        timeout: Optional[float] = None,
    ) -> list[dict[str, Any]]:
        """Start many transactions concurrently through one gateway.

        All begins share one event loop, so the gateway sees genuinely
        interleaved in-flight transactions; replies come back in
        ``txn_ids`` order.
        """
        timeout = timeout if timeout is not None else self.config.decide_timeout
        host, port = self.config.host, self.ports[SiteId(int(gateway))]

        async def run() -> list[dict[str, Any]]:
            return list(
                await asyncio.gather(
                    *(
                        client.begin_txn(host, port, txn, wait=wait, timeout=timeout)
                        for txn in txn_ids
                    )
                )
            )

        return asyncio.run(run())

    def status(self, txn_id: int, site: SiteId) -> Optional[dict[str, Any]]:
        """One site's view of a transaction (``None`` if unreachable)."""
        return asyncio.run(
            client.try_status(
                self.config.host, self.ports[SiteId(int(site))], txn_id
            )
        )

    def statuses(self, txn_id: int) -> dict[SiteId, Optional[dict[str, Any]]]:
        """Every site's view of a transaction."""
        return {site: self.status(txn_id, site) for site in self.ports}

    def wait_outcomes(
        self,
        txn_id: int,
        predicate: Callable[[dict[SiteId, Optional[dict[str, Any]]]], bool],
        timeout: float,
        what: str,
    ) -> dict[SiteId, Optional[dict[str, Any]]]:
        """Poll cluster-wide statuses until ``predicate`` holds."""
        deadline = time.monotonic() + timeout
        while True:
            views = self.statuses(txn_id)
            if predicate(views):
                return views
            if time.monotonic() > deadline:
                summary = {
                    int(site): (view or {}).get("outcome", "down")
                    for site, view in views.items()
                }
                raise LiveTimeoutError(f"{what}: still {summary} after {timeout:g}s")
            self._check_processes()
            time.sleep(0.05)

    def audit_atomicity(self, txn_id: int) -> dict[SiteId, str]:
        """Assert no site committed while another aborted.

        Raises:
            AtomicityViolationError: On a split decision — the exact
                inconsistency commit protocols exist to prevent.
        """
        finals: dict[SiteId, str] = {}
        for site, view in self.statuses(txn_id).items():
            if view is not None and view["outcome"] in ("commit", "abort"):
                finals[site] = view["outcome"]
        if len(set(finals.values())) > 1:
            raise AtomicityViolationError(
                f"txn {txn_id} split: "
                f"{ {int(s): o for s, o in finals.items()} }"
            )
        return finals

    # ------------------------------------------------------------------
    # Benchmark
    # ------------------------------------------------------------------

    def bench(
        self,
        n_txns: int,
        gateway: SiteId = SiteId(1),
        concurrency: int = 1,
        first_txn: int = 1,
    ) -> dict[str, Any]:
        """Closed-loop benchmark: ``concurrency`` workers, ``n_txns`` total.

        Each worker keeps exactly one transaction in flight (begin →
        wait for its gateway's durable decision → next), so the cluster
        hosts up to ``concurrency`` interleaved transactions.  Workers
        are assigned gateways round-robin starting at ``gateway`` — any
        site can gateway a transaction, so client handling spreads
        across the cluster the way a real deployment's would, while the
        protocol's coordinator stays wherever the spec puts it.
        Latency is client-observed and includes every network hop and
        forced write on the critical path.  ``concurrency=1`` is the
        strictly serial baseline: one worker, one gateway (``gateway``),
        one transaction at a time.

        Counter totals come from the per-site metrics snapshots, minus
        one boot record (one forced write, one fsync) per site, so the
        numbers reflect protocol log writes only.
        """
        if n_txns < 1:
            raise ClusterError(f"need at least 1 benchmark txn, got {n_txns}")
        if concurrency < 1:
            raise ClusterError(f"concurrency must be >= 1, got {concurrency}")
        before = self._bench_counters()
        latencies, stage_samples, elapsed = asyncio.run(
            self._bench_async(n_txns, gateway, concurrency, first_txn)
        )
        self._quiesce()
        after = self._bench_counters()
        ordered = sorted(latencies)

        def quantile(q: float) -> float:
            return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

        # Per-stage latency decomposition from the gateway replies.
        # Stages are additive per transaction (queue + resolve +
        # durable = elapsed), so the stage means sum to the mean
        # latency — the consistency the benchmark suite asserts.
        breakdown: dict[str, dict[str, float]] = {}
        for stage, values in stage_samples.items():
            values = sorted(values)

            def stage_quantile(q: float) -> float:
                return values[min(len(values) - 1, int(q * len(values)))]

            breakdown[stage] = {
                "mean": round(sum(values) / len(values), 3),
                "p50": round(stage_quantile(0.50), 3),
                "p99": round(stage_quantile(0.99), 3),
            }

        delta = {
            key: after[key] - before[key] for key in after
        }
        return {
            "protocol": self.config.spec_name,
            "n_sites": self.config.n_sites,
            "codec": self.config.codec,
            "presumption": self.config.presumption,
            "loop": self.config.loop,
            "ro_sites": [int(s) for s in self.config.ro_sites],
            "txns": n_txns,
            "concurrency": concurrency,
            "elapsed_s": round(elapsed, 4),
            "txns_per_sec": round(n_txns / elapsed, 2),
            "latency_ms": {
                "mean": round(sum(latencies) / len(latencies), 3),
                "p50": round(quantile(0.50), 3),
                "p99": round(quantile(0.99), 3),
                "max": round(ordered[-1], 3),
            },
            "latency_breakdown": breakdown,
            "forced_writes": delta["forced_writes"],
            "forced_writes_per_txn": round(delta["forced_writes"] / n_txns, 2),
            "forced_writes_skipped": delta["forced_writes_skipped"],
            "fsync_calls": delta["fsync_calls"],
            "fsyncs_per_txn": round(delta["fsync_calls"] / n_txns, 2),
            "proto_frames": delta["proto_frames"],
            "proto_frames_per_txn": round(delta["proto_frames"] / n_txns, 2),
            "socket_writes": delta["socket_writes"],
            "frames_per_socket_write": round(
                delta["frames_sent"] / delta["socket_writes"], 2
            )
            if delta["socket_writes"]
            else 0.0,
        }

    async def _bench_async(
        self, n_txns: int, gateway: SiteId, concurrency: int, first_txn: int
    ) -> tuple[list[float], dict[str, list[float]], float]:
        host = self.config.host
        # Read-only participants never gateway: their exit carries no
        # outcome, so a client begin there would have nothing to wait on.
        sites = sorted(s for s in self.ports if s not in self.config.ro_sites)
        first = sites.index(SiteId(int(gateway)))
        latencies: list[float] = []
        stage_samples: dict[str, list[float]] = {}
        ids = iter(range(first_txn, first_txn + n_txns))

        async def worker(port: int) -> None:
            async with client.ClientSession(host, port) as session:
                while True:
                    txn_id = next(ids, None)
                    if txn_id is None:
                        return
                    reply = await session.begin_txn(
                        txn_id, timeout=self.config.decide_timeout
                    )
                    if reply.get("outcome") != Outcome.COMMIT.value:
                        raise ClusterError(
                            f"benchmark txn {txn_id} ended "
                            f"{reply.get('outcome')!r}; "
                            "the healthy path must commit"
                        )
                    latencies.append(float(reply["elapsed_ms"]))
                    for stage, value in (reply.get("stages") or {}).items():
                        stage_samples.setdefault(stage, []).append(float(value))

        started = time.monotonic()
        await asyncio.gather(
            *(
                worker(self.ports[sites[(first + i) % len(sites)]])
                for i in range(min(concurrency, n_txns))
            )
        )
        return latencies, stage_samples, time.monotonic() - started

    def _quiesce(self, timeout: float = 5.0) -> None:
        """Wait until no site reports in-flight transactions.

        The gateway replies to the last client before the *participants*
        finish publishing their own decision records, so counter reads
        right after a bench would undercount.

        Raises:
            LiveTimeoutError: If a site still has transactions in
                flight (or gives no snapshot) after ``timeout``.
        """
        deadline = time.monotonic() + timeout
        while True:
            busy = {}
            for site in self.ports:
                snapshot = self.site_metrics(site)
                inflight = snapshot["live"].get("inflight_txns", 0) if snapshot else None
                if inflight != 0:
                    busy[int(site)] = inflight
            if not busy:
                return
            if time.monotonic() > deadline:
                raise LiveTimeoutError(
                    f"cluster did not quiesce in {timeout:g}s: "
                    f"inflight_txns by site (None = no snapshot) {busy}"
                )
            time.sleep(0.02)

    def _bench_counters(self) -> dict[str, int]:
        """Cluster-wide counter totals (boot records discounted).

        Taken before and after a bench run so repeated benches on one
        live cluster measure only their own transactions.
        """
        totals = {
            "forced_writes": 0,
            "forced_writes_skipped": 0,
            "fsync_calls": 0,
            "frames_sent": 0,
            "socket_writes": 0,
            "proto_frames": 0,
        }
        for site in self.ports:
            snapshot = self.site_metrics(site)
            if snapshot is None:
                continue
            live = snapshot.get("live", {})
            boots = int(live.get("boot", 1))
            # Each incarnation forces exactly one boot record on open
            # (one forced write, one fsync); discount them.
            totals["forced_writes"] += int(live.get("forced_writes", 0)) - boots
            totals["forced_writes_skipped"] += int(
                live.get("forced_writes_skipped", 0)
            )
            totals["fsync_calls"] += int(live.get("fsync_calls", 0)) - boots
            totals["frames_sent"] += int(live.get("frames_sent", 0))
            totals["socket_writes"] += int(live.get("socket_writes", 0))
            for key, value in snapshot.get("counters", {}).items():
                if key.startswith("proto_frames_sent_total"):
                    totals["proto_frames"] += value
        return totals

    def site_metrics(self, site: SiteId) -> Optional[dict[str, Any]]:
        """One site's metrics snapshot (``None`` if there is none).

        A running site is asked over its client port, so the answer is
        never stale.  A dead, stalled or pre-``metrics`` site's last
        published ``site-N.metrics.json`` stands in; the query is
        bounded, so this neither hangs nor raises on such a site.
        """
        site = SiteId(int(site))
        process = self.processes.get(site)
        if process is not None and process.poll() is None:
            snapshot = asyncio.run(
                client.try_metrics(self.config.host, self.ports[site])
            )
            if snapshot is not None:
                return snapshot
        path = self._marker(site, "metrics.json")
        if not path.exists():
            return None
        return json.loads(path.read_text())


# ----------------------------------------------------------------------
# Canned scenario: kill -9 the coordinator mid-broadcast
# ----------------------------------------------------------------------

#: Which protocol message's broadcast to cut the coordinator down
#: after.  ``xact`` is the 2PC coordinator's last broadcast before its
#: decision; ``prepare`` is the 3PC coordinator's phase-2 broadcast —
#: in both cases the slaves are left waiting on a dead coordinator,
#: which is exactly the situation the termination protocol exists for.
PAUSE_POINTS = {
    "2pc-central": "xact",
    "3pc-central": "prepare",
}


@dataclasses.dataclass
class ScenarioResult:
    """What :func:`kill_coordinator_scenario` observed."""

    protocol: str
    presumption: str
    survivors_blocked: bool
    survivor_outcomes: dict[int, str]
    final_outcomes: dict[int, str]
    coordinator_boot: int
    survivor_decision_s: float
    total_s: float

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def kill_coordinator_scenario(harness: ClusterHarness, txn_id: int = 1) -> ScenarioResult:
    """Kill -9 the coordinator after its broadcast; watch the cluster.

    For a nonblocking protocol (3PC) the survivors must *commit* via
    the termination protocol while the coordinator is dead, and the
    restarted coordinator must learn the commit through recovery.  For
    a blocking protocol (2PC) the survivors must report BLOCKED and
    stay undecided until the coordinator's restarted incarnation
    resolves the transaction (unilateral abort from an empty log).
    Either way the scenario ends with an atomicity audit across all
    three durable outcomes.

    Raises:
        ClusterError: If the protocol has no registered pause point.
        AtomicityViolationError: If sites decided inconsistently.
        LiveTimeoutError: If a phase did not happen in time.
    """
    spec_name = harness.config.spec_name
    if spec_name not in PAUSE_POINTS:
        raise ClusterError(
            f"no kill-coordinator pause point for {spec_name!r}; "
            f"known: {sorted(PAUSE_POINTS)}"
        )
    coordinator = SiteId(1)
    gateway = SiteId(2)
    survivors = [SiteId(i) for i in range(2, harness.config.n_sites + 1)]
    pause = f"{PAUSE_POINTS[spec_name]}:{harness.config.n_sites - 1}"
    started = time.monotonic()

    harness.start(pause_after={coordinator: pause})
    harness.begin(txn_id, gateway=gateway, wait=False)
    harness.wait_paused(coordinator)
    harness.kill(coordinator, signal.SIGKILL)

    def survivors_decided(views: dict[SiteId, Optional[dict[str, Any]]]) -> bool:
        return all(
            views[s] is not None and views[s]["outcome"] in ("commit", "abort")
            for s in survivors
        )

    def survivors_blocked(views: dict[SiteId, Optional[dict[str, Any]]]) -> bool:
        return all(
            views[s] is not None and views[s]["blocked"] for s in survivors
        )

    nonblocking = spec_name.startswith("3pc")
    waiter = survivors_decided if nonblocking else survivors_blocked
    what = (
        "survivors terminating without the coordinator"
        if nonblocking
        else "survivors reporting BLOCKED"
    )
    views = harness.wait_outcomes(
        txn_id, waiter, harness.config.decide_timeout, what
    )
    survivor_decision_s = time.monotonic() - started
    survivor_outcomes = {
        int(s): views[s]["outcome"] for s in survivors if views[s] is not None
    }
    harness.audit_atomicity(txn_id)

    # The crashed coordinator returns and recovery resolves it — and,
    # for 2PC, resolves the blocked survivors too.
    harness.spawn(coordinator)

    def everyone_final(views: dict[SiteId, Optional[dict[str, Any]]]) -> bool:
        return all(
            view is not None and view["outcome"] in ("commit", "abort")
            for view in views.values()
        )

    views = harness.wait_outcomes(
        txn_id,
        everyone_final,
        harness.config.decide_timeout,
        "restarted coordinator recovering the outcome",
    )
    finals = harness.audit_atomicity(txn_id)
    coordinator_view = views[coordinator]
    assert coordinator_view is not None
    return ScenarioResult(
        protocol=spec_name,
        presumption=harness.config.presumption,
        survivors_blocked=not nonblocking,
        survivor_outcomes=survivor_outcomes,
        final_outcomes={int(site): outcome for site, outcome in finals.items()},
        coordinator_boot=int(coordinator_view["boot"]),
        survivor_decision_s=round(survivor_decision_s, 3),
        total_s=round(time.monotonic() - started, 3),
    )


# ----------------------------------------------------------------------
# Canned scenario: gray links break the reliable-detector assumption
# ----------------------------------------------------------------------


@dataclasses.dataclass
class GrayFailureResult:
    """What :func:`gray_failure_scenario` observed.

    Attributes:
        protocol: Spec under test (``3pc-central``).
        chaos_hash: Content hash of the chaos policy that was applied.
        split_detected: Whether the expected split decision happened.
        outcomes: Final outcome per participant that decided.
        coordinator_outcome: The (never-suspecting) coordinator's view.
        violation: The atomicity violation message the harness caught.
        audit_ok: Whether the durable-log audit passed (must be False).
        audit_violations: What ``repro audit`` flagged.
        suspected: Each site's suspected-peer list from its metrics
            snapshot — the detector asymmetry in the raw.
        total_s: Wall time of the whole scenario.
    """

    protocol: str
    chaos_hash: str
    split_detected: bool
    outcomes: dict[int, str]
    coordinator_outcome: str
    violation: str
    audit_ok: bool
    audit_violations: list[str]
    suspected: dict[int, list[int]]
    total_s: float

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def gray_failure_scenario(
    harness: ClusterHarness, txn_id: int = 1, seed: int = 0
) -> GrayFailureResult:
    """Drive 3PC into a split decision with gray links — no site dies.

    The chaos policy (:func:`~repro.live.chaos.gray_link_policy`)
    violates the paper's reliable-detector assumption in both
    directions at once: the participants suspect a coordinator that is
    alive (its heartbeats stop once the vote-request is out), while the
    coordinator — whose inbound links stay clean — never suspects
    anyone.  Site 2 reaches *prepared* and terminates solo with
    ``rule(p) = COMMIT``; site 3, whose ``prepare`` the link dropped,
    terminates solo from *wait* with ``rule(w) = ABORT``.  Nonblocking
    termination without the assumption it rests on is exactly wrong,
    and the audit must catch it as an AC1 violation across the durable
    DT logs.

    The split is the scenario's *success* criterion; failing to
    reproduce it raises.

    Raises:
        ClusterError: If the harness is not a 3-site central-3PC
            cluster, or the split decision did not occur.
        LiveTimeoutError: If the participants never decided.
    """
    spec_name = harness.config.spec_name
    if spec_name != "3pc-central" or harness.config.n_sites != 3:
        raise ClusterError(
            "gray_failure_scenario needs a 3-site 3pc-central cluster, "
            f"got {spec_name!r} with {harness.config.n_sites} sites"
        )
    if harness.config.chaos is None:
        harness.config.chaos = gray_link_policy(seed=seed)
    policy = harness.config.chaos
    coordinator, committer, aborter = SiteId(1), SiteId(2), SiteId(3)
    started = time.monotonic()

    harness.start()
    # Gateway at site 2: the client's decided reply comes from the
    # survivor side of the split, while the coordinator hangs in
    # *prepared* waiting for an ack the gray link ate.
    harness.begin(txn_id, gateway=committer, wait=True)

    def participants_decided(
        views: dict[SiteId, Optional[dict[str, Any]]]
    ) -> bool:
        return all(
            views[s] is not None
            and views[s]["outcome"] in ("commit", "abort")
            for s in (committer, aborter)
        )

    views = harness.wait_outcomes(
        txn_id,
        participants_decided,
        harness.config.decide_timeout,
        "participants terminating solo under gray links",
    )
    outcomes = {
        int(s): views[s]["outcome"]
        for s in (committer, aborter)
        if views[s] is not None
    }
    coordinator_view = views[coordinator]
    coordinator_outcome = (
        str(coordinator_view["outcome"])
        if coordinator_view is not None
        else "down"
    )

    violation = ""
    try:
        harness.audit_atomicity(txn_id)
    except AtomicityViolationError as error:
        violation = str(error)
    split = len(set(outcomes.values())) > 1

    # The durable evidence: the per-site DT logs must already disagree.
    from repro.live.audit import audit_data_dir

    report = audit_data_dir(harness.config.data_dir, include_traces=False)
    suspected = {}
    for site in harness.ports:
        snapshot = harness.site_metrics(site)
        if snapshot is not None:
            suspected[int(site)] = list(
                snapshot.get("live", {}).get("suspected", [])
            )

    if not split or report.ok():
        raise ClusterError(
            "gray-failure scenario did not reproduce the split decision: "
            f"outcomes={outcomes}, audit_ok={report.ok()} "
            f"(chaos {policy.hash})"
        )
    return GrayFailureResult(
        protocol=spec_name,
        chaos_hash=policy.hash,
        split_detected=split,
        outcomes=outcomes,
        coordinator_outcome=coordinator_outcome,
        violation=violation,
        audit_ok=report.ok(),
        audit_violations=list(report.violations),
        suspected=suspected,
        total_s=round(time.monotonic() - started, 3),
    )
