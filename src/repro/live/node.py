"""One live site process: the FSA runtime over TCP and a durable log.

:class:`LiveSite` is the deployment counterpart of the simulator's
:class:`~repro.runtime.site.CommitSite`.  The protocol components are
the *same objects* — :class:`~repro.runtime.engine.Engine`,
:class:`~repro.runtime.termination.TerminationController`,
:class:`~repro.runtime.recovery.RecoveryController` — bound to a
different substrate: asyncio TCP instead of the simulated network, a
fsynced file instead of the in-memory DT log, and wall-clock timers
instead of the event queue.  One process hosts many concurrent
transactions; :class:`LiveTxn` is the per-transaction
:class:`~repro.runtime.seam.ProtocolHost` the controllers see.

A site is also a **gateway**: a client ``begin`` frame makes it inject
the spec's external inputs — locally for its own automaton, via
``external`` frames for other sites' — so both central-site and
decentralized protocols start the same way.

Transactions are **concurrent**: Skeen's protocols impose no
cross-transaction ordering, so every client connection is served as
its own coroutine and frames for different transactions interleave
freely over the same peer links.  A backpressure semaphore
(``max_inflight``) bounds undecided client-begun transactions.  The
forced DT-log writes of all in-flight transactions share the store's
group-commit flusher (one fsync per batch), and a decision is
*published* — metrics, client reply, backpressure slot — only after
its record is durable, so group commit never weakens what a client
reply implies.

Restart semantics (the point of the whole exercise): at boot the site
replays its durable log.  Transactions with surviving records come
back as *recovered* hosts (``ever_crashed=True``) and immediately run
the paper's recovery protocol.  A frame for a transaction the log has
*no* records of, arriving at a restarted site, is handled by the
unilateral-abort rule — no vote record means the dead incarnation
provably never voted (votes are force-logged before any send), so
abort is always safe.

Deterministic crash injection: ``pause_after=("prepare", 2)`` freezes
the site right after its 2nd ``prepare`` send has been flushed to the
kernel — incoming frames and timers stop, a ``site-N.paused`` marker
appears, and the harness delivers the real ``kill -9``.  This pins the
crash to an exact protocol point (e.g. "coordinator dead after the
prepare broadcast, before any ack") without any sleep-based guessing.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import json
import os
import re
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

from repro.errors import LiveConfigError
from repro.fsa.messages import EXTERNAL, Msg
from repro.live.chaos import ChaosPolicy, LinkChaos
from repro.live.clock import TimeoutClock, WallTimer
from repro.live.dtlog import DurableDTLog, SiteLogStore, delayed_fsync
from repro.live.files import atomic_write_json
from repro.live.transport import Transport
from repro.live.wire import (
    decode_payload,
    encode_frame,
    encode_payload,
    read_frame,
    stamp_trace_context,
)
from repro.live.wire_bin import CODEC_JSON, CODECS
from repro.metrics import WALL_MS_BUCKETS, MetricsRegistry
from repro.protocols import build
from repro.runtime.decision import TerminationRule
from repro.runtime.messages import (
    OutcomeQuery,
    OutcomeReply,
    ProtoMsg,
    TermAck,
    TermBlocked,
    TermDecision,
    TermMoveTo,
    TermStateQuery,
    TermStateReply,
)
from repro.runtime.engine import Engine
from repro.runtime.policies import FixedVotes
from repro.runtime.recovery import RecoveryController
from repro.runtime.termination import TerminationController
from repro.types import Outcome, SiteId, Vote

#: The selectable commit presumptions (see :class:`LiveConfig`).
PRESUMPTIONS = ("none", "abort", "commit")

#: The selectable event-loop implementations.
LOOPS = ("asyncio", "uvloop")

#: Seconds a changed counter may wait before the on-disk metrics
#: snapshot catches up.  The file is the post-mortem copy (live readers
#: send a ``metrics`` request and get the registry as it is), so no
#: decision waits on it: a dump + tmp + rename per quiescence was half
#: of a serial commit's wall time.
METRICS_WRITE_INTERVAL = 0.25

#: Printable ASCII with no quote or backslash — a string this matches
#: is its own JSON encoding (modulo the surrounding quotes), exactly as
#: ``json.dumps`` with its default ``ensure_ascii=True`` would emit it.
#: Anything else (escapes, control characters, non-ASCII) takes the
#: ``json.dumps`` fallback, so the fast trace path can never produce
#: different bytes than the old one.
_PLAIN_JSON_STR = re.compile(r"^[ !#-\[\]-~]*$").match
_dumps_str = json.dumps


def check_site_options(
    codec: str,
    presumption: str,
    loop: str,
    ro_sites: Iterable[int],
    n_sites: int,
    trace_cap: Optional[int],
) -> tuple[SiteId, ...]:
    """Validate the options every site of one cluster shares.

    :class:`LiveConfig` (one site) and
    :class:`~repro.live.cluster.ClusterConfig` (the harness spawning
    them) both call this, so what one refuses the other refuses, and as
    the same failure class: an unknown codec, presumption or loop
    silently defaulting would skew a whole benchmark sweep.

    Returns:
        ``ro_sites`` normalized to a sorted tuple of site ids.

    Raises:
        LiveConfigError: On an unknown choice, a read-only site that is
            not a participant, or a trace cap (``None`` = site default)
            below 1.
    """
    for name, value, choices in (
        ("codec", codec, CODECS),
        ("presumption", presumption, PRESUMPTIONS),
        ("loop", loop, LOOPS),
    ):
        if value not in choices:
            raise LiveConfigError(
                f"{name} must be one of {', '.join(choices)}, got {value!r}"
            )
    ro = tuple(sorted(SiteId(int(site)) for site in ro_sites))
    for site in ro:
        if not 1 <= site <= n_sites:
            raise LiveConfigError(
                f"read-only site {site} is not a participant (n_sites={n_sites})"
            )
    if trace_cap is not None and trace_cap < 1:
        raise LiveConfigError(f"trace cap must be >= 1, got {trace_cap}")
    return ro


@dataclasses.dataclass
class LiveConfig:
    """Everything one ``repro serve`` process needs to come up.

    Attributes:
        site: This site's id (1-based, per the paper's numbering).
        spec_name: Catalog protocol name (e.g. ``"3pc-central"``).
        n_sites: Participant count the spec is built for.
        host / port: This site's listening endpoint.
        peers: Peer id → (host, port) for every other site.
        data_dir: Directory for the DT log, markers, trace, metrics.
        hb_interval: Heartbeat period (seconds).
        suspect_after: Silence threshold before suspecting a peer.
        requery_interval: Recovery re-query period while in doubt.
        termination_mode: One of
            :data:`repro.runtime.termination.TERMINATION_MODES`.
        vote: This site's vote (``"yes"`` / ``"no"``).
        pause_after: Optional ``(kind, n)`` — freeze the site right
            after its n-th protocol send of ``kind`` (crash injection).
        max_inflight: Backpressure bound on concurrently undecided
            client-begun transactions at this gateway; further
            ``begin`` requests queue until a decision frees a slot.
        trace_max_entries: Bound on trace entries written to this
            site's trace file per process lifetime.  Past the bound
            new entries are discarded (keep-oldest: the boot and early
            protocol runs survive) and counted in the metrics snapshot
            so truncation is never silent.
        chaos: Optional path to a serialized
            :class:`~repro.live.chaos.ChaosPolicy`.  The site applies
            its own slice: inbound gray-link rules, its fsync delay,
            and its clock skew.
        codec: Wire codec for this site's *outgoing* peer frames
            (``"json"`` or ``"bin"``), negotiated per connection via
            the hello handshake — sites with different codecs
            interoperate.  Client traffic is always JSON.
        presumption: Commit presumption governing which DT-log records
            demand an fsync: ``"none"`` (every vote and decision is
            forced — the paper's baseline), ``"abort"`` (no votes and
            abort decisions go lazy; a missing record reads as abort),
            or ``"commit"`` (the coordinator forces a membership record
            before the ``xact`` fan-out and only its commit decision
            thereafter).  Must agree across the cluster.
        ro_sites: Sites taking the read-only one-phase exit (must agree
            across the cluster — every site builds the same spec).
        loop: Event-loop implementation: ``"asyncio"`` or ``"uvloop"``
            (the latter only if importable; checked at serve time).
    """

    site: SiteId
    spec_name: str
    n_sites: int
    port: int
    peers: dict[SiteId, tuple[str, int]]
    data_dir: Path
    host: str = "127.0.0.1"
    hb_interval: float = 0.25
    suspect_after: float = 1.5
    requery_interval: float = 1.0
    termination_mode: str = "standard"
    vote: str = "yes"
    pause_after: Optional[tuple[str, int]] = None
    max_inflight: int = 64
    trace_max_entries: int = 200_000
    chaos: Optional[Path] = None
    codec: str = CODEC_JSON
    presumption: str = "none"
    ro_sites: tuple[SiteId, ...] = ()
    loop: str = "asyncio"

    def __post_init__(self) -> None:
        self.site = SiteId(int(self.site))
        self.data_dir = Path(self.data_dir)
        if self.chaos is not None:
            self.chaos = Path(self.chaos)
        self.peers = {
            SiteId(int(peer)): (host, int(port))
            for peer, (host, port) in self.peers.items()
        }
        if self.vote not in ("yes", "no"):
            raise LiveConfigError(f"vote must be 'yes' or 'no', got {self.vote!r}")
        self.ro_sites = check_site_options(
            self.codec,
            self.presumption,
            self.loop,
            self.ro_sites,
            self.n_sites,
            self.trace_max_entries,
        )
        if self.max_inflight < 1:
            raise LiveConfigError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        expected = set(range(1, self.n_sites + 1)) - {int(self.site)}
        if {int(p) for p in self.peers} != expected:
            raise LiveConfigError(
                f"site {self.site} of {self.n_sites} needs peers {sorted(expected)}, "
                f"got {sorted(int(p) for p in self.peers)}"
            )


def parse_pause_after(text: str) -> tuple[str, int]:
    """Parse a ``KIND:N`` crash-injection spec (e.g. ``prepare:2``).

    Raises:
        LiveConfigError: On a malformed spec.
    """
    kind, _, count = text.partition(":")
    if not kind or not count.isdigit() or int(count) < 1:
        raise LiveConfigError(
            f"pause-after must be KIND:N with N >= 1, got {text!r}"
        )
    return kind, int(count)


class _TransportView:
    """The :class:`~repro.runtime.seam.OperationalView` over a transport."""

    def __init__(self, transport: Transport) -> None:
        self._transport = transport

    def operational_sites(self) -> list[SiteId]:
        return self._transport.operational_sites()


class LiveTxn:
    """One transaction's :class:`~repro.runtime.seam.ProtocolHost`.

    Owns the per-transaction engine, durable log view, and controllers;
    delegates transport, clock, and tracing to the owning site process.

    Args:
        node: The owning :class:`LiveSite`.
        txn_id: The transaction id (allocated by the client/harness).
        crashed: Whether this host represents a transaction the
            previous incarnation of the site was running when it died
            (recovered from the durable log or inferred from a peer's
            query at a restarted site).
    """

    def __init__(self, node: "LiveSite", txn_id: int, crashed: bool = False) -> None:
        self.node = node
        self.txn_id = txn_id
        self.site = node.config.site
        self.spec = node.spec
        self.log = DurableDTLog(node.store, txn_id)
        self.ever_crashed = crashed
        self.known_failed: set[SiteId] = set(node.transport.suspected)
        self.network = node.view
        self.started_at = node.clock.now()
        self.blocked = False
        self.decided: Optional[tuple[Outcome, str]] = None
        #: Set once the decision record is durable and client waiters
        #: were resolved — the group-commit analogue of "decided".
        self.published = False
        #: Latency-stage timestamps, set only for client-begun
        #: transactions at their gateway (peers lack the queue view):
        #: begin request received / admitted past backpressure /
        #: engine decided / published (implicit: publication time).
        self.stage_begin: Optional[float] = None
        self.stage_admitted: Optional[float] = None
        self.decided_at: Optional[float] = None
        #: Per-stage commit-latency breakdown in ms, filled at
        #: publication; additive: their sum IS the reported latency.
        self.stages: Optional[dict[str, float]] = None
        self._timers: dict[str, WallTimer] = {}
        self.engine = Engine(
            automaton=self.spec.automaton(self.site),
            vote_policy=node.vote_policy,
            log=self.log,
            send=self._send_model,
            now=node.clock.now,
            on_final=self._on_final,
            on_trace=self.trace,
            presumption=node.config.presumption,
            membership=node.membership,
        )
        self.termination = TerminationController(
            self, node.rule, mode=node.config.termination_mode
        )
        self.recovery = RecoveryController(
            self,
            requery_interval=node.config.requery_interval,
            presumption=node.config.presumption,
        )

    # -- ProtocolHost surface -------------------------------------------

    @property
    def alive(self) -> bool:
        """The site is operational unless frozen by crash injection."""
        return not self.node.paused

    def send_payload(self, dst: SiteId, payload: Any) -> None:
        """Transmit a termination/recovery payload to a peer."""
        if not self.alive:
            return
        self.node.send_payload_frame(self.txn_id, dst, payload)

    def set_timer(
        self, key: str, delay: float, callback: Callable[[], None]
    ) -> WallTimer:
        """Arm (or re-arm) a named wall-clock timer."""
        self.cancel_timer(key)

        def fire() -> None:
            if not self.alive:
                return
            callback()

        timer = self.node.clock.call_later(delay, fire, label=f"txn{self.txn_id}.{key}")
        self._timers[key] = timer
        return timer

    def cancel_timer(self, key: str) -> bool:
        """Cancel the named timer if armed."""
        timer = self._timers.pop(key, None)
        if timer is None or timer.fired or timer.cancelled:
            return False
        timer.cancel()
        return True

    def cancel_all_timers(self) -> None:
        """Cancel every armed timer (site shutdown)."""
        for key in list(self._timers):
            self.cancel_timer(key)

    def now(self) -> float:
        """Wall-clock seconds since the site process started."""
        return self.node.clock.now()

    def trace(self, category: str, detail: str, **data: Any) -> None:
        """Record one trace entry, tagged with the transaction id."""
        data.setdefault("site", int(self.site))
        data.setdefault("txn", self.txn_id)
        self.node.trace(category, detail, **data)

    def operational_participants(self) -> list[SiteId]:
        """Participants this site believes operational (never-crashed).

        Read-only participants are excluded — they exited at phase 1
        and take no part in termination.
        """
        return sorted(
            site
            for site in self.spec.sites
            if site not in self.known_failed
            and site not in self.spec.read_only_sites
            and (site != self.site or self.alive)
        )

    def notify_blocked(self) -> None:
        """The termination protocol found no safe decision here."""
        self.blocked = True
        self.node.on_txn_blocked(self)

    # -- Engine plumbing ------------------------------------------------

    def _send_model(self, msg: Msg) -> None:
        self.node.send_proto(self.txn_id, msg)

    def _on_final(self, outcome: Outcome, via: str) -> None:
        self.blocked = False
        self.decided = (outcome, via)
        self.node.on_txn_decided(self, outcome, via)

    # -- Delivery (mirrors CommitSite.deliver) --------------------------

    def deliver_payload(self, src: SiteId, payload: Any) -> None:
        """Dispatch one decoded payload by family.

        The branch structure intentionally mirrors
        :meth:`repro.runtime.site.CommitSite.deliver` — including the
        rule that a recovered site drops commit-protocol messages and
        phase-1 termination orders (it resolves via recovery instead).
        """
        if not self.alive:
            return
        if isinstance(payload, ProtoMsg):
            if self.ever_crashed:
                return
            self.engine.receive(Msg(payload.kind, src, self.site))
        elif isinstance(payload, TermMoveTo):
            if not self.ever_crashed:
                self.termination.on_move_to(src, payload)
        elif isinstance(payload, TermAck):
            self.termination.on_ack(src, payload)
        elif isinstance(payload, TermDecision):
            self.termination.on_decision(src, payload)
        elif isinstance(payload, TermBlocked):
            self.termination.on_blocked(src, payload)
        elif isinstance(payload, TermStateQuery):
            if not self.ever_crashed:
                self.termination.on_state_query(src, payload)
        elif isinstance(payload, TermStateReply):
            self.termination.on_state_reply(src, payload)
        elif isinstance(payload, OutcomeQuery):
            self.recovery.on_query(src, payload)
        elif isinstance(payload, OutcomeReply):
            self.recovery.on_reply(src, payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LiveTxn(site={self.site}, txn={self.txn_id}, "
            f"state={self.engine.state!r})"
        )


class LiveSite:
    """One site process: transport + durable log + per-txn hosts."""

    def __init__(self, config: LiveConfig) -> None:
        self.config = config
        self.spec = build(config.spec_name, config.n_sites, ro_sites=config.ro_sites)
        self.rule = TerminationRule(self.spec)
        #: Voting-participant set the coordinator's engine force-logs
        #: as the presumed-commit membership record (empty elsewhere).
        self.membership: tuple[SiteId, ...] = ()
        if config.site == self.spec.coordinator:
            self.membership = tuple(
                site
                for site in self.spec.sites
                if site != config.site and site not in self.spec.read_only_sites
            )
        # The chaos policy (if any) is cluster-wide; this site applies
        # only its own slice of it.
        self.chaos_policy = (
            ChaosPolicy.load(config.chaos) if config.chaos is not None else None
        )
        skew = 0.0
        fsync_delay_ms = 0.0
        link_chaos: Optional[LinkChaos] = None
        if self.chaos_policy is not None:
            skew = self.chaos_policy.skew_s(int(config.site))
            fsync_delay_ms = self.chaos_policy.fsync_delay_ms(int(config.site))
            link_chaos = LinkChaos(self.chaos_policy, int(config.site))
        self.clock = TimeoutClock(skew=skew)
        self.vote_policy = FixedVotes(
            {config.site: Vote.YES if config.vote == "yes" else Vote.NO}
        )
        config.data_dir.mkdir(parents=True, exist_ok=True)
        self.store = SiteLogStore(
            config.data_dir / f"site-{config.site}.dtlog",
            fsync=(
                delayed_fsync(fsync_delay_ms / 1000.0)
                if fsync_delay_ms > 0
                else os.fsync
            ),
        )
        self.store.on_batch = self._on_fsync_batch
        self.store.on_durable = self._publish_durable
        self.metrics = MetricsRegistry()
        self.shutdown = asyncio.Event()
        self.transport = Transport(
            site=config.site,
            host=config.host,
            port=config.port,
            peers=config.peers,
            clock=self.clock,
            on_frame=self._on_peer_frame,
            on_client=self._on_client,
            on_suspect=self._on_suspect,
            on_recover=self._on_recover,
            on_restart=self._on_peer_restart,
            stopping=self.shutdown.is_set,
            boot=self.store.boot_count,
            hb_interval=config.hb_interval,
            suspect_after=config.suspect_after,
            trace=self.trace,
            wait_durable=self.store.wait_durable,
            chaos=link_chaos,
            codec=config.codec,
        )
        self.view = _TransportView(self.transport)
        self.txns: dict[int, LiveTxn] = {}
        self.paused = False
        self._pause_kind_count = 0
        #: Span-id allocator for net.send events; ids are cluster-unique
        #: (site and boot baked in) so stitched traces never collide.
        self._span_seq = 0
        #: Span id of the message whose delivery is being handled right
        #: now — every trace entry emitted inside that (synchronous)
        #: handling is stamped with it as ``parent``, which is how the
        #: stitched cluster trace carries causality across sites.
        self._current_parent: Optional[int] = None
        self._trace_entries = 0
        self._trace_dropped = 0
        self._waiters: dict[int, list[asyncio.Future]] = {}
        self._inflight_sem = asyncio.Semaphore(config.max_inflight)
        self._gateway_permits: set[int] = set()
        self._undecided = 0
        #: Decided-but-not-yet-durable: (lsn, txn, outcome, via) in LSN
        #: order, published by the store's durability callback.
        self._unpublished: collections.deque[
            tuple[int, LiveTxn, Outcome, str]
        ] = collections.deque()
        self._metrics_timer: Optional[asyncio.TimerHandle] = None
        # Block-buffered, not line-buffered: a syscall per trace entry
        # is measurable at concurrent-bench rates.  Flushed explicitly
        # at the determinism points (pause marker, stop) — a kill -9
        # may truncate the advisory trace tail, never the DT log.
        self._trace_file = open(
            config.data_dir / f"site-{config.site}.trace.jsonl", "a"
        )
        self._site_str = str(int(config.site))
        self._metrics_path = config.data_dir / f"site-{config.site}.metrics.json"
        self._ready_path = config.data_dir / f"site-{config.site}.ready"
        self._paused_path = config.data_dir / f"site-{config.site}.paused"
        self._tasks: list[asyncio.Task] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the transport, recover logged transactions, arm markers."""
        self.store.start_group_commit()
        await self.transport.start()
        self.trace(
            "live.boot",
            f"site {self.config.site} up (boot {self.store.boot_count}, "
            f"{self.config.spec_name}, n={self.config.n_sites})",
            boot=self.store.boot_count,
            restarted=self.store.restarted,
        )
        if self.store.restarted:
            for txn_id in self.store.txn_ids():
                txn = self._create_txn(txn_id, crashed=True)
                txn.trace(
                    "live.recover",
                    f"replaying {len(self.store.records_for(txn_id))} "
                    "durable records and running recovery",
                )
                txn.recovery.on_restart()
        self._tasks.append(asyncio.create_task(self._ready_watch()))
        self.write_metrics()

    async def run(self) -> None:
        """Start, then serve until :attr:`shutdown` is set."""
        await self.start()
        await self.shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        """Tear down tasks, transport, files (idempotent)."""
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._tasks.clear()
        self._unpublished.clear()
        if self._metrics_timer is not None:
            self._metrics_timer.cancel()
            self._metrics_timer = None
        for txn in self.txns.values():
            txn.cancel_all_timers()
        await self.transport.stop()
        await self.store.stop_group_commit()
        self.write_metrics()
        self.store.close()
        if not self._trace_file.closed:
            self._trace_file.close()

    async def _ready_watch(self) -> None:
        """Write the ready marker once every peer has been heard from.

        The cluster harness waits for all markers before starting
        transactions, so a slow-booting site cannot be suspected (and
        spuriously terminated against) during startup.
        """
        while not self.transport.all_peers_seen():
            await asyncio.sleep(0.02)
        self._ready_path.write_text(f"{self.store.boot_count}\n")
        self.trace("live.ready", "all peers seen; ready marker written")

    # ------------------------------------------------------------------
    # Transaction registry
    # ------------------------------------------------------------------

    def _create_txn(self, txn_id: int, crashed: bool = False) -> LiveTxn:
        txn = LiveTxn(self, txn_id, crashed=crashed)
        self.txns[txn_id] = txn
        self._undecided += 1
        self.metrics.set_gauge("inflight_txns", self._undecided)
        return txn

    def _txn_for_frame(self, txn_id: int, payload: Any) -> Optional[LiveTxn]:
        """Resolve (or create) the host for an incoming peer frame.

        Commit-protocol traffic for an unknown transaction is a
        genuinely new transaction joining fresh, and so is termination
        traffic at a never-crashed site: a bystander that never
        received its vote-request participates in the termination
        protocol from state ``q``, which is exactly what drives the
        rule to ABORT (dropping those frames instead would deadlock the
        backup coordinator, which never times out a live peer).

        Two cases instead come up as *recovered* hosts that resolve
        themselves (unilateral abort, or in-doubt queries) before the
        frame is delivered:

        * any non-protocol payload at a restarted site — no durable
          record means the dead incarnation never voted;
        * an ``OutcomeQuery`` at a never-crashed site — recovery
          queries only flow after a failure, and a site with no host
          and no record provably never voted (votes are force-logged
          before any send), so nobody can have committed and nobody
          will ever send the vote-request this site would need to make
          progress on its own.
        """
        txn = self.txns.get(txn_id)
        if txn is not None:
            return txn
        protocol_traffic = isinstance(payload, (ProtoMsg, type(None)))
        if isinstance(payload, OutcomeReply):
            return None  # A reply to a query we never sent: drop.
        crashed = not protocol_traffic and (
            self.store.restarted or isinstance(payload, OutcomeQuery)
        )
        txn = self._create_txn(txn_id, crashed=crashed)
        if txn.ever_crashed:
            txn.trace(
                "live.unknown_txn",
                "no record of this transaction but failure-path traffic "
                "arrived for it; applying the unilateral-abort recovery "
                "rule",
            )
            txn.recovery.on_restart()
        return txn

    # ------------------------------------------------------------------
    # Outbound frames
    # ------------------------------------------------------------------

    def _next_span(self) -> int:
        """Allocate a cluster-unique span id for one ``net.send``.

        ``site * 1e9 + boot * 1e6 + seq`` keeps ids unique across
        sites *and* across restarts of one site (the trace file is
        appended across boots), so :class:`repro.sim.spans.SpanIndex`
        over a stitched cluster trace never conflates two messages.
        """
        self._span_seq += 1
        return (
            int(self.config.site) * 1_000_000_000
            + self.store.boot_count * 1_000_000
            + self._span_seq
        )

    def send_proto(self, txn_id: int, msg: Msg) -> None:
        """Transmit one commit-protocol model message."""
        if self.paused:
            self.trace(
                "live.send_dropped",
                f"paused; dropping {msg}",
                txn=txn_id,
            )
            return
        self.metrics.inc(
            "proto_frames_sent_total",
            protocol=self.config.spec_name,
            kind=msg.kind,
        )
        sid = self._next_span()
        self.trace(
            "net.send",
            f"{msg.kind} -> site {int(msg.dst)}",
            msg_id=sid,
            src=int(self.config.site),
            dst=int(msg.dst),
            txn=txn_id,
            kind=msg.kind,
        )
        if msg.dst == self.config.site:
            # Decentralized specs have every site send its vote to
            # itself too; the simulator's network delivers those like
            # any message, so loop them back here (asynchronously, to
            # keep delivery outside the engine's current pump).
            self._loopback(txn_id, ProtoMsg(msg.kind), sid)
        else:
            # The engine force-logged any vote/decision this message
            # implies *before* calling send; gating the frame on the
            # log's last *forced* record preserves the write-ahead rule
            # while the group-commit flusher batches the actual fsync.
            # (A lazily appended presumption-redundant record must not
            # hold frames back; with no lazy appends this watermark is
            # the pending tail.)
            self.transport.send(
                msg.dst,
                stamp_trace_context(
                    {
                        "t": "payload",
                        "txn": txn_id,
                        "d": encode_payload(ProtoMsg(msg.kind)),
                    },
                    sid,
                    self._current_parent,
                ),
                barrier=self.store.last_forced_lsn,
                volatile=True,
            )
        self._count_pause_kind(msg.kind)

    def send_payload_frame(self, txn_id: int, dst: SiteId, payload: Any) -> None:
        """Transmit one termination/recovery payload."""
        if self.paused:
            return
        encoded = encode_payload(payload)
        sid = self._next_span()
        self.trace(
            "net.send",
            f"{encoded['p']} -> site {int(dst)}",
            msg_id=sid,
            src=int(self.config.site),
            dst=int(dst),
            txn=txn_id,
            kind=encoded["p"],
        )
        if dst == self.config.site:
            self._loopback(txn_id, payload, sid)
            return
        self.transport.send(
            dst,
            stamp_trace_context(
                {"t": "payload", "txn": txn_id, "d": encoded},
                sid,
                self._current_parent,
            ),
            barrier=self.store.last_forced_lsn,
        )

    def _loopback(
        self, txn_id: int, payload: Any, sid: Optional[int] = None
    ) -> None:
        """Deliver a self-addressed payload on the next loop turn."""
        asyncio.get_running_loop().call_soon(
            self._deliver_local, txn_id, payload, sid
        )

    def _deliver_local(
        self, txn_id: int, payload: Any, sid: Optional[int] = None
    ) -> None:
        if self.paused:
            return
        if sid is not None:
            self.trace(
                "net.deliver",
                f"loopback delivery at site {int(self.config.site)}",
                msg_id=sid,
                src=int(self.config.site),
                dst=int(self.config.site),
                txn=txn_id,
            )
        self._current_parent = sid
        try:
            txn = self._txn_for_frame(txn_id, payload)
            if txn is not None:
                txn.deliver_payload(self.config.site, payload)
        finally:
            self._current_parent = None

    def send_external(self, txn_id: int, msg: Msg) -> None:
        """Forward an external input to the site that consumes it."""
        sid = self._next_span()
        self.trace(
            "net.send",
            f"external {msg.kind} -> site {int(msg.dst)}",
            msg_id=sid,
            src=int(self.config.site),
            dst=int(msg.dst),
            txn=txn_id,
            kind=msg.kind,
        )
        self.transport.send(
            msg.dst,
            stamp_trace_context(
                {"t": "external", "txn": txn_id, "kind": msg.kind},
                sid,
                self._current_parent,
            ),
            volatile=True,
        )

    # ------------------------------------------------------------------
    # Crash injection (pause-then-kill determinism)
    # ------------------------------------------------------------------

    def _count_pause_kind(self, kind: str) -> None:
        if self.config.pause_after is None or self.paused:
            return
        pause_kind, pause_count = self.config.pause_after
        if kind != pause_kind:
            return
        self._pause_kind_count += 1
        if self._pause_kind_count < pause_count:
            return
        # Freeze *synchronously*: incoming frames and timers stop now,
        # before any reply to the frames just sent can race back in.
        self.paused = True
        self.trace(
            "live.paused",
            f"pause-after {pause_kind}:{pause_count} reached; freezing",
        )
        self._tasks.append(asyncio.create_task(self._finish_pause()))

    async def _finish_pause(self) -> None:
        """Flush the frames that triggered the pause, then mark it.

        After the marker exists, everything sent before the pause is in
        the kernel's buffers — the harness can ``kill -9`` without
        retracting the broadcast, making the crash point exact.
        """
        await self.transport.flush()
        self.write_metrics()  # Fresh snapshot before the expected kill -9.
        self.trace("live.pause_marker", "flushed; writing paused marker")
        self._trace_file.flush()
        self._paused_path.write_text("paused\n")

    # ------------------------------------------------------------------
    # Inbound frames
    # ------------------------------------------------------------------

    async def _on_peer_frame(self, src: SiteId, frame: dict[str, Any]) -> None:
        if self.paused:
            return
        kind = frame.get("t")
        sid = frame.get("sid")
        if sid is not None:
            # Echo the sender's span id as this deliver's msg_id —
            # the cross-process half of the SpanIndex contract.  The
            # deliver itself is a root event (no parent); causality
            # flows through the entries emitted while handling it.
            self.trace(
                "net.deliver",
                f"{kind} frame from site {int(src)}",
                msg_id=int(sid),
                src=int(src),
                dst=int(self.config.site),
                txn=frame.get("txn"),
            )
        if kind == "payload":
            payload = decode_payload(frame["d"])
            self._current_parent = int(sid) if sid is not None else None
            try:
                txn = self._txn_for_frame(int(frame["txn"]), payload)
                if txn is not None:
                    txn.deliver_payload(src, payload)
            finally:
                self._current_parent = None
        elif kind == "external":
            self._current_parent = int(sid) if sid is not None else None
            try:
                txn = self._txn_for_frame(int(frame["txn"]), None)
                if txn is not None and not txn.ever_crashed:
                    txn.engine.receive(
                        Msg(str(frame["kind"]), EXTERNAL, self.config.site)
                    )
            finally:
                self._current_parent = None
        else:
            self.trace(
                "live.bad_frame", f"unknown peer frame type {kind!r}",
                peer=int(src),
            )

    # ------------------------------------------------------------------
    # Failure detector fan-out
    # ------------------------------------------------------------------

    def _on_suspect(self, peer: SiteId) -> None:
        cause = self.transport.suspect_cause[peer]
        self.metrics.inc("suspicions_total", cause=cause)
        local_ro = self.config.site in self.spec.read_only_sites
        for txn in list(self.txns.values()):
            if peer not in self.spec.automata:
                continue
            txn.known_failed.add(peer)
            txn.trace("site.peer_failed", f"suspecting site {peer} ({cause})")
            if not txn.ever_crashed and not local_ro:
                txn.termination.on_peer_failure(peer)

    def _on_recover(self, peer: SiteId) -> None:
        for txn in list(self.txns.values()):
            if peer not in self.spec.automata:
                continue
            txn.trace("site.peer_recovered", f"site {peer} is reachable again")
            txn.recovery.on_peer_recovered(peer)

    def _on_peer_restart(self, peer: SiteId) -> None:
        """A peer's boot incarnation bumped: it crashed and came back.

        A restart faster than ``suspect_after`` never trips the
        heartbeat detector, yet every frame written to the dead
        incarnation's socket is lost — transactions it was carrying
        would hang forever waiting on messages nobody will resend.  The
        paper's model is that a crashed site is *failed* for the
        transactions it was running (it rejoins through recovery, where
        its empty log licenses unilateral abort), so each in-flight
        transaction here treats the restart exactly like a detected
        failure and invokes the termination protocol.
        """
        local_ro = self.config.site in self.spec.read_only_sites
        for txn in list(self.txns.values()):
            if peer not in self.spec.automata:
                continue
            if txn.decided is not None or txn.ever_crashed or local_ro:
                continue
            txn.known_failed.add(peer)
            txn.trace(
                "site.peer_restarted",
                f"site {peer} crashed and restarted mid-transaction; "
                "treating as a failure",
            )
            txn.termination.on_peer_failure(peer)

    # ------------------------------------------------------------------
    # Gateway + client protocol
    # ------------------------------------------------------------------

    def begin_txn(self, txn_id: int) -> LiveTxn:
        """Start one transaction as its gateway.

        Injects the spec's external inputs: the local automaton's
        directly, every other site's via ``external`` frames — the same
        fan-out for central-site (one ``request`` to the coordinator)
        and decentralized (an ``xact`` per site) protocols.
        """
        txn = self.txns.get(txn_id)
        if txn is None:
            txn = self._create_txn(txn_id)
        txn.trace("live.begin", f"gateway starting transaction {txn_id}")
        local = []
        for msg in sorted(self.spec.initial_messages):
            if msg.dst == self.config.site:
                local.append(msg)
            else:
                self.send_external(txn_id, msg)
        for msg in local:
            if not txn.ever_crashed:
                txn.engine.receive(msg)
        return txn

    async def _on_client(
        self,
        first: dict[str, Any],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve one client connection until it closes.

        A client may send any number of requests over one connection —
        the closed-loop benchmark workers reuse theirs across
        transactions, which takes TCP setup/accept off the per-txn
        path — or send one frame and hang up (``repro txn`` does).
        Requests on one connection are served strictly in order.
        """
        frame: Optional[dict[str, Any]] = first
        try:
            while frame is not None:
                kind = frame.get("t")
                if kind == "begin":
                    await self._client_begin(frame, writer)
                elif kind == "status":
                    self._client_status(frame, writer)
                    await writer.drain()
                elif kind == "metrics":
                    writer.write(
                        encode_frame(
                            {"t": "metrics-reply", "snapshot": self.metrics_snapshot()}
                        )
                    )
                    await writer.drain()
                elif kind == "shutdown":
                    writer.write(encode_frame({"t": "ok"}))
                    await writer.drain()
                    self.shutdown.set()
                    return
                else:
                    writer.write(
                        encode_frame(
                            {"t": "error", "error": f"unknown request {kind!r}"}
                        )
                    )
                    await writer.drain()
                    return
                frame = await read_frame(reader)
        finally:
            writer.close()

    async def _client_begin(
        self, frame: dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        """Serve one ``begin``: admit under backpressure, start, wait.

        Many begins are served concurrently — each client connection
        is its own coroutine, and the per-transaction FSAs have no
        cross-transaction ordering constraint, so in-flight
        transactions overlap freely.  The semaphore bounds how many
        undecided client-begun transactions the gateway will host; a
        ``begin`` beyond the bound waits for a slot instead of failing.
        """
        txn_id = int(frame["txn"])
        queued_at = self.clock.now()
        if txn_id not in self.txns:
            await self._inflight_sem.acquire()
            if txn_id in self.txns:  # Raced with a peer frame / dup begin.
                self._inflight_sem.release()
            else:
                self._gateway_permits.add(txn_id)
                txn = self._create_txn(txn_id)
                # Stage clock for the latency breakdown: time parked
                # behind backpressure vs. time resolving the commit.
                txn.stage_begin = queued_at
                txn.stage_admitted = self.clock.now()
        txn = self.begin_txn(txn_id)
        if not frame.get("wait", True):
            writer.write(encode_frame({"t": "ok", "txn": txn_id}))
            await writer.drain()
            return
        if not txn.published:
            # Wait for publication, not just the in-memory decision:
            # the client's "decided" reply must never precede the
            # decision record's fsync (the group-commit contract).
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            self._waiters.setdefault(txn_id, []).append(future)
            await future
        assert txn.decided is not None
        outcome, via = txn.decided
        reply: dict[str, Any] = {
            "t": "decided",
            "txn": txn_id,
            "outcome": outcome.value,
            "via": via,
        }
        if txn.stages is not None:
            # The breakdown is additive by construction, so the total
            # the client sees is exactly the sum of its stages.
            reply["stages"] = txn.stages
            reply["elapsed_ms"] = round(sum(txn.stages.values()), 3)
        else:
            reply["elapsed_ms"] = (self.clock.now() - txn.started_at) * 1000.0
        writer.write(encode_frame(reply))
        await writer.drain()

    def _client_status(
        self, frame: dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        txn_id = int(frame["txn"])
        txn = self.txns.get(txn_id)
        reply: dict[str, Any] = {
            "t": "status-reply",
            "txn": txn_id,
            "site": int(self.config.site),
            "boot": self.store.boot_count,
            "known": txn is not None,
        }
        if txn is None:
            reply.update(state=None, outcome=Outcome.UNDECIDED.value, blocked=False)
        else:
            reply.update(
                state=txn.engine.state,
                outcome=txn.engine.outcome.value,
                blocked=txn.blocked,
                ever_crashed=txn.ever_crashed,
                via=txn.decided[1] if txn.decided else None,
            )
        writer.write(encode_frame(reply))

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def trace(self, category: str, detail: str, **data: Any) -> None:
        """Append one JSONL trace entry (PR 1 format, wall-clock time).

        Serialized by hand rather than via ``TraceEntry.to_json`` or
        ``json.dumps`` — the bytes are identical (fixed field order,
        sorted ``data`` keys, ``ensure_ascii`` escapes, ``str()`` for
        non-JSON leaves), but this runs tens of times per transaction
        per site, and on a single-core host the serializer is a
        measurable slice of cluster throughput.  Scalars are formatted
        directly (``repr`` of a finite float is its JSON form; plain
        ASCII strings need no escaping); anything else falls back to
        ``json.dumps`` with the exact options the old path used, so the
        output can never diverge.
        """
        if self._trace_file.closed:
            return
        if (
            self._trace_dropped
            or self._trace_entries >= self.config.trace_max_entries
        ):
            # Keep-oldest overflow: boot and the first runs survive,
            # the snapshot's trace_dropped counter records the loss.
            self._trace_dropped += 1
            return
        self._trace_entries += 1
        if self._current_parent is not None:
            data.setdefault("parent", self._current_parent)
        site = data.pop("site", None)
        site_s = str(int(site)) if site is not None else self._site_str
        items = []
        for key in sorted(data):
            value = data[key]
            kind = type(value)
            if kind is int:
                value_s = str(value)
            elif kind is str:
                value_s = (
                    f'"{value}"' if _PLAIN_JSON_STR(value) else _dumps_str(value)
                )
            elif kind is bool:
                value_s = "true" if value else "false"
            elif kind is float:
                value_s = repr(value)
            elif value is None:
                value_s = "null"
            else:
                value_s = json.dumps(
                    value, separators=(",", ":"), default=str
                )
            items.append(f'"{key}":{value_s}')
        detail_s = f'"{detail}"' if _PLAIN_JSON_STR(detail) else _dumps_str(detail)
        self._trace_file.write(
            f'{{"time":{self.clock.now()!r},"category":"{category}",'
            f'"site":{site_s},"detail":{detail_s},'
            f'"data":{{{",".join(items)}}}}}\n'
        )

    def on_txn_decided(self, txn: LiveTxn, outcome: Outcome, via: str) -> None:
        """Publish one decision once its log record is durable.

        The engine already force-logged the decision (buffered, LSN
        assigned); everything observable — metrics, client replies,
        the backpressure slot — waits for the group-commit flusher to
        make it durable, so a client can never observe a decision the
        site could forget in a crash.  Publication rides the store's
        durability callback (one synchronous sweep per fsync batch)
        rather than a task per decision.
        """
        if txn.published:
            return
        if txn.decided_at is None:
            txn.decided_at = self.clock.now()
        # Publication gates on the last durability *demand*, not the
        # raw tail: a presumption-lazy decision record publishes as
        # soon as prior forced records are down (the presumption, not
        # the fsync, is what makes forgetting it safe).
        lsn = self.store.last_forced_lsn
        self._unpublished.append((lsn, txn, outcome, via))
        if self.store.durable_lsn >= lsn:
            # Synchronous-fallback store (or an already-durable tail):
            # no flusher callback is coming for this LSN.
            self._publish_durable(self.store.durable_lsn)

    def _publish_durable(self, upto: int) -> None:
        """Publish every queued decision whose record is durable.

        Called by the store after each fsync with the new watermark;
        queue order is LSN order because ``pending_lsn`` is monotonic.
        """
        while self._unpublished and self._unpublished[0][0] <= upto:
            lsn, txn, outcome, via = self._unpublished.popleft()
            if txn.published:
                continue
            txn.published = True
            self._undecided = max(0, self._undecided - 1)
            now = self.clock.now()
            latency_ms = (now - txn.started_at) * 1000.0
            self.metrics.inc(
                "txns_total", protocol=self.config.spec_name, outcome=outcome.value
            )
            self.metrics.observe(
                "commit_latency_ms",
                latency_ms,
                buckets=WALL_MS_BUCKETS,
                protocol=self.config.spec_name,
                outcome=outcome.value,
            )
            if (
                txn.stage_begin is not None
                and txn.stage_admitted is not None
                and txn.decided_at is not None
            ):
                # Gateway-side latency decomposition.  The stages tile
                # the begin→publication interval exactly: queue wait
                # behind backpressure, protocol resolution (vote round
                # RTTs and decision), then the group-commit fsync wait
                # between the in-memory decision and its durability.
                txn.stages = {
                    "queue_ms": round(
                        (txn.stage_admitted - txn.stage_begin) * 1000.0, 3
                    ),
                    "resolve_ms": round(
                        (txn.decided_at - txn.stage_admitted) * 1000.0, 3
                    ),
                    "durable_ms": round(
                        (now - txn.decided_at) * 1000.0, 3
                    ),
                }
                for stage, value in txn.stages.items():
                    self.metrics.observe(
                        "txn_stage_ms",
                        value,
                        buckets=WALL_MS_BUCKETS,
                        protocol=self.config.spec_name,
                        stage=stage.removesuffix("_ms"),
                    )
                txn.trace(
                    "txn.stages",
                    "latency breakdown at publication",
                    total_ms=round(sum(txn.stages.values()), 3),
                    **txn.stages,
                )
            self.metrics.set_gauge("inflight_txns", self._undecided)
            self._metrics_changed()
            for future in self._waiters.pop(txn.txn_id, []):
                if not future.done():
                    future.set_result((outcome, via))
            if txn.txn_id in self._gateway_permits:
                self._gateway_permits.discard(txn.txn_id)
                self._inflight_sem.release()

    def _on_fsync_batch(self, batch: int) -> None:
        """Roll one group-commit fsync into metrics and the trace."""
        self.metrics.inc("dtlog_fsync_calls_total")
        self.metrics.observe(
            "batched_records_per_fsync",
            float(batch),
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        )
        duration_ms = (self.store.last_fsync_s or 0.0) * 1000.0
        self.metrics.observe(
            "fsync_duration_ms", duration_ms, buckets=WALL_MS_BUCKETS
        )
        self.trace(
            "log.fsync",
            f"group-commit fsync of {batch} record(s)",
            batch=int(batch),
            duration_ms=round(duration_ms, 3),
        )

    def on_txn_blocked(self, txn: LiveTxn) -> None:
        """Count one blocked transaction (2PC's defining failure mode)."""
        self.metrics.inc("txns_blocked_total", protocol=self.config.spec_name)
        self.write_metrics()
        # Query every peer that is reachable *right now*, not just the
        # ones this host saw fail.  The recovered-peer event a blocked
        # site normally waits for may already have fired (a fast
        # restart delivers its hello before termination finishes
        # blocking us) or may never fire for this host at all (created
        # by termination traffic after the restart, so its
        # known_failed set is empty).  Asking an operational peer is
        # harmless — it answers from its log — and a peer that is
        # still down will trigger on_peer_recovered when it returns.
        for peer in sorted(self.config.peers):
            if peer in self.spec.automata and peer not in self.transport.suspected:
                txn.recovery.on_peer_recovered(peer)

    def _metrics_changed(self) -> None:
        """Arm the trailing snapshot write, if none is pending.

        One deferred write covers however many decisions land within
        ``METRICS_WRITE_INTERVAL``; nothing on the decision path touches
        the file.
        """
        if self._metrics_timer is None:
            self._metrics_timer = asyncio.get_running_loop().call_later(
                METRICS_WRITE_INTERVAL, self._metrics_timer_fired
            )

    def _metrics_timer_fired(self) -> None:
        self._metrics_timer = None
        self.write_metrics()

    def metrics_snapshot(self) -> dict[str, Any]:
        """The registry plus this site's live counters, as of now.

        What a ``metrics`` request is answered with and what
        :meth:`write_metrics` puts on disk.
        """
        snapshot = self.metrics.to_dict()
        snapshot["live"] = {
            "site": int(self.config.site),
            "boot": self.store.boot_count,
            "forced_writes": self.store.forced_writes,
            "forced_writes_skipped": self.store.forced_writes_skipped,
            "fsync_calls": self.store.fsync_calls,
            "presumption": self.config.presumption,
            "inflight_txns": self._undecided,
            "frames_sent": self.transport.frames_sent,
            "frames_received": self.transport.frames_received,
            "socket_writes": self.transport.socket_writes,
            "decoder_hwm": self.transport.decoder_hwm,
            "peer_reconnects": {
                str(int(peer)): count
                for peer, count in sorted(self.transport.reconnects.items())
            },
            "trace_entries": self._trace_entries,
            "trace_dropped": self._trace_dropped,
            "chaos_drops": self.transport.chaos_drops,
            "chaos_delays": self.transport.chaos_delays,
            "suspected": sorted(int(p) for p in self.transport.suspected),
        }
        return snapshot

    def write_metrics(self) -> None:
        """Atomically publish the metrics snapshot (tmp + rename).

        The file is the post-mortem copy — what ``repro audit`` and a
        harness find after the process is gone; a live site is asked
        with a ``metrics`` request instead.  Written on boot, pause,
        blocked txns and exit, and ``METRICS_WRITE_INTERVAL`` after a
        decision changed the counters, so a site that is about to be
        ``kill -9``-ed still leaves a consistent snapshot.  No fsync
        here: page-cache contents survive SIGKILL (only an OS crash
        loses them, which is not this runtime's threat model), and the
        snapshot is advisory observability, not the DT log.
        """
        atomic_write_json(self._metrics_path, self.metrics_snapshot())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LiveSite(site={self.config.site}, {self.config.spec_name}, "
            f"txns={len(self.txns)}, paused={self.paused})"
        )
