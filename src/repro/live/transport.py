"""Asyncio TCP mesh between the sites of one live cluster.

Each site runs one :class:`Transport`: a listening socket plus one
*outgoing* connection per peer.  A connection's first frame says what
it is — peers introduce themselves with ``hello`` (their frames are
routed to the site's frame handler), anything else is a client and is
handed to the client handler with its first frame.  Each direction of
a peer pair therefore uses its own TCP connection, which keeps the
dialing rule trivial (everybody dials everybody) and reconnection
independent per direction.

Failure detection has two evidence sources feeding one ``_suspect``:

* **Silence** — every peer's outgoing connection carries periodic
  ``hb`` frames, and a peer from whom nothing (heartbeat or otherwise)
  has arrived for ``suspect_after`` seconds is *suspected*.  Unlike the
  simulator's reliable detector this one can be wrong — which is the
  point: the live runtime demonstrates the protocols under the
  detector the paper actually assumes away.  It is the only path for
  partitions, frozen or hung processes and dead hosts.
* **A refused dial** — when a peer's inbound connection ends, the
  peer's listen address is probed.  ``ECONNREFUSED`` means no process
  holds that port any more, which under crash-stop cannot be wrong, so
  the peer is suspected at once: the kernel *reports* a crashed
  process, as the paper's network does.  Any other probe outcome
  proves nothing and is left to the timer.

A frame from a suspected peer that reached the socket after the
suspicion was raised clears it and fires the recovery callback, which
is how survivors notice a ``kill -9``-ed site returning.

Outgoing frames are buffered per peer and survive reconnects: a frame
is only dropped from the outbox after the socket write for it drained.
``flush`` awaits empty outboxes — the crash injector uses it to make
"killed right after the broadcast left" deterministic.

Two throughput mechanisms ride on the outbox:

* **Durability barriers** — a frame may carry the DT-log LSN it
  depends on (its site's vote/decision record); the sender awaits the
  store's durability watermark before letting the frame reach the
  socket.  This is what lets the group-commit log buffer forced
  records without ever weakening the write-ahead rule: the record is
  on the platter before any peer can see a message implying it.
* **Frame coalescing** — everything queued (and durable) for a peer is
  written in one ``writer.write`` per drain cycle.  Length-prefixed
  frames self-delimit, so concatenation is free; ``socket_writes`` vs
  ``frames_sent`` measures the syscall amortization.
"""

from __future__ import annotations

import asyncio
import collections
import socket
from typing import Any, Awaitable, Callable, Optional

from repro.errors import LiveTimeoutError, TransportError
from repro.live.chaos import LinkChaos
from repro.live.clock import TimeoutClock
from repro.live.wire import encode_frame, read_frame
from repro.live.wire_bin import (
    CODEC_JSON,
    CODECS,
    frame_decoder_for,
    frame_encoder_for,
)
from repro.types import SiteId

#: Reconnect backoff: start fast (loopback restarts are quick), cap low.
RECONNECT_MIN = 0.05
RECONNECT_MAX = 1.0


def set_nodelay(writer: asyncio.StreamWriter) -> None:
    """Disable Nagle on a stream's socket (best-effort).

    Commit protocols are request/reply chains of small frames; letting
    the kernel hold a vote back waiting for more data only adds
    round-trip latency.  The transport already coalesces frames into
    large writes itself, so Nagle buys nothing here.
    """
    sock = writer.get_extra_info("socket")
    if sock is not None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP or closed socket
            pass

#: Upper bound on frames coalesced into one socket write.  Far above
#: anything the commit protocols queue per drain cycle; it only bounds
#: the size of a single write after a long reconnect backlog.
MAX_COALESCE = 256

#: Awaits until the site's DT log is durable up to the given LSN.
DurabilityGate = Callable[[int], Awaitable[None]]

#: An async callback receiving (peer id, frame).
FrameHandler = Callable[[SiteId, dict[str, Any]], Awaitable[None]]

#: An async callback receiving (first frame, reader, writer) of a
#: client connection; the handler owns the connection afterwards.
ClientHandler = Callable[
    [dict[str, Any], asyncio.StreamReader, asyncio.StreamWriter],
    Awaitable[None],
]


class Transport:
    """One site's TCP endpoint: server, peer mesh, failure suspicion.

    Args:
        site: This site's id.
        host: Interface to bind and advertise.
        port: Listening port.
        peers: Peer id → (host, port) of every *other* site.
        clock: The wall clock (shared with the protocol controllers so
            suspicion and protocol timers agree on time).
        on_frame: Handler for frames arriving from peers.
        on_client: Handler for client connections.
        on_suspect / on_recover: Failure-detector callbacks (sync).
        on_restart: Called when a peer's hello carries a higher boot
            incarnation than previously seen — the peer crashed and
            came back, even if it beat the heartbeat detector.
        stopping: Whether this site has been told to stop.  From then
            on connections ending are its own doing, so it neither
            probes nor suspects.
        boot: This site's own boot incarnation, advertised in hellos.
        hb_interval: Heartbeat period, seconds; also how long a probe
            keeps re-dialling a peer whose listener resets it.
        suspect_after: Silence threshold before suspecting a peer.
        trace: Trace sink ``(category, detail, **data)``.
        wait_durable: Optional durability gate — frames queued with a
            nonzero barrier LSN are held until this resolves for it.
        chaos: Optional receive-side chaos engine.  When it has rules
            for this site, every inbound peer frame (except the hello
            handshake) is classified and may be dropped (no liveness
            credit, traced ``net.drop`` if it carried a span) or
            delayed (delivered later, FIFO per link, carrying its
            original socket-arrival stamp).
    """

    def __init__(
        self,
        site: SiteId,
        host: str,
        port: int,
        peers: dict[SiteId, tuple[str, int]],
        clock: TimeoutClock,
        on_frame: FrameHandler,
        on_client: ClientHandler,
        on_suspect: Callable[[SiteId], None],
        on_recover: Callable[[SiteId], None],
        on_restart: Optional[Callable[[SiteId], None]] = None,
        stopping: Callable[[], bool] = lambda: False,
        boot: int = 1,
        hb_interval: float = 0.25,
        suspect_after: float = 1.5,
        trace: Callable[..., None] = lambda *a, **k: None,
        wait_durable: Optional[DurabilityGate] = None,
        chaos: Optional[LinkChaos] = None,
        codec: str = CODEC_JSON,
    ) -> None:
        if site in peers:
            raise TransportError(f"site {site} cannot be its own peer")
        if codec not in CODECS:
            raise TransportError(
                f"unknown wire codec {codec!r} (choose from {', '.join(CODECS)})"
            )
        self.site = site
        self.host = host
        self.port = port
        #: Wire codec for *outgoing* peer frames, announced in hellos.
        #: Inbound connections are decoded per what the peer announced,
        #: so mixed-codec clusters interoperate per direction.
        self.codec = codec
        self._encode_peer = frame_encoder_for(codec)
        self.peers = dict(peers)
        self.clock = clock
        self.boot = int(boot)
        self.hb_interval = hb_interval
        self.suspect_after = suspect_after
        self._on_frame = on_frame
        self._on_client = on_client
        self._on_suspect = on_suspect
        self._on_recover = on_recover
        self._on_restart = on_restart
        self._stopping = stopping
        self._trace = trace
        self._wait_durable = wait_durable

        self._server: Optional[asyncio.base_events.Server] = None
        self._tasks: set[asyncio.Task] = set()
        #: Per-peer queue of (encoded frame, durability-barrier LSN).
        self._outbox: dict[SiteId, collections.deque[tuple[bytes, int]]] = {
            peer: collections.deque() for peer in peers
        }
        self._outbox_ready: dict[SiteId, asyncio.Event] = {}
        #: Set by a peer's inbound hello: the peer is up *now*, so its
        #: sender's reconnect back-off has nothing left to wait for.
        self._peer_hello: dict[SiteId, asyncio.Event] = {
            peer: asyncio.Event() for peer in peers
        }
        self._writers: dict[SiteId, asyncio.StreamWriter] = {}
        #: Wall time of the last frame seen from each peer (None: never).
        self.last_seen: dict[SiteId, Optional[float]] = {p: None for p in peers}
        self.suspected: set[SiteId] = set()
        #: When each current suspicion was raised — the suspicion
        #: *epoch*.  Only evidence of life *newer* than the epoch may
        #: clear a suspicion; a long-delayed frame stamped before it is
        #: stale and proves nothing about the peer now.
        self.suspected_at: dict[SiteId, float] = {}
        #: What raised each current suspicion: ``"silence"`` (heartbeat
        #: timer) or ``"refused"`` (a dial to the peer was refused).
        self.suspect_cause: dict[SiteId, str] = {}
        #: Flush calls waiting (event-driven) for all outboxes to drain.
        self._flush_waiters: list[asyncio.Future] = []
        #: Receive-side chaos: per-peer FIFO delivery queues and the
        #: latest due time per link (delays never reorder a link).
        self.chaos = chaos if chaos is not None and chaos.active else None
        self._chaos_queues: dict[
            SiteId, asyncio.Queue[tuple[float, float, dict[str, Any]]]
        ] = {}
        self._chaos_due: dict[SiteId, float] = {}
        #: Inbound hello connections accepted per peer, ever.
        self._hello_count: dict[SiteId, int] = {p: 0 for p in peers}
        #: Highest boot incarnation each peer has announced in a hello.
        self._peer_boot: dict[SiteId, int] = {}
        self.frames_sent = 0
        self.frames_received = 0
        self.socket_writes = 0
        #: Successful outgoing re-dials per peer (first dial excluded).
        #: A healthy loopback mesh stays at 0; churn here is the cheap
        #: gray-failure signal (flapping peer, half-open links).
        self.reconnects: dict[SiteId, int] = {p: 0 for p in peers}
        self._dialed: set[SiteId] = set()
        #: Largest receive-side decode buffer ever observed, bytes,
        #: across all inbound peer connections (see FrameDecoder.hwm).
        self.decoder_hwm = 0
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the server and start dialer/heartbeat/monitor tasks."""
        try:
            self._server = await asyncio.start_server(
                self._accept, self.host, self.port
            )
        except OSError as error:
            raise TransportError(
                f"site {self.site} cannot bind {self.host}:{self.port}: {error}"
            ) from error
        self._trace(
            "live.listen", f"site {self.site} listening on {self.host}:{self.port}"
        )
        for peer in self.peers:
            self._outbox_ready[peer] = asyncio.Event()
            if self._outbox[peer]:
                self._outbox_ready[peer].set()
            self._tasks.add(asyncio.create_task(self._peer_sender(peer)))
            if self.chaos is not None:
                queue: asyncio.Queue = asyncio.Queue()
                self._chaos_queues[peer] = queue
                self._tasks.add(
                    asyncio.create_task(self._chaos_delivery_loop(peer, queue))
                )
        self._tasks.add(asyncio.create_task(self._heartbeat_loop()))
        self._tasks.add(asyncio.create_task(self._suspicion_loop()))

    async def stop(self) -> None:
        """Cancel tasks and close every connection (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        # A copy: a finished probe discards itself from ``_tasks``.
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._tasks.clear()
        for writer in list(self._writers.values()):
            writer.close()
        self._writers.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(
        self,
        dst: SiteId,
        frame: dict[str, Any],
        barrier: int = 0,
        volatile: bool = False,
    ) -> None:
        """Queue one frame for a peer (buffered across reconnects).

        ``barrier`` is the DT-log LSN this frame depends on: the sender
        holds the frame until the log is durable that far (0 = no
        dependency, e.g. heartbeats).  Queue order is preserved, so a
        gated frame also delays later frames to the same peer — FIFO
        per peer is part of the transport contract.

        ``volatile`` marks commit-protocol traffic that must not
        outlive the destination *incarnation* it was addressed to.
        The paper's crash model is that messages to a crashed site are
        lost; replaying a buffered vote-request or begin to a restarted
        incarnation would instead start a fresh engine there for a
        transaction its peers already terminated, which then waits
        forever for votes nobody will send.  Volatile frames are
        stamped with the destination's boot epoch as known *now*; the
        receiver drops any stamped frame addressed to an earlier boot
        than its own.  Termination and recovery payloads stay
        non-volatile — answering those across incarnations is exactly
        how a restarted site rejoins.

        Raises:
            TransportError: If ``dst`` is not a configured peer.
        """
        if dst not in self._outbox:
            raise TransportError(f"site {self.site} has no peer {dst}")
        if volatile:
            frame = {**frame, "dst_boot": self._peer_boot.get(dst, 0)}
        self._outbox[dst].append((self._encode_peer(frame), barrier))
        event = self._outbox_ready.get(dst)
        if event is not None:
            event.set()

    async def flush(self, timeout: float = 5.0) -> None:
        """Wait until every queued frame has drained to its socket.

        Used by the deterministic crash injector: after ``flush``
        returns, everything sent before the call is on the wire (or at
        least in the kernel's send buffer), so killing the process
        cannot retract it.

        Raises:
            LiveTimeoutError: If the outboxes do not drain in time
                (e.g. a peer is unreachable).
        """
        if any(self._outbox.values()):
            # Event-driven wait: senders resolve the waiter when the
            # last outbox drains, and the deadline is a real timer on
            # the clock seam — no polling loop to spin past the
            # deadline or to return between a drain and a re-queue.
            waiter: asyncio.Future[None] = (
                asyncio.get_running_loop().create_future()
            )
            self._flush_waiters.append(waiter)

            def expire() -> None:
                if not waiter.done():
                    stuck = {
                        int(peer): len(queue)
                        for peer, queue in self._outbox.items()
                        if queue
                    }
                    waiter.set_exception(
                        LiveTimeoutError(
                            f"site {self.site} flush timed out with "
                            f"{stuck} queued"
                        )
                    )

            timer = self.clock.call_later(timeout, expire, label="flush")
            try:
                await waiter
            finally:
                timer.cancel()
                if waiter in self._flush_waiters:
                    self._flush_waiters.remove(waiter)
        for writer in list(self._writers.values()):
            try:
                await writer.drain()
            except ConnectionError:
                pass

    def _notify_flush_waiters(self) -> None:
        """Resolve pending flushes once every outbox is empty."""
        if not self._flush_waiters or any(self._outbox.values()):
            return
        waiters, self._flush_waiters = self._flush_waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    async def _peer_sender(self, peer: SiteId) -> None:
        """Own the outgoing connection to one peer: dial, retry, drain."""
        backoff = RECONNECT_MIN
        host, port = self.peers[peer]
        outbox = self._outbox[peer]
        ready = self._outbox_ready[peer]
        while True:
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except OSError:
                if await self._back_off(peer, backoff):
                    backoff = RECONNECT_MIN
                else:
                    backoff = min(backoff * 2, RECONNECT_MAX)
                continue
            set_nodelay(writer)
            backoff = RECONNECT_MIN
            if peer in self._dialed:
                self.reconnects[peer] += 1
            else:
                self._dialed.add(peer)
            self._writers[peer] = writer
            try:
                # The hello is always JSON regardless of codec — it is
                # the negotiation: its ``codec`` field announces how
                # every later frame on this connection is encoded.
                writer.write(
                    encode_frame(
                        {
                            "t": "hello",
                            "site": int(self.site),
                            "boot": self.boot,
                            "codec": self.codec,
                        }
                    )
                )
                await writer.drain()
                # Until the failure detector drops this writer (the
                # peer's process is gone; dial its next incarnation).
                while not writer.is_closing():
                    if not outbox:
                        ready.clear()
                        await ready.wait()
                        continue
                    # Collect every queued frame whose durability
                    # barrier is satisfied (awaiting the log where
                    # needed) and write them in ONE syscall — frames
                    # self-delimit, so concatenation is free, and
                    # frames that arrive while we await a barrier
                    # join the same batch.
                    count = 0
                    parts: list[bytes] = []
                    while count < len(outbox) and count < MAX_COALESCE:
                        data, barrier = outbox[count]
                        if barrier and self._wait_durable is not None:
                            await self._wait_durable(barrier)
                        parts.append(data)
                        count += 1
                    writer.write(b"".join(parts))
                    await writer.drain()
                    self.socket_writes += 1
                    # Peek-then-pop: frames leave the outbox only after
                    # their bytes drained, so a connection drop
                    # mid-write re-sends them on the next connection.
                    for _ in range(count):
                        outbox.popleft()
                        self.frames_sent += 1
                    if not outbox:
                        self._notify_flush_waiters()
            except (ConnectionError, OSError):
                pass
            finally:
                if self._writers.get(peer) is writer:
                    del self._writers[peer]
                writer.close()
            await self._back_off(peer, backoff)

    async def _back_off(self, peer: SiteId, delay: float) -> bool:
        """Wait out a reconnect back-off; True if a hello cut it short.

        A hello arriving from ``peer`` means it is listening again
        (everybody dials everybody at boot), so a survivor blocked on a
        restarted coordinator rejoins it at once instead of wherever the
        back-off happened to stand.
        """
        hello = self._peer_hello[peer]
        hello.clear()
        try:
            await asyncio.wait_for(hello.wait(), delay)
        except asyncio.TimeoutError:
            return False
        return True

    async def _heartbeat_loop(self) -> None:
        while True:
            for peer in self.peers:
                # Don't grow a dead peer's outbox without bound: the
                # queued protocol frames already prove liveness intent.
                if len(self._outbox[peer]) < 64:
                    self.send(peer, {"t": "hb", "site": int(self.site)})
            await asyncio.sleep(self.hb_interval)

    # ------------------------------------------------------------------
    # Failure suspicion
    # ------------------------------------------------------------------

    async def _suspicion_loop(self) -> None:
        interval = max(0.01, self.hb_interval / 2)
        while True:
            now = self.clock.now()
            for peer, seen in self.last_seen.items():
                # Never-seen peers are not suspected: suspicion starts
                # only after first contact, so a slow-booting cluster
                # does not open with spurious terminations.
                if seen is not None and now - seen > self.suspect_after:
                    self._suspect(
                        peer,
                        "silence",
                        f"no frames from site {peer} for {now - seen:.2f}s",
                    )
            await asyncio.sleep(interval)

    def _suspect(self, peer: SiteId, cause: str, detail: str) -> None:
        """Raise a suspicion of ``peer`` — the one path both detectors take."""
        if peer in self.suspected or self._is_stopping():
            return
        self.suspected.add(peer)
        self.suspected_at[peer] = self.clock.now()
        self.suspect_cause[peer] = cause
        self._trace("live.suspect", detail, peer=int(peer), cause=cause)
        self._on_suspect(peer)

    def _is_stopping(self) -> bool:
        return self._stopped or self._stopping()

    def _connection_ended(self, peer: SiteId) -> None:
        """An inbound connection from ``peer`` ended: find out why."""
        if peer in self.suspected or self._is_stopping():
            return
        task = asyncio.create_task(self._probe(peer))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _probe(self, peer: SiteId) -> None:
        """Ask the kernel whether ``peer``'s process is gone.

        A dial to its listen address that is *refused* is accurate
        evidence under crash-stop: nothing holds the port, so the
        process is gone.  A dial that is accepted and then reset (or
        closed) met a dying process whose listener the kernel had not
        torn down yet, so it is repeated, for at most ``hb_interval``.
        Accepted and held, a time-out or an unreachable address prove
        nothing — the peer may merely have reconnected — and are left
        to the heartbeat timer.
        """
        host, port = self.peers[peer]
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.hb_interval
        outcome = "reset"
        while (
            outcome == "reset"
            and loop.time() < deadline
            and not self._is_stopping()
        ):
            outcome = await self._dial(host, port, deadline)
            self._trace(
                "live.probe",
                f"dial to site {peer}: {outcome}",
                peer=int(peer),
                outcome=outcome,
            )
        if outcome == "refused":
            self._drop_writer(peer)
            self._suspect(peer, "refused", f"site {peer} refuses connections")

    @staticmethod
    async def _dial(host: str, port: int, deadline: float) -> str:
        """One probe dial, over by ``deadline`` (loop time).

        The probe never writes: the peer's ``_accept`` sees a connection
        that closes before its first frame.
        """
        loop = asyncio.get_running_loop()
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), deadline - loop.time()
            )
        except ConnectionRefusedError:
            return "refused"
        except (OSError, asyncio.TimeoutError):
            return "unreachable"
        try:
            held = await asyncio.wait_for(reader.read(1), deadline - loop.time())
        except asyncio.TimeoutError:
            return "alive"
        except ConnectionError:
            return "reset"
        finally:
            writer.close()
        return "alive" if held else "reset"

    def _drop_writer(self, peer: SiteId) -> None:
        """Close the outgoing connection to a peer whose process is gone.

        The sender would otherwise find out on its second heartbeat
        write; peek-then-pop keeps the queued frames for the next
        connection.
        """
        writer = self._writers.pop(peer, None)
        if writer is not None:
            writer.close()
            self._outbox_ready[peer].set()

    def _saw_peer(self, peer: SiteId, stamp: Optional[float] = None) -> None:
        """Credit liveness evidence stamped at ``stamp`` (default: now).

        ``stamp`` is when the evidence *arrived at the socket*, not
        when chaos delivered it.  A suspicion clears only on evidence
        newer than the suspicion epoch: a frame that was already in
        flight (or chaos-delayed) when the peer went quiet says
        nothing about the peer now, and un-suspecting on it made the
        detector flap against genuinely dark links.
        """
        if stamp is None:
            stamp = self.clock.now()
        seen = self.last_seen.get(peer)
        if seen is None or stamp > seen:
            self.last_seen[peer] = stamp
        if peer in self.suspected:
            epoch = self.suspected_at.get(peer)
            if epoch is not None and stamp <= epoch:
                self._trace(
                    "live.stale_liveness",
                    f"frame from suspected site {peer} predates the "
                    f"suspicion ({stamp:.3f}s <= {epoch:.3f}s); "
                    "staying suspected",
                    peer=int(peer),
                )
                return
            self.suspected.discard(peer)
            self.suspected_at.pop(peer, None)
            self.suspect_cause.pop(peer, None)
            self._trace(
                "live.unsuspect", f"site {peer} is back", peer=int(peer)
            )
            self._on_recover(peer)

    def all_peers_seen(self) -> bool:
        """Whether at least one frame arrived from every peer."""
        return all(seen is not None for seen in self.last_seen.values())

    @property
    def chaos_drops(self) -> int:
        """Frames the chaos seam dropped on this site's inbound links."""
        return self.chaos.drops if self.chaos is not None else 0

    @property
    def chaos_delays(self) -> int:
        """Frames the chaos seam delayed on this site's inbound links."""
        return self.chaos.delays if self.chaos is not None else 0

    def operational_sites(self) -> list[SiteId]:
        """This site plus every unsuspected peer (OperationalView seam)."""
        return sorted(
            [self.site] + [p for p in self.peers if p not in self.suspected]
        )

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Classify a new inbound connection by its first frame."""
        set_nodelay(writer)
        try:
            first = await read_frame(reader)
        except TransportError:
            writer.close()
            return
        if first is None:
            writer.close()
            return
        if first.get("t") == "hello":
            codec = str(first.get("codec", CODEC_JSON))
            if codec not in CODECS:
                self._trace(
                    "live.bad_codec",
                    f"hello announcing unknown codec {codec!r}; closing",
                    peer=int(first.get("site", -1)),
                )
                writer.close()
                return
            await self._peer_receiver(
                SiteId(int(first["site"])),
                int(first.get("boot", 1)),
                codec,
                reader,
                writer,
            )
            return
        try:
            await self._on_client(first, reader, writer)
        except (ConnectionError, TransportError):
            writer.close()

    async def _peer_receiver(
        self,
        peer: SiteId,
        boot: int,
        codec: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Pump frames from one peer's inbound connection until EOF."""
        if peer not in self.peers:
            self._trace(
                "live.unknown_peer", f"hello from unknown site {peer}",
                peer=int(peer),
            )
            writer.close()
            return
        # A hello carrying a *higher boot incarnation* than this peer
        # ever announced proves it crashed and restarted — even when
        # the restart was faster than the suspicion threshold, in which
        # case the heartbeat detector never noticed and any frame we
        # wrote to the dead incarnation's socket is silently gone.  The
        # restart callback lets in-flight transactions treat the peer
        # as failed (termination protocol), which is the paper's model:
        # a recovered site rejoins via recovery, not as an operational
        # participant of transactions it may have forgotten mid-flight.
        known_boot = self._peer_boot.get(peer)
        restarted = known_boot is not None and boot > known_boot
        self._peer_boot[peer] = max(boot, known_boot or 0)
        if restarted:
            self._trace(
                "live.peer_restart",
                f"site {peer} came back as boot {boot} (was {known_boot})",
                peer=int(peer),
            )
            if self._on_restart is not None:
                self._on_restart(peer)
        # A *new* hello connection from a peer we already had one from
        # means that peer's sender came back (process restart, or a TCP
        # reconnect).  Fire the recovery callback even when our own
        # detector never got around to suspecting it — a blocked site
        # may learn it is blocked from the termination backup before
        # its own heartbeat timeout, and must still notice the
        # coordinator returning.  Spurious firings (mere reconnects)
        # are harmless: recovery just asks a question the peer answers
        # with "undecided".
        reconnect = self._hello_count[peer] > 0
        self._hello_count[peer] += 1
        self._peer_hello[peer].set()
        suspected_before = peer in self.suspected
        self._saw_peer(peer)  # Fires on_recover when it was suspected.
        if reconnect and not suspected_before:
            self._trace(
                "live.peer_reconnect",
                f"new hello connection from site {peer}",
                peer=int(peer),
            )
            self._on_recover(peer)
        # Read-side coalescing: pull whatever the socket has and split
        # it synchronously — the sender batches frames per write, so
        # one read() often yields a whole batch.  EOF with a partial
        # frame buffered is the same dropped connection as a clean EOF:
        # the sender re-queues undrained frames on reconnect.
        decoder = frame_decoder_for(codec)
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                frames = decoder.feed(data)
                if decoder.hwm > self.decoder_hwm:
                    self.decoder_hwm = decoder.hwm
                if not frames:
                    continue
                self.frames_received += len(frames)
                now = self.clock.now()
                if self.chaos is None:
                    self._saw_peer(peer, now)
                    for frame in frames:
                        await self._deliver_frame(peer, frame)
                    continue
                # Chaos seam: decide per frame *before* any liveness
                # credit — a dropped frame is as if the network lost
                # it, and delayed frames go through the per-link FIFO
                # queue (a zero-delay frame must still not overtake an
                # earlier delayed one) carrying their socket-arrival
                # stamp ``now``.
                queue = self._chaos_queues.get(peer)
                for frame in frames:
                    drop, delay_s = self.chaos.decide(int(peer), frame)
                    if drop:
                        self._trace_chaos_drop(peer, frame)
                        continue
                    if queue is None:
                        self._saw_peer(peer, now)
                        await self._deliver_frame(peer, frame)
                        continue
                    due = max(
                        self._chaos_due.get(peer, 0.0), now + delay_s
                    )
                    self._chaos_due[peer] = due
                    queue.put_nowait((due, now, frame))
        except (TransportError, ConnectionError):
            pass
        finally:
            writer.close()
        self._connection_ended(peer)

    async def _chaos_delivery_loop(
        self,
        peer: SiteId,
        queue: "asyncio.Queue[tuple[float, float, dict[str, Any]]]",
    ) -> None:
        """Deliver one link's chaos-scheduled frames in FIFO order."""
        while True:
            due, stamp, frame = await queue.get()
            remaining = due - self.clock.now()
            if remaining > 0:
                await asyncio.sleep(remaining)
            self._saw_peer(peer, stamp)
            try:
                await self._deliver_frame(peer, frame)
            except (TransportError, ConnectionError):
                continue

    def _trace_chaos_drop(self, peer: SiteId, frame: dict[str, Any]) -> None:
        """Record a chaos drop; close the sender's span if it had one."""
        self._trace(
            "live.chaos_drop",
            f"chaos dropped {frame.get('t')!r} frame from site {peer}",
            peer=int(peer),
        )
        sid = frame.get("sid")
        if sid is None:
            return
        # As with incarnation fencing, a chaos drop is a *deliberate*
        # loss with a reason — close the span so strict stitching sees
        # neither an orphan nor a forever-inflight send.
        drop_data: dict[str, Any] = {
            "msg_id": int(sid),
            "src": int(peer),
            "dst": int(self.site),
            "reason": "chaos",
        }
        if frame.get("txn") is not None:
            drop_data["txn"] = frame["txn"]
        self._trace(
            "net.drop", f"span {int(sid)} dropped by chaos", **drop_data
        )

    async def _deliver_frame(self, peer: SiteId, frame: dict[str, Any]) -> None:
        """Hand one surviving inbound frame to the site."""
        if frame.get("t") == "hb":
            return
        dst_boot = frame.get("dst_boot")
        if dst_boot is not None and dst_boot < self.boot:
            # Commit-protocol traffic addressed to a dead
            # incarnation of this site: per the crash
            # model those messages were lost with the
            # crash.  This incarnation resolves the
            # transactions involved via recovery, not by
            # replaying the old protocol run.
            self._trace(
                "live.stale_frame",
                f"dropping {frame.get('t')!r} frame addressed "
                f"to boot {dst_boot} (this is boot {self.boot})",
                peer=int(peer),
            )
            sid = frame.get("sid")
            if sid is not None:
                # Close the sender's span: a fenced frame is
                # a *deliberate* drop with a reason, never an
                # orphan or a forever-inflight mystery.
                drop_data: dict[str, Any] = {
                    "msg_id": int(sid),
                    "src": int(peer),
                    "dst": int(self.site),
                    "reason": "stale_incarnation",
                }
                if frame.get("txn") is not None:
                    drop_data["txn"] = frame["txn"]
                self._trace(
                    "net.drop",
                    f"span {int(sid)} fenced by boot {self.boot}",
                    **drop_data,
                )
            return
        await self._on_frame(peer, frame)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Transport(site={self.site}, {self.host}:{self.port}, "
            f"peers={sorted(map(int, self.peers))}, "
            f"suspected={sorted(map(int, self.suspected))})"
        )
