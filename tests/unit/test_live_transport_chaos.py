"""In-process transport tests: chaos delivery, the two failure
detectors, suspicion epochs, flush.

Two real :class:`Transport` instances over loopback TCP, no site
subprocesses — fast enough for the unit tier while still exercising
the actual socket path the chaos seam lives on.  Where a peer has to
misbehave in a way no ``Transport`` does (reset a dial, swallow one),
a plain socket stands in for it; the kernel's behaviour is never mocked.
"""

from __future__ import annotations

import asyncio
import socket
import time

import pytest

from repro.errors import LiveTimeoutError
from repro.live.chaos import ChaosPolicy, ChaosRule, LinkChaos
from repro.live.clock import TimeoutClock
from repro.live.transport import Transport
from repro.live.wire import encode_frame
from repro.types import SiteId

S1, S2 = SiteId(1), SiteId(2)


def free_ports(count: int) -> list[int]:
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


class Harness:
    """One in-process transport endpoint with recording callbacks."""

    def __init__(
        self,
        site: SiteId,
        port: int,
        peers: dict[SiteId, tuple[str, int]],
        hb_interval: float = 0.05,
        suspect_after: float = 10.0,
        chaos: LinkChaos | None = None,
        wait_durable=None,
        boot: int = 1,
        stopping=lambda: False,
    ) -> None:
        self.frames: list[tuple[SiteId, dict]] = []
        self.suspects: list[SiteId] = []
        self.recoveries: list[SiteId] = []
        self.restarts: list[SiteId] = []
        self.traces: list[str] = []
        #: (category, data) of every trace entry, in order.
        self.events: list[tuple[str, dict]] = []
        self.clock = TimeoutClock()

        def trace(category, detail="", **data):
            self.traces.append(category)
            self.events.append((category, data))

        async def on_frame(peer, frame):
            self.frames.append((peer, frame))

        async def on_client(first, reader, writer):
            writer.close()

        self.transport = Transport(
            site=site,
            host="127.0.0.1",
            port=port,
            peers=peers,
            clock=self.clock,
            on_frame=on_frame,
            on_client=on_client,
            on_suspect=self.suspects.append,
            on_recover=self.recoveries.append,
            on_restart=self.restarts.append,
            stopping=stopping,
            boot=boot,
            hb_interval=hb_interval,
            suspect_after=suspect_after,
            trace=trace,
            wait_durable=wait_durable,
            chaos=chaos,
        )

    def probes(self) -> list[str]:
        """Outcome of every probe dial so far, in order."""
        return [d["outcome"] for c, d in self.events if c == "live.probe"]

    def suspicion_causes(self) -> list[str]:
        return [d["cause"] for c, d in self.events if c == "live.suspect"]


async def wait_for(predicate, timeout: float = 5.0, what: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        await asyncio.sleep(0.005)
    raise AssertionError(f"timed out waiting for {what}")


def payload(txn: int) -> dict:
    return {"t": "payload", "d": {"p": "proto", "kind": "prepare", "txn": txn}}


class TestChaosDelivery:
    def test_dropped_frames_never_deliver_and_are_traced(self):
        async def go():
            p1, p2 = free_ports(2)
            policy = ChaosPolicy(
                links=(ChaosRule(src=2, dst=1, kinds=("prepare",), drop=1.0),)
            )
            a = Harness(
                S1,
                p1,
                {S2: ("127.0.0.1", p2)},
                chaos=LinkChaos(policy, 1),
            )
            b = Harness(S2, p2, {S1: ("127.0.0.1", p1)})
            await a.transport.start()
            await b.transport.start()
            try:
                await wait_for(
                    lambda: a.transport.all_peers_seen()
                    and b.transport.all_peers_seen(),
                    what="mesh up",
                )
                b.transport.send(S1, payload(7))
                b.transport.send(
                    S1, {"t": "payload", "d": {"p": "proto", "kind": "ok"}}
                )
                await wait_for(lambda: a.frames, what="surviving frame")
                kinds = [f["d"]["kind"] for _, f in a.frames]
                assert kinds == ["ok"]  # the prepare died, order held
                assert a.transport.chaos_drops == 1
                assert "live.chaos_drop" in a.traces
            finally:
                await a.transport.stop()
                await b.transport.stop()

        asyncio.run(go())

    def test_delay_preserves_per_link_fifo(self):
        async def go():
            p1, p2 = free_ports(2)
            # Only "slow" frames are delayed; a later "fast" frame must
            # still arrive after them (FIFO per link is the contract).
            policy = ChaosPolicy(
                links=(
                    ChaosRule(src=2, dst=1, kinds=("slow",), delay_ms=150.0),
                )
            )
            a = Harness(
                S1, p1, {S2: ("127.0.0.1", p2)}, chaos=LinkChaos(policy, 1)
            )
            b = Harness(S2, p2, {S1: ("127.0.0.1", p1)})
            await a.transport.start()
            await b.transport.start()
            try:
                await wait_for(
                    lambda: a.transport.all_peers_seen()
                    and b.transport.all_peers_seen(),
                    what="mesh up",
                )
                b.transport.send(
                    S1, {"t": "payload", "d": {"p": "proto", "kind": "slow"}}
                )
                b.transport.send(
                    S1, {"t": "payload", "d": {"p": "proto", "kind": "fast"}}
                )
                await wait_for(lambda: len(a.frames) >= 2, what="both frames")
                kinds = [f["d"]["kind"] for _, f in a.frames]
                assert kinds == ["slow", "fast"]
                assert a.transport.chaos_delays >= 1
            finally:
                await a.transport.stop()
                await b.transport.stop()

        asyncio.run(go())


class TestSuspicionEpoch:
    def test_stale_delayed_frame_does_not_clear_suspicion(self):
        """Regression: clearing suspicion on *any* inbound frame.

        A frame that was already chaos-delayed in flight when the peer
        went quiet is stamped before the suspicion epoch; delivering it
        must not un-suspect the peer.  Only a frame that arrived at the
        socket after the suspicion was raised counts as proof of life.
        """

        async def go():
            p1, p2 = free_ports(2)
            # Site 1 drops site 2's heartbeats outright and delays its
            # protocol frames past the suspicion threshold.
            policy = ChaosPolicy(
                links=(
                    ChaosRule(src=2, dst=1, kinds=("@hb",), drop=1.0),
                    ChaosRule(
                        src=2, dst=1, kinds=("@payload",), delay_ms=500.0
                    ),
                )
            )
            a = Harness(
                S1,
                p1,
                {S2: ("127.0.0.1", p2)},
                hb_interval=0.05,
                suspect_after=0.25,
                chaos=LinkChaos(policy, 1),
            )
            b = Harness(S2, p2, {S1: ("127.0.0.1", p1)})
            await a.transport.start()
            await b.transport.start()
            try:
                await wait_for(
                    lambda: a.transport.all_peers_seen(), what="first contact"
                )
                # In flight before the silence is noticed...
                b.transport.send(S1, payload(1))
                await wait_for(
                    lambda: S2 in a.transport.suspected, what="suspicion"
                )
                epoch = a.transport.suspected_at[S2]
                # Receive-side chaos ends no connection, so the silence
                # detector is the only one that ever runs here.
                assert a.suspicion_causes() == ["silence"]
                assert a.probes() == []
                # ...delivered after the epoch, stamped before it.
                await wait_for(lambda: a.frames, what="delayed delivery")
                assert S2 in a.transport.suspected, (
                    "stale pre-epoch frame cleared the suspicion"
                )
                assert "live.stale_liveness" in a.traces
                assert a.recoveries == []
                # Fresh evidence (socket arrival after the epoch) does
                # clear it — the detector still recovers.
                b.transport.send(S1, payload(2))
                await wait_for(
                    lambda: S2 not in a.transport.suspected,
                    what="recovery on fresh frame",
                )
                assert a.recoveries == [S2]
                assert a.transport.suspected_at.get(S2) is None
                assert a.transport.last_seen[S2] > epoch
                assert a.probes() == []
            finally:
                await a.transport.stop()
                await b.transport.stop()

        asyncio.run(go())


async def mesh_up(a: Harness, b: Harness) -> None:
    await a.transport.start()
    await b.transport.start()
    await wait_for(
        lambda: a.transport.all_peers_seen() and b.transport.all_peers_seen(),
        what="mesh up",
    )


async def hello_to(port: int, site: SiteId, boot: int = 1):
    """A plain-socket stand-in for ``site`` introducing itself at ``port``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        encode_frame(
            {"t": "hello", "site": int(site), "boot": boot, "codec": "json"}
        )
    )
    await writer.drain()
    return reader, writer


class TestRefusedDial:
    """The accurate half of the detector: a refused dial, nothing less."""

    def test_a_peer_that_is_gone_is_suspected_at_once(self):
        async def go():
            p1, p2 = free_ports(2)
            a = Harness(S1, p1, {S2: ("127.0.0.1", p2)}, suspect_after=30.0)
            b = Harness(S2, p2, {S1: ("127.0.0.1", p1)}, suspect_after=30.0)
            try:
                await mesh_up(a, b)
                began = time.monotonic()
                await b.transport.stop()  # listener and connections closed
                await wait_for(
                    lambda: S2 in a.transport.suspected, what="fast suspicion"
                )
                assert time.monotonic() - began < 1.0  # suspect_after is 30 s
                assert a.suspects == [S2]
                assert a.suspicion_causes() == ["refused"]
                assert a.transport.suspect_cause[S2] == "refused"
                assert a.probes()[-1] == "refused"
                assert set(a.probes()[:-1]) <= {"reset"}
                # The dead writer went with the suspicion, not on the
                # second heartbeat write; what was queued is kept.
                assert S2 not in a.transport._writers
                a.transport.send(S2, payload(1))
                await asyncio.sleep(0.15)
                assert len(a.transport._outbox[S2]) >= 1
            finally:
                await a.transport.stop()
                await b.transport.stop()

        asyncio.run(go())

    def test_a_mere_reconnect_is_not_a_failure(self):
        async def go():
            p1, p2 = free_ports(2)
            a = Harness(S1, p1, {S2: ("127.0.0.1", p2)})
            b = Harness(S2, p2, {S1: ("127.0.0.1", p1)})
            try:
                await mesh_up(a, b)
                # b drops only its connection to a and keeps listening.
                b.transport._writers[S1].close()
                await wait_for(
                    lambda: "live.peer_reconnect" in a.traces,
                    what="b's sender dialing again",
                )
                await wait_for(lambda: a.probes(), what="the probe's verdict")
                assert a.probes() == ["alive"]
                assert a.suspects == [] and not a.transport.suspected
                assert b.transport.reconnects[S1] == 1
                # The link works in both directions afterwards.
                a.transport.send(S2, payload(1))
                b.transport.send(S1, payload(2))
                await wait_for(lambda: a.frames and b.frames, what="traffic")
            finally:
                await a.transport.stop()
                await b.transport.stop()

        asyncio.run(go())

    def test_a_dial_reset_by_a_dying_listener_is_repeated(self):
        """The race ``kill -9`` produces, forced: the listener outlives the
        connection for a moment and resets whoever dials in meanwhile."""

        async def go():
            p1, p2 = free_ports(2)
            dials = 0
            held = []

            async def dying(reader, writer):
                nonlocal dials
                dials += 1
                if dials == 1:
                    held.append(writer)  # a's sender: keep it connected
                elif dials == 2:
                    writer.close()  # probe 1 reads EOF
                else:
                    writer.transport.abort()  # probe 2 reads ECONNRESET
                    listener.close()  # and now the port is gone

            listener = await asyncio.start_server(dying, "127.0.0.1", p2)
            a = Harness(
                S1, p1, {S2: ("127.0.0.1", p2)}, hb_interval=0.5,
                suspect_after=30.0,
            )
            await a.transport.start()
            try:
                _, inbound = await hello_to(p1, S2)
                await wait_for(a.transport.all_peers_seen, what="hello")
                await wait_for(lambda: dials == 1, what="a's sender")
                inbound.close()
                await wait_for(
                    lambda: S2 in a.transport.suspected,
                    what="suspicion after the re-dial",
                )
                outcomes = a.probes()
                assert outcomes[-1] == "refused" and len(outcomes) >= 3
                assert set(outcomes[:-1]) == {"reset"}
                assert a.suspicion_causes() == ["refused"]
            finally:
                await a.transport.stop()
                listener.close()
                for writer in held:
                    writer.close()

        asyncio.run(go())

    def test_a_swallowed_dial_proves_nothing_and_the_timer_still_fires(self):
        async def go():
            p1 = free_ports(1)[0]
            # A listener that never accepts, its queue already full:
            # the kernel drops every further SYN, as a black hole would.
            hole = socket.socket()
            hole.bind(("127.0.0.1", 0))
            hole.listen(0)
            fillers = []
            for _ in range(2):
                filler = socket.socket()
                filler.setblocking(False)
                filler.connect_ex(hole.getsockname())
                fillers.append(filler)
            a = Harness(
                S1, p1, {S2: hole.getsockname()}, hb_interval=0.05,
                suspect_after=0.4,
            )
            await a.transport.start()
            try:
                _, inbound = await hello_to(p1, S2)
                await wait_for(a.transport.all_peers_seen, what="hello")
                seen = a.transport.last_seen[S2]
                inbound.close()
                await wait_for(lambda: a.probes(), what="the probe giving up")
                assert a.probes() == ["unreachable"]
                assert not a.transport.suspected
                await wait_for(
                    lambda: S2 in a.transport.suspected, what="the timer"
                )
                assert a.transport.suspected_at[S2] - seen > 0.4
                assert a.suspicion_causes() == ["silence"]
                assert a.probes() == ["unreachable"]
            finally:
                await a.transport.stop()
                for sock in (*fillers, hole):
                    sock.close()

        asyncio.run(go())

    def test_only_the_next_incarnation_clears_a_refused_suspicion(self):
        async def go():
            p1, p2 = free_ports(2)
            policy = ChaosPolicy(
                links=(
                    ChaosRule(src=2, dst=1, kinds=("@payload",), delay_ms=300.0),
                )
            )
            a = Harness(
                S1, p1, {S2: ("127.0.0.1", p2)}, suspect_after=30.0,
                chaos=LinkChaos(policy, 1),
            )
            b = Harness(S2, p2, {S1: ("127.0.0.1", p1)}, suspect_after=30.0)
            reborn = Harness(
                S2, p2, {S1: ("127.0.0.1", p1)}, suspect_after=30.0, boot=2
            )
            try:
                await mesh_up(a, b)
                # Read off the socket before the EOF, delivered after it.
                b.transport.send(S1, payload(1))
                await b.transport.flush()
                await b.transport.stop()
                await wait_for(
                    lambda: S2 in a.transport.suspected, what="fast suspicion"
                )
                await wait_for(lambda: a.frames, what="delayed delivery")
                assert "live.stale_liveness" in a.traces
                assert S2 in a.transport.suspected and a.recoveries == []
                await reborn.transport.start()
                await wait_for(
                    lambda: S2 not in a.transport.suspected,
                    what="the restarted incarnation's hello",
                )
                assert a.restarts == [S2] and a.recoveries == [S2]
                assert a.transport.suspect_cause == {}
            finally:
                await a.transport.stop()
                await b.transport.stop()
                await reborn.transport.stop()

        asyncio.run(go())

    def test_a_stopping_site_neither_probes_nor_suspects(self):
        async def go():
            p1, p2 = free_ports(2)
            told_to_stop = False
            a = Harness(
                S1, p1, {S2: ("127.0.0.1", p2)}, stopping=lambda: told_to_stop
            )
            b = Harness(S2, p2, {S1: ("127.0.0.1", p1)})
            try:
                await mesh_up(a, b)
                told_to_stop = True
                await b.transport.stop()
                await asyncio.sleep(0.2)
                assert a.probes() == [] and a.suspects == []
            finally:
                await a.transport.stop()
                await b.transport.stop()

        asyncio.run(go())


class TestReconnectBackoff:
    def test_a_hello_cuts_the_senders_backoff_short(self, monkeypatch):
        """A survivor redials a restarted peer when it hears from it,
        not wherever its back-off happens to stand."""
        from repro.live import transport as transport_module

        monkeypatch.setattr(transport_module, "RECONNECT_MIN", 5.0)
        monkeypatch.setattr(transport_module, "RECONNECT_MAX", 5.0)

        async def go():
            p1, p2 = free_ports(2)
            a = Harness(S1, p1, {S2: ("127.0.0.1", p2)})
            b = Harness(S2, p2, {S1: ("127.0.0.1", p1)})
            await a.transport.start()  # dials b, is refused, backs off 5 s
            await asyncio.sleep(0.05)
            began = time.monotonic()
            await b.transport.start()
            try:
                await wait_for(
                    lambda: b.transport.all_peers_seen(),
                    timeout=2.0,
                    what="a's sender dialing as soon as b said hello",
                )
                assert time.monotonic() - began < 1.0
            finally:
                await a.transport.stop()
                await b.transport.stop()

        asyncio.run(go())


class TestFlush:
    def test_flush_returns_once_outbox_drains(self):
        async def go():
            p1, p2 = free_ports(2)
            a = Harness(S1, p1, {S2: ("127.0.0.1", p2)})
            b = Harness(S2, p2, {S1: ("127.0.0.1", p1)})
            await a.transport.start()
            await b.transport.start()
            try:
                for txn in range(20):
                    a.transport.send(S2, payload(txn))
                await a.transport.flush(timeout=5.0)
                assert not any(a.transport._outbox.values())
            finally:
                await a.transport.stop()
                await b.transport.stop()

        asyncio.run(go())

    def test_flush_blocks_on_slow_durability_gate_without_polling(self):
        """The waiter resolves when the sender drains, not on a poll tick."""

        async def go():
            p1, p2 = free_ports(2)
            release = asyncio.Event()

            async def gate(lsn: int) -> None:
                await release.wait()

            a = Harness(S1, p1, {S2: ("127.0.0.1", p2)}, wait_durable=gate)
            b = Harness(S2, p2, {S1: ("127.0.0.1", p1)})
            await a.transport.start()
            await b.transport.start()
            try:
                a.transport.send(S2, payload(1), barrier=10)
                flusher = asyncio.create_task(a.transport.flush(timeout=5.0))
                await asyncio.sleep(0.05)
                assert not flusher.done()  # held by the barrier
                release.set()
                await asyncio.wait_for(flusher, timeout=2.0)
            finally:
                await a.transport.stop()
                await b.transport.stop()

        asyncio.run(go())

    def test_flush_timeout_reports_stuck_peer(self):
        async def go():
            p1, dead = free_ports(2)
            # Peer address nobody listens on: the outbox cannot drain.
            a = Harness(S1, p1, {S2: ("127.0.0.1", dead)})
            await a.transport.start()
            try:
                a.transport.send(S2, payload(1))
                with pytest.raises(LiveTimeoutError, match="flush timed out"):
                    await a.transport.flush(timeout=0.2)
                assert not a.transport._flush_waiters  # waiter cleaned up
            finally:
                await a.transport.stop()

        asyncio.run(go())

    def test_flush_timer_is_cancelled_on_success(self):
        """The deadline timer must not linger after a clean flush."""

        async def go():
            p1, p2 = free_ports(2)
            a = Harness(S1, p1, {S2: ("127.0.0.1", p2)})
            b = Harness(S2, p2, {S1: ("127.0.0.1", p1)})
            await a.transport.start()
            await b.transport.start()
            try:
                a.transport.send(S2, payload(1))
                await a.transport.flush(timeout=0.3)
                # Outlive the timeout: a leaked timer would fire into a
                # resolved waiter (and a bug there would raise).
                await asyncio.sleep(0.4)
                assert not a.transport._flush_waiters
            finally:
                await a.transport.stop()
                await b.transport.stop()

        asyncio.run(go())
