"""The metrics snapshot is pulled from a live site, not pushed to a file.

Three real :class:`~repro.live.node.LiveSite` objects serve on loopback
inside the test's own event loop (real TCP, real fsyncs, no
subprocesses); the blocking harness and CLI entry points are called from
a worker thread, as any other process would call them.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import logging
import time

import pytest

from repro.cli import main as cli_main
from repro.errors import EXIT_OK, LiveTimeoutError
from repro.live import client, node
from repro.live.client import ClientSession
from repro.live.cluster import ClusterConfig, ClusterHarness
from repro.live.node import LiveConfig, LiveSite
from repro.live.wire import encode_frame, read_frame
from repro.types import SiteId

HOST = "127.0.0.1"


class _Process:
    """What ``ClusterHarness`` asks of a ``Popen``: is it still running."""

    def __init__(self, exit_code=None):
        self._exit_code = exit_code

    def poll(self):
        return self._exit_code


@pytest.fixture
def harness(tmp_path):
    """A harness that spawned nothing: free ports and a data dir."""
    return ClusterHarness(ClusterConfig(spec_name="2pc-central", data_dir=tmp_path))


@contextlib.asynccontextmanager
async def serving(harness):
    """The harness's sites, served in this loop instead of as processes."""
    ports = harness.ports
    sites = [
        LiveSite(
            LiveConfig(
                site=site,
                spec_name=harness.config.spec_name,
                n_sites=len(ports),
                port=ports[site],
                peers={p: (HOST, port) for p, port in ports.items() if p != site},
                data_dir=harness.config.data_dir,
                hb_interval=0.1,
                suspect_after=5.0,
            )
        )
        for site in ports
    ]
    started = []
    try:
        for site in sites:
            await site.start()
            started.append(site)
        while not all(site.transport.all_peers_seen() for site in sites):
            await asyncio.sleep(0.01)
        yield sites
    finally:
        for site in started:
            await site.stop()
        await asyncio.sleep(0.05)  # Let the connection handlers see EOF.


@contextlib.asynccontextmanager
async def answering(port, reply):
    """A stand-in site: one ``reply`` frame per request, or silence (``None``)."""

    async def handle(reader, writer):
        try:
            while await read_frame(reader) is not None:
                if reply is not None:
                    writer.write(encode_frame(reply))
                    await writer.drain()
        finally:
            writer.close()

    server = await asyncio.start_server(handle, HOST, port)
    try:
        yield
    finally:
        server.close()
        await server.wait_closed()


def _file_snapshot(harness, site):
    path = harness.config.data_dir / f"site-{int(site)}.metrics.json"
    return json.loads(path.read_text())


def test_metrics_request_answers_with_the_snapshot_as_of_now(harness):
    async def run():
        async with serving(harness) as sites:
            async with ClientSession(HOST, harness.ports[SiteId(1)]) as session:
                assert (await session.begin_txn(1))["outcome"] == "commit"
                reply = await session.request({"t": "metrics"})
            pulled = await client.query_metrics(HOST, harness.ports[SiteId(1)])
            return reply, pulled, sites[0].metrics_snapshot()

    reply, pulled, local = asyncio.run(run())
    assert reply["t"] == "metrics-reply"
    # Heartbeats keep the frame counters moving; the rest holds still.
    for snapshot in (reply["snapshot"], pulled):
        assert snapshot["counters"] == local["counters"]
        assert snapshot.keys() == local.keys()
        assert snapshot["live"].keys() == local["live"].keys()
    assert pulled["live"]["site"] == 1
    assert pulled["live"]["inflight_txns"] == 0
    assert pulled["live"]["forced_writes"] >= 2  # boot record + decision
    assert any(key.startswith("txns_total") for key in pulled["counters"])
    # The exit write leaves the file agreeing with the last answer.
    assert _file_snapshot(harness, 1)["live"]["forced_writes"] == pulled["live"]["forced_writes"]


def test_snapshot_writes_follow_the_clock_not_the_transaction_count(
    harness, monkeypatch
):
    """Serial load drains every site to zero in flight after each commit;
    none of those transitions may cost a registry dump + rename."""
    writes = []
    original = LiveSite.write_metrics

    def counted(self):
        writes.append(int(self.config.site))
        original(self)

    monkeypatch.setattr(LiveSite, "write_metrics", counted)
    txns = 60

    async def run():
        async with serving(harness) as sites:
            at_boot = len(writes)
            began = time.monotonic()
            async with ClientSession(HOST, harness.ports[SiteId(1)]) as session:
                for txn_id in range(1, txns + 1):
                    assert (await session.begin_txn(txn_id))["outcome"] == "commit"
            return at_boot, len(writes), time.monotonic() - began, len(sites)

    at_boot, after_load, elapsed, n_sites = asyncio.run(run())
    assert at_boot == n_sites
    allowed = n_sites * (elapsed / node.METRICS_WRITE_INTERVAL + 1)
    assert after_load - at_boot <= allowed
    # The bound must separate the two designs: two writes per transaction
    # per site (one at 0 -> 1 in flight, one at 1 -> 0) exceed it.
    assert allowed < 2 * n_sites * txns


def test_snapshot_counts_suspicions_by_cause_and_teardown_is_clean(harness, caplog):
    """Sites stopped one after the other in one loop: whoever still serves
    takes the stopped site for the crash it looks like (its dial is
    refused), and the detector's tasks end with their site."""
    refused = "suspicions_total{cause=refused}"

    async def run():
        async with serving(harness) as sites:
            async with ClientSession(HOST, harness.ports[SiteId(1)]) as session:
                assert (await session.begin_txn(1))["outcome"] == "commit"
            quiet = [site.metrics_snapshot()["counters"] for site in sites]
            await sites[0].stop()
            survivors = sites[1:]
            while not all(SiteId(1) in s.transport.suspected for s in survivors):
                await asyncio.sleep(0.005)
            counted = [s.metrics_snapshot() for s in survivors]
        strays = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
        return quiet, counted, strays

    with caplog.at_level(logging.WARNING, logger="asyncio"):
        quiet, counted, strays = asyncio.run(run())
        gc.collect()
    # Nobody failed while all three served: no suspicion of either kind.
    assert not any(key.startswith("suspicions_total") for c in quiet for key in c)
    for snapshot in counted:
        assert snapshot["counters"][refused] == 1
        assert snapshot["live"]["suspected"] == [1]
    assert strays == []
    assert [r.getMessage() for r in caplog.records] == []


def test_site_metrics_asks_a_running_site(harness):
    """The file still holds the boot snapshot; the answer does not."""

    async def run():
        async with serving(harness):
            for site in harness.ports:
                harness.processes[site] = _Process()
            async with ClientSession(HOST, harness.ports[SiteId(2)]) as session:
                await session.begin_txn(7)
                # Straight after the reply: no trailing write has fired yet.
                on_disk = _file_snapshot(harness, 2)
            return on_disk, await asyncio.to_thread(harness.site_metrics, SiteId(2))

    on_disk, snapshot = asyncio.run(run())
    assert not any(key.startswith("txns_total") for key in on_disk["counters"])
    assert any(key.startswith("txns_total") for key in snapshot["counters"])
    assert snapshot["live"]["site"] == 2


def test_site_metrics_reads_the_file_of_a_dead_site(harness):
    async def run():
        async with serving(harness):
            async with ClientSession(HOST, harness.ports[SiteId(1)]) as session:
                await session.begin_txn(1)

    asyncio.run(run())
    harness.processes[SiteId(1)] = _Process(exit_code=-9)
    snapshot = harness.site_metrics(SiteId(1))
    assert snapshot == _file_snapshot(harness, 1)
    assert snapshot["live"]["site"] == 1
    assert any(key.startswith("txns_total") for key in snapshot["counters"])  # exit write
    # Never spawned at all: same answer, nothing to ask.
    assert harness.site_metrics(SiteId(2)) == _file_snapshot(harness, 2)


def test_site_metrics_is_none_without_site_or_file(harness):
    harness.processes[SiteId(1)] = _Process(exit_code=-9)
    assert harness.site_metrics(SiteId(1)) is None
    # Running according to the process table, but nothing listens.
    harness.processes[SiteId(2)] = _Process()
    assert harness.site_metrics(SiteId(2)) is None


def test_site_metrics_falls_back_when_the_site_predates_the_request(harness):
    stale = {"live": {"site": 1, "inflight_txns": 0}}
    (harness.config.data_dir / "site-1.metrics.json").write_text(json.dumps(stale))
    harness.processes[SiteId(1)] = _Process()
    old_site = {"t": "error", "error": "unknown request 'metrics'"}

    async def run():
        async with answering(harness.ports[SiteId(1)], old_site):
            return await asyncio.to_thread(harness.site_metrics, SiteId(1))

    assert asyncio.run(run()) == stale


def test_try_metrics_gives_up_on_a_stalled_site(harness):
    async def run():
        port = harness.ports[SiteId(1)]
        async with answering(port, None):
            began = time.monotonic()
            return await client.try_metrics(HOST, port, timeout=0.2), time.monotonic() - began

    snapshot, took = asyncio.run(run())
    assert snapshot is None
    assert took < 2.0


def test_quiesce_names_the_sites_still_working(harness, monkeypatch):
    inflight = {1: 0, 2: 3, 3: 0}
    monkeypatch.setattr(
        harness,
        "site_metrics",
        lambda site: {"live": {"inflight_txns": inflight[int(site)]}},
    )
    with pytest.raises(LiveTimeoutError, match=r"\{2: 3\}"):
        harness._quiesce(timeout=0.1)
    inflight[2] = 0
    harness._quiesce(timeout=0.1)


def test_cli_txn_metrics_prints_the_live_snapshot(harness, capsys):
    async def run():
        async with serving(harness):
            async with ClientSession(HOST, harness.ports[SiteId(1)]) as session:
                await session.begin_txn(1)
            return await asyncio.to_thread(
                cli_main,
                ["txn", "--metrics", "--port", str(harness.ports[SiteId(3)]), "--timeout", "5"],
            )

    assert asyncio.run(run()) == EXIT_OK
    out = capsys.readouterr().out
    snapshot = json.loads(out)
    assert out == json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    assert snapshot["live"]["site"] == 3
    assert snapshot["live"]["trace_dropped"] == 0
