"""End-to-end live cluster tests: real processes, real TCP, real kill -9.

These spawn `repro serve` subprocesses on loopback, so they are marked
slow; each scenario is deterministic (marker-gated pause points, no
sleep-based race windows) and finishes in a few seconds.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.cli import main as cli_main
from repro.errors import EXIT_OK
from repro.live.audit import audit_data_dir
from repro.live.client import ClientSession
from repro.live.cluster import (
    PAUSE_POINTS,
    ClusterConfig,
    ClusterHarness,
    kill_coordinator_scenario,
)
from repro.live.stitch import stitch_data_dir
from repro.types import SiteId

pytestmark = pytest.mark.slow


@pytest.fixture
def make_harness(tmp_path):
    harnesses = []

    def build(spec_name: str, n_sites: int = 3) -> ClusterHarness:
        config = ClusterConfig(
            spec_name=spec_name,
            n_sites=n_sites,
            data_dir=tmp_path / spec_name,
        )
        harness = ClusterHarness(config)
        harnesses.append(harness)
        return harness

    yield build
    for harness in harnesses:
        harness.stop()


@pytest.mark.parametrize(
    "spec_name",
    ["2pc-central", "3pc-central", "2pc-decentralized", "3pc-decentralized"],
)
def test_healthy_path_commits(make_harness, spec_name):
    harness = make_harness(spec_name)
    harness.start()
    reply = harness.begin(1)
    assert reply["t"] == "decided"
    assert reply["outcome"] == "commit"
    assert reply["elapsed_ms"] > 0
    finals = harness.audit_atomicity(1)
    # Every site, not just the gateway, reached commit durably.
    harness.wait_outcomes(
        1,
        lambda views: all(
            v is not None and v["outcome"] == "commit" for v in views.values()
        ),
        10.0,
        "all sites committing",
    )
    assert set(finals.values()) <= {"commit"}


def test_no_vote_aborts_everywhere(make_harness, tmp_path):
    harness = make_harness("3pc-central")
    for site in harness.ports:
        harness.spawn(site, vote="no" if int(site) == 3 else "yes")
    harness.wait_all_ready()
    reply = harness.begin(1)
    assert reply["outcome"] == "abort"
    harness.wait_outcomes(
        1,
        lambda views: all(
            v is not None and v["outcome"] == "abort" for v in views.values()
        ),
        10.0,
        "all sites aborting",
    )
    harness.audit_atomicity(1)


def test_3pc_survives_coordinator_kill9(make_harness):
    """The paper's headline property, live: 3PC is nonblocking.

    The coordinator is SIGKILLed right after flushing its prepare
    broadcast; the survivors must terminate to COMMIT on their own, and
    the restarted coordinator must recover the same outcome from its
    durable log plus queries.
    """
    harness = make_harness("3pc-central")
    result = kill_coordinator_scenario(harness)
    assert result.survivors_blocked is False
    assert set(result.survivor_outcomes.values()) == {"commit"}
    assert result.final_outcomes == {1: "commit", 2: "commit", 3: "commit"}
    assert result.coordinator_boot == 2  # really was a restart


def test_2pc_blocks_on_coordinator_kill9(make_harness):
    """The contrast case: 2PC blocks when the coordinator dies in-window.

    Survivors sit in their wait state (termination rule: BLOCKED) until
    the coordinator's restarted incarnation — whose log holds no
    decision — resolves the transaction by unilateral abort.
    """
    harness = make_harness("2pc-central")
    result = kill_coordinator_scenario(harness)
    assert result.survivors_blocked is True
    assert set(result.final_outcomes.values()) == {"abort"}
    assert result.coordinator_boot == 2


@pytest.mark.parametrize(
    "spec_name, presumption, vote3, verdict",
    [
        ("3pc-central", "none", "yes", "commit"),  # nonblocking: decide alone
        ("2pc-central", "none", "yes", "blocked"),  # the paper's point
        ("2pc-central", "abort", "no", "abort"),  # yes-voter asks the no-voter
    ],
)
def test_kill9_is_reported_not_waited_for(
    tmp_path, spec_name, presumption, vote3, verdict
):
    """A crashed coordinator's survivors start termination on the kernel's
    report (its dial is refused), not on ``suspect_after`` of silence —
    here 5 s, so a verdict inside 1 s can only have come the fast way."""
    config = ClusterConfig(
        spec_name=spec_name,
        data_dir=tmp_path,
        presumption=presumption,
        suspect_after=5.0,
    )
    coordinator, survivors = SiteId(1), (SiteId(2), SiteId(3))
    with ClusterHarness(config) as harness:
        harness.spawn(coordinator, pause_after=f"{PAUSE_POINTS[spec_name]}:2")
        harness.spawn(survivors[0])
        harness.spawn(survivors[1], vote=vote3)
        harness.wait_all_ready()
        harness.begin(1, gateway=survivors[0], wait=False)
        harness.wait_paused(coordinator)
        harness.kill(coordinator)
        killed = time.monotonic()

        def settled(views):
            return all(
                views[s] is not None
                and (views[s]["blocked"] or views[s]["outcome"] in ("commit", "abort"))
                for s in survivors
            )

        views = harness.wait_outcomes(1, settled, 10.0, "the survivors' verdict")
        assert time.monotonic() - killed < 1.0
        for site in survivors:
            got = "blocked" if views[site]["blocked"] else views[site]["outcome"]
            assert got == verdict
            counters = harness.site_metrics(site)["counters"]
            assert counters["suspicions_total{cause=refused}"] == 1
            assert "suspicions_total{cause=silence}" not in counters
        harness.spawn(coordinator)
        final = "abort" if verdict == "blocked" else verdict
        harness.wait_outcomes(
            1,
            lambda views: all(
                views[s] is not None and views[s]["outcome"] == final
                for s in survivors
            ),
            10.0,
            "the survivors deciding once the coordinator is back",
        )
        harness.audit_atomicity(1)
    audit = audit_data_dir(config.data_dir)
    assert audit.ok(), audit.violations


def test_metrics_snapshots_published(make_harness):
    harness = make_harness("3pc-central")
    harness.start()
    harness.begin(1)
    snapshot = harness.site_metrics(SiteId(1))
    assert snapshot is not None
    assert snapshot["live"]["site"] == 1
    assert snapshot["live"]["forced_writes"] >= 1
    # Transport observability: decoder backlog gauge and per-peer
    # reconnect counters (zero on a healthy run, but present).
    assert snapshot["live"]["decoder_hwm"] >= 0
    assert set(snapshot["live"]["peer_reconnects"]) == {"2", "3"}
    assert snapshot["live"]["trace_entries"] > 0
    assert snapshot["live"]["trace_dropped"] == 0
    counters = snapshot.get("counters", {})
    assert any(key.startswith("txns_total") for key in counters)


def test_site_metrics_is_live_while_running_and_the_file_after_kill9(make_harness):
    """The stale-snapshot class, closed structurally.

    The coordinator freezes after its first ``commit`` send, so site 3
    holds a voted, undecided transaction and publishes nothing.  Its
    file still holds the boot snapshot (zero in flight) — a reader of
    the file would call the cluster quiescent; ``site_metrics`` asks the
    site.  Once the coordinator is SIGKILLed the file its pause wrote is
    all there is, and is what ``site_metrics`` returns.
    """
    harness = make_harness("2pc-central")
    coordinator, waiting = SiteId(1), SiteId(3)
    harness.start(pause_after={coordinator: "commit:1"})
    harness.begin(1, gateway=SiteId(2), wait=False)
    harness.wait_paused(coordinator)

    def on_disk(site):
        path = harness.config.data_dir / f"site-{int(site)}.metrics.json"
        return json.loads(path.read_text())

    assert harness.status(1, waiting)["outcome"] == "undecided"
    assert on_disk(waiting)["live"]["inflight_txns"] == 0
    assert harness.site_metrics(waiting)["live"]["inflight_txns"] >= 1

    harness.kill(coordinator)
    snapshot = harness.site_metrics(coordinator)
    assert snapshot == on_disk(coordinator)
    assert snapshot["live"]["site"] == 1
    assert snapshot["live"]["forced_writes"] >= 2  # boot record + commit
    assert any(
        key.startswith("proto_frames_sent_total") for key in snapshot["counters"]
    )


def test_decided_reply_carries_stage_breakdown(make_harness):
    """The client reply decomposes commit latency into additive stages:
    queue wait, protocol resolution, and the fsync-durability wait."""
    harness = make_harness("3pc-central")
    harness.start()
    reply = harness.begin(1)
    stages = reply["stages"]
    assert set(stages) == {"queue_ms", "resolve_ms", "durable_ms"}
    assert all(value >= 0 for value in stages.values())
    # Additive by construction: the advertised latency IS the stage sum.
    assert reply["elapsed_ms"] == pytest.approx(sum(stages.values()), abs=1e-3)


def test_bench_reports_shape(make_harness):
    harness = make_harness("2pc-central")
    harness.start()
    report = harness.bench(3)
    assert report["protocol"] == "2pc-central"
    assert report["txns"] == 3
    assert report["concurrency"] == 1
    assert report["txns_per_sec"] > 0
    assert 0 < report["latency_ms"]["p50"] <= report["latency_ms"]["p99"]
    assert report["forced_writes"] > 0
    assert report["proto_frames"] > 0
    breakdown = report["latency_breakdown"]
    assert set(breakdown) == {"queue_ms", "resolve_ms", "durable_ms"}
    for stats in breakdown.values():
        assert 0 <= stats["p50"] <= stats["p99"]
    # Stage means must sum to the measured latency mean (each reply's
    # elapsed_ms is exactly its stage sum, so the means telescope).
    stage_mean_sum = sum(stats["mean"] for stats in breakdown.values())
    assert stage_mean_sum == pytest.approx(
        report["latency_ms"]["mean"], abs=max(0.05, 0.02 * report["latency_ms"]["mean"])
    )


@pytest.mark.parametrize("spec_name", ["2pc-central", "3pc-central"])
def test_concurrent_txns_interleave_and_group_commit(make_harness, spec_name):
    """Many in-flight transactions share peer links and DT-log fsyncs.

    ``bench`` raises if any transaction fails to commit, so surviving
    the call already proves interleaved frames dispatch correctly; the
    counter deltas prove the fsyncs were actually batched.
    """
    harness = make_harness(spec_name)
    harness.start()
    report = harness.bench(32, concurrency=8)
    assert report["txns"] == 32
    assert report["concurrency"] == 8
    # Group commit engaged: strictly fewer fsyncs than forced records.
    assert 0 < report["fsync_calls"] < report["forced_writes"]
    # Write-side coalescing engaged: frames per socket write above 1.
    assert report["frames_per_socket_write"] > 1.0
    for txn_id in (1, 16, 32):
        harness.audit_atomicity(txn_id)


def test_client_session_serves_sequential_requests(make_harness):
    """One persistent connection handles begins and status queries."""
    harness = make_harness("2pc-central")
    harness.start()
    port = harness.ports[SiteId(1)]

    async def run():
        async with ClientSession(harness.config.host, port) as session:
            first = await session.begin_txn(1)
            second = await session.begin_txn(2)
            status = await session.request({"t": "status", "txn": 1})
            return first, second, status

    first, second, status = asyncio.run(run())
    assert first["outcome"] == second["outcome"] == "commit"
    assert status["t"] == "status-reply"
    assert status["outcome"] == "commit"


@pytest.mark.parametrize("spec_name", ["2pc-central", "3pc-central"])
def test_kill9_coordinator_under_concurrent_load(make_harness, spec_name):
    """kill -9 lands mid-burst — likely during a batched flush — and
    atomicity must hold for every transaction anyway.

    Sixteen transactions are begun through a survivor gateway without
    waiting, the coordinator is SIGKILLed while they are in flight,
    then restarted.  Every transaction must reach one consistent
    outcome cluster-wide: the group-commit buffer may lose un-fsynced
    records to the kill, but only records nobody acted on (the
    durability barrier), so recovery always converges.
    """
    harness = make_harness(spec_name)
    harness.start()
    txn_ids = list(range(1, 17))
    harness.begin_many(txn_ids, gateway=SiteId(2), wait=False)
    harness.kill(SiteId(1))
    harness.spawn(SiteId(1))
    gateway = SiteId(2)

    def settled(views):
        # Liveness: every site that knows the transaction reaches a
        # final outcome — nobody hangs in a wait state.  A site with no
        # trace of the txn (the coordinator died before telling it, or
        # the restarted coordinator's log never heard of it) has
        # nothing to decide; peers querying it get unilateral abort.
        if any(v is None for v in views.values()):
            return False  # a site is down/restarting
        if views[gateway]["outcome"] not in ("commit", "abort"):
            return False  # the gateway always knows the txn
        return all(
            v["outcome"] in ("commit", "abort") or v["state"] is None
            for v in views.values()
        )

    for txn_id in txn_ids:
        harness.wait_outcomes(
            txn_id,
            settled,
            30.0,
            f"txn {txn_id} settling at every site that knows it",
        )
        finals = harness.audit_atomicity(txn_id)
        assert len(set(finals.values())) == 1  # no split decision


def test_kill9_traces_stitch_clean_and_audit_passes(make_harness):
    """The CI smoke contract: after a kill -9 scenario, the site traces
    stitch into one cluster trace with zero orphan spans (the pause
    marker flushed everything the coordinator sent before dying, and
    incarnation-fenced frames become *closed* drop spans), and the
    durable artifacts pass the atomicity audit.
    """
    harness = make_harness("3pc-central")
    result = kill_coordinator_scenario(harness)
    assert result.final_outcomes == {1: "commit", 2: "commit", 3: "commit"}
    harness.stop()  # graceful stop flushes every surviving trace tail
    data_dir = harness.config.data_dir

    stitched = stitch_data_dir(data_dir)
    assert stitched.orphan_spans == []
    assert stitched.orphan_parents == []
    assert stitched.cycles_broken == 0
    assert len(stitched.trace) > 0

    report = audit_data_dir(data_dir)
    assert report.ok(), report.violations
    assert report.decisions >= 3
    assert cli_main(["stitch", str(data_dir), "--strict"]) == EXIT_OK
    assert cli_main(["audit", str(data_dir)]) == EXIT_OK


def test_canonical_stitch_byte_stable_across_runs(tmp_path):
    """Two independent live runs of the same fixed scenario stitch to
    byte-identical canonical cluster traces — the live analogue of the
    simulator's deterministic trace guarantee."""
    outputs = []
    for run in ("run-a", "run-b"):
        config = ClusterConfig(
            spec_name="3pc-central",
            n_sites=3,
            data_dir=tmp_path / run,
        )
        harness = ClusterHarness(config)
        try:
            harness.start()
            reply = harness.begin(1)
            assert reply["outcome"] == "commit"
            harness.wait_outcomes(
                1,
                lambda views: all(
                    v is not None and v["outcome"] == "commit"
                    for v in views.values()
                ),
                10.0,
                "all sites committing",
            )
        finally:
            harness.stop()
        result = stitch_data_dir(config.data_dir, canonical=True)
        assert result.orphan_spans == []
        assert result.orphan_parents == []
        assert result.cycles_broken == 0
        outputs.append(result.trace.to_jsonl())
    assert outputs[0] == outputs[1]


# ----------------------------------------------------------------------
# Chaos: gray failures and soak
# ----------------------------------------------------------------------


def test_gray_failure_scenario_splits_the_decision(tmp_path):
    """Heartbeats flow, commit-phase frames die: 3PC splits.

    The packaged gray-link policy starves site 3 of its prepare while
    keeping every TCP connection up.  Site 2 (in p) solo-terminates to
    commit, site 3 (in w) to abort — the reliable-detector assumption
    violated on real sockets, caught by the durable-log audit.
    """
    from repro.live.cluster import gray_failure_scenario

    config = ClusterConfig(
        spec_name="3pc-central", n_sites=3, data_dir=tmp_path / "gray"
    )
    harness = ClusterHarness(config)
    try:
        result = gray_failure_scenario(harness)
    finally:
        harness.stop()
    assert result.split_detected
    assert result.outcomes == {2: "commit", 3: "abort"}
    assert result.coordinator_outcome == "undecided"
    assert result.violation is not None
    assert not result.audit_ok
    assert any("AC1" in v for v in result.audit_violations)
    # Re-auditing the durable artifacts agrees after the fact.
    report = audit_data_dir(config.data_dir, include_traces=False)
    assert not report.ok()
    # Chaos drops close their spans: strict stitching stays clean.
    stitched = stitch_data_dir(config.data_dir)
    assert stitched.orphan_spans == []
    assert stitched.cycles_broken == 0


def test_gray_failure_scenario_is_deterministic(tmp_path):
    from repro.live.cluster import gray_failure_scenario

    outcomes = []
    for run in ("a", "b"):
        config = ClusterConfig(
            spec_name="3pc-central", n_sites=3, data_dir=tmp_path / run
        )
        harness = ClusterHarness(config)
        try:
            result = gray_failure_scenario(harness)
        finally:
            harness.stop()
        outcomes.append((result.outcomes, result.chaos_hash))
    assert outcomes[0] == outcomes[1]


def test_soak_smoke_under_combined_chaos(tmp_path):
    """A short soak under WAN + slow-disk chaos audits clean."""
    from repro.live.soak import SoakConfig, run_soak

    result = run_soak(
        SoakConfig(
            data_dir=tmp_path / "soak",
            txns=30,
            batch=15,
            concurrency=3,
            profile="combined",
            seed=1,
        )
    )
    assert result.ok
    assert result.txns == 30
    assert result.waves == 2
    assert result.audits == 2  # one mid-run, one final
    assert result.chaos_hash is not None
    # The WAN profile is delay-only: delays observed, nothing dropped.
    assert sum(result.chaos_delays.values()) > 0
    assert sum(result.chaos_drops.values()) == 0
    assert result.stitch["orphan_spans"] == []
    assert result.stitch["cycles_broken"] == 0


def test_soak_canonical_stitch_byte_stable_under_wan_chaos(tmp_path):
    """Fixed-seed serial soaks replay to byte-identical canonical
    traces even with WAN delay/jitter live on every link — the chaos
    determinism contract holding end-to-end through real sockets."""
    from repro.live.soak import SoakConfig, run_soak

    hashes = []
    for run in ("a", "b"):
        result = run_soak(
            SoakConfig(
                data_dir=tmp_path / run,
                txns=8,
                batch=8,
                concurrency=1,
                profile="wan",
                seed=3,
            )
        )
        assert result.ok
        hashes.append(result.stitch_hash)
    assert hashes[0] == hashes[1]


# ----------------------------------------------------------------------
# Commit presumptions and the read-only one-phase exit
# ----------------------------------------------------------------------


def test_presumption_none_is_byte_identical_to_default(tmp_path):
    """The differential contract: explicitly requesting --presumption
    none (and the default asyncio loop) changes nothing — the canonical
    stitch is byte-identical to a config that never mentions the new
    knobs, and no forced write was elided."""
    outputs = []
    for run, extra in (("default", {}), ("explicit", {"presumption": "none", "loop": "asyncio"})):
        config = ClusterConfig(
            spec_name="3pc-central",
            n_sites=3,
            data_dir=tmp_path / run,
            **extra,
        )
        harness = ClusterHarness(config)
        try:
            harness.start()
            assert harness.begin(1)["outcome"] == "commit"
            harness.wait_outcomes(
                1,
                lambda views: all(
                    v is not None and v["outcome"] == "commit"
                    for v in views.values()
                ),
                10.0,
                "all sites committing",
            )
            skipped = sum(
                harness.site_metrics(s)["live"]["forced_writes_skipped"]
                for s in harness.ports
            )
            assert skipped == 0
        finally:
            harness.stop()
        outputs.append(
            stitch_data_dir(config.data_dir, canonical=True).trace.to_jsonl()
        )
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("presumption", ["abort", "commit"])
def test_presumptions_cut_forced_writes_on_the_commit_path(
    tmp_path, presumption
):
    """Either presumption must strictly reduce forced writes for the
    same committed workload (participant decisions go lazy), while the
    audit stays clean."""
    counts = {}
    for name in ("none", presumption):
        config = ClusterConfig(
            spec_name="2pc-central",
            n_sites=3,
            data_dir=tmp_path / name,
            presumption=name,
        )
        harness = ClusterHarness(config)
        try:
            harness.start()
            report = harness.bench(8)
            counts[name] = (report["forced_writes"], report["forced_writes_skipped"])
        finally:
            harness.stop()
        audit = audit_data_dir(config.data_dir)
        assert audit.ok(), audit.violations
    assert counts["none"][1] == 0
    assert counts[presumption][1] > 0
    assert counts[presumption][0] < counts["none"][0]


def test_read_only_site_exits_phase1_with_zero_log_writes(tmp_path):
    """A READ-ONLY voter leaves after phase 1: the voters commit, the
    read-only site's DT log holds nothing but boot records, and it is
    pruned from the phase-2/3 fan-out."""
    from repro.live.dtlog import read_log_file

    config = ClusterConfig(
        spec_name="3pc-central",
        n_sites=3,
        data_dir=tmp_path / "ro",
        ro_sites=(SiteId(3),),
    )
    harness = ClusterHarness(config)
    try:
        harness.start()
        reply = harness.begin(1)
        assert reply["outcome"] == "commit"
        views = harness.wait_outcomes(
            1,
            lambda views: all(
                views[s] is not None and views[s]["outcome"] == "commit"
                for s in (SiteId(1), SiteId(2))
            ),
            10.0,
            "voters committing",
        )
        # The read-only site is done at phase 1 — no outcome to reach.
        assert views[SiteId(3)] is None or views[SiteId(3)]["outcome"] != "commit"
    finally:
        harness.stop()
    bodies, torn = read_log_file(config.data_dir / "site-3.dtlog")
    assert not torn
    assert [b["r"] for b in bodies] == ["boot"]
    audit = audit_data_dir(config.data_dir)
    assert audit.ok(), audit.violations


def test_kill9_read_only_site_after_phase1_exit(tmp_path):
    """kill -9 the read-only site once it has left the protocol: the
    voters are unaffected, the restarted site has nothing to recover,
    and the audit stays clean."""
    from repro.live.dtlog import read_log_file

    config = ClusterConfig(
        spec_name="2pc-central",
        n_sites=3,
        data_dir=tmp_path / "ro-kill",
        ro_sites=(SiteId(3),),
        presumption="abort",
    )
    harness = ClusterHarness(config)
    try:
        harness.start()
        assert harness.begin(1)["outcome"] == "commit"
        harness.kill(SiteId(3))
        harness.spawn(SiteId(3))
        harness.wait_all_ready()
        # The cluster keeps committing with the read-only site reborn.
        assert harness.begin(2)["outcome"] == "commit"
        views = harness.statuses(2)
        assert views[SiteId(3)] is not None
        assert views[SiteId(3)]["boot"] == 2
    finally:
        harness.stop()
    bodies, _ = read_log_file(config.data_dir / "site-3.dtlog")
    assert [b["r"] for b in bodies] == ["boot", "boot"]
    audit = audit_data_dir(config.data_dir)
    assert audit.ok(), audit.violations


def test_kill9_presumed_commit_coordinator_before_decision(tmp_path):
    """The presumed-commit danger window, live: the coordinator dies
    after forcing the membership record but before any decision.  Its
    recovery must abort *explicitly* (membership + no vote), never
    presume commit, and the cluster must agree."""
    from repro.live.dtlog import read_log_file

    config = ClusterConfig(
        spec_name="2pc-central",
        n_sites=3,
        data_dir=tmp_path / "pc-kill",
        presumption="commit",
    )
    harness = ClusterHarness(config)
    try:
        result = kill_coordinator_scenario(harness)
        assert set(result.final_outcomes.values()) == {"abort"}
        assert result.coordinator_boot == 2
    finally:
        harness.stop()
    bodies, _ = read_log_file(config.data_dir / "site-1.dtlog")
    kinds = [b["r"] for b in bodies if b["r"] != "boot"]
    # The membership record made it to disk before the kill; the
    # explicit abort followed on recovery.
    assert kinds[0] == "membership"
    assert ("decision", "abort") in [
        (b["r"], b.get("outcome")) for b in bodies
    ]
    trace_text = (config.data_dir / "site-1.trace.jsonl").read_text()
    assert "recovery.presumed" in trace_text
    audit = audit_data_dir(config.data_dir)
    assert audit.ok(), audit.violations
