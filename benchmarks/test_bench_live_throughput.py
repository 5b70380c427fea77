"""Benchmark LIVE — multi-client throughput of the live TCP cluster.

Unlike the simulator benches (virtual time), this one spawns real
`repro serve` processes on loopback and measures what closed-loop
clients see across a concurrency sweep: N ∈ {1, 4, 16, 64} workers
each running one transaction at a time against round-robin gateways.

Three contrasts are priced here in wall-clock time:

* **2PC vs 3PC** — the paper's message-complexity gap: 3PC's extra
  prepare phase costs more frames per transaction and a longer
  critical path, the price of nonblocking termination.
* **serial vs concurrent** — the commit pipeline's amortization:
  Skeen's protocols impose no cross-transaction ordering, so
  concurrent transactions share DT-log fsyncs (group commit) and
  socket writes (frame coalescing).  The serial client pays every one
  of those costs alone; ``fsync_calls``
  dropping below ``forced_writes`` is the direct observable.
* **JSON vs binary wire codec** — the packed peer-link codec
  (``--codec bin``) cuts frame bytes ~3x and decode CPU ~2.5x for
  protocol traffic; on a single-core host, where every site process
  and the client share the CPU, serialization savings convert
  directly into throughput.
* **commit presumptions and the read-only exit** — presumed abort /
  presumed commit elide forced writes the presumption can re-derive,
  and a READ-ONLY participant leaves after phase 1 with zero log
  writes and no phase-2/3 frames.  The presumption sweep runs every
  presumption x codec x protocol at c16 over a read-only-heavy mix
  (one of the two slaves is read-only) and prices the elision in
  fsyncs/txn and frames/txn against the PR 8 baseline.

``baseline_pr7`` embeds the committed txns/s of the pre-codec report
and ``baseline_pr8`` the committed c16 numbers of the previous report
(every record forced, all sites voting), so the before/after
trajectory rides inside the regenerated sidecar.
"""

from __future__ import annotations

import pytest

from repro.experiments.base import ExperimentResult
from repro.live.cluster import ClusterConfig, ClusterHarness
from repro.metrics.tables import Table

pytestmark = pytest.mark.slow

PROTOCOLS = ("2pc-central", "3pc-central")
CODECS = ("json", "bin")

#: Closed-loop worker counts, and transactions measured at each.  More
#: txns at higher concurrency keeps per-point wall time comparable.
SWEEP = ((1, 120), (4, 240), (16, 480), (64, 640))

#: txns/s from the report committed before the binary codec and the
#: compiled FSA tables landed (PR 5/7 state: JSON frames, interpreted
#: transition lookup), measured on this same container class.  Kept in
#: the regenerated report so the before/after comparison is auditable
#: without digging through git history.
BASELINE_PR7 = {
    "2pc-central": {"c1": 127.43, "c4": 313.2, "c16": 450.46, "c64": 625.72},
    "3pc-central": {"c1": 88.57, "c4": 242.05, "c16": 434.61, "c64": 462.65},
}

#: The previous report's c16 points (PR 8 state: binary codec and
#: compiled tables in, but every vote/decision force-logged and every
#: slave voting).  The presumption sweep's fsyncs/txn and frames/txn
#: must land strictly below these.
BASELINE_PR8 = {
    "2pc-central": {
        "json": {"txns_per_sec": 572.96, "fsyncs_per_txn": 0.57,
                 "forced_writes_per_txn": 6.0, "proto_frames_per_txn": 6.0},
        "bin": {"txns_per_sec": 641.14, "fsyncs_per_txn": 0.59,
                "forced_writes_per_txn": 6.0, "proto_frames_per_txn": 6.0},
    },
    "3pc-central": {
        "json": {"txns_per_sec": 455.11, "fsyncs_per_txn": 0.81,
                 "forced_writes_per_txn": 6.0, "proto_frames_per_txn": 10.0},
        "bin": {"txns_per_sec": 539.12, "fsyncs_per_txn": 0.88,
                "forced_writes_per_txn": 6.0, "proto_frames_per_txn": 10.0},
    },
}

#: Commit presumptions priced by the read-only-mix sweep.
PRESUMPTIONS = ("none", "abort", "commit")

#: The read-only-heavy mix: one of the two slaves takes the one-phase
#: exit, so half the participant set never writes or receives a
#: phase-2/3 frame.
RO_SITES = (3,)

#: Concurrency and transaction count for each presumption point.
PRESUMPTION_POINT = (16, 240)


def run_live_bench(tmp_dir) -> ExperimentResult:
    reports: dict[str, dict] = {}
    for spec_name in PROTOCOLS:
        by_codec: dict[str, dict] = {}
        for codec in CODECS:
            config = ClusterConfig(
                spec_name=spec_name,
                n_sites=3,
                data_dir=tmp_dir / f"{spec_name}-{codec}",
                codec=codec,
            )
            with ClusterHarness(config) as harness:
                harness.start()
                # Warm the pipeline (connections, code paths, allocator)
                # before the measured points.
                harness.bench(64, concurrency=16, first_txn=1)
                next_txn = 1001
                points = {}
                for concurrency, n_txns in SWEEP:
                    points[f"c{concurrency}"] = harness.bench(
                        n_txns, concurrency=concurrency, first_txn=next_txn
                    )
                    next_txn += n_txns
                by_codec[codec] = points
        reports[spec_name] = by_codec

    # Presumption x codec x protocol at c16 over the read-only mix.
    concurrency, n_txns = PRESUMPTION_POINT
    presumption_reports: dict[str, dict] = {}
    for spec_name in PROTOCOLS:
        by_codec = {}
        for codec in CODECS:
            by_presumption = {}
            for presumption in PRESUMPTIONS:
                config = ClusterConfig(
                    spec_name=spec_name,
                    n_sites=3,
                    data_dir=tmp_dir / f"{spec_name}-{codec}-{presumption}",
                    codec=codec,
                    presumption=presumption,
                    ro_sites=RO_SITES,
                )
                with ClusterHarness(config) as harness:
                    harness.start()
                    harness.bench(32, concurrency=8, first_txn=1)
                    by_presumption[presumption] = harness.bench(
                        n_txns, concurrency=concurrency, first_txn=101
                    )
            by_codec[codec] = by_presumption
        presumption_reports[spec_name] = by_codec

    table = Table(
        [
            "protocol",
            "codec",
            "conc",
            "txns/s",
            "p50 ms",
            "p99 ms",
            "fsyncs/txn",
            "writes/txn",
            "frames/write",
        ],
        title="live loopback cluster, 3 sites, closed-loop concurrency sweep",
    )
    for spec_name, by_codec in reports.items():
        for codec, points in by_codec.items():
            for conc, _ in SWEEP:
                report = points[f"c{conc}"]
                table.add_row(
                    spec_name,
                    codec,
                    conc,
                    report["txns_per_sec"],
                    report["latency_ms"]["p50"],
                    report["latency_ms"]["p99"],
                    report["fsyncs_per_txn"],
                    report["forced_writes_per_txn"],
                    report["frames_per_socket_write"],
                )

    ro_table = Table(
        [
            "protocol",
            "codec",
            "presumption",
            "txns/s",
            "p99 ms",
            "fsyncs/txn",
            "writes/txn",
            "skipped/txn",
            "frames/txn",
        ],
        title=(
            f"read-only mix (slave {RO_SITES[0]} takes the one-phase "
            f"exit), c{concurrency}, presumption sweep"
        ),
    )
    for spec_name, by_codec in presumption_reports.items():
        for codec, by_presumption in by_codec.items():
            for presumption in PRESUMPTIONS:
                report = by_presumption[presumption]
                ro_table.add_row(
                    spec_name,
                    codec,
                    presumption,
                    report["txns_per_sec"],
                    report["latency_ms"]["p99"],
                    report["fsyncs_per_txn"],
                    report["forced_writes_per_txn"],
                    round(report["forced_writes_skipped"] / report["txns"], 2),
                    report["proto_frames_per_txn"],
                )

    for spec_name, by_codec in reports.items():
        for codec, points in by_codec.items():
            points["speedup_c16_over_c1"] = round(
                points["c16"]["txns_per_sec"] / points["c1"]["txns_per_sec"], 2
            )
        by_codec["bin_vs_baseline_pr7_c16"] = round(
            by_codec["bin"]["c16"]["txns_per_sec"]
            / BASELINE_PR7[spec_name]["c16"],
            2,
        )
    reports["baseline_pr7"] = BASELINE_PR7
    reports["baseline_pr8"] = BASELINE_PR8
    reports["presumption_sweep"] = presumption_reports
    return ExperimentResult(
        experiment_id="LIVE",
        title="live cluster throughput under client concurrency (wall clock)",
        tables=[table, ro_table],
        data=reports,
        notes=[
            "closed loop: N workers, one in-flight txn each, gateways "
            "round-robin across the 3 sites; latencies are "
            "client-observed begin->decision over real TCP",
            "every vote/decision is force-logged before it is acted on; "
            "under concurrency the group-commit flusher batches forced "
            "records into shared fsyncs (fsyncs/txn < writes/txn) and "
            "the transport coalesces frames per socket write",
            "the serial (c1) row quiesces the cluster between every "
            "transaction, so it pays each fsync and syscall "
            "alone — that fixed cost is exactly what the concurrent "
            "pipeline amortizes",
            "codec json/bin selects the peer-link wire format (client "
            "traffic stays JSON); baseline_pr7 holds the committed "
            "txns/s before the binary codec, compiled FSA tables, "
            "TCP_NODELAY, and the fast trace serializer landed",
            "this container pins all site processes and the client to "
            "one CPU core with a ~0.1ms fsync, so the sweep measures "
            "batching efficiency, not parallel CPU; absolute numbers "
            "vary with the host and run (the shared core makes "
            "run-to-run variance substantial)",
            "the presumption sweep runs a read-only-heavy mix (slave 3 "
            "takes the one-phase exit: zero DT-log writes, pruned from "
            "phase-2/3 fan-out, so 2PC moves 5 frames/txn and 3PC 7 "
            "instead of 6 and 10); presumed abort lazily logs "
            "abort-side records, presumed commit adds a forced "
            "membership record but lets participants log decisions "
            "lazily — baseline_pr8 holds the previous report's c16 "
            "numbers with every record forced and every slave voting",
        ],
    )


def test_bench_live_throughput(benchmark, record_report, tmp_path):
    result = benchmark.pedantic(run_live_bench, args=(tmp_path,), rounds=1, iterations=1)
    record_report(result)
    data = result.data

    for spec_name in PROTOCOLS:
        for codec in CODECS:
            points = data[spec_name][codec]
            for concurrency, n_txns in SWEEP:
                report = points[f"c{concurrency}"]
                assert report["txns"] == n_txns
                assert report["concurrency"] == concurrency
                assert report["codec"] == codec
                assert report["txns_per_sec"] > 0
                assert 0 < report["latency_ms"]["p50"] <= report["latency_ms"]["p99"]
                # Latency decomposes into the pipeline's three stages, and
                # each reply's elapsed_ms is exactly its stage sum, so the
                # stage means must add up to the measured latency mean.
                breakdown = report["latency_breakdown"]
                assert set(breakdown) == {"queue_ms", "resolve_ms", "durable_ms"}
                mean = report["latency_ms"]["mean"]
                stage_sum = sum(stats["mean"] for stats in breakdown.values())
                assert stage_sum == pytest.approx(mean, abs=max(0.5, 0.05 * mean))
                # Every site forces its vote/decision records: at least two
                # writes per site per committed txn land in the DT logs.
                assert report["forced_writes_per_txn"] >= 2
            # Group commit under load: strictly fewer fsyncs than forced
            # records, and a concurrent pipeline that outruns the serial one.
            assert points["c16"]["fsync_calls"] < points["c16"]["forced_writes"]
            assert points["c16"]["txns_per_sec"] > points["c1"]["txns_per_sec"]
            assert points["c16"]["frames_per_socket_write"] > 1.0

        # The message-complexity contrast (paper table 2): 3PC's prepare
        # phase costs strictly more protocol messages per transaction.
        assert (
            data["3pc-central"]["json"]["c1"]["proto_frames_per_txn"]
            > data["2pc-central"]["json"]["c1"]["proto_frames_per_txn"]
        )
        # Codec invariant: frame *counts* are protocol properties, not
        # codec properties — both codecs move the same frames.
        for spec_name in PROTOCOLS:
            assert data[spec_name]["bin"]["c1"]["proto_frames_per_txn"] == (
                data[spec_name]["json"]["c1"]["proto_frames_per_txn"]
            )

    # The presumption sweep: for every protocol and codec, the
    # read-only mix must beat the PR 8 all-voting baseline on both
    # forced-write and frame volume, for every presumption.
    ro_frames = {"2pc-central": 5.0, "3pc-central": 7.0}
    for spec_name in PROTOCOLS:
        for codec in CODECS:
            baseline = BASELINE_PR8[spec_name][codec]
            points = data["presumption_sweep"][spec_name][codec]
            for presumption in PRESUMPTIONS:
                report = points[presumption]
                assert report["txns"] == PRESUMPTION_POINT[1]
                assert report["presumption"] == presumption
                assert report["ro_sites"] == [3]
                # Frame pruning is deterministic: the read-only slave
                # exchanges xact + ro only.
                assert report["proto_frames_per_txn"] == ro_frames[spec_name]
                assert (
                    report["proto_frames_per_txn"]
                    < baseline["proto_frames_per_txn"]
                )
                assert report["fsyncs_per_txn"] < baseline["fsyncs_per_txn"]
                assert (
                    report["forced_writes_per_txn"]
                    < baseline["forced_writes_per_txn"]
                )
            # Forcing elision only happens under a presumption.
            # Presumed abort forces strictly less than forcing all;
            # presumed commit trades the participants' lazy decisions
            # for one membership force, a wash at one voting slave (it
            # wins at larger participant counts) but never worse.
            assert points["none"]["forced_writes_skipped"] == 0
            for presumption in ("abort", "commit"):
                assert points[presumption]["forced_writes_skipped"] > 0
            assert (
                points["abort"]["forced_writes_per_txn"]
                < points["none"]["forced_writes_per_txn"]
            )
            assert (
                points["commit"]["forced_writes_per_txn"]
                <= points["none"]["forced_writes_per_txn"]
            )
