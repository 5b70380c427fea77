"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro.cli list                 # catalog + experiment ids
    python -m repro.cli show 3pc-central 3   # render a protocol's FSAs
    python -m repro.cli analyze 2pc-central 3
    python -m repro.cli experiment T1        # regenerate one artifact
    python -m repro.cli experiment all
    python -m repro.cli run 3pc-central 4 --crash 1@2.0 --no-vote 3
    python -m repro.cli run 3pc-central 4 --crash 1@2.0 --trace-out t.jsonl
    python -m repro.cli trace t.jsonl --category net. --site 2
    python -m repro.cli trace t.jsonl --span 12   # one send->deliver span
    python -m repro.cli stats t.jsonl             # phase/decision rollup
    python -m repro.cli experiment all --workers 4
    python -m repro.cli sweep Q1 Q2 --workers 4 --cache-dir .sweep-cache
    python -m repro.cli explore --protocol 3pc-central --sites 3 \
        --budget 2000 --seed 7 --workers 4 --artifacts-dir out/
    python -m repro.cli replay out/abc123def456.json

The ``sweep`` report on stdout is deterministic: ``--workers N`` is
byte-identical to ``--workers 1`` (timings go to stderr).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis import check_nonblocking, check_synchronicity
from repro.experiments import EXPERIMENTS, run_experiment
from repro.fsa.render import format_spec
from repro.protocols import catalog
from repro.runtime import CommitRun
from repro.runtime.policies import FixedVotes
from repro.runtime.termination import TERMINATION_MODES
from repro.types import SiteId, Vote
from repro.workload.crashes import CrashAt


def _cmd_list(_args: argparse.Namespace) -> int:
    print("protocols:")
    for name in catalog.protocol_names():
        print(f"  {name}")
    print("experiments:")
    for experiment_id in EXPERIMENTS:
        print(f"  {experiment_id}")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    spec = catalog.build(args.protocol, args.n_sites)
    print(format_spec(spec))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    spec = catalog.build(args.protocol, args.n_sites)
    report = check_nonblocking(spec)
    sync = check_synchronicity(spec)
    print(report.describe())
    print(
        "synchronous within one transition: "
        f"{'YES' if sync.synchronous_within_one else 'NO'} "
        f"(max lead {sync.max_lead})"
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    ids = list(EXPERIMENTS) if args.experiment_id.lower() == "all" else [
        args.experiment_id
    ]
    if args.workers > 1 and len(ids) > 1:
        # Fan whole experiments across worker processes; output stays
        # in the ids' order (and byte-identical to the serial loop).
        from repro.parallel import SweepRunner, SweepTask

        runner = SweepRunner(workers=args.workers)
        result = runner.run([SweepTask.make(experiment_id) for experiment_id in ids])
        renders = {
            outcome.task.experiment_id: outcome.payload["render"]
            for outcome in result.outcomes
        }
        for experiment_id in ids:
            print(renders[experiment_id.upper()])
            print()
        return 0
    for experiment_id in ids:
        print(run_experiment(experiment_id).render())
        print()
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.parallel import SweepCache, SweepRunner, plan_sweep

    tasks = plan_sweep(args.experiment_ids)
    cache = SweepCache(args.cache_dir) if args.cache_dir else None
    runner = SweepRunner(
        workers=args.workers, cache=cache, task_timeout=args.task_timeout
    )
    result = runner.run(tasks)
    print(result.report)
    if args.trace_out:
        count = result.merged.trace.save(args.trace_out)
        print(f"wrote {count} merged trace entries to {args.trace_out}")
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            handle.write(result.merged.registry.to_json() + "\n")
        print(f"wrote merged metrics to {args.metrics_out}")
    if args.json_out:
        with open(args.json_out, "w") as handle:
            handle.write(result.merged.sidecar_json() + "\n")
        print(f"wrote sweep sidecar to {args.json_out}")
    cached = sum(1 for outcome in result.outcomes if outcome.cached)
    print(
        f"sweep: {len(result.outcomes)} tasks ({cached} cached), "
        f"workers={result.workers}, wall={result.wall_clock_s:.2f}s",
        file=sys.stderr,
    )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.metrics import summarize_runs
    from repro.workload.generator import WorkloadGenerator
    from repro.workload.serialize import campaign_from_json, campaign_to_json

    spec = catalog.build(args.protocol, args.n_sites)
    generator = WorkloadGenerator(
        spec,
        seed=args.seed,
        p_no=args.p_no,
        p_crash=args.p_crash,
    )

    if args.replay is not None:
        with open(args.replay) as handle:
            transactions = campaign_from_json(handle.read())
        print(f"replaying {len(transactions)} transactions from {args.replay}")
    else:
        transactions = list(generator.transactions(args.count))

    if args.save is not None:
        with open(args.save, "w") as handle:
            handle.write(campaign_to_json(transactions))
        print(f"saved campaign to {args.save}")

    results = [generator.run(txn) for txn in transactions]
    summary = summarize_runs(results)
    print(
        summary.to_table(
            f"campaign: {spec.name}, {len(results)} transactions"
        ).render()
    )
    if summary.violations:
        print("ATOMICITY VIOLATIONS DETECTED — replay with --save to report")
        return 1
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    import os

    from repro.explore import (
        ExploreConfig,
        merge_explore_payloads,
        plan_tasks,
        render_explore_report,
    )
    from repro.parallel import SweepCache, SweepRunner

    config = ExploreConfig(
        protocol=args.protocol,
        n_sites=args.n_sites,
        seed=args.seed,
        budget=args.budget,
        depth=args.depth,
        max_branch=args.max_branch,
        crash_budget=args.crashes,
        partitions=args.partitions,
        mutant=args.mutant,
        termination_mode=args.termination,
        mode=args.mode,
        shards=args.shards,
    )
    cache = SweepCache(args.cache_dir) if args.cache_dir else None
    runner = SweepRunner(
        workers=args.workers, cache=cache, task_timeout=args.task_timeout
    )
    result = runner.run(plan_tasks(config))
    combined = merge_explore_payloads(
        [outcome.payload for outcome in result.outcomes]
    )
    # Canonical report only on stdout: byte-identical for any --workers.
    print(render_explore_report(combined), end="")
    if args.json_out:
        import json as _json

        with open(args.json_out, "w") as handle:
            handle.write(
                _json.dumps(combined, indent=2, sort_keys=True) + "\n"
            )
        print(f"wrote exploration document to {args.json_out}", file=sys.stderr)
    if args.artifacts_dir and combined["violations"]:
        os.makedirs(args.artifacts_dir, exist_ok=True)
        for violation in combined["violations"]:
            path = os.path.join(
                args.artifacts_dir, f"{violation['shrunk_hash']}.json"
            )
            with open(path, "w") as handle:
                handle.write(violation["artifact"])
            print(f"wrote replay artifact {path}", file=sys.stderr)
    cached = sum(1 for outcome in result.outcomes if outcome.cached)
    print(
        f"explore: {combined['schedules']} schedules in "
        f"{len(result.outcomes)} shard tasks ({cached} cached), "
        f"workers={result.workers}, wall={result.wall_clock_s:.2f}s",
        file=sys.stderr,
    )
    from repro.errors import EXIT_OK, EXIT_VIOLATION

    return EXIT_VIOLATION if combined["verdict"] == "violation" else EXIT_OK


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.errors import EXIT_OK, EXIT_VIOLATION, ReplayDivergenceError
    from repro.explore import Explorer, ReplayArtifact, replay

    explorers: dict = {}
    failures = 0
    for path in args.files:
        artifact = ReplayArtifact.load(path)
        explorer = explorers.get(artifact.config)
        if explorer is None:
            explorer = explorers[artifact.config] = Explorer(artifact.config)
        try:
            outcome = replay(artifact, explorer=explorer)
        except ReplayDivergenceError as error:
            failures += 1
            print(f"{path}: DIVERGED — {error}")
            continue
        print(f"{path}: {outcome.describe()}")
        for problem in outcome.problems:
            print(f"  {problem}")
        if args.verbose:
            for violation in outcome.outcome.violations:
                print(f"  {violation.describe()}")
        if not outcome.ok:
            failures += 1
    if failures:
        print(f"{failures}/{len(args.files)} replays failed")
        return EXIT_VIOLATION
    print(f"{len(args.files)} replay(s) ok")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Live cluster runtime (serve / cluster / txn)
# ---------------------------------------------------------------------------


def _parse_peers(text: str) -> dict:
    """Parse ``ID=HOST:PORT,ID=HOST:PORT,...`` into a peer map."""
    from repro.errors import LiveConfigError

    peers = {}
    for part in filter(None, text.split(",")):
        try:
            peer, _, address = part.partition("=")
            host, _, port = address.rpartition(":")
            peers[SiteId(int(peer))] = (host, int(port))
        except ValueError as error:
            raise LiveConfigError(
                f"bad peer spec {part!r} (want ID=HOST:PORT): {error}"
            ) from error
    return peers


def _parse_ro(text: str) -> tuple:
    """Parse ``ID,ID,...`` into a tuple of read-only site ids."""
    from repro.errors import LiveConfigError

    try:
        return tuple(SiteId(int(part)) for part in filter(None, text.split(",")))
    except ValueError as error:
        raise LiveConfigError(
            f"bad read-only site list {text!r} (want ID,ID,...): {error}"
        ) from error


def _cmd_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.errors import exit_code
    from repro.live.node import LiveConfig, parse_pause_after
    from repro.live.server import serve

    try:
        config = LiveConfig(
            site=SiteId(args.site),
            spec_name=args.spec,
            n_sites=args.n_sites,
            host=args.host,
            port=args.port,
            peers=_parse_peers(args.peers),
            data_dir=Path(args.data_dir),
            hb_interval=args.hb_interval,
            suspect_after=args.suspect_after,
            requery_interval=args.requery_interval,
            termination_mode=args.termination,
            vote=args.vote,
            max_inflight=args.max_inflight,
            pause_after=(
                parse_pause_after(args.pause_after) if args.pause_after else None
            ),
            chaos=Path(args.chaos) if args.chaos else None,
            codec=args.codec,
            presumption=args.presumption,
            ro_sites=_parse_ro(args.ro),
            loop=args.loop,
            trace_max_entries=args.trace_cap,
        )
    except Exception as error:  # noqa: BLE001 - CLI boundary
        print(f"repro serve: {error}", file=sys.stderr)
        return exit_code(error)
    return serve(config)


def _cmd_cluster(args: argparse.Namespace) -> int:
    import json
    import tempfile
    from pathlib import Path

    from repro.errors import EXIT_OK, exit_code
    from repro.live.cluster import (
        ClusterConfig,
        ClusterHarness,
        gray_failure_scenario,
        kill_coordinator_scenario,
    )

    data_dir = Path(
        args.data_dir if args.data_dir else tempfile.mkdtemp(prefix="repro-cluster-")
    )
    try:
        # Built inside the guard: config mistakes (bad presumption,
        # loop, or read-only site list) exit EXIT_CONFIG, not a trace.
        config = ClusterConfig(
            spec_name=args.spec,
            n_sites=args.n_sites,
            data_dir=data_dir,
            hb_interval=args.hb_interval,
            suspect_after=args.suspect_after,
            requery_interval=args.requery_interval,
            termination_mode=args.termination,
            decide_timeout=args.timeout,
            ready_timeout=args.timeout,
            max_inflight=args.max_inflight,
            codec=args.codec,
            presumption=args.presumption,
            ro_sites=_parse_ro(args.ro),
            loop=args.loop,
            trace_cap=args.trace_cap,
        )
        with ClusterHarness(config) as harness:
            if args.scenario == "gray-failure":
                result = gray_failure_scenario(
                    harness, seed=args.chaos_seed
                ).to_dict()
                chaos_policy = harness.config.chaos
            elif args.scenario:
                result = kill_coordinator_scenario(harness).to_dict()
            else:
                harness.start()
                result = harness.bench(args.bench, concurrency=args.concurrency)
        if args.scenario == "gray-failure" and args.emit_artifact:
            # Round-trip the live counterexample into the explorer's
            # replay corpus: same split decision, microsecond replay.
            from repro.explore.chaos_bridge import gray_counterexample

            artifact = gray_counterexample(chaos_policy)
            artifact.save(args.emit_artifact)
            result["artifact"] = args.emit_artifact
            print(
                f"wrote replay artifact to {args.emit_artifact}",
                file=sys.stderr,
            )
    except Exception as error:  # noqa: BLE001 - CLI boundary
        print(f"repro cluster: {type(error).__name__}: {error}", file=sys.stderr)
        print(f"site logs are under {data_dir}", file=sys.stderr)
        return exit_code(error)
    document = json.dumps(result, indent=2, sort_keys=True)
    print(document)
    if args.json_out:
        Path(args.json_out).write_text(document + "\n")
        print(f"wrote report to {args.json_out}", file=sys.stderr)
    print(f"site logs are under {data_dir}", file=sys.stderr)
    return EXIT_OK


def _cmd_soak(args: argparse.Namespace) -> int:
    import json
    import tempfile
    from pathlib import Path

    from repro.errors import EXIT_OK, EXIT_VIOLATION, exit_code
    from repro.live.soak import SoakConfig, run_soak

    data_dir = Path(
        args.data_dir if args.data_dir else tempfile.mkdtemp(prefix="repro-soak-")
    )
    try:
        config = SoakConfig(
            data_dir=data_dir,
            spec_name=args.spec,
            n_sites=args.n_sites,
            txns=args.txns,
            batch=args.batch,
            concurrency=args.concurrency,
            profile=args.profile,
            seed=args.seed,
            hb_interval=args.hb_interval,
            suspect_after=args.suspect_after,
            requery_interval=args.requery_interval,
            timeout=args.timeout,
            fsync_delay_ms=args.fsync_delay_ms,
            codec=args.codec,
            presumption=args.presumption,
            ro_sites=_parse_ro(args.ro),
            loop=args.loop,
            trace_cap=args.trace_cap,
        )
        result = run_soak(config)
    except Exception as error:  # noqa: BLE001 - CLI boundary
        print(f"repro soak: {type(error).__name__}: {error}", file=sys.stderr)
        print(f"site logs are under {data_dir}", file=sys.stderr)
        return exit_code(error)
    document = json.dumps(result.to_dict(), indent=2, sort_keys=True)
    print(document)
    if args.json_out:
        Path(args.json_out).write_text(document + "\n")
        print(f"wrote soak report to {args.json_out}", file=sys.stderr)
    print(f"site logs are under {data_dir}", file=sys.stderr)
    if not result.ok:
        for violation in result.violations:
            print(f"VIOLATION: {violation}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_txn(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.errors import EXIT_OK, EXIT_VIOLATION, exit_code
    from repro.live import client

    try:
        if args.status:
            reply = asyncio.run(
                client.query_status(args.host, args.port, args.txn, timeout=args.timeout)
            )
        elif args.metrics:
            reply = asyncio.run(
                client.query_metrics(args.host, args.port, timeout=args.timeout)
            )
        elif args.shutdown:
            asyncio.run(client.shutdown_site(args.host, args.port, timeout=args.timeout))
            print(f"site at {args.host}:{args.port} shutting down")
            return EXIT_OK
        else:
            reply = asyncio.run(
                client.begin_txn(
                    args.host,
                    args.port,
                    args.txn,
                    wait=not args.no_wait,
                    timeout=args.timeout,
                )
            )
    except Exception as error:  # noqa: BLE001 - CLI boundary
        print(f"repro txn: {type(error).__name__}: {error}", file=sys.stderr)
        return exit_code(error)
    print(json.dumps(reply, indent=2, sort_keys=True))
    if reply.get("t") == "decided" and reply.get("outcome") == "abort":
        return EXIT_VIOLATION
    return EXIT_OK


def _parse_crash(text: str) -> CrashAt:
    """Parse ``SITE@TIME[@RESTART]`` into a :class:`CrashAt`."""
    parts = text.split("@")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"crash spec {text!r} must look like SITE@TIME or SITE@TIME@RESTART"
        )
    site = SiteId(int(parts[0]))
    at = float(parts[1])
    restart = float(parts[2]) if len(parts) == 3 else None
    return CrashAt(site=site, at=at, restart_at=restart)


def _cmd_run(args: argparse.Namespace) -> int:
    spec = catalog.build(args.protocol, args.n_sites)
    votes = {SiteId(site): Vote.NO for site in args.no_vote}
    run = CommitRun(
        spec,
        seed=args.seed,
        vote_policy=FixedVotes(votes),
        crashes=args.crash,
        termination_mode=args.termination,
    ).execute()
    if args.trace_out:
        count = run.trace.save(args.trace_out)
        print(f"wrote {count} trace entries to {args.trace_out}")
    if args.trace:
        print(run.trace.format_timeline())
        print()
    if args.swimlanes:
        from repro.viz import render_run

        print(render_run(run))
        print()
    if args.audit:
        from repro.analysis.conformance import audit_run

        findings = audit_run(run, spec)
        if findings:
            print("CONFORMANCE FINDINGS:")
            for finding in findings:
                print(f"  {finding}")
            return 1
        print("conformance audit: clean")
    print(f"protocol : {run.protocol}")
    print(f"duration : {run.duration:g}")
    print(f"messages : {run.messages_sent}")
    print(f"atomic   : {'yes' if run.atomic else 'NO — VIOLATION'}")
    for site, report in sorted(run.reports.items()):
        status = report.outcome.value
        if report.blocked:
            status += " (BLOCKED)"
        via = f" via {report.via}" if report.via else ""
        down = "" if report.alive else " [down]"
        print(f"  site {site}: {status}{via}{down}")
    return 0 if run.atomic else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.sim.spans import SpanIndex
    from repro.sim.tracing import TraceLog

    trace = TraceLog.load(args.file)
    if args.span is not None:
        span = SpanIndex.from_trace(trace).span(args.span)
        if span is None:
            print(f"no message with id {args.span} in {args.file}")
            return 1
        print(span.describe())
        for entry in (span.send_entry, span.end_entry):
            if entry is not None:
                print(f"  {entry.format()}")
        return 0
    entries = trace.select(category=args.category, site=args.site)
    shown = entries if args.limit is None else entries[: args.limit]
    for entry in shown:
        print(entry.format())
    print(
        f"-- {len(shown)} shown / {len(entries)} matching / "
        f"{len(trace)} total entries"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.metrics.collector import StatSeries
    from repro.metrics.registry import MetricsRegistry, observe_trace
    from repro.metrics.tables import Table
    from repro.sim.spans import SpanIndex
    from repro.sim.tracing import TraceLog

    trace = TraceLog.load(args.file)
    registry = MetricsRegistry()
    observe_trace(registry, trace)
    index = SpanIndex.from_trace(trace)

    messages = Table(["metric", "value"], title=f"messages ({args.file})")
    messages.add_row("sent", registry.counter("messages_sent_total"))
    messages.add_row("delivered", registry.counter("messages_delivered_total"))
    messages.add_row("dropped", registry.counter("messages_dropped_total"))
    messages.add_row("in flight at end", len(index.inflight()))
    latencies = StatSeries(index.latencies())
    if len(latencies):
        messages.add_row("delivery latency p50", latencies.percentile(50))
        messages.add_row("delivery latency p99", latencies.percentile(99))
    print(messages.render())

    phase_series: dict[str, StatSeries] = {}
    for entry in trace.select(category="phase.exit"):
        phase = entry.data.get("phase")
        elapsed = entry.data.get("elapsed")
        if phase is None or elapsed is None:
            continue
        phase_series.setdefault(str(phase), StatSeries()).add(float(elapsed))
    phases = Table(
        ["phase", "n", "mean", "p50", "p90", "p99", "max"],
        title="phase latency (time spent per phase occupancy)",
    )
    for phase, series in sorted(phase_series.items()):
        phases.add_row(
            phase,
            len(series),
            series.mean,
            series.percentile(50),
            series.percentile(90),
            series.percentile(99),
            series.maximum,
        )
    print()
    print(phases.render())

    decisions = Table(
        ["site", "outcome", "via", "decided at"], title="decisions"
    )
    decision_times = StatSeries()
    outcomes: set[str] = set()
    for entry in trace.select(category="txn.decided"):
        outcome = str(entry.data.get("outcome", "?"))
        outcomes.add(outcome)
        decisions.add_row(
            entry.site if entry.site is not None else "-",
            outcome,
            entry.data.get("via", "?"),
            entry.time,
        )
        decision_times.add(entry.time)
    print()
    print(decisions.render())
    print()
    if outcomes:
        verdict = "/".join(sorted(outcomes))
        print(
            f"decision outcome : {verdict}"
            + ("  (MIXED — atomicity violation!)" if len(outcomes) > 1 else "")
        )
        print(
            "decision latency : "
            f"p50={decision_times.percentile(50):g} "
            f"p99={decision_times.percentile(99):g} "
            f"max={decision_times.maximum:g}"
        )
    else:
        print("decision outcome : none recorded (undecided or blocked)")
    blocked = registry.counter("blocked_sites_total")
    if blocked:
        print(f"blocking events  : {blocked}")
    return 0


def _cmd_stitch(args: argparse.Namespace) -> int:
    from repro.errors import EXIT_OK, EXIT_VIOLATION, exit_code
    from repro.live.files import atomic_write_json, atomic_write_text
    from repro.live.stitch import stitch_data_dir

    try:
        result = stitch_data_dir(args.data_dir, canonical=args.canonical)
    except Exception as error:  # noqa: BLE001 - CLI boundary
        print(f"repro stitch: {type(error).__name__}: {error}", file=sys.stderr)
        return exit_code(error)
    report = result.to_dict()
    if args.out:
        atomic_write_text(args.out, result.trace.to_jsonl())
        print(f"wrote {report['entries']} stitched entries to {args.out}")
    if args.json_out:
        atomic_write_json(args.json_out, report)
        print(f"wrote stitch report to {args.json_out}", file=sys.stderr)
    for site, stats in sorted(result.sites.items()):
        torn = (
            f", {stats['malformed']} torn line(s) skipped"
            if stats["malformed"]
            else ""
        )
        print(f"site {site}: {stats['entries']} entries{torn}")
    print(
        f"stitched {report['entries']} entries"
        f"{' (canonical)' if result.canonical else ''}: "
        f"{len(result.orphan_spans)} orphan span(s), "
        f"{len(result.orphan_parents)} orphan parent(s), "
        f"{result.inflight} in flight, "
        f"{result.cycles_broken} cycle(s) broken"
    )
    dirty = result.orphan_spans or result.orphan_parents or result.cycles_broken
    if args.strict and dirty:
        print("stitch: orphaned spans present (--strict)", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_audit(args: argparse.Namespace) -> int:
    import time

    from repro.errors import EXIT_OK, EXIT_VIOLATION, exit_code
    from repro.live.audit import audit_data_dir
    from repro.live.files import atomic_write_json

    deadline = time.monotonic() + args.watch if args.watch else None
    try:
        while True:
            report = audit_data_dir(
                args.data_dir, include_traces=not args.no_traces
            )
            if not report.ok():
                break  # Stop watching the moment an invariant breaks.
            if deadline is None or time.monotonic() >= deadline:
                break
            time.sleep(args.interval)
    except Exception as error:  # noqa: BLE001 - CLI boundary
        print(f"repro audit: {type(error).__name__}: {error}", file=sys.stderr)
        return exit_code(error)
    if args.json_out:
        atomic_write_json(args.json_out, report.to_dict())
        print(f"wrote audit report to {args.json_out}", file=sys.stderr)
    for note in report.notes:
        print(f"note: {note}")
    for violation in report.violations:
        print(f"VIOLATION: {violation}")
    verdict = "clean" if report.ok() else f"{len(report.violations)} VIOLATION(S)"
    print(
        f"audited {len(report.sites)} site log(s), {report.txns} txn(s), "
        f"{report.decisions} decision record(s): {verdict}"
    )
    return EXIT_OK if report.ok() else EXIT_VIOLATION


def _add_site_options(
    parser: argparse.ArgumentParser,
    hb_interval: float = 0.1,
    suspect_after: float = 0.6,
    requery_interval: float = 0.3,
    trace_cap: Optional[int] = None,
) -> None:
    """Declare the flags ``serve``, ``cluster`` and ``soak`` share.

    The defaults are the loopback-harness timing profile, which
    ``cluster`` and ``soak`` spawn their sites with; ``serve`` passes
    its own, slower, stand-alone profile and an explicit trace cap
    (``None`` leaves each spawned site on its own default).
    """
    parser.add_argument(
        "--hb-interval", type=float, default=hb_interval, dest="hb_interval"
    )
    parser.add_argument(
        "--suspect-after", type=float, default=suspect_after, dest="suspect_after"
    )
    parser.add_argument(
        "--requery-interval",
        type=float,
        default=requery_interval,
        dest="requery_interval",
    )
    parser.add_argument(
        "--codec",
        choices=("json", "bin"),
        default="json",
        help="wire codec for outgoing peer frames (negotiated per "
        "connection; json keeps tcpdump traffic readable)",
    )
    # No choices= on --presumption/--loop: unknown values must exit
    # EXIT_CONFIG via LiveConfigError, not argparse's usage error.
    parser.add_argument(
        "--presumption",
        default="none",
        help="commit presumption: none (force everything), abort "
        "(presumed abort), or commit (presumed commit)",
    )
    parser.add_argument(
        "--loop",
        default="asyncio",
        help="event loop implementation: asyncio or uvloop (if installed)",
    )
    parser.add_argument(
        "--ro",
        default="",
        metavar="ID,ID,...",
        help="site ids that participate read-only (one-phase exit)",
    )
    parser.add_argument(
        "--trace-cap",
        type=int,
        default=trace_cap,
        dest="trace_cap",
        metavar="N",
        help="cap on trace entries written per site (drops are counted "
        "and noted by the auditor)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Nonblocking commit protocols (Skeen, SIGMOD 1981)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list protocols and experiments").set_defaults(
        func=_cmd_list
    )

    show = sub.add_parser("show", help="render a protocol's automata")
    show.add_argument("protocol", choices=catalog.protocol_names())
    show.add_argument("n_sites", type=int)
    show.set_defaults(func=_cmd_show)

    analyze = sub.add_parser("analyze", help="run the nonblocking theorem")
    analyze.add_argument("protocol", choices=catalog.protocol_names())
    analyze.add_argument("n_sites", type=int)
    analyze.set_defaults(func=_cmd_analyze)

    experiment = sub.add_parser("experiment", help="regenerate a paper artifact")
    experiment.add_argument("experiment_id", help="F1..Q6 or 'all'")
    experiment.add_argument(
        "--workers",
        type=int,
        default=1,
        help="fan multiple experiments across worker processes",
    )
    experiment.set_defaults(func=_cmd_experiment)

    sweep = sub.add_parser(
        "sweep",
        help="run experiment sweeps across worker processes (see docs/PARALLEL.md)",
    )
    sweep.add_argument(
        "experiment_ids", nargs="+", metavar="EXPERIMENT", help="ids or 'all'"
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = serial reference path)",
    )
    sweep.add_argument(
        "--cache-dir",
        metavar="DIR",
        dest="cache_dir",
        help="artifact cache: completed tasks are skipped on re-sweeps",
    )
    sweep.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        dest="task_timeout",
        metavar="SECONDS",
        help="fail fast if a worker task hangs longer than this",
    )
    sweep.add_argument(
        "--trace-out",
        metavar="FILE",
        dest="trace_out",
        help="write the merged JSONL trace (disjoint msg_id spans)",
    )
    sweep.add_argument(
        "--metrics-out",
        metavar="FILE",
        dest="metrics_out",
        help="write the merged metrics registry as JSON",
    )
    sweep.add_argument(
        "--json",
        metavar="FILE",
        dest="json_out",
        help="write the machine-readable sweep sidecar",
    )
    sweep.set_defaults(func=_cmd_sweep)

    explore = sub.add_parser(
        "explore",
        help="systematically explore schedules and fault injections "
        "(see docs/EXPLORATION.md)",
    )
    explore.add_argument(
        "--protocol", required=True, choices=catalog.protocol_names()
    )
    explore.add_argument(
        "--sites", type=int, required=True, dest="n_sites", metavar="N"
    )
    explore.add_argument("--seed", type=int, default=0)
    explore.add_argument(
        "--budget",
        type=int,
        default=1000,
        help="maximum schedules to execute across all shards",
    )
    explore.add_argument(
        "--depth",
        type=int,
        default=40,
        help="leading decisions eligible for branching",
    )
    explore.add_argument(
        "--max-branch",
        type=int,
        default=3,
        dest="max_branch",
        help="arity cap on event-ordering choice points",
    )
    explore.add_argument(
        "--crashes",
        type=int,
        default=1,
        help="crash injections offered per schedule",
    )
    explore.add_argument(
        "--partitions",
        action="store_true",
        help="also offer a network-partition decision point",
    )
    explore.add_argument(
        "--mutant",
        default=None,
        help="execute a registered runtime mutant (self-test mode)",
    )
    explore.add_argument(
        "--mode",
        choices=("dfs", "random"),
        default="dfs",
        help="systematic bounded DFS or seeded-random schedules",
    )
    explore.add_argument(
        "--termination",
        choices=TERMINATION_MODES,
        default="standard",
        help="termination protocol variant",
    )
    explore.add_argument(
        "--shards",
        type=int,
        default=4,
        help="logical frontier shards (fixed by config, not workers)",
    )
    explore.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes; output is byte-identical for any value",
    )
    explore.add_argument(
        "--cache-dir",
        metavar="DIR",
        dest="cache_dir",
        help="sweep artifact cache for shard results",
    )
    explore.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        dest="task_timeout",
        metavar="SECONDS",
        help="fail fast if a shard task hangs longer than this",
    )
    explore.add_argument(
        "--artifacts-dir",
        metavar="DIR",
        dest="artifacts_dir",
        help="write one replay artifact per shrunk violation",
    )
    explore.add_argument(
        "--json",
        metavar="FILE",
        dest="json_out",
        help="write the machine-readable exploration document",
    )
    explore.set_defaults(func=_cmd_explore)

    replay = sub.add_parser(
        "replay", help="re-execute saved replay artifacts exactly"
    )
    replay.add_argument(
        "files", nargs="+", metavar="ARTIFACT", help="replay artifact JSON"
    )
    replay.add_argument(
        "--verbose",
        action="store_true",
        help="print every reproduced violation",
    )
    replay.set_defaults(func=_cmd_replay)

    campaign = sub.add_parser(
        "campaign", help="run a randomized failure-injection campaign"
    )
    campaign.add_argument("protocol", choices=catalog.protocol_names())
    campaign.add_argument("n_sites", type=int)
    campaign.add_argument("--count", type=int, default=50)
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument("--p-no", type=float, default=0.1, dest="p_no")
    campaign.add_argument("--p-crash", type=float, default=0.3, dest="p_crash")
    campaign.add_argument(
        "--save", metavar="FILE", help="write the campaign as JSON"
    )
    campaign.add_argument(
        "--replay", metavar="FILE", help="replay a saved campaign instead"
    )
    campaign.set_defaults(func=_cmd_campaign)

    run = sub.add_parser("run", help="simulate one transaction")
    run.add_argument("protocol", choices=catalog.protocol_names())
    run.add_argument("n_sites", type=int)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--crash",
        type=_parse_crash,
        action="append",
        default=[],
        metavar="SITE@TIME[@RESTART]",
        help="crash a site (repeatable)",
    )
    run.add_argument(
        "--no-vote",
        type=int,
        action="append",
        default=[],
        metavar="SITE",
        help="make a site vote no (repeatable)",
    )
    run.add_argument("--trace", action="store_true", help="print the timeline")
    run.add_argument(
        "--trace-out",
        metavar="FILE",
        dest="trace_out",
        help="dump the run's trace as JSONL for `trace` / `stats`",
    )
    run.add_argument(
        "--swimlanes",
        action="store_true",
        help="print per-site swimlanes of the run",
    )
    run.add_argument(
        "--termination",
        choices=TERMINATION_MODES,
        default="standard",
        help="termination protocol variant",
    )
    run.add_argument(
        "--audit",
        action="store_true",
        help="verify the execution against the formal model",
    )
    run.set_defaults(func=_cmd_run)

    trace = sub.add_parser("trace", help="inspect a saved JSONL trace")
    trace.add_argument("file", help="trace file written by run --trace-out")
    trace.add_argument(
        "--category",
        metavar="PREFIX",
        help="exact category, or a prefix ending in '.' (e.g. net.)",
    )
    trace.add_argument("--site", type=int, help="only this site's entries")
    trace.add_argument(
        "--span",
        type=int,
        metavar="MSGID",
        help="show one message's send->deliver span with latency",
    )
    trace.add_argument(
        "--limit", type=int, metavar="N", help="show at most N entries"
    )
    trace.set_defaults(func=_cmd_trace)

    stitch = sub.add_parser(
        "stitch",
        help="merge per-site live traces into one causal cluster trace",
    )
    stitch.add_argument(
        "data_dir", help="live data directory holding site-*.trace.jsonl"
    )
    stitch.add_argument(
        "--out",
        metavar="FILE",
        help="write the stitched JSONL trace (readable by repro trace/stats)",
    )
    stitch.add_argument(
        "--canonical",
        action="store_true",
        help="byte-stable output: strip volatile fields, remap span ids, "
        "keep only deterministic categories",
    )
    stitch.add_argument(
        "--json",
        metavar="FILE",
        dest="json_out",
        help="write the machine-readable stitch report",
    )
    stitch.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero on orphan spans/parents or causality cycles",
    )
    stitch.set_defaults(func=_cmd_stitch)

    audit = sub.add_parser(
        "audit",
        help="verify atomicity (AC1) and log-timeline invariants of a "
        "live cluster's durable state",
    )
    audit.add_argument(
        "data_dir", help="live data directory holding site-*.dtlog"
    )
    audit.add_argument(
        "--no-traces",
        action="store_true",
        dest="no_traces",
        help="skip the advisory trace cross-check (DT logs only)",
    )
    audit.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="re-audit continuously for this long (exits early on violation)",
    )
    audit.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="re-audit period in --watch mode",
    )
    audit.add_argument(
        "--json",
        metavar="FILE",
        dest="json_out",
        help="write the machine-readable audit report",
    )
    audit.set_defaults(func=_cmd_audit)

    stats = sub.add_parser("stats", help="summarize a saved JSONL trace")
    stats.add_argument("file", help="trace file written by run --trace-out")
    stats.set_defaults(func=_cmd_stats)

    serve = sub.add_parser(
        "serve", help="run one live commit site over TCP (spawned by `cluster`)"
    )
    serve.add_argument("--site", type=int, required=True)
    serve.add_argument(
        "--spec", required=True, choices=catalog.protocol_names()
    )
    serve.add_argument("--sites", type=int, required=True, dest="n_sites")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, required=True)
    serve.add_argument(
        "--peers",
        required=True,
        metavar="ID=HOST:PORT,...",
        help="addresses of every other site",
    )
    serve.add_argument("--data-dir", required=True, dest="data_dir")
    serve.add_argument(
        "--termination-mode",
        choices=TERMINATION_MODES,
        default="standard",
        dest="termination",
    )
    serve.add_argument("--vote", choices=("yes", "no"), default="yes")
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        dest="max_inflight",
        help="cap on concurrently hosted client transactions (backpressure)",
    )
    serve.add_argument(
        "--pause-after",
        metavar="KIND:N",
        dest="pause_after",
        help="freeze after the N-th protocol send of KIND (crash injection)",
    )
    serve.add_argument(
        "--chaos",
        metavar="FILE",
        help="chaos policy JSON (ChaosPolicy.save) shaping this site's "
        "inbound links, fsync latency, and clock skew",
    )
    _add_site_options(
        serve,
        hb_interval=0.25,
        suspect_after=1.5,
        requery_interval=1.0,
        trace_cap=200_000,
    )
    serve.set_defaults(func=_cmd_serve)

    cluster = sub.add_parser(
        "cluster", help="spawn a live loopback cluster and drive it"
    )
    cluster.add_argument(
        "--spec", default="3pc-central", choices=catalog.protocol_names()
    )
    cluster.add_argument("--sites", type=int, default=3, dest="n_sites")
    cluster.add_argument(
        "--data-dir",
        dest="data_dir",
        help="where site logs/traces go (default: a fresh temp dir)",
    )
    cluster.add_argument(
        "--scenario",
        choices=("kill-coordinator", "gray-failure"),
        help="run a failure scenario instead of a benchmark: kill -9 the "
        "coordinator, or a gray link that delivers heartbeats while "
        "dropping commit-phase frames (expects a split decision)",
    )
    cluster.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        dest="chaos_seed",
        help="seed for the gray-failure chaos policy",
    )
    cluster.add_argument(
        "--emit-artifact",
        metavar="FILE",
        dest="emit_artifact",
        help="after gray-failure, round-trip the split decision into an "
        "explorer replay artifact at FILE",
    )
    cluster.add_argument(
        "--bench",
        type=int,
        default=20,
        metavar="N",
        help="commit N transactions and report throughput/latency",
    )
    cluster.add_argument(
        "--concurrency",
        type=int,
        default=1,
        metavar="N",
        help="closed-loop benchmark clients driving the gateway (default 1)",
    )
    cluster.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        dest="max_inflight",
        help="per-site cap on concurrently hosted client transactions",
    )
    cluster.add_argument(
        "--json-out",
        metavar="FILE",
        dest="json_out",
        help="also write the JSON report to FILE",
    )
    cluster.add_argument(
        "--termination-mode",
        choices=TERMINATION_MODES,
        default="standard",
        dest="termination",
    )
    cluster.add_argument("--timeout", type=float, default=30.0)
    _add_site_options(cluster)
    cluster.set_defaults(func=_cmd_cluster)

    soak = sub.add_parser(
        "soak",
        help="sustained txn volume under chaos with continuous audits",
    )
    soak.add_argument(
        "--spec", default="3pc-central", choices=catalog.protocol_names()
    )
    soak.add_argument("--sites", type=int, default=3, dest="n_sites")
    soak.add_argument(
        "--data-dir",
        dest="data_dir",
        help="where site logs/traces go (default: a fresh temp dir)",
    )
    soak.add_argument(
        "--txns",
        type=int,
        default=200,
        help="total transactions to push through (default 200)",
    )
    soak.add_argument(
        "--batch",
        type=int,
        default=50,
        help="transactions per wave; the DT logs are audited between "
        "waves (default 50)",
    )
    soak.add_argument(
        "--concurrency",
        type=int,
        default=4,
        help="closed-loop clients per wave (default 4)",
    )
    soak.add_argument(
        "--profile",
        choices=("none", "wan", "disk", "combined"),
        default="combined",
        help="chaos profile: WAN latency, slow fsyncs, both, or neither",
    )
    soak.add_argument(
        "--seed", type=int, default=0, help="chaos seed (default 0)"
    )
    soak.add_argument(
        "--fsync-delay-ms",
        type=float,
        default=4.0,
        dest="fsync_delay_ms",
        help="injected fsync latency for disk profiles (default 4.0)",
    )
    soak.add_argument("--timeout", type=float, default=30.0)
    _add_site_options(soak)
    soak.add_argument(
        "--json-out",
        metavar="FILE",
        dest="json_out",
        help="also write the JSON soak report to FILE",
    )
    soak.set_defaults(func=_cmd_soak)

    txn = sub.add_parser("txn", help="talk to a running live site")
    txn.add_argument("--host", default="127.0.0.1")
    txn.add_argument("--port", type=int, required=True)
    txn.add_argument("--txn", type=int, default=1)
    txn.add_argument(
        "--status", action="store_true", help="query instead of begin"
    )
    txn.add_argument(
        "--metrics",
        action="store_true",
        help="print the site's live metrics snapshot instead of begin",
    )
    txn.add_argument(
        "--shutdown", action="store_true", help="ask the site to exit"
    )
    txn.add_argument(
        "--no-wait",
        action="store_true",
        dest="no_wait",
        help="do not wait for the gateway's decision",
    )
    txn.add_argument("--timeout", type=float, default=30.0)
    txn.set_defaults(func=_cmd_txn)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
