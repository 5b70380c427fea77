"""The five workloads, and why each exists.

Four *throughput* workloads serve a fixed number of transactions per
repeat on a fresh 3-site cluster; ``kill_coordinator_3pc`` loses its
coordinator to ``kill -9`` in the middle of one commit, once per trial.
Message delay is zero and fsync hits the page cache, so latency here is
CPU time plus the sandbox's fsync, not a network's or a device's.
"""

from __future__ import annotations

import dataclasses
from typing import Optional


@dataclasses.dataclass(frozen=True)
class Workload:
    """One load shape on a 3-site cluster.

    The suite runs :data:`REPEATS` load repeats of ``txns`` transactions
    each (the open loop: ``txns / open_rate`` seconds of arrivals), or
    ``kill_trials`` coordinator kills.  ``frames`` / ``forced`` /
    ``skipped`` are the exact per-transaction counters a load window
    must show (protocol frames, forced and presumption-skipped DT-log
    writes, cluster-wide).
    """

    name: str
    why: str
    spec_name: str
    codec: str
    presumption: str
    clients: int
    rotate_gateways: bool
    frames: int
    forced: int
    skipped: int
    txns: int = 0
    kill_trials: int = 0
    open_rate: Optional[float] = None
    vote3: str = "yes"
    outcome: str = "commit"
    #: What both survivors must decide for the transaction whose
    #: coordinator was killed: 3PC terminates to commit from the
    #: prepared state; 2PC's restarted coordinator (or, under presumed
    #: abort, the no-voter) resolves it to abort.
    kill_outcome: str = "abort"


#: Load repeats per throughput workload in the suite, each on a fresh
#: cluster; with 1000 transactions each, p99 has 10 samples beyond it.
REPEATS = 5

WORKLOADS = (
    Workload(
        name="serial_2pc_json",
        why="closed loop, 1 client, 2PC/json: latency-bound, batch size 1, "
        "so group commit and coalescing must show no effect and per-hop, "
        "flush and JSON cost show fully",
        spec_name="2pc-central",
        codec="json",
        presumption="none",
        clients=1,
        rotate_gateways=False,
        frames=6,
        forced=6,
        skipped=0,
        txns=1000,
    ),
    Workload(
        name="pipelined_3pc_bin",
        why="closed loop, 4 clients over 3 gateways, 3PC/bin: CPU-bound with "
        "batching engaged; where engine/node churn, wire_bin, coalescing "
        "and trace emission pay off",
        spec_name="3pc-central",
        codec="bin",
        presumption="none",
        clients=4,
        rotate_gateways=True,
        frames=10,
        forced=6,
        skipped=0,
        txns=1000,
        kill_outcome="commit",
    ),
    Workload(
        name="open_2pc_bin_r200",
        why="open loop, seeded Poisson 200 txns/s over 4 connections, timed "
        "from due time: a CPU saving shows in the tail here before any p50 moves",
        spec_name="2pc-central",
        codec="bin",
        presumption="none",
        clients=4,
        rotate_gateways=True,
        frames=6,
        forced=6,
        skipped=0,
        txns=1200,
        open_rate=200.0,
    ),
    Workload(
        name="abort_pa_2pc_json",
        why="closed loop, 4 clients, presumed abort, site 3 votes no: 1 forced "
        "+ 4 skipped writes per txn, so a dtlog force-path change must not "
        "move it and a tax on lazy appends shows here",
        spec_name="2pc-central",
        codec="json",
        presumption="abort",
        clients=4,
        rotate_gateways=True,
        frames=6,
        forced=1,
        skipped=4,
        txns=1000,
        vote3="no",
        outcome="abort",
    ),
    Workload(
        name="kill_coordinator_3pc",
        why="coordinator paused after its 2nd prepare and kill -9-ed, 3PC/bin: "
        "the paper's headline as a number — how long until the survivors "
        "decide alone; steady-state optimisations must leave it alone",
        spec_name="3pc-central",
        codec="bin",
        presumption="none",
        clients=4,
        rotate_gateways=True,
        frames=10,
        forced=6,
        skipped=0,
        kill_trials=8,
        kill_outcome="commit",
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
