"""Presumed abort / presumed commit and the read-only one-phase exit.

Covers the whole sim-side stack of the optimization: spec building
(read-only slave FSAs, validation), the engine's force matrix (which
records each presumption fsyncs), the membership record's log
invariants, recovery's presumption-aware resolution paths, and config
validation at the live layer.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import (
    InstantiationError,
    InvalidProtocolError,
    LiveConfigError,
    WALError,
)
from repro.analysis.conformance import audit_run
from repro.fsa.messages import EXTERNAL, Msg
from repro.live.node import LiveConfig
from repro.protocols import catalog
from repro.runtime.engine import Engine
from repro.runtime.harness import CommitRun
from repro.runtime.log import DTLog, MembershipRecord
from repro.runtime.policies import FixedVotes, UnanimousYes
from repro.types import Outcome, SiteId, Vote

S1, S2, S3, S4 = SiteId(1), SiteId(2), SiteId(3), SiteId(4)


# ---------------------------------------------------------------------------
# Spec building
# ---------------------------------------------------------------------------


class TestReadOnlySpecs:
    @pytest.mark.parametrize("name", catalog.RO_CAPABLE)
    def test_read_only_sites_collected(self, name):
        spec = catalog.build(name, 4, ro_sites=(3,))
        assert spec.read_only_sites == frozenset({S3})
        automaton = spec.automaton(S3)
        assert automaton.read_only_states == frozenset({"r"})
        assert not automaton.commit_states and not automaton.abort_states

    @pytest.mark.parametrize("name", catalog.RO_CAPABLE)
    def test_read_only_slave_reports_ro_and_exits(self, name):
        spec = catalog.build(name, 4, ro_sites=(3,))
        automaton = spec.automaton(S3)
        (transition,) = automaton.transitions
        assert transition.vote is Vote.READ_ONLY
        assert [m.kind for m in transition.writes] == ["ro"]
        assert transition.target in automaton.read_only_states

    def test_voting_spec_has_no_read_only_sites(self):
        spec = catalog.build("3pc-central", 4)
        assert spec.read_only_sites == frozenset()

    def test_coordinator_cannot_be_read_only(self):
        with pytest.raises(InstantiationError):
            catalog.build("2pc-central", 3, ro_sites=(1,))

    def test_unknown_site_cannot_be_read_only(self):
        with pytest.raises(InstantiationError):
            catalog.build("2pc-central", 3, ro_sites=(9,))

    def test_at_least_one_voting_slave_required(self):
        with pytest.raises(InstantiationError):
            catalog.build("2pc-central", 3, ro_sites=(2, 3))

    @pytest.mark.parametrize(
        "name", sorted(set(catalog.protocol_names()) - set(catalog.RO_CAPABLE))
    )
    def test_unsupported_protocols_reject_ro_sites(self, name):
        with pytest.raises(InvalidProtocolError):
            catalog.build(name, 3, ro_sites=(2,))


# ---------------------------------------------------------------------------
# Engine force matrix
# ---------------------------------------------------------------------------


class RecordingLog(DTLog):
    """A DT log that remembers each record's forced flag."""

    def __init__(self):
        super().__init__()
        self.forced: list[tuple[str, bool]] = []

    def write_vote(self, vote, at, forced=True):
        super().write_vote(vote, at)
        self.forced.append(("vote", forced))

    def write_decision(self, outcome, at, via, forced=True):
        before = len(self)
        super().write_decision(outcome, at, via=via)
        if len(self) > before:
            self.forced.append(("decision", forced))

    def write_membership(self, members, at):
        super().write_membership(members, at)
        self.forced.append(("membership", True))


def drive(site, spec, presumption, membership=(), vote=Vote.YES):
    """Run one site's engine to completion against scripted peers."""
    log = RecordingLog()
    automaton = spec.automaton(site)
    engine = Engine(
        automaton=automaton,
        vote_policy=FixedVotes({site: vote}),
        log=log,
        send=lambda msg: None,
        now=lambda: 0.0,
        on_final=lambda outcome, via: None,
        on_trace=lambda category, detail, **data: None,
        presumption=presumption,
        membership=membership,
    )
    return engine, log


class TestForceMatrix:
    def _run_coordinator(self, presumption, votes):
        spec = catalog.build("2pc-central", 3)
        engine, log = drive(
            S1, spec, presumption, membership=(S2, S3)
        )
        engine.receive(Msg("request", EXTERNAL, S1))
        for site, vote in votes.items():
            engine.receive(Msg(vote, site, S1))
        assert engine.finished
        return log

    def _run_slave(self, presumption, vote, outcome):
        spec = catalog.build("2pc-central", 3)
        engine, log = drive(S2, spec, presumption, vote=vote)
        engine.receive(Msg("xact", S1, S2))
        if not engine.finished:
            engine.receive(Msg(outcome.value, S1, S2))
        assert engine.finished
        return log

    def test_none_forces_everything(self):
        log = self._run_coordinator("none", {S2: "yes", S3: "yes"})
        assert log.forced == [("vote", True), ("decision", True)]
        log = self._run_slave("none", Vote.NO, Outcome.ABORT)
        assert log.forced == [("vote", True), ("decision", True)]

    def test_presumed_abort_skips_abort_side_forces(self):
        # A no vote and the abort decision are both lazily logged: the
        # presumption re-derives them from the records' absence.
        log = self._run_slave("abort", Vote.NO, Outcome.ABORT)
        assert log.forced == [("vote", False), ("decision", False)]
        log = self._run_coordinator("abort", {S2: "yes", S3: "no"})
        assert ("decision", False) in log.forced

    def test_presumed_abort_keeps_yes_vote_forced(self):
        log = self._run_slave("abort", Vote.YES, Outcome.COMMIT)
        assert log.forced == [("vote", True), ("decision", False)]

    def test_presumed_commit_keeps_no_vote_forced(self):
        # A lost no vote would be mis-presumed as commit.
        log = self._run_slave("commit", Vote.NO, Outcome.ABORT)
        assert log.forced == [("vote", True), ("decision", False)]

    def test_coordinator_commit_always_forced(self):
        for presumption in ("none", "abort", "commit"):
            log = self._run_coordinator(presumption, {S2: "yes", S3: "yes"})
            assert ("decision", True) in log.forced

    def test_presumed_commit_membership_precedes_everything(self):
        log = self._run_coordinator("commit", {S2: "yes", S3: "yes"})
        assert log.forced[0] == ("membership", True)
        record = log.membership()
        assert record is not None and record.members == (S2, S3)

    def test_no_membership_without_presumed_commit(self):
        for presumption in ("none", "abort"):
            log = self._run_coordinator(presumption, {S2: "yes", S3: "yes"})
            assert log.membership() is None

    def test_participants_never_write_membership(self):
        log = self._run_slave("commit", Vote.YES, Outcome.COMMIT)
        assert log.membership() is None

    def test_read_only_exit_writes_nothing(self):
        spec = catalog.build("2pc-central", 4, ro_sites=(3,))
        for presumption in ("none", "abort", "commit"):
            engine, log = drive(S3, spec, presumption, vote=Vote.READ_ONLY)
            engine.receive(Msg("xact", S1, S3))
            assert engine.finished
            assert engine.outcome is Outcome.UNDECIDED
            assert len(log) == 0


# ---------------------------------------------------------------------------
# Membership record log invariants
# ---------------------------------------------------------------------------


class TestMembershipLogInvariants:
    def test_round_trips_through_replay(self):
        log = DTLog()
        log.write_membership((S2, S3), 0.5)
        log.write_vote(Vote.YES, 1.0)
        log.write_decision(Outcome.COMMIT, 2.0, via="protocol")
        reborn = DTLog.replay(log.records)
        assert reborn.records == log.records
        assert reborn.membership() == MembershipRecord(members=(S2, S3), at=0.5)

    def test_second_membership_rejected(self):
        log = DTLog()
        log.write_membership((S2,), 0.5)
        with pytest.raises(WALError):
            log.write_membership((S2,), 1.0)

    def test_membership_after_decision_rejected(self):
        log = DTLog()
        log.write_decision(Outcome.ABORT, 1.0, via="protocol")
        with pytest.raises(WALError):
            log.write_membership((S2,), 2.0)


# ---------------------------------------------------------------------------
# Recovery under a presumption
# ---------------------------------------------------------------------------


class TestPresumptionRecovery:
    def test_membership_without_vote_aborts_explicitly(self):
        # Presumed commit: the coordinator dies after forcing the
        # membership record but before deciding.  Its recovery must
        # abort the transaction *explicitly* — the commit presumption
        # only covers transactions with no record at all.
        from repro.workload.crashes import CrashAt

        spec = catalog.build("2pc-central", 3)
        run = CommitRun(
            spec,
            crashes=[CrashAt(site=S1, at=0.5, restart_at=30.0)],
            presumption="commit",
        ).execute()
        assert run.trace.count("recovery.presumed") == 1
        assert set(run.outcomes().values()) == {Outcome.ABORT}
        assert audit_run(run, spec) == []

    def test_membership_with_yes_vote_stays_in_doubt(self):
        # 3PC: a coordinator that crashed after prepare holds both the
        # membership record and a forced yes vote; survivors may commit
        # via termination, so recovery must query, never presume abort.
        from repro.workload.crashes import CrashAt

        spec = catalog.build("3pc-central", 3)
        run = CommitRun(
            spec,
            crashes=[CrashAt(site=S1, at=3.0, restart_at=30.0)],
            presumption="commit",
        ).execute()
        assert run.trace.count("recovery.presumed") == 0
        assert run.atomic
        assert audit_run(run, spec) == []

    @pytest.mark.parametrize("presumption", ["none", "abort", "commit"])
    def test_read_only_crash_recovers_trivially(self, presumption):
        from repro.workload.crashes import CrashAt

        # Crash after the ro reply left (xact arrives at 1.0): voters
        # proceed without the read-only site, which recovers with an
        # empty log and nothing to resolve.
        spec = catalog.build("3pc-central", 4, ro_sites=(3,))
        run = CommitRun(
            spec,
            crashes=[CrashAt(site=S3, at=1.5, restart_at=30.0)],
            presumption=presumption,
        ).execute()
        assert run.trace.count("recovery.read_only") == 1
        voters = {s: o for s, o in run.outcomes().items() if s != S3}
        assert set(voters.values()) == {Outcome.COMMIT}
        assert audit_run(run, spec) == []


# ---------------------------------------------------------------------------
# Read-only one-phase exit, failure-free
# ---------------------------------------------------------------------------


class TestReadOnlyRuns:
    @pytest.mark.parametrize("name", catalog.RO_CAPABLE)
    @pytest.mark.parametrize("presumption", ["none", "abort", "commit"])
    def test_voters_commit_ro_site_exits(self, name, presumption):
        spec = catalog.build(name, 4, ro_sites=(4,))
        run = CommitRun(spec, presumption=presumption).execute()
        outcomes = run.outcomes()
        assert outcomes.pop(S4) is Outcome.UNDECIDED
        assert set(outcomes.values()) == {Outcome.COMMIT}
        assert run.reports[S4].read_only
        assert not run.reports[S4].blocked
        assert audit_run(run, spec) == []

    def test_no_vote_still_aborts_voters(self):
        spec = catalog.build("2pc-central", 4, ro_sites=(4,))
        run = CommitRun(
            spec, vote_policy=FixedVotes({S2: Vote.NO})
        ).execute()
        outcomes = run.outcomes()
        assert outcomes.pop(S4) is Outcome.UNDECIDED
        assert set(outcomes.values()) == {Outcome.ABORT}

    def test_ro_exit_trims_message_complexity(self):
        # 3PC with one read-only slave: the slave's five messages
        # (xact/yes/prepare/ack/commit) collapse to xact + ro.
        voting = CommitRun(catalog.build("3pc-central", 4)).execute()
        pruned = CommitRun(
            catalog.build("3pc-central", 4, ro_sites=(4,))
        ).execute()
        assert pruned.messages_sent == voting.messages_sent - 3


# ---------------------------------------------------------------------------
# Live config validation
# ---------------------------------------------------------------------------


class TestLiveConfigValidation:
    def _config(self, **overrides):
        base = dict(
            site=SiteId(1),
            spec_name="3pc-central",
            n_sites=3,
            port=19000,
            peers={S2: ("127.0.0.1", 19001), S3: ("127.0.0.1", 19002)},
            data_dir=Path("/tmp/x"),
        )
        base.update(overrides)
        return LiveConfig(**base)

    def test_defaults_are_valid(self):
        config = self._config()
        assert config.presumption == "none"
        assert config.loop == "asyncio"
        assert config.ro_sites == ()

    @pytest.mark.parametrize("presumption", ["abort", "commit"])
    def test_presumptions_accepted(self, presumption):
        assert self._config(presumption=presumption).presumption == presumption

    def test_unknown_presumption_rejected(self):
        with pytest.raises(LiveConfigError):
            self._config(presumption="maybe")

    def test_unknown_loop_rejected(self):
        with pytest.raises(LiveConfigError):
            self._config(loop="trio")

    def test_ro_sites_normalized(self):
        config = self._config(spec_name="2pc-central", ro_sites=(3,))
        assert config.ro_sites == (S3,)

    def test_ro_site_out_of_range_rejected(self):
        with pytest.raises(LiveConfigError):
            self._config(ro_sites=(9,))

    def test_trace_cap_must_be_positive(self):
        with pytest.raises(LiveConfigError):
            self._config(trace_max_entries=0)


class TestClusterConfigValidation:
    def _config(self, **overrides):
        from repro.live.cluster import ClusterConfig

        base = dict(spec_name="3pc-central", n_sites=3, data_dir=Path("/tmp/x"))
        base.update(overrides)
        return ClusterConfig(**base)

    def test_unknown_presumption_rejected(self):
        with pytest.raises(LiveConfigError):
            self._config(presumption="always")

    def test_unknown_loop_rejected(self):
        with pytest.raises(LiveConfigError):
            self._config(loop="twisted")

    def test_trace_cap_must_be_positive(self):
        with pytest.raises(LiveConfigError):
            self._config(trace_cap=0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"codec": "xml"},
            {"presumption": "always"},
            {"loop": "twisted"},
            {"ro_sites": (9,)},
            {"trace_cap": 0},
        ],
        ids=lambda bad: next(iter(bad)),
    )
    def test_every_bad_site_option_is_a_config_exit(self, bad):
        # One validator behind LiveConfig and ClusterConfig: the harness
        # refuses what a site would, and as EXIT_CONFIG (a bad codec
        # used to surface as ClusterError -> EXIT_TRANSPORT).
        from repro.errors import EXIT_CONFIG, exit_code

        with pytest.raises(LiveConfigError) as caught:
            self._config(**bad)
        assert exit_code(caught.value) == EXIT_CONFIG

    def test_soak_config_threads_validation(self):
        from repro.live.soak import SoakConfig, run_soak

        config = SoakConfig(data_dir=Path("/tmp/x"), presumption="bogus")
        with pytest.raises(LiveConfigError):
            run_soak(config)
