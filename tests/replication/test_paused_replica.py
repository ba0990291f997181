"""A paused hot replica's outcome depends only on the log it was fed.

A hold-mode replica (the pair's hot backup, every voting follower)
pauses when the delivered log runs dry.  Whatever extra chances it is
given to run while nothing new has arrived must not change what it
computes: the same certificates, votes, console and final state as a
run that was fed each batch once — and, for the pair, the same result
as a cold backup that replays the whole log at failover.
"""

import pytest

from repro.env.environment import Environment
from repro.fleet import Fleet, TrafficSpec
from repro.fleet.traffic import generate
from repro.minijava import compile_program
from repro.replication.config import ReplicationConfig
from repro.replication.core import Replayer
from repro.runtime.digest import LOCKSTEP_COMPONENTS, compute_state_digest
from repro.replication.machine import ReplicatedJVM
from repro.replication.voting import VotingGroup

#: Two workers contend on one monitor; main sleeps while they run,
#: then parks in a timed wait that their notifyAll (or its timeout)
#: ends.  Each thread's counters and the console are the same under
#: every interleaving, so any divergence is the replica's fault.
PROGRAM = """
class Worker extends Thread {
    static Object lock = new Object();
    static int done;
    static int acc;
    int id;
    Worker(int id) { this.id = id; }
    void run() {
        for (int i = 0; i < 120; i++) {
            synchronized (lock) { acc = acc + id; }
        }
        synchronized (lock) { done = done + 1; lock.notifyAll(); }
    }
}
class Main {
    static void main(String[] args) {
        Worker a = new Worker(1); Worker b = new Worker(10);
        a.start(); b.start();
        Thread.sleep(2);
        System.println("awake");
        synchronized (Worker.lock) { Worker.lock.timedWait(1); }
        a.join(); b.join();
        System.println("done=" + Worker.done + " acc=" + Worker.acc);
    }
}
"""

CONSOLE = "awake\ndone=2 acc=1320\n"


@pytest.fixture(scope="module")
def registry():
    return compile_program(PROGRAM)


# ======================================================================
# Voting followers
# ======================================================================
def _voting_run(registry, *, feeds: int):
    env = Environment()
    group = VotingGroup(registry, env=env, config=ReplicationConfig(
        voting=True, strategy="thread_sched", batch_records=1,
        digest_interval=2,
    ))
    feed = group._feed_followers

    def feed_repeatedly() -> None:
        for _ in range(feeds):
            feed()

    group._feed_followers = feed_repeatedly
    result = group.run("Main")
    assert result.outcome == "completed"
    certificates = [cert for era in range(result.final_era + 1)
                    for cert in group.tally.certified(era)]
    finals = {
        index: compute_state_digest(follower.jvm, include_env=False)
        .fingerprint(LOCKSTEP_COMPONENTS)
        for index, follower in group._followers.items()
    }
    return (certificates, result.metrics.votes_cast,
            env.console.transcript(), finals)


def test_voting_followers_ignore_extra_feeds(registry):
    once = _voting_run(registry, feeds=1)
    twice = _voting_run(registry, feeds=2)
    certificates, votes_cast, console, finals = once
    assert certificates and votes_cast > 0
    assert console == CONSOLE
    assert len(finals) == 2
    assert twice == once


# ======================================================================
# The pair's hot backup
# ======================================================================
def _failover(registry, strategy: str, crash_at: int, *, hot: bool):
    env = Environment()
    machine = ReplicatedJVM(registry, env=env, config=ReplicationConfig(
        strategy=strategy, crash_at=crash_at, hot_backup=hot,
    ))
    result = machine.run("Main")
    assert result.failed_over and result.final_result.ok
    return (env.snapshot_stable(),
            compute_state_digest(machine.backup_jvm, env).components)


@pytest.mark.parametrize("strategy", ["lock_sync", "thread_sched"])
def test_hot_backup_matches_cold_backup(registry, strategy):
    probe = ReplicatedJVM(registry, env=Environment(),
                          config=ReplicationConfig(strategy=strategy))
    probe.run("Main")
    events = probe.shipper.injector.events
    for crash_at in sorted({1, events // 3, 2 * events // 3, events - 1}):
        cold = _failover(registry, strategy, crash_at, hot=False)
        hot = _failover(registry, strategy, crash_at, hot=True)
        assert cold[0]["console"] == CONSOLE, crash_at
        assert hot == cold, crash_at


# ======================================================================
# When a held replica runs
# ======================================================================
def test_fresh_replica_runs_on_its_first_pump_then_waits_for_log():
    """A held replica booted over an empty log runs the single-thread
    prefix up to its first logged native on the first pump; further
    pumps that bring nothing leave it where it paused."""
    registry = compile_program("""
        class Main {
            static void main(String[] args) {
                int acc = 0;
                for (int i = 0; i < 50; i++) { acc = acc + i; }
                System.println("acc=" + acc);
            }
        }
    """)
    host = ReplicatedJVM(registry, env=Environment())
    replica = Replayer(host, host._identity(1), role="backup", hold=True,
                       boot=("Main", None))
    assert not replica.paused
    assert replica.pump([]) is False
    jvm = replica.jvm
    assert replica.paused and replica.result is None
    assert jvm.instructions > 100
    before = (jvm.scheduler.slices, jvm.instructions)
    assert replica.pump([]) is False
    assert (jvm.scheduler.slices, jvm.instructions) == before
    replica.release()
    assert not replica.paused


# ======================================================================
# What a drained follower costs
# ======================================================================
@pytest.fixture(scope="module")
def serving_group():
    """A 1-shard voting fleet after 200 requests, still serving."""
    traffic = TrafficSpec(qps=400.0, n_requests=200, n_clients=4,
                          keyspace=32, seed=20030622)
    fleet = Fleet(1, config=ReplicationConfig(voting=True,
                                              strategy="thread_sched"))
    fleet.start()
    group = fleet.groups[0]
    for request in generate(traffic):
        fleet.submit(request.text)
        group.pump()
    return group


def test_followers_run_no_more_slices_than_the_proposer(serving_group):
    proposer = serving_group.active_jvm.scheduler.slices
    followers = serving_group._followers.values()
    assert len(followers) == 2
    for follower in followers:
        assert follower.jvm.scheduler.slices <= proposer


def test_empty_pump_leaves_a_paused_follower_untouched(serving_group):
    delivered = serving_group._active.channel.delivered
    for follower in serving_group._followers.values():
        assert follower.result is None and follower.fed == len(delivered)
        jvm = follower.jvm
        before = (jvm.scheduler.slices, jvm.instructions)
        assert follower.pump(delivered) is False
        assert (jvm.scheduler.slices, jvm.instructions) == before
        assert follower.paused


def test_follower_ballot_dedup_is_bounded_by_live_threads(serving_group):
    live = len(serving_group.active_jvm.scheduler.live_application_threads())
    for follower in serving_group._followers.values():
        assert 0 < len(follower.voted_seqs) <= live
    # Every response was balloted on once by each of the three members
    # and certified.
    certificates = serving_group.tally.certified(serving_group._epoch)
    assert len(certificates) == 200
    assert serving_group.metrics.votes_cast == 3 * len(certificates)
