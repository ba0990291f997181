"""The resumable serving lifecycle and the config-object constructors.

``run()`` is run-to-completion; serving turns the same machines into
request/response servers: the program parks at its ``Server.recv``
safe-point event whenever the request port is empty, and
``serve(request)`` delivers one request, pumps to the next quiescent
point, and returns the output-committed response.  A primary crash
mid-pump is absorbed in place — replay, uncertain-tail resolution,
request-port reconciliation — and serving resumes on the promoted
backup with every response committed exactly once.
"""

import warnings

import pytest

from repro.env.environment import Environment
from repro.errors import ReplicationError
from repro.minijava import compile_program
from repro.replication.config import (
    DEFAULT_BACKUP,
    DEFAULT_PRIMARY,
    ReplicationConfig,
)
from repro.replication.machine import ReplicatedJVM
from repro.replication.supervisor import ReplicaGroup
from repro.replication.voting import VotingGroup

ECHO_SERVER = """
class Main {
    static void main(String[] args) {
        boolean run = true;
        int served = 0;
        while (run) {
            String req = Server.recv("req");
            if (req.startsWith("stop")) {
                run = false;
            } else {
                Server.reply(req, "ok:" + req.length());
                served = served + 1;
            }
        }
        System.println("served " + served);
    }
}
"""


@pytest.fixture(scope="module")
def registry():
    return compile_program(ECHO_SERVER)


# ======================================================================
# ReplicatedJVM: single-failover serving
# ======================================================================
def test_machine_serves_and_completes(registry):
    env = Environment()
    machine = ReplicatedJVM(registry, env=env, config=ReplicationConfig())
    machine.start_serving("Main", port="req")
    assert machine.serving
    for i in range(8):
        assert machine.serve(f"r{i} get {i}") == f"ok:{len(f'r{i} get {i}')}"
    result = machine.stop_serving("stop now")
    assert result.outcome == "primary_completed"
    assert env.responses.count() == 8
    assert env.responses.duplicates == 0
    assert "served 8" in env.console.transcript()


def test_machine_serving_metrics_count_requests(registry):
    machine = ReplicatedJVM(registry, env=Environment(),
                            config=ReplicationConfig())
    machine.start_serving("Main", port="req")
    for i in range(5):
        machine.serve(f"r{i} get {i}")
    machine.stop_serving("stop now")
    metrics = machine.primary_metrics
    assert metrics.requests_ingested == 6      # 5 requests + the stop
    assert metrics.responses_committed == 5    # the stop is not replied


def test_machine_failover_mid_serve_is_exactly_once(registry):
    env = Environment()
    machine = ReplicatedJVM(registry, env=env,
                            config=ReplicationConfig(crash_at=6))
    machine.start_serving("Main", port="req")
    responses = [machine.serve(f"r{i:02d} get {i}") for i in range(12)]
    assert all(r is not None for r in responses)
    result = machine.stop_serving("stop now")
    assert result.failed_over
    assert result.outcome == "failover_completed"
    assert env.responses.count() == 12
    assert env.responses.duplicates == 0
    assert "served 12" in env.console.transcript()


def test_machine_serve_requires_start(registry):
    machine = ReplicatedJVM(registry, env=Environment(),
                            config=ReplicationConfig())
    with pytest.raises(ReplicationError):
        machine.serve("r0 get 0")


# ======================================================================
# ReplicaGroup: serving across repeated failovers
# ======================================================================
def test_group_serves_through_chained_failovers(registry):
    env = Environment()
    group = ReplicaGroup(registry, env=env, config=ReplicationConfig(
        crash_schedule={0: 20, 1: 30, 2: 55}, max_failures=8,
    ))
    group.start_serving("Main", port="req")
    for i in range(30):
        assert group.serve(f"r{i:03d} get {i}") is not None
    result = group.stop_serving("stop now")
    assert result.failures_survived == 3
    assert [r.outcome for r in result.generations][-1] == "completed"
    assert env.responses.count() == 30
    assert env.responses.duplicates == 0
    assert "served 30" in env.console.transcript()


def test_group_requeues_unanswered_requests_on_failover(registry):
    """Requests consumed from the port but not yet answered when the
    primary dies are requeued during reconciliation, never dropped."""
    env = Environment()
    group = ReplicaGroup(registry, env=env, config=ReplicationConfig(
        crash_schedule={0: 25},
    ))
    group.start_serving("Main", port="req")
    for i in range(20):
        assert group.serve(f"r{i:03d} get {i}") is not None
    group.stop_serving("stop now")
    requeued = sum(
        r.recovery_metrics.requests_requeued
        for r in group.reports if r.recovery_metrics is not None
    )
    assert group.failures_survived == 1
    assert requeued >= 0          # reconciliation ran (counter exists)
    assert env.responses.count() == 20
    assert env.responses.duplicates == 0


# ======================================================================
# ReplicationConfig: the one way to configure
# ======================================================================
def test_config_merged_overrides_only_named_fields():
    base = ReplicationConfig(strategy="thread_sched", batch_records=7)
    derived = base.merged(crash_at=3)
    assert derived.strategy == "thread_sched"
    assert derived.batch_records == 7
    assert derived.crash_at == 3
    assert base.crash_at is None


def test_config_merged_rejects_unknown_fields():
    with pytest.raises(TypeError):
        ReplicationConfig().merged(bogus=1)


def test_unknown_keyword_raises_type_error(registry):
    """There is one way to configure: options travel in a
    ReplicationConfig, never as constructor keywords."""
    for cls in (ReplicatedJVM, ReplicaGroup, VotingGroup):
        with pytest.raises(TypeError):
            cls(registry, env=Environment(), strategy="thread_sched")


def test_config_object_constructors_do_not_warn(registry):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        ReplicatedJVM(registry, env=Environment(),
                      config=ReplicationConfig(strategy="lock_sync"))
        ReplicaGroup(registry, env=Environment(),
                     config=ReplicationConfig())


def test_default_replica_settings_are_distinct():
    assert DEFAULT_PRIMARY.scheduler_seed != DEFAULT_BACKUP.scheduler_seed
