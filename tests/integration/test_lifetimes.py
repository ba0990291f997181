"""Object lifetimes: a dropped replica is freed by reference counting.

With the cyclic collector switched off, each kind of replica set is
built, run, closed (where the kind has a ``close``) and dropped several
times over.  Every JVM, heap, interpreter and transport an iteration
created must be dead before any ``gc.collect()``, nothing cyclic may be
left behind, and traced memory must not grow from one iteration to the
next.  A part that points back at its owner, or a ``close`` that
forgets a replica, shows up here as a survivor.
"""

import gc
import tracemalloc
import weakref

import pytest

from repro.env.environment import Environment
from repro.fleet import Fleet, TrafficSpec
from repro.minijava import compile_program
from repro.replication.checkpoint import take_checkpoint
from repro.replication.config import ReplicationConfig
from repro.replication.machine import ReplicatedJVM, run_unreplicated
from repro.replication.supervisor import ReplicaGroup
from repro.replication.transport import SocketTransport, Transport
from repro.replication.voting import VotingGroup
from repro.runtime.heap import Heap
from repro.runtime.interpreter import Interpreter
from repro.runtime.jvm import JVM

ITERATIONS = 4
#: What the later iterations may add to traced memory, as a share of
#: one iteration's peak: CPython's free lists and the codec's bounded
#: int memos fill up over the first runs, and a leaked replica set
#: would hold far more.
FLAT_SHARE = 0.25

MULTI = compile_program("""
    class W extends Thread {
        static Object lock = new Object();
        static int shared;
        void run() {
            for (int i = 0; i < 60; i++) {
                synchronized (lock) { shared = shared + 1; }
            }
        }
    }
    class Main {
        static void main(String[] args) {
            W a = new W(); W b = new W();
            a.start(); b.start(); a.join(); b.join();
            System.println(W.shared);
        }
    }
""")

#: Parks at its request wait while holding a monitor, so a snapshot of
#: it restores a thread that owns a lock: a live run's state.
LOCKED_SERVER = compile_program("""
    class Main {
        static Object lock = new Object();
        static void main(String[] args) {
            boolean run = true;
            while (run) {
                synchronized (lock) {
                    String req = Server.recv("req");
                    if (req.startsWith("stop")) {
                        run = false;
                    } else {
                        Server.reply(req, "ok:" + req.length());
                    }
                }
            }
        }
    }
""")


def _bare():
    result, jvm = run_unreplicated(MULTI, "Main", env=Environment())
    assert result.ok


def _pair():
    pair = ReplicatedJVM(MULTI, env=Environment(),
                         config=ReplicationConfig(crash_at=30))
    assert pair.run("Main").failed_over
    pair.close()


def _group():
    group = ReplicaGroup(MULTI, env=Environment(), config=ReplicationConfig(
        crash_schedule={0: 30}, checkpoint_interval=3))
    group.run("Main")
    assert group.failures_survived == 1
    group.close()


def _voting():
    group = VotingGroup(MULTI, env=Environment(), config=ReplicationConfig(
        voting=True, n_members=3, strategy="thread_sched"))
    group.run("Main")
    group.close()


def _fleet(**config):
    def kind():
        fleet = Fleet(2, config=ReplicationConfig(**config),
                      crash_schedule_for=lambda s: {0: 60} if s else None)
        metrics = fleet.serve(TrafficSpec(n_requests=40, seed=3))
        assert metrics.exactly_once and metrics.failovers_absorbed == 1
    return kind


@pytest.fixture(scope="module")
def parked_group():
    group = ReplicaGroup(LOCKED_SERVER, env=Environment())
    group.start_serving("Main", port="req")
    group.serve("1 get 1")
    ep = group._active
    checkpoint = take_checkpoint(ep.jvm, ep.se_manager, generation=0)
    yield group, checkpoint
    group.close()


def _lives(kind):
    """Run ``kind`` with the collector off; returns weak references to
    everything it built that must die, and whether each socket
    transport it built was closed."""
    refs, sockets = [], {}
    patched = []
    for cls in (JVM, Heap, Interpreter, Transport):
        def tracked(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            refs.append(weakref.ref(self))
            if isinstance(self, SocketTransport):
                sockets[id(self)] = False
        patched.append((cls, cls.__init__))
        cls.__init__ = tracked

    def close(self, _close=SocketTransport.close):
        sockets[id(self)] = True
        _close(self)
    patched.append((SocketTransport, SocketTransport.close))
    SocketTransport.close = close
    try:
        kind()
    finally:
        for cls, original in reversed(patched):
            setattr(cls, original.__name__, original)
    return refs, sockets


def _check_lifetimes(kind):
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        traced, peaks = [], []
        for _ in range(ITERATIONS):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            refs, sockets = _lives(kind)
            assert refs
            alive = [type(ref()).__name__ for ref in refs
                     if ref() is not None]
            assert alive == [], f"not freed by refcount: {alive}"
            assert all(sockets.values()), "a socket transport left open"
            now, peak = tracemalloc.get_traced_memory()
            traced.append(now)
            peaks.append(peak - before)
        growth = traced[-1] - traced[0]
        assert growth < FLAT_SHARE * min(peaks), (traced, peaks)
        assert gc.collect() == 0
    finally:
        tracemalloc.stop()
        gc.enable()


@pytest.mark.parametrize("kind", [_bare, _pair, _group, _voting,
                                  _fleet(checkpoint_interval=4)],
                         ids=["bare", "pair", "group", "voting", "fleet"])
def test_a_dropped_replica_is_freed_by_refcount(kind):
    _check_lifetimes(kind)


def test_a_verify_restore_frees_its_scratch_machine(parked_group):
    group, checkpoint = parked_group
    assert checkpoint.state().threads     # a live, lock-holding thread
    _check_lifetimes(lambda: group._verify_restore(checkpoint))


@pytest.mark.socket
def test_a_stopped_socket_fleet_frees_its_replicas_and_sockets():
    _check_lifetimes(_fleet(checkpoint_interval=4, transport="socket"))
