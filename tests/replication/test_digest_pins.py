"""The state digest walk, pinned over every token and component.

``compute_state_digest`` and ``IncrementalStateDigest`` are two entry
points to the one state walk every digest check relies on.  This file
pins their values at every slice end of one multi-threaded primary run
under ``thread_sched``, so a change to how the walk names references,
orders items or tokenizes values shows up as a changed sha256, and the
incremental digester must agree with the stateless walk at each of
those points.  The program is chosen so the pinned stream covers every
kind of item the walk emits; ``_Pins.seen`` checks that it still does.
"""

import hashlib

from repro.env.environment import Environment
from repro.minijava import compile_program
from repro.replication.config import ReplicationConfig
from repro.replication.core import PrimaryHooks
from repro.replication.digest import IncrementalStateDigest
from repro.replication.machine import ReplicatedJVM
from repro.runtime.digest import compute_state_digest
from repro.runtime.jvm import JVMConfig, RunHooks
from repro.runtime.values import JArray, JObject

PROGRAM = """
class Node {
    Node next;
    int v;
    float f;
    String s;
    boolean b;
}
class Registry {
    static int hits;
    static synchronized void hit() { Registry.hits = Registry.hits + 1; }
}
class Shared {
    int count;
    boolean go;
    synchronized void bump(int reps) {
        int i = 0;
        while (i < reps) { this.count = this.count + 1; i = i + 1; }
    }
    synchronized void await() {
        while (!this.go) { this.wait(); }
    }
    synchronized void release() {
        this.go = true;
        this.notifyAll();
    }
}
class Worker extends Thread {
    Shared shared;
    Node[] nodes;
    Worker(Shared s, Node[] n) { this.shared = s; this.nodes = n; }
    void run() {
        this.shared.await();
        int k = 0;
        while (k < 6) {
            this.shared.bump(40);
            synchronized (this.nodes) {
                int j = 0;
                while (j < 30) { j = j + 1; }
            }
            Registry.hit();
            Node n = this.nodes[k % 3];
            n.v = n.v + k;
            n.f = n.f + 0.5;
            k = k + 1;
        }
    }
}
class Crasher extends Thread {
    void run() { throw new RuntimeException("boom"); }
}
class Main {
    static Shared root;
    static float scale;
    static String label;
    static void main(String[] args) {
        Shared shared = new Shared();
        Main.root = shared;
        Main.scale = 2.5;
        Main.label = "pins";
        Node a = new Node();
        Node b = new Node();
        Node c = new Node();
        a.next = b; b.next = a; a.s = "a"; b.b = true; c.s = "tail";
        Node[] nodes = new Node[3];
        nodes[0] = a; nodes[1] = b; nodes[2] = c;
        Worker w1 = new Worker(shared, nodes);
        Worker w2 = new Worker(shared, nodes);
        Crasher x = new Crasher();
        w1.start(); w2.start(); x.start();
        int spin = 0;
        while (spin < 40) { spin = spin + 1; }
        shared.release();
        w1.join(); w2.join(); x.join();
        System.println("count=" + shared.count + " hits=" + Registry.hits);
    }
}
"""

#: Every kind of item the walk emits, as ``_Pins`` names them.
COVERAGE = {
    "statics", "thread object", "locals", "stack", "held monitor",
    "sync object", "entry queue", "wait set", "class lock", "uncaught",
    "pending exception", "int", "float", "str", "null", "bool",
    "reference array", "cycle",
}

SLICE_ENDS = 95
SLICES_SHA = (
    "47c2e17c1c3d5988e6ed19cb6671c8e08f03ae097441b533bfc64126183d9b56"
)
FINAL_DIGEST = {
    "heap": "9adba768db85bc172d7b35ce8e0f7ada",
    "frames": "00000000000000000000000000000000",
    "monitors": "47beccea2c585a1730b4a1ea9b5d3636",
    "sched": "483b8f8702f34c1f4e7e33ea5fcce8ff",
    "env": "725f2b08f9c32723c9ef45b237743d3e",
}


class _Pins(RunHooks):
    """Digests the primary at every slice end, both ways.

    Python ``bool`` values and a thread's pending exception never arise
    from MiniJava execution (booleans are ints; the interpreter never
    parks an exception), but both reach the walk through checkpoint
    restore.  They are planted once, in state the program never reads.
    """

    def __init__(self, inner):
        self._inner = inner
        self.stream = hashlib.sha256()
        self.digester = None
        self.slices = 0
        self.planted = False
        self.seen = set()

    def on_slice_end(self, jvm, thread, reason):
        self._plant(jvm)
        self._note_coverage(jvm)
        if self.digester is None:
            self.digester = IncrementalStateDigest(jvm)
        full = compute_state_digest(jvm)
        assert self.digester.compute() == full, self.slices
        self.stream.update(repr(full.components).encode())
        self.slices += 1
        self._inner.on_slice_end(jvm, thread, reason)

    def on_exit(self, jvm, result):
        self._inner.on_exit(jvm, result)

    def _plant(self, jvm):
        if self.planted:
            return
        tail = next((obj for obj in jvm.heap.objects
                     if isinstance(obj, JObject)
                     and obj.fields.get("s") == "tail"), None)
        if tail is None:
            return
        tail.fields["b"] = True
        tail.mut_era = jvm.heap.era
        main = jvm.scheduler.threads[0]
        main.pending_exception = jvm.heap.alloc_object("RuntimeException")
        self.planted = True

    def _note_coverage(self, jvm):
        seen = self.seen
        if jvm.statics:
            seen.add("statics")
        if jvm.uncaught:
            seen.add("uncaught")
        for thread in jvm.scheduler.threads:
            if thread.thread_object is not None:
                seen.add("thread object")
            if thread.pending_exception is not None:
                seen.add("pending exception")
            for frame in thread.frames:
                if frame.locals:
                    seen.add("locals")
                if frame.stack:
                    seen.add("stack")
                if frame.held_monitors:
                    seen.add("held monitor")
                if frame.sync_object is not None:
                    seen.add("sync object")
        for lock in jvm._class_locks.values():
            if lock.monitor is not None and lock.monitor.l_asn > 0:
                seen.add("class lock")
        for obj in jvm.heap.objects:
            monitor = obj.monitor
            if monitor is not None and monitor.entry_queue:
                seen.add("entry queue")
            if monitor is not None and monitor.wait_set:
                seen.add("wait set")
            if isinstance(obj, JArray):
                values = obj.data
                if obj.elem_type == "ref":
                    seen.add("reference array")
            else:
                values = obj.fields.values()
                if any(value is not obj and isinstance(value, JObject)
                       and value.fields.get("next") is obj
                       for value in values):
                    seen.add("cycle")
            for value in values:
                if value is None:
                    seen.add("null")
                elif type(value) in (int, float, str, bool):
                    seen.add(type(value).__name__)


def test_digest_walk_is_pinned_at_every_slice_end():
    env = Environment()
    machine = ReplicatedJVM(compile_program(PROGRAM), env=env, config=(
        ReplicationConfig(strategy="thread_sched", jvm_config=JVMConfig(
            quantum_base=20, quantum_jitter=8))))
    pins = []

    def hooks(channel, emitter):
        pins.append(_Pins(PrimaryHooks(channel, emitter)))
        return pins[-1]

    machine._hooks_type = hooks
    result = machine.run("Main")
    assert result.outcome == "primary_completed"
    assert env.console.transcript() == "count=480 hits=12\n"
    probe, = pins
    assert probe.seen == COVERAGE
    assert probe.digester.items_reused > 0
    assert (probe.slices, probe.stream.hexdigest()) == \
        (SLICE_ENDS, SLICES_SHA)

    jvm = machine.primary_jvm
    final = compute_state_digest(jvm, env)
    assert final.hex() == FINAL_DIGEST
    assert IncrementalStateDigest(jvm, env).compute() == final
