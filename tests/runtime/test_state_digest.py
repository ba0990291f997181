"""``JVM.state_digest`` is the fingerprint of the one state walk, so it
sees state that lives outside the statics: in Thread objects and in
the frames of running threads."""

import hashlib

from repro.env.environment import Environment
from repro.minijava import compile_program
from repro.runtime.digest import compute_state_digest
from repro.runtime.jvm import JVM, RunHooks
from repro.runtime.stdlib import default_natives

from tests.util import run_minijava

EMPTY = hashlib.sha256(b"").hexdigest()

#: No statics anywhere: the stored value is reachable only from the
#: worker's Thread object.
THREAD_STATE = """
    class Worker extends Thread {
        int result;
        void run() { this.result = %d; }
    }
    class Main {
        static void main(String[] args) {
            Worker w = new Worker();
            w.start();
            w.join();
        }
    }
"""

MAIN_LOCAL = """
    class Main {
        static void main(String[] args) {
            int kept = %d;
            int i = 0;
            while (i < 500) { i = i + 1; }
        }
    }
"""


def test_state_reachable_only_from_thread_objects_is_digested():
    digests = set()
    for value in (1, 2):
        result, jvm, _ = run_minijava(THREAD_STATE % value)
        assert result.ok
        assert jvm.statics == {}
        digests.add(jvm.state_digest())
    assert EMPTY not in digests
    assert len(digests) == 2


class _FirstSliceDigest(RunHooks):
    def __init__(self):
        self.digest = None

    def on_slice_end(self, jvm, thread, reason):
        if self.digest is None:
            assert jvm.scheduler.threads[0].frames
            self.digest = jvm.state_digest()


def test_slice_end_digest_sees_a_local_in_mains_frame():
    digests = set()
    for value in (1, 2):
        env = Environment()
        jvm = JVM(compile_program(MAIN_LOCAL % value), default_natives(),
                  env.attach("local"))
        hooks = jvm.run_hooks = _FirstSliceDigest()
        assert jvm.run("Main").ok
        digests.add(hooks.digest)
    assert len(digests) == 2


def test_state_digest_is_the_walks_fingerprint():
    result, jvm, _ = run_minijava(THREAD_STATE % 7)
    assert result.ok
    assert jvm.state_digest() == \
        f"{compute_state_digest(jvm).fingerprint():032x}"


def test_stateless_digest_leaves_the_mutation_clock_alone():
    """Delta checkpoints and the incremental digester read the heap's
    era; a digest taken for a check must not move it."""
    result, jvm, _ = run_minijava(THREAD_STATE % 7)
    assert result.ok
    era = jvm.heap.era
    compute_state_digest(jvm)
    jvm.state_digest()
    assert jvm.heap.era == era
