"""Intrinsics: library methods the JVM implements itself.

``wait``/``notify``, the thread operations, identity hashing and
``System.gc`` touch the scheduler, the monitors or the heap directly,
so they are not natives: an invoke that resolves to one of
:data:`INTRINSICS` calls ``fn(jvm, thread, frame, method, receiver,
nargs)`` and the function manages the operand stack itself (several of
them suspend mid-instruction).  They are plain functions of the JVM
they run in, shared by every JVM, so the interpreter's inline caches
that hold them hold no JVM.
"""

from __future__ import annotations

from repro.errors import RestrictionViolation
from repro.runtime.frames import Frame
from repro.runtime.interpreter import StepResult
from repro.runtime.sync import EnterResult
from repro.runtime.threads import JavaThread, ThreadState


def _wait(jvm, thread, frame, method, receiver, nargs):
    if thread.reacquiring:
        result = jvm.sync.reenter_after_wait(thread, receiver)
        if result is EnterResult.ACQUIRED:
            del frame.stack[len(frame.stack) - 1 - nargs:]
            frame.pc += 1
            return None
        thread.br_cnt -= 1
        thread.instructions -= 1
        return (
            StepResult.BLOCKED
            if result is EnterResult.BLOCKED
            else StepResult.PARKED
        )
    timeout = frame.stack[-1] if nargs == 1 else None
    if not jvm.sync.wait(thread, receiver, timeout):
        del frame.stack[len(frame.stack) - 1 - nargs:]
        return jvm.interpreter.throw_new(
            thread, "IllegalMonitorStateException", "wait without monitor"
        )
    return StepResult.WAITING


def _notify_one(jvm, thread, frame, method, receiver, nargs):
    return _notify(jvm, thread, frame, receiver, all_waiters=False)


def _notify_all(jvm, thread, frame, method, receiver, nargs):
    return _notify(jvm, thread, frame, receiver, all_waiters=True)


def _notify(jvm, thread, frame, receiver, *, all_waiters):
    frame.stack.pop()
    if not jvm.sync.notify(thread, receiver, all_waiters=all_waiters):
        return jvm.interpreter.throw_new(
            thread, "IllegalMonitorStateException", "notify without monitor"
        )
    frame.pc += 1
    return None


def _hash_code(jvm, thread, frame, method, receiver, nargs):
    frame.stack[-1] = receiver.oid & 0x7FFFFFFF
    frame.pc += 1
    return None


def _equals(jvm, thread, frame, method, receiver, nargs):
    other = frame.stack.pop()
    frame.stack[-1] = 1 if frame.stack[-1] is other else 0
    frame.pc += 1
    return None


def _to_string(jvm, thread, frame, method, receiver, nargs):
    frame.stack[-1] = f"{receiver.class_name}@{receiver.oid}"
    frame.pc += 1
    return None


def _start(jvm, thread, frame, method, receiver, nargs):
    frame.stack.pop()
    if receiver.oid in jvm.threads_by_oid:
        return jvm.interpreter.throw_new(
            thread, "IllegalStateException", "thread already started"
        )
    run_method = jvm.registry.lookup_method(receiver.class_name, "run", 0)
    child = JavaThread(
        thread.child_vid(),
        receiver,
        is_daemon=jvm._daemon_requests.pop(receiver.oid, False),
    )
    child.frames.append(Frame(run_method, [receiver]))
    jvm.threads_by_oid[receiver.oid] = child
    jvm.threads_by_vid[child.vid] = child
    jvm.scheduler.register(child)
    jvm.scheduler.make_runnable(child)
    frame.pc += 1
    return None


def _join(jvm, thread, frame, method, receiver, nargs):
    target = jvm.threads_by_oid.get(receiver.oid)
    frame.stack.pop()
    frame.pc += 1
    if target is None or target.state is ThreadState.TERMINATED:
        return None
    target.joiners.append(thread)
    thread.state = ThreadState.WAITING
    thread.blocked_on = None
    return StepResult.WAITING


def _is_alive(jvm, thread, frame, method, receiver, nargs):
    target = jvm.threads_by_oid.get(receiver.oid)
    frame.stack[-1] = 1 if target is not None and target.alive else 0
    frame.pc += 1
    return None


def _set_daemon(jvm, thread, frame, method, receiver, nargs):
    value = frame.stack.pop()
    frame.stack.pop()
    jvm._daemon_requests[receiver.oid] = bool(value)
    frame.pc += 1
    return None


def _stop(jvm, thread, frame, method, receiver, nargs):
    raise RestrictionViolation(
        "R1", "Thread.stop is deprecated and unsupported (paper §3.1)"
    )


def _sleep(jvm, thread, frame, method, receiver, nargs):
    ms = frame.stack.pop()
    frame.pc += 1
    if ms <= 0:
        return None
    thread.state = ThreadState.TIMED_WAITING
    thread.wakeup_time = jvm.now_ms() + ms
    thread.blocked_on = None
    return StepResult.WAITING


def _yield(jvm, thread, frame, method, receiver, nargs):
    frame.pc += 1
    return StepResult.YIELDED


def _current_thread(jvm, thread, frame, method, receiver, nargs):
    frame.stack.append(thread.thread_object)
    frame.pc += 1
    return None


def _system_gc(jvm, thread, frame, method, receiver, nargs):
    freed = jvm.collector.collect()
    jvm.run_hooks.on_gc(jvm, freed)
    frame.pc += 1
    return None


#: ``(declaring class, method, nargs)`` -> intrinsic.
INTRINSICS = {
    ("Object", "wait", 0): _wait,
    ("Object", "timedWait", 1): _wait,
    ("Object", "notify", 0): _notify_one,
    ("Object", "notifyAll", 0): _notify_all,
    ("Object", "hashCode", 0): _hash_code,
    ("Object", "equals", 1): _equals,
    ("Object", "toString", 0): _to_string,
    ("Thread", "start", 0): _start,
    ("Thread", "join", 0): _join,
    ("Thread", "isAlive", 0): _is_alive,
    ("Thread", "setDaemon", 1): _set_daemon,
    ("Thread", "stop", 0): _stop,
    ("Thread", "sleep", 1): _sleep,
    ("Thread", "yield", 0): _yield,
    ("Thread", "currentThread", 0): _current_thread,
    ("System", "gc", 0): _system_gc,
}
