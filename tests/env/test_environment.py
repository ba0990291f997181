"""Environment sessions: volatile vs stable state, crash semantics."""

import gc
import weakref

import pytest

from repro.env.console import Console
from repro.env.environment import Environment, SessionDestroyed
from repro.env.filesystem import JavaIOError


def test_console_positions_and_transcript():
    c = Console()
    assert c.position() == 0
    assert c.write("ab") == 2
    assert c.write("c\n") == 4
    assert c.transcript() == "abc\n"
    assert c.lines() == ["abc"]


def test_session_fds_are_volatile():
    env = Environment()
    env.fs.put("f", "stable data")
    s = env.attach("p1")
    fd = s.open("f", "r")
    assert s.handle(fd).read_line() == "stable data"
    s.destroy()
    with pytest.raises(SessionDestroyed):
        s.handle(fd)
    # Stable data survives the crash.
    assert env.fs.contents("f") == "stable data"
    # A new session starts with a fresh fd table.
    s2 = env.attach("p2")
    with pytest.raises(JavaIOError, match="bad file descriptor"):
        s2.handle(fd)


def test_fd_numbers_start_at_three_and_increase():
    env = Environment()
    env.fs.put("f", "")
    s = env.attach("p")
    assert s.open("f", "r") == 3
    assert s.open("f", "r") == 4


def test_close_releases_fd():
    env = Environment()
    env.fs.put("f", "")
    s = env.attach("p")
    fd = s.open("f", "r")
    s.close(fd)
    with pytest.raises(JavaIOError):
        s.handle(fd)


def test_restore_fd_rebuilds_offset_and_numbering():
    env = Environment()
    env.fs.put("f", "0123456789")
    s = env.attach("backup")
    s.restore_fd(7, "f", 4, "r")
    assert s.handle(7).read_char() == ord("4")
    # next fresh fd continues above the restored one
    assert s.open("f", "r") == 8


def test_clock_is_monotone_and_differs_across_sessions():
    env = Environment()
    a = env.attach("primary", clock_offset_ms=0)
    b = env.attach("backup", clock_offset_ms=137)
    reads_a = [a.clock_ms() for _ in range(5)]
    assert reads_a == sorted(reads_a)
    assert reads_a[0] < reads_a[-1]
    assert a.clock_ms() != b.clock_ms()


def test_entropy_differs_across_sessions_but_repeats_per_seed():
    env1 = Environment()
    env2 = Environment()
    a1 = env1.attach("p", entropy_seed=5)
    a2 = env2.attach("p", entropy_seed=5)
    b = env1.attach("q", entropy_seed=6)
    seq1 = [a1.random_int(1000) for _ in range(4)]
    seq2 = [a2.random_int(1000) for _ in range(4)]
    seqb = [b.random_int(1000) for _ in range(4)]
    assert seq1 == seq2
    assert seq1 != seqb


def test_stable_digest_covers_files_and_console():
    env = Environment()
    d0 = env.stable_digest()
    env.fs.put("x", "1")
    d1 = env.stable_digest()
    env.console.write("hello")
    d2 = env.stable_digest()
    assert len({d0, d1, d2}) == 3


def test_snapshot_stable():
    env = Environment()
    env.fs.put("a", "A")
    env.console.write("out")
    snap = env.snapshot_stable()
    assert snap == {"file:a": "A", "console": "out"}


def test_destroyed_dropped_session_is_freed():
    # The environment keeps no list of the sessions it opened: a
    # replica that attaches one per verification must not leak them.
    env = Environment()
    session = env.attach("ckpt-verify-1")
    session.destroy()
    ref = weakref.ref(session)
    gc.disable()
    try:
        del session
        assert ref() is None
    finally:
        gc.enable()


def test_destroyed_session_blocks_everything():
    env = Environment()
    s = env.attach("p")
    s.destroy()
    for op in (s.clock_ms, lambda: s.random_int(5), s.open_fds,
               lambda: s.console_write("x"), lambda: s.open("f", "w")):
        with pytest.raises(SessionDestroyed):
            op()
