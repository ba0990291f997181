"""The environment: everything outside the replicated state machine.

The paper's correctness story hinges on a precise split between

* **stable state** — survives the failure of a replica's host (file
  contents on disk, the console transcript an operator already saw);
* **volatile state** — dies with the host (open file descriptors,
  current offsets, OS socket state).

:class:`Environment` models the world itself (shared by all replicas —
it is not replicated).  Each process that talks to the world opens an
:class:`EnvSession`; the session owns the volatile state and a
process-local wall clock and entropy source (the paper's
non-deterministic native inputs).  Crashing the primary destroys its
session; the backup attaches a fresh session and must rebuild volatile
state through side-effect handlers.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Optional

from repro.errors import ReproError
from repro.env.filesystem import FileSystem, FileHandle
from repro.env.console import Console
from repro.env.port import RequestPort, ResponseLog, request_id


class SessionDestroyed(ReproError):
    """An operation was attempted on a crashed process's session."""


class Environment:
    """The shared outside world."""

    def __init__(self, seed: int = 0) -> None:
        self.fs = FileSystem()
        self.console = Console()
        #: Named request queues (serving: one per keyspace shard).
        self.ports: Dict[str, RequestPort] = {}
        #: Stable exactly-once response store (serving).
        self.responses = ResponseLog()
        self._seed = seed

    def port(self, name: str) -> RequestPort:
        """The named request port, created on first use."""
        port = self.ports.get(name)
        if port is None:
            port = self.ports[name] = RequestPort(name)
        return port

    def attach(self, process_name: str, *, clock_offset_ms: int = 0,
               entropy_seed: Optional[int] = None) -> "EnvSession":
        """Open a volatile session for one process (replica)."""
        return EnvSession(
            self,
            process_name,
            clock_offset_ms=clock_offset_ms,
            entropy_seed=(
                entropy_seed
                if entropy_seed is not None
                else self._seed ^ hash(process_name) & 0xFFFF
            ),
        )

    def stable_digest(self) -> str:
        """Canonical hash of all stable state — the oracle for the
        paper's 'indistinguishable from a single correct machine'
        requirement in exactly-once tests."""
        h = hashlib.sha256()
        for path in sorted(self.fs.paths()):
            h.update(path.encode())
            h.update(b"\0")
            h.update(self.fs.contents(path).encode())
            h.update(b"\0")
        h.update(self.console.transcript().encode())
        # The response log is stable state; folded in only when serving
        # so non-serving digests match historical values byte-for-byte.
        if self.responses.count():
            for rid, text in self.responses.items():
                h.update(b"resp\0")
                h.update(rid.encode())
                h.update(b"\0")
                h.update(text.encode())
                h.update(b"\0")
        return h.hexdigest()

    def snapshot_stable(self) -> Dict[str, str]:
        """Copy of stable state for diffing in tests."""
        state = {f"file:{p}": self.fs.contents(p) for p in self.fs.paths()}
        state["console"] = self.console.transcript()
        for rid, text in self.responses.items():
            state[f"response:{rid}"] = text
        return state


class EnvSession:
    """Per-process volatile state plus non-deterministic inputs."""

    def __init__(self, env: Environment, process_name: str, *,
                 clock_offset_ms: int, entropy_seed: int) -> None:
        self.env = env
        self.process_name = process_name
        self.destroyed = False
        self._handles: Dict[int, FileHandle] = {}
        self._next_fd = 3  # 0-2 reserved, as on POSIX
        # Wall clock: a process-local base plus jittered monotone steps
        # per read.  Reads at different replicas return different values
        # — the canonical non-deterministic native input.
        self._clock_ms = 1_000_000_000 + clock_offset_ms
        self._clock_rng = random.Random(entropy_seed ^ 0xC10C)
        self._entropy = random.Random(entropy_seed)

    # ------------------------------------------------------------------
    def _check_alive(self) -> None:
        if self.destroyed:
            raise SessionDestroyed(
                f"process {self.process_name!r} has crashed; its volatile "
                f"environment state is gone"
            )

    def destroy(self) -> None:
        """Fail-stop: all volatile state vanishes."""
        self.destroyed = True
        self._handles.clear()

    # ------------------------------------------------------------------
    # Non-deterministic inputs (paper §3.2)
    # ------------------------------------------------------------------
    def clock_ms(self) -> int:
        """Read the wall clock (non-deterministic across replicas)."""
        self._check_alive()
        self._clock_ms += self._clock_rng.randrange(1, 5)
        return self._clock_ms

    def random_int(self, bound: int) -> int:
        """Environment entropy (e.g. /dev/urandom behind a native)."""
        self._check_alive()
        if bound <= 0:
            raise ReproError("random_int bound must be positive")
        return self._entropy.randrange(bound)

    def random_float(self) -> float:
        self._check_alive()
        return self._entropy.random()

    # ------------------------------------------------------------------
    # File descriptors (volatile) over the shared file system (stable)
    # ------------------------------------------------------------------
    def open(self, path: str, mode: str) -> int:
        self._check_alive()
        handle = self.env.fs.open(path, mode)
        fd = self._next_fd
        self._next_fd += 1
        self._handles[fd] = handle
        return fd

    def handle(self, fd: int) -> FileHandle:
        self._check_alive()
        h = self._handles.get(fd)
        if h is None:
            from repro.env.filesystem import JavaIOError

            raise JavaIOError(f"bad file descriptor {fd}")
        return h

    def close(self, fd: int) -> None:
        self._check_alive()
        self._handles.pop(fd, None)

    def open_fds(self) -> Dict[int, FileHandle]:
        """Volatile fd table (read by the file side-effect handler)."""
        self._check_alive()
        return dict(self._handles)

    def restore_fd(self, fd: int, path: str, offset: int, mode: str) -> None:
        """Reinstall a descriptor during recovery (side-effect handler
        ``restore``): reopen without truncation and seek."""
        self._check_alive()
        handle = self.env.fs.open(path, "r+" if mode in ("w", "a", "r+") else "r")
        handle.offset = offset
        handle.mode = mode
        self._handles[fd] = handle
        self._next_fd = max(self._next_fd, fd + 1)

    # ------------------------------------------------------------------
    # Serving: request ingest (non-det input) and responses (output)
    # ------------------------------------------------------------------
    def recv_request(self, port_name: str) -> str:
        """Consume the next pending request from a port — the live
        ``Server.recv``.  The popped value is what gets logged, so a
        recovering backup adopts it instead of re-consuming."""
        self._check_alive()
        return self.env.port(port_name).take()

    def respond(self, request: str, text: str) -> int:
        """Commit one response to the stable response log — the
        ``Server.reply`` output; returns the log position after."""
        self._check_alive()
        return self.env.responses.commit(request_id(request), text)

    # ------------------------------------------------------------------
    # Console (stable transcript, volatile nothing)
    # ------------------------------------------------------------------
    def console_write(self, text: str) -> int:
        """Write to the console; returns the transcript position *after*
        the write (the testable-output handle)."""
        self._check_alive()
        return self.env.console.write(text)
