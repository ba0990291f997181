"""The socket transport's single-threaded I/O path.

Both ends of the TCP link are serviced on the caller's thread by one
``select``-driven step, with ``TCP_NODELAY`` on both sockets.  What
that buys, and what it must not cost:

* an output commit is a loopback round trip, never a delayed-ACK timer;
* a frame larger than the kernel's socket buffers is written without
  deadlocking against its own unread far end, resets included;
* callbacks fire on the calling thread, and the receiving end is served
  even when the sender has nothing to wait for;
* tearing a link down takes milliseconds and leaves no thread behind;
* a transport (or a whole fleet) dropped without ``close()`` is
  ordinary garbage: its port and file descriptors go with it.
"""

import gc
import os
import socket
import threading
import time
import weakref

import pytest

from repro.fleet import Fleet, TrafficSpec, generate, reference_responses
from repro.replication.config import ReplicationConfig
from repro.replication.transport import SocketTransport, TransportMux
from tests.integration.test_transport_failover import needs_sockets

pytestmark = [pytest.mark.socket, needs_sockets]


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


needs_procfs = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd"
)


# ======================================================================
# The commit round trip
# ======================================================================
def test_hot_link_never_waits_out_a_timer():
    """Under Nagle, a frame written behind an unanswered one (here a
    heartbeat) sits in the kernel until the peer's 40 ms delayed-ACK
    timer fires; 200 back-to-back commits must not meet it once."""
    transport = SocketTransport()
    try:
        slowest = 0.0
        for i in range(200):
            transport.send_heartbeat()
            transport.send([b"record-%03d" % i])
            slowest = max(slowest, transport.wait_ack())
        assert slowest < 0.020
        assert len(transport.delivered) == 200
    finally:
        transport.close()


@pytest.mark.parametrize("reset_every", [None, 1])
def test_frame_larger_than_the_socket_buffers(reset_every):
    """Nobody but the caller empties the far end: the write must serve
    it while the kernel refuses bytes — and once more when a reset
    makes the whole frame travel again."""
    records = [bytes([i]) * (128 * 1024) for i in range(64)]      # 8 MB
    transport = SocketTransport(timeout=5.0, reset_every=reset_every)
    try:
        transport.send(records)
        transport.settle()
        assert transport.delivered == records
        assert transport.stats.reconnects == (0 if reset_every is None else 1)
    finally:
        transport.close()


def test_on_deliver_runs_on_the_calling_thread():
    transport = SocketTransport()
    seen = []
    transport.on_deliver = lambda _t, n: seen.append(
        (n, threading.get_ident()))
    try:
        transport.send([b"a", b"b"])
        transport.wait_ack()
        assert seen == [(2, threading.get_ident())]
    finally:
        transport.close()


def test_poll_serves_the_receiving_end_with_no_ack_pending():
    transport = SocketTransport()
    try:
        transport.send_heartbeat()
        assert not transport.ack_pending()
        assert transport.poll()
        assert transport.stats.heartbeats_delivered == 1
        assert not transport.poll()        # idle: nothing left to serve
    finally:
        transport.close()


def test_muxed_ack_wait_advances_siblings():
    mux = TransportMux()
    waiter = mux.register(SocketTransport())
    sibling = mux.register(SocketTransport())
    try:
        sibling.send([b"sibling-1", b"sibling-2"])
        waiter.send([b"waiter-1"])
        waited = waiter.wait_ack()
        # The sibling's frame was delivered and acked from inside the
        # waiter's select loop, and nobody slept out a poll interval.
        assert sibling.delivered == [b"sibling-1", b"sibling-2"]
        assert not sibling.ack_pending()
        assert waited < 0.020
    finally:
        mux.close()


# ======================================================================
# Teardown
# ======================================================================
def _socket_fleet(requests=None, crash_for=None) -> Fleet:
    fleet = Fleet(3, config=ReplicationConfig(transport="socket"),
                  crash_schedule_for=crash_for)
    fleet.start()
    for request in requests or generate(TrafficSpec(n_requests=12)):
        fleet.groups[fleet.submit(request.text)].pump()
    return fleet


def test_fleet_stop_takes_milliseconds_and_leaves_no_thread():
    threads = threading.active_count()
    fleet = _socket_fleet()
    assert threading.active_count() == threads
    begun = time.monotonic()
    fleet.stop()
    assert time.monotonic() - begun < 0.25
    assert threading.active_count() == threads


def test_failover_over_tcp_never_waits_for_a_join():
    """Every shard's primary dies twice under load; the whole run,
    six dispose → promote → re-arm rounds included, fits where one
    thread join used to."""
    requests = generate(TrafficSpec(n_requests=120))
    begun = time.monotonic()
    fleet = _socket_fleet(requests, crash_for=lambda shard: {0: 40, 1: 60})
    took = time.monotonic() - begun
    fleet.stop()
    assert [g.failures_survived for g in fleet.groups] == [2, 2, 2]
    assert took < 1.0
    expected = reference_responses(requests)
    for request in requests:
        responses = fleet.groups[fleet.route(request.text)].env.responses
        assert responses.get(request.rid) == expected[request.rid]


def test_close_is_idempotent_and_follows_a_crash():
    transport = SocketTransport()
    transport.send([b"flushed"])
    transport.crash_sender()
    assert transport.delivered == [b"flushed"]     # in flight: arrives
    transport.close()
    transport.close()
    transport.crash_sender()
    assert transport.delivered == [b"flushed"]
    assert transport.wait_ack() == 0.0


# ======================================================================
# Abandonment
# ======================================================================
@needs_procfs
def test_dropped_transport_is_collected_with_its_port_and_fds():
    gc.collect()
    fds = _open_fds()
    transport = SocketTransport()
    transport.on_deliver = lambda t, n: None
    transport.send([b"x"])
    transport.wait_ack()
    address = transport.address
    assert _open_fds() == fds + 3        # listener + both ends
    ref = weakref.ref(transport)
    del transport
    gc.collect()
    assert ref() is None
    assert _open_fds() == fds
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(address, timeout=1.0)


@needs_procfs
def test_dropped_fleet_is_collected_with_its_fds():
    gc.collect()
    fds = _open_fds()
    fleet = _socket_fleet()
    assert _open_fds() == fds + 9
    ref = weakref.ref(fleet)
    del fleet
    gc.collect()
    assert ref() is None
    assert _open_fds() == fds
