"""The percentile picker, the two loops and the calibrator, against a
fake clock."""

import time
from dataclasses import dataclass

import pytest

import driver


# ----------------------------------------------------------------------
# Percentile picker
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    samples = list(range(1, 201))                  # 1..200
    assert driver.percentile(samples, 50) == 100
    assert driver.percentile(samples, 90) == 180
    assert driver.percentile(reversed(samples), 90) == 180


def test_percentile_refuses_fewer_than_ten_samples_beyond_it():
    assert driver.percentile(range(100), 90) == 89   # ten beyond: 90..99
    with pytest.raises(driver.TooFewSamples):
        driver.percentile(range(99), 90)             # nine beyond
    with pytest.raises(driver.TooFewSamples):
        driver.percentile(range(500), 99)            # five beyond
    assert driver.percentile(range(1000), 99) == 989
    with pytest.raises(driver.TooFewSamples):
        driver.percentile(range(19), 50)
    with pytest.raises(driver.TooFewSamples):
        driver.percentile([], 50)


def test_percentile_floor_can_be_waived_and_range_is_checked():
    assert driver.percentile([3.0, 1.0, 2.0], 90, min_beyond=0) == 3.0
    for p in (0, 100, -5):
        with pytest.raises(ValueError):
            driver.percentile(range(100), p)


# ----------------------------------------------------------------------
# A clock that only moves when someone reads it or work is done
# ----------------------------------------------------------------------
TICK = 1e-6


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += TICK
        return self.now


@dataclass
class Req:
    arrival_ms: float
    cost_s: float
    failovers: int = 0


def server(clock: FakeClock):
    def serve(request: Req) -> int:
        clock.now += request.cost_s
        return request.failovers
    return serve


def test_open_loop_charges_a_stall_to_later_arrivals():
    clock = FakeClock()
    requests = [Req(0, 0.001), Req(10, 0.025), Req(20, 0.001),
                Req(30, 0.001), Req(60, 0.001)]
    out = driver.open_loop(requests, server(clock), clock)

    ms = [round(1e3 * s, 1) for s in out.latency_s]
    lag = [round(1e3 * s, 1) for s in out.lag_s]
    # The second request stalls for 25 ms.  The third was due at 20 ms
    # but could only be sent at 35 ms: it is charged the wait (lag 15),
    # although its own service took 1 ms; the fourth still queues
    # behind it; the fifth arrives after the backlog drained.
    assert ms == [1.0, 25.0, 16.0, 7.0, 1.0]
    assert lag == [0.0, 0.0, 15.0, 6.0, 0.0]
    assert out.requests == 5
    assert out.elapsed_s == pytest.approx(0.061, abs=1e-4)


def test_open_loop_starts_at_the_first_arrival_and_stretches_the_rest():
    clock = FakeClock()
    requests = [Req(1000, 0.001), Req(1005, 0.001), Req(1010, 0.001)]
    out = driver.open_loop(requests, server(clock), clock)
    assert out.elapsed_s == pytest.approx(0.011, abs=1e-4)
    assert max(out.lag_s) < 10 * TICK

    # On a box running at half speed the same schedule takes twice as
    # long on the wall: the server is as busy as at reference speed.
    clock = FakeClock()
    out = driver.open_loop(requests, server(clock), clock,
                           stretch=lambda: 2.0)
    assert out.elapsed_s == pytest.approx(0.021, abs=1e-4)
    assert max(out.lag_s) < 10 * TICK

    # The stretch is read gap by gap: the box slows down half way.
    clock = FakeClock()
    out = driver.open_loop(requests, server(clock), clock,
                           stretch=lambda: 1.0 if clock.now < 0.004 else 3.0)
    assert out.elapsed_s == pytest.approx(0.005 + 0.015 + 0.001, abs=1e-4)


def test_open_loop_fills_only_gaps_that_leave_room():
    clock = FakeClock()
    calls = []

    def idle() -> None:
        calls.append(clock.now)
        clock.now += 0.001                      # a kernel sample: 1 ms

    # Gaps of 10 ms, 2 ms and 10 ms; the idle hook needs 3 ms of room.
    requests = [Req(0, 0.0005), Req(10, 0.0005), Req(12, 0.0005),
                Req(22, 0.0005)]
    out = driver.open_loop(requests, server(clock), clock,
                           idle=idle, idle_needs_s=0.003)
    assert calls, "long gaps are used"
    for at in calls:
        # ... but never when the next arrival is under 3 ms away,
        room = min(r.arrival_ms / 1e3 - at for r in requests
                   if r.arrival_ms / 1e3 > at)
        assert room > 0.003
    # so nothing was sent late because of it.
    assert max(out.lag_s) < 10 * TICK
    assert not [at for at in calls if 0.0105 < at < 0.012]


def test_open_loop_never_sends_early():
    clock = FakeClock()
    sent_at = []

    def serve(request: Req) -> int:
        sent_at.append(clock.now)
        clock.now += request.cost_s
        return 0

    requests = [Req(5 * i, 0.0001) for i in range(20)]
    driver.open_loop(requests, serve, clock)
    for request, at in zip(requests, sent_at):
        assert at >= request.arrival_ms / 1e3


def test_closed_loop_sends_back_to_back_and_sorts_out_failover_gaps():
    clock = FakeClock()
    requests = [Req(0, 0.002), Req(0, 0.030, failovers=1), Req(0, 0.002),
                Req(0, 0.002)]
    out = driver.closed_loop(requests, server(clock), clock)
    assert out.requests == 4
    assert out.elapsed_s == pytest.approx(0.036, abs=1e-4)
    assert [round(1e3 * s) for s in out.service_s] == [2, 2, 2]
    assert [round(1e3 * (ended - begun))
            for begun, ended in out.failover_gaps] == [30]


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
class SteppingClock:
    """Every reading is ``step`` later than the last: a kernel timed
    between two readings appears to take ``step`` seconds."""

    def __init__(self) -> None:
        self.now = 0.0
        self.step = driver.KERNEL_REFERENCE_S

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def test_slowdown_averages_the_kernel_samples_inside_the_region():
    clock = SteppingClock()
    calibrator = driver.Calibrator(clock=clock)
    for _ in range(4):                      # a quiet stretch ...
        calibrator.sample()
    quiet_until = clock.now
    clock.step = 3 * driver.KERNEL_REFERENCE_S
    for _ in range(4):                      # ... then a box three times slower
        calibrator.sample()
    assert calibrator.slowdown(0.0, quiet_until) == pytest.approx(1.0)
    assert calibrator.slowdown(quiet_until, clock.now) == pytest.approx(3.0)
    assert calibrator.slowdown(0.0, clock.now) == pytest.approx(2.0)


def test_a_region_too_short_for_three_samples_borrows_the_nearest():
    clock = SteppingClock()
    calibrator = driver.Calibrator(clock=clock)
    for _ in range(3):
        calibrator.sample()
    clock.step = 5 * driver.KERNEL_REFERENCE_S
    clock.now = 10.0
    for _ in range(3):
        calibrator.sample()
    # A 1 ms region at t = 10 s holds no sample of its own: it is judged
    # by the slow ones beside it, not by the quiet ones ten seconds ago.
    assert calibrator.slowdown(10.0, 10.001) == pytest.approx(5.0)
    assert calibrator.slowdown(0.0005, 0.0006) == pytest.approx(1.0)


def test_the_present_slowdown_follows_the_latest_samples():
    clock = SteppingClock()
    calibrator = driver.Calibrator(clock=clock)
    for _ in range(50):
        calibrator.sample()
    assert calibrator.slowdown_now() == pytest.approx(1.0)
    clock.step = 2 * driver.KERNEL_REFERENCE_S
    for _ in range(50):
        calibrator.sample()
    assert calibrator.slowdown_now() == pytest.approx(2.0, rel=0.02)


def test_a_held_calibrator_leaves_the_sampling_to_its_caller():
    with driver.Calibrator(period_s=0.001) as calibrator:
        with calibrator.held():
            time.sleep(0.01)                 # let a sample in flight land
            before = len(calibrator._took)
            time.sleep(0.03)
            assert len(calibrator._took) == before
            calibrator.sample()
            assert len(calibrator._took) == before + 1
        deadline = time.perf_counter() + 2.0
        while (len(calibrator._took) <= before + 1
               and time.perf_counter() < deadline):
            time.sleep(0.005)
        assert len(calibrator._took) > before + 1


def test_the_sampling_thread_runs_only_inside_the_with_block():
    with driver.Calibrator(period_s=0.001) as calibrator:
        deadline = time.perf_counter() + 2.0
        while (len(calibrator._took) < 5
               and time.perf_counter() < deadline):
            time.sleep(0.005)
        thread = calibrator._thread
        assert len(calibrator._took) >= 5
    assert not thread.is_alive()
    assert calibrator.slowdown(0.0, time.perf_counter()) > 0
