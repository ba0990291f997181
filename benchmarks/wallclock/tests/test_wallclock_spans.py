"""Self-time arithmetic, and wrappers that come off again."""

import pytest

import spans as sp


def span(name, start, end, parent, request=None):
    return [name, start, end, parent, request]


#   A [0, 10]
#   +- B [1, 4]
#   |  +- C [2, 3]
#   +- B [5, 9]
#   D [10, 12]
TREE = [
    span("A", 0.0, 10.0, -1),
    span("B", 1.0, 4.0, 0),
    span("C", 2.0, 3.0, 1),
    span("B", 5.0, 9.0, 0),
    span("D", 10.0, 12.0, -1),
]


def test_self_time_is_duration_minus_direct_children():
    totals = sp.self_times(TREE)
    assert (totals["A"].count, totals["A"].total_s, totals["A"].self_s) \
        == (1, 10.0, 3.0)                    # 10 - (3 + 4)
    assert (totals["B"].count, totals["B"].total_s, totals["B"].self_s) \
        == (2, 7.0, 6.0)                     # C is charged to the first B
    assert totals["C"].self_s == 1.0         # not subtracted from A twice
    assert totals["D"].self_s == 2.0
    # Self times partition the covered wall time.
    assert sum(t.self_s for t in totals.values()) == 12.0


def test_self_time_over_a_window_ignores_parents_outside_it():
    totals = sp.self_times(TREE, first=1, last=4)
    assert set(totals) == {"B", "C"}
    assert totals["B"].self_s == 6.0
    assert totals["C"].self_s == 1.0


def test_tracer_records_parent_and_request():
    ticks = iter(range(100))
    tracer = sp.Tracer(clock=lambda: float(next(ticks)))
    tracer.request = "c1r00001"
    with tracer.span("outer") as outer:
        assert tracer.inside("outer") and not tracer.inside("inner")
        with tracer.span("inner"):
            assert tracer.inside("inner")
    tracer.request = None
    with tracer.span("later"):
        pass
    assert outer == 0
    assert tracer.spans == [
        ["outer", 0.0, 3.0, -1, "c1r00001"],
        ["inner", 1.0, 2.0, 0, "c1r00001"],
        ["later", 4.0, 5.0, -1, None],
    ]
    assert sp.self_times(tracer.spans)["outer"].self_s == 2.0


def test_traced_closes_its_span_when_the_call_raises():
    tracer = sp.Tracer()

    def crash():
        raise RuntimeError("fail-stop")

    with pytest.raises(RuntimeError):
        sp.traced(tracer, crash, "boom")()
    assert tracer.spans[0][sp.END] is not None
    assert not tracer.inside("boom")


def test_wrappers_are_installed_on_importers_and_removed_afterwards():
    from repro.fleet.fleet import Fleet
    from repro.replication import checkpoint, supervisor
    from repro.runtime.interpreter import Interpreter

    before = (vars(Fleet)["submit"], vars(Interpreter)["run_slice"],
              checkpoint.restore_checkpoint, supervisor.restore_checkpoint)
    tracer = sp.Tracer()
    with sp.installed(tracer):
        assert vars(Fleet)["submit"] is not before[0]
        # The importing module's own binding is patched too.
        assert supervisor.restore_checkpoint is checkpoint.restore_checkpoint
        assert supervisor.restore_checkpoint is not before[3]
    after = (vars(Fleet)["submit"], vars(Interpreter)["run_slice"],
             checkpoint.restore_checkpoint, supervisor.restore_checkpoint)
    assert after == before


def test_a_traced_fleet_round_trip_names_every_layer_on_its_path():
    from repro.fleet import Fleet, TrafficSpec, generate

    tracer = sp.Tracer()
    requests = generate(TrafficSpec(n_requests=12, seed=3))
    with sp.installed(tracer):
        fleet = Fleet(2, profile="test")
        fleet.start()
        for request in requests:
            tracer.request = request.rid
            fleet.groups[fleet.submit(request.text)].pump()
        fleet.stop()
    names = {s[sp.NAME] for s in tracer.spans}
    assert {"minijava.compile", "fleet.submit", "fleet.pump",
            "runtime.run_slice", "ndnatives.invoke",
            "ndnatives.would_starve", "commit.log", "commit.output_commit",
            "commit.encode", "commit.flush", "wire.encode",
            "transport.send", "transport.wait_ack",
            "checkpoint.capture_full", "commit.arm_commit"} <= names
    assert all(s[sp.END] is not None for s in tracer.spans)
    served = {s[sp.REQUEST] for s in tracer.spans
              if s[sp.NAME] == "fleet.pump"}
    assert {r.rid for r in requests} <= served
