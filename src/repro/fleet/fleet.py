"""A sharded fleet of replica groups serving request traffic.

The fleet is the paper's architecture scaled out: N independent
:class:`~repro.replication.supervisor.ReplicaGroup`\\ s, each the
primary-backup pair (plus re-integration) for one hash shard of the
keyspace, behind a request router.  Each shard runs the ``db_server``
workload — a key-value server that parks at a safe-point event
(``Server.recv``) whenever its request port is empty — so a shard is
*resumable*: the router delivers a request, pumps the group to the next
quiescent point, and the committed response appears in the shard's
stable response log.

A primary crash inside any pump is absorbed by the group's serving
lifecycle (replay, uncertain-tail resolution, request-port
reconciliation, checkpoint re-arm) while the other shards keep serving;
the fleet only observes it as a new generation on that shard.

All shard transports register with one
:class:`~repro.replication.transport.TransportMux`, so a group blocking
on an output-commit ack services the *other* groups' transports from
inside its wait loop — one event loop over all connections, no shard
stalled behind another.

The fleet reports what happened — routed, committed, requeued, failed
over, exactly once or not — and keeps no clock: serving latency and
throughput are measured by ``benchmarks/wallclock/``, which paces the
arrival schedule of :mod:`repro.fleet.traffic` in real time.
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import Callable, List, Optional, Sequence, Union

from repro.env.environment import Environment
from repro.errors import ReplicationError
from repro.fleet.degradation import DegradationController
from repro.fleet.metrics import FleetServingMetrics, ShardServingMetrics
from repro.fleet.traffic import (
    Request,
    TrafficSpec,
    generate,
    reference_responses,
)
from repro.replication.config import ReplicationConfig
from repro.replication.supervisor import ReplicaGroup
from repro.replication.transport import Transport, TransportMux, make_transport
from repro.replication.voting import VotingGroup
from repro.workloads import DB_SERVER
from repro.workloads.base import Workload


def shard_of(key: int, n_shards: int) -> int:
    """Hash-sharding of the keyspace: key -> owning group."""
    return key % n_shards


def key_of(request_text: str) -> int:
    """Routing key of a ``"<rid> <op> <key> [<val>]"`` request."""
    parts = request_text.split()
    if len(parts) < 3:
        raise ReplicationError(
            f"unroutable request (want '<rid> <op> <key> [<val>]'): "
            f"{request_text!r}"
        )
    try:
        return int(parts[2])
    except ValueError as exc:
        raise ReplicationError(
            f"unroutable request, non-integer key: {request_text!r}"
        ) from exc


def _on_divergence(degradation: DegradationController, shard: int,
                   divergence) -> None:
    degradation.on_divergence(shard, divergence)


class Fleet:
    """N shard groups + router + mux, serving one keyspace."""

    def __init__(
        self,
        n_shards: int = 3,
        *,
        workload: Workload = DB_SERVER,
        profile: str = "test",
        config: Optional[ReplicationConfig] = None,
        crash_schedule_for: Optional[Callable[[int], object]] = None,
        lie_shard: Optional[int] = None,
        transport_for: Optional[Callable[[int], object]] = None,
    ) -> None:
        if n_shards < 1:
            raise ReplicationError("a fleet needs at least one shard")
        self.n_shards = n_shards
        self.workload = workload
        self.profile = profile
        self.port = str(workload.params_for(profile).get("port", "req"))
        self.mux = TransportMux()
        base = config or ReplicationConfig()
        self.voting = bool(base.voting)
        if self.voting and crash_schedule_for is not None:
            raise ReplicationError(
                "voting shards convict on evidence, not injected "
                "fail-stop; drop crash_schedule_for (seed a liar with "
                "lie_shard + lie_at instead)"
            )
        if lie_shard is not None and not 0 <= lie_shard < n_shards:
            raise ReplicationError(
                f"lie_shard {lie_shard} out of range for {n_shards} shards"
            )
        registry = workload.compile(profile)

        self.groups: List = []
        self._shard_transports: List[Optional[Transport]] = [None] * n_shards
        for shard in range(n_shards):
            env = Environment()
            workload.prepare_env(env, profile)
            spec = (transport_for(shard) if transport_for is not None
                    else base.transport)
            overrides = {
                "transport": self._muxed_factory(spec, shard),
            }
            if self.voting:
                if lie_shard is not None and shard != lie_shard:
                    # The seeded liar lives on exactly one shard; the
                    # others run honest.
                    overrides["lie_at"] = None
                    overrides["lie_specs"] = ()
                group = VotingGroup(registry, env=env,
                                    config=base.merged(**overrides))
            else:
                if crash_schedule_for is not None:
                    overrides["crash_schedule"] = crash_schedule_for(shard)
                group = ReplicaGroup(registry, env=env,
                                     config=base.merged(**overrides))
            self.groups.append(group)

        #: Graceful degradation: one controller subscribed to every
        #: voting shard's MVEE guard; a confirmed engine-correlated
        #: divergence anywhere demotes the whole fleet to the oracle
        #: engine at each shard's next safe-point.
        self.degradation: Optional[DegradationController] = None
        if self.voting:
            # Held weakly by what the fleet owns, like the factories.
            self.degradation = DegradationController(weakref.proxy(self))
            for shard, group in enumerate(self.groups):
                group.on_divergence = partial(
                    _on_divergence, self.degradation, shard)
        self._started = False

    # ------------------------------------------------------------------
    def _muxed_factory(self, base_spec, shard: int):
        """Wrap a transport spec so every transport any generation of
        this shard builds is registered with the fleet-wide mux (and
        the previous generation's is dropped)."""
        mux, transports = self.mux, self._shard_transports

        def factory(generation: int) -> Transport:
            if isinstance(base_spec, Transport):
                transport = base_spec.fresh()
            elif callable(base_spec):
                built = base_spec(generation)
                transport = (built if isinstance(built, Transport)
                             else make_transport(built))
            else:
                transport = make_transport(base_spec)
            old = transports[shard]
            if old is not None:
                mux.unregister(old)
            mux.register(transport)
            transports[shard] = transport
            return transport
        return factory

    # ------------------------------------------------------------------
    def route(self, request_text: str) -> int:
        return shard_of(key_of(request_text), self.n_shards)

    def start(self, main_class: Optional[str] = None) -> None:
        """Boot and arm every shard group, parked at its request wait."""
        if self._started:
            return
        self._started = True
        for group in self.groups:
            group.start_serving(main_class or self.workload.main_class,
                                port=self.port)

    def submit(self, request_text: str) -> int:
        """Route a request to its shard's port; returns the shard."""
        shard = self.route(request_text)
        self.groups[shard].submit(request_text)
        return shard

    # ------------------------------------------------------------------
    def serve(
        self,
        traffic: Union[TrafficSpec, Sequence[Request]],
    ) -> FleetServingMetrics:
        """Serve one traffic run to completion and verify it: deliver
        each request in arrival order, pumping its shard to the next
        quiescent point; stop; check every committed response against
        the serial reference."""
        self.start()
        requests = (generate(traffic) if isinstance(traffic, TrafficSpec)
                    else list(traffic))
        fm = FleetServingMetrics(n_shards=self.n_shards,
                                 requests_offered=len(requests))
        shards = [ShardServingMetrics(shard=s) for s in range(self.n_shards)]

        for req in requests:
            shard = self.submit(req.text)
            group = self.groups[shard]
            sm = shards[shard]
            sm.requests_routed += 1
            failures_before = group.failures_survived
            group.pump()
            sm.failovers_absorbed += group.failures_survived - failures_before

        self.stop()
        self._account(fm, shards, requests)
        return fm

    def stop(self) -> None:
        """Deliver each shard its stop request, run it down and close
        it (:meth:`~repro.replication.core.ReplicaSet.close`): what a
        stopped fleet reports stays readable, and nothing else waits
        for the cyclic collector."""
        for shard, group in enumerate(self.groups):
            if group.serve_result is None:
                group.stop_serving(f"stop-{shard} halt {shard}")
            group.close()

    # ------------------------------------------------------------------
    def _account(self, fm: FleetServingMetrics,
                 shards: List[ShardServingMetrics],
                 requests: Sequence[Request]) -> None:
        expected = reference_responses(requests)
        by_shard: List[List[Request]] = [[] for _ in range(self.n_shards)]
        for req in requests:
            by_shard[shard_of(req.key, self.n_shards)].append(req)

        for shard, group in enumerate(self.groups):
            sm = shards[shard]
            responses = group.env.responses
            sm.duplicates = responses.duplicates
            sm.generations = len(group.reports)
            if self.voting:
                # A voting group folds its eras itself, beside the
                # quorum counters it owns.
                sm.absorb(group.metrics)
                sm.engine = group.base_config.engine
            else:
                for report in group.reports:
                    for replica in (report.primary_metrics,
                                    report.recovery_metrics):
                        if replica is not None:
                            sm.absorb(replica)
            for req in by_shard[shard]:
                answer = responses.get(req.rid)
                if answer is None:
                    fm.responses_lost += 1
                elif answer != expected[req.rid]:
                    fm.responses_wrong += 1
                else:
                    sm.responses_committed += 1
            fm.absorb(sm)
            fm.responses_committed += sm.responses_committed
            fm.responses_duplicated += sm.duplicates
            fm.failovers_absorbed += sm.failovers_absorbed
        if self.degradation is not None and self.degradation.demoted:
            fm.degraded_to = self.degradation.target_engine
        fm.per_shard = shards
