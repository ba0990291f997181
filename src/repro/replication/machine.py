"""The fault-tolerant JVM facade: primary-backup replication.

:class:`ReplicatedJVM` wires a program, an environment, a coordination
strategy, and a log transport into the paper's architecture:

* the **primary** executes the program with the strategy's hooks
  installed, buffering log records over the channel and performing
  output commit before every output command;
* the **backup is cold**: during normal operation it only accumulates
  the log (the transport's delivered list).  When the primary
  fail-stops (via :class:`~repro.replication.commit.CrashInjector`),
  the failure detector fires and a fresh JVM is built from the
  *identical initial state* (same class registry), which replays the
  log — reproducing lock acquisitions or the thread schedule, adopting
  native results, restoring volatile environment state through
  side-effect handlers, and resolving the one uncertain output — then
  continues live as the new sole machine.

Primary and backup deliberately differ in scheduler seed, clock offset,
and entropy seed: replication must succeed *despite* divergent
non-determinism, which is the paper's entire point.

The lifecycle itself lives in :mod:`repro.replication.core`; the pair
is the :class:`~repro.replication.core.ReplicaSet` that does not
re-integrate.  Strategies resolve through the registry in
:mod:`repro.replication.strategy` (``register_strategy`` adds new ones
without editing this file); transports through
:mod:`repro.replication.transport` (in-memory by default, seeded fault
injection and real localhost TCP as alternatives).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.classfile.loader import ClassRegistry
from repro.env.channel import Channel
from repro.env.environment import Environment
from repro.errors import ReplicationError
from repro.replication.commit import LogShipper
from repro.replication.config import (
    DEFAULT_BACKUP,
    DEFAULT_PRIMARY,
    ReplicaSettings,
)
from repro.replication.core import (
    Epoch,
    Identity,
    ParsedLog,
    Replayer,
    ReplicaSet,
    parse_log,
    register_log_record,
)
from repro.replication.digest import DigestVerifier
from repro.replication.metrics import ReplicationMetrics
from repro.replication.steady import SteadyCheckpointer
from repro.replication.transport import make_transport
from repro.runtime.jvm import JVM, JVMConfig, RunResult
from repro.runtime.natives import NativeRegistry
from repro.runtime.stdlib import default_natives

#: The built-in strategy names (kept for back-compat; the live set is
#: :func:`repro.replication.strategy.strategy_names`).
STRATEGIES = ("lock_sync", "thread_sched", "lock_intervals")


@dataclass
class FailoverResult:
    """Outcome of one replicated run."""

    outcome: str  # "primary_completed" | "failover_completed"
    primary_result: Optional[RunResult]
    backup_result: Optional[RunResult]
    primary_metrics: ReplicationMetrics
    backup_metrics: Optional[ReplicationMetrics]
    crash_event: Optional[int] = None
    detection_intervals: Optional[int] = None

    @property
    def final_result(self) -> RunResult:
        return self.backup_result if self.backup_result is not None \
            else self.primary_result

    @property
    def failed_over(self) -> bool:
        return self.outcome == "failover_completed"


class ReplicatedJVM(ReplicaSet):
    """One fault-tolerant JVM: a primary, a log channel, a cold backup."""

    # The paper's pair survives one failover and then runs alone: no
    # re-integration, and both replicas share the handler instances.
    reintegrates = False
    fresh_handlers = False

    def _configure(self) -> None:
        config = self.config
        if config.hot_backup and config.checkpoint_interval is not None:
            raise ReplicationError(
                "hot_backup replays the delivered log as it arrives; "
                "steady-state checkpoint truncation would drop records "
                "out from under it — use one or the other"
            )
        self.crash_at = config.crash_at
        self.crash_schedule = {0: config.crash_at}
        self.hot_backup = config.hot_backup
        #: The pair's one transport, owned for life (see :meth:`close`).
        self.transport = make_transport(config.transport)
        self._transport_spec = self.transport
        if self.digest_interval is not None:
            self._verifier_type = DigestVerifier
        #: Zeroed until the run arms the primary and installs its own.
        self.primary_metrics = ReplicationMetrics(role="primary")
        #: The replayer behind ``backup_jvm``: the hot backup, the
        #: failover survivor, or :meth:`replay_backup`'s replica.
        self._backup: Optional[Replayer] = None
        #: How far the hot backup had already replayed when the primary
        #: died — the recovery-time advantage over a cold backup,
        #: measurable by tests and benchmarks.
        self.hot_precrash_instructions = 0

    def _identity(self, epoch: int) -> Identity:
        name, settings = (("primary", self.config.primary) if epoch == 0
                          else ("backup", self.config.backup))
        return name, settings, replace(
            self.base_config, scheduler_seed=settings.scheduler_seed
        )

    # ------------------------------------------------------------------
    # The two replicas, as the pair's callers know them
    # ------------------------------------------------------------------
    def _primary(self, attr: str):
        return getattr(self._active, attr) if self._active else None

    @property
    def primary_jvm(self) -> Optional[JVM]:
        return self._primary("jvm")

    @property
    def shipper(self) -> Optional[LogShipper]:
        return self._primary("shipper")

    @property
    def channel(self) -> Optional[Channel]:
        return self._primary("channel")

    @property
    def _steady(self) -> Optional[SteadyCheckpointer]:
        return self._primary("steady")

    @property
    def backup_jvm(self) -> Optional[JVM]:
        return self._backup.jvm if self._backup else None

    @property
    def backup_metrics(self) -> Optional[ReplicationMetrics]:
        return self._backup.metrics if self._backup else None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def clone(self, *, env: Optional[Environment] = None,
              **overrides) -> "ReplicatedJVM":
        """A fresh, runnable machine with this one's configuration.

        A ReplicatedJVM is single-shot (:class:`AlreadyRanError`);
        crash-point sweeps and benchmark repetitions clone the template
        instead of hand re-constructing it.  The clone gets a *new*
        environment (pass ``env=`` to supply one), a fresh transport of
        the same configuration, and *fresh* side-effect handlers
        (``SideEffectHandler.fresh()``), so no run-accumulated handler
        or fault-counter state leaks between sweep iterations; keyword
        ``overrides`` (any :class:`ReplicationConfig` field) adjust the
        copy.
        """
        if "transport" not in overrides:
            spec = self.config.transport
            # A name or factory is re-buildable by make_transport.
            overrides["transport"] = (
                spec if isinstance(spec, str) or callable(spec)
                else self.transport.fresh()
            )
        overrides.setdefault(
            "se_handlers",
            tuple(h.fresh() for h in self._extra_se_handlers),
        )
        return ReplicatedJVM(
            self.registry,
            natives=self.natives,
            env=env or Environment(),
            config=self.config.merged(**overrides),
        )

    def close(self) -> None:
        """Release transport resources (a socket transport's listener
        and connections); the delivered log survives."""
        self.transport.close()

    def _build_backup(self, *, hold: bool, boot=None) -> Replayer:
        """A backup replica over everything delivered so far."""
        self._backup = Replayer(
            self, self._identity(1), role="backup", hold=hold,
            basis=self._ckpt, raw=self.channel.backup_log(), boot=boot,
            make_verifier=self._verifier_type,
        )
        return self._backup

    def _arm(self, jvm, se_manager, recovery_metrics=None) -> Epoch:
        ep = super()._arm(jvm, se_manager, recovery_metrics)
        self.primary_metrics = ep.metrics
        if self.hot_backup:
            # The hot backup runs *during* normal operation: every
            # flushed log message is applied immediately (the paper's
            # 'keeping the backup updated would require only minor
            # modifications'), so recovery at failover is nearly
            # instantaneous — only the undelivered tail remains.
            backup = self._build_backup(hold=True,
                                        boot=(self._main, self._args))
            outer_on_flush = ep.channel.on_flush

            def pumping_flush(n_records: int, n_bytes: int) -> None:
                outer_on_flush(n_records, n_bytes)
                backup.pump(ep.channel.delivered)

            ep.channel.on_flush = pumping_flush
        return ep

    def _recover(self) -> None:
        if not self.hot_backup:
            super()._recover()
            self._backup = self._survivor
            return
        backup = self._backup
        self.hot_precrash_instructions = backup.jvm.instructions
        backup.pump(self.channel.delivered)   # any tail delivered pre-crash
        self._release_hot_backup()
        self._survivor = backup

    def _release_hot_backup(self) -> None:
        """Feed the hot backup the last of the log and lift its hold;
        the caller drives it to completion.  (After a crash the feed
        finds nothing new, so the paused backup does not run again
        before its release.)"""
        backup = self._backup
        backup.pump(self.channel.delivered)
        if backup.result is None:
            backup.release()

    def _result(self, result: RunResult) -> FailoverResult:
        failed_over = self._survivor is not None
        report = self.reports[0]         # both stay None without a crash
        return FailoverResult(
            outcome=("failover_completed" if failed_over
                     else "primary_completed"),
            primary_result=None if failed_over else result,
            backup_result=result if failed_over else None,
            primary_metrics=self.primary_metrics,
            backup_metrics=self.backup_metrics,
            crash_event=report.crash_event,
            detection_intervals=report.detection_intervals,
        )

    def run(self, main_class: str, args: Optional[List[str]] = None
            ) -> FailoverResult:
        """Run with fault tolerance.  If the primary fail-stops (per
        ``crash_at``), the backup detects it, replays, and finishes;
        with ``hot_backup=True`` the backup was replaying all along."""
        outcome = super().run(main_class, args)
        backup = self._backup
        if self.hot_backup and not outcome.failed_over:
            # The primary completed: release the hot backup and drive
            # it to completion over the full log.
            self._release_hot_backup()
            if backup.result is None:
                backup.result = backup.jvm.run_to_completion()
            self._finish_metrics(backup.jvm, backup.metrics)
        return outcome

    def replay_backup(self, main_class: str,
                      args: Optional[List[str]] = None) -> RunResult:
        """Replay the *complete* log at the backup (no crash needed).

        This is the measurement behind Figure 2's backup bars: the
        primary ran to completion; the backup re-executes the program
        driven entirely by the log.  Call after :meth:`run` returned
        ``primary_completed``.
        """
        if self.channel.pending_records:
            self.channel.settle()
        backup = self._build_backup(hold=False, boot=(main_class, args))
        backup.result = backup.jvm.run_to_completion()
        self._finish_metrics(backup.jvm, backup.metrics)
        return backup.result

    def start_serving(self, main_class: str,
                      args: Optional[List[str]] = None, *,
                      port: str) -> None:
        if self.hot_backup:
            raise ReplicationError(
                "serving mode drives the backup only at failover; "
                "hot_backup is not supported here"
            )
        super().start_serving(main_class, args, port=port)


def run_unreplicated(
    registry: ClassRegistry,
    main_class: str,
    args: Optional[List[str]] = None,
    *,
    env: Optional[Environment] = None,
    natives: Optional[NativeRegistry] = None,
    settings: ReplicaSettings = DEFAULT_PRIMARY,
    jvm_config: Optional[JVMConfig] = None,
) -> Tuple[RunResult, JVM]:
    """Run the original, unreplicated JVM (the performance baseline)."""
    env = env or Environment()
    session = env.attach(
        "baseline",
        clock_offset_ms=settings.clock_offset_ms,
        entropy_seed=settings.entropy_seed,
    )
    config = replace(
        jvm_config or JVMConfig(), scheduler_seed=settings.scheduler_seed
    )
    jvm = JVM(registry, natives or default_natives(), session, config,
              name="baseline")
    result = jvm.run(main_class, args)
    return result, jvm
