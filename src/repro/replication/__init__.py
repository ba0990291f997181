"""Primary-backup replication of the mini-JVM (the paper's contribution)."""

from repro.replication.config import (
    ReplicationConfig, ReplicaSettings, DEFAULT_PRIMARY, DEFAULT_BACKUP,
)
from repro.replication.machine import (
    ReplicatedJVM, FailoverResult, run_unreplicated,
    STRATEGIES, ParsedLog, parse_log, register_log_record,
)
from repro.replication.metrics import ReplicationMetrics
from repro.replication.records import (
    IdMap, LockAcqRecord, LockIntervalRecord, ScheduleRecord,
    NativeResultRecord, OutputIntentRecord, SideEffectRecord,
    EpochRecord, KIND_EPOCH,
    encode, decode_record, register_record_kind, FIRST_CUSTOM_KIND,
)
from repro.replication.commit import LogShipper, CrashInjector, EpochFence
from repro.replication.checkpoint import (
    Checkpoint, CheckpointAssembler, CheckpointChunkRecord,
    take_checkpoint, restore_checkpoint, first_dispatch_vid,
    DEFAULT_CHUNK_BYTES,
)
from repro.replication.supervisor import (
    ReplicaGroup, GroupResult, GenerationReport,
    default_generation_settings,
)
from repro.replication.digest import (
    DigestRecord, DigestEmitter, DigestVerifier, KIND_DIGEST,
)
from repro.runtime.digest import StateDigest, compute_state_digest
from repro.replication.failure import FailureDetector
from repro.replication.strategy import (
    CoordinationStrategy, PrimaryDriver, BackupDriver,
    AdmissionPrimaryDriver, AdmissionBackupDriver,
    SchedulerPrimaryDriver, SchedulerBackupDriver,
    LockSyncStrategy, ThreadSchedStrategy, LockIntervalsStrategy,
    register_strategy, resolve_strategy, strategy_names,
)
from repro.replication.transport import (
    Transport, TransportStats, InMemoryTransport, FaultyTransport,
    SocketTransport, FaultProfile, FAULT_PROFILES, make_transport,
)
from repro.replication.lock_sync import PrimaryLockSync, BackupLockSync
from repro.replication.lock_intervals import (
    PrimaryIntervalLockSync, BackupIntervalLockSync,
)
from repro.replication.thread_sched import (
    PrimarySchedController, BackupSchedController,
)
from repro.replication.ndnatives import PrimaryNativePolicy, BackupNativePolicy
from repro.replication.sehandlers import (
    SideEffectHandler, SideEffectManager, FileSEHandler, ConsoleSEHandler,
    ResponseSEHandler,
)

__all__ = [
    "ReplicatedJVM", "FailoverResult", "ReplicaSettings", "run_unreplicated",
    "ReplicationConfig",
    "DEFAULT_PRIMARY", "DEFAULT_BACKUP", "STRATEGIES",
    "ParsedLog", "parse_log", "register_log_record",
    "ReplicationMetrics",
    "IdMap", "LockAcqRecord", "ScheduleRecord", "NativeResultRecord",
    "OutputIntentRecord", "SideEffectRecord", "encode", "decode_record",
    "register_record_kind", "FIRST_CUSTOM_KIND",
    "EpochRecord", "KIND_EPOCH", "EpochFence",
    "Checkpoint", "CheckpointAssembler", "CheckpointChunkRecord",
    "take_checkpoint", "restore_checkpoint", "first_dispatch_vid",
    "DEFAULT_CHUNK_BYTES",
    "ReplicaGroup", "GroupResult", "GenerationReport",
    "default_generation_settings",
    "LogShipper", "CrashInjector", "FailureDetector",
    "StateDigest", "DigestRecord", "DigestEmitter", "DigestVerifier",
    "compute_state_digest", "KIND_DIGEST",
    "CoordinationStrategy", "PrimaryDriver", "BackupDriver",
    "AdmissionPrimaryDriver", "AdmissionBackupDriver",
    "SchedulerPrimaryDriver", "SchedulerBackupDriver",
    "LockSyncStrategy", "ThreadSchedStrategy", "LockIntervalsStrategy",
    "register_strategy", "resolve_strategy", "strategy_names",
    "Transport", "TransportStats", "InMemoryTransport", "FaultyTransport",
    "SocketTransport", "FaultProfile", "FAULT_PROFILES", "make_transport",
    "PrimaryLockSync", "BackupLockSync",
    "PrimaryIntervalLockSync", "BackupIntervalLockSync",
    "LockIntervalRecord",
    "PrimarySchedController", "BackupSchedController",
    "PrimaryNativePolicy", "BackupNativePolicy",
    "SideEffectHandler", "SideEffectManager", "FileSEHandler",
    "ConsoleSEHandler", "ResponseSEHandler",
]
