//! The recovery registry: named self-logging objects, and the replay loop
//! that rebuilds them from a recovered log.
//!
//! Self-logging closes the write half of the forget-to-log hole; the
//! registry closes the read half. Callers register each durable object
//! once (by the name it logs under) and recovery dispatches checkpoint
//! snapshots and WAL-tail redo payloads to the right object
//! automatically — there is no hand-written `match object.as_str()`
//! replay loop left to get wrong.

use hcc_core::runtime::{ReplayError, TxnHandle, TxnPhase};
use hcc_spec::TxnId;
use hcc_storage::{CommittedTxn, DurableObject, Recovered, SnapshotError, StorageError};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Commit decisions recovered from a coordinator's log: `txn → ts`.
pub type Decisions = BTreeMap<u64, u64>;

/// Why recovery-into-a-registry failed. All variants are fatal: the log
/// and the registered objects disagree, and guessing would fabricate or
/// drop acknowledged effects.
#[derive(Debug)]
pub enum RecoveryError {
    /// Reading the durable state failed.
    Storage(StorageError),
    /// The log references an object nobody registered.
    UnknownObject {
        /// The name the log knows and the registry does not.
        object: String,
    },
    /// A checkpoint snapshot could not be installed.
    Snapshot(SnapshotError),
    /// A redo payload failed to replay at its object.
    Replay {
        /// The object being replayed into.
        object: String,
        /// What went wrong.
        error: ReplayError,
    },
    /// A coordinator decision resolves an in-doubt transaction at a
    /// timestamp the restored checkpoint already claims to cover — the
    /// snapshot excludes the transaction (it never committed locally), so
    /// replaying it below the watermark would apply it out of timestamp
    /// order. The log and the checkpoint disagree; refusing is the only
    /// honest outcome.
    DecisionBelowCheckpoint {
        /// The in-doubt transaction.
        txn: u64,
        /// Its decided commit timestamp.
        ts: u64,
        /// The restored checkpoint's watermark.
        checkpoint_ts: u64,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Storage(e) => write!(f, "recovery: {e}"),
            RecoveryError::UnknownObject { object } => {
                write!(f, "recovery: log references unregistered object {object:?}")
            }
            RecoveryError::Snapshot(e) => write!(f, "recovery: {e}"),
            RecoveryError::Replay { object, error } => {
                write!(f, "recovery at object {object:?}: {error}")
            }
            RecoveryError::DecisionBelowCheckpoint { txn, ts, checkpoint_ts } => {
                write!(
                    f,
                    "recovery: decided in-doubt txn {txn} at ts {ts} lies at or below the \
                     checkpoint watermark {checkpoint_ts}"
                )
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<StorageError> for RecoveryError {
    fn from(e: StorageError) -> RecoveryError {
        RecoveryError::Storage(e)
    }
}

impl From<SnapshotError> for RecoveryError {
    fn from(e: SnapshotError) -> RecoveryError {
        RecoveryError::Snapshot(e)
    }
}

/// What a registry replay accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The restored checkpoint's watermark (0 = no checkpoint).
    pub checkpoint_ts: u64,
    /// Committed tail transactions replayed.
    pub replayed: usize,
    /// Was a torn tail dropped from the final log segment?
    pub torn_tail: bool,
}

/// A set of named durable objects — everything the transaction manager
/// checkpoints and recovery replays into.
#[derive(Default)]
pub struct Registry {
    objects: BTreeMap<String, Arc<dyn DurableObject>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Register a durable object under the name it logs as.
    ///
    /// # Panics
    /// Panics if the name is already registered — two objects logging
    /// under one name would merge their histories at recovery.
    pub fn register(&mut self, obj: Arc<dyn DurableObject>) -> &mut Registry {
        let name = obj.object_name().to_string();
        let prev = self.objects.insert(name.clone(), obj);
        assert!(prev.is_none(), "object {name:?} registered twice");
        self
    }

    /// The object registered under `name`.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn DurableObject>> {
        self.objects.get(name)
    }

    /// Registered names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.objects.keys().map(String::as_str)
    }

    /// The registered objects as checkpointable `(name, snapshot)` pairs.
    pub fn snapshot_refs(&self) -> Vec<(&str, &dyn hcc_storage::Snapshot)> {
        self.objects.iter().map(|(n, o)| (n.as_str(), o.as_ref() as _)).collect()
    }

    fn object(&self, name: &str) -> Result<&Arc<dyn DurableObject>, RecoveryError> {
        self.get(name).ok_or_else(|| RecoveryError::UnknownObject { object: name.to_string() })
    }

    /// Install a recovered checkpoint's snapshots into the registered
    /// objects.
    pub fn restore_checkpoint(&self, ckpt: &hcc_storage::Checkpoint) -> Result<(), RecoveryError> {
        for (name, data) in &ckpt.objects {
            self.object(name)?.restore(data, ckpt.last_ts)?;
        }
        Ok(())
    }

    /// Replay one recovered transaction: each redo payload at its object
    /// (reproducing the logged response or failing), then the commit event
    /// at the recovered timestamp at every object it touched.
    pub fn replay_txn(
        &self,
        txn: u64,
        ts: u64,
        ops: &[(String, Vec<u8>)],
    ) -> Result<(), RecoveryError> {
        let t = TxnHandle::replay(TxnId(txn));
        for (object, bytes) in ops {
            self.object(object)?
                .replay_op(&t, bytes)
                .map_err(|error| RecoveryError::Replay { object: object.clone(), error })?;
        }
        t.set_phase(TxnPhase::Committed(ts));
        for p in t.participants() {
            p.commit_at(t.id(), ts);
        }
        Ok(())
    }

    /// Rebuild the registered objects from a [`Recovered`] log image:
    /// checkpoint snapshots first, then the committed tail in timestamp
    /// order. In-doubt transactions are ignored (single-site semantics);
    /// distributed sites resolve them with
    /// [`Registry::restore_and_replay_resolved`].
    pub fn restore_and_replay(
        &self,
        recovered: Recovered,
    ) -> Result<RecoveryReport, RecoveryError> {
        self.restore_and_replay_resolved(recovered, &Decisions::new())
    }

    /// [`Registry::restore_and_replay`] for a 2PC participant: in-doubt
    /// transactions resolve against the coordinator's `decisions` by the
    /// [`resolve_committed`] rule before the tail replays.
    pub fn restore_and_replay_resolved(
        &self,
        mut recovered: Recovered,
        decisions: &Decisions,
    ) -> Result<RecoveryReport, RecoveryError> {
        let mut report = RecoveryReport { torn_tail: recovered.torn_tail, ..Default::default() };
        if let Some(ckpt) = &recovered.checkpoint {
            self.restore_checkpoint(ckpt)?;
            report.checkpoint_ts = ckpt.last_ts;
        }
        for c in resolve_committed(&mut recovered, decisions)? {
            self.replay_txn(c.txn, c.ts, &c.ops)?;
            report.replayed += 1;
        }
        Ok(report)
    }
}

/// Merge a [`Recovered`] image's committed tail with its *decided*
/// in-doubt transactions into one replay-ordered list — the single
/// authority on the 2PC resolution rule, shared by
/// [`Registry::restore_and_replay_resolved`] and `hcc-db`'s lazy
/// materialization. In-doubt transactions (ops logged, no local
/// completion record — the site crashed between its yes-vote and the
/// phase-2 message) with a coordinator decision replay as committed at
/// the decided timestamp, merged in `(ts, txn)` order with the locally
/// decided tail; undecided ones are dropped (no decision record means
/// abort). A decision at or below the checkpoint watermark is refused as
/// [`RecoveryError::DecisionBelowCheckpoint`]: the snapshot excludes the
/// transaction, so replaying it below the watermark would apply it out
/// of timestamp order. The payloads are *moved* out of `recovered`
/// (whose checkpoint and flags are left untouched), not copied.
pub fn resolve_committed(
    recovered: &mut Recovered,
    decisions: &Decisions,
) -> Result<Vec<CommittedTxn>, RecoveryError> {
    let checkpoint_ts = recovered.checkpoint.as_ref().map_or(0, |c| c.last_ts);
    for in_doubt in &recovered.in_doubt {
        if let Some(&ts) = decisions.get(&in_doubt.txn) {
            if ts <= checkpoint_ts {
                return Err(RecoveryError::DecisionBelowCheckpoint {
                    txn: in_doubt.txn,
                    ts,
                    checkpoint_ts,
                });
            }
        }
    }
    let mut committed = std::mem::take(&mut recovered.committed);
    for in_doubt in std::mem::take(&mut recovered.in_doubt) {
        if let Some(&ts) = decisions.get(&in_doubt.txn) {
            committed.push(CommittedTxn { ts, txn: in_doubt.txn, ops: in_doubt.ops });
        }
    }
    committed.sort_by_key(|c| (c.ts, c.txn));
    Ok(committed)
}

/// Replay one recovered transaction's operations **at a single object**
/// — the per-object half of [`Registry::replay_txn`], used by `hcc-db`'s
/// name-by-name materialization (which recovers each object as its
/// typed handle is first opened, so a multi-object transaction replays
/// at each of its objects separately, under the same protocol): every
/// payload replays pinned to its logged response, then the commit event
/// is delivered at the recovered timestamp.
pub fn replay_object_ops(
    obj: &dyn DurableObject,
    txn: u64,
    ts: u64,
    ops: &[Vec<u8>],
) -> Result<(), RecoveryError> {
    let t = TxnHandle::replay(TxnId(txn));
    for bytes in ops {
        obj.replay_op(&t, bytes).map_err(|error| RecoveryError::Replay {
            object: obj.object_name().to_string(),
            error,
        })?;
    }
    t.set_phase(TxnPhase::Committed(ts));
    for p in t.participants() {
        p.commit_at(t.id(), ts);
    }
    Ok(())
}
