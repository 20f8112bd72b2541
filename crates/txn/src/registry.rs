//! The recovery vocabulary `hcc-db` materializes with: the 2PC
//! resolution rule ([`resolve_committed`]), the one replay step
//! ([`replay_object_ops`]), and the error/report types.
//!
//! Nothing here names objects, restores a checkpoint image or drives a
//! replay loop: `hcc_db::Db` is the only recovery front end, and its one
//! object table holds each name from logged to open (it recovers each
//! object as its handle is opened, and hands its checkpoint the open
//! objects). A replication follower applies shipped commits through the
//! same [`replay_object_ops`] via `TxnManager::apply_replicated`.

use hcc_core::runtime::{ReplayError, TxnHandle, TxnPhase};
use hcc_spec::TxnId;
use hcc_storage::{CommittedTxn, DurableObject, Recovered, SnapshotError, StorageError};
use std::collections::BTreeMap;

/// Commit decisions recovered from a coordinator's log: `txn → ts`.
pub type Decisions = BTreeMap<u64, u64>;

/// Why recovery failed. All variants are fatal: the log and the live
/// objects disagree, and guessing would fabricate or drop acknowledged
/// effects.
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

/// What a recovery accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The restored checkpoint's watermark (0 = no checkpoint).
    pub checkpoint_ts: u64,
    /// Committed tail transactions replayed.
    pub replayed: usize,
    /// Was a torn tail dropped from the final log segment?
    pub torn_tail: bool,
}

/// Merge a [`Recovered`] image's committed tail with its *decided*
/// in-doubt transactions into one replay-ordered list — the single
/// authority on the 2PC resolution rule. In-doubt transactions (ops logged, no local
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
/// — the one replay step, used by `hcc-db`'s name-by-name
/// materialization (which recovers each object as its typed handle is
/// first opened, so a multi-object transaction replays at each of its
/// objects separately, under the same protocol) and by a follower's
/// apply: every payload replays pinned to its logged response, then the
/// commit event is delivered at the recovered timestamp.
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
