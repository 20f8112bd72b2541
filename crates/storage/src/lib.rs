//! # hcc-storage — the durable storage subsystem
//!
//! The paper's recovery story is intentions lists: aborted transactions'
//! effects are never merged into the committed state, and replaying the
//! committed operations in commit-timestamp order — exactly the
//! serialization order hybrid atomicity guarantees — rebuilds every
//! object. This crate makes that story production-shaped:
//!
//! * [`record`] — length-prefixed, CRC32-protected binary log records with
//!   torn-tail detection; op records carry compact object **registry
//!   ids**, bound to names by durable `Register` records;
//! * [`wal`] — a segmented write-ahead log, one append stream of
//!   ticketed records with rotation and leader-based **group commit**:
//!   concurrent committers share one fsync per batch;
//! * [`checkpoint`] — durable snapshots of the committed frontier, so
//!   recovery starts from the newest checkpoint and replays only the tail
//!   instead of the whole history;
//! * [`policy`] — the [`CompactionPolicy`] (never, every N commits, or
//!   the default: the log doubled since the last checkpoint, above a
//!   record-count floor) deciding when to checkpoint and delete dead
//!   segments;
//! * [`snapshot`] — [`DurableObject`], the one trait every ADT
//!   implements: named, snapshotted at a watermark (checked: an object
//!   folded past it refuses), restored and replayed by recovery;
//! * [`store`] — [`DurableStore`], the façade `hcc-txn`'s manager logs
//!   through, plus [`DurableStore::recover`] and [`TxnAssembler`], the
//!   one reader that decides which logged records make up a committed
//!   transaction (recovery and the replication follower both feed it);
//! * [`tail`] — [`WalTailer`], an incremental ticket-ordered reader over
//!   the live WAL ([`DurableStore::tail`], the replication shipper's
//!   source), released only on what the log states exactly. The
//!   follower's log is the same [`SegmentedWal`], fed the shipped frames
//!   raw ([`SegmentedWal::append_frames`]), so promotion is a
//!   [`wal::truncate_above`] plus plain recovery.
//!
//! The durability knob ([`Durability`]: Buffered / Fsync) is defined in
//! [`wal`], the one place that acts on it; see `docs/DURABILITY.md` at the
//! workspace root for the format and protocol descriptions.

pub mod checkpoint;
pub mod policy;
pub mod record;
pub mod snapshot;
pub mod store;
pub mod tail;
pub mod wal;

pub use checkpoint::Checkpoint;
pub use policy::{CompactionPolicy, LogStats};
pub use record::LogRecord;
pub use snapshot::{DurableObject, SnapshotError};
pub use store::{
    durability_env_override, CheckpointCursor, CommittedTxn, DurableStore, InDoubtTxn, OpenImage,
    Recovered, StorageOptions, TxnAssembler, Verdict,
};
pub use tail::WalTailer;
pub use wal::{Durability, SegmentedWal, WalOptions};

/// Anything that can go wrong in the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// An I/O failure.
    Io(std::io::Error),
    /// A segment holds an undecodable frame where none may be: in a
    /// non-final segment, or anywhere a live log's tailer reads.
    Corrupt {
        /// The damaged segment's index.
        segment: u64,
        /// What failed to decode.
        detail: String,
    },
    /// Two different transactions logged commit records with the same
    /// timestamp. Timestamps are the replay order; recovering either one
    /// silently would drop the other's acknowledged effects.
    TimestampCollision {
        /// The colliding timestamp.
        ts: u64,
        /// The first transaction seen with it.
        first: u64,
        /// The second transaction seen with it.
        second: u64,
    },
    /// A checkpoint was requested over a store opened on a log with prior
    /// commits that the live objects have not absorbed (the image the
    /// store's open returned was not installed into them and attested
    /// with `mark_state_absorbed`; under `Db`, a logged name is still
    /// unopened): taking it would claim coverage of history the
    /// snapshots do not contain, then prune it.
    UnabsorbedHistory {
        /// The watermark the snapshots would wrongly claim to cover.
        last_ts: u64,
    },
    /// An op record references a registry id with no surviving `Register`
    /// binding — the log lost the id→name mapping it needed.
    UnknownObjectId {
        /// The unresolvable registry id.
        id: u64,
        /// The transaction whose op used it.
        txn: u64,
    },
    /// The log directory holds segments under a `stripe-NN` directory
    /// other than the one stream's: it was written as a striped
    /// (multi-stream) log, which this build cannot read. Nothing was
    /// opened, repaired or modified.
    StripedLayout {
        /// The offending stream directory.
        dir: std::path::PathBuf,
    },
    /// A snapshot payload could not be installed.
    Snapshot(snapshot::SnapshotError),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Corrupt { segment, detail } => {
                write!(f, "segment {segment} is corrupt: {detail}")
            }
            StorageError::TimestampCollision { ts, first, second } => {
                write!(f, "transactions {first} and {second} both committed at ts {ts}")
            }
            StorageError::UnabsorbedHistory { last_ts } => {
                write!(
                    f,
                    "checkpoint refused: the log holds commits through ts {last_ts} that the \
                     live objects have not absorbed (open every logged object first)"
                )
            }
            StorageError::UnknownObjectId { id, txn } => {
                write!(f, "op record of txn {txn} references unregistered object id {id}")
            }
            StorageError::StripedLayout { dir } => {
                write!(
                    f,
                    "{} holds log segments: this directory was written as a striped \
                     (multi-stream) log, and the log is now one stream under `{}`. Commit \
                     601d196 is the last build able to read it; nothing was modified",
                    dir.display(),
                    wal::STREAM_DIR
                )
            }
            StorageError::Snapshot(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> StorageError {
        StorageError::Io(e)
    }
}

impl From<snapshot::SnapshotError> for StorageError {
    fn from(e: snapshot::SnapshotError) -> StorageError {
        StorageError::Snapshot(e)
    }
}
