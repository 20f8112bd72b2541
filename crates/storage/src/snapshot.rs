//! [`DurableObject`]: how a live object exposes its committed frontier
//! to the checkpoint manager, how recovery installs one, and how it
//! replays its own redo payloads.

use hcc_core::runtime::{ReplayError, TxnHandle};
use std::sync::Arc;

/// A self-logging object as checkpoints and recovery see it: named,
/// checkpointable, and able to replay its own redo payloads.
///
/// Implemented once in `hcc-adts`, for `Object<A>`. `hcc-db`'s `Db` keeps
/// these in its one object table so a checkpoint can walk them and
/// recovery can restore checkpoint images and replay the WAL tail *by
/// object name*, with each object decoding its own payloads — the
/// inverse of the self-logging write path, with no caller-side dispatch
/// to get wrong.
///
/// A snapshot captures exactly the committed frontier — effects of
/// active (uncommitted) transactions are excluded, which the runtime's
/// version/intent split makes natural. What makes **fuzzy checkpoints**
/// possible is the watermark: the checkpointer establishes a
/// commit-timestamp watermark `w` under a brief exclusive gate, pins the
/// fold horizon at `w` on the registry its objects share (so commits
/// above `w` can never be compacted into a base version), releases the
/// gate, and then calls `snapshot_at(w)` on each object under that
/// object's own lock while new commits keep flowing.
pub trait DurableObject: Send + Sync {
    /// The object's name (the WAL registry key).
    fn object_name(&self) -> &str;

    /// Serialize the committed frontier **as of commit-timestamp
    /// `watermark`**: exactly the commits with `ts ≤ watermark`, no
    /// matter what commits land while the checkpoint is in flight.
    /// Refused when a commit above the watermark has already been folded
    /// into the object's base version — an object the checkpoint's pin
    /// does not hold — instead of writing that commit into the image,
    /// where recovery would replay it a second time.
    fn snapshot_at(&self, watermark: u64) -> Result<Vec<u8>, SnapshotError>;

    /// Install `bytes` into this **fresh** object as its base version at
    /// timestamp `ts` (the checkpoint's `last_ts`). This installs state;
    /// it does not commit a transaction: nothing is executed, no lock is
    /// taken, and afterwards the object holds no history at or below
    /// `ts` — tail replay continues at strictly greater timestamps and
    /// reads below `ts` are refused. An object that already has history
    /// refuses and is left untouched.
    fn restore(&self, bytes: &[u8], ts: u64) -> Result<(), SnapshotError>;

    /// Replay one redo payload under `txn` (a replay handle), reproducing
    /// the logged response or failing with divergence.
    fn replay_op(&self, txn: &Arc<TxnHandle>, op: &[u8]) -> Result<(), ReplayError>;
}

/// A malformed or inapplicable snapshot payload.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotError(pub String);

impl SnapshotError {
    /// Construct an error.
    pub fn new(msg: impl Into<String>) -> SnapshotError {
        SnapshotError(msg.into())
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot error: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}
