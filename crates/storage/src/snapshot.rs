//! The [`Snapshot`] trait: how a live object exposes its committed
//! frontier to the checkpoint manager, and how recovery installs one —
//! plus [`DurableObject`], the registry-facing view recovery replays
//! through.

use hcc_core::runtime::{ReplayError, TxnHandle};
use std::sync::Arc;

/// An object whose committed state can be serialized into a checkpoint and
/// restored from one. `hcc-adts` implements it once, for `Object<A>`.
///
/// A snapshot captures exactly the committed frontier — effects of
/// active (uncommitted) transactions are excluded, which the runtime's
/// version/intent split makes natural.
///
/// The three watermark methods are what makes **fuzzy checkpoints**
/// possible: the checkpointer establishes a commit-timestamp watermark
/// `w` under a brief exclusive gate, pins every object's fold horizon at
/// `w` (so commits above `w` can never be compacted into the base
/// version), releases the gate, and then calls `snapshot_at(w)` on each
/// object under that object's own lock while new commits keep flowing.
/// All three are required: an implementation that ignored the watermark
/// would capture commits above it, which recovery then replays again.
pub trait Snapshot {
    /// Serialize the whole committed frontier (every commit so far).
    fn snapshot(&self) -> Vec<u8> {
        self.snapshot_at(u64::MAX)
    }

    /// Serialize the committed frontier **as of commit-timestamp
    /// `watermark`**: exactly the commits with `ts ≤ watermark`, no
    /// matter what commits land while the checkpoint is in flight. Only
    /// meaningful between `pin_horizon(watermark)` and `unpin_horizon`,
    /// or with commits quiesced.
    fn snapshot_at(&self, watermark: u64) -> Vec<u8>;

    /// Forbid compacting commits with `ts > watermark` into the base
    /// version until [`Snapshot::unpin_horizon`] — the fuzzy
    /// checkpointer's guarantee that `snapshot_at(watermark)` can still
    /// separate them out.
    fn pin_horizon(&self, watermark: u64);

    /// Release the pin installed by [`Snapshot::pin_horizon`].
    fn unpin_horizon(&self);

    /// Install `bytes` into this **fresh** object as its base version at
    /// timestamp `ts` (the checkpoint's `last_ts`). This installs state;
    /// it does not commit a transaction: nothing is executed, no lock is
    /// taken, and afterwards the object holds no history at or below
    /// `ts` — tail replay continues at strictly greater timestamps and
    /// reads below `ts` are refused. An object that already has history
    /// refuses and is left untouched.
    fn restore(&self, bytes: &[u8], ts: u64) -> Result<(), SnapshotError>;
}

/// A self-logging object as the recovery registry sees it: named,
/// checkpointable, and able to replay its own redo payloads.
///
/// Implemented once in `hcc-adts`, for `Object<A>`. `hcc-txn`'s `Registry`
/// collects these so recovery can restore checkpoints and replay the WAL
/// tail *by object name*, with each object decoding its own payloads —
/// the inverse of the self-logging write path, with no caller-side
/// dispatch to get wrong.
pub trait DurableObject: Snapshot + Send + Sync {
    /// The object's name (the WAL registry key).
    fn object_name(&self) -> &str;

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
