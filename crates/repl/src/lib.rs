//! # hcc-repl — log-shipping replication
//!
//! Replication here is *log shipping with no second apply path*: the
//! primary tails its own live WAL ([`hcc_storage::WalTailer`]), which
//! releases frames in global **ticket order** on what the log states
//! exactly — never on a guess — and streams the raw
//! `len|crc|seq|payload` envelopes over the network protocol
//! ([`hcc_wire::repl`]). The follower's log is the WAL's own writer — a
//! [`hcc_storage::SegmentedWal`] fed the verified frames raw
//! (`append_frames`), so on disk it *is* a primary WAL — and it applies
//! committed transactions through the **recovery replay path**
//! ([`hcc_txn::TxnManager::apply_replicated`], i.e. the same
//! `replay_object_ops` that crash recovery uses). Pinned-response replay
//! is what makes applying in ticket order sound: conflicting
//! transactions can never invert ticket order against timestamp order
//! (the hybrid lock dependency forces the dependent op's ticket above
//! the dependency's commit ticket), and commuting operations — the one
//! case where the orders may disagree — replay to the same state in
//! either order with their original responses pinned.
//!
//! ## The watermark pair
//!
//! A lagging follower serves **consistent-prefix** snapshot reads with
//! zero locks. The primary ([`Primary`]) samples `(stable_watermark,
//! last_issued ticket)` *in that order* and ships the pair in every
//! batch: a commit
//! with timestamp ≤ the watermark has already retired, so its commit
//! record was ticketed at or below the later-read ticket. Once the
//! follower has applied every ticket up to the sample's ticket, exposing
//! the sample's watermark to readers can never show a later transaction
//! without an earlier one. [`Follower`] feeds applicable samples into
//! [`hcc_txn::TxnManager::witness_replicated_watermark`]; reads on the
//! follower's [`hcc_db::Db`] then go through the ordinary wait-free
//! snapshot read path at that mark — and a witnessed mark is a standing
//! fold floor on the follower, so a replica that lags still answers at
//! its own watermark.
//!
//! ## Promotion
//!
//! [`Follower::promote`] turns the replica directory into a primary:
//! stop the stream, cut the log above the last chain-linked commit
//! (`Commit.prev` links every commit to the previous commit ticket
//! store-wide), and reopen the directory with ordinary recovery — which
//! re-anchors the transaction-id space and the logical clock above
//! everything durable. Every fsync-acked commit the follower had durably
//! acked survives.
//!
//! Which records make up a committed transaction is decided in one
//! place, [`hcc_storage::TxnAssembler`]: the follower feeds it every
//! shipped record, as recovery feeds it a whole log, and keeps only its
//! own policy — a committed verdict is applied, a dropped one poisons
//! the replica with the assembler's reason, and promotion cuts at the
//! assembler's last linked commit.
//!
//! Metrics land in the `repl.*` family (primary side in the primary
//! `Db`'s registry, follower side in the follower's); `obscheck`
//! enforces `repl.follower.lag ≥ 0`, acked ≤ shipped, and a converged
//! follower ending at lag 0. See `docs/REPLICATION.md` for the stream
//! format, lag semantics, and what each durability mode promises about
//! acked-but-unshipped commits.

#![warn(missing_docs)]

mod follower;
mod primary;

pub use follower::{Follower, FollowerOptions, ObjectResolver};
pub use primary::Primary;

/// Anything that can go wrong starting or running a replication role.
#[derive(Debug)]
pub enum ReplError {
    /// A socket or file-system failure.
    Io(std::io::Error),
    /// The storage layer refused (corrupt replica log, failed append).
    Storage(hcc_storage::StorageError),
    /// The peer refused the stream (version or token mismatch, or a
    /// protocol violation it reported before closing).
    Refused(String),
    /// Applying a replicated transaction failed (unknown object name,
    /// replay divergence) — the replica cannot continue.
    Apply(String),
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::Io(e) => write!(f, "replication I/O error: {e}"),
            ReplError::Storage(e) => write!(f, "replication storage error: {e}"),
            ReplError::Refused(detail) => write!(f, "replication stream refused: {detail}"),
            ReplError::Apply(detail) => write!(f, "replicated apply failed: {detail}"),
        }
    }
}

impl std::error::Error for ReplError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplError::Io(e) => Some(e),
            ReplError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ReplError {
    fn from(e: std::io::Error) -> ReplError {
        ReplError::Io(e)
    }
}

impl From<hcc_storage::StorageError> for ReplError {
    fn from(e: hcc_storage::StorageError) -> ReplError {
        ReplError::Storage(e)
    }
}
