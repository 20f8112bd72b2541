//! The unified error taxonomy: every way a `Db` interaction can fail,
//! classified **transient** (an expected, retriable outcome of the
//! paper's hybrid scheme — deadlock victims, refused prepare votes, lock
//! timeouts) or **fatal** (storage trouble, recovery divergence, misuse).
//!
//! The classification is the contract [`crate::Db::transact`] retries
//! on: a correct retry loop is impossible to write against four
//! unrelated error types, and trivial against one [`HccError`] with
//! [`HccError::is_transient`].

use hcc_core::runtime::{ExecError, ReplayError};
use hcc_storage::{SnapshotError, StorageError};
use hcc_txn::manager::CommitError;
use hcc_txn::registry::RecoveryError;

/// Anything that can go wrong talking to a [`crate::Db`].
///
/// Lower-layer errors convert in with `?` ([`From`] impls for
/// [`ExecError`], [`CommitError`], [`StorageError`], [`RecoveryError`],
/// [`ReplayError`], [`SnapshotError`], and `std::io::Error`), so a
/// `transact` closure can use the ADT methods directly.
#[derive(Debug)]
pub enum HccError {
    /// An operation execution was refused (deadlock doom, lock timeout,
    /// dead transaction handle).
    Exec(ExecError),
    /// A commit was refused; the transaction was aborted at every object.
    Commit(CommitError),
    /// The storage layer failed (I/O, corruption, refused checkpoint).
    Storage(StorageError),
    /// Recovery could not rebuild the durable state.
    Recovery(RecoveryError),
    /// A logged operation failed to replay at its object.
    Replay(ReplayError),
    /// [`crate::Db::object`] was asked for a name that is already open as
    /// a different type — handing out the same state under two types
    /// would fork its history.
    TypeMismatch {
        /// The contested object name.
        object: String,
        /// The type the caller requested.
        requested: &'static str,
    },
    /// [`crate::Db::object_with`] was asked for a name that is already
    /// open under a different conflict relation — one object runs one
    /// relation.
    DuplicateObject {
        /// The contested object name.
        object: String,
    },
    /// The `transact` closure itself asked for the transaction to be
    /// rolled back — an application decision, not an infrastructure
    /// failure. Fatal by classification: the caller chose to abort, so
    /// retrying would be wrong.
    Rollback {
        /// The closure's stated reason.
        reason: String,
    },
    /// A snapshot read asked for a timestamp that compaction has already
    /// folded past: the requested image no longer exists anywhere, at
    /// this or any future attempt. Fatal — pick a newer timestamp.
    SnapshotCompacted {
        /// The watermark the reader asked for.
        requested: u64,
        /// The lowest timestamp still readable (the compaction floor).
        floor: u64,
    },
    /// A snapshot read's timestamp is not readable *right now*: either
    /// it lies above the stable watermark (commits at or below it are
    /// still in flight), or a concurrent fold overtook the watermark
    /// between choosing and pinning it. Transient — re-picking a fresh
    /// watermark (which any racing fold is below) succeeds;
    /// [`crate::Db::transact_read`] does so automatically.
    SnapshotContended {
        /// The timestamp that is not currently readable.
        requested: u64,
    },
    /// A `transact` closure kept failing transiently past the configured
    /// retry budget; `last` is the final attempt's error.
    RetriesExhausted {
        /// Attempts made (initial try included).
        attempts: u32,
        /// The error the final attempt died with.
        last: Box<HccError>,
    },
    /// Admission control shed the request: the session (or the server as
    /// a whole) already had `cap` requests in flight, and bounded-queue
    /// discipline refuses the excess instead of buffering it unboundedly.
    /// Transient — the request was **not** executed; back off and retry.
    Overloaded {
        /// Requests in flight against the cap at refusal time.
        in_flight: u32,
        /// The cap that was hit.
        cap: u32,
    },
    /// The server refused a request fatally: a value the wire cannot
    /// carry, or a failure behind the request that retrying cannot fix
    /// (storage, recovery, the application's rollback). Nothing of the
    /// request was applied and the session stays open for the next one.
    Refused {
        /// The server's reason.
        detail: String,
    },
    /// The wire protocol was violated: version/handshake refusal, a torn
    /// or corrupt frame, an unexpected or malformed message, or a
    /// connection lost with a request's outcome unknown. Fatal — the
    /// session is closed; blind resubmission could double-apply effects.
    Protocol(
        /// What the peer (or the path to it) did wrong.
        String,
    ),
}

impl HccError {
    /// An application-level rollback request for a `transact` closure:
    /// `return Err(HccError::rollback("insufficient funds"))` aborts the
    /// transaction without retrying.
    pub fn rollback(reason: impl Into<String>) -> HccError {
        HccError::Rollback { reason: reason.into() }
    }

    /// Is this an *expected, transient* outcome of the hybrid scheme —
    /// one a fresh attempt of the same transaction may well survive?
    ///
    /// Transient: a doom — a deadlock victim's, or one of a lost log
    /// record ([`ExecError::Doomed`], [`CommitError::Doomed`]), a
    /// lock-wait timeout
    /// ([`ExecError::Timeout`]), a no-wait attempt that would have waited
    /// ([`ExecError::WouldBlock`]), a refused prepare vote
    /// ([`CommitError::PrepareFailed`]), and a request shed by admission
    /// control ([`HccError::Overloaded`] — refused *before* execution).
    /// In every transient case the transaction has already been aborted
    /// at all objects (or never started), so retrying re-applies
    /// nothing.
    ///
    /// Fatal (everything else): storage and recovery failures, replay
    /// divergence, dead handles, facade misuse. Retrying cannot help and
    /// may hide data loss — [`crate::Db::transact`] surfaces these
    /// immediately.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            HccError::Exec(ExecError::Doomed | ExecError::Timeout | ExecError::WouldBlock)
                | HccError::Commit(CommitError::Doomed | CommitError::PrepareFailed { .. })
                | HccError::SnapshotContended { .. }
                | HccError::Overloaded { .. }
        )
    }
}

impl std::fmt::Display for HccError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HccError::Exec(e) => write!(f, "{e}"),
            HccError::Commit(e) => write!(f, "{e}"),
            HccError::Storage(e) => write!(f, "{e}"),
            HccError::Recovery(e) => write!(f, "{e}"),
            HccError::Replay(e) => write!(f, "{e}"),
            HccError::TypeMismatch { object, requested } => {
                write!(f, "object {object:?} is already open as a different type than {requested}")
            }
            HccError::DuplicateObject { object } => {
                write!(f, "object {object:?} is already open under a different conflict relation")
            }
            HccError::SnapshotCompacted { requested, floor } => {
                write!(
                    f,
                    "snapshot at timestamp {requested} is no longer readable: compaction \
                     has folded history up to {floor}"
                )
            }
            HccError::SnapshotContended { requested } => {
                write!(
                    f,
                    "snapshot at timestamp {requested} is not readable right now \
                     (in-flight commits or a concurrent fold); retry at a fresh watermark"
                )
            }
            HccError::Rollback { reason } => {
                write!(f, "transaction rolled back by the application: {reason}")
            }
            HccError::RetriesExhausted { attempts, last } => {
                write!(f, "transaction still failing transiently after {attempts} attempts: {last}")
            }
            HccError::Overloaded { in_flight, cap } => {
                write!(
                    f,
                    "request shed by admission control: {in_flight} requests in flight at \
                     cap {cap}; back off and retry"
                )
            }
            HccError::Refused { detail } => {
                write!(
                    f,
                    "the server refused the request: {detail} (nothing was applied; the \
                     session stays open)"
                )
            }
            HccError::Protocol(what) => {
                write!(f, "wire protocol violation: {what}")
            }
        }
    }
}

impl std::error::Error for HccError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HccError::Exec(e) => Some(e),
            HccError::Commit(e) => Some(e),
            HccError::Storage(e) => Some(e),
            HccError::Recovery(e) => Some(e),
            HccError::Replay(e) => Some(e),
            HccError::RetriesExhausted { last, .. } => Some(last),
            HccError::TypeMismatch { .. }
            | HccError::DuplicateObject { .. }
            | HccError::SnapshotCompacted { .. }
            | HccError::SnapshotContended { .. }
            | HccError::Rollback { .. }
            | HccError::Overloaded { .. }
            | HccError::Refused { .. }
            | HccError::Protocol(_) => None,
        }
    }
}

impl From<ExecError> for HccError {
    fn from(e: ExecError) -> HccError {
        HccError::Exec(e)
    }
}

impl From<CommitError> for HccError {
    fn from(e: CommitError) -> HccError {
        HccError::Commit(e)
    }
}

impl From<StorageError> for HccError {
    fn from(e: StorageError) -> HccError {
        HccError::Storage(e)
    }
}

impl From<RecoveryError> for HccError {
    fn from(e: RecoveryError) -> HccError {
        HccError::Recovery(e)
    }
}

impl From<ReplayError> for HccError {
    fn from(e: ReplayError) -> HccError {
        HccError::Replay(e)
    }
}

impl From<SnapshotError> for HccError {
    fn from(e: SnapshotError) -> HccError {
        HccError::Recovery(RecoveryError::Snapshot(e))
    }
}

impl From<std::io::Error> for HccError {
    fn from(e: std::io::Error) -> HccError {
        HccError::Storage(StorageError::Io(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_the_taxonomy() {
        assert!(HccError::from(ExecError::Doomed).is_transient());
        assert!(HccError::from(ExecError::Timeout).is_transient());
        assert!(HccError::from(ExecError::WouldBlock).is_transient());
        assert!(!HccError::from(ExecError::NotActive).is_transient());
        assert!(HccError::from(CommitError::Doomed).is_transient());
        assert!(HccError::from(CommitError::PrepareFailed { object: "a".into() }).is_transient());
        assert!(!HccError::from(CommitError::NotActive).is_transient());
        assert!(!HccError::from(CommitError::Storage("disk on fire".into())).is_transient());
        assert!(!HccError::from(StorageError::Io(std::io::Error::other("x"))).is_transient());
        let exhausted = HccError::RetriesExhausted {
            attempts: 3,
            last: Box::new(HccError::from(CommitError::Doomed)),
        };
        assert!(!exhausted.is_transient(), "an exhausted budget is final");
        assert!(HccError::SnapshotContended { requested: 7 }.is_transient());
        assert!(
            !HccError::SnapshotCompacted { requested: 3, floor: 9 }.is_transient(),
            "a folded-away image never comes back"
        );
        assert!(
            HccError::Overloaded { in_flight: 9, cap: 8 }.is_transient(),
            "a shed request was never executed; backing off and retrying is safe"
        );
        assert!(
            !HccError::Refused { detail: "no i64".into() }.is_transient(),
            "a retry cannot fix what the server refused"
        );
        assert!(
            !HccError::Protocol("torn frame".into()).is_transient(),
            "resubmitting over a violated protocol could double-apply"
        );
    }

    #[test]
    fn display_is_honest_prose_not_debug() {
        let e = HccError::from(CommitError::Doomed);
        let msg = format!("{e}");
        assert!(!msg.contains("Doomed"), "no bare Debug variant name: {msg}");
        assert!(msg.contains("deadlock"), "says why: {msg}");
        let e = HccError::from(ExecError::Timeout);
        assert!(format!("{e}").contains("timeout"), "{e}");
        let e = HccError::SnapshotCompacted { requested: 3, floor: 9 };
        let msg = format!("{e}");
        assert!(!msg.contains("SnapshotCompacted"), "no bare Debug variant name: {msg}");
        assert!(msg.contains("compaction"), "says why: {msg}");
        let e = HccError::SnapshotContended { requested: 3 };
        assert!(format!("{e}").contains("retry"), "{e}");
        let e = HccError::Overloaded { in_flight: 9, cap: 8 };
        let msg = format!("{e}");
        assert!(!msg.contains("Overloaded"), "no bare Debug variant name: {msg}");
        assert!(msg.contains("shed") && msg.contains('9') && msg.contains('8'), "{msg}");
        let e = HccError::Refused { detail: "value out of range".into() };
        let msg = format!("{e}");
        assert!(!msg.contains("Refused"), "no bare Debug variant name: {msg}");
        assert!(msg.contains("nothing was applied") && msg.contains("out of range"), "{msg}");
        let e = HccError::Protocol("frame CRC mismatch".into());
        assert!(format!("{e}").contains("protocol violation"), "{e}");
    }

    #[test]
    fn source_chains_to_the_lower_layer() {
        use std::error::Error as _;
        let e = HccError::from(StorageError::Io(std::io::Error::other("boom")));
        assert!(e.source().is_some());
        let e = HccError::RetriesExhausted {
            attempts: 2,
            last: Box::new(HccError::from(CommitError::Doomed)),
        };
        assert!(e.source().unwrap().to_string().contains("deadlock"));
    }
}
