//! When to checkpoint and compact: a policy state machine in the style of
//! ATE's chain-compaction `CompactMode`.
//!
//! The policy is consulted after every committed transaction with the log's
//! current [`LogStats`]; when it fires, the owner takes a checkpoint and
//! deletes dead segments. There are three policies: never, every N commits,
//! and the default — every doubling of the log, but only once 1 024
//! records have accumulated, so that tiny logs are never compacted no
//! matter how fast they grow proportionally.

/// Records that must have accumulated since the last checkpoint before the
/// default doubling policy may fire (suppresses churn on near-empty logs).
const DOUBLING_FLOOR: u64 = 1024;

/// Aggregate statistics about the log, fed to the policy.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LogStats {
    /// Commits appended since the last checkpoint.
    pub commits_since_checkpoint: u64,
    /// Records of any kind appended since the last checkpoint.
    pub records_since_checkpoint: u64,
    /// Total log size (bytes) at the moment of the last checkpoint.
    pub bytes_at_last_checkpoint: u64,
    /// Total log size now (live segments only).
    pub total_bytes: u64,
    /// Number of live segments.
    pub segments: u64,
}

/// When a compaction (checkpoint + dead-segment deletion) should occur.
#[derive(Clone, Copy, Debug, PartialEq)]
enum CompactMode {
    /// Never compact: the log is append-only forever (replay is O(history)).
    Never,
    /// Compact after every `n` committed transactions.
    EveryN(u64),
    /// Compact when the log has doubled since the last checkpoint, once
    /// `DOUBLING_FLOOR` records have accumulated.
    Doubling,
}

/// The compaction policy: [`CompactionPolicy::never`],
/// [`CompactionPolicy::every_n`], or the default doubling policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompactionPolicy {
    mode: CompactMode,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        // Doubling-triggered compaction with a modest floor: bounded replay
        // without checkpoint storms.
        CompactionPolicy { mode: CompactMode::Doubling }
    }
}

impl CompactionPolicy {
    /// A policy that never compacts.
    pub fn never() -> CompactionPolicy {
        CompactionPolicy { mode: CompactMode::Never }
    }

    /// Compact every `n` commits.
    pub fn every_n(n: u64) -> CompactionPolicy {
        CompactionPolicy { mode: CompactMode::EveryN(n) }
    }

    /// Should the owner checkpoint now?
    pub fn should_compact(&self, stats: &LogStats) -> bool {
        match self.mode {
            CompactMode::Never => false,
            CompactMode::EveryN(n) => n > 0 && stats.commits_since_checkpoint >= n,
            CompactMode::Doubling => {
                // Before any checkpoint exists, treat the baseline as one
                // byte so the first checkpoint still happens.
                stats.records_since_checkpoint >= DOUBLING_FLOOR
                    && stats.total_bytes / 2 >= stats.bytes_at_last_checkpoint.max(1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(commits: u64, records: u64, at_last: u64, total: u64) -> LogStats {
        LogStats {
            commits_since_checkpoint: commits,
            records_since_checkpoint: records,
            bytes_at_last_checkpoint: at_last,
            total_bytes: total,
            segments: 1,
        }
    }

    #[test]
    fn never_never_fires() {
        let p = CompactionPolicy::never();
        assert!(!p.should_compact(&stats(u64::MAX, u64::MAX, 0, u64::MAX)));
    }

    #[test]
    fn every_n_counts_commits() {
        let p = CompactionPolicy::every_n(10);
        assert!(!p.should_compact(&stats(9, 100, 0, 0)));
        assert!(p.should_compact(&stats(10, 100, 0, 0)));
    }

    #[test]
    fn growth_factor_compares_to_last_checkpoint() {
        let p = CompactionPolicy::default();
        assert!(!p.should_compact(&stats(5, DOUBLING_FLOOR, 1000, 1999)));
        assert!(p.should_compact(&stats(5, DOUBLING_FLOOR, 1000, 2000)));
        assert!(p.should_compact(&stats(5, DOUBLING_FLOOR, 0, 2)), "first checkpoint");
    }

    #[test]
    fn record_floor_gates_the_default_policy() {
        let p = CompactionPolicy::default();
        assert!(
            !p.should_compact(&stats(50, DOUBLING_FLOOR - 1, 1, 1 << 21)),
            "fired below the record floor"
        );
        assert!(
            p.should_compact(&stats(50, DOUBLING_FLOOR, 1, 1 << 21)),
            "failed to fire above the record floor"
        );
    }
}
