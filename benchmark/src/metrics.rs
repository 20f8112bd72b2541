//! The metric catalogue: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` repeats these (and adds the bounds);
//! `--smoke` and a unit test hold the two against each other.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// Printed by an untraced run (`--trace 0`), on every workload.
pub const END_TO_END: [Metric; 3] =
    [m("commits_per_s", "1/s", Higher), m("commit_p50_us", "us", Lower), m("setup_s", "s", Lower)];

/// Printed by a traced run (`--trace 1`), on every workload.
pub const PER_LAYER: [Metric; 61] = [
    m("client.transact_us", "us", Lower),
    m("wire.req_encode_ns", "ns", Lower),
    m("wire.req_decode_ns", "ns", Lower),
    m("wire.resp_encode_ns", "ns", Lower),
    m("wire.resp_decode_ns", "ns", Lower),
    m("wire.req_bytes", "bytes", Lower),
    m("wire.resp_bytes", "bytes", Lower),
    m("wire.echo_rtt_us", "us", Lower),
    m("server.execute_us", "us", Lower),
    m("server.exec_self_us", "us", Lower),
    m("server.read_execute_us", "us", Lower),
    m("server.session_queue_us", "us", Lower),
    m("server.shed_per_kreq", "count", Lower),
    m("db.transact_us", "us", Lower),
    m("db.facade_self_us", "us", Lower),
    m("db.attempts_per_commit", "ratio", Lower),
    m("db.backoff_us_per_commit", "us", Lower),
    m("db.read_view_ns", "ns", Lower),
    m("txn.raw_commit_us", "us", Lower),
    m("txn.begin_commit_mem_us", "us", Lower),
    m("txn.victims_per_kcommit", "count", Lower),
    m("core.ops_us", "us", Lower),
    m("core.refusals_per_kcommit", "count", Lower),
    m("core.waits_per_kcommit", "count", Lower),
    m("core.scaling_x", "ratio", Higher),
    m("adts.op_ns.credit", "ns", Lower),
    m("adts.op_ns.debit", "ns", Lower),
    m("adts.op_ns.post", "ns", Lower),
    m("adts.op_ns.enq", "ns", Lower),
    m("adts.op_ns.deq", "ns", Lower),
    m("adts.overdraft_share", "ratio", Lower),
    m("storage.redo_log_us", "us", Lower),
    m("storage.append_commit_us", "us", Lower),
    m("storage.bytes_per_commit", "bytes", Lower),
    m("storage.fsync_mean_us", "us", Lower),
    m("storage.fsyncs_per_commit", "ratio", Lower),
    m("storage.recover_ms", "ms", Lower),
    m("storage.recover_open_ms", "ms", Lower),
    m("storage.recover_materialize_ms", "ms", Lower),
    m("storage.ckpt_ms", "ms", Lower),
    m("storage.ckpt_gate_us", "us", Lower),
    m("storage.recover_after_ckpt_ms", "ms", Lower),
    m("repl.bytes_per_commit", "bytes", Lower),
    m("repl.frames_per_batch", "ratio", Higher),
    m("repl.catchup_commits_per_s", "1/s", Higher),
    m("repl.lag_tickets_p50", "count", Lower),
    m("repl.visible_p50_ms", "ms", Lower),
    m("repl.visible_p99_ms", "ms", Lower),
    m("repl.promote_ms", "ms", Lower),
    m("repl.reads_per_s", "1/s", Higher),
    m("repl.read_p50_us", "us", Lower),
    m("obs.snapshot_us", "us", Lower),
    m("relations.derive_ms", "ms", Lower),
    m("trace.overhead_pct", "%", Lower),
    m("budget.unattributed_pct", "%", Lower),
    m("slice.commits_per_s", "1/s", Higher),
    m("slice.commit_p50_us", "us", Lower),
    m("slice.commit_p99_us", "us", Lower),
    m("fsync.commits_per_s", "1/s", Higher),
    m("fsync.commit_p50_us", "us", Lower),
    m("fsync.commit_p99_us", "us", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(metric.name), "{} listed twice", metric.name);
            assert!(metric.name.len() <= 64);
            assert!(metric.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(metric
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(metric.unit.len() <= 16);
            assert!(metric
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        assert!(END_TO_END.iter().any(|metric| metric.name == "setup_s" && metric.unit == "s"));
    }
}
