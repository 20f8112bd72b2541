//! The crash workload of [`crash`], driven **over a real
//! socket**: client processes speak the `hcc-wire` protocol to an
//! `hcc-server` front door, the server is killed mid-load (SIGABRT in
//! the process harness, `ServerHandle::kill` in tests), clients
//! reconnect through an address file and finish their runs, and the
//! recovered store is verified against two independent witnesses:
//!
//! 1. **the log itself** — the recovered history must be hybrid atomic
//!    and the replayed objects must equal the log's own fold
//!    (delegated to [`crash::recover_and_verify`]);
//! 2. **the clients' ack records** — every commit a client was told
//!    about must appear in the recovered log with *exactly* the acked
//!    effects (no divergence, no double application), and none of them
//!    may be missing: at every durability level a commit reached the OS
//!    before its ack, and the harness crashes the process, not the
//!    machine.
//!
//! ## Outcome-unknown accounting
//!
//! When a connection dies mid-request the client does not resend (the
//! commit may have landed and only the ack was lost — see
//! `hcc-client`); the driver records the loss and reconnects. Local
//! bookkeeping is deliberately pessimistic in the direction that keeps
//! the workload safe: an outcome-unknown **deq** is assumed committed
//! (so the item is never counted as available again), an
//! outcome-unknown **enq** is assumed aborted (so nothing is counted
//! on its strength). Every deq the driver issues is therefore covered
//! by an item it *knows* committed — `QueueObject::deq` blocks while
//! empty, and a request that can never finish must not reach a worker.
//!
//! [`crash::recover_and_verify`]: crate::crash::recover_and_verify

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use hcc_client::{Client, ClientOptions};
use hcc_db::HccError;
use hcc_wire::msg::{OpResult, TypeTag, View, WireOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::crash::{self, fold_oracle, Effect};

/// Object names the socket workload drives — the same pair the
/// single-process crash workload uses, so the recovered history feeds
/// the same `hcc-verify` oracle unchanged.
pub const ACCOUNT: &str = "acct";
/// The FIFO queue's name (see [`ACCOUNT`]).
pub const QUEUE: &str = "q";

/// Tunables for one client driver run.
#[derive(Clone, Copy, Debug)]
pub struct SocketClientOptions {
    /// RNG seed; the op *choices* are deterministic given the seed
    /// (timestamps and interleavings of course are not).
    pub seed: u64,
    /// Transactions to push through (acked or consciously given up).
    pub txns: usize,
    /// Total patience for connecting/reconnecting before the run fails.
    pub deadline: Duration,
}

impl Default for SocketClientOptions {
    fn default() -> SocketClientOptions {
        SocketClientOptions { seed: 0x50C7, txns: 60, deadline: Duration::from_secs(60) }
    }
}

/// What one client knows at the end of its run: the commits it was
/// *told about*, and how often it had to give up or start over.
#[derive(Debug, Default)]
pub struct SocketClientReport {
    /// Acked commits in ack order: `(commit timestamp, effects)`.
    pub acked: Vec<(u64, Vec<Effect>)>,
    /// Requests whose outcome is unknown (connection died in between).
    pub unknown: usize,
    /// Transactions the server refused non-transiently (after the
    /// client's own retry budget — e.g. retries exhausted on a doomed
    /// conflict storm).
    pub aborted: usize,
    /// Times the driver had to re-resolve the address file and build a
    /// fresh session.
    pub reconnects: usize,
}

/// Read the server address published in `addr_file` (a single
/// `host:port` line). `None` while the file is absent or still empty —
/// the restarted server may not have published yet.
pub fn read_addr(addr_file: &Path) -> Option<String> {
    let text = std::fs::read_to_string(addr_file).ok()?;
    let addr = text.trim();
    if addr.is_empty() {
        None
    } else {
        Some(addr.to_string())
    }
}

/// Publish `addr` to `addr_file` atomically (write-then-rename), so a
/// polling client never reads a half-written address.
pub fn publish_addr(addr_file: &Path, addr: &str) -> std::io::Result<()> {
    let tmp = addr_file.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        writeln!(f, "{addr}")?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, addr_file)
}

/// Connect-and-handshake through the address file, retrying until
/// `deadline` from `start`: a restarted server binds a fresh port (no
/// `SO_REUSEADDR` games against `TIME_WAIT`) and republishes, so the
/// file — not any remembered address — is the source of truth.
pub fn connect_via(
    addr_file: &Path,
    start: Instant,
    deadline: Duration,
) -> Result<Client, HccError> {
    loop {
        if let Some(addr) = read_addr(addr_file) {
            match Client::connect_with(&addr, ClientOptions::default()) {
                Ok(client) => return Ok(client),
                Err(_) if start.elapsed() < deadline => {}
                Err(e) => return Err(e),
            }
        } else if start.elapsed() >= deadline {
            return Err(HccError::Protocol(format!(
                "no server address published at {} within {:?}",
                addr_file.display(),
                deadline
            )));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Connect through the address file and open both objects. An open is
/// idempotent, so a connection lost during one (a server killed between
/// the handshake and the open) is retried on a fresh connection until
/// the deadline.
fn connect_and_open(
    addr_file: &Path,
    start: Instant,
    deadline: Duration,
) -> Result<Client, HccError> {
    loop {
        let mut client = connect_via(addr_file, start, deadline)?;
        let opened = client
            .open(TypeTag::Account, ACCOUNT)
            .and_then(|()| client.open(TypeTag::QueueI64, QUEUE));
        if !matches!(opened, Err(HccError::Protocol(_))) || start.elapsed() >= deadline {
            return opened.map(|()| client);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The effects a batch *would* have if it commits, derived from the
/// ops and the server's pinned responses.
fn effects_of(ops: &[WireOp], results: &[OpResult]) -> Vec<Effect> {
    ops.iter()
        .zip(results)
        .map(|(op, res)| match (op, res) {
            (WireOp::Credit { amount, .. }, _) => Effect::Credit(*amount),
            (WireOp::Debit { amount, .. }, OpResult::Debited(true)) => Effect::DebitOk(*amount),
            (WireOp::Debit { amount, .. }, OpResult::Debited(false)) => Effect::DebitOver(*amount),
            (WireOp::Enq { item, .. }, _) => Effect::Enq(*item),
            (WireOp::Deq { .. }, OpResult::Int(v)) => Effect::Deq(*v),
            (op, res) => panic!("response {res:?} does not answer {op:?}"),
        })
        .collect()
}

/// Drive the randomized bank + queue mix against the server published
/// in `addr_file`. Reconnects (through the file) as often as needed
/// within the deadline; never resends an outcome-unknown request.
pub fn run_socket_client(
    addr_file: &Path,
    opts: SocketClientOptions,
) -> Result<SocketClientReport, HccError> {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut report = SocketClientReport::default();
    // Items this client is *sure* are in the queue: acked own enqueues
    // minus acked-or-unknown own dequeues (see the module docs).
    let mut surplus: i64 = 0;

    let mut client = connect_and_open(addr_file, start, opts.deadline)?;

    let mut done = 0usize;
    while done < opts.txns {
        // A deq is always its own transaction, issued only against a
        // known-committed surplus; everything else batches 1–3 ops.
        let ops: Vec<WireOp> = if surplus > 0 && rng.gen_range(0..100u32) < 20 {
            vec![WireOp::Deq { name: QUEUE.into() }]
        } else {
            (0..rng.gen_range(1..4usize))
                .map(|_| match rng.gen_range(0..100u32) {
                    0..=44 => {
                        WireOp::Credit { name: ACCOUNT.into(), amount: rng.gen_range(1..50i64) }
                    }
                    45..=69 => {
                        WireOp::Debit { name: ACCOUNT.into(), amount: rng.gen_range(1..80i64) }
                    }
                    _ => WireOp::Enq { name: QUEUE.into(), item: rng.gen_range(1..1000i64) },
                })
                .collect()
        };
        let is_deq = matches!(ops.first(), Some(WireOp::Deq { .. }));
        match client.transact(ops.clone()) {
            Ok((ts, results)) => {
                let effects = effects_of(&ops, &results);
                surplus += effects.iter().filter(|e| matches!(e, Effect::Enq(_))).count() as i64;
                if is_deq {
                    surplus -= 1;
                }
                report.acked.push((ts, effects));
                done += 1;
            }
            Err(e) if e.is_transient() => {
                // `Client::transact` retries transients itself; one
                // leaking through means the budget is spent — the
                // transaction is aborted everywhere. Try the next mix.
                report.aborted += 1;
                done += 1;
            }
            Err(HccError::RetriesExhausted { .. }) => {
                report.aborted += 1;
                done += 1;
            }
            // Refused with nothing applied: a reconnect would only meet
            // the same refusal until the deadline.
            Err(e @ HccError::Refused { .. }) => return Err(e),
            Err(_) => {
                // Connection lost (or the server is draining): the
                // outcome is unknown and the request is NOT resent.
                // Pessimistic bookkeeping: a deq is assumed committed.
                report.unknown += 1;
                if is_deq {
                    surplus -= 1;
                }
                done += 1;
                report.reconnects += 1;
                client = connect_and_open(addr_file, start, opts.deadline)?;
            }
        }
        if start.elapsed() >= opts.deadline {
            return Err(HccError::Protocol(format!(
                "socket workload overran its {:?} deadline after {done} transactions",
                opts.deadline
            )));
        }
    }

    // One consistent snapshot read over the wire before leaving: both
    // views pin the same watermark. (No ordering claim against this
    // client's acks — the stable watermark lags while *other* clients'
    // lower-timestamped transactions are still in flight.) A snapshot
    // read changes nothing, so one lost with its connection is read again
    // on a fresh one.
    let queries = vec![(TypeTag::Account, ACCOUNT.into()), (TypeTag::QueueI64, QUEUE.into())];
    let mut read = client.read(None, queries.clone());
    while matches!(read, Err(HccError::Protocol(_))) && start.elapsed() < opts.deadline {
        client = connect_and_open(addr_file, start, opts.deadline)?;
        read = client.read(None, queries.clone());
    }
    let (_watermark, views) = read?;
    assert_eq!(views.len(), 2, "two queries, two views");
    assert!(
        matches!(views[0], View::Balance { .. }) && matches!(views[1], View::Items(_)),
        "views answer their queries in order: {views:?}"
    );
    // Every goodbye failure is a lost connection, and a connection
    // already gone has nothing left to close.
    let _ = client.goodbye();
    Ok(report)
}

fn effect_code(e: &Effect) -> String {
    match e {
        Effect::Credit(v) => format!("C:{v}"),
        Effect::DebitOk(v) => format!("D:{v}"),
        Effect::DebitOver(v) => format!("O:{v}"),
        Effect::Enq(v) => format!("E:{v}"),
        Effect::Deq(v) => format!("Q:{v}"),
    }
}

fn effect_parse(s: &str) -> Effect {
    let (kind, v) = s.split_once(':').expect("effect code is kind:value");
    let v: i64 = v.parse().expect("effect value is an integer");
    match kind {
        "C" => Effect::Credit(v),
        "D" => Effect::DebitOk(v),
        "O" => Effect::DebitOver(v),
        "E" => Effect::Enq(v),
        "Q" => Effect::Deq(v),
        other => panic!("unknown effect code {other}"),
    }
}

/// Persist a driver's ack record so a separate verifier process can
/// hold the server's recovery against it. Plain text, one acked commit
/// per line: `ack <ts> <effect>*`.
pub fn write_report(path: &Path, report: &SocketClientReport) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str(&format!(
        "# socket-client acked={} unknown={} aborted={} reconnects={}\n",
        report.acked.len(),
        report.unknown,
        report.aborted,
        report.reconnects
    ));
    for (ts, effects) in &report.acked {
        out.push_str(&format!("ack {ts}"));
        for e in effects {
            out.push(' ');
            out.push_str(&effect_code(e));
        }
        out.push('\n');
    }
    std::fs::write(path, out)
}

/// Parse a report written by [`write_report`] back into its ack list.
pub fn read_report(path: &Path) -> std::io::Result<Vec<(u64, Vec<Effect>)>> {
    let text = std::fs::read_to_string(path)?;
    let mut acked = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("ack ") else { continue };
        let mut parts = rest.split_whitespace();
        let ts: u64 = parts.next().expect("ack line has a timestamp").parse().expect("ts");
        acked.push((ts, parts.map(effect_parse).collect()));
    }
    Ok(acked)
}

/// The verifier's summary: how the recovered log and the clients' ack
/// records relate.
#[derive(Debug)]
pub struct SocketVerdict {
    /// Commits recovered from the log.
    pub recovered: usize,
    /// Acked commits across every report, each found in the recovered
    /// log with exactly the acked effects.
    pub acked: usize,
}

/// Verify a recovered store against the clients' ack records.
///
/// Layered on [`crash::recover_and_verify`], which already checks the
/// recovered history hybrid atomic; this adds the *network* claims:
/// the log's own fold matches the recovered objects, every acked
/// commit present in the log carries exactly the acked effects (one
/// timestamp, one client, one application — the exactly-once
/// evidence), and no acked commit may be missing at all.
pub fn verify_socket_recovery(
    dir: &Path,
    reports: &[Vec<(u64, Vec<Effect>)>],
) -> Result<SocketVerdict, HccError> {
    // Independent scan first: the log-derived oracle.
    let oracle = crash::oracle_from_log(dir)?;

    // Replay + hybrid-atomicity check through the existing oracle.
    let state = crash::recover_and_verify(dir)?;
    assert_eq!(
        state.checkpoint_ts, 0,
        "the socket harness runs with compaction off so the log is the whole history"
    );
    let all_ts: Vec<u64> = oracle.keys().copied().collect();
    let (balance, queue) = fold_oracle(&oracle, &all_ts);
    assert_eq!(state.balance, balance, "recovered balance diverges from the log's own fold");
    assert_eq!(state.queue, queue, "recovered queue diverges from the log's own fold");

    // The clients' acks against the log.
    let mut seen = std::collections::BTreeMap::new();
    let mut verdict = SocketVerdict { recovered: oracle.len(), acked: 0 };
    for (who, report) in reports.iter().enumerate() {
        for (ts, effects) in report {
            verdict.acked += 1;
            if let Some(other) = seen.insert(*ts, who) {
                panic!("commit ts {ts} acked to two clients ({other} and {who})");
            }
            let Some(logged) = oracle.get(ts) else {
                panic!("acked commit {ts} missing from the recovered log");
            };
            assert_eq!(logged, effects, "commit {ts}: log and ack disagree on the effects");
        }
    }
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tmp::Tmp;
    use hcc_db::Db;
    use hcc_storage::CompactionPolicy;
    use std::sync::Arc;

    fn tmp(name: &str) -> Tmp {
        Tmp::new("hcc-socket", name)
    }

    fn open_db(dir: &std::path::Path) -> Arc<Db> {
        Arc::new(
            Db::builder()
                .segment_max_bytes(4096)
                .compaction(CompactionPolicy::never())
                .env_overrides()
                .open(dir)
                .expect("open db"),
        )
    }

    /// Three concurrent socket clients against one in-process server,
    /// clean drain, then full verification — nothing acked is lost.
    #[test]
    fn clean_run_verifies_and_loses_nothing() {
        let dir = tmp("clean");
        let addr_file = dir.with_extension("addr");
        let db = open_db(&dir);
        let handle = hcc_server::serve(db.clone(), "127.0.0.1:0").expect("serve");
        publish_addr(&addr_file, &handle.local_addr().to_string()).expect("publish");

        let drivers: Vec<_> = (0..3u64)
            .map(|i| {
                let addr_file = addr_file.clone();
                std::thread::spawn(move || {
                    run_socket_client(
                        &addr_file,
                        SocketClientOptions { seed: 0xA11 + i, txns: 25, ..Default::default() },
                    )
                    .expect("driver run")
                })
            })
            .collect();
        let reports: Vec<_> = drivers.into_iter().map(|d| d.join().expect("join")).collect();
        handle.drain();
        drop(db);

        let acks: Vec<_> = reports.iter().map(|r| r.acked.clone()).collect();
        let verdict = verify_socket_recovery(&dir, &acks).expect("verify");
        assert!(verdict.acked > 0, "drivers committed something");
    }

    /// Kill the server mid-load, restart it on a fresh port behind the
    /// same address file, let the clients reconnect and finish, and
    /// verify — the in-process rendition of the SIGABRT cycle the
    /// `server_client` example runs as real processes.
    #[test]
    fn kill_heal_reconnect_verifies() {
        let dir = tmp("killheal");
        let addr_file = dir.with_extension("addr");
        let db = open_db(&dir);
        let handle = hcc_server::serve(db.clone(), "127.0.0.1:0").expect("serve");
        publish_addr(&addr_file, &handle.local_addr().to_string()).expect("publish");

        let drivers: Vec<_> = (0..2u64)
            .map(|i| {
                let addr_file = addr_file.clone();
                std::thread::spawn(move || {
                    run_socket_client(
                        &addr_file,
                        SocketClientOptions { seed: 0xBEE + i, txns: 40, ..Default::default() },
                    )
                    .expect("driver run")
                })
            })
            .collect();

        // Let some load land, then kill abruptly: queued answers are
        // lost exactly as a crash would lose them.
        while db.committed_count() < 10 {
            std::thread::sleep(Duration::from_millis(2));
        }
        handle.kill();
        drop(db);

        // Heal: recover the same store, publish the new address.
        let db = open_db(&dir);
        let handle = hcc_server::serve(db.clone(), "127.0.0.1:0").expect("re-serve");
        publish_addr(&addr_file, &handle.local_addr().to_string()).expect("republish");

        let reports: Vec<_> = drivers.into_iter().map(|d| d.join().expect("join")).collect();
        assert!(
            reports.iter().any(|r| r.reconnects > 0),
            "the kill landed mid-load, someone must have reconnected"
        );
        handle.drain();
        drop(db);

        let acks: Vec<_> = reports.iter().map(|r| r.acked.clone()).collect();
        // In-process kill flushes nothing extra, but every *acked*
        // commit was answered by a worker after its commit record
        // reached the OS, so the reopen recovers every one.
        let verdict = verify_socket_recovery(&dir, &acks).expect("verify");
        assert!(verdict.acked > 0);
    }

    #[test]
    fn report_roundtrips_through_disk() {
        let report = SocketClientReport {
            acked: vec![
                (3, vec![Effect::Credit(5), Effect::DebitOver(80)]),
                (7, vec![Effect::Enq(12)]),
                (9, vec![Effect::Deq(12), Effect::DebitOk(2)]),
            ],
            unknown: 1,
            aborted: 2,
            reconnects: 1,
        };
        let path = tmp("report");
        write_report(&path, &report).expect("write");
        assert_eq!(read_report(&path).expect("read"), report.acked);
    }
}
