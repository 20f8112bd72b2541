//! End-to-end replication pair tests: convergence with a byte-identical
//! log prefix, crash/torn-tail resume, and promotion.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hcc_adts::counter::{CounterAdt, CounterInv, CounterObject, CounterRes};
use hcc_core::runtime::RuntimeAdt;
use hcc_db::Db;
use hcc_repl::{Follower, FollowerOptions, ObjectResolver, Primary};
use hcc_storage::record;
use hcc_storage::wal::read_records;
use hcc_storage::{Durability, DurableObject, DurableStore, LogRecord};
use hcc_wire::conn::Listener;
use hcc_wire::repl::{ReplMsg, REPL_PROTOCOL_VERSION};

fn tmp(name: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "hcc-repl-{}-{}-{}",
        std::process::id(),
        name,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn resolver() -> ObjectResolver {
    Arc::new(|db: &Db, name: &str| {
        let obj = db.object::<CounterObject>(name).map_err(|e| e.to_string())?;
        Ok(obj as Arc<dyn DurableObject>)
    })
}

fn follower_opts() -> FollowerOptions {
    FollowerOptions {
        segment_max_bytes: 4096,
        reconnect_backoff: Duration::from_millis(10),
        ..FollowerOptions::default()
    }
}

/// Wait until the follower's durable log holds everything the primary
/// issued and its lag (per the latest sample) is 0.
fn await_convergence(db: &Db, follower: &Follower) {
    let target = || db.storage().unwrap().last_issued_ticket();
    let deadline = Instant::now() + Duration::from_secs(20);
    while follower.durable_ticket() < target() || follower.lag() != 0 {
        assert!(!follower.poisoned(), "follower poisoned while converging: {:?}", follower.fault());
        assert!(
            Instant::now() < deadline,
            "no convergence: durable {} lag {} target {}",
            follower.durable_ticket(),
            follower.lag(),
            target()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The ticket-sorted records of `dir` up to `ticket`, re-framed — the
/// canonical byte form of the log prefix, independent of the order the
/// frames sit in the file.
fn log_prefix_bytes(dir: &std::path::Path, ticket: u64) -> Vec<u8> {
    let (records, _) = read_records(dir).unwrap();
    let mut out = Vec::new();
    for (seq, rec) in &records {
        if *seq <= ticket {
            out.extend_from_slice(&record::encode(rec, *seq));
        }
    }
    out
}

fn run_counter_load(db: &Db, txns: u64) {
    let c1 = db.object::<CounterObject>("c1").unwrap();
    let c2 = db.object::<CounterObject>("c2").unwrap();
    for i in 0..txns {
        db.transact(|tx| {
            c1.inc(tx, 1)?;
            if i % 3 == 0 {
                c2.inc(tx, 2)?;
            }
            Ok(())
        })
        .unwrap();
    }
}

#[test]
fn follower_converges_with_byte_identical_log_prefix() {
    let pdir = tmp("conv-primary");
    let rdir = tmp("conv-replica");
    let db = Arc::new(Db::builder().segment_max_bytes(4096).open(&pdir).unwrap());
    let mut primary = Primary::start("127.0.0.1:0", db.clone(), None).unwrap();
    let follower =
        Follower::start(&rdir, &primary.local_addr().to_string(), resolver(), follower_opts())
            .unwrap();

    run_counter_load(&db, 40);
    db.storage().unwrap().sync().unwrap();
    await_convergence(&db, &follower);

    // The replica's log is byte-identical to the primary's prefix.
    let cut = follower.durable_ticket();
    assert_eq!(log_prefix_bytes(&pdir, cut), log_prefix_bytes(&rdir, cut));

    // The replicated watermark converges to the primary's (heartbeats
    // push positions even with no new commits), and snapshot reads on
    // the follower see the full committed state.
    let deadline = Instant::now() + Duration::from_secs(10);
    let target = db.manager().stable_watermark();
    while follower.watermark() < target {
        assert!(Instant::now() < deadline, "watermark stuck at {}", follower.watermark());
        std::thread::sleep(Duration::from_millis(5));
    }
    let fc1 = follower.db().object::<CounterObject>("c1").unwrap();
    let fc2 = follower.db().object::<CounterObject>("c2").unwrap();
    assert_eq!(fc1.state_at(follower.watermark()).unwrap(), 40);
    assert_eq!(fc2.state_at(follower.watermark()).unwrap(), 28);

    // Shipped/acked accounting: acked never exceeds shipped.
    let stats = db.stats();
    let shipped = stats.gauge("repl.shipped.ticket");
    let acked = stats.gauge("repl.acked.ticket");
    assert!(acked <= shipped, "acked {acked} > shipped {shipped}");

    drop(follower);
    primary.stop();
    // The tailer read each byte of the log once, and every byte it read shipped.
    assert_eq!(
        db.stats().counter("repl.tail.bytes_read"),
        db.stats().counter("repl.bytes.shipped")
    );
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

#[test]
fn torn_tail_and_disconnect_resume_byte_identically() {
    let pdir = tmp("torn-primary");
    let rdir = tmp("torn-replica");
    let db = Arc::new(Db::builder().segment_max_bytes(4096).open(&pdir).unwrap());
    let mut primary = Primary::start("127.0.0.1:0", db.clone(), None).unwrap();
    let addr = primary.local_addr().to_string();

    // Phase 1: converge on some history, then kill the follower
    // (stop + hand-tear its replica log tail, simulating a SIGKILL
    // mid-`ReplBatch` append).
    let follower = Follower::start(&rdir, &addr, resolver(), follower_opts()).unwrap();
    run_counter_load(&db, 20);
    db.storage().unwrap().sync().unwrap();
    await_convergence(&db, &follower);
    drop(follower);

    let (_, seg) = hcc_storage::wal::segments(&rdir).unwrap().pop().unwrap();
    let len = std::fs::metadata(&seg).unwrap().len();
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
    f.write_all(&record::encode(&hcc_storage::LogRecord::Begin { txn: 424242 }, 999_999)[..7])
        .unwrap();
    drop(f);
    assert!(std::fs::metadata(&seg).unwrap().len() > len, "tear appended");

    // More history lands while the follower is down.
    run_counter_load(&db, 15);
    db.storage().unwrap().sync().unwrap();

    // Phase 2: restart on the same directory. Open repairs the torn
    // tail, `Hello{last_ticket}` re-requests from the durable position,
    // and the stream converges byte-identically.
    let follower = Follower::start(&rdir, &addr, resolver(), follower_opts()).unwrap();
    await_convergence(&db, &follower);
    let cut = follower.durable_ticket();
    assert_eq!(log_prefix_bytes(&pdir, cut), log_prefix_bytes(&rdir, cut));
    let deadline = Instant::now() + Duration::from_secs(10);
    while follower.watermark() < db.manager().stable_watermark() {
        assert!(Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(5));
    }
    let fc1 = follower.db().object::<CounterObject>("c1").unwrap();
    assert_eq!(fc1.state_at(follower.watermark()).unwrap(), 35);

    drop(follower);
    primary.stop();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

#[test]
fn promotion_preserves_replicated_commits_and_accepts_writes() {
    let pdir = tmp("promote-primary");
    let rdir = tmp("promote-replica");
    let db = Arc::new(Db::builder().segment_max_bytes(4096).open(&pdir).unwrap());
    let mut primary = Primary::start("127.0.0.1:0", db.clone(), None).unwrap();
    let follower =
        Follower::start(&rdir, &primary.local_addr().to_string(), resolver(), follower_opts())
            .unwrap();
    run_counter_load(&db, 30);
    db.storage().unwrap().sync().unwrap();
    await_convergence(&db, &follower);

    // Primary "fails".
    primary.stop();
    drop(db);

    // Promote: ordinary recovery over the replica directory.
    let promoted = follower.promote_with(Db::builder().segment_max_bytes(4096)).unwrap();
    let c1 = promoted.object::<CounterObject>("c1").unwrap();
    let c2 = promoted.object::<CounterObject>("c2").unwrap();
    assert_eq!(c1.committed_value(), 30, "every replicated commit survived promotion");
    assert_eq!(c2.committed_value(), 20);

    // The promoted node is writable, above the replicated history.
    promoted
        .transact(|tx| {
            c1.inc(tx, 5)?;
            Ok(())
        })
        .unwrap();
    assert_eq!(c1.committed_value(), 35);

    // And its log recovers again: the promotion cut left a clean prefix.
    drop(promoted);
    let reopened = Db::builder().segment_max_bytes(4096).open(&rdir).unwrap();
    let c1 = reopened.object::<CounterObject>("c1").unwrap();
    assert_eq!(c1.committed_value(), 35);
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

/// Every durability level, in order. The match is exhaustive, so a new
/// level does not compile until it opts in here — and with it into
/// `replication_converges_and_promotes_at_every_durability_level`.
fn every_level() -> impl Iterator<Item = Durability> {
    std::iter::successors(Some(Durability::Buffered), |level| match level {
        Durability::Buffered => Some(Durability::Fsync),
        Durability::Fsync => None,
    })
}

/// At every level an acknowledged commit reaches the log file the
/// shipper reads, so a follower converges with no help — no `sync` — and
/// its promotion keeps every commit acknowledged before the primary died.
#[test]
fn replication_converges_and_promotes_at_every_durability_level() {
    for level in every_level() {
        let pdir = tmp(&format!("level-{level:?}-primary"));
        let rdir = tmp(&format!("level-{level:?}-replica"));
        let builder = || Db::builder().segment_max_bytes(4096).durability(level);
        let db = Arc::new(builder().open(&pdir).unwrap());
        let mut primary = Primary::start("127.0.0.1:0", db.clone(), None).unwrap();
        let opts = FollowerOptions { durability: level, ..follower_opts() };
        let follower =
            Follower::start(&rdir, &primary.local_addr().to_string(), resolver(), opts).unwrap();
        run_counter_load(&db, 30);
        await_convergence(&db, &follower);

        primary.stop();
        drop(db);
        let promoted = follower.promote_with(builder()).unwrap();
        let c1 = promoted.object::<CounterObject>("c1").unwrap();
        let c2 = promoted.object::<CounterObject>("c2").unwrap();
        assert_eq!(c1.committed_value(), 30, "{level:?}: an acknowledged commit was lost");
        assert_eq!(c2.committed_value(), 20, "{level:?}: an acknowledged commit was lost");
        drop(promoted);
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&rdir);
    }
}

/// A batch whose commit chains to a ticket the stream never carried
/// poisons the follower, and the follower says why.
#[test]
fn a_commit_chained_past_a_missing_ticket_poisons_the_follower_with_its_reason() {
    let rdir = tmp("skip-replica");
    let listener = Listener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let follower = Follower::start(&rdir, &addr, resolver(), follower_opts()).unwrap();

    // Play the primary by hand: welcome the follower, then ship a commit
    // chained to ticket 5, which the stream never carried.
    let (conn, _) = listener.accept().unwrap();
    let (mut tx, mut rx) = conn.split().unwrap();
    assert!(matches!(rx.recv::<ReplMsg>().unwrap(), Some((_, ReplMsg::Hello { .. }, _))));
    tx.send(0, &ReplMsg::Welcome { version: REPL_PROTOCOL_VERSION, frontier: 0 }).unwrap();
    let frames = record::encode(&LogRecord::Commit { txn: 1, ts: 1, ops: 0, prev: 5 }, 7);
    tx.send(1, &ReplMsg::Batch { watermark: 0, ticket: 7, frames }).unwrap();

    let deadline = Instant::now() + Duration::from_secs(20);
    while !follower.poisoned() {
        assert!(Instant::now() < deadline, "the follower applied a commit with no predecessor");
        std::thread::sleep(Duration::from_millis(5));
    }
    let fault = follower.fault().unwrap();
    assert!(fault.contains("the stream skipped a commit"), "fault: {fault}");
    drop(follower);
    let _ = std::fs::remove_dir_all(&rdir);
}

/// One rule decides which logged commits count — recovery's, the
/// follower's streaming apply and promotion's cut all ask the same
/// `CommitChain`. The log here holds the case they used to disagree on:
/// commit ticket 5 failed, its compensating abort reused the ticket, and
/// the next commit chains to it (`prev` 5). Recovery always accepted
/// that; the follower's private copy of the rule poisoned the replica
/// for good, and promotion's copy cut the acknowledged, replicated
/// commit at ticket 8 away.
#[test]
fn standin_abort_links_the_chain_for_recovery_follower_and_promotion_alike() {
    let pdir = tmp("chain-primary");
    let rdir = tmp("chain-replica");
    let inc = CounterAdt.redo(&CounterInv::Inc(1), &CounterRes::Ok).unwrap();
    let op = |txn| LogRecord::Op { txn, obj: 1, op: inc.clone() };
    let log: Vec<u8> = [
        LogRecord::Register { id: 1, name: "c1".into() },
        op(1),
        LogRecord::Commit { txn: 1, ts: 1, ops: 1, prev: 0 },
        op(2),
        LogRecord::Abort { txn: 2 }, // at ticket 5, where txn 2's commit failed
        LogRecord::Begin { txn: 3 },
        op(3),
        LogRecord::Commit { txn: 3, ts: 3, ops: 1, prev: 5 },
    ]
    .iter()
    .zip(1u64..)
    .flat_map(|(rec, seq)| record::encode(rec, seq))
    .collect();
    let sdir = pdir.join(hcc_storage::wal::STREAM_DIR);
    std::fs::create_dir_all(&sdir).unwrap();
    std::fs::write(sdir.join("seg-00000001.wal"), log).unwrap();

    // (i) Recovery keeps both commits.
    let recovered = DurableStore::recover(&pdir).unwrap();
    assert_eq!(recovered.committed.iter().map(|c| c.txn).collect::<Vec<_>>(), vec![1, 3]);
    assert!(recovered.incomplete.is_empty());

    // (ii) A follower streaming that log converges un-poisoned and serves
    // the second commit.
    let mut primary =
        Primary::start("127.0.0.1:0", Arc::new(Db::open(&pdir).unwrap()), None).unwrap();
    let follower =
        Follower::start(&rdir, &primary.local_addr().to_string(), resolver(), follower_opts())
            .unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    while follower.watermark() < 3 {
        assert!(
            !follower.poisoned(),
            "the replica refused a commit recovery accepts: {:?}",
            follower.fault()
        );
        assert!(Instant::now() < deadline, "no convergence: at {}", follower.durable_ticket());
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(follower.durable_ticket(), 8);
    let c1 = follower.db().object::<CounterObject>("c1").unwrap();
    assert_eq!(c1.state_at(3).unwrap(), 2);
    primary.stop();

    // (iii) Promotion keeps it too.
    let promoted = follower.promote_with(Db::builder()).unwrap();
    assert_eq!(promoted.object::<CounterObject>("c1").unwrap().committed_value(), 2);
    drop(promoted);
    let (records, _) = read_records(&rdir).unwrap();
    assert!(
        records.iter().any(|(seq, rec)| *seq == 8 && matches!(rec, LogRecord::Commit { .. })),
        "promotion cut an acknowledged commit"
    );
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

/// A commit short of its stamped op count, seen by all three consumers
/// of the one assembler: txn 1 stamps two ops but only one precedes it,
/// and txn 2 links after it. Recovery drops txn 1 and keeps txn 2; a live
/// follower stops at txn 1 and says why; promotion cuts above txn 1's
/// commit (it is linked), and the promoted replica's recovery drops it
/// again.
#[test]
fn a_commit_short_of_its_ops_is_dropped_by_recovery_follower_and_promotion_alike() {
    let pdir = tmp("short-primary");
    let rdir = tmp("short-replica");
    let inc = CounterAdt.redo(&CounterInv::Inc(1), &CounterRes::Ok).unwrap();
    let op = |txn| LogRecord::Op { txn, obj: 1, op: inc.clone() };
    let log: Vec<u8> = [
        LogRecord::Register { id: 1, name: "c1".into() },
        op(1),
        LogRecord::Commit { txn: 1, ts: 1, ops: 2, prev: 0 },
        op(2),
        LogRecord::Commit { txn: 2, ts: 2, ops: 1, prev: 3 },
    ]
    .iter()
    .zip(1u64..)
    .flat_map(|(rec, seq)| record::encode(rec, seq))
    .collect();
    let sdir = pdir.join(hcc_storage::wal::STREAM_DIR);
    std::fs::create_dir_all(&sdir).unwrap();
    std::fs::write(sdir.join("seg-00000001.wal"), log).unwrap();

    // (i) Recovery lists txn 1 as incomplete and keeps txn 2.
    let recovered = DurableStore::recover(&pdir).unwrap();
    assert_eq!(recovered.incomplete, vec![1]);
    assert_eq!(recovered.committed.iter().map(|c| c.txn).collect::<Vec<_>>(), vec![2]);

    // (ii) A live follower poisons, naming the transaction and both counts.
    let mut primary =
        Primary::start("127.0.0.1:0", Arc::new(Db::open(&pdir).unwrap()), None).unwrap();
    let follower =
        Follower::start(&rdir, &primary.local_addr().to_string(), resolver(), follower_opts())
            .unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    while !follower.poisoned() {
        assert!(Instant::now() < deadline, "the follower applied a commit short of its ops");
        std::thread::sleep(Duration::from_millis(5));
    }
    let fault = follower.fault().unwrap();
    assert!(fault.contains("commit 1 expects 2 ops, 1 arrived"), "fault: {fault}");
    assert_eq!(follower.watermark(), 0);
    primary.stop();

    // (iii) The promoted replica omits txn 1 and counts it dropped.
    let promoted = follower.promote_with(Db::builder()).unwrap();
    assert_eq!(promoted.object::<CounterObject>("c1").unwrap().committed_value(), 0);
    assert_eq!(promoted.stats().counter("recovery.commits_dropped"), 1);
    drop(promoted);
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}
