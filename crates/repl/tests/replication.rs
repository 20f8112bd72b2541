//! End-to-end replication pair tests: convergence with a byte-identical
//! log prefix, crash/torn-tail resume, and promotion.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hcc_adts::counter::CounterObject;
use hcc_db::Db;
use hcc_repl::{Follower, FollowerOptions, ObjectResolver, Primary, PrimaryOptions};
use hcc_storage::record;
use hcc_storage::wal::read_records;
use hcc_storage::DurableObject;

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

fn sampler(db: &Db) -> hcc_repl::PositionSampler {
    let mgr = db.manager().clone();
    let store = db.storage().expect("durable db").clone();
    Arc::new(move || {
        // Watermark FIRST, ticket second — the order the soundness
        // argument in hcc_wire::repl depends on.
        let wm = mgr.stable_watermark();
        let tk = store.last_issued_ticket();
        (wm, tk)
    })
}

fn fast_primary_opts() -> PrimaryOptions {
    PrimaryOptions { poll_interval: Duration::from_millis(1), ..PrimaryOptions::default() }
}

fn follower_opts(stripes: usize) -> FollowerOptions {
    FollowerOptions {
        stripes,
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
        assert!(!follower.poisoned(), "follower poisoned while converging");
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
/// canonical byte form of the log prefix, independent of stripe layout.
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
    let db = Db::builder().segment_max_bytes(4096).open(&pdir).unwrap();
    let mut primary = Primary::start(
        "127.0.0.1:0",
        db.storage().unwrap().dir(),
        sampler(&db),
        db.metrics(),
        fast_primary_opts(),
    )
    .unwrap();
    let follower =
        Follower::start(&rdir, &primary.local_addr().to_string(), resolver(), follower_opts(2))
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
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

#[test]
fn torn_tail_and_disconnect_resume_byte_identically() {
    let pdir = tmp("torn-primary");
    let rdir = tmp("torn-replica");
    let db = Db::builder().segment_max_bytes(4096).open(&pdir).unwrap();
    let mut primary = Primary::start(
        "127.0.0.1:0",
        db.storage().unwrap().dir(),
        sampler(&db),
        db.metrics(),
        fast_primary_opts(),
    )
    .unwrap();
    let addr = primary.local_addr().to_string();

    // Phase 1: converge on some history, then kill the follower
    // (stop + hand-tear its replica log tail, simulating a SIGKILL
    // mid-`ReplBatch` append).
    let follower = Follower::start(&rdir, &addr, resolver(), follower_opts(2)).unwrap();
    run_counter_load(&db, 20);
    db.storage().unwrap().sync().unwrap();
    await_convergence(&db, &follower);
    drop(follower);

    let sdir = hcc_storage::wal::stripe_dirs(&rdir)
        .unwrap()
        .into_iter()
        .map(|(_, d)| d)
        .find(|d| hcc_storage::wal::list_segments(d).map(|s| !s.is_empty()).unwrap_or(false))
        .expect("a non-empty stripe");
    let (_, seg) = hcc_storage::wal::list_segments(&sdir).unwrap().pop().unwrap();
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
    let follower = Follower::start(&rdir, &addr, resolver(), follower_opts(2)).unwrap();
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
    let db = Db::builder().segment_max_bytes(4096).open(&pdir).unwrap();
    let mut primary = Primary::start(
        "127.0.0.1:0",
        db.storage().unwrap().dir(),
        sampler(&db),
        db.metrics(),
        fast_primary_opts(),
    )
    .unwrap();
    let follower =
        Follower::start(&rdir, &primary.local_addr().to_string(), resolver(), follower_opts(4))
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
