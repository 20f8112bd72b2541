//! The durable storage subsystem end to end, with a *real* crash —
//! driven entirely through the [`Db`] facade.
//!
//! ```text
//! cargo run --release --example durable_bank -- run <dir> <txns>
//!     run a banking workload with group-committed fsync durability,
//!     checkpointing on the EveryN policy, then print the final state
//! cargo run --release --example durable_bank -- crash <dir> <txns> <abort_after>
//!     same, but call std::process::abort() after <abort_after> commits —
//!     a real SIGABRT mid-stream, no cleanup, no Drop
//! cargo run --release --example durable_bank -- recover <dir>
//!     recover from checkpoint + WAL tail and print the rebuilt state
//! cargo run --release --example durable_bank -- read <dir> <reads>
//!     open the store and take <reads> wait-free snapshot reads, then
//!     prove the whole phase moved no lock-manager counter
//! ```
//!
//! Note what the workload below never does: log, register, or wire
//! recovery. `Db::open` constructs the store and scans the log;
//! `db.object` hands back the account *with its recovered state already
//! installed* (a second session resumes where the first stopped, even
//! one that died by SIGABRT); every credit inside `transact` serializes
//! its own redo record (self-logging). After a crash, `recover` must
//! print exactly the state of the commits acknowledged before the abort
//! — that is what `Fsync` durability promises.

use hybrid_cc::adts::account::AccountObject;
use hybrid_cc::spec::Rational;
use hybrid_cc::storage::CompactionPolicy;
use hybrid_cc::Db;

fn run(dir: &str, txns: u64, abort_after: Option<u64>) {
    // HCC_DURABILITY picks the CI matrix level.
    let db = Db::builder()
        .segment_max_bytes(2048)
        .compaction(CompactionPolicy::every_n(25))
        .env_overrides()
        .open(dir)
        .expect("open database");
    // The typed handle arrives holding whatever previous sessions
    // committed: this session *continues* the log instead of shadowing it.
    let acct = db.object::<AccountObject>("acct").expect("open account");
    let report = db.recovery_report();
    if report.replayed > 0 || report.checkpoint_ts > 0 {
        println!("resumed with balance {:?} from prior sessions", acct.committed_balance());
    }
    for i in 1..=txns {
        db.transact(|tx| {
            acct.credit(tx, Rational::from_int(i as i64))?; // self-logs
            Ok(())
        })
        .expect("commit");
        println!("committed txn {i}: balance {:?}", acct.committed_balance());
        db.maybe_checkpoint().unwrap();
        if abort_after == Some(i) {
            eprintln!("== simulating power failure: abort() after {i} acknowledged commits ==");
            std::process::abort();
        }
    }
    let ckpts = db.stats().counter("ckpt.count");
    println!(
        "final balance {:?} after {txns} txns ({ckpts} checkpoints)",
        acct.committed_balance()
    );
}

fn recover(dir: &str) {
    // Recovery is nothing but opening the database and asking for the
    // object: no Registry, no replay loop, no wiring to forget.
    let db = Db::builder().env_overrides().open(dir).expect("open database");
    // Snapshot right after open: everything counted so far is recovery
    // work, and the delta against a later snapshot isolates the session.
    let at_open = db.stats();
    let acct = db.object::<AccountObject>("acct").expect("open account");
    let report = db.recovery_report();
    println!(
        "recovered balance {:?} (checkpoint through ts {}, {} tail commits, torn tail: {})",
        acct.committed_balance(),
        report.checkpoint_ts,
        report.replayed,
        report.torn_tail
    );
    for key in [
        "recovery.segments_scanned",
        "recovery.commits_replayed",
        "recovery.records_replayed",
        "recovery.commits_dropped",
        "recovery.commits_in_doubt",
        "recovery.torn_tails_repaired",
    ] {
        println!("  {key} = {}", at_open.counter(key));
    }
    // What this session itself did (nothing yet): the delta is all
    // zeros, which is exactly the point — recovery cost is all at open.
    let session = db.stats().delta(&at_open);
    let moved = session
        .values
        .iter()
        .filter(|(_, v)| match v {
            hybrid_cc::obs::MetricValue::Counter(c) => *c != 0,
            hybrid_cc::obs::MetricValue::Gauge(_) => false, // a level, not a flow
            hybrid_cc::obs::MetricValue::Histogram(h) => h.count != 0,
        })
        .count();
    println!("  session delta since open: {moved} non-zero metric(s)");
}

fn read(dir: &str, reads: u64) {
    let db = Db::builder().env_overrides().open(dir).expect("open database");
    let before = db.stats();
    let mut balance = Rational::from_int(0);
    for _ in 0..reads {
        balance = db.transact_read(|rtx| rtx.view::<AccountObject>("acct")).expect("snapshot read");
    }
    let watermark = db.begin_read().watermark();
    let delta = db.stats().delta(&before);
    let locks = delta.sum_prefix("lock.grants")
        + delta.sum_prefix("lock.refusals")
        + delta.sum_prefix("lock.waits");
    println!("read balance {balance:?} {reads} times at watermark {watermark}");
    println!("  lock-manager counter delta across the read phase: {locks}");
    assert_eq!(locks, 0, "read-only phase touched the lock manager");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("run") => run(&args[2], args[3].parse().unwrap(), None),
        Some("crash") => run(&args[2], args[3].parse().unwrap(), Some(args[4].parse().unwrap())),
        Some("recover") => recover(&args[2]),
        Some("read") => read(&args[2], args[3].parse().unwrap()),
        _ => {
            eprintln!("usage: durable_bank run <dir> <txns> | crash <dir> <txns> <abort_after> | recover <dir> | read <dir> <reads>");
            std::process::exit(2);
        }
    }
}
