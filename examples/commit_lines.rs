//! What two *unrelated* transactions still share: two threads run
//! one-credit transactions flat out, and each probe changes only what
//! the two threads have in common. Rates are transactions per second
//! over both threads; `xN` is against the matching `two Dbs` (or `two
//! atomic lines`) probe of the same run. `docs/API.md` ("What unrelated
//! transactions still share") lists the lines and reads these numbers.
//!
//! ```text
//! cargo run --release --example commit_lines -- [seconds per probe] [dir]
//! ```
//!
//! * `one thread`: the same commits with nothing to share, for scale;
//! * `disjoint objects, one Db` against `two Dbs`: the manager's shared
//!   lines — the clock and the transaction-id counter in memory;
//! * `begin + abort, one Db` against `two Dbs`: the id counter alone (an
//!   abort draws no timestamp);
//! * `one object, one Db`: the same, plus the object's latch (credits
//!   commute, so neither thread ever waits for the other);
//! * `durable, one Db` against `durable, two Dbs` (`Buffered`): adds the
//!   commit gate and the log's append lock;
//! * `one atomic line` against `two atomic lines`: a bare `fetch_add`,
//!   the floor under any line two committers both write.

use hybrid_cc::adts::account::AccountObject;
use hybrid_cc::spec::Rational;
use hybrid_cc::storage::Durability;
use hybrid_cc::Db;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run `work` on `threads` threads for `secs`; each call is one unit of
/// work, and thread `i` passes `i`. Returns units per second over all
/// threads.
fn rate(threads: usize, secs: f64, work: impl Fn(usize) + Sync) -> f64 {
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let done: u64 = std::thread::scope(|s| {
        let runners: Vec<_> = (0..threads)
            .map(|i| {
                let (stop, work) = (&stop, &work);
                s.spawn(move || {
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..64 {
                            work(i);
                        }
                        n += 64;
                    }
                    n
                })
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(secs));
        stop.store(true, Ordering::Relaxed);
        runners.into_iter().map(|r| r.join().unwrap()).sum()
    });
    done as f64 / started.elapsed().as_secs_f64()
}

fn credit(db: &Db, acct: &AccountObject) {
    db.transact(|tx| acct.credit(tx, Rational::from_int(1)).map_err(Into::into)).unwrap();
}

/// The same transaction, aborted instead of committed.
fn credit_and_abort(db: &Db, acct: &AccountObject) {
    let txn = db.manager().begin();
    acct.credit(&txn, Rational::from_int(1)).unwrap();
    db.manager().abort(txn);
}

/// Commits per second, thread `i` crediting `accts[i]` in `dbs[i]`.
fn commits(secs: f64, dbs: &[&Db], accts: &[Arc<AccountObject>]) -> f64 {
    rate(dbs.len(), secs, |i| credit(dbs[i], &accts[i]))
}

fn durable(dir: &Path, name: &str) -> Db {
    let dir = dir.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    Db::builder().durability(Durability::Buffered).open(&dir).unwrap()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let secs: f64 = args.next().map_or(2.0, |s| s.parse().expect("seconds per probe"));
    let dir = args.next().unwrap_or_else(|| {
        std::env::temp_dir().join("hcc-commit-lines").to_string_lossy().into_owned()
    });
    let dir = Path::new(&dir);
    let report = |name: &str, per_s: f64, base: Option<f64>| match base {
        Some(base) => println!("{name:<28} {per_s:>12.0} /s   x{:.2}", per_s / base),
        None => println!("{name:<28} {per_s:>12.0} /s"),
    };

    let one = Db::in_memory();
    let accts = [one.object::<AccountObject>("a").unwrap(), one.object("b").unwrap()];
    report("one thread", commits(secs, &[&one], &accts), None);
    let shared = commits(secs, &[&one, &one], &accts);
    let (db0, db1) = (Db::in_memory(), Db::in_memory());
    let apart = [db0.object::<AccountObject>("a").unwrap(), db1.object("a").unwrap()];
    let split = commits(secs, &[&db0, &db1], &apart);
    report("disjoint objects, one Db", shared, Some(split));
    report("disjoint objects, two Dbs", split, None);
    let ids_shared = rate(2, secs, |i| credit_and_abort(&one, &accts[i]));
    let dbs = [&db0, &db1];
    let ids_split = rate(2, secs, |i| credit_and_abort(dbs[i], &apart[i]));
    report("begin + abort, one Db", ids_shared, Some(ids_split));
    report("begin + abort, two Dbs", ids_split, None);
    let hot = one.object::<AccountObject>("a").unwrap();
    report("one object, one Db", commits(secs, &[&one, &one], &[hot.clone(), hot]), Some(split));

    let one = durable(dir, "one");
    let accts = [one.object::<AccountObject>("a").unwrap(), one.object("b").unwrap()];
    let shared = commits(secs, &[&one, &one], &accts);
    let (db0, db1) = (durable(dir, "zero"), durable(dir, "two"));
    let apart = [db0.object::<AccountObject>("a").unwrap(), db1.object("a").unwrap()];
    let split = commits(secs, &[&db0, &db1], &apart);
    report("durable, one Db", shared, Some(split));
    report("durable, two Dbs", split, None);
    drop((one, db0, db1));
    let _ = std::fs::remove_dir_all(dir);

    #[repr(align(128))]
    struct Line(AtomicU64);
    let lines = [Line(AtomicU64::new(0)), Line(AtomicU64::new(0))];
    let contended = rate(2, secs, |_| {
        lines[0].0.fetch_add(1, Ordering::Relaxed);
    });
    let owned = rate(2, secs, |i| {
        lines[i].0.fetch_add(1, Ordering::Relaxed);
    });
    report("one atomic line", contended, Some(owned));
    report("two atomic lines", owned, None);
}
