//! Scheme comparison on a shared bank account: hybrid vs commutativity
//! vs read/write 2PL, all three relations derived from the account's
//! serial specification — plus a deadlock-prone transfer pattern written
//! against the `Db` facade, where `transact` absorbs the deadlock
//! victims.
//!
//! ```text
//! cargo run --release --example banking
//! ```

use hybrid_cc::adts::account::AccountObject;
use hybrid_cc::relations::AdtConfig;
use hybrid_cc::spec::Rational;
use hybrid_cc::workload::scheme::{run, Scheme};
use hybrid_cc::Db;
use rand::Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn money(n: i64) -> Rational {
    Rational::from_int(n)
}

fn main() {
    println!("single shared account, 4 workers x 200 txns x 4 ops, 5% overdraft attempts\n");
    for scheme in Scheme::ALL {
        // A short lock timeout: a worker stuck behind a conflict aborts
        // and `run` retries it.
        let db = Db::builder().lock_timeout(Duration::from_millis(500)).in_memory();
        let acct = db.object_with("acct", scheme.lock(AdtConfig::account())).unwrap();
        db.transact(|tx| acct.credit(tx, money(1_000_000)).map_err(Into::into)).unwrap();
        let start = Instant::now();
        let r = run(&db, 4, 200, |t, _, rng| {
            for _ in 0..4 {
                match rng.gen_range(0..100u32) {
                    0..=44 => acct.credit(t, money(rng.gen_range(1..50)))?,
                    // 0% interest: Post's lock behaviour is value-independent.
                    45..=54 => acct.post(t, Rational::ZERO)?,
                    // One debit in twenty is far above any reachable balance.
                    _ if rng.gen_range(0..20u32) == 0 => {
                        acct.debit(t, money(1_000_000_000_000))?;
                    }
                    _ => {
                        acct.debit(t, money(rng.gen_range(1..50)))?;
                    }
                }
            }
            Ok(())
        });
        let rate = r.committed as f64 / start.elapsed().as_secs_f64();
        println!("  {:<14} {r:?}  {rate:.0} txn/s", scheme.name());
    }

    println!("\nTable V in action: the hybrid scheme admits Credit∥Post and Post∥Debit-Ok,");
    println!("which commutativity (Table VI) refuses; read/write 2PL refuses every pair");
    println!("that includes an update.");

    // The deadlock-prone transfer pattern through `Db::transact`: every
    // worker's closure just moves the money; doomed victims and timeouts
    // are classified transient and retried by the scope, so no worker
    // writes a retry loop and every transfer lands exactly once.
    let db = Arc::new(Db::in_memory());
    let accounts: Vec<_> =
        (0..4).map(|i| db.object::<AccountObject>(&format!("acct-{i}")).unwrap()).collect();
    db.transact(|tx| {
        for a in &accounts {
            a.credit(tx, money(100))?;
        }
        Ok(())
    })
    .unwrap();
    std::thread::scope(|s| {
        for w in 0..4 {
            let db = db.clone();
            let accounts = accounts.clone();
            s.spawn(move || {
                for i in 0..50 {
                    // Opposite traversal orders: a classic deadlock recipe.
                    let (from, to) = if w % 2 == 0 {
                        (&accounts[(w + i) % 4], &accounts[(w + i + 1) % 4])
                    } else {
                        (&accounts[(w + i + 1) % 4], &accounts[(w + i) % 4])
                    };
                    db.transact(|tx| {
                        if from.debit(tx, money(1))? {
                            to.credit(tx, money(1))?;
                        }
                        Ok(())
                    })
                    .unwrap();
                }
            });
        }
    });
    let total: Rational =
        accounts.iter().map(|a| a.committed_balance()).fold(Rational::ZERO, |s, b| s + b);
    let victims = db.manager().detector().victims();
    println!("\nDb::transact transfers: money conserved ({total} total across 4 accounts),");
    println!("deadlock victims retried transparently: {victims}");
    assert_eq!(total, money(400));
}
