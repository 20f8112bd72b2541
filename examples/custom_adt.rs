//! Define your own transactional ADT — an **inventory** (a type the
//! paper never analyzed) stated once through `define_adt!`, and run
//! durably under crash recovery with zero hand-written runtime code: no
//! `RuntimeAdt`, no `Snapshot`, no `DbObject`.
//!
//! The definition — serial specification, typed operations, executable
//! semantics, derivation alphabet — is `crates/workload/src/inventory.rs`
//! (`hybrid_cc::workload::inventory`), the same type `adtcheck` audits;
//! this file is the application that runs it.
//!
//! ```text
//! cargo run --release --example custom_adt -- tables
//!     derive and print the inventory's conflict relation from its
//!     serial specification
//! cargo run --release --example custom_adt -- run <dir> <txns>
//!     run a restock/take workload with fsync durability + checkpoints
//! cargo run --release --example custom_adt -- crash <dir> <txns> <abort_after>
//!     same, but std::process::abort() after <abort_after> commits
//! cargo run --release --example custom_adt -- recover <dir>
//!     Db::open + one typed handle = the recovered inventory
//! ```
//!
//! The derived relation is the paper's thesis at work: `restock`s
//! commute with everything except same-item reads and refusals
//! (concurrent suppliers never block each other), successful `take`s of
//! one item conflict (they compete for stock), refused takes are
//! invalidated by a restock of that item, and `check` reads conflict
//! with same-item stock changes. Nobody wrote that table — the bounded
//! invalidated-by search found it in the specification.

use hybrid_cc::adts::define::{SpecAdt, SpecLock};
use hybrid_cc::storage::CompactionPolicy;
use hybrid_cc::workload::inventory::{InvOp, InvRes, Inventory, InventoryDef};
use hybrid_cc::Db;

const ITEMS: [&str; 4] = ["anvil", "bolt", "cog", "dynamo"];

fn run(dir: &str, txns: u64, abort_after: Option<u64>) {
    let db = Db::builder()
        .segment_max_bytes(2048)
        .compaction(CompactionPolicy::every_n(20))
        .env_overrides()
        .open(dir)
        .expect("open database");
    let store = db.object::<Inventory>("warehouse").expect("open inventory");
    let report = db.recovery_report();
    if report.replayed > 0 || report.checkpoint_ts > 0 {
        println!("resumed with stock {:?} from prior sessions", store.committed_state());
    }
    for i in 1..=txns {
        let item = ITEMS[(i as usize) % ITEMS.len()].to_string();
        db.transact(|tx| {
            store.execute(tx, InvOp::Restock(item.clone(), 3))?;
            let took = store.execute(tx, InvOp::Take(item.clone(), (i % 5) as i64 + 1))?;
            if took == InvRes::Taken(false) {
                // Refusals are legal outcomes: they log, replay, and
                // verify like the account's overdrafts.
                store.execute(tx, InvOp::Check(item.clone()))?;
            }
            Ok(())
        })
        .expect("commit");
        println!("committed txn {i}: stock {:?}", store.committed_state());
        db.maybe_checkpoint().unwrap();
        if abort_after == Some(i) {
            eprintln!("== simulating power failure: abort() after {i} acknowledged commits ==");
            std::process::abort();
        }
    }
    let ckpts = db.stats().counter("ckpt.count");
    println!("final stock {:?} after {txns} txns ({ckpts} checkpoints)", store.committed_state());
}

fn recover(dir: &str) {
    let db = Db::builder().env_overrides().open(dir).expect("open database");
    let store = db.object::<Inventory>("warehouse").expect("open inventory");
    let report = db.recovery_report();
    println!(
        "recovered stock {:?} (checkpoint through ts {}, {} tail commits, torn tail: {})",
        store.committed_state(),
        report.checkpoint_ts,
        report.replayed,
        report.torn_tail
    );
}

fn tables() {
    let lock = SpecLock::<SpecAdt<InventoryDef>>::from_def();
    println!("Inventory conflict relation, derived from its serial specification");
    println!("(symmetric closure applied at lock time; conditions compare the item):\n");
    for atom in lock.relation().atoms() {
        println!("  {atom:?}");
    }
    println!(
        "\nRestocks never conflict with each other: concurrent suppliers\n\
         proceed in parallel, exactly like the paper's concurrent enqueuers."
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("tables") => tables(),
        Some("run") => run(&args[2], args[3].parse().unwrap(), None),
        Some("crash") => run(&args[2], args[3].parse().unwrap(), Some(args[4].parse().unwrap())),
        Some("recover") => recover(&args[2]),
        _ => {
            eprintln!(
                "usage: custom_adt tables | run <dir> <txns> | crash <dir> <txns> <abort_after> | recover <dir>"
            );
            std::process::exit(2);
        }
    }
}
