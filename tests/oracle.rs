//! Theorem 11/16 as a property test (experiment E12): every history
//! generated by the LOCK machine — under any schedule, for any of the
//! bundled data types — is well formed, hybrid atomic, and (for bounded
//! histories) online hybrid atomic. Theorem 17's converse lives in
//! `hcc-verify`'s unit tests and is re-checked here at the system level.

use hybrid_cc::relations::derive::conflict_atoms;
use hybrid_cc::relations::tables::AdtConfig;
use hybrid_cc::relations::Relation;
use hybrid_cc::spec::adt::SharedAdt;
use hybrid_cc::spec::{Inv, ObjectId, Timestamp, TxnId};
use hybrid_cc::verify::{
    hybrid_atomic, online_hybrid_atomic, LockMachine, RespondOutcome, SystemSpecs,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::collections::HashMap;
use std::sync::Arc;

/// A schedule step over a small transaction population.
#[derive(Clone, Debug)]
enum Step {
    Op(u64, usize), // (txn, index into the type's invocation menu)
    Commit(u64),
    Abort(u64),
}

fn step_strategy(menu_len: usize, txns: u64) -> impl Strategy<Value = Step> {
    prop_oneof![
        6 => (0..txns, 0..menu_len).prop_map(|(t, i)| Step::Op(t, i)),
        2 => (0..txns).prop_map(Step::Commit),
        1 => (0..txns).prop_map(Step::Abort),
    ]
}

/// Drive a schedule through a LOCK machine; return the machine.
fn run(spec: SharedAdt, conflict: Arc<Relation>, menu: &[Inv], steps: &[Step]) -> LockMachine {
    let mut m = LockMachine::new(ObjectId(0), spec, conflict);
    let mut done: HashMap<u64, ()> = HashMap::new();
    let mut next_ts = 1u64;
    for step in steps {
        match step {
            Step::Op(t, i) => {
                if done.contains_key(t) {
                    continue;
                }
                match m.execute(TxnId(*t), menu[*i].clone()).unwrap() {
                    RespondOutcome::Responded(_) => {}
                    _ => m.cancel_pending(TxnId(*t)),
                }
            }
            Step::Commit(t) => {
                if done.contains_key(t) {
                    continue;
                }
                let bound = m.bound(TxnId(*t)).map(|b| b.0).unwrap_or(0);
                next_ts = next_ts.max(bound + 1);
                m.commit(TxnId(*t), Timestamp(next_ts)).unwrap();
                next_ts += 1;
                done.insert(*t, ());
            }
            Step::Abort(t) => {
                if done.contains_key(t) {
                    continue;
                }
                m.abort(TxnId(*t)).unwrap();
                done.insert(*t, ());
            }
        }
    }
    m
}

/// Drive a schedule through a LOCK machine running the type's derived
/// hybrid relation and check the history it records.
fn check_machine_history(cfg: AdtConfig, steps: &[Step]) {
    let conflict = Arc::new(cfg.derived(conflict_atoms));
    let menu: Vec<Inv> = {
        // Use the alphabet's distinct invocations as the operation menu.
        let mut seen = BTreeSet::new();
        cfg.alphabet
            .iter()
            .filter(|op| seen.insert(op.inv.clone()))
            .map(|op| op.inv.clone())
            .collect()
    };
    let m = run(cfg.adt.clone(), conflict, &menu, steps);
    let h = m.history();
    h.well_formed().expect("LOCK histories are well formed");
    let specs = SystemSpecs::new().with(ObjectId(0), cfg.adt.clone());
    assert!(hybrid_atomic(h, &specs), "history not hybrid atomic:\n{h:?}");
    if h.txns().len() <= 5 {
        assert!(online_hybrid_atomic(h, &specs), "history not ONLINE hybrid atomic:\n{h:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn queue_lock_histories_are_hybrid_atomic(
        steps in prop::collection::vec(step_strategy(3, 4), 1..30)
    ) {
        check_machine_history(AdtConfig::queue(), &steps);
    }

    #[test]
    fn semiqueue_lock_histories_are_hybrid_atomic(
        steps in prop::collection::vec(step_strategy(3, 4), 1..30)
    ) {
        check_machine_history(AdtConfig::semiqueue(), &steps);
    }

    #[test]
    fn file_lock_histories_are_hybrid_atomic(
        steps in prop::collection::vec(step_strategy(3, 4), 1..30)
    ) {
        check_machine_history(AdtConfig::file(), &steps);
    }

    #[test]
    fn account_lock_histories_are_hybrid_atomic(
        steps in prop::collection::vec(step_strategy(7, 4), 1..25)
    ) {
        check_machine_history(AdtConfig::account(), &steps);
    }

    #[test]
    fn set_lock_histories_are_hybrid_atomic(
        steps in prop::collection::vec(step_strategy(6, 4), 1..25)
    ) {
        check_machine_history(AdtConfig::set(), &steps);
    }

    /// Theorem 17 at the system level: with the empty conflict relation
    /// (not a dependency relation), some schedules produce histories that
    /// are NOT hybrid atomic — the verifier must be able to catch them.
    #[test]
    fn verifier_catches_violations_without_conflicts(
        steps in prop::collection::vec(step_strategy(3, 4), 1..30)
    ) {
        let cfg = AdtConfig::queue();
        let menu: Vec<Inv> = {
            let mut seen = BTreeSet::new();
            cfg.alphabet.iter().filter(|op| seen.insert(op.inv.clone()))
                .map(|op| op.inv.clone()).collect()
        };
        let no_conflict = Arc::new(Relation::empty(cfg.classify));
        let m = run(cfg.adt.clone(), no_conflict, &menu, &steps);
        // Histories stay well formed (that is a structural property), but
        // hybrid atomicity may fail; simply exercising the verifier on
        // these histories must not panic.
        m.history().well_formed().unwrap();
        let specs = SystemSpecs::new().with(ObjectId(0), cfg.adt.clone());
        let _ = hybrid_atomic(m.history(), &specs);
    }
}

/// The known Theorem-17 counterexample is definitively rejected.
#[test]
fn theorem_17_counterexample_detected_by_verifier() {
    use hybrid_cc::spec::specs::QueueSpec;
    let no_conflict = Arc::new(Relation::empty(AdtConfig::queue().classify));
    let mut m = LockMachine::new(ObjectId(0), Arc::new(QueueSpec), no_conflict);
    m.execute(TxnId(2), QueueSpec::enq(2)).unwrap();
    m.execute(TxnId(3), QueueSpec::enq(1)).unwrap();
    m.execute(TxnId(3), QueueSpec::deq()).unwrap();
    m.commit(TxnId(2), Timestamp(1)).unwrap();
    m.commit(TxnId(3), Timestamp(2)).unwrap();
    let specs = SystemSpecs::new().with(ObjectId(0), Arc::new(QueueSpec) as SharedAdt);
    assert!(!hybrid_atomic(m.history(), &specs));
    assert!(!online_hybrid_atomic(m.history(), &specs));
}

/// The derived class-level conflict relations, read from their atoms on
/// spec operations, agree with the locks `Db::object` runs — the same
/// relations compiled to class matrices and fed by each type's typed
/// classifier — over the derivation alphabet.
#[test]
fn derived_conflicts_match_handwritten_lock_specs() {
    use hybrid_cc::adts::ObjectAdt;

    // Queue Table II.
    let cfg = AdtConfig::queue();
    let derived = cfg.derived(conflict_atoms);
    let hand = hybrid_cc::adts::fifo_queue::QueueAdt::<i64>::canonical_locks();
    for a in &cfg.alphabet {
        for b in &cfg.alphabet {
            let typed = |op: &hybrid_cc::spec::Operation| {
                use hybrid_cc::adts::fifo_queue::{QueueInv, QueueRes};
                if op.inv.op == "enq" {
                    (QueueInv::Enq(op.inv.args[0].as_int()), QueueRes::Ok)
                } else {
                    (QueueInv::Deq, QueueRes::Item(op.res.as_int()))
                }
            };
            assert_eq!(
                derived.conflicts(a, b),
                hand.conflicts(&typed(a), &typed(b)),
                "queue conflict mismatch on ({a:?}, {b:?})"
            );
        }
    }

    // Account Table V.
    let cfg = AdtConfig::account();
    let derived = cfg.derived(conflict_atoms);
    let hand = hybrid_cc::adts::account::AccountAdt::canonical_locks();
    for a in &cfg.alphabet {
        for b in &cfg.alphabet {
            let typed = |op: &hybrid_cc::spec::Operation| {
                use hybrid_cc::adts::account::{AccountInv, AccountRes};
                let amt = op.inv.args[0].as_rat();
                match op.inv.op {
                    "credit" => (AccountInv::Credit(amt), AccountRes::Ok),
                    "post" => (AccountInv::Post(amt), AccountRes::Ok),
                    _ => (
                        AccountInv::Debit(amt),
                        if op.res.as_bool() { AccountRes::Debited } else { AccountRes::Overdraft },
                    ),
                }
            };
            assert_eq!(
                derived.conflicts(a, b),
                hand.conflicts(&typed(a), &typed(b)),
                "account conflict mismatch on ({a:?}, {b:?})"
            );
        }
    }

    // Set: the per-element relation, compiled, equals the derived one.
    let cfg = AdtConfig::set();
    let derived = cfg.derived(conflict_atoms);
    let hand = hybrid_cc::adts::set::SetAdt::<i64>::canonical_locks();
    for a in &cfg.alphabet {
        for b in &cfg.alphabet {
            let typed = |op: &hybrid_cc::spec::Operation| {
                use hybrid_cc::adts::set::SetInv;
                let x = op.inv.args[0].as_int();
                let inv = match op.inv.op {
                    "add" => SetInv::Add(x),
                    "remove" => SetInv::Remove(x),
                    _ => SetInv::Contains(x),
                };
                (inv, op.res.as_bool())
            };
            assert_eq!(
                derived.conflicts(a, b),
                hand.conflicts(&typed(a), &typed(b)),
                "set conflict mismatch on ({a:?}, {b:?})"
            );
        }
    }
}
