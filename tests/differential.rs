//! Differential testing: the appendix-style production runtime
//! (`TxObject`) must agree, response for response and state for state,
//! with the literal Section-5.1 state machine (`LockMachine`) under
//! identical schedules. The object runs the lock `Db::object` gives it
//! (the derived relation, compiled, fed by the type's typed classifier);
//! the machine runs the paper's table on spec operations.

use hybrid_cc::adts::account::{self, AccountAdt, AccountInv};
use hybrid_cc::adts::fifo_queue::{self, QueueAdt, QueueInv};
use hybrid_cc::adts::ObjectAdt;
use hybrid_cc::core::runtime::{TryExecOutcome, TxObject, TxParticipant, TxnHandle};
use hybrid_cc::relations::tables::{paper_table_ii, paper_table_v, AdtConfig};
use hybrid_cc::relations::Relation;
use hybrid_cc::spec::{legal, ObjectId, Rational, Timestamp, TxnId, Value};
use hybrid_cc::verify::{LockMachine, RespondOutcome};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// One step of a schedule over up to four transactions.
#[derive(Clone, Debug)]
enum Step<I> {
    Op(u64, I),
    Commit(u64),
    Abort(u64),
}

/// Account-specific driver (invocation mapping is response-independent).
fn drive_account(steps: Vec<Step<AccountInv>>) {
    // The paper's Table V, against the compiled derived relation.
    let conflict = Relation::new(AdtConfig::account().classify, paper_table_v());
    let mut machine = LockMachine::new(
        ObjectId(0),
        Arc::new(hybrid_cc::spec::specs::AccountSpec),
        Arc::new(conflict),
    );
    let object = TxObject::new(
        "acct",
        AccountAdt,
        AccountAdt::canonical_locks(),
        hybrid_cc::core::runtime::RuntimeOptions::default(),
    );
    let mut handles: HashMap<u64, Arc<TxnHandle>> = HashMap::new();
    let mut done: HashMap<u64, ()> = HashMap::new();
    let mut next_ts = 1u64;

    for step in steps {
        match step {
            Step::Op(t, inv) => {
                if done.contains_key(&t) {
                    continue;
                }
                let h = handles.entry(t).or_insert_with(|| TxnHandle::new(TxnId(t))).clone();
                let dyn_inv = match &inv {
                    AccountInv::Credit(a) => hybrid_cc::spec::specs::AccountSpec::credit(*a),
                    AccountInv::Post(p) => hybrid_cc::spec::specs::AccountSpec::post(*p),
                    AccountInv::Debit(a) => hybrid_cc::spec::specs::AccountSpec::debit(*a),
                };
                let m_out = machine.execute(TxnId(t), dyn_inv).unwrap();
                let r_out = object.try_execute(&h, &inv).unwrap();
                match (&m_out, &r_out) {
                    (RespondOutcome::Responded(mv), TryExecOutcome::Executed(rv)) => {
                        let mapped = account::to_spec_op(&inv, rv);
                        assert_eq!(*mv, mapped.res, "response mismatch on {inv:?}");
                    }
                    (RespondOutcome::Blocked { conflicts_with }, TryExecOutcome::Conflict(h2)) => {
                        assert_eq!(conflicts_with, h2, "blocker sets differ on {inv:?}");
                        machine.cancel_pending(TxnId(t));
                    }
                    (RespondOutcome::Undefined, TryExecOutcome::Undefined) => {
                        machine.cancel_pending(TxnId(t));
                    }
                    other => panic!("outcome mismatch on {inv:?}: {other:?}"),
                }
            }
            Step::Commit(t) => {
                if done.contains_key(&t) || !handles.contains_key(&t) {
                    continue;
                }
                let bound = machine.bound(TxnId(t)).map(|b| b.0).unwrap_or(0);
                next_ts = next_ts.max(bound + 1);
                machine.commit(TxnId(t), Timestamp(next_ts)).unwrap();
                object.commit_at(TxnId(t), next_ts);
                next_ts += 1;
                done.insert(t, ());
            }
            Step::Abort(t) => {
                if done.contains_key(&t) {
                    continue;
                }
                machine.abort(TxnId(t)).unwrap();
                object.abort_txn(TxnId(t));
                handles.entry(t).or_insert_with(|| TxnHandle::new(TxnId(t)));
                done.insert(t, ());
            }
        }
    }

    // Final committed state: replay the machine's committed view against
    // the spec and compare with the runtime's folded version.
    let view = machine.view_ops(TxnId(9999));
    assert!(legal(&hybrid_cc::spec::specs::AccountSpec, &view), "machine view must be legal");
    let mut bal = Rational::ZERO;
    for op in &view {
        match op.inv.op {
            "credit" => bal += op.inv.args[0].as_rat(),
            "post" => bal *= Rational::percent_multiplier(op.inv.args[0].as_rat()),
            "debit" if op.res == Value::Bool(true) => bal -= op.inv.args[0].as_rat(),
            _ => {}
        }
    }
    assert_eq!(bal, object.committed_snapshot(), "final balances diverge");
}

/// Queue-specific driver.
fn drive_queue(steps: Vec<Step<QueueInv<i64>>>) {
    // The paper's Table II, against the compiled derived relation.
    let conflict = Relation::new(AdtConfig::queue().classify, paper_table_ii());
    let mut machine = LockMachine::new(
        ObjectId(0),
        Arc::new(hybrid_cc::spec::specs::QueueSpec),
        Arc::new(conflict),
    );
    let object = TxObject::new(
        "q",
        QueueAdt::<i64>::default(),
        QueueAdt::<i64>::canonical_locks(),
        hybrid_cc::core::runtime::RuntimeOptions::default(),
    );
    let mut handles: HashMap<u64, Arc<TxnHandle>> = HashMap::new();
    let mut done: HashMap<u64, ()> = HashMap::new();
    let mut next_ts = 1u64;

    for step in steps {
        match step {
            Step::Op(t, inv) => {
                if done.contains_key(&t) {
                    continue;
                }
                let h = handles.entry(t).or_insert_with(|| TxnHandle::new(TxnId(t))).clone();
                let dyn_inv = match &inv {
                    QueueInv::Enq(v) => hybrid_cc::spec::specs::QueueSpec::enq(*v),
                    QueueInv::Deq => hybrid_cc::spec::specs::QueueSpec::deq(),
                };
                let m_out = machine.execute(TxnId(t), dyn_inv).unwrap();
                let r_out = object.try_execute(&h, &inv).unwrap();
                match (&m_out, &r_out) {
                    (RespondOutcome::Responded(mv), TryExecOutcome::Executed(rv)) => {
                        let mapped = fifo_queue::to_spec_op(&inv, rv);
                        assert_eq!(*mv, mapped.res, "response mismatch on {inv:?}");
                    }
                    (RespondOutcome::Blocked { conflicts_with }, TryExecOutcome::Conflict(h2)) => {
                        assert_eq!(conflicts_with, h2);
                        machine.cancel_pending(TxnId(t));
                    }
                    (RespondOutcome::Undefined, TryExecOutcome::Undefined) => {
                        machine.cancel_pending(TxnId(t));
                    }
                    other => panic!("outcome mismatch on {inv:?}: {other:?}"),
                }
            }
            Step::Commit(t) => {
                if done.contains_key(&t) || !handles.contains_key(&t) {
                    continue;
                }
                let bound = machine.bound(TxnId(t)).map(|b| b.0).unwrap_or(0);
                next_ts = next_ts.max(bound + 1);
                machine.commit(TxnId(t), Timestamp(next_ts)).unwrap();
                object.commit_at(TxnId(t), next_ts);
                next_ts += 1;
                done.insert(t, ());
            }
            Step::Abort(t) => {
                if done.contains_key(&t) {
                    continue;
                }
                machine.abort(TxnId(t)).unwrap();
                object.abort_txn(TxnId(t));
                handles.entry(t).or_insert_with(|| TxnHandle::new(TxnId(t)));
                done.insert(t, ());
            }
        }
    }

    // Committed queue contents must match.
    let view = machine.view_ops(TxnId(9999));
    let mut q = std::collections::VecDeque::new();
    for op in &view {
        match op.inv.op {
            "enq" => q.push_back(op.inv.args[0].as_int()),
            "deq" => {
                q.pop_front();
            }
            _ => {}
        }
    }
    assert_eq!(q, object.committed_snapshot(), "final queue contents diverge");
}

fn account_step() -> impl Strategy<Value = Step<AccountInv>> {
    let txn = 0u64..4;
    prop_oneof![
        6 => (txn.clone(), 0i64..3, 1i64..6).prop_map(|(t, kind, amt)| {
            let r = Rational::from_int(amt);
            Step::Op(t, match kind {
                0 => AccountInv::Credit(r),
                1 => AccountInv::Debit(r),
                _ => AccountInv::Post(Rational::from_int(5)),
            })
        }),
        2 => txn.clone().prop_map(Step::Commit),
        1 => txn.prop_map(Step::Abort),
    ]
}

fn queue_step() -> impl Strategy<Value = Step<QueueInv<i64>>> {
    let txn = 0u64..4;
    prop_oneof![
        6 => (txn.clone(), 0i64..2, 1i64..4).prop_map(|(t, kind, v)| {
            Step::Op(t, if kind == 0 { QueueInv::Enq(v) } else { QueueInv::Deq })
        }),
        2 => txn.clone().prop_map(Step::Commit),
        1 => txn.prop_map(Step::Abort),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn account_runtime_matches_formal_machine(steps in prop::collection::vec(account_step(), 1..40)) {
        drive_account(steps);
    }

    #[test]
    fn queue_runtime_matches_formal_machine(steps in prop::collection::vec(queue_step(), 1..40)) {
        drive_queue(steps);
    }
}

#[test]
fn deterministic_smoke() {
    drive_account(vec![
        Step::Op(0, AccountInv::Credit(Rational::from_int(5))),
        Step::Op(1, AccountInv::Debit(Rational::from_int(3))),
        Step::Commit(0),
        Step::Op(1, AccountInv::Debit(Rational::from_int(3))),
        Step::Commit(1),
    ]);
    drive_queue(vec![
        Step::Op(0, QueueInv::Enq(1)),
        Step::Op(1, QueueInv::Enq(2)),
        Step::Commit(1),
        Step::Commit(0),
        Step::Op(2, QueueInv::Deq),
        Step::Op(2, QueueInv::Deq),
        Step::Commit(2),
    ]);
}
