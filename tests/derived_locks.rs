//! Satellite property test: for **every** built-in ADT, the lock
//! `Db::object` runs — the relation derived from the type's serial
//! specification, compiled to a class matrix and fed by the type's typed
//! classifier — agrees with the relation's atoms and with the table
//! written down by hand on every lock-grant decision, over a randomized
//! operation domain far larger than the derivation domain.
//!
//! This is the paper's central claim made executable end to end: the
//! tables (Tables I, II, IV and V, and the extension types' tables
//! stated below) encode nothing the specification does not already
//! determine. Each test draws thousands of random executed-operation
//! pairs and checks three verdicts against each other: the compiled
//! typed test, the derived atoms on the operations mapped onto the
//! formal layer with the type's `to_spec_op` (the dynamic reference), and
//! the hand-written table on the same — and that the verdicts actually
//! fire both ways across the run, so agreement is never vacuous.

use hybrid_cc::adts::{account, counter, directory, fifo_queue, file, semiqueue, set, ObjectAdt};
use hybrid_cc::relations::derive::conflict_atoms;
use hybrid_cc::relations::tables::{
    paper_table_i, paper_table_ii, paper_table_iv, paper_table_v, table, AdtConfig, EQ, TRUE,
};
use hybrid_cc::relations::{Atom, Relation};
use hybrid_cc::spec::{Operation, Rational};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Drive `pairs` random pairs through the type's canonical lock (the
/// compiled typed path), the derived atoms and the hand-written `table`,
/// and demand exact agreement; returns how often they (jointly) said
/// "conflict". Every drawn operation's class, as the typed classifier
/// names it, must be the one the derivation's classifier gives its spec
/// operation, so both feed one set of lock-metric keys.
fn agree<A, F>(
    cfg: AdtConfig,
    table: BTreeSet<Atom>,
    mut gen: impl FnMut(&mut StdRng) -> (A::Inv, A::Res),
    to_spec: F,
    pairs: usize,
    seed: u64,
) -> usize
where
    A: ObjectAdt,
    F: Fn(&A::Inv, &A::Res) -> Operation,
{
    let lock = A::canonical_locks();
    let hand = Relation::new(cfg.classify, table);
    let rel = Relation::new(cfg.classify, conflict_atoms(&cfg.into()));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut conflicts = 0;
    for _ in 0..pairs {
        let a = gen(&mut rng);
        let b = gen(&mut rng);
        for op in [&a, &b] {
            let class = lock.class_name(lock.classify(op).class);
            assert_eq!(class, rel.classify(&to_spec(&op.0, &op.1)), "class name of {op:?}");
        }
        let (spec_a, spec_b) = (to_spec(&a.0, &a.1), to_spec(&b.0, &b.1));
        let want = hand.conflicts(&spec_a, &spec_b);
        let derived = rel.conflicts(&spec_a, &spec_b);
        let compiled = lock.conflicts(&a, &b);
        assert_eq!(
            (derived, compiled),
            (want, want),
            "the derived atoms, the compiled lock and the table disagree on {a:?} vs {b:?}"
        );
        conflicts += want as usize;
    }
    assert!(conflicts > 0, "vacuous agreement: no pair ever conflicted");
    assert!(conflicts < pairs, "vacuous agreement: every pair conflicted");
    conflicts
}

const PAIRS: usize = 4000;

#[test]
fn counter_derived_agrees_with_hand_written() {
    use counter::{CounterAdt, CounterInv, CounterRes};
    let cfg = AdtConfig::counter();
    let gen = |rng: &mut StdRng| -> (CounterInv, CounterRes) {
        // Deltas include 0 (the Touch class) and values far outside the
        // derivation domain {0, 1, 2}.
        let delta = rng.gen_range(-3i64..50) * i64::from(rng.gen_range(0..4u32) != 0);
        match rng.gen_range(0..3u32) {
            0 => (CounterInv::Inc(delta), CounterRes::Ok),
            1 => (CounterInv::Dec(delta), CounterRes::Ok),
            _ => (CounterInv::Read, CounterRes::Val(rng.gen_range(-100i64..100))),
        }
    };
    // A read is invalidated by any non-zero update, whatever the values;
    // updates never conflict with each other.
    let table = table(&[("Read", "Inc", TRUE), ("Read", "Dec", TRUE)]);
    agree::<CounterAdt, _>(cfg, table, gen, counter::to_spec_op, PAIRS, 11);
}

#[test]
fn set_derived_agrees_with_hand_written() {
    use set::{SetAdt, SetInv};
    let cfg = AdtConfig::set();
    let gen = |rng: &mut StdRng| -> (SetInv<i64>, bool) {
        let x = rng.gen_range(0..6i64);
        let ok = rng.gen_range(0..2u32) == 0;
        match rng.gen_range(0..3u32) {
            0 => (SetInv::Add(x), ok),
            1 => (SetInv::Remove(x), ok),
            _ => (SetInv::Contains(x), ok),
        }
    };
    // Per element: a mutating add invalidates what it answers differently
    // afterwards, and so does a mutating remove.
    let table = table(&[
        ("Add-New", "Add-New", EQ),
        ("Remove-Miss", "Add-New", EQ),
        ("Contains-F", "Add-New", EQ),
        ("Add-Dup", "Remove-Hit", EQ),
        ("Remove-Hit", "Remove-Hit", EQ),
        ("Contains-T", "Remove-Hit", EQ),
    ]);
    agree::<SetAdt<i64>, _>(cfg, table, gen, set::to_spec_op, PAIRS, 12);
}

#[test]
fn queue_derived_agrees_with_table_ii() {
    use fifo_queue::{QueueAdt, QueueInv, QueueRes};
    let cfg = AdtConfig::queue();
    let gen = |rng: &mut StdRng| -> (QueueInv<i64>, QueueRes<i64>) {
        let v = rng.gen_range(0..8i64);
        if rng.gen_range(0..2u32) == 0 {
            (QueueInv::Enq(v), QueueRes::Ok)
        } else {
            (QueueInv::Deq, QueueRes::Item(v))
        }
    };
    agree::<QueueAdt<i64>, _>(cfg, paper_table_ii(), gen, fifo_queue::to_spec_op, PAIRS, 13);
}

#[test]
fn semiqueue_derived_agrees_with_table_iv() {
    use semiqueue::{SemiqueueAdt, SqInv, SqRes};
    let cfg = AdtConfig::semiqueue();
    let gen = |rng: &mut StdRng| -> (SqInv<i64>, SqRes<i64>) {
        let v = rng.gen_range(0..5i64);
        if rng.gen_range(0..2u32) == 0 {
            (SqInv::Ins(v), SqRes::Ok)
        } else {
            (SqInv::Rem, SqRes::Item(v))
        }
    };
    agree::<SemiqueueAdt<i64>, _>(cfg, paper_table_iv(), gen, semiqueue::to_spec_op, PAIRS, 14);
}

#[test]
fn file_derived_agrees_with_table_i() {
    use file::{FileAdt, FileInv, FileRes};
    let cfg = AdtConfig::file();
    let gen = |rng: &mut StdRng| -> (FileInv<i64>, FileRes<i64>) {
        let v = rng.gen_range(0..6i64);
        if rng.gen_range(0..2u32) == 0 {
            (FileInv::Write(v), FileRes::Ok)
        } else {
            (FileInv::Read, FileRes::Val(v))
        }
    };
    agree::<FileAdt<i64>, _>(cfg, paper_table_i(), gen, file::to_spec_op, PAIRS, 15);
}

#[test]
fn account_derived_agrees_with_table_v() {
    use account::{AccountAdt, AccountInv, AccountRes};
    let cfg = AdtConfig::account();
    let gen = |rng: &mut StdRng| -> (AccountInv, AccountRes) {
        let amt = Rational::new(rng.gen_range(1..60i64) as i128, rng.gen_range(1..4i64) as i128);
        match rng.gen_range(0..4u32) {
            0 => (AccountInv::Credit(amt), AccountRes::Ok),
            1 => (AccountInv::Post(amt), AccountRes::Ok),
            2 => (AccountInv::Debit(amt), AccountRes::Debited),
            _ => (AccountInv::Debit(amt), AccountRes::Overdraft),
        }
    };
    agree::<AccountAdt, _>(cfg, paper_table_v(), gen, account::to_spec_op, PAIRS, 16);
}

#[test]
fn directory_derived_agrees_with_hand_written() {
    use directory::{DirInv, DirRes, DirectoryAdt};
    let cfg = AdtConfig::directory();
    let gen = |rng: &mut StdRng| -> (DirInv<String, i64>, DirRes<i64>) {
        let k = ["a", "b", "c", "d"][rng.gen_range(0..4usize)].to_string();
        let v = rng.gen_range(0..5i64);
        match rng.gen_range(0..6u32) {
            0 => (DirInv::Insert(k, v), DirRes::Inserted),
            1 => (DirInv::Insert(k, v), DirRes::Duplicate),
            2 => (DirInv::Remove(k), DirRes::Val(v)),
            3 => (DirInv::Remove(k), DirRes::Missing),
            4 => (DirInv::Lookup(k), DirRes::Val(v)),
            _ => (DirInv::Lookup(k), DirRes::Missing),
        }
    };
    // Per key: a binding insert invalidates what finds the key unbound,
    // an unbinding remove what finds it bound.
    let table = table(&[
        ("Insert-New", "Insert-New", EQ),
        ("Remove-Miss", "Insert-New", EQ),
        ("Lookup-Miss", "Insert-New", EQ),
        ("Insert-Dup", "Remove-Hit", EQ),
        ("Remove-Hit", "Remove-Hit", EQ),
        ("Lookup-Hit", "Remove-Hit", EQ),
    ]);
    agree::<DirectoryAdt<String, i64>, _>(cfg, table, gen, directory::to_spec_op, PAIRS, 17);
}

/// Each built-in's relation is derived once per process and then held
/// per type: a second `Db` opening every built-in derives nothing.
#[test]
fn a_second_db_opening_every_built_in_derives_nothing() {
    use hybrid_cc::adts::{
        AccountObject, CounterObject, DirectoryObject, FileObject, QueueObject, SemiqueueObject,
        SetObject,
    };
    use hybrid_cc::relations::derive::derivations_performed;
    use hybrid_cc::Db;

    fn open_every_built_in(db: &Db) {
        db.object::<AccountObject>("account").unwrap();
        db.object::<QueueObject<i64>>("queue").unwrap();
        db.object::<SemiqueueObject<i64>>("semiqueue").unwrap();
        db.object::<FileObject<i64>>("file").unwrap();
        db.object::<CounterObject>("counter").unwrap();
        db.object::<SetObject<i64>>("set").unwrap();
        db.object::<DirectoryObject<String, i64>>("directory").unwrap();
    }
    open_every_built_in(&Db::in_memory());
    let before = derivations_performed();
    open_every_built_in(&Db::in_memory());
    assert_eq!(derivations_performed(), before, "a repeat open derived again");
}
