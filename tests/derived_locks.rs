//! Satellite property test: for **every** built-in ADT, the conflict
//! relation *derived* from its serial specification agrees with the
//! hand-written `LockSpec` on every lock-grant decision, over a
//! randomized operation domain far larger than the derivation domain.
//!
//! This is the paper's central claim made executable end to end: the
//! hand-written relations (Tables I–V plus the extension types) encode
//! nothing the specification does not already determine. Each test draws
//! thousands of random executed-operation pairs, maps them onto the
//! formal layer with the type's `to_spec_op`, and checks the lifted
//! derived relation (a `Relation` over the atoms `hcc-relations`
//! derives) against the hand-written `LockSpec` verdict — and that both
//! verdicts actually fire both ways across the run, so agreement is
//! never vacuous.

use hybrid_cc::adts::{account, counter, directory, fifo_queue, file, semiqueue, set};
use hybrid_cc::core::runtime::LockSpec;
use hybrid_cc::relations::derive::conflict_atoms;
use hybrid_cc::relations::tables::AdtConfig;
use hybrid_cc::relations::Relation;
use hybrid_cc::spec::{Operation, Rational};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Lift the type's derived atoms to a full-domain conflict relation,
/// drive `pairs` random pairs through it and the hand-written relation,
/// and demand exact agreement; returns how often they (jointly) said
/// "conflict". Every drawn operation the hand relation names a class for
/// must get the derivation's class name too, so both feed one set of
/// lock-metric keys.
fn agree<A, F>(
    cfg: AdtConfig,
    hand: &dyn LockSpec<A>,
    mut gen: impl FnMut(&mut StdRng) -> (A::Inv, A::Res),
    to_spec: F,
    pairs: usize,
    seed: u64,
) -> usize
where
    A: hybrid_cc::core::RuntimeAdt,
    F: Fn(&A::Inv, &A::Res) -> Operation,
{
    let rel = Relation::new(cfg.classify, conflict_atoms(&cfg.into()));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut conflicts = 0;
    for _ in 0..pairs {
        let a = gen(&mut rng);
        let b = gen(&mut rng);
        for op in [&a, &b] {
            if let Some(class) = hand.class_of(op) {
                assert_eq!(class, rel.classify(&to_spec(&op.0, &op.1)).0, "class name of {op:?}");
            }
        }
        let want = hand.conflicts(&a, &b);
        let got = rel.conflicts(&to_spec(&a.0, &a.1), &to_spec(&b.0, &b.1));
        assert_eq!(
            got, want,
            "derived and hand-written relations disagree on {a:?} vs {b:?} \
             (derived said {got}, hand-written said {want})"
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
    use counter::{CounterAdt, CounterHybrid, CounterInv, CounterRes};
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
    agree::<CounterAdt, _>(cfg, &CounterHybrid, gen, counter::to_spec_op, PAIRS, 11);
}

#[test]
fn set_derived_agrees_with_hand_written() {
    use set::{SetAdt, SetHybrid, SetInv};
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
    agree::<SetAdt<i64>, _>(cfg, &SetHybrid, gen, set::to_spec_op, PAIRS, 12);
}

#[test]
fn queue_derived_agrees_with_table_ii() {
    use fifo_queue::{QueueAdt, QueueInv, QueueRes, QueueTableII};
    let cfg = AdtConfig::queue();
    let gen = |rng: &mut StdRng| -> (QueueInv<i64>, QueueRes<i64>) {
        let v = rng.gen_range(0..8i64);
        if rng.gen_range(0..2u32) == 0 {
            (QueueInv::Enq(v), QueueRes::Ok)
        } else {
            (QueueInv::Deq, QueueRes::Item(v))
        }
    };
    agree::<QueueAdt<i64>, _>(cfg, &QueueTableII, gen, fifo_queue::to_spec_op, PAIRS, 13);
}

#[test]
fn semiqueue_derived_agrees_with_table_iv() {
    use semiqueue::{SemiqueueAdt, SemiqueueHybrid, SqInv, SqRes};
    let cfg = AdtConfig::semiqueue();
    let gen = |rng: &mut StdRng| -> (SqInv<i64>, SqRes<i64>) {
        let v = rng.gen_range(0..5i64);
        if rng.gen_range(0..2u32) == 0 {
            (SqInv::Ins(v), SqRes::Ok)
        } else {
            (SqInv::Rem, SqRes::Item(v))
        }
    };
    agree::<SemiqueueAdt<i64>, _>(cfg, &SemiqueueHybrid, gen, semiqueue::to_spec_op, PAIRS, 14);
}

#[test]
fn file_derived_agrees_with_table_i() {
    use file::{FileAdt, FileHybrid, FileInv, FileRes};
    let cfg = AdtConfig::file();
    let gen = |rng: &mut StdRng| -> (FileInv<i64>, FileRes<i64>) {
        let v = rng.gen_range(0..6i64);
        if rng.gen_range(0..2u32) == 0 {
            (FileInv::Write(v), FileRes::Ok)
        } else {
            (FileInv::Read, FileRes::Val(v))
        }
    };
    agree::<FileAdt<i64>, _>(cfg, &FileHybrid, gen, file::to_spec_op, PAIRS, 15);
}

#[test]
fn account_derived_agrees_with_table_v() {
    use account::{AccountAdt, AccountHybrid, AccountInv, AccountRes};
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
    agree::<AccountAdt, _>(cfg, &AccountHybrid, gen, account::to_spec_op, PAIRS, 16);
}

#[test]
fn directory_derived_agrees_with_hand_written() {
    use directory::{DirInv, DirRes, DirectoryAdt, DirectoryHybrid};
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
    agree::<DirectoryAdt<String, i64>, _>(
        cfg,
        &DirectoryHybrid,
        gen,
        directory::to_spec_op,
        PAIRS,
        17,
    );
}
