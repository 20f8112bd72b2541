//! Differential acceptance tests for the declarative ADT surface: the
//! **ported** Counter and Set (`SpecObject<CounterDef>` /
//! `SpecObject<SetDef<i64>>`, defined only through the public `AdtDef`
//! path) against their hand-written twins (`CounterObject` /
//! `SetObject`), proving
//!
//! 1. **byte-identical WAL traces and checkpoint images**: one
//!    deterministic workload driven through both flavors produces
//!    bit-for-bit identical store directories — segments, checkpoint
//!    files, everything;
//! 2. **identical lock-grant decisions**: the ported type's lock (its
//!    definition's derived relation, classified through `spec_op`)
//!    answers exactly as the built-in's (the same derivation, classified
//!    by the built-in's typed classifier) and as the relation's atoms on
//!    the spec operations, on an exhaustive operation domain;
//! 3. **interchangeable recovery**: a log written by one flavor recovers
//!    through the other, because the bytes *are* the same format.

use hybrid_cc::adts::counter::{
    self, CounterAdt, CounterDef, CounterInv, CounterObject, CounterRes,
};
use hybrid_cc::adts::set::{self, SetAdt, SetDef, SetInv, SetObject};
use hybrid_cc::adts::{Object, ObjectAdt, SpecObject};
use hybrid_cc::core::runtime::{SpecAdt, SpecLock};
use hybrid_cc::storage::CompactionPolicy;
use hybrid_cc::Db;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn tmp(name: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "hcc-defined-{}-{}-{}",
        std::process::id(),
        name,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn open_db(dir: &Path) -> Db {
    Db::builder()
        .segment_max_bytes(1024)
        .compaction(CompactionPolicy::never())
        .env_overrides()
        .open(dir)
        .expect("open database")
}

/// The deterministic op script both flavors run: `(round, counter inv,
/// set inv)` — covers updates, reads, no-op refusals, and a mid-run
/// checkpoint.
fn script() -> Vec<(i64, Vec<CounterInv>, Vec<SetInv<i64>>)> {
    (0..24)
        .map(|i| {
            let mut c = vec![CounterInv::Inc(i)];
            if i % 3 == 0 {
                c.push(CounterInv::Dec(2 * i));
            }
            if i % 4 == 0 {
                c.push(CounterInv::Read);
            }
            let s = vec![SetInv::Add(i % 6), SetInv::Remove((i + 2) % 7), SetInv::Contains(i % 5)];
            (i, c, s)
        })
        .collect()
}

/// Drive the script through whichever Counter and Set implementations
/// `C` and `S` name — both flavors are `Object<_>`s taking the same
/// invocations, so the differential runs *one* driver — and return the
/// response transcript.
fn drive<C, S>(dir: &Path) -> Vec<String>
where
    C: ObjectAdt<Inv = CounterInv, Res = CounterRes>,
    S: ObjectAdt<Inv = SetInv<i64>, Res = bool>,
{
    let db = open_db(dir);
    let c = db.object::<Object<C>>("c").unwrap();
    let s = db.object::<Object<S>>("s").unwrap();
    let mut transcript = Vec::new();
    for (i, c_ops, s_ops) in script() {
        db.transact(|tx| {
            for op in &c_ops {
                let res = c.execute(tx, op.clone())?;
                transcript.push(format!("{op:?}->{res:?}"));
            }
            for op in &s_ops {
                let res = s.execute(tx, op.clone())?;
                transcript.push(format!("{op:?}->{res:?}"));
            }
            Ok(())
        })
        .unwrap();
        if i == 11 {
            db.checkpoint().unwrap().expect("mid-run checkpoint");
        }
    }
    transcript
}

fn drive_hand(dir: &Path) -> Vec<String> {
    drive::<CounterAdt, SetAdt<i64>>(dir)
}

fn drive_ported(dir: &Path) -> Vec<String> {
    drive::<SpecAdt<CounterDef>, SpecAdt<SetDef<i64>>>(dir)
}

/// Every file under `dir`, relative path → contents.
fn dir_image(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap().to_string_lossy().into_owned();
                out.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

#[test]
fn ported_counter_and_set_write_byte_identical_wal_traces() {
    let (dir_a, dir_b) = (tmp("hand"), tmp("ported"));
    let transcript_a = drive_hand(&dir_a);
    let transcript_b = drive_ported(&dir_b);
    assert_eq!(transcript_a, transcript_b, "same script, same responses");

    let (image_a, image_b) = (dir_image(&dir_a), dir_image(&dir_b));
    assert_eq!(
        image_a.keys().collect::<Vec<_>>(),
        image_b.keys().collect::<Vec<_>>(),
        "same files on disk"
    );
    assert!(image_a.keys().any(|f| f.contains("seg-")), "segments were written");
    assert!(image_a.keys().any(|f| f.contains("ckpt") || f.contains("HCC")), "checkpoint saved");
    for (file, bytes_a) in &image_a {
        assert_eq!(
            bytes_a, &image_b[file],
            "file {file} differs between the hand-written and ported runs"
        );
    }
}

/// A log written by the ported flavor is *the same format*: it recovers
/// through the hand-written twin, and vice versa — plus the crash shape:
/// both dirs truncated identically recover to identical states.
#[test]
fn ported_logs_recover_interchangeably_and_after_a_crash() {
    let (dir_a, dir_b) = (tmp("hand-x"), tmp("ported-x"));
    drive_hand(&dir_a);
    drive_ported(&dir_b);

    // Crash both at the same point.
    for dir in [&dir_a, &dir_b] {
        hybrid_cc::workload::crash::truncate_tail(dir, 300).unwrap();
    }

    // Cross-recovery: the hand-written dir through the ported types...
    let db = open_db(&dir_a);
    let c_ported = db.object::<SpecObject<CounterDef>>("c").unwrap();
    let s_ported = db.object::<SpecObject<SetDef<i64>>>("s").unwrap();
    // ...and the ported dir through the hand-written types.
    let db_b = open_db(&dir_b);
    let c_hand = db_b.object::<CounterObject>("c").unwrap();
    let s_hand = db_b.object::<SetObject<i64>>("s").unwrap();

    assert_eq!(c_ported.committed_state(), c_hand.committed_value(), "counter states agree");
    let ported_set: Vec<i64> = s_ported.committed_state().into_iter().collect();
    let hand_set: Vec<i64> = s_hand.committed_state().into_iter().collect();
    assert_eq!(ported_set, hand_set, "set states agree");
    assert_eq!(
        db.recovery_report().replayed,
        db_b.recovery_report().replayed,
        "identical bytes, identical tails"
    );
}

#[test]
fn ported_counter_lock_decisions_match_hand_written_exhaustively() {
    let derived = SpecLock::<SpecAdt<CounterDef>>::from_def();
    let hand = CounterAdt::canonical_locks();
    let spec = |(inv, res): &(CounterInv, CounterRes)| counter::to_spec_op(inv, res);
    let mut domain: Vec<(CounterInv, CounterRes)> = Vec::new();
    for n in [-7i64, -1, 0, 1, 2, 9] {
        domain.push((CounterInv::Inc(n), CounterRes::Ok));
        domain.push((CounterInv::Dec(n), CounterRes::Ok));
    }
    for v in [-3i64, 0, 5] {
        domain.push((CounterInv::Read, CounterRes::Val(v)));
    }
    let mut conflicts = 0;
    for a in &domain {
        for b in &domain {
            let want = derived.relation().conflicts(&spec(a), &spec(b));
            let (got, typed) = (derived.conflicts(a, b), hand.conflicts(a, b));
            assert_eq!((got, typed), (want, want), "lock-grant decision differs on {a:?} vs {b:?}");
            conflicts += want as usize;
        }
    }
    assert!(conflicts > 0, "vacuous agreement");
    assert_eq!(derived.name(), "hybrid-derived");
}

#[test]
fn ported_set_lock_decisions_match_hand_written_exhaustively() {
    let derived = SpecLock::<SpecAdt<SetDef<i64>>>::from_def();
    let hand = SetAdt::<i64>::canonical_locks();
    let spec = |(inv, res): &(SetInv<i64>, bool)| set::to_spec_op(inv, res);
    let mut domain: Vec<(SetInv<i64>, bool)> = Vec::new();
    for x in 0..4i64 {
        for ok in [true, false] {
            domain.push((SetInv::Add(x), ok));
            domain.push((SetInv::Remove(x), ok));
            domain.push((SetInv::Contains(x), ok));
        }
    }
    let mut conflicts = 0;
    for a in &domain {
        for b in &domain {
            let want = derived.relation().conflicts(&spec(a), &spec(b));
            let (got, typed) = (derived.conflicts(a, b), hand.conflicts(a, b));
            assert_eq!((got, typed), (want, want), "lock-grant decision differs on {a:?} vs {b:?}");
            conflicts += want as usize;
        }
    }
    assert!(conflicts > 0, "vacuous agreement");
}
