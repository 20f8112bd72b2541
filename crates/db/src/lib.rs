//! # hcc-db — the `Db` session facade
//!
//! One front door to the hybrid concurrency control stack. Underneath,
//! a transactional system is `TxnManager` (timestamps, two-phase
//! commitment, deadlock doom), `DurableStore` (WAL + checkpoints) and
//! per-object `RuntimeOptions`, plus a directory of which named object
//! holds which share of the log — and wiring them by hand leaves holes:
//! objects nobody registered silently recover blank, and no correct
//! retry loop can be written against four unrelated error types. `Db`
//! keeps that directory as one name-keyed table, each name either
//! logged (its checkpoint image and tail slice, not yet opened) or open
//! (the live object a checkpoint walks). This crate closes the API the
//! way self-logging closed the write path:
//!
//! * [`Db::builder`] → [`DbBuilder::open`] constructs the store, scans
//!   the log and readies recovery in one call;
//! * [`Db::object`] hands out **typed handles** that construct,
//!   register, and absorb their durable history automatically —
//!   forget-to-register is unrepresentable, and reopening a name
//!   returns the recovered instance, never a blank twin;
//! * [`Db::transact`] scopes a transaction to a closure — commit on
//!   `Ok`, abort on `Err` — and retries **transient** failures
//!   (deadlock victims, refused prepare votes, lock timeouts) with
//!   bounded backoff, applying effects exactly once;
//! * [`HccError`] unifies every layer's failure with
//!   [`HccError::is_transient`] as the retry contract.
//!
//! The low-level path stays available through [`Db::manager`] as the
//! documented escape hatch (see `docs/API.md`).

mod db;
mod error;
mod handle;
pub mod read;
mod tx;

pub use db::{Db, DbBuilder};
pub use error::HccError;
pub use handle::DbObject;
pub use read::ReadTx;
pub use tx::{RetryPolicy, Tx};

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_adts::account::AccountObject;
    use hcc_adts::counter::CounterObject;
    use hcc_adts::fifo_queue::QueueObject;
    use hcc_core::runtime::ExecError;
    use hcc_spec::Rational;
    use hcc_txn::manager::CommitError;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn r(n: i64) -> Rational {
        Rational::from_int(n)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "hcc-db-{}-{}-{}",
            std::process::id(),
            name,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn transact_commits_on_ok_and_aborts_on_err() {
        let db = Db::in_memory();
        let acct = db.object::<AccountObject>("a").unwrap();
        db.transact(|tx| acct.credit(tx, r(10)).map_err(Into::into)).unwrap();
        assert_eq!(acct.committed_balance(), r(10));

        let res: Result<(), HccError> = db.transact(|tx| {
            acct.credit(tx, r(999))?;
            Err(HccError::Commit(CommitError::NotActive)) // any fatal error
        });
        assert!(res.is_err());
        assert_eq!(acct.committed_balance(), r(10), "Err aborts: no trace of the credit");
        assert_eq!(db.committed_count(), 1);
        assert_eq!(db.aborted_count(), 1);
    }

    #[test]
    fn object_returns_the_same_instance_not_a_twin() {
        use std::sync::Arc;
        let db = Db::in_memory();
        let a = db.object::<AccountObject>("a").unwrap();
        db.transact(|tx| a.credit(tx, r(5)).map_err(Into::into)).unwrap();
        let again = db.object::<AccountObject>("a").unwrap();
        assert_eq!(again.committed_balance(), r(5), "same live object");
        assert!(Arc::ptr_eq(a.inner(), again.inner()));
    }

    #[test]
    fn object_type_mismatch_is_refused() {
        let db = Db::in_memory();
        db.object::<AccountObject>("x").unwrap();
        let err = db.object::<CounterObject>("x").err().expect("type mismatch refused");
        assert!(matches!(err, HccError::TypeMismatch { .. }), "{err}");
        assert!(!err.is_transient());
    }

    #[test]
    fn transient_closure_failures_are_retried_and_apply_once() {
        let db = Db::in_memory();
        let acct = db.object::<AccountObject>("a").unwrap();
        let mut attempts = 0u32;
        db.transact(|tx| {
            attempts += 1;
            acct.credit(tx, r(7))?;
            if attempts < 3 {
                // Simulate a doomed attempt; the scope aborts and retries.
                return Err(HccError::Exec(ExecError::Doomed));
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(attempts, 3);
        assert_eq!(acct.committed_balance(), r(7), "credited exactly once, not three times");
    }

    #[test]
    fn fatal_failures_are_not_retried() {
        let db = Db::in_memory();
        let mut attempts = 0u32;
        let res: Result<(), HccError> = db.transact(|_tx| {
            attempts += 1;
            Err(HccError::Storage(hcc_storage::StorageError::Io(std::io::Error::other("gone"))))
        });
        assert!(matches!(res, Err(HccError::Storage(_))));
        assert_eq!(attempts, 1, "a fatal error must surface immediately");
    }

    #[test]
    fn retries_exhaust_into_a_final_error() {
        let db = Db::builder()
            .retry(RetryPolicy { max_retries: 2, ..RetryPolicy::default() })
            .in_memory();
        let mut attempts = 0u32;
        let res: Result<(), HccError> = db.transact(|_tx| {
            attempts += 1;
            Err(HccError::Exec(ExecError::Timeout))
        });
        match res {
            Err(HccError::RetriesExhausted { attempts: reported, last }) => {
                assert_eq!(reported, 3, "initial try + 2 retries");
                assert!(matches!(*last, HccError::Exec(ExecError::Timeout)));
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        assert_eq!(attempts, 3);
    }

    #[test]
    fn durable_reopen_recovers_through_object_alone() {
        let dir = tmp("reopen");
        {
            let db = Db::open(&dir).unwrap();
            let acct = db.object::<AccountObject>("checking").unwrap();
            let q = db.object::<QueueObject<i64>>("audit").unwrap();
            db.transact(|tx| {
                acct.credit(tx, r(120))?;
                q.enq(tx, 42)?;
                Ok(())
            })
            .unwrap();
            db.transact(|tx| {
                assert!(acct.debit(tx, r(20))?);
                Ok(())
            })
            .unwrap();
        }
        let db = Db::open(&dir).unwrap();
        assert_eq!(db.recovery_report().replayed, 2);
        assert_eq!(db.unopened_objects(), vec!["audit".to_string(), "checking".to_string()]);
        let acct = db.object::<AccountObject>("checking").unwrap();
        assert_eq!(acct.committed_balance(), r(100), "recovered, not blank");
        let q = db.object::<QueueObject<i64>>("audit").unwrap();
        assert_eq!(q.committed_len(), 1);
        assert!(db.unopened_objects().is_empty());
        // All history absorbed: checkpointing is allowed again.
        db.checkpoint().unwrap().expect("durable db checkpoints");
    }

    #[test]
    fn checkpoint_refused_until_every_logged_name_is_opened() {
        let dir = tmp("absorb");
        {
            let db = Db::open(&dir).unwrap();
            let a = db.object::<AccountObject>("a").unwrap();
            let b = db.object::<AccountObject>("b").unwrap();
            db.transact(|tx| {
                a.credit(tx, r(1))?;
                b.credit(tx, r(2))?;
                Ok(())
            })
            .unwrap();
        }
        let db = Db::open(&dir).unwrap();
        db.object::<AccountObject>("a").unwrap();
        let err = db.checkpoint().unwrap_err();
        assert!(
            matches!(err, HccError::Storage(hcc_storage::StorageError::UnabsorbedHistory { .. })),
            "checkpoint over unopened history must be refused, got {err}"
        );
        db.object::<AccountObject>("b").unwrap();
        db.checkpoint().unwrap().expect("all names open: checkpoint allowed");
    }

    /// A long-running reader holding a horizon pin must not wedge a fuzzy
    /// checkpoint — the checkpoint snapshots at its own watermark under
    /// each object's latch and never waits for the reader's pin to clear.
    #[test]
    fn long_running_reader_does_not_wedge_checkpointing() {
        let dir = tmp("reader-ckpt");
        let db = Db::open(&dir).unwrap();
        let a = db.object::<AccountObject>("a").unwrap();
        db.transact(|tx| Ok(a.credit(tx, r(7))?)).unwrap();
        // A reader pins the horizon far in the past and just... stays.
        let reader = db.begin_read();
        for _ in 0..2 {
            db.transact(|tx| Ok(a.credit(tx, r(1))?)).unwrap();
        }
        let ckpt = db
            .checkpoint()
            .expect("checkpoint must complete while a reader pin is live")
            .expect("store attached");
        assert!(ckpt.last_ts > 0);
        // The reader's snapshot is still exact after the checkpoint.
        assert_eq!(reader.view_of(a.as_ref()).unwrap(), r(7));
        drop(reader);
        assert_eq!(db.manager().horizon().active(), 0);
    }

    /// A panic unwinding out of a `transact` closure must abort the
    /// attempt — a leaked active transaction would hold its locks at
    /// every touched object forever.
    #[test]
    fn panicking_closure_aborts_and_releases_its_locks() {
        let db = Db::in_memory();
        let acct = db.object::<AccountObject>("a").unwrap();
        db.transact(|tx| acct.credit(tx, r(10)).map_err(Into::into)).unwrap();

        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = db.transact(|tx| {
                // A successful debit takes a DEBIT_LOCK (Table V:
                // Debit-Ok ∥ Debit-Ok conflict) — exactly the lock that
                // would wedge the account if leaked.
                assert!(acct.debit(tx, r(1))?);
                if acct.committed_balance() >= r(0) {
                    panic!("closure invariant fired");
                }
                Ok(())
            });
        }));
        assert!(unwound.is_err(), "the panic propagates");
        assert_eq!(acct.committed_balance(), r(10), "the panicked attempt left no effects");

        // The debit lock was released: a conflicting debit runs at once
        // instead of blocking until timeout (2s default) or forever.
        let before = std::time::Instant::now();
        db.transact(|tx| {
            assert!(acct.debit(tx, r(1))?);
            Ok(())
        })
        .unwrap();
        assert!(before.elapsed() < std::time::Duration::from_millis(500), "no leaked lock wait");
        assert_eq!(acct.committed_balance(), r(9));
    }

    /// A failed materialization (here: the name opened as the wrong
    /// type, so its payloads don't decode) must consume nothing — the
    /// name stays pending, checkpoints stay refused, and the next
    /// correctly-typed open recovers the full state instead of minting
    /// a blank twin.
    #[test]
    fn failed_materialization_leaves_no_blank_twin() {
        let dir = tmp("twin");
        {
            let db = Db::open(&dir).unwrap();
            let acct = db.object::<AccountObject>("acct").unwrap();
            db.transact(|tx| acct.credit(tx, r(55)).map_err(Into::into)).unwrap();
        }
        let db = Db::open(&dir).unwrap();
        assert!(db.object::<CounterObject>("acct").is_err(), "account payloads don't decode");
        assert_eq!(db.unopened_objects(), vec!["acct".to_string()], "name still pending");
        assert!(db.checkpoint().is_err(), "history still unabsorbed");
        let acct = db.object::<AccountObject>("acct").unwrap();
        assert_eq!(acct.committed_balance(), r(55), "recovered in full, not a blank twin");
        db.checkpoint().unwrap().expect("absorbed after the successful open");
    }

    /// One object of every built-in type: each comes back as its
    /// checkpoint image plus the one commit above the watermark.
    #[test]
    fn checkpointed_state_reopens_from_snapshot_plus_tail() {
        use hcc_adts::{DirectoryObject, FileObject, QueueObject, SemiqueueObject, SetObject};
        let dir = tmp("ckpt");
        let commit_round = |db: &Db, n: i64| {
            let acct = db.object::<AccountObject>("acct").unwrap();
            let counter = db.object::<CounterObject>("counter").unwrap();
            let queue = db.object::<QueueObject<i64>>("queue").unwrap();
            let semi = db.object::<SemiqueueObject<i64>>("semi").unwrap();
            let file = db.object::<FileObject<i64>>("file").unwrap();
            let set = db.object::<SetObject<i64>>("set").unwrap();
            let names = db.object::<DirectoryObject<String, i64>>("names").unwrap();
            db.transact(|tx| {
                acct.credit(tx, r(n))?;
                counter.dec(tx, n)?;
                queue.enq(tx, n)?;
                semi.ins(tx, 7)?;
                file.write(tx, n)?;
                set.add(tx, n)?;
                names.insert(tx, format!("k{n}"), n)?;
                Ok(())
            })
            .unwrap();
        };
        {
            let db = Db::open(&dir).unwrap();
            commit_round(&db, 50);
            db.checkpoint().unwrap().expect("checkpoint taken");
            commit_round(&db, 8);
        }
        let db = Db::open(&dir).unwrap();
        let report = db.recovery_report();
        assert!(report.checkpoint_ts > 0, "recovered from a checkpoint");
        assert_eq!(report.replayed, 1, "one commit above the watermark");
        assert_eq!(db.object::<AccountObject>("acct").unwrap().committed_balance(), r(58));
        assert_eq!(db.object::<CounterObject>("counter").unwrap().committed_value(), -58);
        assert_eq!(db.object::<QueueObject<i64>>("queue").unwrap().committed_state(), [50, 8]);
        let semi = db.object::<SemiqueueObject<i64>>("semi").unwrap().committed_state();
        assert_eq!(semi.into_iter().collect::<Vec<_>>(), [(7, 2)]);
        assert_eq!(db.object::<FileObject<i64>>("file").unwrap().committed_value(), 8);
        let set = db.object::<SetObject<i64>>("set").unwrap().committed_state();
        assert_eq!(set.into_iter().collect::<Vec<_>>(), [8, 50]);
        let names = db.object::<DirectoryObject<String, i64>>("names").unwrap().committed_state();
        assert_eq!(
            names.into_iter().collect::<Vec<_>>(),
            [("k50".to_string(), 50), ("k8".to_string(), 8)]
        );
    }

    #[test]
    fn attach_adopts_custom_objects_and_rejects_duplicates() {
        use std::sync::Arc;
        let db = Db::in_memory();
        let custom = Arc::new(AccountObject::with_options("vault", db.object_options()));
        let vault = db.attach(custom).unwrap();
        db.transact(|tx| vault.credit(tx, r(9)).map_err(Into::into)).unwrap();
        assert_eq!(vault.committed_balance(), r(9));
        let twin = Arc::new(AccountObject::hybrid("vault"));
        assert!(matches!(db.attach(twin), Err(HccError::DuplicateObject { .. })));
        // The attached object is visible to `object` under its type.
        let again = db.object::<AccountObject>("vault").unwrap();
        assert_eq!(again.committed_balance(), r(9));
    }

    /// A failed materialization into an *attached* instance poisons the
    /// name for further attaches: the caller still holds the partially
    /// recovered object, so re-applying the pending state could double
    /// its effects. `Db::object` (always a fresh instance) stays safe.
    #[test]
    fn failed_attach_poisons_the_name_against_double_apply() {
        use std::sync::Arc;
        let dir = tmp("poison");
        {
            let db = Db::open(&dir).unwrap();
            let vault = db.object::<AccountObject>("vault").unwrap();
            db.transact(|tx| vault.credit(tx, r(100)).map_err(Into::into)).unwrap();
        }
        let db = Db::open(&dir).unwrap();
        // Attaching the wrong type fails mid-materialization and leaves
        // the caller's instance in an unknown state...
        let wrong = Arc::new(CounterObject::hybrid("vault"));
        assert!(db.attach(wrong).is_err());
        // ...so another attach is refused rather than risking a double
        // application of the pending state.
        let retry = Arc::new(AccountObject::hybrid("vault"));
        let err = db.attach(retry).err().expect("poisoned name refused");
        assert!(matches!(err, HccError::PoisonedRecovery { .. }), "{err}");
        // A fresh instance through `object` still recovers correctly.
        let vault = db.object::<AccountObject>("vault").unwrap();
        assert_eq!(vault.committed_balance(), r(100));
    }

    #[test]
    fn transact_ts_reports_the_commit_timestamp() {
        let db = Db::in_memory();
        let c = db.object::<CounterObject>("c").unwrap();
        let (_, ts1) = db.transact_ts(|tx| c.inc(tx, 1).map_err(Into::into)).unwrap();
        let (_, ts2) = db.transact_ts(|tx| c.inc(tx, 1).map_err(Into::into)).unwrap();
        assert!(ts2 > ts1, "timestamps advance");
        assert_eq!(c.committed_value(), 2);
    }
}
