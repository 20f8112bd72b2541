//! The static deadlock prediction, cross-checked against reality: the
//! possible-waits analysis says the queue's Table-II relation admits
//! the `hold Enq, want Deq` two-party cycle — so two real transactions
//! driven into exactly that shape must trip the runtime's
//! `DeadlockDetector`, visible both through `detector().victims()` and
//! the `deadlock.victims` metric the manager mirrors it into.

use hcc_adts::fifo_queue::QueueObject;
use hcc_check::{deadlock_potential, CheckInput};
use hcc_core::runtime::{BlockPolicy, ExecError, RuntimeOptions, TxnHandle, WaitObserver};
use hcc_relations::relation::OpClass;
use hcc_relations::tables::AdtConfig;
use hcc_spec::TxnId;
use hcc_txn::TxnManager;
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

/// Run `f` on its own thread; fail if it has not finished in 30 s. The
/// tests below block with `timeout: None`: a lost wake-up would hang
/// them, and this turns the hang into a failure.
fn within_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, finished) = mpsc::channel();
    let body = std::thread::spawn(move || done.send(f()));
    match finished.recv_timeout(Duration::from_secs(30)) {
        Ok(value) => value,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("a blocked execution was never woken"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(body.join().expect_err("the body dropped its sender"))
        }
    }
}

/// The manager's options with the lock-wait timeout removed: only a
/// completion or a doom can end a wait.
fn untimed(mgr: &Arc<TxnManager>) -> RuntimeOptions {
    RuntimeOptions { block: BlockPolicy { timeout: None }, ..mgr.object_options() }
}

#[test]
fn predicted_queue_cycle_is_real() {
    // Static half: the analysis predicts the Enq/Enq-via-Deq cycle.
    let input = CheckInput::from_adt_config(AdtConfig::queue());
    let (enq, deq) = (OpClass::new("Enq"), OpClass::new("Deq"));
    assert!(
        deadlock_potential(&input, 3).iter().any(|c| c.holders == vec![enq.clone(), enq.clone()]
            && c.requests == vec![deq.clone(), deq.clone()]),
        "the static analysis no longer predicts the queue cycle"
    );

    // Live half: realize the predicted shape. Both transactions enqueue
    // their own element (Enq/Enq — compatible, both proceed), then each
    // dequeues: each deq answers the *own* enqueued element (committed
    // view is empty) and conflicts with the other's Enq (v ≠ v′), so
    // both block — the predicted cycle, for the detector to break.
    let mgr = TxnManager::new();
    let q: Arc<QueueObject<i64>> = Arc::new(QueueObject::with_options("q", mgr.object_options()));

    let t1 = mgr.begin();
    let t2 = mgr.begin();
    q.enq(&t1, 1).unwrap();
    q.enq(&t2, 2).unwrap();

    let (mgr2, q2, t1c) = (mgr.clone(), q.clone(), t1.clone());
    let j1 = std::thread::spawn(move || match q2.deq(&t1c) {
        Ok(_) => mgr2.commit(t1c).map(|_| ()).map_err(|_| ()),
        Err(_) => {
            mgr2.abort(t1c);
            Err(())
        }
    });
    std::thread::sleep(Duration::from_millis(5));
    let r2 = match q.deq(&t2) {
        Ok(_) => mgr.commit(t2).map(|_| ()).map_err(|_| ()),
        Err(_) => {
            mgr.abort(t2);
            Err(())
        }
    };
    let r1 = j1.join().unwrap();

    assert!(r1.is_ok() || r2.is_ok(), "at least one transaction survives");
    let both_ok = r1.is_ok() && r2.is_ok();
    assert!(
        mgr.detector().victims() >= 1 || both_ok,
        "the predicted cycle must either resolve by luck or cost a victim"
    );
    assert_eq!(
        mgr.metrics().snapshot().counter("deadlock.victims"),
        mgr.detector().victims(),
        "the obs mirror tracks the detector"
    );
}

/// The same cycle with no timer anywhere: both transactions hold their
/// `Enq` before either asks for its `Deq` (a barrier, not luck), so the
/// cycle is certain. The detector dooms the younger one, the doom itself
/// wakes it — its `deq` returns `Doomed` — and its abort wakes the
/// survivor, which commits.
#[test]
fn cycle_resolves_by_events_alone() {
    within_watchdog(|| {
        let mgr = TxnManager::new();
        let q: Arc<QueueObject<i64>> = Arc::new(QueueObject::with_options("q", untimed(&mgr)));
        let both_hold_enq = Arc::new(Barrier::new(2));
        let (older, younger) = (mgr.begin(), mgr.begin());
        let run = |txn: Arc<TxnHandle>, item: i64| {
            let (mgr, q, both_hold_enq) = (mgr.clone(), q.clone(), both_hold_enq.clone());
            std::thread::spawn(move || {
                q.enq(&txn, item).unwrap();
                both_hold_enq.wait();
                match q.deq(&txn) {
                    Ok(_) => mgr.commit(txn).map(|_| ()).map_err(|e| format!("{e}")),
                    Err(e) => {
                        mgr.abort(txn);
                        Err(format!("{e:?}"))
                    }
                }
            })
        };
        let (survivor, victim) = (run(older, 1), run(younger, 2));
        assert_eq!(survivor.join().unwrap(), Ok(()), "the older transaction commits");
        assert_eq!(victim.join().unwrap(), Err(format!("{:?}", ExecError::Doomed)));
        assert_eq!(mgr.detector().victims(), 1);
        assert_eq!(mgr.metrics().snapshot().counter("deadlock.victims"), 1);
        assert_eq!(q.committed_len(), 0, "the survivor dequeued its own element");
    });
}

/// A partial operation waits for the state to change, not for a lock:
/// `deq` on an empty queue has no defined response, and the commit of
/// an `enq` is what wakes it.
#[test]
fn deq_on_an_empty_queue_is_woken_by_a_committing_enq() {
    /// Reports each block, so the test can commit only once the `deq`
    /// is known to be waiting.
    struct Blocked(Mutex<mpsc::Sender<Vec<TxnId>>>);
    impl WaitObserver for Blocked {
        fn on_block(&self, _: &Arc<TxnHandle>, holders: &[TxnId]) {
            self.0.lock().unwrap().send(holders.to_vec()).unwrap();
        }
        fn on_unblock(&self, _: TxnId) {}
    }

    within_watchdog(|| {
        let mgr = TxnManager::new();
        let (blocked_tx, blocked) = mpsc::channel();
        let opts =
            RuntimeOptions { observer: Arc::new(Blocked(Mutex::new(blocked_tx))), ..untimed(&mgr) };
        let q: Arc<QueueObject<i64>> = Arc::new(QueueObject::with_options("q", opts));
        let consumer = {
            let (mgr, q) = (mgr.clone(), q.clone());
            std::thread::spawn(move || {
                let t = mgr.begin();
                let item = q.deq(&t).unwrap();
                mgr.commit(t).unwrap();
                item
            })
        };
        assert_eq!(blocked.recv().unwrap(), vec![], "an undefined operation has no holders");
        let producer = mgr.begin();
        q.enq(&producer, 7).unwrap();
        mgr.commit(producer).unwrap();
        assert_eq!(consumer.join().unwrap(), 7);
        assert_eq!(mgr.metrics().snapshot().counter("lock.waits.FIFO-Queue.undefined"), 1);
    });
}
