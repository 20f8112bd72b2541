//! Heap allocations per transaction on the object path, counted exactly.
//!
//! A counting `#[global_allocator]` over `System` tallies only on a
//! thread that has switched counting on, so the test harness's other
//! threads — and other tests running beside these — add nothing. Each
//! test warms its objects up, then counts a run of one kind of
//! transaction: through `Db::transact` on `Db::in_memory()`, or through a
//! bare `TxnManager` for the scheme comparison's objects.
//!
//! A single-operation or two-account transaction allocates its
//! `TxnHandle` and nothing else: the committed ring, the recycled op
//! lists, the object's candidate buffer and the handle's inline
//! participants are all reused. The queue's enq+deq transaction also
//! builds its list-shaped intent anew at each operation.

use hybrid_cc::adts::account::AccountObject;
use hybrid_cc::adts::fifo_queue::QueueObject;
use hybrid_cc::spec::Rational;
use hybrid_cc::{Db, HccError, Tx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Whether this thread's allocations are counted.
    static ON: Cell<bool> = const { Cell::new(false) };
    /// Allocations (fresh or grown) counted on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    // `try_with`: an allocation during thread teardown counts nowhere.
    let _ = ON.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what `System` returns, so `System`'s guarantees are this
// allocator's; the tally beside it touches only const-initialised
// thread-local cells and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARM_UP: u64 = 2_000;
const COUNTED: u64 = 10_000;

/// Run `txn` `WARM_UP` times uncounted, then `COUNTED` times counted on
/// this thread; the allocations of the counted runs.
fn allocations(mut txn: impl FnMut()) -> u64 {
    for _ in 0..WARM_UP {
        txn();
    }
    ALLOCS.with(|n| n.set(0));
    ON.with(|on| on.set(true));
    for _ in 0..COUNTED {
        txn();
    }
    ON.with(|on| on.set(false));
    ALLOCS.with(Cell::get)
}

fn money(n: i64) -> Rational {
    Rational::from_int(n)
}

fn commit<T>(db: &Db, f: impl FnMut(&Tx) -> Result<T, HccError>) {
    db.transact(f).expect("an uncontended transaction commits");
}

#[test]
fn a_credit_allocates_its_handle_only() {
    let db = Db::in_memory();
    let a = db.object::<AccountObject>("a").unwrap();
    let n = allocations(|| commit(&db, |tx| Ok(a.credit(tx, money(1))?)));
    assert_eq!(n, COUNTED, "allocations in {COUNTED} credits");
}

#[test]
fn a_transfer_allocates_its_handle_only() {
    let db = Db::in_memory();
    let a = db.object::<AccountObject>("a").unwrap();
    let b = db.object::<AccountObject>("b").unwrap();
    commit(&db, |tx| Ok(a.credit(tx, money(1_000_000))?));
    let n = allocations(|| {
        commit(&db, |tx| {
            if a.debit(tx, money(1))? {
                b.credit(tx, money(1))?;
            }
            Ok(())
        })
    });
    assert_eq!(n, COUNTED, "allocations in {COUNTED} transfers");
}

#[test]
fn a_post_allocates_its_handle_only() {
    let db = Db::in_memory();
    let a = db.object::<AccountObject>("a").unwrap();
    let n = allocations(|| commit(&db, |tx| Ok(a.post(tx, Rational::ZERO)?)));
    assert_eq!(n, COUNTED, "allocations in {COUNTED} post(0)s");
}

/// The handle, plus the queue's intent: each operation builds the
/// transaction's op list one longer, in one allocation.
#[test]
fn an_enq_deq_allocates_its_handle_and_its_intents() {
    const PER_TXN: u64 = 3;
    let db = Db::in_memory();
    let q = db.object::<QueueObject<i64>>("q").unwrap();
    commit(&db, |tx| (0..64).try_for_each(|i| Ok(q.enq(tx, i)?)));
    let n = allocations(|| {
        commit(&db, |tx| {
            q.enq(tx, 7)?;
            Ok(q.deq(tx)?)
        })
    });
    assert!(n <= PER_TXN * COUNTED, "{n} allocations in {COUNTED} enq+deqs");
}

/// An Account under each of the three schemes (`hcc-workload`'s
/// `Scheme`, a derived relation each, opened with `db.object_with`),
/// driven through `db.manager()`: the lock test classifies with the
/// type's own classifier and allocates nothing, so a credit, and a
/// credit with a debit, allocate the handle.
#[test]
fn a_scheme_account_allocates_its_handle_only() {
    use hybrid_cc::relations::AdtConfig;
    use hybrid_cc::workload::scheme::Scheme;

    for scheme in Scheme::ALL {
        let db = Db::in_memory();
        let a = db.object_with("a", scheme.lock(AdtConfig::account())).unwrap();
        let mgr = db.manager();
        let credit = allocations(|| {
            let t = mgr.begin();
            a.credit(&t, money(2)).unwrap();
            mgr.commit(t).unwrap();
        });
        let credit_debit = allocations(|| {
            let t = mgr.begin();
            a.credit(&t, money(2)).unwrap();
            a.debit(&t, money(1)).unwrap();
            mgr.commit(t).unwrap();
        });
        assert_eq!(credit, COUNTED, "{scheme}: allocations in {COUNTED} credits");
        assert_eq!(credit_debit, COUNTED, "{scheme}: allocations in {COUNTED} credit+debits");
    }
}

/// A declaratively defined Counter, eight: the handle; for the `inc`,
/// `respond`'s answer list, the intent's op list one longer, and the
/// formal operation's argument list and class name it is classified
/// through; for the `read`, the answer list, the intent's copy and the
/// class name.
#[test]
fn a_defined_counter_inc_read_allocates_its_spec_operations_and_intents() {
    use hybrid_cc::adts::counter::{CounterDef, CounterInv};
    use hybrid_cc::adts::SpecObject;

    let db = Db::in_memory();
    let c = db.object::<SpecObject<CounterDef>>("c").unwrap();
    let n = allocations(|| {
        commit(&db, |tx| {
            c.execute(tx, CounterInv::Inc(1))?;
            Ok(c.execute(tx, CounterInv::Read)?)
        })
    });
    const PER_TXN: u64 = 8;
    assert_eq!(n, PER_TXN * COUNTED, "allocations in {COUNTED} inc+reads");
}

/// Looking up a name that is already open reads the object table and
/// clones the handle's `Arc`: nothing is allocated.
#[test]
fn opening_an_open_name_allocates_nothing() {
    let db = Db::in_memory();
    db.object::<AccountObject>("a").unwrap();
    let n = allocations(|| drop(db.object::<AccountObject>("a").unwrap()));
    assert_eq!(n, 0, "allocations in {COUNTED} lookups of an open name");
}

/// A snapshot read by name: the watermark pin and one table lookup,
/// neither of which allocates.
#[test]
fn a_read_view_by_name_allocates_nothing() {
    let db = Db::in_memory();
    let a = db.object::<AccountObject>("a").unwrap();
    commit(&db, |tx| Ok(a.credit(tx, money(5))?));
    let n = allocations(|| {
        let rtx = db.begin_read();
        assert_eq!(rtx.view::<AccountObject>("a").unwrap(), money(5));
    });
    assert_eq!(n, 0, "allocations in {COUNTED} begin_read + view by name");
}

/// A credit on a durable `Db` under `Durability::Buffered`: the handle,
/// and two more on the way to the log — three per transaction.
#[test]
fn a_buffered_durable_credit_allocates_three() {
    use hybrid_cc::storage::Durability;

    const PER_TXN: u64 = 3;
    let dir = std::env::temp_dir().join(format!("hcc-alloc-counts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Db::builder().durability(Durability::Buffered).open(&dir).unwrap();
    let a = db.object::<AccountObject>("a").unwrap();
    let n = allocations(|| commit(&db, |tx| Ok(a.credit(tx, money(1))?)));
    drop((a, db));
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(n, PER_TXN * COUNTED, "allocations in {COUNTED} buffered durable credits");
}
