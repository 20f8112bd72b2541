//! Where a request runs: a session's only request executes on its
//! reader when it cannot block, a would-block transact falls back to
//! the worker pool with no trace of the aborted attempt, and a
//! pipelined session stays on the pool.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hcc_client::{Client, ClientOptions};
use hcc_db::Db;
use hcc_server::{serve_with, ServerOptions};
use hcc_wire::frame;
use hcc_wire::msg::{OpResult, Request, Response, TypeTag, View, WireMsg, WireOp};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hcc-inline-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn credit(name: &str, amount: i64) -> WireOp {
    WireOp::Credit { name: name.into(), amount }
}

fn debit(name: &str, amount: i64) -> WireOp {
    WireOp::Debit { name: name.into(), amount }
}

/// Seed `name` with `seed`, then hold a successful debit open in its own
/// transaction: only `Debit-Ok` conflicts with `Debit-Ok`, so every
/// remote debit of `name` must wait until the holder ends.
fn hold_debit_barrier(db: &Db, name: &str, seed: i64) -> Arc<hcc_core::TxnHandle> {
    db.transact(|tx| {
        let acct: Arc<hcc_adts::AccountObject> = db.object(name)?;
        acct.credit(tx.handle(), hcc_spec::Rational::from_int(seed))?;
        Ok(())
    })
    .unwrap();
    let acct = db.object::<hcc_adts::AccountObject>(name).unwrap();
    let holder = db.manager().begin();
    assert!(acct.debit(&holder, hcc_spec::Rational::from_int(1)).unwrap());
    holder
}

fn balance(db: &Db, name: &str) -> hcc_spec::Rational {
    db.object::<hcc_adts::AccountObject>(name).unwrap().committed_balance()
}

fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A transact whose no-wait attempt is refused falls back to the pool,
/// and the reader goes on serving the session while it waits there.
/// The aborted attempt leaves nothing: no wait edge (so no deadlock
/// victim), no effect, and no op record that a reopen would apply.
#[test]
fn would_block_transact_falls_back_and_the_reader_keeps_serving() {
    let dir = tmpdir("fallback");
    let db = Arc::new(
        Db::builder().lock_timeout(Duration::from_secs(30)).env_overrides().open(&dir).unwrap(),
    );
    let server =
        serve_with(db.clone(), "127.0.0.1:0", ServerOptions { workers: 2, ..Default::default() })
            .unwrap();
    let holder = hold_debit_barrier(&db, "gate", 100);
    let victims = db.stats().counter("deadlock.victims");

    let client = Client::connect(&server.local_addr().to_string()).unwrap();
    let (mut tx, mut rx) = client.into_halves();
    // The credit is granted and logged before the debit is refused: the
    // inline attempt has an op record for the abort to cancel.
    tx.send(1, &Request::Transact { ops: vec![credit("side", 7), debit("gate", 1)] }).unwrap();
    wait_for("the fallback", || db.stats().counter("net.requests.fallback") == 1);

    tx.send(2, &Request::Read { at: None, queries: vec![(TypeTag::Account, "side".into())] })
        .unwrap();
    let (seq, resp, _) = rx.recv::<Response>().unwrap().unwrap();
    assert_eq!(seq, 2, "the read is answered while the debit is parked");
    match resp {
        Response::Views { views, .. } => {
            assert_eq!(views, vec![View::Balance { num: 0, den: 1 }], "nothing committed yet")
        }
        other => panic!("expected views, got {other:?}"),
    }
    let stats = db.stats();
    assert_eq!(stats.counter("net.requests.fallback"), 1);
    assert_eq!(stats.counter("deadlock.victims"), victims, "the refusal left no wait edge");

    db.manager().abort(holder);
    let (seq, resp, _) = rx.recv::<Response>().unwrap().unwrap();
    assert_eq!(seq, 1);
    match resp {
        Response::Committed { results, .. } => {
            assert_eq!(results, vec![OpResult::Unit, OpResult::Debited(true)])
        }
        other => panic!("expected the debit to commit, got {other:?}"),
    }
    drop((tx, rx));
    server.drain();
    assert_eq!(db.committed_count(), 2, "the seed and the debit, once");
    assert_eq!(balance(&db, "side"), 7.into());
    drop(db);

    let db = Db::open(&dir).unwrap();
    assert_eq!(db.recovery_report().replayed, 2);
    assert_eq!(balance(&db, "gate"), 99.into(), "exactly one debit replayed");
    assert_eq!(balance(&db, "side"), 7.into(), "the aborted attempt's credit is not applied");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The depth rule: a client that waits for each answer has every
/// request run on its reader; a pipelined burst runs at most its last
/// request there, and never one with another buffered behind it.
#[test]
fn depth_one_runs_inline_and_a_pipelined_burst_stays_on_the_pool() {
    const N: u64 = 25;
    const DEPTH: u32 = 8;
    let db = Arc::new(Db::in_memory());
    let server = serve_with(db.clone(), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let addr = server.local_addr().to_string();

    let mut client = Client::connect(&addr).unwrap();
    for _ in 0..N {
        client.transact(vec![credit("till", 1)]).unwrap();
        client.read(None, vec![(TypeTag::Account, "till".into())]).unwrap();
    }
    client.goodbye().unwrap();
    let stats = db.stats();
    assert_eq!(stats.counter("net.requests.inline"), 2 * N);
    assert_eq!(stats.counter("net.requests.fallback"), 0);

    let client = Client::connect_with(
        &addr,
        ClientOptions { max_in_flight: DEPTH, ..ClientOptions::default() },
    )
    .unwrap();
    assert_eq!(client.granted_in_flight(), DEPTH);
    let (mut tx, mut rx) = client.into_halves();
    let mut burst = Vec::new();
    for seq in 1..=u64::from(DEPTH) {
        let mut payload = Vec::new();
        Request::Transact { ops: vec![credit("till", 1)] }.encode_payload(&mut payload);
        frame::encode_frame_into(seq, &payload, &mut burst);
    }
    tx.send_raw(&burst).unwrap();
    for _ in 0..DEPTH {
        let (seq, resp, _) = rx.recv::<Response>().unwrap().unwrap();
        assert!(matches!(resp, Response::Committed { .. }), "request {seq}: {resp:?}");
    }
    let stats = db.stats();
    let inline = stats.counter("net.requests.inline") - 2 * N;
    assert!(inline <= 1, "{inline} requests of one burst ran on the reader");
    assert_eq!(stats.counter("net.requests.fallback"), 0);
    assert_eq!(stats.counter("net.requests.shed"), 0);
    drop((tx, rx));
    server.drain();
    assert_eq!(db.committed_count(), N + u64::from(DEPTH));
}
