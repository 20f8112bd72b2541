//! Session-layer coverage: handshake refusal, the per-session in-flight
//! cap under a barrier-held flood, torn frames at disconnect, graceful
//! drain, and kill/heal reconnection (the multisite harness's
//! discipline, over a real socket).

use std::sync::Arc;
use std::time::Duration;

use hcc_client::{Client, ClientOptions};
use hcc_db::Db;
use hcc_server::{serve_with, ServerOptions};
use hcc_wire::frame;
use hcc_wire::msg::{OpResult, Request, Response, TypeTag, WireFault, WireOp, PROTOCOL_VERSION};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hcc-session-{tag}-{}-{:?}",
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

/// Seed `name` with `amount`, then hold a successful debit open in its
/// own transaction: per the hybrid conflict table only `Debit-Ok`
/// conflicts with `Debit-Ok`, so this is the barrier that parks every
/// remote debit while letting the shed path stay observable.
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

#[test]
fn handshake_refuses_version_mismatch_and_bad_token() {
    let db = Arc::new(Db::in_memory());
    let server = serve_with(
        db.clone(),
        "127.0.0.1:0",
        ServerOptions { token: Some("sesame".into()), ..ServerOptions::default() },
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    let opts = |version, token: &str| ClientOptions {
        version,
        token: token.into(),
        ..ClientOptions::default()
    };
    let err = Client::connect_with(&addr, opts(PROTOCOL_VERSION + 7, "sesame")).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains(&PROTOCOL_VERSION.to_string())
            && msg.contains(&(PROTOCOL_VERSION + 7).to_string()),
        "refusal names both versions: {msg}"
    );
    assert!(!err.is_transient(), "a version mismatch never fixes itself by retrying");

    let err = Client::connect_with(&addr, opts(PROTOCOL_VERSION, "wrong")).unwrap_err();
    assert!(err.to_string().contains("token"), "{err}");

    // The right version and token get in; refused handshakes never
    // counted as opened sessions.
    let mut ok = Client::connect_with(&addr, opts(PROTOCOL_VERSION, "sesame")).unwrap();
    ok.open(TypeTag::Account, "a").unwrap();
    ok.goodbye().unwrap();
    server.drain();
    let stats = db.stats();
    assert_eq!(stats.counter("net.sessions.refused"), 2);
    assert_eq!(stats.counter("net.sessions.opened"), 1);
    assert_eq!(stats.counter("net.sessions.closed"), 1);
}

/// The barrier-held flood: a conflicting transaction holds the account's
/// lock while a client pipelines far past its in-flight cap. The excess
/// must be shed with a typed `Overloaded` (observable in the shed
/// counter) while the queue-depth gauge stays bounded — and every
/// admitted request must still commit once the barrier lifts.
#[test]
fn in_flight_cap_sheds_flood_without_queue_growth() {
    let db = Arc::new(Db::builder().lock_timeout(Duration::from_secs(30)).in_memory());
    let opts = ServerOptions { workers: 2, session_in_flight_cap: 3, ..ServerOptions::default() };
    let server = serve_with(db.clone(), "127.0.0.1:0", opts).unwrap();
    let addr = server.local_addr().to_string();

    // The barrier: a local transaction holds "hot"'s Debit-Ok lock so
    // every admitted remote debit blocks inside a worker.
    let holder = hold_debit_barrier(&db, "hot", 1000);

    let client =
        Client::connect_with(&addr, ClientOptions { max_in_flight: 3, ..ClientOptions::default() })
            .unwrap();
    assert_eq!(client.granted_in_flight(), 3);
    let (mut tx, mut rx) = client.into_halves();

    const FLOOD: u64 = 24;
    for seq in 1..=FLOOD {
        let req = Request::Transact { ops: vec![debit("hot", 1)] };
        let mut payload = Vec::new();
        use hcc_wire::msg::WireMsg;
        req.encode_payload(&mut payload);
        let mut framed = Vec::new();
        frame::encode_frame_into(seq, &payload, &mut framed);
        tx.send_raw(&framed).unwrap();
    }

    // The sheds come back immediately while the admitted three stay
    // parked behind the barrier.
    let mut shed = Vec::new();
    for _ in 0..(FLOOD - 3) {
        let (_seq, resp, _) = rx.recv::<Response>().unwrap().unwrap();
        match resp {
            Response::Fault(WireFault::Overloaded { in_flight, cap }) => {
                assert_eq!(cap, 3);
                assert!(in_flight >= 3, "shed below the cap: {in_flight}");
                shed.push(in_flight);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }
    assert_eq!(db.stats().counter("net.requests.shed"), FLOOD - 3);
    assert!(
        db.stats().gauge("net.queue.depth") <= 3,
        "queue absorbed the flood instead of shedding it"
    );

    // Lift the barrier: the three admitted requests commit.
    db.manager().abort(holder);
    let mut committed = 0;
    for _ in 0..3 {
        let (_seq, resp, _) = rx.recv::<Response>().unwrap().unwrap();
        match resp {
            Response::Committed { results, .. } => {
                assert_eq!(results, vec![OpResult::Debited(true)]);
                committed += 1;
            }
            other => panic!("expected Committed, got {other:?}"),
        }
    }
    assert_eq!(committed, 3);
    drop((tx, rx));
    server.drain();
    assert_eq!(db.stats().gauge("net.queue.depth"), 0, "drain leaves the queue empty");
    // The seed commit plus exactly the admitted requests; sheds
    // executed nothing.
    assert_eq!(db.committed_count(), 1 + 3);
}

/// A pipelining client that keeps exactly its negotiated cap outstanding
/// — next request out the instant an answer is in — never exceeds the
/// cap and must never be shed: the server releases a request's slot
/// before it writes the answer, not after.
#[test]
fn session_at_exactly_its_cap_is_never_shed() {
    const DEPTH: u32 = 8;
    const REQUESTS: u64 = 2_000;
    let db = Arc::new(Db::in_memory());
    let opts = ServerOptions { workers: 4, ..ServerOptions::default() };
    let server = serve_with(db.clone(), "127.0.0.1:0", opts).unwrap();
    let addr = server.local_addr().to_string();
    let client = Client::connect_with(
        &addr,
        ClientOptions { max_in_flight: DEPTH, ..ClientOptions::default() },
    )
    .unwrap();
    assert_eq!(client.granted_in_flight(), DEPTH, "depth equals the negotiated cap");
    let (mut tx, mut rx) = client.into_halves();

    let request = Request::Transact { ops: vec![credit("till", 1)] };
    let mut sent = 0;
    while sent < u64::from(DEPTH) {
        sent += 1;
        tx.send(sent, &request).unwrap();
    }
    for _ in 0..REQUESTS {
        let (seq, resp, _) = rx.recv::<Response>().unwrap().unwrap();
        assert!(
            matches!(resp, Response::Committed { .. }),
            "request {seq} of a session within its cap was refused: {resp:?}"
        );
        if sent < REQUESTS {
            sent += 1;
            tx.send(sent, &request).unwrap();
        }
    }
    assert_eq!(db.stats().counter("net.requests.shed"), 0);
    drop((tx, rx));
    server.drain();
    assert_eq!(db.committed_count(), REQUESTS);
}

/// A half-written frame at disconnect is refused wholesale: the session
/// dies, nothing half-applies, and the server keeps serving.
#[test]
fn torn_frame_at_disconnect_never_corrupts_state() {
    let db = Arc::new(Db::in_memory());
    let server = serve_with(db.clone(), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let addr = server.local_addr().to_string();

    let mut victim = Client::connect(&addr).unwrap();
    victim.transact(vec![credit("acct", 10)]).unwrap();
    let (mut tx, rx) = victim.into_halves();

    // Half a frame, then the plug is pulled.
    use hcc_wire::msg::WireMsg;
    let mut payload = Vec::new();
    Request::Transact { ops: vec![credit("acct", 77)] }.encode_payload(&mut payload);
    let mut framed = Vec::new();
    frame::encode_frame_into(99, &payload, &mut framed);
    tx.send_raw(&framed[..framed.len() / 2]).unwrap();
    tx.shutdown_write();
    drop((tx, rx));

    // A corrupted frame (flipped CRC bit) on a second session: same
    // refusal, no decode of the lie.
    let liar = Client::connect(&addr).unwrap();
    let (mut tx2, rx2) = liar.into_halves();
    let mut framed2 = Vec::new();
    frame::encode_frame_into(7, &payload, &mut framed2);
    let last = framed2.len() - 1;
    framed2[last] ^= 0x01;
    tx2.send_raw(&framed2).unwrap();
    drop((tx2, rx2));

    // The server outlives both: a fresh session sees exactly the one
    // acknowledged commit and none of the refused bytes' effects.
    let mut fresh = Client::connect(&addr).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while db.stats().counter("net.frames.refused") < 2 {
        assert!(std::time::Instant::now() < deadline, "frame refusals not observed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (_, views) = fresh.read(None, vec![(TypeTag::Account, "acct".into())]).unwrap();
    assert_eq!(views, vec![hcc_wire::msg::View::Balance { num: 10, den: 1 }]);
    fresh.goodbye().unwrap();
    server.drain();
    assert_eq!(db.committed_count(), 1, "the torn/corrupt frames executed nothing");
}

/// Kill the server mid-session and heal it on the same directory (the
/// multisite harness's kill/heal discipline over a socket): a client
/// reconnects to the revived server and resumes on the recovered state.
#[test]
fn client_reconnects_and_resumes_after_kill_and_heal() {
    let dir = tmpdir("heal");

    let db = Arc::new(Db::open(&dir).unwrap());
    let server = serve_with(db.clone(), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    for _ in 0..5 {
        client.transact(vec![credit("persist", 2)]).unwrap();
    }
    server.kill();
    match client.transact(vec![credit("persist", 1)]) {
        Err(e) => assert!(!e.is_transient(), "outcome-unknown loss must not auto-retry: {e}"),
        Ok(_) => panic!("transact succeeded across a killed server"),
    }
    drop(client);
    drop(db);

    // Heal: recover the same directory, serve on a fresh port (the old
    // one may sit in TIME_WAIT), reconnect, verify, resume.
    let db = Arc::new(Db::open(&dir).unwrap());
    let server = serve_with(db.clone(), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let (_, views) = client.read(None, vec![(TypeTag::Account, "persist".into())]).unwrap();
    assert_eq!(
        views,
        vec![hcc_wire::msg::View::Balance { num: 10, den: 1 }],
        "all five acknowledged commits survived the kill"
    );
    client.transact(vec![credit("persist", 5)]).unwrap();
    let (_, views) = client.read(None, vec![(TypeTag::Account, "persist".into())]).unwrap();
    assert_eq!(views, vec![hcc_wire::msg::View::Balance { num: 15, den: 1 }]);
    client.goodbye().unwrap();
    server.drain();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Shutdown` over the wire wakes `wait_for_shutdown_request`, and the
/// drain answers everything already admitted.
#[test]
fn remote_shutdown_then_drain_answers_admitted_work() {
    let db = Arc::new(Db::in_memory());
    let server = serve_with(db.clone(), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let addr = server.local_addr().to_string();

    let mut client = Client::connect(&addr).unwrap();
    client.transact(vec![credit("a", 3)]).unwrap();
    client.shutdown_server().unwrap();
    server.wait_for_shutdown_request();
    server.drain();

    // Draining refused nothing that was admitted: the commit stands.
    assert_eq!(db.committed_count(), 1);
    let stats = db.stats();
    assert_eq!(stats.gauge("net.queue.depth"), 0);
    assert_eq!(stats.counter("net.sessions.opened"), stats.counter("net.sessions.closed"));

    // A connect after drain is refused at the socket.
    assert!(Client::connect(&addr).is_err());
}

/// Draining servers refuse *new* work with `ShuttingDown`, typed and
/// explicit — not a hang, not a silent drop.
#[test]
fn draining_refuses_new_work_with_typed_fault() {
    let db = Arc::new(Db::builder().lock_timeout(Duration::from_secs(30)).in_memory());
    let server = serve_with(db.clone(), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let addr = server.local_addr().to_string();

    // Park one admitted request behind a held Debit-Ok lock so the
    // drain has something outstanding to wait for.
    let holder = hold_debit_barrier(&db, "gate", 100);

    let client = Client::connect(&addr).unwrap();
    let (mut tx, mut rx) = client.into_halves();
    use hcc_wire::msg::WireMsg;
    let mut payload = Vec::new();
    Request::Transact { ops: vec![debit("gate", 1)] }.encode_payload(&mut payload);
    let mut framed = Vec::new();
    frame::encode_frame_into(1, &payload, &mut framed);
    tx.send_raw(&framed).unwrap();

    // Wait until the request is admitted (it shows in the counters),
    // then start the drain from another thread.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while db.stats().counter("net.requests.transact") < 1 {
        assert!(std::time::Instant::now() < deadline, "request not admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    let drainer = {
        let db = db.clone();
        std::thread::spawn(move || {
            // Hold the barrier well past the refusal below, then release
            // it so the admitted job can finish.
            std::thread::sleep(Duration::from_millis(400));
            db.manager().abort(holder);
        })
    };

    let draining = std::thread::spawn(move || server.drain());
    // New work sent while draining is refused, typed. (The drain flips
    // its flag first thing; the sleep just keeps this send comfortably
    // behind it.)
    std::thread::sleep(Duration::from_millis(150));
    let mut payload2 = Vec::new();
    Request::Transact { ops: vec![credit("other", 1)] }.encode_payload(&mut payload2);
    let mut framed2 = Vec::new();
    frame::encode_frame_into(2, &payload2, &mut framed2);
    tx.send_raw(&framed2).unwrap();

    let mut saw_shutting_down = false;
    let mut saw_commit = false;
    for _ in 0..2 {
        match rx.recv::<Response>() {
            Ok(Some((_seq, Response::Fault(WireFault::ShuttingDown), _))) => {
                saw_shutting_down = true;
            }
            Ok(Some((_seq, Response::Committed { .. }, _))) => saw_commit = true,
            other => panic!("unexpected during drain: {other:?}"),
        }
    }
    assert!(saw_shutting_down, "new work during drain must be refused as ShuttingDown");
    assert!(saw_commit, "admitted work must still be answered by the drain");
    drainer.join().unwrap();
    draining.join().unwrap();
    // The barrier's seed commit plus the one admitted debit.
    assert_eq!(db.committed_count(), 2);
}
