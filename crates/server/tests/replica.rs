//! The served replication topology: a durable primary server with an
//! embedded shipper (`repl_listen`), a follower feeding a read-replica
//! server, and a client routing snapshot reads replica-first via the
//! cheap inline `Stats` probe.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hcc_adts::CounterObject;
use hcc_client::{Client, ClientOptions};
use hcc_db::Db;
use hcc_repl::{Follower, FollowerOptions, ObjectResolver};
use hcc_server::{serve_with, ServerOptions};
use hcc_storage::DurableObject;
use hcc_wire::msg::{TypeTag, View, WireOp};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hcc-replsrv-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn counter_resolver() -> ObjectResolver {
    Arc::new(|db: &Db, name: &str| {
        let obj = db.object::<CounterObject>(name).map_err(|e| e.to_string())?;
        Ok(obj as Arc<dyn DurableObject>)
    })
}

fn await_follower(db: &Db, follower: &Follower) {
    let target = || db.storage().unwrap().last_issued_ticket();
    let deadline = Instant::now() + Duration::from_secs(20);
    while follower.durable_ticket() < target()
        || follower.lag() != 0
        || follower.watermark() < db.manager().stable_watermark()
    {
        assert!(!follower.poisoned(), "follower poisoned while converging: {:?}", follower.fault());
        assert!(Instant::now() < deadline, "follower never converged");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn repl_listen_requires_a_durable_db() {
    let db = Arc::new(Db::in_memory());
    let err = match serve_with(
        db,
        "127.0.0.1:0",
        ServerOptions { repl_listen: Some("127.0.0.1:0".into()), ..ServerOptions::default() },
    ) {
        Err(e) => e,
        Ok(_) => panic!("an in-memory Db must not start a shipper"),
    };
    assert!(err.to_string().contains("durable"), "{err}");
}

#[test]
fn stats_probe_and_replica_first_reads_with_fallback() {
    let pdir = tmpdir("primary");
    let rdir = tmpdir("replica");
    let db = Arc::new(Db::builder().segment_max_bytes(4096).open(&pdir).unwrap());
    let server = serve_with(
        db.clone(),
        "127.0.0.1:0",
        ServerOptions { repl_listen: Some("127.0.0.1:0".into()), ..ServerOptions::default() },
    )
    .unwrap();
    let repl_addr = server.repl_addr().expect("repl listener bound").to_string();

    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    client.open(TypeTag::Counter, "hits").unwrap();

    // Stats is answered inline and tracks commits and the watermark.
    let before = client.stats().unwrap();
    for _ in 0..30 {
        client.transact(vec![WireOp::Inc { name: "hits".into(), delta: 1 }]).unwrap();
    }
    let after = client.stats().unwrap();
    assert_eq!(after.committed, before.committed + 30);
    assert!(after.watermark > before.watermark, "watermark advanced with commits");

    // A follower converges off the embedded shipper, and a second
    // server fronts its Db as a read replica.
    let follower = Follower::start(
        &rdir,
        &repl_addr,
        counter_resolver(),
        FollowerOptions {
            segment_max_bytes: 4096,
            reconnect_backoff: Duration::from_millis(10),
            ..FollowerOptions::default()
        },
    )
    .unwrap();
    db.storage().unwrap().sync().unwrap();
    await_follower(&db, &follower);

    let replica_db = follower.db().clone();
    let replica_server =
        serve_with(replica_db.clone(), "127.0.0.1:0", ServerOptions::default()).unwrap();
    client
        .attach_read_replica(&replica_server.local_addr().to_string(), ClientOptions::default())
        .unwrap();
    assert!(client.has_read_replica());

    // The read is served by the replica: correct views at a watermark
    // that is the follower's, and the replica server's read counter —
    // not the primary's — moves.
    let primary_reads = db.stats().counter("net.requests.read");
    let (wm, views) = client.read(None, vec![(TypeTag::Counter, "hits".into())]).unwrap();
    assert_eq!(views, vec![View::Count(30)]);
    assert!(wm <= db.manager().stable_watermark());
    assert_eq!(replica_db.stats().counter("net.requests.read"), 1);
    assert_eq!(db.stats().counter("net.requests.read"), primary_reads);

    // Replica failure: the read falls back to the primary and the dead
    // replica is detached, so later reads go straight to the primary.
    replica_server.kill();
    let (_, views) = client.read(None, vec![(TypeTag::Counter, "hits".into())]).unwrap();
    assert_eq!(views, vec![View::Count(30)]);
    assert!(!client.has_read_replica(), "failed replica was detached");
    assert_eq!(db.stats().counter("net.requests.read"), primary_reads + 1);

    client.goodbye().unwrap();
    drop(follower);
    server.drain();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}
