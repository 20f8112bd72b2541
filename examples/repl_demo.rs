//! Log-shipping replication end to end in one process: a durable
//! primary served over TCP with its embedded WAL shipper, a follower
//! converging off the stream, replica-first snapshot reads over the
//! wire, and promote-on-failure.
//!
//! ```text
//! cargo run --release --example repl_demo [dir]
//! ```
//!
//! The tour:
//!
//! 1. serve a durable [`Db`] with `repl_listen` set — the server tails
//!    its own WAL and ships raw frames to whoever connects;
//! 2. a [`Follower`] appends the stream into its own replica log and
//!    applies commits through the recovery replay path (there is no
//!    second apply path to diverge);
//! 3. a client commits over the wire, polls the cheap inline `Stats`
//!    probe, then attaches the follower (served as a read replica) and
//!    routes a snapshot read there — consistent at the follower's
//!    replicated watermark;
//! 4. the primary goes away; the follower is **promoted** by ordinary
//!    recovery over its replica log and keeps taking writes.
//!
//! Run with `HCC_METRICS=json` to get machine-readable dumps at every
//! `Db` drop; CI pipes them through `obscheck`, which holds the
//! `repl.*` gauges to their invariants (lag never negative, acked ≤
//! shipped, final follower lag 0).

use std::sync::Arc;
use std::time::{Duration, Instant};

use hybrid_cc::adts::counter::CounterObject;
use hybrid_cc::client::{Client, ClientOptions};
use hybrid_cc::repl::{Follower, FollowerOptions, ObjectResolver};
use hybrid_cc::server::{serve_with, ServerOptions};
use hybrid_cc::storage::{CompactionPolicy, DurableObject};
use hybrid_cc::wire::msg::{TypeTag, View, WireOp};
use hybrid_cc::Db;

const COUNTER: &str = "hits";

fn counter_resolver() -> ObjectResolver {
    Arc::new(|db: &Db, name: &str| {
        let obj = db.object::<CounterObject>(name).map_err(|e| e.to_string())?;
        Ok(obj as Arc<dyn DurableObject>)
    })
}

fn await_convergence(db: &Db, follower: &Follower) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let target = db.storage().expect("durable primary").last_issued_ticket();
        if follower.durable_ticket() >= target
            && follower.lag() == 0
            && follower.watermark() >= db.manager().stable_watermark()
        {
            return;
        }
        assert!(!follower.poisoned(), "follower poisoned while converging: {:?}", follower.fault());
        assert!(Instant::now() < deadline, "follower never converged");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn main() {
    let dir = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join(format!("repl-demo-{}", std::process::id())));
    let pdir = dir.join("primary");
    let rdir = dir.join("replica");
    let _ = std::fs::remove_dir_all(&dir);

    // 1. The primary: a durable Db served over TCP, with the embedded
    //    shipper listening for followers on its own port. Compaction
    //    stays off — the shipper tails the log files themselves, so the
    //    replicated store must keep its whole history.
    let db = Arc::new(
        Db::builder()
            .segment_max_bytes(16 << 10)
            .compaction(CompactionPolicy::never())
            .open(&pdir)
            .expect("open primary"),
    );
    let server = serve_with(
        db.clone(),
        "127.0.0.1:0",
        ServerOptions { repl_listen: Some("127.0.0.1:0".into()), ..ServerOptions::default() },
    )
    .expect("serve primary");
    let repl_addr = server.repl_addr().expect("repl listener").to_string();
    println!("primary serving on {}, shipping WAL on {repl_addr}", server.local_addr());

    // 2. The follower: its replica log is byte-compatible with a
    //    primary WAL, and every commit is applied through the recovery
    //    replay path at its original ticket position.
    let follower = Follower::start(
        &rdir,
        &repl_addr,
        counter_resolver(),
        FollowerOptions { segment_max_bytes: 16 << 10, ..FollowerOptions::default() },
    )
    .expect("start follower");

    // 3. A client commits over the wire and watches the watermark move
    //    through the inline Stats probe.
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    client.open(TypeTag::Counter, COUNTER).expect("open counter");
    for _ in 0..50 {
        client
            .transact(vec![WireOp::Inc { name: COUNTER.into(), delta: 1 }])
            .expect("remote transact");
    }
    let stats = client.stats().expect("stats");
    println!(
        "primary: committed={} watermark={} (inline Stats probe)",
        stats.committed, stats.watermark
    );

    db.storage().expect("durable").sync().expect("sync");
    await_convergence(&db, &follower);
    println!(
        "follower: converged — durable ticket {}, lag 0, watermark {}",
        follower.durable_ticket(),
        follower.watermark()
    );

    // The follower doubles as a read replica: serve its Db and route
    // the client's snapshot reads there first.
    let replica_server = serve_with(follower.db().clone(), "127.0.0.1:0", ServerOptions::default())
        .expect("serve replica");
    client
        .attach_read_replica(&replica_server.local_addr().to_string(), ClientOptions::default())
        .expect("attach replica");
    let (wm, views) =
        client.read(None, vec![(TypeTag::Counter, COUNTER.into())]).expect("replica read");
    assert_eq!(views, vec![View::Count(50)], "replica read sees every replicated commit");
    println!("replica read: count 50 at watermark {wm} (served by the follower, zero locks)");

    client.goodbye().expect("goodbye");
    replica_server.drain();

    // 4. The primary goes away; promotion is ordinary recovery over the
    //    replica directory. Every acked commit the follower converged
    //    on survives, and the promoted node takes new writes.
    server.drain();
    drop(db);
    let promoted = follower
        .promote_with(
            Db::builder().segment_max_bytes(16 << 10).compaction(CompactionPolicy::never()),
        )
        .expect("promote");
    let counter = promoted.object::<CounterObject>(COUNTER).expect("recovered counter");
    assert_eq!(counter.committed_value(), 50, "all 50 replicated commits survived promotion");
    promoted
        .transact(|tx| {
            counter.inc(tx, 5)?;
            Ok(())
        })
        .expect("write on promoted node");
    assert_eq!(counter.committed_value(), 55);
    println!("promoted: 50 replicated commits recovered, new writes accepted (counter now 55)");

    drop(promoted);
    let _ = std::fs::remove_dir_all(&dir);
    println!("repl_demo: OK");
}
