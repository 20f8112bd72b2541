//! The socket crash workload with a **replication pair**: the primary
//! serves clients and ships its WAL ([`hcc_repl::Primary`] embedded in
//! the server via `repl_listen`), a follower converges off the stream,
//! the primary is killed, the follower is **promoted** and re-published
//! behind the same address file, and clients finish their runs against
//! the promoted node.
//!
//! Verification layers three claims on top of the socket workload's
//! ack-record discipline ([`socket::verify_socket_recovery`]):
//!
//! 1. **no acked commit is lost by failover** — the follower had
//!    converged before the kill, so every commit *either* primary *or*
//!    promoted node acked must be in the promoted store with exactly
//!    the acked effects;
//! 2. **the converged history is hybrid atomic** — the promoted log
//!    passes the same `recover_and_verify` oracle the crash workloads
//!    use;
//! 3. **lagging follower reads are consistent prefixes** — every
//!    snapshot read sampled on the follower *while it lagged* must
//!    equal the fold of the final log's commits at or below the
//!    sample's watermark. A torn or reordered apply would show up here
//!    as a fold mismatch.
//!
//! [`socket::verify_socket_recovery`]: crate::socket::verify_socket_recovery

use std::sync::Arc;
use std::time::{Duration, Instant};

use hcc_adts::{AccountObject, QueueObject};
use hcc_db::{Db, HccError};
use hcc_repl::{Follower, ObjectResolver};
use hcc_spec::Rational;
use hcc_storage::DurableObject;

use crate::crash::{fold_oracle, Oracle};
use crate::socket::{ACCOUNT, QUEUE};

/// The resolver a follower of the socket workload needs: the two object
/// names [`run_socket_client`](crate::socket::run_socket_client) drives,
/// mapped to their typed handles. Anything else in the stream is a
/// protocol breach and poisons the follower.
pub fn bank_queue_resolver() -> ObjectResolver {
    Arc::new(|db: &Db, name: &str| match name {
        ACCOUNT => {
            let obj = db.object::<AccountObject>(name).map_err(|e| e.to_string())?;
            Ok(obj as Arc<dyn DurableObject>)
        }
        QUEUE => {
            let obj = db.object::<QueueObject<i64>>(name).map_err(|e| e.to_string())?;
            Ok(obj as Arc<dyn DurableObject>)
        }
        other => Err(format!("socket workload only replicates {ACCOUNT}/{QUEUE}, got {other}")),
    })
}

/// One zero-lock snapshot read taken on a (possibly lagging) follower:
/// both views pinned at the same replicated watermark.
#[derive(Clone, Debug)]
pub struct PrefixSample {
    /// The follower's replicated stable watermark at the read.
    pub watermark: u64,
    /// The account balance the read observed.
    pub balance: Rational,
    /// The queue contents the read observed, front first.
    pub queue: Vec<i64>,
}

/// Take one consistent snapshot read on the follower — the same
/// wait-free `begin_read` path local readers use, pinned at whatever
/// watermark replication has witnessed so far. `None` until the
/// follower has applied enough for both objects to exist.
pub fn sample_follower_prefix(follower: &Follower) -> Option<PrefixSample> {
    let db = follower.db();
    // Opening the handles is what folds a not-yet-read object into the
    // snapshot horizon; on the follower's in-memory Db this is cheap
    // and idempotent.
    db.object::<AccountObject>(ACCOUNT).ok()?;
    db.object::<QueueObject<i64>>(QUEUE).ok()?;
    let rtx = db.begin_read();
    let watermark = rtx.watermark();
    let balance = rtx.view::<AccountObject>(ACCOUNT).ok()?;
    let queue: Vec<i64> = rtx.view::<QueueObject<i64>>(QUEUE).ok()?.into_iter().collect();
    Some(PrefixSample { watermark, balance, queue })
}

/// Hold every sampled follower read against the final log: the views at
/// watermark `w` must equal the fold of exactly the commits with
/// `ts <= w`. This is the consistent-prefix claim — a read that saw a
/// later transaction without an earlier one, or a half-applied batch,
/// cannot match any prefix fold.
pub fn verify_prefix_samples(oracle: &Oracle, samples: &[PrefixSample]) {
    for sample in samples {
        let covered: Vec<u64> =
            oracle.keys().copied().filter(|ts| *ts <= sample.watermark).collect();
        let (balance, queue) = fold_oracle(oracle, &covered);
        assert_eq!(
            sample.balance, balance,
            "follower read at watermark {} is not the log's prefix fold",
            sample.watermark
        );
        assert_eq!(
            sample.queue, queue,
            "follower queue view at watermark {} is not the log's prefix fold",
            sample.watermark
        );
    }
}

/// Block until `follower` has durably stored and applied everything the
/// primary issued *and* its watermark caught up — the precondition for
/// a lossless promotion.
pub fn await_replication(db: &Db, follower: &Follower, deadline: Duration) -> Result<(), HccError> {
    let store = db.storage().expect("replication needs a durable primary");
    let start = Instant::now();
    loop {
        let target = store.last_issued_ticket();
        if follower.durable_ticket() >= target
            && follower.lag() == 0
            && follower.watermark() >= db.manager().stable_watermark()
        {
            return Ok(());
        }
        if let Some(fault) = follower.fault() {
            return Err(HccError::Protocol(format!("follower poisoned while converging: {fault}")));
        }
        if start.elapsed() >= deadline {
            return Err(HccError::Protocol(format!(
                "follower stuck: durable {} / target {target}, lag {}",
                follower.durable_ticket(),
                follower.lag()
            )));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::oracle_from_log;
    use crate::socket::{
        publish_addr, run_socket_client, verify_socket_recovery, SocketClientOptions,
    };
    use hcc_repl::FollowerOptions;
    use hcc_server::{serve_with, ServerOptions};
    use hcc_storage::CompactionPolicy;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    fn tmp(name: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "hcc-replwl-{}-{}-{}",
            std::process::id(),
            name,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn open_db(dir: &std::path::Path) -> Arc<Db> {
        Arc::new(
            Db::builder()
                .segment_max_bytes(4096)
                .compaction(CompactionPolicy::never())
                .env_overrides()
                .open(dir)
                .expect("open db"),
        )
    }

    /// The full failover cycle: randomized socket load against a
    /// replicated primary, kill the primary, promote the follower,
    /// clients finish against the promoted node, then verify every ack
    /// and every lagging follower read against the promoted log.
    #[test]
    fn primary_kill_promote_converge_under_load() {
        let pdir = tmp("primary");
        let rdir = tmp("replica");
        let addr_file = pdir.with_extension("addr");

        let db = open_db(&pdir);
        let server = serve_with(
            db.clone(),
            "127.0.0.1:0",
            ServerOptions { repl_listen: Some("127.0.0.1:0".into()), ..ServerOptions::default() },
        )
        .expect("serve primary");
        publish_addr(&addr_file, &server.local_addr().to_string()).expect("publish");

        let follower = Follower::start(
            &rdir,
            &server.repl_addr().expect("repl listener").to_string(),
            bank_queue_resolver(),
            FollowerOptions {
                segment_max_bytes: 4096,
                reconnect_backoff: Duration::from_millis(10),
                ..FollowerOptions::default()
            },
        )
        .expect("start follower");
        let follower = Arc::new(follower);

        // Sample zero-lock reads on the follower throughout phase 1 —
        // most land while it is genuinely lagging behind the load.
        let samples = Arc::new(Mutex::new(Vec::<PrefixSample>::new()));
        let stop_sampling = Arc::new(AtomicBool::new(false));
        let sampler = {
            let follower = follower.clone();
            let samples = samples.clone();
            let stop = stop_sampling.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Some(s) = sample_follower_prefix(&follower) {
                        samples.lock().push(s);
                    }
                    std::thread::sleep(Duration::from_millis(3));
                }
            })
        };

        // Phase 1: randomized load against the primary.
        let drivers: Vec<_> = (0..2u64)
            .map(|i| {
                let addr_file = addr_file.clone();
                std::thread::spawn(move || {
                    run_socket_client(
                        &addr_file,
                        SocketClientOptions { seed: 0xFA11 + i, txns: 30, ..Default::default() },
                    )
                    .expect("phase-1 driver")
                })
            })
            .collect();
        let mut reports: Vec<_> = drivers.into_iter().map(|d| d.join().expect("join")).collect();

        // Converge, then fail the primary.
        db.storage().unwrap().sync().expect("sync");
        await_replication(&db, &follower, Duration::from_secs(30)).expect("converge");
        server.kill();
        drop(db);

        stop_sampling.store(true, Ordering::Relaxed);
        sampler.join().expect("sampler");
        let samples = std::mem::take(&mut *samples.lock());

        // Promote: ordinary recovery over the replica directory, then
        // re-publish the promoted node behind the same address file.
        let follower = Arc::into_inner(follower).expect("sole follower handle");
        let promoted = follower
            .promote_with(
                Db::builder()
                    .segment_max_bytes(4096)
                    .compaction(CompactionPolicy::never())
                    .env_overrides(),
            )
            .expect("promote");
        let promoted = Arc::new(promoted);
        let server = serve_with(promoted.clone(), "127.0.0.1:0", ServerOptions::default())
            .expect("serve promoted");
        publish_addr(&addr_file, &server.local_addr().to_string()).expect("republish");

        // Phase 2: clients reconnect (via the file) and keep going
        // against the promoted node.
        let drivers: Vec<_> = (0..2u64)
            .map(|i| {
                let addr_file = addr_file.clone();
                std::thread::spawn(move || {
                    run_socket_client(
                        &addr_file,
                        SocketClientOptions { seed: 0xFA22 + i, txns: 20, ..Default::default() },
                    )
                    .expect("phase-2 driver")
                })
            })
            .collect();
        reports.extend(drivers.into_iter().map(|d| d.join().expect("join")));
        server.drain();
        drop(promoted);

        // Every ack from either side of the failover survived: phase-1
        // acks because the follower converged before the kill, phase-2
        // acks because the promoted node drained in order.
        let acks: Vec<_> = reports.iter().map(|r| r.acked.clone()).collect();
        let verdict = verify_socket_recovery(&rdir, &acks).expect("verify");
        assert!(verdict.acked > 0, "drivers committed something");

        // And every lagging read the follower served was a consistent
        // prefix of the history that survived.
        let oracle = oracle_from_log(&rdir).expect("oracle");
        assert!(!samples.is_empty(), "the sampler observed the follower");
        verify_prefix_samples(&oracle, &samples);

        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&rdir);
        let _ = std::fs::remove_file(&addr_file);
    }
}
