//! The follower: a read replica built by replaying the shipped log, and
//! the promotion path that turns its directory into a primary.
//!
//! A [`Follower`] owns three things:
//!
//! * its log — an ordinary [`SegmentedWal`] fed the shipped frames raw
//!   ([`SegmentedWal::append_frames`]), durable on its own disk under
//!   its own durability level (what its `ReplAck`s attest);
//! * an in-memory [`Db`] — the *materialized* replica, built by feeding
//!   every record through the recovery replay path
//!   ([`TxnManager::apply_replicated`]) as it arrives. Restart rebuilds
//!   it from the replica log with the **same** function — there is no
//!   separate bootstrap code;
//! * the stream thread — dials the primary, appends + applies batches,
//!   acks its durable position, and reconnects with `Hello{last_ticket}`
//!   after any disconnect, so a mid-batch kill resumes exactly at the
//!   last durable frame (re-deliveries are skipped idempotently).
//!
//! Reads go through the follower `Db`'s ordinary wait-free snapshot
//! path: [`TxnManager::witness_replicated_watermark`] raises the stable
//! watermark only when a shipped `(watermark, ticket)` sample has been
//! fully applied, so a lagging replica always serves a consistent
//! prefix of the primary's commit order — never a later transaction
//! without an earlier one, and never a partially applied one.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use hcc_db::{Db, DbBuilder};
use hcc_obs::{Counter, Gauge};
use hcc_storage::{
    wal, Durability, DurableObject, LogRecord, SegmentedWal, TxnAssembler, Verdict, WalOptions,
};
use hcc_wire::conn;
use hcc_wire::repl::{ReplMsg, REPL_PROTOCOL_VERSION};

use crate::ReplError;

/// Maps a durable object *name* from the shipped log to a live handle on
/// the follower's `Db` — the same role the typed registry plays during
/// recovery. Deployments know their schema: the resolver typically
/// matches on a name prefix and calls `db.object::<T>(name)`.
pub type ObjectResolver =
    Arc<dyn Fn(&Db, &str) -> Result<Arc<dyn DurableObject>, String> + Send + Sync>;

/// Tunables for a [`Follower`].
#[derive(Clone, Debug)]
pub struct FollowerOptions {
    /// Token presented in `ReplHello`.
    pub token: String,
    /// Replica log segment rotation threshold.
    pub segment_max_bytes: u64,
    /// Replica log flush mode: `Fsync` makes every `ReplAck` a promise
    /// that survives power loss, `Buffered` a promise that survives a
    /// process crash.
    pub durability: Durability,
    /// Pause between reconnect attempts.
    pub reconnect_backoff: Duration,
}

impl Default for FollowerOptions {
    fn default() -> FollowerOptions {
        FollowerOptions {
            token: String::new(),
            segment_max_bytes: 4 * 1024 * 1024,
            durability: Durability::default(),
            reconnect_backoff: Duration::from_millis(50),
        }
    }
}

struct Instruments {
    batches: Arc<Counter>,
    applied_frames: Arc<Counter>,
    reconnects: Arc<Counter>,
    apply_faults: Arc<Counter>,
    promotions: Arc<Counter>,
    applied: Arc<Gauge>,
    durable: Arc<Gauge>,
    lag: Arc<Gauge>,
    watermark: Arc<Gauge>,
}

impl Instruments {
    fn resolve(metrics: &hcc_obs::Registry) -> Instruments {
        Instruments {
            batches: metrics.counter("repl.follower.batches"),
            applied_frames: metrics.counter("repl.follower.applied.frames"),
            reconnects: metrics.counter("repl.follower.reconnects"),
            apply_faults: metrics.counter("repl.follower.apply.faults"),
            promotions: metrics.counter("repl.follower.promotions"),
            applied: metrics.gauge("repl.follower.applied.ticket"),
            durable: metrics.gauge("repl.follower.durable.ticket"),
            lag: metrics.gauge("repl.follower.lag"),
            watermark: metrics.gauge("repl.follower.watermark"),
        }
    }
}

/// Replay state: everything the apply path needs under one lock, so the
/// stream thread and `promote` never see each other's partial work.
struct Core {
    log: SegmentedWal,
    /// Every shipped record goes through it: the same reader recovery
    /// uses, so replica and recovered site agree on which commits count.
    txns: TxnAssembler,
    /// Last ticket fed through the apply path.
    applied: u64,
    /// Latest `(watermark, ticket)` sample from the primary, applied or
    /// not yet.
    sample: Option<(u64, u64)>,
}

struct Inner {
    db: Arc<Db>,
    dir: PathBuf,
    resolver: ObjectResolver,
    core: parking_lot::Mutex<Core>,
    ins: Instruments,
    opts: FollowerOptions,
    stop: AtomicBool,
    /// The non-recoverable fault the apply path hit, once it hit one (the
    /// stream thread has exited; reads still serve the last good
    /// watermark).
    fault: OnceLock<String>,
}

/// A live read replica. See the module docs.
pub struct Follower {
    inner: Arc<Inner>,
    stream: Option<JoinHandle<()>>,
}

impl Follower {
    /// Open (or reopen) the replica log at `dir`, rebuild the in-memory
    /// replica from it, and start streaming from the primary at `addr`.
    pub fn start(
        dir: impl AsRef<Path>,
        addr: &str,
        resolver: ObjectResolver,
        opts: FollowerOptions,
    ) -> Result<Follower, ReplError> {
        let dir = dir.as_ref().to_path_buf();
        // Restart catch-up rides the scan the open just made.
        let (log, _, (records, _torn)) = SegmentedWal::open_with_metrics(
            &dir,
            WalOptions { segment_max_bytes: opts.segment_max_bytes, durability: opts.durability },
            &hcc_obs::Registry::new(),
        )?;
        let db = Arc::new(Db::in_memory());
        let ins = Instruments::resolve(db.metrics());
        let mut core = Core { log, txns: TxnAssembler::new(None), applied: 0, sample: None };
        // Everything already durable replays through the same apply path
        // the live stream uses. The watermark stays 0 until the first
        // applicable sample arrives — locally there is no way to know
        // which of these commits the primary had fully applied.
        for (seq, rec) in records {
            apply_record(&db, &resolver, &mut core, seq, rec).map_err(ReplError::Apply)?;
        }
        ins.applied.set(core.applied as i64);
        ins.durable.set(durable_ticket(&core.log) as i64);
        let inner = Arc::new(Inner {
            db,
            dir,
            resolver,
            core: parking_lot::Mutex::new(core),
            ins,
            opts,
            stop: AtomicBool::new(false),
            fault: OnceLock::new(),
        });
        let stream = {
            let inner = inner.clone();
            let addr = addr.to_string();
            std::thread::spawn(move || stream_loop(&inner, &addr))
        };
        Ok(Follower { inner, stream: Some(stream) })
    }

    /// The follower's database — serve reads from it (in process or via
    /// `hcc-server`); every snapshot is a consistent prefix at
    /// [`Follower::watermark`].
    pub fn db(&self) -> &Arc<Db> {
        &self.inner.db
    }

    /// The replica directory.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// The readable watermark the primary proved safe (0 until the first
    /// applicable sample after a start/restart).
    pub fn watermark(&self) -> u64 {
        self.inner.db.stable_watermark()
    }

    /// Tickets between the primary's last known position and this
    /// replica's applied position — 0 means converged as of the latest
    /// sample.
    pub fn lag(&self) -> u64 {
        let core = self.inner.core.lock();
        match core.sample {
            Some((_, ticket)) => ticket.saturating_sub(core.applied),
            None => 0,
        }
    }

    /// The last ticket durable in the replica log.
    pub fn durable_ticket(&self) -> u64 {
        durable_ticket(&self.inner.core.lock().log)
    }

    /// Did the apply path hit a non-recoverable fault? (The stream has
    /// stopped; the replica still serves its last good prefix.)
    pub fn poisoned(&self) -> bool {
        self.inner.fault.get().is_some()
    }

    /// What poisoned the stream, if anything did.
    pub fn fault(&self) -> Option<String> {
        self.inner.fault.get().cloned()
    }

    /// Stop streaming (idempotent; also called by drop and promote).
    pub fn stop(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.stream.take() {
            let _ = h.join();
        }
    }

    /// Promote this replica to a primary: stop the stream, cut the log
    /// above the last chain-linked commit, and reopen the directory with
    /// `builder` — ordinary crash recovery, which re-anchors tickets,
    /// transaction ids, and the logical clock above everything that
    /// survived. Returns the promoted, writable `Db`.
    ///
    /// Every commit this replica applied survives (each was linked when
    /// it was applied, after a restart too); a commit the assembler
    /// dropped poisoned the stream instead of being applied. One whose
    /// chain predecessor never arrived is cut with everything after it
    /// (it could depend on state this replica never saw); one short of
    /// its ops is linked, so it stays, and recovery drops it again.
    pub fn promote_with(mut self, builder: DbBuilder) -> Result<Db, ReplError> {
        self.stop();
        let cut = self.inner.core.lock().txns.last_linked();
        self.inner.ins.promotions.inc();
        let dir = self.inner.dir.clone();
        drop(self); // close the log's handles before it is cut and reopened
        wal::truncate_above(&dir, cut)?;
        builder.open(dir).map_err(|e| ReplError::Refused(format!("promotion open failed: {e}")))
    }

    /// [`Follower::promote_with`] using default builder settings plus
    /// the `HCC_DURABILITY` override for the promoted `Db` — how the
    /// crash harness promotes under its matrix.
    pub fn promote(self) -> Result<Db, ReplError> {
        self.promote_with(Db::builder().env_overrides())
    }
}

impl Drop for Follower {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The last ticket in the follower's log (0 = empty).
fn durable_ticket(log: &SegmentedWal) -> u64 {
    log.current_ticket().saturating_sub(1)
}

/// Apply one shipped record to the in-memory replica: a committed
/// transaction goes through the recovery replay path, a dropped commit
/// poisons the replica with the assembler's reason.
fn apply_record(
    db: &Db,
    resolver: &ObjectResolver,
    core: &mut Core,
    seq: u64,
    rec: LogRecord,
) -> Result<(), String> {
    match core.txns.feed(seq, rec).map_err(|e| e.to_string())? {
        Some(Verdict::Committed(c)) => {
            let (txn, ts) = (c.txn, c.ts);
            let resolved = c
                .by_object()
                .into_iter()
                .map(|(name, ops)| Ok((resolver(db, &name)?, ops)))
                .collect::<Result<Vec<hcc_txn::ReplicatedOps>, String>>()?;
            db.manager()
                .apply_replicated(txn, ts, &resolved)
                .map_err(|e| format!("replay of txn {txn} failed: {e}"))?;
        }
        Some(Verdict::Dropped { reason, .. }) => return Err(reason),
        Some(Verdict::Aborted(_)) | None => {}
    }
    core.applied = core.applied.max(seq);
    Ok(())
}

/// Dial → handshake → stream, reconnecting until stopped or poisoned.
fn stream_loop(inner: &Arc<Inner>, addr: &str) {
    let mut first_attempt = true;
    while !inner.stop.load(Ordering::SeqCst) {
        if !first_attempt {
            inner.ins.reconnects.inc();
            std::thread::park_timeout(inner.opts.reconnect_backoff);
        }
        first_attempt = false;
        match stream_once(inner, addr) {
            Ok(()) => {}
            Err(ReplError::Apply(detail)) => {
                // Re-dialing cannot help: the fault is in what is already
                // durable here. Stop and leave the replica readable.
                inner.ins.apply_faults.inc();
                let _ = inner.fault.set(detail);
                return;
            }
            Err(_) => {}
        }
    }
}

/// One connection's lifetime. `Ok` = clean disconnect (reconnect),
/// `Err(Apply)` = poison, other errors = reconnect.
fn stream_once(inner: &Arc<Inner>, addr: &str) -> Result<(), ReplError> {
    let conn = conn::connect(addr)?;
    let (mut tx, mut rx) = conn.split()?;
    let hello = ReplMsg::Hello {
        version: REPL_PROTOCOL_VERSION,
        token: inner.opts.token.clone(),
        last_ticket: durable_ticket(&inner.core.lock().log),
    };
    tx.send(0, &hello)?;
    rx.set_read_timeout(Some(Duration::from_millis(200)))?;
    let mut seq = 0u64;
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let msg = match rx.recv::<ReplMsg>() {
            Ok(Some((_, msg, _))) => msg,
            Ok(None) => return Ok(()),
            Err(e) if e.is_timeout() => continue,
            Err(e) => return Err(ReplError::Refused(format!("stream broke: {e}"))),
        };
        match msg {
            ReplMsg::Welcome { .. } => {}
            ReplMsg::Fault { detail } => return Err(ReplError::Refused(detail)),
            ReplMsg::Batch { watermark, ticket, frames } => {
                let (durable, fresh) = {
                    let mut core = inner.core.lock();
                    // Durable first, then applied: an ack never promises
                    // more than the disk holds. The log hands back what it
                    // appended, decoded — re-deliveries are already gone.
                    let records = core.log.append_frames(&frames)?;
                    let fresh = records.len() as u64;
                    for (fseq, rec) in records {
                        apply_record(&inner.db, &inner.resolver, &mut core, fseq, rec)
                            .map_err(ReplError::Apply)?;
                    }
                    core.sample = Some((watermark, ticket));
                    if core.applied >= ticket {
                        inner.db.manager().witness_replicated_watermark(watermark);
                        inner.ins.watermark.set(watermark as i64);
                    }
                    let durable = durable_ticket(&core.log);
                    inner.ins.applied.set(core.applied as i64);
                    inner.ins.durable.set(durable as i64);
                    inner.ins.lag.set(ticket.saturating_sub(core.applied) as i64);
                    (durable, fresh)
                };
                inner.ins.batches.inc();
                inner.ins.applied_frames.add(fresh);
                seq += 1;
                tx.send(seq, &ReplMsg::Ack { ticket: durable })?;
            }
            ReplMsg::Hello { .. } | ReplMsg::Ack { .. } => {
                return Err(ReplError::Refused("peer sent a follower-side message".into()));
            }
        }
    }
}
