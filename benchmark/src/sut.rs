//! The adapter: the only file of the benchmark that names items of the
//! program under test. Everything else speaks the small vocabulary
//! defined here, so a PR that reshapes the program's API re-points this
//! file and nothing more. The surface used is listed in the README.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use hcc_adts::{AccountObject, QueueObject};
use hcc_client::{Client, ClientOptions};
use hcc_core::runtime::{ExecError, TxnHandle};
use hcc_db::{Db, HccError};
use hcc_relations::derive::{conflict_atoms, DeriveSpec};
use hcc_relations::tables::AdtConfig;
use hcc_repl::{Follower, FollowerOptions, ObjectResolver};
use hcc_server::{serve_with, ServerHandle, ServerOptions};
use hcc_spec::Rational;
use hcc_storage::wal::read_records;
use hcc_storage::{
    CompactionPolicy, Durability, DurableObject, LogRecord, SegmentedWal, WalOptions,
};
use hcc_txn::TxnManager;
use hcc_wire::conn::{self, Listener, RecvHalf, SendHalf};
use hcc_wire::msg::{OpResult, Request, Response, TypeTag, View, WireFault, WireMsg, WireOp};

use crate::workload::{Durable, Names, Req};

pub type Fallible<T> = Result<T, String>;

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn durability(d: Durable) -> Durability {
    match d {
        Durable::Fsync => Durability::Fsync,
        Durable::Memory | Durable::Buffered => Durability::Buffered,
    }
}

/// Why a request did not commit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fail {
    /// Refused by admission control (`Overloaded`).
    Shed,
    /// The facade's or the client's retry budget ran out.
    RetriesExhausted,
    /// Anything else: a fault, a lost connection, a fatal error.
    Fault(String),
}

fn fail_from(e: HccError) -> Fail {
    match e {
        HccError::Overloaded { .. } => Fail::Shed,
        HccError::RetriesExhausted { .. } => Fail::RetriesExhausted,
        other => Fail::Fault(other.to_string()),
    }
}

/// An error inside a transaction body; hands the program's own error
/// back to its retry loop untouched.
pub struct OpError(HccError);

impl From<ExecError> for OpError {
    fn from(e: ExecError) -> OpError {
        OpError(e.into())
    }
}

pub type Account = Arc<AccountObject>;
pub type Queue = Arc<QueueObject<i64>>;

/// The operations a transaction body may call, in either entry style.
pub struct Ops<'a> {
    txn: &'a Arc<TxnHandle>,
}

impl Ops<'_> {
    pub fn credit(&self, account: &Account, amount: i64) -> Result<(), OpError> {
        Ok(account.credit(self.txn, Rational::from_int(amount))?)
    }

    /// `true` when debited, `false` on overdraft.
    pub fn debit(&self, account: &Account, amount: i64) -> Result<bool, OpError> {
        Ok(account.debit(self.txn, Rational::from_int(amount))?)
    }

    pub fn post_zero(&self, account: &Account) -> Result<(), OpError> {
        Ok(account.post(self.txn, Rational::ZERO)?)
    }

    pub fn enq(&self, queue: &Queue, item: i64) -> Result<(), OpError> {
        Ok(queue.enq(self.txn, item)?)
    }

    pub fn deq(&self, queue: &Queue) -> Result<i64, OpError> {
        Ok(queue.deq(self.txn)?)
    }
}

/// A transaction driven by hand through the manager (`begin` / ops /
/// `commit`), below the facade's retry loop. Aborts on drop unless
/// committed.
pub struct RawTxn {
    mgr: Arc<TxnManager>,
    txn: Arc<TxnHandle>,
    open: bool,
}

impl RawTxn {
    pub fn ops(&self) -> Ops<'_> {
        Ops { txn: &self.txn }
    }

    pub fn commit(mut self) -> Result<u64, Fail> {
        self.open = false;
        self.mgr.commit(self.txn.clone()).map(|ts| ts.0).map_err(|e| Fail::Fault(e.to_string()))
    }
}

impl Drop for RawTxn {
    fn drop(&mut self) {
        if self.open {
            self.mgr.abort(self.txn.clone());
        }
    }
}

/// The counters the benchmark reads from `Db::stats`, all monotone so
/// two readings subtract.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub commits: u64,
    pub transact_calls: u64,
    pub transact_attempts: u64,
    pub backoff_ns: u64,
    pub victims: u64,
    pub refusals: u64,
    pub waits: u64,
    pub sheds: u64,
    pub requests: u64,
    pub fsyncs: u64,
    pub fsync_ns: u64,
    pub log_bytes: u64,
    pub repl_bytes: u64,
    pub repl_frames: u64,
    pub repl_batches: u64,
}

impl Counts {
    pub fn since(&self, earlier: &Counts) -> Counts {
        let d = |now: u64, then: u64| now.saturating_sub(then);
        Counts {
            commits: d(self.commits, earlier.commits),
            transact_calls: d(self.transact_calls, earlier.transact_calls),
            transact_attempts: d(self.transact_attempts, earlier.transact_attempts),
            backoff_ns: d(self.backoff_ns, earlier.backoff_ns),
            victims: d(self.victims, earlier.victims),
            refusals: d(self.refusals, earlier.refusals),
            waits: d(self.waits, earlier.waits),
            sheds: d(self.sheds, earlier.sheds),
            requests: d(self.requests, earlier.requests),
            fsyncs: d(self.fsyncs, earlier.fsyncs),
            fsync_ns: d(self.fsync_ns, earlier.fsync_ns),
            log_bytes: d(self.log_bytes, earlier.log_bytes),
            repl_bytes: d(self.repl_bytes, earlier.repl_bytes),
            repl_frames: d(self.repl_frames, earlier.repl_frames),
            repl_batches: d(self.repl_batches, earlier.repl_batches),
        }
    }
}

/// One database: durable under a directory, or in memory.
#[derive(Clone)]
pub struct Store {
    db: Arc<Db>,
}

impl Store {
    /// Open (creating or recovering) the database at `dir`: one WAL
    /// stripe, group commit on, compaction never.
    pub fn open(dir: &Path, durable: Durable) -> Fallible<Store> {
        let db = Db::builder()
            .durability(durability(durable))
            .compaction(CompactionPolicy::never())
            .open(dir)
            .map_err(text)?;
        Ok(Store { db: Arc::new(db) })
    }

    pub fn memory() -> Store {
        Store { db: Arc::new(Db::in_memory()) }
    }

    pub fn open_as(dir: &Path, durable: Durable) -> Fallible<Store> {
        match durable {
            Durable::Memory => Ok(Store::memory()),
            _ => Store::open(dir, durable),
        }
    }

    /// The typed handle, holding whatever the log recovered under `name`.
    pub fn account(&self, name: &str) -> Fallible<Account> {
        self.db.object::<AccountObject>(name).map_err(text)
    }

    pub fn queue(&self, name: &str) -> Fallible<Queue> {
        self.db.object::<QueueObject<i64>>(name).map_err(text)
    }

    /// `Db::transact`: commit on `Ok`, retry transient failures. Returns
    /// the body's value and the commit timestamp.
    pub fn transact<T>(
        &self,
        mut body: impl FnMut(&Ops) -> Result<T, OpError>,
    ) -> Result<(T, u64), Fail> {
        self.db
            .transact_ts(|tx| body(&Ops { txn: tx.handle() }).map_err(|e| e.0))
            .map(|(v, ts)| (v, ts.0))
            .map_err(fail_from)
    }

    pub fn begin(&self) -> RawTxn {
        let mgr = self.db.manager().clone();
        let txn = mgr.begin();
        RawTxn { mgr, txn, open: true }
    }

    /// One snapshot read of `accounts` at the stable watermark:
    /// `(watermark, balances)`.
    pub fn read_balances(&self, accounts: &[Account]) -> Fallible<(u64, Vec<i64>)> {
        let rtx = self.db.begin_read();
        let balances = accounts
            .iter()
            .map(|a| rtx.view_of(a.as_ref()).map(whole))
            .collect::<Result<Vec<_>, _>>()
            .map_err(text)?;
        Ok((rtx.watermark(), balances))
    }

    pub fn committed_balance(account: &Account) -> i64 {
        whole(account.committed_balance())
    }

    pub fn committed_len(queue: &Queue) -> usize {
        queue.committed_len()
    }

    /// Bytes in the live WAL segments (0 in memory).
    pub fn log_bytes(&self) -> u64 {
        self.db.storage().map_or(0, |s| s.stats().total_bytes)
    }

    /// Flush and fsync the log, so followers and recovery see all of it.
    pub fn sync(&self) -> Fallible<()> {
        match self.db.storage() {
            Some(store) => store.sync().map_err(text),
            None => Ok(()),
        }
    }

    /// Take a checkpoint; returns how long commits were gated, in ns.
    pub fn checkpoint(&self) -> Fallible<u64> {
        self.db.checkpoint().map_err(text)?;
        Ok(self.db.stats().gauge("ckpt.last_gate_nanos").max(0) as u64)
    }

    /// `Db::stats`, for timing the snapshot itself.
    pub fn stats_snapshot(&self) -> usize {
        self.db.stats().values.len()
    }

    pub fn counts(&self) -> Counts {
        let snap = self.db.stats();
        let hist = |name: &str| snap.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
        let (transact_calls, transact_attempts) = hist("db.transact.attempts");
        let (fsyncs, fsync_ns) = hist("wal.fsync_nanos");
        Counts {
            commits: snap.counter("txn.committed"),
            transact_calls,
            transact_attempts,
            backoff_ns: snap.counter("db.transact.backoff_nanos"),
            victims: snap.counter("deadlock.victims"),
            refusals: snap.sum_prefix("lock.refusals."),
            waits: snap.sum_prefix("lock.waits."),
            sheds: snap.counter("net.requests.shed"),
            requests: snap.counter("net.requests.transact") + snap.counter("net.requests.read"),
            fsyncs,
            fsync_ns,
            log_bytes: self.log_bytes(),
            repl_bytes: snap.counter("repl.bytes.shipped"),
            repl_frames: snap.counter("repl.frames.shipped"),
            repl_batches: snap.counter("repl.batches.shipped"),
        }
    }
}

/// Balances in every workload are whole numbers; anything else is a
/// wrong result and shows as a mismatch against the expected balance.
fn whole(r: Rational) -> i64 {
    if r.is_integer() {
        i64::try_from(r.numerator()).unwrap_or(i64::MIN)
    } else {
        i64::MIN
    }
}

// ---------------------------------------------------------------------
// The wire: requests, responses, sessions, raw pipelines, the server.
// ---------------------------------------------------------------------

/// A request in the program's wire vocabulary.
#[derive(Clone)]
pub struct WireReq(Request);

/// What a response said, reduced to what the benchmark checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    Committed { ts: u64, debited: Option<bool>, dequeued: Option<i64> },
    Views { watermark: u64, balances: Vec<i64> },
    Failed(Fail),
}

impl WireReq {
    /// `None` for a request the closed `WireOp` set cannot carry.
    pub fn of(req: &Req, names: &Names) -> Option<WireReq> {
        let acct = |i: u16| names.accounts[i as usize].clone();
        let ops = match *req {
            Req::Transfer { from, to, amount } => vec![
                WireOp::Debit { name: acct(from), amount: i64::from(amount) },
                WireOp::Credit { name: acct(to), amount: i64::from(amount) },
            ],
            Req::Credit { to, amount } => {
                vec![WireOp::Credit { name: acct(to), amount: i64::from(amount) }]
            }
            Req::EnqDeq { item } => vec![
                WireOp::Enq { name: names.queue.clone(), item: i64::from(item) },
                WireOp::Deq { name: names.queue.clone() },
            ],
            Req::Post { .. } => return None,
            Req::ReadAll => {
                let queries =
                    names.accounts.iter().map(|n| (TypeTag::Account, n.clone())).collect();
                return Some(WireReq(Request::Read { at: None, queries }));
            }
        };
        Some(WireReq(Request::Transact { ops }))
    }

    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_payload(out);
    }

    pub fn decodes(bytes: &[u8]) -> bool {
        Request::decode_payload(bytes).is_some()
    }
}

#[derive(Clone)]
pub struct WireResp(Response);

impl WireResp {
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_payload(out);
    }

    pub fn decodes(bytes: &[u8]) -> bool {
        Response::decode_payload(bytes).is_some()
    }

    pub fn reply(&self) -> Reply {
        reply_of(self.0.clone())
    }
}

fn committed(ts: u64, results: &[OpResult]) -> Reply {
    let debited = results.iter().find_map(|r| match r {
        OpResult::Debited(ok) => Some(*ok),
        _ => None,
    });
    let dequeued = results.iter().find_map(|r| match r {
        OpResult::Int(v) => Some(*v),
        _ => None,
    });
    Reply::Committed { ts, debited, dequeued }
}

fn views(watermark: u64, views: &[View]) -> Reply {
    let balances = views
        .iter()
        .map(|v| match v {
            View::Balance { num, den: 1 } => *num,
            _ => i64::MIN,
        })
        .collect();
    Reply::Views { watermark, balances }
}

fn reply_of(resp: Response) -> Reply {
    match resp {
        Response::Committed { ts, results } => committed(ts, &results),
        Response::Views { watermark, views: v } => views(watermark, &v),
        Response::Fault(WireFault::Overloaded { .. }) => Reply::Failed(Fail::Shed),
        Response::Fault(fault) => Reply::Failed(Fail::Fault(format!("{fault:?}"))),
        other => Reply::Failed(Fail::Fault(format!("unexpected response {other:?}"))),
    }
}

/// `hcc_server::execute`: one decoded request against the database, as a
/// server worker runs it.
pub fn execute(store: &Store, req: &WireReq) -> WireResp {
    WireResp(hcc_server::execute(&store.db, &req.0))
}

/// An in-process `hcc-server` in front of a [`Store`].
pub struct Server {
    handle: ServerHandle,
}

impl Server {
    /// `in_flight_cap` is the most a session may negotiate; `ship_wal`
    /// also binds the replication listener.
    pub fn start(
        store: &Store,
        workers: usize,
        in_flight_cap: u32,
        ship_wal: bool,
    ) -> Fallible<Server> {
        let opts = ServerOptions {
            workers,
            session_in_flight_cap: in_flight_cap,
            repl_listen: ship_wal.then(|| "127.0.0.1:0".to_string()),
            ..ServerOptions::default()
        };
        let handle = serve_with(store.db.clone(), "127.0.0.1:0", opts).map_err(text)?;
        Ok(Server { handle })
    }

    pub fn addr(&self) -> String {
        self.handle.local_addr().to_string()
    }

    pub fn repl_addr(&self) -> Option<String> {
        self.handle.repl_addr().map(|a| a.to_string())
    }

    /// Answer everything admitted, then stop.
    pub fn drain(self) {
        self.handle.drain();
    }

    /// Close every socket first, as a crash would.
    pub fn kill(self) {
        self.handle.kill();
    }
}

/// One `hcc-client` session.
pub struct Session {
    client: Client,
}

impl Session {
    pub fn connect(addr: &str, max_in_flight: u32) -> Fallible<Session> {
        let opts = ClientOptions { max_in_flight, ..ClientOptions::default() };
        Ok(Session { client: Client::connect_with(addr, opts).map_err(text)? })
    }

    pub fn granted_in_flight(&self) -> u32 {
        self.client.granted_in_flight()
    }

    /// `Client::transact` or `Client::read`, retry loop included.
    pub fn call(&mut self, req: &WireReq) -> Reply {
        match &req.0 {
            Request::Transact { ops } => match self.client.transact(ops.clone()) {
                Ok((ts, results)) => committed(ts, &results),
                Err(e) => Reply::Failed(fail_from(e)),
            },
            Request::Read { at, queries } => match self.client.read(*at, queries.clone()) {
                Ok((watermark, v)) => views(watermark, &v),
                Err(e) => Reply::Failed(fail_from(e)),
            },
            _ => Reply::Failed(Fail::Fault("not a transact or read request".into())),
        }
    }

    /// The server's stable watermark, through the inline `Stats` probe.
    pub fn watermark(&mut self) -> Fallible<u64> {
        self.client.stats().map(|s| s.watermark).map_err(text)
    }

    /// Route reads to the replica at `addr` first.
    pub fn attach_replica(&mut self, addr: &str) -> Fallible<()> {
        self.client.attach_read_replica(addr, ClientOptions::default()).map_err(text)
    }

    /// `false` once a failed replica read has detached it.
    pub fn has_replica(&self) -> bool {
        self.client.has_read_replica()
    }

    pub fn goodbye(self) {
        // The socket closes either way; a lost goodbye changes nothing.
        let _ = self.client.goodbye();
    }

    /// Give up the retry loop for the raw halves, to pipeline.
    pub fn into_pipe(self) -> Pipe {
        let (tx, rx) = self.client.into_halves();
        Pipe { tx, rx }
    }
}

/// Raw `SendHalf`/`RecvHalf` of a handshaken session: the caller matches
/// responses to requests by id, and nothing is retried.
pub struct Pipe {
    tx: SendHalf,
    rx: RecvHalf,
}

impl Pipe {
    pub fn send(&mut self, id: u64, req: &WireReq) -> Fallible<()> {
        self.tx.send(id, &req.0).map(drop).map_err(text)
    }

    pub fn recv(&mut self) -> Fallible<(u64, Reply)> {
        match self.rx.recv::<Response>() {
            Ok(Some((id, resp, _bytes))) => Ok((id, reply_of(resp))),
            Ok(None) => Err("server closed the connection".into()),
            Err(e) => Err(e.to_string()),
        }
    }

    pub fn close(self) {
        self.tx.shutdown_both();
    }
}

/// A bare `hcc_wire::conn` peer that answers request `id` with the
/// canned response `id % len`: the socket, the framing and both codecs,
/// with no server behind them.
pub struct Echo {
    addr: String,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Echo {
    pub fn start(canned: Vec<WireResp>) -> Fallible<Echo> {
        let listener = Listener::bind("127.0.0.1:0").map_err(text)?;
        let addr = listener.local_addr().map_err(text)?.to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let stopping = stop.clone();
        let thread = std::thread::spawn(move || {
            while let Ok((peer, _)) = listener.accept() {
                if stopping.load(Ordering::SeqCst) {
                    return;
                }
                let Ok((mut tx, mut rx)) = peer.split() else { continue };
                while let Ok(Some((id, _req, _bytes))) = rx.recv::<Request>() {
                    let resp = &canned[id as usize % canned.len()];
                    if tx.send(id, &resp.0).is_err() {
                        break;
                    }
                }
            }
        });
        Ok(Echo { addr, stop, thread: Some(thread) })
    }

    pub fn connect(&self) -> Fallible<Pipe> {
        let (tx, rx) = conn::connect(&self.addr).and_then(|c| c.split()).map_err(text)?;
        Ok(Pipe { tx, rx })
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocked accept with a throwaway connection.
        let _ = conn::connect(&self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

// ---------------------------------------------------------------------
// Replication.
// ---------------------------------------------------------------------

/// A follower of a primary's WAL stream; serves reads while it lags.
pub struct Replica {
    follower: Follower,
}

impl Replica {
    /// Every shipped object is an Account except the one named `queue`.
    pub fn start(dir: &Path, repl_addr: &str, queue: &str) -> Fallible<Replica> {
        let queue = queue.to_string();
        let resolver: ObjectResolver = Arc::new(move |db: &Db, name: &str| {
            if name == queue {
                let obj = db.object::<QueueObject<i64>>(name).map_err(|e| e.to_string())?;
                Ok(obj as Arc<dyn DurableObject>)
            } else {
                let obj = db.object::<AccountObject>(name).map_err(|e| e.to_string())?;
                Ok(obj as Arc<dyn DurableObject>)
            }
        });
        let opts =
            FollowerOptions { durability: Durability::Buffered, ..FollowerOptions::default() };
        let follower = Follower::start(dir, repl_addr, resolver, opts).map_err(text)?;
        Ok(Replica { follower })
    }

    /// The follower's database, to serve or read.
    pub fn store(&self) -> Store {
        Store { db: self.follower.db().clone() }
    }

    /// Has the follower applied everything `primary` has issued?
    pub fn converged_with(&self, primary: &Store) -> Fallible<bool> {
        if self.follower.poisoned() {
            return Err("follower poisoned".into());
        }
        let Some(store) = primary.db.storage() else { return Ok(true) };
        let target = store.last_issued_ticket();
        Ok(self.follower.durable_ticket() >= target
            && self.follower.lag() == 0
            && self.follower.watermark() >= primary.db.manager().stable_watermark())
    }

    /// Tickets the follower is behind the primary's last known position.
    pub fn lag(&self) -> u64 {
        self.follower.lag()
    }

    /// Stop following and reopen the replica log as a writable database.
    pub fn promote(self, durable: Durable) -> Fallible<Store> {
        let builder =
            Db::builder().durability(durability(durable)).compaction(CompactionPolicy::never());
        let db = self.follower.promote_with(builder).map_err(text)?;
        Ok(Store { db: Arc::new(db) })
    }
}

// ---------------------------------------------------------------------
// Probes below the manager: the WAL, the recorded redo sizes, derivation.
// ---------------------------------------------------------------------

/// `SegmentedWal` on its own, to time what a commit appends.
pub struct WalProbe {
    wal: SegmentedWal,
    next_txn: u64,
}

impl WalProbe {
    pub fn open(dir: &Path, durable: Durable) -> Fallible<WalProbe> {
        let opts = WalOptions { durability: durability(durable), ..WalOptions::default() };
        let wal = SegmentedWal::open(dir, opts).map_err(text)?;
        wal.append_register(1, "probe").map_err(text)?;
        Ok(WalProbe { wal, next_txn: 1 })
    }

    /// What one transaction logs: a begin record, one op record per
    /// payload, and the commit record at the configured durability.
    pub fn log_commit(&mut self, payloads: &[&[u8]]) -> Fallible<()> {
        let txn = self.next_txn;
        self.next_txn += 1;
        self.wal.append_begin(txn).map_err(text)?;
        for payload in payloads {
            let ticket = self.wal.reserve();
            self.wal.append_op(ticket, txn, 1, payload).map_err(text)?;
        }
        self.wal.commit_txn(txn, txn).map_err(text)
    }
}

/// The redo payload sizes of the first `limit` committed transactions in
/// the (closed) log at `dir`, one list per transaction.
pub fn recorded_op_sizes(dir: &Path, limit: usize) -> Fallible<Vec<Vec<usize>>> {
    let (records, _torn) = read_records(dir).map_err(text)?;
    let mut open: std::collections::HashMap<u64, Vec<usize>> = std::collections::HashMap::new();
    let mut done = Vec::new();
    for (_ticket, record) in records {
        match record {
            LogRecord::Op { txn, op, .. } => open.entry(txn).or_default().push(op.len()),
            LogRecord::Commit { txn, .. } => {
                if let Some(sizes) = open.remove(&txn) {
                    done.push(sizes);
                    if done.len() == limit {
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    Ok(done)
}

/// Derive the Account conflict relation from its serial specification,
/// uncached; returns the number of conflict atoms found.
pub fn derive_account_relation() -> usize {
    let spec: DeriveSpec = AdtConfig::account().into();
    conflict_atoms(&spec).len()
}
