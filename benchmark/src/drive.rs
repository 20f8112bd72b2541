//! Running a workload: build its rig (the timed set-up), drive it in a
//! closed loop for a warm-up and a measured phase, then take it apart
//! while checking every invariant the outputs must satisfy.
//!
//! Closed loop: each client sends its next request only when the
//! previous one (or, pipelined, one of the `depth` outstanding) has been
//! answered — callers that each wait for a reply.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::hist::{Hist, Windows};
use crate::sut::{
    Account, Counts, Fail, Fallible, Pipe, Queue, Replica, Reply, Server, Session, Store, WireReq,
};
use crate::workload::{self, Durable, Inputs, Kind, Names, Req, Workload, POOR};

/// Width of the windows the p99 is taken over.
const WINDOW_NS: u64 = 1_000_000_000;
/// Accounts credited per preload transaction.
const PRELOAD_BATCH: usize = 64;
/// Pause between two visibility probes on `replica_reads`.
const PROBE_EVERY: Duration = Duration::from_millis(20);
/// Pause between two polls of the replica's watermark inside one probe.
const PROBE_POLL: Duration = Duration::from_micros(100);
/// How long anything that must eventually happen (convergence, a commit
/// becoming visible) may take before it is a violation.
const PATIENCE: Duration = Duration::from_secs(20);

// ---------------------------------------------------------------------
// Scratch space: every database lives under benchmark/work/<pid>/.
// ---------------------------------------------------------------------

/// The run's scratch directory, inside the checkout; removed on drop.
pub struct WorkRoot {
    root: PathBuf,
    next: AtomicUsize,
}

impl WorkRoot {
    pub fn create(benchmark_dir: &Path) -> Fallible<WorkRoot> {
        let root = benchmark_dir.join("work").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        Ok(WorkRoot { root, next: AtomicUsize::new(0) })
    }

    /// A path no earlier call returned; nothing is created.
    pub fn fresh(&self, label: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("{label}-{n}"))
    }
}

impl Drop for WorkRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // `work/` itself goes when no other run is using it.
        if let Some(work) = self.root.parent() {
            let _ = std::fs::remove_dir(work);
        }
    }
}

// ---------------------------------------------------------------------
// Inputs in the form the clients consume.
// ---------------------------------------------------------------------

/// One client's stream, with the wire form of each request built ahead
/// of time (input generation, not set-up and not measured).
pub struct Stream {
    pub reqs: Vec<Req>,
    pub wire: Vec<Option<WireReq>>,
}

pub struct Load {
    pub names: Arc<Names>,
    pub streams: Vec<Stream>,
    pub digest: u64,
}

impl Load {
    /// Streams for the clients plus one for the `replica_reads` probe.
    pub fn generate(w: &Workload, seed: u64) -> Load {
        let names = Arc::new(Names::of(w));
        let Inputs { streams, digest } = workload::generate(w, seed, w.clients + 1);
        let streams = streams
            .into_iter()
            .map(|reqs| {
                let wire = match w.workers {
                    0 => Vec::new(),
                    _ => reqs.iter().map(|r| WireReq::of(r, &names)).collect(),
                };
                Stream { reqs, wire }
            })
            .collect();
        Load { names, streams, digest }
    }
}

// ---------------------------------------------------------------------
// The rig.
// ---------------------------------------------------------------------

struct ReplicaSide {
    replica: Replica,
    server: Server,
    /// The probe's sessions: to the primary, and to the replica.
    probe: Option<(Session, Session)>,
}

/// Everything a workload runs against, built by [`Rig::setup`].
pub struct Rig {
    w: &'static Workload,
    names: Arc<Names>,
    dir: PathBuf,
    store: Store,
    accounts: Vec<Account>,
    queue: Option<Queue>,
    server: Option<Server>,
    sessions: Vec<Session>,
    replica: Option<ReplicaSide>,
    /// The balance every acknowledged commit so far implies.
    expected: Vec<i64>,
}

fn opening_balance(w: &Workload, account: usize) -> i64 {
    if w.kind == Kind::HotAdts && account == POOR as usize {
        0
    } else {
        w.opening
    }
}

pub fn wait_until(what: &str, mut done: impl FnMut() -> Fallible<bool>) -> Fallible<()> {
    let deadline = Instant::now() + PATIENCE;
    while !done()? {
        if Instant::now() > deadline {
            return Err(format!("{what}: not within {PATIENCE:?}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

pub fn open_and_preload(
    w: &Workload,
    names: &Names,
    dir: &Path,
) -> Fallible<(Store, Vec<Account>, Option<Queue>)> {
    let store = Store::open_as(dir, w.durable)?;
    let accounts =
        names.accounts.iter().map(|n| store.account(n)).collect::<Fallible<Vec<Account>>>()?;
    for (batch_no, batch) in accounts.chunks(PRELOAD_BATCH).enumerate() {
        store
            .transact(|ops| {
                for (i, account) in batch.iter().enumerate() {
                    let opening = opening_balance(w, batch_no * PRELOAD_BATCH + i);
                    if opening != 0 {
                        ops.credit(account, opening)?;
                    }
                }
                Ok(())
            })
            .map_err(|e| format!("preload accounts: {e:?}"))?;
    }
    let queue = match w.queue_items {
        0 => None,
        items => {
            let queue = store.queue(&names.queue)?;
            store
                .transact(|ops| (0..items).try_for_each(|i| ops.enq(&queue, i as i64)))
                .map_err(|e| format!("preload queue: {e:?}"))?;
            Some(queue)
        }
    };
    Ok((store, accounts, queue))
}

impl Rig {
    /// Open the database, preload the objects, serve, connect; on
    /// `replica_reads` also start the follower, wait for it to converge
    /// once, serve it and attach it to every client. The caller times
    /// this: it is `setup_s`.
    pub fn setup(w: &'static Workload, names: &Arc<Names>, root: &WorkRoot) -> Fallible<Rig> {
        let dir = root.fresh(w.name);
        let (store, accounts, queue) = open_and_preload(w, names, &dir)?;
        let expected = (0..accounts.len()).map(|i| opening_balance(w, i)).collect();
        let mut rig = Rig {
            w,
            names: names.clone(),
            dir,
            store,
            accounts,
            queue,
            server: None,
            sessions: Vec::new(),
            replica: None,
            expected,
        };
        if w.workers == 0 {
            return Ok(rig);
        }
        let replicated = w.kind == Kind::ReplicaReads;
        let server = Server::start(&rig.store, w.workers, w.in_flight, replicated)?;
        let addr = server.addr();
        for _ in 0..w.clients {
            let session = Session::connect(&addr, w.in_flight)?;
            if session.granted_in_flight() < w.in_flight {
                return Err(format!(
                    "server granted {} in flight, {} asked for",
                    session.granted_in_flight(),
                    w.in_flight
                ));
            }
            rig.sessions.push(session);
        }
        if replicated {
            let repl_addr = server.repl_addr().ok_or("server has no replication listener")?;
            let replica = Replica::start(&root.fresh("replica"), &repl_addr, &names.queue)?;
            rig.store.sync()?;
            wait_until("first convergence", || replica.converged_with(&rig.store))?;
            let replica_server = Server::start(&replica.store(), w.workers, w.in_flight, false)?;
            let replica_addr = replica_server.addr();
            for session in &mut rig.sessions {
                session.attach_replica(&replica_addr)?;
            }
            let probe = (
                Session::connect(&addr, w.in_flight)?,
                Session::connect(&replica_addr, w.in_flight)?,
            );
            rig.replica = Some(ReplicaSide { replica, server: replica_server, probe: Some(probe) });
        }
        rig.server = Some(server);
        Ok(rig)
    }

    /// Clients whose read replica a failed read has detached.
    pub fn detached_replicas(&self) -> usize {
        match self.replica {
            Some(_) => self.sessions.iter().filter(|s| !s.has_replica()).count(),
            None => 0,
        }
    }

    fn hang_up(&mut self) {
        for session in self.sessions.drain(..) {
            session.goodbye();
        }
        if let Some((primary, replica)) = self.replica.as_mut().and_then(|r| r.probe.take()) {
            primary.goodbye();
            replica.goodbye();
        }
    }

    /// Take the rig apart without checking anything (the set-ups that
    /// are only timed).
    pub fn discard(mut self) {
        self.hang_up();
        if let Some(side) = self.replica.take() {
            side.server.drain();
        }
        if let Some(server) = self.server.take() {
            server.drain();
        }
    }
}

// ---------------------------------------------------------------------
// Driving.
// ---------------------------------------------------------------------

const WARM: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;

struct Clock {
    /// Stored with `Release` after `measure_from`, loaded with `Acquire`:
    /// a client that sees `MEASURE` sees when the phase began.
    phase: AtomicU8,
    epoch: Instant,
    /// When the measured phase began, in ns after `epoch`.
    measure_from: AtomicU64,
}

impl Clock {
    fn ns_into_measure(&self, at: Instant) -> u64 {
        let at_ns = at.duration_since(self.epoch).as_nanos() as u64;
        at_ns.saturating_sub(self.measure_from.load(Ordering::Relaxed))
    }
}

/// What one client saw; merged across clients after the phase.
pub struct Tally {
    /// Requests of the measured phase.
    pub attempted: u64,
    /// Of those: faults, exhausted retries and wrong results. Sheds are
    /// counted by the server (`Counts::sheds`), because `Client` hides
    /// the ones it retried.
    pub failed: u64,
    pub commits: u64,
    pub commit_lat: Windows,
    pub reads: u64,
    pub read_lat: Hist,
    pub debits: u64,
    pub overdrafts: u64,
    /// Ack on the primary to visible on the replica, ns.
    pub visible: Hist,
    /// Tickets the follower was behind, sampled by the probe.
    pub lag: Hist,
    /// The first few wrong results, as text.
    pub wrong: Vec<String>,
    /// Balance changes of every acknowledged commit, measured or not.
    delta: Vec<i64>,
}

impl Tally {
    fn new(accounts: usize) -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            commits: 0,
            commit_lat: Windows::new(WINDOW_NS),
            reads: 0,
            read_lat: Hist::default(),
            debits: 0,
            overdrafts: 0,
            visible: Hist::default(),
            lag: Hist::default(),
            wrong: Vec::new(),
            delta: vec![0; accounts],
        }
    }

    fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.commits += other.commits;
        self.commit_lat.merge(&other.commit_lat);
        self.reads += other.reads;
        self.read_lat.merge(&other.read_lat);
        self.debits += other.debits;
        self.overdrafts += other.overdrafts;
        self.visible.merge(&other.visible);
        self.lag.merge(&other.lag);
        let room = 8usize.saturating_sub(self.wrong.len());
        self.wrong.extend(other.wrong.iter().take(room).cloned());
        for (a, b) in self.delta.iter_mut().zip(&other.delta) {
            *a += *b;
        }
    }

    fn wrong(&mut self, measured: bool, what: String) {
        if measured {
            self.failed += 1;
        }
        if self.wrong.len() < 8 {
            self.wrong.push(what);
        }
    }

    fn moved(&mut self, from: u16, to: u16, amount: u16) {
        self.delta[from as usize] -= i64::from(amount);
        self.delta[to as usize] += i64::from(amount);
    }

    /// Account for one answered request. `debited` is what the program
    /// said about the request's debit, if it had one.
    fn settle(
        &mut self,
        w: &Workload,
        req: &Req,
        outcome: Result<Option<bool>, Fail>,
        measured: Option<(u64, u64)>,
    ) {
        if measured.is_some() {
            self.attempted += 1;
        }
        let debited = match outcome {
            Ok(debited) => debited,
            // Counted by the server; see `failed`.
            Err(Fail::Shed) => return,
            Err(fail) => return self.wrong(measured.is_some(), format!("{req:?}: {fail:?}")),
        };
        match *req {
            Req::Transfer { from, to, amount } => match debited {
                Some(true) => self.moved(from, to, amount),
                Some(false) if w.workers > 0 => {
                    // Over the wire the credit is unconditional, so an
                    // overdraft there has minted money.
                    self.delta[to as usize] += i64::from(amount);
                    self.wrong(measured.is_some(), format!("{req:?}: overdraft on a deep account"));
                }
                Some(false) => {}
                None => self.wrong(measured.is_some(), format!("{req:?}: no debit result")),
            },
            Req::Credit { to, amount } => self.delta[to as usize] += i64::from(amount),
            Req::Post { .. } | Req::EnqDeq { .. } | Req::ReadAll => {}
        }
        if let Some((at_ns, latency_ns)) = measured {
            self.commits += 1;
            self.commit_lat.record(at_ns, latency_ns);
            if let Some(ok) = debited {
                self.debits += 1;
                self.overdrafts += u64::from(!ok);
            }
        }
    }

    fn settle_reply(
        &mut self,
        w: &Workload,
        req: &Req,
        reply: Reply,
        measured: Option<(u64, u64)>,
    ) {
        match reply {
            Reply::Committed { debited, .. } => self.settle(w, req, Ok(debited), measured),
            Reply::Failed(fail) => self.settle(w, req, Err(fail), measured),
            Reply::Views { balances, .. } => {
                if measured.is_some() {
                    self.attempted += 1;
                }
                // Transfers conserve money, so every consistent snapshot
                // holds the opening total.
                let total: i64 = balances.iter().sum();
                if balances.len() != w.accounts || total != w.opening * w.accounts as i64 {
                    return self.wrong(
                        measured.is_some(),
                        format!("snapshot read {balances:?} does not hold the opening total"),
                    );
                }
                if let Some((_, latency_ns)) = measured {
                    self.reads += 1;
                    self.read_lat.record(latency_ns);
                }
            }
        }
    }
}

/// One measured phase.
pub struct Measured {
    pub tally: Tally,
    pub phase_ns: u64,
    /// The program's own counters over the measured phase.
    pub counts: Counts,
}

impl Measured {
    pub fn seconds(&self) -> f64 {
        self.phase_ns as f64 / 1e9
    }

    /// Everything that counts as a failed request.
    pub fn failed(&self) -> u64 {
        self.tally.failed + self.counts.sheds
    }
}

pub fn hot_request(
    store: &Store,
    accounts: &[Account],
    queue: Option<&Queue>,
    req: &Req,
) -> Result<Option<bool>, Fail> {
    match *req {
        Req::Credit { to, amount } => store
            .transact(|ops| ops.credit(&accounts[to as usize], i64::from(amount)))
            .map(|_| None),
        Req::Transfer { from, to, amount } => store
            .transact(|ops| {
                let debited = ops.debit(&accounts[from as usize], i64::from(amount))?;
                if debited {
                    ops.credit(&accounts[to as usize], i64::from(amount))?;
                }
                Ok(debited)
            })
            .map(|(debited, _)| Some(debited)),
        Req::Post { on } => {
            store.transact(|ops| ops.post_zero(&accounts[on as usize])).map(|_| None)
        }
        Req::EnqDeq { item } => {
            let queue = queue.ok_or_else(|| Fail::Fault("workload has no queue".into()))?;
            store
                .transact(|ops| {
                    ops.enq(queue, i64::from(item))?;
                    ops.deq(queue)
                })
                .map(|_| None)
        }
        Req::ReadAll => Err(Fail::Fault("hot_adts does not read".into())),
    }
}

fn drive_in_process(
    w: &Workload,
    clock: &Clock,
    store: &Store,
    accounts: &[Account],
    queue: Option<&Queue>,
    stream: &Stream,
    tally: &mut Tally,
) {
    for req in stream.reqs.iter().cycle() {
        let phase = clock.phase.load(Ordering::Acquire);
        if phase == STOP {
            return;
        }
        let sent = Instant::now();
        let outcome = hot_request(store, accounts, queue, req);
        let done = Instant::now();
        let measured = (phase == MEASURE)
            .then(|| (clock.ns_into_measure(done), (done - sent).as_nanos() as u64));
        tally.settle(w, req, outcome, measured);
    }
}

fn wire_form(stream: &Stream, i: usize) -> &WireReq {
    stream.wire[i].as_ref().expect("every request of a socket workload crosses the wire")
}

fn drive_session(
    w: &Workload,
    clock: &Clock,
    session: &mut Session,
    stream: &Stream,
    tally: &mut Tally,
) {
    for i in (0..stream.reqs.len()).cycle() {
        let phase = clock.phase.load(Ordering::Acquire);
        if phase == STOP {
            return;
        }
        let sent = Instant::now();
        let reply = session.call(wire_form(stream, i));
        let done = Instant::now();
        let measured = (phase == MEASURE)
            .then(|| (clock.ns_into_measure(done), (done - sent).as_nanos() as u64));
        tally.settle_reply(w, &stream.reqs[i], reply, measured);
    }
}

/// Keep `w.depth` requests outstanding on one raw connection; nothing is
/// retried, so a shed shows as a shed.
fn drive_pipe(
    w: &Workload,
    clock: &Clock,
    pipe: &mut Pipe,
    stream: &Stream,
    tally: &mut Tally,
) -> Fallible<()> {
    // Slot `s` sends the ids `s`, `s + depth`, `s + 2·depth`, …: answers
    // may overtake each other, and `id % depth` still names the slot.
    let mut slots: Vec<(Instant, usize, u8)> = Vec::with_capacity(w.depth);
    let mut next = 0usize;
    let mut send = |pipe: &mut Pipe, id: u64, slot: &mut (Instant, usize, u8), phase: u8| {
        let i = next % stream.reqs.len();
        next += 1;
        *slot = (Instant::now(), i, phase);
        pipe.send(id, wire_form(stream, i))
    };
    for id in 0..w.depth {
        slots.push((Instant::now(), 0, WARM));
        send(pipe, id as u64, &mut slots[id], clock.phase.load(Ordering::Acquire))?;
    }
    let mut outstanding = w.depth;
    while outstanding > 0 {
        let (id, reply) = pipe.recv()?;
        let done = Instant::now();
        let slot = &mut slots[id as usize % w.depth];
        let (sent, i, phase_at_send) = *slot;
        let measured = (phase_at_send == MEASURE)
            .then(|| (clock.ns_into_measure(done), (done - sent).as_nanos() as u64));
        tally.settle_reply(w, &stream.reqs[i], reply, measured);
        match clock.phase.load(Ordering::Acquire) {
            // Stop sending; keep receiving until every answer is in, so
            // the expected balances stay exact.
            STOP => outstanding -= 1,
            phase => send(pipe, id + w.depth as u64, slot, phase)?,
        }
    }
    Ok(())
}

/// The `replica_reads` probe: commit a transfer on the primary, then
/// poll the replica's inline `Stats` until its watermark covers the
/// commit. Also samples how far the follower is behind.
fn drive_probe(
    w: &Workload,
    clock: &Clock,
    replica: &Replica,
    sessions: &mut (Session, Session),
    stream: &Stream,
    tally: &mut Tally,
) {
    let (primary, replica_session) = sessions;
    let transfers = (0..stream.reqs.len()).filter(|i| stream.reqs[*i].commits());
    for i in transfers.cycle() {
        std::thread::sleep(PROBE_EVERY);
        let phase = clock.phase.load(Ordering::Acquire);
        if phase == STOP {
            return;
        }
        let measured = phase == MEASURE;
        if measured {
            tally.lag.record(replica.lag());
        }
        let reply = primary.call(wire_form(stream, i));
        let acked = Instant::now();
        let ts = match &reply {
            Reply::Committed { ts, .. } => Some(*ts),
            _ => None,
        };
        // The probe's transfers move money like any other, but they are
        // not the load generators': no latency, no commit counted.
        tally.settle_reply(w, &stream.reqs[i], reply, None);
        tally.attempted += u64::from(measured);
        let Some(ts) = ts else { continue };
        loop {
            match replica_session.watermark() {
                Ok(watermark) if watermark >= ts => {
                    if measured {
                        tally.visible.record(acked.elapsed().as_nanos() as u64);
                    }
                    break;
                }
                Ok(_) if acked.elapsed() < PATIENCE => std::thread::sleep(PROBE_POLL),
                Ok(_) => {
                    tally.wrong(measured, format!("commit {ts} never became visible"));
                    break;
                }
                Err(e) => {
                    tally.wrong(measured, format!("replica stats probe: {e}"));
                    break;
                }
            }
        }
    }
}

impl Rig {
    /// Drive `threads` clients for `warm` (unrecorded) then `measure`.
    pub fn drive(
        &mut self,
        load: &Load,
        threads: usize,
        warm: Duration,
        measure: Duration,
    ) -> Fallible<Measured> {
        let w = self.w;
        let clock = Clock {
            phase: AtomicU8::new(WARM),
            epoch: Instant::now(),
            measure_from: AtomicU64::new(0),
        };
        let accounts = self.accounts.len();
        let mut tallies: Vec<Tally> = (0..threads + 1).map(|_| Tally::new(accounts)).collect();
        let (probe_tally, client_tallies) = tallies.split_last_mut().expect("threads + 1 tallies");
        let mut pipes: Vec<Pipe> = match w.depth {
            1 => Vec::new(),
            _ => self.sessions.drain(..).map(Session::into_pipe).collect(),
        };
        let mut piped: Vec<Fallible<()>> = Vec::new();
        let (store, accts, queue) = (&self.store, &self.accounts, self.queue.as_ref());
        let mut sessions = self.sessions.iter_mut();
        let mut pipes_iter = pipes.iter_mut();
        let replica_side = self.replica.as_mut();

        let (phase_ns, counts) = std::thread::scope(|scope| {
            let clock = &clock;
            let mut pipe_threads = Vec::new();
            for (stream, tally) in load.streams.iter().zip(client_tallies.iter_mut()) {
                if w.workers == 0 {
                    scope.spawn(move || {
                        drive_in_process(w, clock, store, accts, queue, stream, tally)
                    });
                } else if w.depth == 1 {
                    let session = sessions.next().expect("one session per client");
                    scope.spawn(move || drive_session(w, clock, session, stream, tally));
                } else {
                    let pipe = pipes_iter.next().expect("one connection per client");
                    pipe_threads
                        .push(scope.spawn(move || drive_pipe(w, clock, pipe, stream, tally)));
                }
            }
            if let Some(side) = replica_side {
                let probe = side.probe.as_mut().expect("probe sessions");
                let replica = &side.replica;
                let stream = &load.streams[w.clients];
                scope.spawn(move || drive_probe(w, clock, replica, probe, stream, probe_tally));
            }

            std::thread::sleep(warm);
            let before = store.counts();
            let started = Instant::now();
            clock
                .measure_from
                .store(started.duration_since(clock.epoch).as_nanos() as u64, Ordering::Relaxed);
            clock.phase.store(MEASURE, Ordering::Release);
            std::thread::sleep(measure);
            clock.phase.store(STOP, Ordering::Release);
            let phase_ns = started.elapsed().as_nanos() as u64;
            let counts = store.counts().since(&before);
            piped.extend(pipe_threads.into_iter().map(|t| t.join().expect("pipe thread")));
            (phase_ns, counts)
        });
        // A raw connection's ids are spent; it is not reused.
        for pipe in pipes.drain(..) {
            pipe.close();
        }
        piped.into_iter().collect::<Fallible<Vec<()>>>()?;

        let mut tally = Tally::new(accounts);
        for t in &tallies {
            tally.merge(t);
        }
        for (expected, delta) in self.expected.iter_mut().zip(&tally.delta) {
            *expected += *delta;
        }
        Ok(Measured { tally, phase_ns, counts })
    }
}

// ---------------------------------------------------------------------
// Taking the rig apart, checking as it goes.
// ---------------------------------------------------------------------

/// What [`Rig::finish`] found.
#[derive(Default)]
pub struct Verdict {
    /// Broken invariants; empty when the outputs are correct.
    pub violations: Vec<String>,
    /// `Follower::promote` plus materialising every object, ms.
    pub promote_ms: Option<f64>,
}

fn balances(accounts: &[Account]) -> Vec<i64> {
    accounts.iter().map(Store::committed_balance).collect()
}

fn first_difference(got: &[i64], want: &[i64]) -> Option<String> {
    got.iter()
        .zip(want)
        .position(|(g, w)| g != w)
        .map(|i| format!("account {i}: {} where {} was expected", got[i], want[i]))
}

/// Open every object of `names` on `store` — recovering whatever its log
/// holds under them — and return the account balances.
pub fn materialise(store: &Store, names: &Names, with_queue: bool) -> Fallible<Vec<i64>> {
    if with_queue {
        store.queue(&names.queue)?;
    }
    names.accounts.iter().map(|n| store.account(n).map(|a| Store::committed_balance(&a))).collect()
}

impl Rig {
    /// Check the state every acknowledged commit implies, stop serving,
    /// and — durable workloads — reopen the log and check that recovery
    /// rebuilds that same state. `replica_reads` converges the follower,
    /// compares it with the primary, kills the primary and promotes.
    pub fn finish(mut self) -> Verdict {
        let mut verdict = Verdict::default();
        if let Err(e) = self.finish_into(&mut verdict) {
            verdict.violations.push(e);
        }
        verdict
    }

    fn finish_into(&mut self, verdict: &mut Verdict) -> Fallible<()> {
        let w = self.w;
        self.hang_up();
        let live = balances(&self.accounts);
        if let Some(diff) = first_difference(&live, &self.expected) {
            verdict.violations.push(format!("acknowledged commits imply another state: {diff}"));
        }
        // Money is conserved: transfers move it, only `hot_adts` credits
        // mint it, and those are in `expected` already.
        if w.kind != Kind::HotAdts {
            let total: i64 = live.iter().sum();
            let opening = w.opening * w.accounts as i64;
            if total != opening {
                verdict.violations.push(format!("money not conserved: {total} of {opening}"));
            }
        }
        if let Some(queue) = &self.queue {
            let len = Store::committed_len(queue);
            if len != w.queue_items {
                verdict.violations.push(format!("queue holds {len} items, not {}", w.queue_items));
            }
        }

        if let Some(side) = self.replica.take() {
            self.store.sync()?;
            wait_until("final convergence", || side.replica.converged_with(&self.store))?;
            let copy = materialise(&side.replica.store(), &self.names, false)?;
            if let Some(diff) = first_difference(&copy, &live) {
                verdict.violations.push(format!("converged replica differs from primary: {diff}"));
            }
            side.server.drain();
            // The primary dies with its sockets, as in a crash.
            if let Some(server) = self.server.take() {
                server.kill();
            }
            let started = Instant::now();
            let promoted = side.replica.promote(w.durable)?;
            let recovered = materialise(&promoted, &self.names, false)?;
            verdict.promote_ms = Some(started.elapsed().as_secs_f64() * 1e3);
            if let Some(diff) = first_difference(&recovered, &self.expected) {
                verdict.violations.push(format!("promoted replica lost an acked commit: {diff}"));
            }
            let first = promoted.account(&self.names.accounts[0])?;
            promoted
                .transact(|ops| ops.credit(&first, 1))
                .map_err(|e| format!("promoted replica refuses writes: {e:?}"))?;
        }
        if let Some(server) = self.server.take() {
            server.drain();
        }

        if w.durable != Durable::Memory {
            // Close the database: every handle on it goes.
            self.accounts.clear();
            self.queue = None;
            let closed = std::mem::replace(&mut self.store, Store::memory());
            drop(closed);
            let reopened = Store::open(&self.dir, w.durable)?;
            let recovered = materialise(&reopened, &self.names, self.w.queue_items > 0)?;
            if let Some(diff) = first_difference(&recovered, &live) {
                verdict.violations.push(format!("recovered state differs from pre-close: {diff}"));
            }
        }
        Ok(())
    }
}
