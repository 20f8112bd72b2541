//! # hcc-server — the TCP front door
//!
//! Serves a [`Db`] over the `hcc-wire` protocol: an accept loop hands
//! each connection to a session reader thread, and readers admit
//! requests. A request that cannot block runs on its reader; the rest go
//! into one global [bounded queue](queue::BoundedQueue), and a fixed
//! worker pool executes them against the facade and answers on the
//! session's socket (responses echo the request id, so sessions may
//! pipeline).
//!
//! ## Where a request runs
//!
//! The reader runs an admitted request itself when it is its session's
//! only one — nothing else of the session is in flight, and no further
//! frame is buffered behind it — and it can finish without waiting on a
//! lock: `Open` and `Read` take none, and a `Transact` gets one no-wait
//! attempt ([`Db::try_transact_ts`]). An attempt that would have waited
//! is aborted and its request queued as if it had never been tried
//! (`net.requests.fallback`); every other request is queued at once. So
//! the reader never stalls behind a held lock, a pipelined session
//! keeps its parallelism on the pool, and an answer costs no thread
//! hand-off in the common case (`net.requests.inline`).
//!
//! ## Admission control
//!
//! Two caps, both refusing with a typed `Overloaded` fault instead of
//! queueing unboundedly:
//!
//! * **per-session in-flight cap** (negotiated at handshake): requests
//!   admitted but not yet answered. A client flooding past its cap is
//!   shed at the reader, before the queue.
//! * **global queue cap**: queued-but-unclaimed jobs across all
//!   sessions. A full queue sheds at the door, keeping memory bounded no
//!   matter how many sessions conspire.
//!
//! Every decision is observable: `net.requests.shed`,
//! `net.requests.inline`, `net.requests.fallback`, the
//! `net.queue.depth` gauge, and per-kind request counters land in the
//! same metrics registry the rest of the stack dumps via `HCC_METRICS`.
//!
//! ## Drain
//!
//! [`ServerHandle::drain`] stops accepting, refuses new work with
//! `ShuttingDown`, executes every already-admitted job, answers it, and
//! only then tears down sessions — so a client that got an ack got a
//! real commit, and the queue-depth gauge reads zero in the final
//! metrics dump.

#![warn(missing_docs)]

mod exec;
mod queue;

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hcc_db::Db;
use hcc_wire::conn::{self, Listener, SendHalf, WireError};
use hcc_wire::msg::{Request, Response, WireFault, PROTOCOL_VERSION};
use parking_lot::{Condvar, Mutex};
use queue::BoundedQueue;

/// How long a fresh connection may sit silent before its handshake is
/// abandoned.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Tunables for [`serve_with`]. `Default` is sized for tests and small
/// deployments; production would raise the caps, not remove them.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Worker threads executing requests against the `Db`.
    pub workers: usize,
    /// Ceiling on the per-session in-flight cap a handshake may
    /// negotiate.
    pub session_in_flight_cap: u32,
    /// When set, handshakes must present exactly this token.
    pub token: Option<String>,
    /// When set, also bind a replication listener on this address and
    /// ship the live WAL to followers
    /// (`hcc_repl::Primary::start(addr, db, token)`). Requires a durable
    /// `Db`; followers authenticate with the same `token`. Nothing else
    /// about the stream is settable.
    pub repl_listen: Option<String>,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions { workers: 4, session_in_flight_cap: 16, token: None, repl_listen: None }
    }
}

struct NetMetrics {
    sessions_opened: Arc<hcc_obs::Counter>,
    sessions_closed: Arc<hcc_obs::Counter>,
    sessions_refused: Arc<hcc_obs::Counter>,
    req_open: Arc<hcc_obs::Counter>,
    req_transact: Arc<hcc_obs::Counter>,
    req_read: Arc<hcc_obs::Counter>,
    req_stats: Arc<hcc_obs::Counter>,
    bytes_in: Arc<hcc_obs::Counter>,
    bytes_out: Arc<hcc_obs::Counter>,
    shed: Arc<hcc_obs::Counter>,
    inline: Arc<hcc_obs::Counter>,
    fallback: Arc<hcc_obs::Counter>,
    frames_refused: Arc<hcc_obs::Counter>,
    request_nanos: Arc<hcc_obs::Histogram>,
}

impl NetMetrics {
    fn new(registry: &hcc_obs::Registry) -> NetMetrics {
        NetMetrics {
            sessions_opened: registry.counter("net.sessions.opened"),
            sessions_closed: registry.counter("net.sessions.closed"),
            sessions_refused: registry.counter("net.sessions.refused"),
            req_open: registry.counter("net.requests.open"),
            req_transact: registry.counter("net.requests.transact"),
            req_read: registry.counter("net.requests.read"),
            req_stats: registry.counter("net.requests.stats"),
            bytes_in: registry.counter("net.bytes.in"),
            bytes_out: registry.counter("net.bytes.out"),
            shed: registry.counter("net.requests.shed"),
            inline: registry.counter("net.requests.inline"),
            fallback: registry.counter("net.requests.fallback"),
            frames_refused: registry.counter("net.frames.refused"),
            request_nanos: registry.histogram("net.request.nanos"),
        }
    }
}

/// One admitted unit of work: a request plus the session to answer on.
struct Job {
    session: Arc<Session>,
    seq: u64,
    req: Request,
}

struct Session {
    id: u64,
    /// Workers and the reader both answer on this half; the lock keeps
    /// concurrent responses from interleaving bytes.
    tx: Mutex<SendHalf>,
    /// Admitted-but-unanswered requests, counted against `cap`.
    in_flight: AtomicU32,
    cap: u32,
}

impl Session {
    fn respond(&self, shared: &Shared, seq: u64, resp: &Response) {
        if let Ok(n) = self.tx.lock().send(seq, resp) {
            shared.metrics.bytes_out.add(n);
        }
        // A dead socket still completes the request: the decrement (and
        // the outstanding count the drain waits on) must not depend on
        // the client surviving to read the answer.
    }

    /// Answer a request that was admitted (counted in `in_flight` and
    /// `outstanding`). The session's slot is released *before* the
    /// answer is written: a pipelining client sends its next request
    /// the instant it reads this one, and must find the slot free, or a
    /// session holding exactly its negotiated cap is shed without ever
    /// exceeding it. The server-wide count falls only *after* the
    /// write, because the drain tears sessions down once it reads zero.
    /// Only a drain waits for zero, so the wake is paid only once
    /// `draining` is set. Both sides are SeqCst: the drain stores
    /// `draining` and then loads `outstanding`, this decrements
    /// `outstanding` and then loads `draining`, so at least one of them
    /// sees the other's write — the drain reads zero, or this wakes it.
    fn answer_admitted(&self, shared: &Shared, seq: u64, resp: &Response) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        self.respond(shared, seq, resp);
        if shared.outstanding.fetch_sub(1, Ordering::SeqCst) == 1
            && shared.draining.load(Ordering::SeqCst)
        {
            let _lock = shared.idle.0.lock();
            shared.idle.1.notify_all();
        }
    }
}

struct Shared {
    db: Arc<Db>,
    opts: ServerOptions,
    metrics: NetMetrics,
    queue: BoundedQueue<Job>,
    draining: AtomicBool,
    /// Admitted-but-unanswered requests server-wide (queued + executing).
    outstanding: AtomicU64,
    idle: (Mutex<()>, Condvar),
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    next_session: AtomicU64,
    /// Set when a session delivers an authorized `Shutdown` request.
    shutdown_requested: (Mutex<bool>, Condvar),
}

/// A running server. Dropping the handle does **not** stop it; call
/// [`ServerHandle::drain`] (graceful) or [`ServerHandle::kill`]
/// (abrupt, for tests that model a crash without a process).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    repl: Option<hcc_repl::Primary>,
}

/// Serve `db` on `addr` with default [`ServerOptions`]. Bind to port 0
/// to let the OS choose; the real address is
/// [`ServerHandle::local_addr`].
pub fn serve(db: Arc<Db>, addr: &str) -> std::io::Result<ServerHandle> {
    serve_with(db, addr, ServerOptions::default())
}

/// Serve `db` on `addr` with explicit options.
pub fn serve_with(db: Arc<Db>, addr: &str, opts: ServerOptions) -> std::io::Result<ServerHandle> {
    let listener = Listener::bind(addr)?;
    let local = listener.local_addr()?;

    // The replication listener rides along with the front door: the
    // shipper tails the same WAL the executors append to, and followers
    // present the same auth token clients do.
    let repl = match &opts.repl_listen {
        Some(addr) => Some(hcc_repl::Primary::start(addr, db.clone(), opts.token.clone())?),
        None => None,
    };

    let metrics = NetMetrics::new(db.metrics());
    let queue = BoundedQueue::new(db.metrics().gauge("net.queue.depth"));
    let shared = Arc::new(Shared {
        db,
        opts,
        metrics,
        queue,
        draining: AtomicBool::new(false),
        outstanding: AtomicU64::new(0),
        idle: (Mutex::new(()), Condvar::new()),
        sessions: Mutex::new(HashMap::new()),
        next_session: AtomicU64::new(1),
        shutdown_requested: (Mutex::new(false), Condvar::new()),
    });

    let workers = (0..shared.opts.workers.max(1))
        .map(|_| {
            let shared = shared.clone();
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();

    let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let accept = {
        let shared = shared.clone();
        let readers = readers.clone();
        std::thread::spawn(move || accept_loop(&listener, &shared, &readers))
    };

    Ok(ServerHandle { addr: local, shared, accept: Some(accept), workers, readers, repl })
}

impl ServerHandle {
    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The replication listener's bound address, when
    /// [`ServerOptions::repl_listen`] was set — followers connect here.
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        self.repl.as_ref().map(|p| p.local_addr())
    }

    /// Block until some authenticated session asks the server to shut
    /// down via `Request::Shutdown` (the example binary's exit signal).
    pub fn wait_for_shutdown_request(&self) {
        let (lock, cv) = &self.shared.shutdown_requested;
        let mut requested = lock.lock();
        while !*requested {
            cv.wait(&mut requested);
        }
    }

    fn stop_accepting(&mut self) {
        // Stop shipping to followers first: a drain or kill models the
        // primary going away, and followers must reconnect elsewhere
        // (or be promoted), not read a half-drained stream.
        if let Some(mut primary) = self.repl.take() {
            primary.stop();
        }
        self.shared.draining.store(true, Ordering::SeqCst);
        // Wake the blocked accept with a throwaway connection.
        let _ = conn::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            accept.join().ok();
        }
    }

    fn teardown_sessions(&self) {
        let sessions: Vec<Arc<Session>> = self.shared.sessions.lock().values().cloned().collect();
        for s in sessions {
            s.tx.lock().shutdown_both();
        }
        let readers = std::mem::take(&mut *self.readers.lock());
        for r in readers {
            r.join().ok();
        }
    }

    /// Graceful shutdown: stop accepting, refuse new requests with
    /// `ShuttingDown`, execute and answer every admitted job, then close
    /// sessions. The queue-depth gauge is zero when this returns.
    pub fn drain(mut self) {
        self.stop_accepting();
        // Admitted jobs keep their promise: wait until none are
        // outstanding (readers now refuse admissions, so this count
        // only falls).
        {
            let (lock, cv) = &self.shared.idle;
            let mut guard = lock.lock();
            while self.shared.outstanding.load(Ordering::SeqCst) > 0 {
                cv.wait_for(&mut guard, Duration::from_millis(50));
            }
        }
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            w.join().ok();
        }
        self.teardown_sessions();
    }

    /// Abrupt stop for tests: close every socket first (answers to
    /// queued work are lost, as in a crash), then reap the threads.
    /// Models a crash without killing the process; the process-level
    /// SIGABRT path is exercised by `examples/server_client.rs`.
    pub fn kill(mut self) {
        self.stop_accepting();
        self.teardown_sessions();
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            w.join().ok();
        }
    }
}

fn accept_loop(
    listener: &Listener,
    shared: &Arc<Shared>,
    readers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.draining.load(Ordering::SeqCst) {
        let Ok((conn, _peer)) = listener.accept() else { break };
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let shared = shared.clone();
        let handle = std::thread::spawn(move || session_loop(conn, &shared));
        let mut readers = readers.lock();
        // Reap the readers whose sessions have ended, so a long-lived
        // server with short connections keeps one handle per live
        // session, not one per connection it ever accepted.
        let (done, live) = std::mem::take(&mut *readers).into_iter().partition(|r| r.is_finished());
        *readers = live;
        readers.push(handle);
        drop(readers);
        for r in done {
            r.join().ok();
        }
    }
}

/// Validate the handshake on a fresh connection; `Some` hands back the
/// session and its receive half, `None` means the connection was
/// refused (counted) and closed.
fn handshake(
    conn: hcc_wire::conn::Conn,
    shared: &Arc<Shared>,
) -> Option<(Arc<Session>, hcc_wire::conn::RecvHalf)> {
    let (mut tx, mut rx) = conn.split().ok()?;
    rx.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).ok()?;
    let hello = match rx.recv::<Request>() {
        Ok(Some((_seq, req, n))) => {
            shared.metrics.bytes_in.add(n);
            req
        }
        _ => {
            shared.metrics.sessions_refused.inc();
            return None;
        }
    };
    let refusal = match &hello {
        Request::Hello { version, .. } if *version != PROTOCOL_VERSION => {
            Some(WireFault::VersionMismatch { server: PROTOCOL_VERSION, client: *version })
        }
        Request::Hello { token, .. } => match &shared.opts.token {
            Some(expected) if token != expected => Some(WireFault::BadToken),
            _ => None,
        },
        // Anything else before a handshake is a protocol violation.
        _ => Some(WireFault::Fatal { detail: "first request must be the handshake".into() }),
    };
    if let Some(fault) = refusal {
        shared.metrics.sessions_refused.inc();
        if let Ok(n) = tx.send(0, &Response::Fault(fault)) {
            shared.metrics.bytes_out.add(n);
        }
        return None;
    }
    let Request::Hello { max_in_flight, .. } = hello else { unreachable!() };
    let cap = max_in_flight.clamp(1, shared.opts.session_in_flight_cap);
    let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
    let welcome = Response::Welcome { version: PROTOCOL_VERSION, session: id, max_in_flight: cap };
    match tx.send(0, &welcome) {
        Ok(n) => shared.metrics.bytes_out.add(n),
        Err(_) => return None,
    }
    rx.set_read_timeout(None).ok();
    let session = Arc::new(Session { id, tx: Mutex::new(tx), in_flight: AtomicU32::new(0), cap });
    shared.sessions.lock().insert(id, session.clone());
    shared.metrics.sessions_opened.inc();
    Some((session, rx))
}

fn session_loop(conn: hcc_wire::conn::Conn, shared: &Arc<Shared>) {
    let Some((session, mut rx)) = handshake(conn, shared) else { return };
    loop {
        match rx.recv::<Request>() {
            Ok(Some((seq, req, n))) => {
                shared.metrics.bytes_in.add(n);
                if !admit(&session, shared, seq, req, rx.has_buffered()) {
                    break;
                }
            }
            // Clean close on a frame boundary.
            Ok(None) => break,
            // A torn or corrupt frame never corrupts the session's
            // state: whatever half-arrived is refused wholesale and the
            // connection dies here. Admitted requests still complete
            // (their effects are real commits); only their answers are
            // lost with the socket.
            Err(WireError::Frame(_)) => {
                shared.metrics.frames_refused.inc();
                break;
            }
            Err(WireError::Io(_)) => break,
        }
    }
    shared.sessions.lock().remove(&session.id);
    session.tx.lock().shutdown_both();
    shared.metrics.sessions_closed.inc();
}

/// Route one decoded request: answer session control here, shed past
/// the caps, run a lone request that cannot block here, enqueue the
/// rest. `more_behind`: another frame of the session is already
/// buffered. `false` ends the session.
fn admit(
    session: &Arc<Session>,
    shared: &Arc<Shared>,
    seq: u64,
    req: Request,
    more_behind: bool,
) -> bool {
    match &req {
        Request::Goodbye => {
            session.respond(shared, seq, &Response::Bye);
            return false;
        }
        Request::Shutdown => {
            // The handshake already authenticated this session's token;
            // any authenticated session may request the drain.
            let (lock, cv) = &shared.shutdown_requested;
            *lock.lock() = true;
            cv.notify_all();
            session.respond(shared, seq, &Response::Bye);
            return true;
        }
        Request::Hello { .. } => {
            session.respond(
                shared,
                seq,
                &Response::Fault(WireFault::Fatal { detail: "handshake already completed".into() }),
            );
            return false;
        }
        Request::Stats => {
            // Answered inline so a stats probe (watermark poll, health
            // check) is never queued behind a slow transact — and keeps
            // answering while draining, since it admits no new work.
            shared.metrics.req_stats.inc();
            session.respond(
                shared,
                seq,
                &Response::Stats {
                    watermark: shared.db.stable_watermark(),
                    committed: shared.db.committed_count(),
                    aborted: shared.db.aborted_count(),
                },
            );
            return true;
        }
        Request::Open { .. } => shared.metrics.req_open.inc(),
        Request::Transact { .. } => shared.metrics.req_transact.inc(),
        Request::Read { .. } => shared.metrics.req_read.inc(),
    }
    if shared.draining.load(Ordering::SeqCst) {
        session.respond(shared, seq, &Response::Fault(WireFault::ShuttingDown));
        return true;
    }
    // Per-session cap: admitted-but-unanswered requests on this session.
    let in_flight = session.in_flight.load(Ordering::Acquire);
    if in_flight >= session.cap {
        shared.metrics.shed.inc();
        session.respond(
            shared,
            seq,
            &Response::Fault(WireFault::Overloaded { in_flight, cap: session.cap }),
        );
        return true;
    }
    session.in_flight.fetch_add(1, Ordering::AcqRel);
    shared.outstanding.fetch_add(1, Ordering::AcqRel);
    // The session's only request runs here if it cannot block (see
    // "Where a request runs"); counted as admitted above, it is drained
    // like a queued one.
    if in_flight == 0 && !more_behind {
        let start = std::time::Instant::now();
        if let Some(resp) = exec::execute_no_wait(&shared.db, &req) {
            shared.metrics.request_nanos.observe(start.elapsed().as_nanos() as u64);
            shared.metrics.inline.inc();
            session.answer_admitted(shared, seq, &resp);
            return true;
        }
        shared.metrics.fallback.inc();
    }
    match shared.queue.try_push(Job { session: session.clone(), seq, req }) {
        Ok(()) => true,
        Err((job, depth)) => {
            // Global queue full (or closing): shed at the door.
            shared.metrics.shed.inc();
            let fault = if shared.draining.load(Ordering::SeqCst) {
                WireFault::ShuttingDown
            } else {
                WireFault::Overloaded { in_flight: depth as u32, cap: queue::CAP as u32 }
            };
            job.session.answer_admitted(shared, seq, &Response::Fault(fault));
            true
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        let start = std::time::Instant::now();
        let resp = exec::execute(&shared.db, &job.req);
        shared.metrics.request_nanos.observe(start.elapsed().as_nanos() as u64);
        job.session.answer_admitted(shared, job.seq, &resp);
    }
}

pub use exec::execute;

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// Each accept reaps the readers of sessions that have ended: after
    /// many short connections the server holds a handle per live
    /// session, not one per connection it ever accepted.
    #[test]
    fn finished_session_readers_are_reaped() {
        const CYCLES: u64 = 200;
        let db = Arc::new(Db::in_memory());
        let server = serve(db.clone(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let cycle = || hcc_client::Client::connect(&addr).unwrap().goodbye().unwrap();
        for _ in 0..CYCLES {
            cycle();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while db.stats().counter("net.sessions.closed") < CYCLES {
            assert!(Instant::now() < deadline, "sessions did not close");
            std::thread::sleep(Duration::from_millis(2));
        }
        // A reader is finished a moment after its session counts as
        // closed; the next accept reaps it.
        loop {
            cycle();
            let held = server.readers.lock().len();
            if held <= 2 {
                break;
            }
            assert!(Instant::now() < deadline, "{held} reader handles held after {CYCLES} cycles");
            std::thread::sleep(Duration::from_millis(2));
        }
        server.drain();
    }
}
