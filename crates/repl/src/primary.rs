//! The primary's side of log shipping: a replication listener and one
//! shipper thread per connected follower.
//!
//! Each shipper owns its own [`hcc_storage::WalTailer`] over the primary's live log
//! ([`DurableStore::tail`]), resumed at the ticket the follower's `Hello`
//! reported durable — so a reconnecting follower re-receives exactly the
//! suffix it lost, and two followers at different positions stream
//! independently. Frames ship raw (still in their WAL envelope) in
//! global ticket order, chunked under the wire payload bound; every
//! batch carries a freshly sampled `(watermark, ticket)` pair, and an
//! empty batch is a heartbeat pushing new positions when no frames are
//! flowing (that is what lets an idle follower's watermark converge —
//! and its lag reach 0 — without new commits).
//!
//! A shipper with nothing to send parks until the log writes, settles or
//! voids something, or [`HEARTBEAT`] passes: the watermark moves without
//! touching the log.
//!
//! The shipper never reads transaction state: its only inputs are what
//! the log states and the position pair. Losing the primary process
//! therefore loses nothing the log didn't already hold — the exact
//! guarantee promotion is specified against.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hcc_db::Db;
use hcc_obs::{Counter, Gauge, Registry};
use hcc_storage::DurableStore;
use hcc_wire::conn::{self, Listener, RecvHalf, SendHalf};
use hcc_wire::repl::{ReplMsg, REPL_PROTOCOL_VERSION};
use hcc_wire::MAX_WIRE_PAYLOAD;

/// Soft cap on one `ReplBatch`'s frame bytes, well under the wire's
/// 1 MiB payload bound.
const BATCH_MAX_BYTES: usize = 512 << 10;

/// The longest a shipper with nothing to send waits before sampling the
/// positions again.
const HEARTBEAT: Duration = Duration::from_millis(2);

struct Instruments {
    batches: Arc<Counter>,
    frames: Arc<Counter>,
    bytes: Arc<Counter>,
    heartbeats: Arc<Counter>,
    faults: Arc<Counter>,
    followers: Arc<Gauge>,
    shipped: Arc<Gauge>,
    acked: Arc<Gauge>,
}

impl Instruments {
    fn resolve(metrics: &Registry) -> Instruments {
        Instruments {
            batches: metrics.counter("repl.batches.shipped"),
            frames: metrics.counter("repl.frames.shipped"),
            bytes: metrics.counter("repl.bytes.shipped"),
            heartbeats: metrics.counter("repl.heartbeats"),
            faults: metrics.counter("repl.faults"),
            followers: metrics.gauge("repl.followers"),
            shipped: metrics.gauge("repl.shipped.ticket"),
            acked: metrics.gauge("repl.acked.ticket"),
        }
    }
}

struct PrimaryShared {
    db: Arc<Db>,
    store: Arc<DurableStore>,
    token: Option<String>,
    ins: Instruments,
    stop: AtomicBool,
}

impl PrimaryShared {
    /// The position pair: the stable watermark **before** the last
    /// issued ticket. Every commit at or below the watermark has retired
    /// by then, so its commit record is ticketed at or below the ticket —
    /// the order the follower's consistent-prefix argument rests on (see
    /// the crate docs).
    fn positions(&self) -> (u64, u64) {
        let watermark = self.db.manager().stable_watermark();
        (watermark, self.store.last_issued_ticket())
    }
}

/// The replication listener: accepts followers and ships them the log.
/// Dropped or [`Primary::stop`]ped, it closes every stream; followers
/// reconnect elsewhere (or get promoted).
pub struct Primary {
    addr: SocketAddr,
    shared: Arc<PrimaryShared>,
    accept: Option<JoinHandle<()>>,
}

impl Primary {
    /// Bind `addr` (port 0 for an OS-assigned port) and ship `db`'s log
    /// to every follower that connects. `db` must be durable. When
    /// `token` is set, a follower's `Hello` must present exactly it. The
    /// `repl.*` primary-side metrics land in `db`'s registry.
    pub fn start(addr: &str, db: Arc<Db>, token: Option<String>) -> std::io::Result<Primary> {
        let Some(store) = db.storage().cloned() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "replication requires a durable Db (it ships the WAL)",
            ));
        };
        let listener = Listener::bind(addr)?;
        let local = listener.local_addr()?;
        let ins = Instruments::resolve(db.metrics());
        let shared =
            Arc::new(PrimaryShared { db, store, token, ins, stop: AtomicBool::new(false) });
        let accept = {
            let shared = shared.clone();
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Primary { addr: local, shared, accept: Some(accept) })
    }

    /// The listener's bound address (for followers to dial).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, close every shipper, and join the threads.
    /// Idempotent.
    pub fn stop(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = conn::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Primary {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Accept followers until stopped, one shipper thread each. Shippers
/// that have finished are joined as the next follower arrives, so
/// reconnects do not pile up threads; the rest are joined on the way out.
fn accept_loop(listener: &Listener, shared: &Arc<PrimaryShared>) {
    let mut shippers: Vec<JoinHandle<()>> = Vec::new();
    while let Ok((conn, _peer)) = listener.accept() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        for h in std::mem::take(&mut shippers) {
            if h.is_finished() {
                let _ = h.join();
            } else {
                shippers.push(h);
            }
        }
        let shared = shared.clone();
        shippers.push(std::thread::spawn(move || {
            if let Ok((tx, rx)) = conn.split() {
                ship(&shared, tx, rx);
            }
        }));
    }
    for h in shippers {
        let _ = h.join();
    }
}

/// Receive the follower's `Hello`, check version and token, answer
/// `Welcome`. Returns the ticket to resume after; `None` = refuse/close.
fn handshake(shared: &PrimaryShared, tx: &mut SendHalf, rx: &mut RecvHalf) -> Option<u64> {
    rx.set_read_timeout(Some(Duration::from_millis(200))).ok()?;
    let ReplMsg::Hello { version, token, last_ticket } = recv(shared, rx)? else {
        refuse(shared, tx, "expected ReplHello");
        return None;
    };
    if version != REPL_PROTOCOL_VERSION {
        refuse(shared, tx, &format!("unsupported replication protocol version {version}"));
        return None;
    }
    if shared.token.as_ref().is_some_and(|expected| &token != expected) {
        refuse(shared, tx, "bad token");
        return None;
    }
    let welcome = ReplMsg::Welcome { version: REPL_PROTOCOL_VERSION, frontier: last_ticket };
    tx.send(0, &welcome).ok()?;
    Some(last_ticket)
}

fn refuse(shared: &PrimaryShared, tx: &mut SendHalf, detail: &str) {
    shared.ins.faults.inc();
    let _ = tx.send(0, &ReplMsg::Fault { detail: detail.to_string() });
}

/// One follower's stream, to disconnection or shutdown: every batch is
/// the frames the tailer released (up to the byte cap) plus fresh
/// positions, and a batch with no frames is a heartbeat, sent only when
/// the positions moved.
fn ship(shared: &PrimaryShared, mut tx: SendHalf, mut rx: RecvHalf) {
    let Some(resume) = handshake(shared, &mut tx, &mut rx) else {
        return;
    };
    let mut tailer = shared.store.tail(resume);
    shared.ins.followers.adjust(1);
    let mut seq = 0u64;
    let mut last_positions = None;
    // Frames released by the tailer that have not shipped yet.
    let mut backlog: std::collections::VecDeque<(u64, Vec<u8>)> = Default::default();
    while !shared.stop.load(Ordering::SeqCst) {
        if backlog.is_empty() {
            match tailer.poll() {
                Ok(frames) => backlog.extend(frames),
                Err(e) => {
                    refuse(shared, &mut tx, &format!("tail failed: {e}"));
                    break;
                }
            }
        }
        let positions = shared.positions();
        if backlog.is_empty() && last_positions == Some(positions) {
            tailer.wait(HEARTBEAT);
            continue;
        }
        // Only a batch's first frame can exceed the cap, so that is the
        // one to check against the wire bound.
        if let Some((ticket, bytes)) = backlog.front() {
            if bytes.len() > MAX_WIRE_PAYLOAD as usize - 64 {
                // Known limitation — see docs/REPLICATION.md.
                let detail =
                    format!("frame {ticket} is {} bytes, beyond the wire bound", bytes.len());
                refuse(shared, &mut tx, &detail);
                break;
            }
        }
        let (mut frames, mut count, mut shipped) = (Vec::new(), 0u64, None);
        while let Some((ticket, bytes)) = backlog.pop_front() {
            if !frames.is_empty() && frames.len() + bytes.len() > BATCH_MAX_BYTES {
                backlog.push_front((ticket, bytes));
                break;
            }
            frames.extend_from_slice(&bytes);
            (count, shipped) = (count + 1, Some(ticket));
        }
        let batch_bytes = frames.len() as u64;
        let batch = ReplMsg::Batch { watermark: positions.0, ticket: positions.1, frames };
        seq += 1;
        if tx.send(seq, &batch).is_err() || !await_ack(shared, &mut rx) {
            break;
        }
        last_positions = Some(positions);
        match shipped {
            None => shared.ins.heartbeats.inc(),
            Some(ticket) => {
                shared.ins.batches.inc();
                shared.ins.frames.add(count);
                shared.ins.bytes.add(batch_bytes);
                shared.ins.shipped.set(ticket as i64);
            }
        }
    }
    shared.ins.followers.adjust(-1);
}

/// Block for the follower's `Ack`; false = stream over.
fn await_ack(shared: &PrimaryShared, rx: &mut RecvHalf) -> bool {
    let Some(ReplMsg::Ack { ticket }) = recv(shared, rx) else { return false };
    shared.ins.acked.set(ticket as i64);
    true
}

/// The next message, waiting out read timeouts until the primary stops;
/// `None` = stream over.
fn recv(shared: &PrimaryShared, rx: &mut RecvHalf) -> Option<ReplMsg> {
    loop {
        match rx.recv::<ReplMsg>() {
            Ok(msg) => return msg.map(|(_, msg, _)| msg),
            Err(e) if e.is_timeout() && !shared.stop.load(Ordering::SeqCst) => {}
            Err(_) => return None,
        }
    }
}
