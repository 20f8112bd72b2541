//! # hcc-client — talking to the front door
//!
//! A synchronous client for the `hcc-wire` protocol with the same error
//! contract local callers get: every failure is an
//! [`HccError`] whose `is_transient()` answer is the
//! retry decision. A shed request (`Overloaded`) or a server-side
//! transient abort is retried here with the facade's own
//! [`RetryPolicy`] backoff; fatal faults surface immediately.
//!
//! ## Outcome-unknown honesty
//!
//! If the connection dies **after a request was sent but before its
//! response arrived**, this client does *not* resend it: the server may
//! have committed and only the ack was lost, so blind resubmission
//! could double-apply effects. The failure surfaces as
//! [`HccError::Protocol`](hcc_db::HccError) naming the outcome unknown;
//! the caller decides — typically by reading recovered state after
//! reconnecting, which is exactly what the socket crash workload's
//! verifier does.

#![warn(missing_docs)]

use std::time::Duration;

use hcc_db::{HccError, RetryPolicy};
use hcc_txn::manager::CommitError;
use hcc_wire::conn::{self, RecvHalf, SendHalf, WireError};
use hcc_wire::msg::{OpResult, Request, Response, TypeTag, View, WireFault, PROTOCOL_VERSION};

/// Read timeout while waiting for the handshake reply.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Handshake and retry tunables for [`Client::connect_with`].
#[derive(Clone, Debug)]
pub struct ClientOptions {
    /// Auth token presented at handshake.
    pub token: String,
    /// The in-flight cap to ask for (the server may grant less).
    pub max_in_flight: u32,
    /// Backoff schedule for `Overloaded`/transient retries.
    pub retry: RetryPolicy,
    /// Protocol version to offer — overridable so tests can exercise
    /// the version-mismatch refusal.
    pub version: u32,
}

impl Default for ClientOptions {
    fn default() -> ClientOptions {
        ClientOptions {
            token: String::new(),
            max_in_flight: 8,
            retry: RetryPolicy::default(),
            version: PROTOCOL_VERSION,
        }
    }
}

/// Server positions answering [`Client::stats`]: the stable watermark
/// (every commit at or below it is readable on the snapshot path) and
/// the lifetime commit/abort totals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerStats {
    /// The server's stable watermark.
    pub watermark: u64,
    /// Transactions committed since the server's store opened.
    pub committed: u64,
    /// Transactions aborted since the server's store opened.
    pub aborted: u64,
}

/// A connected, handshaken session.
pub struct Client {
    tx: SendHalf,
    rx: RecvHalf,
    next_seq: u64,
    session: u64,
    granted_in_flight: u32,
    retry: RetryPolicy,
    /// An attached read replica; [`Client::read`] routes here first.
    replica: Option<Box<Client>>,
}

fn lost(context: &str) -> HccError {
    HccError::Protocol(format!(
        "connection lost {context}: the request's outcome is unknown and it will not be \
         resent (a commit whose ack was lost must not be re-applied)"
    ))
}

fn fault_to_error(fault: WireFault) -> HccError {
    match fault {
        WireFault::Overloaded { in_flight, cap } => HccError::Overloaded { in_flight, cap },
        WireFault::TypeMismatch { object } => {
            HccError::TypeMismatch { object, requested: "remote open" }
        }
        WireFault::SnapshotCompacted { requested, floor } => {
            HccError::SnapshotCompacted { requested, floor }
        }
        WireFault::SnapshotContended { requested } => HccError::SnapshotContended { requested },
        // The server aborted the transaction transiently (most often its
        // own retry budget spent on deadlock dooms). It was aborted
        // everywhere, so resubmitting is a *fresh* transaction and safe:
        // classified transient here, the client's own backoff applies.
        WireFault::Transient { .. } => HccError::Commit(CommitError::Doomed),
        WireFault::VersionMismatch { server, client } => HccError::Protocol(format!(
            "handshake refused: server speaks protocol {server}, this client offered {client}"
        )),
        WireFault::BadToken => HccError::Protocol("handshake refused: bad auth token".into()),
        WireFault::ShuttingDown => {
            HccError::Protocol("server is draining; reconnect after its restart".into())
        }
        WireFault::Fatal { detail } => {
            HccError::Protocol(format!("server reported a fatal failure: {detail}"))
        }
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("session", &self.session)
            .field("granted_in_flight", &self.granted_in_flight)
            .finish_non_exhaustive()
    }
}

impl Client {
    /// Connect and handshake with [`ClientOptions::default`].
    pub fn connect(addr: &str) -> Result<Client, HccError> {
        Client::connect_with(addr, ClientOptions::default())
    }

    /// Connect to `addr` and perform the handshake. Refusals
    /// (version mismatch, bad token) surface as
    /// [`HccError::Protocol`](hcc_db::HccError).
    pub fn connect_with(addr: &str, opts: ClientOptions) -> Result<Client, HccError> {
        let conn = conn::connect(addr)
            .map_err(|e| HccError::Protocol(format!("connect to {addr} failed: {e}")))?;
        let (mut tx, mut rx) =
            conn.split().map_err(|e| HccError::Protocol(format!("socket split failed: {e}")))?;
        let hello = Request::Hello {
            version: opts.version,
            token: opts.token.clone(),
            max_in_flight: opts.max_in_flight,
        };
        tx.send(0, &hello).map_err(|e| HccError::Protocol(format!("handshake send: {e}")))?;
        rx.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).ok();
        let resp = recv_msg(&mut rx, "during handshake")?;
        rx.set_read_timeout(None).ok();
        match resp {
            (_, Response::Welcome { session, max_in_flight, .. }) => Ok(Client {
                tx,
                rx,
                next_seq: 1,
                session,
                granted_in_flight: max_in_flight,
                retry: opts.retry,
                replica: None,
            }),
            (_, Response::Fault(fault)) => Err(fault_to_error(fault)),
            (_, other) => Err(HccError::Protocol(format!("unexpected handshake reply: {other:?}"))),
        }
    }

    /// The server-assigned session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The in-flight cap the handshake granted.
    pub fn granted_in_flight(&self) -> u32 {
        self.granted_in_flight
    }

    /// One request, one response, no retry. Transient faults (including
    /// `Overloaded`) come back as errors for the caller to classify.
    pub fn request_once(&mut self, req: &Request) -> Result<Response, HccError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.tx
            .send(seq, req)
            .map_err(|e| HccError::Protocol(format!("request send failed: {e}")))?;
        loop {
            let (got_seq, resp) = recv_msg(&mut self.rx, "awaiting a response")?;
            if got_seq == seq {
                return Ok(resp);
            }
            // A stale answer (e.g. to a request whose wait we abandoned)
            // is drained, not confused with ours.
        }
    }

    /// One request with the transient-retry loop local `transact`
    /// callers get: `Overloaded` and server-side transient faults back
    /// off per the policy; everything else surfaces at once.
    pub fn request(&mut self, req: &Request) -> Result<Response, HccError> {
        let mut attempt: u32 = 0;
        loop {
            let err = match self.request_once(req)? {
                Response::Fault(fault) => fault_to_error(fault),
                resp => return Ok(resp),
            };
            if !err.is_transient() {
                return Err(err);
            }
            if attempt >= self.retry.max_retries {
                return Err(HccError::RetriesExhausted {
                    attempts: attempt + 1,
                    last: Box::new(err),
                });
            }
            std::thread::sleep(self.retry.backoff(attempt));
            attempt += 1;
        }
    }

    /// Open (and recover) the typed object `name` on the server.
    pub fn open(&mut self, tag: TypeTag, name: &str) -> Result<(), HccError> {
        match self.request(&Request::Open { tag, name: name.into() })? {
            Response::OpenOk => Ok(()),
            other => Err(HccError::Protocol(format!("unexpected reply to open: {other:?}"))),
        }
    }

    /// Execute `ops` as one transaction; returns the commit timestamp
    /// and each op's pinned response. Shed/transient outcomes are
    /// retried (each retry is a fresh server-side transaction — the
    /// previous attempt was aborted or never admitted).
    pub fn transact(
        &mut self,
        ops: Vec<hcc_wire::msg::WireOp>,
    ) -> Result<(u64, Vec<OpResult>), HccError> {
        match self.request(&Request::Transact { ops })? {
            Response::Committed { ts, results } => Ok((ts, results)),
            other => Err(HccError::Protocol(format!("unexpected reply to transact: {other:?}"))),
        }
    }

    /// Snapshot-read `queries` — at the server's stable watermark
    /// (`at: None`) or a pinned historical timestamp. All views are
    /// consistent at the returned watermark.
    ///
    /// With a replica attached ([`Client::attach_read_replica`]) the
    /// read is served there first: a follower's watermark is always a
    /// consistent prefix of the primary's history, so the views are
    /// correct even while it lags — only the returned watermark may
    /// trail. Any replica failure detaches it and falls back to the
    /// primary, so the read itself still succeeds.
    pub fn read(
        &mut self,
        at: Option<u64>,
        queries: Vec<(TypeTag, String)>,
    ) -> Result<(u64, Vec<View>), HccError> {
        if let Some(mut replica) = self.replica.take() {
            // The replica is dropped on any failure (dead socket,
            // lagging past a pinned timestamp, shed) rather than
            // retried per-read: the caller re-attaches when it has a
            // healthy follower again.
            if let Ok(out) = replica.read_here(at, queries.clone()) {
                self.replica = Some(replica);
                return Ok(out);
            }
        }
        self.read_here(at, queries)
    }

    fn read_here(
        &mut self,
        at: Option<u64>,
        queries: Vec<(TypeTag, String)>,
    ) -> Result<(u64, Vec<View>), HccError> {
        match self.request(&Request::Read { at, queries })? {
            Response::Views { watermark, views } => Ok((watermark, views)),
            other => Err(HccError::Protocol(format!("unexpected reply to read: {other:?}"))),
        }
    }

    /// Ask the server for its positions (stable watermark, lifetime
    /// commit/abort counts). Answered inline on the server — never
    /// queued behind transactions — so it is cheap enough to poll for
    /// replication lag or health checks.
    pub fn stats(&mut self) -> Result<ServerStats, HccError> {
        match self.request(&Request::Stats)? {
            Response::Stats { watermark, committed, aborted } => {
                Ok(ServerStats { watermark, committed, aborted })
            }
            other => Err(HccError::Protocol(format!("unexpected reply to stats: {other:?}"))),
        }
    }

    /// Connect to a read replica at `addr` and route subsequent
    /// [`Client::read`] calls there first, falling back to (and
    /// detaching on) any replica failure. The replica server fronts a
    /// follower's `Db`, so its reads observe the replicated stable
    /// watermark — a consistent, possibly lagging prefix.
    pub fn attach_read_replica(&mut self, addr: &str, opts: ClientOptions) -> Result<(), HccError> {
        let replica = Client::connect_with(addr, opts)?;
        self.replica = Some(Box::new(replica));
        Ok(())
    }

    /// Whether a read replica is currently attached (a failed replica
    /// read silently detaches it).
    pub fn has_read_replica(&self) -> bool {
        self.replica.is_some()
    }

    /// Ask the server to drain and exit.
    pub fn shutdown_server(&mut self) -> Result<(), HccError> {
        match self.request_once(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            Response::Fault(fault) => Err(fault_to_error(fault)),
            other => Err(HccError::Protocol(format!("unexpected reply to shutdown: {other:?}"))),
        }
    }

    /// Orderly close: say goodbye, wait for the ack, drop the socket.
    pub fn goodbye(mut self) -> Result<(), HccError> {
        match self.request_once(&Request::Goodbye)? {
            Response::Bye => Ok(()),
            other => Err(HccError::Protocol(format!("unexpected reply to goodbye: {other:?}"))),
        }
    }

    /// Split into raw wire halves — for tests that need to pipeline
    /// past the in-flight cap or inject malformed bytes mid-session.
    pub fn into_halves(self) -> (SendHalf, RecvHalf) {
        (self.tx, self.rx)
    }
}

fn recv_msg(rx: &mut RecvHalf, context: &str) -> Result<(u64, Response), HccError> {
    match rx.recv::<Response>() {
        Ok(Some((seq, resp, _n))) => Ok((seq, resp)),
        Ok(None) => Err(lost(&format!("{context} (clean close)"))),
        Err(WireError::Frame(e)) => {
            Err(HccError::Protocol(format!("frame refused {context}: {e}")))
        }
        Err(WireError::Io(e)) => Err(lost(&format!("{context}: {e}"))),
    }
}
