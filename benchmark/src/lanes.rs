//! The traced run's lanes: the same generated requests replayed by one
//! caller through successively shallower entry points, a span around
//! every call, plus the fixed probes of single layers.
//!
//! All spans are recorded here, from outside the program, around the
//! calls into each layer; spans inside the program are a later change
//! (ROADMAP item 2). A layer's self time is its lane's median minus the
//! median of the lane below it.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::drive::{hot_request, materialise, open_and_preload, wait_until, Load, WorkRoot};
use crate::hist::median;
use crate::json::{obj, Value};
use crate::sut::{
    self, Account, Echo, Fallible, Queue, Reply, Server, Session, Store, WalProbe, WireReq,
    WireResp,
};
use crate::workload::{Durable, Names, Req, Workload};

/// Requests replayed per lane, at most; a lane also stops when its share
/// of the run's time is spent.
pub const LANE_REQUESTS: usize = 20_000;
/// Requests per lane written to the span file (all of them count toward
/// the medians).
const SPANS_WRITTEN_PER_LANE: u32 = 2_000;
/// Commits in the log the recovery and catch-up probes replay.
pub const RECOVERY_COMMITS: usize = 50_000;
/// Calls timed together where one call is too short for the clock.
const BATCH: usize = 64;

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    parent: Option<&'static str>,
    req: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory until the run ends.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog { epoch: Instant::now(), spans: Vec::with_capacity(1 << 18) }
    }

    fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        req: usize,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            name,
            parent,
            req: req as u32,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        });
    }

    /// Median duration of the spans named `name`, ns.
    fn median_ns(&self, name: &str) -> f64 {
        let mut durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        median(&mut durations)
    }

    /// Median over requests of the summed duration of the request's
    /// spans named `name` (a request may make several such calls), ns.
    fn median_sum_per_request_ns(&self, name: &str) -> f64 {
        let mut per_request: HashMap<u32, u64> = HashMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *per_request.entry(s.req).or_default() += s.end_ns - s.start_ns;
        }
        let mut sums: Vec<f64> = per_request.into_values().map(|v| v as f64).collect();
        median(&mut sums)
    }

    /// One JSON object per line: name, request id, start, end, parent.
    pub fn write_jsonl(&self, path: &Path) -> Fallible<()> {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        for s in self.spans.iter().filter(|s| s.req < SPANS_WRITTEN_PER_LANE) {
            let line = obj([
                ("name", Value::Str(s.name.into())),
                ("req", Value::Int(i64::from(s.req))),
                ("start_ns", Value::Int(s.start_ns as i64)),
                ("end_ns", Value::Int(s.end_ns as i64)),
                ("parent", s.parent.map_or(Value::Null, |p| Value::Str(p.into()))),
            ]);
            writeln!(out, "{}", line.render()).map_err(|e| e.to_string())?;
        }
        out.flush().map_err(|e| e.to_string())
    }
}

/// Metric name → value, as the lanes and probes produce them.
pub type Layer = Vec<(&'static str, f64)>;

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Run `call` on each request in turn until `budget` is spent or the
/// requests run out; returns how many ran.
fn replay<T>(
    items: &[T],
    budget: Duration,
    mut call: impl FnMut(usize, &T) -> Fallible<()>,
) -> Fallible<usize> {
    let deadline = Instant::now() + budget;
    for (i, item) in items.iter().enumerate() {
        call(i, item)?;
        if i % 16 == 15 && Instant::now() > deadline {
            return Ok(i + 1);
        }
    }
    Ok(items.len())
}

fn must_commit(reply: &Reply, lane: &str) -> Fallible<()> {
    match reply {
        Reply::Committed { .. } => Ok(()),
        other => Err(format!("{lane} lane: {other:?}")),
    }
}

/// `begin`, the request's operations, `commit` — by hand through the
/// manager, each call in a child span of `names.0`.
fn raw_request(
    log: &mut SpanLog,
    names: (&'static str, &'static str, &'static str, &'static str),
    i: usize,
    store: &Store,
    accounts: &[Account],
    queue: Option<&Queue>,
    req: &Req,
) -> Fallible<()> {
    let (whole, begin, op, commit) = names;
    let t0 = Instant::now();
    let txn = store.begin();
    let t1 = Instant::now();
    log.record(begin, Some(whole), i, t0, t1);
    {
        let ops = txn.ops();
        let timed = |log: &mut SpanLog, run: &mut dyn FnMut() -> Result<bool, sut::OpError>| {
            let s = Instant::now();
            let out = run();
            log.record(op, Some(whole), i, s, Instant::now());
            out.map_err(|_| format!("{whole} lane: operation refused"))
        };
        match *req {
            Req::Transfer { from, to, amount } => {
                let amount = i64::from(amount);
                if timed(log, &mut || ops.debit(&accounts[from as usize], amount))? {
                    timed(log, &mut || ops.credit(&accounts[to as usize], amount).map(|()| true))?;
                }
            }
            Req::Credit { to, amount } => {
                timed(log, &mut || {
                    ops.credit(&accounts[to as usize], i64::from(amount)).map(|()| true)
                })?;
            }
            Req::Post { on } => {
                timed(log, &mut || ops.post_zero(&accounts[on as usize]).map(|()| true))?;
            }
            Req::EnqDeq { item } => {
                let queue = queue.ok_or("lane has no queue")?;
                timed(log, &mut || ops.enq(queue, i64::from(item)).map(|()| true))?;
                timed(log, &mut || ops.deq(queue).map(|_| true))?;
            }
            Req::ReadAll => return Err("a read reached a commit lane".into()),
        }
    }
    let t2 = Instant::now();
    txn.commit().map_err(|e| format!("{whole} lane: {e:?}"))?;
    let t3 = Instant::now();
    log.record(commit, Some(whole), i, t2, t3);
    log.record(whole, None, i, t0, t3);
    Ok(())
}

/// Median ns per call of `call`, timed in batches of [`BATCH`].
fn batched_ns<T>(items: &[T], mut call: impl FnMut(&T)) -> f64 {
    let mut samples: Vec<f64> = items
        .chunks(BATCH)
        .map(|chunk| {
            let start = Instant::now();
            for item in chunk {
                call(item);
            }
            start.elapsed().as_nanos() as f64 / chunk.len() as f64
        })
        .collect();
    median(&mut samples)
}

fn mean_len(payloads: &[Vec<u8>]) -> f64 {
    payloads.iter().map(Vec::len).sum::<usize>() as f64 / payloads.len().max(1) as f64
}

/// The lanes over `w`'s own commit requests. `budget` is the time one
/// lane may take.
pub fn commit_lanes(
    w: &'static Workload,
    load: &Load,
    root: &WorkRoot,
    budget: Duration,
    log: &mut SpanLog,
) -> Fallible<Layer> {
    let names = &load.names;
    // The first client's commit requests; the socket lanes replay the
    // ones the wire can carry (`post` cannot cross it).
    let stream = &load.streams[0];
    let commits: Vec<Req> =
        stream.reqs.iter().filter(|r| r.commits()).take(LANE_REQUESTS).copied().collect();
    let wired: Vec<WireReq> = commits.iter().filter_map(|r| WireReq::of(r, names)).collect();

    let dir = root.fresh("lanes");
    let (store, accounts, queue) = open_and_preload(w, names, &dir)?;
    let queue = queue.as_ref();
    let mut layer = Layer::new();

    // client: `Client::transact` over loopback to an in-process server.
    // Every other block of 128 requests runs without spans, timed as a
    // block, to show what recording the spans costs.
    let server = Server::start(&store, w.workers.max(2), 8, false)?;
    let mut session = Session::connect(&server.addr(), 8)?;
    let (mut traced_ns, mut traced_n, mut plain_ns, mut plain_n) = (0u64, 0u64, 0u64, 0u64);
    let deadline = Instant::now() + budget * 2;
    for (block_no, block) in wired.chunks(128).enumerate() {
        let block_start = Instant::now();
        if block_no % 2 == 0 {
            for (j, req) in block.iter().enumerate() {
                let s = Instant::now();
                let reply = session.call(req);
                log.record("client.transact", None, block_no * 128 + j, s, Instant::now());
                must_commit(&reply, "client")?;
            }
            traced_ns += block_start.elapsed().as_nanos() as u64;
            traced_n += block.len() as u64;
        } else {
            for req in block {
                must_commit(&session.call(req), "client")?;
            }
            plain_ns += block_start.elapsed().as_nanos() as u64;
            plain_n += block.len() as u64;
        }
        if block_no % 2 == 1 && Instant::now() > deadline {
            break;
        }
    }
    session.goodbye();
    server.drain();
    let client_ns = log.median_ns("client.transact");
    layer.push(("client.transact_us", us(client_ns)));
    let per_call = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    let (traced, plain) = (per_call(traced_ns, traced_n), per_call(plain_ns, plain_n));
    layer.push((
        "trace.overhead_pct",
        if plain == 0.0 { 0.0 } else { 100.0 * (traced - plain) / plain },
    ));

    // server: `hcc_server::execute` called directly. Its responses are
    // what the echo lane sends back and the codec probes encode.
    let mut canned: Vec<WireResp> = Vec::new();
    replay(&wired, budget, |i, req| {
        let s = Instant::now();
        let resp = sut::execute(&store, req);
        log.record("server.execute", None, i, s, Instant::now());
        must_commit(&resp.reply(), "execute")?;
        if canned.len() < 4096 {
            canned.push(resp);
        }
        Ok(())
    })?;
    let execute_ns = log.median_ns("server.execute");

    // wire: a bare connection echoing frames of the same sizes.
    let echo = Echo::start(canned.clone())?;
    let mut pipe = echo.connect()?;
    replay(&wired, budget, |i, req| {
        let s = Instant::now();
        pipe.send(i as u64, req)?;
        let (_, reply) = pipe.recv()?;
        log.record("wire.echo", None, i, s, Instant::now());
        must_commit(&reply, "echo")
    })?;
    pipe.close();
    drop(echo);
    let echo_ns = log.median_ns("wire.echo");

    // db: the typed `Db::transact`.
    replay(&commits, budget, |i, req| {
        let s = Instant::now();
        let outcome = hot_request(&store, &accounts, queue, req);
        log.record("db.transact", None, i, s, Instant::now());
        outcome.map(drop).map_err(|e| format!("db lane: {e:?}"))
    })?;
    let db_ns = log.median_ns("db.transact");

    // txn: begin / operations / commit by hand, on the same database.
    let bytes_before = store.log_bytes();
    let raw_commits = replay(&commits, budget, |i, req| {
        raw_request(
            log,
            ("txn.raw", "txn.begin", "adt.op", "txn.commit"),
            i,
            &store,
            &accounts,
            queue,
            req,
        )
    })?;
    let raw_ns = log.median_ns("txn.raw");
    let logged = store.log_bytes() - bytes_before;

    // The same on a database with no log under it.
    let in_memory = Workload { durable: Durable::Memory, ..*w };
    let (mem_store, mem_accounts, mem_queue) = open_and_preload(&in_memory, names, &dir)?;
    replay(&commits, budget, |i, req| {
        raw_request(
            log,
            ("mem.raw", "mem.begin", "mem.op", "mem.commit"),
            i,
            &mem_store,
            &mem_accounts,
            mem_queue.as_ref(),
            req,
        )
    })?;
    let mem_ns = log.median_ns("mem.raw");
    let ops_ns = log.median_sum_per_request_ns("mem.op");

    layer.extend([
        ("wire.echo_rtt_us", us(echo_ns)),
        ("server.execute_us", us(execute_ns)),
        ("server.exec_self_us", us(execute_ns - db_ns)),
        ("server.session_queue_us", us(client_ns - echo_ns - execute_ns)),
        ("db.transact_us", us(db_ns)),
        ("db.facade_self_us", us(db_ns - raw_ns)),
        ("txn.raw_commit_us", us(raw_ns)),
        ("txn.begin_commit_mem_us", us(mem_ns)),
        ("core.ops_us", us(ops_ns)),
        ("storage.redo_log_us", us(raw_ns - mem_ns)),
        ("storage.bytes_per_commit", logged as f64 / raw_commits.max(1) as f64),
    ]);

    layer.extend(codec_probes(&wired, &canned));
    layer.extend(read_probes(&store, &accounts, names)?);
    Ok(layer)
}

fn encoded(encode: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    encode(&mut out);
    out
}

/// The four codecs on their own, over the lanes' requests and the
/// responses the execute lane recorded.
fn codec_probes(wired: &[WireReq], canned: &[WireResp]) -> Layer {
    let req_payloads: Vec<Vec<u8>> =
        wired.iter().map(|r| encoded(|out| r.encode_into(out))).collect();
    let resp_payloads: Vec<Vec<u8>> =
        canned.iter().map(|r| encoded(|out| r.encode_into(out))).collect();
    let mut scratch = Vec::with_capacity(256);
    vec![
        (
            "wire.req_encode_ns",
            batched_ns(wired, |r| {
                scratch.clear();
                r.encode_into(black_box(&mut scratch));
            }),
        ),
        (
            "wire.req_decode_ns",
            batched_ns(&req_payloads, |p| {
                black_box(WireReq::decodes(black_box(p)));
            }),
        ),
        (
            "wire.resp_encode_ns",
            batched_ns(canned, |r| {
                scratch.clear();
                r.encode_into(black_box(&mut scratch));
            }),
        ),
        (
            "wire.resp_decode_ns",
            batched_ns(&resp_payloads, |p| {
                black_box(WireResp::decodes(black_box(p)));
            }),
        ),
        ("wire.req_bytes", mean_len(&req_payloads)),
        ("wire.resp_bytes", mean_len(&resp_payloads)),
    ]
}

/// Reads on the lanes' objects, four accounts at a time: the executor's
/// read path, the facade's snapshot view, and `Db::stats` itself.
fn read_probes(store: &Store, accounts: &[Account], names: &Names) -> Fallible<Layer> {
    let four = Names {
        accounts: names.accounts.iter().take(4).cloned().collect(),
        queue: names.queue.clone(),
    };
    let read = WireReq::of(&Req::ReadAll, &four).expect("reads cross the wire");
    let timed_us = |calls: usize, call: &dyn Fn()| {
        let mut samples: Vec<f64> = (0..calls)
            .map(|_| {
                let start = Instant::now();
                call();
                start.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        median(&mut samples)
    };
    let read_execute_us = timed_us(2_000, &|| {
        black_box(sut::execute(store, &read));
    });
    let snapshot_us = timed_us(200, &|| {
        black_box(store.stats_snapshot());
    });

    let four_accounts = &accounts[..accounts.len().min(4)];
    let mut failed_read = None;
    let view_ns = batched_ns(&[(); 20_000], |()| {
        if let Err(e) = store.read_balances(four_accounts) {
            failed_read = Some(e);
        }
    });
    if let Some(e) = failed_read {
        return Err(format!("read probe: {e}"));
    }
    Ok(vec![
        ("server.read_execute_us", read_execute_us),
        ("db.read_view_ns", view_ns),
        ("obs.snapshot_us", snapshot_us),
    ])
}

/// What the first commits in the (closed) log at `log_dir` appended,
/// appended again to a bare `SegmentedWal` at the recorded payload sizes.
pub fn wal_probe(
    log_dir: &Path,
    durable: Durable,
    root: &WorkRoot,
    budget: Duration,
    log: &mut SpanLog,
) -> Fallible<Layer> {
    let sizes = sut::recorded_op_sizes(log_dir, 5_000)?;
    let durable = if durable == Durable::Memory { Durable::Buffered } else { durable };
    let mut probe = WalProbe::open(&root.fresh("walprobe"), durable)?;
    let payload = vec![b'x'; sizes.iter().flatten().copied().max().unwrap_or(0)];
    let mut slices: Vec<&[u8]> = Vec::new();
    replay(&sizes, budget, |i, commit| {
        slices.clear();
        slices.extend(commit.iter().map(|n| &payload[..*n]));
        let s = Instant::now();
        probe.log_commit(&slices)?;
        log.record("storage.append_commit", None, i, s, Instant::now());
        Ok(())
    })?;
    Ok(vec![("storage.append_commit_us", us(log.median_ns("storage.append_commit")))])
}

/// Each Account and Queue operation alone, in a transaction of its own
/// on an in-memory database: median ns from call to return.
pub fn adt_probes() -> Fallible<Layer> {
    const CALLS: usize = 5_000;
    let store = Store::memory();
    let account = store.account("probe")?;
    let queue = store.queue("probe-q")?;
    store
        .transact(|ops| {
            ops.credit(&account, 1_000_000_000)?;
            (0..64).try_for_each(|i| ops.enq(&queue, i))
        })
        .map_err(|e| format!("ADT probe preload: {e:?}"))?;
    let time = |call: &dyn Fn(&sut::Ops) -> Result<(), sut::OpError>| -> Fallible<f64> {
        let mut samples = Vec::with_capacity(CALLS);
        for _ in 0..CALLS {
            let txn = store.begin();
            let start = Instant::now();
            let out = call(&txn.ops());
            samples.push(start.elapsed().as_nanos() as f64);
            out.map_err(|_| "ADT probe: operation refused".to_string())?;
            txn.commit().map_err(|e| format!("ADT probe: {e:?}"))?;
        }
        Ok(median(&mut samples))
    };
    Ok(vec![
        ("adts.op_ns.credit", time(&|ops| ops.credit(&account, 3))?),
        ("adts.op_ns.debit", time(&|ops| ops.debit(&account, 3).map(drop))?),
        ("adts.op_ns.post", time(&|ops| ops.post_zero(&account))?),
        ("adts.op_ns.enq", time(&|ops| ops.enq(&queue, 7))?),
        ("adts.op_ns.deq", time(&|ops| ops.deq(&queue).map(drop))?),
    ])
}

/// Deriving the Account conflict relation from its serial specification.
pub fn derive_probe() -> Layer {
    let mut ms: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            black_box(sut::derive_account_relation());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    vec![("relations.derive_ms", median(&mut ms))]
}

/// The fixed log the recovery, catch-up and WAL probes work on:
/// [`RECOVERY_COMMITS`] of `w`'s commit requests, buffered, closed.
pub struct RecoveryLog {
    pub dir: PathBuf,
    /// The balances the log was built to.
    want: Vec<i64>,
}

impl RecoveryLog {
    pub fn build(w: &Workload, load: &Load, root: &WorkRoot) -> Fallible<RecoveryLog> {
        let logged = Workload { durable: Durable::Buffered, ..*w };
        let dir = root.fresh("recover");
        let (store, accounts, queue) = open_and_preload(&logged, &load.names, &dir)?;
        let commits = load.streams[0].reqs.iter().filter(|r| r.commits()).cycle();
        for req in commits.take(RECOVERY_COMMITS) {
            hot_request(&store, &accounts, queue.as_ref(), req)
                .map_err(|e| format!("build recovery log: {e:?}"))?;
        }
        store.sync()?;
        let want = accounts.iter().map(Store::committed_balance).collect();
        Ok(RecoveryLog { dir, want })
    }
}

/// Recovery, follower catch-up and checkpoint over the fixed log. The
/// checkpoint prunes it: run this last.
pub fn recovery_probes(
    w: &Workload,
    load: &Load,
    root: &WorkRoot,
    recovery: &RecoveryLog,
) -> Fallible<Layer> {
    let names = &load.names;
    let (dir, want) = (&recovery.dir, &recovery.want);
    let with_queue = w.queue_items > 0;
    let reopen = |label: &str| -> Fallible<(Store, f64, f64)> {
        let t0 = Instant::now();
        let store = Store::open(dir, Durable::Buffered)?;
        let t1 = Instant::now();
        let got = materialise(&store, names, with_queue)?;
        let t2 = Instant::now();
        if got != *want {
            return Err(format!("{label}: recovered state differs from pre-close state"));
        }
        Ok((store, (t1 - t0).as_secs_f64() * 1e3, (t2 - t1).as_secs_f64() * 1e3))
    };

    let (mut open_ms, mut materialise_ms, mut total_ms) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let (_store, open, mat) = reopen("recovery")?;
        open_ms.push(open);
        materialise_ms.push(mat);
        total_ms.push(open + mat);
    }
    let mut layer = vec![
        ("storage.recover_open_ms", median(&mut open_ms)),
        ("storage.recover_materialize_ms", median(&mut materialise_ms)),
        ("storage.recover_ms", median(&mut total_ms)),
    ];

    // A fresh follower replays the same bytes through the apply path.
    {
        let (store, _, _) = reopen("catch-up primary")?;
        let server = Server::start(&store, 1, 8, true)?;
        let repl_addr = server.repl_addr().ok_or("no replication listener")?;
        let started = Instant::now();
        let replica = sut::Replica::start(&root.fresh("catchup"), &repl_addr, &names.queue)?;
        wait_until("catch-up", || replica.converged_with(&store))?;
        let seconds = started.elapsed().as_secs_f64();
        let copy = materialise(&replica.store(), names, with_queue)?;
        if copy != *want {
            return Err("caught-up replica differs from primary".into());
        }
        layer.push(("repl.catchup_commits_per_s", RECOVERY_COMMITS as f64 / seconds));
        drop(replica);
        server.drain();
    }

    // Checkpoint the whole state, then recover from the checkpoint.
    {
        let (store, _, _) = reopen("checkpoint")?;
        let started = Instant::now();
        let gate_ns = store.checkpoint()?;
        layer.push(("storage.ckpt_ms", started.elapsed().as_secs_f64() * 1e3));
        layer.push(("storage.ckpt_gate_us", gate_ns as f64 / 1e3));
    }
    let (_store, open, mat) = reopen("recovery after checkpoint")?;
    layer.push(("storage.recover_after_ckpt_ms", open + mat));
    Ok(layer)
}
