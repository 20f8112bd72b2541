//! The two kinds of run: the untraced run that produces the end-to-end
//! metrics, and the traced run that produces the per-layer ones.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::drive::{Load, Measured, Rig, Verdict, WorkRoot};
use crate::hist::lower_quartile;
use crate::lanes::{self, Layer, SpanLog};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::sut::Fallible;
use crate::workload::{self, Kind, Workload};

/// The set-up is timed in two batches, one before the warm-up and one
/// after the run has been checked, each of at least [`MIN_SETUPS`] and
/// repeated until [`BATCH_WALL`] has passed (a cheap set-up many times).
/// `setup_s` is the lower quartile of all of them: this guest slows by
/// half for a second or so at a time (a neighbour on the core), which a
/// 35 µs in-memory set-up follows in full — ten runs' medians were 35,
/// 52, 56, 36, 54, 44, 58, 61, 36, 34 µs. Interference only ever slows a
/// set-up down, so the quarter-way value of two batches 20 s apart
/// reads the undisturbed time unless both fell wholly into an episode.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 1000;
const BATCH_WALL: Duration = Duration::from_millis(300);

/// What a run found, in the shape the result line needs.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Why `correct` is false.
    pub violations: Vec<String>,
    /// Hash of the generated request streams.
    pub ops_digest: u64,
    /// Wall time of each part of the run, seconds.
    pub phases: Vec<(&'static str, f64)>,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn warm_up(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds * 0.15).min(1.5))
}

fn check_measured(w: &Workload, rig: &Rig, m: &Measured, violations: &mut Vec<String>) {
    violations.extend(m.tally.wrong.iter().map(|what| format!("{}: wrong result: {what}", w.name)));
    if m.tally.commits == 0 {
        violations.push(format!("{}: nothing committed in the measured phase", w.name));
    }
    if w.kind == Kind::HotAdts {
        let share = ratio(m.tally.overdrafts as f64, m.tally.debits as f64);
        if !(0.1..=0.9).contains(&share) {
            violations.push(format!("hot_adts: overdraft share {share:.3} outside [0.1, 0.9]"));
        }
    }
    if w.kind == Kind::ReplicaReads {
        if rig.detached_replicas() > 0 {
            violations.push("replica_reads: a client lost its read replica".into());
        }
        if m.tally.reads == 0 || m.tally.visible.count() == 0 {
            violations.push("replica_reads: no read or no visibility probe completed".into());
        }
    }
}

fn absorb(w: &Workload, verdict: Verdict, violations: &mut Vec<String>) -> Option<f64> {
    violations.extend(verdict.violations.into_iter().map(|v| format!("{}: {v}", w.name)));
    verdict.promote_ms
}

/// One batch of timed set-ups, their durations appended to `seconds`;
/// returns the last rig built.
fn timed_setups(
    w: &'static Workload,
    load: &Load,
    root: &WorkRoot,
    seconds: &mut Vec<f64>,
) -> Fallible<Rig> {
    let batch_started = Instant::now();
    let mut count = 0;
    loop {
        let started = Instant::now();
        let rig = Rig::setup(w, &load.names, root)?;
        seconds.push(started.elapsed().as_secs_f64());
        count += 1;
        let enough = count >= MIN_SETUPS && batch_started.elapsed() >= BATCH_WALL;
        if enough || count == MAX_SETUPS {
            return Ok(rig);
        }
        rig.discard();
    }
}

/// The untraced run: time the set-up several times, warm up, measure
/// for `seconds`, check every invariant.
pub fn untraced(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    benchmark_dir: &Path,
) -> Fallible<Outcome> {
    let root = WorkRoot::create(benchmark_dir)?;
    let mut phases = Vec::new();
    let started = Instant::now();
    let load = Load::generate(w, seed);
    phases.push(("generate_s", started.elapsed().as_secs_f64()));

    let started = Instant::now();
    let mut setups = Vec::new();
    let mut rig = timed_setups(w, &load, &root, &mut setups)?;
    phases.push(("setups_s", started.elapsed().as_secs_f64()));

    let started = Instant::now();
    let measured =
        rig.drive(&load, w.clients, warm_up(seconds), Duration::from_secs_f64(seconds))?;
    phases.push(("drive_s", started.elapsed().as_secs_f64()));

    let mut violations = Vec::new();
    check_measured(w, &rig, &measured, &mut violations);
    let started = Instant::now();
    absorb(w, rig.finish(), &mut violations);
    phases.push(("finish_s", started.elapsed().as_secs_f64()));

    let started = Instant::now();
    timed_setups(w, &load, &root, &mut setups)?.discard();
    phases.push(("setups_again_s", started.elapsed().as_secs_f64()));

    let commits = measured.tally.commit_lat.summary(measured.phase_ns);
    let metrics = vec![
        ("commits_per_s", commits.per_s),
        ("commit_p50_us", commits.p50_ns / 1e3),
        ("setup_s", lower_quartile(&mut setups)),
    ];
    debug_assert!(metrics.iter().map(|(n, _)| *n).eq(END_TO_END.iter().map(|m| m.name)));
    Ok(Outcome {
        correct: violations.is_empty(),
        attempted: measured.tally.attempted.max(1),
        failed: measured.failed(),
        metrics,
        violations,
        ops_digest: load.digest,
        phases,
    })
}

/// One short slice of `v` at its real concurrency, set up and checked
/// like an untraced run. `hot_adts` runs it at one thread first.
struct Slice {
    one_thread: Option<Measured>,
    full: Measured,
    promote_ms: Option<f64>,
}

fn slice(
    v: &'static Workload,
    load: &Load,
    root: &WorkRoot,
    seconds: f64,
    violations: &mut Vec<String>,
) -> Fallible<Slice> {
    let mut rig = Rig::setup(v, &load.names, root)?;
    let warm = Duration::from_secs_f64(seconds * 0.2);
    let measure = Duration::from_secs_f64(seconds);
    let one_thread = match v.kind {
        Kind::HotAdts => Some(rig.drive(load, 1, warm, measure)?),
        _ => None,
    };
    let full = rig.drive(load, v.clients, warm, measure)?;
    check_measured(v, &rig, &full, violations);
    let promote_ms = absorb(v, rig.finish(), violations);
    Ok(Slice { one_thread, full, promote_ms })
}

/// Counters of the program over a slice of the traced workload itself.
fn own_counts(m: &Measured) -> Layer {
    let c = &m.counts;
    let commits = c.commits as f64;
    vec![
        ("db.attempts_per_commit", ratio(c.transact_attempts as f64, c.transact_calls as f64)),
        ("db.backoff_us_per_commit", ratio(c.backoff_ns as f64 / 1e3, commits)),
        ("txn.victims_per_kcommit", ratio(c.victims as f64 * 1e3, commits)),
        ("core.refusals_per_kcommit", ratio(c.refusals as f64 * 1e3, commits)),
        ("core.waits_per_kcommit", ratio(c.waits as f64 * 1e3, commits)),
        ("server.shed_per_kreq", ratio(c.sheds as f64 * 1e3, c.requests as f64)),
        ("slice.commits_per_s", m.tally.commits as f64 / m.seconds()),
        ("slice.commit_p50_us", m.tally.commit_lat.all.quantile(0.5) / 1e3),
        ("slice.commit_p99_us", m.tally.commit_lat.all.quantile(0.99) / 1e3),
    ]
}

/// Metrics only one workload's arrangement can produce, taken from a
/// slice of that workload whichever workload is being traced.
fn kind_metrics(kind: Kind, s: &Slice) -> Fallible<Layer> {
    let m = &s.full;
    let c = &m.counts;
    Ok(match kind {
        Kind::SockTransfer => Vec::new(),
        Kind::SockPipelinedFsync => vec![
            ("storage.fsync_mean_us", ratio(c.fsync_ns as f64 / 1e3, c.fsyncs as f64)),
            ("storage.fsyncs_per_commit", ratio(c.fsyncs as f64, c.commits as f64)),
            ("fsync.commits_per_s", m.tally.commits as f64 / m.seconds()),
            ("fsync.commit_p50_us", m.tally.commit_lat.all.quantile(0.5) / 1e3),
            ("fsync.commit_p99_us", m.tally.commit_lat.all.quantile(0.99) / 1e3),
        ],
        Kind::HotAdts => {
            let one = s.one_thread.as_ref().ok_or("hot_adts slice has no 1-thread phase")?;
            let rate = |m: &Measured| m.tally.commits as f64 / m.seconds();
            vec![
                ("core.scaling_x", ratio(rate(m), rate(one))),
                ("adts.overdraft_share", ratio(m.tally.overdrafts as f64, m.tally.debits as f64)),
            ]
        }
        Kind::ReplicaReads => vec![
            ("repl.bytes_per_commit", ratio(c.repl_bytes as f64, c.commits as f64)),
            ("repl.frames_per_batch", ratio(c.repl_frames as f64, c.repl_batches as f64)),
            ("repl.lag_tickets_p50", m.tally.lag.quantile(0.5)),
            ("repl.visible_p50_ms", m.tally.visible.quantile(0.5) / 1e6),
            ("repl.visible_p99_ms", m.tally.visible.quantile(0.99) / 1e6),
            ("repl.promote_ms", s.promote_ms.ok_or("replica_reads slice did not promote")?),
            ("repl.reads_per_s", m.tally.reads as f64 / m.seconds()),
            ("repl.read_p50_us", m.tally.read_lat.quantile(0.5) / 1e3),
        ],
    })
}

/// The traced run: a short slice of every workload for the counters
/// only that workload's arrangement yields, then `w`'s requests through
/// the lanes, then the fixed probes. Writes the spans to
/// `results/trace_<workload>.jsonl`.
pub fn traced(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    benchmark_dir: &Path,
) -> Fallible<Outcome> {
    let root = WorkRoot::create(benchmark_dir)?;
    let mut phases = Vec::new();
    let mut violations = Vec::new();
    let mut layer = Layer::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    let started = Instant::now();
    let own_load = Load::generate(w, seed);
    phases.push(("generate_s", started.elapsed().as_secs_f64()));

    let started = Instant::now();
    let mut own_p50_us = 0.0;
    for v in workload::all() {
        let other_load;
        let load = if v.kind == w.kind {
            &own_load
        } else {
            other_load = Load::generate(v, seed);
            &other_load
        };
        let s = slice(v, load, &root, seconds * 0.1, &mut violations)?;
        for m in s.one_thread.iter().chain([&s.full]) {
            attempted += m.tally.attempted;
            failed += m.failed();
        }
        if v.kind == w.kind {
            own_p50_us = s.full.tally.commit_lat.all.quantile(0.5) / 1e3;
            layer.extend(own_counts(&s.full));
        }
        layer.extend(kind_metrics(v.kind, &s)?);
    }
    phases.push(("slices_s", started.elapsed().as_secs_f64()));

    let started = Instant::now();
    let mut log = SpanLog::new();
    let lane_budget = Duration::from_secs_f64(seconds * 0.04);
    layer.extend(lanes::commit_lanes(w, &own_load, &root, lane_budget, &mut log)?);
    phases.push(("lanes_s", started.elapsed().as_secs_f64()));

    let started = Instant::now();
    layer.extend(lanes::adt_probes()?);
    layer.extend(lanes::derive_probe());
    let recovery = lanes::RecoveryLog::build(w, &own_load, &root)?;
    layer.extend(lanes::wal_probe(&recovery.dir, w.durable, &root, lane_budget, &mut log)?);
    layer.extend(lanes::recovery_probes(w, &own_load, &root, &recovery)?);
    phases.push(("probes_s", started.elapsed().as_secs_f64()));

    // What one caller's trip through the lanes does not explain of the
    // latency seen at the workload's real concurrency.
    let top_lane = if w.workers == 0 { "db.transact_us" } else { "client.transact_us" };
    let value_of =
        |layer: &Layer, name: &str| layer.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    let explained = value_of(&layer, top_lane).unwrap_or(0.0);
    layer.push(("budget.unattributed_pct", 100.0 * ratio(own_p50_us - explained, own_p50_us)));

    let started = Instant::now();
    let results = benchmark_dir.join("results");
    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    log.write_jsonl(&results.join(format!("trace_{}.jsonl", w.name)))?;
    phases.push(("write_spans_s", started.elapsed().as_secs_f64()));

    let metrics = PER_LAYER
        .iter()
        .map(|metric| {
            value_of(&layer, metric.name)
                .map(|v| (metric.name, v))
                .ok_or_else(|| format!("traced run produced no {}", metric.name))
        })
        .collect::<Fallible<Vec<_>>>()?;
    Ok(Outcome {
        correct: violations.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics,
        violations,
        ops_digest: own_load.digest,
        phases,
    })
}
