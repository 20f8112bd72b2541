//! CI schema check for `HCC_METRICS=json` dumps.
//!
//! Reads a process's combined output from stdin, extracts every
//! `{"hcc_metrics":…}` line, and validates the dump contract:
//!
//! - the line is well-formed JSON with a single top-level `hcc_metrics`
//!   object;
//! - every metric value is an integer (counters/gauges) or a histogram
//!   object with integer `count`/`sum`/`p50`/`p99` and `[bound, count]`
//!   bucket pairs — never a float, so never a NaN;
//! - histogram bucket counts sum back to `count`;
//! - lock-wait invariants: for every `lock.wait_nanos.{TYPE}` histogram
//!   (observed when a blocked execution stops waiting) the count never
//!   exceeds the sum of the `lock.waits.{TYPE}.*` counters (bumped when
//!   it starts), and in the *final* dump — nobody is blocked any more —
//!   the two are equal;
//! - at least one dump in the stream carries the core transaction
//!   counters (`txn.begun`/`txn.committed`/`txn.aborted`);
//! - read-path invariants: any dump carrying `txn.read_only.begun`
//!   must also carry `txn.read_only.completed`, with
//!   `completed ≤ begun`; and in the *final* dump of the stream every
//!   begun read has completed and the `horizon.pins` gauge is back to
//!   zero — a process that exits with a pinned fold horizon leaked a
//!   reader;
//! - network invariants: any dump carrying `net.sessions.opened` must
//!   also carry `net.sessions.closed`, with `closed ≤ opened` (a
//!   session closes at most once); and in the *final* dump the
//!   `net.queue.depth` gauge is back to zero — a server that exits
//!   with queued work broke the drain's promise to answer everything
//!   it admitted;
//! - replication invariants: `repl.follower.lag` is never negative (a
//!   "follower ahead of its primary" means the watermark/ticket pair
//!   was sampled out of order), `repl.acked.ticket ≤
//!   repl.shipped.ticket` whenever both are present, and the *final*
//!   dump carrying follower gauges shows lag 0 — a converged follower
//!   is the only acceptable exit state for the replication demos.
//!
//! Exits nonzero with a diagnostic on the first violation, so the
//! recovery-matrix CI jobs fail if an instrumentation change breaks the
//! machine-readable dump. Usage: `some-test-run 2>&1 | obscheck`.

use serde_json::Value;
use std::io::Read;
use std::process::exit;

fn fail(msg: &str) -> ! {
    eprintln!("obscheck: FAIL: {msg}");
    exit(1)
}

fn as_u64(v: &Value, ctx: &str) -> u64 {
    match v.as_u64() {
        Some(n) => n,
        None => fail(&format!("{ctx}: expected a non-negative integer, got {v}")),
    }
}

fn check_histogram(name: &str, h: &serde_json::Map) {
    for key in ["count", "sum", "p50", "p99", "buckets"] {
        if !h.contains_key(key) {
            fail(&format!("{name}: histogram missing key {key:?}"));
        }
    }
    let count = as_u64(&h["count"], name);
    as_u64(&h["sum"], name);
    as_u64(&h["p50"], name);
    as_u64(&h["p99"], name);
    let buckets = match h["buckets"].as_array() {
        Some(b) => b,
        None => fail(&format!("{name}: buckets is not an array")),
    };
    let mut total = 0u64;
    for b in buckets {
        let pair = match b.as_array() {
            Some(p) if p.len() == 2 => p,
            _ => fail(&format!("{name}: bucket entry is not a [bound, count] pair: {b}")),
        };
        as_u64(&pair[0], name);
        total += as_u64(&pair[1], name);
    }
    if total != count {
        fail(&format!("{name}: bucket counts sum to {total} but count={count}"));
    }
}

/// Every blocked execution counts one wait when it starts waiting and
/// observes one duration when it stops: the histogram can lag the
/// counters, never lead them, and at quiesce (`exact`) they agree.
fn check_lock_waits(metrics: &serde_json::Map, exact: bool) {
    for (name, v) in metrics {
        let (Some(ty), Value::Object(h)) = (name.strip_prefix("lock.wait_nanos."), v) else {
            continue;
        };
        let observed = as_u64(&h["count"], name);
        let prefix = format!("lock.waits.{ty}.");
        let counted: u64 =
            metrics.iter().filter(|(k, _)| k.starts_with(&prefix)).map(|(k, v)| as_u64(v, k)).sum();
        if observed > counted || (exact && observed != counted) {
            fail(&format!(
                "{name}: {observed} wait(s) timed but {prefix}* counted {counted}{}",
                if exact { " in the final dump" } else { "" }
            ));
        }
    }
}

fn check_line(line: &str) -> bool {
    let parsed: Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => fail(&format!("invalid JSON: {e}\n  line: {line}")),
    };
    let top = match parsed.as_object() {
        Some(o) if o.len() == 1 && o.contains_key("hcc_metrics") => o,
        _ => fail("top level must be exactly {\"hcc_metrics\": {…}}"),
    };
    let metrics = match top["hcc_metrics"].as_object() {
        Some(m) => m,
        None => fail("hcc_metrics is not an object"),
    };
    for (name, v) in metrics {
        match v {
            Value::Number(n) if n.as_i64().is_some() || n.as_u64().is_some() => {}
            Value::Number(_) => fail(&format!("{name}: float value {v} in dump")),
            Value::Object(h) => check_histogram(name, h),
            other => fail(&format!("{name}: unexpected value kind {other}")),
        }
    }
    check_lock_waits(metrics, false);
    if let Some(begun) = metrics.get("txn.read_only.begun") {
        let begun = as_u64(begun, "txn.read_only.begun");
        let completed = match metrics.get("txn.read_only.completed") {
            Some(c) => as_u64(c, "txn.read_only.completed"),
            None => fail("txn.read_only.begun present without txn.read_only.completed"),
        };
        if completed > begun {
            fail(&format!("txn.read_only.completed={completed} exceeds begun={begun}"));
        }
    }
    if let Some(lag) = metrics.get("repl.follower.lag") {
        match lag.as_i64() {
            Some(n) if n >= 0 => {}
            Some(n) => fail(&format!(
                "repl.follower.lag={n}: a follower ahead of the primary's shipped position \
                 means the sample pair was read out of order"
            )),
            None => fail("repl.follower.lag is not an integer"),
        }
    }
    if let (Some(acked), Some(shipped)) =
        (metrics.get("repl.acked.ticket"), metrics.get("repl.shipped.ticket"))
    {
        let acked = as_u64(acked, "repl.acked.ticket");
        let shipped = as_u64(shipped, "repl.shipped.ticket");
        if acked > shipped {
            fail(&format!(
                "repl.acked.ticket={acked} exceeds shipped={shipped}: a follower acked \
                 frames the primary never sent"
            ));
        }
    }
    if let Some(opened) = metrics.get("net.sessions.opened") {
        let opened = as_u64(opened, "net.sessions.opened");
        let closed = match metrics.get("net.sessions.closed") {
            Some(c) => as_u64(c, "net.sessions.closed"),
            None => fail("net.sessions.opened present without net.sessions.closed"),
        };
        if closed > opened {
            fail(&format!("net.sessions.closed={closed} exceeds opened={opened}"));
        }
    }
    ["txn.begun", "txn.committed", "txn.aborted"].iter().all(|k| metrics.contains_key(*k))
}

/// The last dump of a stream is the process's exit state: every reader
/// that began must have completed, and no horizon pin may survive —
/// a leak here means a `ReadTx` escaped its scope without dropping.
fn check_final(line: &str) {
    let parsed: Value = serde_json::from_str(line).expect("already validated by check_line");
    let metrics = parsed["hcc_metrics"].as_object().expect("already validated");
    check_lock_waits(metrics, true);
    let begun = match metrics.get("txn.read_only.begun") {
        Some(b) => as_u64(b, "txn.read_only.begun"),
        None => return, // pre-read-path dump shape: nothing to hold to
    };
    let completed = as_u64(&metrics["txn.read_only.completed"], "txn.read_only.completed");
    if completed != begun {
        fail(&format!(
            "final dump: {} read transaction(s) begun but only {} completed",
            begun, completed
        ));
    }
    if let Some(pins) = metrics.get("horizon.pins") {
        match pins.as_i64() {
            Some(0) => {}
            Some(n) => fail(&format!("final dump: horizon.pins={n}, a reader leaked its pin")),
            None => fail("horizon.pins is not an integer"),
        }
    }
}

/// Dumps fire at `Db` drop, so any dump carrying `net.queue.depth` is a
/// server's end-of-life state: a drained server must show an empty
/// queue. Applied to the *last* network dump of the stream (a stream
/// may interleave server and verifier processes).
fn check_final_net(line: &str) {
    let parsed: Value = serde_json::from_str(line).expect("already validated by check_line");
    let metrics = parsed["hcc_metrics"].as_object().expect("already validated");
    match metrics["net.queue.depth"].as_i64() {
        Some(0) => {}
        Some(n) => fail(&format!(
            "final network dump: net.queue.depth={n}, the drain left admitted work unanswered"
        )),
        None => fail("net.queue.depth is not an integer"),
    }
}

/// The last dump carrying follower gauges is the follower's exit state:
/// a demo or harness shuts its follower down only after convergence, so
/// a nonzero final lag means replication stalled short of the primary.
fn check_final_repl(line: &str) {
    let parsed: Value = serde_json::from_str(line).expect("already validated by check_line");
    let metrics = parsed["hcc_metrics"].as_object().expect("already validated");
    match metrics["repl.follower.lag"].as_i64() {
        Some(0) => {}
        Some(n) => fail(&format!(
            "final replication dump: repl.follower.lag={n}, the follower exited unconverged"
        )),
        None => fail("repl.follower.lag is not an integer"),
    }
}

fn main() {
    let mut input = String::new();
    std::io::stdin().read_to_string(&mut input).unwrap_or_else(|e| {
        fail(&format!("cannot read stdin: {e}"));
    });
    let mut lines = 0u64;
    let mut with_txn_core = 0u64;
    let mut last_dump = None;
    let mut last_net_dump = None;
    let mut last_repl_dump = None;
    for line in input.lines() {
        let line = line.trim();
        if !line.starts_with("{\"hcc_metrics\"") {
            continue;
        }
        lines += 1;
        if check_line(line) {
            with_txn_core += 1;
        }
        if line.contains("\"net.queue.depth\"") {
            last_net_dump = Some(line);
        }
        if line.contains("\"repl.follower.lag\"") {
            last_repl_dump = Some(line);
        }
        last_dump = Some(line);
    }
    if lines == 0 {
        fail("no hcc_metrics line found in input (was HCC_METRICS=json set?)");
    }
    if with_txn_core == 0 {
        fail("no dump carried txn.begun/txn.committed/txn.aborted");
    }
    if let Some(last) = last_dump {
        check_final(last);
    }
    if let Some(last) = last_net_dump {
        check_final_net(last);
    }
    if let Some(last) = last_repl_dump {
        check_final_repl(last);
    }
    println!("obscheck: OK ({lines} dump(s), {with_txn_core} with core txn counters)");
}
