//! The network front door end to end, with a *real* crash: an
//! `hcc-server` process serving a durable [`Db`], client processes
//! speaking the `hcc-wire` protocol, a SIGABRT mid-load, reconnection
//! through an address file, and log-vs-ack verification.
//!
//! ```text
//! cargo run --release --example server_client -- serve <dir> <addr_file> [abort_after]
//!     open <dir> durably (compaction off) and serve it on an
//!     OS-chosen port, publishing host:port to <addr_file>; with
//!     [abort_after], call std::process::abort() once that many
//!     transactions have committed — a real SIGABRT under live load.
//!     Without it, exit by draining when a client sends Shutdown.
//! cargo run --release --example server_client -- drive <addr_file> <txns> <seed> <report>
//!     run one randomized socket client (reconnecting through
//!     <addr_file> as needed) and write its ack record to <report>
//! cargo run --release --example server_client -- verify <dir> <report>...
//!     recover <dir>, check the history hybrid atomic, and hold the
//!     log against every client's ack record (no acked commit may be
//!     missing)
//! cargo run --release --example server_client -- demo <dir>
//!     one-process tour: in-process server, three client threads,
//!     graceful drain, then full verification
//! cargo run --release --example server_client -- crash <dir>
//!     the whole story as separate processes: serve with an abort
//!     fuse, three drivers, SIGABRT mid-load, a healed server on a
//!     fresh port, client reconnection, a clean drain via Shutdown,
//!     then verification
//! ```
//!
//! What the verifier proves is the network rendition of the paper's
//! recovery claim: every commit a client was *acked* survives the
//! process crash in the recovered log with exactly the acked effects —
//! never lost, never applied twice, never applied differently. Both
//! durability levels promise that much: a commit reaches the OS before
//! its ack.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hybrid_cc::server::{serve_with, ServerOptions};
use hybrid_cc::storage::CompactionPolicy;
use hybrid_cc::workload::socket::{
    connect_via, publish_addr, read_report, run_socket_client, verify_socket_recovery,
    write_report, SocketClientOptions,
};
use hybrid_cc::Db;

fn open_db(dir: &str) -> Arc<Db> {
    // Compaction stays off so the log remains the complete history the
    // verifier folds; HCC_DURABILITY still picks the CI matrix level.
    Arc::new(
        Db::builder()
            .segment_max_bytes(4096)
            .compaction(CompactionPolicy::never())
            .env_overrides()
            .open(dir)
            .expect("open database"),
    )
}

fn serve(dir: &str, addr_file: &str, abort_after: Option<u64>) {
    let db = open_db(dir);
    let handle =
        serve_with(db.clone(), "127.0.0.1:0", ServerOptions::default()).expect("bind server");
    publish_addr(Path::new(addr_file), &handle.local_addr().to_string()).expect("publish addr");
    eprintln!(
        "serving {dir} on {} ({} tail commits recovered{})",
        handle.local_addr(),
        db.recovery_report().replayed,
        match abort_after {
            Some(n) => format!(", abort fuse at {n}"),
            None => String::new(),
        }
    );
    if let Some(fuse) = abort_after {
        // `committed_count` counts this session's commits, so the fuse
        // blows under *live* load, never on replayed history. No
        // cleanup, no Drop, no flush — whatever the OS has is what
        // recovery gets.
        std::thread::spawn(move || loop {
            if db.committed_count() >= fuse {
                eprintln!("== abort fuse blown: SIGABRT after {fuse} new commits ==");
                std::process::abort();
            }
            std::thread::sleep(Duration::from_millis(2));
        });
    }
    handle.wait_for_shutdown_request();
    eprintln!("shutdown requested; draining");
    handle.drain();
}

fn drive(addr_file: &str, txns: usize, seed: u64, report_path: &str) {
    let opts = SocketClientOptions { seed, txns, deadline: Duration::from_secs(120) };
    let report = run_socket_client(Path::new(addr_file), opts).expect("socket client run");
    write_report(Path::new(report_path), &report).expect("write report");
    eprintln!(
        "driver seed={seed}: acked={} unknown={} aborted={} reconnects={}",
        report.acked.len(),
        report.unknown,
        report.aborted,
        report.reconnects
    );
}

fn verify(dir: &str, report_paths: &[String]) {
    let reports: Vec<_> =
        report_paths.iter().map(|p| read_report(Path::new(p)).expect("read report")).collect();
    let verdict = verify_socket_recovery(Path::new(dir), &reports).expect("verify recovery");
    println!(
        "verified: {} recovered commits, all {} acked commits present",
        verdict.recovered, verdict.acked
    );
}

fn demo(dir: &str) {
    let addr_file = format!("{dir}.addr");
    let db = open_db(dir);
    let handle =
        serve_with(db.clone(), "127.0.0.1:0", ServerOptions::default()).expect("bind server");
    publish_addr(Path::new(&addr_file), &handle.local_addr().to_string()).expect("publish addr");
    println!("demo server on {}", handle.local_addr());

    let drivers: Vec<_> = (0..3u64)
        .map(|i| {
            let addr_file = addr_file.clone();
            std::thread::spawn(move || {
                run_socket_client(
                    Path::new(&addr_file),
                    SocketClientOptions { seed: 0xD0_D0 + i, txns: 30, ..Default::default() },
                )
                .expect("driver run")
            })
        })
        .collect();
    let reports: Vec<_> = drivers.into_iter().map(|d| d.join().expect("join")).collect();
    handle.drain();
    drop(db);

    let acks: Vec<_> = reports.iter().map(|r| r.acked.clone()).collect();
    // A graceful drain answers everything it admitted and closes the
    // store in order: nothing acked may be missing.
    let verdict = verify_socket_recovery(Path::new(dir), &acks).expect("verify recovery");
    println!(
        "demo verified: {} commits recovered, all {} acked commits present",
        verdict.recovered, verdict.acked
    );
    let _ = std::fs::remove_file(&addr_file);
}

fn crash(dir: &str) {
    let exe = std::env::current_exe().expect("current exe");
    let addr_file = format!("{dir}.addr");
    let _ = std::fs::remove_file(&addr_file);

    let spawn_serve = |fuse: Option<u64>| {
        let mut cmd = Command::new(&exe);
        cmd.arg("serve").arg(dir).arg(&addr_file);
        if let Some(n) = fuse {
            cmd.arg(n.to_string());
        }
        cmd.spawn().expect("spawn server")
    };
    let mut server = spawn_serve(Some(40));

    let report_paths: Vec<PathBuf> =
        (0..3).map(|i| PathBuf::from(format!("{dir}.report{i}"))).collect();
    let mut drivers: Vec<_> = report_paths
        .iter()
        .enumerate()
        .map(|(i, report)| {
            Command::new(&exe)
                .arg("drive")
                .arg(&addr_file)
                .arg("50")
                .arg((0xCAFE + i as u64).to_string())
                .arg(report)
                .spawn()
                .expect("spawn driver")
        })
        .collect();

    // Phase 1: the fuse blows under live load — the server must die by
    // SIGABRT, never exit(0).
    let died = server.wait().expect("wait server");
    assert!(!died.success(), "server must die by SIGABRT, got {died:?}");
    eprintln!("server died mid-load ({died:?}); healing on a fresh port");

    // Phase 2: heal. Same store, new process, new port, same address
    // file — the drivers find it and resume without resending anything
    // whose outcome they don't know.
    let mut server = spawn_serve(None);
    for d in &mut drivers {
        assert!(d.wait().expect("wait driver").success(), "driver failed");
    }

    // Phase 3: a clean exit to hand the verifier a closed store — any
    // authenticated session may request the drain.
    let mut shutdown = connect_via(Path::new(&addr_file), Instant::now(), Duration::from_secs(30))
        .expect("connect for shutdown");
    shutdown.shutdown_server().expect("request shutdown");
    assert!(server.wait().expect("wait healed server").success(), "drain exits cleanly");

    // Phase 4: hold the recovered log against every driver's acks.
    let reports: Vec<_> =
        report_paths.iter().map(|p| read_report(p).expect("read report")).collect();
    let verdict = verify_socket_recovery(Path::new(dir), &reports).expect("verify recovery");
    assert!(verdict.acked > 0, "drivers acked something");
    println!(
        "crash cycle verified: {} commits recovered, all {} acked commits present",
        verdict.recovered, verdict.acked
    );
    let _ = std::fs::remove_file(&addr_file);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("serve") => serve(&args[2], &args[3], args.get(4).map(|n| n.parse().unwrap())),
        Some("drive") => {
            drive(&args[2], args[3].parse().unwrap(), args[4].parse().unwrap(), &args[5])
        }
        Some("verify") => verify(&args[2], &args[3..]),
        Some("demo") => demo(&args[2]),
        Some("crash") => crash(&args[2]),
        _ => {
            eprintln!(
                "usage: server_client serve <dir> <addr_file> [abort_after] \
                 | drive <addr_file> <txns> <seed> <report> \
                 | verify <dir> <report>... | demo <dir> | crash <dir>"
            );
            std::process::exit(2);
        }
    }
}
