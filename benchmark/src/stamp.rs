//! The environment stamp: what a result must match on before it may be
//! compared with another (a 1-vCPU run is never held against an 8-core
//! one, an ext4 fsync never against a tmpfs one).

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::hist::median;
use crate::json::{obj, Value};

/// `fdatasync` calls the probe times.
const SYNC_PROBES: usize = 200;

/// Median µs of [`SYNC_PROBES`] × (write 512 bytes, `fdatasync`) on a
/// file in `dir` — the floor under every fsynced commit here.
fn fdatasync_p50_us(dir: &Path) -> Option<f64> {
    let path = dir.join(format!("fsync-probe-{}", std::process::id()));
    let mut file = std::fs::File::create(&path).ok()?;
    let block = [0u8; 512];
    let mut samples = Vec::with_capacity(SYNC_PROBES);
    for _ in 0..SYNC_PROBES {
        let start = Instant::now();
        file.write_all(&block).ok()?;
        file.sync_data().ok()?;
        samples.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(file);
    let _ = std::fs::remove_file(&path);
    Some(median(&mut samples))
}

/// The type of the filesystem holding `dir`: the longest mount point in
/// `/proc/mounts` that is a prefix of it.
fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else { return "unknown".into() };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else { return "unknown".into() };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_device, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs.to_string())
}

/// The checked-out commit, read from `.git` without running git;
/// "unknown" outside a repository (the driver's checkouts are not one).
fn git_commit(repo: &Path) -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&repo.join(".git/HEAD")) else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(commit) = read(&repo.join(".git").join(reference)) {
        return commit;
    }
    read(&repo.join(".git/packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|commit| commit.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The stamp as a JSON object (integers and strings only).
pub fn stamp(benchmark_dir: &Path) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Probe where the databases live; the directory goes again unless
    // another run is using it.
    let work = benchmark_dir.join("work");
    let _ = std::fs::create_dir_all(&work);
    let fdatasync = fdatasync_p50_us(&work).map_or(-1, |us| us.round() as i64);
    let filesystem = filesystem_of(&work);
    let _ = std::fs::remove_dir(&work);
    let repo = benchmark_dir.parent().unwrap_or(benchmark_dir);
    obj([
        ("nproc", Value::Int(nproc as i64)),
        ("fdatasync_p50_us", Value::Int(fdatasync)),
        ("filesystem", Value::Str(filesystem)),
        ("rustc", Value::Str(env!("HCC_BENCHMARK_RUSTC").into())),
        ("git_commit", Value::Str(git_commit(repo))),
    ])
}
