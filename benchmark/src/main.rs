//! `hcc-benchmark`: the repository's benchmark, from client socket to
//! replica apply. See `benchmark/README.md`.
//!
//! ```text
//! hcc-benchmark [run] --workload W --seed N --seconds S --trace 0|1
//! hcc-benchmark trace --workload W --seed N [--seconds S]
//! hcc-benchmark --smoke
//! hcc-benchmark ledger --seed N --runs R --out FILE
//! hcc-benchmark compare BASE.json NEW.json
//! ```

mod drive;
mod hist;
mod json;
mod lanes;
mod ledger;
mod metrics;
mod prng;
mod run;
mod stamp;
mod sut;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::{obj, Value};
use metrics::{Metric, END_TO_END, PER_LAYER};
use run::Outcome;
use sut::Fallible;
use workload::{Workload, WORKLOADS};

/// The benchmark's directory: `benchmark/` under the current directory
/// when run from the root of a checkout (as the driver does), else where
/// the package was built.
fn benchmark_dir() -> PathBuf {
    let here = Path::new("benchmark");
    if here.join("Cargo.toml").is_file() {
        here.to_path_buf()
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

fn spec_path(benchmark_dir: &Path) -> PathBuf {
    benchmark_dir.join("..").join("BENCHMARK.json")
}

struct Flags {
    positional: Vec<String>,
    named: Vec<(String, String)>,
    smoke: bool,
}

fn parse_flags(args: &[String]) -> Fallible<Flags> {
    let mut flags = Flags { positional: Vec::new(), named: Vec::new(), smoke: false };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.strip_prefix("--") {
            Some("smoke") => flags.smoke = true,
            Some(name) => {
                let value = args.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.named.push((name.to_string(), value.clone()));
            }
            None => flags.positional.push(arg.clone()),
        }
    }
    Ok(flags)
}

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.named.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Fallible<T> {
        match (self.get(name), default) {
            (Some(text), _) => text.parse().map_err(|_| format!("--{name} {text}: not a number")),
            (None, Some(default)) => Ok(default),
            (None, None) => Err(format!("--{name} is required")),
        }
    }

    fn workload(&self) -> Fallible<&'static Workload> {
        let name = self.get("workload").ok_or("--workload is required")?;
        workload::by_name(name).ok_or_else(|| {
            let known: Vec<&str> = workload::all().map(|w| w.name).collect();
            format!("unknown workload {name:?}; the workloads are {known:?}")
        })
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric with its value as measured and its unit.
fn result_line(outcome: &Outcome, catalogue: &[Metric]) -> Value {
    let metrics = outcome
        .metrics
        .iter()
        .zip(catalogue)
        .map(|((name, value), metric)| {
            debug_assert_eq!(*name, metric.name);
            let fields =
                obj([("value", Value::Num(*value)), ("unit", Value::Str(metric.unit.into()))]);
            (metric.name.to_string(), fields)
        })
        .collect();
    obj([
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::Int(outcome.attempted as i64)),
        ("failed", Value::Int(outcome.failed as i64)),
        ("metrics", Value::Obj(metrics)),
    ])
}

/// What else a result carries: the stamp, the seed, the digest of the
/// generated requests and where the time went. Printed first; the
/// result line is last.
fn info_line(w: &Workload, seed: u64, outcome: &Outcome, dir: &Path) -> Value {
    let phases = outcome
        .phases
        .iter()
        .map(|(name, secs)| {
            let name = format!("{}_ms", name.strip_suffix("_s").unwrap_or(name));
            (name, Value::Int((secs * 1e3).round() as i64))
        })
        .collect();
    obj([
        ("workload", Value::Str(w.name.into())),
        ("seed", Value::Int(seed as i64)),
        ("ops_digest", Value::Str(format!("{:016x}", outcome.ops_digest))),
        ("stamp", stamp::stamp(dir)),
        ("phases", Value::Obj(phases)),
    ])
}

fn one_run(w: &'static Workload, seed: u64, seconds: f64, trace: bool) -> Fallible<bool> {
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be above 0".into());
    }
    let dir = benchmark_dir();
    let (outcome, catalogue) = if trace {
        (run::traced(w, seed, seconds, &dir)?, &PER_LAYER[..])
    } else {
        (run::untraced(w, seed, seconds, &dir)?, &END_TO_END[..])
    };
    for violation in &outcome.violations {
        eprintln!("violation: {violation}");
    }
    println!("{}", info_line(w, seed, &outcome, &dir).render());
    println!("{}", result_line(&outcome, catalogue).render());
    Ok(outcome.correct)
}

/// Every workload for a second, untraced and (once) traced: that the
/// result lines have the metrics `BENCHMARK.json` names and that every
/// invariant holds. Not a measurement.
fn smoke() -> Fallible<bool> {
    let dir = benchmark_dir();
    ledger::Spec::load(&spec_path(&dir))?;
    let mut correct = true;
    let mut judge = |w: &Workload, kind: &str, outcome: Outcome| {
        eprintln!("smoke: {} {kind}: {} violations", w.name, outcome.violations.len());
        outcome.violations.iter().for_each(|v| eprintln!("violation: {v}"));
        correct &= outcome.correct && outcome.metrics.iter().all(|(_, v)| v.is_finite());
    };
    for w in &WORKLOADS {
        judge(w, "untraced", run::untraced(w, 1, 1.0, &dir)?);
    }
    judge(&WORKLOADS[0], "traced", run::traced(&WORKLOADS[0], 1, 1.0, &dir)?);
    println!("smoke: {}", if correct { "ok" } else { "FAILED" });
    Ok(correct)
}

fn build_ledger(flags: &Flags) -> Fallible<bool> {
    let dir = benchmark_dir();
    let spec = ledger::Spec::load(&spec_path(&dir))?;
    let seed = flags.number("seed", Some(1u64))?;
    let runs = flags.number("runs", Some(10u64))?;
    let seconds = flags.number("seconds", Some(spec.run_seconds))?;
    let out = flags.get("out").ok_or("--out FILE is required")?;
    let ledger = ledger::build(stamp::stamp(&dir), seed, runs, seconds)?;
    std::fs::write(out, ledger.render_pretty()).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("ledger written to {out}");
    Ok(true)
}

fn compare(flags: &Flags) -> Fallible<bool> {
    let [_, base, new] = flags.positional.as_slice() else {
        return Err("usage: hcc-benchmark compare BASE.json NEW.json".into());
    };
    let read = |path: &String| -> Fallible<Value> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let spec = ledger::Spec::load(&spec_path(&benchmark_dir()))?;
    ledger::compare(&read(base)?, &read(new)?, &spec)
}

fn dispatch(args: &[String]) -> Fallible<bool> {
    let flags = parse_flags(args)?;
    if flags.smoke {
        return smoke();
    }
    match flags.positional.first().map(String::as_str) {
        None | Some("run") => one_run(
            flags.workload()?,
            flags.number("seed", None)?,
            flags.number("seconds", None)?,
            flags.number::<u8>("trace", Some(0))? != 0,
        ),
        Some("trace") => one_run(
            flags.workload()?,
            flags.number("seed", None)?,
            flags.number("seconds", Some(10.0))?,
            true,
        ),
        Some("ledger") => build_ledger(&flags),
        Some("compare") => compare(&flags),
        Some(other) => Err(format!("unknown command {other:?}; see benchmark/README.md")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        // Outputs were wrong, or a comparison found a regression.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hcc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
