//! `BENCHMARK.json` as the benchmark reads it, the ledger (`BENCH_<pr>.json`:
//! medians and quartiles of repeated runs, integers only), and `compare`,
//! which holds one ledger against another under the bounds.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::hist::median;
use crate::json::{self, obj, Value};
use crate::metrics::{Better, Metric, END_TO_END, PER_LAYER};
use crate::sut::Fallible;
use crate::workload::{Workload, WORKLOADS};

// ---------------------------------------------------------------------
// BENCHMARK.json
// ---------------------------------------------------------------------

pub struct Bounded {
    pub name: &'static str,
    pub better: Better,
    /// Share of the base's median the metric may worsen by.
    pub bound: f64,
}

pub struct Spec {
    pub run_seconds: u64,
    pub end_to_end: Vec<Bounded>,
}

fn field<'a>(v: &'a Value, key: &str) -> Fallible<&'a Value> {
    v.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

fn text_field<'a>(v: &'a Value, key: &str) -> Fallible<&'a str> {
    field(v, key)?.as_str().ok_or_else(|| format!("{key:?} is not a string"))
}

fn list_field<'a>(v: &'a Value, key: &str) -> Fallible<&'a [Value]> {
    field(v, key)?.as_arr().ok_or_else(|| format!("{key:?} is not a list"))
}

/// Hold one section of `BENCHMARK.json` against the catalogue in
/// `metrics.rs`: same names in the same order, same units and direction.
fn check_section(listed: &[Value], catalogue: &[Metric], section: &str) -> Fallible<()> {
    if listed.len() != catalogue.len() {
        return Err(format!(
            "{section}: BENCHMARK.json lists {} metrics, the benchmark prints {}",
            listed.len(),
            catalogue.len()
        ));
    }
    for (entry, metric) in listed.iter().zip(catalogue) {
        let (name, unit, better) =
            (text_field(entry, "name")?, text_field(entry, "unit")?, text_field(entry, "better")?);
        if (name, unit, better) != (metric.name, metric.unit, metric.better.label()) {
            return Err(format!(
                "{section}: BENCHMARK.json has {name} [{unit}, {better}] where the benchmark \
                 prints {} [{}, {}]",
                metric.name,
                metric.unit,
                metric.better.label()
            ));
        }
    }
    Ok(())
}

impl Spec {
    /// Read `BENCHMARK.json` and refuse it if it disagrees with what the
    /// benchmark implements.
    pub fn load(path: &Path) -> Fallible<Spec> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn parse(text: &str) -> Fallible<Spec> {
        let doc = json::parse(text)?;
        let names: Vec<&str> = list_field(&doc, "workloads")?
            .iter()
            .map(|w| text_field(w, "name"))
            .collect::<Fallible<_>>()?;
        if !names.iter().copied().eq(WORKLOADS.iter().map(|w| w.name)) {
            return Err(format!("workloads {names:?} are not the ones the benchmark implements"));
        }
        let listed = list_field(&doc, "end_to_end")?;
        check_section(listed, &END_TO_END, "end_to_end")?;
        check_section(list_field(&doc, "per_layer")?, &PER_LAYER, "per_layer")?;
        let end_to_end = listed
            .iter()
            .zip(&END_TO_END)
            .map(|(entry, metric)| {
                let bound = field(entry, "bound")?.as_f64().ok_or("bound is not a number")?;
                Ok(Bounded { name: metric.name, better: metric.better, bound })
            })
            .collect::<Fallible<_>>()?;
        let run_seconds = field(&doc, "run_seconds")?.as_i64().ok_or("run_seconds")? as u64;
        Ok(Spec { run_seconds, end_to_end })
    }
}

// ---------------------------------------------------------------------
// Building a ledger.
// ---------------------------------------------------------------------

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the rule the acceptance check uses).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len < 2 {
        let only = data.first().copied().unwrap_or(0.0);
        return (only, only, only);
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Ledger values are integers: millionths of the metric's unit (a 35 µs
/// set-up in seconds still has two digits).
fn micro(v: f64) -> Value {
    Value::Int((v * 1e6).round() as i64)
}

fn summarise(metric: &Metric, values: &[f64]) -> Value {
    let (q1, _, q3) = quartiles(values);
    obj([
        ("name", Value::Str(metric.name.into())),
        ("unit", Value::Str(metric.unit.into())),
        ("median_micro", micro(median(&mut values.to_vec()))),
        ("q1_micro", micro(q1)),
        ("q3_micro", micro(q3)),
        ("runs", Value::Int(values.len() as i64)),
    ])
}

struct ChildRun {
    info: Value,
    result: Value,
}

/// Run this same binary as the driver would, and read back its info line
/// (first) and result line (last).
fn child_run(w: &Workload, seed: u64, seconds: u64, trace: bool) -> Fallible<ChildRun> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["run", "--workload", w.name])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("{} seed {seed} trace {trace}: exited with {}", w.name, output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().filter(|l| !l.trim().is_empty());
    let info = json::parse(lines.next().ok_or("run printed nothing")?)?;
    let result = json::parse(lines.next_back().ok_or("run printed no result line")?)?;
    if result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{} seed {seed}: outputs were not correct", w.name));
    }
    Ok(ChildRun { info, result })
}

fn settings_of(w: &Workload) -> Value {
    obj([
        ("clients", Value::Int(w.clients as i64)),
        ("depth", Value::Int(w.depth as i64)),
        ("max_in_flight", Value::Int(i64::from(w.in_flight))),
        ("server_workers", Value::Int(w.workers as i64)),
        ("durability", Value::Str(w.durable.label().into())),
        ("accounts", Value::Int(w.accounts as i64)),
        ("queue_items", Value::Int(w.queue_items as i64)),
    ])
}

/// Runs `runs` untraced and `runs` traced runs of every workload, seeds
/// `seed`, `seed + 1`, …, each in a process of its own, and returns the
/// ledger.
pub fn build(stamp: Value, seed: u64, runs: u64, seconds: u64) -> Fallible<Value> {
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let mut sections = Vec::new();
        let mut digests = Vec::new();
        let (mut attempted, mut failed) = (0i64, 0i64);
        for (trace, catalogue, key) in
            [(false, &END_TO_END[..], "end_to_end"), (true, &PER_LAYER[..], "per_layer")]
        {
            let mut columns: Vec<Vec<f64>> = vec![Vec::new(); catalogue.len()];
            for run in 0..runs {
                eprintln!("ledger: {} {key} run {}/{runs}", w.name, run + 1);
                let child = child_run(w, seed + run, seconds, trace)?;
                let metrics = field(&child.result, "metrics")?;
                for (column, metric) in columns.iter_mut().zip(catalogue) {
                    let value = field(field(metrics, metric.name)?, "value")?;
                    column.push(value.as_f64().ok_or("metric value is not a number")?);
                }
                attempted += field(&child.result, "attempted")?.as_i64().unwrap_or(0);
                failed += field(&child.result, "failed")?.as_i64().unwrap_or(0);
                if !trace {
                    digests.push(field(&child.info, "ops_digest")?.clone());
                }
            }
            let rows =
                catalogue.iter().zip(&columns).map(|(metric, c)| summarise(metric, c)).collect();
            sections.push((key, Value::Arr(rows)));
        }
        let mut entry = vec![
            ("name".to_string(), Value::Str(w.name.into())),
            ("settings".to_string(), settings_of(w)),
            ("ops_digests".to_string(), Value::Arr(digests)),
            ("attempted".to_string(), Value::Int(attempted)),
            ("failed".to_string(), Value::Int(failed)),
        ];
        entry.extend(sections.into_iter().map(|(k, v)| (k.to_string(), v)));
        workloads.push(Value::Obj(entry));
    }
    Ok(obj([
        ("stamp", stamp),
        ("seed", Value::Int(seed as i64)),
        ("runs", Value::Int(runs as i64)),
        ("run_seconds", Value::Int(seconds as i64)),
        ("workloads", Value::Arr(workloads)),
    ]))
}

// ---------------------------------------------------------------------
// Comparing two ledgers.
// ---------------------------------------------------------------------

struct Row {
    median: f64,
    /// Distance between the quartiles as a share of the median.
    spread: f64,
}

fn row_of(section: &[Value], name: &str) -> Fallible<Row> {
    let entry = section
        .iter()
        .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
        .ok_or_else(|| format!("ledger has no {name}"))?;
    let read = |key: &str| -> Fallible<f64> {
        Ok(field(entry, key)?.as_f64().ok_or("not a number")? / 1e6)
    };
    let (median, q1, q3) = (read("median_micro")?, read("q1_micro")?, read("q3_micro")?);
    let spread = if median == 0.0 { 0.0 } else { (q3 - q1).abs() / median.abs() };
    Ok(Row { median, spread })
}

/// Stamp fields two ledgers must agree on to be comparable. The commit
/// may differ (comparing commits is the point) and so may the fsync
/// probe, which is a measurement.
const MUST_MATCH: [&str; 3] = ["nproc", "filesystem", "rustc"];

fn refuse_mismatched(a: &Value, b: &Value) -> Fallible<()> {
    let (sa, sb) = (field(a, "stamp")?, field(b, "stamp")?);
    for key in MUST_MATCH {
        if sa.get(key) != sb.get(key) {
            return Err(format!(
                "stamps differ on {key}: {:?} against {:?}; not comparable",
                sa.get(key),
                sb.get(key)
            ));
        }
    }
    for key in ["seed", "runs", "run_seconds"] {
        if a.get(key) != b.get(key) {
            return Err(format!("ledgers differ on {key}; not comparable"));
        }
    }
    Ok(())
}

/// How much worse `new` is than `base`, as a share of `base` (negative:
/// better).
fn worsening(better: Better, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

/// Three decimals, or six for a figure below 1 (a set-up time in seconds).
fn figure(v: f64) -> String {
    if v.abs() < 1.0 {
        format!("{v:.6}")
    } else {
        format!("{v:.3}")
    }
}

/// Print one row per (workload, metric); `Ok(false)` when an end-to-end
/// metric got worse by more than its bound.
pub fn compare(base: &Value, new: &Value, spec: &Spec) -> Fallible<bool> {
    refuse_mismatched(base, new)?;
    let mut within = true;
    println!(
        "{:<22} {:<32} {:>14} {:>14} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "new", "new/base", "spread", "bound"
    );
    let base_workloads = list_field(base, "workloads")?;
    for entry in list_field(new, "workloads")? {
        let name = text_field(entry, "name")?;
        let base_entry = base_workloads
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
            .ok_or_else(|| format!("base ledger has no workload {name}"))?;
        if entry.get("ops_digests") != base_entry.get("ops_digests") {
            return Err(format!("{name}: the two ledgers ran different request streams"));
        }
        for bounded in &spec.end_to_end {
            let a = row_of(list_field(base_entry, "end_to_end")?, bounded.name)?;
            let b = row_of(list_field(entry, "end_to_end")?, bounded.name)?;
            let spread = a.spread.max(b.spread);
            let worse = worsening(bounded.better, a.median, b.median);
            // The set-up time's spread is not held to its bound: it is
            // a median of repeats already, and the contract exempts it.
            let verdict = if spread > bounded.bound && bounded.name != "setup_s" {
                "unresolved"
            } else if worse > bounded.bound {
                within = false;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "{:<22} {:<32} {:>14} {:>14} {:>7.3} {:>6.1}% {:>5.0}%  {verdict}",
                name,
                bounded.name,
                figure(a.median),
                figure(b.median),
                if a.median == 0.0 { 1.0 } else { b.median / a.median },
                spread * 100.0,
                bounded.bound * 100.0
            );
        }
        for metric in &PER_LAYER {
            let a = row_of(list_field(base_entry, "per_layer")?, metric.name)?;
            let b = row_of(list_field(entry, "per_layer")?, metric.name)?;
            println!(
                "{:<22} {:<32} {:>14} {:>14} {:>7.3} {:>6.1}% {:>6}  layer",
                name,
                metric.name,
                figure(a.median),
                figure(b.median),
                if a.median == 0.0 { 1.0 } else { b.median / a.median },
                a.spread.max(b.spread) * 100.0,
                "-"
            );
        }
    }
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 3.0, 4.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn the_repository_spec_agrees_with_the_catalogue() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = Spec::load(&path).expect("BENCHMARK.json matches metrics.rs and workload.rs");
        assert!(spec.end_to_end.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!((1..=60).contains(&spec.run_seconds));
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
    }

    fn ledger(p50_micro: i64, q1: i64, q3: i64, nproc: i64) -> Value {
        let row = |name: &str, median: i64, q1: i64, q3: i64| {
            obj([
                ("name", Value::Str(name.into())),
                ("median_micro", Value::Int(median)),
                ("q1_micro", Value::Int(q1)),
                ("q3_micro", Value::Int(q3)),
            ])
        };
        let e2e: Vec<Value> = END_TO_END
            .iter()
            .map(|m| match m.name {
                "commit_p50_us" => row(m.name, p50_micro, q1, q3),
                name => row(name, 1000, 1000, 1000),
            })
            .collect();
        let layers: Vec<Value> = PER_LAYER.iter().map(|m| row(m.name, 5, 5, 5)).collect();
        let workloads = WORKLOADS
            .iter()
            .map(|w| {
                obj([
                    ("name", Value::Str(w.name.into())),
                    ("ops_digests", Value::Arr(vec![Value::Str("ab".into())])),
                    ("end_to_end", Value::Arr(e2e.clone())),
                    ("per_layer", Value::Arr(layers.clone())),
                ])
            })
            .collect();
        obj([
            ("stamp", obj([("nproc", Value::Int(nproc))])),
            ("seed", Value::Int(1)),
            ("workloads", Value::Arr(workloads)),
        ])
    }

    fn spec() -> Spec {
        let end_to_end = END_TO_END
            .iter()
            .map(|m| Bounded { name: m.name, better: m.better, bound: 0.1 })
            .collect();
        Spec { run_seconds: 10, end_to_end }
    }

    #[test]
    fn compare_passes_equal_flags_regression_and_refuses_other_machines() {
        let base = ledger(40_000, 39_500, 40_500, 2);
        assert_eq!(compare(&base, &base, &spec()), Ok(true));
        let slower = ledger(50_000, 49_500, 50_500, 2);
        assert_eq!(compare(&base, &slower, &spec()), Ok(false));
        // Too noisy to tell: unresolved, not a regression.
        let noisy = ledger(50_000, 40_000, 60_000, 2);
        assert_eq!(compare(&base, &noisy, &spec()), Ok(true));
        let other_machine = ledger(40_000, 39_500, 40_500, 8);
        assert!(compare(&base, &other_machine, &spec()).is_err());
    }
}
