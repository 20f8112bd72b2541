//! `adtcheck` — the static soundness verdict for every bundled type.
//!
//! ```text
//! adtcheck --all [--depth K] [--no-conservatism] [--no-deadlock] [--invariance defined|all|off]
//! adtcheck --type <Name> [...]      audit one registered type
//! adtcheck --list                   list registered type names
//! ```
//!
//! For each selected type: run the bounded soundness search (admitted
//! two-transaction schedules vs. the hybrid-atomicity oracle), the
//! per-atom conservatism probe, the possible-waits deadlock analysis,
//! and (per `--invariance`) the doubled-bounds derivation self-check.
//! Exit status 1 if any table is unsound or any derivation bounds
//! drift — the CI gate.

use hcc_check::report::{render_detail, render_verdict_table, TypeVerdict};
use hcc_check::soundness::{atom_necessity, check_soundness, Depth};
use hcc_check::{deadlock_potential, registry};
use hcc_relations::derive::check_bounds_invariance;
use std::time::Instant;

struct Options {
    select: Select,
    depth: usize,
    conservatism: bool,
    deadlock: bool,
    invariance: Invariance,
}

enum Select {
    All,
    One(String),
    List,
}

#[derive(PartialEq)]
enum Invariance {
    /// Only `define_adt!` types (the built-ins' convergence is pinned by
    /// `hcc-relations`' own release-mode test) — the default.
    Defined,
    All,
    Off,
}

fn usage() -> ! {
    eprintln!(
        "usage: adtcheck (--all | --type <Name> | --list) [--depth K] \
         [--no-conservatism] [--no-deadlock] [--invariance defined|all|off]"
    );
    std::process::exit(2)
}

fn parse(args: &[String]) -> Options {
    let mut opts = Options {
        select: Select::All,
        depth: 3,
        conservatism: true,
        deadlock: true,
        invariance: Invariance::Defined,
    };
    let mut selected = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => selected = true,
            "--list" => {
                opts.select = Select::List;
                selected = true;
            }
            "--type" => {
                i += 1;
                let name = args.get(i).unwrap_or_else(|| usage());
                opts.select = Select::One(name.clone());
                selected = true;
            }
            "--depth" => {
                i += 1;
                opts.depth = args.get(i).and_then(|d| d.parse().ok()).unwrap_or_else(|| usage());
                if opts.depth == 0 {
                    usage();
                }
            }
            "--no-conservatism" => opts.conservatism = false,
            "--no-deadlock" => opts.deadlock = false,
            "--invariance" => {
                i += 1;
                opts.invariance = match args.get(i).map(String::as_str) {
                    Some("defined") => Invariance::Defined,
                    Some("all") => Invariance::All,
                    Some("off") => Invariance::Off,
                    _ => usage(),
                };
            }
            _ => usage(),
        }
        i += 1;
    }
    if !selected {
        usage();
    }
    opts
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&args);

    let mut entries = registry();
    match &opts.select {
        Select::List => {
            for e in &entries {
                println!("{}", e.input.name);
            }
            return;
        }
        Select::One(name) => {
            entries.retain(|e| e.input.name == *name);
            if entries.is_empty() {
                eprintln!("adtcheck: unknown type {name:?} (try --list)");
                std::process::exit(2);
            }
        }
        Select::All => {}
    }

    let depth = Depth::new(opts.depth);
    let mut verdicts = Vec::new();
    for entry in &entries {
        let start = Instant::now();
        let soundness = check_soundness(&entry.input, depth);
        // Probing atom necessity of an unsound table reports noise;
        // surface the unsoundness alone.
        let run_necessity = opts.conservatism && soundness.sound();
        let necessity =
            if run_necessity { atom_necessity(&entry.input, depth) } else { Vec::new() };
        let cycles =
            if opts.deadlock { deadlock_potential(&entry.input, depth.setup) } else { Vec::new() };
        let run_invariance = match opts.invariance {
            Invariance::All => true,
            Invariance::Defined => entry.defined,
            Invariance::Off => false,
        };
        let invariance = run_invariance.then(|| {
            check_bounds_invariance(&entry.derive).map(|_| ()).map_err(|drift| drift.to_string())
        });
        verdicts.push(TypeVerdict {
            name: entry.input.name.clone(),
            atoms: entry.input.relation.atoms().len(),
            depth,
            soundness,
            necessity,
            necessity_checked: run_necessity,
            cycles,
            cycles_checked: opts.deadlock,
            invariance,
            millis: start.elapsed().as_millis(),
        });
    }

    println!("adtcheck: depth {depth} over {} type(s)\n", verdicts.len());
    print!("{}", render_verdict_table(&verdicts));
    let details: Vec<String> =
        verdicts.iter().map(render_detail).filter(|d| !d.is_empty()).collect();
    if !details.is_empty() {
        println!();
        for d in details {
            print!("{d}");
        }
    }

    if verdicts.iter().any(|v| v.failed()) {
        std::process::exit(1);
    }
}
