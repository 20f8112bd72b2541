//! Derive the paper's conflict tables from nothing but the serial
//! specifications, including the extension types (Counter, Set,
//! Directory) the paper never analyzed.
//!
//! ```text
//! cargo run --release --example derive_tables
//! ```

use hybrid_cc::relations::derive::{commutativity_atoms, conflict_atoms};
use hybrid_cc::relations::minimal::minimal_dependency_relations;
use hybrid_cc::relations::tables::AdtConfig;

fn main() {
    println!("Dependency relations derived from serial specifications\n");
    for (cfg, title) in [
        (AdtConfig::file(), "File (paper Table I)"),
        (AdtConfig::queue(), "FIFO Queue (paper Table II)"),
        (AdtConfig::semiqueue(), "Semiqueue (paper Table IV)"),
        (AdtConfig::account(), "Account (paper Table V)"),
        (AdtConfig::counter(), "Counter (extension)"),
        (AdtConfig::set(), "Set (extension)"),
        (AdtConfig::directory(), "Directory (extension)"),
    ] {
        let title = format!("invalidated-by: {title}");
        println!("{}", cfg.derived(conflict_atoms).render(&title, &cfg.classes));
    }

    println!("failure-to-commute for Account (paper Table VI):");
    let cfg = AdtConfig::account();
    let title = "failure-to-commute: Account";
    println!("{}", cfg.derived(commutativity_atoms).render(title, &cfg.classes));

    println!("All minimal dependency relations of the FIFO queue:");
    let cfg = AdtConfig::queue();
    for (i, atoms) in
        minimal_dependency_relations(cfg.adt.as_ref(), &cfg.alphabet, &cfg.classify, cfg.bounds)
            .iter()
            .enumerate()
    {
        println!("  relation #{}: {:?}", i + 1, atoms.iter().collect::<Vec<_>>());
    }
    println!("\nExactly two — the paper's Tables II and III, found by minimal hitting sets");
    println!("over the Definition-3 violation structure.");
}
