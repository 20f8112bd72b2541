//! What an unsound table looks like: drop one atom from the queue's
//! derived relation and let the checker produce its minimized
//! counterexample — the mutation experiment `adtcheck`'s CI negative
//! test runs, as a human-readable walkthrough (pasted into
//! `docs/CHECKING.md`).
//!
//! ```text
//! cargo run --release -p hcc-check --example drop_atom
//! ```

use hcc_check::{check_soundness, render_counterexample, CheckInput, Depth};
use hcc_relations::tables::AdtConfig;

fn main() {
    let input = CheckInput::from_adt_config(AdtConfig::queue());
    println!("FIFO-Queue stated atoms:");
    for atom in input.relation.atoms() {
        println!("    {atom:?}");
    }

    for atom in input.relation.atoms().clone() {
        let weakened = input.without_atom(&atom);
        let report = check_soundness(&weakened, Depth::new(3));
        println!("\nwithout {atom:?} — {} schedules searched:", report.schedules);
        match &report.counterexample {
            Some(cex) => print!("{}", render_counterexample(&weakened.name, cex)),
            None => {
                println!("{}: still sound (the atom is conservative at this depth)", weakened.name)
            }
        }
    }
}
