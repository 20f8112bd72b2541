//! Verdict aggregation and rendering for `adtcheck`.

use crate::deadlock::WaitCycle;
use crate::soundness::{AtomNecessity, Counterexample, Depth, SoundnessReport};
use hcc_relations::relation::Atom;
use hcc_spec::Operation;

/// Everything `adtcheck` decided about one type.
pub struct TypeVerdict {
    /// Type name.
    pub name: String,
    /// Stated conflict atoms.
    pub atoms: usize,
    /// The searched depth.
    pub depth: Depth,
    /// The soundness search outcome.
    pub soundness: SoundnessReport,
    /// Per-atom necessity (empty when conservatism reporting is off or
    /// the table is unsound).
    pub necessity: Vec<AtomNecessity>,
    /// Whether necessity probing ran.
    pub necessity_checked: bool,
    /// Minimal possible-wait cycles (empty when the analysis is off).
    pub cycles: Vec<WaitCycle>,
    /// Whether deadlock analysis ran.
    pub cycles_checked: bool,
    /// Outcome of the bounds-invariance self-check, if it ran:
    /// `Some(Err(text))` is drift.
    pub invariance: Option<Result<(), String>>,
    /// Wall-clock cost of this type's analyses.
    pub millis: u128,
}

impl TypeVerdict {
    /// Atoms no bounded violation needs — over-approximations.
    pub fn conservative_atoms(&self) -> Vec<&Atom> {
        self.necessity.iter().filter(|n| n.witness.is_none()).map(|n| &n.atom).collect()
    }

    /// Does anything fail hard (unsound table or drifting bounds)?
    pub fn failed(&self) -> bool {
        !self.soundness.sound() || matches!(self.invariance, Some(Err(_)))
    }
}

fn fmt_ops(ops: &[Operation]) -> String {
    if ops.is_empty() {
        return "ε".to_string();
    }
    ops.iter().map(|o| format!("{o:?}")).collect::<Vec<_>>().join(" ")
}

/// Render the summary table, one row per type. Every column but the
/// trailing `ms` is as wide as its widest cell and covered by the rule;
/// the timings are printed as they come, so no line's layout depends
/// on how long a run took.
pub fn render_verdict_table(verdicts: &[TypeVerdict]) -> String {
    let mut rows: Vec<[String; 7]> = vec![[
        "type".into(),
        "atoms".into(),
        "schedules".into(),
        "sound".into(),
        "conservative".into(),
        "wait-cycles".into(),
        "ms".into(),
    ]];
    for v in verdicts {
        rows.push([
            v.name.clone(),
            v.atoms.to_string(),
            v.soundness.schedules.to_string(),
            if v.soundness.sound() { "yes".into() } else { "UNSOUND".into() },
            if !v.necessity_checked {
                "-".into()
            } else {
                v.conservative_atoms().len().to_string()
            },
            if !v.cycles_checked { "-".into() } else { v.cycles.len().to_string() },
            v.millis.to_string(),
        ]);
    }
    let widths: Vec<usize> =
        (0..6).map(|c| rows.iter().map(|r| r[c].chars().count()).max().unwrap_or(0)).collect();
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        for (c, cell) in row.iter().enumerate() {
            let pad = widths.get(c).map_or(0, |w| w - cell.chars().count());
            if c > 0 {
                out.push_str("  ");
            }
            if c == 0 {
                out.push_str(cell);
                out.push_str(&" ".repeat(pad));
            } else {
                out.push_str(&" ".repeat(pad));
                out.push_str(cell);
            }
        }
        out.push('\n');
        if i == 0 {
            let total = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}

/// Render one minimized counterexample for human consumption.
pub fn render_counterexample(name: &str, cex: &Counterexample) -> String {
    let mut out = String::new();
    out.push_str(&format!("{name}: UNSOUND — admitted schedule is not hybrid atomic\n"));
    out.push_str(&format!("  committed setup σ : {}\n", fmt_ops(&cex.setup)));
    out.push_str(&format!("  txn A (commits @2): {}\n", fmt_ops(&cex.left)));
    out.push_str(&format!("  txn B (commits @3): {}\n", fmt_ops(&cex.right)));
    out.push_str("  every A×B pair is table-compatible, yet σ·A·B is serially illegal\n");
    out.push_str("  offending class pairs (wrongly compatible):\n");
    for atom in &cex.offending {
        out.push_str(&format!("    {atom:?}\n"));
    }
    out
}

/// Render a type's full detail block (below the summary table).
pub fn render_detail(v: &TypeVerdict) -> String {
    let mut out = String::new();
    if let Some(cex) = &v.soundness.counterexample {
        out.push_str(&render_counterexample(&v.name, cex));
    }
    if v.necessity_checked {
        let conservative = v.conservative_atoms();
        if !conservative.is_empty() {
            out.push_str(&format!(
                "{}: conservative atoms (no bounded violation requires them):\n",
                v.name
            ));
            for atom in conservative {
                out.push_str(&format!("    {atom:?}\n"));
            }
        }
    }
    for cycle in &v.cycles {
        out.push_str(&format!("{}: possible deadlock: {cycle}\n", v.name));
    }
    if let Some(Err(drift)) = &v.invariance {
        out.push_str(&format!("{}: BOUNDS DRIFT — {drift}\n", v.name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(name: &str, millis: u128) -> TypeVerdict {
        TypeVerdict {
            name: name.into(),
            atoms: 4,
            depth: Depth::new(3),
            soundness: SoundnessReport { setups: 12, schedules: 345, counterexample: None },
            necessity: Vec::new(),
            necessity_checked: true,
            cycles: Vec::new(),
            cycles_checked: false,
            invariance: None,
            millis,
        }
    }

    /// Each line without its trailing `ms` cell.
    fn masked(table: &str) -> Vec<String> {
        table.lines().map(|l| l.rsplit_once("  ").map_or(l, |(head, _)| head).to_string()).collect()
    }

    #[test]
    fn the_layout_does_not_depend_on_timings() {
        let [quick, slow] = [9, 12_345]
            .map(|ms| render_verdict_table(&[verdict("Account", ms), verdict("FIFO Queue", ms)]));
        let (quick_lines, slow_lines): (Vec<&str>, Vec<&str>) =
            (quick.lines().collect(), slow.lines().collect());
        assert_eq!(quick_lines[..2], slow_lines[..2], "header and rule:\n{quick}\n{slow}");
        assert_eq!(masked(&quick), masked(&slow));
        assert!(quick_lines[2].ends_with("  9") && slow_lines[2].ends_with("  12345"));
    }
}
