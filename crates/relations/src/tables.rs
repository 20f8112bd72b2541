//! Ground-truth atom sets for Tables I–VI and per-type derivation
//! configurations. A table is printed by [`Relation::render`].

use crate::derive::{cached_atoms, Derive, DeriveSpec};
use crate::invalidated_by::Bounds;
use crate::relation::{Atom, Cond, OpClass, Relation};
use hcc_spec::adt::SharedAdt;
use hcc_spec::specs::{
    AccountSpec, CounterSpec, DirectorySpec, FileSpec, QueueSpec, SemiqueueSpec, SetSpec,
};
use hcc_spec::{Operation, Rational, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Everything needed to derive relations for one data type: the
/// specification, a finite operation alphabet over a small domain, a
/// classifier, and the presentation order of classes.
pub struct AdtConfig {
    /// The serial specification.
    pub adt: SharedAdt,
    /// Operation instances over the derivation domain.
    pub alphabet: Vec<Operation>,
    /// Instance → class.
    pub classify: fn(&Operation) -> OpClass,
    /// Row/column presentation order.
    pub classes: Vec<OpClass>,
    /// Derivation bounds.
    pub bounds: Bounds,
}

fn cls(names: &[&str]) -> Vec<OpClass> {
    names.iter().map(|n| OpClass::new(*n)).collect()
}

fn domain() -> Vec<Value> {
    vec![Value::Int(1), Value::Int(2)]
}

impl AdtConfig {
    /// File over values {1, 2}.
    pub fn file() -> AdtConfig {
        fn classify(op: &Operation) -> OpClass {
            OpClass::new(if op.inv.op == "read" { "Read" } else { "Write" })
        }
        AdtConfig {
            adt: Arc::new(FileSpec::default()),
            alphabet: FileSpec::alphabet(&domain()),
            classify,
            classes: cls(&["Read", "Write"]),
            bounds: Bounds::default(),
        }
    }

    /// FIFO queue over items {1, 2}.
    pub fn queue() -> AdtConfig {
        fn classify(op: &Operation) -> OpClass {
            OpClass::new(if op.inv.op == "enq" { "Enq" } else { "Deq" })
        }
        AdtConfig {
            adt: Arc::new(QueueSpec),
            alphabet: QueueSpec::alphabet(&domain()),
            classify,
            classes: cls(&["Enq", "Deq"]),
            bounds: Bounds::default(),
        }
    }

    /// Semiqueue over items {1, 2}.
    pub fn semiqueue() -> AdtConfig {
        fn classify(op: &Operation) -> OpClass {
            OpClass::new(if op.inv.op == "ins" { "Ins" } else { "Rem" })
        }
        AdtConfig {
            adt: Arc::new(SemiqueueSpec),
            alphabet: SemiqueueSpec::alphabet(&domain()),
            classify,
            classes: cls(&["Ins", "Rem"]),
            bounds: Bounds::default(),
        }
    }

    /// Account over debit amounts {1, 2} and posting rate {5%}.
    ///
    /// Credit amounts additionally include the fractional witnesses 39/20
    /// and 24/25: `post(5)` invalidates `debit(m)→Overdraft` only from a
    /// balance in `[20m/21, m)`, which integer credits cannot reach (see
    /// [`AccountSpec::alphabet_ext`]).
    pub fn account() -> AdtConfig {
        fn classify(op: &Operation) -> OpClass {
            OpClass::new(match (op.inv.op, &op.res) {
                ("credit", _) => "Credit",
                ("post", _) => "Post",
                ("debit", Value::Bool(true)) => "Debit-Ok",
                ("debit", Value::Bool(false)) => "Debit-Overdraft",
                other => panic!("unexpected account op {other:?}"),
            })
        }
        let r = Rational::new;
        AdtConfig {
            adt: Arc::new(AccountSpec),
            alphabet: AccountSpec::alphabet_ext(
                &[r(1, 1), r(2, 1), r(39, 20), r(24, 25)],
                &[r(1, 1), r(2, 1)],
                &[r(5, 1)],
            ),
            classify,
            classes: cls(&["Credit", "Post", "Debit-Ok", "Debit-Overdraft"]),
            bounds: Bounds { max_h1: 3, max_h2: 1 },
        }
    }

    /// Counter with deltas {0, 1, 2} and read outcomes {0, 1, 2, 3}.
    ///
    /// Zero-delta updates are their own class, `Touch`: `inc(0)` is a
    /// state-level no-op, so lumping it into `Inc` would smear the
    /// `Read ⊦ Inc` dependency (witnessed only by non-zero deltas) into a
    /// condition the table language cannot express ("delta ≠ 0" is not a
    /// key comparison between the two operations). Derivation confirms
    /// `Touch` participates in no dependency — which is exactly what the
    /// hand-written hybrid relation encodes by ignoring zero updates.
    pub fn counter() -> AdtConfig {
        fn classify(op: &Operation) -> OpClass {
            OpClass::new(match op.inv.op {
                "inc" | "dec" if op.inv.args[0] == Value::Int(0) => "Touch",
                "inc" => "Inc",
                "dec" => "Dec",
                _ => "Read",
            })
        }
        AdtConfig {
            adt: Arc::new(CounterSpec),
            alphabet: CounterSpec::alphabet(&[0, 1, 2], &[0, 1, 2, 3]),
            classify,
            classes: cls(&["Inc", "Dec", "Touch", "Read"]),
            bounds: Bounds { max_h1: 2, max_h2: 2 },
        }
    }

    /// Set over elements {1, 2}.
    pub fn set() -> AdtConfig {
        fn classify(op: &Operation) -> OpClass {
            OpClass::new(match (op.inv.op, op.res.as_bool()) {
                ("add", true) => "Add-New",
                ("add", false) => "Add-Dup",
                ("remove", true) => "Remove-Hit",
                ("remove", false) => "Remove-Miss",
                ("contains", true) => "Contains-T",
                (_, _) => "Contains-F",
            })
        }
        AdtConfig {
            adt: Arc::new(SetSpec),
            alphabet: SetSpec::alphabet(&domain()),
            classify,
            classes: cls(&[
                "Add-New",
                "Add-Dup",
                "Remove-Hit",
                "Remove-Miss",
                "Contains-T",
                "Contains-F",
            ]),
            bounds: Bounds { max_h1: 2, max_h2: 2 },
        }
    }

    /// Directory over keys {"a", "b"} and values {1, 2}.
    pub fn directory() -> AdtConfig {
        fn classify(op: &Operation) -> OpClass {
            OpClass::new(match (op.inv.op, &op.res) {
                ("insert", Value::Bool(true)) => "Insert-New",
                ("insert", _) => "Insert-Dup",
                ("remove", Value::Null) => "Remove-Miss",
                ("remove", _) => "Remove-Hit",
                ("lookup", Value::Null) => "Lookup-Miss",
                (_, _) => "Lookup-Hit",
            })
        }
        AdtConfig {
            adt: Arc::new(DirectorySpec),
            alphabet: DirectorySpec::alphabet(
                &[Value::str("a"), Value::str("b")],
                &[Value::Int(1)],
            ),
            classify,
            classes: cls(&[
                "Insert-New",
                "Insert-Dup",
                "Remove-Hit",
                "Remove-Miss",
                "Lookup-Hit",
                "Lookup-Miss",
            ]),
            bounds: Bounds { max_h1: 2, max_h2: 2 },
        }
    }

    /// `atoms` as a relation over this type's classes, in table order.
    pub fn relation(&self, atoms: impl Into<Arc<BTreeSet<Atom>>>) -> Relation {
        Relation::over(&self.classes, self.classify, atoms)
    }

    /// The derivation half of this config.
    pub fn spec(&self) -> DeriveSpec {
        let (adt, alphabet) = (self.adt.clone(), self.alphabet.clone());
        DeriveSpec { adt, alphabet, classify: self.classify, bounds: self.bounds }
    }

    /// The relation `derive` finds for this type, over its classes.
    pub fn derived(&self, derive: Derive) -> Relation {
        self.relation(derive(&self.spec()))
    }

    /// [`AdtConfig::derived`], through the process's derivation cache.
    pub fn cached(&self, derive: Derive) -> Relation {
        self.relation(cached_atoms(self.adt.type_name(), &self.spec(), derive))
    }
}

/// A table cell's condition: `v=v'`, `v≠v'`, or `true` (both).
pub const EQ: &[Cond] = &[Cond::KeyEq];
/// `v≠v'`.
pub const NEQ: &[Cond] = &[Cond::KeyNeq];
/// `true`: either condition.
pub const TRUE: &[Cond] = &[Cond::KeyEq, Cond::KeyNeq];

/// A table in the paper's language: each `(row, col)` related under every
/// condition of its cell.
pub fn table(cells: &[(&str, &str, &[Cond])]) -> BTreeSet<Atom> {
    cells
        .iter()
        .flat_map(|&(row, col, conds)| {
            conds.iter().map(move |&cond| Atom {
                row: OpClass::new(row),
                col: OpClass::new(col),
                cond,
            })
        })
        .collect()
}

/// Ground truth: Table I — minimal dependency relation for File.
pub fn paper_table_i() -> BTreeSet<Atom> {
    table(&[("Read", "Write", NEQ)])
}

/// Ground truth: Table II — first minimal dependency relation for Queue
/// (the invalidated-by relation).
pub fn paper_table_ii() -> BTreeSet<Atom> {
    table(&[("Deq", "Enq", NEQ), ("Deq", "Deq", EQ)])
}

/// Ground truth: Table III — second minimal dependency relation for Queue
/// (the queue's failure-to-commute relation).
pub fn paper_table_iii() -> BTreeSet<Atom> {
    table(&[("Enq", "Enq", NEQ), ("Deq", "Deq", EQ)])
}

/// Ground truth: Table IV — minimal dependency relation for Semiqueue.
pub fn paper_table_iv() -> BTreeSet<Atom> {
    table(&[("Rem", "Rem", EQ)])
}

/// Ground truth: Table V — minimal dependency relation for Account.
pub fn paper_table_v() -> BTreeSet<Atom> {
    table(&[
        ("Debit-Ok", "Debit-Ok", TRUE),
        ("Debit-Overdraft", "Credit", TRUE),
        ("Debit-Overdraft", "Post", TRUE),
    ])
}

/// Ground truth: Table VI — the "failure to commute" relation for Account.
pub fn paper_table_vi() -> BTreeSet<Atom> {
    table(&[
        ("Credit", "Post", TRUE),
        ("Post", "Credit", TRUE),
        ("Credit", "Debit-Overdraft", TRUE),
        ("Debit-Overdraft", "Credit", TRUE),
        ("Post", "Debit-Ok", TRUE),
        ("Debit-Ok", "Post", TRUE),
        ("Post", "Debit-Overdraft", TRUE),
        ("Debit-Overdraft", "Post", TRUE),
        ("Debit-Ok", "Debit-Ok", TRUE),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::{commutativity_atoms, conflict_atoms};

    /// `derived` states `expected`, and its compiled matrix answers as
    /// its atoms on every pair of the alphabet, in table order and in the
    /// reverse order.
    fn assert_atoms_eq(derived: &Relation, expected: &BTreeSet<Atom>, cfg: &AdtConfig) {
        assert_eq!(
            derived.atoms(),
            expected,
            "derived:\n{}expected:\n{}",
            derived.render("derived", &cfg.classes),
            Relation::new(cfg.classify, expected.clone()).render("expected", &cfg.classes)
        );
        assert_eq!(derived.classes(), cfg.classes);
        let reversed: Vec<&str> = cfg.classes.iter().rev().map(|c| c.0.as_str()).collect();
        for rel in [derived.clone(), derived.clone().ordered(&reversed)] {
            for (a, b) in cfg.alphabet.iter().flat_map(|a| cfg.alphabet.iter().map(move |b| (a, b)))
            {
                let id = |op| rel.class_id(&rel.classify(op));
                let same_key = || crate::relation::pair_cond(a, b) == Cond::KeyEq;
                let compiled = rel.conflicts_classified(id(a), id(b), same_key);
                assert_eq!(compiled, rel.conflicts(a, b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn file_matches_paper_table_i() {
        let cfg = AdtConfig::file();
        assert_atoms_eq(&cfg.derived(conflict_atoms), &paper_table_i(), &cfg);
    }

    #[test]
    fn queue_invalidated_by_matches_paper_table_ii() {
        let cfg = AdtConfig::queue();
        assert_atoms_eq(&cfg.derived(conflict_atoms), &paper_table_ii(), &cfg);
    }

    #[test]
    fn semiqueue_matches_paper_table_iv() {
        let cfg = AdtConfig::semiqueue();
        assert_atoms_eq(&cfg.derived(conflict_atoms), &paper_table_iv(), &cfg);
    }

    #[test]
    fn account_matches_paper_table_v() {
        let cfg = AdtConfig::account();
        assert_atoms_eq(&cfg.derived(conflict_atoms), &paper_table_v(), &cfg);
    }

    #[test]
    fn account_commutativity_matches_paper_table_vi() {
        let cfg = AdtConfig::account();
        assert_atoms_eq(&cfg.derived(commutativity_atoms), &paper_table_vi(), &cfg);
    }

    #[test]
    fn queue_minimal_relations_match_tables_ii_and_iii() {
        let cfg = AdtConfig::queue();
        let rels = crate::minimal::minimal_dependency_relations(
            cfg.adt.as_ref(),
            &cfg.alphabet,
            &cfg.classify,
            cfg.bounds,
        );
        assert_eq!(rels, vec![paper_table_ii(), paper_table_iii()]);
    }

    #[test]
    fn render_is_stable_and_readable() {
        let cfg = AdtConfig::queue();
        let s = Relation::new(cfg.classify, paper_table_ii()).render("Table II", &cfg.classes);
        assert_eq!(
            s,
            "Table II\n          Enq    Deq\nEnq                 \nDeq      v≠v'   v=v'\n"
        );
    }

    /// No bucket is partial: for every type, under both derivations, the
    /// lifted atoms denote exactly the derived instance relation over the
    /// alphabet. A class pair related for some instances of a key
    /// condition and not others would over-approximate here, and its
    /// rendered cell would claim more than the derivation found.
    #[test]
    fn lifted_relations_are_exact_for_every_type() {
        for cfg in [
            AdtConfig::file(),
            AdtConfig::queue(),
            AdtConfig::semiqueue(),
            AdtConfig::account(),
            AdtConfig::counter(),
            AdtConfig::set(),
            AdtConfig::directory(),
        ] {
            let (adt, alphabet) = (cfg.adt.as_ref(), &cfg.alphabet);
            for (what, derived) in [
                (
                    "invalidated-by",
                    crate::invalidated_by::invalidated_by(adt, alphabet, cfg.bounds),
                ),
                (
                    "failure-to-commute",
                    crate::commutativity::failure_to_commute(adt, alphabet, cfg.bounds),
                ),
            ] {
                let lifted = Relation::new(
                    cfg.classify,
                    crate::derive::lift_to_atoms(alphabet, cfg.classify, &derived),
                );
                assert_eq!(
                    lifted.instance_relation(alphabet),
                    derived,
                    "{} {what}: a partial bucket\n{}",
                    adt.type_name(),
                    lifted.render(what, &cfg.classes)
                );
            }
        }
    }

    #[test]
    fn counter_updates_never_depend_on_each_other() {
        let rel = AdtConfig::counter().derived(conflict_atoms);
        let related = |row: &str, col: &str| {
            rel.atoms().iter().any(|a| a.row == OpClass::new(row) && a.col == OpClass::new(col))
        };
        for a in ["Inc", "Dec"] {
            for b in ["Inc", "Dec"] {
                assert!(!related(a, b), "{a} ⊦ {b}");
            }
        }
        // Reads are invalidated by updates.
        assert!(related("Read", "Inc"));
    }
}
