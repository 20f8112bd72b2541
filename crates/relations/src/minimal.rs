//! Enumerating **all minimal dependency relations** of a specification.
//!
//! Section 4.2 observes that "an object may have several distinct minimal
//! dependency relations" and Section 4.3 exhibits two for the FIFO queue
//! (Tables II and III). We make that observation algorithmic:
//!
//! 1. Compute the bounded Definition-3 violation structure
//!    ([`crate::violations`]): each violation lists the instance pairs that
//!    could license refusing the offending interleaving.
//! 2. Lift instance pairs to *atoms* — class pairs under a key condition —
//!    because the paper's relations are uniform in the value domain.
//! 3. A relation (set of atoms) is a bounded dependency relation iff it
//!    *hits* every violation; the minimal dependency relations are exactly
//!    the **minimal hitting sets** of the violation structure.

use crate::invalidated_by::Bounds;
use crate::relation::{pair_cond, Atom, OpClass};
use crate::violations::violations;
use hcc_spec::{Adt, Operation};
use std::collections::BTreeSet;

/// Enumerate all minimal dependency relations (as atom sets) of a
/// specification, within the given bounds.
///
/// The result is sorted lexicographically; for the FIFO queue it contains
/// exactly the two relations of Tables II and III.
pub fn minimal_dependency_relations(
    adt: &dyn Adt,
    alphabet: &[Operation],
    classify: &dyn Fn(&Operation) -> OpClass,
    bounds: Bounds,
) -> Vec<BTreeSet<Atom>> {
    // Lift each violation's candidate instance pairs to atom sets.
    let mut sets: BTreeSet<BTreeSet<Atom>> = BTreeSet::new();
    for v in violations(adt, alphabet, bounds) {
        let atoms: BTreeSet<Atom> = v
            .candidates
            .iter()
            .map(|&(q, p)| Atom {
                row: classify(&alphabet[q]),
                col: classify(&alphabet[p]),
                cond: pair_cond(&alphabet[q], &alphabet[p]),
            })
            .collect();
        sets.insert(atoms);
    }
    // Keep only ⊆-minimal violation atom-sets (hitting a subset hits its
    // supersets).
    let sets: Vec<BTreeSet<Atom>> = {
        let all: Vec<BTreeSet<Atom>> = sets.into_iter().collect();
        all.iter()
            .filter(|s| !all.iter().any(|t| t.len() < s.len() && t.is_subset(s)))
            .cloned()
            .collect()
    };
    // Enumerate hitting sets by branching on the first unhit violation.
    let mut found: Vec<BTreeSet<Atom>> = Vec::new();
    let mut chosen: BTreeSet<Atom> = BTreeSet::new();
    hit(&sets, &mut chosen, &mut found);
    // Filter to minimal hitting sets and sort.
    let mut minimal: Vec<BTreeSet<Atom>> = found
        .iter()
        .filter(|s| !found.iter().any(|t| t.len() < s.len() && t.is_subset(s)))
        .cloned()
        .collect();
    minimal.sort();
    minimal.dedup();
    minimal
}

fn hit(sets: &[BTreeSet<Atom>], chosen: &mut BTreeSet<Atom>, found: &mut Vec<BTreeSet<Atom>>) {
    match sets.iter().find(|s| s.is_disjoint(chosen)) {
        None => found.push(chosen.clone()),
        Some(unhit) => {
            for atom in unhit {
                let added = chosen.insert(atom.clone());
                hit(sets, chosen, found);
                if added {
                    chosen.remove(atom);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use crate::tables::{paper_table_i, paper_table_iv, AdtConfig};
    use crate::violations::is_dependency_relation;

    fn minimal(cfg: &AdtConfig) -> Vec<BTreeSet<Atom>> {
        minimal_dependency_relations(cfg.adt.as_ref(), &cfg.alphabet, &cfg.classify, cfg.bounds)
    }

    #[test]
    fn file_has_a_unique_minimal_relation() {
        assert_eq!(minimal(&AdtConfig::file()), vec![paper_table_i()]);
    }

    #[test]
    fn semiqueue_has_a_unique_minimal_relation() {
        assert_eq!(minimal(&AdtConfig::semiqueue()), vec![paper_table_iv()]);
    }

    #[test]
    fn minimal_relations_pass_the_independent_def3_check() {
        let cfg = AdtConfig::queue();
        for atoms in minimal(&cfg) {
            let rel = Relation::new(cfg.classify, atoms).instance_relation(&cfg.alphabet);
            assert!(is_dependency_relation(cfg.adt.as_ref(), &cfg.alphabet, &rel, cfg.bounds));
        }
    }

    #[test]
    fn removing_any_atom_breaks_minimality() {
        let cfg = AdtConfig::queue();
        for atoms in minimal(&cfg) {
            for a in &atoms {
                let smaller = Relation::new(cfg.classify, atoms.clone()).without(a);
                let rel = smaller.instance_relation(&cfg.alphabet);
                assert!(
                    !is_dependency_relation(cfg.adt.as_ref(), &cfg.alphabet, &rel, cfg.bounds),
                    "removing {a:?} should break Definition 3"
                );
            }
        }
    }
}
