//! The unit of analysis: one type's specification, alphabet, and
//! conflict [`Relation`], normalized from whichever form it arrived in —
//! an [`AdtConfig`] from `hcc-relations`, a raw [`DeriveSpec`], or an
//! `AdtDef`'s [`ConflictSpec`] — plus the per-instance conflict view
//! every analysis in this crate consumes.

use hcc_core::runtime::{AdtDef, ConflictSpec};
use hcc_relations::derive::{cached_conflict_atoms, DeriveSpec};
use hcc_relations::relation::{Atom, OpClass, Relation};
use hcc_relations::tables::AdtConfig;
use hcc_spec::adt::SharedAdt;
use hcc_spec::Operation;

/// Everything the static analyses need to know about one type. The
/// `relation` is the value the runtime's `SpecLock` holds, so the
/// analyses exercise exactly the relation the lock manager would
/// enforce.
#[derive(Clone)]
pub struct CheckInput {
    /// Display name (the type name, by convention).
    pub name: String,
    /// The serial specification.
    pub adt: SharedAdt,
    /// The finite operation alphabet the bounded search ranges over.
    pub alphabet: Vec<Operation>,
    /// The conflict relation under audit.
    pub relation: Relation,
}

impl CheckInput {
    /// Audit a derivation config's *derived* table (cached, so `adtcheck`
    /// and the runtime share one derivation per type).
    pub fn from_adt_config(cfg: AdtConfig) -> CheckInput {
        let spec: DeriveSpec = cfg.into();
        CheckInput::from_derive_spec(spec.adt.type_name().to_string(), &spec)
    }

    /// Audit the derived table of an arbitrary [`DeriveSpec`].
    pub fn from_derive_spec(name: String, spec: &DeriveSpec) -> CheckInput {
        let relation = Relation::new(spec.classify, cached_conflict_atoms(&name, spec));
        CheckInput { name, adt: spec.adt.clone(), alphabet: spec.alphabet.clone(), relation }
    }

    /// Audit a hand-stated relation over the given spec and alphabet. (A
    /// relation carries no alphabet of its own — the caller chooses the
    /// derivation domain to search over, exactly as a `DeriveSpec`
    /// would.)
    pub fn from_table(adt: SharedAdt, alphabet: Vec<Operation>, relation: Relation) -> CheckInput {
        CheckInput { name: adt.type_name().to_string(), adt, alphabet, relation }
    }

    /// Audit whatever conflict spec an [`AdtDef`] declares. Derived defs
    /// carry their own serial specification and alphabet; a table-backed
    /// def states atoms but no searchable specification, so the caller
    /// must supply one through [`CheckInput::from_table`] instead.
    pub fn from_def<D: AdtDef>() -> Result<CheckInput, &'static str> {
        let def = D::default();
        match def.conflict_spec() {
            ConflictSpec::Derived(spec) => {
                Ok(CheckInput::from_derive_spec(def.type_name().to_string(), &spec))
            }
            ConflictSpec::Table(_) => {
                Err("table-backed def carries no searchable serial specification; \
                 supply one with CheckInput::from_table")
            }
        }
    }

    /// The class of alphabet instance `i`.
    pub fn class_of(&self, i: usize) -> OpClass {
        self.relation.classify(&self.alphabet[i])
    }

    /// Per-instance conflict bitmasks: bit `j` of `masks[i]` is set iff
    /// instances `i` and `j` conflict. The searches test "does this op
    /// conflict with anything the other transaction did" as one `&`.
    ///
    /// Panics if the alphabet exceeds 64 instances — the bundled types
    /// top out at 14, and a derivation domain that large would make the
    /// bounded search itself intractable long before the masks overflow.
    pub fn conflict_masks(&self) -> Vec<u64> {
        assert!(
            self.alphabet.len() <= 64,
            "{}: alphabet of {} instances exceeds the 64-op analysis limit",
            self.name,
            self.alphabet.len()
        );
        let mut masks = vec![0u64; self.alphabet.len()];
        for (i, mask) in masks.iter_mut().enumerate() {
            for (j, b) in self.alphabet.iter().enumerate() {
                if self.relation.conflicts(&self.alphabet[i], b) {
                    *mask |= 1 << j;
                }
            }
        }
        masks
    }

    /// `self` with one stated atom removed — the probe behind
    /// conservatism reporting and mutation testing: is the table still
    /// sound without this entry?
    pub fn without_atom(&self, atom: &Atom) -> CheckInput {
        CheckInput { relation: self.relation.without(atom), ..self.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_masks_match_pairwise_conflicts() {
        let input = CheckInput::from_adt_config(AdtConfig::queue());
        let masks = input.conflict_masks();
        for (i, a) in input.alphabet.iter().enumerate() {
            for (j, b) in input.alphabet.iter().enumerate() {
                assert_eq!(masks[i] & (1 << j) != 0, input.relation.conflicts(a, b));
                // Symmetric closure: the mask view is symmetric even
                // though the stated atoms are one-directional.
                assert_eq!(masks[i] & (1 << j) != 0, masks[j] & (1 << i) != 0);
            }
        }
    }

    #[test]
    fn without_atom_removes_exactly_one_entry() {
        let input = CheckInput::from_adt_config(AdtConfig::queue());
        let atom = input.relation.atoms().iter().next().unwrap().clone();
        let weakened = input.without_atom(&atom);
        assert_eq!(weakened.relation.atoms().len(), input.relation.atoms().len() - 1);
        assert!(!weakened.relation.atoms().contains(&atom));
    }
}
