//! # hcc-relations — deriving lock-conflict constraints from specifications
//!
//! Section 4 of the paper derives "necessary and sufficient constraints on
//! lock conflicts directly from a data type specification". This crate
//! mechanizes that derivation:
//!
//! * [`relation`] — operation classes, instance-level relations, the
//!   argument/response conditions (`v = v′`, `v ≠ v′`) the paper's tables
//!   are phrased in, and [`Relation`]: a classifier plus a set of atoms,
//!   the one value the runtime lock, the reference automaton, the static
//!   checker and the rendered tables all hold.
//! * [`enumerate`] — bounded enumeration of legal operation sequences over
//!   a finite alphabet of operation instances.
//! * [`invalidated_by`] — the constructive *invalidated-by* dependency
//!   relation of Definitions 8–9 (Theorem 10), computed by bounded search.
//! * [`violations`] — the Definition-3 *violation structure*: a relation is
//!   a dependency relation iff it "hits" every violation; this yields both a
//!   bounded dependency-relation checker and, via minimal hitting sets
//!   ([`minimal`]), the enumeration of **all minimal dependency relations**
//!   (rediscovering that the FIFO queue has exactly two: Tables II and III).
//! * [`commutativity`] — forward commutativity (Definitions 25–26) and the
//!   *failure-to-commute* relation of Section 7 (Theorem 28).
//! * [`tables`] — the ground-truth Tables I–VI as atom sets, and
//!   per-type derivation configurations.
//! * [`derive`] — the runtime bridge: derive a type's conflict atoms from
//!   its [`DeriveSpec`] and memoize them per type name, so constructing a
//!   live object under a *derived* lock relation pays the bounded search
//!   once per process (`hcc-core::runtime::SpecLock` holds the result
//!   as a [`Relation`]).
//!   The rival schemes' atoms come from the same spec: failure to commute
//!   ([`derive::commutativity_atoms`]) and untyped read/write locking
//!   ([`derive::read_write_atoms`]).
//!
//! ## Boundedness
//!
//! Definitions 3, 8 and 26 quantify over *all* operation sequences; we
//! enumerate sequences up to a configurable bound (default 3+3) over a small
//! value domain. The unit tests assert exact agreement with the paper's
//! tables, and candidate relations are re-validated against an independent
//! bounded Definition-3 check, so the bounds are empirically adequate for
//! every bundled type.

pub mod commutativity;
pub mod derive;
pub mod enumerate;
pub mod invalidated_by;
pub mod minimal;
pub mod relation;
pub mod tables;
pub mod violations;

pub use commutativity::failure_to_commute;
pub use derive::{cached_conflict_atoms, conflict_atoms, DeriveSpec};
pub use invalidated_by::invalidated_by;
pub use minimal::minimal_dependency_relations;
pub use relation::{Atom, Cond, InstanceRelation, OpClass, Relation};
pub use tables::AdtConfig;
pub use violations::{is_dependency_relation, violations, Violation};
