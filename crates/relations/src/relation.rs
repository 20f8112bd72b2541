//! Operation classes, conditions, class-level relations ([`Relation`])
//! and instance-level relations.
//!
//! The paper's tables relate operation *classes* (`Enq`, `Deq`, `Debit-Ok`,
//! `Debit-Overdraft`, ...) under argument/response *conditions* (`true`,
//! `v = v′`, `v ≠ v′`). The derivation machinery works at the level of
//! concrete operation *instances* over a small value domain and is lifted to
//! classes afterwards.

use hcc_spec::{Operation, Value};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A named class of operations, e.g. `Enq` or `Debit-Ok`.
///
/// A class corresponds to one row/column label of a paper table: the
/// operation name plus, when the lock mode is response-sensitive, a variant
/// tag derived from the response.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpClass(pub String);

impl OpClass {
    /// Construct a class from a name.
    pub fn new(name: impl Into<String>) -> OpClass {
        OpClass(name.into())
    }
}

impl fmt::Debug for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The condition under which a class pair is related, comparing the two
/// operations' *key values* (argument for `Enq(v)`, response for `Deq()→v`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Cond {
    /// Related when the key values are equal (`v = v′`).
    KeyEq,
    /// Related when the key values are distinct (`v ≠ v′`).
    KeyNeq,
}

/// An *atom*: "`row` depends on `col` when `cond` holds". Minimal relations
/// are sets of atoms; the paper's tables are renderings of atom sets.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Atom {
    /// The dependent class (table row; the later operation `q`).
    pub row: OpClass,
    /// The depended-upon class (table column; the earlier operation `p`).
    pub col: OpClass,
    /// The key condition.
    pub cond: Cond,
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self.cond {
            Cond::KeyEq => "v=v'",
            Cond::KeyNeq => "v≠v'",
        };
        write!(f, "({} ⊦ {} [{}])", self.row, self.col, c)
    }
}

/// A class-level relation, the one value every consumer holds: a
/// classifier and the atoms it states. The runtime's `SpecLock`, the
/// reference automaton, `hcc-check` and the rendered paper tables all
/// look pairs up here.
///
/// The atoms state a dependency relation one direction at a time;
/// [`Relation::conflicts`] is its symmetric closure, exactly as the
/// paper constructs lock conflict relations (§5.1, Theorems 16–17).
/// Because atoms speak about classes and key (in)equality rather than
/// concrete instances, the relation applies to the full value domain,
/// not just the small domain it was derived over. The atoms sit behind
/// an [`Arc`], so every object of a type shares one derivation.
#[derive(Clone)]
pub struct Relation {
    classify: fn(&Operation) -> OpClass,
    atoms: Arc<BTreeSet<Atom>>,
}

impl Relation {
    /// The relation stating `atoms` over operations filed by `classify`.
    pub fn new(
        classify: fn(&Operation) -> OpClass,
        atoms: impl Into<Arc<BTreeSet<Atom>>>,
    ) -> Relation {
        Relation { classify, atoms: atoms.into() }
    }

    /// The relation that relates nothing, the start of a stated table.
    pub fn empty(classify: fn(&Operation) -> OpClass) -> Relation {
        Relation::new(classify, BTreeSet::new())
    }

    /// Also relate `row` to `col` under `cond` (builder-style).
    pub fn rule(mut self, row: &str, col: &str, cond: Cond) -> Relation {
        Arc::make_mut(&mut self.atoms).insert(Atom {
            row: OpClass::new(row),
            col: OpClass::new(col),
            cond,
        });
        self
    }

    /// `self` without `atom`.
    pub fn without(&self, atom: &Atom) -> Relation {
        let mut weakened = self.clone();
        Arc::make_mut(&mut weakened.atoms).remove(atom);
        weakened
    }

    /// The stated atoms (before the symmetric closure).
    pub fn atoms(&self) -> &BTreeSet<Atom> {
        &self.atoms
    }

    /// The class `op` is filed under.
    pub fn classify(&self, op: &Operation) -> OpClass {
        (self.classify)(op)
    }

    /// The one atom lookup: is `row ⊦ col` stated under `cond`?
    fn states(&self, row: OpClass, col: OpClass, cond: Cond) -> bool {
        self.atoms.contains(&Atom { row, col, cond })
    }

    /// The one-directional dependency: does `q` depend on `p`, i.e. is
    /// `(class(q), class(p))` stated under their key condition?
    pub fn related(&self, q: &Operation, p: &Operation) -> bool {
        self.states(self.classify(q), self.classify(p), pair_cond(q, p))
    }

    /// The symmetric closure of [`Relation::related`]: may `a` and `b`
    /// not be held concurrently by distinct active transactions?
    pub fn conflicts(&self, a: &Operation, b: &Operation) -> bool {
        self.conflicts_classified(&self.classify(a), a, &self.classify(b), b)
    }

    /// [`Relation::conflicts`] with both classes already in hand (the
    /// runtime classifies each executed operation once).
    pub fn conflicts_classified(
        &self,
        class_a: &OpClass,
        a: &Operation,
        class_b: &OpClass,
        b: &Operation,
    ) -> bool {
        // The key condition compares two values for (in)equality, so one
        // bucket serves both directions.
        let cond = pair_cond(a, b);
        self.states(class_a.clone(), class_b.clone(), cond)
            || self.states(class_b.clone(), class_a.clone(), cond)
    }

    /// The canonical form of the conflict between two concrete ops: the
    /// class pair ordered, with the pair's key condition. Both lock
    /// directions collapse onto one atom, so reports name a conflict the
    /// same way whichever side ran first.
    pub fn canonical_pair(&self, a: &Operation, b: &Operation) -> Atom {
        let (ca, cb) = (self.classify(a), self.classify(b));
        let cond = pair_cond(a, b);
        if ca <= cb {
            Atom { row: ca, col: cb, cond }
        } else {
            Atom { row: cb, col: ca, cond }
        }
    }

    /// The (unclosed) instance relation the atoms denote over `alphabet`.
    pub fn instance_relation(&self, alphabet: &[Operation]) -> InstanceRelation {
        let mut rel = InstanceRelation::new();
        for (q, q_op) in alphabet.iter().enumerate() {
            for (p, p_op) in alphabet.iter().enumerate() {
                if self.related(q_op, p_op) {
                    rel.insert(q, p);
                }
            }
        }
        rel
    }

    /// The cell of the paper's table for `row ⊦ col`: blank, `true`,
    /// `v=v'` or `v≠v'`.
    fn cell(&self, row: &OpClass, col: &OpClass) -> &'static str {
        let stated = |cond| self.states(row.clone(), col.clone(), cond);
        match (stated(Cond::KeyEq), stated(Cond::KeyNeq)) {
            (true, true) => "true",
            (true, false) => "v=v'",
            (false, true) => "v≠v'",
            (false, false) => "",
        }
    }

    /// Render the stated atoms as aligned plain text in the paper's
    /// table layout: `title`, then one row and one column per class of
    /// `classes`; the row operation depends on the column operation when
    /// the cell's condition holds.
    pub fn render(&self, title: &str, classes: &[OpClass]) -> String {
        let mut widths: Vec<usize> = classes.iter().map(|c| c.0.len().max(5)).collect();
        let row_w = widths.iter().copied().max().unwrap_or(5);
        for (j, col) in classes.iter().enumerate() {
            for row in classes {
                widths[j] = widths[j].max(self.cell(row, col).len());
            }
        }
        let mut out = format!("{title}\n{:row_w$}", "");
        for (j, col) in classes.iter().enumerate() {
            out.push_str(&format!("  {:>w$}", col.0, w = widths[j]));
        }
        out.push('\n');
        for row in classes {
            out.push_str(&format!("{:row_w$}", row.0));
            for (j, col) in classes.iter().enumerate() {
                out.push_str(&format!("  {:>w$}", self.cell(row, col), w = widths[j]));
            }
            out.push('\n');
        }
        out
    }
}

/// A relation over concrete operation instances, indexed into a fixed
/// alphabet. `pairs` contains `(q, p)` meaning *q depends on p* (or, for
/// commutativity, *q fails to commute with p*).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InstanceRelation {
    /// Ordered pairs of alphabet indices `(q, p)`.
    pub pairs: BTreeSet<(usize, usize)>,
}

impl InstanceRelation {
    /// The empty relation.
    pub fn new() -> InstanceRelation {
        InstanceRelation::default()
    }

    /// Insert the pair "`q` depends on `p`".
    pub fn insert(&mut self, q: usize, p: usize) {
        self.pairs.insert((q, p));
    }

    /// Membership test.
    pub fn contains(&self, q: usize, p: usize) -> bool {
        self.pairs.contains(&(q, p))
    }

    /// Number of instance pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The symmetric closure — the paper constructs lock *conflict*
    /// relations as the symmetric closure of a dependency relation.
    pub fn symmetric_closure(&self) -> InstanceRelation {
        let mut out = self.clone();
        for &(q, p) in &self.pairs {
            out.pairs.insert((p, q));
        }
        out
    }

    /// Is the relation symmetric?
    pub fn is_symmetric(&self) -> bool {
        self.pairs.iter().all(|&(q, p)| self.pairs.contains(&(p, q)))
    }

    /// Is `self ⊆ other`?
    pub fn is_subset(&self, other: &InstanceRelation) -> bool {
        self.pairs.is_subset(&other.pairs)
    }

    /// The union of two relations.
    pub fn union(&self, other: &InstanceRelation) -> InstanceRelation {
        InstanceRelation { pairs: self.pairs.union(&other.pairs).copied().collect() }
    }
}

/// The *key value* of an operation instance: the value the paper's
/// conditions compare. By convention this is the first argument if the
/// operation has one, otherwise its response (e.g. `Deq()→v`); operations
/// with neither (unit response, no argument) have no key.
pub fn key_value(op: &Operation) -> Option<Value> {
    if let Some(a) = op.inv.args.first() {
        return Some(a.clone());
    }
    if op.res != Value::Unit {
        return Some(op.res.clone());
    }
    None
}

/// The condition bucket an instance pair falls into. Pairs where either
/// operation is keyless compare as [`Cond::KeyEq`] and [`Cond::KeyNeq`]
/// simultaneously; we put them in `KeyEq` (the rendering logic treats a
/// class pair present under every *populated* bucket as unconditionally
/// related, so the choice is immaterial for the bundled types).
pub fn pair_cond(q: &Operation, p: &Operation) -> Cond {
    match (key_value(q), key_value(p)) {
        (Some(a), Some(b)) if a != b => Cond::KeyNeq,
        _ => Cond::KeyEq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_spec::specs::QueueSpec;
    use hcc_spec::Inv;

    fn op(inv: Inv, res: impl Into<Value>) -> Operation {
        Operation::new(inv, res)
    }

    #[test]
    fn key_value_prefers_argument() {
        let enq = op(Inv::unary("enq", 3), Value::Unit);
        assert_eq!(key_value(&enq), Some(Value::Int(3)));
        let deq = op(Inv::nullary("deq"), 3);
        assert_eq!(key_value(&deq), Some(Value::Int(3)));
        let noop = op(Inv::nullary("tick"), Value::Unit);
        assert_eq!(key_value(&noop), None);
    }

    #[test]
    fn pair_cond_buckets() {
        let e1 = op(Inv::unary("enq", 1), Value::Unit);
        let e2 = op(Inv::unary("enq", 2), Value::Unit);
        let d1 = op(Inv::nullary("deq"), 1);
        assert_eq!(pair_cond(&e1, &e1), Cond::KeyEq);
        assert_eq!(pair_cond(&e1, &e2), Cond::KeyNeq);
        assert_eq!(pair_cond(&d1, &e1), Cond::KeyEq);
        assert_eq!(pair_cond(&d1, &e2), Cond::KeyNeq);
    }

    fn enq(v: i64) -> Operation {
        Operation::new(QueueSpec::enq(v), Value::Unit)
    }
    fn deq(v: i64) -> Operation {
        Operation::new(QueueSpec::deq(), v)
    }

    /// The queue's Table-II relation, stated one direction at a time.
    fn table_ii() -> Relation {
        Relation::new(crate::tables::AdtConfig::queue().classify, crate::tables::paper_table_ii())
    }

    #[test]
    fn conflicts_are_the_symmetric_closure() {
        let c = table_ii();
        assert!(c.related(&deq(1), &enq(2)) && !c.related(&enq(2), &deq(1)));
        assert!(c.conflicts(&deq(1), &enq(2)));
        assert!(c.conflicts(&enq(2), &deq(1)), "symmetric closure");
        assert!(c.conflicts(&deq(1), &deq(1)));
        assert!(!c.conflicts(&deq(1), &deq(2)));
        assert!(!c.conflicts(&enq(1), &enq(2)), "concurrent enqueues allowed");
        assert!(!c.conflicts(&deq(1), &enq(1)), "deq of own-valued enq allowed");
        let alpha = QueueSpec::alphabet(&[Value::Int(1), Value::Int(2)]);
        let closed = c.instance_relation(&alpha).symmetric_closure();
        for (i, a) in alpha.iter().enumerate() {
            for (j, b) in alpha.iter().enumerate() {
                assert_eq!(closed.contains(i, j), c.conflicts(a, b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn relations_generalize_beyond_the_derivation_domain() {
        // Stated over {1, 2}; applies to values 400/700.
        let c = table_ii();
        assert!(c.conflicts(&deq(400), &enq(700)));
        assert!(!c.conflicts(&enq(400), &enq(700)));
    }

    #[test]
    fn canonical_pair_is_order_insensitive() {
        let c = table_ii();
        let alpha = QueueSpec::alphabet(&[Value::Int(1), Value::Int(2)]);
        for a in &alpha {
            for b in &alpha {
                assert_eq!(c.canonical_pair(a, b), c.canonical_pair(b, a));
            }
        }
    }

    #[test]
    fn rule_and_without_edit_one_atom() {
        let c = table_ii().rule("Enq", "Enq", Cond::KeyNeq);
        assert!(c.conflicts(&enq(1), &enq(2)));
        let atom = Atom { row: OpClass::new("Enq"), col: OpClass::new("Enq"), cond: Cond::KeyNeq };
        let back = c.without(&atom);
        assert_eq!(back.atoms(), table_ii().atoms());
        assert_eq!(c.atoms().len(), back.atoms().len() + 1, "`without` leaves the original");
    }

    #[test]
    fn symmetric_closure_adds_mirror_pairs() {
        let mut r = InstanceRelation::new();
        r.insert(0, 1);
        assert!(!r.is_symmetric());
        let s = r.symmetric_closure();
        assert!(s.is_symmetric());
        assert_eq!(s.len(), 2);
        assert!(r.is_subset(&s));
    }

    #[test]
    fn union_and_subset() {
        let mut a = InstanceRelation::new();
        a.insert(0, 1);
        let mut b = InstanceRelation::new();
        b.insert(2, 3);
        let u = a.union(&b);
        assert_eq!(u.len(), 2);
        assert!(a.is_subset(&u));
        assert!(b.is_subset(&u));
        assert!(!u.is_subset(&a));
    }
}
