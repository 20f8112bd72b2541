//! The declarative ADT-definition surface: state a type's *serial
//! specification* once and get the full transactional machinery for free.
//!
//! The paper's thesis is that a data type's serial specification
//! determines its concurrency control. [`AdtDef`] is that thesis as an
//! API: the user supplies the type's **state**, its **operations and
//! responses**, an executable **apply/respond** semantics, a codec, and a
//! conflict source — either the dynamic serial specification itself (from
//! which `hcc-relations` derives the hybrid invalidated-by relation at
//! first construction, memoized per type) or an explicit class-level
//! conflict table in the paper's own language. Everything a hand-written
//! [`RuntimeAdt`] implementation wires manually is then generic:
//!
//! * [`SpecAdt`] adapts any [`AdtDef`] to [`RuntimeAdt`] — version =
//!   state, intent = the transaction's executed-operation list, candidate
//!   evaluation against the folded view, and self-logging `redo` /
//!   `decode_redo` through the codec;
//! * [`SpecLock`] is the one lock every object runs: the type's
//!   [`Relation`], compiled over its class vocabulary, tested on each
//!   executed operation's class and key; a defined type is classified
//!   through its spec mapping, a built-in by its own typed classifier
//!   ([`RuntimeAdt::classify`]);
//! * `hcc-adts`'s `Object<SpecAdt<D>>` (`SpecObject<D>`) is the same
//!   generic object the built-ins run behind — snapshots, recovery
//!   replay, typed `hcc-db` handles — so a user-defined type is durable,
//!   recoverable, and 2PC-committable with **no** `RuntimeAdt`,
//!   `Snapshot`, or `DbObject` impl written by hand.
//!
//! A type that outgrows the generic machinery implements [`RuntimeAdt`]
//! directly, as every built-in in `hcc-adts` does for its compact
//! version and intents; its lock is still [`SpecLock`] over the relation
//! derived from its serial specification.

use super::adt::{Classified, RedoDecodeError, RuntimeAdt};
use hcc_relations::derive::{cached_conflict_atoms, DeriveSpec};
use hcc_relations::relation::{key_value, ClassId, OpClass, Relation};
use hcc_spec::{Operation, Value};
use std::fmt::Debug;
use std::marker::PhantomData;

/// A declaratively defined transactional data type.
///
/// Implement this one trait (or let `hcc-adts`'s `define_adt!` macro
/// write the codec half for serde-able types) and the runtime supplies
/// locking, self-logging, recovery replay, snapshots, and typed `Db`
/// handles. Semantics are split appendix-style:
///
/// * [`AdtDef::respond`] evaluates an operation against a fully folded
///   view state, returning candidate responses in preference order
///   (several for nondeterministic operations; empty when the operation
///   is undefined in this view — the caller blocks, the paper's partial
///   operation);
/// * [`AdtDef::apply`] applies one *executed* operation's state effect —
///   used both to fold committed intents into the compacted version and
///   to materialize views, so executions the specification refused can
///   never corrupt state.
pub trait AdtDef: Default + Send + Sync + 'static {
    /// The committed state (the generic version; snapshots serialize it).
    type State: Clone + Send + Sync;
    /// Invocations.
    type Op: Clone + Debug + Send + Sync;
    /// Responses. Equality pins nondeterministic replay to the logged
    /// choice during recovery.
    type Res: Clone + PartialEq + Debug + Send + Sync;

    /// The type's name — diagnostics *and* the derivation cache key:
    /// every object of one type shares one derived conflict relation.
    fn type_name(&self) -> &'static str;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// Candidate responses for `op` against the folded view `state`, in
    /// preference order. Empty = undefined here (partial operation; the
    /// runtime blocks the caller until the view changes).
    fn respond(&self, state: &Self::State, op: &Self::Op) -> Vec<Self::Res>;

    /// Apply the state effect of the executed operation `(op, res)`.
    /// Must be a no-op when [`AdtDef::is_read`] holds.
    fn apply(&self, state: &mut Self::State, op: &Self::Op, res: &Self::Res);

    /// Is this executed operation a pure read? Reads take locks but are
    /// neither logged nor folded — deliberately required, like
    /// [`RuntimeAdt::redo`]: every type must *state* what its reads are,
    /// or that it has none.
    fn is_read(&self, op: &Self::Op, res: &Self::Res) -> bool;

    /// Map an executed operation onto the dynamic specification
    /// operation — the hinge between the typed runtime and the formal
    /// layer: conflict lookup classifies through it, and history
    /// verification rebuilds formal events with it.
    fn spec_op(&self, op: &Self::Op, res: &Self::Res) -> Operation;

    /// Where this type's lock conflicts come from: derived from the
    /// serial specification, or stated as an explicit table.
    fn conflict_spec(&self) -> ConflictSpec;

    /// Serialize an executed operation as its redo payload (the WAL
    /// record; only called for non-reads).
    fn encode_op(&self, op: &Self::Op, res: &Self::Res) -> Vec<u8>;

    /// Decode a payload produced by [`AdtDef::encode_op`] — the recovery
    /// replay path.
    fn decode_op(&self, bytes: &[u8]) -> Result<(Self::Op, Self::Res), RedoDecodeError>;

    /// Serialize the committed state (the checkpoint image).
    fn encode_state(&self, state: &Self::State) -> Vec<u8>;

    /// Decode a payload produced by [`AdtDef::encode_state`].
    fn decode_state(&self, bytes: &[u8]) -> Result<Self::State, RedoDecodeError>;
}

/// How an [`AdtDef`]'s lock conflicts are determined.
pub enum ConflictSpec {
    /// Derive the hybrid invalidated-by relation from the serial
    /// specification by bounded search at first construction, memoized
    /// per [`AdtDef::type_name`]. The scheme the paper proves hybrid
    /// atomic (Theorem 10 + Theorem 16).
    Derived(DeriveSpec),
    /// An explicit class-level relation in the paper's own language
    /// (operation classes related under key conditions, each dependency
    /// stated once, in either direction) — for types whose table is
    /// known (or audited) but whose specification is impractical to
    /// search, and for running a type under a non-canonical relation.
    Table(Relation),
}

/// The generic [`RuntimeAdt`] over an [`AdtDef`]: version = state,
/// intent = the transaction's executed operations (responses pinned),
/// views materialized by folding committed intents in timestamp order.
pub struct SpecAdt<D: AdtDef> {
    def: D,
}

impl<D: AdtDef> Default for SpecAdt<D> {
    fn default() -> Self {
        SpecAdt { def: D::default() }
    }
}

impl<D: AdtDef> SpecAdt<D> {
    /// The underlying definition.
    pub fn def(&self) -> &D {
        &self.def
    }
}

impl<D: AdtDef> RuntimeAdt for SpecAdt<D> {
    type Version = D::State;
    type Intent = Vec<(D::Op, D::Res)>;
    type Inv = D::Op;
    type Res = D::Res;

    fn initial(&self) -> D::State {
        self.def.initial()
    }

    fn candidates(
        &self,
        version: &D::State,
        committed: &[&Self::Intent],
        own: &Self::Intent,
        inv: &D::Op,
        out: &mut Vec<(D::Res, Self::Intent)>,
    ) {
        // Materialize the view: compacted state + committed intents in
        // timestamp order + the transaction's own effects. (Hand-written
        // RuntimeAdts often fold more cleverly — a balance, one
        // element's membership; that tuning is exactly what the escape
        // hatch is for.)
        let mut view = version.clone();
        for intent in committed {
            for (op, res) in intent.iter() {
                self.def.apply(&mut view, op, res);
            }
        }
        for (op, res) in own {
            self.def.apply(&mut view, op, res);
        }
        out.extend(self.def.respond(&view, inv).into_iter().map(|res| {
            let mut next = own.clone();
            if !self.def.is_read(inv, &res) {
                next.push((inv.clone(), res.clone()));
            }
            (res, next)
        }));
    }

    fn apply(&self, version: &mut D::State, intent: &Self::Intent) {
        for (op, res) in intent {
            self.def.apply(version, op, res);
        }
    }

    fn redo(&self, inv: &D::Op, res: &D::Res) -> Option<Vec<u8>> {
        if self.def.is_read(inv, res) {
            None
        } else {
            Some(self.def.encode_op(inv, res))
        }
    }

    fn decode_redo(&self, bytes: &[u8]) -> Result<(D::Op, D::Res), RedoDecodeError> {
        self.def.decode_op(bytes)
    }

    fn type_name(&self) -> &'static str {
        self.def.type_name()
    }

    type Key = Value;

    /// Through the spec mapping: the relation files the formal operation
    /// by name.
    fn classify(relation: &Relation, inv: &D::Op, res: &D::Res) -> Classified<Value> {
        let op = D::default().spec_op(inv, res);
        Classified { class: relation.class_id(&relation.classify(&op)), key: key_value(&op) }
    }
}

/// The one lock: a relation derived from (or stated for) a type's serial
/// specification, compiled over the type's class vocabulary, and tested
/// on executed operations the type classifies once each
/// ([`RuntimeAdt::classify`]). It runs any [`RuntimeAdt`] under any
/// relation: a defined type's own ([`SpecLock::from_def`]), a built-in's
/// hybrid relation, or one of its Section-7 rivals (as `hcc-workload`'s
/// `Scheme` builds them).
pub struct SpecLock<A: RuntimeAdt> {
    name: &'static str,
    relation: Relation,
    adt: PhantomData<fn() -> A>,
}

impl<A: RuntimeAdt> Clone for SpecLock<A> {
    fn clone(&self) -> Self {
        SpecLock { name: self.name, relation: self.relation.clone(), adt: PhantomData }
    }
}

impl<A: RuntimeAdt> SpecLock<A> {
    /// A lock named `name` testing executed operations against
    /// `relation`, its vocabulary ordered as `A` numbers its classes.
    pub fn new(name: &'static str, relation: Relation) -> SpecLock<A> {
        SpecLock { name, relation: relation.ordered(A::CLASSES), adt: PhantomData }
    }

    /// The relation this lock tests against.
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// The scheme's name (`"hybrid"`, `"commutativity"`, `"rw-2pl"`, …).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// File an executed operation for [`SpecLock::conflicts_classified`].
    pub fn classify(&self, op: &(A::Inv, A::Res)) -> Classified<A::Key> {
        A::classify(&self.relation, &op.0, &op.1)
    }

    /// Do two classified operations of *different* active transactions
    /// conflict? Two index loads, and a key compare for a conditional
    /// cell only.
    #[inline]
    pub fn conflicts_classified(&self, a: &Classified<A::Key>, b: &Classified<A::Key>) -> bool {
        self.relation.conflicts_classified(a.class, b.class, || a.same_key(b))
    }

    /// [`SpecLock::conflicts_classified`] on two executed operations.
    pub fn conflicts(&self, a: &(A::Inv, A::Res), b: &(A::Inv, A::Res)) -> bool {
        self.conflicts_classified(&self.classify(a), &self.classify(b))
    }

    /// The name of class `id`: the row/column label of the paper's table,
    /// which the lock metrics key their counters by.
    pub fn class_name(&self, id: ClassId) -> OpClass {
        self.relation.class_name(id)
    }
}

impl<D: AdtDef> SpecLock<SpecAdt<D>> {
    /// The lock relation an [`AdtDef`]'s [`ConflictSpec`] asks for —
    /// deriving (memoized per type name) or adopting the stated table.
    /// A derived relation's vocabulary is every class of the derivation's
    /// alphabet, so none of them is looked up outside it.
    pub fn from_def() -> SpecLock<SpecAdt<D>> {
        let def = D::default();
        let (name, relation) = match def.conflict_spec() {
            ConflictSpec::Derived(spec) => {
                let atoms = cached_conflict_atoms(def.type_name(), &spec);
                let mut classes: Vec<OpClass> = spec.alphabet.iter().map(spec.classify).collect();
                classes.sort();
                classes.dedup();
                ("hybrid-derived", Relation::over(&classes, spec.classify, atoms))
            }
            ConflictSpec::Table(relation) => ("stated-table", relation),
        };
        SpecLock::new(name, relation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{RuntimeOptions, TxObject, TxParticipant, TxnHandle};
    use hcc_relations::relation::{Cond, OpClass};
    use hcc_spec::{Inv, TxnId, Value};
    use std::sync::Arc;
    use std::time::Duration;

    /// A tiny max-register defined declaratively: `raise(n)` → did it
    /// raise the maximum; `peak()` reads it. Explicit-table path.
    #[derive(Default)]
    struct MaxReg;

    #[derive(Clone, Debug, PartialEq)]
    enum MaxOp {
        Raise(i64),
        Peak,
    }

    #[derive(Clone, Debug, PartialEq)]
    enum MaxRes {
        Raised(bool),
        Val(i64),
    }

    fn classify(op: &Operation) -> OpClass {
        OpClass::new(match (op.inv.op, &op.res) {
            ("raise", Value::Bool(true)) => "Raise-Hi",
            ("raise", _) => "Raise-Lo",
            _ => "Peak",
        })
    }

    impl AdtDef for MaxReg {
        type State = i64;
        type Op = MaxOp;
        type Res = MaxRes;

        fn type_name(&self) -> &'static str {
            "MaxReg"
        }

        fn initial(&self) -> i64 {
            0
        }

        fn respond(&self, state: &i64, op: &MaxOp) -> Vec<MaxRes> {
            match op {
                MaxOp::Raise(n) => vec![MaxRes::Raised(*n > *state)],
                MaxOp::Peak => vec![MaxRes::Val(*state)],
            }
        }

        fn apply(&self, state: &mut i64, op: &MaxOp, res: &MaxRes) {
            if let (MaxOp::Raise(n), MaxRes::Raised(true)) = (op, res) {
                *state = *n;
            }
        }

        fn is_read(&self, op: &MaxOp, _res: &MaxRes) -> bool {
            matches!(op, MaxOp::Peak)
        }

        fn spec_op(&self, op: &MaxOp, res: &MaxRes) -> Operation {
            match (op, res) {
                (MaxOp::Raise(n), MaxRes::Raised(hi)) => {
                    Operation::new(Inv::unary("raise", *n), *hi)
                }
                (MaxOp::Peak, MaxRes::Val(v)) => Operation::new(Inv::nullary("peak"), *v),
                other => unreachable!("ill-typed max-register op {other:?}"),
            }
        }

        fn conflict_spec(&self) -> ConflictSpec {
            // A winning raise invalidates differently-valued reads,
            // losing raises, and other winning raises.
            ConflictSpec::Table(
                Relation::empty(classify)
                    .rule("Raise-Hi", "Raise-Hi", Cond::KeyNeq)
                    .rule("Raise-Lo", "Raise-Hi", Cond::KeyNeq)
                    .rule("Peak", "Raise-Hi", Cond::KeyNeq),
            )
        }

        fn encode_op(&self, op: &MaxOp, res: &MaxRes) -> Vec<u8> {
            match (op, res) {
                (MaxOp::Raise(n), MaxRes::Raised(hi)) => format!("{n}:{}", *hi as u8).into_bytes(),
                other => unreachable!("reads are not encoded: {other:?}"),
            }
        }

        fn decode_op(&self, bytes: &[u8]) -> Result<(MaxOp, MaxRes), RedoDecodeError> {
            let s = std::str::from_utf8(bytes).map_err(|e| RedoDecodeError::new(e.to_string()))?;
            let (n, hi) = s.split_once(':').ok_or_else(|| RedoDecodeError::new("no colon"))?;
            Ok((
                MaxOp::Raise(n.parse().map_err(|_| RedoDecodeError::new("bad int"))?),
                MaxRes::Raised(hi == "1"),
            ))
        }

        fn encode_state(&self, state: &i64) -> Vec<u8> {
            state.to_le_bytes().to_vec()
        }

        fn decode_state(&self, bytes: &[u8]) -> Result<i64, RedoDecodeError> {
            let arr: [u8; 8] =
                bytes.try_into().map_err(|_| RedoDecodeError::new("state is 8 bytes"))?;
            Ok(i64::from_le_bytes(arr))
        }
    }

    fn obj(timeout: Option<Duration>) -> Arc<TxObject<SpecAdt<MaxReg>>> {
        TxObject::new(
            "m",
            SpecAdt::default(),
            SpecLock::from_def(),
            RuntimeOptions::with_timeout(timeout),
        )
    }

    fn h(n: u64) -> Arc<TxnHandle> {
        TxnHandle::new(TxnId(n))
    }

    #[test]
    fn generic_runtime_executes_folds_and_reads_own_effects() {
        let o = obj(None);
        let t1 = h(1);
        assert_eq!(o.execute(&t1, MaxOp::Raise(5)).unwrap(), MaxRes::Raised(true));
        assert_eq!(o.execute(&t1, MaxOp::Raise(3)).unwrap(), MaxRes::Raised(false));
        assert_eq!(o.execute(&t1, MaxOp::Peak).unwrap(), MaxRes::Val(5));
        o.commit_at(t1.id(), 1);
        assert_eq!(o.committed_snapshot(), 5);
    }

    #[test]
    fn table_lock_blocks_only_related_classes() {
        let o = obj(Some(Duration::from_millis(20)));
        let t1 = h(1);
        assert_eq!(o.execute(&t1, MaxOp::Raise(5)).unwrap(), MaxRes::Raised(true));
        o.commit_at(t1.id(), 1);
        // Against the committed maximum 5: a losing raise and a read
        // coexist (neither holds a Raise-Hi lock)...
        let (t2, t3) = (h(2), h(3));
        assert_eq!(o.execute(&t2, MaxOp::Raise(5)).unwrap(), MaxRes::Raised(false));
        assert_eq!(o.execute(&t3, MaxOp::Peak).unwrap(), MaxRes::Val(5));
        // ...but a winning raise to a different value conflicts with
        // both outstanding operations (KeyNeq: 7 ≠ 5) and blocks.
        let t4 = h(4);
        assert_eq!(
            o.execute(&t4, MaxOp::Raise(7)),
            Err(crate::runtime::ExecError::Timeout),
            "winning raise conflicts with the outstanding read and losing raise"
        );
    }

    #[test]
    fn generic_redo_skips_reads_and_roundtrips() {
        let adt: SpecAdt<MaxReg> = SpecAdt::default();
        assert!(adt.redo(&MaxOp::Peak, &MaxRes::Val(3)).is_none(), "reads are not logged");
        let bytes = adt.redo(&MaxOp::Raise(9), &MaxRes::Raised(true)).unwrap();
        assert_eq!(adt.decode_redo(&bytes).unwrap(), (MaxOp::Raise(9), MaxRes::Raised(true)));
    }

    /// The compiled test on classified operations decides exactly as the
    /// relation's atoms do on the spec-mapped operations, on every pair.
    #[test]
    fn compiled_conflicts_agree_with_the_atoms() {
        let lock = SpecLock::<SpecAdt<MaxReg>>::from_def();
        let ops: Vec<(MaxOp, MaxRes)> = vec![
            (MaxOp::Raise(5), MaxRes::Raised(true)),
            (MaxOp::Raise(5), MaxRes::Raised(false)),
            (MaxOp::Raise(7), MaxRes::Raised(true)),
            (MaxOp::Peak, MaxRes::Val(5)),
            (MaxOp::Peak, MaxRes::Val(7)),
        ];
        let spec = |(op, res): &(MaxOp, MaxRes)| MaxReg.spec_op(op, res);
        let mut conflicting = 0;
        for a in &ops {
            for b in &ops {
                let reference = lock.relation().conflicts(&spec(a), &spec(b));
                assert_eq!(lock.conflicts(a, b), reference, "{a:?} vs {b:?}");
                conflicting += usize::from(reference);
            }
        }
        assert!(conflicting > 0, "some pair conflicts");
    }

    /// A stated table's class that no atom names is outside the
    /// vocabulary: it conflicts with nothing, keeps one id, and keeps its
    /// name for the metrics.
    #[test]
    fn a_class_no_atom_names_keeps_its_name() {
        let lock = SpecLock::<SpecAdt<MaxReg>>::from_def();
        let relation = lock.relation();
        let n = relation.classes().len();
        let outside = relation.class_id(&OpClass::new("Elsewhere"));
        assert_eq!(outside, ClassId(n as u8));
        assert_eq!(relation.class_id(&OpClass::new("Elsewhere")), outside);
        assert_eq!(lock.class_name(outside), OpClass::new("Elsewhere"));
        for id in 0..=n as u8 {
            assert!(!relation.conflicts_classified(outside, ClassId(id), || true));
        }
    }

    #[test]
    fn nondeterministic_defs_offer_multiple_candidates() {
        /// A chooser: `pick()` may answer any element ever offered.
        #[derive(Default)]
        struct Chooser;

        #[derive(Clone, Debug, PartialEq)]
        enum COp {
            Offer(i64),
            Pick,
        }

        impl AdtDef for Chooser {
            type State = Vec<i64>;
            type Op = COp;
            type Res = Option<i64>;

            fn type_name(&self) -> &'static str {
                "Chooser"
            }
            fn initial(&self) -> Vec<i64> {
                Vec::new()
            }
            fn respond(&self, state: &Vec<i64>, op: &COp) -> Vec<Option<i64>> {
                match op {
                    COp::Offer(_) => vec![None],
                    COp::Pick => state.iter().map(|&x| Some(x)).collect(), // empty = blocks
                }
            }
            fn apply(&self, state: &mut Vec<i64>, op: &COp, res: &Option<i64>) {
                match (op, res) {
                    (COp::Offer(x), _) => state.push(*x),
                    (COp::Pick, Some(x)) => state.retain(|y| y != x),
                    _ => {}
                }
            }
            fn is_read(&self, _op: &COp, _res: &Option<i64>) -> bool {
                false
            }
            fn spec_op(&self, op: &COp, res: &Option<i64>) -> Operation {
                match (op, res) {
                    (COp::Offer(x), _) => Operation::new(Inv::unary("offer", *x), Value::Unit),
                    (COp::Pick, Some(x)) => Operation::new(Inv::nullary("pick"), *x),
                    (COp::Pick, None) => unreachable!("pick answers an element"),
                }
            }
            fn conflict_spec(&self) -> ConflictSpec {
                ConflictSpec::Table(
                    Relation::empty(|op| {
                        OpClass::new(if op.inv.op == "offer" { "Offer" } else { "Pick" })
                    })
                    .rule("Pick", "Pick", Cond::KeyEq),
                )
            }
            fn encode_op(&self, op: &COp, res: &Option<i64>) -> Vec<u8> {
                format!("{op:?}/{res:?}").into_bytes()
            }
            fn decode_op(&self, _bytes: &[u8]) -> Result<(COp, Option<i64>), RedoDecodeError> {
                Err(RedoDecodeError::new("not needed in this test"))
            }
            fn encode_state(&self, _state: &Vec<i64>) -> Vec<u8> {
                Vec::new()
            }
            fn decode_state(&self, _bytes: &[u8]) -> Result<Vec<i64>, RedoDecodeError> {
                Err(RedoDecodeError::new("not needed in this test"))
            }
        }

        let o: Arc<TxObject<SpecAdt<Chooser>>> =
            TxObject::new("c", SpecAdt::default(), SpecLock::from_def(), RuntimeOptions::default());
        let t0 = h(1);
        o.execute(&t0, COp::Offer(1)).unwrap();
        o.execute(&t0, COp::Offer(2)).unwrap();
        o.commit_at(t0.id(), 1);
        // Two concurrent picks take *different* elements instead of
        // conflicting — the semiqueue's nondeterminism dividend,
        // reproduced by a fully generic definition.
        let (t1, t2) = (h(2), h(3));
        let a = o.execute(&t1, COp::Pick).unwrap();
        let b = o.execute(&t2, COp::Pick).unwrap();
        assert_ne!(a, b, "the second pick was granted the other element");
    }
}
