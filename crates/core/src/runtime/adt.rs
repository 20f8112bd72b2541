//! The trait connecting typed data types to the generic object runtime,
//! and the classified form of an executed operation its lock test reads.

use hcc_relations::relation::{ClassId, Relation};

/// A redo payload could not be decoded back into an executed operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RedoDecodeError(pub String);

impl RedoDecodeError {
    /// Construct an error.
    pub fn new(msg: impl Into<String>) -> RedoDecodeError {
        RedoDecodeError(msg.into())
    }
}

impl std::fmt::Display for RedoDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "redo decode error: {}", self.0)
    }
}

impl std::error::Error for RedoDecodeError {}

/// A production implementation of a data type: a compact committed version
/// plus per-transaction intent summaries.
///
/// This is the appendix's pattern: an `Account`'s version is a balance, and
/// a transaction's intent is the affine transformation `b ↦ mul·b + add`
/// summarizing its credits, posts and debits. A FIFO queue's version is a
/// deque and an intent is the transaction's operation list.
pub trait RuntimeAdt: Send + Sync + 'static {
    /// The compacted committed state (the appendix's `bal`, a queue's
    /// deque, ...).
    type Version: Clone + Send + Sync;
    /// A transaction's intention summary; `Default` is the empty intent.
    type Intent: Clone + Default + Send + Sync;
    /// Invocations (typed, unlike the formal layer's dynamic `Inv`).
    type Inv: Clone + Send + Sync + std::fmt::Debug;
    /// Responses.
    type Res: Clone + PartialEq + Send + Sync + std::fmt::Debug;

    /// The initial version.
    fn initial(&self) -> Self::Version;

    /// Evaluate `inv` against the transaction's *view*: the compacted
    /// version, the committed-but-unforgotten intents in timestamp order,
    /// and the transaction's own intent.
    ///
    /// Pushes the specification's candidate `(response, updated-intent)`
    /// pairs onto `out` in preference order — several for
    /// nondeterministic operations (the runtime grants the first whose
    /// lock is available), none when the operation is not defined in
    /// this view (partial operations block). `out` arrives empty: it is
    /// the object's one candidate buffer, cleared and reused under its
    /// latch, so evaluating an operation allocates no list of its own.
    fn candidates(
        &self,
        version: &Self::Version,
        committed: &[&Self::Intent],
        own: &Self::Intent,
        inv: &Self::Inv,
        out: &mut Vec<(Self::Res, Self::Intent)>,
    );

    /// Fold a committed intent into the version (the appendix's
    /// `bal = i.mul * bal + i.add` inside `forget()`).
    fn apply(&self, version: &mut Self::Version, intent: &Self::Intent);

    /// Serialize an executed operation `(inv, res)` as an opaque redo
    /// payload, or `None` for operations with no durable effect worth
    /// replaying (pure reads).
    ///
    /// This is the intrinsic half of the write-ahead discipline: when an
    /// object's options carry a redo sink, every mutating execution routes
    /// this payload into the transaction manager's durable log
    /// automatically — callers never log by hand, so forgetting to log is
    /// not expressible. The method is deliberately *required* (no default
    /// body): every data type must decide what its redo record is, or
    /// state explicitly that it has none.
    fn redo(&self, inv: &Self::Inv, res: &Self::Res) -> Option<Vec<u8>>;

    /// Decode a payload produced by [`RuntimeAdt::redo`] back into the
    /// executed operation `(invocation, expected response)` for recovery
    /// replay. Types whose `redo` always returns `None` should return an
    /// error.
    fn decode_redo(&self, bytes: &[u8]) -> Result<(Self::Inv, Self::Res), RedoDecodeError>;

    /// The type's name for diagnostics.
    fn type_name(&self) -> &'static str;

    /// What a relation's key conditions (`v = v′`, `v ≠ v′`) compare: an
    /// operation's first argument, else its response.
    type Key: PartialEq + Send + Sync;

    /// The class names [`RuntimeAdt::classify`] numbers, in its order: the
    /// rows of the type's paper table. Empty for a type that files its
    /// operations by name through the relation ([`super::SpecAdt`]).
    const CLASSES: &'static [&'static str] = &[];

    /// File the executed operation `(inv, res)` for `relation`'s lock
    /// test, exactly as mapping it onto the formal layer, classifying the
    /// result and taking its key (`hcc_relations::relation::key_value`)
    /// would. A type with [`RuntimeAdt::CLASSES`] numbers its classes in
    /// that order, and the lock compiles the relation over them.
    fn classify(relation: &Relation, inv: &Self::Inv, res: &Self::Res) -> Classified<Self::Key>;
}

/// An executed operation filed for the lock test: its class in the
/// relation's vocabulary and its key, the value the relation's key
/// conditions compare (`None` for an operation with neither argument nor
/// response).
#[derive(Clone, Debug, PartialEq)]
pub struct Classified<K> {
    /// The operation's conflict class.
    pub class: ClassId,
    /// Its first argument, else its response.
    pub key: Option<K>,
}

impl<K: PartialEq> Classified<K> {
    /// Do the two keys fall in the [`Cond::KeyEq`] bucket: equal, or
    /// either one absent ([`pair_cond`])?
    ///
    /// [`Cond::KeyEq`]: hcc_relations::relation::Cond::KeyEq
    /// [`pair_cond`]: hcc_relations::relation::pair_cond
    pub fn same_key(&self, other: &Classified<K>) -> bool {
        match (&self.key, &other.key) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        }
    }
}
