//! Traits connecting typed data types and concurrency-control schemes to
//! the generic object runtime.

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
}

/// An executed operation pre-classified for conflict testing: its
/// mapping onto the formal layer (`hcc-spec`'s dynamic [`Operation`])
/// and the conflict class that mapping lands in.
///
/// Schemes that classify through a spec mapping ([`super::SpecLock`])
/// compute this **once per executed operation** via
/// [`LockSpec::prepare`]; the runtime stores it beside the op and feeds
/// it back into every later [`LockSpec::conflicts_prepared`] test, so
/// the per-op `spec_op` + classification work leaves the lock-test hot
/// path. Hand-written schemes that pattern-match invocations directly
/// return `None` from `prepare` and never see this type.
///
/// [`Operation`]: hcc_spec::Operation
#[derive(Clone, Debug)]
pub struct ClassifiedOp {
    /// The executed operation lifted into the dynamic spec layer.
    pub op: hcc_spec::Operation,
    /// The conflict class the lifted operation belongs to.
    pub class: hcc_relations::relation::OpClass,
}

/// A lock-conflict test over executed operations `(invocation, response)`.
///
/// The same [`RuntimeAdt`] can run under different schemes: the hybrid
/// dependency-based relation (this paper), Weihl's commutativity-based
/// relation, or classical read/write locking — only this trait changes.
pub trait LockSpec<A: RuntimeAdt + ?Sized>: Send + Sync {
    /// Do two executed operations of *different* active transactions
    /// conflict? Must be symmetric.
    fn conflicts(&self, a: &(A::Inv, A::Res), b: &(A::Inv, A::Res)) -> bool;

    /// Pre-classify `op` for memoized conflict testing. The runtime
    /// calls this once when an operation is executed (and once per
    /// *candidate* during a grant attempt), stores the result beside the
    /// op, and passes both operations' tokens to
    /// [`LockSpec::conflicts_prepared`]. The default (`None`) keeps
    /// schemes that don't classify through a spec mapping on the plain
    /// [`LockSpec::conflicts`] path.
    fn prepare(&self, op: &(A::Inv, A::Res)) -> Option<ClassifiedOp> {
        let _ = op;
        None
    }

    /// [`LockSpec::conflicts`] with the memoized classifications in
    /// hand. Implementations that override [`LockSpec::prepare`] should
    /// use the tokens instead of re-deriving them; the default ignores
    /// the tokens and defers to `conflicts`. Must agree with
    /// `conflicts` whenever both tokens came from `prepare` on the same
    /// operations — the derived-vs-hand differential tests exercise the
    /// un-memoized entry point directly.
    fn conflicts_prepared(
        &self,
        a: &(A::Inv, A::Res),
        ap: Option<&ClassifiedOp>,
        b: &(A::Inv, A::Res),
        bp: Option<&ClassifiedOp>,
    ) -> bool {
        let _ = (ap, bp);
        self.conflicts(a, b)
    }

    /// Scheme name (`"hybrid"`, `"commutativity"`, `"rw-2pl"`) for
    /// experiment output.
    fn name(&self) -> &'static str;

    /// The conflict class the executed operation `op` belongs to, when
    /// this scheme names its classes — the row/column labels of the
    /// paper's conflict tables (`"Debit-Ok"`, `"Deq"`, …). Lock
    /// metrics key grant/refusal counters by these names so a live
    /// system's counters line up with the tables in the paper. `None`
    /// (the default) makes the runtime fall back to a label derived from
    /// the invocation's `Debug` form.
    fn class_of(&self, op: &(A::Inv, A::Res)) -> Option<String> {
        let _ = op;
        None
    }
}
