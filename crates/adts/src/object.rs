//! [`Object`]: the one named transactional object every data type runs
//! behind, and [`ObjectAdt`]: the two things a type states to get one.
//!
//! In the paper the type-specific parts of an object are its serial
//! specification, its intentions and the conflict relation derived from
//! them; locking, the horizon/`forget()` compaction and recovery are one
//! automaton parameterised by the type. The code reads the same way: a
//! module states a [`RuntimeAdt`] (version + intents), its canonical
//! conflict relation and a version codec, and `Object<A>` supplies the
//! constructors, the checkpoint/recovery hooks ([`crate::snapshot`]) and —
//! in `hcc-db` — the typed `Db` handle and the snapshot-read view, once.
//! `AccountObject`, `QueueObject<T>`, `SpecObject<D>` … are aliases of
//! `Object<A>` whose typed methods (`credit`, `enq`, …) live in an
//! inherent impl beside the type.

use hcc_core::runtime::{
    ExecError, RedoDecodeError, RuntimeAdt, RuntimeOptions, SnapshotStale, SpecLock, TxObject,
    TxnHandle,
};
use hcc_relations::derive::conflict_atoms;
use hcc_relations::relation::Relation;
use hcc_relations::tables::AdtConfig;
use std::sync::{Arc, OnceLock};

/// A [`RuntimeAdt`] that can stand behind an [`Object`]: it names its
/// canonical conflict relation and serializes its committed version.
/// Both are required — every durable type must say what its checkpoint
/// image is, and which relation `Db::object` runs it under.
pub trait ObjectAdt: RuntimeAdt + Default {
    /// The type's canonical conflict relation: for a built-in, the hybrid
    /// relation derived from its serial specification, once per process;
    /// for a declaratively defined type, the definition's
    /// [`ConflictSpec`].
    ///
    /// [`ConflictSpec`]: hcc_core::runtime::ConflictSpec
    fn canonical_locks() -> SpecLock<Self>;

    /// Serialize a committed version — the checkpoint image. The bytes
    /// are an on-disk format: changing them strands old checkpoints.
    fn encode_version(&self, version: &Self::Version) -> Vec<u8>;

    /// Decode a payload produced by [`ObjectAdt::encode_version`].
    fn decode_version(&self, bytes: &[u8]) -> Result<Self::Version, RedoDecodeError>;
}

/// The hybrid relation `config` derives from a built-in's serial
/// specification (the invalidated-by relation, §4), over the config's
/// classes in table order. The derivation runs once per process and
/// `cell`, the type's own, holds the result: a repeat open clones it.
pub(crate) fn derived_hybrid(
    cell: &'static OnceLock<Relation>,
    config: fn() -> AdtConfig,
) -> Relation {
    cell.get_or_init(|| config().cached(conflict_atoms)).clone()
}

/// A named transactional object of type `A`.
pub struct Object<A: RuntimeAdt> {
    obj: Arc<TxObject<A>>,
}

impl<A: ObjectAdt> Object<A> {
    /// An object under the type's canonical (hybrid) conflict relation
    /// and default runtime options.
    pub fn hybrid(name: impl Into<String>) -> Object<A> {
        Self::with_options(name, RuntimeOptions::default())
    }

    /// Canonical conflict relation, caller-supplied runtime options (what
    /// `Db::object` constructs handles with).
    pub fn with_options(name: impl Into<String>, opts: RuntimeOptions) -> Object<A> {
        Self::with(name, A::canonical_locks(), opts)
    }

    /// Another lock relation over the same type — a rival scheme, a
    /// stated table.
    pub fn with(name: impl Into<String>, locks: SpecLock<A>, opts: RuntimeOptions) -> Object<A> {
        Object { obj: TxObject::new(name, A::default(), locks, opts) }
    }

    /// The underlying runtime object.
    pub fn inner(&self) -> &Arc<TxObject<A>> {
        &self.obj
    }

    /// Execute one operation with blocking, under `txn`.
    pub fn execute(&self, txn: &Arc<TxnHandle>, inv: A::Inv) -> Result<A::Res, ExecError> {
        self.obj.execute(txn, inv)
    }

    /// The committed state (diagnostics; no isolation).
    pub fn committed_state(&self) -> A::Version {
        self.obj.committed_snapshot()
    }

    /// The state as of commit timestamp `watermark` — the wait-free
    /// snapshot-read accessor: no lock acquisition, no conflict with
    /// writers. Refused when compaction (or a checkpoint restore) has
    /// folded past `watermark`.
    pub fn state_at(&self, watermark: u64) -> Result<A::Version, SnapshotStale> {
        self.obj.snapshot_read(watermark)
    }
}
