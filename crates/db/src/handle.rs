//! [`DbObject`]: the typed-handle trait behind [`crate::Db::object`],
//! [`crate::Db::object_with`] and [`crate::ReadTx::view`].
//!
//! It is implemented once, for `hcc-adts`'s [`Object<A>`], so
//! `db.object::<AccountObject>("checking")` constructs the object under
//! the database's runtime options (deadlock observer, redo sink, horizon
//! registry), registers it for checkpointing and recovery, and
//! materializes any state the log already holds under that name — all in
//! one call. The `Db` builds every object it holds, so forgetting to
//! register, or registering an object built over other options, is
//! unrepresentable; a custom type joins by implementing [`ObjectAdt`] (a
//! codec and a canonical relation), not by writing handle impls.

use hcc_adts::{Object, ObjectAdt};
use hcc_core::runtime::{RuntimeOptions, SnapshotStale};
use hcc_storage::DurableObject;
use std::sync::Arc;

mod sealed {
    /// Implemented for `Object<A>` alone, so no other crate can
    /// implement [`super::DbObject`].
    pub trait Sealed {}
    impl<A: hcc_adts::ObjectAdt> Sealed for hcc_adts::Object<A> {}
}

/// A durable type [`crate::Db`] can hand out as a typed handle and read
/// through a [`crate::ReadTx`].
///
/// `fresh` constructs an *empty* instance under `name` with the
/// database's runtime options — under the type's canonical hybrid
/// (paper-table) conflict relation. The `Db` then restores/replays the
/// log's state into it and registers it; callers never see the blank
/// instance when the name has durable history.
///
/// The trait is sealed: its one impl is for [`Object<A>`], and a custom
/// type joins by implementing [`ObjectAdt`].
///
/// To run a non-default conflict relation (a baseline scheme, a stated
/// lock table), open the name with [`crate::Db::object_with`].
pub trait DbObject: DurableObject + sealed::Sealed + Sized + 'static {
    /// The typed snapshot a read yields (balance, deque, map, a defined
    /// type's state).
    type View;

    /// A fresh, empty instance named `name`, built with `opts`.
    fn fresh(name: &str, opts: RuntimeOptions) -> Arc<Self>;

    /// The view as of commit timestamp `watermark`, taken without any
    /// lock acquisition. Errs when compaction has already folded a later
    /// commit into the base version.
    fn view_at(&self, watermark: u64) -> Result<Self::View, SnapshotStale>;
}

/// Every object type is a `Db` citizen through this one impl — the
/// built-ins and every declaratively defined `SpecObject<MyDef>` alike:
/// constructed under the type's canonical conflict relation
/// ([`ObjectAdt::canonical_locks`]), registered, materialized from its
/// durable history, and read as its committed version.
impl<A: ObjectAdt> DbObject for Object<A> {
    type View = A::Version;

    fn fresh(name: &str, opts: RuntimeOptions) -> Arc<Self> {
        Arc::new(Object::with_options(name, opts))
    }

    fn view_at(&self, watermark: u64) -> Result<A::Version, SnapshotStale> {
        self.state_at(watermark)
    }
}
