//! [`DbObject`]: the typed-handle trait behind [`crate::Db::object`].
//!
//! It is implemented once, for `hcc-adts`'s [`Object<A>`], so
//! `db.object::<AccountObject>("checking")` constructs the object under
//! the database's runtime options (deadlock observer, redo sink),
//! registers it for checkpointing and recovery, and materializes
//! any state the log already holds under that name — all in one call.
//! Forgetting to register is unrepresentable; a custom type joins by
//! implementing [`ObjectAdt`] (a codec and a canonical relation), not by
//! writing handle impls.

use hcc_adts::{Object, ObjectAdt};
use hcc_core::runtime::RuntimeOptions;
use hcc_storage::DurableObject;
use std::sync::Arc;

/// A durable type [`crate::Db`] can hand out as a typed handle.
///
/// `fresh` constructs an *empty* instance under `name` with the
/// database's runtime options — under the type's canonical hybrid
/// (paper-table) conflict relation. The `Db` then restores/replays the
/// log's state into it and registers it; callers never see the blank
/// instance when the name has durable history.
///
/// To use a non-default conflict relation (a baseline scheme, a custom
/// lock table), build the object yourself with
/// [`crate::Db::object_options`] and hand it to [`crate::Db::attach`].
pub trait DbObject: DurableObject + Sized + 'static {
    /// A fresh, empty instance named `name`, built with `opts`.
    fn fresh(name: &str, opts: RuntimeOptions) -> Arc<Self>;
}

/// Every object type is a `Db` citizen through this one impl — the
/// built-ins and every declaratively defined `SpecObject<MyDef>` alike:
/// constructed under the type's canonical conflict relation
/// ([`ObjectAdt::canonical_locks`]), registered, and materialized from
/// its durable history.
impl<A: ObjectAdt> DbObject for Object<A> {
    fn fresh(name: &str, opts: RuntimeOptions) -> Arc<Self> {
        Arc::new(Object::with_options(name, opts))
    }
}
