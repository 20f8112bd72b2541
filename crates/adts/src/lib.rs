//! # hcc-adts — production data types for the hybrid runtime
//!
//! Each module states what is genuinely one data type's own:
//!
//! 1. a [`hcc_core::runtime::RuntimeAdt`] — compact version + intent
//!    summaries (the appendix pattern), with its self-logging redo codec;
//! 2. a hybrid [`hcc_core::runtime::LockSpec`] encoding the paper's derived
//!    conflict relation (the symmetric closure of the type's minimal
//!    dependency relation), response-aware where the paper's is
//!    (Account, Set, Directory);
//! 3. an [`ObjectAdt`] impl naming that relation as canonical and giving
//!    the version's checkpoint codec;
//! 4. the typed methods (`credit`, `enq`, …) of its object alias, plus a
//!    mapping onto the dynamic `hcc-spec` operations, so integration tests
//!    can check runtime histories against the formal specification.
//!
//! Everything type-*independent* is written once for [`Object<A>`]:
//! construction (`hybrid` / `with` / `with_options`), `execute`,
//! `committed_state` / `state_at`, the checkpoint and recovery hooks
//! ([`snapshot`]), and — in `hcc-db` — the typed `Db` handle and the
//! snapshot-read view. `AccountObject`, `QueueObject<T>`, `SpecObject<D>`
//! … are type aliases of it.
//!
//! The types: [`account`] (Table V), [`fifo_queue`] (Table II; its other
//! minimal relation, Table III, is derived where the commutativity scheme
//! needs it), [`semiqueue`] (Table IV),
//! [`file`] (Table I / generalized Thomas Write Rule), and the extension
//! types [`counter`], [`set`], [`directory`]; [`define`] runs any
//! declaratively defined type behind the same object.
//!
//! Every type is **self-logging**: its `RuntimeAdt::redo` serializes each
//! mutating operation as a compact JSON payload
//! (`{"op":"credit","v":…}`), which the object runtime routes into the
//! owning transaction manager's durable store automatically when one is
//! attached. `decode_redo` is the exact inverse, used by recovery replay.

use hcc_core::runtime::RedoDecodeError;
use serde::Deserialize;

/// Parse a redo payload into its `"op"` discriminator and the whole value.
pub(crate) fn decode_op(bytes: &[u8]) -> Result<(String, serde_json::Value), RedoDecodeError> {
    let v: serde_json::Value = serde_json::from_slice(bytes)
        .map_err(|e| RedoDecodeError::new(format!("redo payload is not JSON: {e}")))?;
    let op = v["op"]
        .as_str()
        .ok_or_else(|| RedoDecodeError::new("redo payload has no \"op\" field"))?
        .to_string();
    Ok((op, v))
}

/// Decode one typed field of a redo payload.
pub(crate) fn decode_field<T: Deserialize>(
    v: &serde_json::Value,
    key: &str,
) -> Result<T, RedoDecodeError> {
    serde_json::from_value(&v[key])
        .map_err(|e| RedoDecodeError::new(format!("redo field {key:?}: {e}")))
}

pub mod account;
pub mod counter;
pub mod define;
pub mod directory;
pub mod fifo_queue;
pub mod file;
pub mod object;
pub mod semiqueue;
pub mod set;
pub mod snapshot;

pub use account::AccountObject;
pub use counter::CounterObject;
pub use define::SpecObject;
pub use directory::DirectoryObject;
pub use fifo_queue::QueueObject;
pub use file::FileObject;
pub use object::{Object, ObjectAdt};
pub use semiqueue::SemiqueueObject;
pub use set::SetObject;
