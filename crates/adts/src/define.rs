//! The declarative ADT surface's place in `hcc-adts`: [`SpecObject`] is
//! [`Object`] over the generic [`SpecAdt`] adapter, so any [`AdtDef`] is a
//! named transactional object with the same snapshot, recovery-replay and
//! typed-handle support as the built-ins — plus the
//! [`define_adt!`](crate::define_adt) macro, which writes the serde codec
//! half of an [`AdtDef`] for serde-able state/op/response types.
//!
//! A user states the type once:
//!
//! ```
//! use hcc_adts::define::{AdtDef, ConflictSpec, DeriveSpec, OpClass, Operation, SpecObject};
//! use hcc_adts::define_adt;
//! use hcc_spec::adt::{Adt, SpecState};
//! use hcc_spec::{Inv, Value};
//! use serde::{Deserialize, Serialize};
//! use std::sync::Arc;
//!
//! // Serial specification (dynamic): a grow-only tally.
//! struct TallySpec;
//! impl Adt for TallySpec {
//!     fn initial(&self) -> SpecState { SpecState(Value::Int(0)) }
//!     fn step(&self, s: &SpecState, inv: &Inv) -> Vec<(Value, SpecState)> {
//!         let n = s.0.as_int();
//!         match inv.op {
//!             "bump" => vec![(Value::Unit, SpecState(Value::Int(n + 1)))],
//!             "total" => vec![(Value::Int(n), s.clone())],
//!             _ => vec![],
//!         }
//!     }
//!     fn type_name(&self) -> &'static str { "Tally" }
//! }
//!
//! #[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
//! pub enum TallyOp { Bump, Total }
//! #[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
//! pub enum TallyRes { Ok, Total(i64) }
//!
//! define_adt! {
//!     /// A grow-only tally: blind bumps commute, totals are reads.
//!     pub struct TallyDef {
//!         name: "Tally",
//!         state: i64,
//!         op: TallyOp,
//!         res: TallyRes,
//!         initial: || 0,
//!         respond: |s: &i64, op: &TallyOp| match op {
//!             TallyOp::Bump => vec![TallyRes::Ok],
//!             TallyOp::Total => vec![TallyRes::Total(*s)],
//!         },
//!         apply: |s: &mut i64, op: &TallyOp, _res: &TallyRes| {
//!             if matches!(op, TallyOp::Bump) { *s += 1; }
//!         },
//!         read: |op: &TallyOp, _res: &TallyRes| matches!(op, TallyOp::Total),
//!         spec_op: |op: &TallyOp, res: &TallyRes| match (op, res) {
//!             (TallyOp::Bump, _) => Operation::new(Inv::nullary("bump"), Value::Unit),
//!             (TallyOp::Total, TallyRes::Total(v)) => Operation::new(Inv::nullary("total"), *v),
//!             _ => unreachable!(),
//!         },
//!         conflicts: || ConflictSpec::Derived(DeriveSpec {
//!             adt: Arc::new(TallySpec),
//!             alphabet: {
//!                 let mut a = vec![Operation::new(Inv::nullary("bump"), Value::Unit)];
//!                 a.extend((0..3).map(|v| Operation::new(Inv::nullary("total"), v)));
//!                 a
//!             },
//!             classify: |op| OpClass::new(if op.inv.op == "bump" { "Bump" } else { "Total" }),
//!             bounds: Default::default(),
//!         }),
//!     }
//! }
//!
//! let tally = SpecObject::<TallyDef>::hybrid("t");
//! let txn = hcc_core::runtime::TxnHandle::new(hcc_spec::TxnId(1));
//! assert_eq!(tally.execute(&txn, TallyOp::Bump).unwrap(), TallyRes::Ok);
//! ```
//!
//! and `db.object::<SpecObject<TallyDef>>("t")` then hands out a durable,
//! recovering, self-logging handle with no further impls.

use crate::object::{Object, ObjectAdt};
use hcc_core::runtime::LockSpec;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

pub use hcc_core::runtime::{AdtDef, ConflictSpec, RedoDecodeError, SpecAdt, SpecLock};
pub use hcc_relations::derive::{
    check_bounds_invariance, derivations_performed, BoundsDrift, DeriveSpec,
};
pub use hcc_relations::invalidated_by::Bounds;
pub use hcc_relations::relation::{Cond, OpClass, Relation};
pub use hcc_relations::tables::AdtConfig;
pub use hcc_spec::Operation;

/// A named transactional object running a declaratively defined type:
/// the same [`Object`] the built-ins run behind, over the generic
/// [`SpecAdt`] adapter.
pub type SpecObject<D> = Object<SpecAdt<D>>;

/// The two things [`Object`] asks of a type, read off the definition:
/// the relation its [`ConflictSpec`] names and its state codec.
impl<D: AdtDef> ObjectAdt for SpecAdt<D> {
    fn canonical_locks() -> Arc<dyn LockSpec<SpecAdt<D>>> {
        SpecLock::<SpecAdt<D>>::from_def()
    }

    fn encode_version(&self, state: &D::State) -> Vec<u8> {
        self.def().encode_state(state)
    }

    fn decode_version(&self, bytes: &[u8]) -> Result<D::State, RedoDecodeError> {
        self.def().decode_state(bytes)
    }
}

// ---- serde-JSON codec helpers (the macro's generated bodies) -----------

/// Encode an executed operation as the compact JSON pair `[op, res]`.
pub fn encode_json_op<O: Serialize, R: Serialize>(op: &O, res: &R) -> Vec<u8> {
    serde_json::to_vec(&(op, res)).expect("serde-able ops serialize")
}

/// Decode a payload produced by [`encode_json_op`].
pub fn decode_json_op<O: Deserialize, R: Deserialize>(
    bytes: &[u8],
) -> Result<(O, R), RedoDecodeError> {
    serde_json::from_slice(bytes).map_err(|e| RedoDecodeError::new(e.to_string()))
}

/// Encode a state as compact JSON.
pub fn encode_json_state<S: Serialize>(state: &S) -> Vec<u8> {
    serde_json::to_vec(state).expect("serde-able states serialize")
}

/// Decode a payload produced by [`encode_json_state`].
pub fn decode_json_state<S: Deserialize>(bytes: &[u8]) -> Result<S, RedoDecodeError> {
    serde_json::from_slice(bytes).map_err(|e| RedoDecodeError::new(e.to_string()))
}

/// Implement [`AdtDef`] from a declarative block: the user states name,
/// types, and semantics; the macro writes the `Default` carrier type and
/// the serde-JSON codec (`[op, res]` pairs for the WAL, plain JSON for
/// checkpoint snapshots). Types needing a custom wire format — or whose
/// op/state types aren't serde-able — implement [`AdtDef`] by hand
/// instead; the ported built-ins (`CounterDef`, `SetDef`) do exactly
/// that to stay byte-compatible with their hand-written twins' logs.
///
/// See the [module docs](crate::define) for a complete example.
#[macro_export]
macro_rules! define_adt {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            name: $tn:literal,
            state: $state:ty,
            op: $op:ty,
            res: $res:ty,
            initial: $initial:expr,
            respond: $respond:expr,
            apply: $apply:expr,
            read: $read:expr,
            spec_op: $spec_op:expr,
            conflicts: $conflicts:expr $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Default)]
        $vis struct $name;

        impl $crate::define::AdtDef for $name {
            type State = $state;
            type Op = $op;
            type Res = $res;

            fn type_name(&self) -> &'static str {
                $tn
            }

            fn initial(&self) -> Self::State {
                ($initial)()
            }

            fn respond(&self, state: &Self::State, op: &Self::Op) -> ::std::vec::Vec<Self::Res> {
                ($respond)(state, op)
            }

            fn apply(&self, state: &mut Self::State, op: &Self::Op, res: &Self::Res) {
                ($apply)(state, op, res)
            }

            fn is_read(&self, op: &Self::Op, res: &Self::Res) -> bool {
                ($read)(op, res)
            }

            fn spec_op(&self, op: &Self::Op, res: &Self::Res) -> $crate::define::Operation {
                ($spec_op)(op, res)
            }

            fn conflict_spec(&self) -> $crate::define::ConflictSpec {
                ($conflicts)()
            }

            fn encode_op(&self, op: &Self::Op, res: &Self::Res) -> ::std::vec::Vec<u8> {
                $crate::define::encode_json_op(op, res)
            }

            fn decode_op(
                &self,
                bytes: &[u8],
            ) -> ::std::result::Result<(Self::Op, Self::Res), $crate::define::RedoDecodeError> {
                $crate::define::decode_json_op(bytes)
            }

            fn encode_state(&self, state: &Self::State) -> ::std::vec::Vec<u8> {
                $crate::define::encode_json_state(state)
            }

            fn decode_state(
                &self,
                bytes: &[u8],
            ) -> ::std::result::Result<Self::State, $crate::define::RedoDecodeError> {
                $crate::define::decode_json_state(bytes)
            }
        }
    };
}
