//! The Account type (paper appendix, Tables V and VI).
//!
//! A transaction's intent is the affine transformation `b ↦ mul·b + add`
//! summarizing its credits, interest postings and debits — exactly the
//! appendix's `struct intent { float mul; float add; }`, but over exact
//! rationals. The hybrid conflict relation, derived from [`AccountSpec`],
//! is the symmetric closure of Table V:
//!
//! ```text
//! locks.define(CREDIT_LOCK,    OVERDRAFT_LOCK);
//! locks.define(POST_LOCK,      OVERDRAFT_LOCK);
//! locks.define(DEBIT_LOCK,     DEBIT_LOCK);
//! ```

use crate::define::{decode_json_state, encode_json_state};
use crate::object::{derived_hybrid, Object, ObjectAdt};
use hcc_core::runtime::{Classified, ExecError, RedoDecodeError, RuntimeAdt, SpecLock, TxnHandle};
use hcc_relations::relation::{ClassId, Relation};
use hcc_relations::tables::AdtConfig;
use hcc_spec::adt::SharedAdt;
use hcc_spec::specs::AccountSpec;
use hcc_spec::{Operation, Rational, Value};
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

/// Account invocations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AccountInv {
    /// Increase the balance.
    Credit(Rational),
    /// Post interest: multiply the balance by `1 + pct/100`.
    Post(Rational),
    /// Attempt to decrease the balance.
    Debit(Rational),
}

/// Account responses. Debits are response-classified: a successful debit
/// takes a `DEBIT_LOCK`, an overdraft takes an `OVERDRAFT_LOCK`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AccountRes {
    /// Credit/Post acknowledgement.
    Ok,
    /// Debit succeeded.
    Debited,
    /// Debit refused: insufficient funds; balance unchanged.
    Overdraft,
}

/// A transaction's intention: the affine map `b ↦ mul·b + add`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Affine {
    /// Multiplicative component.
    pub mul: Rational,
    /// Additive component.
    pub add: Rational,
}

impl Default for Affine {
    fn default() -> Self {
        Affine { mul: Rational::ONE, add: Rational::ZERO }
    }
}

impl Affine {
    /// Apply the transformation to a balance.
    pub fn apply(&self, b: Rational) -> Rational {
        b * self.mul + self.add
    }

    fn then_credit(&self, amt: Rational) -> Affine {
        Affine { mul: self.mul, add: self.add + amt }
    }

    fn then_debit(&self, amt: Rational) -> Affine {
        Affine { mul: self.mul, add: self.add - amt }
    }

    fn then_post(&self, pct: Rational) -> Affine {
        let m = Rational::percent_multiplier(pct);
        Affine { mul: self.mul * m, add: self.add * m }
    }
}

/// The Account runtime type.
#[derive(Default)]
pub struct AccountAdt;

impl RuntimeAdt for AccountAdt {
    type Version = Rational;
    type Intent = Affine;
    type Inv = AccountInv;
    type Res = AccountRes;

    fn initial(&self) -> Rational {
        Rational::ZERO
    }

    fn candidates(
        &self,
        version: &Rational,
        committed: &[&Affine],
        own: &Affine,
        inv: &AccountInv,
        out: &mut Vec<(AccountRes, Affine)>,
    ) {
        out.push(match inv {
            AccountInv::Credit(a) => (AccountRes::Ok, own.then_credit(*a)),
            AccountInv::Post(p) => (AccountRes::Ok, own.then_post(*p)),
            AccountInv::Debit(a) => {
                // The appendix's `sufficient()`: fold the view to a balance.
                let mut bal = *version;
                for i in committed {
                    bal = i.apply(bal);
                }
                bal = own.apply(bal);
                if bal >= *a {
                    (AccountRes::Debited, own.then_debit(*a))
                } else {
                    (AccountRes::Overdraft, own.clone())
                }
            }
        });
    }

    fn apply(&self, version: &mut Rational, intent: &Affine) {
        *version = intent.apply(*version);
    }

    /// The compact JSON `serde_json` renders for
    /// `{"op": …, "v": amount, "ok": …}` — keys sorted, the amount as its
    /// `{"den","num"}` object — written directly, byte for byte, without
    /// building a value tree (`redo_bytes_match_the_serde_json_rendering`
    /// pins the equality).
    fn redo(&self, inv: &AccountInv, res: &AccountRes) -> Option<Vec<u8>> {
        let (op, amount, ok) = match (inv, res) {
            (AccountInv::Credit(a), _) => ("credit", a, None),
            (AccountInv::Post(p), _) => ("post", p, None),
            // Overdrafts change no state, but the refusal is part of the
            // history the verifier checks — they replay as refusals.
            (AccountInv::Debit(a), AccountRes::Debited) => ("debit", a, Some(true)),
            (AccountInv::Debit(a), AccountRes::Overdraft) => ("debit", a, Some(false)),
            (AccountInv::Debit(_), AccountRes::Ok) => {
                unreachable!("debits respond Debited or Overdraft")
            }
        };
        let mut out = String::with_capacity(64);
        out.push('{');
        if let Some(ok) = ok {
            out.push_str(if ok { "\"ok\":true," } else { "\"ok\":false," });
        }
        write!(
            out,
            "\"op\":\"{op}\",\"v\":{{\"den\":{},\"num\":{}}}}}",
            amount.denominator(),
            amount.numerator()
        )
        .expect("writing to a String cannot fail");
        Some(out.into_bytes())
    }

    fn decode_redo(&self, bytes: &[u8]) -> Result<(AccountInv, AccountRes), RedoDecodeError> {
        let (op, v) = crate::decode_op(bytes)?;
        let amt: Rational = crate::decode_field(&v, "v")?;
        match op.as_str() {
            "credit" => Ok((AccountInv::Credit(amt), AccountRes::Ok)),
            "post" => Ok((AccountInv::Post(amt), AccountRes::Ok)),
            "debit" => {
                let ok: bool = crate::decode_field(&v, "ok")?;
                let res = if ok { AccountRes::Debited } else { AccountRes::Overdraft };
                Ok((AccountInv::Debit(amt), res))
            }
            other => Err(RedoDecodeError::new(format!("unknown account op {other:?}"))),
        }
    }

    fn type_name(&self) -> &'static str {
        "Account"
    }

    type Key = Rational;
    const CLASSES: &'static [&'static str] = &["Credit", "Post", "Debit-Ok", "Debit-Overdraft"];

    /// Table V's rows; every operation's key is its amount.
    fn classify(_: &Relation, inv: &AccountInv, res: &AccountRes) -> Classified<Rational> {
        let (class, amount) = match (inv, res) {
            (AccountInv::Credit(a), _) => (0, a),
            (AccountInv::Post(p), _) => (1, p),
            (AccountInv::Debit(a), AccountRes::Debited) => (2, a),
            (AccountInv::Debit(a), _) => (3, a),
        };
        Classified { class: ClassId(class), key: Some(*amount) }
    }
}

impl ObjectAdt for AccountAdt {
    fn canonical_locks() -> SpecLock<AccountAdt> {
        static HYBRID: OnceLock<Relation> = OnceLock::new();
        SpecLock::new("hybrid", derived_hybrid(&HYBRID, AdtConfig::account))
    }

    fn encode_version(&self, balance: &Rational) -> Vec<u8> {
        encode_json_state(balance)
    }

    fn decode_version(&self, bytes: &[u8]) -> Result<Rational, RedoDecodeError> {
        decode_json_state(bytes)
    }
}

/// A bank account: an [`Object`] over [`AccountAdt`], canonically under
/// the hybrid (Table V) scheme.
pub type AccountObject = Object<AccountAdt>;

impl Object<AccountAdt> {
    /// Credit the account.
    pub fn credit(&self, txn: &Arc<TxnHandle>, amount: Rational) -> Result<(), ExecError> {
        self.execute(txn, AccountInv::Credit(amount)).map(|_| ())
    }

    /// Post interest at `pct` percent.
    pub fn post(&self, txn: &Arc<TxnHandle>, pct: Rational) -> Result<(), ExecError> {
        self.execute(txn, AccountInv::Post(pct)).map(|_| ())
    }

    /// Debit the account; `Ok(true)` on success, `Ok(false)` on overdraft.
    pub fn debit(&self, txn: &Arc<TxnHandle>, amount: Rational) -> Result<bool, ExecError> {
        self.execute(txn, AccountInv::Debit(amount)).map(|r| r == AccountRes::Debited)
    }

    /// The committed balance (no isolation — diagnostics only).
    pub fn committed_balance(&self) -> Rational {
        self.committed_state()
    }
}

/// Map a runtime operation to the dynamic specification operation, for
/// history verification.
pub fn to_spec_op(inv: &AccountInv, res: &AccountRes) -> Operation {
    match (inv, res) {
        (AccountInv::Credit(a), _) => Operation::new(AccountSpec::credit(*a), Value::Unit),
        (AccountInv::Post(p), _) => Operation::new(AccountSpec::post(*p), Value::Unit),
        (AccountInv::Debit(a), AccountRes::Debited) => {
            Operation::new(AccountSpec::debit(*a), AccountSpec::OK)
        }
        (AccountInv::Debit(a), AccountRes::Overdraft) => {
            Operation::new(AccountSpec::debit(*a), AccountSpec::OVERDRAFT)
        }
        (AccountInv::Debit(_), AccountRes::Ok) => {
            unreachable!("debits respond Debited or Overdraft")
        }
    }
}

/// The dynamic serial specification matching [`AccountAdt`].
pub fn spec() -> SharedAdt {
    Arc::new(AccountSpec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_core::runtime::{RuntimeOptions, TxParticipant};
    use hcc_spec::TxnId;
    use std::time::Duration;

    fn r(n: i64) -> Rational {
        Rational::from_int(n)
    }
    fn h(n: u64) -> Arc<TxnHandle> {
        TxnHandle::new(TxnId(n))
    }

    fn short_timeout() -> RuntimeOptions {
        RuntimeOptions::with_timeout(Some(Duration::from_millis(30)))
    }

    #[test]
    fn debit_respects_balance() {
        let a = AccountObject::hybrid("acct");
        let t1 = h(1);
        a.credit(&t1, r(10)).unwrap();
        assert!(a.debit(&t1, r(7)).unwrap());
        assert!(!a.debit(&t1, r(7)).unwrap(), "only 3 left");
        a.inner().commit_at(t1.id(), 1);
        assert_eq!(a.committed_balance(), r(3));
    }

    #[test]
    fn credits_run_concurrently() {
        let a = AccountObject::hybrid("acct");
        let (t1, t2) = (h(1), h(2));
        a.credit(&t1, r(5)).unwrap();
        a.credit(&t2, r(7)).unwrap(); // no conflict
        a.inner().commit_at(t1.id(), 1);
        a.inner().commit_at(t2.id(), 2);
        assert_eq!(a.committed_balance(), r(12));
    }

    #[test]
    fn credit_concurrent_with_successful_debit() {
        // Table V: Credit does not conflict with Debit-Ok.
        let a = AccountObject::hybrid("acct");
        let t0 = h(1);
        a.credit(&t0, r(10)).unwrap();
        a.inner().commit_at(t0.id(), 1);
        let (t1, t2) = (h(2), h(3));
        assert!(a.debit(&t1, r(4)).unwrap());
        a.credit(&t2, r(100)).unwrap(); // concurrent with the debit
        a.inner().commit_at(t1.id(), 2);
        a.inner().commit_at(t2.id(), 3);
        assert_eq!(a.committed_balance(), r(106));
    }

    #[test]
    fn credit_blocks_on_overdraft() {
        // Table V: Credit conflicts with Debit-Overdraft — a credit could
        // invalidate the overdraft response.
        let a = AccountObject::with_options("acct", short_timeout());
        let (t1, t2) = (h(1), h(2));
        assert!(!a.debit(&t1, r(5)).unwrap(), "overdraft on empty account");
        assert_eq!(a.credit(&t2, r(10)), Err(ExecError::Timeout));
    }

    #[test]
    fn concurrent_debits_conflict() {
        let a = AccountObject::with_options("acct", short_timeout());
        let t0 = h(1);
        a.credit(&t0, r(10)).unwrap();
        a.inner().commit_at(t0.id(), 1);
        let (t1, t2) = (h(2), h(3));
        assert!(a.debit(&t1, r(4)).unwrap());
        assert_eq!(a.debit(&t2, r(4)), Err(ExecError::Timeout));
    }

    #[test]
    fn post_concurrent_with_debit_ok() {
        // Table V admits Post ∥ Debit-Ok — commutativity (Table VI) would
        // refuse it.
        let a = AccountObject::hybrid("acct");
        let t0 = h(1);
        a.credit(&t0, r(100)).unwrap();
        a.inner().commit_at(t0.id(), 1);
        let (t1, t2) = (h(2), h(3));
        assert!(a.debit(&t1, r(10)).unwrap());
        a.post(&t2, r(5)).unwrap();
        // Debit serialized first (ts 2), then post: (100-10)*1.05 = 94.5.
        a.inner().commit_at(t1.id(), 2);
        a.inner().commit_at(t2.id(), 3);
        assert_eq!(a.committed_balance(), Rational::new(189, 2));
    }

    #[test]
    fn intents_fold_in_timestamp_order() {
        let a = AccountObject::hybrid("acct");
        let (t1, t2) = (h(1), h(2));
        a.credit(&t1, r(100)).unwrap();
        a.post(&t2, r(5)).unwrap();
        // Post committed *before* credit: (0 * 1.05) + 100 = 100.
        a.inner().commit_at(t2.id(), 1);
        a.inner().commit_at(t1.id(), 2);
        assert_eq!(a.committed_balance(), r(100));

        let b = AccountObject::hybrid("acct2");
        let (t3, t4) = (h(3), h(4));
        b.credit(&t3, r(100)).unwrap();
        b.post(&t4, r(5)).unwrap();
        // Credit first: 100 * 1.05 = 105.
        b.inner().commit_at(t3.id(), 1);
        b.inner().commit_at(t4.id(), 2);
        assert_eq!(b.committed_balance(), r(105));
    }

    #[test]
    fn affine_composition_matches_replay() {
        let t1 = h(1);
        let a = AccountObject::hybrid("acct");
        a.credit(&t1, r(100)).unwrap();
        a.post(&t1, r(5)).unwrap();
        assert!(a.debit(&t1, r(30)).unwrap());
        a.credit(&t1, r(10)).unwrap();
        a.inner().commit_at(t1.id(), 1);
        // ((0 + 100) * 1.05 - 30) + 10 = 85.
        assert_eq!(a.committed_balance(), r(85));
    }

    /// The direct writer against the `serde_json` rendering it replaced,
    /// for every conflict class and amounts negative, fractional and near
    /// the `i128` limits — and back through `decode_redo`.
    #[test]
    fn redo_bytes_match_the_serde_json_rendering() {
        use serde_json::json;
        let amounts = [
            r(0),
            r(7),
            r(-5),
            Rational::new(5, 2),
            Rational::new(-7, 3),
            Rational::new(1, i128::MAX),
            Rational::new(i128::MAX, 1),
            Rational::new(i128::MIN + 1, 1),
            Rational::new(i128::MAX, i128::MAX - 1),
            Rational::new(-(i128::MAX - 2), i128::MAX),
        ];
        for a in amounts {
            let cases = [
                (AccountInv::Credit(a), AccountRes::Ok, json!({"op": "credit", "v": a})),
                (AccountInv::Post(a), AccountRes::Ok, json!({"op": "post", "v": a})),
                (
                    AccountInv::Debit(a),
                    AccountRes::Debited,
                    json!({"op": "debit", "v": a, "ok": true}),
                ),
                (
                    AccountInv::Debit(a),
                    AccountRes::Overdraft,
                    json!({"op": "debit", "v": a, "ok": false}),
                ),
            ];
            for (inv, res, value) in cases {
                let bytes = AccountAdt.redo(&inv, &res).unwrap();
                assert_eq!(bytes, serde_json::to_vec(&value).unwrap(), "{inv:?} {res:?}");
                assert_eq!(AccountAdt.decode_redo(&bytes).unwrap(), (inv, res));
            }
        }
        let overdraft =
            AccountAdt.redo(&AccountInv::Debit(Rational::new(-7, 3)), &AccountRes::Overdraft);
        assert_eq!(overdraft.unwrap(), br#"{"ok":false,"op":"debit","v":{"den":3,"num":-7}}"#);
    }

    #[test]
    fn spec_op_mapping() {
        let op = to_spec_op(&AccountInv::Debit(r(3)), &AccountRes::Overdraft);
        assert_eq!(op.res, AccountSpec::OVERDRAFT);
        let op = to_spec_op(&AccountInv::Credit(r(3)), &AccountRes::Ok);
        assert_eq!(op.res, Value::Unit);
    }
}
