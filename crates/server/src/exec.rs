//! Executing decoded requests against the `Db` facade.
//!
//! This is the server's only contact with application semantics: each
//! [`WireOp`] maps onto the typed handle call a local caller would make
//! (`db.object::<AccountObject>(name)` + `credit`/`debit`/…), the whole
//! batch runs inside one `db.transact_ts` (so the facade's transient
//! retry, abort-on-drop, and exactly-once discipline all apply
//! unchanged; a session reader running it inline tries one no-wait
//! `db.try_transact_ts` attempt first), and reads go through
//! `begin_read`/`read_at` — the same wait-free snapshot path in-process
//! readers use.
//!
//! Failures come back as typed [`WireFault`]s, classified with the same
//! transient/fatal line `HccError::is_transient` draws, so a remote
//! client's retry loop can be as correct as a local one.

use std::sync::Arc;

use hcc_adts::{AccountObject, CounterObject, QueueObject};
use hcc_db::{Db, HccError, ReadTx, Tx};
use hcc_spec::{Rational, Timestamp};
use hcc_wire::msg::{OpResult, Request, Response, TypeTag, View, WireFault, WireOp};

/// Map an `HccError` the facade surfaced onto the fault a remote caller
/// can act on. The transient/fatal classification crosses the wire
/// intact: a shed or aborted request may be resubmitted, a fatal one
/// must not be.
fn fault_from(err: HccError) -> WireFault {
    match err {
        HccError::TypeMismatch { object, .. } => WireFault::TypeMismatch { object },
        HccError::SnapshotCompacted { requested, floor } => {
            WireFault::SnapshotCompacted { requested, floor }
        }
        HccError::SnapshotContended { requested } => WireFault::SnapshotContended { requested },
        HccError::Overloaded { in_flight, cap } => WireFault::Overloaded { in_flight, cap },
        // The facade's transact already spent its retry budget on
        // transient failures; the transaction is aborted everywhere, so
        // the *remote* caller may still resubmit — that is a fresh
        // transaction, not a replay.
        e @ HccError::RetriesExhausted { .. } => WireFault::Transient { detail: e.to_string() },
        e if e.is_transient() => WireFault::Transient { detail: e.to_string() },
        e => WireFault::Fatal { detail: e.to_string() },
    }
}

fn open_object(db: &Db, tag: TypeTag, name: &str) -> Result<(), HccError> {
    match tag {
        TypeTag::Account => db.object::<AccountObject>(name).map(drop),
        TypeTag::Counter => db.object::<CounterObject>(name).map(drop),
        TypeTag::QueueI64 => db.object::<QueueObject<i64>>(name).map(drop),
    }
}

fn run_op(db: &Db, tx: &Tx, op: &WireOp) -> Result<OpResult, HccError> {
    match op {
        WireOp::Credit { name, amount } => {
            let acct: Arc<AccountObject> = db.object(name)?;
            acct.credit(tx.handle(), Rational::from_int(*amount))?;
            Ok(OpResult::Unit)
        }
        WireOp::Debit { name, amount } => {
            let acct: Arc<AccountObject> = db.object(name)?;
            Ok(OpResult::Debited(acct.debit(tx.handle(), Rational::from_int(*amount))?))
        }
        WireOp::Inc { name, delta } => {
            let counter: Arc<CounterObject> = db.object(name)?;
            if *delta >= 0 {
                counter.inc(tx.handle(), *delta)?;
            } else {
                counter.dec(tx.handle(), -*delta)?;
            }
            Ok(OpResult::Unit)
        }
        WireOp::Enq { name, item } => {
            let queue: Arc<QueueObject<i64>> = db.object(name)?;
            queue.enq(tx.handle(), *item)?;
            Ok(OpResult::Unit)
        }
        WireOp::Deq { name } => {
            let queue: Arc<QueueObject<i64>> = db.object(name)?;
            Ok(OpResult::Int(queue.deq(tx.handle())?))
        }
    }
}

fn view_one(db: &Db, rtx: &ReadTx<'_>, tag: TypeTag, name: &str) -> Result<View, HccError> {
    // Views come off the pinned snapshot; opening the handle first is
    // what recovers a not-yet-opened object into the fold horizon.
    match tag {
        TypeTag::Account => {
            open_object(db, tag, name)?;
            let balance = rtx.view::<AccountObject>(name)?;
            // i64 wire range; the workspace's integer-money workloads
            // stay well inside it.
            Ok(View::Balance { num: balance.numerator() as i64, den: balance.denominator() as i64 })
        }
        TypeTag::Counter => {
            open_object(db, tag, name)?;
            Ok(View::Count(rtx.view::<CounterObject>(name)?))
        }
        TypeTag::QueueI64 => {
            open_object(db, tag, name)?;
            Ok(View::Items(rtx.view::<QueueObject<i64>>(name)?.into_iter().collect()))
        }
    }
}

fn transact_ops(db: &Db, tx: &Tx, ops: &[WireOp]) -> Result<Vec<OpResult>, HccError> {
    ops.iter().map(|op| run_op(db, tx, op)).collect()
}

fn committed(outcome: Result<(Vec<OpResult>, Timestamp), HccError>) -> Response {
    match outcome {
        Ok((results, ts)) => Response::Committed { ts: ts.0, results },
        Err(e) => Response::Fault(fault_from(e)),
    }
}

/// Execute `req` on the calling thread if it can finish without waiting
/// on a lock; `None` if it cannot. A `Transact` makes one no-wait attempt
/// ([`Db::try_transact_ts`]); `None` means that attempt would have
/// waited (or failed some other transient way) and is already aborted
/// everywhere, so [`execute`] may run the request from the start. `Open`
/// and `Read` take no transactional lock and always finish here.
pub(crate) fn execute_no_wait(db: &Db, req: &Request) -> Option<Response> {
    match req {
        Request::Transact { ops } => {
            db.try_transact_ts(|tx| transact_ops(db, tx, ops)).transpose().map(committed)
        }
        _ => Some(execute(db, req)),
    }
}

/// Execute one admitted request to its response. Only `Open`,
/// `Transact`, and `Read` reach here — the session layer answers
/// handshake and connection-control messages itself.
pub fn execute(db: &Db, req: &Request) -> Response {
    match req {
        Request::Open { tag, name } => match open_object(db, *tag, name) {
            Ok(()) => Response::OpenOk,
            Err(e) => Response::Fault(fault_from(e)),
        },
        Request::Transact { ops } => committed(db.transact_ts(|tx| transact_ops(db, tx, ops))),
        Request::Read { at, queries } => {
            let run = || -> Result<Response, HccError> {
                let rtx = match at {
                    None => db.begin_read(),
                    Some(ts) => db.read_at(*ts)?,
                };
                let views = queries
                    .iter()
                    .map(|(tag, name)| view_one(db, &rtx, *tag, name))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Response::Views { watermark: rtx.watermark(), views })
            };
            run().unwrap_or_else(|e| Response::Fault(fault_from(e)))
        }
        // Session-layer messages (including `Stats`, answered inline so
        // it can never queue behind a slow transact) never reach the
        // executor.
        Request::Hello { .. } | Request::Shutdown | Request::Goodbye | Request::Stats => {
            Response::Fault(WireFault::Fatal {
                detail: "session message routed to executor".into(),
            })
        }
    }
}
