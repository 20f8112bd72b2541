//! The FIFO queue (Tables II and III).
//!
//! The queue is the paper's headline example: enqueues do not commute, yet
//! under hybrid concurrency control concurrent transactions may enqueue
//! concurrently — the dequeue order of concurrently-enqueued items is
//! decided by their commit timestamps.
//!
//! The queue has two minimal conflict relations. The canonical one is the
//! invalidated-by relation derived from [`QueueSpec`], Table II — `Deq`
//! conflicts with `Enq` of a different item and with `Deq` of the same
//! item; enqueues never conflict. The other, Table III (`Enq` conflicts with `Enq` of a
//! different item, `Deq` with `Deq` of the same item), is also the
//! queue's failure-to-commute relation: `hcc-workload`'s commutativity
//! scheme derives it from the serial specification, and `hcc-relations`
//! pins it as `paper_table_iii`.

use crate::define::{decode_json_state, encode_json_state};
use crate::object::{derived_hybrid, Object, ObjectAdt};
use hcc_core::runtime::{Classified, ExecError, RedoDecodeError, RuntimeAdt, SpecLock, TxnHandle};
use hcc_relations::relation::{ClassId, Relation};
use hcc_relations::tables::AdtConfig;
use hcc_spec::adt::SharedAdt;
use hcc_spec::specs::QueueSpec;
use hcc_spec::{Operation, Value};
use serde::{Deserialize, Serialize};
use serde_json::json;
use std::collections::VecDeque;
use std::fmt::Debug;
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

/// Bound alias for queue items. Serde bounds make the type self-logging
/// (redo payloads) and checkpointable (snapshots).
pub trait Item: Clone + Eq + Debug + Send + Sync + Serialize + Deserialize + 'static {}
impl<T: Clone + Eq + Debug + Send + Sync + Serialize + Deserialize + 'static> Item for T {}

/// Queue invocations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueueInv<T> {
    /// Append an item at the tail.
    Enq(T),
    /// Remove and return the head item (partial: blocks when empty).
    Deq,
}

/// Queue responses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueueRes<T> {
    /// Enqueue acknowledgement.
    Ok,
    /// The dequeued item.
    Item(T),
}

/// One step of a transaction's intent (replayed onto the version at
/// commit-fold time).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueueOp<T> {
    /// Enqueue `T`.
    Enq(T),
    /// Dequeue (the head at replay time; response recorded separately).
    Deq,
}

/// The FIFO queue runtime type.
pub struct QueueAdt<T>(PhantomData<fn() -> T>);

impl<T> Default for QueueAdt<T> {
    fn default() -> Self {
        QueueAdt(PhantomData)
    }
}

impl<T: Item> RuntimeAdt for QueueAdt<T> {
    type Version = VecDeque<T>;
    type Intent = Vec<QueueOp<T>>;
    type Inv = QueueInv<T>;
    type Res = QueueRes<T>;

    fn initial(&self) -> VecDeque<T> {
        VecDeque::new()
    }

    fn candidates(
        &self,
        version: &VecDeque<T>,
        committed: &[&Vec<QueueOp<T>>],
        own: &Vec<QueueOp<T>>,
        inv: &QueueInv<T>,
        out: &mut Vec<(QueueRes<T>, Vec<QueueOp<T>>)>,
    ) {
        // The own intent with `op` appended, allocated once at its final
        // length.
        let then = |op| own.iter().cloned().chain([op]).collect();
        match inv {
            QueueInv::Enq(x) => out.push((QueueRes::Ok, then(QueueOp::Enq(x.clone())))),
            QueueInv::Deq => {
                if let Some(head) = view_head(version, committed, own) {
                    out.push((QueueRes::Item(head.clone()), then(QueueOp::Deq)));
                }
            }
        }
    }

    fn apply(&self, version: &mut VecDeque<T>, intent: &Vec<QueueOp<T>>) {
        replay(version, intent);
    }

    fn redo(&self, inv: &QueueInv<T>, res: &QueueRes<T>) -> Option<Vec<u8>> {
        let v = match (inv, res) {
            (QueueInv::Enq(x), _) => json!({"op": "enq", "v": (x)}),
            // The dequeued item rides along so replay can pin (and verify)
            // the response.
            (QueueInv::Deq, QueueRes::Item(x)) => json!({"op": "deq", "v": (x)}),
            (QueueInv::Deq, QueueRes::Ok) => unreachable!("deq returns an item"),
        };
        Some(serde_json::to_vec(&v).expect("JSON values serialize"))
    }

    fn decode_redo(&self, bytes: &[u8]) -> Result<(QueueInv<T>, QueueRes<T>), RedoDecodeError> {
        let (op, v) = crate::decode_op(bytes)?;
        let item: T = crate::decode_field(&v, "v")?;
        match op.as_str() {
            "enq" => Ok((QueueInv::Enq(item), QueueRes::Ok)),
            "deq" => Ok((QueueInv::Deq, QueueRes::Item(item))),
            other => Err(RedoDecodeError::new(format!("unknown queue op {other:?}"))),
        }
    }

    fn type_name(&self) -> &'static str {
        "FIFO-Queue"
    }

    type Key = T;
    const CLASSES: &'static [&'static str] = &["Enq", "Deq"];

    /// Table II's rows; the key is the item enqueued or dequeued.
    fn classify(_: &Relation, inv: &QueueInv<T>, res: &QueueRes<T>) -> Classified<T> {
        let (class, item) = match (inv, res) {
            (QueueInv::Enq(x), _) => (0, x),
            (QueueInv::Deq, QueueRes::Item(x)) => (1, x),
            (QueueInv::Deq, QueueRes::Ok) => unreachable!("deq returns an item"),
        };
        Classified { class: ClassId(class), key: Some(item.clone()) }
    }
}

/// The head of the view — `version` with `committed` and then `own`
/// replayed onto it — found without building that queue. A replayed
/// dequeue pops only a non-empty queue, so counting pops against the items
/// enqueued so far says how many of the view's items are gone; the head
/// is the next one, in the version or, past its end, among the enqueues
/// in replay order.
fn view_head<'a, T>(
    version: &'a VecDeque<T>,
    committed: &[&'a Vec<QueueOp<T>>],
    own: &'a [QueueOp<T>],
) -> Option<&'a T> {
    let ops = || committed.iter().flat_map(|intent| intent.iter()).chain(own);
    let (mut popped, mut len) = (0, version.len());
    for op in ops() {
        match op {
            QueueOp::Enq(_) => len += 1,
            QueueOp::Deq if popped < len => popped += 1,
            QueueOp::Deq => {}
        }
    }
    if popped < version.len() {
        return version.get(popped);
    }
    let mut enqueued = ops().filter_map(|op| match op {
        QueueOp::Enq(x) => Some(x),
        QueueOp::Deq => None,
    });
    enqueued.nth(popped - version.len())
}

fn replay<T: Clone>(q: &mut VecDeque<T>, ops: &[QueueOp<T>]) {
    for op in ops {
        match op {
            QueueOp::Enq(x) => q.push_back(x.clone()),
            QueueOp::Deq => {
                let _ = q.pop_front();
            }
        }
    }
}

impl<T: Item> ObjectAdt for QueueAdt<T> {
    fn canonical_locks() -> SpecLock<QueueAdt<T>> {
        static HYBRID: OnceLock<Relation> = OnceLock::new();
        SpecLock::new("hybrid", derived_hybrid(&HYBRID, AdtConfig::queue))
    }

    fn encode_version(&self, items: &VecDeque<T>) -> Vec<u8> {
        encode_json_state(&items.iter().collect::<Vec<_>>())
    }

    fn decode_version(&self, bytes: &[u8]) -> Result<VecDeque<T>, RedoDecodeError> {
        decode_json_state::<Vec<T>>(bytes).map(VecDeque::from)
    }
}

/// A FIFO queue object: an [`Object`] over [`QueueAdt`], canonically under
/// the Table-II hybrid scheme (concurrent enqueues).
pub type QueueObject<T> = Object<QueueAdt<T>>;

impl<T: Item> Object<QueueAdt<T>> {
    /// Enqueue an item.
    pub fn enq(&self, txn: &Arc<TxnHandle>, item: T) -> Result<(), ExecError> {
        self.execute(txn, QueueInv::Enq(item)).map(|_| ())
    }

    /// Dequeue the head item (blocks while the queue is empty).
    pub fn deq(&self, txn: &Arc<TxnHandle>) -> Result<T, ExecError> {
        match self.execute(txn, QueueInv::Deq)? {
            QueueRes::Item(x) => Ok(x),
            QueueRes::Ok => unreachable!("deq returns an item"),
        }
    }

    /// Number of committed items (diagnostics).
    pub fn committed_len(&self) -> usize {
        self.committed_state().len()
    }
}

/// Map a runtime operation onto the dynamic specification operation.
pub fn to_spec_op<T: Item + Into<Value>>(inv: &QueueInv<T>, res: &QueueRes<T>) -> Operation {
    match (inv, res) {
        (QueueInv::Enq(x), _) => Operation::new(QueueSpec::enq(x.clone()), Value::Unit),
        (QueueInv::Deq, QueueRes::Item(x)) => Operation::new(QueueSpec::deq(), x.clone()),
        (QueueInv::Deq, QueueRes::Ok) => unreachable!("deq returns an item"),
    }
}

/// The dynamic serial specification matching [`QueueAdt`].
pub fn spec() -> SharedAdt {
    Arc::new(QueueSpec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_core::runtime::{RuntimeOptions, TxParticipant};
    use hcc_spec::TxnId;
    use std::time::Duration;

    fn h(n: u64) -> Arc<TxnHandle> {
        TxnHandle::new(TxnId(n))
    }
    fn short() -> RuntimeOptions {
        RuntimeOptions::with_timeout(Some(Duration::from_millis(30)))
    }

    #[test]
    fn concurrent_enqueues_dequeue_in_timestamp_order() {
        let q: QueueObject<i64> = QueueObject::hybrid("q");
        let (t1, t2) = (h(1), h(2));
        q.enq(&t1, 10).unwrap();
        q.enq(&t2, 20).unwrap(); // concurrent — the headline behaviour
        q.inner().commit_at(t2.id(), 1);
        q.inner().commit_at(t1.id(), 2);
        let t3 = h(3);
        assert_eq!(q.deq(&t3).unwrap(), 20, "earlier timestamp first");
        assert_eq!(q.deq(&t3).unwrap(), 10);
    }

    #[test]
    fn table_ii_deq_blocks_on_uncommitted_enq_of_other_item() {
        let q: QueueObject<i64> = QueueObject::with_options("q", short());
        let t0 = h(1);
        q.enq(&t0, 1).unwrap();
        q.inner().commit_at(t0.id(), 1);
        let (t1, t2) = (h(2), h(3));
        q.enq(&t1, 2).unwrap();
        assert_eq!(q.deq(&t2), Err(ExecError::Timeout));
    }

    #[test]
    fn own_enqueues_are_dequeueable() {
        let q: QueueObject<i64> = QueueObject::hybrid("q");
        let t1 = h(1);
        q.enq(&t1, 5).unwrap();
        assert_eq!(q.deq(&t1).unwrap(), 5);
    }

    #[test]
    fn deq_blocks_until_an_item_commits() {
        let q: QueueObject<i64> = QueueObject::hybrid("q");
        let t1 = h(1);
        let qi = q.inner().clone();
        let t1c = t1.clone();
        let consumer = std::thread::spawn(move || match qi.execute(&t1c, QueueInv::Deq).unwrap() {
            QueueRes::Item(x) => x,
            _ => unreachable!(),
        });
        std::thread::sleep(Duration::from_millis(10));
        let t2 = h(2);
        q.enq(&t2, 99).unwrap();
        q.inner().commit_at(t2.id(), 1);
        assert_eq!(consumer.join().unwrap(), 99);
    }

    #[test]
    fn aborted_enqueue_leaves_no_item() {
        let q: QueueObject<i64> = QueueObject::with_options("q", short());
        let t1 = h(1);
        q.enq(&t1, 7).unwrap();
        q.inner().abort_txn(t1.id());
        assert_eq!(q.committed_len(), 0);
        let t2 = h(2);
        assert_eq!(q.deq(&t2), Err(ExecError::Timeout));
    }

    #[test]
    fn fifo_order_within_one_transaction() {
        let q: QueueObject<i64> = QueueObject::hybrid("q");
        let t1 = h(1);
        for i in 1..=4 {
            q.enq(&t1, i).unwrap();
        }
        q.inner().commit_at(t1.id(), 1);
        let t2 = h(2);
        for i in 1..=4 {
            assert_eq!(q.deq(&t2).unwrap(), i);
        }
    }

    #[test]
    fn string_items_work() {
        let q: QueueObject<String> = QueueObject::hybrid("q");
        let t1 = h(1);
        q.enq(&t1, "hello".to_string()).unwrap();
        q.inner().commit_at(t1.id(), 1);
        let t2 = h(2);
        assert_eq!(q.deq(&t2).unwrap(), "hello");
    }

    /// `Deq` by materialising: the view built in full and its head read
    /// off — the oracle [`view_head`] is held to.
    fn materialised_deq(
        version: &VecDeque<i64>,
        committed: &[&Vec<QueueOp<i64>>],
        own: &[QueueOp<i64>],
    ) -> Vec<(QueueRes<i64>, Vec<QueueOp<i64>>)> {
        let mut view = version.clone();
        for intent in committed {
            replay(&mut view, intent);
        }
        replay(&mut view, own);
        match view.front() {
            None => vec![],
            Some(head) => {
                let mut next = own.to_vec();
                next.push(QueueOp::Deq);
                vec![(QueueRes::Item(*head), next)]
            }
        }
    }

    fn assert_deq_matches_oracle(
        version: &VecDeque<i64>,
        committed: &[Vec<QueueOp<i64>>],
        own: &Vec<QueueOp<i64>>,
    ) -> Vec<(QueueRes<i64>, Vec<QueueOp<i64>>)> {
        let committed: Vec<&Vec<QueueOp<i64>>> = committed.iter().collect();
        let (queue, mut peeked) = (QueueAdt::<i64>::default(), Vec::new());
        queue.candidates(version, &committed, own, &QueueInv::Deq, &mut peeked);
        assert_eq!(
            peeked,
            materialised_deq(version, &committed, own),
            "{version:?} {committed:?} {own:?}"
        );
        peeked
    }

    #[test]
    fn deq_peeks_past_the_version_into_enqueues() {
        use QueueOp::{Deq, Enq};
        let version = VecDeque::from(vec![1, 2]);
        let committed = vec![vec![Enq(3)], vec![Deq, Enq(4)]];
        // The committed dequeue took 1; the own ones take 2, then 3.
        let head = |own: Vec<QueueOp<i64>>| {
            let c = assert_deq_matches_oracle(&version, &committed, &own);
            c.first().map(|(res, _)| res.clone())
        };
        assert_eq!(head(vec![]), Some(QueueRes::Item(2)));
        assert_eq!(head(vec![Deq]), Some(QueueRes::Item(3)), "into the committed enqueues");
        assert_eq!(head(vec![Deq, Deq, Enq(5)]), Some(QueueRes::Item(4)));
        assert_eq!(head(vec![Deq, Deq, Enq(5), Deq]), Some(QueueRes::Item(5)), "into own enqueues");
        assert_eq!(head(vec![Deq, Deq, Enq(5), Deq, Deq]), None, "an empty view has no head");
        let empty = assert_deq_matches_oracle(&VecDeque::new(), &[vec![Enq(1), Deq]], &vec![]);
        assert!(empty.is_empty(), "an empty view gives no candidate");
        assert!(assert_deq_matches_oracle(&VecDeque::new(), &[], &vec![]).is_empty());
    }

    use proptest::prelude::*;

    /// A raw op script: `kind < 3` is a dequeue when the view so far is
    /// non-empty (legalised below), anything else an enqueue of `x`.
    fn script() -> impl Strategy<Value = Vec<(u8, i64)>> {
        prop::collection::vec((0u8..5, 0i64..1000), 0..8)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn deq_peek_matches_the_materialising_fold(
            version in prop::collection::vec(0i64..1000, 0..6),
            committed in prop::collection::vec(script(), 0..4),
            own in script(),
        ) {
            // Legal triples only: every dequeue, replayed in view order,
            // finds an item — as every executed one did.
            let mut len = version.len();
            let mut legalise = |ops: Vec<(u8, i64)>| -> Vec<QueueOp<i64>> {
                ops.into_iter()
                    .map(|(kind, x)| {
                        if kind < 3 && len > 0 {
                            len -= 1;
                            QueueOp::Deq
                        } else {
                            len += 1;
                            QueueOp::Enq(x)
                        }
                    })
                    .collect()
            };
            let raw = |ops: &Vec<(u8, i64)>| -> Vec<QueueOp<i64>> {
                ops.iter().map(|&(kind, x)| if kind < 3 { QueueOp::Deq } else { QueueOp::Enq(x) }).collect()
            };
            let version = VecDeque::from(version);
            // Unlegalised, a dequeue may meet an empty queue, which the
            // replay skips; the peek must skip it too.
            let raw_committed: Vec<Vec<QueueOp<i64>>> = committed.iter().map(raw).collect();
            assert_deq_matches_oracle(&version, &raw_committed, &raw(&own));
            let committed: Vec<Vec<QueueOp<i64>>> = committed.into_iter().map(&mut legalise).collect();
            let own = legalise(own);
            assert_deq_matches_oracle(&version, &committed, &own);
        }
    }

    #[test]
    fn spec_op_mapping() {
        let op = to_spec_op(&QueueInv::Enq(3i64), &QueueRes::Ok);
        assert_eq!(format!("{op:?}"), "[enq(3), Ok]");
        let op = to_spec_op(&QueueInv::Deq, &QueueRes::Item(3i64));
        assert_eq!(format!("{op:?}"), "[deq(), 3]");
    }
}
