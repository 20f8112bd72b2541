//! Bounded soundness checking: does the conflict table block every
//! non-hybrid-atomic schedule?
//!
//! ## The two-transaction reduction
//!
//! A conflict table is *unsound* when the runtime, granting locks
//! exactly as the table dictates, can produce a history that is not
//! hybrid atomic. Searching over arbitrary histories is hopeless;
//! searching over a canonical shape is not, and a canonical shape
//! exists:
//!
//! > A bounded violation among the schedules the table admits exists
//! > iff there are a committed setup sequence `σ` and two continuation
//! > sequences `α`, `β` such that (1) `σ` is legal from the initial
//! > state, (2) `α` and `β` are each legal from the state after `σ` —
//! > each transaction's responses are computed against the committed
//! > state plus its *own* effects, exactly the runtime's
//! > `candidates()` view — (3) every cross pair `(a ∈ α, b ∈ β)` is
//! > table-**compatible** (those are precisely the schedules where
//! > both transactions can hold all their locks simultaneously, i.e.
//! > genuinely overlap), and (4) the serial composition `σ·α·β` is
//! > illegal.
//!
//! Why two transactions suffice: hybrid atomicity demands the
//! committed transactions be serially legal in timestamp order
//! (Definition 15). Under two-phase locking per the table, the first
//! violation involves the operations of exactly two overlapping
//! transactions against a committed prefix — any third transaction
//! either committed before both (fold it into `σ`) or overlaps only
//! compatibly with the violating pair (drop it; legality of the pair's
//! view is unaffected because compatible overlap never changes either
//! party's committed view mid-flight). Why one ordering of the pair
//! suffices: `(α, β)` ranges over *ordered* pairs of continuations, so
//! both commit orders are covered.
//!
//! The witness is rendered as a formal [`History`] — `σ` committed at
//! timestamp 1, then `α` (timestamp 2) and `β` (timestamp 3) — and
//! every counterexample is **confirmed against the `hcc-verify`
//! oracle** before being reported: condition (4) and the oracle's
//! "serial ops in timestamp order are illegal" are the same statement,
//! and the assertion keeps this crate honest about that equivalence.
//!
//! ## Search strategy
//!
//! Naively this is |sequences|³. Three observations collapse it:
//!
//! * legality of a continuation depends on `σ` only through its
//!   [`Frontier`], so setups are deduplicated by frontier (keeping the
//!   shortest representative — `legal_sequences` is shortlex);
//! * the legal continuations from one frontier form a *tree* shared by
//!   `α` and `β`; we grow it once per setup, annotating each node with
//!   the union of its path's conflict masks;
//! * compatibility of a growing `β` against a fixed `α` is one `u64`
//!   test per extension, and is monotone — a conflicting extension
//!   prunes its whole subtree.

use crate::input::CheckInput;
use hcc_relations::enumerate::legal_sequences;
use hcc_relations::relation::Atom;
use hcc_spec::history::HistoryBuilder;
use hcc_spec::{Adt, Frontier, History, ObjectId, Operation};
use hcc_verify::{hybrid_atomic_violation, SystemSpecs};
use std::collections::BTreeSet;

/// Search depths for the soundness check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Depth {
    /// Maximum length of the committed setup sequence `σ`.
    pub setup: usize,
    /// Maximum length of each transaction's continuation (`α`, `β`).
    pub per_txn: usize,
}

impl Depth {
    /// The `adtcheck --depth k` convention: setups up to `k` ops, each
    /// transaction up to `k − 1` (never less than 1). Violations need
    /// setup context more than they need long transactions — every
    /// known table-mutation witness for the bundled types fits in
    /// `Depth::new(3)`.
    pub fn new(k: usize) -> Depth {
        Depth { setup: k, per_txn: k.saturating_sub(1).max(1) }
    }
}

impl std::fmt::Display for Depth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "σ≤{}, txn≤{}", self.setup, self.per_txn)
    }
}

/// A minimized unsoundness witness: a schedule the table admits whose
/// history is not hybrid atomic.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The committed setup sequence `σ` (possibly empty).
    pub setup: Vec<Operation>,
    /// The first transaction's operations (commits at timestamp 2).
    pub left: Vec<Operation>,
    /// The second transaction's operations (commits at timestamp 3).
    pub right: Vec<Operation>,
    /// The canonicalized class pairs that overlap in the witness — the
    /// table entries that wrongly permit it. In a minimal witness every
    /// surviving cross pair is load-bearing.
    pub offending: BTreeSet<Atom>,
    /// The witness as a formal history (oracle-confirmed non-hybrid-atomic).
    pub history: History,
}

/// Outcome of a soundness search.
#[derive(Clone, Debug)]
pub struct SoundnessReport {
    /// Distinct setup frontiers searched.
    pub setups: usize,
    /// Admitted two-transaction schedules examined.
    pub schedules: u64,
    /// The first violation found, minimized — `None` means sound within
    /// bounds.
    pub counterexample: Option<Counterexample>,
}

impl SoundnessReport {
    /// Sound within the searched bounds?
    pub fn sound(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// One atom's necessity verdict (conservatism reporting).
#[derive(Clone, Debug)]
pub struct AtomNecessity {
    /// The stated atom under probe.
    pub atom: Atom,
    /// A violation admitted once the atom is removed — `Some` proves
    /// the atom necessary; `None` flags it as a (bounded-search)
    /// over-approximation.
    pub witness: Option<Counterexample>,
}

/// The continuation tree from one setup frontier: every legal sequence
/// of at most `per_txn` alphabet ops, shared between the `α` and `β`
/// roles.
struct Tree {
    nodes: Vec<Node>,
    children: Vec<Vec<usize>>,
}

struct Node {
    /// Alphabet index of the last op (unused for the root).
    op: usize,
    parent: usize,
    /// Frontier after `σ` + this node's path.
    frontier: Frontier,
    /// Union of the path ops' conflict masks: bit `j` set iff some op
    /// on the path conflicts with alphabet op `j`.
    conf: u64,
}

impl Tree {
    fn grow(
        adt: &dyn Adt,
        alphabet: &[Operation],
        masks: &[u64],
        f0: &Frontier,
        per_txn: usize,
    ) -> Tree {
        let mut nodes =
            vec![Node { op: usize::MAX, parent: usize::MAX, frontier: f0.clone(), conf: 0 }];
        let mut children: Vec<Vec<usize>> = vec![Vec::new()];
        let mut level = vec![0usize];
        for _ in 0..per_txn {
            let mut next = Vec::new();
            for &n in &level {
                for (o, op) in alphabet.iter().enumerate() {
                    let f = nodes[n].frontier.advance(adt, op);
                    if f.is_empty() {
                        continue;
                    }
                    let idx = nodes.len();
                    nodes.push(Node {
                        op: o,
                        parent: n,
                        frontier: f,
                        conf: nodes[n].conf | masks[o],
                    });
                    children.push(Vec::new());
                    children[n].push(idx);
                    next.push(idx);
                }
            }
            level = next;
        }
        Tree { nodes, children }
    }

    /// The alphabet indices along the path from the root to `idx`.
    fn path(&self, mut idx: usize) -> Vec<usize> {
        let mut ops = Vec::new();
        while idx != 0 {
            ops.push(self.nodes[idx].op);
            idx = self.nodes[idx].parent;
        }
        ops.reverse();
        ops
    }

    /// Walk the tree as `β` against a fixed `α` (its path-conflict
    /// union `alpha_conf`), carrying the serial frontier `g` of
    /// `σ·α·β-so-far`. Returns the node at which `g` first empties —
    /// an admitted schedule whose serial composition is illegal.
    fn search_beta(
        &self,
        adt: &dyn Adt,
        alphabet: &[Operation],
        alpha_conf: u64,
        g: &Frontier,
        node: usize,
        schedules: &mut u64,
    ) -> Option<usize> {
        for &c in &self.children[node] {
            let o = self.nodes[c].op;
            if alpha_conf & (1 << o) != 0 {
                // β would need a lock α holds: the runtime serializes
                // this pair, and every extension keeps the conflict.
                continue;
            }
            *schedules += 1;
            let g2 = g.advance(adt, &alphabet[o]);
            if g2.is_empty() {
                return Some(c);
            }
            if let Some(hit) = self.search_beta(adt, alphabet, alpha_conf, &g2, c, schedules) {
                return Some(hit);
            }
        }
        None
    }
}

/// Search every admitted two-transaction schedule within `depth` for a
/// hybrid-atomicity violation. The first violation found is minimized,
/// oracle-confirmed, and returned; `None` counterexample means the
/// table is sound within bounds.
pub fn check_soundness(input: &CheckInput, depth: Depth) -> SoundnessReport {
    let adt = input.adt.as_ref();
    let masks = input.conflict_masks();

    // Setup sequences matter only through their frontier; shortlex
    // enumeration makes the first representative the shortest.
    let mut setups: Vec<(Frontier, Vec<usize>)> = Vec::new();
    let mut seen: BTreeSet<Frontier> = BTreeSet::new();
    for seq in legal_sequences(adt, &input.alphabet, depth.setup) {
        if seen.insert(seq.frontier.clone()) {
            setups.push((seq.frontier, seq.ops));
        }
    }

    let mut schedules = 0u64;
    for (f0, sigma) in &setups {
        let tree = Tree::grow(adt, &input.alphabet, &masks, f0, depth.per_txn);
        for a in 1..tree.nodes.len() {
            let hit = tree.search_beta(
                adt,
                &input.alphabet,
                tree.nodes[a].conf,
                &tree.nodes[a].frontier,
                0,
                &mut schedules,
            );
            if let Some(b) = hit {
                let cex = minimize(input, sigma, &tree.path(a), &tree.path(b));
                return SoundnessReport {
                    setups: setups.len(),
                    schedules,
                    counterexample: Some(cex),
                };
            }
        }
    }
    SoundnessReport { setups: setups.len(), schedules, counterexample: None }
}

/// Probe every stated atom for necessity: remove it, re-run the
/// soundness search, and record the violation (if any) its absence
/// admits. Atoms with no witness are over-approximations *within the
/// searched bounds* — safe to keep, candidates to sharpen. This same
/// probe is the mutation test: flipping a load-bearing table entry to
/// compatible must surface a counterexample.
pub fn atom_necessity(input: &CheckInput, depth: Depth) -> Vec<AtomNecessity> {
    input
        .relation
        .atoms()
        .iter()
        .map(|atom| AtomNecessity {
            atom: atom.clone(),
            witness: check_soundness(&input.without_atom(atom), depth).counterexample,
        })
        .collect()
}

/// Is `(σ, α, β)` an admitted violation? The four conditions of the
/// reduction, re-checked from scratch (the minimizer's only oracle).
fn admitted_violation(
    input: &CheckInput,
    sigma: &[usize],
    alpha: &[usize],
    beta: &[usize],
) -> bool {
    let adt = input.adt.as_ref();
    let ops = |ixs: &[usize]| ixs.iter().map(|&i| input.alphabet[i].clone()).collect::<Vec<_>>();
    let f0 = Frontier::initial(adt).advance_seq(adt, &ops(sigma));
    if f0.is_empty() {
        return false;
    }
    let fa = f0.advance_seq(adt, &ops(alpha));
    if fa.is_empty() || f0.advance_seq(adt, &ops(beta)).is_empty() {
        return false;
    }
    for &a in alpha {
        for &b in beta {
            if input.relation.conflicts(&input.alphabet[a], &input.alphabet[b]) {
                return false;
            }
        }
    }
    fa.advance_seq(adt, &ops(beta)).is_empty()
}

/// Greedy delta-debugging: repeatedly drop single operations from `σ`,
/// `α`, and `β` while the triple remains an admitted violation, to a
/// fixpoint. Deletion can only *relax* the compatibility condition, so
/// the minimum is a genuine witness with every op load-bearing.
fn minimize(
    input: &CheckInput,
    sigma: &[usize],
    alpha: &[usize],
    beta: &[usize],
) -> Counterexample {
    debug_assert!(admitted_violation(input, sigma, alpha, beta));
    let mut parts = [sigma.to_vec(), alpha.to_vec(), beta.to_vec()];
    'shrink: loop {
        for p in 0..3 {
            for i in 0..parts[p].len() {
                let mut probe = parts.clone();
                probe[p].remove(i);
                if admitted_violation(input, &probe[0], &probe[1], &probe[2]) {
                    parts = probe;
                    continue 'shrink;
                }
            }
        }
        break;
    }
    let [sigma, alpha, beta] = parts;

    let mut offending = BTreeSet::new();
    for &a in &alpha {
        for &b in &beta {
            offending.insert(input.relation.canonical_pair(&input.alphabet[a], &input.alphabet[b]));
        }
    }

    let ops = |ixs: &[usize]| ixs.iter().map(|&i| input.alphabet[i].clone()).collect::<Vec<_>>();
    let (setup, left, right) = (ops(&sigma), ops(&alpha), ops(&beta));
    let history = witness_history(&setup, &left, &right);

    // The reduction's condition (4) and the oracle's hybrid-atomicity
    // test must be the same statement; a divergence here is a bug in
    // this crate, not in the table under audit.
    assert!(history.well_formed().is_ok(), "witness history is well-formed");
    let specs = SystemSpecs::new().with(ObjectId(0), input.adt.clone());
    assert_eq!(
        hybrid_atomic_violation(&history, &specs),
        Some(ObjectId(0)),
        "{}: the hcc-verify oracle must confirm the minimized counterexample",
        input.name
    );

    Counterexample { setup, left, right, offending, history }
}

/// Render `(σ, α, β)` as a formal history at object 0: `σ` as
/// transaction 1 (committed at timestamp 1 before the pair starts),
/// `α` as transaction 2 (timestamp 2), `β` as transaction 3
/// (timestamp 3).
fn witness_history(setup: &[Operation], left: &[Operation], right: &[Operation]) -> History {
    let mut b = HistoryBuilder::new();
    for op in setup {
        b = b.op(0, 1, op.inv.clone(), op.res.clone());
    }
    if !setup.is_empty() {
        b = b.commit(0, 1, 1);
    }
    for op in left {
        b = b.op(0, 2, op.inv.clone(), op.res.clone());
    }
    for op in right {
        b = b.op(0, 3, op.inv.clone(), op.res.clone());
    }
    b.commit(0, 2, 2).commit(0, 3, 3).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::registry;
    use crate::input::CheckInput;
    use hcc_relations::relation::{Cond, OpClass, Relation};
    use hcc_relations::tables::AdtConfig;
    use hcc_verify::hybrid_atomic;

    fn atom(row: &str, col: &str, cond: Cond) -> Atom {
        Atom { row: OpClass::new(row), col: OpClass::new(col), cond }
    }

    /// The headline property: every bundled table — derived for the
    /// seven built-ins and both `define_adt!` types — admits no
    /// hybrid-atomicity violation. (Depth 2 here for debug-build speed;
    /// CI runs `adtcheck --all --depth 3` in release.)
    #[test]
    fn every_registered_table_is_sound() {
        for entry in registry() {
            let report = check_soundness(&entry.input, Depth::new(2));
            assert!(
                report.sound(),
                "{}: admitted violation {:?}",
                entry.input.name,
                report.counterexample
            );
            assert!(report.schedules > 0, "{}: search was vacuous", entry.input.name);
        }
    }

    /// The mutation negative test: flip the queue's `Deq ⊦ Deq (v=v′)`
    /// entry to compatible and the checker must produce the paper's own
    /// anomaly — two transactions dequeuing the same committed element —
    /// minimized to one op each, naming the flipped pair.
    #[test]
    fn dropping_the_deq_deq_atom_is_caught_with_a_minimal_witness() {
        let input = CheckInput::from_adt_config(AdtConfig::queue());
        let flipped = atom("Deq", "Deq", Cond::KeyEq);
        assert!(input.relation.atoms().contains(&flipped), "the entry under mutation is stated");
        let report = check_soundness(&input.without_atom(&flipped), Depth::new(3));
        let cex = report.counterexample.expect("the mutation must be caught");
        assert_eq!(
            (cex.setup.len(), cex.left.len(), cex.right.len()),
            (1, 1, 1),
            "minimal witness is enq ∥ deq/deq: {cex:?}"
        );
        assert_eq!(
            cex.offending.iter().collect::<Vec<_>>(),
            vec![&flipped],
            "the offending pair names exactly the flipped entry"
        );
        // And the witness history is independently non-hybrid-atomic.
        let specs = SystemSpecs::new().with(ObjectId(0), input.adt.clone());
        assert!(!hybrid_atomic(&cex.history, &specs));
    }

    /// Same, for the queue's other entry (`Deq ⊦ Enq, v ≠ v′`): a
    /// dequeue overlapping the enqueue of a different element must
    /// conflict, or the earlier-timestamped enqueuer's element can be
    /// dequeued past.
    #[test]
    fn dropping_the_deq_enq_atom_is_caught() {
        let input = CheckInput::from_adt_config(AdtConfig::queue());
        let flipped = atom("Deq", "Enq", Cond::KeyNeq);
        let cex = check_soundness(&input.without_atom(&flipped), Depth::new(3))
            .counterexample
            .expect("the mutation must be caught");
        assert!(
            cex.offending.contains(&flipped),
            "offending pairs {:?} must name the flipped entry",
            cex.offending
        );
    }

    /// Conservatism reporting, negative direction: neither queue atom is
    /// an over-approximation — removing either admits a violation.
    #[test]
    fn every_queue_atom_is_necessary() {
        let input = CheckInput::from_adt_config(AdtConfig::queue());
        for probe in atom_necessity(&input, Depth::new(3)) {
            assert!(probe.witness.is_some(), "{:?} should be necessary", probe.atom);
        }
    }

    /// Conservatism reporting, positive direction: the account's
    /// `Debit-Overdraft ⊦ Post (v=v′)` entry is never exercised by a
    /// bounded violation — the lift's empty-bucket generalization (the
    /// equal-amount case never arises over the derivation alphabet)
    /// over-approximates, and `adtcheck` says so instead of silently
    /// trusting it.
    #[test]
    fn account_overdraft_post_atom_is_conservative_within_bounds() {
        let input = CheckInput::from_adt_config(AdtConfig::account());
        let conservative: Vec<Atom> = atom_necessity(&input, Depth::new(3))
            .into_iter()
            .filter(|p| p.witness.is_none())
            .map(|p| p.atom)
            .collect();
        assert_eq!(conservative, vec![atom("Debit-Overdraft", "Post", Cond::KeyEq)]);
    }

    /// Sanity at the extreme: with every entry flipped to compatible the
    /// queue is immediately unsound.
    #[test]
    fn the_empty_table_on_a_queue_is_unsound() {
        let mut input = CheckInput::from_adt_config(AdtConfig::queue());
        input.relation = Relation::empty(AdtConfig::queue().classify);
        assert!(!check_soundness(&input, Depth::new(2)).sound());
    }

    /// The depth convention: `--depth k` = setups to `k`, transactions
    /// to `k − 1`, floored at 1.
    #[test]
    fn depth_convention() {
        assert_eq!(Depth::new(3), Depth { setup: 3, per_txn: 2 });
        assert_eq!(Depth::new(1), Depth { setup: 1, per_txn: 1 });
    }
}
