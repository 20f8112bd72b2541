//! Static deadlock-potential analysis over a conflict table.
//!
//! The hybrid scheme takes locks it holds to commit, so two
//! transactions that each acquired *compatible* locks and then request
//! operations *conflicting* with each other's holdings wait forever —
//! the runtime's `DeadlockDetector` exists precisely to break such
//! cycles. Which cycles are reachable is a static property of the
//! conflict table plus the specification, and this module computes it:
//!
//! * a **possible-waits edge** `H —R→ H′` is *instance-grounded*: it is
//!   emitted only when some reachable frontier `F` admits concrete
//!   operations `h, h′` legal from `F` with `h, h′` table-compatible
//!   (so two transactions really can hold both simultaneously), and a
//!   request `r` of class `R` that is legal after `F·h` (the requester's
//!   own view — the runtime never *waits* on an undefined operation; it
//!   blocks on the view instead) and conflicts with `h′`;
//! * a **cycle** over these edges is a deadlock the table cannot rule
//!   out. Self-edges are two-party same-class deadlocks (the queue's
//!   `Enq —Deq→ Enq`: two enqueuers each trying to dequeue the other's
//!   element); 2-cycles pair distinct classes; 3-cycles are reported
//!   only when minimal (no sub-pair already cycles).
//!
//! Edges check co-holdability pairwise at per-edge frontiers, so a
//! cycle is a *potential*, not a certainty — the analysis
//! over-approximates, which is the useful direction: an acyclic graph
//! proves the table deadlock-free within bounds, and the bundled
//! queue's predicted cycle is confirmed against the live detector's
//! `deadlock.victims` in this crate's tests.

use crate::input::CheckInput;
use hcc_relations::enumerate::legal_sequences;
use hcc_relations::relation::OpClass;
use hcc_spec::{Frontier, Operation};
use std::collections::{BTreeMap, BTreeSet};

/// One instance-grounded possible-waits edge: a transaction holding
/// `holds` requests `requests` and blocks on a transaction holding
/// `blocked_on`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitEdge {
    /// Class the waiting transaction already holds.
    pub holds: OpClass,
    /// Class of the blocked request.
    pub requests: OpClass,
    /// Class held by the transaction being waited on.
    pub blocked_on: OpClass,
    /// Concrete grounding `(h, r, h′)` at some reachable frontier.
    pub example: (Operation, Operation, Operation),
}

/// A wait cycle: party `i` holds `holders[i]` and requests
/// `requests[i]`, blocked on party `(i + 1) % n`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct WaitCycle {
    /// Held classes around the cycle.
    pub holders: Vec<OpClass>,
    /// Requested classes around the cycle (same indexing).
    pub requests: Vec<OpClass>,
}

impl std::fmt::Display for WaitCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (h, r)) in self.holders.iter().zip(&self.requests).enumerate() {
            if i > 0 {
                write!(f, " → ")?;
            }
            write!(f, "hold {h}, want {r}")?;
        }
        write!(f, " → ⟲")
    }
}

/// Compute the possible-waits edges, deduplicated by class triple,
/// grounding each at the first witnessing frontier. `setup_depth`
/// bounds the committed prefixes whose frontiers are explored.
pub fn possible_waits(input: &CheckInput, setup_depth: usize) -> Vec<WaitEdge> {
    let adt = input.adt.as_ref();
    let masks = input.conflict_masks();
    let n = input.alphabet.len();

    let mut frontiers: BTreeSet<Frontier> = BTreeSet::new();
    for seq in legal_sequences(adt, &input.alphabet, setup_depth) {
        frontiers.insert(seq.frontier);
    }

    let mut edges: BTreeMap<(OpClass, OpClass, OpClass), WaitEdge> = BTreeMap::new();
    for f in &frontiers {
        // Single-step holdings from this committed state, with the
        // holder's post-op view.
        let holdings: Vec<(usize, Frontier)> = (0..n)
            .filter_map(|i| {
                let fh = f.advance(adt, &input.alphabet[i]);
                (!fh.is_empty()).then_some((i, fh))
            })
            .collect();
        for &(h, ref fh) in &holdings {
            for r in 0..n {
                if fh.advance(adt, &input.alphabet[r]).is_empty() {
                    continue; // the requester's own view refuses r
                }
                for &(hp, _) in &holdings {
                    let coholdable = masks[h] & (1 << hp) == 0;
                    let blocks = masks[r] & (1 << hp) != 0;
                    if coholdable && blocks {
                        let key = (input.class_of(h), input.class_of(r), input.class_of(hp));
                        edges.entry(key.clone()).or_insert_with(|| WaitEdge {
                            holds: key.0,
                            requests: key.1,
                            blocked_on: key.2,
                            example: (
                                input.alphabet[h].clone(),
                                input.alphabet[r].clone(),
                                input.alphabet[hp].clone(),
                            ),
                        });
                    }
                }
            }
        }
    }
    edges.into_values().collect()
}

/// Minimal cycles over a set of possible-waits edges: all self-edges
/// and 2-cycles, plus 3-cycles none of whose vertex pairs already
/// cycle.
pub fn cycles(edges: &[WaitEdge]) -> Vec<WaitCycle> {
    // Adjacency with one representative request label per (from, to).
    let mut adj: BTreeMap<(&OpClass, &OpClass), &OpClass> = BTreeMap::new();
    for e in edges {
        adj.entry((&e.holds, &e.blocked_on)).or_insert(&e.requests);
    }
    let verts: BTreeSet<&OpClass> = adj.keys().flat_map(|&(a, b)| [a, b]).collect();
    let verts: Vec<&OpClass> = verts.into_iter().collect();

    let mut out = Vec::new();
    let mut cycling: BTreeSet<Vec<&OpClass>> = BTreeSet::new();

    for &v in &verts {
        if let Some(&r) = adj.get(&(v, v)) {
            // Two parties, same held class: both sides wait via r.
            out.push(WaitCycle {
                holders: vec![v.clone(), v.clone()],
                requests: vec![r.clone(), r.clone()],
            });
            cycling.insert(vec![v]);
        }
    }
    for (i, &a) in verts.iter().enumerate() {
        for &b in &verts[i + 1..] {
            if let (Some(&rab), Some(&rba)) = (adj.get(&(a, b)), adj.get(&(b, a))) {
                out.push(WaitCycle {
                    holders: vec![a.clone(), b.clone()],
                    requests: vec![rab.clone(), rba.clone()],
                });
                cycling.insert(vec![a, b]);
            }
        }
    }
    for (i, &a) in verts.iter().enumerate() {
        for (j, &b) in verts.iter().enumerate() {
            for (k, &c) in verts.iter().enumerate() {
                // One rotation per cycle: smallest index first; distinct.
                if !(i < j && i < k && j != k) {
                    continue;
                }
                let pairwise_minimal = [[a, b], [a, c], [b, c]].iter().all(|p| {
                    let mut p = p.to_vec();
                    p.sort();
                    !cycling.contains(&p)
                        && !cycling.contains(&vec![p[0]])
                        && !cycling.contains(&vec![p[1]])
                });
                if !pairwise_minimal {
                    continue;
                }
                if let (Some(&rab), Some(&rbc), Some(&rca)) =
                    (adj.get(&(a, b)), adj.get(&(b, c)), adj.get(&(c, a)))
                {
                    out.push(WaitCycle {
                        holders: vec![a.clone(), b.clone(), c.clone()],
                        requests: vec![rab.clone(), rbc.clone(), rca.clone()],
                    });
                }
            }
        }
    }
    out
}

/// The full analysis: possible-waits edges at `setup_depth`, then their
/// minimal cycles.
pub fn deadlock_potential(input: &CheckInput, setup_depth: usize) -> Vec<WaitCycle> {
    cycles(&possible_waits(input, setup_depth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::CheckInput;
    use hcc_relations::relation::{OpClass, Relation};
    use hcc_relations::tables::AdtConfig;

    /// The queue's signature prediction: two enqueuers (compatible) who
    /// then each dequeue deadlock — `hold Enq, want Deq` both ways.
    /// The live half of this cross-check (two real transactions, the
    /// runtime detector picking a victim) is `tests/live_deadlock.rs`.
    #[test]
    fn queue_predicts_the_enq_enq_deq_cycle() {
        let input = CheckInput::from_adt_config(AdtConfig::queue());
        let found = deadlock_potential(&input, 3);
        let (enq, deq) = (OpClass::new("Enq"), OpClass::new("Deq"));
        assert!(
            found.iter().any(|c| c.holders == vec![enq.clone(), enq.clone()]
                && c.requests == vec![deq.clone(), deq.clone()]),
            "missing the Enq/Enq-via-Deq cycle in {found:?}"
        );
    }

    /// Every emitted edge really is instance-grounded: held pair
    /// co-holdable, request blocked by the other party's holding.
    #[test]
    fn edges_are_grounded() {
        for cfg in [AdtConfig::queue(), AdtConfig::account()] {
            let input = CheckInput::from_adt_config(cfg);
            let edges = possible_waits(&input, 3);
            assert!(!edges.is_empty());
            let classify = |op| input.relation.classify(op);
            for e in &edges {
                let (h, r, hp) = &e.example;
                assert!(!input.relation.conflicts(h, hp), "{e:?}: held ops must be co-holdable");
                assert!(input.relation.conflicts(r, hp), "{e:?}: the request must block");
                assert_eq!(
                    (classify(h), classify(r), classify(hp)),
                    (e.holds.clone(), e.requests.clone(), e.blocked_on.clone())
                );
            }
        }
    }

    /// No conflicts, no waits, no cycles.
    #[test]
    fn a_conflict_free_table_cannot_deadlock() {
        let mut input = CheckInput::from_adt_config(AdtConfig::queue());
        input.relation = Relation::empty(AdtConfig::queue().classify);
        assert!(possible_waits(&input, 3).is_empty());
        assert!(deadlock_potential(&input, 3).is_empty());
    }
}
