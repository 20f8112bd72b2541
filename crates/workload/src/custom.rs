//! The acceptance workload for the declarative ADT surface: a
//! **user-defined type written only against the public `define_adt!` /
//! `AdtDef` API** — no `RuntimeAdt`, `Snapshot`, or
//! `DbObject` impl anywhere in this module — driven through the [`Db`]
//! facade under the randomized kill-point crash scenario, with the
//! recovered history verified **hybrid atomic** against the same serial
//! specification the lock relation was derived from.
//!
//! The type is a *leaderboard* (a shape the paper never analyzed):
//! `submit(player, score)` reports whether it raised the player's best,
//! `best(player)` reads it. The derived conflict relation comes out
//! per-player and response-sensitive — winning submits of one player
//! conflict with each other and with that player's reads; *losing*
//! submits and cross-player operations run concurrently — which the
//! `derived_relation_is_per_player` test pins down.

use hcc_adts::define::{AdtDef, ConflictSpec, DeriveSpec, OpClass, SpecObject};
use hcc_adts::define_adt;
use hcc_db::{Db, HccError};
use hcc_spec::adt::{Adt, SharedAdt, SpecState};
use hcc_spec::history::HistoryBuilder;
use hcc_spec::{Inv, ObjectId, Operation, Value};
use hcc_storage::{CompactionPolicy, DurableStore, StorageOptions};
use hcc_verify::{hybrid_atomic, SystemSpecs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

// ---- the serial specification (what the user states once) --------------

/// The leaderboard's serial specification as a dynamic state machine:
/// state is the sorted `player → best` table, `submit` answers whether
/// it improved the best, `best` reads it (0 for unknown players).
pub struct LeaderboardSpec;

fn spec_entries(state: &SpecState) -> Vec<(String, i64)> {
    match &state.0 {
        Value::List(entries) => entries
            .iter()
            .map(|e| match e {
                Value::Pair(p, s) => (p.as_str().to_string(), s.as_int()),
                other => unreachable!("leaderboard entries are pairs, got {other:?}"),
            })
            .collect(),
        other => unreachable!("leaderboard state is a list, got {other:?}"),
    }
}

fn spec_state(entries: &[(String, i64)]) -> SpecState {
    SpecState(Value::List(
        entries
            .iter()
            .map(|(p, s)| Value::Pair(Box::new(Value::str(p)), Box::new(Value::Int(*s))))
            .collect(),
    ))
}

impl Adt for LeaderboardSpec {
    fn initial(&self) -> SpecState {
        SpecState(Value::List(Vec::new()))
    }

    fn step(&self, state: &SpecState, inv: &Inv) -> Vec<(Value, SpecState)> {
        let mut entries = spec_entries(state);
        let player = inv.args[0].as_str().to_string();
        let best = entries.iter().find(|(p, _)| *p == player).map(|(_, s)| *s).unwrap_or(0);
        match inv.op {
            "submit" => {
                let score = inv.args[1].as_int();
                if score > best {
                    match entries.iter_mut().find(|(p, _)| *p == player) {
                        Some(entry) => entry.1 = score,
                        None => {
                            entries.push((player, score));
                            entries.sort();
                        }
                    }
                    vec![(Value::Bool(true), spec_state(&entries))]
                } else {
                    vec![(Value::Bool(false), state.clone())]
                }
            }
            "best" => vec![(Value::Int(best), state.clone())],
            _ => vec![],
        }
    }

    fn type_name(&self) -> &'static str {
        "Leaderboard"
    }
}

/// The shared specification handle (the verifier's ground truth).
pub fn spec() -> SharedAdt {
    Arc::new(LeaderboardSpec)
}

// ---- the typed definition (the whole public-API surface) ---------------

/// Leaderboard invocations.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum LbOp {
    /// Record `score` for `player`; responds whether it beat their best.
    Submit(String, i64),
    /// Read `player`'s best (0 when unknown).
    Best(String),
}

/// Leaderboard responses.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum LbRes {
    /// Did the submit improve the player's best?
    Improved(bool),
    /// The best read.
    Best(i64),
}

/// The leaderboard's operation classifier — public so `adtcheck` can
/// audit the derived table exactly as the runtime classifies it.
pub fn lb_classify(op: &Operation) -> OpClass {
    OpClass::new(match (op.inv.op, &op.res) {
        ("submit", Value::Bool(true)) => "Submit-Win",
        ("submit", _) => "Submit-Lose",
        _ => "Best",
    })
}

/// The derivation alphabet (players a/b × scores 1/2, win/lose submits,
/// bests 0..2) — public for the same audit.
pub fn lb_alphabet() -> Vec<Operation> {
    let mut ops = Vec::new();
    for player in ["a", "b"] {
        for score in [1i64, 2] {
            for win in [true, false] {
                ops.push(Operation::new(Inv::binary("submit", player, score), win));
            }
        }
        for best in [0i64, 1, 2] {
            ops.push(Operation::new(Inv::unary("best", player), best));
        }
    }
    ops
}

/// The full derivation spec exactly as [`LeaderboardDef`]'s `conflicts`
/// states it — the single source `adtcheck` audits and the debug
/// bounds-invariance test doubles.
pub fn lb_derive_spec() -> DeriveSpec {
    DeriveSpec {
        adt: spec(),
        alphabet: lb_alphabet(),
        classify: lb_classify,
        bounds: hcc_adts::define::Bounds { max_h1: 2, max_h2: 2 },
    }
}

define_adt! {
    /// The leaderboard, stated once: types + executable semantics + the
    /// serial spec to derive locking from. Everything else is generic.
    pub struct LeaderboardDef {
        name: "Leaderboard",
        state: BTreeMap<String, i64>,
        op: LbOp,
        res: LbRes,
        initial: BTreeMap::new,
        respond: |state: &BTreeMap<String, i64>, op: &LbOp| {
            let best = |p: &String| state.get(p).copied().unwrap_or(0);
            match op {
                LbOp::Submit(p, s) => vec![LbRes::Improved(*s > best(p))],
                LbOp::Best(p) => vec![LbRes::Best(best(p))],
            }
        },
        apply: |state: &mut BTreeMap<String, i64>, op: &LbOp, res: &LbRes| {
            if let (LbOp::Submit(p, s), LbRes::Improved(true)) = (op, res) {
                state.insert(p.clone(), *s);
            }
        },
        read: |op: &LbOp, _res: &LbRes| matches!(op, LbOp::Best(_)),
        spec_op: |op: &LbOp, res: &LbRes| match (op, res) {
            (LbOp::Submit(p, s), LbRes::Improved(win)) => {
                Operation::new(Inv::binary("submit", p.as_str(), *s), *win)
            }
            (LbOp::Best(p), LbRes::Best(v)) => {
                Operation::new(Inv::unary("best", p.as_str()), *v)
            }
            other => unreachable!("ill-typed leaderboard op {other:?}"),
        },
        conflicts: || ConflictSpec::Derived(lb_derive_spec()),
    }
}

/// The typed handle the workload (and any user) asks the [`Db`] for.
pub type Leaderboard = SpecObject<LeaderboardDef>;

// ---- the randomized kill-point crash workload --------------------------

/// The boards the workload writes to (two objects: multi-object commits
/// and object-affine striping both get exercised).
pub const BOARDS: [&str; 2] = ["season", "alltime"];

/// One committed, logged effect: a submit on board `board` (reads are
/// not logged — they have no durable effect).
#[derive(Clone, Debug, PartialEq)]
pub struct Submitted {
    /// Index into [`BOARDS`].
    pub board: usize,
    /// Player name.
    pub player: String,
    /// Submitted score.
    pub score: i64,
    /// The response: did it improve the player's best?
    pub improved: bool,
}

/// Committed effects keyed by commit timestamp.
pub type Oracle = BTreeMap<u64, Vec<Submitted>>;

/// Options for one run.
#[derive(Clone, Copy, Debug)]
pub struct CustomScenarioOptions {
    /// RNG seed (the run is deterministic given the seed).
    pub seed: u64,
    /// Transactions to attempt.
    pub txns: usize,
    /// Checkpoint on the EveryN policy (`None` = never).
    pub checkpoint_every: Option<u64>,
}

impl Default for CustomScenarioOptions {
    fn default() -> Self {
        CustomScenarioOptions { seed: 0x1EAD, txns: 90, checkpoint_every: None }
    }
}

/// Run the randomized leaderboard workload through a [`Db`] at `dir` and
/// close it (combine with [`crate::crash::truncate_tail`] to crash).
/// Returns the committed-effect oracle.
pub fn run_custom_workload(dir: &Path, opts: CustomScenarioOptions) -> Result<Oracle, HccError> {
    let storage = StorageOptions {
        segment_max_bytes: 2048,
        policy: match opts.checkpoint_every {
            Some(n) => CompactionPolicy::every_n(n),
            None => CompactionPolicy::never(),
        },
        ..StorageOptions::default()
    }
    .env_overrides();
    let db = Db::builder().storage_options(storage).open(dir)?;
    let boards: Vec<Arc<Leaderboard>> =
        BOARDS.iter().map(|name| db.object::<Leaderboard>(name)).collect::<Result<_, _>>()?;

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut oracle = Oracle::new();
    let players = ["ada", "bob", "cy", "dot"];
    for _ in 0..opts.txns {
        // 1–3 operations per transaction, mixing boards and players.
        let n_ops = rng.gen_range(1..4usize);
        let script: Vec<(usize, String, i64, bool)> = (0..n_ops)
            .map(|_| {
                (
                    rng.gen_range(0..BOARDS.len()),
                    players[rng.gen_range(0..players.len())].to_string(),
                    rng.gen_range(1..40i64),
                    rng.gen_range(0..10u32) < 2, // ~20% reads
                )
            })
            .collect();
        let mut effects = Vec::new();
        let committed = db.transact_ts(|tx| {
            effects.clear();
            for (board, player, score, is_read) in &script {
                if *is_read {
                    boards[*board].execute(tx, LbOp::Best(player.clone()))?;
                } else {
                    let res = boards[*board].execute(tx, LbOp::Submit(player.clone(), *score))?;
                    let LbRes::Improved(improved) = res else { unreachable!("submit improves") };
                    effects.push(Submitted {
                        board: *board,
                        player: player.clone(),
                        score: *score,
                        improved,
                    });
                }
            }
            Ok(())
        });
        if let Ok(((), ts)) = committed {
            oracle.insert(ts.0, std::mem::take(&mut effects));
        }
        if opts.checkpoint_every.is_some() {
            db.maybe_checkpoint()?;
        }
    }
    Ok(oracle)
}

/// Fold the oracle over the covered timestamp set into per-board state.
pub fn fold_oracle(oracle: &Oracle, covered: &[u64]) -> Vec<BTreeMap<String, i64>> {
    let mut boards = vec![BTreeMap::new(); BOARDS.len()];
    for ts in covered {
        for s in oracle.get(ts).into_iter().flatten() {
            if s.improved {
                boards[s.board].insert(s.player.clone(), s.score);
            }
        }
    }
    boards
}

/// What [`recover_and_verify`] rebuilt.
#[derive(Debug)]
pub struct RecoveredBoards {
    /// Per-board recovered state, indexed like [`BOARDS`].
    pub boards: Vec<BTreeMap<String, i64>>,
    /// The restored checkpoint's watermark (0 = none).
    pub checkpoint_ts: u64,
    /// Timestamps of the replayed tail commits, ascending.
    pub tail_ts: Vec<u64>,
}

/// Recover the database at `dir` through the facade alone — `Db::open` +
/// two typed handles, all generic machinery — and independently verify
/// the recovered raw history **hybrid atomic** against the leaderboard's
/// serial specification.
pub fn recover_and_verify(dir: &Path) -> Result<RecoveredBoards, HccError> {
    let def = LeaderboardDef;
    // The raw image feeds the verifier, independent of the facade path.
    let recovered = DurableStore::recover(dir)?;
    let db = Db::builder().storage_options(StorageOptions::default().env_overrides()).open(dir)?;
    let boards: Vec<Arc<Leaderboard>> =
        BOARDS.iter().map(|name| db.object::<Leaderboard>(name)).collect::<Result<_, _>>()?;
    let ckpt_ts = db.recovery_report().checkpoint_ts;

    // Rebuild the formal history: the checkpoint image enters as one
    // bootstrap transaction of winning submits (that is also how the
    // spec state reaches the snapshot's table), then the committed tail
    // decodes through the *definition's own codec* into spec operations.
    let boot = hcc_adts::snapshot::BOOTSTRAP_TXN;
    let mut hb = HistoryBuilder::new();
    if let Some(ckpt) = &recovered.checkpoint {
        let mut boot_touched = [false; BOARDS.len()];
        for (name, bytes) in &ckpt.objects {
            let board = BOARDS.iter().position(|b| b == name).expect("checkpointed board is known");
            let state = def.decode_state(bytes).expect("checkpoint state decodes");
            for (player, score) in &state {
                hb =
                    hb.op(board as u64, boot, Inv::binary("submit", player.as_str(), *score), true);
            }
            boot_touched[board] |= !state.is_empty();
        }
        for (board, touched) in boot_touched.iter().enumerate() {
            if *touched {
                hb = hb.commit(board as u64, boot, ckpt.last_ts);
            }
        }
    }
    let mut tail_ts = Vec::new();
    for committed in &recovered.committed {
        let mut touched = [false; BOARDS.len()];
        for (object, bytes) in &committed.ops {
            let board = BOARDS.iter().position(|b| b == object).expect("board is known");
            let (op, res) = def.decode_op(bytes).expect("logged op decodes");
            let spec_op = def.spec_op(&op, &res);
            hb = hb.op(board as u64, committed.txn, spec_op.inv, spec_op.res);
            touched[board] = true;
        }
        for (board, touched) in touched.iter().enumerate() {
            if *touched {
                hb = hb.commit(board as u64, committed.txn, committed.ts);
            }
        }
        tail_ts.push(committed.ts);
    }
    let history = hb.build();
    history.well_formed().expect("recovered history is well formed");
    let mut specs = SystemSpecs::new();
    for board in 0..BOARDS.len() {
        specs = specs.with(ObjectId(board as u64), spec());
    }
    assert!(
        hybrid_atomic(&history, &specs),
        "recovered custom-ADT history must be hybrid atomic:\n{history:?}"
    );

    let states = boards.iter().map(|b| b.committed_state()).collect();
    Ok(RecoveredBoards { boards: states, checkpoint_ts: ckpt_ts, tail_ts })
}

/// End-to-end property: run, cut `cut_bytes` off the log's tail,
/// recover, verify hybrid atomicity, and check the recovered boards
/// equal the oracle folded over the surviving coverage. Returns
/// `(committed, survived)` transaction counts.
pub fn custom_crash_point_holds(
    dir: &Path,
    opts: CustomScenarioOptions,
    cut_bytes: u64,
) -> Result<(usize, usize), HccError> {
    let oracle = run_custom_workload(dir, opts)?;
    crate::crash::truncate_tail(dir, cut_bytes)?;
    let recovered = recover_and_verify(dir)?;

    let mut covered: Vec<u64> = oracle
        .keys()
        .copied()
        .filter(|ts| *ts <= recovered.checkpoint_ts)
        .chain(recovered.tail_ts.iter().copied())
        .collect();
    covered.sort();
    covered.dedup();
    let expected = fold_oracle(&oracle, &covered);
    assert_eq!(recovered.boards, expected, "recovered boards diverge from the oracle fold");
    Ok((oracle.len(), covered.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_core::runtime::{SpecAdt, SpecLock};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp(name: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "hcc-custom-{}-{}-{}",
            std::process::id(),
            name,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    /// The derived relation, pinned: per-player, response-sensitive —
    /// winning submits conflict with each other and with reads of the
    /// same player; losing submits and cross-player operations do not.
    #[test]
    fn derived_relation_is_per_player() {
        let lock = SpecLock::<SpecAdt<LeaderboardDef>>::from_def();
        let win = |p: &str, s: i64| (LbOp::Submit(p.into(), s), LbRes::Improved(true));
        let lose = |p: &str, s: i64| (LbOp::Submit(p.into(), s), LbRes::Improved(false));
        let best = |p: &str, v: i64| (LbOp::Best(p.into()), LbRes::Best(v));
        assert!(lock.conflicts(&win("ada", 5), &win("ada", 9)));
        assert!(lock.conflicts(&win("ada", 5), &best("ada", 3)));
        assert!(!lock.conflicts(&win("ada", 5), &win("bob", 5)), "players are independent");
        assert!(!lock.conflicts(&lose("ada", 2), &win("ada", 9)), "losing submits stay stable");
        assert!(!lock.conflicts(&best("ada", 3), &best("ada", 3)), "reads coexist");
        assert!(!lock.conflicts(&lose("ada", 1), &best("ada", 3)));
        assert_eq!(lock.name(), "hybrid-derived");
    }

    /// The ROADMAP's debug-build self-check, closed: the stated bounds
    /// (2+2) have converged — doubling them derives identical atoms.
    /// Release runs get the same guarantee from `adtcheck --all`.
    #[cfg(debug_assertions)]
    #[test]
    fn leaderboard_bounds_are_invariant_under_doubling() {
        hcc_adts::define::check_bounds_invariance(&lb_derive_spec())
            .expect("leaderboard derivation bounds have converged");
    }

    /// Constructing many leaderboards derives the relation once.
    #[test]
    fn derivation_is_cached_per_type() {
        let _warm = SpecLock::<SpecAdt<LeaderboardDef>>::from_def();
        let before = hcc_adts::define::derivations_performed();
        for i in 0..4 {
            let _ = Leaderboard::hybrid(format!("lb-{i}"));
        }
        assert_eq!(
            hcc_adts::define::derivations_performed(),
            before,
            "later constructions reuse the cached derivation"
        );
    }

    #[test]
    fn clean_shutdown_recovers_everything() {
        let dir = tmp("clean");
        let (committed, survived) =
            custom_crash_point_holds(&dir, CustomScenarioOptions::default(), 0).unwrap();
        assert!(committed > 40, "workload committed too little: {committed}");
        assert_eq!(survived, committed);
    }

    #[test]
    fn mid_log_crash_recovers_a_verified_prefix() {
        let dir = tmp("cut");
        let (committed, survived) =
            custom_crash_point_holds(&dir, CustomScenarioOptions::default(), 600).unwrap();
        assert!(survived <= committed);
    }

    #[test]
    fn checkpointed_run_recovers_from_snapshot_plus_tail() {
        let dir = tmp("ckpt");
        let opts = CustomScenarioOptions {
            checkpoint_every: Some(12),
            ..CustomScenarioOptions::default()
        };
        let (committed, survived) = custom_crash_point_holds(&dir, opts, 0).unwrap();
        assert_eq!(survived, committed);
    }

    /// The acceptance property: randomized kill points — random seeds,
    /// random cuts, checkpoints on — always recover to a hybrid-atomic,
    /// oracle-consistent state.
    #[test]
    fn randomized_kill_points_hold() {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for round in 0..6 {
            let dir = tmp("kill");
            let opts = CustomScenarioOptions {
                seed: rng.gen_range(0..u64::MAX),
                txns: 60,
                checkpoint_every: if round % 2 == 0 { Some(15) } else { None },
            };
            let cut = rng.gen_range(0..1500u64);
            let (committed, survived) = custom_crash_point_holds(&dir, opts, cut).unwrap();
            assert!(survived <= committed, "round {round}");
        }
    }
}
