//! Deriving **runtime** conflict relations from serial specifications —
//! the bridge between the paper's offline derivation (Sections 4–5) and
//! the live object runtime.
//!
//! A [`DeriveSpec`] bundles everything the bounded invalidated-by search
//! needs: the dynamic specification, a finite operation alphabet over a
//! small value domain, a classifier, and the search bounds.
//! [`conflict_atoms`] runs the search and lifts the instance-level
//! relation to class-level [`Atom`]s (class pairs under a key condition),
//! which generalize beyond the derivation domain. A classifier plus
//! those atoms is a [`Relation`](crate::relation::Relation): the lock
//! test is "classify both executed operations, bucket their key
//! condition, look the atom up", with the symmetric closure applied at
//! lookup time, exactly as the paper constructs conflict relations from
//! dependency relations. `hcc-core`'s `SpecLock`, the reference
//! automaton in `hcc-verify` and `hcc-check` all hold that one value.
//!
//! Derivation is *bounded model checking* and costs milliseconds, not
//! nanoseconds, so [`cached_atoms`] memoizes the result per (type name,
//! derivation, [`derive_fingerprint`]): every object of one type —
//! across databases, threads, and repeated construction — shares one
//! derivation, while two specs that merely share a name (or one whose
//! bounds/alphabet changed) can never serve each other stale atoms. The
//! raw entry points stay public for benchmarking the derivation itself.

use crate::commutativity::failure_to_commute;
use crate::enumerate::legal_sequences;
use crate::invalidated_by::{invalidated_by, Bounds};
use crate::relation::{pair_cond, Atom, Cond, InstanceRelation, OpClass};
use crate::tables::AdtConfig;
use hcc_spec::adt::SharedAdt;
use hcc_spec::{Frontier, Inv, Operation};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Everything needed to derive one type's conflict relation from its
/// serial specification. The runtime-facing sibling of [`AdtConfig`]
/// (which adds table-rendering presentation); [`From<AdtConfig>`] drops
/// the presentation fields.
#[derive(Clone)]
pub struct DeriveSpec {
    /// The serial specification (the paper's Section-3.1 object).
    pub adt: SharedAdt,
    /// Operation instances over a small derivation domain.
    pub alphabet: Vec<Operation>,
    /// Instance → class; also classifies *runtime* operations at lock
    /// time, so the derived relation generalizes beyond the domain.
    pub classify: fn(&Operation) -> OpClass,
    /// Bounded-search depths.
    pub bounds: Bounds,
}

impl From<AdtConfig> for DeriveSpec {
    fn from(cfg: AdtConfig) -> DeriveSpec {
        DeriveSpec {
            adt: cfg.adt,
            alphabet: cfg.alphabet,
            classify: cfg.classify,
            bounds: cfg.bounds,
        }
    }
}

/// Lift an instance-level relation over `alphabet` to class-level atoms,
/// bucketing each class pair's instance pairs by key condition (the
/// paper's table semantics, see `tables.rs`):
///
/// * a bucket with a related instance emits its atom — a *partially*
///   related bucket over-approximates to related, which is sound (a
///   superset of a dependency relation still hits every Definition-3
///   violation; the condition language simply cannot carve it finer);
/// * a bucket the derivation domain left **empty** generalizes from the
///   other bucket — `debit(m)` vs `post(p)` with `m = p` never arises
///   over the account alphabet, yet Table V states the dependency as
///   `Always`, so a related populated bucket carries into the empty one.
pub fn lift_to_atoms(
    alphabet: &[Operation],
    classify: fn(&Operation) -> OpClass,
    rel: &InstanceRelation,
) -> BTreeSet<Atom> {
    #[derive(Default)]
    struct Bucket {
        total: usize,
        related: usize,
    }
    let mut buckets: HashMap<(OpClass, OpClass), (Bucket, Bucket)> = HashMap::new();
    for (q, q_op) in alphabet.iter().enumerate() {
        for (p, p_op) in alphabet.iter().enumerate() {
            let entry = buckets.entry((classify(q_op), classify(p_op))).or_default();
            let bucket = match pair_cond(q_op, p_op) {
                Cond::KeyEq => &mut entry.0,
                Cond::KeyNeq => &mut entry.1,
            };
            bucket.total += 1;
            if rel.contains(q, p) {
                bucket.related += 1;
            }
        }
    }
    let mut atoms = BTreeSet::new();
    for ((row, col), (eq, neq)) in buckets {
        let eq_related = eq.related > 0 || (eq.total == 0 && neq.related > 0);
        let neq_related = neq.related > 0 || (neq.total == 0 && eq.related > 0);
        for (hit, cond) in [(eq_related, Cond::KeyEq), (neq_related, Cond::KeyNeq)] {
            if hit {
                atoms.insert(Atom { row: row.clone(), col: col.clone(), cond });
            }
        }
    }
    atoms
}

/// Derive the type's hybrid conflict atoms: the bounded invalidated-by
/// relation (Definitions 8–9, a dependency relation by Theorem 10),
/// lifted to class level. The symmetric closure — what the paper calls
/// the conflict relation — is applied by the consumer at lookup time.
pub fn conflict_atoms(spec: &DeriveSpec) -> BTreeSet<Atom> {
    let rel = invalidated_by(spec.adt.as_ref(), &spec.alphabet, spec.bounds);
    lift_to_atoms(&spec.alphabet, spec.classify, &rel)
}

/// Derive the commutativity rival's atoms (Section 7): the bounded
/// failure-to-commute relation — a dependency relation by Theorem 28, but
/// generally not a minimal one — lifted to class level like
/// [`conflict_atoms`]. For the Account this is Table VI; for the FIFO
/// queue, Table III.
pub fn commutativity_atoms(spec: &DeriveSpec) -> BTreeSet<Atom> {
    let rel = failure_to_commute(spec.adt.as_ref(), &spec.alphabet, spec.bounds);
    lift_to_atoms(&spec.alphabet, spec.classify, &rel)
}

/// Derive untyped read/write locking's atoms. An invocation is a read
/// when none of its alphabet instances changes the state from any state
/// the bounded search reaches; a class is a read when every instance in
/// it has a read invocation. Every pair of classes conflicts, under
/// either key condition, unless both are reads. Like classical 2PL this
/// classifies by invocation, so an overdrawn debit — which changes
/// nothing — is still a write.
pub fn read_write_atoms(spec: &DeriveSpec) -> BTreeSet<Atom> {
    let adt = spec.adt.as_ref();
    let reached = legal_sequences(adt, &spec.alphabet, spec.bounds.max_h1 + spec.bounds.max_h2);
    let changes_state = |op: &Operation| {
        reached
            .iter()
            .flat_map(|h| h.frontier.states())
            .any(|s| adt.step(s, &op.inv).iter().any(|(res, next)| *res == op.res && next != s))
    };
    let writes: BTreeSet<&Inv> =
        spec.alphabet.iter().filter(|op| changes_state(op)).map(|op| &op.inv).collect();
    let mut is_read: BTreeMap<OpClass, bool> = BTreeMap::new();
    for op in &spec.alphabet {
        *is_read.entry((spec.classify)(op)).or_insert(true) &= !writes.contains(&op.inv);
    }
    let mut atoms = BTreeSet::new();
    for (row, &row_reads) in &is_read {
        for (col, &col_reads) in &is_read {
            if !(row_reads && col_reads) {
                for cond in [Cond::KeyEq, Cond::KeyNeq] {
                    atoms.insert(Atom { row: row.clone(), col: col.clone(), cond });
                }
            }
        }
    }
    atoms
}

/// A 64-bit fingerprint of everything the bounded search reads from a
/// [`DeriveSpec`]: the type name, the bounds, each alphabet instance and
/// its class, plus a shallow behavioural probe of the specification (the
/// initial state and each instance's single-step legality from it).
///
/// The classifier is captured by its *behaviour on the alphabet* — the
/// only way [`lift_to_atoms`] ever consults it — so two `fn` items that
/// classify identically fingerprint identically, which is exactly when
/// sharing a derivation is sound. The probe is deliberately shallow: it
/// distinguishes specs that differ near the initial state (the common
/// editing accident) without paying a full bounded search per lookup;
/// two *behaviourally different* specs that agree on name, alphabet,
/// classes, bounds, and every first step are out of scope.
pub fn derive_fingerprint(spec: &DeriveSpec) -> u64 {
    /// FNV-1a over everything `write_str` receives — lets the hash
    /// consume `Debug` renderings without intermediate allocation.
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let _ = write!(
        h,
        "{}|{}+{}|{:?}",
        spec.adt.type_name(),
        spec.bounds.max_h1,
        spec.bounds.max_h2,
        spec.adt.initial()
    );
    let initial = Frontier::initial(spec.adt.as_ref());
    for op in &spec.alphabet {
        let first_step_legal = !initial.advance(spec.adt.as_ref(), op).is_empty();
        let _ = write!(h, "|{:?}={}:{}", op, (spec.classify)(op), u8::from(first_step_legal));
    }
    h.0
}

/// A derivation: [`conflict_atoms`], [`commutativity_atoms`] or
/// [`read_write_atoms`].
pub type Derive = fn(&DeriveSpec) -> BTreeSet<Atom>;

/// The per-type derivation cache: type name → (derivation's address,
/// fingerprint, atoms). The inner list holds one entry per derivation a
/// type was asked for; it only grows further if distinct specs share a
/// type name, the collision the fingerprint exists to keep harmless.
type CacheMap = HashMap<String, Vec<(usize, u64, Arc<BTreeSet<Atom>>)>>;

fn cache() -> &'static Mutex<CacheMap> {
    static CACHE: OnceLock<Mutex<CacheMap>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

static DERIVATIONS: AtomicU64 = AtomicU64::new(0);

/// [`conflict_atoms`], memoized per `(key, fingerprint)` — `key` is by
/// convention the type name: the first construction of an object of a
/// given type pays the bounded search once; every later construction —
/// any thread, any database — gets the shared result. The
/// [`derive_fingerprint`] half of the cache key means a second def that
/// happens to share the name, or a def whose bounds or alphabet changed,
/// derives its own atoms instead of being served stale ones.
pub fn cached_conflict_atoms(key: &str, spec: &DeriveSpec) -> Arc<BTreeSet<Atom>> {
    cached_atoms(key, spec, conflict_atoms)
}

/// `derive(spec)`, memoized per `(key, derive, fingerprint)` in the same
/// cache as [`cached_conflict_atoms`]. Keying by the function's address
/// is sound either way it can go wrong: two copies of one function only
/// miss each other's entry, and two functions merged into one address
/// compute the same atoms.
pub fn cached_atoms(key: &str, spec: &DeriveSpec, derive: Derive) -> Arc<BTreeSet<Atom>> {
    let (d, fp) = (derive as usize, derive_fingerprint(spec));
    let hit = |e: &&(usize, u64, _)| e.0 == d && e.1 == fp;
    if let Some(entries) = lock_cache().get(key) {
        if let Some((_, _, atoms)) = entries.iter().find(hit) {
            return atoms.clone();
        }
    }
    // Derive outside the lock (milliseconds); first insert wins if two
    // threads race — both derived the same pure function of the spec.
    let atoms = Arc::new(derive(spec));
    DERIVATIONS.fetch_add(1, Ordering::Relaxed);
    let mut cache = lock_cache();
    let entries = cache.entry(key.to_string()).or_default();
    match entries.iter().find(hit) {
        Some((_, _, winner)) => winner.clone(),
        None => {
            entries.push((d, fp, atoms.clone()));
            atoms
        }
    }
}

fn lock_cache() -> std::sync::MutexGuard<'static, CacheMap> {
    cache().lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// How the derived atom set moved when the search bounds doubled —
/// evidence that the configured bounds had *not* converged.
#[derive(Clone, Debug)]
pub struct BoundsDrift {
    /// The configured bounds.
    pub base: Bounds,
    /// The doubled bounds the check re-derived at.
    pub doubled: Bounds,
    /// Atoms the doubled search found that the configured one missed —
    /// dependencies the runtime table would silently lack.
    pub missing: BTreeSet<Atom>,
}

impl std::fmt::Display for BoundsDrift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "derivation bounds {}+{} have not converged: doubling to {}+{} adds atoms {:?}",
            self.base.max_h1,
            self.base.max_h2,
            self.doubled.max_h1,
            self.doubled.max_h2,
            self.missing
        )
    }
}

/// The bounds-invariance self-check: derive at the configured bounds `B`
/// and again at `2B`, and demand identical atom sets. Bounded search can
/// only *miss* witnesses, never invent them, so a bound that has
/// converged is indistinguishable from the unbounded relation on this
/// alphabet — while an under-sized bound shows up as atoms the doubled
/// search finds and the configured one lacks (returned as the error).
/// `adtcheck` runs this for every `define_adt!` type, and debug builds
/// of the bundled user-defined types assert it in their test suites,
/// like `larger_bounds_do_not_change_queue_relation`.
pub fn check_bounds_invariance(spec: &DeriveSpec) -> Result<BTreeSet<Atom>, Box<BoundsDrift>> {
    let base = conflict_atoms(spec);
    let doubled = Bounds { max_h1: spec.bounds.max_h1 * 2, max_h2: spec.bounds.max_h2 * 2 };
    let grown = conflict_atoms(&DeriveSpec { bounds: doubled, ..spec.clone() });
    // `grown ⊇ base` by monotonicity of the bounded search; anything in
    // `base` alone would be a search bug, so report it symmetrically.
    if grown == base {
        Ok(base)
    } else {
        let missing = grown.difference(&base).cloned().collect();
        Err(Box::new(BoundsDrift { base: spec.bounds, doubled, missing }))
    }
}

/// How many actual (cache-missing) derivations have run in this process
/// — lets tests assert that repeated construction of one type derives
/// once.
pub fn derivations_performed() -> u64 {
    DERIVATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{Cond, Relation};

    fn atom(row: &str, col: &str, cond: Cond) -> Atom {
        Atom { row: OpClass::new(row), col: OpClass::new(col), cond }
    }

    #[test]
    fn queue_atoms_are_table_ii() {
        let atoms = conflict_atoms(&AdtConfig::queue().into());
        let expected: BTreeSet<Atom> =
            [atom("Deq", "Enq", Cond::KeyNeq), atom("Deq", "Deq", Cond::KeyEq)].into();
        assert_eq!(atoms, expected);
    }

    #[test]
    fn file_atoms_are_table_i() {
        let atoms = conflict_atoms(&AdtConfig::file().into());
        let expected: BTreeSet<Atom> = [atom("Read", "Write", Cond::KeyNeq)].into();
        assert_eq!(atoms, expected);
    }

    #[test]
    fn queue_commutativity_atoms_are_table_iii() {
        let atoms = commutativity_atoms(&AdtConfig::queue().into());
        let expected: BTreeSet<Atom> =
            [atom("Enq", "Enq", Cond::KeyNeq), atom("Deq", "Deq", Cond::KeyEq)].into();
        assert_eq!(atoms, expected);
    }

    /// Only the file's `read` never changes the state, so only Read∥Read
    /// escapes a conflict; every account invocation — an overdrawn debit
    /// included — is a write.
    #[test]
    fn read_write_atoms_classify_by_invocation() {
        let file = read_write_atoms(&AdtConfig::file().into());
        let always = |row, col| [atom(row, col, Cond::KeyEq), atom(row, col, Cond::KeyNeq)];
        let expected: BTreeSet<Atom> =
            [always("Read", "Write"), always("Write", "Read"), always("Write", "Write")]
                .concat()
                .into_iter()
                .collect();
        assert_eq!(file, expected);
        let account = read_write_atoms(&AdtConfig::account().into());
        assert_eq!(account.len(), 4 * 4 * 2, "every account class pair, both conditions");
    }

    /// Read/write locking serializes writers and lets readers share:
    /// two file writes conflict, two reads do not, whatever the values.
    #[test]
    fn rw_conflict_serializes_writers() {
        let cfg = AdtConfig::file();
        let rw = Relation::new(cfg.classify, read_write_atoms(&cfg.into()));
        let write =
            |v: i64| Operation::new(hcc_spec::specs::FileSpec::write(v), hcc_spec::Value::Unit);
        let read = |v: i64| Operation::new(hcc_spec::specs::FileSpec::read(), v);
        assert!(rw.conflicts(&write(1), &write(2)));
        assert!(rw.conflicts(&write(7), &write(7)));
        assert!(rw.conflicts(&read(1), &write(1)));
        assert!(!rw.conflicts(&read(1), &read(2)));
    }

    #[test]
    fn cache_derives_each_key_once() {
        let before = derivations_performed();
        let a = cached_conflict_atoms("test-semiqueue", &AdtConfig::semiqueue().into());
        let after_first = derivations_performed();
        let b = cached_conflict_atoms("test-semiqueue", &AdtConfig::semiqueue().into());
        assert!(Arc::ptr_eq(&a, &b), "second lookup shares the derivation");
        assert_eq!(derivations_performed(), after_first, "no re-derivation");
        assert!(after_first > before, "first lookup derived");
        assert_eq!(*a, conflict_atoms(&AdtConfig::semiqueue().into()));
    }

    /// The regression the fingerprinted key exists for: two different
    /// specs sharing one type name must not serve each other stale atoms
    /// (per-name-only memoization returned the queue's atoms for the
    /// file here).
    #[test]
    fn cache_key_distinguishes_specs_sharing_a_name() {
        let queue: DeriveSpec = AdtConfig::queue().into();
        let file: DeriveSpec = AdtConfig::file().into();
        let a = cached_conflict_atoms("test-name-collision", &queue);
        let b = cached_conflict_atoms("test-name-collision", &file);
        assert_eq!(*a, conflict_atoms(&queue));
        assert_eq!(*b, conflict_atoms(&file), "second spec derives its own atoms, not stale ones");
        assert_ne!(*a, *b);
        // And both stay individually cached under the shared name.
        let a2 = cached_conflict_atoms("test-name-collision", &queue);
        let b2 = cached_conflict_atoms("test-name-collision", &file);
        assert!(Arc::ptr_eq(&a, &a2) && Arc::ptr_eq(&b, &b2));
    }

    /// One type name and one spec under each derivation: every scheme
    /// gets its own relation, and each stays cached.
    #[test]
    fn cache_key_distinguishes_derivations() {
        let queue: DeriveSpec = AdtConfig::queue().into();
        let all: [Derive; 3] = [conflict_atoms, commutativity_atoms, read_write_atoms];
        let first = all.map(|d| cached_atoms("test-derivations", &queue, d));
        for (d, atoms) in all.iter().zip(&first) {
            assert_eq!(**atoms, d(&queue));
            assert!(Arc::ptr_eq(atoms, &cached_atoms("test-derivations", &queue, *d)));
        }
        assert_ne!(*first[0], *first[1], "Table II is not Table III");
        assert_ne!(*first[1], *first[2]);
    }

    /// A bounds change alone must change the cache key: atoms derived at
    /// one bound can be stale for another.
    #[test]
    fn fingerprint_tracks_bounds_and_alphabet() {
        let base: DeriveSpec = AdtConfig::queue().into();
        let mut rebound = base.clone();
        rebound.bounds = Bounds { max_h1: base.bounds.max_h1 + 1, max_h2: base.bounds.max_h2 };
        assert_ne!(derive_fingerprint(&base), derive_fingerprint(&rebound));
        let mut trimmed = base.clone();
        trimmed.alphabet.pop();
        assert_ne!(derive_fingerprint(&base), derive_fingerprint(&trimmed));
        assert_eq!(derive_fingerprint(&base), derive_fingerprint(&base.clone()));
    }

    /// The carried ROADMAP self-check, closed: the bundled configs'
    /// bounds have converged — doubling them derives identical atoms.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "doubled-bounds sweep of all 7 types; covered per-type \
                                           in release CI by `adtcheck --all --invariance all`"
    )]
    fn builtin_bounds_are_invariant_under_doubling() {
        for cfg in [
            AdtConfig::file as fn() -> AdtConfig,
            AdtConfig::queue,
            AdtConfig::semiqueue,
            AdtConfig::account,
            AdtConfig::counter,
            AdtConfig::set,
            AdtConfig::directory,
        ] {
            let spec: DeriveSpec = cfg().into();
            let name = spec.adt.type_name();
            if let Err(drift) = check_bounds_invariance(&spec) {
                panic!("{name}: {drift}");
            }
        }
    }

    /// A meter that refuses `cap` past count 4: the `Cap ⊦ Inc`
    /// dependency is only witnessed by histories with four increments, so
    /// bounds 1+1 derive an empty relation and the doubled 2+2 search
    /// exposes the drift.
    struct Meter;

    impl hcc_spec::Adt for Meter {
        fn initial(&self) -> hcc_spec::adt::SpecState {
            hcc_spec::adt::SpecState(hcc_spec::Value::Int(0))
        }
        fn step(
            &self,
            state: &hcc_spec::adt::SpecState,
            inv: &hcc_spec::Inv,
        ) -> Vec<(hcc_spec::Value, hcc_spec::adt::SpecState)> {
            let n = state.0.as_int();
            match inv.op {
                "inc" => {
                    vec![(
                        hcc_spec::Value::Unit,
                        hcc_spec::adt::SpecState(hcc_spec::Value::Int(n + 1)),
                    )]
                }
                "cap" if n <= 4 => vec![(hcc_spec::Value::Bool(true), state.clone())],
                _ => vec![],
            }
        }
        fn type_name(&self) -> &'static str {
            "Meter"
        }
    }

    fn meter_spec(bounds: Bounds) -> DeriveSpec {
        fn classify(op: &Operation) -> OpClass {
            OpClass::new(if op.inv.op == "inc" { "Inc" } else { "Cap" })
        }
        DeriveSpec {
            adt: Arc::new(Meter),
            alphabet: vec![
                Operation::new(hcc_spec::Inv::nullary("inc"), hcc_spec::Value::Unit),
                Operation::new(hcc_spec::Inv::nullary("cap"), true),
            ],
            classify,
            bounds,
        }
    }

    #[test]
    fn bounds_invariance_reports_unconverged_bounds() {
        let drift = check_bounds_invariance(&meter_spec(Bounds { max_h1: 1, max_h2: 1 }))
            .expect_err("1+1 cannot witness the depth-4 dependency");
        // The depth-4 witness lands in the KeyEq bucket (`inc` is
        // keyless), and the lift's empty-bucket generalization promotes
        // it to the Always case — so doubling adds *both* conditions.
        assert_eq!(
            drift.missing.iter().collect::<Vec<_>>(),
            vec![&atom("Cap", "Inc", Cond::KeyEq), &atom("Cap", "Inc", Cond::KeyNeq)],
            "{drift}"
        );
        // At 2+2 the witness fits and doubling again changes nothing.
        check_bounds_invariance(&meter_spec(Bounds { max_h1: 2, max_h2: 2 }))
            .expect("2+2 has converged");
    }
}
