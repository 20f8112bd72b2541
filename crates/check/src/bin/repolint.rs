//! `repolint` — the repository conventions a grep can hold and the
//! compiler cannot: [`RULES`] ban needles from a scope, [`CENSUSES`] place
//! each needle exactly once (both listed in `docs/CHECKING.md`), and the
//! CI recovery matrix is the one special case. Run from the repository
//! root; exit 1 on any finding. This file is skipped: needles are literals.

use std::fs;
use std::path::Path;

/// Which files a row reads: those under a `within` prefix (every file if
/// there is none) and under no `except` prefix. With `production`, test
/// files are skipped and a file is read up to its top-level test module.
struct Scope {
    within: &'static [&'static str],
    except: &'static [&'static str],
    production: bool,
}

/// No line in scope contains any of the `|`-separated needles.
struct Rule {
    needles: &'static str,
    scope: Scope,
    why: &'static str,
}

/// Each of the `|`-separated needles appears in scope exactly once,
/// under `home`.
struct Census {
    needles: &'static str,
    scope: Scope,
    home: &'static str,
}

const fn only(within: &'static [&'static str], production: bool) -> Scope {
    Scope { within, except: &[], production }
}
const fn outside(except: &'static [&'static str], production: bool) -> Scope {
    Scope { within: &[], except, production }
}
const SOURCES: Scope = only(&["crates/", "src/", "tests/", "examples/"], false);
const PRODUCTION: Scope = outside(&[], true);
/// Every way into the lock manager: executing an operation, testing a lock.
const LOCK_CALLS: &str = ".execute(|try_execute|attempt(";

const RULES: &[Rule] = &[
    Rule {
        needles: ".log_op(",
        scope: PRODUCTION,
        why: "objects log themselves; only tests hand-craft WAL records",
    },
    Rule {
        needles: LOCK_CALLS,
        scope: only(&["crates/adts/src/snapshot.rs"], true),
        why: "a checkpoint image is installed, never re-executed as operations",
    },
    Rule {
        needles: LOCK_CALLS,
        scope: only(&["crates/db/src/read.rs", "crates/core/src/runtime/horizon.rs"], false),
        why: "the read path takes no locks; it clones committed state under the object latch",
    },
    Rule {
        needles: LOCK_CALLS,
        scope: only(&["crates/repl/src/"], false),
        why: "a follower replays pinned responses; re-executing would re-take locks and diverge",
    },
    Rule {
        needles: "TcpStream|TcpListener",
        scope: outside(&["crates/wire/"], false),
        why: "raw sockets live in crates/wire, behind its framed, CRC-checked connection",
    },
    Rule {
        needles: "read_exact|read_full",
        scope: only(&["crates/wire/src/"], true),
        why: "frames are parsed out of RecvHalf's buffer; a piecewise read loses a cut frame",
    },
    Rule {
        needles: "fs::read(|list_segments",
        scope: only(&["crates/storage/src/tail.rs"], true),
        why: "the tailer reads from its cursor and asks the live log for the rest",
    },
    Rule {
        needles: "replay_object_ops(",
        scope: outside(
            &["crates/db/src/db.rs", "crates/txn/src/manager.rs", "crates/txn/src/registry.rs"],
            true,
        ),
        why: "hcc-db recovers and TxnManager::apply_replicated replays; nothing else does",
    },
    Rule {
        needles: ".restore(",
        scope: outside(&["crates/db/src/db.rs"], true),
        why: "a checkpoint image enters a live object only through hcc-db's recovery",
    },
    Rule {
        needles: "fn rotate",
        scope: outside(&["crates/storage/src/wal.rs"], true),
        why: "wal.rs is the one segment writer",
    },
    Rule {
        needles: "gap_patience|TailOptions|gaps_skipped|poll_interval|PositionSampler",
        scope: SOURCES,
        why: "retired with tailer guessing; the shipper moves on what the log states",
    },
    Rule {
        needles: "SiteWal|ops_unlogged|begin_unlogged|PendingOps|record_op|log.stash",
        scope: SOURCES,
        why: "retired with the retry stashes; a lost op record dooms its transaction",
    },
    Rule {
        needles: "Durability::None|\"none\" =>|with_durability|no_lock_timeout|GrowthSize|\
                  growth_size|with_min_records",
        scope: SOURCES,
        why: "retired with the settings nothing chose; every durability level survives a crash",
    },
    Rule {
        needles: "DerivedConflict|FnConflict|ReadWriteConflict|NoConflict|ConflictRelation|\
                  ConflictTable|RelationTable|CellCond|atoms_to_instance_relation",
        scope: SOURCES,
        why: "retired with the copies of the conflict relation; every consumer holds a Relation",
    },
    Rule {
        needles: "PendingRecovery|snapshot_refs|mark_absorbed_if_drained|registry::Registry",
        scope: SOURCES,
        why: "retired with the second and third name maps; `Db` keeps one object table",
    },
    Rule {
        needles: "pin_horizon|committed_snapshot_at|Snapshot for",
        scope: SOURCES,
        why: "retired with the per-object checkpoint pin; a checkpoint holds one shared pin guard",
    },
    Rule {
        needles: ".attach(|PoisonedRecovery|storage_options(",
        scope: SOURCES,
        why: "retired with the caller-built object; the `Db` builds every object it holds",
    },
    Rule {
        needles: "take_open_image|take_recovered|release_image_on_append|log_begin(",
        scope: SOURCES,
        why: "retired with the retained open image; opening hands what it read to the caller",
    },
    Rule {
        needles: "TxnManager::new(|TxnManager::with_storage(|.object_options()|::with_options(|\
                  Object::with(|::hybrid(|.with_redo(|.checkpoint(&",
        scope: Scope {
            within: SOURCES.within,
            except: &[
                "crates/db/src/",
                "crates/txn/src/",
                "crates/adts/src/",
                "crates/core/src/",
                // A spy wait observer and no lock timeout: no `Db` option offers either.
                "crates/check/tests/live_deadlock.rs",
            ],
            production: false,
        },
        why: "callers open objects through `Db`, which builds each over the shared runtime \
              and checkpoints every one; a partial checkpoint prunes the others' history",
    },
];

const CENSUSES: &[Census] = &[
    // The object layer is written once, for `Object<A>`.
    Census {
        needles: "DurableObject for",
        scope: only(&["crates/adts/src/"], true),
        home: "crates/adts/src/snapshot.rs",
    },
    // The type `adtcheck` audits is the type the example runs.
    Census {
        needles: "struct InventorySpec|struct InventoryDef",
        scope: SOURCES,
        home: "crates/workload/src/inventory.rs",
    },
    // The durable store is the one redo sink; its crate alone acts on durability.
    Census { needles: "RedoSink for", scope: PRODUCTION, home: "crates/storage/" },
    Census { needles: "enum Durability", scope: SOURCES, home: "crates/storage/" },
    // A no-wait attempt is the server's fast path; only the server can fall back.
    Census { needles: "TxnHandle::no_wait(", scope: PRODUCTION, home: "crates/txn/src/manager.rs" },
    Census { needles: ".begin_no_wait(", scope: PRODUCTION, home: "crates/db/src/db.rs" },
    Census { needles: ".try_transact_ts(", scope: PRODUCTION, home: "crates/server/src/" },
    // A conflict relation is looked up in one place, whoever holds it.
    Census {
        needles: "atoms.contains(",
        scope: PRODUCTION,
        home: "crates/relations/src/relation.rs",
    },
];

/// This linter's own source, which spells every needle.
const SELF: &str = "crates/check/src/bin/repolint.rs";
const CI: &str = ".github/workflows/ci.yml";

impl Scope {
    /// The part of `text`, the contents of `rel`, this scope reads.
    fn read<'t>(&self, rel: &str, text: &'t str) -> &'t str {
        let test_file = rel.starts_with("tests/") || rel.contains("/tests/");
        let covered = (self.within.is_empty() || self.within.iter().any(|p| rel.starts_with(p)))
            && !self.except.iter().any(|p| rel.starts_with(p))
            && !(self.production && test_file);
        match covered {
            false => "",
            true if self.production => production(text),
            true => text,
        }
    }
}

/// A file's production text: everything before its top-level (column-0)
/// `#[cfg(test)]` module. An indented test hook does not end it.
fn production(text: &str) -> &str {
    let module =
        text.match_indices("#[cfg(test)]").find(|(at, _)| *at == 0 || text[..*at].ends_with('\n'));
    &text[..module.map_or(text.len(), |(at, _)| at)]
}

/// Every `.rs` file under `dir` but this linter, relative to `root`.
fn rust_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for path in fs::read_dir(dir).into_iter().flatten().flatten().map(|entry| entry.path()) {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        let skip = path.ends_with("target") || rel.starts_with('.') || rel.contains("/.");
        if path.is_dir() && !skip {
            rust_files(root, &path, out);
        } else if rel.ends_with(".rs") && rel != SELF {
            out.push(rel);
        }
    }
}

/// Lint the tree at `root`: how many files were read, and the findings.
fn lint(root: &Path) -> (usize, Vec<String>) {
    let mut files = Vec::new();
    rust_files(root, root, &mut files);
    files.sort();
    let texts: Vec<_> =
        files.iter().map(|rel| fs::read_to_string(root.join(rel)).unwrap_or_default()).collect();
    // Every `(file, line number, line)` a scope reads.
    let lines = |scope: &'static Scope| {
        files.iter().zip(&texts).flat_map(move |(rel, text)| {
            scope.read(rel, text).lines().zip(1..).map(move |(line, n)| (rel, n, line))
        })
    };
    let mut findings = Vec::new();
    for rule in RULES {
        for (rel, n, line) in lines(&rule.scope) {
            for needle in rule.needles.split('|').filter(|needle| line.contains(needle)) {
                findings.push(format!("{rel}:{n}: `{needle}`: {}", rule.why));
            }
        }
    }
    for Census { needles, scope, home } in CENSUSES {
        for needle in needles.split('|') {
            let sites: Vec<_> = lines(scope)
                .filter(|(_, _, line)| line.contains(needle))
                .map(|(rel, n, _)| format!("{rel}:{n}"))
                .collect();
            if sites.len() != 1 || !sites[0].starts_with(home) {
                let sites = sites.join(", ");
                findings.push(format!("`{needle}` at [{sites}], want exactly one, under {home}"));
            }
        }
    }
    // A scope or home that names no file would let its row pass unread.
    let named =
        RULES.iter().flat_map(|rule| rule.scope.within).chain(CENSUSES.iter().map(|c| &c.home));
    for prefix in named.filter(|prefix| !files.iter().any(|file| file.starts_with(*prefix))) {
        findings.push(format!("{prefix}: no file here, so a row scoped to it reads nothing"));
    }

    let ci = fs::read_to_string(root.join(CI)).unwrap_or_default();
    if ci.is_empty() {
        findings.push(format!("{CI}: missing, so its recovery matrix goes unchecked"));
    }
    for (i, line) in ci.lines().map(str::trim_start).enumerate() {
        let none_cell = line.starts_with("durability: [") && line.contains("none");
        if none_cell || (line.starts_with("if:") && line.contains("matrix.durability")) {
            findings.push(format!("{CI}:{}: `{line}`: every step runs in both cells", i + 1));
        }
    }
    (files.len(), findings)
}

fn main() {
    let root = std::env::current_dir().expect("cwd");
    if !root.join("Cargo.toml").exists() {
        eprintln!("repolint: run from the repository root");
        std::process::exit(2);
    }
    let (files, findings) = lint(&root);
    for finding in &findings {
        eprintln!("repolint: {finding}");
    }
    if !findings.is_empty() {
        std::process::exit(1);
    }
    println!("repolint: {files} files clean");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A tree that lints clean: every census home holds its one site,
    /// and every scope names a file.
    const CLEAN: &[(&str, &str)] = &[
        ("Cargo.toml", ""),
        (CI, "    matrix:\n      durability: [buffered, fsync]"),
        ("crates/adts/src/snapshot.rs", "impl DurableObject for Object<A> {}"),
        ("crates/core/src/runtime/horizon.rs", "pub struct HorizonPins;"),
        (
            "crates/db/src/db.rs",
            "self.mgr.begin_no_wait();\nreplay_object_ops(o);\nobj.restore(data);\n\
             self.mgr.checkpoint(&open);",
        ),
        ("crates/db/src/read.rs", "pub struct ReadTx;"),
        ("crates/relations/src/relation.rs", "self.atoms.contains(&atom)"),
        ("crates/repl/src/follower.rs", "pub struct Follower;"),
        ("crates/server/src/exec.rs", "db.try_transact_ts(f);"),
        ("crates/storage/src/store.rs", "impl RedoSink for DurableStore {}"),
        ("crates/storage/src/tail.rs", "pub struct Tailer;"),
        ("crates/storage/src/wal.rs", "pub enum Durability {}\nfn rotate_locked() {}"),
        ("crates/txn/src/manager.rs", "TxnHandle::no_wait(id);\nregistry::replay_object_ops(o);"),
        ("crates/txn/src/registry.rs", "pub fn replay_object_ops(o: &O) {}"),
        ("crates/wire/src/conn.rs", "pub struct RecvHalf;\nlet s: TcpStream = connect();"),
        ("crates/workload/src/inventory.rs", "struct InventorySpec;\nstruct InventoryDef;"),
        ("examples/demo.rs", "fn main() {}\nclient.attach_read_replica(addr, opts);"),
        ("tests/replica.rs", "follower.attach_replica(addr);\nlet db = Db::in_memory();"),
        ("crates/check/tests/live_deadlock.rs", "let mgr = TxnManager::new();"),
        ("src/lib.rs", "pub use hcc_db::Db;"),
        ("tests/recovery.rs", "store.log_op(1, \"acct\", b\"op\");\nobj.restore(data);"),
    ];

    /// One violation per needle of every rule and census, and per CI
    /// check, each appended to a file of the clean tree (or a new one).
    /// Deleting any row or needle from the tables leaves a plant
    /// unflagged.
    const PLANTS: &[(&str, &str)] = &[
        ("crates/txn/src/lib.rs", "store.log_op(1, \"acct\", b\"op\");"),
        ("crates/storage/src/store.rs", "self.log_op(1, \"acct\", b\"op\");"),
        ("crates/adts/src/snapshot.rs", "self.inner().execute(tx, op);"),
        ("crates/adts/src/snapshot.rs", "self.inner().try_execute(tx, op);"),
        ("crates/adts/src/snapshot.rs", "locks.attempt(tx, op);"),
        ("crates/db/src/read.rs", "obj.execute(tx, op);"),
        ("crates/core/src/runtime/horizon.rs", "obj.try_execute(tx, op);"),
        ("crates/db/src/read.rs", "locks.attempt(tx, op);"),
        ("crates/repl/src/follower.rs", "obj.execute(tx, op);"),
        ("crates/repl/src/follower.rs", "obj.try_execute(tx, op);"),
        ("crates/repl/src/follower.rs", "locks.attempt(tx, op);"),
        ("tests/net.rs", "let s = std::net::TcpStream::connect(addr);"),
        ("crates/server/src/listen.rs", "let l = std::net::TcpListener::bind(addr);"),
        ("crates/wire/src/conn.rs", "self.sock.read_exact(&mut buf)?;"),
        ("crates/wire/src/conn.rs", "read_full(&mut self.sock, &mut buf)?;"),
        ("crates/storage/src/tail.rs", "let bytes = fs::read(&path)?;"),
        ("crates/storage/src/tail.rs", "for seg in list_segments(dir) {}"),
        ("crates/workload/src/sim.rs", "registry::replay_object_ops(o);"),
        ("crates/txn/src/manager.rs", "obj.restore(data);"),
        ("crates/storage/src/store.rs", "fn rotate(&self) {}"),
        ("src/lib.rs", "pub const GAP: u64 = gap_patience();"),
        ("src/lib.rs", "pub struct TailOptions;"),
        ("src/lib.rs", "m.gaps_skipped.inc();"),
        ("src/lib.rs", "let poll_interval = 5;"),
        ("src/lib.rs", "pub trait PositionSampler {}"),
        ("examples/demo.rs", "struct SiteWal;"),
        ("examples/demo.rs", "let ops_unlogged = 0;"),
        ("examples/demo.rs", "tx.begin_unlogged();"),
        ("examples/demo.rs", "struct PendingOps;"),
        ("examples/demo.rs", "fn record_op() {}"),
        ("examples/demo.rs", "self.log.stash(op);"),
        ("tests/recovery.rs", "let d = Durability::None;"),
        ("tests/recovery.rs", "\"none\" => None,"),
        ("tests/recovery.rs", "opts.with_durability(d);"),
        ("tests/recovery.rs", "builder.no_lock_timeout();"),
        ("tests/recovery.rs", "struct GrowthSize;"),
        ("tests/recovery.rs", "let growth_size = 2;"),
        ("tests/recovery.rs", "policy.with_min_records(3);"),
        ("crates/adts/src/account.rs", "impl Snapshot for AccountObject {}"),
        ("crates/adts/src/account.rs", "impl hcc_storage::DurableObject for AccountObject {}"),
        ("tests/inventory.rs", "struct InventorySpec;"),
        ("examples/demo.rs", "struct InventoryDef;"),
        ("crates/txn/src/sink.rs", "impl RedoSink for Stash {}"),
        ("crates/db/src/options.rs", "pub enum Durability {}"),
        ("crates/db/src/db.rs", "TxnHandle::no_wait(id);"),
        ("crates/server/src/exec.rs", "self.mgr.begin_no_wait();"),
        ("crates/db/src/db.rs", "db.try_transact_ts(f);"),
        ("crates/verify/src/conflict.rs", "pub struct DerivedConflict;"),
        ("tests/oracle.rs", "let c = FnConflict::new(\"none\", f);"),
        ("crates/verify/src/conflict.rs", "pub struct ReadWriteConflict;"),
        ("tests/oracle.rs", "Arc::new(NoConflict)"),
        ("crates/verify/src/lib.rs", "pub trait ConflictRelation {}"),
        ("examples/demo.rs", "let t = ConflictTable::new(\"t\", classify);"),
        ("crates/relations/src/tables.rs", "pub struct RelationTable;"),
        ("crates/relations/src/tables.rs", "pub enum CellCond {}"),
        ("src/lib.rs", "let rel = atoms_to_instance_relation(&alpha, f, &atoms);"),
        ("crates/core/src/runtime/spec_adt.rs", "self.atoms.contains(&atom)"),
        ("crates/db/src/db.rs", "pending: Mutex<PendingRecovery>,"),
        ("crates/db/src/db.rs", "let objects = registry.snapshot_refs();"),
        ("crates/db/src/db.rs", "self.mark_absorbed_if_drained();"),
        ("tests/recovery.rs", "use hcc_txn::registry::Registry;"),
        ("crates/txn/src/manager.rs", "obj.pin_horizon(cursor.last_ts);"),
        ("crates/core/src/runtime/object.rs", "pub fn unpin_horizon(&self) {}"),
        ("tests/recovery.rs", "let image = o.committed_snapshot_at(w);"),
        ("crates/storage/src/store.rs", "impl Snapshot for Cell {}"),
        ("crates/workload/src/crash.rs", "let acct = db.attach(Arc::new(custom))?;"),
        ("crates/db/src/error.rs", "PoisonedRecovery { object: String },"),
        ("tests/recovery.rs", "let db = Db::builder().storage_options(opts).open(dir)?;"),
        ("crates/repl/src/follower.rs", "let (records, _) = log.take_open_image().unwrap();"),
        ("crates/db/src/db.rs", "let recovered = store.take_recovered()?;"),
        ("crates/storage/src/store.rs", "self.release_image_on_append();"),
        ("tests/recovery.rs", "store.log_begin(1).unwrap();"),
        ("examples/demo.rs", "let mgr = TxnManager::new();"),
        ("tests/recovery.rs", "let mgr = TxnManager::with_storage(store);"),
        ("crates/workload/src/scheme.rs", "let mut opts = mgr.object_options();"),
        ("crates/check/tests/deadlock.rs", "let q = QueueObject::with_options(\"q\", opts);"),
        ("crates/workload/src/scheme.rs", "AccountObject::with(name, locks, opts)"),
        ("tests/read_path.rs", "let restored = AccountObject::hybrid(name);"),
        ("examples/demo.rs", "let opts = RuntimeOptions::default().with_redo(store);"),
        ("tests/recovery.rs", "let ckpt = mgr.checkpoint(&[&a])?;"),
        (CI, "      durability: [none, buffered, fsync]"),
        (CI, "        if: matrix.durability == 'fsync'"),
        // A production line after an indented test hook still counts.
        ("crates/storage/src/wal.rs", "    #[cfg(test)]\n    faults: u8,\nx.restore(y);"),
    ];

    /// Lint the clean tree with each `(file, text)` of `extra` appended.
    fn lint_with(extra: &[(&str, &str)]) -> Vec<String> {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!("repolint-{}-{n}", std::process::id()));
        for (rel, text) in CLEAN.iter().chain(extra) {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            let old = fs::read_to_string(&path).unwrap_or_default();
            fs::write(&path, format!("{old}{text}\n")).unwrap();
        }
        let (_, findings) = lint(&root);
        fs::remove_dir_all(&root).unwrap();
        findings
    }

    #[test]
    fn the_clean_tree_lints_clean() {
        assert_eq!(lint_with(&[]), Vec::<String>::new());
    }

    #[test]
    fn every_planted_violation_is_flagged() {
        let missed: Vec<_> = PLANTS
            .iter()
            .filter(|plant| !lint_with(&[**plant]).iter().any(|f| f.contains(plant.0)))
            .collect();
        assert!(missed.is_empty(), "unflagged plants: {missed:?}");
    }

    #[test]
    fn production_text_ends_at_the_top_level_test_module() {
        let text = "struct Wal {\n    #[cfg(test)]\n    faults: u8,\n}\nfn f() {}\n#[cfg(test)]\nmod tests {}";
        assert!(production(text).ends_with("fn f() {}\n"));
        let tests = "#[cfg(test)]\nmod tests {\n    fn t() { store.log_op(1); obj.restore(d); }\n}";
        assert_eq!(lint_with(&[("crates/txn/src/lib.rs", tests)]), Vec::<String>::new());
    }

    #[test]
    fn a_scope_that_names_no_file_is_flagged() {
        let root = std::env::temp_dir().join(format!("repolint-{}-empty", std::process::id()));
        fs::create_dir_all(&root).unwrap();
        let (_, findings) = lint(&root);
        fs::remove_dir_all(&root).unwrap();
        assert!(findings.iter().any(|f| f.starts_with("crates/db/src/read.rs: no file")));
        assert!(findings.iter().any(|f| f.starts_with(".github/workflows/ci.yml: missing")));
    }

    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    #[test]
    fn the_repository_lints_clean() {
        let (files, findings) = lint(&repo_root());
        assert!(files > 100, "read only {files} files");
        assert_eq!(findings, Vec::<String>::new());
    }

    /// The tables as the markdown list `docs/CHECKING.md` carries.
    fn table_as_markdown() -> String {
        let quote = |items: Vec<&str>| items.iter().map(|i| format!("`{i}`")).collect::<Vec<_>>();
        let scope = |s: &Scope| {
            let place: String = [(" in", s.within), (" outside", s.except)]
                .into_iter()
                .filter(|(_, prefixes)| !prefixes.is_empty())
                .map(|(word, prefixes)| format!("{word} {}", quote(prefixes.to_vec()).join(", ")))
                .collect();
            match s.production {
                true if place.is_empty() => "all production code".to_string(),
                true => format!("production code{place}"),
                false => format!("files{place}"),
            }
        };
        let rules = RULES.iter().map(|r| {
            let needles = quote(r.needles.split('|').collect()).join(", ");
            format!("* {needles} — banned from {}: {}.\n", scope(&r.scope), r.why)
        });
        let censuses = CENSUSES.iter().map(|c| {
            let needles = quote(c.needles.split('|').collect()).join(", ");
            format!("* {needles} — once among {}, under `{}`.\n", scope(&c.scope), c.home)
        });
        rules.chain(censuses).collect()
    }

    #[test]
    fn checking_md_lists_every_row() {
        let doc = fs::read_to_string(repo_root().join("docs/CHECKING.md")).unwrap();
        let list = table_as_markdown();
        assert!(doc.contains(&list), "docs/CHECKING.md's repolint list should read:\n{list}");
    }
}
