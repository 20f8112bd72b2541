//! `repolint` — repository-convention lints that grep-level review
//! keeps missing, run from the repo root (CI invokes it there).
//!
//! 1. **WAL discipline**: direct `log_op` method calls appear only
//!    inside `crates/storage` — every other layer logs through the
//!    runtime's self-logging path, so a stray direct append bypasses
//!    ticketing, durability policy, and recovery accounting. Only tests
//!    (`tests/`, `crates/*/tests/`) may hand-craft WAL records (torn
//!    tails, divergent logs); no production file is exempt.
//! 2. **One object layer**: the type-independent half of an object is
//!    written once, for `Object<A>`. Outside `#[cfg(test)]`,
//!    `crates/adts/src` holds exactly one `impl … Snapshot for` and one
//!    `impl … DurableObject for`, and `crates/db/src` exactly one
//!    `impl … DbObject for` and one `impl … ReadObject for` — a per-type
//!    wrapper cannot grow back. The file holding that one `fn restore`
//!    contains none of the lock-acquisition needles of ratchets 3 and 5:
//!    a checkpoint image is *installed*, never re-executed as synthetic
//!    operations (the second apply path ratchet 5 bans from replication).
//! 3. **Read-path lock freedom**: the wait-free read path
//!    (`crates/db/src/read.rs`, `crates/core/src/runtime/horizon.rs`)
//!    must exist and must never call into the transactional execution
//!    machinery — no operation execution, no lock attempts. The
//!    "zero lock acquisitions" guarantee is load-bearing API doc; this
//!    ratchet keeps a future refactor from quietly routing reads back
//!    through the lock manager.
//! 4. **Socket discipline**: the standard library's raw TCP
//!    stream/listener types appear only inside `crates/wire` — every
//!    other crate speaks through the wire crate's framed connection
//!    types, so CRC framing, payload bounds, and clean-vs-torn EOF
//!    classification cannot be bypassed by a second ad-hoc socket
//!    path.
//! 5. **Replication discipline**: `crates/repl` has *no second apply
//!    path* — a follower replays commits through the recovery path's
//!    pinned responses (`apply_replicated`), never by re-executing
//!    operations against the lock manager. The same lock-acquisition
//!    needles the read-path ratchet bans must not appear in the repl
//!    crate's sources, so a future "optimization" cannot quietly turn
//!    replay into re-execution (which would re-take locks, re-run
//!    nondeterministic choices, and diverge from the primary).
//! 6. **No slice polling**: a blocked lock request is woken by events
//!    — a completion at its object, a doom — and by nothing else. The
//!    knob the old polling loop re-checked on (its name is the needle)
//!    appears nowhere under `crates/` or `tests/`, so a timed re-check
//!    cannot grow back under the same name.
//! 7. **Retired first generation**: `benchmark/` is the one harness,
//!    `hcc-storage` the one log, self-logging the one discipline. No
//!    `Cargo.toml` outside `benchmark/` names the criterion bench crate
//!    (as a whole word: the benchmark package's name merely starts with
//!    it) or its stand-in, and no `.rs` file under `crates/`, `src/`,
//!    `tests/` or `examples/` names the line-JSON log's record type, the
//!    manual logging discipline or the deprecated checkpoint-gate
//!    accessor.
//! 8. **One segment writer**: `crates/storage/src/wal.rs` is the only
//!    production code that creates or appends to a `seg-*.wal` file.
//!    Outside `#[cfg(test)]`, no other file pairs the segment-path
//!    helper with an append-mode open or defines a segment rotation,
//!    and the follower's retired private log writer
//!    (`crates/storage/src/replica.rs`) does not exist — a replica's log
//!    is the WAL's own writer fed raw frames.
//! 9. **One replay caller**: `hcc-db` is the only recovery front end.
//!    Outside tests, the one replay step is called only from
//!    `crates/db/src/db.rs` and `TxnManager::apply_replicated`
//!    (`crates/txn/src/manager.rs`), a checkpoint image is restored into
//!    a live object only from `crates/db/src/db.rs`, and the names of
//!    the retired eager registry replay, the sim's private site
//!    recovery, the registry-flavoured checkpoint calls and the raw-API
//!    workload switch appear nowhere under `crates/`, `src/`, `tests/`
//!    or `examples/`.
//! 10. **One log stream**: the WAL is a single append stream. The
//!     retired stream-count knob — its option/builder identifier, its
//!     environment variable and its routing helpers' prefix — appears
//!     nowhere under `crates/`, `src/`, `tests/` or `examples/`; what
//!     remains of the word is the `stripe-00` directory constant and
//!     `StorageError`'s refusal of a multi-stream directory, neither of
//!     which spells a needle.
//! 11. **Workload diet**: `benchmark/` measures, and `hcc-workload`
//!     keeps only what a test, CI job or example runs. The retired
//!     durable/read-heavy/defined-flavour throughput drivers, the
//!     hand-written JSON redo decoder and the experiment table renderer
//!     appear nowhere under `crates/`, `src/`, `tests/` or `examples/`;
//!     and the inventory ADT is defined once — its serial specification
//!     struct and its `define_adt!` definition struct each appear exactly
//!     once under `crates/`, `examples/` and `tests/`, so the type
//!     `adtcheck` audits is the type the example runs.
//! 12. **One buffered receive**: a frame is parsed out of the receive
//!     buffer `RecvHalf` owns — one `read` per frame or burst, and a
//!     partial frame survives a read timeout. Outside `#[cfg(test)]`,
//!     `crates/wire/src` calls no exact-length read and defines no
//!     fill-this-slice helper (the retired one's name is the needle):
//!     either would read a frame in pieces again, and lose the pieces
//!     already read when a timeout cuts it short.
//! 13. **No tailer guessing**: the replication tailer moves past a
//!     ticket only on what the live log states — on file, void, or
//!     settled — never on patience. The retired guesswork's names (the
//!     patience knob, its options type, its skip counter, the shipper's
//!     polling interval, the caller-supplied position sampler) appear
//!     nowhere under `crates/`, `src/`, `tests/` or `examples/`, and
//!     outside `#[cfg(test)]` `crates/storage/src/tail.rs` neither
//!     re-reads a whole file nor lists the segment directory: it reads
//!     from its cursor and asks the log for the rest.
//! 14. **One redo sink**: the durable store is the only place an
//!     object's redo record goes, and a record the log loses dooms its
//!     transaction. Outside `#[cfg(test)]` and test-only files there is
//!     exactly one `impl RedoSink for`, under `crates/storage/`; the
//!     retired second sink, its poison flag's owner, the manager's two
//!     retry stashes, their payload type, the one-shot sink helper and
//!     the stash's flight event appear nowhere under `crates/`, `src/`,
//!     `tests/` or `examples/`.
//! 15. **Every durability level is durable**: an acknowledged commit
//!     survives a process crash at every level, so there is no level
//!     below `Buffered`. The retired level, its environment override
//!     arm, the runtime options' durability setter, `DbBuilder`'s
//!     wait-forever lock switch and the compaction modes and policy
//!     builders nothing selected appear nowhere under `crates/`, `src/`,
//!     `tests/` or `examples/`; the durability enum is defined exactly
//!     once, under `crates/storage/` (the one crate that acts on it); and
//!     the CI recovery matrix lists no `none` cell and gates no step on
//!     the level.
//! 16. **No-wait stays at the front door**: a transaction that gives up
//!     instead of waiting is the server's inline fast path, which has the
//!     worker pool to fall back on; anywhere else it would turn a lock
//!     wait into a failure. Outside tests each step of that path has
//!     exactly one call site: the no-wait handle constructor in
//!     `TxnManager::begin_no_wait` (`crates/txn/src/manager.rs`), that in
//!     `Db::try_transact_ts` (`crates/db/src/db.rs`), and that in
//!     `crates/server/src`.
//!
//! Exit status 1 on any finding, listing file and line.

use std::path::{Path, PathBuf};

/// Every `.rs` file and every `Cargo.toml` under `root`.
fn linted_files(root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(root) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            linted_files(&path, out);
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
}

/// Does `line` contain `word` not followed by another name character?
fn names_whole_word(line: &str, word: &str) -> bool {
    line.match_indices(word).any(|(at, _)| {
        !line[at + word.len()..]
            .starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    })
}

fn main() {
    let root = std::env::current_dir().expect("cwd");
    if !root.join("Cargo.toml").exists() {
        eprintln!("repolint: run from the repository root");
        std::process::exit(2);
    }
    let mut files = Vec::new();
    linted_files(&root, &mut files);
    files.sort();

    // Assembled so this linter's own source does not contain its needle.
    let log_op_call = [".log", "_op("].concat();
    let raw_sockets = [["Tcp", "Stream"].concat(), ["Tcp", "Listener"].concat()];
    // Every way code reaches the lock manager: executing an operation
    // (`.execute(` / `try_execute`) or testing a lock directly
    // (`attempt(`). Shared by the read-path ratchet (3) and the
    // replication no-second-apply-path ratchet (5).
    let lock_needles =
        [[".exec", "ute("].concat(), ["try_", "execute"].concat(), ["atte", "mpt("].concat()];
    let slice_knob = ["wait", "_slice"].concat();
    let retired_crate = ["hcc-", "bench"].concat();
    let retired_standin = ["crit", "erion"].concat();
    let first_generation = "the first-generation log and logging discipline";
    let second_front_end = "the second recovery front end — hcc-db recovers, and nothing else";
    let one_stream = "WAL striping — the log is one append stream";
    let workload_diet = "the workload diet — benchmark/ is the instrument";
    let no_guessing = "tailer guessing — the shipper asks the log";
    let one_sink = "the retry stashes — the store is the one redo sink";
    let every_level = "the settings nothing chose — every durability level is durable";
    let retired_items = [
        (["Log", "Discipline"].concat(), first_generation),
        (["Wal", "Record"].concat(), first_generation),
        (["last_checkpoint_", "gate_nanos"].concat(), first_generation),
        (["restore_and", "_replay"].concat(), second_front_end),
        (["replay", "_txn"].concat(), second_front_end),
        (["recover", "_site"].concat(), second_front_end),
        (["checkpoint", "_registry"].concat(), second_front_end),
        (["Mix", "Api"].concat(), second_front_end),
        (["strip", "es"].concat(), one_stream),
        (["HCC_WAL_", "STRIPES"].concat(), one_stream),
        (["stripe_", "for_"].concat(), one_stream),
        (["durable_", "account_mix"].concat(), workload_diet),
        (["read_heavy", "_mix"].concat(), workload_diet),
        (["defined_", "adt_mix"].concat(), workload_diet),
        (["effect_from", "_json"].concat(), workload_diet),
        (["Metrics", "::row"].concat(), workload_diet),
        (["gap_", "patience"].concat(), no_guessing),
        (["Tail", "Options"].concat(), no_guessing),
        (["gaps_", "skipped"].concat(), no_guessing),
        (["poll_", "interval"].concat(), no_guessing),
        (["Position", "Sampler"].concat(), no_guessing),
        (["Site", "Wal"].concat(), one_sink),
        (["ops_", "unlogged"].concat(), one_sink),
        (["begin_", "unlogged"].concat(), one_sink),
        (["Pending", "Ops"].concat(), one_sink),
        (["record", "_op"].concat(), one_sink),
        (["log", ".stash"].concat(), one_sink),
        (["Durability", "::None"].concat(), every_level),
        (["\"no", "ne\" =>"].concat(), every_level),
        (["with_", "durability"].concat(), every_level),
        (["no_lock_", "timeout"].concat(), every_level),
        (["Growth", "Size"].concat(), every_level),
        (["growth", "_size"].concat(), every_level),
        (["with_min", "_records"].concat(), every_level),
    ];
    // Ratchet 11's census: one inventory specification, one definition.
    let mut inventory_sites =
        [["struct Inventory", "Spec"].concat(), ["struct Inventory", "Def"].concat()]
            .map(|needle| (needle, Vec::new()));

    // Ratchet 8: what writing a segment file takes.
    let segment_path_call = ["segment", "_path("].concat();
    let append_open = [".app", "end(true)"].concat();
    let rotate_fn = ["fn rot", "ate"].concat();
    let segment_writer = "crates/storage/src/wal.rs";
    let retired_writer = "crates/storage/src/replica.rs";
    // Ratchet 9: the one replay step, the one restore, and who may call.
    let replay_call = ["replay_obj", "ect_ops("].concat();
    let replay_def = ["fn ", &replay_call].concat();
    let restore_call = [".rest", "ore("].concat();
    let recovery_front_end = "crates/db/src/db.rs";
    let replicated_apply = "crates/txn/src/manager.rs";
    // Ratchet 12: the receive paths a buffered frame reader replaced.
    let piecewise_reads = [["read_", "exact"].concat(), ["read_", "full"].concat()];
    // Ratchet 13: how the tailer used to find out what the log held.
    let tailer = "crates/storage/src/tail.rs";
    let tailer_rescans = [["fs::", "read("].concat(), ["list_", "segments"].concat()];

    // Test-only files: the standing exception for tests that hand-craft
    // WAL records on purpose (ratchet 1), and outside ratchets 8 and 9's
    // production rules.
    let log_op_allowed = |rel: &str| rel.starts_with("tests/") || rel.contains("/tests/");

    // Ratchet 14's census: every production `impl … RedoSink for`.
    let sink_impl = ["RedoSink", " for"].concat();
    let sink_home = "crates/storage/";
    let mut sink_impls = Vec::new();

    // Ratchet 15: where the durability enum lives, and the CI matrix.
    let durability_enum = ["enum Dura", "bility"].concat();
    let durability_home = "crates/storage/";
    let mut durability_enums = Vec::new();
    let ci = ".github/workflows/ci.yml";

    // Ratchet 16's census: each step of the no-wait path, where its one
    // call site must be, and the sites found.
    let mut no_wait_calls = [
        (["TxnHandle::no", "_wait("].concat(), "crates/txn/src/manager.rs", Vec::new()),
        ([".begin_no", "_wait("].concat(), "crates/db/src/db.rs", Vec::new()),
        ([".try_transact", "_ts("].concat(), "crates/server/src/", Vec::new()),
    ];

    // Ratchet 2's census: trait → production impl sites, per directory.
    let mut object_layer = [
        ("crates/adts/src/", [("Snapshot", Vec::new()), ("DurableObject", Vec::new())]),
        ("crates/db/src/", [("DbObject", Vec::new()), ("ReadObject", Vec::new())]),
    ];

    let mut findings = Vec::new();
    for path in &files {
        let Ok(text) = std::fs::read_to_string(path) else { continue };
        let rel = path.strip_prefix(&root).unwrap_or(path);
        let rel_s = rel.to_string_lossy().replace('\\', "/");

        if rel_s.ends_with("Cargo.toml") {
            if !rel_s.starts_with("benchmark/") {
                for (i, line) in text.lines().enumerate() {
                    if names_whole_word(line, &retired_crate) || line.contains(&retired_standin) {
                        findings.push(format!(
                            "{rel_s}:{}: names the retired bench crate or its {retired_standin} \
                             stand-in — benchmark/ is the one harness",
                            i + 1
                        ));
                    }
                }
            }
            continue;
        }

        if ["crates/", "src/", "tests/", "examples/"].iter().any(|dir| rel_s.starts_with(dir)) {
            for (i, line) in text.lines().enumerate() {
                for (needle, with) in &retired_items {
                    if line.contains(needle.as_str()) {
                        findings
                            .push(format!("{rel_s}:{}: `{needle}` was retired with {with}", i + 1));
                    }
                }
                if names_whole_word(line, &durability_enum) {
                    durability_enums.push(format!("{rel_s}:{}", i + 1));
                }
            }
        }

        if ["crates/", "examples/", "tests/"].iter().any(|dir| rel_s.starts_with(dir)) {
            for (needle, sites) in &mut inventory_sites {
                for (i, line) in text.lines().enumerate() {
                    if names_whole_word(line, needle) {
                        sites.push(format!("{rel_s}:{}", i + 1));
                    }
                }
            }
        }

        if !rel_s.starts_with("crates/storage/") && !log_op_allowed(&rel_s) {
            for (i, line) in text.lines().enumerate() {
                if line.contains(&log_op_call) {
                    findings.push(format!(
                        "{rel_s}:{}: direct WAL append `{log_op_call}` outside crates/storage",
                        i + 1
                    ));
                }
            }
        }

        if rel_s.starts_with("crates/") || rel_s.starts_with("tests/") {
            for (i, line) in text.lines().enumerate() {
                if line.contains(&slice_knob) {
                    findings.push(format!(
                        "{rel_s}:{}: `{slice_knob}` — lock waits are event-driven; there is \
                         no slice to poll on",
                        i + 1
                    ));
                }
            }
        }

        if !rel_s.starts_with("crates/wire/") {
            for (i, line) in text.lines().enumerate() {
                for needle in &raw_sockets {
                    if line.contains(needle.as_str()) {
                        findings.push(format!(
                            "{rel_s}:{}: raw socket type `{needle}` outside crates/wire \
                             (use the framed hcc-wire connection instead)",
                            i + 1
                        ));
                    }
                }
            }
        }

        if rel_s.starts_with("crates/repl/src/") {
            for (i, line) in text.lines().enumerate() {
                for needle in &lock_needles {
                    if line.contains(needle.as_str()) {
                        findings.push(format!(
                            "{rel_s}:{}: lock-acquisition/execution call `{needle}` in the \
                             replication crate — followers replay through apply_replicated's \
                             pinned responses, never a second apply path",
                            i + 1
                        ));
                    }
                }
            }
        }

        // Production text: everything before the file's test module.
        let production = text.split("#[cfg(test)]").next().unwrap_or("");

        if rel_s.starts_with("crates/wire/src/") {
            for (i, line) in production.lines().enumerate() {
                for needle in &piecewise_reads {
                    if line.contains(needle.as_str()) {
                        findings.push(format!(
                            "{rel_s}:{}: `{needle}` — frames are parsed out of RecvHalf's \
                             receive buffer (one read per frame or burst), never read in pieces",
                            i + 1
                        ));
                    }
                }
            }
        }

        if rel_s == tailer {
            for (i, line) in production.lines().enumerate() {
                for needle in &tailer_rescans {
                    if line.contains(needle.as_str()) {
                        findings.push(format!(
                            "{rel_s}:{}: `{needle}` — the tailer reads from its cursor and asks \
                             the live log for the rest",
                            i + 1
                        ));
                    }
                }
            }
        }

        if !log_op_allowed(&rel_s) {
            if rel_s != segment_writer {
                if production.contains(&segment_path_call) && production.contains(&append_open) {
                    findings.push(format!(
                        "{rel_s}: pairs `{segment_path_call}` with an append-mode open — \
                         {segment_writer} is the one segment writer"
                    ));
                }
                for (i, line) in production.lines().enumerate() {
                    if line.contains(&rotate_fn) {
                        findings.push(format!(
                            "{rel_s}:{}: a segment rotation outside {segment_writer}, the one \
                             segment writer",
                            i + 1
                        ));
                    }
                }
            }
            for (i, line) in production.lines().enumerate() {
                let replays = line.contains(&replay_call) && !line.contains(&replay_def);
                if replays && rel_s != recovery_front_end && rel_s != replicated_apply {
                    findings.push(format!(
                        "{rel_s}:{}: `{replay_call}` is called only by hcc-db's materialization \
                         and TxnManager::apply_replicated",
                        i + 1
                    ));
                }
                if line.contains(&restore_call) && rel_s != recovery_front_end {
                    findings.push(format!(
                        "{rel_s}:{}: `{restore_call}` — a checkpoint image is restored into a \
                         live object only from {recovery_front_end}",
                        i + 1
                    ));
                }
            }
        }
        if !log_op_allowed(&rel_s) {
            for (i, line) in production.lines().enumerate() {
                if line.trim_start().starts_with("impl") && line.contains(&sink_impl) {
                    sink_impls.push(format!("{rel_s}:{}", i + 1));
                }
                for (needle, _, sites) in &mut no_wait_calls {
                    if line.contains(needle.as_str()) {
                        sites.push(format!("{rel_s}:{}", i + 1));
                    }
                }
            }
        }
        for (dir, layer) in &mut object_layer {
            if !rel_s.starts_with(*dir) {
                continue;
            }
            for (tr, sites) in layer.iter_mut() {
                // The trait named bare or by path (`hcc_storage::Snapshot`),
                // but not as the tail of a longer name.
                let needle = format!("{tr} for ");
                let names_trait = |line: &str| {
                    line.match_indices(&needle).any(|(at, _)| {
                        !line[..at].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
                    })
                };
                for (i, line) in production.lines().enumerate() {
                    if line.trim_start().starts_with("impl") && names_trait(line) {
                        sites.push(format!("{rel_s}:{}", i + 1));
                    }
                }
            }
        }
        if rel_s.starts_with("crates/adts/src/") && production.contains("fn restore") {
            for (i, line) in production.lines().enumerate() {
                for needle in &lock_needles {
                    if line.contains(needle.as_str()) {
                        findings.push(format!(
                            "{rel_s}:{}: lock-acquisition/execution call `{needle}` in the file \
                             that restores checkpoints — an image is installed, never \
                             re-executed",
                            i + 1
                        ));
                    }
                }
            }
        }
    }

    for (dir, layer) in &object_layer {
        for (tr, sites) in layer {
            if sites.len() != 1 {
                findings.push(format!(
                    "{dir}: {} production `impl … {tr} for` (want exactly one, for Object<A>): {}",
                    sites.len(),
                    sites.join(", ")
                ));
            }
        }
    }

    if sink_impls.len() != 1 || !sink_impls[0].starts_with(sink_home) {
        findings.push(format!(
            "{} production `impl … {sink_impl}` (want exactly one, under {sink_home}: the store \
             is the one redo sink): {}",
            sink_impls.len(),
            sink_impls.join(", ")
        ));
    }

    for (needle, caller, sites) in &no_wait_calls {
        if sites.len() != 1 || !sites[0].starts_with(caller) {
            findings.push(format!(
                "`{needle}` called from {} production sites (want exactly one, in {caller}: a \
                 no-wait attempt is the server's inline fast path, and only the server falls back \
                 from it): {}",
                sites.len(),
                sites.join(", ")
            ));
        }
    }

    for (needle, sites) in &inventory_sites {
        if sites.len() != 1 {
            findings.push(format!(
                "`{needle}` appears {} times (want exactly one, in crates/workload/src/inventory.rs): {}",
                sites.len(),
                sites.join(", ")
            ));
        }
    }

    if durability_enums.len() != 1 || !durability_enums[0].starts_with(durability_home) {
        findings.push(format!(
            "`{durability_enum}` defined {} times (want exactly one, under {durability_home}): {}",
            durability_enums.len(),
            durability_enums.join(", ")
        ));
    }

    let ci_text = std::fs::read_to_string(root.join(ci)).unwrap_or_default();
    for (i, line) in ci_text.lines().map(str::trim_start).enumerate() {
        let none_cell = line.starts_with("durability: [") && line.contains("none");
        if none_cell || (line.starts_with("if:") && line.contains("matrix.durability")) {
            findings.push(format!(
                "{ci}:{}: `{line}` — the recovery matrix has two cells, and every step runs in both",
                i + 1
            ));
        }
    }

    if root.join(retired_writer).exists() {
        findings.push(format!(
            "{retired_writer}: the follower's private log writer is back — a replica's log is \
             {segment_writer}'s writer fed raw frames"
        ));
    }

    // The read path's lock-freedom ratchet: the read path clones
    // committed snapshots under the object latch and must never grow a
    // lock-acquisition call.
    let read_path_files = ["crates/db/src/read.rs", "crates/core/src/runtime/horizon.rs"];
    for rel_s in read_path_files {
        let Ok(text) = std::fs::read_to_string(root.join(rel_s)) else {
            findings.push(format!("{rel_s}: wait-free read path file is missing"));
            continue;
        };
        for (i, line) in text.lines().enumerate() {
            for needle in &lock_needles {
                if line.contains(needle.as_str()) {
                    findings.push(format!(
                        "{rel_s}:{}: lock-acquisition call `{needle}` on the wait-free read path",
                        i + 1
                    ));
                }
            }
        }
    }

    if findings.is_empty() {
        println!("repolint: {} files clean", files.len());
    } else {
        for f in &findings {
            eprintln!("repolint: {f}");
        }
        std::process::exit(1);
    }
}
