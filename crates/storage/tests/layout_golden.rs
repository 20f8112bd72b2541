//! Pin of the store's on-disk layout and bytes at default options.
//!
//! The log became one append stream; the directory it lives in, the
//! frames it writes and the checkpoint file did not change. This test
//! drives a fixed script — a registration, two transactions, a
//! checkpoint, one more commit — and holds what lands on disk against
//! literals captured from the build **before** that change (commit
//! 601d196, where the same script ran at its default of one stripe), so
//! every default-options directory in existence keeps reopening. It
//! sits beside `framing_golden.rs`, which pins the frame envelope alone.

use hcc_storage::{DurableStore, SegmentedWal, StorageOptions, WalOptions};
use std::path::{Path, PathBuf};

/// The script as the old build ran it. Transactions no longer write
/// Begin records, so each one here comes from the log itself, opened
/// between two store sessions: every open resumes the ticket counter
/// where the last one stopped, so the file is the one a single session
/// wrote.
fn script(dir: &Path) {
    let store = || DurableStore::open(dir, StorageOptions::default()).unwrap().0;
    let begin =
        |txn| SegmentedWal::open(dir, WalOptions::default()).unwrap().append_begin(txn).unwrap();
    store().object_id("cell").unwrap();
    begin(1);
    let s = store();
    s.log_op(1, "cell", b"one").unwrap();
    s.log_commit(1, 1).unwrap();
    drop(s);
    begin(2);
    let s = store();
    s.log_op(2, "cell", b"two").unwrap();
    s.log_op(2, "other", b"three").unwrap();
    s.log_commit(2, 2).unwrap();
    s.mark_state_absorbed();
    let cursor = s.checkpoint_begin().unwrap();
    s.checkpoint_finish(&cursor, vec![("cell".into(), b"image-at-2".to_vec())]).unwrap();
    drop(s);
    begin(3);
    let s = store();
    s.log_op(3, "other", b"four").unwrap();
    s.log_commit(3, 3).unwrap();
}

/// Every path under `root`, relative, directories included, sorted.
fn tree(root: &Path) -> Vec<String> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            out.push(path.strip_prefix(root).unwrap().to_string_lossy().replace('\\', "/"));
            if path.is_dir() {
                walk(root, &path, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.sort();
    out
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn literal(hex: &str) -> String {
    hex.chars().filter(|c| !c.is_whitespace()).collect()
}

const CHECKPOINT: &str = "ckpt-00000000000000000002.ckpt";
const FIRST_SEGMENT: &str = "stripe-00/seg-00000001.wal";

const CHECKPOINT_HEX: &str = "\
    4843434b505430336300000082d0484202000000000000000a00000000000000 \
    0900000000000000010000000100000000000000010000000400000063656c6c \
    0a000000696d6167652d61742d32020000000100000000000000040000006365 \
    6c6c0200000000000000050000006f74686572";

const FIRST_SEGMENT_HEX: &str = "\
    1100000098b50b7801000000000000000501000000000000000400000063656c \
    6c09000000a77502c60200000000000000010100000000000000180000005fe5 \
    639f03000000000000000201000000000000000100000000000000030000006f \
    6e651d00000083c8fd1004000000000000000301000000000000000100000000 \
    000000010000000000000000000000090000000f0e1f68050000000000000001 \
    02000000000000001800000075cf700206000000000000000202000000000000 \
    0001000000000000000300000074776f12000000dce5ee9f0800000000000000 \
    050200000000000000050000006f746865721a000000fa4c9e25070000000000 \
    000002020000000000000002000000000000000500000074687265651d000000 \
    bab25b7c09000000000000000302000000000000000200000000000000020000 \
    00040000000000000009000000443d37620a0000000000000001030000000000 \
    000019000000cc1799370b000000000000000203000000000000000200000000 \
    00000004000000666f75721d00000060f2b11a0c000000000000000303000000 \
    000000000300000000000000010000000900000000000000";

#[test]
fn default_options_layout_and_bytes_match_the_previous_build() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("hcc-layout-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    script(&dir);
    assert_eq!(tree(&dir), [CHECKPOINT, "stripe-00", FIRST_SEGMENT]);
    assert_eq!(hex(&std::fs::read(dir.join(CHECKPOINT)).unwrap()), literal(CHECKPOINT_HEX));
    assert_eq!(hex(&std::fs::read(dir.join(FIRST_SEGMENT)).unwrap()), literal(FIRST_SEGMENT_HEX));
    let _ = std::fs::remove_dir_all(&dir);
}
