//! The follower's side of log shipping: a striped append-only log fed
//! raw WAL frames in global ticket order.
//!
//! A [`ReplicaLog`] looks exactly like a primary WAL on disk —
//! `stripe-NN/seg-XXXXXXXX.wal` directories of `len|crc|seq|payload`
//! frames — so the whole existing recovery pipeline
//! ([`crate::wal::read_records`] → [`crate::store::DurableStore::recover`])
//! works on a replica directory unchanged. That is the point: promotion
//! is *ordinary crash recovery* over a log the follower built one
//! verified frame at a time, not a second apply path.
//!
//! Differences from the primary's [`crate::wal::SegmentedWal`]:
//!
//! * Frames arrive already ticketed and **in ticket order** (the
//!   shipper merges stripes before sending), so the replica routes each
//!   frame to `stripe = seq % stripes` and every stripe file is
//!   strictly seq-ascending — which makes [`ReplicaLog::truncate_above`]
//!   a clean per-stripe suffix cut.
//! * Appends are idempotent: a frame at or below
//!   [`ReplicaLog::last_ticket`] is a re-delivery (the follower
//!   re-requested from its durable position after a disconnect) and is
//!   skipped byte-free.
//! * Every frame's CRC is re-verified before it is written. A corrupt
//!   frame in the middle of a batch poisons the connection, not the
//!   log: nothing after it is appended and the caller re-dials.
//!
//! Crash discipline matches the primary's: only the **final** segment
//! of a stripe may end in a torn frame (repaired on open by truncating
//! to the last whole-frame boundary); damage anywhere else is
//! [`StorageError::Corrupt`].

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::record;
use crate::wal::{list_segments, segment_path, stripe_dir, stripe_dirs, sync_dir};
use crate::{Durability, StorageError};
use hcc_wire::frame::FrameError;

/// How a [`ReplicaLog`] is laid out and flushed.
#[derive(Clone, Copy, Debug)]
pub struct ReplicaOptions {
    /// Stripe count for a fresh directory (an existing directory keeps
    /// its own count; this value is ignored then).
    pub stripes: usize,
    /// Rotate a stripe's segment once it exceeds this size.
    pub segment_max_bytes: u64,
    /// `Fsync` syncs every appended batch before acking it upstream;
    /// anything else leaves the batch in the OS page cache.
    pub durability: Durability,
}

impl Default for ReplicaOptions {
    fn default() -> ReplicaOptions {
        ReplicaOptions {
            stripes: 1,
            segment_max_bytes: 4 * 1024 * 1024,
            durability: Durability::default(),
        }
    }
}

struct ReplicaStripe {
    dir: PathBuf,
    file: File,
    seg_index: u64,
    seg_bytes: u64,
}

/// The follower's striped log. See the module docs for the contract.
pub struct ReplicaLog {
    dir: PathBuf,
    stripes: Vec<ReplicaStripe>,
    last_ticket: u64,
    opts: ReplicaOptions,
}

impl ReplicaLog {
    /// Open (or create) a replica log at `dir`, repairing a torn final
    /// frame in each stripe's last segment exactly like primary
    /// recovery does.
    pub fn open(dir: impl AsRef<Path>, opts: ReplicaOptions) -> Result<ReplicaLog, StorageError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut existing = stripe_dirs(&dir)?;
        if existing.is_empty() {
            let n = opts.stripes.clamp(1, crate::wal::MAX_STRIPES);
            for s in 0..n {
                let sdir = stripe_dir(&dir, s);
                fs::create_dir_all(&sdir)?;
                existing.push((s, sdir));
            }
            sync_dir(&dir)?;
        }
        let mut stripes = Vec::with_capacity(existing.len());
        let mut last_ticket = 0u64;
        for (_, sdir) in existing {
            let (stripe, high) = ReplicaStripe::open(sdir)?;
            last_ticket = last_ticket.max(high);
            stripes.push(stripe);
        }
        Ok(ReplicaLog { dir, stripes, last_ticket, opts })
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The highest ticket appended (and, after [`ReplicaLog::open`] or a
    /// flushed batch, durable to the configured level). `0` = empty.
    pub fn last_ticket(&self) -> u64 {
        self.last_ticket
    }

    /// Verify and append a batch of concatenated raw frames (ascending
    /// `seq`), skipping any already at or below [`ReplicaLog::last_ticket`].
    /// Returns the new `last_ticket` once the batch is flushed — that is
    /// the value to put in the `ReplAck`.
    pub fn append_frames(&mut self, frames: &[u8]) -> Result<u64, StorageError> {
        let mut at = 0usize;
        let mut prev = 0u64;
        while at < frames.len() {
            let (seq, _rec, end) = record::decode_at(frames, at).map_err(|e| bad_batch(at, e))?;
            if seq <= prev {
                return Err(bad_batch(at, FrameError::Malformed));
            }
            prev = seq;
            if seq > self.last_ticket {
                self.append_one(seq, &frames[at..end])?;
                self.last_ticket = seq;
            }
            at = end;
        }
        if self.opts.durability == Durability::Fsync {
            for s in &self.stripes {
                s.file.sync_data()?;
            }
        }
        Ok(self.last_ticket)
    }

    fn append_one(&mut self, seq: u64, frame: &[u8]) -> Result<(), StorageError> {
        let i = (seq % self.stripes.len() as u64) as usize;
        let s = &mut self.stripes[i];
        if s.seg_bytes > 0 && s.seg_bytes + frame.len() as u64 > self.opts.segment_max_bytes {
            s.rotate()?;
        }
        s.file.write_all(frame)?;
        s.seg_bytes += frame.len() as u64;
        Ok(())
    }

    /// Force everything appended so far to the configured durability.
    pub fn sync(&self) -> Result<(), StorageError> {
        for s in &self.stripes {
            s.file.sync_data()?;
        }
        Ok(())
    }

    /// Physically drop every frame with `seq > ticket` — the promotion
    /// cut after the chain walk finds the last dependency-closed commit.
    /// Stripe files are seq-ascending, so this is a suffix truncation
    /// per stripe (plus deleting whole later segments).
    pub fn truncate_above(&mut self, ticket: u64) -> Result<(), StorageError> {
        for s in &mut self.stripes {
            s.truncate_above(ticket)?;
        }
        self.last_ticket = self.last_ticket.min(ticket);
        // `ticket` itself may have been a skipped gap; recompute the
        // true high mark from what survived.
        let mut high = 0u64;
        for s in &self.stripes {
            high = high.max(s.high_seq()?);
        }
        self.last_ticket = high;
        Ok(())
    }
}

fn bad_batch(offset: usize, err: FrameError) -> StorageError {
    StorageError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("replication batch rejected at byte {offset}: {err:?}"),
    ))
}

impl ReplicaStripe {
    /// Open one stripe: repair the final segment's torn tail, refuse
    /// damage anywhere earlier, and reopen the last segment for append.
    fn open(dir: PathBuf) -> Result<(ReplicaStripe, u64), StorageError> {
        let segments = list_segments(&dir)?;
        let mut high = 0u64;
        let last = segments.len().saturating_sub(1);
        for (i, (idx, path)) in segments.iter().enumerate() {
            let bytes = fs::read(path)?;
            let mut walk = record::walk_meta(&bytes);
            let mut valid = 0;
            for (meta, range) in walk.by_ref() {
                high = high.max(meta.seq);
                valid = range.end;
            }
            match walk.error() {
                None => {}
                // Torn tail of the active segment: the crash cut
                // mid-append. Truncate to the last whole frame.
                Some(_) if i == last => {
                    let f = OpenOptions::new().write(true).open(path)?;
                    f.set_len(valid as u64)?;
                    f.sync_data()?;
                }
                Some(e) => {
                    return Err(StorageError::Corrupt {
                        segment: *idx,
                        detail: format!("replica stripe frame at byte {valid}: {e:?}"),
                    });
                }
            }
        }
        let (seg_index, seg_bytes, path) = match segments.last() {
            Some((idx, path)) => (*idx, fs::metadata(path)?.len(), path.clone()),
            None => {
                let path = segment_path(&dir, 1);
                (1, 0, path)
            }
        };
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        sync_dir(&dir)?;
        Ok((ReplicaStripe { dir, file, seg_index, seg_bytes }, high))
    }

    fn rotate(&mut self) -> Result<(), StorageError> {
        self.file.sync_data()?;
        self.seg_index += 1;
        let path = segment_path(&self.dir, self.seg_index);
        self.file = OpenOptions::new().create_new(true).append(true).open(path)?;
        self.seg_bytes = 0;
        sync_dir(&self.dir)?;
        Ok(())
    }

    fn truncate_above(&mut self, ticket: u64) -> Result<(), StorageError> {
        let segments = list_segments(&self.dir)?;
        let mut cut: Option<(u64, u64)> = None; // (seg_index, byte offset)
        for (idx, path) in &segments {
            let bytes = fs::read(path)?;
            let mut walk = record::walk_meta(&bytes);
            if let Some((_, range)) = walk.by_ref().find(|(meta, _)| meta.seq > ticket) {
                cut = Some((*idx, range.start as u64));
                break;
            }
            if let Some(e) = walk.error() {
                return Err(StorageError::Corrupt {
                    segment: *idx,
                    detail: format!("during truncate_above: {e:?}"),
                });
            }
        }
        let Some((cut_seg, cut_off)) = cut else { return Ok(()) };
        for (idx, path) in &segments {
            if *idx > cut_seg {
                fs::remove_file(path)?;
            }
        }
        let cut_path = segment_path(&self.dir, cut_seg);
        let f = OpenOptions::new().write(true).open(&cut_path)?;
        f.set_len(cut_off)?;
        f.sync_data()?;
        sync_dir(&self.dir)?;
        self.seg_index = cut_seg;
        self.seg_bytes = cut_off;
        self.file = OpenOptions::new().append(true).open(&cut_path)?;
        Ok(())
    }

    /// Highest seq currently in this stripe (0 if empty).
    fn high_seq(&self) -> Result<u64, StorageError> {
        let mut high = 0u64;
        for (_, path) in list_segments(&self.dir)? {
            let bytes = fs::read(&path)?;
            for (meta, _) in record::walk_meta(&bytes) {
                high = high.max(meta.seq);
            }
        }
        Ok(high)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::read_records;
    use crate::LogRecord;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "hcc-replica-{}-{}-{}",
            std::process::id(),
            name,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn frame(seq: u64) -> Vec<u8> {
        record::encode(&LogRecord::Begin { txn: seq }, seq)
    }

    fn batch(seqs: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        for &s in seqs {
            out.extend_from_slice(&frame(s));
        }
        out
    }

    fn opts() -> ReplicaOptions {
        ReplicaOptions { stripes: 3, segment_max_bytes: 128, ..ReplicaOptions::default() }
    }

    fn seqs_on_disk(dir: &Path) -> Vec<u64> {
        let (recs, _) = read_records(dir).unwrap();
        recs.iter().map(|(s, _)| *s).collect()
    }

    #[test]
    fn appends_route_rotate_and_reload() {
        let dir = tmp("basic");
        let mut log = ReplicaLog::open(&dir, opts()).unwrap();
        let all: Vec<u64> = (1..=50).collect();
        assert_eq!(log.append_frames(&batch(&all)).unwrap(), 50);
        assert_eq!(log.last_ticket(), 50);
        drop(log);
        let log = ReplicaLog::open(&dir, opts()).unwrap();
        assert_eq!(log.last_ticket(), 50);
        assert_eq!(seqs_on_disk(&dir), all);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn redelivered_frames_are_skipped_idempotently() {
        let dir = tmp("idem");
        let mut log = ReplicaLog::open(&dir, opts()).unwrap();
        log.append_frames(&batch(&[1, 2, 3])).unwrap();
        // Reconnect replays an overlapping window.
        log.append_frames(&batch(&[2, 3, 4, 5])).unwrap();
        assert_eq!(seqs_on_disk(&dir), vec![1, 2, 3, 4, 5]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_frame_poisons_the_batch_not_the_log() {
        let dir = tmp("poison");
        let mut log = ReplicaLog::open(&dir, opts()).unwrap();
        log.append_frames(&batch(&[1])).unwrap();
        let mut b = batch(&[2, 3]);
        let flip = frame(2).len() + 12; // inside frame 3's body
        b[flip] ^= 0xff;
        assert!(log.append_frames(&b).is_err());
        // Frame 2 landed (it preceded the damage), frame 3 did not.
        assert_eq!(seqs_on_disk(&dir), vec![1, 2]);
        assert_eq!(log.last_ticket(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_order_batches_are_refused() {
        let dir = tmp("order");
        let mut log = ReplicaLog::open(&dir, opts()).unwrap();
        let mut b = batch(&[5]);
        b.extend_from_slice(&batch(&[4]));
        assert!(log.append_frames(&b).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_repaired_on_open() {
        let dir = tmp("torn");
        let mut log = ReplicaLog::open(&dir, opts()).unwrap();
        log.append_frames(&batch(&(1..=9).collect::<Vec<_>>())).unwrap();
        log.sync().unwrap();
        drop(log);
        // Tear the last frame of one stripe (seq 9 routes to 9 % 3 = 0).
        let sdir = stripe_dir(&dir, 0);
        let (_, seg) = list_segments(&sdir).unwrap().pop().unwrap();
        let len = fs::metadata(&seg).unwrap().len();
        OpenOptions::new().write(true).open(&seg).unwrap().set_len(len - 5).unwrap();
        let mut log = ReplicaLog::open(&dir, opts()).unwrap();
        assert_eq!(log.last_ticket(), 8, "torn frame 9 dropped");
        // The stream resumes from the durable position.
        log.append_frames(&batch(&[9, 10])).unwrap();
        assert_eq!(seqs_on_disk(&dir), (1..=10).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_above_cuts_every_stripe_suffix() {
        let dir = tmp("cut");
        let mut log = ReplicaLog::open(&dir, opts()).unwrap();
        log.append_frames(&batch(&(1..=40).collect::<Vec<_>>())).unwrap();
        log.truncate_above(17).unwrap();
        assert_eq!(log.last_ticket(), 17);
        assert_eq!(seqs_on_disk(&dir), (1..=17).collect::<Vec<_>>());
        // The log keeps appending cleanly after the cut.
        log.append_frames(&batch(&[18, 19])).unwrap();
        assert_eq!(seqs_on_disk(&dir), (1..=19).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
