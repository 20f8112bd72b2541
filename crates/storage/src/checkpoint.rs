//! Checkpoint files: a serialized committed frontier plus the log
//! position compaction pruned below.
//!
//! ```text
//! file := magic "HCCKPT03", len: u32, crc: u32, payload
//! payload := last_ts: u64, last_ticket: u64, commit_chain: u64,
//!            s: u32, s × { low: u64 },
//!            n: u32, n × { name: len-prefixed utf8, data: len-prefixed bytes },
//!            r: u32, r × { id: u64, name: len-prefixed utf8 }
//! ```
//!
//! `last_ts` is the **fuzzy-checkpoint watermark**: every commit with
//! timestamp `≤ last_ts` is reflected in every snapshot (the snapshots
//! are taken *at* the watermark while later commits keep flowing), and
//! recovery replays only commits strictly above it. `last_ticket` is the
//! global ticket watermark at checkpoint time — a reopening log anchors
//! its ticket counter above it, since compaction may have deleted the
//! segments that held the highest tickets.
//!
//! `s` is always 1 and its entry is the log's **low-water mark**: every
//! segment with index `< low` was deleted by the checkpoint's compaction
//! (segments pinned by transactions live at checkpoint time keep `low`
//! clamped down until they complete). The counted-vector framing is the
//! format's — `HCCKPT03` is unchanged — and a reader keeps the first
//! entry. Recovery scans every surviving segment regardless: the mark
//! is a diagnostic record of what compaction was entitled to delete,
//! not a scan bound.
//!
//! The trailing `r` entries are the object **registry bindings** (the
//! WAL's `Register` records) at checkpoint time. They ride in the
//! checkpoint — written temp + fsync + rename, so immune to tail
//! truncation — because compaction deletes the segments holding the
//! original `Register` records while pinned segments may keep op records
//! that still reference the ids.
//!
//! Files are named `ckpt-<last_ts>.ckpt`, written to a temp file,
//! fsynced, then renamed — a half-written checkpoint can never shadow a
//! complete one, and recovery skips any file whose CRC does not verify.

use crate::record::crc32;
use crate::StorageError;
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"HCCKPT03";

/// A serialized committed frontier.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Every commit with timestamp `≤ last_ts` is reflected in `objects`;
    /// recovery replays only commits strictly above it.
    pub last_ts: u64,
    /// The global ticket watermark at checkpoint time: a reopened log
    /// must hand out tickets strictly above it.
    pub last_ticket: u64,
    /// The commit-chain watermark: the ticket of the last commit record
    /// chained before the checkpoint began. Recovery's chain walk starts
    /// here — every accepted post-checkpoint commit must link back to it
    /// through surviving records.
    pub commit_chain: u64,
    /// The low-water mark: the segment index compaction pruned below
    /// (diagnostic — recovery scans every surviving segment).
    pub segment_low: u64,
    /// `(object name, snapshot bytes)` for every registered object, taken
    /// at the `last_ts` watermark.
    pub objects: Vec<(String, Vec<u8>)>,
    /// The WAL object registry at checkpoint time: `(id, name)` bindings
    /// op records below (and pinned across) this checkpoint may use.
    pub registry: Vec<(u64, String)>,
}

fn checkpoint_path(dir: &Path, last_ts: u64) -> PathBuf {
    dir.join(format!("ckpt-{last_ts:020}.ckpt"))
}

impl Checkpoint {
    fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&self.last_ts.to_le_bytes());
        payload.extend_from_slice(&self.last_ticket.to_le_bytes());
        payload.extend_from_slice(&self.commit_chain.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&self.segment_low.to_le_bytes());
        payload.extend_from_slice(&(self.objects.len() as u32).to_le_bytes());
        for (name, data) in &self.objects {
            payload.extend_from_slice(&(name.len() as u32).to_le_bytes());
            payload.extend_from_slice(name.as_bytes());
            payload.extend_from_slice(&(data.len() as u32).to_le_bytes());
            payload.extend_from_slice(data);
        }
        payload.extend_from_slice(&(self.registry.len() as u32).to_le_bytes());
        for (id, name) in &self.registry {
            payload.extend_from_slice(&id.to_le_bytes());
            payload.extend_from_slice(&(name.len() as u32).to_le_bytes());
            payload.extend_from_slice(name.as_bytes());
        }
        let mut out = Vec::with_capacity(payload.len() + 16);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    fn decode(bytes: &[u8]) -> Option<Checkpoint> {
        if bytes.len() < 16 || &bytes[0..8] != MAGIC {
            return None;
        }
        let len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        let payload = bytes.get(16..16 + len)?;
        if crc32(payload) != crc {
            return None;
        }
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let s = payload.get(*pos..*pos + n)?;
            *pos += n;
            Some(s)
        };
        let last_ts = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        let last_ticket = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        let commit_chain = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        let s = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        let segment_low = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        take(&mut pos, (s as usize).checked_sub(1)? * 8)?; // `s` is 1
        let n = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        let mut objects = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let name_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
            let name = String::from_utf8(take(&mut pos, name_len)?.to_vec()).ok()?;
            let data_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
            let data = take(&mut pos, data_len)?.to_vec();
            objects.push((name, data));
        }
        let r = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        let mut registry = Vec::with_capacity(r as usize);
        for _ in 0..r {
            let id = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
            let name_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
            let name = String::from_utf8(take(&mut pos, name_len)?.to_vec()).ok()?;
            registry.push((id, name));
        }
        Some(Checkpoint { last_ts, last_ticket, commit_chain, segment_low, objects, registry })
    }

    /// Durably write this checkpoint into `dir` (temp file + fsync + rename
    /// + directory fsync).
    ///
    /// A failed directory fsync is an error: until one succeeds the
    /// rename may not survive a crash, so nothing the checkpoint covers
    /// may be pruned yet.
    pub fn save(&self, dir: &Path) -> Result<PathBuf, StorageError> {
        fs::create_dir_all(dir)?;
        let final_path = checkpoint_path(dir, self.last_ts);
        let tmp_path = dir.join(format!(".ckpt-{:020}.tmp", self.last_ts));
        {
            let mut f =
                OpenOptions::new().create(true).write(true).truncate(true).open(&tmp_path)?;
            f.write_all(&self.encode())?;
            f.sync_data()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        #[cfg(test)]
        if DIR_SYNC_FAULTS.with(|n| n.replace(n.get().saturating_sub(1))) > 0 {
            return Err(std::io::Error::other("injected directory fsync failure").into());
        }
        crate::wal::sync_dir(dir)?;
        Ok(final_path)
    }

    /// Load the newest valid checkpoint in `dir`; corrupt or half-written
    /// files are skipped.
    pub fn load_latest(dir: &Path) -> Result<Option<Checkpoint>, StorageError> {
        let entries = match fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut candidates: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .map(|n| n.starts_with("ckpt-") && n.ends_with(".ckpt"))
                    .unwrap_or(false)
            })
            .collect();
        candidates.sort();
        for path in candidates.iter().rev() {
            if let Some(ckpt) = fs::read(path).ok().as_deref().and_then(Checkpoint::decode) {
                return Ok(Some(ckpt));
            }
        }
        Ok(None)
    }

    /// Delete checkpoints older than the one covering `keep_ts`.
    pub fn prune_older(dir: &Path, keep_ts: u64) -> Result<u64, StorageError> {
        let mut deleted = 0;
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            if let Some(ts) = name.strip_prefix("ckpt-").and_then(|s| s.strip_suffix(".ckpt")) {
                if ts.parse::<u64>().map(|t| t < keep_ts).unwrap_or(false) {
                    fs::remove_file(&path)?;
                    deleted += 1;
                }
            }
        }
        Ok(deleted)
    }
}

#[cfg(test)]
thread_local! {
    /// Test hook: how many of this thread's upcoming post-rename
    /// directory fsyncs in [`Checkpoint::save`] fail.
    pub(crate) static DIR_SYNC_FAULTS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "hcc-ckpt-{}-{}-{}",
            std::process::id(),
            name,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&p);
        p
    }

    fn sample(ts: u64) -> Checkpoint {
        Checkpoint {
            last_ts: ts,
            last_ticket: 321,
            commit_chain: 300,
            segment_low: 3,
            objects: vec![
                ("acct".into(), br#"{"balance":75}"#.to_vec()),
                ("q".into(), b"[1,2]".to_vec()),
            ],
            registry: vec![(1, "acct".into()), (2, "q".into())],
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = tmp("roundtrip");
        sample(42).save(&dir).unwrap();
        assert_eq!(Checkpoint::load_latest(&dir).unwrap(), Some(sample(42)));
    }

    #[test]
    fn latest_wins() {
        let dir = tmp("latest");
        sample(10).save(&dir).unwrap();
        sample(99).save(&dir).unwrap();
        sample(50).save(&dir).unwrap();
        assert_eq!(Checkpoint::load_latest(&dir).unwrap().unwrap().last_ts, 99);
    }

    #[test]
    fn corrupt_latest_falls_back_to_previous() {
        let dir = tmp("fallback");
        sample(10).save(&dir).unwrap();
        let newest = sample(99).save(&dir).unwrap();
        // Flip a payload byte in the newest file.
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        assert_eq!(Checkpoint::load_latest(&dir).unwrap().unwrap().last_ts, 10);
    }

    #[test]
    fn truncated_file_is_skipped() {
        let dir = tmp("truncated");
        sample(10).save(&dir).unwrap();
        let newest = sample(99).save(&dir).unwrap();
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(Checkpoint::load_latest(&dir).unwrap().unwrap().last_ts, 10);
    }

    #[test]
    fn prune_keeps_current() {
        let dir = tmp("prune");
        sample(10).save(&dir).unwrap();
        sample(20).save(&dir).unwrap();
        sample(30).save(&dir).unwrap();
        assert_eq!(Checkpoint::prune_older(&dir, 30).unwrap(), 2);
        assert_eq!(Checkpoint::load_latest(&dir).unwrap().unwrap().last_ts, 30);
    }

    #[test]
    fn empty_dir_has_no_checkpoint() {
        assert_eq!(Checkpoint::load_latest(&tmp("empty")).unwrap(), None);
    }

    #[test]
    fn empty_object_list_roundtrips() {
        let dir = tmp("no-objects");
        let ckpt = Checkpoint { objects: vec![], ..sample(7) };
        ckpt.save(&dir).unwrap();
        assert_eq!(Checkpoint::load_latest(&dir).unwrap(), Some(ckpt));
    }
}
