//! Scratch paths for the durable suites: `mod common;` in each.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh scratch path under the temp directory. Dropping it removes
/// what a test left there (a store directory or a report file) and its
/// `.addr` file, so a test cleans up whether it passes or panics.
pub struct Tmp(PathBuf);

impl Tmp {
    /// `<temp>/<prefix>-<pid>-<name>-<n>`, with `n` unique in the
    /// process; anything already at that path is removed first.
    pub fn new(prefix: &str, name: &str) -> Tmp {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let p = std::env::temp_dir().join(format!("{prefix}-{}-{name}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        Tmp(p)
    }
}

impl std::ops::Deref for Tmp {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for Tmp {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Tmp {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(self.0.with_extension("addr"));
    }
}
