//! A minimal scratch-directory helper for tests and benches — no
//! `tempfile` dependency, unique per process and per call, removed on
//! drop.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A directory under the system temp root that is deleted on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `ytaudit-store-<prefix>-<pid>-<n>` under the system temp
    /// directory.
    pub fn new(prefix: &str) -> TempDir {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("ytaudit-store-{prefix}-{}-{n}", std::process::id()));
        // ytlint: allow(panics) — test-support scaffolding; an unusable
        // temp root means no test can run, so aborting is the right call
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path for a file inside the directory (not created).
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
