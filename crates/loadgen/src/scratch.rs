//! Scratch directories inside the working directory. The benchmark may
//! read and write only inside its checkout, so WAL directories, traces
//! and test files all live under `./.loadgen_scratch/` (git-ignored).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Parent of every scratch directory, relative to the working directory.
pub const SCRATCH_ROOT: &str = ".loadgen_scratch";

/// A uniquely named directory removed again when the guard drops.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `./.loadgen_scratch/<label>-<pid>-<n>`.
    pub fn create(label: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(SCRATCH_ROOT).join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once the last scratch directory is gone.
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}
