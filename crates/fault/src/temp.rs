//! Throwaway directories for tests.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

/// A fresh directory under [`std::env::temp_dir`], removed with all it
/// holds when the guard drops. The name carries the tag, the process id
/// and a per-process call count, so tests running at once, in one process
/// or several, never share one; a leftover of the same name (from an
/// earlier process with this pid) is removed first. For tests: it panics
/// when the directory cannot be made.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Makes `dh-{tag}-{pid}-{call}` under the system temp directory.
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("dh-{tag}-{}-{n}", std::process::id());
        let path = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("the system temp directory is writable");
        Self(path)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
