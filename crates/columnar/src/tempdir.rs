//! Scratch directories for tests and benches.
//!
//! Tests run on parallel threads and CI repeats them, so every scratch
//! path must be unique per use and gone afterwards. This is the one place
//! that names such paths: `clippy.toml` bans `std::env::temp_dir`
//! everywhere else in the workspace, tests, benches and examples included.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh, empty directory under the system temp dir, removed with its
/// contents on drop. The name carries the process id and a process-wide
/// counter, so no two live `TempDir`s — on this process's test threads or
/// in another process — share a path.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Create `<tmp>/hillview-<tag>-<pid>-<n>`.
    ///
    /// # Panics
    /// If the directory cannot be created: scratch space is a precondition
    /// of the test or bench asking for it.
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // lint: allow(relaxed, unique-id counter; publishes no other data)
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        #[expect(
            clippy::disallowed_methods,
            reason = "the one place scratch paths are named"
        )]
        let path = std::env::temp_dir().join(format!("hillview-{tag}-{}-{n}", std::process::id()));
        // A killed process that had this pid may have left the name behind.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch directory");
        TempDir(path)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A path inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirs_are_distinct_and_removed_on_drop() {
        let a = TempDir::new("tempdir");
        let b = TempDir::new("tempdir");
        assert_ne!(a.path(), b.path());
        std::fs::write(a.join("f"), b"x").unwrap();
        let gone = a.path().to_path_buf();
        drop(a);
        assert!(!gone.exists());
        assert!(b.path().is_dir());
    }
}
