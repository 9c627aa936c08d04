//! Hermetic scratch directories.
//!
//! Every directory the benchmark creates comes from [`TempDir::new`]: the
//! name is keyed on `(pid, process-wide counter)`, so neither two runs on
//! one host nor two fixtures in one process can collide (the `(pid,
//! workers)` key of `crates/bench/src/setup.rs` does), and the directory is
//! removed when the value drops — on the normal path and on panic unwind.
//!
//! Directories live beside the running executable — inside the cargo
//! target directory, hence inside the checkout the benchmark was built
//! in — because the benchmark may read and write only there.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn new(label: &str) -> std::io::Result<TempDir> {
        let base = std::env::current_exe()?
            .parent()
            .map(Path::to_path_buf)
            .ok_or_else(|| std::io::Error::other("executable has no parent directory"))?;
        // Relaxed: the counter only has to hand out distinct values.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = base.join(format!("hvbench-{}-{n}-{label}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Drop must not panic; a leftover directory is only litter.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirs_are_distinct_and_removed_on_drop_and_unwind() {
        let a = TempDir::new("t").unwrap();
        let b = TempDir::new("t").unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("f"), b"xyz").unwrap();
        assert_eq!(dir_bytes(a.path()).unwrap(), 3);
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        let unwound = b.path().to_path_buf();
        let r = std::panic::catch_unwind(move || {
            let _held = b;
            panic!("unwind");
        });
        assert!(r.is_err());
        assert!(!unwound.exists());
    }
}
