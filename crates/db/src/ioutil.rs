//! Atomic file replacement with temp-file hygiene.
//!
//! Shared by the database's page writer and the service's snapshot writer
//! (`mopt_service::persist`): writes go to a uniquely named temporary
//! sibling (`{stem}.tmp.{pid}.{seq}`) that is fsynced and renamed into
//! place, so a crash mid-write never corrupts an existing file, racing
//! writers never interleave into one file, and a failed write never leaks
//! its temp.

use std::io::Write;
use std::path::Path;

/// Atomically replace `path` with `contents`.
///
/// Safe under concurrent calls: each call writes a uniquely named temp file
/// (pid + process-wide sequence number) before the atomic rename, so racing
/// writers never interleave — the last complete write wins.
///
/// The temp file never outlives a failed write: every error path (creation,
/// write, `sync_all`, rename) removes it before the error is returned.
/// Temps leaked by a *killed* process are reaped by [`remove_stale_temps`].
pub fn atomic_write(path: &Path, contents: &str) -> std::io::Result<()> {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let written = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(contents.as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if written.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    written
}

/// Remove temp files (`{stem}.tmp.{pid}.{seq}`) left next to `path` by
/// writes that never completed — a crashed or killed process cannot run its
/// own error-path cleanup, and the unique names mean no later write ever
/// reuses (or removes) them. Returns the number of files removed.
///
/// Call this at startup, before the first write: the target path has a
/// single owning process, so anything matching the temp pattern at that
/// point is garbage from a dead process, never an in-flight write.
pub fn remove_stale_temps(path: &Path) -> std::io::Result<usize> {
    let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
        return Ok(0);
    };
    let prefix = format!("{stem}.tmp.");
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let mut removed = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with(&prefix) && std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mopt-db-ioutil-{name}-{}.json", std::process::id()))
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let path = temp_path("replace");
        atomic_write(&path, "first").unwrap();
        atomic_write(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_write_leaves_no_temp_behind() {
        // Renaming onto a non-empty directory fails.
        let dir = temp_path("rename-fails");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join("occupied")).unwrap();
        assert!(atomic_write(&dir, "payload").is_err());
        let stem = dir.file_stem().unwrap().to_str().unwrap().to_string();
        let leaked: Vec<_> = std::fs::read_dir(dir.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.file_name().to_str().is_some_and(|n| n.starts_with(&format!("{stem}.tmp.")))
            })
            .collect();
        assert!(leaked.is_empty(), "failed writes must not leak temps: {leaked:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_temp_sweep_reaps_only_matching_files() {
        let path = temp_path("sweep");
        std::fs::write(&path, "{}").unwrap();
        let stem = path.file_stem().unwrap().to_str().unwrap();
        let parent = path.parent().unwrap();
        // Temps a killed writer would have left (foreign pids).
        for name in [format!("{stem}.tmp.1.0"), format!("{stem}.tmp.999999.3")] {
            std::fs::write(parent.join(name), "partial").unwrap();
        }
        let unrelated = parent.join(format!("{stem}-other.json"));
        std::fs::write(&unrelated, "keep").unwrap();
        assert_eq!(remove_stale_temps(&path).unwrap(), 2);
        assert!(unrelated.exists());
        assert_eq!(remove_stale_temps(&path).unwrap(), 0);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&unrelated).ok();
    }
}
