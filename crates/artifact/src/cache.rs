//! Content-addressed on-disk artifact cache.
//!
//! Entries live under a directory (`HICOND_CACHE_DIR`, default
//! `.hicond-cache`) named `<kind>-<key:016x>.hca`, where `key` is the
//! 64-bit content fingerprint. Publication is atomic: bytes are written to
//! a unique `.tmp-*` file in the same directory and `rename(2)`d into
//! place, so readers either see a complete, checksummed entry or no entry
//! at all — never a partial write. Loads verify the full container (all
//! CRCs) before reporting a hit; a corrupt entry counts as a miss.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::codec::ArtifactError;
use crate::container::{kinds, ArtifactReader};

/// Environment variable selecting the cache directory.
pub const CACHE_ENV: &str = "HICOND_CACHE_DIR";

/// Directory used when [`CACHE_ENV`] is unset.
pub const DEFAULT_CACHE_DIR: &str = ".hicond-cache";

/// File extension for cache entries.
pub const ENTRY_EXT: &str = "hca";

// Distinguishes concurrent tmp files from the same process; monotonic
// counter, no ordering needed beyond uniqueness (counter-role RMW).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Handle on a cache directory.
#[derive(Debug, Clone)]
pub struct Cache {
    dir: PathBuf,
}

/// One entry as listed by [`Cache::entries`].
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// Artifact kind parsed from the filename.
    pub kind: u32,
    /// Content key parsed from the filename.
    pub key: u64,
    /// Entry size in bytes.
    pub bytes: u64,
    /// Full path of the entry file.
    pub path: PathBuf,
}

/// Result of a [`Cache::gc`] sweep.
#[derive(Debug, Default, Clone)]
pub struct GcReport {
    /// Entries removed.
    pub removed: usize,
    /// Bytes reclaimed.
    pub bytes: u64,
    /// Orphaned tmp files removed.
    pub tmp_removed: usize,
    /// Corrupt entries removed.
    pub corrupt_removed: usize,
}

/// Result of a [`Cache::verify`] sweep.
#[derive(Debug, Default, Clone)]
pub struct VerifyReport {
    /// Entries that parsed and passed every checksum.
    pub ok: usize,
    /// Entries that failed: (path, error).
    pub bad: Vec<(PathBuf, ArtifactError)>,
}

impl Cache {
    /// Cache at the directory named by `HICOND_CACHE_DIR`, or the default.
    pub fn from_env() -> Self {
        let dir = std::env::var(CACHE_ENV)
            .ok()
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| DEFAULT_CACHE_DIR.to_string());
        Cache {
            dir: PathBuf::from(dir),
        }
    }

    /// Cache at an explicit directory.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Cache { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Canonical path for an entry of `kind` under `key`.
    pub fn path_for(&self, kind: u32, key: u64) -> PathBuf {
        self.dir
            .join(format!("{}-{key:016x}.{ENTRY_EXT}", kinds::name(kind)))
    }

    /// Loads and fully verifies the entry, returning its raw container
    /// bytes. `Ok(None)` is a miss (absent file). A present-but-corrupt
    /// entry is an error — callers typically treat it as a miss and
    /// rebuild, but the distinction is surfaced so `verify` can report it.
    pub fn load(&self, kind: u32, key: u64) -> Result<Option<Vec<u8>>, ArtifactError> {
        let path = self.path_for(kind, key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // Recorded unconditionally (not gated on the obs mode):
                // the serve `stats` verb reports hit/miss counts even when
                // HICOND_OBS=off, and this is a cold filesystem path where
                // one counter RMW is noise.
                // reach: trusted(this `add` is the obs registry's atomic counter bump, not CSR matrix addition — the name-resolved edge into linalg::add is spurious, and the counter never touches the artifact bytes)
                hicond_obs::global().counter("artifact/cache_miss").add(1);
                hicond_obs::flight::event_named(
                    hicond_obs::flight::EventKind::CacheMiss,
                    "artifact/cache",
                    0,
                    0,
                );
                return Ok(None);
            }
            Err(e) => return Err(ArtifactError::Io(e.to_string())),
        };
        let reader = ArtifactReader::parse(&bytes)?;
        reader.expect_kind(kind)?;
        // reach: trusted(this `add` is the obs registry's atomic counter bump, not CSR matrix addition — the name-resolved edge into linalg::add is spurious, and the counter never touches the artifact bytes)
        hicond_obs::global().counter("artifact/cache_hit").add(1);
        hicond_obs::flight::event_named(
            hicond_obs::flight::EventKind::CacheHit,
            "artifact/cache",
            0,
            0,
        );
        Ok(Some(bytes))
    }

    /// Atomically publishes `bytes` as the entry for (`kind`, `key`):
    /// write to a unique tmp file in the cache directory, then rename over
    /// the final name. Readers never observe a partial entry.
    pub fn store(&self, kind: u32, key: u64, bytes: &[u8]) -> Result<PathBuf, ArtifactError> {
        fs::create_dir_all(&self.dir).map_err(|e| ArtifactError::Io(e.to_string()))?;
        let final_path = self.path_for(kind, key);
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}-{}-{key:016x}",
            std::process::id(),
            seq,
            kinds::name(kind),
        ));
        let write = (|| -> std::io::Result<()> {
            fs::write(&tmp, bytes)?;
            fs::rename(&tmp, &final_path)
        })();
        if let Err(e) = write {
            // Best-effort cleanup of the tmp file; the publish failed either
            // way, and gc sweeps orphans.
            let _ = fs::remove_file(&tmp);
            return Err(ArtifactError::Io(e.to_string()));
        }
        hicond_obs::counter_add("artifact/cache_store", 1);
        Ok(final_path)
    }

    /// All well-named entries, sorted by (kind, key) for stable output.
    /// Files that do not match the entry naming scheme are ignored.
    pub fn entries(&self) -> Result<Vec<CacheEntry>, ArtifactError> {
        let mut out = Vec::new();
        let iter = match fs::read_dir(&self.dir) {
            Ok(it) => it,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(ArtifactError::Io(e.to_string())),
        };
        for item in iter {
            let item = item.map_err(|e| ArtifactError::Io(e.to_string()))?;
            let path = item.path();
            let Some((kind, key)) = parse_entry_name(&path) else {
                continue;
            };
            let bytes = item
                .metadata()
                .map(|m| m.len())
                .map_err(|e| ArtifactError::Io(e.to_string()))?;
            out.push(CacheEntry {
                kind,
                key,
                bytes,
                path,
            });
        }
        out.sort_by_key(|e| (e.kind, e.key));
        Ok(out)
    }

    /// Parses and checksum-verifies every entry.
    pub fn verify(&self) -> Result<VerifyReport, ArtifactError> {
        let mut report = VerifyReport::default();
        for entry in self.entries()? {
            let outcome = fs::read(&entry.path)
                .map_err(|e| ArtifactError::Io(e.to_string()))
                .and_then(|bytes| {
                    let reader = ArtifactReader::parse(&bytes)?;
                    reader.expect_kind(entry.kind)
                });
            match outcome {
                Ok(()) => report.ok += 1,
                Err(e) => report.bad.push((entry.path, e)),
            }
        }
        Ok(report)
    }

    /// Garbage collection. With `all = false`, removes orphaned tmp files
    /// and corrupt entries; with `all = true`, removes every entry too.
    pub fn gc(&self, all: bool) -> Result<GcReport, ArtifactError> {
        let mut report = GcReport::default();
        let iter = match fs::read_dir(&self.dir) {
            Ok(it) => it,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(report),
            Err(e) => return Err(ArtifactError::Io(e.to_string())),
        };
        for item in iter {
            let item = item.map_err(|e| ArtifactError::Io(e.to_string()))?;
            let path = item.path();
            let name = item.file_name();
            let name = name.to_string_lossy();
            let size = item.metadata().map(|m| m.len()).unwrap_or(0);
            if name.starts_with(".tmp-") {
                fs::remove_file(&path).map_err(|e| ArtifactError::Io(e.to_string()))?;
                report.tmp_removed += 1;
                report.bytes += size;
                continue;
            }
            let Some((kind, _)) = parse_entry_name(&path) else {
                continue;
            };
            let corrupt = fs::read(&path)
                .map_err(|e| ArtifactError::Io(e.to_string()))
                .and_then(|bytes| {
                    let reader = ArtifactReader::parse(&bytes)?;
                    reader.expect_kind(kind)
                })
                .is_err();
            if all || corrupt {
                fs::remove_file(&path).map_err(|e| ArtifactError::Io(e.to_string()))?;
                report.removed += 1;
                report.bytes += size;
                if corrupt {
                    report.corrupt_removed += 1;
                }
            }
        }
        Ok(report)
    }
}

/// Parses `<kindname>-<key:016x>.hca`; `None` for anything else.
fn parse_entry_name(path: &Path) -> Option<(u32, u64)> {
    let name = path.file_name()?.to_str()?;
    let stem = name.strip_suffix(&format!(".{ENTRY_EXT}"))?;
    let (kind_name, key_hex) = stem.rsplit_once('-')?;
    if key_hex.len() != 16 {
        return None;
    }
    let key = u64::from_str_radix(key_hex, 16).ok()?;
    (kind_name == kinds::name(kinds::SOLVER)).then_some((kinds::SOLVER, key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::ArtifactWriter;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hicond-cache-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_bytes() -> Vec<u8> {
        let mut w = ArtifactWriter::new(kinds::SOLVER);
        w.section(1, &vec![1u32, 2, 3]);
        w.finish()
    }

    #[test]
    fn store_load_roundtrip_and_miss() {
        let cache = Cache::at(tmpdir("roundtrip"));
        assert!(cache.load(kinds::SOLVER, 42).unwrap().is_none());
        let bytes = sample_bytes();
        let path = cache.store(kinds::SOLVER, 42, &bytes).unwrap();
        assert!(path.exists());
        let loaded = cache.load(kinds::SOLVER, 42).unwrap().unwrap();
        assert_eq!(loaded, bytes);
        // Another key, or the same key under an unknown kind: miss, not a
        // collision.
        assert!(cache.load(kinds::SOLVER, 43).unwrap().is_none());
        assert!(cache.load(1, 42).unwrap().is_none());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_entry_is_an_error_and_gc_removes_it() {
        let cache = Cache::at(tmpdir("corrupt"));
        let bytes = sample_bytes();
        let path = cache.store(kinds::SOLVER, 7, &bytes).unwrap();
        let mut corrupted = bytes.clone();
        corrupted[bytes.len() / 2] ^= 0x40;
        fs::write(&path, &corrupted).unwrap();
        assert!(cache.load(kinds::SOLVER, 7).is_err());
        let verify = cache.verify().unwrap();
        assert_eq!(verify.ok, 0);
        assert_eq!(verify.bad.len(), 1);
        let gc = cache.gc(false).unwrap();
        assert_eq!(gc.corrupt_removed, 1);
        assert!(cache.load(kinds::SOLVER, 7).unwrap().is_none());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn gc_sweeps_tmp_orphans_and_all() {
        let cache = Cache::at(tmpdir("gc"));
        cache.store(kinds::SOLVER, 1, &sample_bytes()).unwrap();
        cache.store(kinds::SOLVER, 2, &sample_bytes()).unwrap();
        fs::write(cache.dir().join(".tmp-999-0-solver-dead"), b"partial").unwrap();
        let gc = cache.gc(false).unwrap();
        assert_eq!(gc.tmp_removed, 1);
        assert_eq!(gc.removed, 0);
        assert_eq!(cache.entries().unwrap().len(), 2);
        let gc = cache.gc(true).unwrap();
        assert_eq!(gc.removed, 2);
        assert!(cache.entries().unwrap().is_empty());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn entries_listing_is_sorted_and_ignores_strangers() {
        let cache = Cache::at(tmpdir("ls"));
        cache
            .store(kinds::SOLVER, 0xBEEF, &{
                let w = ArtifactWriter::new(kinds::SOLVER);
                w.finish()
            })
            .unwrap();
        cache.store(kinds::SOLVER, 0xAAAA, &sample_bytes()).unwrap();
        fs::write(cache.dir().join("README.txt"), b"not an entry").unwrap();
        // A well-formed name of a kind the cache does not store.
        fs::write(cache.dir().join("graph-0000000000000001.hca"), b"x").unwrap();
        let entries = cache.entries().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].kind, kinds::SOLVER);
        assert_eq!(entries[0].key, 0xAAAA);
        assert_eq!(entries[1].key, 0xBEEF);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn entry_name_parses_and_rejects() {
        let cache = Cache::at("/nonexistent");
        let p = cache.path_for(kinds::SOLVER, 0x1234);
        assert_eq!(parse_entry_name(&p), Some((kinds::SOLVER, 0x1234)));
        assert_eq!(parse_entry_name(Path::new("x/evil-123.hca")), None);
        assert_eq!(parse_entry_name(Path::new("x/solver-zz.hca")), None);
        assert_eq!(
            parse_entry_name(Path::new("x/solver-0000000000000001.txt")),
            None
        );
        assert_eq!(
            parse_entry_name(Path::new("x/graph-0000000000000001.hca")),
            None
        );
    }
}
