//! Process-wide cache of opened Norc files (decoded footer, stripe/row-group
//! index, and the file body), shared by every session over one warehouse.
//!
//! A cold open maps the part file (or copies it, with `MAXSON_MMAP=0`),
//! verifies the whole-file checksum and decodes the footer — work that is
//! identical on every query touching the split. The Presto metadata-caching
//! study (PAPERS.md) reports most scan latency going to exactly this repeated
//! footer/index re-read, and the warehouse is append-only (part files are
//! never rewritten), so the opened file can be reused safely across queries
//! and sessions.
//!
//! Entries are keyed by part-file path and validated against the file's
//! `(length, mtime)` before every hit, so a replaced or appended-over file is
//! re-read rather than served stale. The cache is bounded by a budget of
//! heap bytes (`MAXSON_META_CACHE_BYTES`, default 256 MiB) with
//! least-recently-used eviction. An entry is charged what it owns on the
//! heap ([`NorcFile::heap_bytes`]): its decoded footer, plus the body when
//! the body was copied. A mapped body costs no budget — its pages belong to
//! the kernel page cache and can be reclaimed — so a warehouse far larger
//! than the budget stays resident and a steady-state query opens nothing.
//! Dropping a table forgets its entries ([`NorcMetaCache::forget_dir`]), so
//! a dropped table's mappings do not outlive it. Hit/miss/invalidation/
//! eviction counts are exposed for the server stats endpoint and the
//! stress-test invariant checker.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

use crate::error::{Result, StorageError};
use crate::file::{MmapMode, NorcFile};

/// Default heap-byte budget when `MAXSON_META_CACHE_BYTES` is unset.
pub const DEFAULT_META_CACHE_BYTES: u64 = 256 * 1024 * 1024;

/// Counter snapshot for telemetry and test invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetaCacheStats {
    /// Opens served from the cache (validation passed).
    pub hits: u64,
    /// Opens that had to read the file (absent or invalidated).
    pub misses: u64,
    /// Entries dropped because the on-disk file changed shape or its table
    /// was dropped.
    pub invalidations: u64,
    /// Entries dropped to stay under the byte budget.
    pub evictions: u64,
    /// Heap bytes the resident entries own: decoded footers plus copied
    /// bodies (mapped bodies are not counted).
    pub resident_bytes: u64,
    /// Files currently resident.
    pub resident_files: u64,
}

struct CacheEntry {
    file: Arc<NorcFile>,
    /// What the entry is charged against the budget.
    charge: u64,
    len: u64,
    mtime: Option<SystemTime>,
    last_used: u64,
}

#[derive(Default)]
struct CacheState {
    entries: HashMap<PathBuf, CacheEntry>,
    resident_bytes: u64,
    tick: u64,
}

/// Shared, bounded cache of opened [`NorcFile`]s. Cheap to clone behind an
/// [`Arc`]; every [`crate::Catalog`] owns one and attaches it to its tables.
pub struct NorcMetaCache {
    budget_bytes: u64,
    /// How cold opens acquire the body; `None` follows `MAXSON_MMAP` at
    /// each open.
    mmap: Option<MmapMode>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
    state: Mutex<CacheState>,
}

impl std::fmt::Debug for NorcMetaCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("NorcMetaCache")
            .field("budget_bytes", &self.budget_bytes)
            .field("resident_bytes", &s.resident_bytes)
            .field("resident_files", &s.resident_files)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

impl NorcMetaCache {
    /// A cache bounded to `budget_bytes` heap bytes (0 disables residency:
    /// every open misses, which keeps the type usable as an "off" switch in
    /// tests).
    pub fn new(budget_bytes: u64) -> Self {
        NorcMetaCache {
            budget_bytes,
            mmap: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            state: Mutex::new(CacheState::default()),
        }
    }

    /// Budget from `MAXSON_META_CACHE_BYTES` (default 256 MiB).
    pub fn from_env() -> Self {
        let budget = std::env::var("MAXSON_META_CACHE_BYTES")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(DEFAULT_META_CACHE_BYTES);
        NorcMetaCache::new(budget)
    }

    /// The configured heap-byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Open `path`, serving the decoded file from the cache when the on-disk
    /// `(length, mtime)` still matches the cached entry. Returns the file
    /// plus whether this open was a cache hit.
    pub fn open(&self, path: &Path) -> Result<(Arc<NorcFile>, bool)> {
        let meta = std::fs::metadata(path).map_err(|e| StorageError::io_at(path, e))?;
        let len = meta.len();
        let mtime = meta.modified().ok();
        {
            let mut state = self.state.lock().unwrap();
            state.tick += 1;
            let tick = state.tick;
            match state.entries.get_mut(path) {
                Some(entry) if entry.len == len && entry.mtime == mtime => {
                    entry.last_used = tick;
                    let file = Arc::clone(&entry.file);
                    drop(state);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((file, true));
                }
                Some(_) => {
                    // Shape changed on disk: drop the stale entry and fall
                    // through to a full (checksum-verifying) re-read.
                    let stale = state.entries.remove(path).unwrap();
                    state.resident_bytes -= stale.charge;
                    self.invalidations.fetch_add(1, Ordering::Relaxed);
                }
                None => {}
            }
        }
        // Read outside the lock so concurrent misses on different files
        // don't serialize on each other's disk reads.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mode = self.mmap.unwrap_or_else(MmapMode::from_env);
        let file = Arc::new(NorcFile::open_with(path, mode)?);
        let charge = file.heap_bytes() as u64;
        if charge <= self.budget_bytes {
            let mut state = self.state.lock().unwrap();
            state.tick += 1;
            let tick = state.tick;
            // A concurrent miss may have inserted meanwhile; replacing is
            // harmless (both reads decoded the same bytes).
            if let Some(prev) = state.entries.remove(path) {
                state.resident_bytes -= prev.charge;
            }
            while state.resident_bytes + charge > self.budget_bytes {
                let Some(victim) = state
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(p, _)| p.clone())
                else {
                    break;
                };
                let evicted = state.entries.remove(&victim).unwrap();
                state.resident_bytes -= evicted.charge;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            state.resident_bytes += charge;
            state.entries.insert(
                path.to_path_buf(),
                CacheEntry {
                    file: Arc::clone(&file),
                    charge,
                    len,
                    mtime,
                    last_used: tick,
                },
            );
        }
        Ok((file, false))
    }

    /// Forget every entry for a file under `dir` (a dropped table's
    /// directory), counting each as an invalidation. Queries already holding
    /// one of its files keep their `Arc`.
    pub fn forget_dir(&self, dir: &Path) {
        let mut state = self.state.lock().unwrap();
        let before = state.entries.len();
        let mut freed = 0;
        state.entries.retain(|path, entry| {
            let keep = !path.starts_with(dir);
            if !keep {
                freed += entry.charge;
            }
            keep
        });
        state.resident_bytes -= freed;
        let forgotten = (before - state.entries.len()) as u64;
        self.invalidations.fetch_add(forgotten, Ordering::Relaxed);
    }

    /// Drop every resident entry (counters are kept).
    pub fn clear(&self) {
        let mut state = self.state.lock().unwrap();
        state.entries.clear();
        state.resident_bytes = 0;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MetaCacheStats {
        let (resident_bytes, resident_files) = {
            let state = self.state.lock().unwrap();
            (state.resident_bytes, state.entries.len() as u64)
        };
        MetaCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes,
            resident_files,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::file::{write_rows, WriteOptions};
    use crate::schema::{ColumnType, Field, Schema};

    fn temp_dir(name: &str) -> PathBuf {
        use std::time::{SystemTime, UNIX_EPOCH};
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        let dir = std::env::temp_dir().join(format!(
            "maxson-metacache-{}-{nanos}-{name}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn schema() -> Schema {
        Schema::new(vec![Field::new("v", ColumnType::Int64)]).unwrap()
    }

    fn write_part(dir: &Path, name: &str, rows: i64) -> PathBuf {
        let path = dir.join(name);
        let data: Vec<Vec<Cell>> = (0..rows).map(|i| vec![Cell::Int(i)]).collect();
        write_rows(&path, schema(), &data, WriteOptions::default()).unwrap();
        path
    }

    #[test]
    fn second_open_hits() {
        let dir = temp_dir("hits");
        let path = write_part(&dir, "a.norc", 10);
        let cache = NorcMetaCache::new(u64::MAX);
        let (f1, hit1) = cache.open(&path).unwrap();
        let (f2, hit2) = cache.open(&path).unwrap();
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&f1, &f2), "hit returns the same decoded file");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.resident_files, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn changed_file_invalidates() {
        let dir = temp_dir("inval");
        let path = write_part(&dir, "a.norc", 10);
        let cache = NorcMetaCache::new(u64::MAX);
        cache.open(&path).unwrap();
        // Rewrite with a different row count: length changes.
        write_part(&dir, "a.norc", 25);
        let (f, hit) = cache.open(&path).unwrap();
        assert!(!hit);
        assert_eq!(f.num_rows(), 25, "re-read sees the new contents");
        assert_eq!(cache.stats().invalidations, 1);
        // And the fresh entry hits again.
        assert!(cache.open(&path).unwrap().1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_evicts_least_recently_used() {
        let dir = temp_dir("evict");
        let a = write_part(&dir, "a.norc", 50);
        let b = write_part(&dir, "b.norc", 50);
        let c = write_part(&dir, "c.norc", 50);
        let one = NorcFile::open(&a).unwrap().heap_bytes() as u64;
        // Room for roughly two files.
        let cache = NorcMetaCache::new(one * 2 + one / 2);
        cache.open(&a).unwrap();
        cache.open(&b).unwrap();
        cache.open(&a).unwrap(); // a most recent → b is the LRU victim
        cache.open(&c).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.resident_files, 2);
        assert!(cache.open(&a).unwrap().1, "a survived");
        assert!(!cache.open(&b).unwrap().1, "b was evicted");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A cache whose cold opens use `mode` whatever `MAXSON_MMAP` says.
    fn pinned(budget_bytes: u64, mode: MmapMode) -> NorcMetaCache {
        NorcMetaCache {
            mmap: Some(mode),
            ..NorcMetaCache::new(budget_bytes)
        }
    }

    #[test]
    #[cfg(unix)]
    fn mapped_file_larger_than_budget_stays_resident() {
        let dir = temp_dir("mapped");
        let path = write_part(&dir, "a.norc", 5_000);
        let file = NorcFile::open_with(&path, MmapMode::Enabled).unwrap();
        assert!(file.is_mapped());
        let footer = file.heap_bytes() as u64;
        let budget = file.byte_size() as u64 / 4;
        assert!(
            footer <= budget,
            "footer {footer} B fits a quarter-file budget"
        );
        let cache = pinned(budget, MmapMode::Enabled);
        assert!(!cache.open(&path).unwrap().1);
        assert!(cache.open(&path).unwrap().1, "mapped file stays resident");
        let stats = cache.stats();
        assert_eq!((stats.resident_files, stats.evictions), (1, 0));
        assert_eq!(stats.resident_bytes, footer, "charged its footer only");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn copied_bodies_are_charged_and_evicted() {
        let dir = temp_dir("copied");
        let a = write_part(&dir, "a.norc", 5_000);
        let b = write_part(&dir, "b.norc", 5_000);
        let copied = NorcFile::open_with(&a, MmapMode::Disabled).unwrap();
        let one = copied.heap_bytes() as u64;
        assert!(one >= copied.byte_size() as u64, "charge covers the body");
        // Room for one copied file, not two.
        let cache = pinned(one + one / 2, MmapMode::Disabled);
        cache.open(&a).unwrap();
        cache.open(&b).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.resident_files, stats.evictions), (1, 1));
        assert_eq!(stats.resident_bytes, one);
        assert!(!cache.open(&a).unwrap().1, "a was evicted for b");
        // A body larger than the whole budget is never admitted.
        let small = pinned(one / 2, MmapMode::Disabled);
        small.open(&a).unwrap();
        assert!(!small.open(&a).unwrap().1);
        assert_eq!(small.stats().resident_files, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[cfg(unix)]
    fn working_set_larger_than_budget_hits_on_second_pass() {
        let dir = temp_dir("working-set");
        let paths: Vec<PathBuf> = (0..6)
            .map(|i| write_part(&dir, &format!("part-{i}.norc"), 2_000))
            .collect();
        let on_disk: u64 = paths
            .iter()
            .map(|p| std::fs::metadata(p).unwrap().len())
            .sum();
        let cache = pinned(on_disk / 3, MmapMode::Enabled);
        for p in &paths {
            assert!(!cache.open(p).unwrap().1);
        }
        for p in &paths {
            assert!(cache.open(p).unwrap().1, "{} missed", p.display());
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (6, 6, 0));
        assert!(stats.resident_bytes <= cache.budget_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn forget_dir_drops_only_that_directory() {
        let dir = temp_dir("forget");
        let t1 = dir.join("t1");
        let t2 = dir.join("t2");
        std::fs::create_dir_all(&t1).unwrap();
        std::fs::create_dir_all(&t2).unwrap();
        let a = write_part(&t1, "part-00000.norc", 10);
        let b = write_part(&t2, "part-00000.norc", 10);
        let cache = NorcMetaCache::new(u64::MAX);
        cache.open(&a).unwrap();
        cache.open(&b).unwrap();
        let keep = cache.stats().resident_bytes - NorcFile::open(&a).unwrap().heap_bytes() as u64;
        cache.forget_dir(&t1);
        let stats = cache.stats();
        assert_eq!((stats.resident_files, stats.invalidations), (1, 1));
        assert_eq!(stats.resident_bytes, keep);
        assert!(!cache.open(&a).unwrap().1, "forgotten entry misses");
        assert!(cache.open(&b).unwrap().1, "sibling table still hits");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_budget_never_resides() {
        let dir = temp_dir("zero");
        let path = write_part(&dir, "a.norc", 10);
        let cache = NorcMetaCache::new(0);
        assert!(!cache.open(&path).unwrap().1);
        assert!(!cache.open(&path).unwrap().1);
        assert_eq!(cache.stats().resident_files, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clear_drops_entries_keeps_counters() {
        let dir = temp_dir("clear");
        let path = write_part(&dir, "a.norc", 10);
        let cache = NorcMetaCache::new(u64::MAX);
        cache.open(&path).unwrap();
        cache.open(&path).unwrap();
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.resident_files, 0);
        assert_eq!(stats.hits, 1);
        assert!(!cache.open(&path).unwrap().1, "cold again after clear");
        std::fs::remove_dir_all(&dir).ok();
    }
}
