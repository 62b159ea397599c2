//! The content-addressed result cache.
//!
//! Two tiers: an in-process memo table holding [`Arc`]s of completed runs,
//! and an optional on-disk tier persisting [`RunStats`] — plus, for jobs
//! with a predictor zoo, the zoo's per-spec counts — as
//! `<cache-dir>/<runkey-hex>.bin` in a small self-describing binary format.
//! Keys cover the lowered IR, inputs, VM configuration, and zoo spec names
//! (see [`crate::key`]), so invalidation is automatic: changed work gets a
//! new key and simply never finds the old entry. Corrupted, truncated, or
//! version-skewed files are treated as misses, never errors; only damaged
//! ones count as corruption. Full runs and branch traces are never
//! persisted, so [`Need::FullRun`] and traced jobs always miss the disk.
//!
//! All file I/O goes through an [`mffault::Vfs`], so fault-injection
//! tests can exercise the failure paths deterministically: transient
//! errors are absorbed by a bounded retry, persistent store failures
//! degrade to recomputation, and torn or corrupt entries salvage to a
//! miss — the cache never takes a run (or the process) down with it.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mfdyn::{DynSpec, ZooCounts, ZooReport};
use mffault::{RealVfs, RetryPolicy, Vfs};
use trace_ir::BranchId;
use trace_vm::{BranchCounts, BreakEvents, PixieCounts, Run, RunStats};

use crate::job::{CacheSource, MissReason, Need, RunJob};
use crate::key::{fnv64, RunKey};

const MAGIC: &[u8; 4] = b"MFHC";
const FORMAT_VERSION: u8 = 2;

/// A decoded disk entry: the stats and, for a zoo job, its report.
type Decoded = (RunStats, Option<ZooReport>);

/// An in-memory cache entry: either the stats alone (e.g. loaded from
/// disk) or the full run.
#[derive(Clone, Debug)]
enum Entry {
    Stats(Arc<RunStats>),
    Full(Arc<Run>),
}

/// A cache lookup result ready to become a [`crate::RunOutcome`].
#[derive(Clone, Debug)]
pub struct CacheHit {
    /// The cached statistics.
    pub stats: Arc<RunStats>,
    /// The full run, when the memo table has it.
    pub run: Option<Arc<Run>>,
    /// Memory or disk.
    pub source: CacheSource,
    /// The zoo report rebuilt from a disk entry of a zoo job. `None` for
    /// plain jobs and for memory hits, whose report the harness already
    /// holds.
    pub zoo: Option<Arc<ZooReport>>,
}

/// The two-tier run cache. Thread-safe; shared by all workers of a batch.
#[derive(Debug)]
pub struct RunCache {
    mem: Mutex<HashMap<RunKey, Entry>>,
    disk: Option<PathBuf>,
    vfs: Arc<dyn Vfs>,
    retry: RetryPolicy,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    io_retries: AtomicU64,
    store_failures: AtomicU64,
    corrupt_misses: AtomicU64,
}

/// Snapshot of the cache's hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served by the in-process memo table.
    pub mem_hits: u64,
    /// Lookups served by the persistent tier.
    pub disk_hits: u64,
    /// Lookups that fell through to execution.
    pub misses: u64,
}

/// Snapshot of the cache's fault-handling counters — how much I/O
/// weather it absorbed without surfacing an error.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheRobustness {
    /// Transient I/O errors absorbed by retrying.
    pub io_retries: u64,
    /// Persist attempts that gave up (the result stayed in memory and
    /// will simply be recomputed by the next process).
    pub store_failures: u64,
    /// Entries that were read but failed validation (torn, corrupt, or
    /// inconsistent) and salvaged to a miss. Entries of another format
    /// version are stale, not corrupt, and are not counted here.
    pub corrupt_misses: u64,
}

impl RunCache {
    /// A purely in-process cache (no persistence).
    pub fn in_memory() -> Self {
        RunCache {
            mem: Mutex::new(HashMap::new()),
            disk: None,
            vfs: Arc::new(RealVfs),
            retry: RetryPolicy::none(),
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            io_retries: AtomicU64::new(0),
            store_failures: AtomicU64::new(0),
            corrupt_misses: AtomicU64::new(0),
        }
    }

    /// A cache persisting stats under `dir` (created on first store).
    pub fn with_disk(dir: PathBuf) -> Self {
        RunCache {
            disk: Some(dir),
            ..RunCache::in_memory()
        }
    }

    /// A persisting cache over an explicit [`Vfs`] and retry policy —
    /// the injection point for fault plans and in-memory filesystems.
    pub fn with_disk_on(vfs: Arc<dyn Vfs>, dir: PathBuf, retry: RetryPolicy) -> Self {
        RunCache {
            disk: Some(dir),
            vfs,
            retry,
            ..RunCache::in_memory()
        }
    }

    /// The persistent tier's directory, if enabled.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk.as_deref()
    }

    /// Looks `job` up; a hit must satisfy the job's [`Need`]. A miss says
    /// why the cache could not serve the job.
    pub fn lookup(&self, job: &RunJob) -> Result<CacheHit, MissReason> {
        {
            let mem = self.mem.lock().expect("cache lock");
            match mem.get(&job.key) {
                Some(Entry::Full(run)) => {
                    self.mem_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(CacheHit {
                        stats: Arc::new(run.stats.clone()),
                        run: Some(Arc::clone(run)),
                        source: CacheSource::Memory,
                        zoo: None,
                    });
                }
                Some(Entry::Stats(stats)) if job.need == Need::Stats => {
                    self.mem_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(CacheHit {
                        stats: Arc::clone(stats),
                        run: None,
                        source: CacheSource::Memory,
                        zoo: None,
                    });
                }
                _ => {}
            }
        }
        let result = match &self.disk {
            None => Err(MissReason::NoDiskTier),
            Some(_) if job.config.record_branch_trace => Err(MissReason::Traced),
            Some(_) if job.need == Need::FullRun => Err(MissReason::FullRunNeeded),
            Some(dir) => {
                self.load(&entry_path(dir, job.key), job.key, &job.zoo)
                    .map(|(stats, zoo)| {
                        let stats = Arc::new(stats);
                        self.disk_hits.fetch_add(1, Ordering::Relaxed);
                        self.mem
                            .lock()
                            .expect("cache lock")
                            .entry(job.key)
                            .or_insert_with(|| Entry::Stats(Arc::clone(&stats)));
                        CacheHit {
                            stats,
                            run: None,
                            source: CacheSource::Disk,
                            zoo: zoo.map(Arc::new),
                        }
                    })
            }
        };
        if result.is_err() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Records a freshly computed run and, with a disk tier, persists its
    /// stats — and, for a zoo job, the counts of `zoo`, its report. Traced
    /// runs are not persisted (the trace itself is not, and stats of a
    /// traced config belong to a different key than the untraced one
    /// anyway). Neither is a job whose report does not match its spec
    /// list — notably a zoo job run by a custom executor that ignores
    /// zoos: a report-less entry could not serve the next process.
    pub fn insert(&self, job: &RunJob, run: &Arc<Run>, zoo: Option<&ZooReport>) {
        self.mem
            .lock()
            .expect("cache lock")
            .insert(job.key, Entry::Full(Arc::clone(run)));
        let Some(dir) = &self.disk else { return };
        if job.config.record_branch_trace {
            return;
        }
        let entries = zoo.map_or(&[][..], |report| &report.entries[..]);
        if !entries
            .iter()
            .map(|&(spec, _)| spec)
            .eq(job.zoo.iter().copied())
        {
            return;
        }
        let counts: Vec<ZooCounts> = entries.iter().map(|&(_, counts)| counts).collect();
        // Persistence is best-effort: a read-only target dir must not fail
        // the run.
        let _ = self.store(dir, job.key, &run.stats, &counts);
    }

    /// Counter snapshot.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Fault-handling counter snapshot.
    pub fn robustness(&self) -> CacheRobustness {
        CacheRobustness {
            io_retries: self.io_retries.load(Ordering::Relaxed),
            store_failures: self.store_failures.load(Ordering::Relaxed),
            corrupt_misses: self.corrupt_misses.load(Ordering::Relaxed),
        }
    }

    /// Retries `op` under the cache's policy, accounting the retries.
    fn io<T>(&self, op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let (result, used) = mffault::retry(self.retry, op);
        self.io_retries
            .fetch_add(u64::from(used), Ordering::Relaxed);
        result
    }

    /// Persists one entry via write-then-rename. Failures are counted and
    /// reported but never escalate past the caller's best-effort intent.
    fn store(
        &self,
        dir: &Path,
        key: RunKey,
        stats: &RunStats,
        zoo: &[ZooCounts],
    ) -> io::Result<()> {
        let result = self.store_inner(dir, key, stats, zoo);
        if result.is_err() {
            self.store_failures.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn store_inner(
        &self,
        dir: &Path,
        key: RunKey,
        stats: &RunStats,
        zoo: &[ZooCounts],
    ) -> io::Result<()> {
        self.io(|| self.vfs.create_dir_all(dir))?;
        let buf = encode_entry(key, stats, zoo);

        // Unique temp names (pid + process-wide serial) so concurrent
        // writers — threads here, or two repro processes sharing one
        // cache directory — never collide on the staging file; the final
        // rename is atomic, so readers see old bytes or new, never torn.
        static TMP_SERIAL: AtomicU64 = AtomicU64::new(0);
        let tmp = dir.join(format!(
            "{}.tmp.{}.{}",
            key.hex(),
            std::process::id(),
            TMP_SERIAL.fetch_add(1, Ordering::Relaxed)
        ));
        if let Err(e) = self.io(|| self.vfs.write(&tmp, &buf)) {
            let _ = self.vfs.remove_file(&tmp);
            return Err(e);
        }
        let result = self.io(|| self.vfs.rename(&tmp, &entry_path(dir, key)));
        if result.is_err() {
            let _ = self.vfs.remove_file(&tmp);
        }
        result
    }

    /// Loads and validates one entry for a job observed by `zoo`; any
    /// defect yields a miss, never a panic. An unreadable file is
    /// [`MissReason::Absent`] and another format version
    /// [`MissReason::StaleFormat`]; everything else (bad magic, key
    /// mismatch, truncation, checksum failure, inconsistent counters, a
    /// zoo section that does not fit `zoo`) is [`MissReason::Corrupt`] and
    /// counted as such.
    fn load(&self, path: &Path, key: RunKey, zoo: &[DynSpec]) -> Result<Decoded, MissReason> {
        let bytes = self
            .io(|| self.vfs.read(path))
            .map_err(|_| MissReason::Absent)?;
        let decoded = decode_entry(&bytes, key, zoo);
        if matches!(decoded, Err(MissReason::Corrupt)) {
            self.corrupt_misses.fetch_add(1, Ordering::Relaxed);
        }
        decoded
    }
}

fn entry_path(dir: &Path, key: RunKey) -> PathBuf {
    dir.join(format!("{}.bin", key.hex()))
}

// ---------------------------------------------------------------------
// The on-disk codec: little-endian, length-prefixed, checksummed.
//
//   MFHC <version:u8> <key:16B> <payload> <fnv64-of-everything-before:8B>
//
// Payload (version 2): total_instrs, branch table, break events, pixie
// block counts, then the zoo section: n, then n × (executed,
// mispredicted) in `RunJob::zoo` order. n is 0 for plain jobs; the spec
// list itself is not stored, since the key already covers it.
// ---------------------------------------------------------------------

fn encode_entry(key: RunKey, stats: &RunStats, zoo: &[ZooCounts]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    buf.extend_from_slice(MAGIC);
    buf.push(FORMAT_VERSION);
    buf.extend_from_slice(&key.0.to_le_bytes());
    put_u64(&mut buf, stats.total_instrs);
    let branches: Vec<(BranchId, u64, u64)> = stats.branches.iter().collect();
    put_u64(&mut buf, branches.len() as u64);
    for (id, executed, taken) in branches {
        put_u64(&mut buf, u64::from(id.0));
        put_u64(&mut buf, executed);
        put_u64(&mut buf, taken);
    }
    let e = &stats.events;
    for v in [
        e.jumps,
        e.indirect_jumps,
        e.direct_calls,
        e.direct_returns,
        e.indirect_calls,
        e.indirect_returns,
        e.selects,
    ] {
        put_u64(&mut buf, v);
    }
    put_u64(&mut buf, stats.pixie.blocks.len() as u64);
    for func in &stats.pixie.blocks {
        put_u64(&mut buf, func.len() as u64);
        for &count in func {
            put_u64(&mut buf, count);
        }
    }
    put_u64(&mut buf, zoo.len() as u64);
    for c in zoo {
        put_u64(&mut buf, c.executed);
        put_u64(&mut buf, c.mispredicted);
    }
    let checksum = fnv64(&buf);
    put_u64(&mut buf, checksum);
    buf
}

/// Decodes an entry for a job observed by `zoo`. Magic and version are
/// checked before the checksum, so an entry of another format version is
/// stale rather than corrupt.
fn decode_entry(bytes: &[u8], key: RunKey, zoo: &[DynSpec]) -> Result<Decoded, MissReason> {
    match bytes.get(..MAGIC.len() + 1) {
        Some(head) if head[..MAGIC.len()] == MAGIC[..] && head[MAGIC.len()] != FORMAT_VERSION => {
            Err(MissReason::StaleFormat)
        }
        _ => decode_current(bytes, key, zoo).ok_or(MissReason::Corrupt),
    }
}

fn decode_current(bytes: &[u8], key: RunKey, zoo: &[DynSpec]) -> Option<Decoded> {
    if bytes.len() < MAGIC.len() + 1 + 16 + 8 {
        return None;
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored_sum = u64::from_le_bytes(tail.try_into().ok()?);
    if fnv64(body) != stored_sum {
        return None;
    }
    let mut r = Reader {
        bytes: body,
        pos: 0,
    };
    if r.take(4)? != &MAGIC[..] || r.take(1)?[0] != FORMAT_VERSION {
        return None;
    }
    let stored_key = u128::from_le_bytes(r.take(16)?.try_into().ok()?);
    if stored_key != key.0 {
        return None;
    }
    let total_instrs = r.u64()?;
    let n_branches = r.u64()?;
    let mut branches = BranchCounts::new();
    for _ in 0..n_branches {
        let id = u32::try_from(r.u64()?).ok()?;
        let executed = r.u64()?;
        let taken = r.u64()?;
        if taken > executed {
            return None;
        }
        branches.add(BranchId(id), executed, taken);
    }
    let events = BreakEvents {
        jumps: r.u64()?,
        indirect_jumps: r.u64()?,
        direct_calls: r.u64()?,
        direct_returns: r.u64()?,
        indirect_calls: r.u64()?,
        indirect_returns: r.u64()?,
        selects: r.u64()?,
    };
    let n_funcs = r.u64()?;
    let mut blocks = Vec::with_capacity(usize::try_from(n_funcs).ok()?.min(1 << 16));
    for _ in 0..n_funcs {
        let n_blocks = usize::try_from(r.u64()?).ok()?;
        let mut func = Vec::with_capacity(n_blocks.min(1 << 16));
        for _ in 0..n_blocks {
            func.push(r.u64()?);
        }
        blocks.push(func);
    }
    if r.u64()? != zoo.len() as u64 {
        return None;
    }
    let mut entries = Vec::with_capacity(zoo.len());
    for &spec in zoo {
        let executed = r.u64()?;
        let mispredicted = r.u64()?;
        if mispredicted > executed {
            return None;
        }
        entries.push((
            spec,
            ZooCounts {
                executed,
                mispredicted,
            },
        ));
    }
    if r.pos != r.bytes.len() {
        return None; // trailing garbage
    }
    let stats = RunStats {
        total_instrs,
        branches,
        events,
        pixie: PixieCounts { blocks },
    };
    Some((stats, (!zoo.is_empty()).then_some(ZooReport { entries })))
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Some(slice)
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffault::{FaultPlan, FaultVfs, MemVfs};

    fn sample_stats() -> RunStats {
        let mut branches = BranchCounts::new();
        branches.add(BranchId(0), 100, 40);
        branches.add(BranchId(7), 5, 5);
        RunStats {
            total_instrs: 12_345,
            branches,
            events: BreakEvents {
                jumps: 1,
                indirect_jumps: 2,
                direct_calls: 3,
                direct_returns: 4,
                indirect_calls: 5,
                indirect_returns: 6,
                selects: 7,
            },
            pixie: PixieCounts {
                blocks: vec![vec![10, 20], vec![], vec![30]],
            },
        }
    }

    /// Made-up counts for every spec of the full zoo.
    fn sample_zoo() -> (Vec<DynSpec>, Vec<ZooCounts>) {
        let specs = mfdyn::full_zoo();
        let counts = (0..specs.len() as u64)
            .map(|i| ZooCounts {
                executed: 105,
                mispredicted: 3 * i,
            })
            .collect();
        (specs, counts)
    }

    fn mem_cache() -> (Arc<MemVfs>, RunCache) {
        let mem = Arc::new(MemVfs::new());
        let cache = RunCache::with_disk_on(
            mem.clone() as Arc<dyn Vfs>,
            PathBuf::from("/cache"),
            RetryPolicy::none(),
        );
        (mem, cache)
    }

    #[test]
    fn codec_roundtrips_exactly() {
        let (_, cache) = mem_cache();
        let key = RunKey(42);
        let stats = sample_stats();
        cache.store(Path::new("/cache"), key, &stats, &[]).unwrap();
        let loaded = cache
            .load(&entry_path(Path::new("/cache"), key), key, &[])
            .unwrap();
        assert_eq!(loaded, (stats.clone(), None));

        let (specs, counts) = sample_zoo();
        let zoo_key = RunKey(43);
        cache
            .store(Path::new("/cache"), zoo_key, &stats, &counts)
            .unwrap();
        let (loaded, report) = cache
            .load(&entry_path(Path::new("/cache"), zoo_key), zoo_key, &specs)
            .unwrap();
        assert_eq!(loaded, stats);
        let expected: Vec<(DynSpec, ZooCounts)> = specs.into_iter().zip(counts).collect();
        assert_eq!(report, Some(ZooReport { entries: expected }));
        assert_eq!(cache.robustness(), CacheRobustness::default());
    }

    #[test]
    fn every_truncation_is_a_miss() {
        let (specs, counts) = sample_zoo();
        for (key, zoo, counts) in [
            (RunKey(9), &[][..], &[][..]),
            (RunKey(10), &specs[..], &counts[..]),
        ] {
            let full = encode_entry(key, &sample_stats(), counts);
            for len in 0..full.len() {
                assert!(decode_entry(&full[..len], key, zoo).is_err(), "len {len}");
            }
            assert!(decode_entry(&full, key, zoo).is_ok());
        }
    }

    #[test]
    fn flipped_bytes_and_wrong_keys_are_misses() {
        let (specs, counts) = sample_zoo();
        for (key, zoo, counts) in [
            (RunKey(77), &[][..], &[][..]),
            (RunKey(79), &specs[..], &counts[..]),
        ] {
            let full = encode_entry(key, &sample_stats(), counts);
            for i in 0..full.len() {
                let mut bad = full.clone();
                bad[i] ^= 0x41;
                assert!(decode_entry(&bad, key, zoo).is_err(), "byte {i}");
            }
            assert!(decode_entry(&full, RunKey(78), zoo).is_err(), "wrong key");
        }
    }

    #[test]
    fn zoo_sections_that_do_not_fit_the_job_are_corrupt() {
        let (specs, counts) = sample_zoo();
        let key = RunKey(11);
        let stats = sample_stats();
        let corrupt = Err(MissReason::Corrupt);
        // Checksums are valid throughout: only the zoo section is wrong.
        let short = encode_entry(key, &stats, &counts[1..]);
        assert_eq!(decode_entry(&short, key, &specs), corrupt, "count too low");
        let plain = encode_entry(key, &stats, &[]);
        assert_eq!(decode_entry(&plain, key, &specs), corrupt, "report-less");
        let zooed = encode_entry(key, &stats, &counts);
        assert_eq!(decode_entry(&zooed, key, &[]), corrupt, "unexpected zoo");
        let mut impossible = counts.clone();
        impossible[2] = ZooCounts {
            executed: 5,
            mispredicted: 6,
        };
        let impossible = encode_entry(key, &stats, &impossible);
        assert_eq!(
            decode_entry(&impossible, key, &specs),
            corrupt,
            "mispredicted > executed"
        );
    }

    #[test]
    fn a_checksummed_huge_length_is_a_miss_not_a_panic() {
        let key = RunKey(13);
        let mut bytes = encode_entry(key, &sample_stats(), &[]);
        // Header, total_instrs, the 2-entry branch table, 7 break events:
        // the pixie function count comes next.
        let n_funcs_at = MAGIC.len() + 1 + 16 + 8 + 8 + 2 * 24 + 7 * 8;
        bytes[n_funcs_at..n_funcs_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let body = bytes.len() - 8;
        let checksum = fnv64(&bytes[..body]);
        bytes[body..].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(decode_entry(&bytes, key, &[]), Err(MissReason::Corrupt));
    }

    #[test]
    fn old_format_entries_are_stale_not_corrupt() {
        let (mem, cache) = mem_cache();
        let key = RunKey(12);
        let path = entry_path(Path::new("/cache"), key);
        // A version-1 entry: the version-2 layout without its zoo section.
        let v2 = encode_entry(key, &sample_stats(), &[]);
        let mut v1 = v2[..v2.len() - 16].to_vec();
        v1[MAGIC.len()] = 1;
        let checksum = fnv64(&v1);
        put_u64(&mut v1, checksum);
        mem.create_dir_all(Path::new("/cache")).unwrap();
        mem.write(&path, &v1).unwrap();
        assert_eq!(cache.load(&path, key, &[]), Err(MissReason::StaleFormat));
        assert_eq!(cache.robustness().corrupt_misses, 0);
    }

    #[test]
    fn corrupt_entries_salvage_to_counted_misses() {
        let (mem, cache) = mem_cache();
        let key = RunKey(5);
        let path = entry_path(Path::new("/cache"), key);
        cache
            .store(Path::new("/cache"), key, &sample_stats(), &[])
            .unwrap();
        let mut bytes = mem.read(&path).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0xFF;
        mem.write(&path, &bytes).unwrap();
        assert_eq!(cache.load(&path, key, &[]), Err(MissReason::Corrupt));
        assert_eq!(cache.robustness().corrupt_misses, 1);
        // A missing file is a plain miss, not corruption.
        assert_eq!(
            cache.load(Path::new("/cache/nope.bin"), key, &[]),
            Err(MissReason::Absent)
        );
        assert_eq!(cache.robustness().corrupt_misses, 1);
    }

    #[test]
    fn denied_writes_fail_the_store_but_only_the_store() {
        let mem = Arc::new(MemVfs::new());
        let fv = Arc::new(FaultVfs::new(mem as Arc<dyn Vfs>, FaultPlan::deny_writes()));
        let cache = RunCache::with_disk_on(
            fv as Arc<dyn Vfs>,
            PathBuf::from("/cache"),
            RetryPolicy::none(),
        );
        assert!(cache
            .store(Path::new("/cache"), RunKey(1), &sample_stats(), &[])
            .is_err());
        assert_eq!(cache.robustness().store_failures, 1);
    }

    #[test]
    fn transient_faults_are_retried_away() {
        let mem = Arc::new(MemVfs::new());
        let fv = Arc::new(FaultVfs::new(
            mem.clone() as Arc<dyn Vfs>,
            FaultPlan::transient(3, 250),
        ));
        let cache = RunCache::with_disk_on(
            fv as Arc<dyn Vfs>,
            PathBuf::from("/cache"),
            RetryPolicy::immediate(6),
        );
        for k in 0..10u128 {
            cache
                .store(Path::new("/cache"), RunKey(k), &sample_stats(), &[])
                .unwrap_or_else(|e| panic!("store {k} failed: {e}"));
            assert!(cache
                .load(&entry_path(Path::new("/cache"), RunKey(k)), RunKey(k), &[])
                .is_ok());
        }
        assert!(
            cache.robustness().io_retries > 0,
            "a 250 per-mille transient plan should have injected something"
        );
        assert_eq!(cache.robustness().store_failures, 0);
    }

    /// Regression guard for the tmp-file protocol: many concurrent
    /// writers — split across two caches sharing one directory, the
    /// moral equivalent of two processes — never collide on staging
    /// names, never leave droppings, and every surviving entry is valid.
    #[test]
    fn concurrent_writers_share_a_directory_without_tearing() {
        let mem = Arc::new(MemVfs::new());
        let a = Arc::new(RunCache::with_disk_on(
            mem.clone() as Arc<dyn Vfs>,
            PathBuf::from("/cache"),
            RetryPolicy::none(),
        ));
        let b = Arc::new(RunCache::with_disk_on(
            mem.clone() as Arc<dyn Vfs>,
            PathBuf::from("/cache"),
            RetryPolicy::none(),
        ));
        let stats = sample_stats();
        std::thread::scope(|scope| {
            for t in 0..4u128 {
                let cache = if t % 2 == 0 {
                    Arc::clone(&a)
                } else {
                    Arc::clone(&b)
                };
                let stats = &stats;
                scope.spawn(move || {
                    for i in 0..25u128 {
                        // Overlapping key ranges force same-key races.
                        let key = RunKey((t % 2) * 1000 + i);
                        cache.store(Path::new("/cache"), key, stats, &[]).unwrap();
                    }
                });
            }
        });
        let listing = mem.read_dir(Path::new("/cache")).unwrap();
        assert!(
            listing
                .iter()
                .all(|p| !p.to_string_lossy().contains(".tmp.")),
            "staging files left behind: {listing:?}"
        );
        for i in 0..25u128 {
            for base in [0u128, 1000] {
                let key = RunKey(base + i);
                assert_eq!(
                    a.load(&entry_path(Path::new("/cache"), key), key, &[]),
                    Ok((stats.clone(), None)),
                    "entry {key:?} torn or lost"
                );
            }
        }
        assert_eq!(a.robustness().corrupt_misses, 0);
    }
}
