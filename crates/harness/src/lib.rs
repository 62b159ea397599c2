//! # mfharness — the experiment execution engine
//!
//! Every measured run in the evaluation matrix — `(program, dataset,
//! vm-config)` — is a [`RunJob`] with a stable content-addressed
//! [`RunKey`]. A [`Harness`] deduplicates submitted jobs, serves repeats
//! from a two-tier cache (in-process memo table plus an optional on-disk
//! store of [`trace_vm::RunStats`] and predictor-zoo counts), and executes
//! the remainder on a dependency-free work-stealing thread pool. Results
//! always come back in submission order, so downstream tables and figures
//! are bit-identical whether the matrix ran on one worker or eight.
//!
//! Knobs (also surfaced as `repro` flags):
//!
//! * `MFHARNESS_JOBS` — worker thread count (default: available
//!   parallelism, clamped to 8).
//! * `MFHARNESS_CACHE` — `off`/`0` disables the persistent tier; any
//!   other value is used as the cache directory. Default:
//!   `target/mfharness-cache/`.
//! * `MFHARNESS_VERIFY` — any value other than `off`/`0`/empty runs the
//!   `mfcheck` semantic verifier over every unique job's program and
//!   stamps its digest on the run record (cache hits included).
//!
//! Observability — per-run timing, guest-instructions-per-second, cache
//! hit/miss counters and the reason each computed job missed, worker
//! utilization — accumulates in a
//! [`HarnessReport`] available from [`Harness::report`].

mod cache;
mod job;
mod key;
mod pool;
mod report;

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mffault::{FaultPlan, FaultVfs, RealVfs, RetryPolicy, Vfs};
use trace_vm::{Run, RuntimeError};

pub use cache::{CacheCounters, CacheHit, CacheRobustness, RunCache};
pub use job::{CacheSource, MissReason, Need, RunJob, RunOutcome};
pub use key::{fnv64, Fingerprint, RunKey};
pub use pool::{default_workers, run_indexed, run_indexed_supervised, PoolStats};
pub use report::{HarnessReport, RobustnessReport, RunRecord};

/// Persistent-cache configuration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum DiskCache {
    /// `target/mfharness-cache/` next to the workspace build directory.
    #[default]
    Default,
    /// In-process memoization only.
    Off,
    /// An explicit directory.
    Dir(PathBuf),
}

/// Construction-time options for a [`Harness`].
#[derive(Clone, Debug, Default)]
pub struct HarnessOptions {
    /// Worker thread count; `None` means [`default_workers`].
    pub jobs: Option<usize>,
    /// Persistent-cache mode.
    pub disk_cache: DiskCache,
    /// Run the semantic verifier over every unique job's program and stamp
    /// the digest on its [`RunRecord`] — including cache hits, so results
    /// loaded from disk are still re-checked against today's verifier.
    pub verify: bool,
    /// Bounded retry budget for transient cache I/O errors (`None` = the
    /// default of 2).
    pub io_retries: Option<u32>,
    /// Wrap all cache I/O in a seeded [`mffault::FaultVfs`] — the
    /// fault-injection mode behind `repro --fault-seed`. Cache failures
    /// degrade to recomputation, so results are unchanged; only the
    /// robustness counters tell the difference.
    pub fault_seed: Option<u64>,
}

impl HarnessOptions {
    /// Reads `MFHARNESS_JOBS`, `MFHARNESS_CACHE`, and `MFHARNESS_VERIFY`
    /// from the environment.
    pub fn from_env() -> Self {
        let jobs = std::env::var("MFHARNESS_JOBS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1);
        let disk_cache = match std::env::var("MFHARNESS_CACHE") {
            Err(_) => DiskCache::Default,
            Ok(v) if v.trim().is_empty() || v.trim() == "off" || v.trim() == "0" => DiskCache::Off,
            Ok(v) => DiskCache::Dir(PathBuf::from(v)),
        };
        let verify = match std::env::var("MFHARNESS_VERIFY") {
            Err(_) => false,
            Ok(v) => !matches!(v.trim(), "" | "0" | "off"),
        };
        let io_retries = std::env::var("MFHARNESS_IO_RETRIES")
            .ok()
            .and_then(|v| v.trim().parse::<u32>().ok());
        let fault_seed = std::env::var("MFHARNESS_FAULT_SEED")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok());
        HarnessOptions {
            jobs,
            disk_cache,
            verify,
            io_retries,
            fault_seed,
        }
    }
}

/// The workspace-relative default cache directory, honoring
/// `CARGO_TARGET_DIR` when the build was redirected.
pub fn default_cache_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
                .join("target")
        });
    target.join("mfharness-cache")
}

/// A run failed; carries the failing job's label and the VM error.
#[derive(Debug)]
pub enum HarnessError {
    /// The guest program faulted (or exhausted fuel/stack/alloc budgets).
    Run {
        /// `program/dataset` label of the failing job.
        label: String,
        /// The underlying VM error.
        error: RuntimeError,
    },
    /// A run panicked inside a worker. The pool survived (every other job
    /// of the batch ran to completion and was cached); the panicking key
    /// is quarantined so resubmission fails fast instead of re-panicking.
    Panicked {
        /// `program/dataset` label of the poisoned job.
        label: String,
        /// The panic message, as captured by the supervisor.
        detail: String,
    },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Run { label, error } => write!(f, "run {label} failed: {error}"),
            HarnessError::Panicked { label, detail } => {
                write!(f, "run {label} panicked (quarantined): {detail}")
            }
        }
    }
}

impl std::error::Error for HarnessError {}

/// The deduplicating, caching, parallel run executor.
#[derive(Debug)]
pub struct Harness {
    jobs: usize,
    verify: bool,
    cache: RunCache,
    records: Mutex<Vec<RunRecord>>,
    jobs_submitted: AtomicU64,
    unique_jobs: AtomicU64,
    workers_seen: AtomicUsize,
    wall_ns: AtomicU64,
    busy_ns: AtomicU64,
    panics: AtomicU64,
    quarantine: Mutex<HashMap<RunKey, (String, String)>>,
    /// Predictor-zoo reports keyed by job key — the in-process companion
    /// to the memo table for jobs with a non-empty [`RunJob::zoo`]. Filled
    /// by the default executor on compute and by disk hits (which rebuild
    /// the report from the entry), so a memo hit can always find its
    /// report here; [`RunCache::insert`] persists a zoo job only with it.
    zoo_memo: Mutex<HashMap<RunKey, Arc<mfdyn::ZooReport>>>,
}

impl Harness {
    /// Builds a harness from explicit options.
    pub fn new(options: HarnessOptions) -> Self {
        let retry = RetryPolicy::immediate(options.io_retries.unwrap_or(2));
        let vfs: Arc<dyn Vfs> = match options.fault_seed {
            Some(seed) => Arc::new(FaultVfs::new(
                Arc::new(RealVfs) as Arc<dyn Vfs>,
                FaultPlan::from_seed(seed),
            )),
            None => Arc::new(RealVfs),
        };
        let cache = match options.disk_cache {
            DiskCache::Off => RunCache::in_memory(),
            DiskCache::Default => RunCache::with_disk_on(vfs, default_cache_dir(), retry),
            DiskCache::Dir(dir) => RunCache::with_disk_on(vfs, dir, retry),
        };
        Harness {
            jobs: options.jobs.unwrap_or_else(default_workers),
            verify: options.verify,
            cache,
            records: Mutex::new(Vec::new()),
            jobs_submitted: AtomicU64::new(0),
            unique_jobs: AtomicU64::new(0),
            workers_seen: AtomicUsize::new(0),
            wall_ns: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            quarantine: Mutex::new(HashMap::new()),
            zoo_memo: Mutex::new(HashMap::new()),
        }
    }

    /// Builds a harness configured from the environment.
    pub fn from_env() -> Self {
        Harness::new(HarnessOptions::from_env())
    }

    /// A harness with no persistent tier — what tests should use.
    pub fn in_memory() -> Self {
        Harness::new(HarnessOptions {
            jobs: None,
            disk_cache: DiskCache::Off,
            ..HarnessOptions::default()
        })
    }

    /// Worker thread count this harness schedules with.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Whether run records carry a semantic-verification digest.
    pub fn verify(&self) -> bool {
        self.verify
    }

    /// The persistent cache directory, if the tier is enabled.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache.disk_dir()
    }

    /// Executes a batch. Jobs with equal keys are collapsed to one
    /// execution (the strongest [`Need`] wins); cache hits skip execution
    /// entirely. The returned vector is index-aligned with `batch`.
    ///
    /// Jobs with a non-empty [`RunJob::zoo`] run with the `mfdyn` online
    /// predictors attached (pure observation — stats are bit-identical to
    /// an unobserved run) and come back with [`RunOutcome::zoo`] filled.
    pub fn run(&self, batch: Vec<RunJob>) -> Result<Vec<RunOutcome>, HarnessError> {
        self.run_with(batch, |job| self.exec_default(job))
    }

    /// The default executor: a plain VM run, or — when the job carries a
    /// predictor zoo — a [`trace_vm::Vm::run_branches`] run with the zoo
    /// attached, its report parked in the zoo memo for outcome assembly.
    fn exec_default(&self, job: &RunJob) -> Result<Run, RuntimeError> {
        if job.zoo.is_empty() {
            return trace_vm::run_program(&job.program, job.config, &job.inputs);
        }
        let mut zoo = mfdyn::Zoo::for_program(&job.zoo, &job.program);
        let run = trace_vm::Vm::with_config(&job.program, job.config)
            .run_branches(&job.inputs, &mut zoo)?;
        self.zoo_memo
            .lock()
            .expect("zoo memo lock")
            .insert(job.key, Arc::new(zoo.report()));
        Ok(run)
    }

    /// [`Harness::run`] with an explicit executor — the seam supervision
    /// tests (and alternative backends) plug into. `exec` runs on pool
    /// workers under `catch_unwind`; a panic inside it becomes
    /// [`HarnessError::Panicked`] and quarantines the job's key rather
    /// than killing the pool or poisoning the harness.
    pub fn run_with<E>(&self, batch: Vec<RunJob>, exec: E) -> Result<Vec<RunOutcome>, HarnessError>
    where
        E: Fn(&RunJob) -> Result<Run, RuntimeError> + Sync,
    {
        self.jobs_submitted
            .fetch_add(batch.len() as u64, Ordering::Relaxed);

        // Deduplicate: first occurrence of a key owns the work; later
        // occurrences only strengthen its Need.
        let mut unique: Vec<RunJob> = Vec::new();
        let mut index_of: HashMap<RunKey, usize> = HashMap::new();
        let mut fanout: Vec<usize> = Vec::with_capacity(batch.len());
        for job in batch {
            match index_of.get(&job.key) {
                Some(&i) => {
                    if job.need > unique[i].need {
                        unique[i].need = job.need;
                    }
                    fanout.push(i);
                }
                None => {
                    let i = unique.len();
                    index_of.insert(job.key, i);
                    fanout.push(i);
                    unique.push(job);
                }
            }
        }
        self.unique_jobs
            .fetch_add(unique.len() as u64, Ordering::Relaxed);

        // Quarantined keys fail fast: a job that already panicked once is
        // not given a second chance to take a worker down.
        {
            let quarantine = self.quarantine.lock().expect("quarantine lock");
            for job in &unique {
                if let Some((label, detail)) = quarantine.get(&job.key) {
                    return Err(HarnessError::Panicked {
                        label: label.clone(),
                        detail: detail.clone(),
                    });
                }
            }
        }

        // Cache pass (serial, submission order — keeps counter totals and
        // record order deterministic), then pooled execution of misses.
        let mut resolved: Vec<Option<RunOutcome>> = Vec::with_capacity(unique.len());
        let mut misses: Vec<Option<MissReason>> = Vec::with_capacity(unique.len());
        let mut to_run: Vec<usize> = Vec::new();
        for (i, job) in unique.iter().enumerate() {
            match self.cache.lookup(job) {
                Ok(hit) => {
                    if let Some(report) = hit.zoo {
                        self.zoo_memo
                            .lock()
                            .expect("zoo memo lock")
                            .insert(job.key, report);
                    }
                    resolved.push(Some(RunOutcome {
                        label: job.label(),
                        key: job.key,
                        stats: hit.stats,
                        run: hit.run,
                        source: hit.source,
                        wall: std::time::Duration::ZERO,
                        zoo: None,
                    }));
                    misses.push(None);
                }
                Err(reason) => {
                    to_run.push(i);
                    resolved.push(None);
                    misses.push(Some(reason));
                }
            }
        }

        if !to_run.is_empty() {
            let (executed, stats) = pool::run_indexed_supervised(self.jobs, to_run.len(), |slot| {
                let job = &unique[to_run[slot]];
                let t0 = Instant::now();
                let result = exec(job);
                (result.map(Arc::new), t0.elapsed())
            });
            self.workers_seen
                .fetch_max(stats.workers, Ordering::Relaxed);
            self.wall_ns
                .fetch_add(stats.wall.as_nanos() as u64, Ordering::Relaxed);
            self.busy_ns.fetch_add(
                stats.busy.iter().map(|d| d.as_nanos() as u64).sum::<u64>(),
                Ordering::Relaxed,
            );
            // Every slot is drained before the first error is surfaced, so
            // all completed work lands in the cache and every panic of the
            // batch is quarantined — not just the first one.
            let mut first_error: Option<HarnessError> = None;
            for (slot, outcome) in executed.into_iter().enumerate() {
                let i = to_run[slot];
                let job = &unique[i];
                match outcome {
                    Err(detail) => {
                        self.panics.fetch_add(1, Ordering::Relaxed);
                        self.quarantine
                            .lock()
                            .expect("quarantine lock")
                            .insert(job.key, (job.label(), detail.clone()));
                        if first_error.is_none() {
                            first_error = Some(HarnessError::Panicked {
                                label: job.label(),
                                detail,
                            });
                        }
                    }
                    Ok((Err(error), _)) => {
                        if first_error.is_none() {
                            first_error = Some(HarnessError::Run {
                                label: job.label(),
                                error,
                            });
                        }
                    }
                    Ok((Ok(run), wall)) => {
                        let report = self
                            .zoo_memo
                            .lock()
                            .expect("zoo memo lock")
                            .get(&job.key)
                            .cloned();
                        self.cache.insert(job, &run, report.as_deref());
                        resolved[i] = Some(RunOutcome {
                            label: job.label(),
                            key: job.key,
                            stats: Arc::new(run.stats.clone()),
                            run: Some(run),
                            source: CacheSource::Computed,
                            wall,
                            zoo: None,
                        });
                    }
                }
            }
            if let Some(error) = first_error {
                return Err(error);
            }
        }

        let mut outcomes: Vec<RunOutcome> = resolved
            .into_iter()
            .map(|o| o.expect("every unique job resolved"))
            .collect();

        // Zoo jobs collect their predictor reports from the zoo memo —
        // filled by the default executor on compute and by the cache pass
        // on disk hits, and still present for memo hits. A custom executor
        // that ignores zoos simply leaves the field `None`.
        {
            let zoo_memo = self.zoo_memo.lock().expect("zoo memo lock");
            for (job, outcome) in unique.iter().zip(&mut outcomes) {
                if !job.zoo.is_empty() {
                    outcome.zoo = zoo_memo.get(&job.key).cloned();
                }
            }
        }

        // Verification digests: one per distinct program (many unique jobs
        // share one `Arc<Program>` across datasets). Cache hits are
        // digested too — that is the point: a stale disk result still gets
        // checked against today's verifier.
        let digests: Vec<Option<u64>> = if self.verify {
            let mut memo: HashMap<*const trace_ir::Program, u64> = HashMap::new();
            unique
                .iter()
                .map(|job| {
                    Some(
                        *memo
                            .entry(Arc::as_ptr(&job.program))
                            .or_insert_with(|| mfcheck::verify_digest(&job.program)),
                    )
                })
                .collect()
        } else {
            vec![None; unique.len()]
        };

        {
            let mut records = self.records.lock().expect("records lock");
            // `outcomes` is index-aligned with `unique`, so zipping pairs
            // each outcome with its job's digest and miss reason.
            for ((outcome, digest), miss) in outcomes.iter().zip(&digests).zip(&misses) {
                records.push(RunRecord {
                    label: outcome.label.clone(),
                    key: outcome.key,
                    guest_instrs: outcome.stats.total_instrs,
                    wall: outcome.wall,
                    source: outcome.source,
                    miss: *miss,
                    verify_digest: *digest,
                });
            }
        }

        Ok(fanout.into_iter().map(|i| outcomes[i].clone()).collect())
    }

    /// Convenience: submit one job.
    pub fn run_one(&self, job: RunJob) -> Result<RunOutcome, HarnessError> {
        Ok(self.run(vec![job])?.pop().expect("one job, one outcome"))
    }

    /// Labels currently quarantined after panicking, sorted.
    pub fn quarantined(&self) -> Vec<String> {
        let quarantine = self.quarantine.lock().expect("quarantine lock");
        let mut labels: Vec<String> = quarantine.values().map(|(l, _)| l.clone()).collect();
        labels.sort();
        labels
    }

    /// Snapshot of accumulated observability.
    pub fn report(&self) -> HarnessReport {
        let cache_robustness = self.cache.robustness();
        HarnessReport {
            records: self.records.lock().expect("records lock").clone(),
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            unique_jobs: self.unique_jobs.load(Ordering::Relaxed),
            workers: self.workers_seen.load(Ordering::Relaxed),
            wall: std::time::Duration::from_nanos(self.wall_ns.load(Ordering::Relaxed)),
            busy: std::time::Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed)),
            cache: self.cache.counters(),
            robustness: RobustnessReport {
                panics: self.panics.load(Ordering::Relaxed),
                quarantined: self.quarantined(),
                io_retries: cache_robustness.io_retries,
                cache_store_failures: cache_robustness.store_failures,
                cache_corrupt_misses: cache_robustness.corrupt_misses,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_vm::{Input, VmConfig};

    fn job(source: &str, inputs: Vec<Input>) -> RunJob {
        let program = Arc::new(mflang::compile(source).unwrap());
        RunJob::new("test", "d0", program, inputs, VmConfig::default())
    }

    const LOOPY: &str = "fn main(n: int) { var i: int = 0; var acc: int = 0; \
        while (i < n) { if (i % 3 == 0) { acc = acc + i; } i = i + 1; } emit(acc); }";

    #[test]
    fn duplicate_jobs_execute_once() {
        let harness = Harness::in_memory();
        let jobs: Vec<RunJob> = (0..6).map(|_| job(LOOPY, vec![Input::Int(50)])).collect();
        let outcomes = harness.run(jobs).unwrap();
        assert_eq!(outcomes.len(), 6);
        assert!(outcomes
            .windows(2)
            .all(|w| w[0].stats.total_instrs == w[1].stats.total_instrs));
        let report = harness.report();
        assert_eq!(report.jobs_submitted, 6);
        assert_eq!(report.unique_jobs, 1);
        // Only the single deduplicated job actually executed.
        assert_eq!(report.computed(), 1);
        assert_eq!(report.records.len(), 1);
    }

    #[test]
    fn second_batch_hits_memo_table() {
        let harness = Harness::in_memory();
        let first = harness.run_one(job(LOOPY, vec![Input::Int(40)])).unwrap();
        assert_eq!(first.source, CacheSource::Computed);
        let second = harness.run_one(job(LOOPY, vec![Input::Int(40)])).unwrap();
        assert_eq!(second.source, CacheSource::Memory);
        assert_eq!(first.stats, second.stats);
    }

    #[test]
    fn stats_hit_does_not_satisfy_full_run_need() {
        // A Stats-only memo entry (simulating a disk load) must not be
        // handed to a FullRun consumer.
        let harness = Harness::in_memory();
        let stats_job = job(LOOPY, vec![Input::Int(30)]);
        harness.run_one(stats_job.clone()).unwrap();
        let full = harness.run_one(stats_job.needing_run()).unwrap();
        // Memo table keeps the full Run, so this is served from memory
        // *with* the run present.
        assert!(full.run.is_some());
    }

    #[test]
    fn runtime_errors_surface_with_labels() {
        let harness = Harness::in_memory();
        let mut bad = job(LOOPY, vec![Input::Int(1_000_000)]);
        bad.config.fuel = 10; // guarantee fuel exhaustion
        bad.key = RunKey::of(&bad.program, &bad.inputs, &bad.config);
        let err = harness.run_one(bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("test/d0"), "message was: {msg}");
    }

    #[test]
    fn verify_mode_stamps_digests_on_all_records() {
        let harness = Harness::new(HarnessOptions {
            jobs: Some(2),
            disk_cache: DiskCache::Off,
            verify: true,
            ..HarnessOptions::default()
        });
        assert!(harness.verify());
        // Two batches of the same job: a computed record and a memory-hit
        // record, both of which must carry the clean digest.
        harness.run_one(job(LOOPY, vec![Input::Int(25)])).unwrap();
        harness.run_one(job(LOOPY, vec![Input::Int(25)])).unwrap();
        let report = harness.report();
        assert_eq!(report.records.len(), 2);
        for record in &report.records {
            assert_eq!(record.verify_digest, Some(mfcheck::CLEAN_DIGEST));
        }
        assert_eq!(report.verified(), 2);
        assert_eq!(report.verified_clean(), 2);
        assert!(report.summary_table().render().contains("runs verified"));
        assert!(report.to_json().contains("\"verify_digest\": \"0x"));
    }

    #[test]
    fn unverified_records_have_no_digest() {
        let harness = Harness::in_memory();
        harness.run_one(job(LOOPY, vec![Input::Int(12)])).unwrap();
        let report = harness.report();
        assert_eq!(report.records[0].verify_digest, None);
        assert_eq!(report.verified(), 0);
        assert!(!report.summary_table().render().contains("runs verified"));
        assert!(report.to_json().contains("\"verify_digest\": null"));
    }

    #[test]
    fn panicking_run_is_quarantined_not_fatal() {
        // Silence the default panic hook for the expected panic.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));

        let harness = Harness::new(HarnessOptions {
            jobs: Some(2),
            disk_cache: DiskCache::Off,
            ..HarnessOptions::default()
        });
        let good = job(LOOPY, vec![Input::Int(20)]);
        let bad = job(LOOPY, vec![Input::Int(21)]);
        let bad_key = bad.key;
        let batch = vec![good.clone(), bad.clone()];
        let err = harness
            .run_with(batch, |j| {
                if j.key == bad_key {
                    panic!("injected poison");
                }
                trace_vm::run_program(&j.program, j.config, &j.inputs)
            })
            .unwrap_err();
        match &err {
            HarnessError::Panicked { label, detail } => {
                assert_eq!(label, "test/d0");
                assert!(detail.contains("injected poison"), "{detail}");
            }
            other => panic!("expected Panicked, got {other}"),
        }

        // The pool survived: the good job completed and was cached.
        let again = harness.run_one(good).unwrap();
        assert_eq!(again.source, CacheSource::Memory);

        // The poisoned key is quarantined: resubmission fails fast with
        // the stored detail instead of re-running.
        let err = harness.run_one(bad).unwrap_err();
        assert!(matches!(err, HarnessError::Panicked { .. }), "{err}");

        let report = harness.report();
        assert_eq!(report.robustness.panics, 1);
        assert_eq!(report.robustness.quarantined, vec!["test/d0".to_string()]);
        assert!(report.to_json().contains("\"robustness\""));

        std::panic::set_hook(prev);
    }

    #[test]
    fn zoo_jobs_carry_reports_and_identical_stats() {
        let harness = Harness::in_memory();
        let plain = job(LOOPY, vec![Input::Int(60)]);
        let zooed = job(LOOPY, vec![Input::Int(60)]).with_zoo(mfdyn::standard_zoo());
        assert_ne!(plain.key, zooed.key, "zoo must perturb the key");
        let outcomes = harness.run(vec![plain, zooed.clone()]).unwrap();
        // Observation is pure: both jobs measured the same run.
        assert_eq!(outcomes[0].stats, outcomes[1].stats);
        assert!(outcomes[0].zoo.is_none());
        let report = outcomes[1].zoo.as_ref().expect("zoo job has a report");
        assert_eq!(report.entries.len(), mfdyn::standard_zoo().len());
        for (spec, counts) in &report.entries {
            assert!(counts.executed > 0, "{spec} saw no branches");
            assert!(counts.mispredicted <= counts.executed);
        }
        // A memo hit still finds its zoo report.
        let again = harness.run_one(zooed).unwrap();
        assert_eq!(again.source, CacheSource::Memory);
        assert_eq!(again.zoo.as_deref(), Some(report.as_ref()));
    }

    fn disk_options(dir: &Path) -> HarnessOptions {
        HarnessOptions {
            jobs: Some(2),
            disk_cache: DiskCache::Dir(dir.to_path_buf()),
            ..HarnessOptions::default()
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mfharness-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn zoo_reports_survive_a_restart() {
        let dir = temp_dir("zoo");
        let zooed = || job(LOOPY, vec![Input::Int(35)]).with_zoo(mfdyn::standard_zoo());
        let first = Harness::new(disk_options(&dir)).run_one(zooed()).unwrap();
        assert_eq!(first.source, CacheSource::Computed);
        // A second harness over the same directory (a fresh process, in
        // effect) takes a disk hit that rebuilds the identical report.
        let second = Harness::new(disk_options(&dir));
        let outcome = second.run_one(zooed()).unwrap();
        assert_eq!(outcome.source, CacheSource::Disk);
        assert_eq!(outcome.stats, first.stats);
        let report = first.zoo.as_deref().expect("computed zoo job has a report");
        assert_eq!(outcome.zoo.as_deref(), Some(report));
        // The rebuilt report stays in the zoo memo for later memo hits.
        let again = second.run_one(zooed()).unwrap();
        assert_eq!(again.source, CacheSource::Memory);
        assert_eq!(again.zoo.as_deref(), Some(report));
        assert_eq!(second.report().computed(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zoo_jobs_without_a_report_are_not_persisted() {
        let dir = temp_dir("zoo-ignored");
        let zooed = || job(LOOPY, vec![Input::Int(36)]).with_zoo(mfdyn::standard_zoo());
        let first = Harness::new(disk_options(&dir));
        let outcome = first
            .run_with(vec![zooed()], |j| {
                trace_vm::run_program(&j.program, j.config, &j.inputs)
            })
            .unwrap()
            .pop()
            .unwrap();
        assert!(outcome.zoo.is_none(), "the executor ignored the zoo");
        let entries = std::fs::read_dir(&dir).map_or(0, |d| d.count());
        assert_eq!(entries, 0, "no report, no disk entry");
        // A fresh harness therefore recomputes the job, report and all.
        let second = Harness::new(disk_options(&dir));
        let outcome = second.run_one(zooed()).unwrap();
        assert_eq!(outcome.source, CacheSource::Computed);
        assert!(outcome.zoo.is_some());
        assert_eq!(second.report().records[0].miss, Some(MissReason::Absent));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_say_why_a_job_missed() {
        let dir = temp_dir("miss");
        let plain = || job(LOOPY, vec![Input::Int(37)]);
        let mut traced = job(LOOPY, vec![Input::Int(38)]);
        traced.config.record_branch_trace = true;
        traced.key = RunKey::of(&traced.program, &traced.inputs, &traced.config);
        let disk = Harness::new(disk_options(&dir));
        disk.run(vec![plain(), traced.clone()]).unwrap();
        let fresh = Harness::new(disk_options(&dir));
        fresh
            .run(vec![plain(), plain().needing_run(), traced])
            .unwrap();
        let misses = |h: &Harness| -> Vec<Option<MissReason>> {
            h.report().records.iter().map(|r| r.miss).collect()
        };
        assert_eq!(
            misses(&disk),
            [Some(MissReason::Absent), Some(MissReason::Traced)]
        );
        // The plain and full-run jobs share a key, so they collapse into
        // one full-run job that the disk tier cannot serve.
        assert_eq!(
            misses(&fresh),
            [Some(MissReason::FullRunNeeded), Some(MissReason::Traced)]
        );
        let memory = Harness::in_memory();
        memory.run(vec![plain(), plain()]).unwrap();
        memory.run_one(plain()).unwrap();
        assert_eq!(misses(&memory), [Some(MissReason::NoDiskTier), None]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let serial = Harness::new(HarnessOptions {
            jobs: Some(1),
            disk_cache: DiskCache::Off,
            ..HarnessOptions::default()
        });
        let parallel = Harness::new(HarnessOptions {
            jobs: Some(8),
            disk_cache: DiskCache::Off,
            ..HarnessOptions::default()
        });
        let batch = |h: &Harness| {
            let jobs: Vec<RunJob> = (10..30).map(|n| job(LOOPY, vec![Input::Int(n)])).collect();
            h.run(jobs).unwrap()
        };
        let a = batch(&serial);
        let b = batch(&parallel);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.stats, y.stats);
        }
    }
}
