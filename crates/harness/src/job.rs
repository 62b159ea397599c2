//! Units of work and their results.

use std::sync::Arc;
use std::time::Duration;

use mfdyn::{DynSpec, ZooReport};
use trace_ir::Program;
use trace_vm::{Input, Run, RunStats, VmConfig};

use crate::key::RunKey;

/// What a job's consumer needs back.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Need {
    /// Aggregate [`RunStats`] suffice (eligible for the disk cache).
    Stats,
    /// The full [`Run`] — output stream and, if configured, the branch
    /// trace. Served from memory or recomputed; never from disk.
    FullRun,
}

/// One `(program, dataset, vm-config)` execution request.
#[derive(Clone, Debug)]
pub struct RunJob {
    /// Program name, for labels and error messages.
    pub program_name: String,
    /// Dataset name, for labels and error messages.
    pub dataset: String,
    /// The compiled program to execute.
    pub program: Arc<Program>,
    /// The guest `main` inputs.
    pub inputs: Vec<Input>,
    /// VM resource/measurement configuration.
    pub config: VmConfig,
    /// What the consumer needs back.
    pub need: Need,
    /// Online dynamic predictors to drive over the run's branch stream —
    /// empty for ordinary jobs. A non-empty zoo folds into [`RunJob::key`]
    /// (by canonical spec name, in order), so runs observed by different
    /// predictor configurations never share a cache entry. The disk tier
    /// persists the report's counts next to the stats; the spec list is
    /// recovered from the job itself.
    pub zoo: Vec<DynSpec>,
    /// The content-addressed identity of this work.
    pub key: RunKey,
}

impl RunJob {
    /// Builds a stats-level job; the key is computed from the arguments.
    pub fn new(
        program_name: impl Into<String>,
        dataset: impl Into<String>,
        program: Arc<Program>,
        inputs: Vec<Input>,
        config: VmConfig,
    ) -> Self {
        let key = RunKey::of(&program, &inputs, &config);
        RunJob {
            program_name: program_name.into(),
            dataset: dataset.into(),
            program,
            inputs,
            config,
            need: Need::Stats,
            zoo: Vec::new(),
            key,
        }
    }

    /// Builds a job for one dataset of a workload, using the workload's
    /// canonical VM configuration so harness runs are bit-identical to
    /// [`mfwork::Workload::run`].
    pub fn from_workload(
        workload: &mfwork::Workload,
        program: &Arc<Program>,
        dataset: &mfwork::Dataset,
    ) -> Self {
        RunJob::new(
            workload.name,
            dataset.name.clone(),
            Arc::clone(program),
            dataset.inputs.clone(),
            workload.vm_config(),
        )
    }

    /// Upgrades the job to require the full [`Run`].
    pub fn needing_run(mut self) -> Self {
        self.need = Need::FullRun;
        self
    }

    /// Attaches an online predictor zoo to the job and re-keys it: the
    /// spec names become observation tags in the run key.
    pub fn with_zoo(mut self, zoo: Vec<DynSpec>) -> Self {
        self.zoo = zoo;
        let tags: Vec<String> = self.zoo.iter().map(|s| s.name()).collect();
        self.key = RunKey::of_tagged(&self.program, &self.inputs, &self.config, &tags);
        self
    }

    /// `program/dataset` display label.
    pub fn label(&self) -> String {
        format!("{}/{}", self.program_name, self.dataset)
    }
}

/// Where a completed job's result came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheSource {
    /// Executed in this batch.
    Computed,
    /// Served by the in-process memo table.
    Memory,
    /// Deserialized from the persistent cache directory.
    Disk,
}

impl CacheSource {
    /// Short lowercase name (report/JSON vocabulary).
    pub fn name(&self) -> &'static str {
        match self {
            CacheSource::Computed => "computed",
            CacheSource::Memory => "memory",
            CacheSource::Disk => "disk",
        }
    }
}

/// Why a computed job was not served by the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MissReason {
    /// The disk tier holds no readable entry for the key.
    Absent,
    /// An entry exists but was written in an older (or newer) cache
    /// format — stale, not damaged.
    StaleFormat,
    /// An entry exists but failed validation (torn, bit-flipped, forged,
    /// or inconsistent) and was salvaged to a miss.
    Corrupt,
    /// The job needs the full [`Run`], which the disk tier never holds.
    FullRunNeeded,
    /// The job records a branch trace, which is never persisted.
    Traced,
    /// The harness runs without a persistent tier.
    NoDiskTier,
}

impl MissReason {
    /// Every reason, in report order.
    pub const ALL: [MissReason; 6] = [
        MissReason::Absent,
        MissReason::StaleFormat,
        MissReason::Corrupt,
        MissReason::FullRunNeeded,
        MissReason::Traced,
        MissReason::NoDiskTier,
    ];

    /// Short snake-case name (report/JSON vocabulary).
    pub fn name(&self) -> &'static str {
        match self {
            MissReason::Absent => "absent",
            MissReason::StaleFormat => "stale_format",
            MissReason::Corrupt => "corrupt",
            MissReason::FullRunNeeded => "full_run_needed",
            MissReason::Traced => "traced",
            MissReason::NoDiskTier => "no_disk_tier",
        }
    }
}

/// A completed job.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// `program/dataset` label of the submitted job.
    pub label: String,
    /// The job's content key.
    pub key: RunKey,
    /// Everything the VM measured.
    pub stats: Arc<RunStats>,
    /// The full run — present when the job asked for [`Need::FullRun`].
    pub run: Option<Arc<Run>>,
    /// Where the result came from.
    pub source: CacheSource,
    /// Wall-clock time spent producing this result (≈0 for cache hits).
    pub wall: Duration,
    /// Per-predictor tallies for jobs submitted with a non-empty
    /// [`RunJob::zoo`]; `None` for ordinary jobs (or when a custom
    /// executor that does not drive zoos produced the run).
    pub zoo: Option<Arc<ZooReport>>,
}

impl RunOutcome {
    /// The full run, which [`Need::FullRun`] jobs are guaranteed to have.
    ///
    /// # Panics
    ///
    /// Panics if the job was submitted with [`Need::Stats`].
    pub fn run(&self) -> &Arc<Run> {
        self.run
            .as_ref()
            .expect("job was submitted with Need::Stats; no full run retained")
    }
}
