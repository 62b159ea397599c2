#![warn(missing_docs)]

//! # mfdyn — online dynamic branch predictors
//!
//! The 1992 paper's headline claim is that per-branch profiles from
//! *previous* runs rival hardware dynamic prediction. This crate supplies
//! the hardware side of that comparison: a family of online conditional
//! branch predictors driven by the VM's [`BranchSink`] event stream —
//! always-taken and BTFN static baselines, local 1-bit and 2-bit counter
//! tables, gshare with configurable history length and table size, and a
//! perceptron predictor.
//!
//! Everything is deterministic and allocation-bounded: each predictor
//! allocates its tables once at construction (sized by `table_bits`), and
//! the [`Zoo`] allocates one fixed buffer of 4096 packed events (16 KiB)
//! beside them. The hot path appends to that buffer; when it fills, each
//! predictor runs over the whole batch in its own loop and the buffer is
//! reused. Nothing allocates after construction except
//! [`Zoo::report`], which runs a partly filled batch on a copy of the
//! tables. So a zoo can be attached to any run — including fuzz runs —
//! without perturbing behavior or memory use.
//!
//! Two independent implementations of the same predictor semantics exist:
//!
//! * the **online** path ([`Zoo`], a [`BranchSink`]) updates every
//!   predictor as branches execute, a batch at a time, without
//!   materializing a trace;
//! * the **golden** path ([`golden::replay`]) re-simulates a predictor
//!   over a recorded [`BranchEvent`] trace after the fact.
//!
//! On a clean build the two must agree bit for bit; the fuzzer's
//! `dynpred-consistency` oracle holds them against each other, and the
//! seeded defect `dynpred-history-not-updated` (gshare skips its history
//! update on not-taken branches, online path only) is convicted exactly by
//! that disagreement.

use std::sync::Arc;

use trace_ir::{BranchId, Program, Terminator};
use trace_vm::BranchSink;

/// Smallest allowed `table_bits` for any tabled predictor.
pub const MIN_TABLE_BITS: u32 = 1;
/// Largest allowed `table_bits` for any tabled predictor (2^24 entries —
/// far past the aliasing knee on this suite, still allocation-bounded).
pub const MAX_TABLE_BITS: u32 = 24;
/// Largest allowed global-history length, in branches.
pub const MAX_HISTORY: u32 = 63;

/// Perceptron weights saturate at ±[`WEIGHT_LIMIT`], the classic 8-bit
/// hardware budget. Clamping lets every weight live in an `i16` and keeps
/// every dot product (at most `(MAX_HISTORY + 1) × WEIGHT_LIMIT`) far
/// inside the `i32` it is accumulated in.
pub const WEIGHT_LIMIT: i32 = 127;

/// One predictor configuration — the unit the characterization harness
/// sweeps over, and the tag [`mfharness`] folds into its run key so runs
/// observed by different zoos never share a cache entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DynSpec {
    /// Predict every branch taken.
    AlwaysTaken,
    /// Backward-taken / forward-not-taken, from static layout (needs
    /// [`BranchDirs`]; without them every branch counts as forward).
    Btfn,
    /// Local 1-bit last-outcome table, indexed by branch id.
    OneBit {
        /// log2 of the table size.
        table_bits: u32,
    },
    /// Local 2-bit saturating-counter table, indexed by branch id.
    TwoBit {
        /// log2 of the table size.
        table_bits: u32,
    },
    /// Global-history XOR branch-id indexed 2-bit counter table.
    Gshare {
        /// Global history length in branches.
        history: u32,
        /// log2 of the table size.
        table_bits: u32,
    },
    /// Branch-id indexed table of perceptrons over the global history.
    Perceptron {
        /// Global history length in branches (one weight per bit, plus bias).
        history: u32,
        /// log2 of the table size.
        table_bits: u32,
    },
}

impl DynSpec {
    /// The canonical spelling: `always-taken`, `btfn`, `1bit/t12`,
    /// `2bit/t12`, `gshare/h8/t12`, `perceptron/h12/t8`. Stable — used in
    /// harness run keys, `BENCH_dynpred.json`, and report tables.
    pub fn name(self) -> String {
        match self {
            DynSpec::AlwaysTaken => "always-taken".to_string(),
            DynSpec::Btfn => "btfn".to_string(),
            DynSpec::OneBit { table_bits } => format!("1bit/t{table_bits}"),
            DynSpec::TwoBit { table_bits } => format!("2bit/t{table_bits}"),
            DynSpec::Gshare {
                history,
                table_bits,
            } => format!("gshare/h{history}/t{table_bits}"),
            DynSpec::Perceptron {
                history,
                table_bits,
            } => format!("perceptron/h{history}/t{table_bits}"),
        }
    }

    /// Validates the configuration bounds.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated bound.
    pub fn validate(self) -> Result<(), String> {
        let (history, table_bits) = match self {
            DynSpec::AlwaysTaken | DynSpec::Btfn => return Ok(()),
            DynSpec::OneBit { table_bits } | DynSpec::TwoBit { table_bits } => (1, table_bits),
            DynSpec::Gshare {
                history,
                table_bits,
            }
            | DynSpec::Perceptron {
                history,
                table_bits,
            } => (history, table_bits),
        };
        if !(MIN_TABLE_BITS..=MAX_TABLE_BITS).contains(&table_bits) {
            return Err(format!(
                "table_bits {table_bits} outside {MIN_TABLE_BITS}..={MAX_TABLE_BITS}"
            ));
        }
        if !(1..=MAX_HISTORY).contains(&history) {
            return Err(format!("history {history} outside 1..={MAX_HISTORY}"));
        }
        Ok(())
    }
}

impl std::fmt::Display for DynSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

impl std::str::FromStr for DynSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let spec = match s {
            "always-taken" => DynSpec::AlwaysTaken,
            "btfn" => DynSpec::Btfn,
            _ => {
                let mut parts = s.split('/');
                let kind = parts.next().unwrap_or_default();
                let mut history = None;
                let mut table_bits = None;
                for p in parts {
                    let (tag, num) = p.split_at(1.min(p.len()));
                    let v: u32 = num
                        .parse()
                        .map_err(|_| format!("bad predictor component '{p}' in '{s}'"))?;
                    match tag {
                        "h" => history = Some(v),
                        "t" => table_bits = Some(v),
                        _ => return Err(format!("bad predictor component '{p}' in '{s}'")),
                    }
                }
                let t = || table_bits.ok_or(format!("'{s}' is missing its /tN table size"));
                let h = || history.ok_or(format!("'{s}' is missing its /hN history length"));
                match kind {
                    "1bit" => DynSpec::OneBit { table_bits: t()? },
                    "2bit" => DynSpec::TwoBit { table_bits: t()? },
                    "gshare" => DynSpec::Gshare {
                        history: h()?,
                        table_bits: t()?,
                    },
                    "perceptron" => DynSpec::Perceptron {
                        history: h()?,
                        table_bits: t()?,
                    },
                    other => return Err(format!("unknown predictor '{other}' in '{s}'")),
                }
            }
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// The two-spec zoo the bench harness attaches to every profiling run for
/// the heuristic table's dynamic columns: a classic local 2-bit table and
/// a mid-sized gshare.
pub fn standard_zoo() -> Vec<DynSpec> {
    vec![
        DynSpec::TwoBit { table_bits: 12 },
        DynSpec::Gshare {
            history: 8,
            table_bits: 12,
        },
    ]
}

/// The full headline zoo `dynbench` evaluates: the static baselines, both
/// local counter tables, the gshare history sweep, and the perceptron.
pub fn full_zoo() -> Vec<DynSpec> {
    vec![
        DynSpec::AlwaysTaken,
        DynSpec::Btfn,
        DynSpec::OneBit { table_bits: 12 },
        DynSpec::TwoBit { table_bits: 12 },
        DynSpec::Gshare {
            history: 4,
            table_bits: 12,
        },
        DynSpec::Gshare {
            history: 8,
            table_bits: 12,
        },
        DynSpec::Gshare {
            history: 12,
            table_bits: 12,
        },
        DynSpec::Gshare {
            history: 16,
            table_bits: 12,
        },
        DynSpec::Perceptron {
            history: 12,
            table_bits: 8,
        },
    ]
}

/// Static branch directions extracted from a program's layout — the
/// information the BTFN baseline predicts from (backward ⇒ taken).
#[derive(Clone, Debug, Default)]
pub struct BranchDirs {
    backward: Arc<Vec<bool>>,
}

impl BranchDirs {
    /// No layout information: every branch counts as forward (BTFN
    /// predicts not-taken everywhere).
    pub fn none() -> Self {
        BranchDirs::default()
    }

    /// Extracts per-branch backwardness from `program` layout, by the same
    /// rule as [`Program::is_backward_branch`]: a branch is backward when
    /// its taken target does not come after the block it ends.
    pub fn of(program: &Program) -> Self {
        let mut backward = vec![false; program.branch_info.len()];
        for f in &program.functions {
            for (bi, b) in f.blocks.iter().enumerate() {
                if let Terminator::Branch { id, taken, .. } = b.term {
                    if taken.index() <= bi {
                        backward[id.0 as usize] = true;
                    }
                }
            }
        }
        BranchDirs {
            backward: Arc::new(backward),
        }
    }

    /// Whether `id` is a backward (loop-style) branch.
    pub fn is_backward(&self, id: BranchId) -> bool {
        self.backward.get(id.0 as usize).copied().unwrap_or(false)
    }
}

/// Executed/mispredicted tallies for one predictor over one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ZooCounts {
    /// Conditional branches the predictor saw.
    pub executed: u64,
    /// Of those, how many it predicted wrong.
    pub mispredicted: u64,
}

impl ZooCounts {
    /// Mispredict rate in [0, 1]; 0 for an empty run.
    pub fn mispredict_rate(self) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            self.mispredicted as f64 / self.executed as f64
        }
    }

    /// Percent predicted correctly; 100 for an empty run.
    pub fn percent_correct(self) -> f64 {
        100.0 * (1.0 - self.mispredict_rate())
    }

    /// Folds another run's tallies into this one.
    pub fn merge(&mut self, other: ZooCounts) {
        self.executed += other.executed;
        self.mispredicted += other.mispredicted;
    }
}

/// Per-spec tallies for one run, in the zoo's construction order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ZooReport {
    /// `(spec, counts)` pairs, in the order the specs were given.
    pub entries: Vec<(DynSpec, ZooCounts)>,
}

impl ZooReport {
    /// The counts for `spec`, if it was in the zoo.
    pub fn get(&self, spec: DynSpec) -> Option<ZooCounts> {
        self.entries
            .iter()
            .find(|(s, _)| *s == spec)
            .map(|&(_, c)| c)
    }

    /// Folds another report (same specs, same order) into this one.
    ///
    /// # Panics
    ///
    /// Panics if the spec lists differ.
    pub fn merge(&mut self, other: &ZooReport) {
        if self.entries.is_empty() {
            self.entries = other.entries.clone();
            return;
        }
        assert_eq!(
            self.entries.len(),
            other.entries.len(),
            "merging reports from different zoos"
        );
        for ((sa, ca), (sb, cb)) in self.entries.iter_mut().zip(&other.entries) {
            assert_eq!(sa, sb, "merging reports from different zoos");
            ca.merge(*cb);
        }
    }
}

/// One step of a 2-bit saturating counter (0..=3; ≥2 predicts taken).
#[inline]
pub fn two_bit_step(state: u8, taken: bool) -> u8 {
    if taken {
        (state + 1).min(3)
    } else {
        state.saturating_sub(1)
    }
}

/// The gshare table index: branch id XOR global history, masked to the
/// table. Always within `0..(1 << table_bits)` for any history value.
#[inline]
pub fn gshare_index(id: BranchId, history: u64, table_bits: u32) -> usize {
    (((id.0 as u64) ^ history) & ((1u64 << table_bits) - 1)) as usize
}

/// The perceptron training threshold θ = ⌊1.93·h + 14⌋ (Jiménez & Lin's
/// empirically best value), in integer arithmetic.
#[inline]
pub fn perceptron_theta(history: u32) -> i32 {
    ((193 * history + 1400) / 100) as i32
}

/// Initial 2-bit counter state: weakly not-taken.
const TWO_BIT_INIT: u8 = 1;

/// Branch events a [`Zoo`] buffers before its predictors run over them.
/// Each predictor walks a whole batch in its own loop, so its state stays
/// hot and its kind is dispatched once per batch instead of once per
/// branch.
const BATCH: usize = 4096;

/// Largest branch id a [`Zoo`] accepts: an event is packed as
/// `id << 1 | taken` in a `u32`. Every id a program can produce is an
/// index into its `branch_info`, far below this.
const MAX_BRANCH_ID: u32 = u32::MAX >> 1;

/// Perceptron weights per row: one row of `i16` lanes covers 16 history
/// bits, so a row's dot product and update are each a few SIMD ops.
const LANES: usize = 16;

/// Rows per perceptron for the longest history, ⌈MAX_HISTORY / 16⌉.
const MAX_CHUNKS: usize = (MAX_HISTORY as usize).div_ceil(LANES);

/// The perceptron's ±1 inputs for one byte of history: lane `j` of entry
/// `b` is `+1` when bit `j` of `b` is set, else `-1`.
static INPUTS: [[i16; 8]; 256] = {
    let mut lut = [[0i16; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let mut j = 0;
        while j < 8 {
            lut[b][j] = if (b >> j) & 1 == 1 { 1 } else { -1 };
            j += 1;
        }
        b += 1;
    }
    lut
};

/// A table of perceptrons over the global history, laid out for the
/// lane kernel: entry `slot` owns rows `slot * chunks..(slot + 1) *
/// chunks` of `weights`, where lane `l` of row `c` weighs history bit
/// `16c + l`. Lanes at or past the history length always hold 0 (their
/// input is masked to 0), so they add nothing to a dot product.
#[derive(Clone)]
struct Perceptron {
    weights: Vec<[i16; LANES]>,
    bias: Vec<i16>,
    /// `-1` (all bits set) on the lanes that carry history, 0 past it.
    live: [[i16; LANES]; MAX_CHUNKS],
    chunks: usize,
    theta: i32,
    history: u64,
    hist_mask: u64,
}

impl Perceptron {
    fn new(history: u32, table_bits: u32) -> Self {
        let h = history as usize;
        let chunks = h.div_ceil(LANES);
        let mut live = [[0i16; LANES]; MAX_CHUNKS];
        for lane in live.iter_mut().flatten().take(h) {
            *lane = -1;
        }
        Perceptron {
            weights: vec![[0; LANES]; (1 << table_bits) * chunks],
            bias: vec![0; 1 << table_bits],
            live,
            chunks,
            theta: perceptron_theta(history),
            history: 0,
            hist_mask: (1u64 << history) - 1,
        }
    }

    /// Runs a batch of packed events; returns the mispredict count. The
    /// row count is fixed per table, so it is made a constant of the loop.
    fn run(&mut self, batch: &[u32]) -> u64 {
        match self.chunks {
            1 => self.run_rows::<1>(batch),
            2 => self.run_rows::<2>(batch),
            3 => self.run_rows::<3>(batch),
            _ => self.run_rows::<MAX_CHUNKS>(batch),
        }
    }

    fn run_rows<const C: usize>(&mut self, batch: &[u32]) -> u64 {
        debug_assert_eq!(self.chunks, C);
        let limit = WEIGHT_LIMIT as i16;
        let slot_mask = self.bias.len() - 1;
        let live: [[i16; LANES]; C] = std::array::from_fn(|c| self.live[c]);
        let mut history = self.history;
        let mut wrong = 0u64;
        for &ev in batch {
            let taken = ev & 1 == 1;
            let slot = (ev >> 1) as usize & slot_mask;
            let x: [[i16; LANES]; C] = std::array::from_fn(|c| {
                let bits = history >> (LANES * c);
                let lo = &INPUTS[bits as u8 as usize];
                let hi = &INPUTS[(bits >> 8) as u8 as usize];
                std::array::from_fn(|l| {
                    let x = if l < 8 { lo[l] } else { hi[l - 8] };
                    x & live[c][l]
                })
            });
            let rows: &mut [[i16; LANES]; C] = (&mut self.weights[slot * C..][..C])
                .try_into()
                .expect("C rows per slot");
            let mut acc = [0i32; LANES];
            for (w, xc) in rows.iter().zip(&x) {
                for l in 0..LANES {
                    acc[l] += i32::from(w[l]) * i32::from(xc[l]);
                }
            }
            let y = i32::from(self.bias[slot]) + acc.iter().sum::<i32>();
            let predicted = y >= 0;
            if predicted != taken || y.abs() <= self.theta {
                let t: i16 = if taken { 1 } else { -1 };
                self.bias[slot] = (self.bias[slot] + t).clamp(-limit, limit);
                for (w, xc) in rows.iter_mut().zip(&x) {
                    for l in 0..LANES {
                        w[l] = (w[l] + t * xc[l]).clamp(-limit, limit);
                    }
                }
            }
            history = ((history << 1) | u64::from(taken)) & self.hist_mask;
            wrong += u64::from(predicted != taken);
        }
        self.history = history;
        wrong
    }
}

#[derive(Clone)]
enum State {
    AlwaysTaken,
    Btfn,
    OneBit {
        table: Vec<u8>,
    },
    TwoBit {
        table: Vec<u8>,
    },
    Gshare {
        table: Vec<u8>,
        history: u64,
        hist_mask: u64,
    },
    Perceptron(Perceptron),
}

#[derive(Clone)]
struct Pred {
    spec: DynSpec,
    state: State,
    counts: ZooCounts,
}

impl Pred {
    fn new(spec: DynSpec) -> Self {
        let state = match spec {
            DynSpec::AlwaysTaken => State::AlwaysTaken,
            DynSpec::Btfn => State::Btfn,
            DynSpec::OneBit { table_bits } => State::OneBit {
                table: vec![0; 1 << table_bits],
            },
            DynSpec::TwoBit { table_bits } => State::TwoBit {
                table: vec![TWO_BIT_INIT; 1 << table_bits],
            },
            DynSpec::Gshare {
                history,
                table_bits,
            } => State::Gshare {
                table: vec![TWO_BIT_INIT; 1 << table_bits],
                history: 0,
                hist_mask: (1u64 << history) - 1,
            },
            DynSpec::Perceptron {
                history,
                table_bits,
            } => State::Perceptron(Perceptron::new(history, table_bits)),
        };
        Pred {
            spec,
            state,
            counts: ZooCounts::default(),
        }
    }

    /// Predicts, tallies, and trains on a batch of packed events
    /// (`id << 1 | taken`), in order. This is the hot path: one dispatch
    /// on the predictor kind, then a tight loop of table arithmetic.
    fn run(&mut self, dirs: &BranchDirs, batch: &[u32]) {
        let mut wrong = 0u64;
        match &mut self.state {
            State::AlwaysTaken => {
                for &ev in batch {
                    wrong += u64::from(ev & 1 == 0);
                }
            }
            State::Btfn => {
                for &ev in batch {
                    wrong += u64::from(dirs.is_backward(BranchId(ev >> 1)) != (ev & 1 == 1));
                }
            }
            State::OneBit { table } => {
                let table = table.as_mut_slice();
                let mask = table.len() - 1;
                for &ev in batch {
                    let taken = (ev & 1) as u8;
                    let slot = &mut table[(ev >> 1) as usize & mask];
                    wrong += u64::from(*slot != taken);
                    *slot = taken;
                }
            }
            State::TwoBit { table } => {
                let table = table.as_mut_slice();
                let mask = table.len() - 1;
                for &ev in batch {
                    let taken = ev & 1 == 1;
                    let slot = &mut table[(ev >> 1) as usize & mask];
                    wrong += u64::from((*slot >= 2) != taken);
                    *slot = two_bit_step(*slot, taken);
                }
            }
            State::Gshare {
                table,
                history,
                hist_mask,
            } => {
                let table = table.as_mut_slice();
                let table_bits = table.len().trailing_zeros();
                let hist_mask = *hist_mask;
                // The seeded defect skips the history update on not-taken
                // branches, so the online predictor's indices drift away
                // from the golden replay's — the dynpred-consistency
                // oracle's conviction signal.
                #[cfg(feature = "seeded-defects")]
                let defect = mfdefect::active("dynpred-history-not-updated");
                #[cfg(not(feature = "seeded-defects"))]
                let defect = false;
                let mut h = *history;
                for &ev in batch {
                    let taken = ev & 1 == 1;
                    let slot = &mut table[gshare_index(BranchId(ev >> 1), h, table_bits)];
                    wrong += u64::from((*slot >= 2) != taken);
                    *slot = two_bit_step(*slot, taken);
                    if taken || !defect {
                        h = ((h << 1) | u64::from(taken)) & hist_mask;
                    }
                }
                *history = h;
            }
            State::Perceptron(p) => wrong = p.run(batch),
        }
        self.counts.executed += batch.len() as u64;
        self.counts.mispredicted += wrong;
    }
}

/// A set of online predictors all observing one run through the VM's
/// [`BranchSink`] hook. Attaching a zoo is pure observation: it never
/// changes the run's output, stats, or trace.
///
/// Events are buffered and the predictors run over them a batch at a
/// time; [`Zoo::report`] accounts for a partly filled batch, so the
/// batching is invisible to every tally.
pub struct Zoo {
    dirs: BranchDirs,
    preds: Vec<Pred>,
    /// Packed events (`id << 1 | taken`) not yet run; never longer than
    /// [`BATCH`].
    pending: Vec<u32>,
}

impl Zoo {
    /// A zoo with no layout information (BTFN predicts not-taken
    /// everywhere).
    ///
    /// # Panics
    ///
    /// Panics if a spec fails [`DynSpec::validate`].
    pub fn new(specs: &[DynSpec]) -> Self {
        Zoo::with_dirs(specs, BranchDirs::none())
    }

    /// A zoo with BTFN directions extracted from `program`.
    ///
    /// # Panics
    ///
    /// Panics if a spec fails [`DynSpec::validate`].
    pub fn for_program(specs: &[DynSpec], program: &Program) -> Self {
        Zoo::with_dirs(specs, BranchDirs::of(program))
    }

    /// A zoo with explicit [`BranchDirs`].
    ///
    /// # Panics
    ///
    /// Panics if a spec fails [`DynSpec::validate`]: an out-of-range
    /// history or table size would overflow its masks.
    pub fn with_dirs(specs: &[DynSpec], dirs: BranchDirs) -> Self {
        for spec in specs {
            if let Err(e) = spec.validate() {
                panic!("invalid predictor {spec}: {e}");
            }
        }
        Zoo {
            dirs,
            preds: specs.iter().map(|&s| Pred::new(s)).collect(),
            pending: Vec::with_capacity(BATCH),
        }
    }

    /// The per-spec tallies so far. A partly filled batch is run on a
    /// copy of each predictor, so the zoo itself is left as it was.
    pub fn report(&self) -> ZooReport {
        let entries = self
            .preds
            .iter()
            .map(|p| {
                if self.pending.is_empty() {
                    return (p.spec, p.counts);
                }
                let mut tail = p.clone();
                tail.run(&self.dirs, &self.pending);
                (p.spec, tail.counts)
            })
            .collect();
        ZooReport { entries }
    }

    /// Runs every predictor over the buffered batch and empties it.
    #[inline(never)]
    fn flush(&mut self) {
        for p in &mut self.preds {
            p.run(&self.dirs, &self.pending);
        }
        self.pending.clear();
    }
}

impl BranchSink for Zoo {
    #[inline]
    fn branch(&mut self, id: BranchId, taken: bool) {
        debug_assert!(id.0 <= MAX_BRANCH_ID, "branch id {} too wide", id.0);
        self.pending.push(id.0 << 1 | u32::from(taken));
        if self.pending.len() == BATCH {
            self.flush();
        }
    }
}

pub mod golden {
    //! A second, independent implementation of every predictor, replayed
    //! over a recorded branch trace. Deliberately written in a different
    //! style (sparse maps instead of dense tables, no shared update
    //! helpers, no seeded-defect hooks) so a bug in the online path cannot
    //! hide by being mirrored here. On a clean build
    //! `golden::replay(spec, dirs, &run.branch_trace)` must equal the
    //! online [`Zoo`](crate::Zoo)'s counts for `spec` bit for bit.

    use std::collections::HashMap;

    use trace_vm::BranchEvent;

    use crate::{BranchDirs, DynSpec, ZooCounts, ZooReport};

    fn saturate(c: i64, taken: bool) -> i64 {
        let next = if taken { c + 1 } else { c - 1 };
        next.clamp(0, 3)
    }

    /// Replays `spec` over `trace` from a cold start and returns its
    /// tallies.
    pub fn replay(spec: DynSpec, dirs: &BranchDirs, trace: &[BranchEvent]) -> ZooCounts {
        let mut counts = ZooCounts::default();
        match spec {
            DynSpec::AlwaysTaken => {
                for ev in trace {
                    counts.executed += 1;
                    if !ev.taken {
                        counts.mispredicted += 1;
                    }
                }
            }
            DynSpec::Btfn => {
                for ev in trace {
                    counts.executed += 1;
                    if dirs.is_backward(ev.id) != ev.taken {
                        counts.mispredicted += 1;
                    }
                }
            }
            DynSpec::OneBit { table_bits } => {
                let mask = (1u64 << table_bits) - 1;
                let mut last: HashMap<u64, bool> = HashMap::new();
                for ev in trace {
                    let slot = u64::from(ev.id.0) & mask;
                    let predicted = last.get(&slot).copied().unwrap_or(false);
                    counts.executed += 1;
                    if predicted != ev.taken {
                        counts.mispredicted += 1;
                    }
                    last.insert(slot, ev.taken);
                }
            }
            DynSpec::TwoBit { table_bits } => {
                let mask = (1u64 << table_bits) - 1;
                let mut ctr: HashMap<u64, i64> = HashMap::new();
                for ev in trace {
                    let slot = u64::from(ev.id.0) & mask;
                    let c = ctr
                        .get(&slot)
                        .copied()
                        .unwrap_or(i64::from(crate::TWO_BIT_INIT));
                    counts.executed += 1;
                    if (c >= 2) != ev.taken {
                        counts.mispredicted += 1;
                    }
                    ctr.insert(slot, saturate(c, ev.taken));
                }
            }
            DynSpec::Gshare {
                history,
                table_bits,
            } => {
                let mask = (1u64 << table_bits) - 1;
                let hist_mask = (1u64 << history) - 1;
                let mut ctr: HashMap<u64, i64> = HashMap::new();
                let mut ghist = 0u64;
                for ev in trace {
                    let slot = (u64::from(ev.id.0) ^ ghist) & mask;
                    let c = ctr
                        .get(&slot)
                        .copied()
                        .unwrap_or(i64::from(crate::TWO_BIT_INIT));
                    counts.executed += 1;
                    if (c >= 2) != ev.taken {
                        counts.mispredicted += 1;
                    }
                    ctr.insert(slot, saturate(c, ev.taken));
                    ghist = ((ghist << 1) | u64::from(ev.taken)) & hist_mask;
                }
            }
            DynSpec::Perceptron {
                history,
                table_bits,
            } => {
                let mask = (1u64 << table_bits) - 1;
                let hist_mask = (1u64 << history) - 1;
                let h = history as usize;
                let theta = i64::from(crate::perceptron_theta(history));
                let limit = i64::from(crate::WEIGHT_LIMIT);
                let mut table: HashMap<u64, Vec<i64>> = HashMap::new();
                let mut ghist = 0u64;
                for ev in trace {
                    let slot = u64::from(ev.id.0) & mask;
                    let w = table.entry(slot).or_insert_with(|| vec![0; h + 1]);
                    let mut y = w[0];
                    for i in 0..h {
                        let x = if (ghist >> i) & 1 == 1 { 1 } else { -1 };
                        y += w[i + 1] * x;
                    }
                    let predicted = y >= 0;
                    counts.executed += 1;
                    if predicted != ev.taken {
                        counts.mispredicted += 1;
                    }
                    if predicted != ev.taken || y.abs() <= theta {
                        let t = if ev.taken { 1 } else { -1 };
                        w[0] = (w[0] + t).clamp(-limit, limit);
                        for i in 0..h {
                            let x = if (ghist >> i) & 1 == 1 { 1 } else { -1 };
                            w[i + 1] = (w[i + 1] + t * x).clamp(-limit, limit);
                        }
                    }
                    ghist = ((ghist << 1) | u64::from(ev.taken)) & hist_mask;
                }
            }
        }
        counts
    }

    /// [`replay`] for a whole spec list, shaped like a zoo report.
    pub fn replay_zoo(specs: &[DynSpec], dirs: &BranchDirs, trace: &[BranchEvent]) -> ZooReport {
        ZooReport {
            entries: specs.iter().map(|&s| (s, replay(s, dirs, trace))).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use trace_vm::{BranchEvent, Vm, VmConfig};

    fn compile(src: &str) -> Program {
        mflang::compile(src).expect("test source compiles")
    }

    fn traced_config() -> VmConfig {
        VmConfig {
            fuel: 1_000_000,
            record_branch_trace: true,
            ..VmConfig::default()
        }
    }

    /// A loop whose branch behavior mixes a biased loop branch, an
    /// alternating branch, and a data-dependent one.
    const MIXED: &str = "
        fn main(n: int) {
            var i: int = 0;
            var acc: int = 0;
            while (i < n) {
                if (i % 2 == 0) { acc = acc + 1; }
                if (acc > 7) { acc = acc - 3; }
                i = i + 1;
            }
            emit(acc);
        }
    ";

    #[test]
    fn online_matches_golden_on_both_backends() {
        let program = compile(MIXED);
        let specs = full_zoo();
        let dirs = BranchDirs::of(&program);
        for backend in trace_vm::Backend::ALL {
            let config = VmConfig {
                backend,
                ..traced_config()
            };
            let mut zoo = Zoo::for_program(&specs, &program);
            let run = Vm::with_config(&program, config)
                .run_branches(&[trace_vm::Input::Int(40)], &mut zoo)
                .expect("clean run");
            assert!(!run.branch_trace.is_empty());
            let golden = golden::replay_zoo(&specs, &dirs, &run.branch_trace);
            assert_eq!(zoo.report(), golden, "backend {backend}");
        }
    }

    #[test]
    fn attaching_a_zoo_changes_nothing_observable() {
        let program = compile(MIXED);
        let config = traced_config();
        let plain = Vm::with_config(&program, config)
            .run(&[trace_vm::Input::Int(25)])
            .expect("clean run");
        let mut zoo = Zoo::for_program(&full_zoo(), &program);
        let observed = Vm::with_config(&program, config)
            .run_branches(&[trace_vm::Input::Int(25)], &mut zoo)
            .expect("clean run");
        assert_eq!(plain, observed);
        let report = zoo.report();
        let executed = report.entries[0].1.executed;
        assert_eq!(executed, plain.branch_trace.len() as u64);
        for (spec, counts) in &report.entries {
            assert_eq!(counts.executed, executed, "{spec}");
            assert!(counts.mispredicted <= counts.executed, "{spec}");
        }
    }

    #[test]
    fn predictors_learn_a_biased_loop() {
        // A long counted loop: the loop branch is taken ~n times and falls
        // out once, so every learning predictor should beat always-taken's
        // complement and approach perfect.
        let program =
            compile("fn main(n: int) { var i: int = 0; while (i < n) { i = i + 1; } emit(i); }");
        let mut zoo = Zoo::for_program(&full_zoo(), &program);
        Vm::with_config(&program, traced_config())
            .run_branches(&[trace_vm::Input::Int(500)], &mut zoo)
            .expect("clean run");
        let report = zoo.report();
        for spec in [
            DynSpec::TwoBit { table_bits: 12 },
            DynSpec::Gshare {
                history: 8,
                table_bits: 12,
            },
        ] {
            let c = report.get(spec).expect("spec in zoo");
            assert!(
                c.mispredict_rate() < 0.02,
                "{spec}: {} / {}",
                c.mispredicted,
                c.executed
            );
        }
    }

    #[test]
    fn gshare_learns_a_correlated_alternation_two_bit_cannot() {
        // i % 2 alternates every iteration: a local 2-bit counter on one
        // branch thrashes (50% wrong), while one bit of global history
        // makes it perfectly predictable after warmup.
        let program = compile(
            "fn main(n: int) {
                var i: int = 0; var acc: int = 0;
                while (i < n) { if (i % 2 == 0) { acc = acc + 1; } i = i + 1; }
                emit(acc);
            }",
        );
        let mut zoo = Zoo::for_program(
            &[
                DynSpec::TwoBit { table_bits: 12 },
                DynSpec::Gshare {
                    history: 8,
                    table_bits: 12,
                },
            ],
            &program,
        );
        Vm::with_config(&program, traced_config())
            .run_branches(&[trace_vm::Input::Int(400)], &mut zoo)
            .expect("clean run");
        let report = zoo.report();
        let two_bit = report.get(DynSpec::TwoBit { table_bits: 12 }).unwrap();
        let gshare = report
            .get(DynSpec::Gshare {
                history: 8,
                table_bits: 12,
            })
            .unwrap();
        assert!(
            two_bit.mispredict_rate() > 0.2,
            "2-bit should thrash on alternation: {two_bit:?}"
        );
        assert!(
            gshare.mispredict_rate() < 0.05,
            "gshare should learn the alternation: {gshare:?}"
        );
    }

    #[test]
    fn spec_names_round_trip() {
        for spec in full_zoo() {
            let name = spec.name();
            assert_eq!(name.parse::<DynSpec>().unwrap(), spec, "{name}");
        }
        assert!("gshare/h0/t12".parse::<DynSpec>().is_err());
        assert!("gshare/h8".parse::<DynSpec>().is_err());
        assert!("gshare/h8/t99".parse::<DynSpec>().is_err());
        assert!("tage/h8/t8".parse::<DynSpec>().is_err());
        assert!("1bit".parse::<DynSpec>().is_err());
        assert!("1bit/x4".parse::<DynSpec>().is_err());
    }

    #[test]
    fn btfn_uses_layout_directions() {
        // The while-loop branch is backward (taken target at or before its
        // block), so online BTFN with program dirs predicts it taken and
        // its percent-correct is high; with no dirs it predicts not-taken.
        let program =
            compile("fn main(n: int) { var i: int = 0; while (i < n) { i = i + 1; } emit(i); }");
        let spec = [DynSpec::Btfn];
        let mut with = Zoo::for_program(&spec, &program);
        Vm::with_config(&program, traced_config())
            .run_branches(&[trace_vm::Input::Int(100)], &mut with)
            .expect("clean run");
        let mut without = Zoo::new(&spec);
        Vm::with_config(&program, traced_config())
            .run_branches(&[trace_vm::Input::Int(100)], &mut without)
            .expect("clean run");
        let w = with.report().entries[0].1;
        let wo = without.report().entries[0].1;
        assert!(w.mispredict_rate() < 0.1, "{w:?}");
        assert!(wo.mispredict_rate() > 0.9, "{wo:?}");
    }

    #[test]
    #[should_panic(expected = "history 64 outside")]
    fn zoo_rejects_a_history_past_the_register() {
        Zoo::new(&[DynSpec::Gshare {
            history: 64,
            table_bits: 12,
        }]);
    }

    #[test]
    #[should_panic(expected = "table_bits 0 outside")]
    fn zoo_rejects_an_empty_table() {
        Zoo::new(&[DynSpec::TwoBit { table_bits: 0 }]);
    }

    /// The full zoo plus specs that stress the kernels' edges: a 3-bit
    /// table, a 63-bit history register, a perceptron spanning all four
    /// rows and one whose second row is mostly dead lanes.
    fn boundary_specs() -> Vec<DynSpec> {
        let mut specs = full_zoo();
        specs.extend([
            DynSpec::OneBit { table_bits: 3 },
            DynSpec::Gshare {
                history: 63,
                table_bits: 5,
            },
            DynSpec::Perceptron {
                history: 63,
                table_bits: 4,
            },
            DynSpec::Perceptron {
                history: 17,
                table_bits: 1,
            },
        ]);
        specs
    }

    /// A `len`-event synthetic trace from `seed`: 40 hot branches with ids
    /// up to 2^20 (wider than every table), each with its own mix of
    /// biased, alternating and random outcomes.
    fn synthetic_trace(len: usize, seed: u64) -> Vec<BranchEvent> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let hot: Vec<u32> = (0..40).map(|_| (next() % (1 << 20)) as u32).collect();
        (0..len)
            .map(|i| {
                let r = next();
                let k = (r % 40) as usize;
                let taken = match k % 3 {
                    0 => (r >> 8) % 8 != 0,
                    1 => i % 2 == 0,
                    _ => (r >> 8) & 1 == 1,
                };
                BranchEvent {
                    id: BranchId(hot[k]),
                    taken,
                    gap: 0,
                }
            })
            .collect()
    }

    fn arb_bool() -> impl Strategy<Value = bool> {
        (0u8..2).prop_map(|b| b == 1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Satellite: the 2-bit counter never leaves 0..=3 for any outcome
        /// sequence.
        #[test]
        fn two_bit_counter_stays_saturated(seq in prop::collection::vec(arb_bool(), 0..64)) {
            let mut c = TWO_BIT_INIT;
            for taken in seq {
                c = two_bit_step(c, taken);
                prop_assert!(c <= 3, "counter escaped its bounds: {c}");
            }
        }

        /// Satellite: the gshare index is always within the table mask for
        /// arbitrary ids, histories, and table sizes.
        #[test]
        fn gshare_index_is_always_in_table(
            id in 0u32..u32::MAX,
            history in 0u64..u64::MAX,
            table_bits in MIN_TABLE_BITS..MAX_TABLE_BITS + 1,
        ) {
            let idx = gshare_index(BranchId(id), history, table_bits);
            prop_assert!(idx < (1usize << table_bits), "{idx} out of 2^{table_bits}");
        }

        /// Satellite: perceptron weight updates clamp to ±WEIGHT_LIMIT, so
        /// neither a weight nor the dot product can overflow i32.
        #[test]
        fn perceptron_weights_never_overflow(
            seq in prop::collection::vec((arb_bool(), 0u32..4), 1..200),
        ) {
            let hist_len = 12u32;
            let specs = [DynSpec::Perceptron { history: hist_len, table_bits: 2 }];
            let mut zoo = Zoo::new(&specs);
            use trace_vm::BranchSink as _;
            for (taken, id) in seq {
                zoo.branch(BranchId(id), taken);
            }
            zoo.flush();
            let State::Perceptron(p) = &zoo.preds[0].state else {
                unreachable!("spec built a perceptron");
            };
            for &w in p.bias.iter().chain(p.weights.iter().flatten()) {
                prop_assert!(i32::from(w).abs() <= WEIGHT_LIMIT, "weight {w} escaped the clamp");
            }
            // Lanes past the history length carry no input and stay 0.
            for row in &p.weights {
                prop_assert!(row[hist_len as usize..].iter().all(|&w| w == 0), "{row:?}");
            }
            // The dot product bound the clamp guarantees:
            let max_dot = (i64::from(hist_len) + 1) * i64::from(WEIGHT_LIMIT);
            prop_assert!(max_dot < i64::from(i32::MAX));
        }

        /// Online and golden agree on arbitrary synthetic traces, for every
        /// spec in the full zoo (the same invariant the fuzz oracle holds
        /// over real program runs).
        #[test]
        fn online_matches_golden_on_synthetic_traces(
            seq in prop::collection::vec((0u32..24, arb_bool()), 0..300),
        ) {
            let trace: Vec<BranchEvent> = seq
                .iter()
                .map(|&(id, taken)| BranchEvent { id: BranchId(id), taken, gap: 0 })
                .collect();
            let specs = full_zoo();
            let dirs = BranchDirs::none();
            let mut zoo = Zoo::new(&specs);
            use trace_vm::BranchSink as _;
            for ev in &trace {
                zoo.branch(ev.id, ev.taken);
            }
            prop_assert_eq!(zoo.report(), golden::replay_zoo(&specs, &dirs, &trace));
        }
    }

    proptest! {
        // Each case replays about 66k events through golden.
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// Online and golden agree on traces that end just short of, on,
        /// and just past batch boundaries, with BTFN directions that cover
        /// only some of the ids. A `report()` taken mid-stream, on either
        /// side of a boundary, matches the golden replay of the prefix and
        /// leaves the final tallies alone.
        #[test]
        fn online_matches_golden_across_batch_boundaries(seed in 0u64..u64::MAX) {
            let specs = boundary_specs();
            let dirs = BranchDirs {
                backward: Arc::new((0..1 << 19).map(|i| i % 3 == 0).collect()),
            };
            let mids = [0, 1, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 5];
            for len in [0, 1, BATCH - 1, BATCH, BATCH + 1, 3 * BATCH + 7] {
                let trace = synthetic_trace(len, seed ^ len as u64);
                let mut zoo = Zoo::with_dirs(&specs, dirs.clone());
                use trace_vm::BranchSink as _;
                for (i, ev) in trace.iter().enumerate() {
                    if mids.contains(&i) {
                        let prefix = golden::replay_zoo(&specs, &dirs, &trace[..i]);
                        prop_assert_eq!(zoo.report(), prefix, "len {}, report at {}", len, i);
                    }
                    zoo.branch(ev.id, ev.taken);
                }
                let full = golden::replay_zoo(&specs, &dirs, &trace);
                prop_assert_eq!(zoo.report(), full, "len {}", len);
            }
        }
    }
}
