//! Gracefully degrading power estimation over faulted counter streams.
//!
//! A deployed CHAOS agent cannot assume the clean traces the models were
//! trained on: counters drop out, meters disconnect, machines die (see
//! [`chaos_counters::faults`]). The naive pipeline either panics, emits
//! NaN, or — worse — silently folds garbage into a wattage. The
//! [`RobustEstimator`] instead walks a fallback chain, answering every
//! second with the most capable model the surviving data supports and
//! recording *which* tier answered so consumers can weight their trust:
//!
//! 1. **Full** — the trained model (typically quadratic MARS, Eq. 3) on
//!    the complete feature row, with short gaps bridged by an imputation
//!    policy ([`ImputePolicy`]).
//! 2. **Reduced** — a linear model refit on the columns that survive,
//!    using the retained training data. Refits are cached per
//!    surviving-column mask, so a stuck counter costs one refit, not one
//!    per second.
//! 3. **Strawman** — the paper's CPU-utilization-only linear baseline
//!    (Section IV-A), usable as long as the single utilization counter
//!    is alive.
//! 4. **Constant** — the machine's idle power. The floor: always
//!    answers, even for a crashed reporter.
//!
//! The *coverage* of an estimate — the fraction of seconds answered
//! above the Constant floor — decays with fault rate much faster than
//! accuracy does, which is exactly the property the fault-sweep
//! ablation (`ablation_faults`) measures.

use crate::dataset::{pooled_dataset_valid, Dataset};
use crate::features::FeatureSpec;
use crate::models::{FitOptions, FittedModel, ModelTechnique};
use chaos_counters::store::{SampleSource, StoreError};
use chaos_counters::{MachineRunTrace, RunTrace};
use chaos_stats::exec::ExecPolicy;
use chaos_stats::{Matrix, StatsError};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// How the estimator bridges short gaps in individual features before
/// falling back to a reduced model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImputePolicy {
    /// Never impute: any invalid feature immediately demotes the sample.
    None,
    /// Repeat the last valid value, for at most `max_run` consecutive
    /// seconds per feature.
    CarryForward {
        /// Longest gap (in seconds) the imputer will bridge.
        max_run: usize,
    },
    /// Use the median of the last `window` valid values, for at most
    /// `max_run` consecutive seconds per feature. More robust than
    /// carry-forward when the last reading before the gap was itself a
    /// glitch.
    RollingMedian {
        /// Number of recent valid values the median is taken over.
        window: usize,
        /// Longest gap (in seconds) the imputer will bridge.
        max_run: usize,
    },
}

impl ImputePolicy {
    fn max_run(&self) -> usize {
        match *self {
            ImputePolicy::None => 0,
            ImputePolicy::CarryForward { max_run } => max_run,
            ImputePolicy::RollingMedian { max_run, .. } => max_run,
        }
    }
}

/// Which tier of the fallback chain produced an estimate. Ordered from
/// most to least capable; `Ord` follows that ranking (Full < Constant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EstimateTier {
    /// The fully trained model on a complete (possibly imputed) row.
    Full,
    /// A linear refit on the surviving feature columns.
    Reduced,
    /// The CPU-utilization-only linear strawman.
    Strawman,
    /// The idle-power constant — the always-available floor.
    Constant,
}

impl EstimateTier {
    /// Short label for tables and CSV output.
    pub fn label(self) -> &'static str {
        match self {
            EstimateTier::Full => "full",
            EstimateTier::Reduced => "reduced",
            EstimateTier::Strawman => "strawman",
            EstimateTier::Constant => "constant",
        }
    }
}

/// One second's estimate for one machine: the wattage, which tier
/// produced it, and how many features had to be imputed to get it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleEstimate {
    /// Estimated power, in watts. Always finite.
    pub power_w: f64,
    /// The tier of the fallback chain that answered.
    pub tier: EstimateTier,
    /// Number of features bridged by the imputation policy this second.
    pub imputed: usize,
}

/// A model-input row assembled from one second of one machine stream —
/// the intermediate product between
/// [`RobustEstimator::assemble_row`] and
/// [`RobustEstimator::estimate_from_row`]. Streaming consumers inspect
/// it to decide whether a window-adapted model may answer before the
/// fallback chain does.
#[derive(Debug, Clone, PartialEq)]
pub struct AssembledRow {
    /// Feature values in spec order (current columns, then lagged).
    /// Entries whose `available` flag is `false` are meaningless zeros.
    pub row: Vec<f64>,
    /// Which columns hold trustworthy (possibly imputed) values.
    pub available: Vec<bool>,
    /// How many columns the imputation policy bridged this second.
    pub imputed: usize,
}

impl AssembledRow {
    /// Whether every model input is available this second.
    pub fn complete(&self) -> bool {
        self.available.iter().all(|&a| a)
    }
}

/// One machine's raw counter row for one second, borrowed: the input
/// of [`RobustEstimator::assemble_row_from`].
///
/// `counter_ok` follows [`ValidityMask`]'s defaults: an entry missing
/// from it (an empty slice included) means the counter is valid.
///
/// [`ValidityMask`]: chaos_counters::ValidityMask
#[derive(Debug, Clone, Copy)]
pub struct CounterRow<'a> {
    /// Counter values in catalog order; a missing entry reads as NaN.
    pub counters: &'a [f64],
    /// Per-counter validity; missing entries are valid.
    pub counter_ok: &'a [bool],
}

impl CounterRow<'_> {
    /// Counter `c` when it is marked valid and finite.
    fn usable(&self, c: usize) -> Option<f64> {
        let v = self.counters.get(c).copied().unwrap_or(f64::NAN);
        (self.counter_ok.get(c).copied().unwrap_or(true) && v.is_finite()).then_some(v)
    }
}

/// Configuration for a [`RobustEstimator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustConfig {
    /// Technique for the full (tier-1) model.
    pub technique: ModelTechnique,
    /// Fit options for the full model.
    pub fit: FitOptions,
    /// Gap-bridging policy applied before tier demotion.
    pub impute: ImputePolicy,
    /// Minimum surviving columns for a reduced (tier-2) refit; below
    /// this the chain skips straight to the strawman.
    pub reduced_min_features: usize,
    /// Row cap for the retained training set (reduced-tier refits are
    /// linear, so a few thousand rows are plenty).
    pub max_train_rows: usize,
    /// Execution policy for per-machine estimation in
    /// [`RobustEstimator::estimate_cluster`]. Machine streams are
    /// independent and summed in machine order, so serial and parallel
    /// estimation are bit-identical.
    pub exec: ExecPolicy,
}

impl RobustConfig {
    /// Paper-fidelity full model (quadratic MARS) with carry-forward
    /// imputation over gaps of up to 3 s.
    pub fn paper() -> Self {
        RobustConfig {
            technique: ModelTechnique::Quadratic,
            fit: FitOptions::paper(),
            impute: ImputePolicy::CarryForward { max_run: 3 },
            reduced_min_features: 2,
            max_train_rows: 4_000,
            exec: ExecPolicy::Serial,
        }
    }

    /// Cheaper configuration for sweeps and tests.
    pub fn fast() -> Self {
        RobustConfig {
            technique: ModelTechnique::Quadratic,
            fit: FitOptions::fast(),
            impute: ImputePolicy::CarryForward { max_run: 3 },
            reduced_min_features: 2,
            max_train_rows: 1_500,
            exec: ExecPolicy::Serial,
        }
    }

    /// Returns a copy with a different imputation policy.
    pub fn with_impute(mut self, policy: ImputePolicy) -> Self {
        self.impute = policy;
        self
    }
}

/// Per-feature streaming state for the imputation policy. One instance
/// per machine stream; feed it seconds in order.
#[derive(Debug, Clone)]
pub struct ImputerState {
    last_valid: Vec<Vec<f64>>,
    gap_run: Vec<usize>,
    window: usize,
}

impl ImputerState {
    fn new(width: usize, policy: ImputePolicy) -> Self {
        let window = match policy {
            ImputePolicy::RollingMedian { window, .. } => window.max(1),
            _ => 1,
        };
        ImputerState {
            last_valid: vec![Vec::new(); width],
            gap_run: vec![0; width],
            window,
        }
    }

    fn observe(&mut self, k: usize, v: f64) {
        self.gap_run[k] = 0;
        let h = &mut self.last_valid[k];
        h.push(v);
        if h.len() > self.window {
            h.remove(0);
        }
    }

    /// Exports the imputer's streaming state as plain data for
    /// checkpointing.
    pub fn export_state(&self) -> ImputerStateSnapshot {
        ImputerStateSnapshot {
            last_valid: self.last_valid.clone(),
            gap_run: self.gap_run.clone(),
            window: self.window,
        }
    }

    /// Rebuilds an imputer from exported state. Returns `None` when the
    /// snapshot is internally inconsistent (the per-feature vectors
    /// disagree in width, or the rolling window is zero).
    pub fn import_state(snap: ImputerStateSnapshot) -> Option<Self> {
        if snap.last_valid.len() != snap.gap_run.len() || snap.window == 0 {
            return None;
        }
        Some(ImputerState {
            last_valid: snap.last_valid,
            gap_run: snap.gap_run,
            window: snap.window,
        })
    }

    // chaos-lint: cold — runs only when a counter sample is missing; the all-valid steady tick never imputes
    fn impute(&mut self, k: usize, policy: ImputePolicy) -> Option<f64> {
        if self.last_valid[k].is_empty() {
            return None;
        }
        self.gap_run[k] += 1;
        if self.gap_run[k] > policy.max_run() {
            return None;
        }
        match policy {
            ImputePolicy::None => None,
            ImputePolicy::CarryForward { .. } => self.last_valid[k].last().copied(),
            ImputePolicy::RollingMedian { .. } => {
                let mut h = self.last_valid[k].clone();
                // chaos-lint: allow(R4) — only finite samples enter
                // last_valid (guarded at insertion), so partial_cmp
                // always succeeds.
                h.sort_by(|a, b| a.partial_cmp(b).expect("history is finite"));
                Some(h[h.len() / 2])
            }
        }
    }
}

/// Plain-data snapshot of an [`ImputerState`], produced by
/// [`ImputerState::export_state`] and consumed by
/// [`ImputerState::import_state`]. Fields are public so external codecs
/// (the chaos-stream checkpoint format) can serialize them bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ImputerStateSnapshot {
    /// Per-feature history of recent valid samples (rolling-median
    /// window, or a single carry-forward value).
    pub last_valid: Vec<Vec<f64>>,
    /// Per-feature run length of consecutive imputed seconds.
    pub gap_run: Vec<usize>,
    /// Rolling-median window length (1 for other policies).
    pub window: usize,
}

/// A power estimator that degrades gracefully under counter and meter
/// faults by walking a Full → Reduced → Strawman → Constant fallback
/// chain. See the module docs for the chain's semantics.
///
/// Estimation takes `&self` — the reduced-refit cache sits behind a
/// mutex — so one estimator can serve several machine streams
/// concurrently (see [`RobustEstimator::estimate_cluster`]).
#[derive(Debug)]
pub struct RobustEstimator {
    spec: FeatureSpec,
    config: RobustConfig,
    full: FittedModel,
    strawman: Option<FittedModel>,
    cpu_position: Option<usize>,
    idle_power_w: f64,
    train_x: Matrix,
    train_y: Vec<f64>,
    reduced_cache: Mutex<HashMap<u64, Option<FittedModel>>>,
}

impl Clone for RobustEstimator {
    fn clone(&self) -> Self {
        RobustEstimator {
            spec: self.spec.clone(),
            config: self.config,
            full: self.full.clone(),
            strawman: self.strawman.clone(),
            cpu_position: self.cpu_position,
            idle_power_w: self.idle_power_w,
            train_x: self.train_x.clone(),
            train_y: self.train_y.clone(),
            reduced_cache: Mutex::new(self.cache().clone()),
        }
    }
}

impl RobustEstimator {
    /// Fits the full chain from clean (or fault-masked) training traces.
    ///
    /// `cpu_position` is the position of the CPU-utilization counter
    /// within `spec`'s current columns, used for the strawman tier; pass
    /// `spec.counters.iter().position(..)` of the utilization index, or
    /// take it from [`strawman_position`]. `idle_power_w` is the
    /// per-machine constant floor (tier 4).
    ///
    /// # Errors
    ///
    /// Returns any [`StatsError`] from dataset construction or the full
    /// model fit. A strawman fit failure is not fatal — the tier is
    /// simply absent and the chain skips from Reduced to Constant.
    pub fn fit(
        traces: &[RunTrace],
        spec: &FeatureSpec,
        cpu_position: Option<usize>,
        idle_power_w: f64,
        config: RobustConfig,
    ) -> Result<Self, StatsError> {
        let ds: Dataset = pooled_dataset_valid(traces, spec)?;
        let ds = ds.thinned(config.max_train_rows);
        let full = FittedModel::fit(config.technique, &ds.x, &ds.y, &config.fit)?;
        let strawman = cpu_position.and_then(|p| {
            let x = ds.x.select_cols(&[p]);
            FittedModel::fit(ModelTechnique::Linear, &x, &ds.y, &config.fit).ok()
        });
        Ok(RobustEstimator {
            spec: spec.clone(),
            config,
            full,
            strawman,
            cpu_position,
            idle_power_w,
            train_x: ds.x,
            train_y: ds.y,
            reduced_cache: Mutex::new(HashMap::new()),
        })
    }

    /// The reduced-model cache. An entry is inserted whole or not at
    /// all, so a panic while the lock was held leaves the map
    /// consistent, and a poisoned lock is recovered.
    fn cache(&self) -> MutexGuard<'_, HashMap<u64, Option<FittedModel>>> {
        self.reduced_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The feature spec the estimator reads.
    pub fn spec(&self) -> &FeatureSpec {
        &self.spec
    }

    /// The idle-power constant used by the last-resort tier, in watts.
    pub fn idle_power_w(&self) -> f64 {
        self.idle_power_w
    }

    /// Number of reduced models refit so far (cache size) — a cheap
    /// proxy for how much column-failure diversity the stream showed.
    pub fn reduced_models_fitted(&self) -> usize {
        self.cache().len()
    }

    /// Creates the streaming imputer state for one machine stream.
    pub fn new_imputer(&self) -> ImputerState {
        ImputerState::new(self.spec.width(), self.config.impute)
    }

    /// The estimator's configuration.
    pub fn config(&self) -> &RobustConfig {
        &self.config
    }

    /// Estimates one second of one machine stream, walking the fallback
    /// chain. Feed seconds in order with the same `imp` state per
    /// stream. Never panics, never returns NaN.
    ///
    /// Equivalent to [`assemble_row`](RobustEstimator::assemble_row)
    /// followed by
    /// [`estimate_from_row`](RobustEstimator::estimate_from_row); the
    /// split exists so streaming consumers (`chaos-stream`) can route the
    /// assembled row through window-adapted models while keeping the
    /// imputer-state evolution — and therefore the fallback behavior —
    /// bit-identical to this offline path.
    pub fn estimate_second(
        &self,
        m: &MachineRunTrace,
        t: usize,
        imp: &mut ImputerState,
    ) -> SampleEstimate {
        let row = self.assemble_row(m, t, imp);
        self.estimate_from_row(&row)
    }

    /// Assembles the model-input row for second `t` of one machine
    /// stream, applying the imputation policy. This is the first half of
    /// [`estimate_second`](RobustEstimator::estimate_second): it advances
    /// `imp` exactly as the offline path does, so a streaming consumer
    /// that calls it once per second stays state-identical to offline
    /// estimation.
    pub fn assemble_row(
        &self,
        m: &MachineRunTrace,
        t: usize,
        imp: &mut ImputerState,
    ) -> AssembledRow {
        let mut out = AssembledRow {
            row: Vec::new(),
            available: Vec::new(),
            imputed: 0,
        };
        self.assemble_row_into(m, t, imp, &mut out);
        out
    }

    /// [`assemble_row`](RobustEstimator::assemble_row) into a
    /// caller-owned [`AssembledRow`], reusing its buffers so the
    /// streaming hot path assembles without per-sample allocation.
    /// State evolution and output are identical to `assemble_row`.
    ///
    /// Reads row `t` and, for lagged counters, row `t − 1` of the trace
    /// through [`assemble_row_from`](RobustEstimator::assemble_row_from);
    /// at `t = 0` there is no lag row.
    pub fn assemble_row_into(
        &self,
        m: &MachineRunTrace,
        t: usize,
        imp: &mut ImputerState,
        out: &mut AssembledRow,
    ) {
        let row = |t: usize| CounterRow {
            counters: &m.counters[t],
            counter_ok: m.validity.counters.get(t).map_or(&[], Vec::as_slice),
        };
        let lag = t.checked_sub(1).map(row);
        self.assemble_row_from(row(t), m.alive_at(t), lag, imp, out);
    }

    /// Row-level assembly: the model-input row for one second from the
    /// machine's current counter row, its liveness, and its previous
    /// second's row (`lag`, read by lagged counters; `None` when there
    /// is no previous second, which leaves every lagged column to the
    /// imputer). A dead machine assembles an empty row. Advances `imp`
    /// exactly as [`assemble_row`](RobustEstimator::assemble_row) does.
    pub fn assemble_row_from(
        &self,
        row: CounterRow<'_>,
        alive: bool,
        lag: Option<CounterRow<'_>>,
        imp: &mut ImputerState,
        out: &mut AssembledRow,
    ) {
        let width = self.spec.width();
        out.row.clear();
        // chaos-lint: allow(R6) — resize to the fixed spec width on a cleared buffer; capacity persists after the first assembly
        out.row.resize(width, 0.0);
        out.available.clear();
        // chaos-lint: allow(R6) — same recycled buffer as above, fixed width
        out.available.resize(width, false);
        out.imputed = 0;
        if !alive {
            return;
        }
        let current = self.spec.counters.iter().map(|&c| row.usable(c));
        let lagged = self
            .spec
            .lagged
            .iter()
            .map(|&c| lag.and_then(|l| l.usable(c)));
        for (k, v) in current.chain(lagged).enumerate() {
            if let Some(v) = v {
                imp.observe(k, v);
                out.row[k] = v;
                out.available[k] = true;
            } else if let Some(iv) = imp.impute(k, self.config.impute) {
                out.row[k] = iv;
                out.available[k] = true;
                out.imputed += 1;
            }
        }
    }

    /// Walks the fallback chain over an assembled row — the second half
    /// of [`estimate_second`](RobustEstimator::estimate_second). Never
    /// panics, never returns NaN.
    pub fn estimate_from_row(&self, assembled: &AssembledRow) -> SampleEstimate {
        let mut scratch = Vec::new();
        self.estimate_from_row_with(assembled, &mut scratch)
    }

    /// [`estimate_from_row`](RobustEstimator::estimate_from_row) with a
    /// caller-owned scratch buffer for the model's design row, so the
    /// streaming hot path (complete rows answered by the Full tier)
    /// runs allocation-free. Degraded tiers may still allocate — they
    /// fire on faulted seconds, off the steady-state path. Results are
    /// bit-identical to `estimate_from_row`.
    pub fn estimate_from_row_with(
        &self,
        assembled: &AssembledRow,
        scratch: &mut Vec<f64>,
    ) -> SampleEstimate {
        let AssembledRow {
            row,
            available,
            imputed,
        } = assembled;
        let (row, imputed) = (row.as_slice(), *imputed);
        let width = self.spec.width();

        // Tier 1: full model on a complete row.
        if available.iter().all(|&a| a) {
            if let Ok(p) = self.full.predict_row_with(row, scratch) {
                if p.is_finite() {
                    return SampleEstimate {
                        power_w: p,
                        tier: EstimateTier::Full,
                        imputed,
                    };
                }
            }
        }

        // Tier 2: linear refit on the surviving columns.
        // chaos-lint: allow(R6) — tier-2 degraded branch; the all-valid steady tick returned at tier 1 above
        let keep: Vec<usize> = (0..width).filter(|&k| available[k]).collect();
        if keep.len() >= self.config.reduced_min_features.max(1) && keep.len() < width {
            // chaos-lint: allow(R6) — same degraded branch as `keep` above
            let sub: Vec<f64> = keep.iter().map(|&k| row[k]).collect();
            if let Some(p) = self.reduced_predict(&keep, &sub) {
                return SampleEstimate {
                    power_w: p,
                    tier: EstimateTier::Reduced,
                    imputed,
                };
            }
        }

        // Tier 3: CPU-utilization strawman.
        if let (Some(pos), Some(straw)) = (self.cpu_position, self.strawman.as_ref()) {
            if available[pos] {
                if let Ok(p) = straw.predict_row_with(&row[pos..=pos], scratch) {
                    if p.is_finite() {
                        return SampleEstimate {
                            power_w: p,
                            tier: EstimateTier::Strawman,
                            imputed,
                        };
                    }
                }
            }
        }

        // Tier 4: the constant floor.
        SampleEstimate {
            power_w: self.idle_power_w,
            tier: EstimateTier::Constant,
            imputed,
        }
    }

    /// Estimates a whole machine trace, returning one [`SampleEstimate`]
    /// per second.
    pub fn estimate_machine(&self, m: &MachineRunTrace) -> Vec<SampleEstimate> {
        let mut imp = self.new_imputer();
        (0..m.seconds())
            .map(|t| self.estimate_second(m, t, &mut imp))
            .collect()
    }

    /// Estimates cluster power for a run: per-machine chains summed per
    /// second (Eq. 5 with per-machine degradation), plus the per-sample
    /// *worst* tier used across machines — the honest provenance for the
    /// summed wattage.
    ///
    /// Machine streams are estimated under `config.exec`; each stream is
    /// an independent pure computation and the per-second sums are
    /// accumulated in machine order, so the estimate is bit-identical
    /// across execution policies.
    pub fn estimate_cluster(&self, run: &RunTrace) -> ClusterEstimate {
        let _span = chaos_obs::span("robust.estimate_cluster");
        let n = run.seconds();
        let per_machine = self
            .config
            .exec
            .par_map(&run.machines, |m| self.estimate_machine(m));
        let mut total = vec![0.0_f64; n];
        let mut worst = vec![EstimateTier::Full; n];
        let mut tier_counts: BTreeMap<EstimateTier, usize> = BTreeMap::new();
        for est in &per_machine {
            for (t, e) in est.iter().enumerate().take(n) {
                total[t] += e.power_w;
                worst[t] = worst[t].max(e.tier);
                *tier_counts.entry(e.tier).or_insert(0) += 1;
            }
        }
        if chaos_obs::enabled() {
            chaos_obs::add("robust.cluster_estimates", 1);
            // Surface PR 1's degradation decisions as metrics: which tier
            // answered, how often the chain switched tiers mid-stream, and
            // how many features the imputer had to bridge.
            for (tier, count) in &tier_counts {
                chaos_obs::add(&format!("robust.tier.{}", tier.label()), *count as u64);
            }
            let transitions: usize = per_machine
                .iter()
                // chaos-lint: allow(R4) — windows(2) yields exactly
                // two elements per window.
                .map(|est| est.windows(2).filter(|w| w[0].tier != w[1].tier).count())
                .sum();
            chaos_obs::add("robust.tier_transitions", transitions as u64);
            let imputed: usize = per_machine.iter().flatten().map(|e| e.imputed).sum();
            chaos_obs::add("robust.imputed_features", imputed as u64);
        }
        ClusterEstimate {
            power_w: total,
            worst_tier: worst,
            tier_counts,
        }
    }

    /// Estimates cluster power from any [`SampleSource`] — an in-memory
    /// run ([`chaos_counters::MemorySource`]) or a CHAOSCOL trace file
    /// streamed block by block ([`chaos_counters::DiskSource`]) —
    /// bit-identical to
    /// [`estimate_cluster`](RobustEstimator::estimate_cluster) on the
    /// materialized trace.
    ///
    /// Per-machine imputer state persists across chunks, each machine
    /// stream is a pure sequential computation, and per-second sums
    /// accumulate in machine order within every chunk — so the result
    /// is independent of the chunk boundaries, of `config.exec`, and of
    /// whether the samples ever touched a disk.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] from the source, and returns
    /// [`StoreError::Shape`] when the source's chunks do not partition
    /// its advertised seconds or machine count.
    pub fn estimate_source<S: SampleSource>(
        &self,
        src: &mut S,
    ) -> Result<ClusterEstimate, StoreError> {
        let _span = chaos_obs::span("robust.estimate_source");
        let n = src.seconds();
        let machines = src.machines();
        let mut imputers: Vec<ImputerState> = (0..machines).map(|_| self.new_imputer()).collect();
        let mut total = vec![0.0_f64; n];
        let mut worst = vec![EstimateTier::Full; n];
        let mut tier_counts: BTreeMap<EstimateTier, usize> = BTreeMap::new();
        let mut covered = 0usize;
        while let Some(chunk) = src.next_chunk()? {
            if chunk.machines.len() != machines {
                return Err(StoreError::Shape {
                    context: format!(
                        "chunk at {} carries {} machines, source advertised {machines}",
                        chunk.start,
                        chunk.machines.len()
                    ),
                });
            }
            let len = chunk.len();
            if chunk.start != covered || covered + len > n {
                return Err(StoreError::Shape {
                    context: format!(
                        "chunk [{}, {}) does not continue coverage at {covered}/{n}",
                        chunk.start,
                        chunk.start + len
                    ),
                });
            }
            // Machine streams fan out under `config.exec`; each is pure
            // given its carried-in imputer, so the merge below is
            // deterministic at any thread count.
            let per_machine = self.config.exec.par_map_indices(machines, |i| {
                let mut imp = imputers[i].clone();
                let m = &chunk.machines[i];
                let ests: Vec<SampleEstimate> = (0..len)
                    .map(|k| self.estimate_second(m, chunk.lag + k, &mut imp))
                    .collect();
                (imp, ests)
            });
            for (i, (imp, ests)) in per_machine.into_iter().enumerate() {
                imputers[i] = imp;
                for (k, e) in ests.iter().enumerate() {
                    let t = chunk.start + k;
                    total[t] += e.power_w;
                    worst[t] = worst[t].max(e.tier);
                    *tier_counts.entry(e.tier).or_insert(0) += 1;
                }
            }
            covered += len;
        }
        if covered != n {
            return Err(StoreError::Shape {
                context: format!("source chunks covered {covered} of {n} seconds"),
            });
        }
        if chaos_obs::enabled() {
            chaos_obs::add("robust.source_estimates", 1);
            for (tier, count) in &tier_counts {
                chaos_obs::add(&format!("robust.tier.{}", tier.label()), *count as u64);
            }
        }
        Ok(ClusterEstimate {
            power_w: total,
            worst_tier: worst,
            tier_counts,
        })
    }
}

/// A cluster-level robust estimate with provenance.
#[derive(Debug, Clone)]
pub struct ClusterEstimate {
    /// Estimated cluster power per second, in watts. Always finite.
    pub power_w: Vec<f64>,
    /// Per second, the least capable tier any machine needed.
    pub worst_tier: Vec<EstimateTier>,
    /// How many (machine, second) samples each tier answered. Ordered
    /// by tier so iteration (metrics emission, serialized reports) is
    /// byte-stable run to run.
    pub tier_counts: BTreeMap<EstimateTier, usize>,
}

impl ClusterEstimate {
    /// Fraction of (machine, second) samples answered above the constant
    /// floor — the coverage metric of the fault-sweep ablation.
    pub fn coverage(&self) -> f64 {
        let total: usize = self.tier_counts.values().sum();
        if total == 0 {
            return 0.0;
        }
        let constant = self
            .tier_counts
            .get(&EstimateTier::Constant)
            .copied()
            .unwrap_or(0);
        (total - constant) as f64 / total as f64
    }
}

impl RobustEstimator {
    /// Predicts with the reduced model for a surviving-column mask,
    /// fitting and caching it on first sight. Fitting happens under the
    /// cache lock, so concurrent streams hitting the same mask wait for
    /// one fit instead of racing duplicates; the fit is deterministic, so
    /// whichever thread populates an entry stores the same model.
    // chaos-lint: cold — degraded-tier fallback; fits once per unseen column mask, never on the all-counters-valid steady path
    fn reduced_predict(&self, keep: &[usize], sub: &[f64]) -> Option<f64> {
        let key = keep.iter().fold(0u64, |acc, &k| acc | (1 << (k % 64)));
        let mut cache = self.cache();
        let model = cache.entry(key).or_insert_with(|| {
            chaos_obs::add("robust.reduced_refits", 1);
            let x = self.train_x.select_cols(keep);
            FittedModel::fit(ModelTechnique::Linear, &x, &self.train_y, &self.config.fit).ok()
        });
        model
            .as_ref()
            .and_then(|m| m.predict_row(sub).ok())
            .filter(|p| p.is_finite())
    }
}

/// Position of the CPU-utilization counter within a spec's current
/// columns, for wiring the strawman tier.
pub fn strawman_position(
    spec: &FeatureSpec,
    catalog: &chaos_counters::CounterCatalog,
) -> Option<usize> {
    let idx = catalog.index_of("Processor\\% Processor Time (_Total)")?;
    spec.counters.iter().position(|&c| c == idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_counters::{collect_run, CounterCatalog, FaultPlan};
    use chaos_sim::{Cluster, Platform};
    use chaos_workloads::{SimConfig, Workload};

    fn setup() -> (Vec<RunTrace>, RunTrace, Cluster, CounterCatalog) {
        let cluster = Cluster::homogeneous(Platform::Core2, 2, 2);
        let catalog = CounterCatalog::for_platform(&Platform::Core2.spec());
        let train: Vec<RunTrace> = (0..2)
            .map(|r| {
                collect_run(
                    &cluster,
                    &catalog,
                    Workload::Prime,
                    &SimConfig::quick(),
                    300 + r,
                )
                .unwrap()
            })
            .collect();
        let test = collect_run(
            &cluster,
            &catalog,
            Workload::Prime,
            &SimConfig::quick(),
            390,
        )
        .unwrap();
        (train, test, cluster, catalog)
    }

    fn estimator(
        train: &[RunTrace],
        cluster: &Cluster,
        catalog: &CounterCatalog,
    ) -> RobustEstimator {
        let spec = FeatureSpec::general(catalog);
        let cpu = strawman_position(&spec, catalog);
        let idle = cluster.idle_power() / cluster.machines().len() as f64;
        let cfg = RobustConfig {
            fit: RobustConfig::fast()
                .fit
                .with_freq_column(spec.freq_column(catalog)),
            ..RobustConfig::fast()
        };
        RobustEstimator::fit(train, &spec, cpu, idle, cfg).unwrap()
    }

    #[test]
    fn clean_trace_answers_full_tier_everywhere() {
        let (train, test, cluster, catalog) = setup();
        let est = estimator(&train, &cluster, &catalog);
        let ce = est.estimate_cluster(&test);
        assert!(ce.coverage() > 0.999, "coverage {}", ce.coverage());
        assert!(ce.worst_tier.iter().all(|&t| t == EstimateTier::Full));
        // And it is accurate: DRE well inside the paper's regime.
        let actual = test.cluster_measured_power();
        let rmse = chaos_stats::metrics::rmse(&ce.power_w, &actual).unwrap();
        let dre = rmse / (cluster.max_power() - cluster.idle_power());
        assert!(dre < 0.15, "clean DRE {dre}");
    }

    #[test]
    fn moderate_dropout_keeps_estimates_finite_and_bounded() {
        let (train, test, cluster, catalog) = setup();
        let est = estimator(&train, &cluster, &catalog);
        let faulted = FaultPlan::new(77).with_counter_dropout(0.2).apply(&test);
        let ce = est.estimate_cluster(&faulted);
        assert!(ce.power_w.iter().all(|p| p.is_finite()));
        // Score against the *clean* measured power: the estimator only
        // saw the faulted counters.
        let actual = test.cluster_measured_power();
        let rmse = chaos_stats::metrics::rmse(&ce.power_w, &actual).unwrap();
        let dre = rmse / (cluster.max_power() - cluster.idle_power());
        assert!(dre < 0.35, "faulted DRE {dre}");
        // Imputation + reduced refits keep coverage high at 20% dropout.
        assert!(ce.coverage() > 0.5, "coverage {}", ce.coverage());
        assert!(est.reduced_models_fitted() > 0);
    }

    #[test]
    fn crashed_machine_falls_to_constant_floor() {
        let (train, test, cluster, catalog) = setup();
        let est = estimator(&train, &cluster, &catalog);
        let faulted = FaultPlan::new(5).with_crashes(1.0).apply(&test);
        let m = &faulted.machines[0];
        let series = est.estimate_machine(m);
        let crash_t = (0..m.seconds()).find(|&t| !m.alive_at(t)).unwrap();
        // After the imputation horizon runs out, the chain floors out.
        let horizon = 4;
        for e in &series[(crash_t + horizon).min(series.len() - 1)..] {
            assert_eq!(e.tier, EstimateTier::Constant);
            assert_eq!(e.power_w, est.idle_power_w());
        }
        for e in &series[..crash_t] {
            assert_eq!(e.tier, EstimateTier::Full);
        }
    }

    #[test]
    fn stuck_feature_demotes_to_reduced_not_constant() {
        let (train, test, cluster, catalog) = setup();
        let est = estimator(&train, &cluster, &catalog);
        // Invalidate one general-set feature for the whole run on one
        // machine by marking it stuck from t=1.
        let mut faulted = test.clone();
        let spec = FeatureSpec::general(&catalog);
        let c = spec.counters[3];
        let m = &mut faulted.machines[0];
        let n = m.seconds();
        let mut mask = chaos_counters::ValidityMask::all_valid(n, m.width());
        for t in 1..n {
            mask.counters[t][c] = false;
        }
        m.validity = mask;
        let series = est.estimate_machine(&faulted.machines[0]);
        // After the imputation horizon the chain settles on Reduced.
        let tail = &series[10..];
        assert!(
            tail.iter().all(|e| e.tier == EstimateTier::Reduced),
            "{:?}",
            tail[0].tier
        );
        assert!(tail.iter().all(|e| e.power_w.is_finite()));
        assert_eq!(est.reduced_models_fitted(), 1);
    }

    #[test]
    fn rolling_median_policy_bridges_gaps() {
        let (train, test, cluster, catalog) = setup();
        let spec = FeatureSpec::general(&catalog);
        let cpu = strawman_position(&spec, &catalog);
        let idle = cluster.idle_power() / cluster.machines().len() as f64;
        let cfg = RobustConfig {
            fit: RobustConfig::fast()
                .fit
                .with_freq_column(spec.freq_column(&catalog)),
            ..RobustConfig::fast()
        }
        .with_impute(ImputePolicy::RollingMedian {
            window: 5,
            max_run: 3,
        });
        let est = RobustEstimator::fit(&train, &spec, cpu, idle, cfg).unwrap();
        let faulted = FaultPlan::new(9).with_counter_dropout(0.05).apply(&test);
        let series = est.estimate_machine(&faulted.machines[0]);
        assert!(series.iter().any(|e| e.imputed > 0));
        assert!(series
            .iter()
            .filter(|e| e.imputed > 0)
            .all(|e| e.tier == EstimateTier::Full || e.tier == EstimateTier::Reduced));
    }

    #[test]
    fn no_imputation_policy_demotes_immediately() {
        let (train, test, cluster, catalog) = setup();
        let spec = FeatureSpec::general(&catalog);
        let cpu = strawman_position(&spec, &catalog);
        let idle = cluster.idle_power() / cluster.machines().len() as f64;
        let cfg = RobustConfig {
            fit: RobustConfig::fast()
                .fit
                .with_freq_column(spec.freq_column(&catalog)),
            ..RobustConfig::fast()
        }
        .with_impute(ImputePolicy::None);
        let est = RobustEstimator::fit(&train, &spec, cpu, idle, cfg).unwrap();
        let faulted = FaultPlan::new(4).with_counter_dropout(0.15).apply(&test);
        let series = est.estimate_machine(&faulted.machines[0]);
        assert!(series.iter().all(|e| e.imputed == 0));
        assert!(series.iter().any(|e| e.tier == EstimateTier::Reduced));
    }

    #[test]
    fn cluster_estimation_is_policy_invariant() {
        let (train, test, cluster, catalog) = setup();
        let spec = FeatureSpec::general(&catalog);
        let cpu = strawman_position(&spec, &catalog);
        let idle = cluster.idle_power() / cluster.machines().len() as f64;
        let base = RobustConfig {
            fit: RobustConfig::fast()
                .fit
                .with_freq_column(spec.freq_column(&catalog)),
            ..RobustConfig::fast()
        };
        let faulted = FaultPlan::new(77).with_counter_dropout(0.2).apply(&test);
        let serial_est = RobustEstimator::fit(&train, &spec, cpu, idle, base).unwrap();
        let serial = serial_est.estimate_cluster(&faulted);
        let par_cfg = RobustConfig {
            exec: ExecPolicy::Parallel { threads: 4 },
            ..base
        };
        let par_est = RobustEstimator::fit(&train, &spec, cpu, idle, par_cfg).unwrap();
        let parallel = par_est.estimate_cluster(&faulted);
        assert_eq!(serial.power_w, parallel.power_w);
        assert_eq!(serial.worst_tier, parallel.worst_tier);
        assert_eq!(serial.tier_counts, parallel.tier_counts);
    }

    #[test]
    fn split_api_matches_estimate_second() {
        let (train, test, cluster, catalog) = setup();
        let est = estimator(&train, &cluster, &catalog);
        let faulted = FaultPlan::new(21).with_counter_dropout(0.1).apply(&test);
        let m = &faulted.machines[0];
        let mut direct_imp = est.new_imputer();
        let mut split_imp = est.new_imputer();
        for t in 0..m.seconds() {
            let direct = est.estimate_second(m, t, &mut direct_imp);
            let assembled = est.assemble_row(m, t, &mut split_imp);
            assert_eq!(assembled.complete(), assembled.available.iter().all(|&a| a));
            let split = est.estimate_from_row(&assembled);
            assert_eq!(direct, split, "split API diverged at t={t}");
        }
    }

    #[test]
    fn tier_ordering_matches_capability() {
        assert!(EstimateTier::Full < EstimateTier::Reduced);
        assert!(EstimateTier::Reduced < EstimateTier::Strawman);
        assert!(EstimateTier::Strawman < EstimateTier::Constant);
        assert_eq!(EstimateTier::Full.label(), "full");
    }
}
