//! The streaming inference engine.
//!
//! [`StreamEngine`] wraps a trained offline [`RobustEstimator`] and
//! consumes a cluster run one second at a time, producing per-machine
//! and cluster-composed (Eq. 5) power estimates with bounded per-sample
//! work, while adapting online:
//!
//! * Every clean second (complete row, valid meter, nothing imputed) is
//!   ingested into a per-machine [`SlidingWindow`] mirrored by an
//!   incrementally factorized [`WindowedOls`], so a coefficient-level
//!   refit costs O(k²), not O(n·k²).
//! * A [`DriftDetector`] tracks rolling DRE against the held-out
//!   baseline and requests tiered refits; failures downgrade along the
//!   [`RefitTier`] ladder, and — under a [`SupervisorConfig`] — are
//!   retried a bounded number of times and escalate to per-machine
//!   quarantine when they keep failing (see [`crate::supervise`]).
//! * Faulted seconds flow through the *offline* fallback chain
//!   ([`RobustEstimator::estimate_from_row`]) with the exact imputer
//!   state evolution of batch estimation — so until a refit installs an
//!   adapted model, streaming output is bit-identical to
//!   [`RobustEstimator::estimate_cluster`].
//! * Fleet membership may change mid-run: the run's membership schedule
//!   (join / leave / replace, see [`crate::membership`]) is applied at
//!   event seconds before any machine advances, and joining machines
//!   warm-start from a donor and ramp through the refit ladder.
//! * The full engine state snapshots to a versioned binary format
//!   ([`StreamEngine::snapshot`] / [`StreamEngine::restore`], format in
//!   [`crate::checkpoint`]); a process killed at any second and resumed
//!   from its snapshot emits byte-identical predictions.
//!
//! Per-machine streams are independent between membership events;
//! [`StreamEngine::replay`] fans them out under the configured
//! [`ExecPolicy`] within each membership segment and merges per-second
//! sums in machine order, so serial and parallel replay are
//! bit-identical.

use crate::checkpoint;
use crate::drift::{DriftConfig, DriftDetector};
use crate::membership;
use crate::refit::{self, AdaptedModel, RefitOutcome, RefitTier};
use crate::supervise::{self, MachineHealth, RetryState, StreamError, SupervisorConfig};
use crate::window::SlidingWindow;
use chaos_core::robust::{AssembledRow, CounterRow, EstimateTier, ImputerState};
use chaos_core::RobustEstimator;
use chaos_counters::store::SampleSource;
use chaos_counters::RunTrace;
use chaos_obs::Value;
use chaos_stats::batch::CoefBlock;
use chaos_stats::ols::WindowedOls;
use chaos_stats::stepwise::StepwiseConfig;
use chaos_stats::{ExecPolicy, StatsError};
use chaos_trace::SecondRow;
use std::collections::BTreeMap;

/// Configuration for a [`StreamEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Sliding-window capacity in clean seconds per machine.
    pub window_s: usize,
    /// Drift thresholds and pacing.
    pub drift: DriftConfig,
    /// Wald alpha for windowed stepwise reruns.
    pub stepwise_alpha: f64,
    /// Minimum features a windowed stepwise rerun retains.
    pub stepwise_min_features: usize,
    /// Minimum window occupancy before any refit is attempted.
    pub min_refit_samples: usize,
    /// Supervision policy for refit failures (retry budget and
    /// quarantine thresholds). Defaults to disabled, which reproduces
    /// the unsupervised engine bit-identically.
    pub supervise: SupervisorConfig,
    /// Execution policy for the per-machine work of
    /// [`StreamEngine::push_tick`] and [`StreamEngine::replay`]'s
    /// fan-out. Results are bit-identical across policies.
    pub exec: ExecPolicy,
}

impl StreamConfig {
    /// Deployment-shaped defaults: five minutes of window, conservative
    /// drift response.
    pub fn paper() -> Self {
        StreamConfig {
            window_s: 300,
            drift: DriftConfig::paper(),
            stepwise_alpha: 0.05,
            stepwise_min_features: 2,
            min_refit_samples: 60,
            supervise: SupervisorConfig::disabled(),
            exec: ExecPolicy::Serial,
        }
    }

    /// Short-horizon variant for tests and quick experiments.
    pub fn fast() -> Self {
        StreamConfig {
            window_s: 60,
            drift: DriftConfig::fast(),
            stepwise_alpha: 0.05,
            stepwise_min_features: 2,
            min_refit_samples: 20,
            supervise: SupervisorConfig::disabled(),
            exec: ExecPolicy::Serial,
        }
    }

    /// Drift response disabled: the engine replays the offline fallback
    /// chain bit-identically (used by the equivalence tests and as a
    /// safe deployment floor).
    pub fn offline() -> Self {
        StreamConfig {
            drift: DriftConfig::disabled(),
            ..StreamConfig::fast()
        }
    }

    /// Returns a copy with a different execution policy.
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// Returns a copy with a different supervision policy.
    pub fn with_supervise(mut self, supervise: SupervisorConfig) -> Self {
        self.supervise = supervise;
        self
    }
}

/// One machine's streaming estimate for one second.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSample {
    /// Machine id within the cluster.
    pub machine_id: usize,
    /// Estimated power, watts. Always finite.
    pub power_w: f64,
    /// Fallback-chain tier that answered (adapted models report
    /// [`EstimateTier::Full`]).
    pub tier: EstimateTier,
    /// Features the imputation policy bridged this second.
    pub imputed: usize,
    /// Whether a window-adapted model produced the estimate.
    pub adapted: bool,
    /// Rolling DRE after this second, once the drift window is warm.
    pub rolling_dre: Option<f64>,
    /// Refit tier applied this second, if one fired.
    pub refit: Option<RefitTier>,
    /// Supervision state the machine held while producing this sample.
    pub health: MachineHealth,
}

/// Cluster-composed streaming output for one second (Eq. 5 with
/// per-machine degradation provenance).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutput {
    /// Second this output describes.
    pub t: usize,
    /// Summed cluster power, watts — over *present* machines only.
    pub cluster_power_w: f64,
    /// Least capable tier any present machine needed this second.
    pub worst_tier: EstimateTier,
    /// Machines contributing to the composition this second (left,
    /// not-yet-joined, and quarantined machines are absent).
    pub active_machines: usize,
    /// Per-machine samples for present machines, machine order.
    pub machines: Vec<StreamSample>,
}

/// A machine's previous second, as its lagged counters read it.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct LagRow {
    /// The raw counter row.
    pub(crate) counters: Vec<f64>,
    /// Per-counter validity; empty or missing entries are valid.
    pub(crate) counter_ok: Vec<bool>,
}

/// Per-machine streaming state. Cloneable so parallel replay can work on
/// a private copy per worker and the engine can write results back.
#[derive(Debug, Clone)]
pub(crate) struct MachineState {
    pub(crate) imputer: ImputerState,
    pub(crate) window: SlidingWindow,
    pub(crate) wols: WindowedOls,
    pub(crate) drift: DriftDetector,
    pub(crate) adapted: Option<AdaptedModel>,
    pub(crate) refits: Vec<RefitOutcome>,
    /// Whether the machine is currently a fleet member (joined, not
    /// left). Inactive machines produce no sample at all.
    pub(crate) active: bool,
    /// Supervision state (healthy / ramping / quarantined).
    pub(crate) health: MachineHealth,
    /// Consecutive exhausted refit requests (quarantine trigger).
    pub(crate) consecutive_failures: usize,
    /// Pending bounded retry of a failed refit request.
    pub(crate) retry: Option<RetryState>,
    /// Seconds left outside the composition while quarantined.
    pub(crate) quarantine_left: usize,
    /// Times this machine entered quarantine.
    pub(crate) quarantines: usize,
    /// Times this machine re-entered the composition after quarantine.
    pub(crate) rejoins: usize,
    /// Retry attempts performed.
    pub(crate) retries: usize,
    /// The machine's previous row; `None` only before the first second.
    /// Overwritten every second for every machine, present or not, as a
    /// trace always holds row `t − 1`.
    pub(crate) lag: Option<LagRow>,
    /// Working memory for the current second. Not serialized.
    pub(crate) scratch: MachineScratch,
}

/// Reusable per-machine scratch for the streaming hot path: the
/// buffers one second works in, and what the serial phases of a tick
/// hand to the per-machine finish. Carries no model state: a fresh
/// instance behaves bit-identically to a warmed one, so scratch is
/// never serialized.
#[derive(Debug, Clone)]
pub(crate) struct MachineScratch {
    /// The machine's index in the engine (its id in samples, events and
    /// refit outcomes).
    id: usize,
    /// Assembled model-input row, reused across seconds.
    assembled: AssembledRow,
    /// Gathered column subset / intercept-augmented row for adapted
    /// predicts and the batched row block.
    aug: Vec<f64>,
    /// Inner design row for [`FittedModel`] predicts.
    design: Vec<f64>,
    /// Whether the machine is in the composition this second.
    participates: bool,
    /// Trusted meter reading this second, if any.
    measured: Option<f64>,
    /// Raw prediction of the batched kernel, when the machine was in
    /// this second's block.
    batched: Option<f64>,
    /// The finished sample, until composition takes it.
    sample: Option<StreamSample>,
}

impl MachineScratch {
    pub(crate) fn new(id: usize) -> Self {
        MachineScratch {
            id,
            assembled: AssembledRow {
                row: Vec::new(),
                available: Vec::new(),
                imputed: 0,
            },
            aug: Vec::new(),
            design: Vec::new(),
            participates: false,
            measured: None,
            batched: None,
            sample: None,
        }
    }
}

/// Engine-level scratch for the structure-of-arrays batched predict:
/// per tick, every machine whose adapted model is a full-width linear
/// fit on a complete row is gathered into one column-major coefficient
/// block and scored with a single dot-product loop
/// ([`CoefBlock::predict_into`]), instead of one strided `predict_row`
/// call per machine. Machines outside that shape (no adapted model,
/// pruned columns, technique models, incomplete rows) take the scalar
/// path — never zero-padded into the block, which would change bits
/// (`0.0 × NaN`, `-0.0 + 0.0`). All buffers are reused tick to tick.
#[derive(Debug)]
pub(crate) struct BatchScratch {
    /// Column-major coefficient block (`[intercept | coefs]` rows).
    coefs: CoefBlock,
    /// Column-major feature block (`[1 | model-input row]` rows).
    rows: CoefBlock,
    /// Machine index of each block entry, ascending.
    idx: Vec<usize>,
    /// Batched predictions, aligned with `idx`.
    out: Vec<f64>,
}

impl BatchScratch {
    pub(crate) fn new(k: usize) -> Self {
        BatchScratch {
            coefs: CoefBlock::new(k),
            rows: CoefBlock::new(k),
            idx: Vec::new(),
            out: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.coefs.clear();
        self.rows.clear();
        self.idx.clear();
        self.out.clear();
    }
}

/// The streaming online-inference engine. See the module docs.
#[derive(Debug)]
pub struct StreamEngine {
    pub(crate) estimator: RobustEstimator,
    pub(crate) config: StreamConfig,
    pub(crate) machines: Vec<MachineState>,
    pub(crate) t: usize,
    /// Batched-predict scratch. Not serialized.
    pub(crate) batch: BatchScratch,
}

impl StreamEngine {
    /// Creates an engine for `machines` parallel streams over a trained
    /// estimator. `power_max_w`/`power_idle_w` define the per-machine
    /// dynamic range the rolling DRE normalizes by (Eq. 6), and
    /// `baseline_dre` is the held-out DRE the drift detector compares
    /// against.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::Stats`] for a zero machine count, a zero
    /// window, or drift parameters rejected by [`DriftDetector::new`].
    pub fn new(
        estimator: RobustEstimator,
        machines: usize,
        power_max_w: f64,
        power_idle_w: f64,
        baseline_dre: f64,
        config: StreamConfig,
    ) -> Result<Self, StreamError> {
        if machines == 0 {
            return Err(StreamError::Stats(StatsError::InvalidParameter {
                context: "stream engine: need at least one machine stream".into(),
            }));
        }
        let width = estimator.spec().width();
        let states = (0..machines)
            .map(|id| {
                Ok(MachineState {
                    imputer: estimator.new_imputer(),
                    window: SlidingWindow::new(config.window_s, width)?,
                    wols: WindowedOls::new(width),
                    drift: DriftDetector::new(
                        config.drift,
                        baseline_dre,
                        power_max_w,
                        power_idle_w,
                    )?,
                    adapted: None,
                    refits: Vec::new(),
                    active: true,
                    health: MachineHealth::Healthy,
                    consecutive_failures: 0,
                    retry: None,
                    quarantine_left: 0,
                    quarantines: 0,
                    rejoins: 0,
                    retries: 0,
                    lag: None,
                    scratch: MachineScratch::new(id),
                })
            })
            .collect::<Result<Vec<_>, StatsError>>()?;
        Ok(StreamEngine {
            estimator,
            config,
            machines: states,
            t: 0,
            batch: BatchScratch::new(width + 1),
        })
    }

    /// Processes second `t` of `run` across all machine streams and
    /// returns the cluster-composed output — the trace-driven form of
    /// [`push_tick`](StreamEngine::push_tick). Seconds must be fed
    /// strictly in order starting at 0 (or at the snapshot's cursor
    /// after [`restore`](StreamEngine::restore)). Membership events
    /// scheduled at `t` are applied before any machine advances.
    ///
    /// # Errors
    ///
    /// * [`StreamError::OutOfOrder`] if `t` is out of order.
    /// * [`StreamError::MachineCountMismatch`] if the run's machine
    ///   count does not match the engine's.
    /// * [`StreamError::BeyondTrace`] if `t` is past the run's length.
    /// * [`StreamError::Membership`] for an invalid membership schedule.
    pub fn push_second(&mut self, run: &RunTrace, t: usize) -> Result<StreamOutput, StreamError> {
        if t != self.t {
            return Err(StreamError::OutOfOrder {
                expected: self.t,
                got: t,
            });
        }
        if run.machines.len() != self.machines.len() {
            return Err(StreamError::MachineCountMismatch {
                run: run.machines.len(),
                engine: self.machines.len(),
            });
        }
        if t >= run.seconds() {
            return Err(StreamError::BeyondTrace {
                t,
                seconds: run.seconds(),
            });
        }
        if t == 0 {
            membership::validate(run)?;
            membership::apply_initial_activity(&mut self.machines, run);
        }
        membership::apply_events_at(&self.estimator, &mut self.machines, run, t);
        let rows: Vec<SecondRow<'_>> = run.machines.iter().map(|m| m.row(t)).collect();
        let mut out = StreamOutput {
            t,
            cluster_power_w: 0.0,
            worst_tier: EstimateTier::Full,
            active_machines: 0,
            machines: Vec::new(),
        };
        self.push_tick(&rows, &mut out)?;
        Ok(out)
    }

    /// Processes the next second from one row per machine, machine
    /// order, into a caller-owned [`StreamOutput`] whose sample vector
    /// is reused, so a steady-state tick under [`ExecPolicy::Serial`]
    /// allocates nothing. The engine reads nothing but `rows` and its
    /// own state: each machine keeps its previous row for lagged
    /// counters. Membership is the caller's; on error `out` holds no
    /// samples for this second.
    ///
    /// A tick runs in four phases so the fleet is scored as a block:
    /// (1) every machine assembles its model-input row and keeps the
    /// current row as its next lag row, (2) machines whose adapted model
    /// is a full-width linear fit on a complete row are gathered into a
    /// column-major [`CoefBlock`] and scored with one dot-product loop,
    /// (3) each machine finishes its second (fallback, training ingest,
    /// drift, refits) under `config.exec`, and (4) the samples compose
    /// in machine order (Eq. 5). Machine states are independent within
    /// a second and the batched kernel is bit-identical to the
    /// per-machine scalar predict (see [`chaos_stats::batch`]), so the
    /// output is the same bits under any policy.
    ///
    /// # Errors
    ///
    /// [`StreamError::MachineCountMismatch`] if `rows` does not hold
    /// one row per engine machine.
    // chaos-lint: hot — per-second fleet tick; alloc_regression pins it at zero allocations under Serial
    pub fn push_tick(
        &mut self,
        rows: &[SecondRow<'_>],
        out: &mut StreamOutput,
    ) -> Result<(), StreamError> {
        let t = self.t;
        out.t = t;
        out.cluster_power_w = 0.0;
        out.worst_tier = EstimateTier::Full;
        out.active_machines = 0;
        out.machines.clear();
        if rows.len() != self.machines.len() {
            return Err(StreamError::MachineCountMismatch {
                run: rows.len(),
                engine: self.machines.len(),
            });
        }
        let estimator = &self.estimator;
        let config = &self.config;

        // Phase 1: quarantine accounting, row assembly and the lag
        // handover, per machine.
        for (state, row) in self.machines.iter_mut().zip(rows) {
            Self::begin_second(estimator, state, row, t);
        }

        // Phase 2: gather the SoA block. Eligible machines have an
        // adapted linear fit spanning every spec column (the dominant
        // steady state after a CoefficientRefresh) and a complete row.
        // `columns.len() == width` implies the identity selection:
        // selections are ascending unique indices into `0..width`.
        self.batch.clear();
        let width = estimator.spec().width();
        for (i, state) in self.machines.iter_mut().enumerate() {
            let s = &mut state.scratch;
            if !s.participates || !s.assembled.complete() {
                continue;
            }
            let Some(AdaptedModel::Linear { columns, fit }) = state.adapted.as_ref() else {
                continue;
            };
            if columns.len() != width || fit.coefficients().len() != width + 1 {
                continue;
            }
            s.aug.clear();
            // chaos-lint: allow(R6) — recycled per-machine scratch; cleared above with capacity kept
            s.aug.push(1.0);
            // chaos-lint: allow(R6) — same recycled scratch, fixed row width
            s.aug.extend_from_slice(&s.assembled.row);
            // chaos-lint: allow(R6) — CoefBlock::push stages into preallocated storage and rejects overflow instead of growing
            if self.batch.coefs.push(fit.coefficients()).is_ok()
                && self.batch.rows.push(&s.aug).is_ok()
            {
                // chaos-lint: allow(R6) — cleared-per-tick index buffer, capacity kept
                self.batch.idx.push(i);
            }
        }
        self.batch.coefs.seal();
        self.batch.rows.seal();
        // chaos-lint: allow(R6) — bounded by machine count; the output buffer's capacity is retained across ticks
        self.batch.out.resize(self.batch.idx.len(), 0.0);
        // A kernel error is unreachable by construction (widths are
        // validated at gather time); it leaves every machine on the
        // scalar path rather than dropping a sample.
        if !self.batch.idx.is_empty()
            && self
                .batch
                .coefs
                .predict_into(&self.batch.rows, &mut self.batch.out)
                .is_ok()
        {
            for (&i, &p) in self.batch.idx.iter().zip(&self.batch.out) {
                if let Some(state) = self.machines.get_mut(i) {
                    state.scratch.batched = Some(p);
                }
            }
        }

        // Phase 3: finish every machine's second under the configured
        // policy. Each call touches only its own machine, and the sample
        // stays in its scratch: the collected `Vec<()>` never allocates,
        // so a serial tick stays alloc-free.
        config.exec.par_map_mut(&mut self.machines, |state| {
            state.scratch.sample = Self::finish_second(estimator, config, state, t);
        });

        // Phase 4: compose in machine order — the same accumulation
        // order as `compose`, preserving bit-identity.
        for state in &mut self.machines {
            if let Some(sample) = state.scratch.sample.take() {
                out.cluster_power_w += sample.power_w;
                out.worst_tier = out.worst_tier.max(sample.tier);
                // chaos-lint: allow(R6) — out.machines is cleared (capacity kept) at tick start; bounded by machine count
                out.machines.push(sample);
            }
        }
        out.active_machines = out.machines.len();
        self.t += 1;
        Ok(())
    }

    /// Replays a whole run through a fresh engine, fanning machine
    /// streams out under `config.exec` and merging per-second sums in
    /// machine order — bit-identical to calling
    /// [`push_second`](StreamEngine::push_second) for every second
    /// serially.
    ///
    /// Membership events split the run into segments; events apply
    /// serially at segment boundaries (donor warm-starts read other
    /// machines' state) and machine streams fan out within each segment,
    /// where they are independent.
    ///
    /// # Errors
    ///
    /// * [`StreamError::NotPristine`] if the engine has already consumed
    ///   seconds.
    /// * [`StreamError::MachineCountMismatch`] on a machine-count
    ///   mismatch.
    /// * [`StreamError::Membership`] for an invalid membership schedule.
    pub fn replay(&mut self, run: &RunTrace) -> Result<Vec<StreamOutput>, StreamError> {
        if self.t != 0 {
            return Err(StreamError::NotPristine { consumed: self.t });
        }
        if run.machines.len() != self.machines.len() {
            return Err(StreamError::MachineCountMismatch {
                run: run.machines.len(),
                engine: self.machines.len(),
            });
        }
        membership::validate(run)?;
        let _span = chaos_obs::span("stream.replay");
        let n = run.seconds();
        membership::apply_initial_activity(&mut self.machines, run);

        // Segment boundaries: second 0, every event second, end of run.
        let mut boundaries: Vec<usize> = std::iter::once(0)
            .chain(run.membership.iter().map(|e| e.t))
            .filter(|&t| t < n)
            .collect();
        boundaries.sort_unstable();
        boundaries.dedup();
        boundaries.push(n);

        let estimator = &self.estimator;
        let config = self.config;
        let mut per_machine_samples: Vec<Vec<Option<StreamSample>>> =
            vec![Vec::with_capacity(n); self.machines.len()];
        for w in boundaries.windows(2) {
            let &[lo, hi] = w else { continue };
            membership::apply_events_at(estimator, &mut self.machines, run, lo);
            let machines = &self.machines;
            let segment: Vec<(MachineState, Vec<Option<StreamSample>>)> =
                config.exec.par_map_indices(machines.len(), |i| {
                    let mut state = machines[i].clone();
                    let m = &run.machines[i];
                    let samples: Vec<Option<StreamSample>> = (lo..hi)
                        .map(|t| Self::advance(estimator, &config, &mut state, &m.row(t), t))
                        .collect();
                    (state, samples)
                });
            for ((state, (new_state, samples)), acc) in self
                .machines
                .iter_mut()
                .zip(segment)
                .zip(per_machine_samples.iter_mut())
            {
                *state = new_state;
                acc.extend(samples);
            }
        }

        let mut outputs = Vec::with_capacity(n);
        for t in 0..n {
            let samples: Vec<Option<StreamSample>> =
                per_machine_samples.iter().map(|s| s[t].clone()).collect();
            outputs.push(Self::compose(t, samples));
        }
        self.t = n;
        Ok(outputs)
    }

    /// Replays a whole run drawn from any [`SampleSource`] — an
    /// in-memory trace or a CHAOSCOL file — bit-identical to
    /// [`replay`](StreamEngine::replay) on the equivalent in-memory
    /// [`RunTrace`], at any `CHAOS_THREADS` setting.
    ///
    /// Streaming replay needs global access the chunk interface cannot
    /// provide — donor warm-starts at membership boundaries read *other*
    /// machines' state, and window-adapted models reach back across
    /// arbitrary spans — so this path materializes the source once and
    /// hands it to [`replay`](StreamEngine::replay). Chunk-at-a-time
    /// consumption with bounded memory lives in the offline path
    /// (`RobustEstimator::estimate_source`).
    ///
    /// # Errors
    ///
    /// [`StreamError::Source`] if the source cannot be drained, plus
    /// every condition of [`replay`](StreamEngine::replay).
    pub fn replay_source<S: SampleSource>(
        &mut self,
        src: &mut S,
    ) -> Result<Vec<StreamOutput>, StreamError> {
        let run = src.materialize()?;
        self.replay(&run)
    }

    /// Processes every not-yet-consumed second of `run` in order —
    /// the restart path after [`restore`](StreamEngine::restore). See
    /// [`snapshot`](StreamEngine::snapshot) for the full
    /// kill/restore/resume round trip.
    ///
    /// # Errors
    ///
    /// Same conditions as [`push_second`](StreamEngine::push_second).
    pub fn resume(&mut self, run: &RunTrace) -> Result<Vec<StreamOutput>, StreamError> {
        let n = run.seconds();
        let mut outputs = Vec::with_capacity(n.saturating_sub(self.t));
        while self.t < n {
            let t = self.t;
            outputs.push(self.push_second(run, t)?);
        }
        Ok(outputs)
    }

    /// Serializes the complete engine state (every machine's window,
    /// solver, drift baseline, supervision state, and the sample cursor)
    /// into the versioned binary snapshot format of
    /// [`crate::checkpoint`]. Restoring the snapshot and resuming yields
    /// byte-identical predictions to an uninterrupted run.
    ///
    /// The estimator is deliberately *not* serialized: it is a
    /// deterministic function of training data and configuration, so a
    /// restart retrains (or reloads) it and hands it back to
    /// [`restore`](StreamEngine::restore).
    ///
    /// # Example: kill at an arbitrary second, restore, resume
    ///
    /// ```
    /// use chaos_core::robust::{strawman_position, RobustConfig, RobustEstimator};
    /// use chaos_core::FeatureSpec;
    /// use chaos_counters::{collect_run, CounterCatalog};
    /// use chaos_sim::{Cluster, Platform};
    /// use chaos_stream::{StreamConfig, StreamEngine};
    /// use chaos_workloads::{SimConfig, Workload};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// // Train a small offline estimator (deterministic from the seed).
    /// let cluster = Cluster::homogeneous(Platform::Core2, 2, 9);
    /// let catalog = CounterCatalog::for_platform(&Platform::Core2.spec());
    /// let sim = SimConfig::quick();
    /// let train = vec![collect_run(&cluster, &catalog, Workload::Prime, &sim, 800)?];
    /// let spec = FeatureSpec::general(&catalog);
    /// let cfg = RobustConfig {
    ///     fit: RobustConfig::fast().fit.with_freq_column(spec.freq_column(&catalog)),
    ///     ..RobustConfig::fast()
    /// };
    /// let cpu = strawman_position(&spec, &catalog);
    /// let idle = cluster.idle_power() / 2.0;
    /// let est = RobustEstimator::fit(&train, &spec, cpu, idle, cfg)?;
    ///
    /// // Stream half a run, snapshot, and "kill" the engine.
    /// let run = collect_run(&cluster, &catalog, Workload::Prime, &sim, 801)?;
    /// let max = cluster.max_power() / 2.0;
    /// let mut engine = StreamEngine::new(est.clone(), 2, max, idle, 0.05, StreamConfig::fast())?;
    /// let kill_at = run.seconds() / 2;
    /// let mut outputs = Vec::new();
    /// for t in 0..kill_at {
    ///     outputs.push(engine.push_second(&run, t)?);
    /// }
    /// let snapshot = engine.snapshot();
    /// drop(engine);
    ///
    /// // Restore around a freshly constructed estimator and resume.
    /// let mut restored = StreamEngine::restore(est.clone(), &snapshot)?;
    /// assert_eq!(restored.seconds_processed(), kill_at);
    /// outputs.extend(restored.resume(&run)?);
    ///
    /// // The stitched stream is bit-identical to an uninterrupted run.
    /// let mut uninterrupted = StreamEngine::new(est, 2, max, idle, 0.05, StreamConfig::fast())?;
    /// let expected = uninterrupted.replay(&run)?;
    /// assert_eq!(outputs, expected);
    /// # Ok(())
    /// # }
    /// ```
    pub fn snapshot(&self) -> Vec<u8> {
        checkpoint::encode_engine(self)
    }

    /// Rebuilds an engine from a snapshot around a freshly constructed
    /// `estimator` (the estimator itself is deterministic from training
    /// and is deliberately not part of the snapshot). See
    /// [`snapshot`](StreamEngine::snapshot) for the full
    /// kill/restore/resume round trip.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::Snapshot`] for a corrupted, truncated,
    /// version-skewed, or estimator-incompatible snapshot.
    // chaos-lint: no-panic — decodes untrusted snapshot bytes; every failure is a StreamError
    pub fn restore(estimator: RobustEstimator, bytes: &[u8]) -> Result<Self, StreamError> {
        checkpoint::decode_engine(estimator, bytes)
    }

    /// Advances one machine stream by one second — the scalar
    /// (non-batched) path used by replay workers. Associated function
    /// (no `&mut self`) so parallel replay can run it on cloned states.
    /// Returns `None` for machines outside the composition this second
    /// (left, not yet joined, or quarantined). Bit-identical to the
    /// batched phases of [`push_tick`](StreamEngine::push_tick).
    fn advance(
        estimator: &RobustEstimator,
        config: &StreamConfig,
        state: &mut MachineState,
        row: &SecondRow<'_>,
        t: usize,
    ) -> Option<StreamSample> {
        Self::begin_second(estimator, state, row, t);
        Self::finish_second(estimator, config, state, t)
    }

    /// First phase of one machine-second: quarantine accounting, row
    /// assembly into the scratch from `row` and the lag row, the trusted
    /// meter reading, and the lag handover — the current row becomes
    /// the next second's lag row whether or not the machine takes part.
    fn begin_second(
        estimator: &RobustEstimator,
        state: &mut MachineState,
        row: &SecondRow<'_>,
        t: usize,
    ) {
        state.scratch.batched = None;
        state.scratch.participates = Self::admit(state, t);
        if state.scratch.participates {
            chaos_obs::add("stream.samples", 1);
            let current = CounterRow {
                counters: row.counters,
                counter_ok: row.counter_ok.unwrap_or(&[]),
            };
            let lag = state.lag.as_ref().map(|l| CounterRow {
                counters: &l.counters,
                counter_ok: &l.counter_ok,
            });
            let alive = row.alive.unwrap_or(true);
            estimator.assemble_row_from(
                current,
                alive,
                lag,
                &mut state.imputer,
                &mut state.scratch.assembled,
            );
            // `None` means the meter cannot be trusted (faulted, machine
            // dead, or non-finite): neither training nor drift sees it.
            state.scratch.measured = Some(row.measured_power_w)
                .filter(|v| v.is_finite() && row.meter_ok.unwrap_or(true) && alive);
        }
        let lag = state.lag.get_or_insert_with(LagRow::default);
        lag.counters.clear();
        // chaos-lint: allow(R6) — refills a row buffer cleared above; its capacity is the catalog width after the first second
        lag.counters.extend_from_slice(row.counters);
        lag.counter_ok.clear();
        // chaos-lint: allow(R6) — same recycled row buffer, bounded by the catalog width
        lag.counter_ok
            .extend_from_slice(row.counter_ok.unwrap_or(&[]));
    }

    /// Whether the machine takes part this second, counting down (and
    /// ending) quarantine.
    fn admit(state: &mut MachineState, t: usize) -> bool {
        if !state.active {
            return false;
        }
        if state.health == MachineHealth::Quarantined {
            if state.quarantine_left > 0 {
                state.quarantine_left -= 1;
                chaos_obs::add("stream.supervisor.quarantined_seconds", 1);
                return false;
            }
            // Countdown expired: readmit through the ramp path with the
            // machine's own last adapted model (self-warm-start) and a
            // cleared training window.
            state.health = MachineHealth::Ramping;
            state.window.clear();
            state.wols = WindowedOls::new(state.window.width());
            state.drift.reset_window();
            state.rejoins += 1;
            chaos_obs::add("stream.supervisor.rejoins", 1);
            chaos_obs::event(
                "stream.supervisor.rejoin",
                &[
                    ("t", Value::U64(t as u64)),
                    ("machine", Value::U64(state.scratch.id as u64)),
                ],
            );
        }
        true
    }

    /// Scalar adapted predict over the assembled row — the per-machine
    /// counterpart of the batched [`CoefBlock`] kernel.
    fn scalar_adapted_power(state: &mut MachineState) -> Option<f64> {
        let MachineScratch {
            assembled,
            aug,
            design,
            ..
        } = &mut state.scratch;
        if !assembled.complete() {
            return None;
        }
        state
            .adapted
            .as_ref()
            .and_then(|model| model.predict_with(&assembled.row, aug, design))
    }

    /// Final phase of one machine-second: fallback-chain estimation when
    /// no adapted model answered, training ingest, drift scoring, and
    /// the refit ladder. The adapted prediction is the batched kernel's
    /// (finiteness-filtered) when the machine was in the block, else the
    /// scalar kernel's. Returns `None` when the machine is outside the
    /// composition this second.
    fn finish_second(
        estimator: &RobustEstimator,
        config: &StreamConfig,
        state: &mut MachineState,
        t: usize,
    ) -> Option<StreamSample> {
        if !state.scratch.participates {
            return None;
        }
        let adapted_power = match state.scratch.batched {
            Some(p) => Some(p).filter(|p| p.is_finite()),
            None => Self::scalar_adapted_power(state),
        };
        let id = state.scratch.id;
        let measured = state.scratch.measured;
        let scratch = &mut state.scratch;

        // Prediction: a window-adapted model answers on complete rows;
        // anything it cannot answer falls through to the offline
        // fallback chain, which reuses the estimator's tiers so faulted
        // counters degrade exactly as they do offline.
        let (power_w, tier, adapted) = match adapted_power {
            Some(p) => (p, EstimateTier::Full, true),
            None => {
                let est = estimator.estimate_from_row_with(&scratch.assembled, &mut scratch.design);
                (est.power_w, est.tier, false)
            }
        };
        let imputed = scratch.assembled.imputed;
        let pristine = scratch.assembled.complete() && imputed == 0;

        // Training ingest: only pristine seconds (complete row, nothing
        // imputed, trusted meter) enter the window, so adapted models
        // never train on reconstructed data.
        let mut ingested = false;
        if let Some(y) = measured {
            if pristine {
                let row = &state.scratch.assembled.row;
                // chaos-lint: allow(R6) — WindowedOls::push is a rank-1 update into preallocated Gram storage (aug_scratch is reused)
                if state.wols.push(row, y).is_ok() {
                    ingested = true;
                    // A full window evicts its oldest row: hand it to
                    // the solver's pop *before* the push recycles its
                    // storage. A failed downdate inside pop falls back
                    // internally; any other pop failure means the
                    // solver and window desynchronized, so rebuild the
                    // solver from the window deterministically.
                    let mut desync = false;
                    if state.window.is_full() {
                        if let Some((old_row, old_y)) = state.window.peek_oldest() {
                            desync = state.wols.pop(old_row, old_y).is_err();
                        }
                    }
                    if state.window.push_recycle(row, y).is_err() {
                        // The solver push above validated the same
                        // width, so this cannot fail; count it if the
                        // impossible happens rather than panic.
                        chaos_obs::add("stream.window_push_failed", 1);
                    }
                    if desync {
                        Self::resync_wols(state);
                    }
                }
            }
        }
        chaos_obs::record("stream.window_occupancy", state.window.len() as u64);

        // Ramp completion: a (re)joined machine graduates once its own
        // window has refilled.
        if state.health == MachineHealth::Ramping && state.window.is_full() {
            state.health = MachineHealth::Healthy;
            chaos_obs::add("stream.supervisor.ramp_complete", 1);
            chaos_obs::event(
                "stream.supervisor.ramp_complete",
                &[
                    ("t", Value::U64(t as u64)),
                    ("machine", Value::U64(id as u64)),
                ],
            );
        }

        let mut rolling_dre = None;
        let mut applied_refit = None;

        // Pending bounded retry: re-walk the ladder when fresh clean
        // evidence arrives (a new training sample), never on a timer.
        if let Some(pending) = state.retry {
            if ingested && state.window.len() >= config.min_refit_samples.max(1) {
                state.retries += 1;
                chaos_obs::add("stream.supervisor.retries", 1);
                let requested = Self::capped_tier(state, pending.requested);
                let outcome = Self::run_refit(estimator, config, state, requested, t, id);
                let succeeded = outcome.applied.is_some();
                applied_refit = outcome.applied;
                // chaos-lint: allow(R6) — refit bookkeeping on the event-driven retry branch, not the quiet tick
                state.refits.push(outcome);
                state.drift.note_refit();
                if succeeded {
                    state.retry = None;
                    state.consecutive_failures = 0;
                } else if pending.attempts_left <= 1 {
                    state.retry = None;
                    Self::note_exhausted(state, config, t, id);
                } else {
                    state.retry = Some(RetryState {
                        requested: pending.requested,
                        attempts_left: pending.attempts_left - 1,
                    });
                }
            }
        }

        // Drift: score the emitted prediction against the meter when the
        // meter is trustworthy, and escalate through refit tiers.
        if let Some(y) = measured {
            let decision = state.drift.observe(power_w, y);
            rolling_dre = decision.rolling_dre;
            if let Some(requested) = decision.trigger {
                if state.retry.is_none()
                    && applied_refit.is_none()
                    && state.window.len() >= config.min_refit_samples.max(1)
                {
                    let (dre_field, ratio_field) = match (decision.rolling_dre, decision.ratio) {
                        (Some(d), Some(r)) => (Value::F64(d), Value::F64(r)),
                        // A trigger implies a warm window, so both are
                        // present; keep the event well-formed regardless.
                        _ => (Value::Str("cold".into()), Value::Str("cold".into())),
                    };
                    chaos_obs::event(
                        "stream.drift",
                        &[
                            ("t", Value::U64(t as u64)),
                            ("machine", Value::U64(id as u64)),
                            ("rolling_dre", dre_field),
                            ("ratio", ratio_field),
                            // chaos-lint: allow(R6) — drift-event field; this branch fires only on drift detection
                            ("requested", Value::Str(requested.label().to_string())),
                        ],
                    );
                    let capped = Self::capped_tier(state, requested);
                    let outcome = Self::run_refit(estimator, config, state, capped, t, id);
                    let succeeded = outcome.applied.is_some();
                    applied_refit = outcome.applied;
                    // chaos-lint: allow(R6) — refit bookkeeping on the drift branch, not the quiet tick
                    state.refits.push(outcome);
                    state.drift.note_refit();
                    if succeeded {
                        state.consecutive_failures = 0;
                    } else if config.supervise.max_attempts > 1 {
                        state.retry = Some(RetryState {
                            requested: capped,
                            attempts_left: config.supervise.max_attempts - 1,
                        });
                    } else {
                        Self::note_exhausted(state, config, t, id);
                    }
                }
            }
        }

        Some(StreamSample {
            machine_id: id,
            power_w,
            tier,
            imputed,
            adapted,
            rolling_dre,
            refit: applied_refit,
            health: state.health,
        })
    }

    /// The refit tier actually requested after the ramp cap: a machine
    /// still refilling its window may not run tiers its window cannot
    /// support.
    fn capped_tier(state: &MachineState, requested: RefitTier) -> RefitTier {
        if state.health == MachineHealth::Ramping {
            requested.min(supervise::ramp_cap(
                state.window.len(),
                state.window.capacity(),
            ))
        } else {
            requested
        }
    }

    /// Registers one exhausted refit request (every attempt failed) and
    /// quarantines the machine when the configured threshold of
    /// consecutive exhaustions is reached.
    fn note_exhausted(
        state: &mut MachineState,
        config: &StreamConfig,
        t: usize,
        machine_id: usize,
    ) {
        state.consecutive_failures += 1;
        chaos_obs::add("stream.supervisor.exhausted", 1);
        let threshold = config.supervise.quarantine_after;
        if threshold > 0 && state.consecutive_failures >= threshold {
            state.health = MachineHealth::Quarantined;
            state.quarantine_left = config.supervise.quarantine_s.max(1);
            state.quarantines += 1;
            state.consecutive_failures = 0;
            state.retry = None;
            chaos_obs::add("stream.supervisor.quarantines", 1);
            chaos_obs::event(
                "stream.supervisor.quarantine",
                &[
                    ("t", Value::U64(t as u64)),
                    ("machine", Value::U64(machine_id as u64)),
                    (
                        "quarantine_s",
                        Value::U64(config.supervise.quarantine_s.max(1) as u64),
                    ),
                ],
            );
        }
    }

    /// Rebuilds the incremental solver from the sliding window after a
    /// desynchronizing pop failure — a deterministic resync instead of a
    /// silently wrong solver.
    // chaos-lint: cold — deterministic recovery from a desynchronizing pop failure; never runs on a healthy steady tick
    fn resync_wols(state: &mut MachineState) {
        chaos_obs::add("stream.wols_resync", 1);
        let mut solver = WindowedOls::new(state.window.width());
        for (row, y) in state.window.iter() {
            if solver.push(row, y).is_err() {
                // Window rows were validated on entry, so a re-push
                // cannot fail; count it if the impossible happens rather
                // than panic in library code.
                chaos_obs::add("stream.wols_resync_skipped", 1);
            }
        }
        state.wols = solver;
    }

    /// Walks the refit ladder from `requested` downward until a tier
    /// succeeds, installing the adapted model on success.
    // chaos-lint: cold — refits are rare, drift/retry-triggered, and explicitly excluded from the steady-state alloc contract
    fn run_refit(
        estimator: &RobustEstimator,
        config: &StreamConfig,
        state: &mut MachineState,
        requested: RefitTier,
        t: usize,
        machine_id: usize,
    ) -> RefitOutcome {
        let stepwise = StepwiseConfig {
            alpha: config.stepwise_alpha,
            min_features: config.stepwise_min_features,
        };
        let technique = estimator.config().technique;
        let fit_opts = estimator.config().fit;
        let mut tier = Some(requested);
        while let Some(current) = tier {
            let _span = chaos_obs::span(current.span_name());
            match refit::execute(
                current,
                &state.window,
                &mut state.wols,
                technique,
                &fit_opts,
                &stepwise,
            ) {
                Ok(model) => {
                    let selected = Some(model.columns().to_vec());
                    state.adapted = Some(model);
                    chaos_obs::add(&format!("stream.refits.{}", current.label()), 1);
                    return RefitOutcome {
                        t,
                        machine_id,
                        requested,
                        applied: Some(current),
                        selected,
                    };
                }
                Err(_) => {
                    chaos_obs::add("stream.refit_failed", 1);
                    tier = current.downgrade();
                }
            }
        }
        RefitOutcome {
            t,
            machine_id,
            requested,
            applied: None,
            selected: None,
        }
    }

    /// Sums present machine samples into the cluster output (Eq. 5), in
    /// machine order — the same accumulation order as
    /// [`RobustEstimator::estimate_cluster`], preserving bit-identity.
    /// Absent machines (left, unjoined, quarantined) contribute nothing.
    fn compose(t: usize, samples: Vec<Option<StreamSample>>) -> StreamOutput {
        let mut cluster_power_w = 0.0;
        let mut worst_tier = EstimateTier::Full;
        let mut machines = Vec::with_capacity(samples.len());
        for s in samples.into_iter().flatten() {
            cluster_power_w += s.power_w;
            worst_tier = worst_tier.max(s.tier);
            machines.push(s);
        }
        StreamOutput {
            t,
            cluster_power_w,
            worst_tier,
            active_machines: machines.len(),
            machines,
        }
    }

    /// Removes and returns every refit outcome accumulated since the
    /// last drain, machine order then time order.
    ///
    /// [`refit_outcomes`](StreamEngine::refit_outcomes) keeps the full
    /// log alive inside the engine, which is right for bounded offline
    /// replays but grows without bound in a long-running server. A
    /// serving layer drains instead, keeping engine memory flat and
    /// aggregating tallies on its own side.
    pub fn drain_refit_outcomes(&mut self) -> Vec<RefitOutcome> {
        let mut out = Vec::new();
        for state in &mut self.machines {
            out.append(&mut state.refits);
        }
        out
    }

    /// Seconds consumed so far.
    pub fn seconds_processed(&self) -> usize {
        self.t
    }

    /// Every refit outcome so far, machine order then time order.
    pub fn refit_outcomes(&self) -> Vec<&RefitOutcome> {
        self.machines.iter().flat_map(|s| s.refits.iter()).collect()
    }

    /// Applied-refit counts by tier label (downgraded-to-nothing
    /// attempts count under `"none"`).
    pub fn refit_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for outcome in self.machines.iter().flat_map(|s| s.refits.iter()) {
            let key = outcome.applied.map_or("none", RefitTier::label);
            *out.entry(key).or_insert(0) += 1;
        }
        out
    }

    /// Per-machine supervision state, machine order.
    pub fn health(&self) -> Vec<MachineHealth> {
        self.machines.iter().map(|s| s.health).collect()
    }

    /// Machines currently inside the composition (active and not
    /// quarantined).
    pub fn active_count(&self) -> usize {
        self.machines
            .iter()
            .filter(|s| s.active && s.health != MachineHealth::Quarantined)
            .count()
    }

    /// Aggregate supervision counters across all machines.
    pub fn supervision_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        out.insert(
            "quarantines",
            self.machines.iter().map(|s| s.quarantines).sum(),
        );
        out.insert("rejoins", self.machines.iter().map(|s| s.rejoins).sum());
        out.insert("retries", self.machines.iter().map(|s| s.retries).sum());
        out
    }

    /// The wrapped offline estimator.
    pub fn estimator(&self) -> &RobustEstimator {
        &self.estimator
    }

    /// The engine's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Sets the execution policy of the per-machine work. Output is
    /// bit-identical under every policy, so a restored engine may run
    /// under the restoring process's policy rather than the snapshot's.
    pub fn set_exec(&mut self, exec: ExecPolicy) {
        self.config.exec = exec;
    }
}
