//! Crash-consistent engine snapshots: a versioned, dependency-free
//! binary format for the full [`StreamEngine`] state.
//!
//! The bit-identity contract extends across process death: an engine
//! killed at any second, restored from its last snapshot, and replayed
//! over the remaining seconds must emit byte-for-byte the predictions an
//! uninterrupted run would. That rules out text codecs — the drift
//! thresholds in [`DriftConfig`] are legitimately
//! `f64::INFINITY` for the disabled detector, which JSON cannot
//! round-trip — so every float is written as its IEEE-754 bit pattern
//! (`f64::to_bits`, little-endian), fitted technique models included.
//!
//! The payload travels in the snapshot [`envelope`](crate::envelope)
//! under magic `CHAOSNAP`, version 3, and is written and read with
//! chaos-trace's [`Enc`] and [`Dec`]. A snapshot that decodes is
//! internally consistent: every count and index a restored model
//! predicts with has been checked. Each machine carries its lag row
//! (the previous second's counters and their validity), since the
//! engine reads no trace history. Version 2, which had no lag rows
//! because its engine read them from a trace, and version 1, which
//! carried technique models as nested JSON, are refused.
//!
//! [`Checkpointer`] adds atomic persistence: snapshots are written to a
//! sibling temporary file and renamed into place, so a crash mid-write
//! leaves the previous snapshot intact.

use crate::drift::DriftState;
use crate::engine::{
    BatchScratch, LagRow, MachineScratch, MachineState, StreamConfig, StreamEngine,
};
use crate::envelope::{open, seal, SnapshotError};
use crate::refit::{AdaptedModel, RefitOutcome, RefitTier};
use crate::supervise::{MachineHealth, RetryState, StreamError, SupervisorConfig};
use crate::window::SlidingWindow;
use crate::DriftConfig;
use chaos_core::eval::RollingDreState;
use chaos_core::models::{EstimatorState, FittedModelState};
use chaos_core::robust::{ImputerState, ImputerStateSnapshot};
use chaos_core::{FittedModel, ModelTechnique, RobustEstimator};
use chaos_mars::{Direction, HingeTerm, MarsModelState};
use chaos_stats::ols::{OlsFit, OlsFitState, WindowedOls, WindowedOlsState};
use chaos_stats::ExecPolicy;
use chaos_trace::{Dec, Enc};
use std::path::{Path, PathBuf};

/// Magic bytes opening every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"CHAOSNAP";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 3;

fn tier_tag(t: RefitTier) -> u8 {
    match t {
        RefitTier::CoefficientRefresh => 0,
        RefitTier::StepwiseRerun => 1,
        RefitTier::FullReselect => 2,
    }
}

fn tier_from_tag(v: u8) -> Result<RefitTier, SnapshotError> {
    match v {
        0 => Ok(RefitTier::CoefficientRefresh),
        1 => Ok(RefitTier::StepwiseRerun),
        2 => Ok(RefitTier::FullReselect),
        _ => Err(SnapshotError::Malformed {
            context: format!("invalid refit tier tag {v}"),
        }),
    }
}

fn health_tag(h: MachineHealth) -> u8 {
    match h {
        MachineHealth::Healthy => 0,
        MachineHealth::Ramping => 1,
        MachineHealth::Quarantined => 2,
    }
}

fn health_from_tag(v: u8) -> Result<MachineHealth, SnapshotError> {
    match v {
        0 => Ok(MachineHealth::Healthy),
        1 => Ok(MachineHealth::Ramping),
        2 => Ok(MachineHealth::Quarantined),
        _ => Err(SnapshotError::Malformed {
            context: format!("machine health: invalid tag {v}"),
        }),
    }
}

fn encode_config(e: &mut Enc, c: &StreamConfig) {
    e.usize(c.window_s);
    e.usize(c.drift.window_s);
    e.f64(c.drift.refresh_ratio);
    e.f64(c.drift.stepwise_ratio);
    e.f64(c.drift.reselect_ratio);
    e.usize(c.drift.cooldown_s);
    e.f64(c.stepwise_alpha);
    e.usize(c.stepwise_min_features);
    e.usize(c.min_refit_samples);
    e.usize(c.supervise.max_attempts);
    e.usize(c.supervise.quarantine_after);
    e.usize(c.supervise.quarantine_s);
    match c.exec {
        ExecPolicy::Serial => e.u8(0),
        ExecPolicy::Parallel { threads } => {
            e.u8(1);
            e.usize(threads);
        }
    }
}

fn decode_config(d: &mut Dec<'_>) -> Result<StreamConfig, SnapshotError> {
    let window_s = d.usize()?;
    let drift = DriftConfig {
        window_s: d.usize()?,
        refresh_ratio: d.f64()?,
        stepwise_ratio: d.f64()?,
        reselect_ratio: d.f64()?,
        cooldown_s: d.usize()?,
    };
    let stepwise_alpha = d.f64()?;
    let stepwise_min_features = d.usize()?;
    let min_refit_samples = d.usize()?;
    let supervise = SupervisorConfig {
        max_attempts: d.usize()?,
        quarantine_after: d.usize()?,
        quarantine_s: d.usize()?,
    };
    let exec = match d.u8()? {
        0 => ExecPolicy::Serial,
        1 => ExecPolicy::Parallel {
            threads: d.usize()?,
        },
        v => {
            return Err(SnapshotError::Malformed {
                context: format!("config.exec: invalid policy tag {v}"),
            })
        }
    };
    Ok(StreamConfig {
        window_s,
        drift,
        stepwise_alpha,
        stepwise_min_features,
        min_refit_samples,
        supervise,
        exec,
    })
}

fn encode_ols(e: &mut Enc, s: &OlsFitState) {
    e.vec_f64(&s.coefficients);
    e.vec_f64(&s.std_errors);
    e.f64(s.residual_variance);
    e.usize(s.n);
    e.f64(s.r_squared);
}

fn decode_ols(d: &mut Dec<'_>) -> Result<OlsFitState, SnapshotError> {
    Ok(OlsFitState {
        coefficients: d.vec_f64()?,
        std_errors: d.vec_f64()?,
        residual_variance: d.f64()?,
        n: d.usize()?,
        r_squared: d.f64()?,
    })
}

fn technique_tag(t: ModelTechnique) -> u8 {
    match t {
        ModelTechnique::Linear => 0,
        ModelTechnique::PiecewiseLinear => 1,
        ModelTechnique::Quadratic => 2,
        ModelTechnique::Switching => 3,
    }
}

fn technique_from_tag(v: u8) -> Result<ModelTechnique, SnapshotError> {
    match v {
        0 => Ok(ModelTechnique::Linear),
        1 => Ok(ModelTechnique::PiecewiseLinear),
        2 => Ok(ModelTechnique::Quadratic),
        3 => Ok(ModelTechnique::Switching),
        _ => Err(SnapshotError::Malformed {
            context: format!("technique model: invalid technique tag {v}"),
        }),
    }
}

/// Writes a fitted technique model field by field. The technique tag
/// decides which estimator follows, so no second tag is written.
fn encode_model(e: &mut Enc, model: &FittedModel) {
    let s = model.export_state();
    e.u8(technique_tag(s.technique));
    e.usize(s.width);
    e.f64(s.clamp.0);
    e.f64(s.clamp.1);
    match &s.estimator {
        EstimatorState::Linear(fit) => encode_ols(e, fit),
        EstimatorState::Mars(m) => {
            e.usize(m.basis.len());
            for factors in &m.basis {
                e.usize(factors.len());
                for h in factors {
                    e.usize(h.variable);
                    e.f64(h.knot);
                    e.bool(h.direction == Direction::Positive);
                }
            }
            e.vec_f64(&m.coefficients);
            e.f64(m.gcv);
            e.usize(m.n_features);
        }
        EstimatorState::Switching {
            bounds,
            submodels,
            freq_col,
        } => {
            e.vec_f64(bounds);
            e.usize(submodels.len());
            for fit in submodels {
                encode_ols(e, fit);
            }
            e.usize(*freq_col);
        }
    }
}

fn decode_model(d: &mut Dec<'_>) -> Result<FittedModel, SnapshotError> {
    let technique = technique_from_tag(d.u8()?)?;
    let width = d.usize()?;
    let clamp = (d.f64()?, d.f64()?);
    let estimator = match technique {
        ModelTechnique::Linear => EstimatorState::Linear(decode_ols(d)?),
        ModelTechnique::PiecewiseLinear | ModelTechnique::Quadratic => {
            // A basis is at least its 8-byte factor count; a hinge is
            // 8 + 8 + 1 bytes.
            let basis = (0..d.len(8)?)
                .map(|_| {
                    (0..d.len(17)?)
                        .map(|_| {
                            Ok(HingeTerm {
                                variable: d.usize()?,
                                knot: d.f64()?,
                                direction: if d.bool()? {
                                    Direction::Positive
                                } else {
                                    Direction::Negative
                                },
                            })
                        })
                        .collect::<Result<Vec<_>, SnapshotError>>()
                })
                .collect::<Result<Vec<_>, _>>()?;
            EstimatorState::Mars(MarsModelState {
                basis,
                coefficients: d.vec_f64()?,
                gcv: d.f64()?,
                n_features: d.usize()?,
            })
        }
        ModelTechnique::Switching => {
            let bounds = d.vec_f64()?;
            // An OLS fit is at least two length words and three scalars.
            let submodels = (0..d.len(40)?)
                .map(|_| decode_ols(d))
                .collect::<Result<Vec<_>, _>>()?;
            EstimatorState::Switching {
                bounds,
                submodels,
                freq_col: d.usize()?,
            }
        }
    };
    FittedModel::import_state(FittedModelState {
        technique,
        width,
        clamp,
        estimator,
    })
    .map_err(|e| SnapshotError::Malformed {
        context: format!("adapted technique model: {e}"),
    })
}

fn encode_adapted(e: &mut Enc, adapted: &Option<AdaptedModel>) {
    match adapted {
        None => e.u8(0),
        Some(AdaptedModel::Linear { columns, fit }) => {
            e.u8(1);
            e.vec_usize(columns);
            encode_ols(e, &fit.export_state());
        }
        Some(AdaptedModel::Technique { columns, model }) => {
            e.u8(2);
            e.vec_usize(columns);
            encode_model(e, model);
        }
    }
}

fn decode_adapted(d: &mut Dec<'_>) -> Result<Option<AdaptedModel>, SnapshotError> {
    match d.u8()? {
        0 => Ok(None),
        1 => {
            let columns = d.vec_usize()?;
            let fit =
                OlsFit::import_state(decode_ols(d)?).map_err(|e| SnapshotError::Malformed {
                    context: format!("adapted linear fit: {e}"),
                })?;
            Ok(Some(AdaptedModel::Linear { columns, fit }))
        }
        2 => {
            let columns = d.vec_usize()?;
            let model = decode_model(d)?;
            Ok(Some(AdaptedModel::Technique { columns, model }))
        }
        v => Err(SnapshotError::Malformed {
            context: format!("adapted.tag: invalid tag {v}"),
        }),
    }
}

fn encode_machine(e: &mut Enc, s: &MachineState) {
    e.bool(s.active);
    e.u8(health_tag(s.health));
    e.usize(s.consecutive_failures);
    e.usize(s.quarantine_left);
    e.usize(s.quarantines);
    e.usize(s.rejoins);
    e.usize(s.retries);
    e.bool(s.retry.is_some());
    if let Some(r) = &s.retry {
        e.u8(tier_tag(r.requested));
        e.usize(r.attempts_left);
    }

    let imp = s.imputer.export_state();
    e.usize(imp.last_valid.len());
    for h in &imp.last_valid {
        e.vec_f64(h);
    }
    e.vec_usize(&imp.gap_run);
    e.usize(imp.window);

    e.usize(s.window.capacity());
    e.usize(s.window.width());
    e.usize(s.window.len());
    for (row, y) in s.window.iter() {
        e.vec_f64(row);
        e.f64(y);
    }

    let w = s.wols.export_state();
    e.usize(w.p);
    e.vec_f64(&w.gram);
    e.vec_f64(&w.xty);
    e.f64(w.yty);
    e.usize(w.n);
    e.vec_f64(&w.chol_lower);
    e.usize(w.refactorizations);

    let dr = s.drift.export_state();
    e.f64(dr.baseline_dre);
    e.usize(dr.since_refit);
    e.usize(dr.rolling.capacity);
    e.f64(dr.rolling.range_w);
    e.vec_f64(&dr.rolling.squared_errors);

    encode_adapted(e, &s.adapted);

    e.usize(s.refits.len());
    for r in &s.refits {
        e.usize(r.t);
        e.usize(r.machine_id);
        e.u8(tier_tag(r.requested));
        e.bool(r.applied.is_some());
        if let Some(t) = r.applied {
            e.u8(tier_tag(t));
        }
        e.bool(r.selected.is_some());
        if let Some(cols) = &r.selected {
            e.vec_usize(cols);
        }
    }

    e.bool(s.lag.is_some());
    if let Some(lag) = &s.lag {
        e.vec_f64(&lag.counters);
        e.vec_bool(&lag.counter_ok);
    }
}

fn decode_machine(
    d: &mut Dec<'_>,
    config: &StreamConfig,
    id: usize,
) -> Result<MachineState, SnapshotError> {
    let active = d.bool()?;
    let health = health_from_tag(d.u8()?)?;
    let consecutive_failures = d.usize()?;
    let quarantine_left = d.usize()?;
    let quarantines = d.usize()?;
    let rejoins = d.usize()?;
    let retries = d.usize()?;
    let retry = if d.bool()? {
        Some(RetryState {
            requested: tier_from_tag(d.u8()?)?,
            attempts_left: d.usize()?,
        })
    } else {
        None
    };

    let last_valid = (0..d.len(1)?)
        .map(|_| d.vec_f64())
        .collect::<Result<Vec<_>, _>>()?;
    let gap_run = d.vec_usize()?;
    let imp_window = d.usize()?;
    let imputer = ImputerState::import_state(ImputerStateSnapshot {
        last_valid,
        gap_run,
        window: imp_window,
    })
    .ok_or_else(|| SnapshotError::Malformed {
        context: "machine.imputer: inconsistent snapshot".into(),
    })?;

    let win_capacity = d.usize()?;
    let win_width = d.usize()?;
    let rows = (0..d.len(1)?)
        .map(|_| Ok((d.vec_f64()?, d.f64()?)))
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let window = SlidingWindow::from_parts(win_capacity, win_width, rows).map_err(|e| {
        SnapshotError::Malformed {
            context: format!("machine.window: {e}"),
        }
    })?;

    let wols = WindowedOls::import_state(WindowedOlsState {
        p: d.usize()?,
        gram: d.vec_f64()?,
        xty: d.vec_f64()?,
        yty: d.f64()?,
        n: d.usize()?,
        chol_lower: d.vec_f64()?,
        refactorizations: d.usize()?,
    })
    .map_err(|e| SnapshotError::Malformed {
        context: format!("machine.wols: {e}"),
    })?;

    let drift_state = DriftState {
        baseline_dre: d.f64()?,
        since_refit: d.usize()?,
        rolling: RollingDreState {
            capacity: d.usize()?,
            range_w: d.f64()?,
            squared_errors: d.vec_f64()?,
        },
    };
    let drift =
        crate::drift::DriftDetector::import_state(config.drift, drift_state).map_err(|e| {
            SnapshotError::Malformed {
                context: format!("machine.drift: {e}"),
            }
        })?;

    let adapted = decode_adapted(d)?;

    let n_refits = d.len(1)?;
    let mut refits = Vec::with_capacity(n_refits);
    for _ in 0..n_refits {
        let t = d.usize()?;
        let machine_id = d.usize()?;
        let requested = tier_from_tag(d.u8()?)?;
        let applied = if d.bool()? {
            Some(tier_from_tag(d.u8()?)?)
        } else {
            None
        };
        let selected = d.bool()?.then(|| d.vec_usize()).transpose()?;
        refits.push(RefitOutcome {
            t,
            machine_id,
            requested,
            applied,
            selected,
        });
    }

    let lag = if d.bool()? {
        Some(LagRow {
            counters: d.vec_f64()?,
            counter_ok: d.vec_bool()?,
        })
    } else {
        None
    };

    Ok(MachineState {
        imputer,
        window,
        wols,
        drift,
        adapted,
        refits,
        active,
        health,
        consecutive_failures,
        retry,
        quarantine_left,
        quarantines,
        rejoins,
        retries,
        lag,
        scratch: MachineScratch::new(id),
    })
}

/// Serializes the full engine state into an enveloped snapshot.
pub(crate) fn encode_engine(engine: &StreamEngine) -> Vec<u8> {
    let mut payload = Enc::new();
    encode_config(&mut payload, &engine.config);
    payload.usize(engine.t);
    payload.usize(engine.machines.len());
    for m in &engine.machines {
        encode_machine(&mut payload, m);
    }
    seal(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &payload.into_bytes())
}

/// Validates the envelope and decodes a [`StreamEngine`] around
/// `estimator`.
pub(crate) fn decode_engine(
    estimator: RobustEstimator,
    bytes: &[u8],
) -> Result<StreamEngine, StreamError> {
    let payload = open(bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
    let (config, t, machines) = decode_payload(payload)?;

    let width = estimator.spec().width();
    for (i, m) in machines.iter().enumerate() {
        if m.window.width() != width || m.wols.n_features() != width {
            return Err(SnapshotError::Incompatible {
                context: format!(
                    "machine {i}: snapshot feature width {} (solver {}) vs estimator spec width {width}",
                    m.window.width(),
                    m.wols.n_features()
                ),
            }
            .into());
        }
    }

    chaos_obs::add("stream.snapshot.restored", 1);
    // Scratch buffers are pure working memory — never checkpointed; a
    // restored engine warms them back up on its first ticks.
    let batch = BatchScratch::new(width + 1);
    Ok(StreamEngine {
        estimator,
        config,
        machines,
        t,
        batch,
    })
}

/// Decodes a checksummed `CHAOSNAP` payload: config, cursor, machines.
fn decode_payload(
    payload: &[u8],
) -> Result<(StreamConfig, usize, Vec<MachineState>), SnapshotError> {
    let mut d = Dec::new(payload, &"engine snapshot");
    let config = decode_config(&mut d)?;
    let t = d.usize()?;
    let n_machines = d.len(1)?;
    if n_machines == 0 {
        return Err(SnapshotError::Malformed {
            context: "engine.machines: zero machine streams".into(),
        });
    }
    let machines = (0..n_machines)
        .map(|id| decode_machine(&mut d, &config, id))
        .collect::<Result<Vec<_>, _>>()?;
    d.expect_end()?;
    // Every tick hands each machine a lag row, so one exists exactly
    // when a second has been consumed.
    if let Some(id) = machines.iter().position(|m| m.lag.is_some() != (t > 0)) {
        return Err(SnapshotError::Malformed {
            context: format!("machine {id}: lag row present does not match cursor {t}"),
        });
    }
    Ok((config, t, machines))
}

/// Cadenced, atomic snapshot persistence for a streaming engine.
///
/// Writes go to a sibling `.tmp` file first and are renamed into place,
/// so a crash mid-write can never destroy the previous good snapshot.
#[derive(Debug, Clone)]
pub struct Checkpointer {
    path: PathBuf,
    every_s: usize,
}

impl Checkpointer {
    /// A checkpointer that persists to `path` every `every_s` processed
    /// seconds (`every_s` is clamped to at least 1).
    pub fn new(path: impl Into<PathBuf>, every_s: usize) -> Self {
        Checkpointer {
            path: path.into(),
            every_s: every_s.max(1),
        }
    }

    /// The snapshot path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The persistence cadence in processed seconds.
    pub fn every_s(&self) -> usize {
        self.every_s
    }

    /// Persists a snapshot when the engine sits on a cadence boundary
    /// (a positive multiple of `every_s` seconds processed). Returns
    /// whether a snapshot was written.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] when the write or rename fails.
    pub fn maybe_persist(&self, engine: &StreamEngine) -> Result<bool, SnapshotError> {
        let t = engine.seconds_processed();
        if t == 0 || !t.is_multiple_of(self.every_s) {
            return Ok(false);
        }
        self.persist(engine)?;
        Ok(true)
    }

    /// Persists a snapshot unconditionally (write-to-temp then rename).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] when the write or rename fails.
    pub fn persist(&self, engine: &StreamEngine) -> Result<(), SnapshotError> {
        let _span = chaos_obs::span("stream.snapshot.persist");
        self.persist_bytes(&encode_engine(engine))
    }

    /// Persists arbitrary snapshot bytes through the same
    /// write-to-temp-then-rename path [`persist`](Checkpointer::persist)
    /// uses, so higher layers (the `chaos-serve` server envelope wraps
    /// engine snapshots in its own format) get identical crash-safety
    /// without reimplementing it.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] when the write or rename fails.
    pub fn persist_bytes(&self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, bytes).map_err(|e| SnapshotError::Io {
            context: format!("write {}: {e}", tmp.display()),
        })?;
        std::fs::rename(&tmp, &self.path).map_err(|e| SnapshotError::Io {
            context: format!("rename {} -> {}: {e}", tmp.display(), self.path.display()),
        })?;
        chaos_obs::add("stream.snapshot.persisted", 1);
        chaos_obs::record("stream.snapshot.bytes", bytes.len() as u64);
        Ok(())
    }

    /// Loads the raw snapshot bytes from disk; pair with
    /// [`StreamEngine::restore`](crate::StreamEngine::restore).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] when the file cannot be read.
    pub fn load(&self) -> Result<Vec<u8>, SnapshotError> {
        std::fs::read(&self.path).map_err(|e| SnapshotError::Io {
            context: format!("read {}: {e}", self.path.display()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_tags_are_rejected() {
        assert!(tier_from_tag(3).is_err());
        assert!(health_from_tag(9).is_err());
        assert_eq!(health_from_tag(2).unwrap(), MachineHealth::Quarantined);
        assert!(technique_from_tag(4).is_err());
        for t in ModelTechnique::ALL {
            assert_eq!(technique_from_tag(technique_tag(t)).unwrap(), t);
        }
    }

    /// A fit of every technique on a seeded two-feature window.
    fn technique_models() -> Vec<FittedModel> {
        let det = |i: usize| ((i as f64 * 12.9898).sin() * 43758.5453).fract() - 0.5;
        let rows: Vec<Vec<f64>> = (0..120)
            .map(|i| {
                let freq = if i % 3 == 0 { 1600.0 } else { 2400.0 };
                vec![50.0 + 50.0 * det(i), freq]
            })
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| 30.0 + 0.2 * (r[0] - 40.0).max(0.0) + r[1] / 200.0 + det(i + 500))
            .collect();
        let x = chaos_stats::Matrix::from_rows(&rows).unwrap();
        let opts = chaos_core::models::FitOptions::fast().with_freq_column(Some(1));
        ModelTechnique::ALL
            .iter()
            .map(|&t| FittedModel::fit(t, &x, &y, &opts).unwrap())
            .collect()
    }

    #[test]
    fn version_1_snapshots_are_refused() {
        // Version 1 carried technique models as nested JSON and version 2
        // had no lag rows; neither payload is read at all.
        for old in [1, 2] {
            let bytes = seal(SNAPSHOT_MAGIC, old, b"{}");
            assert_eq!(
                open(&bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION),
                Err(SnapshotError::UnsupportedVersion { got: old })
            );
        }
    }

    #[test]
    fn technique_models_round_trip_bit_for_bit() {
        for model in technique_models() {
            let adapted = Some(AdaptedModel::Technique {
                columns: vec![0, 2],
                model,
            });
            let mut e = Enc::new();
            encode_adapted(&mut e, &adapted);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes, &"test");
            let back = decode_adapted(&mut d).unwrap();
            d.expect_end().unwrap();
            // Debug prints every f64 in shortest round-trip form, so equal
            // strings mean equal bits (NaN aside, which fits never hold).
            assert_eq!(format!("{back:?}"), format!("{adapted:?}"));
            let (
                Some(AdaptedModel::Technique { model: a, .. }),
                Some(AdaptedModel::Technique { model: b, .. }),
            ) = (&adapted, &back)
            else {
                panic!("technique model decoded as another kind");
            };
            for probe in [[10.0, 1600.0], [90.0, 2400.0], [55.0, 2000.0]] {
                assert_eq!(
                    a.predict_row(&probe).unwrap().to_bits(),
                    b.predict_row(&probe).unwrap().to_bits()
                );
            }
        }
    }

    #[test]
    fn truncated_technique_models_are_typed_errors() {
        for model in technique_models() {
            let mut e = Enc::new();
            encode_model(&mut e, &model);
            let bytes = e.into_bytes();
            for cut in 0..bytes.len() {
                let mut d = Dec::new(&bytes[..cut], &"test");
                assert!(decode_model(&mut d).is_err(), "cut at {cut} decoded");
            }
        }
    }

    #[test]
    fn out_of_range_model_indices_are_refused() {
        let models = technique_models();
        // Switching: freq_col is the last word of the encoding.
        let switching = &models[3];
        let mut e = Enc::new();
        encode_model(&mut e, switching);
        let mut bytes = e.into_bytes();
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&2u64.to_le_bytes());
        let mut d = Dec::new(&bytes, &"test");
        assert!(matches!(
            decode_model(&mut d),
            Err(SnapshotError::Malformed { .. })
        ));
        // MARS: n_features is the last word; one fewer than a hinge reads.
        let piecewise = &models[1];
        let mut e = Enc::new();
        encode_model(&mut e, piecewise);
        let mut bytes = e.into_bytes();
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&0u64.to_le_bytes());
        let mut d = Dec::new(&bytes, &"test");
        assert!(matches!(
            decode_model(&mut d),
            Err(SnapshotError::Malformed { .. })
        ));
    }
}
