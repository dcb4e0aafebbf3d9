//! Deterministic server construction: training, first boot, and
//! restore-from-snapshot.
//!
//! The server never persists its trained estimator. Instead, the
//! estimator is a *deterministic function of the [`FleetSpec`]*: the
//! same platform/seed always trains the same model (same simulated
//! calibration runs, same feature selection, same coefficients to the
//! bit). First boot and snapshot-restore therefore share one training
//! path, [`train_estimator`], and the restore path only has to check
//! that the snapshot's spec echo matches before rehydrating state.
//!
//! Held-out baseline DRE is fixed at [`BASELINE_DRE`] — every
//! machine's drift detector compares its rolling DRE against it, and
//! it must be identical across boots for restored engines to make the
//! same refit decisions.

use crate::fleet::Fleet;
use crate::protocol::TickResult;
use crate::snapshot::ServerState;
use chaos_core::robust::{strawman_position, RobustConfig, RobustEstimator};
use chaos_core::FeatureSpec;
use chaos_counters::{collect_run, CounterCatalog, RunTrace};
use chaos_sim::FleetSpec;
use chaos_stream::{SnapshotError, StreamConfig, StreamEngine};
use std::collections::BTreeMap;

/// Held-out baseline DRE every machine's drift detector compares
/// against.
pub const BASELINE_DRE: f64 = 0.05;

/// Machines in the synthetic calibration cluster (independent of fleet
/// size — training cost does not grow with the fleet).
const TRAIN_MACHINES: usize = 3;

/// Calibration runs fed to the fit.
const TRAIN_RUNS: u64 = 2;

/// Everything a server needs besides its fleet: stream configuration
/// and serving limits.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// The fleet this server models.
    pub fleet: FleetSpec,
    /// Streaming configuration of the fleet engine. Its `exec` is the
    /// server's one thread policy: the per-machine work of every tick
    /// runs under it, with bit-identical responses for any setting.
    pub stream: StreamConfig,
    /// Power-history ring capacity, ticks.
    pub history_cap: usize,
    /// Request body cap, bytes.
    pub max_body_bytes: usize,
}

impl ServeOptions {
    /// Test-shaped options: short windows, quick drift response, small
    /// history.
    pub fn quick(fleet: FleetSpec) -> ServeOptions {
        ServeOptions {
            fleet,
            stream: StreamConfig::fast(),
            history_cap: 64,
            max_body_bytes: crate::http::DEFAULT_MAX_BODY_BYTES,
        }
    }

    /// Deployment-shaped options: five-minute windows, conservative
    /// drift response.
    pub fn paper(fleet: FleetSpec) -> ServeOptions {
        ServeOptions {
            fleet,
            stream: StreamConfig::paper(),
            history_cap: 1024,
            max_body_bytes: crate::http::DEFAULT_MAX_BODY_BYTES,
        }
    }
}

/// Trains the estimator the fleet engine wraps — a pure function of
/// the spec. Same spec, same model, to the bit.
///
/// # Errors
///
/// Propagates [`crate::ServeError::Internal`] if simulation or fitting
/// fails (degenerate spec).
pub fn train_estimator(spec: FleetSpec) -> Result<RobustEstimator, crate::ServeError> {
    let _span = chaos_obs::span("serve.train");
    let cluster = chaos_sim::Cluster::homogeneous(spec.platform, TRAIN_MACHINES, spec.seed);
    let catalog = CounterCatalog::for_platform(&spec.platform.spec());
    let sim = chaos_workloads::SimConfig::quick();
    let train: Vec<RunTrace> = (0..TRAIN_RUNS)
        .map(|r| {
            collect_run(
                &cluster,
                &catalog,
                chaos_workloads::Workload::Prime,
                &sim,
                spec.seed.wrapping_mul(1000).wrapping_add(r),
            )
            .map_err(|e| crate::ServeError::Internal {
                detail: format!("calibration run {r}: {e}"),
            })
        })
        .collect::<Result<_, _>>()?;
    let feature_spec = FeatureSpec::general(&catalog);
    let cpu = strawman_position(&feature_spec, &catalog);
    let idle = cluster.idle_power() / TRAIN_MACHINES as f64;
    let cfg = RobustConfig {
        fit: RobustConfig::fast()
            .fit
            .with_freq_column(feature_spec.freq_column(&catalog)),
        ..RobustConfig::fast()
    };
    RobustEstimator::fit(&train, &feature_spec, cpu, idle, cfg).map_err(|e| {
        crate::ServeError::Internal {
            detail: format!("estimator fit: {e}"),
        }
    })
}

/// Builds a fresh fleet for first boot: train, then one engine over
/// every machine.
///
/// # Errors
///
/// Propagates training or engine-construction failures.
pub fn build_fleet(opts: &ServeOptions) -> Result<Fleet, crate::ServeError> {
    let estimator = train_estimator(opts.fleet)?;
    Fleet::new(estimator, opts.fleet, opts.stream, BASELINE_DRE)
}

/// Rehydrates a fleet from a decoded snapshot: checks the fleet echo,
/// retrains the estimator from the spec (identical to first boot), and
/// restores the engine from its embedded `CHAOSNAP` bytes under this
/// process's thread policy (`opts.stream.exec`).
///
/// # Errors
///
/// [`SnapshotError::Incompatible`] (wrapped in
/// [`crate::ServeError::Snapshot`]) when the snapshot's fleet echo
/// does not match `opts.fleet`; decode errors for a damaged embedded
/// engine snapshot.
pub fn restore_fleet(opts: &ServeOptions, state: &ServerState) -> Result<Fleet, crate::ServeError> {
    let spec = opts.fleet;
    let width = CounterCatalog::for_platform(&spec.platform.spec()).len();
    let incompatible =
        |context: String| crate::ServeError::Snapshot(SnapshotError::Incompatible { context });
    if state.platform != spec.platform.name()
        || state.machines != spec.machines
        || state.seed != spec.seed
    {
        return Err(incompatible(format!(
            "snapshot is for fleet {}x{} seed {}, server configured for {}x{} seed {}",
            state.platform,
            state.machines,
            state.seed,
            spec.platform.name(),
            spec.machines,
            spec.seed
        )));
    }
    if state.width != width {
        return Err(incompatible(format!(
            "snapshot carries counter width {}, this build's catalog has {}",
            state.width, width
        )));
    }
    let mut engine = StreamEngine::restore(train_estimator(spec)?, &state.engine)?;
    if engine.health().len() != spec.machines {
        return Err(incompatible(format!(
            "snapshot engine has {} machines, fleet has {}",
            engine.health().len(),
            spec.machines
        )));
    }
    engine.set_exec(opts.stream.exec);
    Ok(Fleet::from_parts(engine, state.tallies.clone(), spec))
}

/// Restored auxiliary state the server carries besides the fleet.
#[derive(Debug, Clone, Default)]
pub struct RestoredExtras {
    /// Power-history ring, oldest first.
    pub history: Vec<TickResult>,
    /// The server's own counters.
    pub counters: BTreeMap<String, u64>,
}

/// Splits a decoded snapshot's non-fleet state out for the server.
pub fn restored_extras(state: &ServerState) -> RestoredExtras {
    RestoredExtras {
        history: state.history.clone(),
        counters: state.counters.clone(),
    }
}
