//! Streaming online inference for CHAOS power models.
//!
//! The paper's deployment story (Section V: "the model can be used
//! online with negligible overhead") needs more than a fast
//! `predict_row`: a deployed estimator consumes counter samples *one
//! second at a time*, composes machine estimates into cluster power
//! (Eq. 5) with bounded per-sample latency, and must notice when its
//! frozen model stops matching the workload. This crate is that layer:
//!
//! * [`StreamEngine`] — the per-second ingestion loop over a trained
//!   [`chaos_core::RobustEstimator`]. Until a refit fires, its output is
//!   bit-identical to offline batch estimation — same imputer evolution,
//!   same fallback tiers, same machine-order summation.
//! * [`SlidingWindow`] + [`chaos_stats::ols::WindowedOls`] — the most
//!   recent clean observations per machine, with a rank-1
//!   Cholesky-updated Gram factorization so sliding one sample costs
//!   O(k²) instead of O(n·k²).
//! * [`DriftDetector`] — rolling DRE (Eq. 6) against the held-out
//!   baseline, escalating through [`RefitTier`]s: coefficient refresh →
//!   windowed stepwise rerun → full reselection.
//!
//! The engine also survives deployment reality:
//!
//! * [`checkpoint`] — versioned binary snapshots of the full engine
//!   state ([`StreamEngine::snapshot`] / [`StreamEngine::restore`],
//!   atomic persistence via [`Checkpointer`]). Kill the process at any
//!   second, restore, and replay the remainder: the predictions are
//!   byte-identical to an uninterrupted run.
//! * [`envelope`] — the checksummed envelope and [`SnapshotError`]
//!   shared by engine snapshots and chaos-serve's server snapshots.
//! * [`membership`] — join / leave / replace fleet-churn events applied
//!   deterministically; joining machines warm-start from a donor and
//!   ramp through the refit ladder.
//! * [`supervise`] — typed [`StreamError`]s, a bounded attempt-counted
//!   retry policy for failed refits, and per-machine quarantine
//!   ([`MachineHealth`]) that drops a persistently failing model out of
//!   the Eq. 5 composition.
//!
//! The engine's per-second primitive is [`StreamEngine::push_tick`]:
//! one borrowed row per machine, each machine keeping its previous row
//! for lagged counters, so a live server feeds it without holding any
//! trace. Whole traces go through [`StreamEngine::push_second`] (one
//! second, membership applied) or [`StreamEngine::replay`] (every
//! second, machines fanned out).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod checkpoint;
pub mod drift;
pub mod engine;
pub mod envelope;
pub mod membership;
pub mod refit;
pub mod supervise;
pub mod window;

pub use checkpoint::{Checkpointer, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use drift::{DriftConfig, DriftDecision, DriftDetector};
pub use engine::{StreamConfig, StreamEngine, StreamOutput, StreamSample};
pub use envelope::SnapshotError;
pub use refit::{AdaptedModel, RefitOutcome, RefitTier};
pub use supervise::{MachineHealth, StreamError, SupervisorConfig};
pub use window::SlidingWindow;
