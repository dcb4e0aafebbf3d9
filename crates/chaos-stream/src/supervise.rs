//! Typed stream errors and the supervised refit ladder.
//!
//! The streaming engine runs unattended: machines fault, refits fail,
//! snapshots arrive corrupted. This module gives every failure a typed
//! name ([`StreamError`]) and a deterministic response policy
//! ([`SupervisorConfig`]): a failed refit can be retried a bounded
//! number of times (attempt-counted, never wall-clocked), and a machine
//! whose refits keep failing is *quarantined* — dropped out of the Eq. 5
//! composition so a broken per-machine model cannot poison the cluster
//! estimate — then readmitted through the same ramp-up path a newly
//! joined machine takes.
//!
//! Everything here is counted in samples, not seconds of wall time, so
//! a resumed or replayed run takes exactly the transitions the original
//! did.

use crate::envelope::SnapshotError;
use crate::refit::RefitTier;
use chaos_counters::store::StoreError;
use chaos_stats::StatsError;

/// Errors from the streaming engine: usage errors, propagated numeric
/// errors, membership-schedule errors, and snapshot errors.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StreamError {
    /// Seconds must be fed strictly in order.
    OutOfOrder {
        /// Second the engine expected next.
        expected: usize,
        /// Second the caller supplied.
        got: usize,
    },
    /// The run's machine count does not match the engine's.
    MachineCountMismatch {
        /// Machines in the supplied run.
        run: usize,
        /// Machine streams in the engine.
        engine: usize,
    },
    /// The requested second lies beyond the run's length.
    BeyondTrace {
        /// Requested second.
        t: usize,
        /// Seconds in the run.
        seconds: usize,
    },
    /// Replay needs an engine that has not consumed any seconds.
    NotPristine {
        /// Seconds already consumed.
        consumed: usize,
    },
    /// The run's membership schedule is invalid.
    Membership {
        /// What was wrong with the schedule.
        context: String,
    },
    /// A numeric or parameter error from the statistics layer.
    Stats(StatsError),
    /// A snapshot could not be decoded or persisted.
    Snapshot(SnapshotError),
    /// The sample source backing a replay failed (corrupt trace file,
    /// shape mismatch, unknown platform).
    Source(StoreError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::OutOfOrder { expected, got } => write!(
                f,
                "stream engine: expected second {expected} next, got {got} (feed seconds in order)"
            ),
            StreamError::MachineCountMismatch { run, engine } => write!(
                f,
                "stream engine: run has {run} machines, engine has {engine}"
            ),
            StreamError::BeyondTrace { t, seconds } => {
                write!(f, "stream engine: second {t} beyond run length {seconds}")
            }
            StreamError::NotPristine { consumed } => write!(
                f,
                "stream engine: replay needs a fresh engine, {consumed} seconds already consumed"
            ),
            StreamError::Membership { context } => {
                write!(f, "stream engine: invalid membership schedule: {context}")
            }
            StreamError::Stats(e) => write!(f, "stream engine: {e}"),
            StreamError::Snapshot(e) => write!(f, "stream engine: {e}"),
            StreamError::Source(e) => write!(f, "stream engine: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Stats(e) => Some(e),
            StreamError::Snapshot(e) => Some(e),
            StreamError::Source(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StatsError> for StreamError {
    fn from(e: StatsError) -> Self {
        StreamError::Stats(e)
    }
}

impl From<SnapshotError> for StreamError {
    fn from(e: SnapshotError) -> Self {
        StreamError::Snapshot(e)
    }
}

impl From<StoreError> for StreamError {
    fn from(e: StoreError) -> Self {
        StreamError::Source(e)
    }
}

/// Supervision policy for the refit ladder. All knobs count samples or
/// attempts — never wall time — so supervision is replay-deterministic.
///
/// The default is [`SupervisorConfig::disabled`], which reproduces the
/// unsupervised engine bit-identically; [`SupervisorConfig::paper`] is
/// the deployment-shaped policy:
///
/// ```
/// use chaos_stream::SupervisorConfig;
///
/// let policy = SupervisorConfig::paper();
/// assert_eq!(policy.max_attempts, 2); // one retry per refit request
/// assert_eq!(policy.quarantine_after, 3); // quarantine on the 3rd exhaustion
/// assert_eq!(policy.quarantine_s, 60); // a minute out of the composition
///
/// // Disabled supervision is the `Default`, so `StreamConfig`s that
/// // never mention supervision behave exactly as before it existed.
/// assert_eq!(SupervisorConfig::default(), SupervisorConfig::disabled());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Total attempts a requested refit gets before it counts as a
    /// failure: the initial walk down the ladder plus `max_attempts − 1`
    /// retries, each re-armed by the next clean training sample.
    pub max_attempts: usize,
    /// Consecutive exhausted refit requests after which a machine is
    /// quarantined. `0` disables quarantine entirely.
    pub quarantine_after: usize,
    /// Seconds a quarantined machine sits out of the composition before
    /// re-entering through the ramp-up path.
    pub quarantine_s: usize,
}

impl SupervisorConfig {
    /// Supervision off: one attempt per request, never quarantine.
    /// Engine behaviour is bit-identical to the unsupervised engine.
    pub fn disabled() -> Self {
        SupervisorConfig {
            max_attempts: 1,
            quarantine_after: 0,
            quarantine_s: 0,
        }
    }

    /// Deployment-shaped supervision: one retry, quarantine after three
    /// consecutive exhausted requests, a minute in quarantine.
    pub fn paper() -> Self {
        SupervisorConfig {
            max_attempts: 2,
            quarantine_after: 3,
            quarantine_s: 60,
        }
    }

    /// Short-horizon supervision for tests and quick experiments.
    pub fn fast() -> Self {
        SupervisorConfig {
            max_attempts: 2,
            quarantine_after: 2,
            quarantine_s: 15,
        }
    }
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig::disabled()
    }
}

/// A machine stream's supervision state.
///
/// Health travels with every [`crate::StreamSample`], so downstream
/// consumers (dashboards, the `chaos-serve` status endpoints) can tell
/// a trustworthy estimate from one produced by a machine still
/// refilling its training window:
///
/// ```
/// use chaos_stream::MachineHealth;
///
/// // Labels are stable wire/report strings.
/// assert_eq!(MachineHealth::Healthy.label(), "healthy");
/// assert_eq!(MachineHealth::Ramping.label(), "ramping");
/// assert_eq!(MachineHealth::Quarantined.label(), "quarantined");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineHealth {
    /// Full member: trains, adapts, and refits at any tier.
    Healthy,
    /// Recently (re)joined: contributes to the composition but its refit
    /// requests are capped by window occupancy until the window fills.
    Ramping,
    /// Out of the composition after repeated refit failures; re-enters
    /// through the ramp-up path after the quarantine countdown.
    Quarantined,
}

impl MachineHealth {
    /// Short label for observability and reports.
    pub fn label(self) -> &'static str {
        match self {
            MachineHealth::Healthy => "healthy",
            MachineHealth::Ramping => "ramping",
            MachineHealth::Quarantined => "quarantined",
        }
    }
}

/// A pending bounded retry of a failed refit request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RetryState {
    /// Tier the drift detector originally asked for.
    pub requested: RefitTier,
    /// Retries remaining before the request counts as exhausted.
    pub attempts_left: usize,
}

/// The refit tier a ramping machine is allowed to request, given how
/// much of its sliding window has refilled. A thin window only supports
/// the cheap coefficient refresh; stepwise needs half a window; a full
/// reselection waits for a full one.
pub(crate) fn ramp_cap(window_len: usize, window_capacity: usize) -> RefitTier {
    if window_len >= window_capacity {
        RefitTier::FullReselect
    } else if window_len >= window_capacity / 2 {
        RefitTier::StepwiseRerun
    } else {
        RefitTier::CoefficientRefresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_disabled() {
        assert_eq!(SupervisorConfig::default(), SupervisorConfig::disabled());
        assert_eq!(SupervisorConfig::default().max_attempts, 1);
        assert_eq!(SupervisorConfig::default().quarantine_after, 0);
    }

    #[test]
    fn ramp_cap_escalates_with_occupancy() {
        assert_eq!(ramp_cap(0, 60), RefitTier::CoefficientRefresh);
        assert_eq!(ramp_cap(29, 60), RefitTier::CoefficientRefresh);
        assert_eq!(ramp_cap(30, 60), RefitTier::StepwiseRerun);
        assert_eq!(ramp_cap(59, 60), RefitTier::StepwiseRerun);
        assert_eq!(ramp_cap(60, 60), RefitTier::FullReselect);
    }

    #[test]
    fn errors_display_their_context() {
        let e = StreamError::OutOfOrder {
            expected: 3,
            got: 7,
        };
        assert!(e.to_string().contains("expected second 3"));
        let e = StreamError::Membership {
            context: "donor 9 out of range".into(),
        };
        assert!(e.to_string().contains("donor 9"));
        let e: StreamError = StatsError::Singular.into();
        assert!(matches!(e, StreamError::Stats(StatsError::Singular)));
    }
}
