//! `--replay`: bootstrap a server's stream state from a CHAOSCOL trace.
//!
//! Operators restart estimation servers; fleets do not restart their
//! history. Replay reads a columnar trace file (written by
//! `chaos_counters::export_trace_path` or the collection pipeline),
//! converts each stored second into the exact [`WireTick`] a live
//! client would have POSTed to `/v1/ingest`, and routes it through
//! [`Server::apply_tick`] — so a replayed server is bit-identical, tick
//! counters and power history included, to one that ingested the same
//! seconds over the wire.
//!
//! Stored traces carry fault artifacts the wire protocol forbids
//! (non-finite counter values, NaN meter readings); replay translates
//! them into the protocol's own vocabulary instead of rejecting the
//! trace: a non-finite counter becomes `0.0` with `counter_ok = false`
//! for that position, and `power_w` is only present when the stored
//! meter reading is finite, trusted, and the machine was alive.

use crate::protocol::{WireSample, WireTick};
use crate::server::Server;
use chaos_trace::{TraceError, TraceReader};
use std::fmt;
use std::path::Path;

/// Errors from replay bootstrap: trace-store failures, shape mismatches
/// between the trace and the fleet, and tick rejections.
#[derive(Debug)]
#[non_exhaustive]
pub enum ReplayError {
    /// The trace file is unreadable or corrupt.
    Trace(TraceError),
    /// The trace does not fit the fleet this server models.
    Shape {
        /// What disagreed.
        context: String,
    },
    /// The server rejected a replayed tick.
    Rejected {
        /// Second whose tick was rejected.
        t: u64,
        /// The server's error, rendered.
        detail: String,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Trace(e) => write!(f, "replay: {e}"),
            ReplayError::Shape { context } => write!(f, "replay: {context}"),
            ReplayError::Rejected { t, detail } => {
                write!(f, "replay: tick {t} rejected: {detail}")
            }
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceError> for ReplayError {
    fn from(e: TraceError) -> Self {
        ReplayError::Trace(e)
    }
}

/// What a replay did, for the boot log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayStats {
    /// Ticks applied.
    pub ticks: u64,
    /// Machine-samples applied.
    pub samples: u64,
    /// Counter values sanitized to `0.0` + `counter_ok = false`.
    pub sanitized_counters: u64,
    /// Machine-seconds replayed without a usable meter reading.
    pub unmetered_seconds: u64,
    /// Trace seconds below the server's cursor, skipped (a restored
    /// server replaying only the tail of a trace).
    pub skipped_ticks: u64,
}

/// Replays a CHAOSCOL trace file into `server`, tick by tick, starting
/// at the server's current cursor: seconds the server already applied
/// (a restored checkpoint) are skipped, so replay doubles as the
/// catch-up path after a crash.
///
/// The trace's machine count and counter width must match the fleet's;
/// trace machines map to fleet machines by position. Replay streams the
/// file block by block — working memory stays bounded regardless of
/// trace length.
///
/// # Errors
///
/// [`ReplayError::Trace`] for file corruption, [`ReplayError::Shape`]
/// for fleet mismatches, [`ReplayError::Rejected`] if the server
/// refuses a tick (e.g. the cursor was not where the trace starts).
pub fn replay_file(
    server: &mut Server,
    path: impl AsRef<Path>,
) -> Result<ReplayStats, ReplayError> {
    let reader = TraceReader::open_path(path.as_ref())?;
    let fleet_machines = server.machine_count();
    let width = server.width();
    if reader.machines() != fleet_machines {
        return Err(ReplayError::Shape {
            context: format!(
                "trace has {} machines, fleet has {fleet_machines}",
                reader.machines()
            ),
        });
    }
    for (i, m) in reader.meta().machines.iter().enumerate() {
        if m.width != width {
            return Err(ReplayError::Shape {
                context: format!(
                    "trace machine {i} has width {}, catalog width is {width}",
                    m.width
                ),
            });
        }
    }

    let mut stats = ReplayStats {
        ticks: 0,
        samples: 0,
        sanitized_counters: 0,
        unmetered_seconds: 0,
        skipped_ticks: 0,
    };
    let start = server.t_next();
    let mut stream = reader.stream();
    while stream.advance()? {
        let Some(second) = stream.second() else {
            break;
        };
        if second.t < start {
            stats.skipped_ticks += 1;
            continue;
        }
        let mut machines = Vec::with_capacity(fleet_machines);
        for i in 0..second.machines() {
            let Some(view) = second.machine(i) else {
                continue;
            };
            let mut counters = Vec::with_capacity(width);
            let mut counter_ok = vec![true; width];
            let mut any_bad = false;
            for (k, &v) in view.counters.iter().enumerate() {
                let trusted = view
                    .counter_ok
                    .is_none_or(|m| m.get(k).copied().unwrap_or(false));
                if v.is_finite() && trusted {
                    counters.push(v);
                } else {
                    counters.push(if v.is_finite() { v } else { 0.0 });
                    counter_ok[k] = false;
                    any_bad = true;
                    if !v.is_finite() {
                        stats.sanitized_counters += 1;
                    }
                }
            }
            let metered = view.meter_ok && view.alive && view.measured_power_w.is_finite();
            if !metered {
                stats.unmetered_seconds += 1;
            }
            machines.push(WireSample {
                machine_id: i,
                counters,
                power_w: metered.then_some(view.measured_power_w),
                counter_ok: any_bad.then_some(counter_ok),
                meter_ok: view.meter_ok && view.measured_power_w.is_finite(),
                alive: view.alive,
            });
        }
        let tick = WireTick {
            t: second.t,
            machines,
        };
        server
            .apply_tick(&tick)
            .map_err(|e| ReplayError::Rejected {
                t: second.t,
                detail: e.to_string(),
            })?;
        stats.ticks += 1;
        stats.samples += fleet_machines as u64;
    }
    Ok(stats)
}
