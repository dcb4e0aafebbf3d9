//! Fleet-membership churn: join, leave, and replace events applied to
//! live engine state.
//!
//! A cluster's composition (Eq. 5) is not static in deployment: machines
//! get decommissioned, rebooted, and swapped. The engine consumes the
//! membership schedule attached to a [`RunTrace`] and applies each
//! event at the second it names, *before* advancing any machine stream
//! for that second — the same ordering whether seconds arrive one at a
//! time ([`StreamEngine::push_second`](crate::StreamEngine::push_second))
//! or through the segmented parallel fan-out of
//! [`StreamEngine::replay`](crate::StreamEngine::replay), which is what
//! keeps composition deterministic under any membership sequence. The
//! row-level [`StreamEngine::push_tick`](crate::StreamEngine::push_tick)
//! reads no trace, so it applies no schedule: its caller owns
//! membership.
//!
//! A joining machine does not start cold: it *warm-starts* from a donor
//! machine's adapted model when one is named (falling back to a linear
//! fit of the donor's sliding-window solver, then to no adapted model at
//! all), and ramps back through the refit ladder — window occupancy caps
//! the refit tier it may request until its own window fills (see
//! [`crate::supervise`]).

use crate::engine::MachineState;
use crate::refit::AdaptedModel;
use crate::supervise::{MachineHealth, StreamError};
use chaos_core::RobustEstimator;
use chaos_counters::{MembershipKind, RunTrace};
use chaos_obs::Value;
use chaos_stats::ols::WindowedOls;

/// Validates a run's membership schedule for streaming consumption.
// chaos-lint: cold — runs once at t = 0, inside warmup; the alloc_regression contract starts counting after warmup
pub(crate) fn validate(run: &RunTrace) -> Result<(), StreamError> {
    run.validate_membership()
        .map_err(|e| StreamError::Membership {
            context: e.to_string(),
        })
}

/// Applies the initial-activity rule: a machine whose first membership
/// event is a join starts outside the composition and enters it when
/// the join fires.
pub(crate) fn apply_initial_activity(states: &mut [MachineState], run: &RunTrace) {
    for (i, state) in states.iter_mut().enumerate() {
        state.active = run.initially_active(i);
    }
}

/// Applies every membership event scheduled at second `t`, in schedule
/// order. Donor reads happen here, serially, against post-`t − 1`
/// state — which is why replay fans out between membership boundaries
/// rather than across them.
// chaos-lint: cold — membership churn (join/leave/warm-start) is event-driven and excluded from the steady-state alloc contract
pub(crate) fn apply_events_at(
    estimator: &RobustEstimator,
    states: &mut [MachineState],
    run: &RunTrace,
    t: usize,
) {
    for event in run.membership.iter().filter(|e| e.t == t) {
        let id = event.machine_id;
        if id >= states.len() {
            // validate() rejects this before any event applies; skip
            // defensively rather than index out of range.
            continue;
        }
        match event.kind {
            MembershipKind::Leave => {
                states[id].active = false;
                chaos_obs::add("stream.membership.leave", 1);
                chaos_obs::event(
                    "stream.membership.leave",
                    &[
                        ("t", Value::U64(t as u64)),
                        ("machine", Value::U64(id as u64)),
                    ],
                );
            }
            MembershipKind::Join { donor } => {
                join(estimator, states, id, donor, false);
                chaos_obs::add("stream.membership.join", 1);
                chaos_obs::event(
                    "stream.membership.join",
                    &[
                        ("t", Value::U64(t as u64)),
                        ("machine", Value::U64(id as u64)),
                        (
                            "donor",
                            Value::Str(donor.map_or("none".to_string(), |d| d.to_string())),
                        ),
                    ],
                );
            }
            MembershipKind::Replace { donor } => {
                join(estimator, states, id, donor, true);
                chaos_obs::add("stream.membership.replace", 1);
                chaos_obs::event(
                    "stream.membership.replace",
                    &[
                        ("t", Value::U64(t as u64)),
                        ("machine", Value::U64(id as u64)),
                        (
                            "donor",
                            Value::Str(donor.map_or("none".to_string(), |d| d.to_string())),
                        ),
                    ],
                );
            }
        }
    }
}

/// Brings machine `id` into the composition as a ramping member:
/// training state is reset, the adapted model warm-starts from `donor`
/// when possible, and — for a hardware replacement — the imputer history
/// is discarded too (the new machine never produced it).
fn join(
    estimator: &RobustEstimator,
    states: &mut [MachineState],
    id: usize,
    donor: Option<usize>,
    fresh_imputer: bool,
) {
    let warm = donor
        .filter(|&d| d != id && d < states.len() && states[d].active)
        .and_then(|d| warm_start_from(&states[d]));
    let state = &mut states[id];
    state.active = true;
    state.health = MachineHealth::Ramping;
    state.window.clear();
    state.wols = WindowedOls::new(state.window.width());
    state.drift.reset_window();
    state.retry = None;
    state.consecutive_failures = 0;
    state.quarantine_left = 0;
    if warm.is_some() {
        state.adapted = warm;
        chaos_obs::add("stream.membership.warm_starts", 1);
    } else {
        state.adapted = None;
    }
    if fresh_imputer {
        state.imputer = estimator.new_imputer();
    }
}

/// The donor's transferable knowledge: its adapted model, or a linear
/// fit of its sliding-window solver (fitted on a clone so the donor's
/// own numeric path is untouched), or nothing.
fn warm_start_from(donor: &MachineState) -> Option<AdaptedModel> {
    if let Some(model) = donor.adapted.clone() {
        return Some(model);
    }
    let mut solver = donor.wols.clone();
    let width = solver.n_features();
    solver.fit().ok().map(|fit| AdaptedModel::Linear {
        columns: (0..width).collect(),
        fit,
    })
}
