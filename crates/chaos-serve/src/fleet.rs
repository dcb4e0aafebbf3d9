//! The fleet: one N-machine [`StreamEngine`] plus the per-machine
//! serving tallies `/v1/machines` reports.
//!
//! A tick has two steps:
//!
//! 1. **Validate** (serial): the tick is checked against the fleet
//!    shape, and its samples are borrowed as one [`SecondRow`] per
//!    machine, in machine order. A rejected tick touches nothing.
//! 2. **Advance** ([`StreamEngine::push_tick`]): the engine assembles
//!    every machine's row against its own lag row, finishes each
//!    machine's second under the configured [`ExecPolicy`], and
//!    composes cluster power in machine order (Eq. 5).
//!
//! The wire-level determinism contract (`docs/PROTOCOL.md`) holds for
//! any `CHAOS_THREADS` because the engine's only parallel phase works
//! on disjoint machine states and every order-sensitive float sum runs
//! serially, pinned by `tests/determinism.rs`. The engine keeps each
//! machine's previous row itself, so serving memory is O(window) per
//! machine at any uptime.

use crate::protocol::{LastSample, MachineStatus, TickResult, WireSample, WireTick};
use crate::ServeError;
use chaos_core::robust::EstimateTier;
use chaos_core::RobustEstimator;
use chaos_sim::FleetSpec;
use chaos_stats::ExecPolicy;
use chaos_stream::{MachineHealth, StreamConfig, StreamEngine, StreamOutput, StreamSample};
use chaos_trace::SecondRow;
use std::collections::BTreeMap;

/// One machine's serving tallies, filled from the engine's output and
/// drained refit outcomes.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tally {
    /// Applied-refit tallies by tier label (`"none"` for failed
    /// ladders).
    pub(crate) refit_counts: BTreeMap<String, u64>,
    /// Second of the most recent refit attempt.
    pub(crate) last_refit_t: Option<u64>,
    /// Most recent emitted sample.
    pub(crate) last: Option<LastSample>,
}

impl Tally {
    /// Records a sample emitted at second `t`, reusing the previous
    /// sample's tier string unless the tier changed.
    fn record(&mut self, t: u64, s: &StreamSample) {
        let tier = s.tier.label();
        match &mut self.last {
            Some(l) => {
                l.t = t;
                l.power_w = s.power_w;
                if l.tier != tier {
                    l.tier.clear();
                    l.tier.push_str(tier);
                }
                l.adapted = s.adapted;
                l.imputed = s.imputed;
                l.rolling_dre = s.rolling_dre;
            }
            None => {
                self.last = Some(LastSample {
                    t,
                    power_w: s.power_w,
                    tier: tier.to_string(),
                    adapted: s.adapted,
                    imputed: s.imputed,
                    rolling_dre: s.rolling_dre,
                });
            }
        }
    }
}

/// The wire sample as the engine reads it. A sample without a power
/// reading has no trusted meter.
fn wire_row(s: &WireSample) -> SecondRow<'_> {
    SecondRow {
        counters: &s.counters,
        measured_power_w: s.power_w.unwrap_or(f64::NAN),
        true_power_w: f64::NAN,
        counter_ok: s.counter_ok.as_deref(),
        meter_ok: Some(s.meter_ok && s.power_w.is_some()),
        alive: Some(s.alive),
    }
}

/// The fleet: the engine, its reused output, and per-machine tallies.
#[derive(Debug)]
pub struct Fleet {
    pub(crate) engine: StreamEngine,
    pub(crate) tallies: Vec<Tally>,
    pub(crate) spec: FleetSpec,
    pub(crate) width: usize,
    /// Reused per-tick engine output: the sample vector's storage
    /// survives across ticks.
    out: StreamOutput,
}

impl Fleet {
    /// Builds a fresh fleet: one engine over every machine with the
    /// fleet's per-machine dynamic range. `stream.exec` is the thread
    /// policy of every tick.
    ///
    /// # Errors
    ///
    /// Propagates [`ServeError::Stream`] if engine construction rejects
    /// the configuration.
    pub fn new(
        estimator: RobustEstimator,
        spec: FleetSpec,
        stream: StreamConfig,
        baseline_dre: f64,
    ) -> Result<Fleet, ServeError> {
        let cluster = spec.cluster();
        let max_w = spec.per_machine_max_w(&cluster);
        let idle_w = spec.per_machine_idle_w(&cluster);
        let engine = StreamEngine::new(
            estimator,
            spec.machines,
            max_w,
            idle_w,
            baseline_dre,
            stream,
        )?;
        Ok(Fleet::from_parts(
            engine,
            vec![Tally::default(); spec.machines],
            spec,
        ))
    }

    /// Assembles a fleet around an engine and its tallies (fresh or
    /// restored).
    pub(crate) fn from_parts(engine: StreamEngine, tallies: Vec<Tally>, spec: FleetSpec) -> Fleet {
        // Samples carry *raw* counter rows (catalog width); the
        // estimator assembles its model-input features from them.
        let width = chaos_counters::CounterCatalog::for_platform(&spec.platform.spec()).len();
        Fleet {
            engine,
            tallies,
            spec,
            width,
            out: StreamOutput {
                t: 0,
                cluster_power_w: 0.0,
                worst_tier: EstimateTier::Full,
                active_machines: 0,
                machines: Vec::new(),
            },
        }
    }

    /// Validates one tick against the fleet shape and returns its
    /// samples as engine rows in machine order. Serial, and mutates
    /// nothing — a rejected tick leaves the fleet untouched.
    fn stage<'a>(&self, tick: &'a WireTick) -> Result<Vec<SecondRow<'a>>, ServeError> {
        let machines = self.tallies.len();
        if tick.t != self.t_next() {
            return Err(ServeError::OutOfOrder {
                expected: self.t_next(),
                got: tick.t,
            });
        }
        if tick.machines.len() != machines {
            return Err(ServeError::MachineCountMismatch {
                expected: machines,
                got: tick.machines.len(),
            });
        }
        // chaos-lint: allow(R6) — one bounded duplicate-detection bitmap per wire tick; serve ticks are network-paced, not sample-paced
        let mut seen = vec![false; machines];
        for sample in &tick.machines {
            if sample.machine_id >= machines {
                return Err(ServeError::InvalidSample {
                    // chaos-lint: allow(R6) — constructs a tick-rejection error; valid ticks never take these branches
                    detail: format!(
                        "machine_id {} outside fleet of {}",
                        sample.machine_id, machines
                    ),
                });
            }
            if seen[sample.machine_id] {
                return Err(ServeError::InvalidSample {
                    // chaos-lint: allow(R6) — constructs a tick-rejection error; valid ticks never take these branches
                    detail: format!("machine_id {} appears twice in tick", sample.machine_id),
                });
            }
            seen[sample.machine_id] = true;
            if sample.counters.len() != self.width {
                return Err(ServeError::InvalidSample {
                    // chaos-lint: allow(R6) — constructs a tick-rejection error; valid ticks never take these branches
                    detail: format!(
                        "machine {}: counter row has {} values, catalog width is {}",
                        sample.machine_id,
                        sample.counters.len(),
                        self.width
                    ),
                });
            }
            if let Some(bad) = sample.counters.iter().find(|v| !v.is_finite()) {
                return Err(ServeError::InvalidSample {
                    // chaos-lint: allow(R6) — constructs a tick-rejection error; valid ticks never take these branches
                    detail: format!(
                        "machine {}: non-finite counter value {bad} (mark it with counter_ok instead)",
                        sample.machine_id
                    ),
                });
            }
            if let Some(p) = sample.power_w {
                if !p.is_finite() {
                    return Err(ServeError::InvalidSample {
                        // chaos-lint: allow(R6) — constructs a tick-rejection error; valid ticks never take these branches
                        detail: format!(
                            "machine {}: non-finite power_w {p} (omit the field instead)",
                            sample.machine_id
                        ),
                    });
                }
            }
            if let Some(mask) = &sample.counter_ok {
                if mask.len() != self.width {
                    return Err(ServeError::InvalidSample {
                        // chaos-lint: allow(R6) — constructs a tick-rejection error; valid ticks never take these branches
                        detail: format!(
                            "machine {}: counter_ok has {} entries, catalog width is {}",
                            sample.machine_id,
                            mask.len(),
                            self.width
                        ),
                    });
                }
            }
        }
        // Every placeholder is overwritten: the checks above admit each
        // machine exactly once.
        // chaos-lint: allow(R6) — one borrowed row view per machine-tick; the views point into the request, so they cannot outlive it
        let mut rows = vec![SecondRow::clean(&[], f64::NAN, f64::NAN); machines];
        for sample in &tick.machines {
            rows[sample.machine_id] = wire_row(sample);
        }
        Ok(rows)
    }

    /// Ingests one tick: validate, advance the engine, and fill the
    /// tallies from its output and drained refit outcomes. Returns the
    /// cluster-composed result.
    ///
    /// # Errors
    ///
    /// Validation errors ([`ServeError::OutOfOrder`],
    /// [`ServeError::MachineCountMismatch`],
    /// [`ServeError::InvalidSample`]) reject the tick without touching
    /// the engine; an engine failure surfaces as [`ServeError::Stream`].
    pub fn ingest_tick(&mut self, tick: &WireTick) -> Result<TickResult, ServeError> {
        let rows = self.stage(tick)?;
        self.engine.push_tick(&rows, &mut self.out)?;

        let refits = self.tally_refits();
        for sample in &self.out.machines {
            if let Some(tally) = self.tallies.get_mut(sample.machine_id) {
                tally.record(tick.t, sample);
            }
        }
        Ok(TickResult {
            t: tick.t,
            cluster_power_w: self.out.cluster_power_w,
            // chaos-lint: allow(R6) — wire-facing result field; one small string per tick response
            worst_tier: self.out.worst_tier.label().to_string(),
            active_machines: self.out.active_machines,
            refits,
        })
    }

    /// Drains the engine's refit outcomes into each machine's tallies,
    /// keyed by the outcome's machine, and returns how many there were.
    // chaos-lint: cold — refit bookkeeping: only refits create outcomes, and a quiet tick drains empty logs without allocating
    fn tally_refits(&mut self) -> u64 {
        let mut refits = 0u64;
        for outcome in self.engine.drain_refit_outcomes() {
            refits += 1;
            if let Some(tally) = self.tallies.get_mut(outcome.machine_id) {
                let label = outcome.applied.map_or("none", |tier| tier.label());
                match tally.refit_counts.get_mut(label) {
                    Some(count) => *count += 1,
                    None => {
                        tally.refit_counts.insert(label.to_string(), 1);
                    }
                }
                tally.last_refit_t = Some(outcome.t as u64);
            }
        }
        refits
    }

    /// The next second the fleet will accept: the engine's cursor.
    pub fn t_next(&self) -> u64 {
        self.engine.seconds_processed() as u64
    }

    /// The fleet specification this instance models.
    pub fn spec(&self) -> FleetSpec {
        self.spec
    }

    /// Counter-row width every sample must carry.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Fleet size.
    pub fn machines(&self) -> usize {
        self.tallies.len()
    }

    /// The thread policy ticks run under.
    pub fn exec(&self) -> ExecPolicy {
        self.engine.config().exec
    }

    /// Machines currently inside the composition.
    pub fn active_count(&self) -> usize {
        self.engine.active_count()
    }

    /// One machine's serving status.
    pub fn machine_status(&self, id: usize) -> Option<MachineStatus> {
        let health = *self.engine.health().get(id)?;
        self.tallies
            .get(id)
            .map(|tally| self.status(id, tally, health))
    }

    /// Every machine's serving status, machine order.
    pub fn statuses(&self) -> Vec<MachineStatus> {
        self.tallies
            .iter()
            .zip(self.engine.health())
            .enumerate()
            .map(|(id, (tally, health))| self.status(id, tally, health))
            .collect()
    }

    fn status(&self, id: usize, tally: &Tally, health: MachineHealth) -> MachineStatus {
        MachineStatus {
            machine_id: id,
            health: health.label().to_string(),
            // `stage` admits every machine exactly once per tick.
            samples: self.t_next(),
            last: tally.last.clone(),
            refit_counts: tally.refit_counts.clone(),
            last_refit_t: tally.last_refit_t,
        }
    }
}
