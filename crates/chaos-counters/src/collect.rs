//! Trace collection: drive a cluster through a workload and record
//! counters + power at 1 Hz, like Perfmon logging software counters and
//! WattsUp readings side by side.
//!
//! Collection APIs return typed [`CollectError`]s instead of panicking,
//! and every [`MachineRunTrace`] carries a per-sample [`ValidityMask`] so
//! fault injection ([`crate::faults`]) and downstream estimators can tell
//! a lost sample from a real zero.

use crate::catalog::CounterCatalog;
use crate::synth::CounterSynth;
use chaos_rng::ChaCha8Rng;
use chaos_sim::churn::{MembershipEvent, MembershipKind};
use chaos_sim::{Cluster, Platform, PowerMeter};
use chaos_trace::SecondRow;
use chaos_workloads::{simulate, SimConfig};
use std::error::Error;
use std::fmt;

/// Errors from trace collection, decimation, and validation.
///
/// Real collectors lose samples, meters drop out, and serialized traces
/// arrive truncated; these conditions are data, not programming errors,
/// so the public APIs surface them as values instead of panics.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CollectError {
    /// [`collect_run`] was given a heterogeneous cluster; use
    /// [`collect_run_mixed`] instead.
    HeterogeneousCluster,
    /// The supplied catalog does not match the cluster's platform.
    CatalogMismatch {
        /// Counter count of the platform's own catalog.
        expected: usize,
        /// Counter count of the catalog supplied.
        got: usize,
    },
    /// [`RunTrace::decimated`] was asked for a zero-second interval.
    ZeroInterval,
    /// A trace's shape is inconsistent (per-machine lengths disagree,
    /// counter rows have mixed widths, or series lengths mismatch).
    Ragged {
        /// Human-readable description of the shape conflict.
        context: String,
    },
    /// A sample marked valid holds a non-finite value.
    NonFinite {
        /// Machine the sample belongs to.
        machine_id: usize,
        /// Second of the offending sample.
        second: usize,
        /// Which series held the value.
        context: String,
    },
    /// The trace's membership-event schedule is inconsistent (unsorted,
    /// out-of-range machine or donor ids, or events beyond the run).
    Membership {
        /// Human-readable description of the offending event.
        context: String,
    },
}

impl fmt::Display for CollectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectError::HeterogeneousCluster => write!(
                f,
                "collect_run requires a homogeneous cluster; use collect_run_mixed"
            ),
            CollectError::CatalogMismatch { expected, got } => write!(
                f,
                "catalog does not match cluster platform: expected {expected} counters, got {got}"
            ),
            CollectError::ZeroInterval => write!(f, "decimation interval must be positive"),
            CollectError::Ragged { context } => write!(f, "ragged trace: {context}"),
            CollectError::NonFinite {
                machine_id,
                second,
                context,
            } => write!(
                f,
                "non-finite value marked valid on machine {machine_id} at t={second}s ({context})"
            ),
            CollectError::Membership { context } => {
                write!(f, "invalid membership schedule: {context}")
            }
        }
    }
}

impl Error for CollectError {}

/// Per-sample validity of one machine's recording.
///
/// An **empty** mask (the `Default`, and what [`collect_run`]
/// produces) means *every* sample is valid — the common case costs
/// nothing. Fault injection materializes the vectors it needs; a `false`
/// entry marks a sample that was lost, frozen, or recorded after the
/// machine died, even when the stored value is finite (stale repeats).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValidityMask {
    /// `counters[t][c]` — whether counter `c` at second `t` is trustworthy.
    /// Empty means all valid.
    pub counters: Vec<Vec<bool>>,
    /// Per-second meter validity. Empty means all valid.
    pub meter: Vec<bool>,
    /// Per-second machine liveness (`false` after a crash). Empty means
    /// alive throughout.
    pub alive: Vec<bool>,
}

impl ValidityMask {
    /// Whether counter `c` at second `t` is valid (empty mask ⇒ valid).
    pub fn counter_ok(&self, t: usize, c: usize) -> bool {
        self.counters
            .get(t)
            .is_none_or(|row| row.get(c).copied().unwrap_or(true))
    }

    /// Whether the meter reading at second `t` is valid.
    pub fn meter_ok(&self, t: usize) -> bool {
        self.meter.get(t).copied().unwrap_or(true)
    }

    /// Whether the machine was alive at second `t`.
    pub fn alive(&self, t: usize) -> bool {
        self.alive.get(t).copied().unwrap_or(true)
    }

    /// Whether the mask marks every sample valid.
    pub fn is_all_valid(&self) -> bool {
        self.counters.iter().flatten().all(|&b| b)
            && self.meter.iter().all(|&b| b)
            && self.alive.iter().all(|&b| b)
    }

    /// Materializes explicit all-true vectors for a trace of the given
    /// shape (fault injection flips individual entries afterwards).
    pub fn all_valid(seconds: usize, width: usize) -> ValidityMask {
        ValidityMask {
            counters: vec![vec![true; width]; seconds],
            meter: vec![true; seconds],
            alive: vec![true; seconds],
        }
    }
}

/// One machine's recording for one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineRunTrace {
    /// Machine id within the cluster.
    pub machine_id: usize,
    /// The machine's platform (needed to look up its counter catalog in
    /// heterogeneous clusters).
    pub platform: Platform,
    /// `counters[t][c]` — counter `c` at second `t`.
    pub counters: Vec<Vec<f64>>,
    /// Metered wall power at each second (what models train against).
    pub measured_power_w: Vec<f64>,
    /// Ground-truth wall power (for diagnostics; never shown to models).
    pub true_power_w: Vec<f64>,
    /// Per-sample validity (empty = everything valid; see [`ValidityMask`]).
    pub validity: ValidityMask,
}

impl MachineRunTrace {
    /// Trace length in seconds.
    pub fn seconds(&self) -> usize {
        self.counters.len()
    }

    /// Counter-row width (0 for an empty trace).
    pub fn width(&self) -> usize {
        self.counters.first().map_or(0, Vec::len)
    }

    /// Whether counter `c` at second `t` is valid.
    pub fn counter_ok(&self, t: usize, c: usize) -> bool {
        self.validity.counter_ok(t, c)
    }

    /// Whether the meter reading at second `t` is valid.
    pub fn meter_ok(&self, t: usize) -> bool {
        self.validity.meter_ok(t)
    }

    /// Whether the machine was alive at second `t`.
    pub fn alive_at(&self, t: usize) -> bool {
        self.validity.alive(t)
    }

    /// The sample at second `t` as a borrowed [`CounterSample`].
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.seconds()`.
    pub fn sample(&self, t: usize) -> CounterSample<'_> {
        CounterSample {
            machine_id: self.machine_id,
            t,
            counters: &self.counters[t],
            measured_power_w: self.measured_power_w[t],
            trace: self,
        }
    }

    /// Second `t` as a borrowed [`SecondRow`]: the row-level view
    /// `chaos-stream` ticks on. Absent mask rows stay `None` (valid);
    /// a missing meter reading reads as NaN.
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.seconds()`.
    pub fn row(&self, t: usize) -> SecondRow<'_> {
        SecondRow {
            counters: &self.counters[t],
            measured_power_w: self.measured_power_w.get(t).copied().unwrap_or(f64::NAN),
            true_power_w: self.true_power_w.get(t).copied().unwrap_or(f64::NAN),
            counter_ok: self.validity.counters.get(t).map(Vec::as_slice),
            meter_ok: self.validity.meter.get(t).copied(),
            alive: self.validity.alive.get(t).copied(),
        }
    }

    /// Iterates this machine's samples in time order — the 1 Hz replay a
    /// streaming consumer ingests.
    pub fn samples(&self) -> impl Iterator<Item = CounterSample<'_>> + '_ {
        (0..self.seconds()).map(move |t| self.sample(t))
    }
}

/// One machine's observation for one second, borrowed from its trace —
/// the unit of ingestion for streaming consumers (`chaos-stream`).
///
/// Validity queries go through the owning trace's [`ValidityMask`], so a
/// sample carries the same fault visibility the batch pipeline sees.
#[derive(Debug, Clone, Copy)]
pub struct CounterSample<'a> {
    /// Machine id within the cluster.
    pub machine_id: usize,
    /// Second this sample was recorded at.
    pub t: usize,
    /// Full counter row at `t` (catalog width). Invalid entries may be
    /// NaN; check [`counter_ok`](CounterSample::counter_ok).
    pub counters: &'a [f64],
    /// Metered wall power at `t`, watts (NaN under meter faults).
    pub measured_power_w: f64,
    trace: &'a MachineRunTrace,
}

impl CounterSample<'_> {
    /// Whether counter `c` of this sample is trustworthy.
    pub fn counter_ok(&self, c: usize) -> bool {
        self.trace.counter_ok(self.t, c)
    }

    /// Whether the meter reading of this sample is valid.
    pub fn meter_ok(&self) -> bool {
        self.trace.meter_ok(self.t)
    }

    /// Whether the machine was alive this second.
    pub fn alive(&self) -> bool {
        self.trace.alive_at(self.t)
    }
}

/// All machines' samples for one second, in machine-id order — exactly
/// the set Eq. 5's cluster sum runs over.
#[derive(Debug, Clone)]
pub struct ClusterSample<'a> {
    /// Second of the cluster sample.
    pub t: usize,
    /// Per-machine samples, machine-id order.
    pub machines: Vec<CounterSample<'a>>,
    /// Membership events taking effect this second (usually empty).
    pub membership: Vec<&'a MembershipEvent>,
}

/// Whether two sets of machine traces are bit-identical, every `f64`
/// compared by [`f64::to_bits`]. Derived `==` cannot say this: it has
/// NaN ≠ NaN and −0 = +0, and fault injection writes NaN on purpose.
pub fn same_bits(a: &[MachineRunTrace], b: &[MachineRunTrace]) -> bool {
    fn eq(x: &[f64], y: &[f64]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
    }
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.machine_id == y.machine_id
                && x.platform == y.platform
                && x.validity == y.validity
                && eq(&x.measured_power_w, &y.measured_power_w)
                && eq(&x.true_power_w, &y.true_power_w)
                && x.counters.len() == y.counters.len()
                && x.counters.iter().zip(&y.counters).all(|(r, s)| eq(r, s))
        })
}

/// A full cluster recording for one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// Workload name.
    pub workload: String,
    /// The seed that drove scheduling, governor jitter, and meters.
    pub run_seed: u64,
    /// Per-machine traces, in machine-id order.
    pub machines: Vec<MachineRunTrace>,
    /// Fleet-membership transitions over the run, sorted by time. Empty
    /// (what [`collect_run`] produces) means the membership is static:
    /// every machine contributes for the whole run.
    pub membership: Vec<MembershipEvent>,
}

impl RunTrace {
    /// Trace length in seconds: the *minimum* across machines, so cluster
    /// series never mix seconds some machines did not report. Equal to
    /// every machine's length for well-formed traces ([`RunTrace::validate`]
    /// flags the ragged case).
    pub fn seconds(&self) -> usize {
        self.machines
            .iter()
            .map(MachineRunTrace::seconds)
            .min()
            .unwrap_or(0)
    }

    /// Cluster-level metered power: the sum of per-machine meters, second
    /// by second (what Figure 1 plots). Invalid meter samples propagate
    /// their NaN; see [`ValidityMask`] to detect them.
    pub fn cluster_measured_power(&self) -> Vec<f64> {
        self.sum_series(|m| &m.measured_power_w)
    }

    /// Streams the run one second at a time: each [`ClusterSample`] holds
    /// every machine's observation for that second, in machine-id order,
    /// plus any membership events taking effect that second. Bounded by
    /// [`RunTrace::seconds`] (the minimum across machines), so ragged
    /// tails are never yielded. This is the replay surface `chaos-stream`
    /// consumes.
    pub fn sample_stream(&self) -> impl Iterator<Item = ClusterSample<'_>> + '_ {
        (0..self.seconds()).map(move |t| ClusterSample {
            t,
            machines: self.machines.iter().map(|m| m.sample(t)).collect(),
            membership: self.membership.iter().filter(|e| e.t == t).collect(),
        })
    }

    /// Returns a copy carrying the given membership-event schedule.
    /// Validate with [`RunTrace::validate_membership`] before feeding the
    /// result to a consumer that honors membership.
    pub fn with_membership(mut self, membership: Vec<MembershipEvent>) -> Self {
        self.membership = membership;
        self
    }

    /// Tiles this run out to a fleet of `machines` machines: machine `i`
    /// of the result is a renumbered clone of source machine
    /// `i % self.machines.len()`.
    ///
    /// This is how the serve load generator manufactures 5000-machine
    /// ingest streams without simulating 5000 machines: simulate a small
    /// base cluster once, then tile it. Estimation cost downstream is
    /// the real per-machine cost — every tiled machine runs its own
    /// engine — only the *simulation* is amortized. Membership schedules
    /// reference machine ids and do not survive renumbering, so tiling a
    /// run with membership events is rejected.
    ///
    /// # Errors
    ///
    /// * [`CollectError::Ragged`] if this run has no machines or
    ///   `machines` is zero.
    /// * [`CollectError::Membership`] if this run carries membership
    ///   events.
    pub fn tiled_to(&self, machines: usize) -> Result<RunTrace, CollectError> {
        if self.machines.is_empty() || machines == 0 {
            return Err(CollectError::Ragged {
                context: format!(
                    "tiled_to needs a non-empty source and target ({} source machines, {machines} requested)",
                    self.machines.len()
                ),
            });
        }
        if !self.membership.is_empty() {
            return Err(CollectError::Membership {
                context:
                    "tiled_to cannot renumber a membership schedule; tile first, then attach events"
                        .to_string(),
            });
        }
        let tiled = (0..machines)
            .map(|id| {
                let mut m = self.machines[id % self.machines.len()].clone();
                m.machine_id = id;
                m
            })
            .collect();
        Ok(RunTrace {
            workload: self.workload.clone(),
            run_seed: self.run_seed,
            machines: tiled,
            membership: Vec::new(),
        })
    }

    /// Whether machine `machine_id` is active at the *start* of the run:
    /// a machine whose first scheduled event is a join arrives mid-run
    /// and starts inactive; every other machine starts active.
    pub fn initially_active(&self, machine_id: usize) -> bool {
        match self.membership.iter().find(|e| e.machine_id == machine_id) {
            Some(first) => !matches!(first.kind, MembershipKind::Join { .. }),
            None => true,
        }
    }

    /// Checks the membership schedule against the trace shape: events
    /// sorted by time and inside the run, machine and donor ids in
    /// range, and no event naming its own machine as donor.
    ///
    /// # Errors
    ///
    /// [`CollectError::Membership`] describing the first offending event.
    pub fn validate_membership(&self) -> Result<(), CollectError> {
        let n = self.machines.len();
        let seconds = self.seconds();
        let mut last_t = 0usize;
        for e in &self.membership {
            if e.t < last_t {
                return Err(CollectError::Membership {
                    context: format!(
                        "event at t={} follows one at t={last_t}; sort events by time",
                        e.t
                    ),
                });
            }
            last_t = e.t;
            if e.t >= seconds {
                return Err(CollectError::Membership {
                    context: format!("event at t={} is beyond the {seconds}-second run", e.t),
                });
            }
            if e.machine_id >= n {
                return Err(CollectError::Membership {
                    context: format!(
                        "event at t={} names machine {} of a {n}-machine trace",
                        e.t, e.machine_id
                    ),
                });
            }
            let donor = match e.kind {
                MembershipKind::Join { donor } | MembershipKind::Replace { donor } => donor,
                MembershipKind::Leave => None,
            };
            if let Some(d) = donor {
                if d >= n {
                    return Err(CollectError::Membership {
                        context: format!(
                            "event at t={} names donor {d} of a {n}-machine trace",
                            e.t
                        ),
                    });
                }
                if d == e.machine_id {
                    return Err(CollectError::Membership {
                        context: format!("event at t={} makes machine {d} its own donor", e.t),
                    });
                }
            }
        }
        Ok(())
    }

    fn sum_series<'a, F>(&'a self, f: F) -> Vec<f64>
    where
        F: Fn(&'a MachineRunTrace) -> &'a [f64],
    {
        let n = self.seconds();
        let mut out = vec![0.0; n];
        for m in &self.machines {
            for (o, v) in out.iter_mut().zip(f(m)) {
                *o += v;
            }
        }
        out
    }

    /// Checks structural and numerical integrity: every machine reports
    /// the same number of seconds, counter rows are rectangular, power
    /// series match the counter length, any validity mask matches the
    /// trace shape, and no sample that claims to be valid is non-finite.
    ///
    /// Run this on every trace that crosses a serialization boundary —
    /// [`RunTrace::seconds`] and the cluster sums are only meaningful on
    /// traces that pass.
    ///
    /// # Errors
    ///
    /// * [`CollectError::Ragged`] for any shape inconsistency.
    /// * [`CollectError::NonFinite`] for a NaN/∞ sample not excused by
    ///   the validity mask.
    pub fn validate(&self) -> Result<(), CollectError> {
        let Some(first) = self.machines.first() else {
            return Ok(());
        };
        let seconds = first.seconds();
        for m in &self.machines {
            let id = m.machine_id;
            if m.seconds() != seconds {
                return Err(CollectError::Ragged {
                    context: format!(
                        "machine {id} has {} seconds, machine {} has {seconds}",
                        m.seconds(),
                        first.machine_id
                    ),
                });
            }
            let width = m.width();
            if let Some((t, row)) = m
                .counters
                .iter()
                .enumerate()
                .find(|(_, row)| row.len() != width)
            {
                return Err(CollectError::Ragged {
                    context: format!(
                        "machine {id} counter row at t={t} has width {}, expected {width}",
                        row.len()
                    ),
                });
            }
            for (name, len) in [
                ("measured_power_w", m.measured_power_w.len()),
                ("true_power_w", m.true_power_w.len()),
            ] {
                if len != seconds {
                    return Err(CollectError::Ragged {
                        context: format!(
                            "machine {id} {name} has {len} samples, expected {seconds}"
                        ),
                    });
                }
            }
            for (name, len, expect) in [
                ("validity.counters", m.validity.counters.len(), seconds),
                ("validity.meter", m.validity.meter.len(), seconds),
                ("validity.alive", m.validity.alive.len(), seconds),
            ] {
                if len != 0 && len != expect {
                    return Err(CollectError::Ragged {
                        context: format!(
                            "machine {id} {name} has {len} entries, expected {expect}"
                        ),
                    });
                }
            }
            for (t, row) in m.counters.iter().enumerate() {
                for (c, v) in row.iter().enumerate() {
                    if !v.is_finite() && m.counter_ok(t, c) {
                        return Err(CollectError::NonFinite {
                            machine_id: id,
                            second: t,
                            context: format!("counter {c}"),
                        });
                    }
                }
            }
            for (t, v) in m.measured_power_w.iter().enumerate() {
                if !v.is_finite() && m.meter_ok(t) {
                    return Err(CollectError::NonFinite {
                        machine_id: id,
                        second: t,
                        context: "measured_power_w".into(),
                    });
                }
            }
            if let Some((t, _)) = m
                .true_power_w
                .iter()
                .enumerate()
                .find(|(_, v)| !v.is_finite())
            {
                return Err(CollectError::NonFinite {
                    machine_id: id,
                    second: t,
                    context: "true_power_w".into(),
                });
            }
        }
        self.validate_membership()
    }

    /// Returns a copy sampled every `interval_s` seconds — what a slower
    /// collector (e.g. the 10-minute intervals some prior work used)
    /// would have recorded. Rate counters in Perfmon are averages over
    /// the sampling interval, so values are window-averaged, not point
    /// samples. Windows average only *valid* source samples; a window
    /// with none left is NaN and marked invalid.
    ///
    /// # Errors
    ///
    /// [`CollectError::ZeroInterval`] if `interval_s == 0`.
    pub fn decimated(&self, interval_s: usize) -> Result<RunTrace, CollectError> {
        if interval_s == 0 {
            return Err(CollectError::ZeroInterval);
        }
        if interval_s == 1 {
            return Ok(self.clone());
        }
        let machines = self
            .machines
            .iter()
            .map(|m| decimate_machine(m, interval_s))
            .collect();
        // Membership events land in the decimated window containing them;
        // same-window collisions keep their original order.
        let membership = self
            .membership
            .iter()
            .map(|e| MembershipEvent {
                t: e.t / interval_s,
                ..*e
            })
            .collect();
        Ok(RunTrace {
            workload: self.workload.clone(),
            run_seed: self.run_seed,
            machines,
            membership,
        })
    }
}

fn decimate_machine(m: &MachineRunTrace, interval_s: usize) -> MachineRunTrace {
    let n = m.seconds();
    let width = m.width();
    let masked = !m.validity.is_all_valid();
    let mut counters = Vec::new();
    let mut measured = Vec::new();
    let mut truth = Vec::new();
    let mut mask = ValidityMask::default();
    let mut start = 0;
    while start < n {
        let end = (start + interval_s).min(n);
        let mut crow = vec![0.0; width];
        let mut ccount = vec![0usize; width];
        let mut pm = 0.0;
        let mut pm_count = 0usize;
        let mut pt = 0.0;
        let mut any_alive = false;
        for t in start..end {
            for (j, (acc, cnt)) in crow.iter_mut().zip(ccount.iter_mut()).enumerate() {
                if m.counter_ok(t, j) {
                    *acc += m.counters[t][j];
                    *cnt += 1;
                }
            }
            if m.meter_ok(t) {
                pm += m.measured_power_w[t];
                pm_count += 1;
            }
            pt += m.true_power_w[t];
            any_alive |= m.alive_at(t);
        }
        let crow: Vec<f64> = crow
            .iter()
            .zip(&ccount)
            .map(|(&acc, &cnt)| if cnt > 0 { acc / cnt as f64 } else { f64::NAN })
            .collect();
        if masked {
            mask.counters.push(ccount.iter().map(|&c| c > 0).collect());
            mask.meter.push(pm_count > 0);
            mask.alive.push(any_alive);
        }
        counters.push(crow);
        measured.push(if pm_count > 0 {
            pm / pm_count as f64
        } else {
            f64::NAN
        });
        truth.push(pt / (end - start) as f64);
        start = end;
    }
    MachineRunTrace {
        machine_id: m.machine_id,
        platform: m.platform,
        counters,
        measured_power_w: measured,
        true_power_w: truth,
        validity: mask,
    }
}

/// Collects one run on a **homogeneous** cluster using the supplied
/// catalog (which must match the cluster's platform).
///
/// # Errors
///
/// * [`CollectError::HeterogeneousCluster`] for a mixed cluster; use
///   [`collect_run_mixed`] instead.
/// * [`CollectError::CatalogMismatch`] if the catalog does not match the
///   cluster platform's own catalog.
pub fn collect_run(
    cluster: &Cluster,
    catalog: &CounterCatalog,
    job: impl Into<chaos_workloads::scheduler::JobSource>,
    config: &SimConfig,
    seed: u64,
) -> Result<RunTrace, CollectError> {
    if !cluster.is_homogeneous() {
        return Err(CollectError::HeterogeneousCluster);
    }
    // chaos-lint: allow(R4) — Cluster construction asserts at least
    // one machine, so machines()[0] cannot be out of bounds.
    let platform = cluster.machines()[0].spec().platform;
    let expected = CounterCatalog::for_platform(&platform.spec()).len();
    if catalog.len() != expected {
        return Err(CollectError::CatalogMismatch {
            expected,
            got: catalog.len(),
        });
    }
    Ok(collect_with(cluster, job, config, seed, |_| {
        catalog.clone()
    }))
}

/// Collects one run on any cluster, building each machine's catalog from
/// its own platform (heterogeneous clusters get per-platform catalogs, as
/// in the paper's 10-machine Core2+Opteron experiment).
pub fn collect_run_mixed(
    cluster: &Cluster,
    job: impl Into<chaos_workloads::scheduler::JobSource>,
    config: &SimConfig,
    seed: u64,
) -> RunTrace {
    collect_with(cluster, job, config, seed, |p| {
        CounterCatalog::for_platform(&p.spec())
    })
}

fn collect_with(
    cluster: &Cluster,
    job: impl Into<chaos_workloads::scheduler::JobSource>,
    config: &SimConfig,
    seed: u64,
    catalog_for: impl Fn(Platform) -> CounterCatalog,
) -> RunTrace {
    let demand_trace = simulate(cluster, job, config, seed);
    let mut machines = Vec::with_capacity(cluster.len());

    for (mi, machine) in cluster.machines().iter().enumerate() {
        let platform = machine.spec().platform;
        let catalog = catalog_for(platform);
        // Two seed families: machine-stable properties (counter
        // sensitivities, meter calibration) persist across runs; per-run
        // noise streams are fresh each run. Conflating them would create
        // spurious run-level correlations between counters and power.
        let machine_seed = cluster
            .seed()
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (mi as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
        let run_seed = seed ^ (mi as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
        let mut synth = CounterSynth::with_seeds(&catalog, machine.spec(), machine_seed, run_seed);
        let mut gov_rng = ChaCha8Rng::seed_from_u64(run_seed.wrapping_add(1));
        let mut meter_rng = ChaCha8Rng::seed_from_u64(run_seed.wrapping_add(2));
        let meter =
            PowerMeter::sample(&mut ChaCha8Rng::seed_from_u64(machine_seed.wrapping_add(3)));
        // Hidden thermal drift: load-history-dependent power no counter
        // observes — the irreducible error floor of counter-based models.
        let mut thermal = chaos_sim::ThermalModel::new();
        let mut thermal_rng = ChaCha8Rng::seed_from_u64(run_seed.wrapping_add(4));

        let demands = demand_trace.machine(mi);
        let mut counters = Vec::with_capacity(demands.len());
        let mut measured = Vec::with_capacity(demands.len());
        let mut truth = Vec::with_capacity(demands.len());
        for d in demands {
            let state = machine.apply_demand(d, &mut gov_rng);
            let thermal_w =
                machine.dynamic_range() * thermal.step(state.cpu_utilization(), &mut thermal_rng);
            let p = machine.true_power(&state) + thermal_w + machine.variation().meter_offset_w;
            counters.push(synth.step(&catalog, &state));
            truth.push(p);
            measured.push(meter.read(p, &mut meter_rng));
        }
        machines.push(MachineRunTrace {
            machine_id: mi,
            platform,
            counters,
            measured_power_w: measured,
            true_power_w: truth,
            validity: ValidityMask::default(),
        });
    }

    RunTrace {
        workload: demand_trace.workload.clone(),
        run_seed: seed,
        machines,
        membership: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_workloads::Workload;

    #[test]
    fn homogeneous_collection_shapes() {
        let cluster = Cluster::homogeneous(Platform::Atom, 3, 1);
        let catalog = CounterCatalog::for_platform(&Platform::Atom.spec());
        let run = collect_run(
            &cluster,
            &catalog,
            Workload::WordCount,
            &SimConfig::quick(),
            5,
        )
        .unwrap();
        assert_eq!(run.machines.len(), 3);
        let secs = run.seconds();
        assert!(secs > 30);
        for m in &run.machines {
            assert_eq!(m.seconds(), secs);
            assert_eq!(m.counters[0].len(), catalog.len());
            assert_eq!(m.width(), catalog.len());
            assert_eq!(m.measured_power_w.len(), secs);
            assert_eq!(m.true_power_w.len(), secs);
            // Fresh collections are fully valid via the empty mask.
            assert!(m.validity.is_all_valid());
            assert!(m.counter_ok(0, 0) && m.meter_ok(0) && m.alive_at(0));
        }
        run.validate().unwrap();
    }

    #[test]
    fn measured_power_tracks_truth_within_meter_class() {
        let cluster = Cluster::homogeneous(Platform::Core2, 2, 2);
        let catalog = CounterCatalog::for_platform(&Platform::Core2.spec());
        let run = collect_run(&cluster, &catalog, Workload::Prime, &SimConfig::quick(), 9).unwrap();
        for m in &run.machines {
            for (meas, truth) in m.measured_power_w.iter().zip(&m.true_power_w) {
                let rel = (meas - truth).abs() / truth;
                assert!(rel < 0.03, "relative meter error {rel}");
            }
        }
    }

    #[test]
    fn cluster_power_is_sum_of_machines() {
        let cluster = Cluster::homogeneous(Platform::Athlon, 3, 3);
        let catalog = CounterCatalog::for_platform(&Platform::Athlon.spec());
        let run = collect_run(
            &cluster,
            &catalog,
            Workload::WordCount,
            &SimConfig::quick(),
            4,
        )
        .unwrap();
        let total = run.cluster_measured_power();
        let t = run.seconds() / 2;
        let manual: f64 = run.machines.iter().map(|m| m.measured_power_w[t]).sum();
        assert!((total[t] - manual).abs() < 1e-9);
    }

    #[test]
    fn workload_power_signatures_differ() {
        // Figure 1's premise: Prime's cluster power profile differs
        // dramatically from idle-heavy WordCount bookends. Compare mean
        // power of Prime vs WordCount on the same cluster.
        let cluster = Cluster::homogeneous(Platform::Core2, 5, 1);
        let catalog = CounterCatalog::for_platform(&Platform::Core2.spec());
        let cfg = SimConfig::quick();
        let prime = collect_run(&cluster, &catalog, Workload::Prime, &cfg, 11).unwrap();
        let wc = collect_run(&cluster, &catalog, Workload::WordCount, &cfg, 11).unwrap();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let mid_mean = |v: &[f64]| {
            let (a, b) = (v.len() / 4, 3 * v.len() / 4);
            mean(&v[a..b])
        };
        // Prime saturates the CPUs through its middle phase; WordCount is
        // shorter and lighter — their mid-run power levels must differ.
        let prime_mid = mid_mean(&prime.cluster_measured_power());
        let wc_mid = mid_mean(&wc.cluster_measured_power());
        assert!(
            prime_mid > wc_mid,
            "prime mid-run {prime_mid} should exceed wordcount {wc_mid}"
        );
        assert!(mean(&prime.cluster_measured_power()) > cluster.idle_power());
    }

    #[test]
    fn mixed_collection_handles_heterogeneous_clusters() {
        let cluster = Cluster::heterogeneous(&[(Platform::Core2, 2), (Platform::Opteron, 2)], 6);
        let run = collect_run_mixed(&cluster, Workload::Sort, &SimConfig::quick(), 13);
        assert_eq!(run.machines.len(), 4);
        assert_eq!(run.machines[0].platform, Platform::Core2);
        assert_eq!(run.machines[3].platform, Platform::Opteron);
        // Each machine's rows match its own platform's catalog width, and
        // the two platforms' catalogs differ in content (per-core
        // frequency counters).
        let cat_core2 = CounterCatalog::for_platform(&Platform::Core2.spec());
        let cat_opteron = CounterCatalog::for_platform(&Platform::Opteron.spec());
        assert_eq!(run.machines[0].counters[0].len(), cat_core2.len());
        assert_eq!(run.machines[3].counters[0].len(), cat_opteron.len());
        assert_ne!(cat_core2.defs(), cat_opteron.defs());
    }

    #[test]
    fn collect_run_rejects_mixed_clusters() {
        let cluster = Cluster::heterogeneous(&[(Platform::Core2, 1), (Platform::Atom, 1)], 0);
        let catalog = CounterCatalog::for_platform(&Platform::Core2.spec());
        let err =
            collect_run(&cluster, &catalog, Workload::Prime, &SimConfig::quick(), 0).unwrap_err();
        assert_eq!(err, CollectError::HeterogeneousCluster);
        assert!(err.to_string().contains("homogeneous"));
    }

    #[test]
    fn collect_run_rejects_mismatched_catalog() {
        let cluster = Cluster::homogeneous(Platform::Core2, 2, 0);
        // Atom's catalog has a different counter population.
        let wrong = CounterCatalog::for_platform(&Platform::Atom.spec());
        let expected = CounterCatalog::for_platform(&Platform::Core2.spec()).len();
        if wrong.len() == expected {
            // Platforms with identical catalog sizes cannot trip this
            // guard; nothing to assert.
            return;
        }
        let err =
            collect_run(&cluster, &wrong, Workload::Prime, &SimConfig::quick(), 0).unwrap_err();
        assert_eq!(
            err,
            CollectError::CatalogMismatch {
                expected,
                got: wrong.len()
            }
        );
    }

    #[test]
    fn decimation_averages_windows() {
        let cluster = Cluster::homogeneous(Platform::Atom, 2, 5);
        let catalog = CounterCatalog::for_platform(&Platform::Atom.spec());
        let run = collect_run(&cluster, &catalog, Workload::Prime, &SimConfig::quick(), 3).unwrap();
        let dec = run.decimated(5).unwrap();
        assert_eq!(dec.seconds(), run.seconds().div_ceil(5));
        // The first decimated power sample is the mean of the first five.
        let m = &run.machines[0];
        let want: f64 = m.measured_power_w[..5].iter().sum::<f64>() / 5.0;
        assert!((dec.machines[0].measured_power_w[0] - want).abs() < 1e-9);
        // Counter width unchanged; energy roughly conserved.
        assert_eq!(dec.machines[0].counters[0].len(), catalog.len());
        let e_full: f64 = m.true_power_w.iter().sum();
        let e_dec: f64 = dec.machines[0].true_power_w.iter().sum::<f64>() * 5.0;
        assert!((e_full - e_dec).abs() / e_full < 0.05);
        // interval 1 is the identity.
        assert_eq!(run.decimated(1).unwrap(), run);
    }

    #[test]
    fn decimation_rejects_zero() {
        let cluster = Cluster::homogeneous(Platform::Atom, 1, 5);
        let catalog = CounterCatalog::for_platform(&Platform::Atom.spec());
        let run = collect_run(&cluster, &catalog, Workload::Prime, &SimConfig::quick(), 3).unwrap();
        assert_eq!(run.decimated(0).unwrap_err(), CollectError::ZeroInterval);
    }

    #[test]
    fn different_run_seeds_give_different_traces() {
        let cluster = Cluster::homogeneous(Platform::Atom, 2, 7);
        let catalog = CounterCatalog::for_platform(&Platform::Atom.spec());
        let a = collect_run(&cluster, &catalog, Workload::Prime, &SimConfig::quick(), 1).unwrap();
        let b = collect_run(&cluster, &catalog, Workload::Prime, &SimConfig::quick(), 2).unwrap();
        assert_ne!(
            a.machines[0].measured_power_w,
            b.machines[0].measured_power_w
        );
        // Same seed reproduces exactly.
        let c = collect_run(&cluster, &catalog, Workload::Prime, &SimConfig::quick(), 1).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn validate_catches_ragged_machine_lengths() {
        let cluster = Cluster::homogeneous(Platform::Atom, 2, 7);
        let catalog = CounterCatalog::for_platform(&Platform::Atom.spec());
        let mut run =
            collect_run(&cluster, &catalog, Workload::Prime, &SimConfig::quick(), 1).unwrap();
        run.machines[1].counters.pop();
        run.machines[1].measured_power_w.pop();
        run.machines[1].true_power_w.pop();
        let err = run.validate().unwrap_err();
        assert!(matches!(err, CollectError::Ragged { .. }), "{err}");
        // seconds() stays conservative on ragged traces: the shortest
        // machine bounds the cluster series.
        assert_eq!(run.seconds(), run.machines[1].seconds());
        let total = run.cluster_measured_power();
        assert_eq!(total.len(), run.seconds());
    }

    #[test]
    fn validate_catches_inconsistent_counter_width() {
        let cluster = Cluster::homogeneous(Platform::Atom, 1, 7);
        let catalog = CounterCatalog::for_platform(&Platform::Atom.spec());
        let mut run =
            collect_run(&cluster, &catalog, Workload::Prime, &SimConfig::quick(), 1).unwrap();
        run.machines[0].counters[3].pop();
        let err = run.validate().unwrap_err();
        assert!(matches!(err, CollectError::Ragged { .. }), "{err}");
    }

    #[test]
    fn validate_catches_unmasked_non_finite_values() {
        let cluster = Cluster::homogeneous(Platform::Atom, 1, 7);
        let catalog = CounterCatalog::for_platform(&Platform::Atom.spec());
        let mut run =
            collect_run(&cluster, &catalog, Workload::Prime, &SimConfig::quick(), 1).unwrap();
        run.machines[0].counters[2][4] = f64::NAN;
        let err = run.validate().unwrap_err();
        assert!(
            matches!(err, CollectError::NonFinite { second: 2, .. }),
            "{err}"
        );
        // The same NaN excused by a validity mask passes validation.
        let (secs, width) = (run.machines[0].seconds(), run.machines[0].width());
        let mut mask = ValidityMask::all_valid(secs, width);
        mask.counters[2][4] = false;
        run.machines[0].validity = mask;
        run.validate().unwrap();
    }

    #[test]
    fn sample_iterator_replays_trace_in_order() {
        let cluster = Cluster::homogeneous(Platform::Core2, 3, 9);
        let catalog = CounterCatalog::for_platform(&Platform::Core2.spec());
        let run = collect_run(&cluster, &catalog, Workload::Sort, &SimConfig::quick(), 5).unwrap();
        let m = &run.machines[1];
        // Per-machine stream: one sample per second, values borrowed
        // straight from the trace.
        let samples: Vec<_> = m.samples().collect();
        assert_eq!(samples.len(), m.seconds());
        for (t, s) in samples.iter().enumerate() {
            assert_eq!(s.t, t);
            assert_eq!(s.machine_id, m.machine_id);
            assert_eq!(s.counters, m.counters[t].as_slice());
            assert!((s.measured_power_w - m.measured_power_w[t]).abs() < 1e-12);
        }
        // Cluster stream: machine-id order, bounded by RunTrace::seconds.
        let cluster_samples: Vec<_> = run.sample_stream().collect();
        assert_eq!(cluster_samples.len(), run.seconds());
        for (t, cs) in cluster_samples.iter().enumerate() {
            assert_eq!(cs.t, t);
            let ids: Vec<usize> = cs.machines.iter().map(|s| s.machine_id).collect();
            let want: Vec<usize> = run.machines.iter().map(|m| m.machine_id).collect();
            assert_eq!(ids, want);
        }
    }

    #[test]
    fn sample_iterator_surfaces_validity() {
        let cluster = Cluster::homogeneous(Platform::Atom, 2, 3);
        let catalog = CounterCatalog::for_platform(&Platform::Atom.spec());
        let mut run =
            collect_run(&cluster, &catalog, Workload::Prime, &SimConfig::quick(), 7).unwrap();
        let (secs, width) = (run.machines[0].seconds(), run.machines[0].width());
        let mut mask = ValidityMask::all_valid(secs, width);
        mask.counters[4][1] = false;
        mask.meter[6] = false;
        mask.alive[8] = false;
        run.machines[0].validity = mask;
        let m = &run.machines[0];
        let s4 = m.sample(4);
        assert!(!s4.counter_ok(1));
        assert!(s4.counter_ok(0));
        assert!(s4.meter_ok() && s4.alive());
        let s6 = m.sample(6);
        assert!(!s6.meter_ok());
        assert!(s6.alive());
        let s8 = m.sample(8);
        assert!(!s8.alive());
        // The untouched machine reports everything valid through the
        // cluster stream too.
        for cs in run.sample_stream() {
            let other = &cs.machines[1];
            assert!(other.meter_ok() && other.alive());
        }
    }

    #[test]
    fn sample_iterator_respects_ragged_minimum() {
        let cluster = Cluster::homogeneous(Platform::Atom, 2, 3);
        let catalog = CounterCatalog::for_platform(&Platform::Atom.spec());
        let mut run =
            collect_run(&cluster, &catalog, Workload::Prime, &SimConfig::quick(), 7).unwrap();
        run.machines[1].counters.pop();
        run.machines[1].measured_power_w.pop();
        run.machines[1].true_power_w.pop();
        // The cluster stream never yields a second the short machine
        // lacks, matching RunTrace::seconds().
        assert_eq!(run.sample_stream().count(), run.machines[1].seconds());
    }

    #[test]
    fn tiled_to_renumbers_and_replicates() {
        let cluster = Cluster::homogeneous(Platform::Atom, 2, 3);
        let catalog = CounterCatalog::for_platform(&Platform::Atom.spec());
        let run = collect_run(&cluster, &catalog, Workload::Prime, &SimConfig::quick(), 7).unwrap();
        let fleet = run.tiled_to(5).unwrap();
        assert_eq!(fleet.machines.len(), 5);
        for (id, m) in fleet.machines.iter().enumerate() {
            assert_eq!(m.machine_id, id);
            let src = &run.machines[id % 2];
            assert_eq!(m.counters, src.counters);
            assert_eq!(m.measured_power_w, src.measured_power_w);
        }
        assert_eq!(fleet.seconds(), run.seconds());
        fleet.validate().expect("tiled run stays valid");
        // Shrinking works too (take a prefix of the tiling).
        assert_eq!(run.tiled_to(1).unwrap().machines.len(), 1);
    }

    #[test]
    fn tiled_to_rejects_degenerate_and_membership_runs() {
        let cluster = Cluster::homogeneous(Platform::Atom, 2, 3);
        let catalog = CounterCatalog::for_platform(&Platform::Atom.spec());
        let run = collect_run(&cluster, &catalog, Workload::Prime, &SimConfig::quick(), 7).unwrap();
        assert!(matches!(run.tiled_to(0), Err(CollectError::Ragged { .. })));
        let churned = run.with_membership(vec![MembershipEvent::leave(5, 1)]);
        assert!(matches!(
            churned.tiled_to(4),
            Err(CollectError::Membership { .. })
        ));
    }
}
