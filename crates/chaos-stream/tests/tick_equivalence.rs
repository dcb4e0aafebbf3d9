//! Tick equivalence: [`StreamEngine::push_tick`] is the engine's one
//! per-second primitive. Fed rows *copied out of* a trace — so the
//! engine can read nothing but those rows and its own state, lag rows
//! included — it must emit bit-for-bit the outputs and refit outcomes
//! of [`StreamEngine::replay`] over the whole trace. The cases cover a
//! clean run, a faulted one (NaN counters, meter outages, dead
//! seconds), a supervised run in which a machine is quarantined and
//! readmitted, and a run killed mid-stream, restored from its snapshot
//! and resumed.
//!
//! The estimator reads the previous second's frequency, so every case
//! exercises the lag row.

use chaos_core::robust::{strawman_position, EstimateTier, RobustConfig, RobustEstimator};
use chaos_core::{FeatureSpec, ModelTechnique};
use chaos_counters::{collect_run, CounterCatalog, FaultPlan, RunTrace};
use chaos_sim::{Cluster, Platform};
use chaos_stream::{
    DriftConfig, StreamConfig, StreamEngine, StreamOutput, StreamSample, SupervisorConfig,
};
use chaos_trace::SecondRow;
use chaos_workloads::{SimConfig, Workload};
use std::ops::Range;
use std::sync::OnceLock;

fn fixture() -> &'static (RobustEstimator, Cluster, CounterCatalog) {
    static FIXTURE: OnceLock<(RobustEstimator, Cluster, CounterCatalog)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let cluster = Cluster::homogeneous(Platform::Core2, 3, 37);
        let catalog = CounterCatalog::for_platform(&Platform::Core2.spec());
        let train: Vec<RunTrace> = (0..2)
            .map(|r| {
                collect_run(
                    &cluster,
                    &catalog,
                    Workload::Prime,
                    &SimConfig::quick(),
                    910 + r,
                )
                .unwrap()
            })
            .collect();
        let spec = FeatureSpec::general(&catalog).with_lagged_freq(&catalog);
        assert!(!spec.lagged.is_empty(), "the fixture must read a lag row");
        let cpu = strawman_position(&spec, &catalog);
        let idle = cluster.idle_power() / cluster.machines().len() as f64;
        // A linear full model weighs every column, the lagged one too.
        let cfg = RobustConfig {
            technique: ModelTechnique::Linear,
            fit: RobustConfig::fast()
                .fit
                .with_freq_column(spec.freq_column(&catalog)),
            ..RobustConfig::fast()
        };
        let est = RobustEstimator::fit(&train, &spec, cpu, idle, cfg).unwrap();
        (est, cluster, catalog)
    })
}

/// Adaptive and supervised, so equivalence covers the refit, retry and
/// quarantine paths, not just passive prediction.
fn config() -> StreamConfig {
    StreamConfig {
        window_s: 40,
        drift: DriftConfig {
            window_s: 15,
            cooldown_s: 5,
            ..DriftConfig::fast()
        },
        min_refit_samples: 12,
        ..StreamConfig::fast()
    }
    .with_supervise(SupervisorConfig {
        max_attempts: 2,
        quarantine_after: 2,
        quarantine_s: 10,
    })
}

fn engine() -> StreamEngine {
    let (est, cluster, _) = fixture();
    let n = cluster.machines().len() as f64;
    StreamEngine::new(
        est.clone(),
        cluster.machines().len(),
        cluster.max_power() / n,
        cluster.idle_power() / n,
        0.05,
        config(),
    )
    .unwrap()
}

/// A test trace with a late meter shift so drift-triggered refits fire.
fn build_trace(seed: u64) -> RunTrace {
    let (_, cluster, catalog) = fixture();
    let mut test = collect_run(cluster, catalog, Workload::Prime, &SimConfig::quick(), seed)
        .expect("collect test run");
    let start = 40.min(test.seconds());
    for m in &mut test.machines {
        for t in start..m.measured_power_w.len() {
            m.measured_power_w[t] *= 1.3;
        }
    }
    test
}

/// One machine-second copied out of a trace.
struct OwnedRow {
    counters: Vec<f64>,
    measured_power_w: f64,
    true_power_w: f64,
    counter_ok: Option<Vec<bool>>,
    meter_ok: Option<bool>,
    alive: Option<bool>,
}

impl OwnedRow {
    fn copy(row: SecondRow<'_>) -> OwnedRow {
        OwnedRow {
            counters: row.counters.to_vec(),
            measured_power_w: row.measured_power_w,
            true_power_w: row.true_power_w,
            counter_ok: row.counter_ok.map(<[bool]>::to_vec),
            meter_ok: row.meter_ok,
            alive: row.alive,
        }
    }

    fn view(&self) -> SecondRow<'_> {
        SecondRow {
            counters: &self.counters,
            measured_power_w: self.measured_power_w,
            true_power_w: self.true_power_w,
            counter_ok: self.counter_ok.as_deref(),
            meter_ok: self.meter_ok,
            alive: self.alive,
        }
    }
}

/// Feeds `seconds` of `run` to `engine` through `push_tick`, each
/// second's rows copied out of the trace and dropped after the tick.
fn drive_ticks(
    engine: &mut StreamEngine,
    run: &RunTrace,
    seconds: Range<usize>,
) -> Vec<StreamOutput> {
    let mut outputs = Vec::new();
    for t in seconds {
        let copied: Vec<OwnedRow> = run
            .machines
            .iter()
            .map(|m| OwnedRow::copy(m.row(t)))
            .collect();
        let rows: Vec<SecondRow<'_>> = copied.iter().map(OwnedRow::view).collect();
        let mut out = StreamOutput {
            t: usize::MAX,
            cluster_power_w: f64::NAN,
            worst_tier: EstimateTier::Constant,
            active_machines: usize::MAX,
            machines: Vec::new(),
        };
        engine.push_tick(&rows, &mut out).unwrap();
        outputs.push(out);
    }
    outputs
}

fn sample_bits(s: &StreamSample) -> impl PartialEq + std::fmt::Debug {
    (
        s.machine_id,
        s.power_w.to_bits(),
        s.tier,
        s.imputed,
        s.adapted,
        s.rolling_dre.map(f64::to_bits),
        s.refit,
        s.health,
    )
}

/// Asserts two output streams agree bit for bit, every float compared
/// by its bit pattern.
fn assert_bitwise(expected: &[StreamOutput], got: &[StreamOutput], what: &str) {
    assert_eq!(expected.len(), got.len(), "{what}: output count");
    for (a, b) in expected.iter().zip(got) {
        let t = a.t;
        assert_eq!(a.t, b.t, "{what}: t");
        assert_eq!(
            a.cluster_power_w.to_bits(),
            b.cluster_power_w.to_bits(),
            "{what}: cluster power at {t}"
        );
        assert_eq!(a.worst_tier, b.worst_tier, "{what}: worst tier at {t}");
        assert_eq!(
            a.active_machines, b.active_machines,
            "{what}: active at {t}"
        );
        let sa: Vec<_> = a.machines.iter().map(sample_bits).collect();
        let sb: Vec<_> = b.machines.iter().map(sample_bits).collect();
        assert_eq!(sa, sb, "{what}: machine samples at {t}");
    }
}

/// Replays `run` and drives it tick by tick on fresh engines; asserts
/// outputs and refit outcomes (machine ids included) agree. Returns the
/// replayed outputs and engine.
fn assert_tick_matches_replay(run: &RunTrace, what: &str) -> (Vec<StreamOutput>, StreamEngine) {
    let mut replayed = engine();
    let expected = replayed.replay(run).unwrap();
    let mut ticked = engine();
    let got = drive_ticks(&mut ticked, run, 0..run.seconds());
    assert_bitwise(&expected, &got, what);
    assert_eq!(
        replayed.refit_outcomes(),
        ticked.refit_outcomes(),
        "{what}: refit outcomes"
    );
    assert_eq!(
        replayed.supervision_counts(),
        ticked.supervision_counts(),
        "{what}: supervision counts"
    );
    (expected, replayed)
}

#[test]
fn tick_matches_replay_clean() {
    let run = build_trace(911);
    let (_, replayed) = assert_tick_matches_replay(&run, "clean");
    let outcomes = replayed.refit_outcomes();
    assert!(
        !outcomes.is_empty(),
        "fixture must exercise the refit path for the equivalence to mean anything"
    );
    assert!(
        outcomes.iter().any(|o| o.machine_id != 0),
        "refit outcomes must name the machine that refit"
    );
}

#[test]
fn tick_matches_replay_faulted() {
    let run = FaultPlan::new(912)
        .with_counter_dropout(0.15)
        .with_meter_outages(0.03, 8)
        .with_crashes(0.5)
        .apply(&build_trace(912));
    let n = run.seconds();
    let any = |f: &dyn Fn(&chaos_counters::MachineRunTrace, usize) -> bool| {
        run.machines.iter().any(|m| (0..n).any(|t| f(m, t)))
    };
    assert!(any(&|m, t| m.counters[t].iter().any(|v| v.is_nan())));
    assert!(any(&|m, t| !m.meter_ok(t)));
    assert!(any(&|m, t| !m.alive_at(t)), "no dead seconds");
    assert_tick_matches_replay(&run, "faulted");
}

/// A machine whose refits cannot succeed (counters frozen from the
/// first second make every windowed Gram singular, so it never holds an
/// adapted model) is quarantined and readmitted. While it sits out, its
/// counters change; the readmission second must read the last
/// quarantined second as its lag row — the row a trace holds at
/// `t − 1` — not the last row the machine consumed.
#[test]
fn tick_matches_replay_through_quarantine() {
    let mut broken = build_trace(913);
    {
        let m = &mut broken.machines[0];
        let frozen = m.counters[m.counters.len() / 2].clone();
        for t in 0..m.counters.len() {
            m.counters[t] = frozen.clone();
            m.measured_power_w[t] *= 1.6;
        }
    }
    let (before, replayed) = assert_tick_matches_replay(&broken, "quarantine");
    assert!(replayed.supervision_counts()["rejoins"] >= 1);

    // The first quarantine: machine 0 absent from `out` to `back`.
    let present = |o: &StreamOutput| o.machines.iter().any(|s| s.machine_id == 0);
    let out = before
        .iter()
        .position(|o| !present(o))
        .expect("machine 0 never quarantined");
    let back = out
        + before[out..]
            .iter()
            .position(present)
            .expect("machine 0 never readmitted");

    // Change machine 0's counters only while it is out.
    let mut shifted = broken.clone();
    for row in &mut shifted.machines[0].counters[out..back] {
        row.iter_mut().for_each(|v| *v *= 1.25);
    }
    let (after, _) = assert_tick_matches_replay(&shifted, "quarantine, shifted counters");
    assert_bitwise(
        &before[..back],
        &after[..back],
        "seconds before readmission",
    );
    let power_at_back = |outs: &[StreamOutput]| {
        outs[back]
            .machines
            .iter()
            .find(|s| s.machine_id == 0)
            .map(|s| s.power_w.to_bits())
    };
    assert_ne!(
        power_at_back(&before),
        power_at_back(&after),
        "the readmission second must read the quarantined second's row as its lag"
    );
}

#[test]
fn tick_resumes_from_a_snapshot_identically() {
    let (est, _, _) = fixture();
    let run = FaultPlan::new(914)
        .with_counter_dropout(0.1)
        .with_meter_outages(0.02, 6)
        .apply(&build_trace(914));
    let kill_at = run.seconds() / 2;

    let mut uninterrupted = engine();
    let expected = uninterrupted.replay(&run).unwrap();

    let mut eng = engine();
    let mut outputs = drive_ticks(&mut eng, &run, 0..kill_at);
    let snapshot = eng.snapshot();
    drop(eng);

    let mut eng = StreamEngine::restore(est.clone(), &snapshot).unwrap();
    assert_eq!(eng.seconds_processed(), kill_at);
    outputs.extend(drive_ticks(&mut eng, &run, kill_at..run.seconds()));
    assert_bitwise(&expected, &outputs, "kill/restore/resume");
    assert_eq!(
        uninterrupted.refit_outcomes(),
        eng.refit_outcomes(),
        "refit outcomes across the restore"
    );
}
