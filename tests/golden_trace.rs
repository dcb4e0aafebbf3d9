//! Golden-trace regression harness.
//!
//! Each test runs a fixed-seed pipeline (the quick-scale equivalents of
//! the paper's Table II feature selection and Table IV sweep), reduces
//! the result to a JSON fingerprint, and compares it against the golden
//! copy committed under `tests/golden/`. Numeric leaves must match
//! within `TOLERANCE`; every other leaf must match exactly.
//!
//! Maintenance protocol (also in `tests/golden/README.md`):
//!
//! - A missing golden file fails the test; generate it with
//!   `UPDATE_GOLDEN=1` and commit it.
//! - After an *intentional* numeric change, regenerate with
//!   `UPDATE_GOLDEN=1 cargo test --test golden_trace` and commit the
//!   diff. A golden diff in review is the signal that model output
//!   changed; never regenerate to silence an unexplained mismatch.
//!
//! Each fingerprint is also computed twice in-process and compared for
//! exact equality, so a nondeterministic pipeline fails even on an
//! `UPDATE_GOLDEN=1` run.

use chaos::core::experiment::{ClusterExperiment, ExperimentConfig};
use chaos::core::models::ModelTechnique;
use chaos::core::robust::{strawman_position, RobustConfig, RobustEstimator};
use chaos::core::sweep::sweep_grid;
use chaos::core::FeatureSpec;
use chaos::counters::{collect_run, ChurnPlan, CounterCatalog, FaultPlan, RunTrace};
use chaos::obs::json::{self, Value};
use chaos::sim::{Cluster, Platform};
use chaos::stats::exec::ExecPolicy;
use chaos::stream::{DriftConfig, StreamConfig, StreamEngine, SupervisorConfig};
use chaos::trace::fnv1a64;
use chaos::workloads::{SimConfig, Workload};
use std::path::PathBuf;

/// Relative tolerance for numeric leaves. The pipelines are bit-level
/// deterministic on one build; the slack only absorbs libm differences
/// across platforms and toolchains.
const TOLERANCE: f64 = 1e-9;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn relative_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

/// Recursively compares a fingerprint against its golden copy,
/// collecting every mismatching path.
fn diff_values(path: &str, golden: &Value, actual: &Value, out: &mut Vec<String>) {
    match (golden, actual) {
        (Value::U64(_) | Value::F64(_), Value::U64(_) | Value::F64(_)) => {
            let (g, a) = (golden.as_f64().unwrap(), actual.as_f64().unwrap());
            if relative_gap(g, a) > TOLERANCE {
                out.push(format!("{path}: golden {g} vs actual {a}"));
            }
        }
        (Value::Arr(g), Value::Arr(a)) => {
            if g.len() != a.len() {
                out.push(format!("{path}: length {} vs {}", g.len(), a.len()));
                return;
            }
            for (i, (gv, av)) in g.iter().zip(a).enumerate() {
                diff_values(&format!("{path}[{i}]"), gv, av, out);
            }
        }
        (Value::Obj(g), Value::Obj(a)) => {
            let extra = a.iter().filter(|(k, _)| golden.get(k).is_none());
            for (key, _) in g.iter().chain(extra) {
                match (golden.get(key), actual.get(key)) {
                    (Some(gv), Some(av)) => {
                        diff_values(&format!("{path}.{key}"), gv, av, out);
                    }
                    (gv, _) => out.push(format!(
                        "{path}.{key}: {} in golden only",
                        if gv.is_some() { "present" } else { "missing" }
                    )),
                }
            }
        }
        (g, a) => {
            if g != a {
                out.push(format!("{path}: golden {g} vs actual {a}"));
            }
        }
    }
}

/// Compares `fingerprint` to `tests/golden/<name>.json`, or rewrites the
/// golden file under `UPDATE_GOLDEN=1`. A missing file fails.
fn check_golden(name: &str, fingerprint: &Value) {
    let path = golden_dir().join(format!("{name}.json"));
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(&path, fingerprint.to_json_pretty() + "\n").expect("write golden file");
        eprintln!("updated golden trace {}; commit the file", path.display());
        return;
    }
    let body = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden trace {} ({e}); generate it with \
             `UPDATE_GOLDEN=1 cargo test --test golden_trace` and commit it",
            path.display()
        )
    });
    let golden = json::parse(&body).expect("golden file is valid JSON");
    let mut mismatches = Vec::new();
    diff_values(name, &golden, fingerprint, &mut mismatches);
    assert!(
        mismatches.is_empty(),
        "golden trace {name} diverged ({} mismatches):\n  {}\n\
         If the change is intentional, regenerate with \
         `UPDATE_GOLDEN=1 cargo test --test golden_trace` and commit the diff.",
        mismatches.len(),
        mismatches.join("\n  ")
    );
}

/// Table II equivalent: Algorithm 1 feature selection on a fixed-seed
/// quick-scale Opteron cluster.
fn selection_fingerprint() -> Value {
    let exp = ClusterExperiment::collect(Platform::Opteron, &ExperimentConfig::quick());
    let selection = exp.select_features().expect("selection succeeds");
    let names: Vec<&str> = selection
        .selected
        .iter()
        .map(|&j| exp.catalog.def(j).name.as_str())
        .collect();
    let histogram_head = selection.histogram.iter().take(8).map(|&(j, w)| {
        Value::obj([
            ("counter", Value::from(exp.catalog.def(j).name.as_str())),
            ("weight", Value::from(w)),
        ])
    });
    Value::obj([
        ("schema", Value::from("chaos-golden-selection/1")),
        ("platform", Value::from("Opteron")),
        ("selected", Value::from(names)),
        ("threshold", Value::from(selection.threshold)),
        ("survivors_step1", Value::from(selection.survivors_step1)),
        ("survivors_step2", Value::from(selection.survivors_step2)),
        ("models_built", Value::from(selection.models_built)),
        ("histogram_head", histogram_head.collect()),
    ])
}

/// Table IV equivalent: the technique × feature-set sweep on one
/// workload of a fixed-seed quick-scale Core2 cluster, fanned out in
/// parallel so the golden trace also pins policy invariance.
fn sweep_fingerprint() -> Value {
    let cfg = ExperimentConfig::quick().with_exec(ExecPolicy::Parallel { threads: 4 });
    let exp = ClusterExperiment::collect(Platform::Core2, &cfg);
    let selection = exp.select_features().expect("selection succeeds");
    let sets = exp.standard_feature_sets(&selection);
    let cells = sweep_grid(
        exp.traces_for(Workload::Prime),
        &exp.cluster,
        &sets,
        &ModelTechnique::ALL,
        &cfg.eval,
    )
    .expect("sweep succeeds");
    let cells = cells.iter().map(|c| {
        Value::obj([
            ("label", Value::from(c.label())),
            ("avg_dre", Value::from(c.outcome.avg_dre())),
            ("avg_rmse", Value::from(c.outcome.avg_rmse())),
            ("folds", Value::from(c.outcome.folds.len())),
            ("models_built", Value::from(c.outcome.models_built)),
        ])
    });
    Value::obj([
        ("schema", Value::from("chaos-golden-sweep/1")),
        ("platform", Value::from("Core2")),
        ("workload", Value::from("prime")),
        ("cells", cells.collect()),
    ])
}

/// Streaming engine equivalent of the offline golden traces: a
/// fixed-seed replay — with a mid-run meter shift so drift-triggered
/// refits fire — reduced to an FNV-1a hash over the exact bit pattern
/// of every per-second cluster prediction. The hash leaf is a string,
/// so it is compared *exactly*: any change to the streaming numerics,
/// refit scheduling, or composition order shows up here.
fn streaming_fingerprint() -> Value {
    let cluster = Cluster::homogeneous(Platform::Core2, 3, 96);
    let catalog = CounterCatalog::for_platform(&Platform::Core2.spec());
    let sim = SimConfig::quick();
    let train: Vec<RunTrace> = (0..2)
        .map(|r| collect_run(&cluster, &catalog, Workload::Prime, &sim, 900 + r).unwrap())
        .collect();
    let mut test = collect_run(&cluster, &catalog, Workload::Prime, &sim, 990).unwrap();
    let start = 40.min(test.seconds());
    for m in &mut test.machines {
        for t in start..m.measured_power_w.len() {
            m.measured_power_w[t] *= 1.3;
        }
    }

    let spec = FeatureSpec::general(&catalog);
    let cpu = strawman_position(&spec, &catalog);
    let idle = cluster.idle_power() / cluster.machines().len() as f64;
    let cfg = RobustConfig {
        fit: RobustConfig::fast()
            .fit
            .with_freq_column(spec.freq_column(&catalog)),
        ..RobustConfig::fast()
    };
    let est = RobustEstimator::fit(&train, &spec, cpu, idle, cfg).expect("offline fit");

    let config = StreamConfig {
        window_s: 40,
        drift: DriftConfig {
            window_s: 15,
            cooldown_s: 5,
            ..DriftConfig::fast()
        },
        min_refit_samples: 12,
        ..StreamConfig::fast()
    }
    .with_exec(ExecPolicy::Parallel { threads: 4 });
    let n = cluster.machines().len() as f64;
    let mut eng = StreamEngine::new(
        est,
        cluster.machines().len(),
        cluster.max_power() / n,
        cluster.idle_power() / n,
        0.05,
        config,
    )
    .expect("engine");
    let outputs = eng.replay(&test).expect("replay");

    // FNV-1a over the little-endian bit pattern of every per-second
    // cluster prediction: a bit-exact sequence digest.
    let bits: Vec<u8> = outputs
        .iter()
        .flat_map(|out| out.cluster_power_w.to_bits().to_le_bytes())
        .collect();
    let h = fnv1a64(&bits);
    let mean_power = outputs.iter().map(|o| o.cluster_power_w).sum::<f64>() / outputs.len() as f64;
    let adapted = outputs
        .iter()
        .flat_map(|o| &o.machines)
        .filter(|s| s.adapted)
        .count();
    Value::obj([
        ("schema", Value::from("chaos-golden-streaming/1")),
        ("platform", Value::from("Core2")),
        ("workload", Value::from("prime")),
        ("seconds", Value::from(outputs.len())),
        ("prediction_hash", Value::from(format!("{h:016x}"))),
        ("mean_cluster_power_w", Value::from(mean_power)),
        ("refit_counts", Value::from(eng.refit_counts())),
        ("adapted_samples", Value::from(adapted)),
    ])
}

#[test]
fn selection_matches_golden_trace() {
    let first = selection_fingerprint();
    let second = selection_fingerprint();
    assert_eq!(first, second, "selection fingerprint is nondeterministic");
    check_golden("selection_opteron_quick", &first);
}

#[test]
fn sweep_matches_golden_trace() {
    let first = sweep_fingerprint();
    let second = sweep_fingerprint();
    assert_eq!(first, second, "sweep fingerprint is nondeterministic");
    check_golden("sweep_core2_prime_quick", &first);
}

#[test]
fn streaming_matches_golden_trace() {
    let first = streaming_fingerprint();
    let second = streaming_fingerprint();
    assert_eq!(first, second, "streaming fingerprint is nondeterministic");
    check_golden("streaming_core2_quick", &first);
}

/// ISSUE 6: kill-and-resume recovery under faults and fleet churn. The
/// engine is killed mid-run, restored from its snapshot, and resumed;
/// the fingerprint hashes the *stitched* prediction stream, and the test
/// additionally proves it equals the uninterrupted stream bit-for-bit
/// before hashing — so the golden file pins the recovery path itself.
fn recovery_fingerprint() -> Value {
    let cluster = Cluster::homogeneous(Platform::Core2, 3, 96);
    let catalog = CounterCatalog::for_platform(&Platform::Core2.spec());
    let sim = SimConfig::quick();
    let train: Vec<RunTrace> = (0..2)
        .map(|r| collect_run(&cluster, &catalog, Workload::Prime, &sim, 900 + r).unwrap())
        .collect();
    let mut test = collect_run(&cluster, &catalog, Workload::Prime, &sim, 991).unwrap();
    let start = 40.min(test.seconds());
    for m in &mut test.machines {
        for t in start..m.measured_power_w.len() {
            m.measured_power_w[t] *= 1.3;
        }
    }
    let test = FaultPlan::new(17)
        .with_counter_dropout(0.1)
        .with_churn(
            ChurnPlan::new(5)
                .with_leave_rejoin(1)
                .with_late_joins(1)
                .with_replaces(1),
        )
        .apply(&test);

    let spec = FeatureSpec::general(&catalog);
    let cpu = strawman_position(&spec, &catalog);
    let idle = cluster.idle_power() / cluster.machines().len() as f64;
    let cfg = RobustConfig {
        fit: RobustConfig::fast()
            .fit
            .with_freq_column(spec.freq_column(&catalog)),
        ..RobustConfig::fast()
    };
    let est = RobustEstimator::fit(&train, &spec, cpu, idle, cfg).expect("offline fit");

    let config = StreamConfig {
        window_s: 40,
        drift: DriftConfig {
            window_s: 15,
            cooldown_s: 5,
            ..DriftConfig::fast()
        },
        min_refit_samples: 12,
        ..StreamConfig::fast()
    }
    .with_supervise(SupervisorConfig::fast())
    .with_exec(ExecPolicy::Parallel { threads: 4 });
    let n = cluster.machines().len() as f64;
    let engine = || {
        StreamEngine::new(
            est.clone(),
            cluster.machines().len(),
            cluster.max_power() / n,
            cluster.idle_power() / n,
            0.05,
            config,
        )
        .expect("engine")
    };

    let mut uninterrupted = engine();
    let full = uninterrupted.replay(&test).expect("uninterrupted replay");

    let kill_t = test.seconds() / 2;
    let mut first = engine();
    let mut outputs = Vec::with_capacity(test.seconds());
    for t in 0..kill_t {
        outputs.push(first.push_second(&test, t).expect("pre-kill second"));
    }
    let snapshot = first.snapshot();
    drop(first);
    let mut restored = StreamEngine::restore(est.clone(), &snapshot).expect("snapshot restores");
    outputs.extend(restored.resume(&test).expect("resumed replay"));

    assert_eq!(full.len(), outputs.len(), "stitched stream length");
    for (a, b) in full.iter().zip(&outputs) {
        assert_eq!(
            a.cluster_power_w.to_bits(),
            b.cluster_power_w.to_bits(),
            "kill/restore diverged from uninterrupted run at second {}",
            a.t
        );
    }

    let bits: Vec<u8> = outputs
        .iter()
        .flat_map(|out| out.cluster_power_w.to_bits().to_le_bytes())
        .collect();
    let h = fnv1a64(&bits);
    let mean_power = outputs.iter().map(|o| o.cluster_power_w).sum::<f64>() / outputs.len() as f64;
    Value::obj([
        ("schema", Value::from("chaos-golden-streaming-recovery/1")),
        ("platform", Value::from("Core2")),
        ("workload", Value::from("prime")),
        ("seconds", Value::from(outputs.len())),
        ("kill_t", Value::from(kill_t)),
        ("snapshot_bytes", Value::from(snapshot.len())),
        ("prediction_hash", Value::from(format!("{h:016x}"))),
        ("mean_cluster_power_w", Value::from(mean_power)),
        ("membership_events", Value::from(test.membership.len())),
        ("refit_counts", Value::from(restored.refit_counts())),
        (
            "supervision_counts",
            Value::from(restored.supervision_counts()),
        ),
        (
            "min_active_machines",
            Value::from(outputs.iter().map(|o| o.active_machines).min()),
        ),
    ])
}

#[test]
fn streaming_recovery_matches_golden_trace() {
    let first = recovery_fingerprint();
    let second = recovery_fingerprint();
    assert_eq!(first, second, "recovery fingerprint is nondeterministic");
    check_golden("streaming_recovery_core2_quick", &first);
}

/// ISSUE 7: the serving path. A small fleet server ingests a
/// fixed-seed sample stream through the full wire pipeline (JSON in,
/// JSON out) and the fingerprint hashes every response body — serial
/// and 4-way-sharded servers must hash identically (the wire-level
/// determinism contract), and the hash itself pins the protocol's byte
/// output across builds.
fn serve_fingerprint() -> Value {
    use chaos::serve::{IngestRequest, Request, Server, WireSample, WireTick};
    use chaos::sim::FleetSpec;

    let spec = FleetSpec::new(Platform::Core2, 3, 42);
    let catalog = CounterCatalog::for_platform(&Platform::Core2.spec());
    let run = collect_run(
        &spec.cluster(),
        &catalog,
        Workload::Prime,
        &SimConfig::quick(),
        777,
    )
    .expect("collect serving trace");
    let seconds = 40.min(run.seconds());
    let ticks: Vec<WireTick> = (0..seconds)
        .map(|t| WireTick {
            t: t as u64,
            machines: run
                .machines
                .iter()
                .map(|m| WireSample {
                    machine_id: m.machine_id,
                    counters: m.counters[t].clone(),
                    power_w: Some(m.measured_power_w[t]),
                    counter_ok: None,
                    meter_ok: true,
                    alive: true,
                })
                .collect(),
        })
        .collect();

    let drive = |exec: ExecPolicy| -> (u64, f64, u64) {
        let mut opts = chaos::serve::bootstrap::ServeOptions::quick(spec);
        opts.stream = opts.stream.with_exec(exec);
        let mut server = Server::new(opts, None, 0).expect("boot server");
        let mut bodies = Vec::new();
        let mut last_power = 0.0;
        for tick in &ticks {
            let body = IngestRequest {
                ticks: vec![tick.clone()],
            }
            .to_value()
            .to_json()
            .into_bytes();
            let resp = server.handle(&Request {
                method: "POST".to_string(),
                path: "/v1/ingest".to_string(),
                body,
                close: false,
            });
            assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
            let v = json::parse(&resp.body).expect("ingest JSON");
            last_power = v
                .get("results")
                .and_then(Value::as_array)
                .and_then(<[Value]>::first)
                .and_then(|r| r.get("cluster_power_w"))
                .and_then(Value::as_f64)
                .expect("cluster power");
            bodies.extend_from_slice(&resp.body);
        }
        for path in ["/v1/power", "/v1/machines", "/v1/stats", "/v1/healthz"] {
            let resp = server.handle(&Request {
                method: "GET".to_string(),
                path: path.to_string(),
                body: Vec::new(),
                close: false,
            });
            assert_eq!(resp.status, 200);
            bodies.extend_from_slice(&resp.body);
        }
        (fnv1a64(&bodies), last_power, server.t_next())
    };

    let (serial_hash, serial_power, t_next) = drive(ExecPolicy::Serial);
    let (sharded_hash, _, _) = drive(ExecPolicy::Parallel { threads: 4 });
    assert_eq!(
        serial_hash, sharded_hash,
        "serve responses diverged between serial and 4-thread sharding"
    );

    Value::obj([
        ("schema", Value::from("chaos-golden-serve/1")),
        ("platform", Value::from("Core2")),
        ("machines", Value::U64(3)),
        ("seconds", Value::from(seconds)),
        ("t_next", Value::U64(t_next)),
        ("response_hash", Value::from(format!("{serial_hash:016x}"))),
        ("last_cluster_power_w", Value::from(serial_power)),
    ])
}

#[test]
fn serve_matches_golden_trace() {
    let first = serve_fingerprint();
    let second = serve_fingerprint();
    assert_eq!(first, second, "serve fingerprint is nondeterministic");
    check_golden("serve_core2_quick", &first);
}
