//! Benchmark: the raw-speed numeric kernels behind fitting and serving.
//!
//! Times the four kernels reworked for throughput — all pinned
//! bit-identical to their scalar references by `tests/kernel_identity.rs`
//! and the golden-trace suites:
//!
//! 1. **SoA batch prediction** — [`chaos_stats::batch::CoefBlock`]
//!    scoring a fleet with one column-major loop, vs the per-machine
//!    scalar zip-dot.
//! 2. **Blocked Gram accumulation** — the cache-tiled
//!    [`chaos_stats::gram::GramCache`] vs the row-at-a-time reference.
//! 3. **MARS fit** — dominated by hinge-column construction, now fed
//!    from a column-major transpose of the design matrix.
//! 4. **Streaming inference** — synthetic fleet replayed through
//!    [`chaos_stream::StreamEngine::push_tick`] with a mid-run
//!    power shift so refits fire and adapted models route through the
//!    batched predictor; reports samples/sec.
//!
//! Every input is deterministic (no `rand`), so runs are comparable
//! across machines of the same class. Results land in
//! `results/BENCH_kernels.json`.
//!
//! `kernel_bench --check <baseline.json>` additionally reads the
//! committed baseline's streaming samples/sec *before* overwriting it
//! and exits non-zero if the fresh number regressed by more than 20% —
//! the CI smoke gate.

use chaos_bench::{format_table, write_results_json};
use chaos_core::robust::{EstimateTier, RobustConfig, RobustEstimator};
use chaos_core::{FeatureSpec, ModelTechnique};
use chaos_counters::{MachineRunTrace, RunTrace, ValidityMask};
use chaos_mars::{MarsConfig, MarsModel};
use chaos_obs::Value;
use chaos_sim::Platform;
use chaos_stats::batch::CoefBlock;
use chaos_stats::gram::GramCache;
use chaos_stats::Matrix;
use chaos_stream::{DriftConfig, StreamConfig, StreamEngine, StreamOutput};
use std::hint::black_box;
use std::time::Instant;

/// Deterministic pseudo-random double in [-0.5, 0.5).
fn det(i: usize) -> f64 {
    ((i as f64 * 12.9898).sin() * 43758.5453).fract() - 0.5
}

const ALLOWED_DROP: f64 = 0.20;

struct BatchResult {
    scalar_ns_per_pred: f64,
    batch_ns_per_pred: f64,
    speedup: f64,
}

fn bench_batch_predict() -> BatchResult {
    let (m, k) = (4096usize, 8usize);
    let iters = 400usize;
    let mut coefs = CoefBlock::new(k);
    let mut rows = CoefBlock::new(k);
    let mut coef_vecs = Vec::with_capacity(m);
    let mut row_vecs = Vec::with_capacity(m);
    for j in 0..m {
        let cv: Vec<f64> = (0..k).map(|f| 10.0 * det(j * k + f)).collect();
        let rv: Vec<f64> = (0..k).map(|f| 4.0 * det(7919 + j * k + f)).collect();
        coefs.push(&cv).unwrap();
        rows.push(&rv).unwrap();
        coef_vecs.push(cv);
        row_vecs.push(rv);
    }
    coefs.seal();
    rows.seal();

    let mut scalar_out = vec![0.0; m];
    let t0 = Instant::now();
    for _ in 0..iters {
        for (j, (cv, rv)) in coef_vecs.iter().zip(&row_vecs).enumerate() {
            let mut acc = 0.0;
            for (c, x) in cv.iter().zip(rv) {
                acc += c * x;
            }
            scalar_out[j] = acc;
        }
        black_box(scalar_out[m - 1]);
    }
    let scalar_ns = t0.elapsed().as_secs_f64() * 1e9 / (iters * m) as f64;

    let mut batch_out = vec![0.0; m];
    let t0 = Instant::now();
    for _ in 0..iters {
        coefs.predict_into(&rows, &mut batch_out).unwrap();
        black_box(batch_out[m - 1]);
    }
    let batch_ns = t0.elapsed().as_secs_f64() * 1e9 / (iters * m) as f64;

    for (j, (s, b)) in scalar_out.iter().zip(&batch_out).enumerate() {
        assert_eq!(
            s.to_bits(),
            b.to_bits(),
            "machine {j}: batch predict diverged from scalar"
        );
    }

    BatchResult {
        scalar_ns_per_pred: scalar_ns,
        batch_ns_per_pred: batch_ns,
        speedup: scalar_ns / batch_ns,
    }
}

struct GramResult {
    reference_ms: f64,
    blocked_ms: f64,
    speedup: f64,
}

fn bench_gram() -> GramResult {
    let (n, p) = (4000usize, 24usize);
    let iters = 10usize;
    let xr: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..p).map(|j| 6.0 * det(i * p + j)).collect())
        .collect();
    let x = Matrix::from_rows(&xr).unwrap();
    let y: Vec<f64> = (0..n).map(|i| 100.0 * det(31337 + i)).collect();

    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(GramCache::new_reference(&x, &y).unwrap());
    }
    let reference_ms = t0.elapsed().as_secs_f64() * 1e3 / iters as f64;

    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(GramCache::new(&x, &y).unwrap());
    }
    let blocked_ms = t0.elapsed().as_secs_f64() * 1e3 / iters as f64;

    let reference = GramCache::new_reference(&x, &y).unwrap();
    let blocked = GramCache::new(&x, &y).unwrap();
    let (rg, rxty, ryty) = reference.products();
    let (bg, bxty, byty) = blocked.products();
    assert!(
        rg.iter().zip(bg).all(|(a, b)| a.to_bits() == b.to_bits())
            && rxty
                .iter()
                .zip(bxty)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && ryty.to_bits() == byty.to_bits(),
        "blocked Gram diverged from reference"
    );

    GramResult {
        reference_ms,
        blocked_ms,
        speedup: reference_ms / blocked_ms,
    }
}

fn bench_mars_fit() -> f64 {
    let (n, p) = (2000usize, 6usize);
    let iters = 3usize;
    let xr: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..p).map(|j| 8.0 * det(i * p + j)).collect())
        .collect();
    let x = Matrix::from_rows(&xr).unwrap();
    // Piecewise response over two variables so the forward pass has real
    // hinge structure to discover.
    let y: Vec<f64> = xr
        .iter()
        .enumerate()
        .map(|(i, r)| {
            5.0 + 2.0 * (r[0] - 1.0).max(0.0) - 1.5 * (-1.0 - r[1]).max(0.0) + 0.05 * det(i + 999)
        })
        .collect();

    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(MarsModel::fit(&x, &y, &MarsConfig::piecewise_linear()).unwrap());
    }
    t0.elapsed().as_secs_f64() * 1e3 / iters as f64
}

const WIDTH: usize = 6;
const MACHINES: usize = 8;
const SECONDS: usize = 600;
const SHIFT_AT_S: usize = 200;

fn synthetic_trace(
    machines: usize,
    seconds: usize,
    salt: usize,
    shift_at: Option<usize>,
) -> RunTrace {
    let machine = |id: usize| {
        let mut counters = Vec::with_capacity(seconds);
        let mut measured = Vec::with_capacity(seconds);
        for t in 0..seconds {
            let s = salt + id * 1_000_000 + t * WIDTH;
            let row: Vec<f64> = (0..WIDTH).map(|j| 50.0 + 40.0 * det(s + j)).collect();
            let mut y = 60.0
                + 0.5 * row[0]
                + 0.3 * row[1]
                + 0.2 * row[2]
                + 0.1 * row[3]
                + 0.05 * row[4]
                + det(s + 77);
            if shift_at.is_some_and(|at| t >= at) {
                y *= 1.3;
            }
            counters.push(row);
            measured.push(y);
        }
        MachineRunTrace {
            machine_id: id,
            platform: Platform::Core2,
            counters,
            measured_power_w: measured,
            true_power_w: vec![0.0; seconds],
            validity: ValidityMask {
                counters: vec![vec![true; WIDTH]; seconds],
                meter: vec![true; seconds],
                alive: vec![true; seconds],
            },
        }
    };
    RunTrace {
        workload: "kernel-bench".to_string(),
        run_seed: 0,
        machines: (0..machines).map(machine).collect(),
        membership: Vec::new(),
    }
}

struct StreamResult {
    samples_per_sec: f64,
    machine_samples_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    refits: usize,
}

fn bench_streaming() -> StreamResult {
    let train = synthetic_trace(2, 240, 9001, None);
    let spec = FeatureSpec::new((0..WIDTH).collect());
    let estimator = RobustEstimator::fit(
        &[train],
        &spec,
        None,
        10.0,
        RobustConfig {
            technique: ModelTechnique::Linear,
            ..RobustConfig::fast()
        },
    )
    .expect("offline fit");

    // Mid-run meter shift: drift fires, coefficient refreshes install
    // full-width adapted linear models, and the batched SoA path takes
    // over scoring.
    let run = synthetic_trace(MACHINES, SECONDS, 424_242, Some(SHIFT_AT_S));
    let config = StreamConfig {
        drift: DriftConfig::fast(),
        ..StreamConfig::fast()
    };
    let mut engine =
        StreamEngine::new(estimator, MACHINES, 200.0, 10.0, 0.05, config).expect("engine");
    let mut out = StreamOutput {
        t: 0,
        cluster_power_w: 0.0,
        worst_tier: EstimateTier::Full,
        active_machines: 0,
        machines: Vec::new(),
    };

    let mut rows = Vec::with_capacity(MACHINES);
    let mut latencies_us = Vec::with_capacity(SECONDS);
    let t0 = Instant::now();
    for t in 0..SECONDS {
        let s0 = Instant::now();
        rows.clear();
        rows.extend(run.machines.iter().map(|m| m.row(t)));
        engine.push_tick(&rows, &mut out).expect("tick");
        latencies_us.push(s0.elapsed().as_secs_f64() * 1e6);
        assert!(out.cluster_power_w.is_finite());
    }
    let total_s = t0.elapsed().as_secs_f64();
    let refits = engine.refit_outcomes().len();

    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let pct = |q: f64| {
        let idx = ((q / 100.0) * (latencies_us.len() - 1) as f64).round() as usize;
        latencies_us[idx.min(latencies_us.len() - 1)]
    };

    StreamResult {
        samples_per_sec: SECONDS as f64 / total_s,
        machine_samples_per_sec: (SECONDS * MACHINES) as f64 / total_s,
        p50_us: pct(50.0),
        p99_us: pct(99.0),
        refits,
    }
}

/// Rounds to `places` decimals, the resolution the results file keeps.
fn round(v: f64, places: i32) -> Value {
    let scale = 10f64.powi(places);
    Value::F64((v * scale).round() / scale)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let baseline_path = match args.get(1).map(String::as_str) {
        Some("--check") => Some(
            args.get(2)
                .expect("--check requires a baseline path")
                .clone(),
        ),
        Some(other) => {
            eprintln!("unknown argument {other}; usage: kernel_bench [--check <baseline.json>]");
            std::process::exit(2);
        }
        None => None,
    };
    let baseline = baseline_path.as_ref().map(|p| {
        let text = std::fs::read(p).expect("read baseline");
        let json = chaos_obs::json::parse(&text).expect("baseline is JSON");
        json.get("streaming_inference")
            .and_then(|s| s.get("samples_per_sec"))
            .and_then(Value::as_f64)
            .expect("baseline JSON lacks a streaming samples_per_sec")
    });

    let batch = bench_batch_predict();
    let gram = bench_gram();
    let mars_fit_ms = bench_mars_fit();
    let stream = bench_streaming();

    println!("Raw-speed kernels (deterministic inputs, bit-identity asserted inline)\n");
    println!(
        "{}",
        format_table(
            &["Kernel", "Metric", "Value"],
            &[
                vec![
                    "soa_batch_predict".into(),
                    "scalar ns/pred".into(),
                    format!("{:.2}", batch.scalar_ns_per_pred),
                ],
                vec![
                    "soa_batch_predict".into(),
                    "batch ns/pred".into(),
                    format!("{:.2}", batch.batch_ns_per_pred),
                ],
                vec![
                    "soa_batch_predict".into(),
                    "speedup".into(),
                    format!("{:.2}x", batch.speedup),
                ],
                vec![
                    "blocked_gram".into(),
                    "reference ms".into(),
                    format!("{:.2}", gram.reference_ms),
                ],
                vec![
                    "blocked_gram".into(),
                    "blocked ms".into(),
                    format!("{:.2}", gram.blocked_ms),
                ],
                vec![
                    "blocked_gram".into(),
                    "speedup".into(),
                    format!("{:.2}x", gram.speedup),
                ],
                vec![
                    "mars_fit".into(),
                    "fit ms".into(),
                    format!("{mars_fit_ms:.1}")
                ],
                vec![
                    "streaming_inference".into(),
                    "samples/sec".into(),
                    format!("{:.0}", stream.samples_per_sec),
                ],
                vec![
                    "streaming_inference".into(),
                    "machine-samples/sec".into(),
                    format!("{:.0}", stream.machine_samples_per_sec),
                ],
                vec![
                    "streaming_inference".into(),
                    "p50 / p99 latency".into(),
                    format!("{:.1} / {:.1} us", stream.p50_us, stream.p99_us),
                ],
                vec![
                    "streaming_inference".into(),
                    "refits".into(),
                    format!("{}", stream.refits),
                ],
            ]
        )
    );

    let json = Value::obj([
        ("bench", Value::from("kernels")),
        (
            "soa_batch_predict",
            Value::obj([
                ("machines", Value::U64(4096)),
                ("features", Value::U64(8)),
                ("scalar_ns_per_pred", round(batch.scalar_ns_per_pred, 3)),
                ("batch_ns_per_pred", round(batch.batch_ns_per_pred, 3)),
                ("speedup", round(batch.speedup, 3)),
                ("bit_identical", Value::Bool(true)),
            ]),
        ),
        (
            "blocked_gram",
            Value::obj([
                ("rows", Value::U64(4000)),
                ("cols", Value::U64(24)),
                ("reference_ms", round(gram.reference_ms, 3)),
                ("blocked_ms", round(gram.blocked_ms, 3)),
                ("speedup", round(gram.speedup, 3)),
                ("bit_identical", Value::Bool(true)),
            ]),
        ),
        (
            "mars_fit",
            Value::obj([
                ("rows", Value::U64(2000)),
                ("cols", Value::U64(6)),
                ("fit_ms", round(mars_fit_ms, 3)),
            ]),
        ),
        (
            "streaming_inference",
            Value::obj([
                ("machines", Value::from(MACHINES)),
                ("seconds", Value::from(SECONDS)),
                ("shift_at_s", Value::from(SHIFT_AT_S)),
                ("samples_per_sec", round(stream.samples_per_sec, 1)),
                (
                    "machine_samples_per_sec",
                    round(stream.machine_samples_per_sec, 1),
                ),
                (
                    "latency_us",
                    Value::obj([
                        ("p50", round(stream.p50_us, 2)),
                        ("p99", round(stream.p99_us, 2)),
                    ]),
                ),
                ("refits", Value::from(stream.refits)),
            ]),
        ),
    ]);
    let path = write_results_json("BENCH_kernels.json", &json);
    println!("\nJSON written to {}", path.display());

    if let Some(base) = baseline {
        let floor = base * (1.0 - ALLOWED_DROP);
        println!(
            "[check] streaming samples/sec: fresh {:.0} vs baseline {:.0} (floor {:.0})",
            stream.samples_per_sec, base, floor
        );
        if stream.samples_per_sec < floor {
            eprintln!(
                "[check] FAIL: streaming throughput regressed more than {:.0}%",
                ALLOWED_DROP * 100.0
            );
            std::process::exit(1);
        }
        println!("[check] PASS");
    }
}
