//! Alloc-regression harness: steady-state streaming must not touch the
//! heap.
//!
//! A counting global allocator wraps [`std::alloc::System`]; after the
//! engine has warmed past window fill (every scratch buffer, ring, and
//! window at final capacity), each serial [`StreamEngine::push_tick`]
//! must perform **zero** heap allocations, its row views staged in a
//! reused vector. Any new allocation on
//! the per-sample path — a `Vec` literal, a `to_vec`, a formatted
//! string — fails this test, which is the point: the alloc-free
//! property is load-bearing for fleet-scale serving throughput and
//! easy to lose to an innocent-looking edit.
//!
//! The file holds exactly one `#[test]` so no sibling test thread can
//! pollute the counter, and the trace is deterministic (no `rand`).

use chaos_core::robust::{EstimateTier, RobustConfig, RobustEstimator};
use chaos_core::{FeatureSpec, ModelTechnique};
use chaos_counters::{MachineRunTrace, RunTrace, ValidityMask};
use chaos_sim::Platform;
use chaos_stream::{StreamConfig, StreamEngine, StreamOutput};
use chaos_trace::SecondRow;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Deterministic pseudo-random double in [-0.5, 0.5).
fn det(i: usize) -> f64 {
    ((i as f64 * 12.9898).sin() * 43758.5453).fract() - 0.5
}

const WIDTH: usize = 3;

/// Synthetic all-valid trace: counters in a plausible range, measured
/// power a noisy linear function of them so the offline fit is sane.
fn synthetic_trace(machines: usize, seconds: usize, salt: usize) -> RunTrace {
    let machine = |id: usize| {
        let mut counters = Vec::with_capacity(seconds);
        let mut measured = Vec::with_capacity(seconds);
        for t in 0..seconds {
            let s = salt + id * 100_000 + t * WIDTH;
            let row: Vec<f64> = (0..WIDTH).map(|j| 50.0 + 40.0 * det(s + j)).collect();
            let y = 60.0 + 0.5 * row[0] + 0.3 * row[1] + 0.2 * row[2] + det(s + 77);
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
        workload: "alloc-regression".to_string(),
        run_seed: 0,
        machines: (0..machines).map(machine).collect(),
        membership: Vec::new(),
    }
}

/// Stages second `t` of every machine as row views in `rows`, reusing
/// its storage.
fn rows_at<'a>(run: &'a RunTrace, t: usize, rows: &mut Vec<SecondRow<'a>>) {
    rows.clear();
    rows.extend(run.machines.iter().map(|m| m.row(t)));
}

#[test]
fn steady_state_push_tick_allocates_nothing() {
    const MACHINES: usize = 3;
    const SECONDS: usize = 240;
    // Offline config: drift response disabled, so the engine exercises
    // the tier-1 estimator path plus window/solver ingest every second —
    // the full steady-state hot loop minus (rare, allocating) refits.
    let config = StreamConfig::offline();
    let warmup = config.window_s * 2;
    assert!(
        warmup + 60 <= SECONDS,
        "trace too short for warmup + measurement"
    );

    let train = synthetic_trace(2, 180, 9001);
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

    let run = synthetic_trace(MACHINES, SECONDS, 424_242);
    let mut engine =
        StreamEngine::new(estimator, MACHINES, 200.0, 10.0, 0.05, config).expect("engine");
    let mut out = StreamOutput {
        t: 0,
        cluster_power_w: 0.0,
        worst_tier: EstimateTier::Full,
        active_machines: 0,
        machines: Vec::new(),
    };

    let mut rows: Vec<SecondRow<'_>> = Vec::with_capacity(MACHINES);

    // Warmup: fill windows, solvers, DRE rings, lag rows and every
    // scratch buffer to their steady-state capacity.
    for t in 0..warmup {
        rows_at(&run, t, &mut rows);
        engine.push_tick(&rows, &mut out).expect("warmup tick");
        assert_eq!(out.active_machines, MACHINES);
    }

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let mut measured_ticks = 0u64;
    for t in warmup..SECONDS {
        rows_at(&run, t, &mut rows);
        engine.push_tick(&rows, &mut out).expect("steady tick");
        measured_ticks += 1;
    }
    COUNTING.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(out.active_machines, MACHINES);
    assert!(
        out.machines.iter().all(|s| s.power_w.is_finite()),
        "steady-state estimates must stay finite"
    );
    assert_eq!(
        allocs, 0,
        "steady-state push_tick performed {allocs} heap allocations \
         over {measured_ticks} ticks — the hot loop must be alloc-free after warmup"
    );
}
