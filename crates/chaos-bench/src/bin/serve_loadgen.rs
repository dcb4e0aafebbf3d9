//! Benchmark: chaos-serve fleet-scale ingest throughput.
//!
//! Boots an in-process [`Server`] per fleet size, drives it through the
//! full wire pipeline (JSON encode → HTTP-framed request → routing →
//! sharded tick → JSON response), and reports ingest throughput in
//! machine-samples/sec plus per-tick latency percentiles. The sample
//! stream is one simulated base run tiled out to each fleet size with
//! [`RunTrace::tiled_to`], so the trace content is identical across
//! sizes and the cost scales only with the fleet.
//!
//! Before any timing, each fleet is driven twice — serial and 4-thread
//! sharded — and every response body is hashed; the digests must match
//! bit-for-bit (the wire determinism contract, same gate the golden
//! trace pins). Results land in `results/BENCH_serve.json`, uploaded
//! as a CI artifact by the serve job.
//!
//! Defaults cover fleets of 5/50/500; `--fleets 5,500,5000` scales the
//! sweep up to the five-thousand-machine point from the issue brief
//! (minutes of wall time, so not the CI default).

use chaos_bench::{format_table, write_results_json};
use chaos_counters::{collect_run, CounterCatalog, RunTrace};
use chaos_obs::Value;
use chaos_serve::bootstrap::ServeOptions;
use chaos_serve::{IngestRequest, Request, Server, StreamConfig, WireSample, WireTick};
use chaos_sim::{FleetSpec, Platform};
use chaos_stats::ExecPolicy;
use std::time::Instant;

const BASE_MACHINES: usize = 5;
const SEED: u64 = 4200;
const DEFAULT_FLEETS: [usize; 3] = [5, 50, 500];
const DEFAULT_SECONDS: usize = 60;

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((q / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Pre-encoded ingest bodies: one request per tick, built outside the
/// timed loop so the benchmark measures the server, not the client.
fn encode_ticks(run: &RunTrace, seconds: usize) -> Vec<Vec<u8>> {
    let n = seconds.min(run.seconds());
    (0..n)
        .map(|t| {
            let machines = run.machines.iter().map(|m| WireSample {
                machine_id: m.machine_id,
                counters: m.counters[t].clone(),
                power_w: Some(m.measured_power_w[t]),
                counter_ok: None,
                meter_ok: true,
                alive: true,
            });
            let tick = WireTick {
                t: t as u64,
                machines: machines.collect(),
            };
            IngestRequest { ticks: vec![tick] }
                .to_value()
                .to_json()
                .into_bytes()
        })
        .collect()
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

struct DriveResult {
    digest: u64,
    elapsed_s: f64,
    latencies_us: Vec<f64>,
}

fn drive(spec: FleetSpec, exec: ExecPolicy, bodies: &[Vec<u8>]) -> DriveResult {
    let opts = ServeOptions {
        stream: StreamConfig::fast().with_exec(exec),
        ..ServeOptions::quick(spec)
    };
    let mut server = Server::new(opts, None, 0).expect("boot server");
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut latencies_us = Vec::with_capacity(bodies.len());
    let start = Instant::now();
    for body in bodies {
        let req = Request {
            method: "POST".to_string(),
            path: "/v1/ingest".to_string(),
            body: body.clone(),
            close: false,
        };
        let tick_start = Instant::now();
        let resp = server.handle(&req);
        latencies_us.push(tick_start.elapsed().as_secs_f64() * 1e6);
        assert_eq!(
            resp.status,
            200,
            "ingest failed: {}",
            String::from_utf8_lossy(&resp.body)
        );
        fnv(&mut digest, &resp.body);
    }
    // Fold the read endpoints into the digest so the determinism gate
    // covers them too.
    for path in ["/v1/power", "/v1/machines", "/v1/stats"] {
        let resp = server.handle(&Request {
            method: "GET".to_string(),
            path: path.to_string(),
            body: Vec::new(),
            close: false,
        });
        assert_eq!(resp.status, 200);
        fnv(&mut digest, &resp.body);
    }
    DriveResult {
        digest,
        elapsed_s: start.elapsed().as_secs_f64(),
        latencies_us,
    }
}

fn parse_args() -> (Vec<usize>, usize) {
    let mut fleets: Vec<usize> = DEFAULT_FLEETS.to_vec();
    let mut seconds = DEFAULT_SECONDS;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--fleets" => {
                let spec = it.next().expect("--fleets needs a value");
                fleets = spec
                    .split(',')
                    .map(|s| s.trim().parse().expect("fleet size"))
                    .collect();
            }
            "--seconds" => {
                seconds = it
                    .next()
                    .expect("--seconds needs a value")
                    .parse()
                    .expect("seconds");
            }
            other => panic!("unknown flag {other:?} (supported: --fleets, --seconds)"),
        }
    }
    (fleets, seconds)
}

fn main() {
    let (fleets, seconds) = parse_args();
    println!("chaos-serve load generator: fleets {fleets:?}, {seconds}s each\n");

    // One base run, tiled out per fleet size.
    let base_spec = FleetSpec::new(Platform::Core2, BASE_MACHINES, 42);
    let catalog = CounterCatalog::for_platform(&Platform::Core2.spec());
    let base_run = collect_run(
        &base_spec.cluster(),
        &catalog,
        chaos_workloads::Workload::Prime,
        &chaos_workloads::SimConfig::quick(),
        SEED,
    )
    .expect("collect base run");

    let mut rows = Vec::new();
    let mut report = Vec::new();
    for &fleet in &fleets {
        let spec = FleetSpec::new(Platform::Core2, fleet, 42);
        let run = base_run.tiled_to(fleet).expect("tile base run");
        let bodies = encode_ticks(&run, seconds);
        let ticks = bodies.len();

        let serial = drive(spec, ExecPolicy::Serial, &bodies);
        let sharded = drive(spec, ExecPolicy::Parallel { threads: 4 }, &bodies);
        assert_eq!(
            serial.digest, sharded.digest,
            "fleet {fleet}: serial and sharded responses diverged"
        );

        let mut sorted = sharded.latencies_us.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let p50 = percentile(&sorted, 50.0);
        let p99 = percentile(&sorted, 99.0);
        let samples = (ticks * fleet) as f64;
        let serial_sps = samples / serial.elapsed_s;
        let sharded_sps = samples / sharded.elapsed_s;

        rows.push(vec![
            fleet.to_string(),
            ticks.to_string(),
            format!("{serial_sps:.0}"),
            format!("{sharded_sps:.0}"),
            format!("{p50:.0}"),
            format!("{p99:.0}"),
        ]);
        report.push(Value::obj([
            ("fleet", Value::from(fleet)),
            ("ticks", Value::from(ticks)),
            ("samples_per_sec_serial", Value::F64(serial_sps)),
            ("samples_per_sec_sharded4", Value::F64(sharded_sps)),
            (
                "tick_latency_us",
                Value::obj([("p50", Value::F64(p50)), ("p99", Value::F64(p99))]),
            ),
            ("digest", Value::from(format!("{:016x}", serial.digest))),
        ]));
    }

    println!(
        "{}",
        format_table(
            &[
                "fleet",
                "ticks",
                "serial samp/s",
                "shard4 samp/s",
                "p50 us",
                "p99 us",
            ],
            &rows,
        )
    );

    let out = Value::obj([
        ("bench", Value::from("serve_loadgen")),
        ("platform", Value::from("Core2")),
        ("workload", Value::from("prime")),
        ("base_machines", Value::from(BASE_MACHINES)),
        ("seconds", Value::from(seconds)),
        ("fleets", Value::Arr(report)),
        ("policy_bit_identical", Value::Bool(true)),
    ]);
    let path = write_results_json("BENCH_serve.json", &out);
    println!("\nJSON written to {}", path.display());

    chaos_bench::obs_finish("serve_loadgen", Some(SEED), None);
}
