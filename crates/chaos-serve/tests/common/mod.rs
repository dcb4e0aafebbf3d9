//! Shared fixtures for the chaos-serve integration suites: a small
//! fleet, a deterministic sample stream derived from the simulator,
//! and helpers to drive the server request-by-request.

// Each integration suite compiles this module independently and uses a
// different subset of the helpers.
#![allow(dead_code)]

use chaos_counters::{collect_run, CounterCatalog};
use chaos_serve::bootstrap::ServeOptions;
use chaos_serve::http::Request;
use chaos_serve::{IngestRequest, Server, WireSample, WireTick};
use chaos_sim::{FleetSpec, Platform};
use chaos_stats::ExecPolicy;
use chaos_workloads::{SimConfig, Workload};

/// The suite's standard small fleet.
pub fn small_spec() -> FleetSpec {
    FleetSpec::new(Platform::Core2, 3, 42)
}

/// Test-shaped serial server options over the standard fleet.
pub fn opts() -> ServeOptions {
    ServeOptions::quick(small_spec())
}

/// [`opts`] under another thread policy.
pub fn opts_under(exec: ExecPolicy) -> ServeOptions {
    let mut opts = opts();
    opts.stream = opts.stream.with_exec(exec);
    opts
}

/// A fresh serial server over the standard fleet with no
/// checkpointing.
pub fn server() -> Server {
    Server::new(opts(), None, 0).expect("boot test server")
}

/// Derives a deterministic per-second sample stream for `spec` from
/// the simulator: one [`WireTick`] per second, every machine present,
/// metered power attached.
pub fn ticks(spec: FleetSpec, run_seed: u64, seconds: usize) -> Vec<WireTick> {
    let cluster = spec.cluster();
    let catalog = CounterCatalog::for_platform(&spec.platform.spec());
    let run = collect_run(
        &cluster,
        &catalog,
        Workload::Prime,
        &SimConfig::quick(),
        run_seed,
    )
    .expect("collect serving trace");
    let n = seconds.min(run.seconds());
    (0..n)
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
        .collect()
}

/// Frames a request the way the TCP loop would.
pub fn request(method: &str, path: &str, body: impl Into<Vec<u8>>) -> Request {
    Request {
        method: method.to_string(),
        path: path.to_string(),
        body: body.into(),
        close: false,
    }
}

/// POSTs one batch of ticks to `/v1/ingest` and returns the raw
/// response.
pub fn post_ticks(server: &mut Server, ticks: &[WireTick]) -> chaos_serve::Response {
    let body = IngestRequest {
        ticks: ticks.to_vec(),
    }
    .to_value()
    .to_json();
    server.handle(&request("POST", "/v1/ingest", body))
}
