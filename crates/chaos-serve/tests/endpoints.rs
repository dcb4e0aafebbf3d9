//! Every documented endpoint of the `chaos-serve/1` protocol has a
//! passing integration test here (the acceptance bar in
//! `docs/PROTOCOL.md`), plus the kill/restore drill: a server restored
//! from its `CHAOSRVE` snapshot continues byte-identically.

mod common;

use chaos_obs::json::{self, Value};
use chaos_serve::bootstrap::ServeOptions;
use chaos_serve::{Server, PROTOCOL};
use chaos_stats::ExecPolicy;
use chaos_stream::Checkpointer;

fn body_json(resp: &chaos_serve::Response) -> Value {
    json::parse(&resp.body).expect("response body is JSON")
}

fn get(server: &mut Server, path: &str) -> chaos_serve::Response {
    server.handle(&common::request("GET", path, Vec::new()))
}

#[test]
fn healthz_reports_fleet_shape() {
    let mut server = common::server();
    let resp = get(&mut server, "/v1/healthz");
    assert_eq!(resp.status, 200);
    let v = body_json(&resp);
    assert_eq!(v.get("protocol").and_then(Value::as_str), Some(PROTOCOL));
    assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(v.get("t_next").and_then(Value::as_f64), Some(0.0));
    assert_eq!(v.get("machines").and_then(Value::as_f64), Some(3.0));
}

#[test]
fn config_echoes_the_deployment() {
    let mut server = common::server();
    let resp = get(&mut server, "/v1/config");
    assert_eq!(resp.status, 200);
    let v = body_json(&resp);
    assert_eq!(v.get("exec").and_then(Value::as_str), Some("serial"));
    assert!(v.get("width").and_then(Value::as_f64).unwrap_or(0.0) > 0.0);
    assert!(v.get("checkpoint").is_some());
    let fleet = v.get("fleet").expect("fleet echo");
    assert_eq!(fleet.get("machines").and_then(Value::as_f64), Some(3.0));
}

#[test]
fn ingest_then_power_then_machines_then_stats() {
    let mut server = common::server();
    let ticks = common::ticks(common::small_spec(), 2024, 30);
    let resp = common::post_ticks(&mut server, &ticks);
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let v = body_json(&resp);
    assert_eq!(v.get("t_next").and_then(Value::as_f64), Some(30.0));
    let results = v.get("results").and_then(Value::as_array).expect("results");
    assert_eq!(results.len(), 30);
    for r in results {
        let p = r
            .get("cluster_power_w")
            .and_then(Value::as_f64)
            .expect("power");
        assert!(p.is_finite() && p > 0.0, "cluster power {p} out of range");
        let tier = r.get("worst_tier").and_then(Value::as_str).expect("tier");
        assert!(["full", "reduced", "strawman", "constant"].contains(&tier));
        assert_eq!(r.get("active_machines").and_then(Value::as_f64), Some(3.0));
    }

    let resp = get(&mut server, "/v1/power");
    assert_eq!(resp.status, 200);
    let v = body_json(&resp);
    let latest = v.get("latest").expect("latest");
    assert_eq!(latest.get("t").and_then(Value::as_f64), Some(29.0));
    let history = v.get("history").and_then(Value::as_array).expect("history");
    assert_eq!(history.len(), 30);

    let resp = get(&mut server, "/v1/machines");
    assert_eq!(resp.status, 200);
    let v = body_json(&resp);
    let machines = v
        .get("machines")
        .and_then(Value::as_array)
        .expect("machines");
    assert_eq!(machines.len(), 3);
    for (id, m) in machines.iter().enumerate() {
        assert_eq!(m.get("machine_id").and_then(Value::as_f64), Some(id as f64));
        assert_eq!(m.get("samples").and_then(Value::as_f64), Some(30.0));
        let health = m.get("health").and_then(Value::as_str).expect("health");
        assert!(["healthy", "ramping", "quarantined"].contains(&health));
        let last = m.get("last").expect("last sample");
        assert_eq!(last.get("t").and_then(Value::as_f64), Some(29.0));
    }

    let resp = get(&mut server, "/v1/machines/1");
    assert_eq!(resp.status, 200);
    let v = body_json(&resp);
    assert_eq!(
        v.get("machine")
            .and_then(|m| m.get("machine_id"))
            .and_then(Value::as_f64),
        Some(1.0)
    );

    let resp = get(&mut server, "/v1/stats");
    assert_eq!(resp.status, 200);
    let v = body_json(&resp);
    let counters = v.get("counters").expect("counters");
    assert_eq!(
        counters.get("serve.ticks").and_then(Value::as_f64),
        Some(30.0)
    );
    assert_eq!(
        counters.get("serve.samples").and_then(Value::as_f64),
        Some(90.0)
    );
}

#[test]
fn unknown_machine_is_404_and_snapshot_without_checkpoint_is_409() {
    let mut server = common::server();
    let resp = get(&mut server, "/v1/machines/99");
    assert_eq!(resp.status, 404);
    assert_eq!(
        body_json(&resp).get("error").and_then(Value::as_str),
        Some("unknown_machine")
    );

    let resp = server.handle(&common::request("POST", "/v1/snapshot", Vec::new()));
    assert_eq!(resp.status, 409);
    assert_eq!(
        body_json(&resp).get("error").and_then(Value::as_str),
        Some("checkpoint_disabled")
    );
}

#[test]
fn snapshot_endpoint_persists_and_server_restores_byte_identically() {
    // A snapshot written serially restores under either policy, and the
    // restored server reports the policy it runs under.
    for (restore_exec, label) in [
        (ExecPolicy::Serial, "serial"),
        (ExecPolicy::Parallel { threads: 4 }, "parallel:4"),
    ] {
        persist_and_restore(restore_exec, label);
    }
}

fn persist_and_restore(restore_exec: ExecPolicy, label: &str) {
    let dir = std::env::temp_dir().join(format!("chaos-serve-{}-{label}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("server.snap");
    let ckpt = Checkpointer::new(&path, 0);

    let mut live = Server::new(common::opts(), Some(ckpt.clone()), 0).expect("boot server");
    let ticks = common::ticks(common::small_spec(), 7, 40);
    let resp = common::post_ticks(&mut live, &ticks[..20]);
    assert_eq!(resp.status, 200);

    // Operator-triggered snapshot.
    let resp = live.handle(&common::request("POST", "/v1/snapshot", Vec::new()));
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let v = body_json(&resp);
    assert_eq!(v.get("status").and_then(Value::as_str), Some("persisted"));
    assert_eq!(v.get("t_next").and_then(Value::as_f64), Some(20.0));

    // Kill: drop the live server, restore a new one from disk.
    let bytes = ckpt.load().expect("read snapshot");
    let mut restored = Server::restore(common::opts_under(restore_exec), Some(ckpt), 0, &bytes)
        .expect("restore server");
    assert_eq!(restored.t_next(), 20);

    // Both servers consume the identical remainder; every response must
    // match byte-for-byte (the snapshot captured the /v1/snapshot
    // request's counter bumps, and both replicas see the same requests
    // afterwards).
    let live_resp = common::post_ticks(&mut live, &ticks[20..]);
    let restored_resp = common::post_ticks(&mut restored, &ticks[20..]);
    assert_eq!(live_resp.to_bytes(), restored_resp.to_bytes());
    for path in ["/v1/power", "/v1/machines", "/v1/healthz", "/v1/stats"] {
        let a = get(&mut live, path);
        let b = get(&mut restored, path);
        assert_eq!(a.to_bytes(), b.to_bytes(), "divergence at {path}");
    }
    // `/v1/config` alone may differ: it reports the running policy.
    let config = body_json(&get(&mut restored, "/v1/config"));
    assert_eq!(config.get("exec").and_then(Value::as_str), Some(label));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restore_rejects_a_mismatched_fleet() {
    let mut server = common::server();
    let ticks = common::ticks(common::small_spec(), 3, 5);
    common::post_ticks(&mut server, &ticks);
    let bytes = server.snapshot_bytes();

    let other = ServeOptions::quick(chaos_sim::FleetSpec::new(
        chaos_sim::Platform::Core2,
        3,
        43, // different calibration seed
    ));
    let err = Server::restore(other, None, 0, &bytes).expect_err("mismatched restore must fail");
    assert_eq!(err.code(), "snapshot_failed");
}

#[test]
fn cadenced_checkpoint_fires_during_ingest() {
    let dir = std::env::temp_dir().join(format!("chaos-serve-cadence-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("cadence.snap");
    let ckpt = Checkpointer::new(&path, 0);

    let mut server = Server::new(common::opts(), Some(ckpt), 10).expect("boot server");
    let ticks = common::ticks(common::small_spec(), 11, 10);
    let resp = common::post_ticks(&mut server, &ticks);
    assert_eq!(resp.status, 200);
    assert!(path.exists(), "cadenced checkpoint did not land on disk");

    let resp = get(&mut server, "/v1/stats");
    let v = body_json(&resp);
    assert_eq!(
        v.get("counters")
            .and_then(|c| c.get("serve.checkpoint.persisted"))
            .and_then(Value::as_f64),
        Some(1.0)
    );
    std::fs::remove_dir_all(&dir).ok();
}
