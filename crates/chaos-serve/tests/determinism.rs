//! The serving determinism contract: the same sample log produces
//! **byte-identical** response bodies whatever the shard/thread count
//! is. `/v1/config` is the documented exception (it reports the
//! execution policy).

mod common;

use chaos_serve::Server;
use chaos_stats::ExecPolicy;

fn drive(exec: ExecPolicy) -> Vec<Vec<u8>> {
    let mut server = Server::new(common::opts_under(exec), None, 0).expect("boot server");
    let ticks = common::ticks(common::small_spec(), 555, 45);
    let mut responses = Vec::new();
    // Interleave ingest batches with reads, the way a poller would.
    for chunk in ticks.chunks(9) {
        responses.push(common::post_ticks(&mut server, chunk).to_bytes());
        for path in ["/v1/power", "/v1/machines", "/v1/healthz", "/v1/stats"] {
            responses.push(
                server
                    .handle(&common::request("GET", path, Vec::new()))
                    .to_bytes(),
            );
        }
    }
    for id in 0..3 {
        responses.push(
            server
                .handle(&common::request(
                    "GET",
                    &format!("/v1/machines/{id}"),
                    Vec::new(),
                ))
                .to_bytes(),
        );
    }
    responses
}

#[test]
fn sharded_replay_is_byte_identical_to_serial() {
    let serial = drive(ExecPolicy::Serial);
    for threads in [2, 4, 8] {
        let sharded = drive(ExecPolicy::Parallel { threads });
        assert_eq!(
            serial.len(),
            sharded.len(),
            "response count diverged at {threads} threads"
        );
        for (i, (a, b)) in serial.iter().zip(&sharded).enumerate() {
            assert_eq!(
                a,
                b,
                "response {i} diverged at {threads} threads:\nserial:  {}\nsharded: {}",
                String::from_utf8_lossy(a),
                String::from_utf8_lossy(b)
            );
        }
    }
}

#[test]
fn repeated_serial_replays_are_byte_identical() {
    // Pins that the pipeline itself is deterministic (no time, no
    // entropy) before blaming the parallel phase for any divergence.
    assert_eq!(drive(ExecPolicy::Serial), drive(ExecPolicy::Serial));
}
