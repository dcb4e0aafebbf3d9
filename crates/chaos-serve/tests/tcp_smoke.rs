//! End-to-end smoke over real TCP sockets: boot a server on an
//! ephemeral port, speak raw HTTP/1.1 to it (keep-alive and close),
//! kill it, restore from its snapshot, and check the continuation is
//! byte-identical. This is the in-repo version of the CI smoke job.

mod common;

use chaos_serve::http::{read_request, DEFAULT_MAX_BODY_BYTES};
use chaos_serve::{IngestRequest, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex, PoisonError};

/// Minimal accept loop sharing the bin's framing path. Serves until the
/// listener is dropped.
fn spawn_server(server: Server) -> (std::net::SocketAddr, Arc<Mutex<Server>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let shared = Arc::new(Mutex::new(server));
    let handle = Arc::clone(&shared);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let server = Arc::clone(&handle);
            std::thread::spawn(move || {
                let mut reader = BufReader::new(match stream.try_clone() {
                    Ok(s) => s,
                    Err(_) => return,
                });
                let mut writer = stream;
                loop {
                    match read_request(&mut reader, DEFAULT_MAX_BODY_BYTES) {
                        Ok(None) => return,
                        Ok(Some(req)) => {
                            let resp = server
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .handle(&req);
                            if resp.write_to(&mut writer).is_err() || req.close {
                                return;
                            }
                        }
                        Err(err) => {
                            let resp = server
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .framing_error_response(err);
                            let _ = resp.write_to(&mut writer);
                            return;
                        }
                    }
                }
            });
        }
    });
    (addr, shared)
}

/// One raw HTTP exchange on a fresh connection; returns (status, body).
fn roundtrip(addr: std::net::SocketAddr, raw: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("parse status");
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, body)
}

fn post_ingest(addr: std::net::SocketAddr, ticks_json: &str) -> (u16, Vec<u8>) {
    roundtrip(
        addr,
        &format!(
            "POST /v1/ingest HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            ticks_json.len(),
            ticks_json
        ),
    )
}

fn ticks_json(ticks: &[chaos_serve::WireTick]) -> String {
    IngestRequest {
        ticks: ticks.to_vec(),
    }
    .to_value()
    .to_json()
}

#[test]
fn tcp_ingest_query_kill_restore_continuation_is_byte_identical() {
    let ticks = common::ticks(common::small_spec(), 90, 30);
    let json_first = ticks_json(&ticks[..15]);
    let json_rest = ticks_json(&ticks[15..]);

    // Boot over TCP, ingest the first half, snapshot in memory.
    let (addr, shared) = spawn_server(Server::new(common::opts(), None, 0).expect("boot server"));
    let (status, body) = post_ingest(addr, &json_first);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));

    let (status, health) = roundtrip(
        addr,
        "GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&health).contains("\"t_next\":15"));

    let snapshot = shared
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .snapshot_bytes();

    // "Kill": boot a restored replica on a new port; drive both with
    // the identical remainder.
    let restored = Server::restore(common::opts(), None, 0, &snapshot).expect("restore server");
    let (addr_b, _shared_b) = spawn_server(restored);

    let (status_a, body_a) = post_ingest(addr, &json_rest);
    let (status_b, body_b) = post_ingest(addr_b, &json_rest);
    assert_eq!(status_a, 200);
    assert_eq!(status_b, 200);
    assert_eq!(
        body_a, body_b,
        "restored continuation diverged from uninterrupted server"
    );

    for path in ["/v1/power", "/v1/machines", "/v1/stats"] {
        let req = format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n");
        let a = roundtrip(addr, &req);
        let b = roundtrip(addr_b, &req);
        assert_eq!(a, b, "divergence at {path}");
    }
}

#[test]
fn tcp_keepalive_serves_multiple_requests_on_one_connection() {
    let (addr, _shared) = spawn_server(common::server());
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for _ in 0..3 {
        stream
            .write_all(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
            .expect("send");
        let mut status_line = String::new();
        reader.read_line(&mut status_line).expect("status");
        assert!(status_line.starts_with("HTTP/1.1 200"), "{status_line}");
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("header");
            if line.trim_end().is_empty() {
                break;
            }
            if let Some((name, value)) = line.trim_end().split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().expect("length");
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).expect("body");
    }
}

#[test]
fn tcp_malformed_request_gets_an_error_response_then_close() {
    let (addr, _shared) = spawn_server(common::server());
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"NONSENSE\r\n\r\n").expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read until close");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 400"), "{text}");
    assert!(text.contains("malformed_request"), "{text}");
}
