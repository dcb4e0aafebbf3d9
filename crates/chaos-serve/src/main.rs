//! `chaos-serve` — the fleet-scale power-estimation server.
//!
//! Deployment knobs arrive as CLI flags (see `--help`); the only
//! environment variables the process reads are the two sanctioned
//! ones: `CHAOS_THREADS` (via [`ExecPolicy::from_env`]) and
//! `CHAOS_OBS` (via [`chaos_obs::init_from_env`]). Operator guidance
//! lives in `docs/OPERATIONS.md`.

use chaos_serve::bootstrap::ServeOptions;
use chaos_serve::http::{self, DEFAULT_MAX_BODY_BYTES};
use chaos_serve::{Server, StreamConfig};
use chaos_sim::{FleetSpec, Platform};
use chaos_stats::ExecPolicy;
use chaos_stream::Checkpointer;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::{Arc, Mutex, PoisonError};

const USAGE: &str = "chaos-serve: fleet-scale power-estimation server

USAGE:
    chaos-serve [FLAGS]

FLAGS:
    --addr <host:port>             listen address   [default: 127.0.0.1:7878]
    --platform <name>              fleet platform   [default: Core2]
                                   (Atom, Core2, Athlon, Opteron, XeonSATA, XeonSAS)
    --machines <n>                 fleet size       [default: 8]
    --seed <n>                     calibration seed [default: 42]
    --profile <fast|paper>         stream config    [default: fast]
    --history <n>                  power-history ring capacity [default: 256]
    --max-body-bytes <n>           request body cap [default: 4194304]
    --checkpoint <path>            enable snapshots at <path> (restored on boot)
    --checkpoint-every-ticks <n>   snapshot cadence [default: 60; 0 = manual only]
    --replay <path>                replay a CHAOSCOL trace file through ingest
                                   before serving (machine count and width must
                                   match the fleet; seconds already covered by
                                   a restored checkpoint are skipped)
    --help                         print this text

ENVIRONMENT:
    CHAOS_THREADS   shard parallelism: auto = all cores (default) | serial | N
    CHAOS_OBS       observability level: off (default) | summary | full";

struct Cli {
    addr: String,
    fleet: FleetSpec,
    profile: StreamConfig,
    history: usize,
    max_body_bytes: usize,
    checkpoint: Option<String>,
    checkpoint_every_ticks: u64,
    replay: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        addr: "127.0.0.1:7878".to_string(),
        fleet: FleetSpec::new(Platform::Core2, 8, 42),
        profile: StreamConfig::fast(),
        history: 256,
        max_body_bytes: DEFAULT_MAX_BODY_BYTES,
        checkpoint: None,
        checkpoint_every_ticks: 60,
        replay: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--addr" => cli.addr = value("--addr")?,
            "--platform" => {
                cli.fleet.platform = value("--platform")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--machines" => {
                cli.fleet.machines = value("--machines")?
                    .parse()
                    .map_err(|e| format!("--machines: {e}"))?;
            }
            "--seed" => {
                cli.fleet.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--profile" => {
                cli.profile = match value("--profile")?.as_str() {
                    "fast" => StreamConfig::fast(),
                    "paper" => StreamConfig::paper(),
                    other => return Err(format!("--profile: unknown profile {other:?}")),
                };
            }
            "--history" => {
                cli.history = value("--history")?
                    .parse()
                    .map_err(|e| format!("--history: {e}"))?;
            }
            "--max-body-bytes" => {
                cli.max_body_bytes = value("--max-body-bytes")?
                    .parse()
                    .map_err(|e| format!("--max-body-bytes: {e}"))?;
            }
            "--checkpoint" => cli.checkpoint = Some(value("--checkpoint")?),
            "--replay" => cli.replay = Some(value("--replay")?),
            "--checkpoint-every-ticks" => {
                cli.checkpoint_every_ticks = value("--checkpoint-every-ticks")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every-ticks: {e}"))?;
            }
            other => return Err(format!("unknown flag {other:?}\n\n{USAGE}")),
        }
    }
    if cli.fleet.machines == 0 {
        return Err("--machines must be at least 1".to_string());
    }
    Ok(cli)
}

fn serve_connection(stream: TcpStream, server: &Arc<Mutex<Server>>, max_body: usize) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("chaos-serve: clone connection: {e}");
            return;
        }
    });
    let mut writer = stream;
    loop {
        match http::read_request(&mut reader, max_body) {
            Ok(None) => return,
            Ok(Some(req)) => {
                let resp = {
                    let mut guard = server.lock().unwrap_or_else(PoisonError::into_inner);
                    guard.handle(&req)
                };
                if resp.write_to(&mut writer).is_err() {
                    return;
                }
                if req.close {
                    return;
                }
            }
            Err(err) => {
                // Answer with the structured error body, then close:
                // after a framing failure the stream offset is
                // unknowable.
                let resp = {
                    let mut guard = server.lock().unwrap_or_else(PoisonError::into_inner);
                    guard.framing_error_response(err)
                };
                let _ = resp.write_to(&mut writer);
                return;
            }
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args)?;
    chaos_obs::init_from_env("chaos-serve");

    let opts = ServeOptions {
        fleet: cli.fleet,
        stream: cli.profile.with_exec(ExecPolicy::from_env()),
        history_cap: cli.history,
        max_body_bytes: cli.max_body_bytes,
    };
    let checkpointer = cli
        .checkpoint
        .as_ref()
        .map(|path| Checkpointer::new(path, 0));

    eprintln!(
        "chaos-serve: training estimator for {} x{} (seed {})...",
        cli.fleet.platform.name(),
        cli.fleet.machines,
        cli.fleet.seed
    );
    // Restore when a snapshot file exists; a *damaged* snapshot fails
    // the boot loudly rather than silently retraining from scratch.
    let server = match &checkpointer {
        Some(c) if c.path().exists() => {
            let bytes = c.load().map_err(|e| format!("load snapshot: {e}"))?;
            eprintln!("chaos-serve: restoring from {}", c.path().display());
            Server::restore(
                opts,
                checkpointer.clone(),
                cli.checkpoint_every_ticks,
                &bytes,
            )
            .map_err(|e| format!("restore: {e}"))?
        }
        _ => Server::new(opts, checkpointer.clone(), cli.checkpoint_every_ticks)
            .map_err(|e| format!("boot: {e}"))?,
    };
    let mut server = server;
    if let Some(path) = &cli.replay {
        eprintln!("chaos-serve: replaying trace {path}...");
        let stats = chaos_serve::replay::replay_file(&mut server, path)
            .map_err(|e| format!("replay {path}: {e}"))?;
        eprintln!(
            "chaos-serve: replayed {} ticks, skipped {} already-applied ({} samples, \
             {} counters sanitized, {} unmetered machine-seconds)",
            stats.ticks,
            stats.skipped_ticks,
            stats.samples,
            stats.sanitized_counters,
            stats.unmetered_seconds
        );
    }
    let t_next = server.t_next();
    let server = Arc::new(Mutex::new(server));

    let listener = TcpListener::bind(&cli.addr).map_err(|e| format!("bind {}: {e}", cli.addr))?;
    let local = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| cli.addr.clone());
    eprintln!("chaos-serve: listening on {local} (t_next = {t_next})");

    for incoming in listener.incoming() {
        match incoming {
            Ok(stream) => {
                let server = Arc::clone(&server);
                let max_body = cli.max_body_bytes;
                std::thread::spawn(move || serve_connection(stream, &server, max_body));
            }
            Err(e) => eprintln!("chaos-serve: accept: {e}"),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
