//! The request handler: routing, endpoint logic, and checkpoint
//! cadence.
//!
//! [`Server::handle`] is a pure-ish state machine — one framed
//! [`Request`] in, one [`Response`] out — with no transport code, so
//! the integration tests drive it directly and the TCP loop in
//! `main.rs` stays a thin shell. Everything the determinism contract
//! covers flows through here: response bodies are rendered from
//! fixed-field-order JSON objects, counters live in the server's own
//! [`BTreeMap`] (mirrored into `chaos-obs`, never read back from it),
//! and the only parallelism is inside [`Fleet::ingest_tick`].

use crate::bootstrap::{self, RestoredExtras, ServeOptions};
use crate::fleet::Fleet;
use crate::http::{Request, Response};
use crate::protocol::{fleet_echo, IngestRequest, ServeError, TickResult, WireTick, PROTOCOL};
use crate::snapshot;
use chaos_obs::Value;
use chaos_stats::ExecPolicy;
use chaos_stream::Checkpointer;
use std::collections::{BTreeMap, VecDeque};

/// Renders a response body: `"protocol"` first, then `fields` in order.
fn render<'a>(status: u16, fields: impl IntoIterator<Item = (&'a str, Value)>) -> Response {
    let body = Value::obj(std::iter::once(("protocol", Value::from(PROTOCOL))).chain(fields));
    Response::json(status, body.to_json())
}

/// Encodes the serving state as it stands once this snapshot is on
/// disk: `serve.checkpoint.persisted` already counts it, so a server
/// restored from the file reports the counters of the server that wrote
/// it.
fn encode_for_persist(
    fleet: &Fleet,
    history: &mut VecDeque<TickResult>,
    counters: &BTreeMap<String, u64>,
) -> Vec<u8> {
    let mut counters = counters.clone();
    *counters
        .entry("serve.checkpoint.persisted".to_string())
        .or_insert(0) += 1;
    snapshot::encode(fleet, history.make_contiguous(), &counters)
}

/// The power-estimation server: a sharded [`Fleet`], the power-history
/// ring, the server's own counters, and optional checkpointing.
#[derive(Debug)]
pub struct Server {
    fleet: Fleet,
    opts: ServeOptions,
    history: VecDeque<TickResult>,
    counters: BTreeMap<String, u64>,
    checkpointer: Option<Checkpointer>,
    checkpoint_every_ticks: u64,
}

impl Server {
    /// First boot: trains the estimator from the fleet spec and starts
    /// at second 0.
    ///
    /// # Errors
    ///
    /// Propagates training or engine-construction failures.
    pub fn new(
        opts: ServeOptions,
        checkpointer: Option<Checkpointer>,
        checkpoint_every_ticks: u64,
    ) -> Result<Server, ServeError> {
        let fleet = bootstrap::build_fleet(&opts)?;
        Ok(Server {
            fleet,
            opts,
            history: VecDeque::new(),
            counters: BTreeMap::new(),
            checkpointer,
            checkpoint_every_ticks,
        })
    }

    /// Restore from a `CHAOSRVE` snapshot: retrains the estimator
    /// (deterministic from the spec), rehydrates the fleet engine under
    /// `opts.stream.exec`, and resumes at the snapshot's cursor. A restored server's
    /// subsequent responses are byte-identical to the uninterrupted
    /// server's.
    ///
    /// # Errors
    ///
    /// Decode and compatibility failures as
    /// [`ServeError::Snapshot`]; training failures as
    /// [`ServeError::Internal`].
    pub fn restore(
        opts: ServeOptions,
        checkpointer: Option<Checkpointer>,
        checkpoint_every_ticks: u64,
        bytes: &[u8],
    ) -> Result<Server, ServeError> {
        let state = snapshot::decode(bytes)?;
        let fleet = bootstrap::restore_fleet(&opts, &state)?;
        let RestoredExtras { history, counters } = bootstrap::restored_extras(&state);
        Ok(Server {
            fleet,
            opts,
            history: history.into(),
            counters,
            checkpointer,
            checkpoint_every_ticks,
        })
    }

    /// The next second the server will accept.
    pub fn t_next(&self) -> u64 {
        self.fleet.t_next()
    }

    /// Increments a server counter and mirrors it into `chaos-obs`.
    /// The server's copy is authoritative — `/v1/stats` reads it, so
    /// the response is identical at any `CHAOS_OBS` level.
    fn bump(&mut self, name: &str, by: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += by;
        } else {
            // chaos-lint: allow(R6) — first sight of a counter name; steady-state bumps take the get_mut fast path above
            self.counters.insert(name.to_string(), by);
        }
        chaos_obs::add(name, by);
    }

    fn error_response(&mut self, err: &ServeError) -> Response {
        self.bump("serve.http.errors", 1);
        render(
            err.status(),
            [
                ("error", Value::from(err.code())),
                ("detail", Value::from(err.to_string())),
            ],
        )
    }

    /// Frames an [`HttpError`](crate::http::HttpError) into the same
    /// error body the router produces, for the transport loop.
    pub fn framing_error_response(&mut self, err: crate::http::HttpError) -> Response {
        self.error_response(&ServeError::Http(err))
    }

    /// Routes one framed request. Never panics; every failure is a
    /// structured JSON error body.
    // chaos-lint: no-panic — a panic here kills the connection thread; every failure must be a structured error response
    pub fn handle(&mut self, req: &Request) -> Response {
        self.bump("serve.http.requests", 1);
        let result = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/v1/healthz") => Ok(self.healthz()),
            ("GET", "/v1/config") => Ok(self.config()),
            ("GET", "/v1/power") => Ok(self.power()),
            ("GET", "/v1/machines") => Ok(self.machines()),
            ("GET", "/v1/stats") => Ok(self.stats()),
            ("POST", "/v1/ingest") => self.ingest(&req.body),
            ("POST", "/v1/snapshot") => self.snapshot_now(),
            ("GET", path) if path.starts_with("/v1/machines/") => self.machine(path),
            (method, path) => {
                let known = matches!(
                    path,
                    "/v1/healthz"
                        | "/v1/config"
                        | "/v1/power"
                        | "/v1/machines"
                        | "/v1/stats"
                        | "/v1/ingest"
                        | "/v1/snapshot"
                ) || path.starts_with("/v1/machines/");
                if known {
                    Err(ServeError::MethodNotAllowed {
                        method: method.to_string(),
                        path: path.to_string(),
                    })
                } else {
                    Err(ServeError::UnknownEndpoint {
                        path: path.to_string(),
                    })
                }
            }
        };
        match result {
            Ok(resp) => resp,
            Err(err) => self.error_response(&err),
        }
    }

    fn healthz(&mut self) -> Response {
        render(
            200,
            [
                ("status", Value::from("ok")),
                ("t_next", Value::U64(self.fleet.t_next())),
                ("machines", Value::from(self.fleet.machines())),
                ("active_machines", Value::from(self.fleet.active_count())),
            ],
        )
    }

    fn config(&mut self) -> Response {
        let exec = match self.fleet.exec() {
            ExecPolicy::Serial => "serial".to_string(),
            ExecPolicy::Parallel { threads } => format!("parallel:{threads}"),
        };
        let checkpoint = self.checkpointer.as_ref().map_or(Value::Null, |c| {
            Value::obj([
                ("path", Value::from(c.path().display().to_string())),
                ("every_ticks", Value::U64(self.checkpoint_every_ticks)),
            ])
        });
        render(
            200,
            [
                ("fleet", fleet_echo(self.fleet.spec())),
                ("width", Value::from(self.fleet.width())),
                ("window_s", Value::from(self.opts.stream.window_s)),
                (
                    "min_refit_samples",
                    Value::from(self.opts.stream.min_refit_samples),
                ),
                ("exec", Value::from(exec)),
                ("max_body_bytes", Value::from(self.opts.max_body_bytes)),
                ("history_cap", Value::from(self.opts.history_cap)),
                ("checkpoint", checkpoint),
            ],
        )
    }

    fn power(&mut self) -> Response {
        let latest = self
            .history
            .back()
            .map_or(Value::Null, TickResult::to_value);
        render(
            200,
            [
                ("t_next", Value::U64(self.fleet.t_next())),
                ("latest", latest),
                (
                    "history",
                    self.history.iter().map(TickResult::to_value).collect(),
                ),
            ],
        )
    }

    fn machines(&mut self) -> Response {
        let machines = self.fleet.statuses().iter().map(|m| m.to_value()).collect();
        render(200, [("machines", machines)])
    }

    fn machine(&mut self, path: &str) -> Result<Response, ServeError> {
        let tail = path.trim_start_matches("/v1/machines/");
        let id: usize = tail.parse().map_err(|_| ServeError::UnknownEndpoint {
            path: path.to_string(),
        })?;
        let machine = self
            .fleet
            .machine_status(id)
            .ok_or(ServeError::UnknownMachine { id })?;
        Ok(render(200, [("machine", machine.to_value())]))
    }

    fn stats(&mut self) -> Response {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.as_str(), Value::U64(*v)));
        render(200, [("counters", Value::obj(counters))])
    }

    /// Fleet size this server models.
    pub fn machine_count(&self) -> usize {
        self.fleet.machines()
    }

    /// Counter-row width every ingested sample must carry.
    pub fn width(&self) -> usize {
        self.fleet.width()
    }

    /// Applies one tick through the full ingest bookkeeping — fleet
    /// advance, serve counters, the power-history ring — without the
    /// HTTP framing. The `/v1/ingest` handler and the `--replay`
    /// bootstrap both route through here, so a replayed trace leaves
    /// the server in exactly the state live ingestion of the same
    /// ticks would have.
    ///
    /// # Errors
    ///
    /// Propagates [`ServeError`] from [`Fleet::ingest_tick`]; the tick
    /// is not applied and the serve counters record a rejection.
    // chaos-lint: hot — per-tick ingestion kernel shared by live serving and checkpoint replay
    pub fn apply_tick(&mut self, tick: &WireTick) -> Result<TickResult, ServeError> {
        match self.fleet.ingest_tick(tick) {
            Ok(result) => {
                self.bump("serve.ticks", 1);
                self.bump("serve.samples", tick.machines.len() as u64);
                if result.refits > 0 {
                    self.bump("serve.refits", result.refits);
                }
                // chaos-lint: allow(R6) — the bounded history ring keeps its own copy; the caller owns the returned result
                self.history.push_back(result.clone());
                while self.history.len() > self.opts.history_cap {
                    self.history.pop_front();
                }
                Ok(result)
            }
            Err(err) => {
                self.bump("serve.ticks.rejected", 1);
                Err(err)
            }
        }
    }

    fn ingest(&mut self, body: &[u8]) -> Result<Response, ServeError> {
        let _span = chaos_obs::span("serve.ingest");
        let request = IngestRequest::decode(body)?;
        let mut results = Vec::with_capacity(request.ticks.len());
        for tick in &request.ticks {
            // Apply in order until the first failure; the error detail
            // reports how many ticks landed so the client can resync
            // from t_next.
            match self.apply_tick(tick) {
                Ok(result) => results.push(result),
                Err(err) => {
                    if results.is_empty() {
                        return Err(err);
                    }
                    // Partial batch: report what landed; the client
                    // sees the failure on its next aligned retry.
                    break;
                }
            }
        }
        self.maybe_checkpoint();
        Ok(render(
            200,
            [
                (
                    "results",
                    results.iter().map(TickResult::to_value).collect(),
                ),
                ("t_next", Value::U64(self.fleet.t_next())),
            ],
        ))
    }

    fn maybe_checkpoint(&mut self) {
        let due = match &self.checkpointer {
            Some(_) if self.checkpoint_every_ticks > 0 => {
                let t = self.fleet.t_next();
                t > 0 && t.is_multiple_of(self.checkpoint_every_ticks)
            }
            _ => false,
        };
        if !due {
            return;
        }
        let bytes = encode_for_persist(&self.fleet, &mut self.history, &self.counters);
        let outcome = match &self.checkpointer {
            Some(c) => c.persist_bytes(&bytes),
            None => return,
        };
        match outcome {
            Ok(()) => self.bump("serve.checkpoint.persisted", 1),
            // A failed cadenced checkpoint must not fail ingest; the
            // operator sees it in /v1/stats and the obs summary.
            Err(_) => self.bump("serve.checkpoint.failed", 1),
        }
    }

    fn snapshot_now(&mut self) -> Result<Response, ServeError> {
        let Some(checkpointer) = &self.checkpointer else {
            return Err(ServeError::CheckpointDisabled);
        };
        let bytes = encode_for_persist(&self.fleet, &mut self.history, &self.counters);
        checkpointer.persist_bytes(&bytes)?;
        self.bump("serve.checkpoint.persisted", 1);
        Ok(render(
            200,
            [
                ("status", Value::from("persisted")),
                ("bytes", Value::from(bytes.len())),
                ("t_next", Value::U64(self.fleet.t_next())),
            ],
        ))
    }

    /// Encodes the current state as a `CHAOSRVE` snapshot without
    /// persisting it (tests and the load generator use this for
    /// in-memory kill/restore drills).
    pub fn snapshot_bytes(&mut self) -> Vec<u8> {
        snapshot::encode(&self.fleet, self.history.make_contiguous(), &self.counters)
    }
}
