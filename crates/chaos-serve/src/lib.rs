//! chaos-serve — the fleet-scale power-estimation server.
//!
//! Turns the `chaos-stream` online-inference engine into a long-lived
//! network service: clients `POST` per-second counter samples for a
//! whole fleet, the server feeds each tick to one fleet-wide
//! [`StreamEngine`], which finishes every machine's second across
//! worker threads under an [`ExecPolicy`] and composes cluster power
//! serially in machine order (Eq. 5 of the CHAOS paper), and answers
//! over a dependency-free HTTP/1.1 + JSON wire protocol.
//!
//! The protocol is documented normatively in `docs/PROTOCOL.md` and
//! the operator's guide in `docs/OPERATIONS.md`. Two contracts carry
//! over from the rest of the workspace:
//!
//! * **Determinism** — the same sample log produces bit-identical
//!   response bodies whatever `CHAOS_THREADS` is set to, because the
//!   engine's only parallel phase operates on disjoint per-machine
//!   states (`tests/determinism.rs` pins this).
//! * **Crash safety** — the full serving state snapshots into a
//!   versioned `CHAOSRVE` envelope ([`snapshot`]); a server killed and
//!   restored continues byte-identically (`tests/endpoints.rs` and the
//!   CI smoke drill pin this).
//!
//! Module map:
//!
//! * [`http`] — hand-rolled HTTP/1.1 framing over `std` I/O traits.
//! * [`protocol`] — wire request/response types and [`ServeError`].
//! * [`fleet`] — the fleet engine, tick validation and per-machine
//!   tallies.
//! * [`snapshot`] — the `CHAOSRVE` snapshot envelope and codec.
//! * [`server`] — the request router and checkpoint cadence.
//! * [`bootstrap`] — deterministic training, first boot, and restore.
//!
//! [`StreamEngine`]: chaos_stream::StreamEngine
//! [`ExecPolicy`]: chaos_stats::ExecPolicy

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bootstrap;
pub mod fleet;
pub mod http;
pub mod protocol;
pub mod replay;
pub mod server;
pub mod snapshot;

pub use bootstrap::{ServeOptions, BASELINE_DRE};
pub use fleet::Fleet;
pub use http::{Request, Response};
pub use protocol::{IngestRequest, ServeError, TickResult, WireSample, WireTick, PROTOCOL};
pub use replay::{replay_file, ReplayError, ReplayStats};
pub use server::Server;

// Re-exported so binaries and tests configure the server without
// depending on chaos-stream directly.
pub use chaos_stream::StreamConfig;
