//! The server's snapshot format: the `CHAOSRVE` envelope.
//!
//! The same envelope as the `CHAOSNAP` engine format — magic, version,
//! length-prefixed payload, FNV-1a64 checksum — sealed and opened by
//! [`chaos_stream::envelope`], with the payload written and read by
//! chaos-trace's [`Enc`] and [`Dec`]. The fleet engine's snapshot
//! rides inside as one opaque length-prefixed `CHAOSNAP` blob, so the
//! engine format can evolve independently. Decode errors are
//! [`SnapshotError`]s, so operators see one error vocabulary for both
//! layers.
//!
//! What the snapshot captures: a fleet-spec echo (compatibility check
//! on restore), every machine's serving tallies, the engine (cursor,
//! models and lag rows included), the power-history ring, and the
//! server's own counters. The trained estimator is deliberately *not*
//! captured — it is a deterministic function of the spec, so restore
//! retrains it (see `crate::bootstrap`) exactly as first boot did.
//! Version 1, which held one engine and one rolling trace buffer per
//! machine, is refused.

use crate::fleet::{Fleet, Tally};
use crate::protocol::{LastSample, TickResult};
use chaos_stream::envelope::{open, seal};
use chaos_stream::SnapshotError;
use chaos_trace::{Dec, Enc};
use std::collections::BTreeMap;

/// Magic bytes opening every server snapshot.
pub const SERVE_MAGIC: [u8; 8] = *b"CHAOSRVE";

/// Current server snapshot format version.
pub const SERVE_SNAPSHOT_VERSION: u32 = 2;

// ---------------------------------------------------------------------
// Decoded state
// ---------------------------------------------------------------------

/// A fully decoded server snapshot.
#[derive(Debug, Clone)]
pub struct ServerState {
    /// Fleet echo: platform name.
    pub platform: String,
    /// Fleet echo: machine count.
    pub machines: usize,
    /// Fleet echo: calibration seed.
    pub seed: u64,
    /// Fleet echo: counter-row width.
    pub width: usize,
    /// Per-machine serving tallies, machine order.
    pub(crate) tallies: Vec<Tally>,
    /// The fleet engine's `CHAOSNAP` snapshot.
    pub engine: Vec<u8>,
    /// Power-history ring, oldest first.
    pub history: Vec<TickResult>,
    /// The server's own counters.
    pub counters: BTreeMap<String, u64>,
}

// ---------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------

fn encode_last(enc: &mut Enc, last: &Option<LastSample>) {
    match last {
        Some(s) => {
            enc.bool(true);
            enc.u64(s.t);
            enc.f64(s.power_w);
            enc.str(&s.tier);
            enc.bool(s.adapted);
            enc.usize(s.imputed);
            enc.opt_f64(s.rolling_dre);
        }
        None => enc.bool(false),
    }
}

fn encode_tally(enc: &mut Enc, tally: &Tally) {
    enc.usize(tally.refit_counts.len());
    for (label, count) in &tally.refit_counts {
        enc.str(label);
        enc.u64(*count);
    }
    enc.opt_u64(tally.last_refit_t);
    encode_last(enc, &tally.last);
}

/// Encodes the full server state into a `CHAOSRVE` envelope.
pub fn encode(fleet: &Fleet, history: &[TickResult], counters: &BTreeMap<String, u64>) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.str(fleet.spec().platform.name());
    enc.usize(fleet.spec().machines);
    enc.u64(fleet.spec().seed);
    enc.usize(fleet.width());
    enc.usize(fleet.tallies.len());
    for tally in &fleet.tallies {
        encode_tally(&mut enc, tally);
    }
    enc.bytes(&fleet.engine.snapshot());
    enc.usize(history.len());
    for r in history {
        enc.u64(r.t);
        enc.f64(r.cluster_power_w);
        enc.str(&r.worst_tier);
        enc.usize(r.active_machines);
        enc.u64(r.refits);
    }
    enc.usize(counters.len());
    for (name, value) in counters {
        enc.str(name);
        enc.u64(*value);
    }

    seal(SERVE_MAGIC, SERVE_SNAPSHOT_VERSION, &enc.into_bytes())
}

// ---------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------

fn decode_last(dec: &mut Dec<'_>) -> Result<Option<LastSample>, SnapshotError> {
    if !dec.bool()? {
        return Ok(None);
    }
    Ok(Some(LastSample {
        t: dec.u64()?,
        power_w: dec.f64()?,
        tier: dec.str()?,
        adapted: dec.bool()?,
        imputed: dec.usize()?,
        rolling_dre: dec.opt_f64()?,
    }))
}

fn decode_tally(dec: &mut Dec<'_>) -> Result<Tally, SnapshotError> {
    let n_tallies = dec.len(1)?;
    let mut refit_counts = BTreeMap::new();
    for _ in 0..n_tallies {
        let label = dec.str()?;
        let count = dec.u64()?;
        refit_counts.insert(label, count);
    }
    Ok(Tally {
        refit_counts,
        last_refit_t: dec.opt_u64()?,
        last: decode_last(dec)?,
    })
}

/// Validates the `CHAOSRVE` envelope and decodes the full server
/// state.
///
/// # Errors
///
/// [`SnapshotError`] — the same vocabulary as engine snapshots:
/// `BadMagic`, `UnsupportedVersion`, `LengthMismatch`,
/// `ChecksumMismatch`, or `Malformed` for payload-level damage.
// chaos-lint: no-panic — decodes untrusted snapshot bytes; every failure is a SnapshotError
pub fn decode(bytes: &[u8]) -> Result<ServerState, SnapshotError> {
    let payload = open(bytes, SERVE_MAGIC, SERVE_SNAPSHOT_VERSION)?;
    let mut dec = Dec::new(payload, &"serve snapshot");
    let platform = dec.str()?;
    let machines = dec.usize()?;
    let seed = dec.u64()?;
    let width = dec.usize()?;
    let n_tallies = dec.len(1)?;
    if n_tallies != machines {
        return Err(SnapshotError::Malformed {
            context: format!(
                "snapshot carries {n_tallies} machine tallies for a fleet of {machines}"
            ),
        });
    }
    let tallies = (0..n_tallies)
        .map(|_| decode_tally(&mut dec))
        .collect::<Result<Vec<_>, _>>()?;
    let engine = dec.bytes()?.to_vec();
    let n_hist = dec.len(1)?;
    let history = (0..n_hist)
        .map(|_| {
            Ok(TickResult {
                t: dec.u64()?,
                cluster_power_w: dec.f64()?,
                worst_tier: dec.str()?,
                active_machines: dec.usize()?,
                refits: dec.u64()?,
            })
        })
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let n_counters = dec.len(1)?;
    let mut counters = BTreeMap::new();
    for _ in 0..n_counters {
        let name = dec.str()?;
        let value = dec.u64()?;
        counters.insert(name, value);
    }
    dec.expect_end()?;
    Ok(ServerState {
        platform,
        machines,
        seed,
        width,
        tallies,
        engine,
        history,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_rejects_damage() {
        assert!(matches!(
            decode(&[0u8; 10]),
            Err(SnapshotError::TooShort { .. })
        ));
        let mut bad_magic = vec![0u8; 40];
        bad_magic[0..8].copy_from_slice(b"NOTCHAOS");
        assert!(matches!(decode(&bad_magic), Err(SnapshotError::BadMagic)));
        // Version 1 (one engine and trace buffer per machine) and an
        // unknown future version are refused before the payload is read.
        for version in [1u32, 99] {
            let mut bad_version = vec![0u8; 40];
            bad_version[0..8].copy_from_slice(&SERVE_MAGIC);
            bad_version[8..12].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                decode(&bad_version),
                Err(SnapshotError::UnsupportedVersion { got }) if got == version
            ));
        }
    }
}
