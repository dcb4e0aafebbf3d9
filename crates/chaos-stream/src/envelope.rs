//! The snapshot envelope shared by the `CHAOSNAP` engine format
//! ([`checkpoint`](crate::checkpoint)) and chaos-serve's `CHAOSRVE`
//! server format, which carries its fleet engine's `CHAOSNAP` snapshot
//! as one opaque blob, and the one error vocabulary for both.
//!
//! | offset | bytes | field |
//! |--------|-------|-------|
//! | 0      | 8     | magic (`CHAOSNAP` or `CHAOSRVE`) |
//! | 8      | 4     | format version (little-endian u32) |
//! | 12     | 8     | payload length (little-endian u64) |
//! | 20     | n     | payload |
//! | 20 + n | 8     | FNV-1a 64 checksum of the payload |
//!
//! Payloads are written and read with chaos-trace's [`Enc`] and
//! [`Dec`], and the checksum is [`fnv1a64`], so the three binary formats
//! share one cursor and one hash. Truncation, bit rot and version skew
//! each map to a distinct [`SnapshotError`], and the checksum is
//! verified before any payload byte is decoded.
//!
//! [`Enc`]: chaos_trace::Enc
//! [`Dec`]: chaos_trace::Dec

use chaos_trace::{fnv1a64, TraceError};

/// Envelope bytes around the payload: magic, version, length, checksum.
const ENVELOPE_LEN: usize = 28;

/// Why a snapshot could not be decoded, validated, or persisted.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Fewer bytes than the fixed envelope header.
    TooShort {
        /// Bytes supplied.
        got: usize,
    },
    /// The magic bytes are wrong — not a chaos-stream snapshot.
    BadMagic,
    /// The format version is not one this build can read.
    UnsupportedVersion {
        /// Version found in the envelope.
        got: u32,
    },
    /// The envelope's payload length disagrees with the byte count.
    LengthMismatch {
        /// Length the envelope declared.
        declared: u64,
        /// Payload bytes actually present.
        got: u64,
    },
    /// The payload checksum does not match — truncation or corruption.
    ChecksumMismatch,
    /// The payload decoded but its structure is inconsistent.
    Malformed {
        /// What was wrong.
        context: String,
    },
    /// The snapshot is well-formed but does not fit the supplied
    /// estimator (feature-width or machine-shape mismatch).
    Incompatible {
        /// What did not fit.
        context: String,
    },
    /// Filesystem failure while persisting or loading.
    Io {
        /// The failed operation and the OS error.
        context: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::TooShort { got } => {
                write!(
                    f,
                    "snapshot: {got} bytes is shorter than the envelope header"
                )
            }
            SnapshotError::BadMagic => {
                write!(f, "snapshot: bad magic (not a chaos-stream snapshot)")
            }
            SnapshotError::UnsupportedVersion { got } => {
                write!(f, "snapshot: unsupported format version {got}")
            }
            SnapshotError::LengthMismatch { declared, got } => write!(
                f,
                "snapshot: envelope declares {declared} payload bytes, found {got}"
            ),
            SnapshotError::ChecksumMismatch => {
                write!(
                    f,
                    "snapshot: payload checksum mismatch (truncated or corrupted)"
                )
            }
            SnapshotError::Malformed { context } => {
                write!(f, "snapshot: malformed payload: {context}")
            }
            SnapshotError::Incompatible { context } => {
                write!(f, "snapshot: incompatible with this engine: {context}")
            }
            SnapshotError::Io { context } => write!(f, "snapshot: io failure: {context}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A payload the decoder could not read. [`Dec`](chaos_trace::Dec)
/// builds only `Malformed`; any other variant keeps its message.
impl From<TraceError> for SnapshotError {
    fn from(e: TraceError) -> Self {
        let context = match e {
            TraceError::Malformed { context } => context,
            other => other.to_string(),
        };
        SnapshotError::Malformed { context }
    }
}

/// Wraps `payload` in the envelope: `magic`, `version`, the payload
/// length, the payload, and its FNV-1a 64 checksum.
pub fn seal(magic: [u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_LEN + payload.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out
}

/// Checks the envelope around a snapshot and returns its payload.
///
/// # Errors
///
/// In the order checked: [`SnapshotError::TooShort`] under 28 bytes,
/// [`SnapshotError::BadMagic`] unless the bytes open with `magic`,
/// [`SnapshotError::UnsupportedVersion`] unless the version is
/// `version`, [`SnapshotError::LengthMismatch`] when the declared
/// length is not the payload's, and [`SnapshotError::ChecksumMismatch`].
pub fn open(bytes: &[u8], magic: [u8; 8], version: u32) -> Result<&[u8], SnapshotError> {
    let too_short = || SnapshotError::TooShort { got: bytes.len() };
    if bytes.len() < ENVELOPE_LEN {
        return Err(too_short());
    }
    let (found, rest) = bytes.split_first_chunk::<8>().ok_or_else(too_short)?;
    if *found != magic {
        return Err(SnapshotError::BadMagic);
    }
    let (got, rest) = rest.split_first_chunk::<4>().ok_or_else(too_short)?;
    let got = u32::from_le_bytes(*got);
    if got != version {
        return Err(SnapshotError::UnsupportedVersion { got });
    }
    let (declared, rest) = rest.split_first_chunk::<8>().ok_or_else(too_short)?;
    let declared = u64::from_le_bytes(*declared);
    let (payload, checksum) = rest.split_last_chunk::<8>().ok_or_else(too_short)?;
    let got = payload.len() as u64;
    if declared != got {
        return Err(SnapshotError::LengthMismatch { declared, got });
    }
    if fnv1a64(payload) != u64::from_le_bytes(*checksum) {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 8] = *b"CHAOSNAP";

    #[test]
    fn seal_writes_the_layout_and_open_returns_the_payload() {
        let sealed = seal(MAGIC, 1, b"payload");
        assert_eq!(sealed.len(), ENVELOPE_LEN + 7);
        assert_eq!(sealed[..8], MAGIC);
        assert_eq!(sealed[8..12], 1u32.to_le_bytes());
        assert_eq!(sealed[12..20], 7u64.to_le_bytes());
        assert_eq!(&sealed[20..27], b"payload");
        assert_eq!(sealed[27..], fnv1a64(b"payload").to_le_bytes());
        assert_eq!(open(&sealed, MAGIC, 1), Ok(&b"payload"[..]));
        let empty = seal(MAGIC, 1, b"");
        assert_eq!(open(&empty, MAGIC, 1), Ok(&b""[..]));
    }

    #[test]
    fn open_reports_every_envelope_variant_in_order() {
        let sealed = seal(MAGIC, 1, b"payload");
        for cut in 0..ENVELOPE_LEN {
            assert_eq!(
                open(&sealed[..cut], *b"NOTCHAOS", 9),
                Err(SnapshotError::TooShort { got: cut })
            );
        }
        assert_eq!(open(&sealed, *b"CHAOSRVE", 1), Err(SnapshotError::BadMagic));
        assert_eq!(
            open(&sealed, MAGIC, 2),
            Err(SnapshotError::UnsupportedVersion { got: 1 })
        );
        for cut in ENVELOPE_LEN..sealed.len() {
            assert_eq!(
                open(&sealed[..cut], MAGIC, 1),
                Err(SnapshotError::LengthMismatch {
                    declared: 7,
                    got: (cut - ENVELOPE_LEN) as u64,
                })
            );
        }
        let mut long = sealed.clone();
        long.push(0);
        assert_eq!(
            open(&long, MAGIC, 1),
            Err(SnapshotError::LengthMismatch {
                declared: 7,
                got: 8
            })
        );
        let mut huge = sealed.clone();
        huge[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            open(&huge, MAGIC, 1),
            Err(SnapshotError::LengthMismatch {
                declared: u64::MAX,
                got: 7
            })
        );
        for i in 20..sealed.len() {
            let mut flipped = sealed.clone();
            flipped[i] ^= 0x10;
            assert_eq!(
                open(&flipped, MAGIC, 1),
                Err(SnapshotError::ChecksumMismatch)
            );
        }
    }

    #[test]
    fn trace_errors_become_malformed() {
        let malformed = TraceError::Malformed {
            context: "engine snapshot: payload ends early".into(),
        };
        assert_eq!(
            SnapshotError::from(malformed),
            SnapshotError::Malformed {
                context: "engine snapshot: payload ends early".into()
            }
        );
        let other = TraceError::BadMagic;
        assert_eq!(
            SnapshotError::from(other.clone()),
            SnapshotError::Malformed {
                context: other.to_string()
            }
        );
    }
}
