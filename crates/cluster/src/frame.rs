//! The sealed frame envelope every coordinator↔worker message travels
//! in.
//!
//! A frame wraps one protocol payload as
//!
//! ```text
//! [0xC2][version=2][seq: u32 LE][crc32: u32 LE][payload ...]
//! ```
//!
//! where the CRC covers the version byte, the sequence number, and the
//! payload. [`unseal`] accepts a frame only when every part of it
//! checks out: a missing magic byte is [`FrameError::BadMagic`], a cut
//! header [`FrameError::TooShort`], another version
//! [`FrameError::BadVersion`], and anything else bent past the magic a
//! [`FrameError::Crc`] — so a flipped bit or a truncation anywhere in
//! the frame is detected, never decoded. The sequence number is
//! per-direction monotonic; receivers drop non-advancing sequences as
//! duplicates.

/// First byte of every frame. Protocol payloads start with small tag
/// bytes, so a bare payload never passes for a frame.
pub const FRAME_V2_MAGIC: u8 = 0xC2;

/// The envelope version this crate speaks.
pub const FRAME_VERSION: u8 = 2;

/// Bytes the envelope adds ahead of the payload: magic, version,
/// sequence, CRC.
pub const V2_HEADER: usize = 1 + 1 + 4 + 4;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320)
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// Folds `bytes` into a running CRC32 register; the initial and final
/// inversions are the caller's.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
        crc = (crc >> 8) ^ CRC32_TABLE[idx];
    }
    crc
}

/// IEEE CRC32 of `bytes` (the zlib/PNG/802.3 variant).
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

// ---------------------------------------------------------------------
// The v2 envelope
// ---------------------------------------------------------------------

/// Why a frame failed the envelope checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The first byte is not [`FRAME_V2_MAGIC`]: a bare payload, or a
    /// frame whose magic byte was corrupted.
    BadMagic(u8),
    /// The frame is shorter than the header — a truncation fault.
    TooShort {
        /// Bytes actually present.
        got: usize,
    },
    /// The envelope names a version this peer does not speak.
    BadVersion(u8),
    /// The CRC over version+sequence+payload does not match.
    Crc {
        /// CRC the envelope carried.
        carried: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(b) => {
                write!(
                    f,
                    "frame starts with {b:#04x}, not the {FRAME_V2_MAGIC:#04x} magic"
                )
            }
            FrameError::TooShort { got } => {
                write!(f, "frame truncated to {got} bytes (header is {V2_HEADER})")
            }
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::Crc { carried, computed } => write!(
                f,
                "frame CRC mismatch: carried {carried:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// A frame that passed [`unseal`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Unsealed {
    /// A v2 envelope whose CRC checked out.
    V2 {
        /// Per-direction monotonic sequence number.
        seq: u32,
        /// The protected payload.
        payload: Vec<u8>,
    },
}

/// Wraps `payload` in a v2 envelope carrying `seq`, CRC-protected.
pub fn seal_v2(seq: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(V2_HEADER + payload.len());
    out.push(FRAME_V2_MAGIC);
    out.push(FRAME_VERSION);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&[0; 4]); // CRC placeholder
    out.extend_from_slice(payload);
    let crc = envelope_crc(&out);
    out[6..10].copy_from_slice(&crc.to_le_bytes());
    out
}

/// CRC over everything the envelope protects: version byte, sequence,
/// payload (the magic and the CRC field itself are excluded).
fn envelope_crc(envelope: &[u8]) -> u32 {
    !crc32_update(crc32_update(!0, &envelope[1..6]), &envelope[V2_HEADER..])
}

/// Opens a received frame, proving its integrity. Sequence-number
/// policy (duplicate detection) is the caller's job.
///
/// # Errors
/// [`FrameError`] when the frame fails the magic, structural, version,
/// or CRC checks — the "detected corruption" signal chaos testing
/// asserts on.
pub fn unseal(frame: Vec<u8>) -> Result<Unsealed, FrameError> {
    match frame.first() {
        Some(&FRAME_V2_MAGIC) => {}
        Some(&other) => return Err(FrameError::BadMagic(other)),
        None => return Err(FrameError::TooShort { got: 0 }),
    }
    if frame.len() < V2_HEADER {
        return Err(FrameError::TooShort { got: frame.len() });
    }
    let version = frame[1];
    if version != FRAME_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let seq = u32::from_le_bytes([frame[2], frame[3], frame[4], frame[5]]);
    let carried = u32::from_le_bytes([frame[6], frame[7], frame[8], frame[9]]);
    let computed = envelope_crc(&frame);
    if carried != computed {
        return Err(FrameError::Crc { carried, computed });
    }
    let payload = frame[V2_HEADER..].to_vec();
    Ok(Unsealed::V2 { seq, payload })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sealed_frames_unseal_to_their_payload_and_seq() {
        for (seq, payload) in [(0u32, &b""[..]), (1, b"x"), (u32::MAX, &[0xC2; 37][..])] {
            let frame = seal_v2(seq, payload);
            assert_eq!(frame.len(), V2_HEADER + payload.len());
            let Unsealed::V2 { seq: s, payload: p } = unseal(frame).expect("unseal");
            assert_eq!(s, seq);
            assert_eq!(p, payload);
        }
    }

    #[test]
    fn frames_without_the_magic_are_bad_magic() {
        for payload in [&b"\x00rest"[..], b"\x03", b"\xC3sealed-looking"] {
            assert_eq!(
                unseal(payload.to_vec()).expect_err("no magic"),
                FrameError::BadMagic(payload[0])
            );
        }
    }

    #[test]
    fn every_single_byte_flip_in_an_envelope_is_caught_or_demoted() {
        // Flip each byte of a sealed frame in turn, with every mask: no
        // bent frame may unseal. A flipped magic is `BadMagic`; anything
        // else fails the version or CRC check.
        let frame = seal_v2(7, b"partial sums travel light");
        for i in 0..frame.len() {
            for mask in 1..=u8::MAX {
                let mut bent = frame.clone();
                bent[i] ^= mask;
                let err = unseal(bent).expect_err("a flipped byte must not unseal");
                if i == 0 {
                    assert_eq!(err, FrameError::BadMagic(FRAME_V2_MAGIC ^ mask));
                }
            }
        }
    }

    #[test]
    fn truncated_envelopes_are_too_short_not_garbage() {
        let frame = seal_v2(3, b"abcdef");
        for cut in 0..V2_HEADER {
            let bent = frame[..cut].to_vec();
            assert_eq!(
                unseal(bent).expect_err("short"),
                FrameError::TooShort { got: cut }
            );
        }
        // Cutting into the payload leaves a structurally complete
        // envelope whose CRC no longer matches.
        for cut in V2_HEADER..frame.len() {
            assert!(matches!(
                unseal(frame[..cut].to_vec()).expect_err("payload cut"),
                FrameError::Crc { .. }
            ));
        }
    }

    #[test]
    fn random_bytes_never_unseal_or_panic() {
        // Line noise, half of it dressed up with a valid magic and
        // version so it reaches the CRC check: nothing `seal_v2` did not
        // produce may come back `Ok`.
        let mut rng = StdRng::seed_from_u64(0xC2C2);
        for round in 0..20_000 {
            let len = rng.random_range(0..48usize);
            let mut bytes: Vec<u8> = (0..len).map(|_| rng.random()).collect();
            if round % 2 == 0 && len >= 2 {
                bytes[0] = FRAME_V2_MAGIC;
                bytes[1] = FRAME_VERSION;
            }
            if let Ok(Unsealed::V2 { seq, payload }) = unseal(bytes.clone()) {
                assert_eq!(
                    seal_v2(seq, &payload),
                    bytes,
                    "round {round} forged a frame"
                );
            }
        }
    }

    #[test]
    fn unknown_versions_are_rejected() {
        let mut frame = seal_v2(1, b"hi");
        frame[1] = 9;
        assert_eq!(
            unseal(frame).expect_err("version"),
            FrameError::BadVersion(9)
        );
    }

    #[test]
    fn frame_error_displays_name_their_numbers() {
        let cases: Vec<(FrameError, &[&str])> = vec![
            (FrameError::BadMagic(0x03), &["0x03", "0xc2"]),
            (FrameError::TooShort { got: 4 }, &["4", "10"]),
            (FrameError::BadVersion(9), &["9"]),
            (
                FrameError::Crc {
                    carried: 0xDEAD_BEEF,
                    computed: 0x0BAD_F00D,
                },
                &["0xdeadbeef", "0x0badf00d"],
            ),
        ];
        for (err, needles) in cases {
            let shown = err.to_string();
            for needle in needles {
                assert!(shown.contains(needle), "{shown} missing {needle}");
            }
        }
    }
}
