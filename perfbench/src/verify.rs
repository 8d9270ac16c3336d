//! Segment-wise payload verification.
//!
//! A returned payload is compared one segment at a time against the expected bytes,
//! without ever flattening it: `to_owned_vec` / `to_f32s` would copy a
//! `Payload::Segments` into one buffer, so a checker built on them would pay (and
//! hide) the very coalesce a zero-copy `Get` is meant to avoid.

use hoplite_core::prelude::Payload;

/// Why a payload did not match.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mismatch {
    /// The payload carries no real bytes.
    Synthetic,
    /// Total length differs.
    Length { got: u64, want: u64 },
    /// First differing byte, as an offset into the object.
    Byte { offset: u64, got: u8, want: u8 },
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mismatch::Synthetic => write!(f, "synthetic payload"),
            Mismatch::Length { got, want } => write!(f, "length {got}, want {want}"),
            Mismatch::Byte { offset, got, want } => {
                write!(f, "byte {offset} is {got:#04x}, want {want:#04x}")
            }
        }
    }
}

/// Check `payload` against `expected`, walking its segments in order. Returns the
/// number of segments on success.
pub fn check_segments(payload: &Payload, expected: &[u8]) -> Result<usize, Mismatch> {
    if payload.is_synthetic() {
        return Err(Mismatch::Synthetic);
    }
    if payload.len() != expected.len() as u64 {
        return Err(Mismatch::Length { got: payload.len(), want: expected.len() as u64 });
    }
    let mut at = 0usize;
    let mut count = 0usize;
    for seg in payload.segments() {
        let want = &expected[at..at + seg.len()];
        if seg.as_ref() != want {
            let i = seg.iter().zip(want).position(|(a, b)| a != b).expect("slices differ");
            return Err(Mismatch::Byte { offset: (at + i) as u64, got: seg[i], want: want[i] });
        }
        at += seg.len();
        count += 1;
    }
    Ok(count)
}
