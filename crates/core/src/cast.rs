//! Checked and intent-bearing integer conversions for byte-layout code.
//!
//! The codec, the `DSK1` container and the flat CSR arrays move values
//! between `usize` (in-memory indices), `u32` (on-disk ids and offsets)
//! and `u64` (on-disk lengths) constantly.  A bare `as` cast erases the
//! difference between the three situations that arise:
//!
//! * **widening** (`u32 → usize`, `usize → u64`) — always lossless on the
//!   platforms this workspace supports, but `as` does not *say* so;
//! * **narrowing** (`usize → u32`, `u64 → usize`) — can truncate, and a
//!   silent wrap in offset arithmetic corrupts a snapshot without any
//!   error until query time;
//! * **truncation** (the low byte of a `u32`) — deliberate, never a
//!   lossless conversion in disguise.
//!
//! This module gives each its own named helper: fallible narrowing returns
//! a typed [`CastError`], widening helpers are infallible `const fn`s with
//! a compile-time witness, and `#![deny(clippy::as_conversions)]` at the
//! top of the byte-layout modules keeps bare `as` casts out of them, so
//! every conversion states which case it is.

/// A narrowing conversion whose value did not fit the target type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CastError {
    /// The value that failed to convert (widened for reporting).
    pub value: u64,
    /// Name of the target type.
    pub target: &'static str,
}

impl std::fmt::Display for CastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} does not fit in {}", self.value, self.target)
    }
}

impl std::error::Error for CastError {}

// The widening helpers below assume the platform word is between 32 and
// 64 bits — true of every tier-1 Rust target.  The asserts make the
// assumption a compile error, not a silent truncation, on anything else.
const _: () = assert!(std::mem::size_of::<usize>() <= 8, "usize wider than u64");
const _: () = assert!(std::mem::size_of::<usize>() >= 4, "usize narrower than u32");

/// Narrow a `u64` to `usize`, failing when the value does not fit —
/// turning an on-disk length back into an index.
#[inline]
pub fn to_usize(v: u64) -> Result<usize, CastError> {
    usize::try_from(v).map_err(|_| CastError {
        value: v,
        target: "usize",
    })
}

/// Widen a `u32` to `usize`.  Infallible: the platform witness above
/// guarantees `usize` is at least 32 bits.
#[inline]
pub const fn usize_from_u32(v: u32) -> usize {
    v as usize
}

/// Widen a `usize` to `u64`.  Infallible: the platform witness above
/// guarantees `usize` is at most 64 bits.
#[inline]
pub const fn u64_from_usize(v: usize) -> u64 {
    v as u64
}

/// The low byte of a `u32` — *deliberate* truncation (table indexing,
/// byte extraction), named so it cannot be mistaken for a lossless
/// conversion.
#[inline]
pub const fn low_byte(v: u32) -> u8 {
    (v & 0xFF) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrowing_succeeds_in_range() {
        assert_eq!(to_usize(0), Ok(0));
        assert_eq!(to_usize(12345), Ok(12345));
    }

    #[test]
    fn widening_round_trips() {
        assert_eq!(usize_from_u32(u32::MAX), u32::MAX as usize);
        assert_eq!(u64_from_usize(usize::MAX), usize::MAX as u64);
    }
}
