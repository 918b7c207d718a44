//! Software model of CHERI capabilities, as used by CHERIvoke.
//!
//! This crate implements a faithful-in-behaviour model of 128-bit CHERI
//! capabilities (the CHERI-128 / "CHERI Concentrate" format referenced by the
//! paper, figure 2): an unforgeable, bounded reference consisting of
//!
//! * a 64-bit **address** (the pointer value the program manipulates),
//! * compressed **bounds** (base and top recovered relative to the address
//!   via a shared exponent),
//! * a **permission** set,
//! * an optional **seal** (object type), and
//! * an out-of-band 1-bit **tag** distinguishing capabilities from data.
//!
//! Two properties matter for temporal safety and are enforced throughout:
//!
//! 1. **Monotonicity** — no operation can grow bounds or add permissions
//!    (paper §2.2). [`Capability::set_bounds`] only shrinks;
//!    [`Capability::with_perms`] only intersects.
//! 2. **Precise identification** — a capability's [`Capability::base`] always
//!    lies within its original allocation, even when the address wanders out
//!    of bounds (paper footnote 2), so a revocation sweep can attribute every
//!    reference to exactly one allocation.
//!
//! # Example
//!
//! ```
//! use cheri::{Capability, Perms};
//!
//! # fn main() -> Result<(), cheri::CapError> {
//! // The allocator derives a bounded capability from its heap-spanning root.
//! let root = Capability::root_rw(0x1000_0000, 0x1000_0000);
//! let obj = root.set_bounds_exact(0x1000_0040, 64)?;
//! assert_eq!(obj.base(), 0x1000_0040);
//! assert_eq!(obj.length(), 64);
//!
//! // Bounds are monotonic: attempting to widen them fails.
//! assert!(obj.set_bounds_exact(0x1000_0000, 4096).is_err());
//!
//! // Revocation clears the tag; the reference is dead forever.
//! let dangling = obj.cleared();
//! assert!(!dangling.tag());
//! assert!(dangling.check_access(0x1000_0040, 8, Perms::LOAD).is_err());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capability;
mod capword;
mod compress;
mod error;
mod otype;
mod perms;

pub use capability::Capability;
pub use capword::CapWord;
pub use compress::{CompressedBounds, MANTISSA_WIDTH, MAX_EXPONENT};
pub use error::CapError;
pub use otype::OType;
pub use perms::Perms;

/// The capability granule: bounds and shadow-map bookkeeping operate on
/// 16-byte units (paper §3.2 chooses 16 bytes to match dlmalloc's default
/// alignment).
pub const GRANULE: u64 = 16;

/// Size in bytes of an in-memory capability (CHERI-128).
pub const CAP_SIZE: u64 = 16;

/// Rounds `x` up to the next multiple of [`GRANULE`].
///
/// # Examples
///
/// ```
/// assert_eq!(cheri::granule_round_up(1), 16);
/// assert_eq!(cheri::granule_round_up(16), 16);
/// assert_eq!(cheri::granule_round_up(17), 32);
/// assert_eq!(cheri::granule_round_up(0), 0);
/// ```
#[inline]
pub const fn granule_round_up(x: u64) -> u64 {
    (x + GRANULE - 1) & !(GRANULE - 1)
}

/// Rounds `x` down to a multiple of [`GRANULE`].
///
/// # Examples
///
/// ```
/// assert_eq!(cheri::granule_round_down(31), 16);
/// assert_eq!(cheri::granule_round_down(32), 32);
/// ```
#[inline]
pub const fn granule_round_down(x: u64) -> u64 {
    x & !(GRANULE - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granule_rounding_is_idempotent() {
        for x in [0u64, 1, 15, 16, 17, 31, 32, 1000, u64::MAX - 64] {
            let up = granule_round_up(x);
            assert_eq!(granule_round_up(up), up);
            let down = granule_round_down(x);
            assert_eq!(granule_round_down(down), down);
            assert!(down <= x);
            assert!(up >= x || x > u64::MAX - GRANULE);
        }
    }
}
