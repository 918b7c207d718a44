//! The [`Capability`] type and its monotonic derivation operations.

use core::fmt;

use crate::{CapError, CompressedBounds, OType, Perms};

/// A CHERI capability: a tagged, bounded, permissioned reference.
///
/// This is the architectural register-file view. The in-memory view is
/// [`crate::CapWord`] (128 bits) plus the out-of-band tag bit kept by the
/// tagged-memory subsystem.
///
/// All mutating operations are **monotonic**: they can shrink bounds,
/// drop permissions, or clear the tag — never the reverse. Construction of
/// new authority is only possible through the `root_*` constructors, which
/// model the omnipotent capabilities present at CPU power-on (paper
/// footnote 1).
///
/// # Examples
///
/// ```
/// use cheri::{Capability, Perms};
///
/// # fn main() -> Result<(), cheri::CapError> {
/// let heap = Capability::root_rw(0x1_0000, 0x10_0000);
/// let obj = heap.set_bounds_exact(0x1_0040, 32)?;
///
/// // Pointer arithmetic moves the address, not the bounds.
/// let p = obj.incremented(16)?;
/// assert_eq!(p.address(), 0x1_0050);
/// assert_eq!(p.base(), 0x1_0040);
///
/// // Access checks combine tag, seal, bounds and permissions.
/// assert!(p.check_access(p.address(), 16, Perms::LOAD).is_ok());
/// assert!(p.check_access(p.address(), 32, Perms::LOAD).is_err()); // overruns top
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Capability {
    tag: bool,
    address: u64,
    bounds: CompressedBounds,
    perms: Perms,
    otype: OType,
}

impl Capability {
    /// The canonical untagged null capability: all-zero, conveys nothing.
    /// This is what a revoked memory location decodes to after its tag is
    /// cleared and what uninitialised capability registers hold.
    pub const NULL: Capability = Capability {
        tag: false,
        address: 0,
        bounds: CompressedBounds::EMPTY,
        perms: Perms::NONE,
        otype: OType::UNSEALED,
    };

    /// The omnipotent power-on root: full address space, all permissions.
    ///
    /// Everything else derives from this (or from the narrower roots below);
    /// the simulator hands it only to trusted components (kernel, allocator).
    pub fn root() -> Capability {
        Capability {
            tag: true,
            address: 0,
            bounds: CompressedBounds::FULL,
            perms: Perms::ALL,
            otype: OType::UNSEALED,
        }
    }

    /// A tagged read/write data root over `base..base+len` with
    /// [`Perms::RW_DATA`]. Bounds are rounded outward if `base`/`len` are not
    /// exactly representable; use [`Capability::set_bounds_exact`] on
    /// [`Capability::root`] when exactness matters.
    pub fn root_rw(base: u64, len: u64) -> Capability {
        let (bounds, abase, _) = CompressedBounds::encode_rounding(base, len);
        Capability {
            tag: true,
            address: abase,
            bounds,
            perms: Perms::RW_DATA,
            otype: OType::UNSEALED,
        }
    }

    // --- Observers -------------------------------------------------------

    /// The tag: `true` means this word is a genuine capability.
    #[inline]
    pub const fn tag(&self) -> bool {
        self.tag
    }

    /// The current address (the "pointer value").
    #[inline]
    pub const fn address(&self) -> u64 {
        self.address
    }

    /// The permission set.
    #[inline]
    pub const fn perms(&self) -> Perms {
        self.perms
    }

    /// The object type; [`OType::UNSEALED`] unless sealed.
    #[inline]
    pub const fn otype(&self) -> OType {
        self.otype
    }

    /// `true` if sealed (immutable and non-dereferenceable until unsealed).
    #[inline]
    pub fn is_sealed(&self) -> bool {
        !self.otype.is_unsealed()
    }

    /// The compressed bounds encoding.
    #[inline]
    pub const fn compressed_bounds(&self) -> CompressedBounds {
        self.bounds
    }

    /// Lower bound (inclusive). For heap capabilities issued by a
    /// bounds-setting allocator this always lies within the original
    /// allocation, which is what lets the revocation sweep attribute the
    /// capability to an allocation granule.
    #[inline]
    pub fn base(&self) -> u64 {
        self.bounds.decode_base(self.address)
    }

    /// Upper bound (exclusive); up to `2^64`, hence `u128`.
    #[inline]
    pub fn top(&self) -> u128 {
        self.bounds.decode(self.address).1
    }

    /// `top - base` in bytes. Saturates to zero for malformed (never-tagged)
    /// bit patterns whose decoded top lies below their base.
    #[inline]
    pub fn length(&self) -> u64 {
        let (b, t) = self.bounds.decode(self.address);
        t.saturating_sub(b as u128) as u64
    }

    /// Address relative to base (may be "negative" — wrapped — when the
    /// address has wandered below base).
    #[inline]
    pub fn offset(&self) -> u64 {
        self.address.wrapping_sub(self.base())
    }

    /// `true` if the address currently lies within `[base, top)`.
    #[inline]
    pub fn address_in_bounds(&self) -> bool {
        let (b, t) = self.bounds.decode(self.address);
        self.address >= b && (self.address as u128) < t
    }

    // --- Access checking ---------------------------------------------------

    /// Checks an access of `len` bytes at absolute address `addr` requiring
    /// permissions `need`.
    ///
    /// # Errors
    ///
    /// [`CapError::TagCleared`] for untagged capabilities,
    /// [`CapError::Sealed`] for sealed ones, [`CapError::PermissionDenied`]
    /// if `need` is not a subset of the permissions, and
    /// [`CapError::BoundsViolation`] if `[addr, addr+len)` is not contained
    /// in `[base, top)`.
    pub fn check_access(&self, addr: u64, len: u64, need: Perms) -> Result<(), CapError> {
        if !self.tag {
            return Err(CapError::TagCleared);
        }
        if self.is_sealed() {
            return Err(CapError::Sealed);
        }
        if !self.perms.contains(need) {
            return Err(CapError::PermissionDenied);
        }
        let (b, t) = self.bounds.decode(self.address);
        let end = addr as u128 + len as u128;
        if addr < b || end > t {
            return Err(CapError::BoundsViolation { addr, len });
        }
        Ok(())
    }

    // --- Monotonic derivations --------------------------------------------

    /// Returns a copy with the tag cleared. This is *revocation*: the result
    /// can never authorise anything again, and no operation restores its
    /// tag.
    #[inline]
    #[must_use]
    pub fn cleared(&self) -> Capability {
        Capability {
            tag: false,
            ..*self
        }
    }

    /// Derives a capability with exactly `base..base+len` bounds (CSetBounds
    /// with exactness demanded).
    ///
    /// # Errors
    ///
    /// * [`CapError::TagCleared`] / [`CapError::Sealed`] on dead or sealed
    ///   sources.
    /// * [`CapError::MonotonicityViolation`] if the new bounds are not
    ///   contained within the current bounds.
    /// * [`CapError::Unrepresentable`] if the bounds cannot be encoded
    ///   exactly.
    pub fn set_bounds_exact(&self, base: u64, len: u64) -> Result<Capability, CapError> {
        self.guard_derive()?;
        let bounds = CompressedBounds::encode_exact(base, len)?;
        self.check_shrinks(base, base as u128 + len as u128)?;
        Ok(Capability {
            address: base,
            bounds,
            ..*self
        })
    }

    /// Derives a capability whose bounds are the smallest representable
    /// region containing `base..base+len` (CSetBounds). Returns the new
    /// capability; inspect [`Capability::base`]/[`Capability::length`] for
    /// the granted region.
    ///
    /// # Errors
    ///
    /// As [`Capability::set_bounds_exact`], except rounding is permitted —
    /// but the *rounded* region must still shrink the current bounds.
    pub fn set_bounds(&self, base: u64, len: u64) -> Result<Capability, CapError> {
        self.guard_derive()?;
        let (bounds, abase, atop) = CompressedBounds::encode_rounding(base, len);
        self.check_shrinks(abase, atop)?;
        Ok(Capability {
            address: base,
            bounds,
            ..*self
        })
    }

    /// Derives a capability with permissions intersected with `keep`
    /// (CAndPerm).
    ///
    /// # Errors
    ///
    /// Fails on untagged or sealed sources.
    pub fn with_perms(&self, keep: Perms) -> Result<Capability, CapError> {
        self.guard_derive()?;
        Ok(Capability {
            perms: self.perms.intersect(keep),
            ..*self
        })
    }

    /// Returns a copy with the address set to `addr` (CSetAddr).
    ///
    /// The address may leave the bounds (C allows one-past-the-end and
    /// transient out-of-bounds arithmetic) but must stay within the
    /// *representable region*; beyond it, hardware would be unable to
    /// re-encode the bounds.
    ///
    /// # Errors
    ///
    /// [`CapError::UnrepresentableAddress`] if `addr` is outside the
    /// representable region; [`CapError::Sealed`] on sealed sources. The
    /// source may be untagged (address updates on untagged words are legal
    /// data manipulation); the result keeps the clear tag.
    pub fn with_address(&self, addr: u64) -> Result<Capability, CapError> {
        if self.is_sealed() {
            return Err(CapError::Sealed);
        }
        if self.tag && !self.bounds.addr_is_representable(self.address, addr) {
            return Err(CapError::UnrepresentableAddress { addr });
        }
        Ok(Capability {
            address: addr,
            ..*self
        })
    }

    /// Pointer arithmetic: address + `delta` (CIncOffset).
    ///
    /// # Errors
    ///
    /// [`CapError::AddressOverflow`] on 64-bit wraparound, otherwise as
    /// [`Capability::with_address`].
    pub fn incremented(&self, delta: i64) -> Result<Capability, CapError> {
        let addr = if delta >= 0 {
            self.address
                .checked_add(delta as u64)
                .ok_or(CapError::AddressOverflow)?
        } else {
            self.address
                .checked_sub(delta.unsigned_abs())
                .ok_or(CapError::AddressOverflow)?
        };
        self.with_address(addr)
    }

    /// Seals this capability with the object type of `auth` (CSeal).
    ///
    /// # Errors
    ///
    /// Requires `auth` to be tagged, unsealed, hold [`Perms::SEAL`], and have
    /// its address (the otype to grant) within its bounds.
    pub fn sealed_with(&self, auth: &Capability) -> Result<Capability, CapError> {
        self.guard_derive()?;
        auth.check_access(auth.address(), 1, Perms::SEAL)?;
        let ot = OType::new(auth.address() as u16).ok_or(CapError::OTypeMismatch)?;
        Ok(Capability { otype: ot, ..*self })
    }

    /// Unseals this capability using `auth` (CUnseal).
    ///
    /// # Errors
    ///
    /// Requires `auth` to hold [`Perms::UNSEAL`] and to address the same
    /// otype this capability is sealed with.
    pub fn unsealed_with(&self, auth: &Capability) -> Result<Capability, CapError> {
        if !self.tag {
            return Err(CapError::TagCleared);
        }
        if !self.is_sealed() {
            return Err(CapError::OTypeMismatch);
        }
        auth.check_access(auth.address(), 1, Perms::UNSEAL)?;
        if auth.address() as u16 != self.otype.raw() {
            return Err(CapError::OTypeMismatch);
        }
        Ok(Capability {
            otype: OType::UNSEALED,
            ..*self
        })
    }

    // --- Internal ----------------------------------------------------------

    fn guard_derive(&self) -> Result<(), CapError> {
        if !self.tag {
            return Err(CapError::TagCleared);
        }
        if self.is_sealed() {
            return Err(CapError::Sealed);
        }
        Ok(())
    }

    fn check_shrinks(&self, new_base: u64, new_top: u128) -> Result<(), CapError> {
        let (b, t) = self.bounds.decode(self.address);
        if new_base < b || new_top > t {
            return Err(CapError::MonotonicityViolation);
        }
        Ok(())
    }

    /// Reassembles a capability from its parts. `pub(crate)` because forging
    /// is exactly what the architecture forbids; only the in-memory decoder
    /// ([`crate::CapWord`]) may use it.
    pub(crate) fn from_parts(
        tag: bool,
        address: u64,
        bounds: CompressedBounds,
        perms: Perms,
        otype: OType,
    ) -> Capability {
        Capability {
            tag,
            address,
            bounds,
            perms,
            otype,
        }
    }
}

impl Default for Capability {
    /// The null capability.
    fn default() -> Self {
        Capability::NULL
    }
}

impl fmt::Debug for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (b, t) = self.bounds.decode(self.address);
        write!(
            f,
            "Capability {{ tag: {}, addr: {:#x}, bounds: [{:#x}, {:#x}), perms: {:?}{} }}",
            self.tag,
            self.address,
            b,
            t,
            self.perms,
            if self.is_sealed() { ", sealed" } else { "" }
        )
    }
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap_cap() -> Capability {
        Capability::root_rw(0x10_0000, 0x10_0000)
    }

    #[test]
    fn null_is_dead() {
        let n = Capability::NULL;
        assert!(!n.tag());
        assert_eq!(n.check_access(0, 1, Perms::NONE), Err(CapError::TagCleared));
        assert_eq!(n.set_bounds(0, 0), Err(CapError::TagCleared));
    }

    #[test]
    fn root_covers_address_space() {
        let r = Capability::root();
        assert!(r.tag());
        assert_eq!(r.base(), 0);
        assert_eq!(r.top(), 1u128 << 64);
        assert!(r.check_access(u64::MAX, 1, Perms::ALL).is_ok());
    }

    #[test]
    fn set_bounds_shrinks_only() {
        let h = heap_cap();
        let o = h.set_bounds_exact(0x10_0040, 64).unwrap();
        assert_eq!(o.base(), 0x10_0040);
        assert_eq!(o.length(), 64);
        // Growing back is impossible.
        assert_eq!(
            o.set_bounds_exact(0x10_0000, 0x1000),
            Err(CapError::MonotonicityViolation)
        );
        assert_eq!(
            o.set_bounds(0x10_0040, 65),
            Err(CapError::MonotonicityViolation),
            "rounding must not smuggle in extra bytes"
        );
    }

    #[test]
    fn perms_shrink_only() {
        let h = heap_cap();
        let ro = h.with_perms(Perms::LOAD | Perms::LOAD_CAP).unwrap();
        assert!(ro.check_access(0x10_0000, 8, Perms::LOAD).is_ok());
        assert_eq!(
            ro.check_access(0x10_0000, 8, Perms::STORE),
            Err(CapError::PermissionDenied)
        );
        // Re-adding STORE just intersects away.
        let still_ro = ro.with_perms(Perms::RW_DATA).unwrap();
        assert!(!still_ro.perms().contains(Perms::STORE));
    }

    #[test]
    fn bounds_checks_are_exact() {
        let o = heap_cap().set_bounds_exact(0x10_0040, 64).unwrap();
        assert!(o.check_access(0x10_0040, 64, Perms::LOAD).is_ok());
        assert!(o.check_access(0x10_0040 + 63, 1, Perms::LOAD).is_ok());
        assert!(matches!(
            o.check_access(0x10_0040 + 63, 2, Perms::LOAD),
            Err(CapError::BoundsViolation { .. })
        ));
        assert!(matches!(
            o.check_access(0x10_003f, 1, Perms::LOAD),
            Err(CapError::BoundsViolation { .. })
        ));
    }

    #[test]
    fn wandering_pointer_keeps_base() {
        let o = heap_cap().set_bounds_exact(0x10_0040, 64).unwrap();
        // One past the end is representable and retains base.
        let p = o.incremented(64).unwrap();
        assert_eq!(p.base(), 0x10_0040);
        assert!(!p.address_in_bounds());
        // Dereference there still fails bounds.
        assert!(p.check_access(p.address(), 1, Perms::LOAD).is_err());
        // And coming back in bounds works again.
        let q = p.incremented(-32).unwrap();
        assert!(q.check_access(q.address(), 8, Perms::LOAD).is_ok());
    }

    #[test]
    fn unrepresentable_wander_clears_tag() {
        let o = heap_cap().set_bounds_exact(0x10_0040, 64).unwrap();
        // Small object (E=0): representable window is tight; going far away
        // must fail rather than yield a tagged capability.
        let far = 0x40_0000_0000u64;
        assert!(matches!(
            o.with_address(far),
            Err(CapError::UnrepresentableAddress { .. })
        ));
    }

    #[test]
    fn cleared_is_permanent() {
        let o = heap_cap().set_bounds_exact(0x10_0040, 64).unwrap();
        let d = o.cleared();
        assert!(!d.tag());
        assert_eq!(d.set_bounds(0x10_0040, 16), Err(CapError::TagCleared));
        assert_eq!(d.with_perms(Perms::LOAD), Err(CapError::TagCleared));
        // Address math on untagged words is fine (they're just data)...
        let d2 = d.with_address(0).unwrap();
        // ...but never yields authority.
        assert_eq!(
            d2.check_access(0, 0, Perms::NONE),
            Err(CapError::TagCleared)
        );
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let sealer = Capability::root()
            .set_bounds_exact(42, 1)
            .unwrap()
            .with_perms(Perms::SEAL | Perms::UNSEAL)
            .unwrap();
        let o = heap_cap().set_bounds_exact(0x10_0040, 64).unwrap();
        let s = o.sealed_with(&sealer).unwrap();
        assert!(s.is_sealed());
        assert_eq!(
            s.check_access(0x10_0040, 8, Perms::LOAD),
            Err(CapError::Sealed)
        );
        assert_eq!(s.set_bounds(0x10_0040, 16), Err(CapError::Sealed));
        let u = s.unsealed_with(&sealer).unwrap();
        assert_eq!(u, o);
        // Wrong otype fails.
        let wrong = Capability::root()
            .set_bounds_exact(43, 1)
            .unwrap()
            .with_perms(Perms::UNSEAL)
            .unwrap();
        assert_eq!(s.unsealed_with(&wrong), Err(CapError::OTypeMismatch));
    }

    #[test]
    fn offset_reflects_wander() {
        let o = heap_cap().set_bounds_exact(0x10_0040, 64).unwrap();
        assert_eq!(o.offset(), 0);
        assert_eq!(o.incremented(10).unwrap().offset(), 10);
    }

    #[test]
    fn default_is_null() {
        assert_eq!(Capability::default(), Capability::NULL);
    }

    #[test]
    fn debug_mentions_bounds() {
        let o = heap_cap().set_bounds_exact(0x10_0040, 64).unwrap();
        let s = format!("{o:?}");
        assert!(s.contains("0x100040"));
        assert!(s.contains("tag: true"));
    }

    #[test]
    fn capability_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Capability>();
    }
}
