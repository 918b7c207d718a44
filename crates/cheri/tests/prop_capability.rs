//! Property-based tests for the capability model's core invariants:
//! compression round-trips, monotonicity, and revocation permanence.

use cheri::{CapError, CapWord, Capability, CompressedBounds, Perms};
use proptest::prelude::*;

/// Arbitrary (base, len) pairs spanning tiny to huge objects.
fn bounds_strategy() -> impl Strategy<Value = (u64, u64)> {
    (
        0u64..=(1 << 48),
        prop_oneof![0u64..=4096, 4096u64..=(1 << 20), (1u64 << 20)..=(1 << 34),],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// encode_rounding always grants a superset region that round-trips
    /// through decode at every probe address inside it.
    #[test]
    fn encode_decode_roundtrip((base, len) in bounds_strategy()) {
        let (cb, abase, atop) = CompressedBounds::encode_rounding(base, len);
        prop_assert!(abase <= base);
        prop_assert!(atop >= base as u128 + len as u128);
        let (db, dt) = cb.decode(abase);
        prop_assert_eq!(db, abase);
        prop_assert_eq!(dt, atop);
    }

    /// Every in-bounds address decodes to identical bounds (the sweep can
    /// attribute any interior pointer to its allocation).
    #[test]
    fn interior_pointers_decode_identically(
        (base, len) in bounds_strategy(),
        frac in 0.0f64..1.0,
    ) {
        prop_assume!(len > 0);
        let (cb, abase, atop) = CompressedBounds::encode_rounding(base, len);
        let span = (atop - abase as u128) as u64;
        let probe = abase + (frac * span as f64) as u64;
        let probe = probe.min((atop - 1) as u64);
        let (pb, pt) = cb.decode(probe);
        prop_assert_eq!(pb, abase);
        prop_assert_eq!(pt, atop);
    }

    /// The granted region's padding is bounded: an unaligned base can force
    /// the encoder one exponent above the length's nominal alignment, so
    /// the waste at each end is below twice the representable alignment.
    #[test]
    fn rounding_waste_is_bounded((base, len) in bounds_strategy()) {
        let (_, abase, atop) = CompressedBounds::encode_rounding(base, len);
        let align = CompressedBounds::representable_alignment(len) as u128;
        prop_assert!(u128::from(base - abase) < 2 * align);
        prop_assert!(atop - (base as u128 + len as u128) < 2 * align);
    }

    /// representable_length is idempotent and satisfies its contract.
    #[test]
    fn representable_length_contract(len in 0u64..=(1 << 50)) {
        let rl = CompressedBounds::representable_length(len);
        prop_assert!(rl >= len);
        prop_assert_eq!(CompressedBounds::representable_length(rl), rl);
        // An allocation padded to rl at alignment encodes exactly.
        let align = CompressedBounds::representable_alignment(len);
        prop_assert!(CompressedBounds::encode_exact(align, rl).is_ok()
            || CompressedBounds::encode_exact(0, rl).is_ok());
    }

    /// Derivation can never enlarge the authorised region.
    #[test]
    fn set_bounds_is_monotonic(
        (base, len) in bounds_strategy(),
        sub_off in 0u64..=4096,
        sub_len in 0u64..=4096,
    ) {
        let parent = Capability::root().set_bounds(base, len).unwrap();
        let pbase = parent.base();
        let ptop = parent.top();
        let want_base = pbase.saturating_add(sub_off);
        match parent.set_bounds(want_base, sub_len) {
            Ok(child) => {
                prop_assert!(child.base() >= pbase);
                prop_assert!(child.top() <= ptop);
                prop_assert!(child.perms().is_subset_of(parent.perms()));
            }
            Err(CapError::MonotonicityViolation) => {
                // Must only happen when the (rounded) request truly overflows
                // the parent.
                let (_, ab, at) = CompressedBounds::encode_rounding(want_base, sub_len);
                prop_assert!(ab < pbase || at > ptop);
            }
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
        }
    }

    /// CapWord encode/decode preserves every observable field.
    #[test]
    fn capword_roundtrip((base, len) in bounds_strategy(), addr_off in 0u64..=512, perm_bits in 0u16..=0x7fff) {
        let cap = Capability::root()
            .set_bounds(base, len).unwrap()
            .with_perms(Perms::from_bits(perm_bits)).unwrap();
        let cap = match cap.incremented(addr_off as i64) {
            Ok(c) => c,
            Err(_) => cap,
        };
        let back = CapWord::encode(&cap).decode(true);
        prop_assert_eq!(back.address(), cap.address());
        prop_assert_eq!(back.base(), cap.base());
        prop_assert_eq!(back.top(), cap.top());
        prop_assert_eq!(back.perms(), cap.perms());
    }

    /// A cleared capability stays dead under every further derivation.
    #[test]
    fn revocation_is_permanent((base, len) in bounds_strategy()) {
        let cap = Capability::root().set_bounds(base, len).unwrap();
        let dead = cap.cleared();
        prop_assert_eq!(dead.set_bounds(base, 1), Err(CapError::TagCleared));
        prop_assert_eq!(dead.with_perms(Perms::LOAD), Err(CapError::TagCleared));
        prop_assert_eq!(
            dead.check_access(dead.address(), 1, Perms::NONE),
            Err(CapError::TagCleared)
        );
        // Round-tripping through memory without the tag keeps it dead.
        let back = CapWord::encode(&dead).decode(false);
        prop_assert!(!back.tag());
    }

    /// Arbitrary 128-bit data never decodes to a tagged capability and never
    /// panics — the sweep must be able to inspect any heap word.
    #[test]
    fn arbitrary_data_is_inert(bits in any::<u128>()) {
        let c = CapWord::from_bits(bits).decode(false);
        prop_assert!(!c.tag());
        let _ = c.base();
        let _ = c.top();
        let _ = c.length();
    }

    /// Address wandering: if with_address succeeds, bounds are unchanged;
    /// otherwise it fails with the unrepresentable-address error.
    #[test]
    fn wandering_preserves_bounds_or_kills(
        (base, len) in bounds_strategy(),
        delta in -(1i64 << 40)..(1i64 << 40),
    ) {
        let cap = Capability::root().set_bounds(base, len).unwrap();
        let target = cap.address().wrapping_add(delta as u64);
        match cap.with_address(target) {
            Ok(moved) => {
                prop_assert_eq!(moved.base(), cap.base());
                prop_assert_eq!(moved.top(), cap.top());
                prop_assert!(moved.tag());
            }
            Err(CapError::UnrepresentableAddress { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
        }
    }
}
