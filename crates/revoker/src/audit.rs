//! Full-heap safety audit: an exhaustive sweep that *counts* instead of
//! revoking, proving the temporal-safety invariant over a memory image.
//!
//! The invariant audited here is the one CHERIvoke's whole pipeline
//! exists to maintain: **no tagged capability points into a granule the
//! allocator may hand out again** (free or wilderness memory). Dangling
//! capabilities into *quarantined* memory are explicitly legal — the
//! paper's §3.7 window between free and sweep — so the caller paints the
//! audit shadow with exactly the reusable set, not the quarantine.
//!
//! The audit reuses the [`SweepEngine`] as its checking kernel:
//! the image is swept (unfiltered, so nothing is skipped) against the
//! audit shadow, and every capability the sweep would have revoked is a
//! violation. Because the sweep mutates tags, it runs over a [`CoreDump`]
//! *clone* of the heap, never the live segments. A separate tag walk
//! enumerates the offending addresses for diagnostics — the engine sweep
//! and the walk must agree, and the report carries both counts so a
//! divergence (a kernel bug) is itself detectable.
//!
//! The walk also checks the precondition the CapDirty page skip rests
//! on: every tagged granule lies on a page the dump's CapDirty list
//! names. A tagged granule off that list is one a CapDirty sweep would
//! never visit, so the report counts it as unclean too.

use crate::engine::{NoFilter, SweepEngine};
use crate::shadow::ShadowMap;
use tagmem::{CoreDump, RegisterFile, PAGE_SIZE};

/// One audit violation: a tagged capability at `at` whose base points
/// into the painted (reusable) set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditViolation {
    /// Address of the granule holding the offending capability.
    pub at: u64,
    /// The capability's base — the reusable granule it still reaches.
    pub pointee: u64,
}

/// The result of a full-heap audit sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Bytes the audit kernel walked.
    pub bytes_scanned: u64,
    /// Tagged words the audit kernel inspected.
    pub caps_inspected: u64,
    /// Granules painted into the audit shadow (the reusable set).
    pub granules_painted: u64,
    /// Capabilities found pointing into the painted set (the engine
    /// sweep's revocation count — zero on a safe heap).
    pub violations: u64,
    /// Register-file capabilities pointing into the painted set.
    pub reg_violations: u64,
    /// The offending `(at, pointee)` pairs from the diagnostic tag walk.
    /// `offenders.len() == violations` unless the sweep kernel and the
    /// walk disagree (which is itself a bug worth surfacing).
    pub offenders: Vec<AuditViolation>,
    /// Tagged granules whose page is missing from the dump's CapDirty
    /// list: capabilities a CapDirty sweep would skip.
    pub off_cap_dirty: Vec<u64>,
}

impl AuditReport {
    /// `true` when the audited image upholds the invariant.
    pub fn clean(&self) -> bool {
        self.violations == 0
            && self.reg_violations == 0
            && self.offenders.is_empty()
            && self.off_cap_dirty.is_empty()
    }
}

/// Audits a captured memory image against `shadow`, which the caller has
/// painted with every granule the allocator considers reusable (free +
/// wilderness; *not* the quarantine — see the module docs). `regs` is
/// audited by value-walk (registers are roots too). The dump is consumed
/// mutably because the checking sweep clears the violating tags it finds
/// — callers pass a clone of the live image.
pub fn audit_dump(
    engine: &SweepEngine,
    dump: &mut CoreDump,
    regs: &RegisterFile,
    shadow: &ShadowMap,
) -> AuditReport {
    let mut report = AuditReport {
        granules_painted: shadow.painted_bytes() / tagmem::GRANULE_SIZE,
        ..AuditReport::default()
    };
    // Diagnostic walk first: the engine sweep below clears the very tags
    // that identify the offenders.
    let dirty = dump.cap_dirty_pages();
    for img in dump.segments() {
        for addr in img.mem.tagged_addrs() {
            if dirty.binary_search(&(addr & !(PAGE_SIZE - 1))).is_err() {
                report.off_cap_dirty.push(addr);
            }
            let cap = img.mem.read_cap(addr).expect("tagged granule is mapped");
            if cap.tag() && shadow.is_painted(cap.base()) {
                report.offenders.push(AuditViolation {
                    at: addr,
                    pointee: cap.base(),
                });
            }
        }
    }
    let runs: Vec<(u64, u64)> = dump
        .segments()
        .iter()
        .map(|img| (img.mem.base(), img.mem.len()))
        .collect();
    let stats = engine.sweep(dump.segments_mut(), &runs, NoFilter, shadow);
    report.bytes_scanned = stats.bytes_swept;
    report.caps_inspected = stats.caps_inspected;
    report.violations = stats.caps_revoked;
    for cap in regs.iter() {
        if cap.tag() && shadow.is_painted(cap.base()) {
            report.reg_violations += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Kernel;
    use cheri::Capability;
    use tagmem::{AddressSpace, SegmentKind};

    const HEAP: u64 = 0x1000_0000;

    fn space_with_cap(pointee: u64) -> AddressSpace {
        let mut space = AddressSpace::builder()
            .segment(SegmentKind::Heap, HEAP, 1 << 20)
            .build();
        let cap = Capability::root_rw(pointee, 64);
        space.store_cap(HEAP + 0x2000, &cap).unwrap();
        space
    }

    #[test]
    fn clean_image_audits_clean() {
        let space = space_with_cap(HEAP + 0x100);
        let mut dump = CoreDump::capture(&space);
        let shadow = ShadowMap::new(HEAP, 1 << 20); // nothing reusable
        let engine = SweepEngine::new(Kernel::Simple);
        let report = audit_dump(&engine, &mut dump, space.registers(), &shadow);
        assert!(report.clean());
        assert_eq!(report.caps_inspected, 1);
        assert!(report.bytes_scanned >= 1 << 20);
    }

    #[test]
    fn cap_into_painted_set_is_a_violation() {
        let space = space_with_cap(HEAP + 0x100);
        let mut dump = CoreDump::capture(&space);
        let mut shadow = ShadowMap::new(HEAP, 1 << 20);
        shadow.paint(HEAP + 0x100, 64);
        let engine = SweepEngine::new(Kernel::Simple);
        let report = audit_dump(&engine, &mut dump, space.registers(), &shadow);
        assert!(!report.clean());
        assert_eq!(report.violations, 1);
        assert_eq!(report.offenders.len(), 1);
        assert_eq!(report.offenders[0].at, HEAP + 0x2000);
        assert_eq!(report.offenders[0].pointee, HEAP + 0x100);
    }

    #[test]
    fn register_roots_are_audited() {
        let mut space = space_with_cap(HEAP + 0x100);
        space
            .registers_mut()
            .set(2, Capability::root_rw(HEAP + 0x400, 32));
        let mut dump = CoreDump::capture(&space);
        let mut shadow = ShadowMap::new(HEAP, 1 << 20);
        shadow.paint(HEAP + 0x400, 32);
        let engine = SweepEngine::new(Kernel::Simple);
        let report = audit_dump(&engine, &mut dump, space.registers(), &shadow);
        assert_eq!(report.reg_violations, 1);
        assert_eq!(report.violations, 0, "memory itself is clean");
        assert!(!report.clean());
    }

    #[test]
    fn tagged_granule_off_a_cap_dirty_page_is_unclean() {
        let mut space = space_with_cap(HEAP + 0x100);
        space.page_table_mut().clear_cap_dirty(HEAP + 0x2000);
        let mut dump = CoreDump::capture(&space);
        let shadow = ShadowMap::new(HEAP, 1 << 20); // nothing reusable
        let engine = SweepEngine::new(Kernel::Simple);
        let report = audit_dump(&engine, &mut dump, space.registers(), &shadow);
        assert_eq!(report.off_cap_dirty, [HEAP + 0x2000]);
        assert_eq!(report.violations, 0);
        assert!(!report.clean());
    }

    #[test]
    fn audit_never_mutates_the_dump_owner() {
        // The sweep clears tags in the dump clone; the source space keeps
        // its capability.
        let space = space_with_cap(HEAP + 0x100);
        let mut dump = CoreDump::capture(&space);
        let mut shadow = ShadowMap::new(HEAP, 1 << 20);
        shadow.paint(HEAP + 0x100, 64);
        let engine = SweepEngine::new(Kernel::Simple);
        audit_dump(&engine, &mut dump, space.registers(), &shadow);
        assert!(space.load_cap(HEAP + 0x2000).unwrap().tag());
    }
}
