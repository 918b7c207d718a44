//! The instruction set: the CHERI operations CHERIvoke's software relies
//! on, plus the paper's CLoadTags extension.

/// A capability-register name (`c0`–`c31`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reg(pub u8);

/// An integer-register name (`x0`–`x31`; `x0` reads as zero and ignores
/// writes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XReg(pub u8);

/// One instruction. Capability semantics follow the `cheri` crate's model
/// (monotonic derivation, precise traps); memory semantics follow
/// `tagmem` (data stores clear tags, capability stores set CapDirty).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Insn {
    // --- Capability inspection (CGet*) ---------------------------------
    /// `xd := base(cs)`.
    CGetBase {
        /// Destination integer register.
        xd: XReg,
        /// Source capability register.
        cs: Reg,
    },
    /// `xd := length(cs)` (saturating, like the hardware's CGetLen).
    CGetLen {
        /// Destination integer register.
        xd: XReg,
        /// Source capability register.
        cs: Reg,
    },
    /// `xd := tag(cs)` (0 or 1).
    CGetTag {
        /// Destination integer register.
        xd: XReg,
        /// Source capability register.
        cs: Reg,
    },
    /// `xd := perms(cs)` as a bit mask.
    CGetPerm {
        /// Destination integer register.
        xd: XReg,
        /// Source capability register.
        cs: Reg,
    },
    /// `xd := address(cs)`.
    CGetAddr {
        /// Destination integer register.
        xd: XReg,
        /// Source capability register.
        cs: Reg,
    },

    // --- Capability manipulation ---------------------------------------
    /// `cd := cs` (CMove).
    CMove {
        /// Destination capability register.
        cd: Reg,
        /// Source capability register.
        cs: Reg,
    },
    /// `cd := cs` with address set to `xs`'s value (CSetAddr; clears the
    /// tag if unrepresentable, hardware-style).
    CSetAddr {
        /// Destination capability register.
        cd: Reg,
        /// Source capability register.
        cs: Reg,
        /// Integer register holding the new address.
        xs: XReg,
    },
    /// `cd := cs + imm` (CIncOffset immediate; clears tag when leaving the
    /// representable region).
    CIncOffset {
        /// Destination capability register.
        cd: Reg,
        /// Source capability register.
        cs: Reg,
        /// Signed immediate added to the address.
        imm: i64,
    },
    /// `cd := cs` bounded to exactly `[base, base+len)` (CSetBoundsExact;
    /// traps on monotonicity or representability violations).
    CSetBounds {
        /// Destination capability register.
        cd: Reg,
        /// Source capability register.
        cs: Reg,
        /// New base.
        base: u64,
        /// New length.
        len: u64,
    },
    /// `cd := cs ∩ mask` permissions (CAndPerm).
    CAndPerm {
        /// Destination capability register.
        cd: Reg,
        /// Source capability register.
        cs: Reg,
        /// Permission mask to intersect with.
        mask: u16,
    },
    /// `cd := cs` with tag cleared (CClearTag — what revocation does).
    CClearTag {
        /// Destination capability register.
        cd: Reg,
        /// Source capability register.
        cs: Reg,
    },
    /// `cd := rebuild(pattern cs, authority ca)` (CBuildCap).
    CBuildCap {
        /// Destination capability register.
        cd: Reg,
        /// Authorising capability register.
        ca: Reg,
        /// Pattern capability register (tag ignored).
        cs: Reg,
    },

    // --- Memory ----------------------------------------------------------
    /// Capability load: `cd := mem[address(cbase) + offset]` (CLC).
    Clc {
        /// Destination capability register.
        cd: Reg,
        /// Capability register providing authority and base address.
        cbase: Reg,
        /// Byte offset (16-byte aligned).
        offset: u64,
    },
    /// Capability store: `mem[address(cbase) + offset] := cs` (CSC).
    Csc {
        /// Source capability register.
        cs: Reg,
        /// Capability register providing authority and base address.
        cbase: Reg,
        /// Byte offset (16-byte aligned).
        offset: u64,
    },
    /// Integer load: `xd := mem64[address(cbase) + offset]` (CLD).
    Ld {
        /// Destination integer register.
        xd: XReg,
        /// Capability register providing authority.
        cbase: Reg,
        /// Byte offset.
        offset: u64,
    },
    /// Integer store: `mem64[address(cbase) + offset] := xs` (CSD; clears
    /// the covered granule's tag, like any data store).
    Sd {
        /// Source integer register.
        xs: XReg,
        /// Capability register providing authority.
        cbase: Reg,
        /// Byte offset.
        offset: u64,
    },
    /// **CLoadTags** (paper §3.4.1): `xd :=` the tag bits of the cache
    /// line containing `address(cbase) + offset`, one bit per granule,
    /// *without* loading the line's data. A zero result lets software skip
    /// the line entirely.
    CLoadTags {
        /// Destination integer register (receives the 8-bit line mask).
        xd: XReg,
        /// Capability register providing authority over the line.
        cbase: Reg,
        /// Byte offset of the line (any address within it).
        offset: u64,
    },

    // --- Integer helpers --------------------------------------------------
    /// `xd := imm`.
    Li {
        /// Destination integer register.
        xd: XReg,
        /// Immediate value.
        imm: u64,
    },
    /// `xd := xa + xb`.
    Add {
        /// Destination integer register.
        xd: XReg,
        /// First operand.
        xa: XReg,
        /// Second operand.
        xb: XReg,
    },
    /// `xd := xa >> shift` (logical).
    Srl {
        /// Destination integer register.
        xd: XReg,
        /// Operand.
        xa: XReg,
        /// Shift amount.
        shift: u8,
    },
    /// `xd := xa & imm`.
    Andi {
        /// Destination integer register.
        xd: XReg,
        /// Operand.
        xa: XReg,
        /// Immediate mask.
        imm: u64,
    },
    /// `xd := xa >> (xb & 63)` (variable logical shift, SRLV).
    Srlv {
        /// Destination integer register.
        xd: XReg,
        /// Operand.
        xa: XReg,
        /// Register holding the shift amount.
        xb: XReg,
    },

    /// `xd := xa + imm` (signed immediate, wrapping).
    Addi {
        /// Destination integer register.
        xd: XReg,
        /// Operand.
        xa: XReg,
        /// Signed immediate.
        imm: i64,
    },
    /// `xd := (xa < xb) ? 1 : 0` (unsigned compare, SLTU).
    Sltu {
        /// Destination integer register.
        xd: XReg,
        /// Left operand.
        xa: XReg,
        /// Right operand.
        xb: XReg,
    },

    // --- Control flow (used by [`crate::Cpu::execute`]) -----------------
    /// Branch to instruction index `target` if `xs == 0`.
    Beqz {
        /// Condition register.
        xs: XReg,
        /// Absolute instruction index to branch to.
        target: usize,
    },
    /// Branch to instruction index `target` if `xs != 0`.
    Bnez {
        /// Condition register.
        xs: XReg,
        /// Absolute instruction index to branch to.
        target: usize,
    },
    /// Unconditional jump to instruction index `target`.
    J {
        /// Absolute instruction index to jump to.
        target: usize,
    },
    /// Stop execution.
    Halt,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_are_plain_names() {
        assert_eq!(Reg(3), Reg(3));
        assert_ne!(XReg(0), XReg(1));
        let i = Insn::Li {
            xd: XReg(1),
            imm: 42,
        };
        assert!(format!("{i:?}").contains("Li"));
    }
}
