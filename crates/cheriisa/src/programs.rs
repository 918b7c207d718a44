//! The paper's §3.3 inner loop, expressed in CHERI instructions.
//!
//! The sweep visits every granule of the heap; for each valid capability it
//! computes the shadow-map index from the capability's **base**, loads the
//! shadow word, tests the bit, and conditionally invalidates. Every memory
//! touch, capability inspection and shadow lookup below is an [`Insn`]
//! executed by the [`Cpu`] — the host Rust merely sequences (the ISA model
//! is straight-line; branches are the host's `if`/`while`). The
//! [`Insn::CLoadTags`] fast path skips capability-free lines exactly as
//! §3.4.1 proposes.

use cheri::Capability;
use revoker::line_spans;
use tagmem::{GRANULE_SIZE, LINE_SIZE};

use crate::{Asm, Cpu, Insn, Reg, Trap, XReg};

/// Register conventions used by [`sweep_heap`].
mod regs {
    use crate::{Reg, XReg};
    /// The capability under inspection.
    pub const CUR: Reg = Reg(10);
    /// Scratch pointer for indexed loads/stores.
    pub const PTR: Reg = Reg(11);
    /// Invalidated (tag-cleared) copy for the revocation store.
    pub const DEAD: Reg = Reg(12);
    pub const TAG: XReg = XReg(10);
    pub const BASE: XReg = XReg(11);
    pub const TMP: XReg = XReg(12);
    pub const GRAN: XReg = XReg(13);
    pub const WOFF: XReg = XReg(14);
    pub const BIT: XReg = XReg(15);
    pub const WORD: XReg = XReg(16);
    pub const ADDR: XReg = XReg(17);
    pub const MASK: XReg = XReg(18);
}

/// Statistics of an ISA-level sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IsaSweepStats {
    /// Cache lines skipped thanks to a zero `CLoadTags` mask.
    pub lines_skipped: u64,
    /// Capabilities inspected.
    pub caps_inspected: u64,
    /// Capabilities revoked (invalidating stores issued).
    pub caps_revoked: u64,
    /// Instructions retired by the sweep.
    pub instructions: u64,
}

/// Copies a shadow bitmap into simulated memory so the ISA loop can index
/// it like the real runtime does (the §5.2 fixed-transform mapping).
pub(crate) mod revoker_shadow {
    use crate::{Cpu, Trap};

    pub fn install_words(cpu: &mut Cpu, base: u64, words: &[u64]) -> Result<(), Trap> {
        for (i, &w) in words.iter().enumerate() {
            cpu.space_mut().store_u64(base + i as u64 * 8, w)?;
        }
        Ok(())
    }
}

/// Runs the §3.3 sweep over `[heap_base, heap_base + heap_len)` using only
/// ISA instructions for memory and capability work.
///
/// * `heap` (c-register) must cover the heap with load/store + cap
///   load/store rights.
/// * `shadow` (c-register) must cover a `heap_len / 128`-byte shadow
///   bitmap; `shadow_words` is installed at its base first.
///
/// # Errors
///
/// Returns the first [`Trap`] (the sweep itself should never trap over a
/// well-formed heap — a trap is a test failure, not a policy signal).
pub fn sweep_heap(
    cpu: &mut Cpu,
    heap: Reg,
    shadow: Reg,
    shadow_words: &[u64],
) -> Result<IsaSweepStats, Trap> {
    use regs::*;

    let heap_cap = cpu.cap(heap);
    let heap_base = heap_cap.base();
    let heap_len = heap_cap.length();
    let shadow_base = cpu.cap(shadow).base();
    revoker_shadow::install_words(cpu, shadow_base, shadow_words)?;

    let mut stats = IsaSweepStats::default();
    let start_retired = cpu.retired();

    // The same line chunking the sweep engine uses — the ISA loop and the
    // native kernels visit lines in one canonical order.
    for (line, span) in line_spans(0, heap_len) {
        // CLoadTags: one instruction decides whether the line is touched.
        cpu.step(&Insn::CLoadTags {
            xd: MASK,
            cbase: heap,
            offset: line,
        })?;
        let mask = cpu.xreg(MASK);
        if mask == 0 {
            stats.lines_skipped += 1;
            continue;
        }
        for g in 0..(span / GRANULE_SIZE) {
            if mask >> g & 1 == 0 {
                continue;
            }
            let offset = line + g * GRANULE_SIZE;
            stats.caps_inspected += 1;
            // capword = *x  (CLC) — then test the tag (CGetTag).
            cpu.step(&Insn::Clc {
                cd: CUR,
                cbase: heap,
                offset,
            })?;
            cpu.step(&Insn::CGetTag { xd: TAG, cs: CUR })?;
            debug_assert_eq!(cpu.xreg(TAG), 1, "CLoadTags said this granule is tagged");
            // Shadow index from the BASE (paper footnote 2).
            cpu.step(&Insn::CGetBase { xd: BASE, cs: CUR })?;
            cpu.step(&Insn::Li {
                xd: TMP,
                imm: heap_base.wrapping_neg(),
            })?;
            cpu.step(&Insn::Add {
                xd: GRAN,
                xa: BASE,
                xb: TMP,
            })?;
            cpu.step(&Insn::Srl {
                xd: GRAN,
                xa: GRAN,
                shift: 4,
            })?; // 16-byte granule
                 // Shadow word byte offset = (granule / 64) * 8 = (granule >> 3) & !7.
            cpu.step(&Insn::Srl {
                xd: WOFF,
                xa: GRAN,
                shift: 3,
            })?;
            cpu.step(&Insn::Andi {
                xd: WOFF,
                xa: WOFF,
                imm: !7,
            })?;
            // Load the shadow word through an indexed pointer.
            cpu.step(&Insn::Li {
                xd: ADDR,
                imm: shadow_base,
            })?;
            cpu.step(&Insn::Add {
                xd: ADDR,
                xa: ADDR,
                xb: WOFF,
            })?;
            cpu.step(&Insn::CSetAddr {
                cd: PTR,
                cs: shadow,
                xs: ADDR,
            })?;
            cpu.step(&Insn::Ld {
                xd: WORD,
                cbase: PTR,
                offset: 0,
            })?;
            // bit = (word >> (granule & 63)) & 1.
            cpu.step(&Insn::Andi {
                xd: BIT,
                xa: GRAN,
                imm: 63,
            })?;
            cpu.step(&Insn::Srlv {
                xd: WORD,
                xa: WORD,
                xb: BIT,
            })?;
            cpu.step(&Insn::Andi {
                xd: WORD,
                xa: WORD,
                imm: 1,
            })?;
            if cpu.xreg(WORD) == 1 {
                // Pointing at freed memory: invalidate (*x = cleared).
                cpu.step(&Insn::CClearTag { cd: DEAD, cs: CUR })?;
                cpu.step(&Insn::Csc {
                    cs: DEAD,
                    cbase: heap,
                    offset,
                })?;
                stats.caps_revoked += 1;
            }
        }
    }
    stats.instructions = cpu.retired() - start_retired;
    Ok(stats)
}

/// Builds a CPU whose heap segment contains the given capabilities, plus a
/// shadow segment — the common scaffolding for ISA sweep tests and the
/// `isa_sweep` example.
///
/// # Panics
///
/// Panics if a plant lies outside the heap (test-setup misuse).
pub fn heap_cpu(heap_base: u64, heap_len: u64, plants: &[(u64, Capability)]) -> (Cpu, Reg, Reg) {
    let shadow_base = 0x7000_0000u64;
    let shadow_len = cheri::granule_round_up(heap_len / 128).max(16);
    let space = tagmem::AddressSpace::builder()
        .segment(tagmem::SegmentKind::Heap, heap_base, heap_len)
        .segment(tagmem::SegmentKind::Shadow, shadow_base, shadow_len)
        .build();
    let mut cpu = Cpu::new(space);
    let heap_reg = Reg(1);
    let shadow_reg = Reg(2);
    cpu.set_cap(heap_reg, Capability::root_rw(heap_base, heap_len));
    cpu.set_cap(
        shadow_reg,
        Capability::root()
            .set_bounds(shadow_base, shadow_len)
            .expect("shadow bounds")
            .with_perms(cheri::Perms::RW_DATA)
            .expect("tagged root"),
    );
    for (addr, cap) in plants {
        cpu.space_mut()
            .store_cap(*addr, cap)
            .expect("plant inside heap");
    }
    (cpu, heap_reg, shadow_reg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use revoker::{Kernel, NoFilter, ShadowMap, SpaceSource, SweepEngine};

    const HEAP: u64 = 0x1000_0000;
    const LEN: u64 = 1 << 14;

    fn scenario() -> (Vec<(u64, Capability)>, ShadowMap) {
        let mut plants = Vec::new();
        for i in 0..24u64 {
            let obj = Capability::root_rw(HEAP + 0x2000 + i * 64, 64);
            plants.push((HEAP + i * 48 / 16 * 16, obj));
        }
        let mut shadow = ShadowMap::new(HEAP, LEN);
        for i in (0..24u64).step_by(3) {
            shadow.paint(HEAP + 0x2000 + i * 64, 64);
        }
        (plants, shadow)
    }

    #[test]
    fn isa_sweep_matches_the_native_sweeper() {
        let (plants, shadow) = scenario();

        // ISA sweep.
        let (mut cpu, heap_reg, shadow_reg) = heap_cpu(HEAP, LEN, &plants);
        let stats = sweep_heap(&mut cpu, heap_reg, shadow_reg, shadow.as_words()).unwrap();

        // Native sweep over an identical heap.
        let mut native_space = tagmem::AddressSpace::builder()
            .segment(tagmem::SegmentKind::Heap, HEAP, LEN)
            .build();
        for (addr, cap) in &plants {
            native_space.store_cap(*addr, cap).unwrap();
        }
        let (source, _page_table) = SpaceSource::split(&mut native_space);
        let native = SweepEngine::new(Kernel::Unrolled).sweep(source, NoFilter, &shadow);

        assert_eq!(stats.caps_revoked, native.caps_revoked);
        assert!(stats.caps_inspected >= native.caps_inspected);
        // And the post-sweep heap images agree granule-for-granule.
        let isa_heap = cpu
            .space()
            .segment(tagmem::SegmentKind::Heap)
            .unwrap()
            .mem();
        let nat_heap = native_space
            .segment(tagmem::SegmentKind::Heap)
            .unwrap()
            .mem();
        assert_eq!(isa_heap.tag_count(), nat_heap.tag_count());
        for addr in nat_heap.tagged_addrs() {
            assert!(isa_heap.tag_at(addr), "tag mismatch at {addr:#x}");
        }
    }

    #[test]
    fn cloadtags_skips_most_of_a_sparse_heap() {
        let (plants, shadow) = scenario();
        let (mut cpu, heap_reg, shadow_reg) = heap_cpu(HEAP, LEN, &plants);
        let stats = sweep_heap(&mut cpu, heap_reg, shadow_reg, shadow.as_words()).unwrap();
        let total_lines = LEN / LINE_SIZE;
        assert!(
            stats.lines_skipped > total_lines / 2,
            "sparse heap should skip most lines: {} of {total_lines}",
            stats.lines_skipped
        );
        // Deterministic instruction count (§3.2's predictability claim):
        // re-running the same sweep retires the same count.
        let (mut cpu2, h2, s2) = heap_cpu(HEAP, LEN, &plants);
        let stats2 = sweep_heap(&mut cpu2, h2, s2, shadow.as_words()).unwrap();
        assert_eq!(stats.instructions, stats2.instructions);
    }

    #[test]
    fn empty_heap_costs_one_cloadtags_per_line() {
        let shadow = ShadowMap::new(HEAP, LEN);
        let (mut cpu, heap_reg, shadow_reg) = heap_cpu(HEAP, LEN, &[]);
        let stats = sweep_heap(&mut cpu, heap_reg, shadow_reg, shadow.as_words()).unwrap();
        assert_eq!(stats.caps_inspected, 0);
        assert_eq!(stats.lines_skipped, LEN / LINE_SIZE);
        assert_eq!(stats.instructions, LEN / LINE_SIZE);
    }
}

/// Builds the **complete, self-contained** §3.3 sweep as a single program
/// with real branches — no host sequencing at all. Registers: `heap` in
/// `c1`, `shadow` in `c2`; scratch in `c10`–`c12` and `x20`–`x29`.
///
/// The program sweeps `heap_len` bytes from the heap capability's base,
/// skipping capability-free lines via `CLoadTags`, and halts when done.
///
/// # Panics
///
/// Never — all labels are defined by construction.
pub fn sweep_program(heap_base: u64, heap_len: u64, shadow_base: u64) -> Vec<Insn> {
    const HEAP: Reg = Reg(1);
    const SHADOW: Reg = Reg(2);
    const CUR: Reg = Reg(10);
    const PTR: Reg = Reg(11);
    const DEAD: Reg = Reg(12);
    let line_off = XReg(20);
    let heap_len_r = XReg(21);
    let g = XReg(22);
    let tmp = XReg(23);
    let mask = XReg(24);
    let eight = XReg(25);
    let gran_off = XReg(27);
    let tmp2 = XReg(28);
    let bit = XReg(29);

    let mut asm = Asm::new();
    asm.push(Insn::Li {
        xd: heap_len_r,
        imm: heap_len,
    });
    asm.push(Insn::Li {
        xd: eight,
        imm: LINE_SIZE / GRANULE_SIZE,
    });
    asm.push(Insn::Li {
        xd: line_off,
        imm: 0,
    });

    asm.label("line");
    // while (line_off < heap_len)
    asm.push(Insn::Sltu {
        xd: tmp,
        xa: line_off,
        xb: heap_len_r,
    });
    asm.beqz(tmp, "done");
    // mask = CLoadTags(heap_base + line_off)
    asm.push(Insn::Li {
        xd: tmp,
        imm: heap_base,
    });
    asm.push(Insn::Add {
        xd: tmp,
        xa: tmp,
        xb: line_off,
    });
    asm.push(Insn::CSetAddr {
        cd: PTR,
        cs: HEAP,
        xs: tmp,
    });
    asm.push(Insn::CLoadTags {
        xd: mask,
        cbase: PTR,
        offset: 0,
    });
    asm.beqz(mask, "next_line");
    // for (g = 0, gran_off = line_off; g < 8; g++, gran_off += 16)
    asm.push(Insn::Li { xd: g, imm: 0 });
    asm.push(Insn::Add {
        xd: gran_off,
        xa: line_off,
        xb: XReg(0),
    });

    asm.label("gran");
    asm.push(Insn::Sltu {
        xd: tmp,
        xa: g,
        xb: eight,
    });
    asm.beqz(tmp, "next_line");
    // if (!(mask >> g & 1)) continue;
    asm.push(Insn::Srlv {
        xd: tmp,
        xa: mask,
        xb: g,
    });
    asm.push(Insn::Andi {
        xd: tmp,
        xa: tmp,
        imm: 1,
    });
    asm.beqz(tmp, "next_gran");
    // capword = *(heap_base + gran_off)   (CLC)
    asm.push(Insn::Li {
        xd: tmp,
        imm: heap_base,
    });
    asm.push(Insn::Add {
        xd: tmp,
        xa: tmp,
        xb: gran_off,
    });
    asm.push(Insn::CSetAddr {
        cd: PTR,
        cs: HEAP,
        xs: tmp,
    });
    asm.push(Insn::Clc {
        cd: CUR,
        cbase: PTR,
        offset: 0,
    });
    // granule = (base(capword) - heap_base) >> 4
    asm.push(Insn::CGetBase { xd: tmp, cs: CUR });
    asm.push(Insn::Li {
        xd: tmp2,
        imm: heap_base.wrapping_neg(),
    });
    asm.push(Insn::Add {
        xd: tmp,
        xa: tmp,
        xb: tmp2,
    });
    asm.push(Insn::Srl {
        xd: tmp,
        xa: tmp,
        shift: 4,
    });
    // bit = granule & 63; word byte offset = (granule >> 3) & !7
    asm.push(Insn::Andi {
        xd: bit,
        xa: tmp,
        imm: 63,
    });
    asm.push(Insn::Srl {
        xd: tmp,
        xa: tmp,
        shift: 3,
    });
    asm.push(Insn::Andi {
        xd: tmp,
        xa: tmp,
        imm: !7,
    });
    // word = shadow[offset]
    asm.push(Insn::Li {
        xd: tmp2,
        imm: shadow_base,
    });
    asm.push(Insn::Add {
        xd: tmp,
        xa: tmp,
        xb: tmp2,
    });
    asm.push(Insn::CSetAddr {
        cd: PTR,
        cs: SHADOW,
        xs: tmp,
    });
    asm.push(Insn::Ld {
        xd: tmp,
        cbase: PTR,
        offset: 0,
    });
    // if (word >> bit & 1) { *x = cleared; }
    asm.push(Insn::Srlv {
        xd: tmp,
        xa: tmp,
        xb: bit,
    });
    asm.push(Insn::Andi {
        xd: tmp,
        xa: tmp,
        imm: 1,
    });
    asm.beqz(tmp, "next_gran");
    asm.push(Insn::CClearTag { cd: DEAD, cs: CUR });
    asm.push(Insn::Li {
        xd: tmp,
        imm: heap_base,
    });
    asm.push(Insn::Add {
        xd: tmp,
        xa: tmp,
        xb: gran_off,
    });
    asm.push(Insn::CSetAddr {
        cd: PTR,
        cs: HEAP,
        xs: tmp,
    });
    asm.push(Insn::Csc {
        cs: DEAD,
        cbase: PTR,
        offset: 0,
    });

    asm.label("next_gran");
    asm.push(Insn::Addi {
        xd: g,
        xa: g,
        imm: 1,
    });
    asm.push(Insn::Addi {
        xd: gran_off,
        xa: gran_off,
        imm: GRANULE_SIZE as i64,
    });
    asm.jump("gran");

    asm.label("next_line");
    asm.push(Insn::Addi {
        xd: line_off,
        xa: line_off,
        imm: LINE_SIZE as i64,
    });
    asm.jump("line");

    asm.label("done");
    asm.push(Insn::Halt);
    asm.assemble().expect("all labels defined")
}

#[cfg(test)]
mod program_tests {
    use super::*;
    use revoker::{Kernel, NoFilter, ShadowMap, SpaceSource, SweepEngine};

    const HEAP: u64 = 0x1000_0000;
    const LEN: u64 = 1 << 13;

    #[test]
    fn self_contained_program_matches_host_sequenced_sweep() {
        let mut plants = Vec::new();
        for i in 0..16u64 {
            let obj = Capability::root_rw(HEAP + 0x1000 + i * 64, 64);
            plants.push((HEAP + i * 96, obj));
        }
        let mut shadow = ShadowMap::new(HEAP, LEN);
        for i in (0..16u64).step_by(2) {
            shadow.paint(HEAP + 0x1000 + i * 64, 64);
        }

        // Self-contained program with branches.
        let (mut cpu, _h, shadow_reg) = heap_cpu(HEAP, LEN, &plants);
        let shadow_base = cpu.cap(shadow_reg).base();
        revoker_shadow::install_words(&mut cpu, shadow_base, shadow.as_words()).unwrap();
        let program = sweep_program(HEAP, LEN, shadow_base);
        let done = cpu.execute(&program, 10_000_000).unwrap();
        assert!(done, "program must halt");

        // Native reference.
        let mut native = tagmem::AddressSpace::builder()
            .segment(tagmem::SegmentKind::Heap, HEAP, LEN)
            .build();
        for (addr, cap) in &plants {
            native.store_cap(*addr, cap).unwrap();
        }
        let (source, _page_table) = SpaceSource::split(&mut native);
        let stats = SweepEngine::new(Kernel::Unrolled).sweep(source, NoFilter, &shadow);
        assert_eq!(stats.caps_revoked, 8);

        let isa_heap = cpu
            .space()
            .segment(tagmem::SegmentKind::Heap)
            .unwrap()
            .mem();
        let nat_heap = native.segment(tagmem::SegmentKind::Heap).unwrap().mem();
        assert_eq!(isa_heap.tag_count(), nat_heap.tag_count());
        for addr in nat_heap.tagged_addrs() {
            assert!(isa_heap.tag_at(addr), "{addr:#x}");
        }
    }

    #[test]
    fn program_is_loop_structured_not_unrolled() {
        // The whole sweep over an 8 KiB heap fits in a fixed-size program:
        // proof that the control flow is real, not host-side.
        let program = sweep_program(HEAP, LEN, 0x7000_0000);
        assert!(
            program.len() < 64,
            "program should be a compact loop, got {}",
            program.len()
        );
        let big = sweep_program(HEAP, 1 << 30, 0x7000_0000);
        assert_eq!(
            program.len(),
            big.len(),
            "size must not depend on heap size"
        );
    }
}
