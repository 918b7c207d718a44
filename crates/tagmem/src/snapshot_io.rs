//! Binary serialisation for core dumps.
//!
//! The paper's methodology dumps process images to disk and sweeps them
//! offline, repeatedly, on a different machine (§5.3). This module gives
//! [`CoreDump`] the same portability: a versioned little-endian format
//! carrying each segment's kind, placement, data bytes and tag bitmap,
//! plus the captured CapDirty page list.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::{CoreDump, SegmentImage, SegmentKind, TaggedMemory, PAGE_SIZE};

/// Format magic: "CVKD" + version 1.
const MAGIC: u32 = 0x4356_4401;

/// The ways decoding a dump can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DumpIoError {
    /// Wrong magic/version word.
    BadMagic {
        /// The value found.
        found: u32,
    },
    /// Unknown segment-kind byte.
    BadSegmentKind {
        /// The value found.
        found: u8,
    },
    /// Buffer ended mid-record, or a field was inconsistent.
    Truncated,
    /// The CapDirty page list is not strictly ascending page-aligned
    /// addresses (unsorted, duplicated or unaligned). Sweeps binary-search
    /// this list, so accepting it would silently skip dirty pages.
    BadDirtyPages,
}

impl core::fmt::Display for DumpIoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DumpIoError::BadMagic { found } => write!(f, "bad dump magic {found:#010x}"),
            DumpIoError::BadSegmentKind { found } => {
                write!(f, "unknown segment kind {found}")
            }
            DumpIoError::Truncated => write!(f, "dump buffer truncated or corrupt"),
            DumpIoError::BadDirtyPages => {
                write!(
                    f,
                    "CapDirty page list is not sorted, unique and page-aligned"
                )
            }
        }
    }
}

impl std::error::Error for DumpIoError {}

fn kind_to_byte(kind: SegmentKind) -> u8 {
    match kind {
        SegmentKind::Heap => 1,
        SegmentKind::Stack => 2,
        SegmentKind::Globals => 3,
        SegmentKind::Shadow => 4,
    }
}

fn byte_to_kind(b: u8) -> Result<SegmentKind, DumpIoError> {
    match b {
        1 => Ok(SegmentKind::Heap),
        2 => Ok(SegmentKind::Stack),
        3 => Ok(SegmentKind::Globals),
        4 => Ok(SegmentKind::Shadow),
        found => Err(DumpIoError::BadSegmentKind { found }),
    }
}

/// Serialises a core dump.
pub fn encode_dump(dump: &CoreDump) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(dump.segments().len() as u32);
    for img in dump.segments() {
        let mem = &img.mem;
        buf.put_u8(kind_to_byte(img.kind));
        buf.put_u64_le(mem.base());
        buf.put_u64_le(mem.len());
        buf.put_slice(mem.data());
        for &w in mem.tag_bitmap() {
            buf.put_u64_le(w);
        }
    }
    let pages = dump.cap_dirty_pages();
    buf.put_u64_le(pages.len() as u64);
    for &p in pages {
        buf.put_u64_le(p);
    }
    buf.freeze()
}

/// Deserialises a core dump.
///
/// # Errors
///
/// [`DumpIoError`] on malformed input; never panics on arbitrary bytes.
pub fn decode_dump(mut buf: Bytes) -> Result<CoreDump, DumpIoError> {
    let need = |buf: &Bytes, n: usize| -> Result<(), DumpIoError> {
        if buf.remaining() < n {
            Err(DumpIoError::Truncated)
        } else {
            Ok(())
        }
    };
    need(&buf, 8)?;
    let magic = buf.get_u32_le();
    if magic != MAGIC {
        return Err(DumpIoError::BadMagic { found: magic });
    }
    let nsegs = buf.get_u32_le() as usize;
    if nsegs > 1024 {
        return Err(DumpIoError::Truncated);
    }
    let mut segments = Vec::with_capacity(nsegs);
    for _ in 0..nsegs {
        need(&buf, 17)?;
        let kind = byte_to_kind(buf.get_u8())?;
        let base = buf.get_u64_le();
        let len = buf.get_u64_le();
        if !base.is_multiple_of(16)
            || !len.is_multiple_of(16)
            || len > (1 << 40)
            || base.checked_add(len).is_none()
        {
            return Err(DumpIoError::Truncated);
        }
        need(&buf, len as usize)?;
        let data = buf.copy_to_bytes(len as usize);
        let tag_words = ((len / 16) as usize).div_ceil(64);
        need(&buf, tag_words * 8)?;
        let mut mem = TaggedMemory::new(base, len);
        if len > 0 {
            mem.write_bytes(base, &data)
                .map_err(|_| DumpIoError::Truncated)?;
        }
        // Tags are restored bit-by-bit through the public API so the
        // memory invariants (bitmap padding) hold by construction.
        for wi in 0..tag_words {
            let w = buf.get_u64_le();
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros() as u64;
                bits &= bits - 1;
                let g = wi as u64 * 64 + b;
                if g * 16 >= len {
                    return Err(DumpIoError::Truncated);
                }
                let addr = base + g * 16;
                let (word, _) = mem
                    .read_cap_word(addr)
                    .map_err(|_| DumpIoError::Truncated)?;
                mem.write_cap_word(addr, word, true)
                    .map_err(|_| DumpIoError::Truncated)?;
            }
        }
        segments.push(SegmentImage { kind, mem });
    }
    need(&buf, 8)?;
    let npages = buf.get_u64_le() as usize;
    if npages > (1 << 28) {
        return Err(DumpIoError::Truncated);
    }
    need(&buf, npages * 8)?;
    let mut pages = Vec::with_capacity(npages);
    for _ in 0..npages {
        pages.push(buf.get_u64_le());
    }
    if !pages.iter().all(|p| p.is_multiple_of(PAGE_SIZE)) || !pages.is_sorted_by(|a, b| a < b) {
        return Err(DumpIoError::BadDirtyPages);
    }
    Ok(CoreDump::from_parts(segments, pages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AddressSpace, SegmentKind};
    use cheri::Capability;

    fn dump() -> CoreDump {
        let mut space = AddressSpace::builder()
            .segment(SegmentKind::Heap, 0x1_0000, 1 << 14)
            .segment(SegmentKind::Stack, 0x8_0000, 1 << 12)
            .build();
        let cap = Capability::root_rw(0x1_0000, 64);
        space.store_cap(0x1_0040, &cap).unwrap();
        space.store_cap(0x8_0100, &cap).unwrap();
        space.store_u64(0x1_2000, 0xfeed).unwrap();
        CoreDump::capture(&space)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let d = dump();
        let back = decode_dump(encode_dump(&d)).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.stats(), d.stats());
        assert_eq!(back.cap_dirty_pages(), d.cap_dirty_pages());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_dump(&dump()).to_vec();
        bytes[1] ^= 0x55;
        assert!(matches!(
            decode_dump(Bytes::from(bytes)),
            Err(DumpIoError::BadMagic { .. })
        ));
    }

    #[test]
    fn truncations_rejected() {
        let bytes = encode_dump(&dump());
        for cut in [0, 7, 8, 9, 100, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_dump(bytes.slice(..cut)).is_err(), "cut {cut}");
        }
        assert!(decode_dump(bytes).is_ok());
    }

    #[test]
    fn bad_segment_kind_rejected() {
        let mut bytes = encode_dump(&dump()).to_vec();
        bytes[8] = 99; // first segment's kind byte
        assert!(matches!(
            decode_dump(Bytes::from(bytes)),
            Err(DumpIoError::BadSegmentKind { found: 99 })
        ));
    }

    #[test]
    fn bad_dirty_page_lists_rejected() {
        // A segment-free dump carrying only a CapDirty page list.
        let encode = |pages: &[u64]| {
            let mut buf = BytesMut::new();
            buf.put_u32_le(MAGIC);
            buf.put_u32_le(0);
            buf.put_u64_le(pages.len() as u64);
            for &p in pages {
                buf.put_u64_le(p);
            }
            buf.freeze()
        };
        assert!(decode_dump(encode(&[0x1000, 0x3000])).is_ok());
        for pages in [
            &[0x3000, 0x1000][..], // unsorted
            &[0x1000, 0x1000],     // duplicated
            &[0x1010],             // not page-aligned
        ] {
            assert_eq!(
                decode_dump(encode(pages)),
                Err(DumpIoError::BadDirtyPages),
                "{pages:x?}"
            );
        }
    }

    #[test]
    fn decoded_dump_is_sweepable() {
        // The point of the format: sweep a deserialised dump offline.
        let d = dump();
        let decoded = decode_dump(encode_dump(&d)).unwrap();
        assert_eq!(decoded.stats().tagged_granules, 2);
    }
}

#[cfg(test)]
mod fuzz {
    use super::*;

    /// Decoding arbitrary byte soup never panics (deterministic xorshift
    /// corpus — tagmem avoids a proptest dependency cycle here).
    #[test]
    fn decode_never_panics_on_garbage() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for len in [0usize, 1, 7, 8, 9, 64, 1024, 8192] {
            let mut bytes = vec![0u8; len];
            for b in &mut bytes {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *b = x as u8;
            }
            let _ = decode_dump(Bytes::from(bytes));
        }
    }

    /// Single-byte corruption of a valid dump never panics.
    #[test]
    fn decode_never_panics_on_corruption() {
        let mut space = crate::AddressSpace::builder()
            .segment(crate::SegmentKind::Heap, 0x1_0000, 4096)
            .build();
        space
            .store_cap(0x1_0040, &cheri::Capability::root_rw(0x1_0000, 64))
            .unwrap();
        let bytes = encode_dump(&crate::CoreDump::capture(&space)).to_vec();
        for pos in (0..bytes.len()).step_by(37) {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= flip;
                let _ = decode_dump(Bytes::from(corrupt));
            }
        }
    }
}
