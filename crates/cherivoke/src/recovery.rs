//! Crash recovery: the persisted heap image and the recovery report.
//!
//! The crash-consistency story splits the heap's state in two:
//!
//! * **Persistent** — simulated memory (data + tags) and the allocator's
//!   chunk/quarantine bookkeeping. A [`HeapImage`] captures both; the
//!   chaos harness persists one at each injected crash point, standing in
//!   for the survivable RAM image of a real crashed process.
//! * **Process** — registers, the shadow map, the in-flight epoch
//!   machinery and all cumulative counters. These die with the process;
//!   recovery reconstructs what it must (the shadow map, from the image's
//!   sealed chunks) and zeroes the rest.
//!
//! The image's `QuarantinedSealed` chunks are the one record of the
//! sealed set; the [`journal`] crate's write-ahead records say only
//! whether that seal became durable and whether its epoch committed.
//! [`crate::CherivokeHeap::recover`] combines journal + image into a
//! consistent heap, rolling the epoch forward (re-paint the sealed
//! chunks, re-sweep — sweeps are idempotent) or re-opening a sealed
//! quarantine whose `Sealed` record never landed.

use std::collections::HashSet;
use std::sync::Mutex;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use tagmem::CoreDump;

/// Image container magic: `b"CVI"` + format version. There is no reader
/// for older versions: an image lives only as long as its crash artifact.
const IMAGE_MAGIC: [u8; 4] = *b"CVI\x02";

/// Prints `cherivoke: {msg}` to stderr the first time `msg` is seen in
/// this process, and returns whether it printed. Construction-path and
/// degraded-mode warnings funnel through here so a fleet of heaps (or a
/// hot construction loop) warns once, not once per heap.
pub(crate) fn warn_once(msg: &str) -> bool {
    static SEEN: Mutex<Option<HashSet<String>>> = Mutex::new(None);
    let mut guard = SEEN.lock().unwrap_or_else(|e| e.into_inner());
    let seen = guard.get_or_insert_with(HashSet::new);
    if seen.insert(msg.to_string()) {
        eprintln!("cherivoke: {msg}");
        true
    } else {
        false
    }
}

/// One allocator chunk as persisted in a [`HeapImage`], annotated with
/// the quarantine-side state the chunk map alone does not record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageChunkState {
    /// On a free list.
    Free,
    /// Live allocation.
    Allocated,
    /// Quarantined, in the open generation.
    QuarantinedOpen,
    /// Quarantined and sealed into the in-flight epoch.
    QuarantinedSealed,
    /// The wilderness (top) chunk.
    Top,
}

impl ImageChunkState {
    fn tag(self) -> u8 {
        match self {
            ImageChunkState::Free => 0,
            ImageChunkState::Allocated => 1,
            ImageChunkState::QuarantinedOpen => 2,
            ImageChunkState::QuarantinedSealed => 3,
            ImageChunkState::Top => 4,
        }
    }

    fn from_tag(tag: u8) -> Option<ImageChunkState> {
        Some(match tag {
            0 => ImageChunkState::Free,
            1 => ImageChunkState::Allocated,
            2 => ImageChunkState::QuarantinedOpen,
            3 => ImageChunkState::QuarantinedSealed,
            4 => ImageChunkState::Top,
            _ => return None,
        })
    }
}

/// One chunk record: `[addr, addr + size)` in state `state`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageChunk {
    /// Chunk start address.
    pub addr: u64,
    /// Chunk size in bytes.
    pub size: u64,
    /// Allocator + quarantine state.
    pub state: ImageChunkState,
}

/// The persistent half of a heap: memory image plus allocator records.
///
/// See the module docs for what is and is not captured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapImage {
    /// Chunk records, in address order, exactly tiling the heap.
    pub chunks: Vec<ImageChunk>,
    /// The memory image (all sweepable segments, data + tags).
    pub dump: CoreDump,
}

/// The ways a persisted image can fail to decode.
#[derive(Debug)]
#[non_exhaustive]
pub enum ImageError {
    /// The buffer is shorter than its own length fields claim.
    Truncated,
    /// The container magic or version byte is wrong.
    BadMagic,
    /// An unknown chunk-state tag.
    BadState(u8),
    /// The embedded core dump failed to decode.
    Dump(tagmem::snapshot_io::DumpIoError),
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::Truncated => write!(f, "heap image is truncated"),
            ImageError::BadMagic => write!(f, "heap image has a bad magic/version"),
            ImageError::BadState(tag) => write!(f, "heap image has unknown chunk state {tag}"),
            ImageError::Dump(e) => write!(f, "heap image dump section: {e}"),
        }
    }
}

impl std::error::Error for ImageError {}

impl HeapImage {
    /// Serializes the image: magic, chunk records, then the core dump in
    /// the `tagmem` snapshot format.
    pub fn encode(&self) -> Vec<u8> {
        let dump_bytes = tagmem::snapshot_io::encode_dump(&self.dump);
        let mut out = BytesMut::new();
        out.put_slice(&IMAGE_MAGIC);
        out.put_u32_le(self.chunks.len() as u32);
        for chunk in &self.chunks {
            out.put_u64_le(chunk.addr);
            out.put_u64_le(chunk.size);
            out.put_u8(chunk.state.tag());
        }
        out.put_u64_le(dump_bytes.remaining() as u64);
        out.put_slice(dump_bytes.chunk());
        out.freeze().chunk().to_vec()
    }

    /// Decodes an image produced by [`HeapImage::encode`].
    ///
    /// # Errors
    ///
    /// [`ImageError`] on truncation, bad magic, or an undecodable dump
    /// section. Chunk-record *consistency* (tiling, alignment) is the
    /// allocator restore path's job, not the decoder's.
    pub fn decode(bytes: &[u8]) -> Result<HeapImage, ImageError> {
        let mut buf = Bytes::from(bytes.to_vec());
        if buf.remaining() < IMAGE_MAGIC.len() + 4 {
            return Err(ImageError::Truncated);
        }
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&buf.chunk()[..4]);
        buf.advance(4);
        if magic != IMAGE_MAGIC {
            return Err(ImageError::BadMagic);
        }
        let count = buf.get_u32_le() as usize;
        if buf.remaining() < count.checked_mul(17).ok_or(ImageError::Truncated)? {
            return Err(ImageError::Truncated);
        }
        let mut chunks = Vec::with_capacity(count);
        for _ in 0..count {
            let addr = buf.get_u64_le();
            let size = buf.get_u64_le();
            let tag = buf.get_u8();
            let state = ImageChunkState::from_tag(tag).ok_or(ImageError::BadState(tag))?;
            chunks.push(ImageChunk { addr, size, state });
        }
        if buf.remaining() < 8 {
            return Err(ImageError::Truncated);
        }
        let dump_len = buf.get_u64_le() as usize;
        if buf.remaining() < dump_len {
            return Err(ImageError::Truncated);
        }
        let dump_bytes = buf.copy_to_bytes(dump_len);
        let dump = tagmem::snapshot_io::decode_dump(dump_bytes).map_err(ImageError::Dump)?;
        Ok(HeapImage { chunks, dump })
    }
}

/// What [`crate::CherivokeHeap::recover`] decided to do, per the journal
/// classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// The journal tail was clean and the image holds no sealed chunk;
    /// nothing was in flight.
    None,
    /// The journal tail was clean but the image holds sealed chunks: an
    /// epoch died after its seal and before its `Sealed` record became
    /// durable. The sealed chunks were re-opened (rollback — safe because
    /// sealed memory stays quarantined either way).
    ReopenSeal,
    /// The quarantine was durably sealed but the epoch never committed: the
    /// image's sealed chunks were re-painted and the whole heap re-swept
    /// (roll-forward — safe because sweeps are idempotent and nothing
    /// allocates between drain and commit). A crash after the drain
    /// leaves no sealed chunk, so nothing is re-painted. A stop-the-world
    /// (`revoke_now`) epoch rolls forward exactly like an incremental one.
    RollForward,
}

/// Everything a recovery did, plus the safety audit that proves it.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The action the journal classification selected.
    pub action: RecoveryAction,
    /// The interrupted epoch's sequence number on a roll-forward; `None`
    /// otherwise (a re-opened seal has no durable epoch record).
    pub epoch: Option<u64>,
    /// Whether the journal ended in a torn (partially written) frame.
    pub torn_tail: bool,
    /// Chunk records restored into the allocator.
    pub chunks_restored: usize,
    /// Tagged capabilities replayed to rebuild the page table's CapDirty
    /// flags.
    pub caps_replayed: u64,
    /// Sealed chunks returned to the open generation (rollback path).
    pub reopened_chunks: usize,
    /// Ranges re-painted for the roll-forward sweep: the image's
    /// `QuarantinedSealed` chunks (0 when the crash followed the drain).
    pub repainted_ranges: usize,
    /// Capabilities the roll-forward sweep revoked (dangling pointers
    /// the crash had left unswept).
    pub caps_revoked: u64,
    /// The post-recovery full-heap safety audit.
    pub audit: revoker::AuditReport,
}

impl RecoveryReport {
    /// `true` when the recovered heap passed its safety audit.
    pub fn safe(&self) -> bool {
        self.audit.clean()
    }
}

/// The ways recovery can fail. All variants indicate a corrupt or
/// mismatched persisted state — never a condition a retry would fix.
#[derive(Debug)]
#[non_exhaustive]
pub enum RecoveryError {
    /// The heap image failed to decode.
    Image(ImageError),
    /// The journal header was unreadable (torn *frames* are tolerated;
    /// a bad header is not).
    Journal(journal::JournalError),
    /// The decoded chunk records do not form a valid allocator state.
    Restore(cvkalloc::RestoreError),
    /// The fresh heap could not be constructed or the image's memory
    /// could not be replayed into it.
    Heap(crate::HeapError),
    /// A fleet recovery artifact names a tenant outside the fleet (see
    /// [`crate::HeapService::recover`]).
    UnknownTenant {
        /// The tenant index the artifact claimed.
        tenant: usize,
    },
    /// The image's heap extent does not match the recovering config.
    LayoutMismatch {
        /// Heap base/size per the config.
        expected: (u64, u64),
        /// Heap base/size per the image records.
        found: (u64, u64),
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Image(e) => write!(f, "image: {e}"),
            RecoveryError::Journal(e) => write!(f, "journal: {e}"),
            RecoveryError::Restore(e) => write!(f, "allocator restore: {e}"),
            RecoveryError::Heap(e) => write!(f, "heap: {e}"),
            RecoveryError::UnknownTenant { tenant } => {
                write!(f, "recovery artifact names unknown tenant {tenant}")
            }
            RecoveryError::LayoutMismatch { expected, found } => write!(
                f,
                "image heap extent {:#x}+{:#x} does not match config {:#x}+{:#x}",
                found.0, found.1, expected.0, expected.1
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<ImageError> for RecoveryError {
    fn from(e: ImageError) -> Self {
        RecoveryError::Image(e)
    }
}

impl From<journal::JournalError> for RecoveryError {
    fn from(e: journal::JournalError) -> Self {
        RecoveryError::Journal(e)
    }
}

impl From<cvkalloc::RestoreError> for RecoveryError {
    fn from(e: cvkalloc::RestoreError) -> Self {
        RecoveryError::Restore(e)
    }
}

impl From<crate::HeapError> for RecoveryError {
    fn from(e: crate::HeapError) -> Self {
        RecoveryError::Heap(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagmem::{SegmentImage, SegmentKind, TaggedMemory};

    fn sample_image() -> HeapImage {
        let mut mem = TaggedMemory::new(0x1000_0000, 1 << 16);
        mem.write_cap(0x1000_0040, &cheri::Capability::root_rw(0x1000_0100, 64))
            .unwrap();
        HeapImage {
            chunks: vec![
                ImageChunk {
                    addr: 0x1000_0000,
                    size: 0x100,
                    state: ImageChunkState::Allocated,
                },
                ImageChunk {
                    addr: 0x1000_0100,
                    size: 0x40,
                    state: ImageChunkState::QuarantinedOpen,
                },
                ImageChunk {
                    addr: 0x1000_0140,
                    size: 0x40,
                    state: ImageChunkState::QuarantinedSealed,
                },
                ImageChunk {
                    addr: 0x1000_0180,
                    size: (1 << 16) - 0x180,
                    state: ImageChunkState::Top,
                },
            ],
            dump: CoreDump::from_images(vec![SegmentImage {
                kind: SegmentKind::Heap,
                mem,
            }]),
        }
    }

    #[test]
    fn image_round_trips() {
        let img = sample_image();
        let bytes = img.encode();
        let back = HeapImage::decode(&bytes).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn truncated_image_is_rejected_not_panicking() {
        let bytes = sample_image().encode();
        for cut in 0..bytes.len() {
            // Every prefix either errors cleanly or (never) round-trips.
            if let Ok(img) = HeapImage::decode(&bytes[..cut]) {
                panic!("truncated prefix of {cut} bytes decoded: {img:?}");
            }
        }
    }

    #[test]
    fn corrupt_magic_and_state_are_rejected() {
        let mut bytes = sample_image().encode();
        bytes[0] ^= 0xff;
        assert!(matches!(
            HeapImage::decode(&bytes),
            Err(ImageError::BadMagic)
        ));
        // A v1 image (one more byte per chunk record) is not read.
        let mut bytes = sample_image().encode();
        bytes[3] = 1;
        assert!(matches!(
            HeapImage::decode(&bytes),
            Err(ImageError::BadMagic)
        ));
        let mut bytes = sample_image().encode();
        // First record's state tag: magic(4) + count(4) + addr(8) + size(8).
        bytes[24] = 9;
        assert!(matches!(
            HeapImage::decode(&bytes),
            Err(ImageError::BadState(9))
        ));
    }

    #[test]
    fn warn_once_deduplicates_per_process() {
        let key = "recovery-test-unique-warning-a";
        assert!(warn_once(key));
        assert!(!warn_once(key));
        assert!(warn_once("recovery-test-unique-warning-b"));
    }
}
