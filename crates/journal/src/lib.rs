//! Crash-consistent write-ahead journal for CHERIvoke revocation epochs.
//!
//! A revocation epoch is a multi-step state machine (seal the quarantine
//! → paint the shadow map → sweep → drain → commit). A process that dies
//! mid-epoch can leave tagged capabilities pointing into granules the
//! allocator later reuses — exactly the temporal-safety violation
//! CHERIvoke exists to prevent. This crate records each epoch's seal and
//! commit as an append-only, checksummed record so recovery
//! (`cherivoke::CherivokeHeap::recover`) can deterministically classify
//! the interrupted epoch and either roll it forward (sweeps are
//! idempotent) or re-open a sealed quarantine whose seal never became
//! durable. An epoch writes two frames — [`Record::Sealed`] and
//! [`Record::EpochCommitted`] — and each names only its epoch: the sealed
//! set itself is recorded once, by the heap image's quarantine chunks.
//!
//! # On-disk format (version 3)
//!
//! The file is mmap-friendly: a fixed 24-byte header followed by
//! little-endian, fixed-size frames. The header follows the
//! magic/version/backward-compat-buffer convention used by the repo's
//! other binary formats:
//!
//! ```text
//! offset 0   magic      b"CVJ"
//! offset 3   version    3
//! offset 4   alignment  4 zero bytes (reserved, keeps frames 8-aligned)
//! offset 8   buffer     16 zero bytes (reserved for future header fields)
//! ```
//!
//! Each frame is [`FRAME_LEN`] = 17 bytes, `[u32 len=9][u8 kind][u64
//! epoch][u32 checksum]`, where the checksum is FNV-1a/32 over the kind
//! byte plus the epoch. The reader is tolerant: a torn or corrupt tail
//! (short write at crash time, a `len` other than 9, a bad checksum or
//! kind) terminates the scan and is reported via
//! [`ReadOutcome::torn_tail`] rather than an error — only a bad header or
//! a version other than [`VERSION`] is fatal. There is no reader for
//! older versions: a journal lives only as long as the crash artifact it
//! belongs to.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::Path;

use bytes::{BufMut, BytesMut};

/// Journal file magic: the first three header bytes.
pub const MAGIC: [u8; 3] = *b"CVJ";

/// Current journal format version.
pub const VERSION: u8 = 3;

/// Fixed header length in bytes (magic + version + alignment + buffer).
pub const HEADER_LEN: usize = 24;

/// The `len` field of every frame: the kind byte plus the `u64` epoch.
const BODY_LEN: usize = 9;

/// Encoded length of every frame: `[u32 len][u8 kind][u64 epoch][u32
/// checksum]`.
pub const FRAME_LEN: usize = 4 + BODY_LEN + 4;

const KIND_SEALED: u8 = 1;
const KIND_EPOCH_COMMITTED: u8 = 2;

/// One epoch state-machine transition. Recovery reads every field of
/// every kind: which epoch sealed, and whether it committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// The quarantine was sealed for an epoch. Written after the seal
    /// and before the paint; the sealed ranges are the allocator's
    /// sealed list, which the heap image persists.
    Sealed {
        /// Monotonic epoch sequence number.
        epoch: u64,
    },
    /// The epoch drained its sealed quarantine and cleared the shadow
    /// map; the heap is back in a steady state.
    EpochCommitted {
        /// Epoch that committed.
        epoch: u64,
    },
}

impl Record {
    /// The epoch this record belongs to.
    pub fn epoch(&self) -> u64 {
        match *self {
            Record::Sealed { epoch } | Record::EpochCommitted { epoch } => epoch,
        }
    }

    /// Encodes the record as one frame.
    fn encode(&self) -> [u8; FRAME_LEN] {
        let kind = match self {
            Record::Sealed { .. } => KIND_SEALED,
            Record::EpochCommitted { .. } => KIND_EPOCH_COMMITTED,
        };
        let mut frame = [0u8; FRAME_LEN];
        frame[..4].copy_from_slice(&(BODY_LEN as u32).to_le_bytes());
        frame[4] = kind;
        frame[5..13].copy_from_slice(&self.epoch().to_le_bytes());
        let checksum = fnv1a32(&frame[4..13]);
        frame[13..].copy_from_slice(&checksum.to_le_bytes());
        frame
    }

    /// Decodes one frame; `None` on a wrong `len`, a checksum mismatch
    /// or an unknown kind (treated as a corrupt tail by the reader).
    fn decode(frame: &[u8; FRAME_LEN]) -> Option<Record> {
        let len = u32::from_le_bytes(frame[..4].try_into().ok()?);
        let checksum = u32::from_le_bytes(frame[13..].try_into().ok()?);
        if len != BODY_LEN as u32 || fnv1a32(&frame[4..13]) != checksum {
            return None;
        }
        let epoch = u64::from_le_bytes(frame[5..13].try_into().ok()?);
        match frame[4] {
            KIND_SEALED => Some(Record::Sealed { epoch }),
            KIND_EPOCH_COMMITTED => Some(Record::EpochCommitted { epoch }),
            _ => None,
        }
    }
}

/// FNV-1a/32 over `bytes` — cheap, dependency-free frame checksum.
fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

fn encode_header() -> Vec<u8> {
    let mut out = BytesMut::with_capacity(HEADER_LEN);
    out.put_slice(&MAGIC);
    out.put_u8(VERSION);
    out.put_slice(&[0u8; 4]); // alignment
    out.put_slice(&[0u8; 16]); // backward-compat buffer
    out.freeze().to_vec()
}

enum Sink {
    File(File),
    Memory(Vec<u8>),
}

/// An append-only journal writer.
///
/// Appends are **buffered**: [`Journal::append`] encodes into an
/// internal buffer and costs no syscall, so it cannot fail;
/// [`Journal::flush`] writes the pending frames in one `write(2)` and
/// reports any write error. Durability is therefore the *caller's*
/// schedule — the heap flushes before any armed crash point can fire
/// (the write-ahead contract recovery relies on) and at epoch commit
/// once a few KiB are pending. A crash without an armed crash point
/// leaves no heap image to recover from, so pending frames lost with it
/// classify exactly like a torn tail. Dropping a journal best-effort
/// flushes.
pub struct Journal {
    sink: Sink,
    /// Encoded frames not yet written to a file sink.
    pending: Vec<u8>,
}

impl Drop for Journal {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field(
                "backing",
                &match self.sink {
                    Sink::File(_) => "file",
                    Sink::Memory(_) => "memory",
                },
            )
            .finish()
    }
}

impl Journal {
    /// Creates (truncating) a journal file at `path` and writes the
    /// header.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Journal> {
        let path = path.as_ref();
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&encode_header())?;
        file.flush()?;
        Ok(Journal {
            sink: Sink::File(file),
            pending: Vec::new(),
        })
    }

    /// An in-memory journal (tests and the in-process crash probes);
    /// retrieve the encoded bytes with [`Journal::into_bytes`].
    pub fn in_memory() -> Journal {
        Journal {
            sink: Sink::Memory(encode_header()),
            pending: Vec::new(),
        }
    }

    /// Appends one [`FRAME_LEN`]-byte frame to the buffer (memory sinks
    /// absorb it immediately). Call [`Journal::flush`] at a durability
    /// point; write errors surface there.
    pub fn append(&mut self, rec: Record) {
        let frame = rec.encode();
        match &mut self.sink {
            Sink::File(_) => self.pending.extend_from_slice(&frame),
            Sink::Memory(buf) => buf.extend_from_slice(&frame),
        }
    }

    /// Writes every pending frame to the backing file in one
    /// `write(2)`. No-op for memory sinks and empty buffers. This is
    /// the durability point: a frame is guaranteed to survive `abort()`
    /// only once a flush after its append has returned. A flush torn
    /// mid-write by a crash is classified exactly like any torn tail:
    /// whole frames survive, the partial frame is dropped.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        if let Sink::File(file) = &mut self.sink {
            file.write_all(&self.pending)?;
            file.flush()?;
        }
        self.pending.clear();
        Ok(())
    }

    /// Bytes appended but not yet flushed to the sink. Callers batching
    /// flushes (one `write(2)` per few KiB rather than per epoch) poll
    /// this to decide when the buffer is worth a syscall.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Consumes an in-memory journal, returning its encoded bytes
    /// (header included).
    ///
    /// # Panics
    ///
    /// On a file-backed journal ([`Journal::create`]): its frames live in
    /// its file, which dropping the journal flushes; read them back with
    /// the file's bytes and [`read_bytes`].
    pub fn into_bytes(mut self) -> Vec<u8> {
        match &mut self.sink {
            Sink::Memory(buf) => std::mem::take(buf),
            Sink::File(_) => panic!("Journal::into_bytes on a file-backed journal"),
        }
    }
}

/// Why a journal could not be opened at all. Torn or corrupt *records*
/// are not errors (see [`ReadOutcome::torn_tail`]); only an unusable
/// header is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The file is shorter than the fixed header.
    TruncatedHeader,
    /// The magic bytes do not match [`MAGIC`].
    BadMagic,
    /// The header version is not [`VERSION`].
    UnsupportedVersion(u8),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::TruncatedHeader => write!(f, "journal shorter than header"),
            JournalError::BadMagic => write!(f, "journal magic mismatch"),
            JournalError::UnsupportedVersion(v) => {
                write!(f, "journal version {v} unsupported (expected {VERSION})")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// The result of scanning a journal: every intact record in order, plus
/// whether the scan stopped early at a torn or corrupt tail.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Records that passed framing and checksum validation, in append
    /// order.
    pub records: Vec<Record>,
    /// `true` if trailing bytes existed that did not form a valid frame
    /// — the expected signature of a crash mid-`append`.
    pub torn_tail: bool,
}

/// Scans journal `bytes` (header included). Never panics on garbage:
/// structural damage past the header terminates the scan via
/// [`ReadOutcome::torn_tail`].
pub fn read_bytes(bytes: &[u8]) -> Result<ReadOutcome, JournalError> {
    if bytes.len() < HEADER_LEN {
        return Err(JournalError::TruncatedHeader);
    }
    if bytes[..3] != MAGIC {
        return Err(JournalError::BadMagic);
    }
    let version = bytes[3];
    if version != VERSION {
        return Err(JournalError::UnsupportedVersion(version));
    }
    let mut outcome = ReadOutcome::default();
    for frame in bytes[HEADER_LEN..].chunks(FRAME_LEN) {
        match frame.try_into().ok().and_then(Record::decode) {
            Some(rec) => outcome.records.push(rec),
            None => {
                outcome.torn_tail = true;
                break;
            }
        }
    }
    Ok(outcome)
}

/// What the journal tail says about the epoch in flight when the
/// process died. Drives the recovery decision table (DESIGN.md §20).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailState {
    /// No durably sealed epoch was in flight: either no records at all
    /// or the last `Sealed` epoch committed. Any sealed chunks the heap
    /// image still holds were sealed by an epoch whose `Sealed` frame
    /// never became durable; recovery re-opens them — safe because
    /// sealed memory stays quarantined either way.
    Clean,
    /// The quarantine was durably sealed but the epoch never committed.
    /// Recovery rolls forward: re-paint the image's sealed chunks,
    /// re-sweep the whole heap (idempotent), then drain.
    SweepInterrupted {
        /// The interrupted epoch.
        epoch: u64,
    },
}

/// Classifies a record stream into the recovery decision table: the
/// last `Sealed` epoch is interrupted unless an `EpochCommitted` for
/// that same epoch follows it.
pub fn classify(records: &[Record]) -> TailState {
    let mut open: Option<u64> = None;
    for rec in records {
        match *rec {
            Record::Sealed { epoch } => open = Some(epoch),
            Record::EpochCommitted { epoch } => {
                if open == Some(epoch) {
                    open = None;
                }
            }
        }
    }
    match open {
        None => TailState::Clean,
        Some(epoch) => TailState::SweepInterrupted { epoch },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Sealed { epoch: 6 },
            Record::EpochCommitted { epoch: 6 },
            Record::Sealed { epoch: 7 },
            Record::EpochCommitted { epoch: 7 },
        ]
    }

    fn encode_all(records: &[Record]) -> Vec<u8> {
        let mut j = Journal::in_memory();
        for &r in records {
            j.append(r);
        }
        j.into_bytes()
    }

    #[test]
    fn roundtrip_preserves_records() {
        let records = sample_records();
        let bytes = encode_all(&records);
        let outcome = read_bytes(&bytes).expect("valid header");
        assert!(!outcome.torn_tail);
        assert_eq!(outcome.records, records);
    }

    #[test]
    fn file_backed_roundtrip() {
        let dir = std::env::temp_dir().join("cvj-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("roundtrip-{}.cvj", std::process::id()));
        let records = sample_records();
        {
            let mut j = Journal::create(&path).expect("create");
            for &r in &records {
                j.append(r);
            }
        }
        let bytes = std::fs::read(&path).expect("io");
        let outcome = read_bytes(&bytes).expect("header");
        assert!(!outcome.torn_tail);
        assert_eq!(outcome.records, records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn into_bytes_refuses_a_file_backed_journal() {
        let dir = std::env::temp_dir().join("cvj-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("into-bytes-{}.cvj", std::process::id()));
        let j = Journal::create(&path).expect("create");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| j.into_bytes()));
        std::fs::remove_file(&path).ok();
        assert!(outcome.is_err(), "a file journal's bytes are in its file");
    }

    #[test]
    fn torn_tail_is_reported_not_fatal() {
        let records = sample_records();
        let full = encode_all(&records);
        // Byte offsets at which a cut lands exactly between frames: a
        // truncation there is indistinguishable from a shorter journal.
        let boundaries: Vec<usize> = (0..records.len())
            .map(|n| encode_all(&records[..n]).len())
            .collect();
        for cut in HEADER_LEN..full.len() {
            let outcome = read_bytes(&full[..cut]).expect("valid header");
            let on_boundary = boundaries.contains(&cut);
            assert_eq!(
                outcome.torn_tail, !on_boundary,
                "cut at {cut}: torn_tail mis-reported"
            );
            // The intact prefix always parses.
            let parsed = outcome.records.len();
            assert_eq!(outcome.records, records[..parsed]);
        }
    }

    #[test]
    fn corruption_never_panics() {
        let full = encode_all(&sample_records());
        for i in 0..full.len() {
            for bit in 0..8 {
                let mut bytes = full.clone();
                bytes[i] ^= 1 << bit;
                // Must not panic; header damage errors, body damage
                // terminates the scan.
                let _ = read_bytes(&bytes);
            }
        }
    }

    #[test]
    fn bad_header_rejected() {
        assert_eq!(read_bytes(&[]), Err(JournalError::TruncatedHeader));
        let mut bytes = encode_all(&[]);
        bytes[0] = b'X';
        assert_eq!(read_bytes(&bytes), Err(JournalError::BadMagic));
        // Only the current version parses: a newer one, and the v1 and
        // v2 layouts (whose variable-length frames this reader would
        // misparse), are typed errors rather than torn tails.
        for version in [VERSION + 1, 1, 2] {
            let mut bytes = encode_all(&sample_records());
            bytes[3] = version;
            assert_eq!(
                read_bytes(&bytes),
                Err(JournalError::UnsupportedVersion(version))
            );
        }
    }

    #[test]
    fn every_record_is_one_fixed_frame() {
        assert_eq!(FRAME_LEN, 17);
        for rec in [
            Record::Sealed { epoch: u64::MAX },
            Record::EpochCommitted { epoch: 0 },
        ] {
            assert_eq!(encode_all(&[rec]).len(), HEADER_LEN + FRAME_LEN, "{rec:?}");
        }
        // A frame whose `len` is not 9 is a torn tail, even when its
        // checksum (which covers only kind and epoch) still matches.
        let records = sample_records();
        let good = encode_all(&records);
        for len in [0u32, 1, 8, 10, 17, 1 << 24, u32::MAX] {
            let mut bytes = good.clone();
            let at = HEADER_LEN + FRAME_LEN;
            bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
            let outcome = read_bytes(&bytes).expect("valid header");
            assert!(outcome.torn_tail, "len {len}");
            assert_eq!(outcome.records, records[..1], "len {len}");
        }
    }

    #[test]
    fn classify_clean_when_empty_or_committed() {
        assert_eq!(classify(&[]), TailState::Clean);
        assert_eq!(classify(&sample_records()), TailState::Clean);
    }

    #[test]
    fn classify_uncommitted_sealed_survives_a_stale_commit() {
        // An uncommitted Sealed is SweepInterrupted, and a commit of a
        // different epoch does not clear it.
        let records = vec![
            Record::EpochCommitted { epoch: 2 },
            Record::Sealed { epoch: 3 },
            Record::EpochCommitted { epoch: 2 },
        ];
        assert_eq!(classify(&records), TailState::SweepInterrupted { epoch: 3 });
    }

    #[test]
    fn classify_sweep_interrupted_after_seal() {
        let records = vec![
            Record::Sealed { epoch: 3 },
            Record::EpochCommitted { epoch: 3 },
            Record::Sealed { epoch: 4 },
        ];
        assert_eq!(classify(&records), TailState::SweepInterrupted { epoch: 4 });
    }

    #[test]
    fn classify_torn_sealed_record_falls_back_to_clean() {
        // A torn Sealed frame means the reader sees only the previous,
        // committed epoch: the tail is Clean, and recovery re-opens
        // whatever sealed chunks the image holds.
        let committed = [
            Record::Sealed { epoch: 8 },
            Record::EpochCommitted { epoch: 8 },
        ];
        let committed_len = encode_all(&committed).len();
        let bytes = encode_all(&[committed[0], committed[1], Record::Sealed { epoch: 9 }]);
        let torn = &bytes[..committed_len + 5]; // tear inside the sealed frame
        let outcome = read_bytes(torn).expect("header ok");
        assert!(outcome.torn_tail);
        assert_eq!(outcome.records, committed);
        assert_eq!(classify(&outcome.records), TailState::Clean);
    }
}
