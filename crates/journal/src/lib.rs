//! Crash-consistent write-ahead journal for CHERIvoke revocation epochs.
//!
//! A revocation epoch is a multi-step state machine (seal the quarantine
//! → paint the shadow map → sweep → drain → commit). A process that dies
//! mid-epoch can leave tagged capabilities pointing into granules the
//! allocator later reuses — exactly the temporal-safety violation
//! CHERIvoke exists to prevent. This crate records each transition as an
//! append-only, checksummed record so recovery
//! (`cherivoke::CherivokeHeap::recover`) can deterministically classify
//! the interrupted epoch and either roll it forward (sweeps are
//! idempotent) or re-open a partially sealed quarantine. An epoch writes
//! three frames — [`Record::EpochOpen`], [`Record::Sealed`] and
//! [`Record::EpochCommitted`] — and recovery reads every field of each.
//!
//! # On-disk format (version 2)
//!
//! The file is mmap-friendly: a fixed 24-byte header followed by
//! little-endian, length-prefixed frames. The header follows the
//! magic/version/backward-compat-buffer convention used by the repo's
//! other binary formats:
//!
//! ```text
//! offset 0   magic      b"CVJ"
//! offset 3   version    2
//! offset 4   alignment  4 zero bytes (reserved, keeps frames 8-aligned)
//! offset 8   buffer     16 zero bytes (reserved for future header fields)
//! ```
//!
//! Each frame is `[u32 len][u8 kind][payload][u32 checksum]` where `len`
//! counts the kind byte plus the payload, and the checksum is FNV-1a/32
//! over the kind byte plus the payload. The reader is tolerant: a torn
//! or corrupt tail (short write at crash time) terminates the scan and is
//! reported via [`ReadOutcome::torn_tail`] rather than an error — only a
//! bad header or a version other than [`VERSION`] is fatal. There is no
//! reader for older versions: a journal lives only as long as the crash
//! artifact it belongs to.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Journal file magic: the first three header bytes.
pub const MAGIC: [u8; 3] = *b"CVJ";

/// Current journal format version.
pub const VERSION: u8 = 2;

/// Fixed header length in bytes (magic + version + alignment + buffer).
pub const HEADER_LEN: usize = 24;

/// Largest frame the reader will accept; anything longer is treated as a
/// corrupt tail. Bounds allocation when scanning damaged files.
const MAX_FRAME_LEN: u32 = 1 << 24;

const KIND_EPOCH_OPEN: u8 = 1;
const KIND_SEALED: u8 = 2;
const KIND_EPOCH_COMMITTED: u8 = 3;

/// One epoch state-machine transition. Recovery reads every field of
/// every kind: which epoch opened, what it sealed, whether it committed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A revocation epoch opened. Written before the seal is observable.
    EpochOpen {
        /// Monotonic epoch sequence number.
        epoch: u64,
    },
    /// The quarantine was sealed; `ranges` is the exact set of address
    /// ranges moved into the sealed list. Written before the paint.
    Sealed {
        /// Epoch this sealing belongs to.
        epoch: u64,
        /// Sealed `(start, len)` ranges, in seal order.
        ranges: Vec<(u64, u64)>,
    },
    /// The epoch drained its sealed quarantine and cleared the shadow
    /// map; the heap is back in a steady state.
    EpochCommitted {
        /// Epoch that committed.
        epoch: u64,
    },
}

impl Record {
    fn kind(&self) -> u8 {
        match self {
            Record::EpochOpen { .. } => KIND_EPOCH_OPEN,
            Record::Sealed { .. } => KIND_SEALED,
            Record::EpochCommitted { .. } => KIND_EPOCH_COMMITTED,
        }
    }

    /// The epoch this record belongs to.
    pub fn epoch(&self) -> u64 {
        match *self {
            Record::EpochOpen { epoch }
            | Record::Sealed { epoch, .. }
            | Record::EpochCommitted { epoch } => epoch,
        }
    }

    fn encode_payload(&self, out: &mut BytesMut) {
        out.put_u64_le(self.epoch());
        if let Record::Sealed { ranges, .. } = self {
            out.put_u32_le(ranges.len() as u32);
            for (start, len) in ranges {
                out.put_u64_le(*start);
                out.put_u64_le(*len);
            }
        }
    }

    /// Decodes a payload; `None` on any structural mismatch (treated as
    /// a corrupt record by the reader).
    fn decode(kind: u8, payload: &[u8]) -> Option<Record> {
        let mut buf = Bytes::from(payload.to_vec());
        if buf.remaining() < 8 {
            return None;
        }
        let epoch = buf.get_u64_le();
        let rec = match kind {
            KIND_EPOCH_OPEN => Record::EpochOpen { epoch },
            KIND_EPOCH_COMMITTED => Record::EpochCommitted { epoch },
            KIND_SEALED => {
                if buf.remaining() < 4 {
                    return None;
                }
                let count = buf.get_u32_le() as usize;
                if buf.remaining() < count.checked_mul(16)? {
                    return None;
                }
                let ranges = (0..count)
                    .map(|_| (buf.get_u64_le(), buf.get_u64_le()))
                    .collect();
                Record::Sealed { epoch, ranges }
            }
            _ => return None,
        };
        (buf.remaining() == 0).then_some(rec)
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

fn encode_header(out: &mut BytesMut) {
    out.put_slice(&MAGIC);
    out.put_u8(VERSION);
    out.put_slice(&[0u8; 4]); // alignment
    out.put_slice(&[0u8; 16]); // backward-compat buffer
}

/// Encodes one record as a standalone frame.
fn encode_frame(rec: &Record) -> Vec<u8> {
    let mut body = BytesMut::new();
    body.put_u8(rec.kind());
    rec.encode_payload(&mut body);
    let body = body.freeze();
    let mut frame = BytesMut::with_capacity(body.len() + 8);
    frame.put_u32_le(body.len() as u32);
    frame.put_slice(&body);
    frame.put_u32_le(fnv1a32(&body));
    frame.freeze().to_vec()
}

enum Sink {
    File(File),
    Memory(Vec<u8>),
}

/// An append-only journal writer.
///
/// Appends are **buffered**: [`Journal::append`] encodes into an
/// internal buffer and costs no syscall; [`Journal::flush`] writes the
/// pending frames in one `write(2)`. Durability is therefore the
/// *caller's* schedule — the heap flushes before any armed crash point
/// can fire (the write-ahead contract recovery relies on) and at epoch
/// commit, which prices the whole journal at about one syscall per
/// revocation epoch on the service hot path. A crash without an armed crash point leaves no
/// heap image to recover from, so pending frames lost with it classify
/// exactly like a torn tail. Dropping a journal best-effort flushes.
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
        let mut header = BytesMut::new();
        encode_header(&mut header);
        file.write_all(&header.freeze())?;
        file.flush()?;
        Ok(Journal {
            sink: Sink::File(file),
            pending: Vec::new(),
        })
    }

    /// An in-memory journal (tests and the in-process crash probes);
    /// retrieve the encoded bytes with [`Journal::into_bytes`].
    pub fn in_memory() -> Journal {
        let mut header = BytesMut::new();
        encode_header(&mut header);
        Journal {
            sink: Sink::Memory(header.freeze().to_vec()),
            pending: Vec::new(),
        }
    }

    /// Appends one record to the buffer (memory sinks absorb it
    /// immediately). Call [`Journal::flush`] at a durability point.
    pub fn append(&mut self, rec: &Record) -> io::Result<()> {
        let frame = encode_frame(rec);
        match &mut self.sink {
            Sink::File(_) => self.pending.extend_from_slice(&frame),
            Sink::Memory(buf) => buf.extend_from_slice(&frame),
        }
        Ok(())
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
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < 4 {
            outcome.torn_tail = true;
            break;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_FRAME_LEN {
            outcome.torn_tail = true;
            break;
        }
        let len = len as usize;
        if rest.len() < 4 + len + 4 {
            outcome.torn_tail = true;
            break;
        }
        let body = &rest[4..4 + len];
        let stored = u32::from_le_bytes(rest[4 + len..4 + len + 4].try_into().expect("4 bytes"));
        if fnv1a32(body) != stored {
            outcome.torn_tail = true;
            break;
        }
        match Record::decode(body[0], &body[1..]) {
            Some(rec) => outcome.records.push(rec),
            None => {
                outcome.torn_tail = true;
                break;
            }
        }
        pos += 4 + len + 4;
    }
    Ok(outcome)
}

/// What the journal tail says about the epoch in flight when the
/// process died. Drives the recovery decision table (DESIGN.md §20).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailState {
    /// No epoch was in flight: either no records at all or the last
    /// epoch committed. Nothing to do.
    Clean,
    /// An epoch opened but no complete `Sealed` record exists (the
    /// seal itself may have been interrupted, or its record torn).
    /// Recovery re-opens the partially sealed quarantine — safe because
    /// sealed memory stays quarantined either way.
    SealInterrupted {
        /// The interrupted epoch.
        epoch: u64,
    },
    /// The quarantine was durably sealed but the epoch never committed.
    /// Recovery rolls forward: re-paint the recorded ranges, re-sweep the
    /// whole heap (idempotent), then drain.
    SweepInterrupted {
        /// The interrupted epoch.
        epoch: u64,
        /// The sealed ranges to re-paint.
        ranges: Vec<(u64, u64)>,
    },
}

/// Classifies a record stream into the recovery decision table.
pub fn classify(records: &[Record]) -> TailState {
    // The open epoch, and its sealed ranges once the seal landed.
    let mut open: Option<u64> = None;
    let mut sealed: Option<&[(u64, u64)]> = None;
    for rec in records {
        match rec {
            Record::EpochOpen { epoch } => {
                open = Some(*epoch);
                sealed = None;
            }
            Record::Sealed { epoch, ranges } => {
                if open == Some(*epoch) {
                    sealed = Some(ranges);
                }
            }
            Record::EpochCommitted { epoch } => {
                if open == Some(*epoch) {
                    open = None;
                }
            }
        }
    }
    match (open, sealed) {
        (None, _) => TailState::Clean,
        (Some(epoch), None) => TailState::SealInterrupted { epoch },
        (Some(epoch), Some(ranges)) => TailState::SweepInterrupted {
            epoch,
            ranges: ranges.to_vec(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::EpochOpen { epoch: 7 },
            Record::Sealed {
                epoch: 7,
                ranges: vec![(0x1000, 0x200), (0x4000, 0x80)],
            },
            Record::EpochCommitted { epoch: 7 },
        ]
    }

    fn encode_all(records: &[Record]) -> Vec<u8> {
        let mut j = Journal::in_memory();
        for r in records {
            j.append(r).expect("in-memory append");
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
            for r in &records {
                j.append(r).expect("append");
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
        // Only the current version parses: a newer one, and the v1
        // layout (whose frames this reader would misparse), are typed
        // errors rather than torn tails.
        for version in [VERSION + 1, 1] {
            let mut bytes = encode_all(&sample_records());
            bytes[3] = version;
            assert_eq!(
                read_bytes(&bytes),
                Err(JournalError::UnsupportedVersion(version))
            );
        }
    }

    #[test]
    fn classify_clean_when_empty_or_committed() {
        assert_eq!(classify(&[]), TailState::Clean);
        assert_eq!(classify(&sample_records()), TailState::Clean);
    }

    #[test]
    fn classify_seal_interrupted_without_sealed_record() {
        let records = vec![Record::EpochOpen { epoch: 3 }];
        assert_eq!(classify(&records), TailState::SealInterrupted { epoch: 3 });
    }

    #[test]
    fn classify_sweep_interrupted_after_seal() {
        let records = vec![
            Record::EpochOpen { epoch: 4 },
            Record::Sealed {
                epoch: 4,
                ranges: vec![(0x100, 0x40)],
            },
        ];
        assert_eq!(
            classify(&records),
            TailState::SweepInterrupted {
                epoch: 4,
                ranges: vec![(0x100, 0x40)],
            }
        );
    }

    #[test]
    fn classify_torn_sealed_record_falls_back_to_seal_interrupted() {
        // A torn Sealed frame means the reader only sees EpochOpen:
        // the safe classification is SealInterrupted (re-open the seal).
        let open = Record::EpochOpen { epoch: 9 };
        let open_only_len = encode_all(std::slice::from_ref(&open)).len();
        let bytes = encode_all(&[
            open,
            Record::Sealed {
                epoch: 9,
                ranges: vec![(0x1000, 0x100)],
            },
        ]);
        let torn = &bytes[..open_only_len + 5]; // tear inside the sealed frame
        let outcome = read_bytes(torn).expect("header ok");
        assert!(outcome.torn_tail);
        assert_eq!(
            classify(&outcome.records),
            TailState::SealInterrupted { epoch: 9 }
        );
    }
}
