//! Structured lifecycle events from the revocation machinery.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What happened: one structured record per interesting action of the
/// revocation machinery. Marked `non_exhaustive` so new lifecycle events
/// can be added without breaking downstream matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventKind {
    /// A sweep pass completed.
    Sweep {
        /// Bytes of address space inspected.
        bytes_swept: u64,
        /// Capabilities examined.
        caps_inspected: u64,
        /// Capabilities found pointing into painted shadow and cleared.
        caps_revoked: u64,
        /// Wall-clock duration of the sweep in nanoseconds.
        duration_ns: u64,
        /// Worker threads the sweep ran on.
        workers: usize,
        /// Stable name of the revoke kernel that executed the sweep
        /// (e.g. `"fast"`, `"simd"`).
        kernel: &'static str,
    },
    /// A revocation epoch opened: quarantine sealed and shadow painted.
    EpochOpened {
        /// Shard the epoch belongs to (0 for a single-heap run).
        shard: usize,
        /// Bytes of quarantine painted into the shadow map.
        painted_bytes: u64,
    },
    /// A revocation epoch retired: sweep done, quarantine returned to
    /// the free bins.
    EpochRetired {
        /// Shard the epoch belonged to (0 for a single-heap run).
        shard: usize,
        /// End-to-end epoch duration in nanoseconds.
        duration_ns: u64,
    },
    /// A shard's open quarantine was sealed for the next epoch.
    QuarantineSealed {
        /// Shard whose quarantine was sealed.
        shard: usize,
        /// Bytes sealed.
        bytes: u64,
        /// Distinct address ranges sealed.
        ranges: u64,
    },
    /// One shard's paint was swept out of *another* shard's memory
    /// (cross-shard capability flow).
    ForeignSweep {
        /// Shard whose quarantine was painted.
        painting_shard: usize,
        /// Shard whose memory was swept.
        swept_shard: usize,
        /// Capabilities revoked in the foreign shard.
        caps_revoked: u64,
    },
    /// Allocation pressure forced a synchronous revocation.
    OomRevocation {
        /// Shard that ran out of memory.
        shard: usize,
    },
    /// A fault-injection point fired (chaos testing; see the
    /// `faultinject` crate).
    FaultInjected {
        /// Stable name of the fault point (`faultinject::FaultPoint::name`).
        point: &'static str,
        /// Shard the fault was injected into (0 when not shard-scoped).
        shard: usize,
    },
    /// A sweep recovered from panicking chunks by retrying them on the
    /// sequential reference kernel.
    SweepRetried {
        /// Chunks that panicked and were retried.
        chunks: u64,
        /// Kernel whose chunks panicked (the retry always runs `"unrolled"`).
        kernel: &'static str,
    },
    /// The supervisor restarted a dead or stalled background revoker.
    RevokerRestarted {
        /// Generation number of the replacement revoker thread.
        generation: u64,
        /// Why: `"death"` (thread exited) or `"stall"` (watchdog deadline
        /// missed).
        cause: &'static str,
    },
    /// Quarantine overflow or allocation failure forced an emergency
    /// synchronous sweep.
    EmergencySweep {
        /// Shard under memory pressure.
        shard: usize,
    },
    /// A crashed heap was rebuilt from its persisted image and epoch
    /// journal (see the `cherivoke` crate's recovery module).
    Recovery {
        /// Shard that recovered (0 for a standalone heap).
        shard: usize,
        /// The recovery decision: `"none"`, `"reopen-seal"` or
        /// `"roll-forward"`.
        action: &'static str,
        /// Dangling capabilities the roll-forward sweep revoked.
        caps_revoked: u64,
    },
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::Sweep {
                bytes_swept,
                caps_inspected,
                caps_revoked,
                duration_ns,
                workers,
                kernel,
            } => write!(
                f,
                "sweep {bytes_swept}B inspected={caps_inspected} revoked={caps_revoked} \
                 {duration_ns}ns workers={workers} kernel={kernel}"
            ),
            EventKind::EpochOpened {
                shard,
                painted_bytes,
            } => write!(f, "epoch-open shard={shard} painted={painted_bytes}B"),
            EventKind::EpochRetired { shard, duration_ns } => {
                write!(f, "epoch-retire shard={shard} {duration_ns}ns")
            }
            EventKind::QuarantineSealed {
                shard,
                bytes,
                ranges,
            } => write!(f, "quarantine-seal shard={shard} {bytes}B ranges={ranges}"),
            EventKind::ForeignSweep {
                painting_shard,
                swept_shard,
                caps_revoked,
            } => write!(
                f,
                "foreign-sweep paint={painting_shard} swept={swept_shard} revoked={caps_revoked}"
            ),
            EventKind::OomRevocation { shard } => write!(f, "oom-revocation shard={shard}"),
            EventKind::FaultInjected { point, shard } => {
                write!(f, "fault-injected point={point} shard={shard}")
            }
            EventKind::SweepRetried { chunks, kernel } => {
                write!(f, "sweep-retried chunks={chunks} kernel={kernel}")
            }
            EventKind::RevokerRestarted { generation, cause } => {
                write!(f, "revoker-restarted gen={generation} cause={cause}")
            }
            EventKind::EmergencySweep { shard } => write!(f, "emergency-sweep shard={shard}"),
            EventKind::Recovery {
                shard,
                action,
                caps_revoked,
            } => write!(
                f,
                "recovery shard={shard} action={action} revoked={caps_revoked}"
            ),
        }
    }
}

/// One recorded event: a monotonically increasing sequence number, a
/// registry-relative timestamp, and the [`EventKind`] payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryEvent {
    /// Sequence number, 1-based and gap-free per registry; use with
    /// `Registry::events_since` to tail without missing or re-reading.
    pub seq: u64,
    /// Nanoseconds since the registry was created.
    pub at_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for TelemetryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>12}ns #{}] {}", self.at_ns, self.seq, self.kind)
    }
}

/// Fixed-capacity ring of recent events. Writers take a short mutex (the
/// event path is rare — per sweep/epoch, not per alloc); when full the
/// oldest event is dropped and a drop counter incremented.
#[derive(Debug)]
pub(crate) struct EventRing {
    buf: Mutex<VecDeque<TelemetryEvent>>,
    capacity: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
}

impl EventRing {
    pub(crate) fn new(capacity: usize) -> EventRing {
        EventRing {
            buf: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            capacity: capacity.max(1),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<TelemetryEvent>> {
        match self.buf.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    pub(crate) fn record(&self, at_ns: u64, kind: EventKind) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut buf = self.lock();
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(TelemetryEvent { seq, at_ns, kind });
    }

    pub(crate) fn recent(&self, n: usize) -> Vec<TelemetryEvent> {
        let buf = self.lock();
        let skip = buf.len().saturating_sub(n);
        buf.iter().skip(skip).copied().collect()
    }

    pub(crate) fn since(&self, seq: u64) -> Vec<TelemetryEvent> {
        let buf = self.lock();
        buf.iter().filter(|e| e.seq > seq).copied().collect()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oom(shard: usize) -> EventKind {
        EventKind::OomRevocation { shard }
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let ring = EventRing::new(3);
        for i in 0..5 {
            ring.record(i, oom(i as usize));
        }
        let recent = ring.recent(10);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].seq, 3);
        assert_eq!(recent[2].seq, 5);
        assert_eq!(ring.dropped(), 2);
    }

    #[test]
    fn recent_returns_tail_oldest_first() {
        let ring = EventRing::new(8);
        for i in 0..4 {
            ring.record(i, oom(0));
        }
        let two = ring.recent(2);
        assert_eq!(two.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn since_tails_by_sequence_number() {
        let ring = EventRing::new(8);
        for i in 0..4 {
            ring.record(i, oom(0));
        }
        let tail = ring.since(2);
        assert_eq!(tail.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![3, 4]);
        assert!(ring.since(4).is_empty());
    }

    #[test]
    fn events_render_human_readably() {
        let e = TelemetryEvent {
            seq: 7,
            at_ns: 1234,
            kind: EventKind::Sweep {
                bytes_swept: 4096,
                caps_inspected: 12,
                caps_revoked: 3,
                duration_ns: 1500,
                workers: 2,
                kernel: "fast",
            },
        };
        let s = e.to_string();
        assert!(s.contains("#7"), "{s}");
        assert!(s.contains("sweep 4096B"), "{s}");
        assert!(s.contains("workers=2"), "{s}");
        assert!(s.contains("kernel=fast"), "{s}");
    }
}
