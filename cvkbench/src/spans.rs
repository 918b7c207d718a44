//! Spans for the traced run: one around every public call the workloads
//! make, with child spans for work the call contains (a revocation epoch,
//! a throttled attempt, a back-off sleep). Spans are folded into per-name
//! aggregates as each op completes; only the spans of ops that ran an
//! epoch are kept raw, and those are written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::hist::Hist;

/// Raw epoch ops kept for the trace file; later ones are counted only.
const MAX_RAW_EPOCH_OPS: usize = 20_000;

/// One timed interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What ran: a public call (`malloc`, `free`, ...) or work inside one.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span within the same op, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

/// Each span's self time: its duration minus the part of it that its
/// children cover. Children may overlap each other; covered time is
/// their union, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for (a, b) in kids {
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            (s.end - s.start) - covered
        })
        .collect()
}

#[derive(Default)]
struct Agg {
    count: u64,
    total_ns: u64,
    self_ns: u64,
    hist: Hist,
}

/// Collects the spans of the traced segments.
pub struct Tracer {
    origin: Instant,
    op: Vec<Span>,
    aggs: BTreeMap<&'static str, Agg>,
    /// Self times of calls that ran no revocation, per call name.
    clean: BTreeMap<&'static str, Hist>,
    /// Durations of ops that ran a revocation epoch, ns.
    pauses: Vec<u64>,
    raw: Vec<Span>,
    raw_ops: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            op: Vec::with_capacity(8),
            aggs: BTreeMap::new(),
            clean: BTreeMap::new(),
            pauses: Vec::new(),
            raw: Vec::new(),
            raw_ops: 0,
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the tracer's origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Adds a child span to the op in progress (its parent is the op).
    pub fn child(&mut self, name: &'static str, start: u64, end: u64) {
        self.op.push(Span {
            name,
            start,
            end,
            parent: Some(0),
            op: 0,
        });
    }

    /// Closes op `id`, a call to `name` spanning `[start, end]`. An op
    /// that ran a revocation epoch gets an `epoch` child covering the
    /// whole call: the runtimes revoke inside the call, so the benchmark
    /// charges all of it to the epoch.
    pub fn finish_op(&mut self, id: u64, name: &'static str, start: u64, end: u64, epoch: bool) {
        if epoch {
            self.child("epoch", start, end);
        }
        self.op.insert(
            0,
            Span {
                name,
                start,
                end,
                parent: None,
                op: id,
            },
        );
        for c in &mut self.op {
            c.op = id;
        }
        // Most ops have no children: skip the allocation self_times makes.
        let single = [end - start];
        let nested;
        let selfs: &[u64] = if self.op.len() == 1 {
            &single
        } else {
            nested = self_times(&self.op);
            &nested
        };
        for (s, &own) in self.op.iter().zip(selfs) {
            let agg = self.aggs.entry(s.name).or_default();
            agg.count += 1;
            agg.total_ns += s.end - s.start;
            agg.self_ns += own;
            agg.hist.record(s.end - s.start);
        }
        if epoch {
            self.pauses.push(end - start);
            if self.raw_ops < MAX_RAW_EPOCH_OPS {
                self.raw.extend_from_slice(&self.op);
            }
            self.raw_ops += 1;
        } else {
            self.clean.entry(name).or_default().record(selfs[0]);
        }
        self.op.clear();
    }

    /// Self times of `call`s that ran no revocation.
    pub fn clean(&self, call: &str) -> Option<&Hist> {
        self.clean.get(call)
    }

    /// Durations of ops that ran a revocation epoch, ns.
    pub fn pauses(&self) -> &[u64] {
        &self.pauses
    }

    /// Total duration of spans named `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.aggs.get(name).map_or(0, |a| a.total_ns)
    }

    /// The trace file: per-name aggregates plus the raw spans of the
    /// first [`MAX_RAW_EPOCH_OPS`] epoch ops.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"aggregates\":{{");
        for (i, (name, a)) in self.aggs.iter().enumerate() {
            let pct = |p| a.hist.percentile(p).map_or(0.0, |q| q.value);
            let _ = write!(
                out,
                "{}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                if i == 0 { "" } else { "," },
                a.count,
                a.total_ns,
                a.self_ns,
                pct(50.0),
                pct(99.0),
            );
        }
        let _ = write!(
            out,
            "}},\"epoch_ops\":{},\"epoch_ops_kept\":{},\"spans\":[",
            self.raw_ops,
            self.raw_ops.min(MAX_RAW_EPOCH_OPS)
        );
        for (i, s) in self.raw.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start,
                s.end,
                s.op
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_grandchildren_once() {
        // malloc [0,100) holds a throttled attempt [10,20), a back-off
        // [20,60) that itself holds a kick [25,30), and an epoch [50,90)
        // overlapping the back-off.
        let spans = [
            span("malloc", 0, 100, None),
            span("throttled", 10, 20, Some(0)),
            span("backoff", 20, 60, Some(0)),
            span("kick", 25, 30, Some(2)),
            span("epoch", 50, 90, Some(0)),
        ];
        let selfs = self_times(&spans);
        // Children cover [10,90): 80 ns, so malloc keeps 20.
        assert_eq!(selfs[0], 20);
        assert_eq!(selfs[1], 10);
        // The grandchild comes off the back-off, not off malloc again.
        assert_eq!(selfs[2], 35);
        assert_eq!(selfs[3], 5);
        assert_eq!(selfs[4], 40);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = [span("op", 10, 20, None), span("epoch", 0, 30, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 30]);
    }

    #[test]
    fn epoch_ops_become_pauses_and_leave_clean_times_alone() {
        let mut t = Tracer::new();
        t.finish_op(1, "free", 0, 100, false);
        t.child("throttled", 110, 130);
        t.finish_op(2, "malloc", 100, 150, false);
        t.finish_op(3, "free", 200, 5_200, true);
        assert_eq!(t.pauses(), &[5_000]);
        assert_eq!(t.clean("free").unwrap().count(), 1);
        assert_eq!(t.clean("free").unwrap().mean(), 100.0);
        // The throttled attempt is not the malloc's own time.
        assert_eq!(t.clean("malloc").unwrap().mean(), 30.0);
        assert_eq!(t.total_ns("epoch"), 5_000);
        let json = t.to_json("w");
        assert!(json.contains("\"epoch_ops\":1"), "{json}");
        assert!(json.contains("\"name\":\"epoch\""), "{json}");
        assert!(
            !json.contains("\"op\":1}"),
            "only epoch ops are kept raw: {json}"
        );
    }
}
