//! In-memory span recording for the traced run.
//!
//! Spans are opened and closed from the benchmark's own files, around the
//! calls into each layer's public functions; nothing inside the program is
//! instrumented. A disabled tracer never reads the clock, so the untraced
//! run pays one predictable branch per call site. Spans stay in memory and
//! are written as JSON lines when the benchmark ends.

use std::io::Write;
use std::time::Instant;

/// Index of a span in its tracer; [`NONE`] stands for "no span" (a root's
/// parent, or any span of a disabled tracer).
pub type SpanId = u32;
pub const NONE: SpanId = u32::MAX;

/// Spans a load-generator thread keeps; later opens are dropped (and
/// counted) so a long socket run cannot grow the trace without bound.
pub const LOAD_SPANS: usize = 60_000;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `crate.module.function` of the layer the span wraps.
    pub name: &'static str,
    /// Operation (window or request) the span belongs to; spans of one
    /// operation share it.
    pub op: u64,
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
    /// See [`Tracer::push`].
    pub synthetic: bool,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Spans recorded directly (not merged in) before opens are dropped.
    cap: usize,
    dropped: u64,
}

impl Tracer {
    /// A tracer whose spans are offsets from `epoch`; tracers that will be
    /// merged must share it.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self::capped(enabled, epoch, usize::MAX)
    }

    /// A tracer that keeps at most `cap` spans of its own.
    pub fn capped(enabled: bool, epoch: Instant, cap: usize) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now. Returns [`NONE`] when disabled or full.
    pub fn open(&mut self, name: &'static str, op: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let now = self.now_ns();
        self.push(name, op, parent, now, now, false)
    }

    /// Close a span now (no-op for [`NONE`]).
    pub fn close(&mut self, id: SpanId) {
        if id != NONE {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Nanoseconds from the epoch to `at` (0 for instants before it).
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span from stamps taken elsewhere; `synthetic`
    /// marks one laid out from durations the server reported rather than
    /// from a clock read at the boundary (a reply's own stage timings).
    pub fn push(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
        synthetic: bool,
    ) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return NONE;
        }
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
            synthetic,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Time `f` under a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, op, parent);
        let r = f();
        self.close(id);
        r
    }

    pub fn span(&self, id: SpanId) -> Option<&Span> {
        self.spans.get(id as usize)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Append another thread's spans, rebasing their parent indices.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += base;
            }
            s
        }));
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Write the trace as JSON lines:
    /// `{name, workload, op, parent, start_ns, end_ns, self_ns}`.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self_times(&self.spans);
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"workload\":\"{workload}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"synthetic\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.synthetic
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are counted once, and a
/// child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(siblings) = children.get_mut(s.parent as usize) {
            siblings.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(cursor, s.end_ns);
                let b = b.clamp(cursor, s.end_ns);
                covered += b - a;
                cursor = b;
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            op: 0,
            parent,
            start_ns,
            end_ns,
            synthetic: false,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span(NONE, 0, 100), // root
            span(0, 10, 30),    // child
            span(0, 40, 90),    // child with its own child
            span(2, 50, 60),    // grandchild: not subtracted from the root
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(NONE, 100, 200),
            span(0, 110, 150),
            span(0, 140, 160), // overlaps the first by 10
            span(0, 190, 260), // overhangs the parent's end by 60
            span(0, 50, 105),  // starts before the parent
        ];
        // Covered: [100,105] + [110,160] + [190,200] = 65.
        assert_eq!(self_times(&spans)[0], 35);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.open("x", 0, NONE);
        t.close(id);
        assert_eq!(id, NONE);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        let root = a.open("root", 0, NONE);
        a.close(root);
        let mut b = Tracer::new(true, epoch);
        let r = b.open("root", 1, NONE);
        let c = b.open("child", 1, r);
        b.close(c);
        b.close(r);
        a.merge(b);
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.spans()[1].parent, NONE);
    }
}
