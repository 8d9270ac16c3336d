//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its layer (named after the repository module whose public function
//! it wraps), name, start, end, parent span and op id. Spans stay in memory and are
//! written out once, when the run ends. A disabled tracer records nothing and reads
//! no clock, so untraced runs pay only a branch per call.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span, passed to child calls as their parent.
pub type SpanId = u32;

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique within the process, starting at 1.
    pub id: SpanId,
    /// The span this one ran under, if any.
    pub parent: Option<SpanId>,
    /// The op this span belongs to (0 for work outside any op).
    pub op: u64,
    /// Layer, named after a module (`cluster::host`, `core::buffer`, ...).
    pub layer: &'static str,
    /// Call name within the layer.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

/// The span recorder. Shared by reference across client threads.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span. `f` receives the new span's id (for its children), or
    /// `None` when tracing is off.
    pub fn span<R>(
        &self,
        parent: Option<SpanId>,
        op: u64,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        // Relaxed: the id is a unique label, it publishes no other data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(Some(id));
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let span = Span { id, parent, op, layer, name, start_ns, end_ns };
        self.spans.lock().expect("a thread panicked while recording a span").push(span);
        out
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("a thread panicked while recording a span").clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

impl Span {
    /// This span as one JSON object, tagged with the round (process) it ran in.
    pub fn to_json(&self, round: usize) -> String {
        let parent = self.parent.map_or("null".to_string(), |p| p.to_string());
        format!(
            "{{\"round\": {round}, \"id\": {}, \"parent\": {parent}, \"op\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            self.id, self.op, self.layer, self.name, self.start_ns, self.end_ns
        )
    }
}

/// Total self time per layer, in ns: each span's duration minus the part of its
/// interval covered by its children (overlapping children count once).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let covered = children.get(&s.id).map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        *out.entry(s.layer).or_default() += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| a < b).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}
