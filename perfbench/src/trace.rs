//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a start, an end, the span that
//! was open when it began (its parent) and an operation id that every
//! span of one injection or one fleet record shares. Per-name statistics
//! (count, total, self time, a latency histogram) are kept for every span;
//! the spans themselves are kept in memory up to a cap and written once,
//! at exit, in the Chrome trace-event format `xentry-fleet` exports.

use crate::sys::json_str;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Sub-buckets per power of two: bucket bounds are within 1/128 (0.8%)
/// of any value they hold.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

fn bucket(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let shift = e - SUB_BITS;
    ((shift as usize + 1) << SUB_BITS) + ((v >> shift) & (SUB - 1)) as usize
}

/// Midpoint of bucket `i`'s value range.
fn bucket_mid(i: usize) -> f64 {
    let group = i >> SUB_BITS;
    if group == 0 {
        return i as f64;
    }
    let shift = group as u32 - 1;
    let lo = (SUB + (i as u64 & (SUB - 1))) << shift;
    lo as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

/// Log-linear histogram of nanosecond durations.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `q` quantile (0 < q <= 1), as the midpoint of its bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(i);
            }
        }
        unreachable!("rank within the recorded count")
    }
}

/// A [`Hist`] that other threads record into.
pub struct AtomicHist {
    counts: Vec<AtomicU64>,
}

impl Default for AtomicHist {
    fn default() -> AtomicHist {
        AtomicHist {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl AtomicHist {
    pub fn record(&self, v: u64) {
        // A statistic: publishes no other data.
        self.counts[bucket(v)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> Hist {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        Hist {
            n: counts.iter().sum(),
            counts,
        }
    }
}

const NO_SPAN: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer's epoch.
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same tracer, or `NO_SPAN`.
    pub parent: u32,
    /// Track (thread) the span ran on.
    pub tid: u32,
}

/// Aggregate of every span of one name, stored or not.
#[derive(Default, Clone)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub hist: Hist,
}

struct Frame {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    idx: u32,
}

/// Span recorder of one benchmark thread.
pub struct Tracer {
    /// Label of this tracer's process track in the trace file.
    pub label: &'static str,
    epoch: Instant,
    stack: Vec<Frame>,
    stats: BTreeMap<&'static str, NameStats>,
    spans: Vec<Span>,
    cap: usize,
    /// Spans timed but not kept because the cap was reached.
    pub dropped: u64,
    /// Names of the tracks (`tid`s) spans were recorded on.
    pub tracks: Vec<(u32, &'static str)>,
}

impl Tracer {
    pub fn new(label: &'static str, epoch: Instant, cap: usize) -> Tracer {
        Tracer {
            label,
            epoch,
            stack: Vec::new(),
            stats: BTreeMap::new(),
            spans: Vec::new(),
            cap,
            dropped: 0,
            tracks: vec![(0, "benchmark")],
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, id: u64) {
        self.begin_keep(name, id, true);
    }

    /// Open a span that is timed either way but kept for the trace file
    /// only if `keep`.
    pub fn begin_keep(&mut self, name: &'static str, id: u64, keep: bool) {
        let start_ns = self.now_ns();
        let idx = if !keep {
            NO_SPAN
        } else if self.spans.len() < self.cap {
            let parent = self.stack.last().map_or(NO_SPAN, |f| f.idx);
            self.spans.push(Span {
                name,
                id,
                start_ns,
                end_ns: start_ns,
                parent,
                tid: 0,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            NO_SPAN
        };
        self.stack.push(Frame {
            name,
            start_ns,
            child_ns: 0,
            idx,
        });
    }

    /// Close the innermost open span; returns its duration.
    pub fn end(&mut self) -> u64 {
        let end_ns = self.now_ns();
        let f = self.stack.pop().expect("end without a matching begin");
        let dur = end_ns - f.start_ns;
        if f.idx != NO_SPAN {
            self.spans[f.idx as usize].end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let s = self.stats.entry(f.name).or_default();
        s.count += 1;
        s.total_ns += dur;
        s.self_ns += dur.saturating_sub(f.child_ns);
        s.hist.record(dur);
        dur
    }

    /// Time `f` as one leaf span.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        self.time_keep(name, id, true, f)
    }

    /// [`Tracer::time`], keeping the span for the trace file only if `keep`.
    pub fn time_keep<R>(
        &mut self,
        name: &'static str,
        id: u64,
        keep: bool,
        f: impl FnOnce() -> R,
    ) -> R {
        self.begin_keep(name, id, keep);
        let r = f();
        self.end();
        r
    }

    /// Keep a span for the trace file only, on track `tid`: it has no
    /// parent and adds to no statistics, so no layer's self time counts
    /// it. For spans timed on another thread, and for whole engine passes
    /// whose inner calls the tracer cannot see one by one.
    pub fn keep_span(&mut self, name: &'static str, id: u64, start_ns: u64, end_ns: u64, tid: u32) {
        if self.spans.len() < self.cap {
            self.spans.push(Span {
                name,
                id,
                start_ns,
                end_ns,
                parent: NO_SPAN,
                tid,
            });
        } else {
            self.dropped += 1;
        }
    }

    pub fn stats(&self, name: &str) -> Option<&NameStats> {
        self.stats.get(name)
    }

    /// Total time of spans named `name` so far (0 if none).
    pub fn total_ns(&self, name: &str) -> u64 {
        self.stats.get(name).map_or(0, |s| s.total_ns)
    }

    pub fn span_count(&self) -> u64 {
        self.stats.values().map(|s| s.count).sum()
    }

    /// Self time per layer (the span-name prefix before the first `.`).
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (name, s) in &self.stats {
            let layer = name.split('.').next().unwrap_or(name);
            *out.entry(layer).or_insert(0) += s.self_ns;
        }
        out
    }

    /// Append this tracer's spans as Chrome trace events under `pid`.
    pub fn export_chrome(&self, pid: u32, out: &mut Vec<String>) {
        out.push(format!(
            "{{\"ph\": \"M\", \"pid\": {pid}, \"name\": \"process_name\", \"args\": {{\"name\": {}}}}}",
            json_str(self.label)
        ));
        for (tid, name) in &self.tracks {
            out.push(format!(
                "{{\"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \"name\": \"thread_name\", \"args\": {{\"name\": {}}}}}",
                json_str(name)
            ));
        }
        for s in &self.spans {
            let mut e = String::with_capacity(160);
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let _ = write!(
                e,
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": {pid}, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}",
                s.name,
                layer,
                s.tid,
                s.start_ns as f64 / 1000.0,
                (s.end_ns - s.start_ns) as f64 / 1000.0,
                s.id
            );
            if s.parent != NO_SPAN {
                let _ = write!(e, ", \"parent\": {}", s.parent);
            }
            e.push_str("}}");
            out.push(e);
        }
    }
}

/// Write tracers' spans as one Chrome trace-event document.
pub fn write_chrome(path: &std::path::Path, tracers: &[Tracer]) -> std::io::Result<()> {
    let mut events = Vec::new();
    for (pid, t) in tracers.iter().enumerate() {
        t.export_chrome(pid as u32 + 1, &mut events);
    }
    let doc = format!(
        "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
        events.join(",\n")
    );
    std::fs::write(path, doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0;
        for v in (0..1_000_000u64).step_by(7) {
            let b = bucket(v);
            assert!(b >= last);
            last = b;
            let mid = bucket_mid(b);
            assert!((mid - v as f64).abs() <= v as f64 / SUB as f64 + 0.5);
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new("t", Instant::now(), 16);
        t.begin("a.outer", 1);
        t.time("b.inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let outer = t.end();
        let inner = t.total_ns("b.inner");
        assert!(inner >= 5_000_000);
        assert_eq!(t.stats("a.outer").unwrap().self_ns, outer - inner);
        assert_eq!(t.spans[1].parent, 0);
    }
}
