//! The `fleet-closed` workload: one `FleetService` shard fed
//! `replay::synthetic_trace` records classified by the matched
//! `synthetic_detector`, from one sender in a closed loop.
//!
//! The sender keeps at most `WINDOW` records in flight (half the shard
//! queue, so no record can be refused) and yields while the window is
//! full. The benchmark's own sink checks every verdict: its label must
//! equal the detector's own classification of the same features, it must
//! come from the deployed model, and every sequence number must get
//! exactly one verdict. `ops_per_s` is the median of per-slice verdict
//! rates.

use crate::campaign::{closure, timing};
use crate::sys::{self, median, median_s, Usage};
use crate::trace::{AtomicHist, Tracer};
use crate::Report;
use mltree::Label;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xentry::FeatureVec;
use xentry_fleet::replay::{synthetic_detector, synthetic_trace};
use xentry_fleet::{FleetConfig, FleetService, FleetVerdict, VerdictSink, VerdictSource};

/// Distinct records the sender cycles through.
const TRACE_LEN: usize = 1 << 16;
/// Records in flight at most: half of the default shard queue.
const WINDOW: u64 = 4096;
/// Sequence-number slots of the exactly-once check; larger than the
/// window, so a slot is reused only after its verdict is due.
const RING: usize = 1 << 14;
/// Service starts in the traced run's set-up.
const SETUP_REPS: usize = 101;
/// Length of one segment of the end-to-end run, and the service starts
/// timed at its beginning; `setup_s` is the median of all starts.
const SEGMENT: Duration = Duration::from_secs(1);
const STARTS_PER_SEGMENT: usize = 25;
/// Throughput is sampled per slice; `ops_per_s` is the median slice.
const SLICE: Duration = Duration::from_millis(250);
/// How long a drain may take before missing verdicts count as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);
/// The ingest and verdict spans of one record in this many are kept for
/// the trace file (every record is timed).
const SPAN_SAMPLE: u64 = 1024;
/// Open-loop probe: offered rate and duration.
const OPEN_RATE: f64 = 500_000.0;
const OPEN_FOR: Duration = Duration::from_secs(1);
/// Records per `classify_batch` call, as the service's workers batch.
const BATCH: usize = 64;
/// Run time of the fleet probe in other workloads' traced runs.
pub const PROBE_RUN: Duration = Duration::from_millis(1000);
const SPAN_CAP: usize = 60_000;

fn config() -> FleetConfig {
    FleetConfig {
        shards: 1,
        ..FleetConfig::default()
    }
}

/// Ingest-to-sink timing, kept only in traced runs.
struct Timing {
    epoch: Instant,
    /// Stamp per sequence slot: when the record was sent (closed loop)
    /// or was due (open loop).
    stamp_ns: Vec<AtomicU64>,
    hist: AtomicHist,
    spans: Mutex<Vec<(u64, u64, u64)>>,
}

struct Sink {
    expected: Vec<Label>,
    seen: AtomicU64,
    counts: Vec<AtomicU8>,
    wrong: AtomicU64,
    timing: Option<Timing>,
}

impl Sink {
    fn new(expected: Vec<Label>, timing: Option<Instant>) -> Sink {
        Sink {
            expected,
            seen: AtomicU64::new(0),
            counts: (0..RING).map(|_| AtomicU8::new(0)).collect(),
            wrong: AtomicU64::new(0),
            timing: timing.map(|epoch| Timing {
                epoch,
                stamp_ns: (0..RING).map(|_| AtomicU64::new(0)).collect(),
                hist: AtomicHist::default(),
                spans: Mutex::new(Vec::new()),
            }),
        }
    }

    fn seen(&self) -> u64 {
        // Pairs with the Release increment in `on_verdict`: every count
        // the verdicts wrote is visible once they are seen.
        self.seen.load(Ordering::Acquire)
    }
}

impl VerdictSink for Sink {
    fn on_verdict(&self, v: &FleetVerdict) {
        let slot = v.seq as usize % RING;
        if v.label != self.expected[v.seq as usize % TRACE_LEN] || v.source != VerdictSource::Model
        {
            self.wrong.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(t) = &self.timing {
            let now = t.epoch.elapsed().as_nanos() as u64;
            let stamp = t.stamp_ns[slot].load(Ordering::Relaxed);
            t.hist.record(now.saturating_sub(stamp));
            if v.seq.is_multiple_of(SPAN_SAMPLE) {
                if let Ok(mut s) = t.spans.lock() {
                    s.push((v.seq, stamp, now));
                }
            }
        }
        self.counts[slot].fetch_add(1, Ordering::Relaxed);
        self.seen.fetch_add(1, Ordering::Release);
    }
}

struct Inputs {
    trace: Vec<FeatureVec>,
    detector: xentry::VmTransitionDetector,
    expected: Vec<Label>,
}

fn inputs(seed: u64) -> Inputs {
    let trace = synthetic_trace(TRACE_LEN, seed);
    let detector = synthetic_detector(seed);
    let expected = trace.iter().map(|f| detector.classify(f)).collect();
    Inputs {
        trace,
        detector,
        expected,
    }
}

/// Start the service `reps` times, keeping the last; returns it with the
/// start times.
fn start_service(
    inp: &Inputs,
    sink: &Arc<Sink>,
    reps: usize,
    tr: Option<&mut Tracer>,
) -> (FleetService, Vec<Duration>) {
    let mut times = Vec::with_capacity(reps);
    let mut tr = tr;
    let mut svc = None;
    for _ in 0..reps.max(1) {
        if let Some(old) = svc.take() {
            FleetService::shutdown(old);
        }
        let det = inp.detector.clone();
        let sink: Arc<dyn VerdictSink> = sink.clone();
        let t = Instant::now();
        let s = match tr.as_deref_mut() {
            Some(tr) => tr.time("fleet.start", 0, || {
                FleetService::start(config(), det, sink)
            }),
            None => FleetService::start(config(), det, sink),
        };
        times.push(t.elapsed());
        svc = Some(s);
    }
    (svc.expect("at least one start"), times)
}

/// Counts of one sending loop.
#[derive(Default)]
struct Sent {
    sent: u64,
    accepted: u64,
    rejected: u64,
    window_waits: u64,
    /// Sequence numbers whose verdict count was not exactly one (or not
    /// zero for a refused record).
    bad: u64,
    slice_rates: Vec<f64>,
    elapsed: Duration,
    /// Largest delay between a record's due time and its send (open loop).
    late_max_ns: u64,
}

/// Check (and clear) the verdict count of the record that last used
/// `slot`.
fn settle(sink: &Sink, accepted: &[bool], slot: usize) -> bool {
    sink.counts[slot].swap(0, Ordering::Relaxed) == u8::from(accepted[slot])
}

/// Wait until every accepted record has its verdict, then check the
/// exactly-once counts of the last `RING` sequence numbers.
fn drain(sink: &Sink, s: &mut Sent, accepted: &[bool]) {
    let t = Instant::now();
    while sink.seen() < s.accepted && t.elapsed() < DRAIN_LIMIT {
        std::thread::yield_now();
    }
    for seq in s.sent.saturating_sub(RING as u64)..s.sent {
        s.bad += u64::from(!settle(sink, accepted, seq as usize % RING));
    }
}

/// The closed loop. With a tracer, every ingest and every window wait is
/// a span, and send times are stamped for the sink's verdict latency.
fn closed_loop(
    svc: &FleetService,
    sink: &Sink,
    inp: &Inputs,
    run_for: Duration,
    mut tr: Option<&mut Tracer>,
) -> Sent {
    let mut s = Sent::default();
    let mut accepted = vec![false; RING];
    let start = Instant::now();
    let (mut slice_start, mut slice_seen) = (start, 0);
    let give_up = run_for + DRAIN_LIMIT;
    loop {
        let seq = s.sent;
        if seq.is_multiple_of(256) {
            let now = Instant::now();
            if now - slice_start >= SLICE {
                let seen = sink.seen();
                s.slice_rates
                    .push((seen - slice_seen) as f64 / (now - slice_start).as_secs_f64());
                (slice_start, slice_seen) = (now, seen);
            }
            if now - start >= run_for {
                break;
            }
        }
        if s.accepted - sink.seen() >= WINDOW {
            if let Some(tr) = tr.as_deref_mut() {
                tr.begin_keep("fleet.window_wait", seq, s.window_waits.is_multiple_of(64));
            }
            s.window_waits += 1;
            let mut stuck = false;
            while s.accepted - sink.seen() >= WINDOW && !stuck {
                stuck = start.elapsed() > give_up;
                std::thread::yield_now();
            }
            if let Some(tr) = tr.as_deref_mut() {
                tr.end();
            }
            if stuck {
                break;
            }
        }
        let slot = seq as usize % RING;
        if seq >= RING as u64 && !settle(sink, &accepted, slot) {
            s.bad += 1;
        }
        let f = inp.trace[seq as usize % TRACE_LEN];
        let ok = match (tr.as_deref_mut(), &sink.timing) {
            (Some(tr), Some(t)) => {
                t.stamp_ns[slot].store(tr.now_ns(), Ordering::Relaxed);
                let keep = seq.is_multiple_of(SPAN_SAMPLE);
                tr.time_keep("fleet.ingest", seq, keep, || svc.ingest(0, 0, seq, f))
            }
            _ => svc.ingest(0, 0, seq, f),
        };
        accepted[slot] = ok;
        s.accepted += u64::from(ok);
        s.rejected += u64::from(!ok);
        s.sent += 1;
    }
    s.elapsed = start.elapsed();
    drain(sink, &mut s, &accepted);
    s
}

/// The open-loop probe: records due every `1/OPEN_RATE` seconds whether
/// or not earlier ones were served; the sink times each from its due time.
fn open_loop(svc: &FleetService, sink: &Sink, inp: &Inputs) -> Sent {
    let t = sink.timing.as_ref().expect("open loop is timed");
    let mut s = Sent::default();
    let mut accepted = vec![false; RING];
    let period_ns = 1e9 / OPEN_RATE;
    let total = (OPEN_RATE * OPEN_FOR.as_secs_f64()) as u64;
    let base = t.epoch.elapsed().as_nanos() as u64;
    for seq in 0..total {
        let due = base + (seq as f64 * period_ns) as u64;
        let mut now = t.epoch.elapsed().as_nanos() as u64;
        while now < due {
            std::hint::spin_loop();
            now = t.epoch.elapsed().as_nanos() as u64;
        }
        s.late_max_ns = s.late_max_ns.max(now - due);
        let slot = seq as usize % RING;
        if seq >= RING as u64 && !settle(sink, &accepted, slot) {
            s.bad += 1;
        }
        t.stamp_ns[slot].store(due, Ordering::Relaxed);
        let ok = svc.ingest(0, 0, seq, inp.trace[seq as usize % TRACE_LEN]);
        accepted[slot] = ok;
        s.accepted += u64::from(ok);
        s.rejected += u64::from(!ok);
        s.sent += 1;
    }
    s.elapsed = Duration::from_nanos(t.epoch.elapsed().as_nanos() as u64 - base);
    drain(sink, &mut s, &accepted);
    s
}

/// Shut the service down and count every failed record: refused (only
/// if `refusals_fail`), dropped, lost, unaccounted for, verdict missing
/// or duplicated, or a wrong or degraded verdict. The open-loop probe
/// passes `false`: a refusal there is a preempted worker falling behind
/// the offered rate, which the probe reports as `fleet.openloop_dropped`.
fn finish(
    svc: FleetService,
    sink: &Sink,
    s: &Sent,
    refusals_fail: bool,
    r: &mut Report,
) -> xentry_fleet::ServiceSnapshot {
    let snap = svc.shutdown();
    let wrong = sink.wrong.swap(0, Ordering::Relaxed);
    let unbalanced = snap.ingested.abs_diff(snap.classified + snap.lost);
    let refused = if refusals_fail { s.rejected } else { 0 };
    r.attempted += s.sent;
    let failed = refused + snap.lost + unbalanced + s.bad + wrong;
    r.failed += failed;
    if failed > 0 {
        r.note(format!(
            "fleet failures: refused={} dropped={} lost={} unbalanced={} not-exactly-once={} wrong-verdict={}",
            s.rejected, snap.dropped, snap.lost, unbalanced, s.bad, wrong
        ));
    }
    snap
}

/// The end-to-end run: `setup_s`, `ops_per_s`, `peak_rss_mb`. The run is
/// a chain of one-second segments, each starting its own service
/// (`STARTS_PER_SEGMENT` timed starts, keeping the last), so set-up
/// samples spread over the run as the throughput slices do.
pub fn run(seed: u64, run_for: Duration) -> Report {
    let inp = inputs(seed);
    let mut r = Report::default();
    let (mut starts, mut rates) = (Vec::new(), Vec::new());
    let (mut sent, mut classified, mut window_waits) = (0, 0, 0);
    let begin = Instant::now();
    while starts.is_empty() || begin.elapsed() < run_for {
        let sink = Arc::new(Sink::new(inp.expected.clone(), None));
        let (svc, times) = start_service(&inp, &sink, STARTS_PER_SEGMENT, None);
        starts.extend(times);
        let s = closed_loop(&svc, &sink, &inp, SEGMENT, None);
        let snap = finish(svc, &sink, &s, true, &mut r);
        rates.extend(s.slice_rates);
        sent += s.sent;
        classified += snap.classified;
        window_waits += s.window_waits;
    }
    let q = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |f: f64| v[((v.len() - 1) as f64 * f).round() as usize];
        format!(
            "p10={:.4e} p50={:.4e} p90={:.4e} n={}",
            at(0.1),
            at(0.5),
            at(0.9),
            v.len()
        )
    };
    r.note(format!(
        "fleet: sent={sent} classified={classified} window_waits={window_waits}"
    ));
    if !rates.is_empty() {
        r.note(format!("slice rates (1/s): {}", q(&rates)));
    }
    let st: Vec<f64> = starts.iter().map(Duration::as_secs_f64).collect();
    r.note(format!("start times (s): {}", q(&st)));
    r.metric("setup_s", median_s(&starts), "s");
    r.metric(
        "ops_per_s",
        if rates.is_empty() {
            0.0
        } else {
            median(&mut rates)
        },
        "1/s",
    );
    r.metric("peak_rss_mb", sys::peak_rss_mb(), "MB");
    r
}

/// The traced run: an untraced closed loop (the overhead baseline), the
/// traced closed loop, the classify-batch probe of `mltree` through the
/// detector, and the open-loop probe. Also used, shortened, as the fleet
/// probe of the campaign workloads' traced runs.
pub fn traced(
    seed: u64,
    run_for: Duration,
    epoch: Instant,
    label: &'static str,
    write_service_trace: Option<&std::path::Path>,
) -> (Report, Tracer) {
    let inp = inputs(seed);
    let mut r = Report::default();
    let mut tr = Tracer::new(label, epoch, SPAN_CAP);
    tr.tracks.push((1, "fleet verdicts (ingest to sink)"));
    let half = run_for / 2;

    // Overhead baseline: the same loop, untraced, with busy shares.
    let sink = Arc::new(Sink::new(inp.expected.clone(), None));
    let (svc, _) = start_service(&inp, &sink, 1, None);
    let (w0, m0) = (sys::threads_named("fleet-shard-0"), sys::this_thread());
    let base = closed_loop(&svc, &sink, &inp, half, None);
    let (w1, m1) = (sys::threads_named("fleet-shard-0"), sys::this_thread());
    finish(svc, &sink, &base, true, &mut r);
    let secs = base.elapsed.as_secs_f64();
    r.metric(
        "fleet.worker_busy_share",
        w1.since(w0).cpu_s() / secs,
        "share",
    );
    r.metric(
        "fleet.sender_busy_share",
        m1.since(m0).cpu_s() / secs,
        "share",
    );

    let mut wall_ns = 0;
    let t = Instant::now();
    let u = Usage::process();
    let sink = Arc::new(Sink::new(inp.expected.clone(), Some(epoch)));
    let (svc, _) = start_service(&inp, &sink, SETUP_REPS, Some(&mut tr));
    let setup_u = Usage::process().since(u);
    let u = Usage::process();
    let s = closed_loop(&svc, &sink, &inp, half, Some(&mut tr));
    let run_u = Usage::process().since(u);
    let mut traced_rates = s.slice_rates.clone();
    let mut base_rates = base.slice_rates.clone();
    let overhead = if traced_rates.is_empty() || base_rates.is_empty() {
        0.0
    } else {
        median(&mut base_rates) / median(&mut traced_rates) - 1.0
    };
    let tm = sink.timing.as_ref().expect("traced sink");
    let verdict = tm.hist.snapshot();
    for (seq, a, b) in tm.spans.lock().map(|v| v.clone()).unwrap_or_default() {
        tr.keep_span("fleet.verdict", seq, a, b, 1);
    }
    if let Some(path) = write_service_trace {
        if let Err(e) = std::fs::write(path, svc.tracer().export_chrome()) {
            r.note(format!("writing {}: {e}", path.display()));
        }
    }
    finish(svc, &sink, &s, true, &mut r);
    wall_ns += t.elapsed().as_nanos() as u64;
    r.metric("fleet.window_waits", s.window_waits as f64, "count");
    r.metric("fleet.queue_full_rejections", s.rejected as f64, "count");
    r.metric("fleet.verdict_us.p50", verdict.quantile(0.50) / 1e3, "us");
    r.metric("fleet.verdict_us.p99", verdict.quantile(0.99) / 1e3, "us");
    r.metric("fleet.verdict_us.n", verdict.count() as f64, "count");

    // mltree through the deployed detector, batch by batch.
    let t = Instant::now();
    let mut out = vec![Label::Correct; BATCH];
    for rep in 0..4 {
        for (i, chunk) in inp.trace.chunks_exact(BATCH).enumerate() {
            let id = (rep * TRACE_LEN + i * BATCH) as u64;
            tr.time("mltree.classify_batch", id, || {
                inp.detector.classify_batch(chunk, &mut out)
            });
            if out[..] != inp.expected[i * BATCH..(i + 1) * BATCH] {
                r.failed += BATCH as u64;
            }
            r.attempted += BATCH as u64;
        }
    }
    wall_ns += t.elapsed().as_nanos() as u64;

    // Open loop: latency from due time, generator lateness, drops.
    let sink = Arc::new(Sink::new(inp.expected.clone(), Some(epoch)));
    let (svc, _) = start_service(&inp, &sink, 1, None);
    let o = open_loop(&svc, &sink, &inp);
    let snap = finish(svc, &sink, &o, false, &mut r);
    let lat = sink.timing.as_ref().expect("traced sink").hist.snapshot();
    r.metric("fleet.openloop_p50_us", lat.quantile(0.50) / 1e3, "us");
    r.metric("fleet.openloop_p99_us", lat.quantile(0.99) / 1e3, "us");
    r.metric(
        "fleet.openloop_late_max_us",
        o.late_max_ns as f64 / 1e3,
        "us",
    );
    r.metric("fleet.openloop_dropped", snap.dropped as f64, "count");

    timing(&mut r, &tr, "fleet.ingest", "fleet.ingest_ns", 1.0, "ns");
    timing(
        &mut r,
        &tr,
        "mltree.classify_batch",
        "mltree.classify_batch_ns",
        BATCH as f64,
        "ns",
    );
    r.metric("proc.setup.user_s", setup_u.user_s, "s");
    r.metric("proc.setup.sys_s", setup_u.sys_s, "s");
    r.metric("proc.setup.minflt", setup_u.minflt as f64, "count");
    r.metric("proc.run.user_s", run_u.user_s, "s");
    r.metric("proc.run.sys_s", run_u.sys_s, "s");
    r.metric("proc.run.minflt", run_u.minflt as f64, "count");
    r.note(format!(
        "fleet: traced sent={} untraced sent={} open-loop sent={}",
        s.sent, base.sent, o.sent
    ));
    closure(&mut r, &tr, wall_ns, overhead);
    (r, tr)
}
