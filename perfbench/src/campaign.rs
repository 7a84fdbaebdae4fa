//! The two campaign workloads: `campaign-freqmine` (single-bit GPR flips
//! through `run_campaign_with`) and `recovery-irqstorm` (every fault model
//! through `run_recovery_campaign_with` and three health-monitor policy
//! tables). Both run serially (`threads = 1`): at two threads identical
//! campaigns land on one of two throughput modes.
//!
//! Untraced, a run is a sequence of parts, each a fresh process that sets
//! up one campaign seeded from the run's seed with the engine's Phase 1
//! (`golden_trace`, the set-up) and times one whole Phase 2 pass of it.
//! Every pass must return one record per configured injection, and the
//! campaign run twice must give the same record digest both times.
//!
//! Traced, the benchmark also replays Phase 2 itself from the public
//! pieces the engine is built of (checkpoint restore, fork walk, point
//! preparation, injection, detection, recovery), timing each call, and
//! checks that the replay reproduces the engine's records byte for byte.

use crate::sys::{self, median, Usage};
use crate::trace::Tracer;
use crate::{Report, Workload};
use faultsim::{
    campaign_platform, detect_fault, diff_machines, golden_trace, inject, inject_spec,
    prepare_point, prepare_point_forked, recover_detected, run_campaign_with,
    run_recovery_campaign_with, CampaignConfig, CheckpointStore, FaultOutcome, GoldenTrace,
    HmTable, InjectionPoint, InjectionRecord, InjectionSpec, PointMeta, RecoveryRecord,
    RecoverySpec,
};
use guest_sim::Benchmark;
use sim_machine::fold64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use xen_like::Platform;
use xentry::Xentry;

/// Campaigns a traced run sets up, each seeded from the run's seed. Their
/// work differs by seed (how many faults are detected, how far recovery
/// escalates), so a run covers several.
pub const CAMPAIGNS: usize = 4;
/// Injections per campaign: a golden pass or an engine pass takes about a
/// second on a 2-vCPU host.
pub const INJECTIONS: usize = 2000;
/// Injections of the one small campaign a traced run of another workload
/// uses to report this workload's layers.
pub const PROBE_INJECTIONS: usize = 96;
/// Spans kept for the trace file per tracer.
const SPAN_CAP: usize = 60_000;

/// DomU 1 on CPU 1: the domain and CPU every campaign injects into.
const CPU: usize = 1;
const DOM: usize = 1;

struct Plan {
    cfg: CampaignConfig,
    /// Policy tables of a recovery campaign; empty for single-bit flips.
    tables: Vec<HmTable>,
}

impl Plan {
    fn new(workload: Workload, seed: u64, injections: usize) -> Plan {
        match workload {
            Workload::CampaignFreqmine => {
                let mut cfg = CampaignConfig::paper(Benchmark::Freqmine, injections, seed);
                cfg.threads = 1;
                Plan {
                    cfg,
                    tables: Vec::new(),
                }
            }
            Workload::RecoveryIrqstorm => {
                let mut cfg = CampaignConfig::paper(Benchmark::IrqStorm, injections, seed);
                cfg.warmup = 40;
                cfg.threads = 1;
                Plan {
                    cfg,
                    tables: xentry_bench::extensions::recovery_policies(),
                }
            }
            Workload::FleetClosed => unreachable!("not a campaign workload"),
        }
    }

    fn recovery(&self) -> bool {
        !self.tables.is_empty()
    }
}

/// Records of one Phase 2 pass.
enum Records {
    Injection(Vec<InjectionRecord>),
    Recovery(Vec<RecoveryRecord>),
}

fn record_digest(json: &str) -> u64 {
    json.bytes().fold(0x7265_636f, |h, b| fold64(h, b as u64))
}

impl Records {
    fn len(&self) -> usize {
        match self {
            Records::Injection(r) => r.len(),
            Records::Recovery(r) => r.len(),
        }
    }

    /// Digest of every record's serialized form, in record order.
    fn digests(&self) -> Vec<u64> {
        let json = |v: Result<String, _>| record_digest(&v.expect("records serialize"));
        match self {
            Records::Injection(r) => r.iter().map(|x| json(serde_json::to_string(x))).collect(),
            Records::Recovery(r) => r.iter().map(|x| json(serde_json::to_string(x))).collect(),
        }
    }
}

fn pass_digest(digests: &[u64]) -> u64 {
    digests.iter().fold(0x7061_7373, |h, d| fold64(h, *d))
}

fn engine(plan: &Plan, golden: &GoldenTrace) -> Records {
    if plan.recovery() {
        Records::Recovery(run_recovery_campaign_with(&plan.cfg, golden, None, &plan.tables).records)
    } else {
        Records::Injection(run_campaign_with(&plan.cfg, golden, None).records)
    }
}

/// Outcome counts in the order detected, silent, crash, benign, masked.
#[derive(Default, Clone, Copy)]
struct Outcomes([u64; 5]);

const OUTCOME_NAMES: [&str; 5] = ["detected", "silent", "crash", "benign", "masked"];

impl Outcomes {
    fn add(&mut self, o: &FaultOutcome) {
        use faultsim::Consequence::AppSdc;
        let i = match o {
            FaultOutcome::Detected { .. } => 0,
            FaultOutcome::Undetected {
                consequence: AppSdc,
                ..
            } => 1,
            FaultOutcome::Undetected { .. } => 2,
            FaultOutcome::Benign => 3,
            FaultOutcome::MaskedAfterEntry => 4,
        };
        self.0[i] += 1;
    }

    fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    fn add_all(&mut self, other: &Outcomes) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    fn line(&self) -> String {
        let parts: Vec<String> = OUTCOME_NAMES
            .iter()
            .zip(self.0)
            .map(|(n, c)| format!("{n}={c}"))
            .collect();
        format!("outcomes: {}", parts.join(" "))
    }

    fn report(&self, r: &mut Report) {
        for (n, c) in OUTCOME_NAMES.iter().zip(self.0) {
            r.metric(format!("outcome.{n}"), c as f64, "count");
        }
        if self.total() > 0 {
            r.metric(
                "faultsim.benign_share",
                self.0[3] as f64 / self.total() as f64,
                "share",
            );
        }
    }
}

/// Check one pass of campaign `k` against the configured injection count
/// and the campaign's first pass; returns the operations it failed.
fn check_pass(
    plan: &Plan,
    k: usize,
    out: std::thread::Result<Records>,
    first: &mut Option<u64>,
    r: &mut Report,
) -> (u64, Option<Records>) {
    let n = plan.cfg.injections as u64;
    let Ok(recs) = out else {
        r.note(format!(
            "campaign {k}: engine pass panicked; its injections count as failed"
        ));
        return (n, None);
    };
    let got = recs.len() as u64;
    let mut failed = n.abs_diff(got).min(n);
    let d = pass_digest(&recs.digests());
    match *first {
        None => {
            *first = Some(d);
            r.note(format!(
                "campaign {k}: seed={:#018x} records={got} digest={d:#018x}",
                plan.cfg.seed
            ));
        }
        Some(f) if f != d => {
            r.note(format!(
                "campaign {k}: records digest {d:#018x} differs from its first pass's {f:#018x}"
            ));
            failed = n;
        }
        Some(_) => {}
    }
    (failed, Some(recs))
}

fn plans(workload: Workload, seed: u64, campaigns: usize, injections: usize) -> Vec<Plan> {
    (0..campaigns)
        .map(|k| Plan::new(workload, fold64(seed, k as u64), injections))
        .collect()
}

/// What one part of an end-to-end run measured, as the part's process
/// prints it on its last line: `part key=value ...`.
struct PartResult {
    golden_s: f64,
    golden_minflt: u64,
    pass_s: f64,
    attempted: u64,
    failed: u64,
    /// Digest of the pass's records, 0 if the pass panicked.
    digest: u64,
    outcomes: Outcomes,
    peak_rss_mb: f64,
}

impl PartResult {
    fn line(&self) -> String {
        let outcomes: Vec<String> = self.outcomes.0.iter().map(u64::to_string).collect();
        format!(
            "part golden_s={:?} golden_minflt={} pass_s={:?} attempted={} failed={} digest={:#x} outcomes={} peak_rss_mb={:?}",
            self.golden_s,
            self.golden_minflt,
            self.pass_s,
            self.attempted,
            self.failed,
            self.digest,
            outcomes.join(","),
            self.peak_rss_mb
        )
    }

    fn parse(line: &str) -> Option<PartResult> {
        let rest = line.strip_prefix("part ")?;
        let fields: std::collections::HashMap<&str, &str> = rest
            .split_whitespace()
            .filter_map(|w| w.split_once('='))
            .collect();
        let num = |k: &str| fields.get(k)?.parse::<u64>().ok();
        let real = |k: &str| fields.get(k)?.parse::<f64>().ok();
        let mut outcomes = Outcomes::default();
        let counts: Vec<&str> = fields.get("outcomes")?.split(',').collect();
        if counts.len() != outcomes.0.len() {
            return None;
        }
        for (o, c) in outcomes.0.iter_mut().zip(counts) {
            *o = c.parse().ok()?;
        }
        Some(PartResult {
            golden_s: real("golden_s")?,
            golden_minflt: num("golden_minflt")?,
            pass_s: real("pass_s")?,
            attempted: num("attempted")?,
            failed: num("failed")?,
            digest: u64::from_str_radix(fields.get("digest")?.strip_prefix("0x")?, 16).ok()?,
            outcomes,
            peak_rss_mb: real("peak_rss_mb")?,
        })
    }
}

/// One part of an end-to-end run, in a process of its own, as a user runs
/// a campaign: campaign `k`'s golden pass (the set-up), then one checked
/// engine pass. Prints its notes, then its result line.
pub fn part(workload: Workload, seed: u64, k: usize) {
    let plan = Plan::new(workload, fold64(seed, k as u64), INJECTIONS);
    let mut r = Report::default();
    let u = Usage::process();
    let t = Instant::now();
    let golden = golden_trace(&plan.cfg, None);
    let golden_s = t.elapsed().as_secs_f64();
    let golden_minflt = Usage::process().since(u).minflt;
    let t = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| engine(&plan, &golden)));
    let pass_s = t.elapsed().as_secs_f64();
    let mut digest = None;
    let (failed, recs) = check_pass(&plan, k, out, &mut digest, &mut r);
    let mut outcomes = Outcomes::default();
    if let Some(Records::Injection(v)) = &recs {
        v.iter().for_each(|x| outcomes.add(&x.outcome));
    }
    for n in &r.notes {
        println!("{n}");
    }
    let result = PartResult {
        golden_s,
        golden_minflt,
        pass_s,
        attempted: plan.cfg.injections as u64,
        failed,
        digest: digest.unwrap_or(0),
        outcomes,
        peak_rss_mb: sys::peak_rss_mb(),
    };
    println!("{}", result.line());
}

/// Run part `k` in a child process and read its result, forwarding its
/// notes; `None` if the child failed or printed no result line.
fn spawn_part(workload: Workload, seed: u64, k: usize, r: &mut Report) -> Option<PartResult> {
    let out = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args([
                "--workload",
                workload.name(),
                "--trace",
                "0",
                "--seconds",
                "1",
            ])
            .args(["--seed", &seed.to_string(), "--part", &k.to_string()])
            .stdin(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit())
            .output()
    });
    let out = match out {
        Ok(o) => o,
        Err(e) => {
            r.note(format!("part {k}: could not start: {e}"));
            return None;
        }
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let parsed = lines.pop().and_then(PartResult::parse);
    r.notes.extend(lines.iter().map(|l| l.to_string()));
    if !out.status.success() || parsed.is_none() {
        r.note(format!(
            "part {k}: exited with {} and no result",
            out.status
        ));
        return None;
    }
    parsed
}

/// The end-to-end run: `setup_s`, `ops_per_s`, `peak_rss_mb`.
///
/// The run is a sequence of parts, each a fresh process that runs one
/// campaign seeded from the run's seed as a user would: golden pass, then
/// one engine pass. glibc's malloc settles, per process, into one of two
/// states: one where every dropped platform clone is trimmed from the
/// heap and faulted back in, and one where it is kept, and the inputs do
/// not decide which. One process per run would make `ops_per_s` bimodal
/// across runs; a run of many short processes averages over both. Parts
/// start until the run time is spent; then campaign 0 runs once more, in
/// a new process, and must give the same record digest as its first run.
///
/// - `setup_s`: median of the parts' golden passes.
/// - `ops_per_s`: injections of all parts ÷ their engine passes' time.
/// - `peak_rss_mb`: the largest high-water RSS of any part's process.
pub fn run(workload: Workload, seed: u64, run_for: Duration) -> Report {
    let mut r = Report::default();
    let (mut golden_s, mut pass_s, mut injections, mut rss) = (Vec::new(), 0.0, 0, 0.0f64);
    let mut outcomes = Outcomes::default();
    let mut first_digest = None;
    let start = Instant::now();
    let mut k = 0;
    let mut again = false;
    loop {
        let Some(p) = spawn_part(workload, seed, k, &mut r) else {
            r.attempted += INJECTIONS as u64;
            r.failed += INJECTIONS as u64;
            break;
        };
        r.attempted += p.attempted;
        r.failed += p.failed;
        r.note(format!(
            "part {k}: golden pass {:.4} s ({} minor faults), engine pass {:.4} s",
            p.golden_s, p.golden_minflt, p.pass_s
        ));
        golden_s.push(p.golden_s);
        rss = rss.max(p.peak_rss_mb);
        if p.failed == 0 {
            pass_s += p.pass_s;
            injections += p.attempted;
        }
        if again {
            if Some(p.digest) != first_digest {
                r.note(format!(
                    "campaign 0: digest {:#x} on its second run, {:#x} on its first",
                    p.digest,
                    first_digest.unwrap_or(0)
                ));
                r.failed += p.attempted;
            }
            break;
        }
        if k == 0 {
            first_digest = Some(p.digest);
        }
        outcomes.add_all(&p.outcomes);
        k += 1;
        if start.elapsed() >= run_for {
            (k, again) = (0, true);
        }
    }
    if outcomes.total() > 0 {
        r.note(outcomes.line());
    }
    if golden_s.is_empty() {
        return r;
    }
    r.metric("setup_s", median(&mut golden_s), "s");
    let ops = if pass_s > 0.0 {
        injections as f64 / pass_s
    } else {
        0.0
    };
    r.metric("ops_per_s", ops, "1/s");
    r.metric("peak_rss_mb", rss, "MB");
    r
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// The benchmark's own golden walk: the same steps as `golden_trace`,
/// made through public calls so each can be timed and so the replay has a
/// checkpoint chain to fork from.
struct Shadow {
    store: CheckpointStore,
    points: Vec<PointMeta>,
    /// Simulated instructions retired inside timed activations.
    insns: u64,
}

fn activation(tr: &mut Tracer, plat: &mut Platform, mon: &mut Xentry, id: u64, insns: &mut u64) {
    let before = plat.machine.cpu(CPU).insns_retired;
    let act = tr.time("xen_like.activation", id, || plat.run_activation(CPU, mon));
    assert!(
        act.outcome.is_healthy(),
        "fault-free activation died: {:?}",
        act.outcome
    );
    *insns += plat.machine.cpu(CPU).insns_retired - before;
}

fn shadow_walk(cfg: &CampaignConfig, tr: &mut Tracer) -> Shadow {
    let ci = cfg.checkpoint_interval.max(1);
    let nr_points = cfg.nr_points();
    let mut insns = 0;
    tr.begin("bench.golden_walk", 0);
    let mut plat = tr.time("xen_like.platform_build", 0, || {
        campaign_platform(cfg, cfg.seed)
    });
    let mut mon = Xentry::collector();
    tr.time("xen_like.boot", 0, || plat.boot(CPU, &mut mon));
    for _ in 0..cfg.warmup {
        activation(tr, &mut plat, &mut mon, 0, &mut insns);
    }
    let mut store = tr.time("faultsim.checkpoint_push", 0, || {
        CheckpointStore::new(plat.snapshot())
    });
    let mut points: Vec<PointMeta> = Vec::with_capacity(nr_points);
    let mut skipped = 0;
    while points.len() < nr_points {
        let ordinal = points.len();
        let id = (ordinal * cfg.per_point) as u64;
        if ordinal > 0 && ordinal.is_multiple_of(ci) && store.len() == ordinal / ci {
            tr.time("faultsim.checkpoint_push", id, || store.push(&plat));
        }
        for _ in 0..cfg.stride {
            activation(tr, &mut plat, &mut mon, id, &mut insns);
        }
        let (reason, _) = tr.time("xen_like.run_to_exit", id, || plat.run_to_exit(CPU));
        let at_exit = tr.time("xen_like.clone", id, || plat.clone());
        let prepared = tr.time("faultsim.prepare_point", id, || {
            prepare_point(at_exit, CPU, DOM, reason, cfg.post_window, None)
        });
        match prepared {
            Some(p) => points.push(p.meta(ordinal, std::mem::take(&mut skipped))),
            None => skipped += 1,
        }
        tr.time("xen_like.run_handler", id, || {
            plat.run_handler(CPU, reason, 0, &mut mon)
        });
    }
    tr.end();
    Shadow {
        store,
        points,
        insns,
    }
}

/// Per-injection expectations the replay is checked against.
enum Expected<'a> {
    Injection(&'a [InjectionRecord]),
    Recovery(&'a [RecoveryRecord]),
}

/// Tallies of one replay pass.
#[derive(Default)]
struct Replay {
    mismatches: u64,
    outcomes: Outcomes,
}

/// Phase 2 replayed from public calls, chunk by chunk, checked record by
/// record against `digests` (the engine's records, in order).
fn shadow_forks(
    plan: &Plan,
    sh: &mut Shadow,
    expected: &Expected,
    digests: &[u64],
    tr: &mut Tracer,
    probes: bool,
) -> Replay {
    let cfg = &plan.cfg;
    let ci = cfg.checkpoint_interval.max(1);
    let per = cfg.per_point.max(1);
    let mut out = Replay::default();
    let mut mon = Xentry::collector();
    for chunk in 0..cfg.nr_chunks() {
        let lo = chunk * ci;
        let hi = ((chunk + 1) * ci).min(sh.points.len());
        tr.begin("bench.chunk", (lo * per) as u64);
        let mut plat = tr.time("faultsim.checkpoint_restore", (lo * per) as u64, || {
            sh.store.restore(chunk)
        });
        for meta in &sh.points[lo..hi] {
            let first = meta.ordinal * per;
            let id = first as u64;
            for _ in 0..meta.skipped_before {
                for _ in 0..cfg.stride {
                    activation(tr, &mut plat, &mut mon, id, &mut sh.insns);
                }
                let (reason, _) = tr.time("xen_like.run_to_exit", id, || plat.run_to_exit(CPU));
                tr.time("xen_like.run_handler", id, || {
                    plat.run_handler(CPU, reason, 0, &mut mon)
                });
            }
            for _ in 0..cfg.stride {
                activation(tr, &mut plat, &mut mon, id, &mut sh.insns);
            }
            let (reason, _) = tr.time("xen_like.run_to_exit", id, || plat.run_to_exit(CPU));
            assert_eq!(
                reason, meta.reason,
                "replay walk diverged at point {}",
                meta.ordinal
            );
            let at_exit = tr.time("xen_like.clone", id, || plat.clone());
            let point = tr.time("faultsim.prepare_point_forked", id, || {
                prepare_point_forked(at_exit, CPU, DOM, cfg.post_window, meta, None)
            });
            let last = (first + per).min(cfg.injections);
            for k in first..last {
                let json = match expected {
                    Expected::Injection(recs) => {
                        let e = &recs[k];
                        let spec = InjectionSpec {
                            target: e.target,
                            bit: e.bit,
                            at_step: e.at_step,
                        };
                        let rec =
                            tr.time("faultsim.inject", k as u64, || inject(&point, spec, None));
                        out.outcomes.add(&rec.outcome);
                        serde_json::to_string(&rec)
                    }
                    Expected::Recovery(recs) => {
                        let e = &recs[k];
                        let rec = replay_recovery(plan, &point, e, k as u64, tr, probes, &mut out);
                        serde_json::to_string(&rec)
                    }
                };
                let ok = tr.time("bench.check", k as u64, || {
                    digests.get(k) == Some(&record_digest(&json.expect("records serialize")))
                });
                out.mismatches += u64::from(!ok);
            }
            if probes {
                tr.time("faultsim.diff", id, || {
                    diff_machines(
                        &point.golden_entry.machine,
                        &point.at_exit.machine,
                        CPU,
                        point.at_exit.topo.domains.len(),
                    )
                });
            }
            tr.time("xen_like.run_handler", id, || {
                plat.run_handler(CPU, reason, 0, &mut mon)
            });
        }
        tr.end();
    }
    out
}

/// Span names for the per-table recovery calls, by table name.
fn recover_span(table: &HmTable) -> &'static str {
    match table.name.as_str() {
        "ignore-all" => "faultsim.recover_ignore_all",
        "reexec-only" => "faultsim.recover_reexec_only",
        "tiered" => "faultsim.recover_tiered",
        _ => "faultsim.recover_other",
    }
}

fn replay_recovery(
    plan: &Plan,
    point: &InjectionPoint,
    e: &RecoveryRecord,
    id: u64,
    tr: &mut Tracer,
    probes: bool,
    out: &mut Replay,
) -> RecoveryRecord {
    let spec: RecoverySpec = e.spec;
    let fault = tr.time("faultsim.detect", id, || detect_fault(point, spec, None));
    let per_policy = match &fault {
        None => plan.tables.iter().map(|_| None).collect(),
        Some(f) => plan
            .tables
            .iter()
            .map(|t| Some(tr.time(recover_span(t), id, || recover_detected(f, point, t))))
            .collect(),
    };
    if probes {
        let (outcome, _) = tr.time("faultsim.inject_spec", id, || {
            inject_spec(point, &spec, None)
        });
        out.outcomes.add(&outcome);
        if let Some(f) = &fault {
            tr.begin("bench.microreboot_probe", id);
            let mut plat = f.plat.clone();
            let mut mon = Xentry::collector();
            tr.time("xen_like.microreboot", id, || {
                plat.microreboot(f.cpu, &mut mon)
            });
            tr.end();
        }
    }
    RecoveryRecord {
        ordinal: e.ordinal,
        spec,
        per_policy,
    }
}

/// Spans of calls the engine's own pass does not make; the overhead
/// figure subtracts their time from the replay.
const PROBE_SPANS: [&str; 3] = [
    "faultsim.diff",
    "faultsim.inject_spec",
    "bench.microreboot_probe",
];

/// Report p50, p99 and the sample count of span `name` as `metric`, if
/// the run made that call: a traced run's probes fill in the calls its
/// workload never makes.
pub fn timing(
    r: &mut Report,
    tr: &Tracer,
    name: &str,
    metric: &str,
    scale_ns: f64,
    unit: &'static str,
) {
    if let Some(s) = tr.stats(name) {
        r.metric(
            format!("{metric}.p50"),
            s.hist.quantile(0.50) / scale_ns,
            unit,
        );
        r.metric(
            format!("{metric}.p99"),
            s.hist.quantile(0.99) / scale_ns,
            unit,
        );
        r.metric(format!("{metric}.n"), s.hist.count() as f64, "count");
    }
}

/// Layer self times, the closure figure and the tracing overhead of the
/// main tracer.
pub fn closure(r: &mut Report, tr: &Tracer, wall_ns: u64, overhead: f64) {
    let layers = tr.layer_self_ns();
    // The benchmark's own glue is not a program layer.
    let covered: u64 = layers
        .iter()
        .filter(|(l, _)| **l != "bench")
        .map(|(_, ns)| ns)
        .sum();
    let mut parts = Vec::new();
    for (layer, ns) in &layers {
        r.metric(format!("self.{layer}_s"), *ns as f64 / 1e9, "s");
        parts.push(format!("{layer}={:.3}s", *ns as f64 / 1e9));
    }
    let share = covered as f64 / wall_ns.max(1) as f64;
    r.note(format!(
        "self time: {} of {:.3}s wall (closure {:.4})",
        parts.join(" "),
        wall_ns as f64 / 1e9,
        share
    ));
    r.metric("trace.closure", share, "share");
    r.metric("trace.overhead", overhead, "share");
    r.metric("trace.spans", tr.span_count() as f64, "count");
    r.metric("trace.spans_dropped", tr.dropped as f64, "count");
}

fn usage_metrics(r: &mut Report, phase: &str, u: Usage) {
    r.metric(format!("proc.{phase}.user_s"), u.user_s, "s");
    r.metric(format!("proc.{phase}.sys_s"), u.sys_s, "s");
    r.metric(format!("proc.{phase}.minflt"), u.minflt as f64, "count");
}

/// The traced run of a campaign workload: one golden pass per campaign,
/// then, campaign by campaign in turn, an engine pass followed by the
/// traced replay of the same campaign, until `run_for` is spent (at least
/// one pair). A campaign's first replay also runs the probe calls. With
/// one small campaign and no run time this is another workload's probe.
/// Golden and engine passes are timed as whole calls: they are kept in
/// the span file but count in no layer's self time, and the closure
/// figure covers only the benchmark's walk and replays.
pub fn traced(
    workload: Workload,
    seed: u64,
    campaigns: usize,
    injections: usize,
    run_for: Duration,
    epoch: Instant,
    label: &'static str,
) -> (Report, Tracer) {
    let plans = plans(workload, seed, campaigns, injections);
    let mut tr = Tracer::new(label, epoch, SPAN_CAP);
    let mut r = Report::default();

    let setup_start = Usage::process();
    let mut goldens = Vec::with_capacity(plans.len());
    let (mut secs, mut minflt, mut sys_s) = (Vec::new(), Vec::new(), Vec::new());
    for (k, plan) in plans.iter().enumerate() {
        let u = Usage::process();
        let start_ns = tr.now_ns();
        goldens.push(golden_trace(&plan.cfg, None));
        let end_ns = tr.now_ns();
        tr.keep_span("faultsim.golden_trace", k as u64, start_ns, end_ns, 0);
        secs.push((end_ns - start_ns) as f64 / 1e9);
        let du = Usage::process().since(u);
        minflt.push(du.minflt as f64);
        sys_s.push(du.sys_s);
    }
    usage_metrics(&mut r, "setup", Usage::process().since(setup_start));
    r.metric("faultsim.golden_pass_s", median(&mut secs), "s");
    r.metric("faultsim.golden_pass_minflt", median(&mut minflt), "count");
    r.metric("faultsim.golden_pass_sys_s", median(&mut sys_s), "s");

    let run_start = Usage::process();
    let mut shadows: Vec<Option<Shadow>> = plans.iter().map(|_| None).collect();
    let mut firsts = vec![None; plans.len()];
    let mut ratios = Vec::new();
    let mut outcomes = Outcomes::default();
    let mut insns = 0;
    let start = Instant::now();
    for pair in 0.. {
        let k = pair % plans.len();
        let (plan, golden) = (&plans[k], &goldens[k]);
        let n = plan.cfg.injections as u64;
        let u = Usage::process();
        let start_ns = tr.now_ns();
        let out = catch_unwind(AssertUnwindSafe(|| engine(plan, golden)));
        let end_ns = tr.now_ns();
        tr.keep_span("faultsim.run_campaign", k as u64, start_ns, end_ns, 0);
        let engine_ns = end_ns - start_ns;
        if pair == 0 {
            let du = Usage::process().since(u);
            r.metric("faultsim.inject_phase_minflt", du.minflt as f64, "count");
            r.metric("faultsim.inject_phase_sys_s", du.sys_s, "s");
        }
        r.attempted += n;
        let (failed, recs) = check_pass(plan, k, out, &mut firsts[k], &mut r);
        r.failed += failed;
        let Some(recs) = recs else { break };
        let expected = match &recs {
            Records::Injection(v) if v.len() == plan.cfg.injections => Expected::Injection(v),
            Records::Recovery(v) if v.len() == plan.cfg.injections => Expected::Recovery(v),
            _ => break,
        };
        let digests = recs.digests();
        let probes = shadows[k].is_none();
        let shadow = shadows[k].get_or_insert_with(|| {
            let sh = shadow_walk(&plan.cfg, &mut tr);
            r.attempted += sh.points.len() as u64;
            if sh.points != golden.points {
                r.note(format!(
                    "campaign {k}: replay walk disagrees with golden_trace's points"
                ));
                r.failed += sh.points.len() as u64;
            }
            sh
        });
        let probe_before: u64 = PROBE_SPANS.iter().map(|s| tr.total_ns(s)).sum();
        tr.begin("bench.replay", k as u64);
        // On a worker thread, as the engine runs its chunks: a thread's
        // own malloc arena behaves unlike the main thread's heap.
        let replay = std::thread::scope(|s| {
            s.spawn(|| shadow_forks(plan, shadow, &expected, &digests, &mut tr, probes))
                .join()
        });
        let replay_ns = tr.end();
        let probe_ns = PROBE_SPANS.iter().map(|s| tr.total_ns(s)).sum::<u64>() - probe_before;
        r.attempted += n;
        match replay {
            Ok(rep) => {
                r.failed += rep.mismatches;
                if rep.mismatches > 0 {
                    r.note(format!(
                        "campaign {k}: {} replayed records differ from the engine's",
                        rep.mismatches
                    ));
                }
                if probes {
                    outcomes.add_all(&rep.outcomes);
                }
            }
            Err(_) => {
                r.note(format!(
                    "campaign {k}: replay panicked; its injections count as failed"
                ));
                r.failed += n;
                break;
            }
        }
        ratios.push((replay_ns - probe_ns) as f64 / engine_ns.max(1) as f64 - 1.0);
        if start.elapsed() >= run_for {
            break;
        }
    }
    // Closure covers the benchmark's own walk and replays, where every
    // layer call is a span of its own; the engine and golden passes are
    // single opaque calls and are kept out of it.
    let wall_ns = tr.total_ns("bench.golden_walk") + tr.total_ns("bench.replay");
    usage_metrics(&mut r, "run", Usage::process().since(run_start));
    r.note(format!("engine/replay pairs: {}", ratios.len()));
    if outcomes.total() > 0 {
        r.note(outcomes.line());
        outcomes.report(&mut r);
    }
    if let Some(sh) = shadows.iter().flatten().next() {
        let words: usize = (sh.store.restore(0).machine.mem.regions().iter())
            .map(|reg| reg.words.len())
            .sum();
        r.metric("sim_machine.mem_words", words as f64, "count");
    }
    for sh in shadows.iter().flatten() {
        insns += sh.insns;
    }

    timing(
        &mut r,
        &tr,
        "faultsim.checkpoint_restore",
        "faultsim.checkpoint_restore_us",
        1e3,
        "us",
    );
    timing(
        &mut r,
        &tr,
        "faultsim.prepare_point_forked",
        "faultsim.prepare_point_forked_us",
        1e3,
        "us",
    );
    timing(
        &mut r,
        &tr,
        "faultsim.inject",
        "faultsim.inject_us",
        1e3,
        "us",
    );
    timing(&mut r, &tr, "faultsim.diff", "faultsim.diff_us", 1e3, "us");
    timing(
        &mut r,
        &tr,
        "faultsim.detect",
        "faultsim.detect_us",
        1e3,
        "us",
    );
    for t in &plans[0].tables {
        let name = recover_span(t);
        timing(&mut r, &tr, name, &format!("{name}_us"), 1e3, "us");
    }
    timing(
        &mut r,
        &tr,
        "xen_like.clone",
        "xen_like.clone_us",
        1e3,
        "us",
    );
    timing(
        &mut r,
        &tr,
        "xen_like.activation",
        "xen_like.activation_us",
        1e3,
        "us",
    );
    timing(
        &mut r,
        &tr,
        "xen_like.microreboot",
        "xen_like.microreboot_us",
        1e3,
        "us",
    );
    let act_s = tr.total_ns("xen_like.activation") as f64 / 1e9;
    if act_s > 0.0 {
        r.metric("sim_machine.sim_insns_per_s", insns as f64 / act_s, "1/s");
    }
    let overhead = if ratios.is_empty() {
        0.0
    } else {
        median(&mut ratios)
    };
    closure(&mut r, &tr, wall_ns, overhead);
    (r, tr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn part_result_round_trips() {
        let p = PartResult {
            golden_s: 0.123456789,
            golden_minflt: 54904,
            pass_s: 1.5,
            attempted: 2000,
            failed: 3,
            digest: 0x7c00_55d1_bc20_0062,
            outcomes: Outcomes([1, 2, 3, 4, 5]),
            peak_rss_mb: 13.8046875,
        };
        let q = PartResult::parse(&p.line()).expect("parses");
        assert_eq!(q.line(), p.line());
        assert!(PartResult::parse("campaign 0: seed=0x1").is_none());
        assert!(PartResult::parse("part golden_s=1.0").is_none());
    }
}
