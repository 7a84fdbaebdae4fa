//! Benchmark of the Xentry reproduction: three workloads driven through
//! the public API of `faultsim`, `xen-like`, `xentry-fleet` and
//! `xentry-bench`.
//!
//! ```text
//! perfbench --workload <campaign-freqmine|recovery-irqstorm|fleet-closed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics (`setup_s`,
//! `ops_per_s`, `peak_rss_mb`); with `--trace 1` it times every call the
//! benchmark makes into a layer and prints the per-layer metrics, the
//! closure figure and the tracing overhead, and writes the spans to
//! `perfbench/results/`. The last line of standard output is the result
//! as one JSON object. See `perfbench/README.md` for why each workload and
//! metric was chosen.

mod campaign;
mod fleet;
mod sys;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};
use sys::{json_str, MachineInfo};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CampaignFreqmine,
    RecoveryIrqstorm,
    FleetClosed,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::CampaignFreqmine,
        Workload::RecoveryIrqstorm,
        Workload::FleetClosed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignFreqmine => "campaign-freqmine",
            Workload::RecoveryIrqstorm => "recovery-irqstorm",
            Workload::FleetClosed => "fleet-closed",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub run_for: Duration,
    pub traced: bool,
    /// Set only when a campaign run starts one of its parts (see
    /// `campaign::run`).
    pub part: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut part = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            "--part" => part = Some(value.parse::<usize>().map_err(|e| format!("--part: {e}"))?),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        run_for: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        traced: traced.ok_or("--trace is required")?,
        part,
    })
}

/// One metric as printed.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to be printed.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable receipts (digests, outcome counts, spans file).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !self.metrics.iter().any(|m| m.name == name) {
            self.metrics.push(Metric { name, value, unit });
        }
    }

    /// Fold in a probe's per-layer metrics and counts; metrics the main
    /// workload already reported keep its value. Returns the names of the
    /// metrics the probe supplied.
    pub fn absorb(&mut self, other: Report) -> Vec<String> {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let mut supplied = Vec::new();
        for m in other.metrics {
            if !self.metrics.iter().any(|x| x.name == m.name) {
                supplied.push(m.name.clone());
                self.metrics.push(m);
            }
        }
        self.notes.extend(other.notes);
        supplied
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    fn metrics_json(&self) -> String {
        let items: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// A finite JSON number with every digit the value has.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Where results and spans go: `perfbench/results/` next to the sources.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// The traced run: the workload itself, traced for the run time, then a
/// short fixed-size probe of each other workload, because every traced
/// result carries every per-layer metric `BENCHMARK.json` names. Closure,
/// self times and overhead are the workload's own; a probe only fills in
/// layers the workload never calls, and the result names each metric a
/// probe supplied.
fn run_traced(args: &Args) -> Report {
    let epoch = Instant::now();
    let dir = results_dir();
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let service_trace = dir.join(format!("{stem}-fleet-service-spans.json"));
    let mut tracers = Vec::new();
    let mut report = Report::default();
    for w in std::iter::once(args.workload)
        .chain(Workload::ALL.into_iter().filter(|w| *w != args.workload))
    {
        let main = w == args.workload;
        let label = if main { "workload" } else { w.name() };
        let (r, t) = match (w, main) {
            (Workload::FleetClosed, true) => {
                fleet::traced(args.seed, args.run_for, epoch, label, Some(&service_trace))
            }
            (Workload::FleetClosed, false) => {
                fleet::traced(args.seed, fleet::PROBE_RUN, epoch, label, None)
            }
            (w, true) => campaign::traced(
                w,
                args.seed,
                campaign::CAMPAIGNS,
                campaign::INJECTIONS,
                args.run_for,
                epoch,
                label,
            ),
            (w, false) => campaign::traced(
                w,
                args.seed,
                1,
                campaign::PROBE_INJECTIONS,
                Duration::ZERO,
                epoch,
                label,
            ),
        };
        if main {
            report = r;
        } else {
            let (attempted, failed) = (r.attempted, r.failed);
            let supplied = report.absorb(r);
            report.note(format!(
                "probe {}: attempted={attempted} failed={failed} supplied: {}",
                w.name(),
                supplied.join(" ")
            ));
        }
        tracers.push(t);
    }
    let spans = dir.join(format!("{stem}-spans.json"));
    match trace::write_chrome(&spans, &tracers) {
        Ok(()) => report.note(format!("spans: {}", spans.display())),
        Err(e) => report.note(format!("writing {}: {e}", spans.display())),
    }
    report
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(k) = args.part {
        if args.workload == Workload::FleetClosed || args.traced {
            eprintln!("perfbench: --part is for untraced campaign workloads");
            std::process::exit(2);
        }
        campaign::part(args.workload, args.seed, k);
        return;
    }
    let machine = MachineInfo::read();
    println!("machine: {}", machine.to_json());
    let report = match (args.workload, args.traced) {
        (Workload::FleetClosed, false) => fleet::run(args.seed, args.run_for),
        (w, false) => campaign::run(w, args.seed, args.run_for),
        (_, true) => run_traced(&args),
    };
    for n in &report.notes {
        println!("{n}");
    }
    for m in &report.metrics {
        println!("  {:<40} {:>18} {}", m.name, json_num(m.value), m.unit);
    }
    // A run that attempted nothing has failed at the one thing it tried.
    let (attempted, failed) = if report.attempted == 0 {
        (1, 1)
    } else {
        (report.attempted, report.failed.min(report.attempted))
    };
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        report.metrics_json()
    );
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"machine\": {}, \"notes\": [{}], \"result\": {result}}}\n",
        json_str(args.workload.name()),
        args.seed,
        json_num(args.run_for.as_secs_f64()),
        u8::from(args.traced),
        machine.to_json(),
        report.notes.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(", ")
    );
    let path = results_dir().join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.traced)
    ));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    println!("{result}");
}
