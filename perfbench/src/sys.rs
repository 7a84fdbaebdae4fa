//! Process and machine facts read from `/proc`: the machine descriptor
//! every result carries, per-phase CPU time and minor faults, per-thread
//! CPU time, and the process's high-water RSS.

use std::time::Duration;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields. Linux
/// fixes `USER_HZ` at 100 on every architecture this benchmark runs on.
const TICKS_PER_S: f64 = 100.0;

/// What a result must name so numbers are only compared like-for-like.
pub struct MachineInfo {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub simd_kernel: &'static str,
}

impl MachineInfo {
    pub fn read() -> MachineInfo {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        MachineInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
            simd_kernel: mltree::active_kernel_name(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}, \"simd_kernel\": {}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.kernel),
            json_str(self.simd_kernel)
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// CPU time and minor faults of a process or thread at one instant.
#[derive(Clone, Copy, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minflt: u64,
}

impl Usage {
    /// The whole process.
    pub fn process() -> Usage {
        parse_stat(&std::fs::read_to_string("/proc/self/stat").unwrap_or_default())
    }

    /// Usage accrued since `earlier`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minflt: self.minflt.saturating_sub(earlier.minflt),
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Parse the fields after the parenthesised command name of a
/// `/proc/.../stat` line (the name itself may contain spaces).
fn parse_stat(line: &str) -> Usage {
    let rest = line.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state(0) ppid(1) ... minflt(7) ... utime(11) stime(12).
    let num = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    Usage {
        user_s: num(11) as f64 / TICKS_PER_S,
        sys_s: num(12) as f64 / TICKS_PER_S,
        minflt: num(7),
    }
}

/// Usage of every thread of this process whose name is `comm`, summed.
pub fn threads_named(comm: &str) -> Usage {
    let mut total = Usage::default();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return total;
    };
    for task in dir.flatten() {
        let path = task.path();
        let name = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if name.trim() == comm {
            let u = parse_stat(&std::fs::read_to_string(path.join("stat")).unwrap_or_default());
            total.user_s += u.user_s;
            total.sys_s += u.sys_s;
            total.minflt += u.minflt;
        }
    }
    total
}

/// Usage of the calling thread.
pub fn this_thread() -> Usage {
    parse_stat(&std::fs::read_to_string("/proc/thread-self/stat").unwrap_or_default())
}

/// High-water resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of a non-empty sample, as seconds.
pub fn median_s(samples: &[Duration]) -> f64 {
    let mut s: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
    median(&mut s)
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(s: &mut [f64]) -> f64 {
    assert!(!s.is_empty(), "median of an empty sample");
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}
