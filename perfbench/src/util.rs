//! Small helpers shared by every workload: order statistics, process
//! readings from `/proc`, and the result record.

use std::collections::BTreeMap;
use std::time::Instant;

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by linear interpolation between
/// order statistics; `None` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `xs`, `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5).unwrap_or(0.0)
}

/// The mean of `xs`, `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Clock ticks per second of `/proc/<pid>/stat` CPU fields. Linux has
/// reported a fixed `USER_HZ` of 100 to user space on every mainstream
/// architecture for decades.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds consumed so far by every thread of
/// process `pid` (`"self"` for this process).
pub fn cpu_seconds(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    // The command name (field 2) may contain spaces; the fields after its
    // closing parenthesis are space-separated: state is field 3, utime 14
    // and stime 15.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> Result<f64, String> {
        fields
            .get(n - 3)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: field {n} unreadable"))
    };
    Ok((field(14)? + field(15)?) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let kib = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kib / 1024.0)
}

/// What one run reports: the operation tally, the correctness verdict
/// with the reason of every failed check, and the metrics by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed output checks, one line each (empty when correct).
    pub violations: Vec<String>,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Extra tallies printed to stderr (not part of the result line).
    pub tally: BTreeMap<String, u64>,
}

impl Outcome {
    /// Records one metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_owned(), (value, unit));
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Adds to a named tally.
    pub fn count(&mut self, name: &str, n: u64) {
        *self.tally.entry(name.to_owned()).or_insert(0) += n;
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. Values keep every digit of their shortest
    /// round-trip form; a value that is not finite is a bug and panics.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                assert!(value.is_finite(), "metric {name} is {value}");
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.violations.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}
