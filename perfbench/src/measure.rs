//! Measurement helpers: raw-sample percentiles, the host-speed
//! reference kernel, process CPU time and peak RSS from `/proc`, the
//! benchmark's own span recorder, and the metric list printed at the
//! end of a run.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

/// Nearest-rank percentile over raw samples (`q` in `(0, 1]`).
/// Returns 0 on an empty sample.
pub fn nearest_rank(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median (nearest rank) of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(samples, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median call time over the last tenth of `calls` divided by the
/// median over the first tenth: how much one call slows as the run
/// accumulates state.
pub fn cost_growth(calls: &[f64]) -> f64 {
    let tenth = calls.len() / 10;
    if tenth == 0 {
        return 0.0;
    }
    ratio(
        median(&calls[calls.len() - tenth..]),
        median(&calls[..tenth]),
    )
}

/// Seconds [`reference_kernel`] takes on the reference host: a 2-core
/// x86-64 VM with a 2.0 GHz Xeon, at its usual speed.
pub const REFERENCE_KERNEL_S: f64 = 2.0e-3;

/// Runs a fixed, std-only piece of work shaped like the engine's hot
/// path (small ordered sets built and collected per candidate, a
/// discount power per candidate, a booking calendar walked front to
/// back) and returns its wall seconds. It calls
/// nothing in the program, so a change to the program cannot move it,
/// while a slowdown of the host moves it with the program.
pub fn reference_kernel() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut acc = 0.0f64;
    for _ in 0..1000 {
        let mut footprint = BTreeSet::new();
        for _ in 0..6 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            footprint.insert((x % 16) as u32);
        }
        let tables: Vec<u32> = footprint.iter().copied().collect();
        for mask in 0..(1u32 << tables.len().min(5)) {
            let local: BTreeSet<u32> = tables
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, t)| *t)
                .collect();
            acc += 0.95f64.powf(2.0 + 2.0 * (tables.len() - local.len()) as f64);
        }
    }
    // A booking calendar walked front to back, as dispatch walks the
    // facility calendars.
    let bookings: Vec<(f64, f64)> = (0..6000)
        .map(|i| (f64::from(i) * 3.0, f64::from(i) * 3.0 + 2.0))
        .collect();
    for probe in 0..60 {
        let at = f64::from(probe) * 300.0;
        acc += bookings.iter().position(|&(_, end)| end > at).unwrap_or(0) as f64;
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

/// User plus system CPU seconds of this process, every thread included
/// (`/proc/self/stat` fields 14 and 15).
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields after it are
    // counted from the closing parenthesis.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // Field 3 (state) is index 0 here, so utime (14) and stime (15)
    // sit at indices 11 and 12. The kernel reports them in USER_HZ
    // ticks, which is 100 on Linux.
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One span the benchmark recorded around a call into the program.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called, as `<module>.<call>`.
    pub name: &'static str,
    /// Start, microseconds since the run's epoch.
    pub start_us: f64,
    /// End, microseconds since the run's epoch.
    pub end_us: f64,
    /// The span that caused this one (`None` for roots).
    pub parent: Option<u64>,
    /// The request this span served (frame index or query id).
    pub request: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Collects spans against one epoch; disabled recorders keep nothing.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder timing against `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Spans {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span from `start` to now. A span's id is its index in
    /// recording order, which children name as their parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<u64>,
        request: u64,
    ) {
        let end = Instant::now();
        if self.enabled {
            self.spans.push(Span {
                name,
                start_us: (start - self.epoch).as_secs_f64() * 1e6,
                end_us: (end - self.epoch).as_secs_f64() * 1e6,
                parent,
                request,
            });
        }
    }

    /// Durations in microseconds of the spans named `name`, in order.
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Moves `other`'s spans in behind this recorder's. Their parent
    /// ids must already name spans of this recorder.
    pub fn absorb(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: name, start, end, parent and request.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_us, s.end_us, s.request
            );
        }
        out
    }
}

/// The metrics one run reports, in print order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds one named metric with its unit.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_owned(), value, unit));
    }

    /// Whether every value is a finite number.
    pub fn all_finite(&self) -> bool {
        self.entries.iter().all(|(_, v, _)| v.is_finite())
    }

    /// One `name = value unit` line per metric.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.entries {
            let _ = writeln!(out, "  {name:<36} {value:>16.6} {unit}");
        }
        out
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_sample_values() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(nearest_rank(&xs, 0.5), 3.0);
        assert_eq!(nearest_rank(&xs, 0.99), 5.0);
        assert_eq!(nearest_rank(&xs, 0.2), 1.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn cost_growth_compares_tenths() {
        let calls: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 3.0 }).collect();
        assert_eq!(cost_growth(&calls), 3.0);
        assert_eq!(cost_growth(&[1.0; 5]), 0.0);
    }

    #[test]
    fn reference_kernel_takes_measurable_time() {
        let t = reference_kernel();
        assert!(t > 0.0 && t < 1.0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.0);
        assert!(process_cpu_seconds() >= 0.0);
    }
}
