//! The repository benchmark: three seeded workloads, measured end to
//! end with tracing off, or per module with tracing on.
//!
//! ```text
//! perfbench --workload <net_hot|adhoc_plan|burst_faults|all> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds every input from the seed before any clock starts,
//! then repeats the workload on a fresh engine until `--seconds` have
//! passed. Wall and CPU times are normalized to a reference host's
//! speed by a reference kernel run around each repetition
//! ([`Rep::normalize`]). Every repetition must deliver bit-identical
//! IV; the run
//! fails (non-zero exit, `"correct": false`) when a correctness check
//! or a regime guard does not hold. The last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! See `perfbench/README.md` for the workloads and every metric.

mod adhoc_plan;
mod burst_faults;
mod measure;
mod net_hot;
mod rep;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use measure::{
    median, nearest_rank, peak_rss_mib, ratio, reference_kernel, Metrics, Spans, REFERENCE_KERNEL_S,
};
use rep::Rep;

/// One benchmark workload over inputs generated from a seed.
pub trait Workload {
    /// The generated size, one line.
    fn describe(&self) -> String;

    /// Runs one repetition on a freshly set-up engine; `traced`
    /// attaches a recording tracer and the benchmark's spans.
    fn run(&self, traced: bool, epoch: Instant) -> Rep;

    /// Checks made once per run, outside any timing.
    fn check_outside_timing(&self, _first: &Rep) -> Result<(), String> {
        Ok(())
    }

    /// Fails a repetition that left the regime the workload was chosen
    /// for.
    fn guard(&self, rep: &Rep) -> Result<(), String>;
}

const WORKLOADS: [&str; 3] = ["net_hot", "adhoc_plan", "burst_faults"];

/// Every per-module metric a traced run reports, with its unit. A
/// workload that does not exercise a module reports 0 for it.
const LAYER_METRICS: [(&str, &str); 34] = [
    ("net.transport_us_per_frame", "us"),
    ("net.service_share", "ratio"),
    ("net.req_bytes_per_q", "B"),
    ("net.resp_bytes_per_q", "B"),
    ("cluster.submit_us.p50", "us"),
    ("cluster.submit_us.p99", "us"),
    ("serve.cost_growth", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_invalidations_per_kq", "1/kq"),
    ("serve.queue_depth_mean", "count"),
    ("serve.queue_depth_peak", "count"),
    ("serve.shed_iv_frac", "ratio"),
    ("serve.drain_ms", "ms"),
    ("core.searches_per_q", "count"),
    ("core.candidates_per_search", "count"),
    ("core.pruned_frac", "ratio"),
    ("core.memo_hit_ratio", "ratio"),
    ("core.replan_hit_ratio", "ratio"),
    ("faults.revisions_per_kq", "1/kq"),
    ("faults.replans_per_kq", "1/kq"),
    ("faults.iv_lost_frac", "ratio"),
    ("replication.syncs_per_kq", "1/kq"),
    ("storage.scans_per_q", "count"),
    ("storage.blocks_per_scan", "count"),
    ("storage.records_per_scan", "count"),
    ("storage.scan_us.p50", "us"),
    ("storage.scan_share", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("obs.events_per_q", "count"),
    ("obs.exposition_ms", "ms"),
    ("setup.catalog_s", "s"),
    ("setup.storage_s", "s"),
    ("setup.engine_s", "s"),
    ("setup.connect_s", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "net_hot" => Some(Box::new(net_hot::NetHot::new(seed))),
        "adhoc_plan" => Some(Box::new(adhoc_plan::AdhocPlan::new(seed))),
        "burst_faults" => Some(Box::new(burst_faults::BurstFaults::new(seed))),
        _ => None,
    }
}

/// Timing summary of consecutive repetitions holding at least
/// [`BLOCK_REQUESTS`] requests and [`BLOCK_SECONDS`] of timed wall.
/// Timing metrics are medians over blocks, so a short stall of the host
/// moves one block, not the run.
#[derive(Debug, Default)]
struct Block {
    queries: u64,
    wall_s: f64,
    cpu_s: f64,
    latencies_us: Vec<f64>,
}

const BLOCK_REQUESTS: usize = 1000;
const BLOCK_SECONDS: f64 = 1.0;

impl Block {
    fn add(&mut self, rep: &mut Rep) {
        self.queries += rep.submitted;
        self.wall_s += rep.wall_s;
        self.cpu_s += rep.cpu_s;
        self.latencies_us.append(&mut rep.latencies_us);
        rep.latencies_us.shrink_to_fit();
    }

    fn full(&self) -> bool {
        self.latencies_us.len() >= BLOCK_REQUESTS && self.wall_s >= BLOCK_SECONDS
    }

    fn summary(&self) -> BlockSummary {
        BlockSummary {
            qps: ratio(self.queries as f64, self.wall_s),
            p50_us: nearest_rank(&self.latencies_us, 0.50),
            p95_us: nearest_rank(&self.latencies_us, 0.95),
            p99_us: nearest_rank(&self.latencies_us, 0.99),
            cpu_us_per_q: ratio(self.cpu_s * 1e6, self.queries as f64),
            requests: self.latencies_us.len(),
        }
    }
}

#[derive(Debug)]
struct BlockSummary {
    qps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    cpu_us_per_q: f64,
    requests: usize,
}

/// What a series of repetitions left behind: every repetition (with
/// its latency samples folded away) and one summary per block.
struct Series {
    reps: Vec<Rep>,
    blocks: Vec<BlockSummary>,
}

/// Runs repetitions until `seconds` have passed, at least `min_reps`
/// of them and at least one full block.
fn repeat(
    workload: &dyn Workload,
    traced: bool,
    seconds: f64,
    min_reps: usize,
    epoch: Instant,
) -> Series {
    let start = Instant::now();
    let mut series = Series {
        reps: Vec::new(),
        blocks: Vec::new(),
    };
    let mut block = Block::default();
    while series.reps.len() < min_reps
        || series.blocks.is_empty()
        || start.elapsed().as_secs_f64() < seconds
    {
        let before = reference_kernel();
        let mut rep = workload.run(traced, epoch);
        let after = reference_kernel();
        rep.normalize(REFERENCE_KERNEL_S / (before * after).sqrt());
        block.add(&mut rep);
        if !series.reps.is_empty() {
            // Only the first repetition's spans are written out.
            rep.spans = None;
        }
        series.reps.push(rep);
        if block.full() {
            series.blocks.push(block.summary());
            block = Block::default();
        }
    }
    series
}

/// Every correctness check and regime guard over a run's repetitions,
/// each distinct failure listed once.
fn check(workload: &dyn Workload, reps: &[Rep]) -> Vec<String> {
    let first = &reps[0];
    let mut problems = Vec::new();
    for rep in reps {
        if rep.completed + rep.shed != rep.submitted {
            problems.push(format!(
                "completed {} + shed {} != submitted {}",
                rep.completed, rep.shed, rep.submitted
            ));
        }
        if rep.iv_out_of_range > 0 {
            problems.push(format!(
                "{} completions delivered IV outside [0, business value]",
                rep.iv_out_of_range
            ));
        }
        if rep.iv_yield().to_bits() != first.iv_yield().to_bits()
            || rep.served_frac().to_bits() != first.served_frac().to_bits()
        {
            problems.push("iv_yield/served_frac differ between repetitions of one seed".into());
        }
        if !(0.05..=0.95).contains(&rep.iv_yield()) {
            problems.push(format!(
                "iv_yield {:.4} outside the 0.05..0.95 band",
                rep.iv_yield()
            ));
        }
        if let Err(e) = workload.guard(rep) {
            problems.push(e);
        }
    }
    if let Err(e) = workload.check_outside_timing(first) {
        problems.push(e);
    }
    let mut seen = std::collections::BTreeSet::new();
    problems.retain(|p| seen.insert(p.clone()));
    problems
}

/// The end-to-end metrics, and the p99 latency printed beside them.
/// p99 is not one of them: the slowest 1% of `net_hot` round trips is
/// set by how often the virtual machine's vCPUs are preempted, which
/// drifts between runs, while p95 stays steady.
fn end_to_end(series: &Series) -> (Metrics, f64) {
    let of = |f: fn(&BlockSummary) -> f64| median(&series.blocks.iter().map(f).collect::<Vec<_>>());
    let setup: Vec<f64> = series.reps.iter().map(|r| r.setup.total()).collect();
    let first = &series.reps[0];
    let mut m = Metrics::default();
    m.put("qps", of(|b| b.qps), "queries/s");
    m.put("lat_p50_us", of(|b| b.p50_us), "us");
    m.put("lat_p95_us", of(|b| b.p95_us), "us");
    m.put("iv_yield", first.iv_yield(), "ratio");
    m.put("served_frac", first.served_frac(), "ratio");
    m.put("cpu_us_per_q", of(|b| b.cpu_us_per_q), "us");
    m.put("rss_peak_mb", peak_rss_mib(), "MiB");
    m.put("setup_s", median(&setup), "s");
    (m, of(|b| b.p99_us))
}

fn per_layer(untraced: &Series, traced: &Series) -> Metrics {
    let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for rep in &traced.reps {
        for (&name, &value) in &rep.layers {
            let is_time = LAYER_METRICS
                .iter()
                .any(|&(n, unit)| n == name && matches!(unit, "us" | "ms" | "s"));
            let value = if is_time { value * rep.speed } else { value };
            values.entry(name).or_default().push(value);
        }
        let setup = [
            ("setup.catalog_s", rep.setup.catalog_s),
            ("setup.storage_s", rep.setup.storage_s),
            ("setup.engine_s", rep.setup.engine_s),
            ("setup.connect_s", rep.setup.connect_s),
        ];
        for (name, value) in setup {
            values.entry(name).or_default().push(value);
        }
    }
    let wall = |s: &Series| median(&s.reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    values.insert(
        "obs.trace_overhead",
        vec![ratio(wall(traced), wall(untraced)) - 1.0],
    );
    let mut m = Metrics::default();
    for (name, unit) in LAYER_METRICS {
        let value = values.get(name).map_or(0.0, |v| median(v));
        m.put(name, value, unit);
    }
    debug_assert!(
        values
            .keys()
            .all(|k| LAYER_METRICS.iter().any(|(n, _)| n == k)),
        "a workload reported a metric missing from LAYER_METRICS"
    );
    m
}

/// Writes the first traced repetition's spans as JSON lines.
fn write_spans(workload: &str, seed: u64, spans: &Spans) -> std::io::Result<String> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    std::fs::write(&path, spans.to_jsonl())?;
    Ok(path.display().to_string())
}

/// Runs every workload, each in its own process so `rss_peak_mb` is
/// per workload; fails if any of them fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = build(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {WORKLOADS:?} or all)",
            args.workload
        );
        return ExitCode::from(2);
    };
    println!(
        "== {} seed={} trace={} :: {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        workload.describe()
    );

    let epoch = Instant::now();
    let (series, metrics) = if args.trace {
        // Half the time untraced, half traced: the difference is the
        // tracing overhead. End-to-end numbers never come from here.
        let untraced = repeat(workload.as_ref(), false, args.seconds / 2.0, 2, epoch);
        let mut traced = repeat(workload.as_ref(), true, args.seconds / 2.0, 2, epoch);
        let metrics = per_layer(&untraced, &traced);
        if let Some(spans) = traced.reps[0].spans.take() {
            match write_spans(&args.workload, args.seed, &spans) {
                Ok(path) => println!("spans: {} written to {path}", spans.spans().len()),
                Err(e) => eprintln!("perfbench: could not write spans: {e}"),
            }
        }
        let mut series = untraced;
        series.reps.extend(traced.reps);
        series.blocks.extend(traced.blocks);
        (series, metrics)
    } else {
        let series = repeat(workload.as_ref(), false, args.seconds, 3, epoch);
        let (metrics, p99_us) = end_to_end(&series);
        println!("lat_p99_us={p99_us:.3} us (printed, not gated)");
        (series, metrics)
    };

    let reps = &series.reps;
    let mut problems = check(workload.as_ref(), reps);
    if !metrics.all_finite() {
        problems.push("a metric is not a finite number".to_owned());
    }
    let attempted: u64 = reps.iter().map(|r| r.submitted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let requests: usize = series.blocks.iter().map(|b| b.requests).sum();
    let shed: u64 = reps.iter().map(|r| r.shed).sum();
    println!(
        "repetitions={} blocks={} requests={requests} queries={attempted} shed={shed} \
         failed={failed} cache_hit_ratio={:.4} revisions={} scans={} host_speed={:.3}",
        reps.len(),
        series.blocks.len(),
        reps[0].cache_hit_ratio,
        reps[0].revisions,
        reps[0].scans,
        median(&reps.iter().map(|r| r.speed).collect::<Vec<_>>())
    );
    print!("{}", metrics.to_lines());
    for problem in &problems {
        println!("CHECK FAILED: {problem}");
    }
    let correct = problems.is_empty() && failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
