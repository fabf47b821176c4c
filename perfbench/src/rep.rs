//! What one repetition of a workload measured, and the per-module
//! metrics read from the engine's public accessors and its trace.

use std::collections::BTreeMap;
use std::time::Instant;

use ivdss_catalog::ids::TableId;
use ivdss_core::memo::MemoStats;
use ivdss_core::plan::QueryRequest;
use ivdss_core::repair::ReplanStats;
use ivdss_obs::{EventKind, Trace};
use ivdss_serve::clock::Clock;
use ivdss_serve::engine::ServeEngine;
use ivdss_serve::metrics::MetricsSnapshot;

use crate::measure::{cost_growth, process_cpu_seconds, ratio, Spans};

/// Seconds spent in each set-up step before the first request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Catalog and replica timelines.
    pub catalog_s: f64,
    /// Materialized storage.
    pub storage_s: f64,
    /// Serving engine or cluster.
    pub engine_s: f64,
    /// Listener bind, server start and client connect.
    pub connect_s: f64,
}

impl Setup {
    /// Total set-up seconds.
    pub fn total(&self) -> f64 {
        self.catalog_s + self.storage_s + self.engine_s + self.connect_s
    }
}

/// One repetition of a workload: a fresh engine fed every pre-built
/// request once.
#[derive(Debug, Default)]
pub struct Rep {
    /// Queries submitted.
    pub submitted: u64,
    /// Queries delivered.
    pub completed: u64,
    /// Queries shed by admission.
    pub shed: u64,
    /// Queries lost to error replies, transport errors or plan errors.
    pub failed: u64,
    /// Completions whose IV fell outside `[0, business value]`.
    pub iv_out_of_range: u64,
    /// Business value offered by every submitted query.
    pub offered_bv: f64,
    /// Information value delivered, summed in completion order.
    pub delivered_iv: f64,
    /// Wall time of each request at the workload's entry point, µs.
    pub latencies_us: Vec<f64>,
    /// Wall seconds of the timed phase.
    pub wall_s: f64,
    /// Process CPU seconds over the timed phase.
    pub cpu_s: f64,
    /// Set-up split.
    pub setup: Setup,
    /// Plan-cache hit ratio of the run.
    pub cache_hit_ratio: f64,
    /// Fault revisions applied to the timeline belief.
    pub revisions: u64,
    /// Storage scans executed (calibration samples the storage engine
    /// recorded).
    pub scans: u64,
    /// Host speed while the repetition ran, relative to the reference
    /// host (see [`Rep::normalize`]).
    pub speed: f64,
    /// Per-module metrics (traced repetitions only).
    pub layers: BTreeMap<&'static str, f64>,
    /// The benchmark's spans (traced repetitions only).
    pub spans: Option<Spans>,
}

impl Rep {
    /// Rescales every wall and CPU time of the repetition to the
    /// reference host's speed: `speed` is the reference kernel's time on
    /// the reference host divided by its time around this repetition,
    /// so a host running at half speed doubles the raw times and halves
    /// `speed`, and the product is what the reference host would show.
    /// Per-module times are rescaled where they are reported.
    pub fn normalize(&mut self, speed: f64) {
        self.speed = speed;
        for t in &mut self.latencies_us {
            *t *= speed;
        }
        self.wall_s *= speed;
        self.cpu_s *= speed;
        let s = &mut self.setup;
        s.catalog_s *= speed;
        s.storage_s *= speed;
        s.engine_s *= speed;
        s.connect_s *= speed;
    }

    /// Delivered IV per unit of offered business value.
    pub fn iv_yield(&self) -> f64 {
        ratio(self.delivered_iv, self.offered_bv)
    }

    /// Share of submitted queries that were delivered.
    pub fn served_frac(&self) -> f64 {
        ratio(self.completed as f64, self.submitted as f64)
    }

    /// Counts one completion, checking its IV against its business
    /// value.
    pub fn complete(&mut self, iv: f64, business_value: f64) {
        self.completed += 1;
        self.delivered_iv += iv;
        if !(0.0..=business_value).contains(&iv) {
            self.iv_out_of_range += 1;
        }
    }
}

/// The timed phase of an in-process workload: submits every request
/// (query ids index `requests`), one `submit` call per latency sample,
/// then drains, and checks each completion against its business value.
/// Returns the drain time in milliseconds.
pub fn drive_engine<C: Clock>(
    engine: &mut ServeEngine<'_, C>,
    requests: &[QueryRequest],
    rep: &mut Rep,
    spans: &mut Spans,
) -> f64 {
    let owned = requests.to_vec();
    let mut completions = Vec::with_capacity(owned.len());
    rep.latencies_us.reserve(owned.len());
    let cpu0 = process_cpu_seconds();
    let start = Instant::now();
    for request in owned {
        let query = request.id().raw();
        rep.submitted += 1;
        let t = Instant::now();
        let outcome = engine.submit(request);
        rep.latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
        spans.record("serve.submit", t, None, query);
        match outcome {
            Ok(report) => {
                rep.shed += u64::from(report.shed.is_some());
                completions.extend(report.completed);
            }
            Err(_) => rep.failed += 1,
        }
    }
    let t = Instant::now();
    match engine.drain() {
        Ok(done) => completions.extend(done),
        Err(_) => rep.failed += 1,
    }
    let drain_ms = t.elapsed().as_secs_f64() * 1e3;
    spans.record("serve.drain", t, None, 0);
    rep.wall_s = start.elapsed().as_secs_f64();
    rep.cpu_s = process_cpu_seconds() - cpu0;

    rep.offered_bv = requests.iter().map(|r| r.business_value.value()).sum();
    for c in &completions {
        let bv = requests[c.query.raw() as usize].business_value.value();
        rep.complete(c.evaluation.information_value.value(), bv);
    }
    drain_ms
}

/// The per-module metrics of a traced in-process repetition: call-time
/// growth, drain time, the engine's counters and trace, and one timed
/// `exposition()`. Returns the tables the run scanned, in order.
pub fn in_process_layers<C: Clock>(
    rep: &mut Rep,
    engine: &ServeEngine<'_, C>,
    trace: &Trace,
    drain_ms: f64,
) -> Vec<TableId> {
    let layers = &mut rep.layers;
    layers.insert("serve.cost_growth", cost_growth(&rep.latencies_us));
    layers.insert("serve.drain_ms", drain_ms);
    let scanned = engine_layers(
        layers,
        &EngineView {
            snapshot: &engine.snapshot(),
            memo: engine.memo().stats(),
            replan: engine.replan_cache().stats(),
            trace,
        },
        rep.submitted,
        rep.offered_bv,
    );
    let t = Instant::now();
    std::hint::black_box(engine.exposition());
    layers.insert("obs.exposition_ms", t.elapsed().as_secs_f64() * 1e3);
    scanned
}

/// Engine-side counters one traced repetition reads.
pub struct EngineView<'a> {
    /// `snapshot()` after the final drain.
    pub snapshot: &'a MetricsSnapshot,
    /// `memo().stats()`.
    pub memo: MemoStats,
    /// `replan_cache().stats()`.
    pub replan: ReplanStats,
    /// The recording trace attached to the engine.
    pub trace: &'a Trace,
}

/// Fills the `serve.*`, `core.*`, `faults.*`, `replication.*`,
/// `storage.*` counts and `obs.events_per_q` from one traced run, and
/// returns the tables the run scanned, in order.
pub fn engine_layers(
    layers: &mut BTreeMap<&'static str, f64>,
    view: &EngineView<'_>,
    submitted: u64,
    offered_bv: f64,
) -> Vec<TableId> {
    let snap = view.snapshot;
    let q = submitted as f64;
    let per_kq = |n: u64| ratio(n as f64 * 1000.0, q);

    layers.insert("serve.cache_hit_ratio", snap.cache_hit_rate());
    layers.insert(
        "serve.cache_invalidations_per_kq",
        per_kq(snap.plan_cache_invalidations),
    );
    layers.insert("serve.queue_depth_mean", snap.queue_depth_mean);
    layers.insert("serve.queue_depth_peak", snap.queue_depth_peak);
    layers.insert("serve.shed_iv_frac", ratio(snap.shed_iv, offered_bv));

    layers.insert(
        "core.memo_hit_ratio",
        ratio(
            view.memo.hits as f64,
            (view.memo.hits + view.memo.misses) as f64,
        ),
    );
    layers.insert(
        "core.replan_hit_ratio",
        ratio(
            view.replan.hits as f64,
            (view.replan.hits + view.replan.misses) as f64,
        ),
    );

    layers.insert(
        "faults.revisions_per_kq",
        per_kq(snap.faults_syncs_slipped + snap.faults_syncs_dropped),
    );
    layers.insert("faults.replans_per_kq", per_kq(snap.faults_replans));
    layers.insert(
        "faults.iv_lost_frac",
        ratio(snap.faults_iv_lost_total, offered_bv),
    );

    let mut searches = 0u64;
    let mut explored = 0u64;
    let mut pruned = 0u64;
    let mut syncs = 0u64;
    let mut blocks = 0u64;
    let mut records = 0u64;
    let mut scanned = Vec::new();
    let events = view.trace.events();
    for event in &events {
        match &event.kind {
            EventKind::SearchStarted { .. } => searches += 1,
            EventKind::SearchFinished {
                explored: e,
                pruned: p,
                ..
            } => {
                explored += *e as u64;
                pruned += *p as u64;
            }
            EventKind::SyncDelivered { .. } => syncs += 1,
            EventKind::ScanDone {
                table,
                blocks: b,
                records: r,
                ..
            } => {
                blocks += b;
                records += r;
                scanned.push(*table);
            }
            _ => {}
        }
    }
    let scans = scanned.len() as f64;
    layers.insert("core.searches_per_q", ratio(searches as f64, q));
    layers.insert(
        "core.candidates_per_search",
        ratio(explored as f64, searches as f64),
    );
    layers.insert(
        "core.pruned_frac",
        ratio(pruned as f64, (explored + pruned) as f64),
    );
    layers.insert("replication.syncs_per_kq", per_kq(syncs));
    layers.insert("storage.scans_per_q", ratio(scans, q));
    layers.insert("storage.blocks_per_scan", ratio(blocks as f64, scans));
    layers.insert("storage.records_per_scan", ratio(records as f64, scans));
    layers.insert("obs.events_per_q", ratio(events.len() as f64, q));
    scanned
}
