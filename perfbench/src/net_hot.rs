//! `net_hot`: loopback TCP into a `NetServer` over a one-shard
//! `Cluster` on a simulated clock. One client connection runs a closed
//! loop of pre-built `SubmitBatch` frames drawn from a few templates
//! over long-period replicas, so plan-cache hits make planning nearly
//! free and the time goes to framing, the engine loop, dispatch
//! bookkeeping and calendar booking.

use std::sync::Arc;
use std::time::Instant;

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::placement::PlacementStrategy;
use ivdss_catalog::sharding::{ShardAssignment, ShardStrategy};
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_cluster::{Cluster, ClusterConfig, ShardRouter, ShardTimelines};
use ivdss_core::plan::{PlanError, QueryRequest};
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_costmodel::query::QueryId;
use ivdss_net::{
    NetClient, NetConfig, NetError, NetServer, QueryService, ReportMsg, Request, Response,
    SubmitSpec,
};
use ivdss_obs::{Trace, Tracer};
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_serve::clock::DesClock;
use ivdss_serve::engine::ServeConfig;
use ivdss_simkernel::rng::{SeedFactory, Stream, UniformStream};
use ivdss_simkernel::time::SimTime;
use ivdss_workloads::synthetic::{random_queries, RandomQueryConfig};

use crate::measure::{cost_growth, median, nearest_rank, process_cpu_seconds, ratio, Spans};
use crate::rep::{engine_layers, EngineView, Rep};
use crate::Workload;

const TABLES: usize = 16;
const SITES: usize = 4;
const REPLICATED: usize = 10;
const SYNC_PERIOD: f64 = 400.0;
const TEMPLATES: usize = 8;
const MAX_TABLES_PER_QUERY: usize = 3;
/// Queries per `SubmitBatch` frame.
const BATCH: usize = 64;
/// Frames per repetition. Dispatch walks every booking of the
/// calendars, so a longer repetition makes the late frames slower.
const FRAMES: usize = 48;
/// Sim time between consecutive queries. The local server needs 2.0
/// per query and each remote table read 2.0 at its site, so this keeps
/// every server below capacity.
const INTERARRIVAL: f64 = 4.0;
const BUSINESS_VALUE: f64 = 1.0;
/// Seed of the schema, replica schedules and templates. The world is
/// fixed so that `--seed` varies the traffic, not the system under
/// test.
const WORLD_SEED: u64 = 0x4E37_0001;

/// The generated inputs of one seed.
pub struct NetHot {
    seeds: SeedFactory,
    frames: Vec<Vec<SubmitSpec>>,
    horizon: f64,
}

impl NetHot {
    /// Builds every frame of the workload; `seed` draws the template
    /// of each query.
    pub fn new(seed: u64) -> Self {
        let seeds = SeedFactory::new(WORLD_SEED);
        let templates = random_queries(&RandomQueryConfig {
            queries: TEMPLATES,
            tables: TABLES,
            max_tables_per_query: MAX_TABLES_PER_QUERY,
            weight_range: (0.8, 1.2),
            seed: seeds.seed_for("templates"),
        });
        let mut pick = UniformStream::new(
            0.0,
            TEMPLATES as f64,
            SeedFactory::new(seed).seed_for("mix"),
        );
        let frames = (0..FRAMES)
            .map(|f| {
                (f * BATCH..(f + 1) * BATCH)
                    .map(|i| {
                        let template = &templates[(pick.next_sample() as usize).min(TEMPLATES - 1)];
                        SubmitSpec {
                            id: i as u64,
                            tables: template.tables().iter().map(|t| t.index() as u32).collect(),
                            weight: template.weight(),
                            selectivity: template.selectivity(),
                            business_value: BUSINESS_VALUE,
                            submitted_at: Some(i as f64 * INTERARRIVAL),
                        }
                    })
                    .collect()
            })
            .collect();
        NetHot {
            seeds,
            frames,
            horizon: (FRAMES * BATCH) as f64 * INTERARRIVAL,
        }
    }

    fn catalog(&self) -> Catalog {
        synthetic_catalog(&SyntheticConfig {
            tables: TABLES,
            sites: SITES,
            placement: PlacementStrategy::Uniform,
            replicated_tables: REPLICATED,
            mean_sync_period: SYNC_PERIOD,
            seed: self.seeds.seed_for("catalog"),
            ..SyntheticConfig::default()
        })
        .expect("net_hot catalog configuration is valid")
    }

    fn timelines(&self, catalog: &Catalog) -> SyncTimelines {
        SyncTimelines::from_plan(
            catalog.replication(),
            SyncMode::Stochastic {
                horizon: SimTime::new(self.horizon + 4.0 * SYNC_PERIOD),
                seed: self.seeds.seed_for("sync"),
            },
        )
    }

    fn cluster<'a>(
        catalog: &'a Catalog,
        timelines: &'a ShardTimelines,
        model: &'a StylizedCostModel,
        router: ShardRouter,
    ) -> Cluster<'a, DesClock> {
        let mut serve = ServeConfig::new(DiscountRates::new(0.05, 0.05));
        serve.audit_capacity = 0;
        Cluster::new(
            catalog,
            timelines,
            model,
            router,
            ClusterConfig {
                serve,
                steal: false,
            },
            DesClock::new(),
        )
    }

    fn router(&self, catalog: &Catalog) -> ShardRouter {
        ShardRouter::new(ShardAssignment::partition(
            catalog,
            1,
            ShardStrategy::Balanced,
            self.seeds.seed_for("shards"),
        ))
    }

    /// Delivered IV, summed in completion order, when the same frames
    /// go straight into a fresh in-process cluster.
    fn in_process_iv(&self) -> Result<f64, PlanError> {
        let catalog = self.catalog();
        let timelines = ShardTimelines::build(&self.timelines(&catalog), &self.router(&catalog));
        let model = StylizedCostModel::paper_fig4();
        let mut cluster = Self::cluster(&catalog, &timelines, &model, self.router(&catalog));
        let mut iv = 0.0;
        for spec in self.frames.iter().flatten() {
            let request = spec
                .to_request(cluster.now())
                .expect("pre-built specs are valid");
            for (_, c) in Cluster::submit(&mut cluster, request)?.completed {
                iv += c.evaluation.information_value.value();
            }
        }
        for (_, c) in Cluster::drain(&mut cluster)?.completed {
            iv += c.evaluation.information_value.value();
        }
        Ok(iv)
    }
}

/// The benchmark's `QueryService`: forwards every call to the cluster
/// and, when tracing, records a span around it.
struct TimedService<'a> {
    inner: Cluster<'a, DesClock>,
    spans: Spans,
}

impl TimedService<'_> {
    fn timed<T>(
        &mut self,
        name: &'static str,
        query: Option<u64>,
        call: impl FnOnce(&mut Cluster<'_, DesClock>) -> T,
    ) -> T {
        if !self.spans.enabled() {
            return call(&mut self.inner);
        }
        let start = Instant::now();
        let out = call(&mut self.inner);
        // A submit's parent is the frame that carried it; frame spans
        // take ids 0..FRAMES in the merged recorder.
        let parent = query.map(|q| q / BATCH as u64);
        self.spans.record(name, start, parent, query.unwrap_or(0));
        out
    }
}

impl QueryService for TimedService<'_> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn submit(&mut self, request: QueryRequest) -> Result<ReportMsg, PlanError> {
        let query = request.id().raw();
        self.timed("cluster.submit", Some(query), |c| {
            QueryService::submit(c, request)
        })
    }

    fn advance_to(&mut self, to: SimTime) -> Result<ReportMsg, PlanError> {
        self.timed("cluster.advance_to", None, |c| {
            QueryService::advance_to(c, to)
        })
    }

    fn drain(&mut self) -> Result<ReportMsg, PlanError> {
        self.timed("cluster.drain", None, |c| QueryService::drain(c))
    }

    fn exposition(&self) -> String {
        QueryService::exposition(&self.inner)
    }

    fn audit(&self, query: QueryId) -> Option<String> {
        QueryService::audit(&self.inner, query)
    }
}

impl Rep {
    fn absorb_report(&mut self, report: &ReportMsg) {
        self.shed += report.shed.len() as u64;
        for c in &report.completions {
            self.complete(c.delivered_iv, BUSINESS_VALUE);
        }
    }
}

impl Workload for NetHot {
    fn describe(&self) -> String {
        format!(
            "queries={} frames={FRAMES}x{BATCH} templates={TEMPLATES} tables={TABLES} \
             replicas={REPLICATED} sync_period={SYNC_PERIOD} sites={SITES} shards=1 \
             sim_horizon={}",
            FRAMES * BATCH,
            self.horizon
        )
    }

    fn run(&self, traced: bool, epoch: Instant) -> Rep {
        let mut rep = Rep::default();
        let t0 = Instant::now();
        let catalog = self.catalog();
        let timelines = ShardTimelines::build(&self.timelines(&catalog), &self.router(&catalog));
        let t1 = Instant::now();
        let model = StylizedCostModel::paper_fig4();
        let trace = Arc::new(Trace::new());
        let mut cluster = Self::cluster(&catalog, &timelines, &model, self.router(&catalog));
        if traced {
            cluster = cluster.with_tracer(Tracer::recording(Arc::clone(&trace)));
        }
        let mut service = TimedService {
            inner: cluster,
            spans: Spans::new(epoch, traced),
        };
        let t2 = Instant::now();
        let server = NetServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind loopback");
        let addr = server.local_addr().expect("bound address");
        let switch = server.shutdown_switch();

        let mut client_spans = Spans::new(epoch, traced);
        let mut resp_bytes = 0usize;
        let frames = self.frames.clone();
        let req_bytes: usize = if traced {
            frames
                .iter()
                .map(|f| Request::SubmitBatch(f.clone()).encode().len())
                .sum()
        } else {
            0
        };
        let mut drain_ms = 0.0;
        std::thread::scope(|scope| {
            let server_thread = scope.spawn(|| server.serve(&mut service));
            let connected = NetClient::connect(addr);
            let t3 = Instant::now();
            rep.setup.catalog_s = (t1 - t0).as_secs_f64();
            rep.setup.engine_s = (t2 - t1).as_secs_f64();
            rep.setup.connect_s = (t3 - t2).as_secs_f64();
            match connected {
                Err(_) => rep.failed += (FRAMES * BATCH) as u64,
                Ok(mut client) => {
                    let cpu0 = process_cpu_seconds();
                    let start = Instant::now();
                    for (i, frame) in frames.into_iter().enumerate() {
                        let sent = frame.len() as u64;
                        rep.submitted += sent;
                        rep.offered_bv += BUSINESS_VALUE * sent as f64;
                        let t = Instant::now();
                        let reply = client.submit_batch(frame);
                        rep.latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
                        client_spans.record("net.frame", t, None, i as u64);
                        match reply {
                            Ok(report) => {
                                if traced {
                                    resp_bytes += Response::Report(report.clone()).encode().len();
                                }
                                rep.absorb_report(&report);
                            }
                            Err(NetError::Remote { .. }) => rep.failed += sent,
                            Err(_) => {
                                rep.failed += sent;
                                break;
                            }
                        }
                    }
                    let t = Instant::now();
                    match client.drain() {
                        Ok(report) => rep.absorb_report(&report),
                        Err(_) => rep.failed += 1,
                    }
                    drain_ms = t.elapsed().as_secs_f64() * 1e3;
                    client_spans.record("net.drain", t, None, 0);
                    rep.wall_s = start.elapsed().as_secs_f64();
                    rep.cpu_s = process_cpu_seconds() - cpu0;
                }
            }
            switch.trip();
            if !matches!(server_thread.join(), Ok(Ok(_))) {
                rep.failed += 1;
            }
        });

        let snapshot = service.inner.snapshot();
        let shard = &snapshot.shards[0];
        rep.cache_hit_ratio = shard.cache_hit_rate();
        if traced {
            let frame_us = client_spans.micros_of("net.frame");
            let submit_us = service.spans.micros_of("cluster.submit");
            let rtt: f64 = frame_us.iter().sum();
            let service_us: f64 = submit_us.iter().sum();
            let q = rep.submitted as f64;
            let layers = &mut rep.layers;
            layers.insert(
                "net.transport_us_per_frame",
                ratio(rtt - service_us, frame_us.len() as f64),
            );
            layers.insert("net.service_share", ratio(service_us, rtt));
            layers.insert("net.req_bytes_per_q", ratio(req_bytes as f64, q));
            layers.insert("net.resp_bytes_per_q", ratio(resp_bytes as f64, q));
            layers.insert("cluster.submit_us.p50", median(&submit_us));
            layers.insert("cluster.submit_us.p99", nearest_rank(&submit_us, 0.99));
            layers.insert("serve.cost_growth", cost_growth(&submit_us));
            layers.insert("serve.drain_ms", drain_ms);
            let engine = &service.inner.engines()[0];
            engine_layers(
                layers,
                &EngineView {
                    snapshot: shard,
                    memo: engine.memo().stats(),
                    replan: engine.replan_cache().stats(),
                    trace: &trace,
                },
                rep.submitted,
                rep.offered_bv,
            );
            let t = Instant::now();
            std::hint::black_box(QueryService::exposition(&service.inner));
            layers.insert("obs.exposition_ms", t.elapsed().as_secs_f64() * 1e3);
            client_spans.absorb(service.spans);
            rep.spans = Some(client_spans);
        }
        rep
    }

    fn check_outside_timing(&self, first: &Rep) -> Result<(), String> {
        let iv = self
            .in_process_iv()
            .map_err(|e| format!("in-process replay failed to plan: {e}"))?;
        if iv.to_bits() == first.delivered_iv.to_bits() {
            Ok(())
        } else {
            Err(format!(
                "delivered IV over TCP ({}) differs from the in-process replay ({iv})",
                first.delivered_iv
            ))
        }
    }

    fn guard(&self, rep: &Rep) -> Result<(), String> {
        if rep.cache_hit_ratio >= 0.8 {
            Ok(())
        } else {
            Err(format!(
                "plan-cache hit ratio {:.3} < 0.8: not the hot-cache regime",
                rep.cache_hit_ratio
            ))
        }
    }
}
