//! `adhoc_plan`: an in-process `ServeEngine` with the default
//! `ServeConfig` on a simulated clock, fed pre-generated Poisson
//! arrivals drawn from about a thousand distinct templates. The plan
//! cache almost always misses, so every dispatch plans from scratch and
//! planning dominates. No socket is opened.

use std::sync::Arc;
use std::time::Instant;

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::placement::PlacementStrategy;
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_core::plan::QueryRequest;
use ivdss_core::value::{BusinessValue, DiscountRates};
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_costmodel::query::{QueryId, QuerySpec};
use ivdss_obs::{Trace, Tracer};
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_scenarios::arrival::{ArrivalProcess, IntensityProfile};
use ivdss_serve::clock::DesClock;
use ivdss_serve::engine::{ServeConfig, ServeEngine};
use ivdss_simkernel::rng::{SeedFactory, Stream, UniformStream};
use ivdss_simkernel::time::SimTime;
use ivdss_workloads::synthetic::{random_queries, RandomQueryConfig};

use crate::measure::Spans;
use crate::rep::{drive_engine, in_process_layers, Rep};
use crate::Workload;

const TABLES: usize = 16;
const SITES: usize = 4;
const REPLICATED: usize = 10;
const SYNC_PERIOD: f64 = 30.0;
const TEMPLATES: usize = 1000;
const MAX_TABLES_PER_QUERY: usize = 6;
/// Queries per repetition.
const QUERIES: usize = 4000;
/// Poisson arrival rate. The local server serves 0.5 queries per time
/// unit and a query reads about seven units of remote work spread over
/// the sites, so every server runs below capacity.
const ARRIVAL_RATE: f64 = 0.15;
/// Seed of the schema, replica schedules and templates. The world is
/// fixed so that `--seed` varies the traffic, not the system under
/// test.
const WORLD_SEED: u64 = 0xAD40_0001;

/// The generated inputs of one seed.
pub struct AdhocPlan {
    seeds: SeedFactory,
    requests: Vec<QueryRequest>,
    distinct: usize,
    horizon: f64,
}

impl AdhocPlan {
    /// Builds every request of the workload; `seed` draws the arrival
    /// times, the template of each query and its business value.
    pub fn new(seed: u64) -> Self {
        let seeds = SeedFactory::new(WORLD_SEED);
        let traffic = SeedFactory::new(seed);
        let templates = random_queries(&RandomQueryConfig {
            queries: TEMPLATES,
            tables: TABLES,
            max_tables_per_query: MAX_TABLES_PER_QUERY,
            weight_range: (0.8, 2.5),
            seed: seeds.seed_for("templates"),
        });
        let mut arrivals = ArrivalProcess::new(
            IntensityProfile::constant(ARRIVAL_RATE),
            traffic.seed_for("arrivals"),
        );
        let mut pick = UniformStream::new(0.0, TEMPLATES as f64, traffic.seed_for("mix"));
        let mut value = UniformStream::new(0.5, 1.5, traffic.seed_for("value"));
        let mut used = vec![false; TEMPLATES];
        let requests: Vec<QueryRequest> = (0..QUERIES)
            .map(|i| {
                let t = (pick.next_sample() as usize).min(TEMPLATES - 1);
                used[t] = true;
                let template = &templates[t];
                let spec = QuerySpec::with_profile(
                    QueryId::new(i as u64),
                    template.tables().to_vec(),
                    template.weight(),
                    template.selectivity(),
                );
                QueryRequest::new(spec, arrivals.next_arrival())
                    .with_business_value(BusinessValue::new(value.next_sample()))
            })
            .collect();
        let horizon = requests.last().map_or(0.0, |r| r.submitted_at.value());
        AdhocPlan {
            seeds,
            requests,
            distinct: used.iter().filter(|u| **u).count(),
            horizon,
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
        .expect("adhoc_plan catalog configuration is valid")
    }
}

impl Workload for AdhocPlan {
    fn describe(&self) -> String {
        format!(
            "queries={QUERIES} distinct_templates={} tables={TABLES} replicas={REPLICATED} \
             sync_period={SYNC_PERIOD} sites={SITES} arrival_rate={ARRIVAL_RATE} \
             sim_horizon={:.1}",
            self.distinct, self.horizon
        )
    }

    fn run(&self, traced: bool, epoch: Instant) -> Rep {
        let mut rep = Rep::default();
        let t0 = Instant::now();
        let catalog = self.catalog();
        let timelines = SyncTimelines::from_plan(
            catalog.replication(),
            SyncMode::Stochastic {
                horizon: SimTime::new(self.horizon + 4.0 * SYNC_PERIOD),
                seed: self.seeds.seed_for("sync"),
            },
        );
        let t1 = Instant::now();
        let model = StylizedCostModel::paper_fig4();
        let trace = Arc::new(Trace::new());
        let mut engine = ServeEngine::new(
            &catalog,
            &timelines,
            &model,
            ServeConfig::new(DiscountRates::new(0.05, 0.05)),
            DesClock::new(),
        );
        if traced {
            engine = engine.with_tracer(Tracer::recording(Arc::clone(&trace)));
        }
        let t2 = Instant::now();
        rep.setup.catalog_s = (t1 - t0).as_secs_f64();
        rep.setup.engine_s = (t2 - t1).as_secs_f64();

        let mut spans = Spans::new(epoch, traced);
        let drain_ms = drive_engine(&mut engine, &self.requests, &mut rep, &mut spans);
        rep.cache_hit_ratio = engine.snapshot().cache_hit_rate();
        if traced {
            in_process_layers(&mut rep, &engine, &trace, drain_ms);
            rep.spans = Some(spans);
        }
        rep
    }

    fn guard(&self, rep: &Rep) -> Result<(), String> {
        if rep.cache_hit_ratio <= 0.2 {
            Ok(())
        } else {
            Err(format!(
                "plan-cache hit ratio {:.3} > 0.2: planning no longer dominates",
                rep.cache_hit_ratio
            ))
        }
    }
}
