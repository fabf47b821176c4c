//! `burst_faults`: an in-process `ServeEngine` fed a flash-crowd
//! arrival profile with multi-tenant business values, admission on
//! (zero dispatch backlog, bounded queue), a seeded fault plan (sync
//! slips and drops, site outages, cost jitter) and storage-backed
//! evaluation. Timeline revisions invalidate cached plans while queries
//! read them, admission sheds by marginal IV, and every dispatch scans
//! its local replicas.

use std::sync::Arc;
use std::time::Instant;

use ivdss_core::plan::QueryRequest;
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_faults::{FaultConfig, FaultPlan};
use ivdss_obs::{Trace, Tracer};
use ivdss_scenarios::arrival::IntensityProfile;
use ivdss_scenarios::scenario::{Popularity, ScenarioSpec};
use ivdss_scenarios::tenant::TenantSpec;
use ivdss_serve::clock::DesClock;
use ivdss_serve::engine::{ServeConfig, ServeEngine};
use ivdss_simkernel::rng::SeedFactory;
use ivdss_simkernel::time::{SimDuration, SimTime};
use ivdss_storage::{DeviceProfile, StorageConfig, StorageEngine};

use crate::measure::{median, ratio, Spans};
use crate::rep::{drive_engine, in_process_layers, Rep};
use crate::Workload;

const HORIZON: f64 = 14400.0;
/// Arrival rate outside the burst, below the local server's capacity.
const BASE_RATE: f64 = 0.3;
/// Arrival rate inside the burst, well above the local server's
/// capacity.
const PEAK_RATE: f64 = 2.5;
const BURST_START: f64 = 6000.0;
const BURST_LEN: f64 = 2400.0;
const QUEUE_CAPACITY: usize = 8;
const TABLES: usize = 32;
const SITES: usize = 4;
const REPLICATED: usize = 16;
const TEMPLATES: usize = 64;
/// Seed of the schema, replica schedules and templates. The world is
/// fixed so that `--seed` varies the traffic and the faults, not the
/// system under test.
const WORLD_SEED: u64 = 0xB0F7_0001;
/// Rows materialized per table: about 45 pages, so a scan reads a
/// working set that stays in cache rather than streaming from memory.
const ROW_CAP: u64 = 1024;
/// The storage device: a full scan of a capped table costs about one
/// time unit, so local replica reads load the local server and the
/// burst backs admission up.
const DEVICE: DeviceProfile = DeviceProfile {
    seconds_per_block: 2.0e-2,
    seconds_per_record: 1.0e-5,
    per_scan_overhead: 0.1,
};
/// Scans replayed to time `execute_table_scan`.
const SCAN_REPLAYS: usize = 2000;

/// The generated inputs of one seed.
pub struct BurstFaults {
    spec: ScenarioSpec,
    requests: Vec<QueryRequest>,
    faults: FaultPlan,
}

impl BurstFaults {
    /// Builds the request stream and the fault plan from `seed`.
    pub fn new(seed: u64) -> Self {
        let world = Self::spec(WORLD_SEED)
            .build_world()
            .expect("burst_faults world builds");
        // The stream draws arrivals, template popularity and tenants
        // from `seed` over the fixed world's templates.
        let mut stream = Self::spec(seed).stream(&world);
        let mut requests = Vec::new();
        while let Some(event) = stream.next_event() {
            assert_eq!(
                event.request.id().raw(),
                requests.len() as u64,
                "scenario streams number queries densely"
            );
            requests.push(event.request);
        }
        let faults = FaultPlan::generate(
            &FaultConfig {
                slip_probability: 0.15,
                drop_probability: 0.05,
                slip_delay: (1.0, 6.0),
                outage_mtbf: 300.0,
                outage_duration: (10.0, 40.0),
                jitter: (1.0, 1.5),
                horizon: SimTime::new(HORIZON),
            },
            &world.timelines,
            world.catalog.site_count(),
            SeedFactory::new(seed).seed_for("faults"),
        );
        BurstFaults {
            spec: Self::spec(WORLD_SEED),
            requests,
            faults,
        }
    }

    fn spec(seed: u64) -> ScenarioSpec {
        ScenarioSpec::new("burst-faults", seed)
            .with_horizon(HORIZON)
            .with_arrivals(IntensityProfile::flash_crowd(
                BASE_RATE,
                PEAK_RATE,
                BURST_START,
                BURST_LEN,
            ))
            .with_catalog_shape(TABLES, SITES, REPLICATED)
            .with_templates(TEMPLATES, 3)
            .with_popularity(Popularity::Zipf { exponent: 0.6 })
            .with_tenants(vec![
                TenantSpec::new("gold", 0.2, (5.0, 10.0)).with_sla(10.0),
                TenantSpec::new("silver", 0.3, (2.0, 4.0)).with_sla(25.0),
                TenantSpec::new("bronze", 0.5, (0.5, 1.5)),
            ])
            .with_queue_capacity(QUEUE_CAPACITY)
    }
}

impl Workload for BurstFaults {
    fn describe(&self) -> String {
        format!(
            "queries={} templates={} tables={} replicas={} sync_period={} sites={} \
             sim_horizon={HORIZON} burst={BASE_RATE}->{PEAK_RATE}@[{BURST_START},{}) \
             queue={QUEUE_CAPACITY} revisions={} outages={}",
            self.requests.len(),
            self.spec.templates,
            self.spec.tables,
            self.spec.replicated_tables,
            self.spec.mean_sync_period,
            self.spec.sites,
            BURST_START + BURST_LEN,
            self.faults.revisions().len(),
            self.faults.outages().len(),
        )
    }

    fn run(&self, traced: bool, epoch: Instant) -> Rep {
        let mut rep = Rep::default();
        let t0 = Instant::now();
        let world = self.spec.build_world().expect("burst_faults world builds");
        let t1 = Instant::now();
        let storage = StorageEngine::build(
            &world.catalog,
            &StorageConfig {
                row_cap: ROW_CAP,
                seed: self.spec.seeds().seed_for("storage"),
                ..StorageConfig::default()
            },
        )
        .with_device(DEVICE);
        let t2 = Instant::now();
        let model = StylizedCostModel::paper_fig4();
        let mut serve = ServeConfig::new(self.spec.rates);
        serve.queue_capacity = self.spec.queue_capacity;
        serve.dispatch_backlog = SimDuration::ZERO;
        let trace = Arc::new(Trace::new());
        let mut engine = ServeEngine::with_faults(
            &world.catalog,
            &world.timelines,
            &model,
            serve,
            DesClock::new(),
            self.faults.clone(),
        )
        .with_storage(&storage);
        if traced {
            engine = engine.with_tracer(Tracer::recording(Arc::clone(&trace)));
        }
        let t3 = Instant::now();
        rep.setup.catalog_s = (t1 - t0).as_secs_f64();
        rep.setup.storage_s = (t2 - t1).as_secs_f64();
        rep.setup.engine_s = (t3 - t2).as_secs_f64();

        let mut spans = Spans::new(epoch, traced);
        let drain_ms = drive_engine(&mut engine, &self.requests, &mut rep, &mut spans);
        let snapshot = engine.snapshot();
        rep.cache_hit_ratio = snapshot.cache_hit_rate();
        rep.revisions = snapshot.faults_syncs_slipped + snapshot.faults_syncs_dropped;
        rep.scans = storage.samples().len() as u64;
        if traced {
            let scanned = in_process_layers(&mut rep, &engine, &trace, drain_ms);
            // Replay the run's scans, outside the timed phase, to time
            // the storage layer on its own.
            let scan_us: Vec<f64> = scanned
                .iter()
                .take(SCAN_REPLAYS)
                .map(|&table| {
                    let t = Instant::now();
                    std::hint::black_box(storage.execute_table_scan(table));
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            let mean_scan_us = ratio(scan_us.iter().sum(), scan_us.len() as f64);
            rep.layers.insert("storage.scan_us.p50", median(&scan_us));
            rep.layers.insert(
                "storage.scan_share",
                ratio(mean_scan_us * scanned.len() as f64, rep.wall_s * 1e6),
            );
            rep.spans = Some(spans);
        }
        rep
    }

    fn guard(&self, rep: &Rep) -> Result<(), String> {
        if rep.shed == 0 {
            return Err("no query was shed: the burst no longer overloads admission".into());
        }
        if rep.revisions == 0 {
            return Err("no fault revision was applied".into());
        }
        if rep.scans == 0 {
            return Err("no storage scan ran".into());
        }
        Ok(())
    }
}
